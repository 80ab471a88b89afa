"""The symmetric lift of a relation and its distinguished extensions.

A relation R from H1 to H2 lifts to the symmetric relation

    S = { ((f1, 0), (0, g2)) : (f1, g2) in R }

in H1 (+) H2.  Everything of interest about R's extension theory lives in
that bigger space: the adjoint S*, the selfadjoint extensions H and K,
the Friedrichs and Krein-von Neumann extensions S_F and S_K, their
intersection S0, the intermediate symmetric extension S~, and the
boundary-parameter space G0 = mul R* (+) ker R* that parametrizes the
nonnegative selfadjoint extensions.

All members are built from their closed product/graph forms: each graph
basis is a stack of the checked bases of R, R*, dom R, ran R, mul R*,
ker R* and identities on disjoint rows of C^{2n}, so it needs no Gram
test of its own (subspace._stack); R* and G~ are signed swaps of the
checked G and op R* (subspace._signed_swap), untested too.  lift checks
the closed-form S* against adjoint(S) by a Gram-norm angle, with no
second factorization and, unless the check fails or the Frobenius
bracket of subspace._sine_below cannot decide it, no SVD; the generic
Friedrichs/Krein routes stay independent of the closed forms so tests
can compare them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, ToleranceConfig
from .errors import DimensionMismatch, PreconditionViolated
from .relation import (
    LinearRelation,
    SymmetryReport,
    _adjoint_from_complement,
    _mul,
    _sub_relation,
    adjoint,
    classify,
    componentwise_sum,
    from_product,
    operator_part,
    relation_equal,
    resolvent,
)
from .subspace import (
    RelateResult,
    Subspace,
    Verdict,
    _signed_swap,
    _sine_angle,
    _sine_below,
    _stack,
    complement,
    oplus,
    relate,
    span,
)

__all__ = [
    "LiftBundle",
    "lift",
    "friedrichs_generic",
    "krein_generic",
    "nonneg_extension",
    "is_extremal",
    "krein_order_margin",
    "krein_order_check",
    "extremal_family",
    "s0_adjoint_decomposition_check",
    "is_singular_relation",
]


@dataclass(eq=False)
class LiftBundle:
    """R together with its lift and every distinguished extension.

    Relations S .. S_tilde_star act in H1 (+) H2 = C^{n1+n2}; G, G0 and
    G_tilde are subspaces of that sum space.  G0 and G_tilde carry the
    fixed bases produced by the deterministic factorization order here, so
    boundary-parameter matrices are reproducible across runs.  A theta
    for extend is read in the coordinates of the G, G0 or G_tilde basis
    that the extensions command prints, so changing how any of the three
    is factored changes what a saved theta means: a breaking change.

    cfg is the ToleranceConfig given to lift.  Every function that takes
    a bundle, and every boundary triplet built from one, decides its
    verdicts with it; none of them takes a tolerance of its own.
    """

    R: LinearRelation
    R_star: LinearRelation
    dom_R: Subspace
    ran_R: Subspace
    mul_R_star: Subspace
    ker_R_star: Subspace
    S: LinearRelation
    S_star: LinearRelation
    H: LinearRelation
    K: LinearRelation
    S_F: LinearRelation
    S_K: LinearRelation
    S0: LinearRelation
    S0_star: LinearRelation
    S_tilde: LinearRelation
    S_tilde_star: LinearRelation
    G: Subspace
    G0: Subspace
    G_tilde: Subspace
    cfg: ToleranceConfig

    @property
    def n1(self) -> int:
        return self.R.n1

    @property
    def n2(self) -> int:
        return self.R.n2

    @property
    def n(self) -> int:
        return self.R.n1 + self.R.n2


def _adjoint_sines(t: LinearRelation, sym: LinearRelation) -> np.ndarray:
    """A matrix whose spectral norm is the sine of the largest principal
    angle between t and adjoint(sym), for square sym.

    adjoint(sym) is the orthogonal complement of J sym, J(h, k) = (k, -h).
    So when dim t + dim sym = 2n, t equals adjoint(sym) iff it is
    orthogonal to J sym, and the matrix is t^H J sym; otherwise that angle
    is pi/2, and the matrix is [[1]].
    """
    n = sym.n1
    if t.dim + sym.dim != 2 * n:
        return np.ones((1, 1))
    j_sym = _signed_swap(sym.graph, n, "head")
    return t.graph.basis.conj().T @ j_sym.basis


def _adjoint_angle(t: LinearRelation, sym: LinearRelation) -> float:
    """Largest principal angle between t and adjoint(sym), for square sym."""
    return _sine_angle(_adjoint_sines(t, sym))


def lift(rel: LinearRelation,
         cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> LiftBundle:
    """Build the lift S of R and the full extension inventory around it."""
    n1, n2 = rel.n1, rel.n2
    n = n1 + n2
    # G = (graph R)^perp is also the flipped graph of R*: one factorization
    g_space = complement(rel.graph, cfg)
    r_star = _adjoint_from_complement(rel, g_space)

    dom_r = span(rel.domain_block, n1, cfg)
    ran_r = span(rel.range_block, n2, cfg)
    # mul R* = (dom R)^perp and ker R* = (ran R)^perp; taking complements
    # keeps the bases exactly orthogonal to dom R / ran R.
    mul_r_star = complement(dom_r, cfg)
    ker_r_star = complement(ran_r, cfg)

    def lifted(*blocks) -> LinearRelation:
        return LinearRelation(n, n, _stack(2 * n, blocks))

    # rows of the four components of H1 (+) H2 (+) H1 (+) H2 = C^{2n}; each
    # relation below is a 2 x 2 block arrangement of parts on these rows
    h1, h2, k1, k2 = (0, n1), (n1, n), (n, n + n1), (n + n1, 2 * n)
    # graph R*, whose pairs are (h2, k1), fills the adjacent rows h2 and k1
    # as one block; only graph R is split, its F rows on h1, its G rows on k2
    s_block = (rel.graph, [h1, k2])
    r_star_block = (r_star.graph, [(n1, n + n1)])
    all_h1 = (Subspace.full(n1), [h1])
    all_k2 = (Subspace.full(n2), [k2])

    s_rel = lifted(s_block)
    s_star = lifted(all_h1, r_star_block, all_k2)

    # a verdict: the angle is factored only to word the error
    if not _sine_below(_adjoint_sines(s_star, s_rel), cfg.angle_tol):
        raise ArithmeticError(
            "closed-form S* disagrees with adjoint(S): angle "
            f"{_adjoint_angle(s_star, s_rel):.3e}"
        )

    h_rel = lifted(all_h1, all_k2)
    k_rel = lifted(s_block, r_star_block)
    s_f = lifted((dom_r, [h1]), (mul_r_star, [k1]), all_k2)
    s_k = lifted(all_h1, (ker_r_star, [h2]), (ran_r, [k2]))
    s0 = lifted((dom_r, [h1]), (ran_r, [k2]))
    s0_star = lifted(all_h1, (ker_r_star, [h2]), (mul_r_star, [k1]), all_k2)
    s_tilde = lifted(s_block, (mul_r_star, [k1]))
    s_tilde_star = lifted((dom_r, [h1]), r_star_block, all_k2)

    g0_space = oplus(mul_r_star, ker_r_star)

    # G~ = J graph(op R*), J(f, g) = (g, -f)
    r_star_op = operator_part(r_star, cfg)
    g_tilde = _signed_swap(r_star_op.graph, n2, "head")

    return LiftBundle(
        R=rel,
        R_star=r_star,
        dom_R=dom_r,
        ran_R=ran_r,
        mul_R_star=mul_r_star,
        ker_R_star=ker_r_star,
        S=s_rel,
        S_star=s_star,
        H=h_rel,
        K=k_rel,
        S_F=s_f,
        S_K=s_k,
        S0=s0,
        S0_star=s0_star,
        S_tilde=s_tilde,
        S_tilde_star=s_tilde_star,
        G=g_space,
        G0=g0_space,
        G_tilde=g_tilde,
        cfg=cfg,
    )


def _restrict_star(sym: LinearRelation, window: Subspace, side: str,
                   cfg: ToleranceConfig) -> LinearRelation:
    """Members of sym* whose chosen component lies in the window subspace."""
    star = adjoint(sym, cfg)
    block = star.domain_block if side == "dom" else star.range_block
    residual = block - window.basis @ (window.basis.conj().T @ block)
    return _sub_relation(star, residual, cfg)


def friedrichs_generic(sym: LinearRelation,
                       cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> LinearRelation:
    """Friedrichs extension {(h, k) in S* : h in closure of dom S}.

    This definitional form is valid in the zero-form case, i.e. when the
    numerical range of S collapses to {0}; other inputs are refused.
    """
    if not classify(sym, cfg).dom_perp_ran:
        raise PreconditionViolated(
            "friedrichs_generic needs dom S perpendicular to ran S"
        )
    return _restrict_star(sym, span(sym.domain_block, sym.n1, cfg), "dom", cfg)


def krein_generic(sym: LinearRelation,
                  cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> LinearRelation:
    """Krein-von Neumann extension {(h, k) in S* : k in closure of ran S}.

    Same zero-form precondition as friedrichs_generic; it is also the
    inverse of the Friedrichs extension of the inverse.
    """
    if not classify(sym, cfg).dom_perp_ran:
        raise PreconditionViolated(
            "krein_generic needs dom S perpendicular to ran S"
        )
    return _restrict_star(sym, span(sym.range_block, sym.n2, cfg), "ran", cfg)


def nonneg_extension(bundle: LiftBundle,
                     theta: LinearRelation) -> LinearRelation:
    """Selfadjoint extension attached to a boundary parameter on G0.

    theta is a selfadjoint relation in the fixed basis of
    G0 = mul R* (+) ker R*.  The extension is the orthogonal graph sum of
    the zero operator on the domain closure, theta transplanted onto G0,
    and the purely multivalued part {0} x ({0} (+) ran R).  The result is
    selfadjoint, extends S0, and is nonnegative exactly when theta is.
    """
    g0 = bundle.G0.dim
    if theta.n1 != g0 or theta.n2 != g0:
        raise DimensionMismatch(
            f"theta acts on C^{theta.n1}, but dim G0 = {g0}"
        )
    if g0 and not classify(theta, bundle.cfg).is_selfadjoint:
        raise PreconditionViolated("theta is not selfadjoint in G0")

    n = bundle.n
    g0_b = bundle.G0.basis
    # S0's graph is the zero operator on dom R (rows h1) followed by
    # {0} x ran R (rows k2); theta's columns go between the two
    s0_b = bundle.S0.graph.basis
    split = bundle.dom_R.dim
    theta_cols = np.vstack(
        [g0_b @ theta.domain_block, g0_b @ theta.range_block]
    )
    basis = np.hstack([s0_b[:, :split], theta_cols, s0_b[:, split:]])
    return LinearRelation(n, n, Subspace(2 * n, basis))


def _require_nonneg_selfadjoint_extension(a: LinearRelation,
                                          bundle: LiftBundle) -> SymmetryReport:
    report = classify(a, bundle.cfg)
    if not report.is_selfadjoint:
        raise PreconditionViolated("extension is not selfadjoint")
    if not report.is_nonnegative:
        raise PreconditionViolated("extension is not nonnegative")
    if relate(bundle.S.graph, a.graph, bundle.cfg).verdict not in (
        Verdict.EQUAL,
        Verdict.SUBSET,
    ):
        raise PreconditionViolated("relation does not extend S")
    return report


def is_extremal(a: LinearRelation, bundle: LiftBundle) -> bool:
    """Extremality of a nonnegative selfadjoint extension of S.

    Extremal extensions are exactly the ones whose own numerical range
    collapses to {0}; the exact cross-Gram test decides that.
    """
    return _require_nonneg_selfadjoint_extension(a, bundle).dom_perp_ran


def krein_order_margin(a: LinearRelation, bundle: LiftBundle) -> float:
    """Worst eigenvalue of the two resolvent-difference matrices.

    The extreme extensions bound every nonnegative selfadjoint extension
    A of S in the antitone resolvent order,

        (S_F + 1)^{-1} <= (A + 1)^{-1} <= (S_K + 1)^{-1},

    so both differences must be PSD.  Returns the smallest eigenvalue of
    their Hermitian parts (>= psd_floor means the order holds); A's
    selfadjointness is decided by classify's angle rule beforehand.
    """
    _require_nonneg_selfadjoint_extension(a, bundle)
    cfg = bundle.cfg
    res_f = resolvent(bundle.S_F, -1.0, cfg)
    res_a = resolvent(a, -1.0, cfg)
    res_k = resolvent(bundle.S_K, -1.0, cfg)
    margin = math.inf
    for diff in (res_a - res_f, res_k - res_a):
        if not diff.size:
            continue
        herm = (diff + diff.conj().T) / 2.0
        margin = min(margin, float(np.linalg.eigvalsh(herm)[0]))
    return margin


def krein_order_check(a: LinearRelation, bundle: LiftBundle) -> bool:
    """Resolvent sandwich (S_F + 1)^-1 <= (A + 1)^-1 <= (S_K + 1)^-1."""
    return krein_order_margin(a, bundle) >= bundle.cfg.psd_floor


def extremal_family(bundle: LiftBundle, l_space: Subspace) -> LinearRelation:
    """Extension for the product parameter theta = L x (G0 (-) L)."""
    if l_space.ambient_dim != bundle.G0.dim:
        raise DimensionMismatch(
            f"L lives in C^{l_space.ambient_dim}, expected C^{bundle.G0.dim}"
        )
    if not bundle.G0.dim:
        return bundle.S_F  # S0 is selfadjoint, so S_F = S_K = S0
    theta = from_product(l_space, complement(l_space, bundle.cfg))
    a = nonneg_extension(bundle, theta)
    if not is_extremal(a, bundle):
        raise ArithmeticError("product-form parameter produced a non-extremal extension")
    return a


def _decomposition_results(
    bundle: LiftBundle,
) -> tuple[RelateResult, RelateResult, RelateResult]:
    """S* vs H +^ K, S0* vs S_F +^ S_K, and S0* vs its closed form."""
    cfg = bundle.cfg
    s0_adj = adjoint(bundle.S0, cfg)
    sum_hk = componentwise_sum(bundle.H, bundle.K, cfg)
    sum_fk = componentwise_sum(bundle.S_F, bundle.S_K, cfg)
    return (
        relation_equal(bundle.S_star, sum_hk, cfg),
        relation_equal(s0_adj, sum_fk, cfg),
        relation_equal(s0_adj, bundle.S0_star, cfg),
    )


def s0_adjoint_decomposition_check(bundle: LiftBundle) -> bool:
    """S0* = S_F +^ S_K (and the closed form), plus S* = H +^ K."""
    return all(
        r.verdict is Verdict.EQUAL for r in _decomposition_results(bundle)
    )


def is_singular_relation(rel: LinearRelation,
                         cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """True when R is the product (closure of dom R) x (mul R).

    Singular relations are exactly the ones whose operator part is the
    zero operator, and exactly the ones whose Friedrichs and Krein
    extensions are disjoint (meet equal to the lift itself).
    """
    product = from_product(span(rel.domain_block, rel.n1, cfg), _mul(rel, cfg))
    return relate(rel.graph, product.graph, cfg).verdict is Verdict.EQUAL
