"""The symmetric lift of a relation and its distinguished extensions.

A relation R from H1 to H2 lifts to the symmetric relation

    S = { ((f1, 0), (0, g2)) : (f1, g2) in R }

in H1 (+) H2.  Everything of interest about R's extension theory lives in
that bigger space: the adjoint S*, the selfadjoint extensions H and K,
the Friedrichs and Krein-von Neumann extensions S_F and S_K, their
intersection S0, the intermediate symmetric extension S~, and the
boundary-parameter space G0 = mul R* (+) ker R* that parametrizes the
nonnegative selfadjoint extensions.

lift takes at most two SVDs and at most two QRs: one complete QR of the
graph basis of R gives G = (graph R)^perp with no rank to decide
(subspace.complement), one SVD of the domain block F gives dom R and
mul R* = (dom R)^perp as the two halves of its U, and one of the range
block gives ran R and ker R* the same way; op R* splits the lift's own
mul R* off R* by one QR (relation._operator_part_off).  A square or
wide block of full rank takes one Cholesky in place of its SVD
(subspace._span_and_complement): its span is all of H1 or H2 and the
complement {0}, so a densely defined R with dense range (G0 = {0})
factors no SVD at all.  All members are
built from their closed product/graph forms: each graph basis is a stack
of the checked bases of R, R*, dom R, ran R, mul R*, ker R* and
identities on disjoint rows of C^{2n}, so it needs no Gram test of its
own (subspace._stack); R* and G~ are signed swaps of the checked G and
op R* (subspace._signed_swap), untested too.  lift builds G, G0 and
G~.  A lifted relation is built on its first read, and holds a stack of
its parts, not a matrix; its zero-padded graph basis is assembled on
the first read of that basis, so a caller that reads only R's parts
and the parameter bases (the boundary triplets, weyl, Krein's formula)
assembles none.  lift marks the bundle it returns, so the triplets
built from it may read their Weyl functions in closed form.  lift
checks the closed-form S* against adjoint(S) by a Gram-norm angle on
its one nonzero block R*^H J graph R, with no second factorization and,
unless the check fails or the Frobenius bracket of
subspace._sine_below cannot decide it, no SVD; the generic
Friedrichs/Krein routes stay independent of the closed forms so tests
can compare them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import DEFAULT_TOLERANCES, ToleranceConfig
from .errors import DimensionMismatch, PreconditionViolated
from .relation import (
    LinearRelation,
    SymmetryReport,
    _adjoint_from_complement,
    _hermitian_floor,
    _mul,
    _operator_part_off,
    _sub_relation,
    adjoint,
    classify,
    componentwise_sum,
    from_product,
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
    _span_and_complement,
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
    G_tilde are subspaces of that sum space.  Their bases come from
    deterministic factorizations, so boundary-parameter matrices are
    reproducible across runs of one version; a change in how lift
    factors moves them within the same spans.  A theta file that carries
    the basis it was written against (its coordinates entry) is mapped
    into the current one by extend, so it keeps its meaning; one without
    it is read in the current basis.

    G, G0 and G~ are built by lift.  S, S*, H, K, S_F, S_K, S0, S0*, S~
    and S~* are built on their first read, each a stack of the bundle's
    own fields R, R_star, dom_R, ran_R, mul_R_star and ker_R_star (and
    two identities) as they are then; a dataclasses.replace'd bundle
    stacks its new fields.  A member's graph basis is assembled on the
    first read of that basis, not when the member is built.

    cfg is the ToleranceConfig given to lift.  Every function that takes
    a bundle, and every boundary triplet built from one, decides its
    verdicts with it; none of them takes a tolerance of its own.

    _from_lift is set by lift alone; dataclasses.replace resets it, and a
    hand-made bundle never has it.  The boundary triplets of a bundle
    that has it take their Weyl functions in closed form from the
    fields, which only lift makes fit together.
    """

    R: LinearRelation
    R_star: LinearRelation
    dom_R: Subspace
    ran_R: Subspace
    mul_R_star: Subspace
    ker_R_star: Subspace
    G: Subspace
    G0: Subspace
    G_tilde: Subspace
    cfg: ToleranceConfig
    _from_lift: bool = field(default=False, init=False, repr=False)

    @property
    def n1(self) -> int:
        return self.R.n1

    @property
    def n2(self) -> int:
        return self.R.n2

    @property
    def n(self) -> int:
        return self.R.n1 + self.R.n2

    @cached_property
    def _identities(self) -> tuple[Subspace, Subspace]:
        """All of H1 and all of H2, the parts every lifted relation with
        an identity block stacks."""
        return Subspace.full(self.n1), Subspace.full(self.n2)

    def _lifted(self, *names: str) -> LinearRelation:
        """The relation in C^n whose graph stacks the named parts of R.

        Rows are ranges of H1 (+) H2 (+) H1 (+) H2 = C^{2n}, named h1, h2,
        k1, k2 in that order; graph R puts its F rows on h1 and its G rows
        on k2, graph R* = (h2, k1) the adjacent rows at once, and H1 and
        H2 are the identities on h1 and k2.  Each part is the bundle's own
        field as it is when the relation is built.
        """
        n1, n = self.n1, self.n
        h1, h2, k1, k2 = (0, n1), (n1, n), (n, n + n1), (n + n1, 2 * n)
        all_h1, all_k2 = self._identities
        blocks = {
            "graph R": (self.R.graph, [h1, k2]),
            "graph R*": (self.R_star.graph, [(n1, n + n1)]),
            "H1": (all_h1, [h1]),
            "H2": (all_k2, [k2]),
            "dom R": (self.dom_R, [h1]),
            "ran R": (self.ran_R, [k2]),
            "mul R*": (self.mul_R_star, [k1]),
            "ker R*": (self.ker_R_star, [h2]),
        }
        return LinearRelation(
            n, n, _stack(2 * n, [blocks[name] for name in names]))

    @cached_property
    def S(self) -> LinearRelation:
        return self._lifted("graph R")

    @cached_property
    def S_star(self) -> LinearRelation:
        return self._lifted("H1", "graph R*", "H2")

    @cached_property
    def H(self) -> LinearRelation:
        return self._lifted("H1", "H2")

    @cached_property
    def K(self) -> LinearRelation:
        return self._lifted("graph R", "graph R*")

    @cached_property
    def S_F(self) -> LinearRelation:
        return self._lifted("dom R", "mul R*", "H2")

    @cached_property
    def S_K(self) -> LinearRelation:
        return self._lifted("H1", "ker R*", "ran R")

    @cached_property
    def S0(self) -> LinearRelation:
        return self._lifted("dom R", "ran R")

    @cached_property
    def S0_star(self) -> LinearRelation:
        return self._lifted("H1", "ker R*", "mul R*", "H2")

    @cached_property
    def S_tilde(self) -> LinearRelation:
        return self._lifted("graph R", "mul R*")

    @cached_property
    def S_tilde_star(self) -> LinearRelation:
        return self._lifted("dom R", "graph R*", "H2")

    # (S_F + 1)^{-1} and (S_K + 1)^{-1}, which every Krein-order margin
    # on this bundle compares against
    @cached_property
    def _friedrichs_resolvent(self) -> np.ndarray:
        return resolvent(self.S_F, -1.0, self.cfg)

    @cached_property
    def _krein_resolvent(self) -> np.ndarray:
        return resolvent(self.S_K, -1.0, self.cfg)


def _adjoint_sines(t: LinearRelation, rel: LinearRelation) -> np.ndarray:
    """A matrix whose spectral norm is the sine of the largest principal
    angle between t and adjoint(rel).

    adjoint(rel) is the orthogonal complement of J rel, J(h, k) = (k, -h).
    So when dim t + dim rel = n1 + n2, t equals adjoint(rel) iff it is
    orthogonal to J rel, and the matrix is t^H J rel; otherwise that angle
    is pi/2, and the matrix is [[1]].
    """
    if t.dim + rel.dim != rel.n1 + rel.n2:
        return np.ones((1, 1))
    j_rel = _signed_swap(rel.graph, rel.n1, "head")
    return t.graph.basis.conj().T @ j_rel.basis


def _adjoint_angle(t: LinearRelation, rel: LinearRelation) -> float:
    """Largest principal angle between t and adjoint(rel)."""
    return _sine_angle(_adjoint_sines(t, rel))


def lift(rel: LinearRelation,
         cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> LiftBundle:
    """Build the lift S of R and the full extension inventory around it."""
    # G = (graph R)^perp is also the flipped graph of R*: one QR
    g_space = complement(rel.graph)
    r_star = _adjoint_from_complement(rel, g_space)

    # the closed-form S* is adjoint(S) iff R* is adjoint(R): J graph S is
    # [0; G; -F; 0] on the rows h1, h2, k1, k2, S* stacks identities on h1
    # and k2, where J S is zero, and graph R* on h2 and k1, so S*^H J S is
    # zero but for R*^H J graph R.  A verdict: the angle is factored only
    # to word the error
    if not _sine_below(_adjoint_sines(r_star, rel), cfg.angle_tol):
        raise ArithmeticError(
            "closed-form S* disagrees with adjoint(S): angle "
            f"{_adjoint_angle(r_star, rel):.3e}"
        )

    # mul R* = (dom R)^perp and ker R* = (ran R)^perp: one SVD of each
    # block gives both halves of its U, or one Cholesky certifies that the
    # block spans everything and its complement is {0}
    dom_r, mul_r_star = _span_and_complement(rel.domain_block, cfg)
    ran_r, ker_r_star = _span_and_complement(rel.range_block, cfg)
    g0_space = oplus(mul_r_star, ker_r_star)

    # G~ = J graph(op R*), J(f, g) = (g, -f); op R* splits off the
    # mul R* found above
    r_star_op = _operator_part_off(r_star, mul_r_star)
    g_tilde = _signed_swap(r_star_op.graph, rel.n2, "head")

    bundle = LiftBundle(
        R=rel,
        R_star=r_star,
        dom_R=dom_r,
        ran_R=ran_r,
        mul_R_star=mul_r_star,
        ker_R_star=ker_r_star,
        G=g_space,
        G0=g0_space,
        G_tilde=g_tilde,
        cfg=cfg,
    )
    bundle._from_lift = True
    return bundle


def _restrict_star(sym: LinearRelation, window: Subspace, side: str,
                   cfg: ToleranceConfig) -> LinearRelation:
    """Members of sym* whose chosen component lies in the window subspace."""
    star = adjoint(sym)
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


def _require_nonneg_selfadjoint_extension(
    a: LinearRelation, bundle: LiftBundle,
    report: SymmetryReport | None = None,
) -> SymmetryReport:
    """classify's report of a, after checking that a is a nonnegative
    selfadjoint extension of S; a caller that holds the report passes it."""
    if report is None:
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
    selfadjointness is decided by classify's angle rule beforehand.  The
    bundle keeps the resolvents of S_F and S_K, so a call solves only
    A's pencil.
    """
    _require_nonneg_selfadjoint_extension(a, bundle)
    return _krein_margin(a, bundle)


def _krein_margin(a: LinearRelation, bundle: LiftBundle) -> float:
    """krein_order_margin of an a already checked to be a nonnegative
    selfadjoint extension of S."""
    res_f = bundle._friedrichs_resolvent
    res_a = resolvent(a, -1.0, bundle.cfg)
    res_k = bundle._krein_resolvent
    return min(_hermitian_floor(res_a - res_f),
               _hermitian_floor(res_k - res_a))


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
    theta = from_product(l_space, complement(l_space))
    a = nonneg_extension(bundle, theta)
    if not is_extremal(a, bundle):
        raise ArithmeticError("product-form parameter produced a non-extremal extension")
    return a


def _decomposition_results(
    bundle: LiftBundle,
) -> tuple[RelateResult, RelateResult, RelateResult]:
    """S* vs H +^ K, S0* vs S_F +^ S_K, and S0* vs its closed form."""
    cfg = bundle.cfg
    s0_adj = adjoint(bundle.S0)
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
