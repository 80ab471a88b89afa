"""Boundary triplets, Weyl functions, and the semiboundedness criterion.

A boundary triplet for a symmetric relation T consists of a parameter
space and two boundary maps Gamma0, Gamma1 on T* satisfying the abstract
Green identity

    <f', h> - <f, h'> = <Gamma1 fhat, Gamma0 hhat> - <Gamma0 fhat, Gamma1 hhat>

with (Gamma0, Gamma1) jointly surjective.  Three concrete triplets are
built for the lift of a relation R:

  main   on S*,  parameter space G = (graph R)^perp,
         kernels: Gamma0 -> H, Gamma1 -> K;
  basic  on S0*, parameter space G0 = mul R* (+) ker R*,
         kernels: Gamma0 -> S_F, Gamma1 -> S_K, Weyl function lambda*I;
  tilde  on S~*, parameter space G~ = flip of the operator part of R*,
         kernels: Gamma0 -> S_F, Gamma1 -> K.

Boundary maps are stored as matrices over the orthonormal graph basis of
the ambient adjoint: an element W @ c has boundary values gamma0 @ c and
gamma1 @ c in the coordinates of the parameter-space basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_TOLERANCES, ToleranceConfig
from .errors import (
    DimensionMismatch,
    InputFormatError,
    PreconditionViolated,
    SpectrumError,
)
from .extension import LiftBundle, lift
from .relation import (
    LinearRelation,
    _is_selfadjoint,
    _pencil_solve,
    classify,
    from_operator,
    lower_bound,
    relation_equal,
)
from .subspace import (
    Subspace,
    Verdict,
    _higham_gamma,
    _is_orthonormal,
    _numerical_rank,
    nullspace_columns,
    span,
)

__all__ = [
    "BoundaryTriplet",
    "SemiboundResult",
    "AlternativeExperiment",
    "triplet_main",
    "triplet_basic",
    "triplet_tilde",
    "green_identity_defect",
    "boundary_map_rank",
    "weyl",
    "gamma_field",
    "closed_form_weyl",
    "closed_form_gamma",
    "extension_from_boundary",
    "semibound_criterion",
    "alternative_experiment",
]

def _column_index(mask: np.ndarray) -> slice | np.ndarray:
    """The columns where mask holds: a slice when they are contiguous, so
    that a basis indexed by it is a view and not a copy."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return slice(0, 0)
    if idx[-1] - idx[0] == idx.size - 1:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _live_columns(mat: np.ndarray,
                  ) -> tuple[slice | np.ndarray, slice | np.ndarray]:
    """Indices of the exactly-zero (dead) columns of mat and of the rest.

    Every dead column is a kernel axis as it stands, so only the live
    block mat[:, live] needs a factorization.  In the lifted triplets each
    index is one or two runs of columns.
    """
    live = mat.any(axis=0)
    return _column_index(~live), _column_index(live)


def _times_kernel(mat: np.ndarray, dead, live, null: np.ndarray) -> np.ndarray:
    """mat Q0 for the orthonormal kernel basis Q0 = [E_dead, E_live null]."""
    return np.hstack([mat[:, dead], mat[:, live] @ null])


def _is_coisometric(a: np.ndarray, length: int) -> bool:
    """A A^H = I within _higham_gamma(length) entrywise, at round-off.

    length is that of the star's graph columns, 2n: A comes from bases of
    C^{2n} and products over them, and a lifted Gamma0 misses A A^H = I by
    at most n eps, half the bound.
    """
    dev = a @ a.conj().T
    dev.reshape(-1)[:: len(dev) + 1] -= 1.0
    return bool(np.abs(dev).max(initial=0.0) <= _higham_gamma(length))


class _KernelSplit(NamedTuple):
    """[f0; g0] = W Q0 and [f1; g1] = W Q1 for the graph basis W = [F; G]
    of the adjoint, Q0 an orthonormal basis of ker Gamma0 and
    Q1 = Gamma0^+, with gamma1_q0 = Gamma1 Q0 and gamma1_q1 = Gamma1 Q1."""

    f0: np.ndarray
    g0: np.ndarray
    f1: np.ndarray
    g1: np.ndarray
    gamma1_q0: np.ndarray
    gamma1_q1: np.ndarray


class _LaurentBlocks(NamedTuple):
    """M(lambda) = m0 + lambda m1 + m_inv / lambda, gamma(lambda) = gamma0 +
    gamma_inv / lambda and (A0 - lambda)^{-1} = -f0 f0^H / lambda for an
    extremal A0 = ker Gamma0, whose pencil g0 - lambda f0 has the
    singular values 1 and |lambda|, the latter n_dom times."""

    m0: np.ndarray
    m1: np.ndarray
    m_inv: np.ndarray
    gamma0: np.ndarray
    gamma_inv: np.ndarray
    f0: np.ndarray
    n_dom: int


@dataclass(eq=False)
class BoundaryTriplet:
    """Boundary maps for an adjoint relation, in graph coordinates.

    star is the relation the maps live on (an adjoint: S*, S0* or S~*).
    boundary is the parameter space, a subspace of C^n whose fixed basis
    defines the coordinates of all boundary values.  gamma0 and gamma1
    are g x d matrices acting on graph coefficients, d = star.dim.
    friedrichs is the Friedrichs extension S_F of the lift, and cfg is
    the lift's ToleranceConfig.

    ker_gamma0 and ker_gamma1 are computed on first access, and so is
    ker_gamma0_is_friedrichs, which records whether ker Gamma0 equals S_F;
    the semiboundedness criterion is only valid for such triplets.  So
    are resolvent_blocks, the factorization of Gamma0 and the lambda-free
    blocks that weyl and gamma_field read at every lambda.
    """

    kind: str
    star: LinearRelation
    boundary: Subspace
    gamma0: np.ndarray
    gamma1: np.ndarray
    friedrichs: LinearRelation
    cfg: ToleranceConfig

    @property
    def g(self) -> int:
        return self.boundary.dim

    @cached_property
    def ker_gamma0(self) -> LinearRelation:
        return self._kernel(self.gamma0)

    @cached_property
    def ker_gamma1(self) -> LinearRelation:
        return self._kernel(self.gamma1)

    def _kernel(self, gamma: np.ndarray) -> LinearRelation:
        """{W c : gamma c = 0}: the dead axes of gamma and the nullspace of
        its live block, at rank_tol.  W and [E_dead, E_live null] are
        orthonormal, so their product is a basis as it stands."""
        dead, live = _live_columns(gamma)
        null = nullspace_columns(gamma[:, live], self.cfg.rank_tol)
        graph = self.star.graph
        return LinearRelation(
            self.star.n1, self.star.n2,
            Subspace(graph.ambient_dim,
                     _times_kernel(graph.basis, dead, live, null)),
        )

    @cached_property
    def ker_gamma0_is_friedrichs(self) -> bool:
        res = relation_equal(self.ker_gamma0, self.friedrichs, self.cfg)
        return res.verdict is Verdict.EQUAL

    @cached_property
    def resolvent_blocks(self) -> _LaurentBlocks | _KernelSplit:
        """The Krein resolvent blocks, which depend on no lambda.

        With X(lambda) = (g0 - lambda f0)^{-1} (g1 - lambda f1),
        M(lambda) = Gamma1 Q1 - Gamma1 Q0 X, gamma(lambda) = f1 - f0 X and
        (A0 - lambda)^{-1} = f0 (g0 - lambda f0)^{-1}.  When A0 = ker Gamma0
        is extremal (classify's dom-perp-ran rule on f0^H g0, at rank_tol)
        f0^H g0 = 0 = f0 g0^H, and [f0; g0] is orthonormal, so
        (g0 - lambda f0)^{-1} = g0^H - f0^H / lambda and these are Laurent
        polynomials; only the nonzero columns of f0 and of g0 enter them,
        and dim dom A0 = ||f0||_F^2.  Their constant term is Gamma1 Q1: the
        rest of it, Gamma1 Q0 (g0^H g1 + f0^H f1) = Gamma1 Q0 Q0^H Q1, is
        zero because Q1 = Gamma0^+ is orthogonal to ker Gamma0.  Any other
        A0 keeps the split and solves the pencil at each lambda, after the
        Gram test of g0 + i f0 (an extremal A0 of dimension n is selfadjoint
        as it stands): a hand-built triplet whose Gamma0-kernel is not
        selfadjoint would get a wrong M(lambda), and is refused.
        """
        split = self._split_by_gamma0()
        _, f_live = _live_columns(split.f0)
        _, g_live = _live_columns(split.g0)
        f0, g0 = split.f0[:, f_live], split.g0[:, g_live]
        f0_h = f0.conj().T
        if np.abs(f0_h @ g0).max(initial=0.0) > self.cfg.rank_tol:
            if not _is_orthonormal(split.g0 + 1j * split.f0):
                raise PreconditionViolated(
                    "ker Gamma0 is not selfadjoint: G0 + i F0 is not unitary"
                )
            return split
        q0_f, q0_g = split.gamma1_q0[:, f_live], split.gamma1_q0[:, g_live]
        f0_g1 = f0_h @ split.g1
        return _LaurentBlocks(
            m0=split.gamma1_q1,
            m1=q0_g @ (g0.conj().T @ split.f1),
            m_inv=q0_f @ f0_g1,
            gamma0=split.f1 - f0 @ (f0_h @ split.f1),
            gamma_inv=f0 @ f0_g1,
            # a copy, not a view that would keep all of W Q0 alive
            f0=f0.copy(),
            n_dom=round(np.vdot(f0, f0).real),
        )

    def _split_by_gamma0(self) -> _KernelSplit:
        """Split the graph coefficients as c = Q0 a + Q1 b, with b = Gamma0 c.

        Only the live block A = Gamma0[:, live], g x (g + k), is used: the
        dead (exactly zero) columns of Gamma0 are kernel axes as they
        stand, so Q0 = [E_dead, E_live N] with N an orthonormal basis of
        ker A, and Q1 = E_live A^+.  Every lifted Gamma0 is a co-isometry,
        and _is_coisometric tests A for it: then A^+ = A^H, A has rank g,
        and N is the last k columns of one complete QR of A^H, with no
        factorization at all when k = 0 (main always, tilde when
        mul R* = {0}).  Any other A is factored by an SVD, whose singular
        values are Gamma0's nonzero ones, and the rank rule reads them.
        Either way a Gamma0 that is not surjective, or whose kernel is
        not n-dimensional, has no Weyl function at all.  An empty live
        block (g = 0, every column dead) needs no factorization.  The
        blocks are formed from column slices and the small factors of A.
        """
        n, g = self.star.n1, self.g
        dead, live = _live_columns(self.gamma0)
        a = self.gamma0[:, live]
        coisometric = _is_coisometric(a, self.star.graph.ambient_dim)
        if coisometric:
            rank = g
        else:
            u, s, vh = (np.linalg.svd(a) if a.size else
                        (a, np.zeros(0), np.eye(a.shape[1], dtype=complex)))
            rank = _numerical_rank(s, self.cfg.rank_tol)
        if self.star.dim != n + g or rank < g:
            raise SpectrumError(
                "Gamma0 is not surjective with an n-dimensional kernel"
            )
        if coisometric:
            pinv = a.conj().T
            null = (np.linalg.qr(pinv, mode="complete")[0][:, g:]
                    if a.shape[1] > g else np.zeros((g, 0), dtype=complex))
        else:
            null = vh[g:].conj().T
            pinv = vh[:g].conj().T @ (u.conj().T / s[:, None])
        w = self.star.graph.basis
        w_q0 = _times_kernel(w, dead, live, null)
        return _KernelSplit(
            w_q0[:n], w_q0[n:],
            w[:n, live] @ pinv, w[n:, live] @ pinv,
            _times_kernel(self.gamma1, dead, live, null),
            self.gamma1[:, live] @ pinv,
        )

    @property
    def is_degenerate(self) -> bool:
        """True when the parameter space is trivial (S0 selfadjoint)."""
        return self.g == 0


def _lift_blocks(star: LinearRelation, split: int):
    """Row blocks (h1, h2, k1, k2) of the graph basis of a lifted adjoint."""
    w = star.graph.basis
    n = star.n1
    return w[:split], w[split:n], w[n : n + split], w[n + split :]


def _flip_triplet(kind: str, star: LinearRelation, p: Subspace,
                  bundle: LiftBundle) -> BoundaryTriplet:
    """Common construction for the main and tilde triplets.

    Gamma0 projects (-k1, h2) and Gamma1 projects (h1, k2) onto the
    parameter space; both land inside it by construction, so the
    projection loses nothing.
    """
    h1, h2, k1, k2 = _lift_blocks(star, bundle.n1)
    ph = p.basis.conj().T
    gamma0 = ph @ np.vstack([-k1, h2])
    gamma1 = ph @ np.vstack([h1, k2])
    return BoundaryTriplet(kind, star, p, gamma0, gamma1, bundle.S_F, bundle.cfg)


def triplet_main(bundle: LiftBundle) -> BoundaryTriplet:
    """Triplet on S* with parameter space (graph R)^perp."""
    return _flip_triplet("main", bundle.S_star, bundle.G, bundle)


def triplet_tilde(bundle: LiftBundle) -> BoundaryTriplet:
    """Triplet on S~* whose Gamma0-kernel is the Friedrichs extension."""
    return _flip_triplet("tilde", bundle.S_tilde_star, bundle.G_tilde, bundle)


def triplet_basic(bundle: LiftBundle) -> BoundaryTriplet:
    """Triplet on S0* with parameter space G0 and Weyl function lambda*I.

    Gamma0 and Gamma1 are plain compressions of the two components onto
    G0.  A relation with dense domain and dense range gives G0 = {0};
    the triplet is then degenerate (S0 is already selfadjoint) and the
    is_degenerate flag reports it.
    """
    star = bundle.S0_star
    n = star.n1
    w = star.graph.basis
    ph = bundle.G0.basis.conj().T
    return BoundaryTriplet(
        "basic", star, bundle.G0, ph @ w[:n], ph @ w[n:], bundle.S_F, bundle.cfg
    )


def green_identity_defect(trip: BoundaryTriplet) -> float:
    """Max-abs defect of the Green identity over all graph coefficients.

    Both sides of the identity are sesquilinear in the coefficients, so
    comparing the two d x d coefficient matrices checks every pair of
    elements at once.
    """
    w = trip.star.graph.basis
    n = trip.star.n1
    f_blk, g_blk = w[:n], w[n:]
    lhs = f_blk.conj().T @ g_blk - g_blk.conj().T @ f_blk
    rhs = (
        trip.gamma0.conj().T @ trip.gamma1
        - trip.gamma1.conj().T @ trip.gamma0
    )
    diff = lhs - rhs
    return float(np.max(np.abs(diff))) if diff.size else 0.0


def boundary_map_rank(trip: BoundaryTriplet) -> int:
    """Rank of the stacked map (Gamma0, Gamma1); surjectivity needs 2g."""
    stacked = np.vstack([trip.gamma0, trip.gamma1])
    if stacked.size == 0:
        return 0
    s = np.linalg.svd(stacked, compute_uv=False)
    return _numerical_rank(s, trip.cfg.rank_tol)


def _boundary_values(
    trip: BoundaryTriplet, lam: complex, rank_tol: float, gamma: bool,
    resolvent: bool = False,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """M(lambda) and, if asked, gamma(lambda) and (A0 - lambda)^{-1}.

    T* = ker Gamma0 (+) N_lambda exactly when the n x n pencil
    g0 - lambda f0 is invertible, so the rank rule applied to its
    singular values is the one spectral test: below full rank, lambda is
    an eigenvalue of ker Gamma0.  An extremal kernel knows them (1 and
    |lambda|); any other goes through _pencil_solve, with the identity
    stacked onto the right-hand side when the resolvent is asked for.
    The 1/lambda terms vanish with n_dom, so lambda = 0 gets past the rank
    rule only when they are absent.
    """
    blocks = trip.resolvent_blocks
    spectral = "an eigenvalue of ker Gamma0"
    if isinstance(blocks, _LaurentBlocks):
        s = np.ones(len(blocks.gamma0))
        s[:blocks.n_dom] = abs(lam)
        if _numerical_rank(np.sort(s)[::-1], rank_tol) < s.size:
            raise SpectrumError(f"lambda = {lam} is {spectral}")
        f0, inv = blocks.f0, 1.0 / lam if lam else 0.0
        return (blocks.m0 + lam * blocks.m1 + inv * blocks.m_inv,
                blocks.gamma0 + inv * blocks.gamma_inv if gamma else None,
                (-inv * f0) @ f0.conj().T if resolvent else None)
    f0, g = blocks.f0, trip.g
    rhs = blocks.g1 - lam * blocks.f1
    if resolvent:
        rhs = np.hstack([rhs, np.eye(len(f0))])
    x = _pencil_solve(blocks.g0, f0, lam, rhs, rank_tol, spectral)
    return (blocks.gamma1_q1 - blocks.gamma1_q0 @ x[:, :g],
            blocks.f1 - f0 @ x[:, :g] if gamma else None,
            f0 @ x[:, g:] if resolvent else None)


def weyl(trip: BoundaryTriplet, lam: complex,
         cfg: ToleranceConfig | None = None) -> np.ndarray:
    """Weyl function M(lambda) = Gamma1 (Gamma0 | N_lambda)^{-1}, g x g.

    Evaluated by the Krein resolvent formula

        M(lambda) = Gamma1 Q1 - Gamma1 Q0 (g0 - lambda f0)^{-1} (g1 - lambda f1)

    on the triplet's cached resolvent_blocks.  After the first call each
    lambda costs O(n g) sums when ker Gamma0 is extremal (every lifted
    triplet), and one values-only SVD and one n x n solve when it is not.
    The rank rule applied to the pencil's singular values decides
    whether lambda is a spectral point (SpectrumError).  A cfg given here
    replaces the triplet's rank_tol for that decision only; the cached
    blocks are kept.  weyl is the one triplet function that keeps an
    optional cfg, because bench/test_smoke.py passes one.
    """
    return _boundary_values(trip, lam, (cfg or trip.cfg).rank_tol,
                            gamma=False)[0]


def gamma_field(trip: BoundaryTriplet, lam: complex) -> np.ndarray:
    """gamma(lambda): boundary coordinates -> defect element of H, n x g.

    gamma(lambda) = f1 - f0 (g0 - lambda f0)^{-1} (g1 - lambda f1), from the
    same cached blocks and rank rule as weyl.
    """
    return _boundary_values(trip, lam, trip.cfg.rank_tol, gamma=True)[1]


def _pole_factor(lam: complex) -> complex:
    """-1/lambda, the first-component factor of the main and tilde closed
    forms; their one pole, lambda = 0, raises SpectrumError."""
    if not lam:
        raise SpectrumError(f"lambda = {lam} is a pole of the closed form")
    return -1.0 / lam


def closed_form_weyl(bundle: LiftBundle, kind: str, lam: complex) -> np.ndarray:
    """Explicit Weyl functions, bypassing the defect-space computation.

    main and tilde compress the diagonal scaling (-1/lambda on the first
    component, lambda on the second) onto their parameter spaces; basic
    is lambda times the identity.
    """
    if kind == "basic":
        return lam * np.eye(bundle.G0.dim, dtype=complex)
    if kind == "main":
        p = bundle.G.basis
    elif kind == "tilde":
        p = bundle.G_tilde.basis
    else:
        raise ValueError(f"unknown triplet kind {kind!r}")
    d = np.concatenate([np.full(bundle.n1, _pole_factor(lam), dtype=complex),
                        np.full(bundle.n2, lam, dtype=complex)])
    return p.conj().T @ (d[:, None] * p)


def closed_form_gamma(bundle: LiftBundle, kind: str, lam: complex) -> np.ndarray:
    """Explicit gamma fields for the main and basic triplets.

    basic has the constant inclusion of G0; main rescales the first
    component of the parameter space by -1/lambda.
    """
    if kind == "basic":
        return bundle.G0.basis.copy()
    if kind != "main":
        raise ValueError(f"no closed gamma field for triplet kind {kind!r}")
    p = bundle.G.basis
    d = np.concatenate(
        [
            np.full(bundle.n1, _pole_factor(lam), dtype=complex),
            np.ones(bundle.n2, dtype=complex),
        ]
    )
    return d[:, None] * p


def extension_from_boundary(trip: BoundaryTriplet,
                            theta: LinearRelation) -> LinearRelation:
    """A_theta = {fhat in star : (Gamma0 fhat, Gamma1 fhat) in theta} for a
    selfadjoint theta, by Krein's resolvent formula.

    With [X; Y] the graph basis of theta and A0 = ker Gamma0,

        R = (A_theta - i)^{-1}
          = (A0 - i)^{-1} + gamma(i) X (Y - M(i) X)^{-1} gamma(-i)^H,

    and A_theta is the graph {(R h, h + i R h)}.  Every factor comes from
    the triplet's cached resolvent_blocks.  For an extremal ker Gamma0
    (every lifted triplet) (A0 - i)^{-1} = i f0 f0^H, and the one solve
    is g x g; any other kernel adds the pencil solves at +-i, the one at
    +i with the identity stacked onto its right-hand side.
    Y - M(i) X is invertible because Im M(i) = gamma(i)^H gamma(i) > 0.
    Multivalued parameters (dim of theta's domain below g) need no
    special case.  The Cayley basis [R; I + i R] is orthonormal because
    A_theta is selfadjoint, and the Gram test of Subspace checks it.  A
    theta that is not selfadjoint raises PreconditionViolated;
    oracle.extension_definitional takes any theta.
    """
    cfg = trip.cfg
    if theta.n1 != trip.g or theta.n2 != trip.g:
        raise DimensionMismatch(
            f"theta acts on C^{theta.n1} x C^{theta.n2}, parameter space "
            f"has dimension {trip.g}"
        )
    if not _is_selfadjoint(theta, cfg):
        raise PreconditionViolated("theta is not selfadjoint")
    m_i, gamma_i, res = _boundary_values(trip, 1j, cfg.rank_tol,
                                         gamma=True, resolvent=True)
    gamma_conj = _boundary_values(trip, -1j, cfg.rank_tol, gamma=True)[1]
    t_dom = theta.domain_block
    # X (Y - M(i) X)^{-1}, solved transposed: g right-hand sides, not n
    coupling = np.linalg.solve((theta.range_block - m_i @ t_dom).T,
                               t_dom.T).T
    res += (gamma_i @ coupling) @ gamma_conj.conj().T
    n = trip.star.n1
    cayley = np.vstack([res, np.eye(n) + 1j * res])
    return LinearRelation(n, trip.star.n2, Subspace(2 * n, cayley))


@dataclass(frozen=True)
class SemiboundResult:
    """Both sides of the lower-bound criterion at a threshold x < 0.

    bound_holds: the extension's operator part is bounded below by x.
    parameter_holds: theta - M(x) is a nonnegative relation.
    For a triplet whose Gamma0-kernel is the Friedrichs extension the two
    must agree.
    """

    x: float
    lower_bound: float
    bound_holds: bool
    parameter_holds: bool

    @property
    def agree(self) -> bool:
        return self.bound_holds == self.parameter_holds


def semibound_criterion(trip: BoundaryTriplet, theta: LinearRelation,
                        x: float) -> SemiboundResult:
    """Test m(A_theta) >= x against nonnegativity of theta - M(x).

    Valid only below the lower bound of the Friedrichs extension; for the
    nonnegative lifts here that means x < 0, and only on triplets with
    ker Gamma0 = S_F.  theta - M(x) is formed as a relation (graph
    columns (t, t' - M(x) t)), never as an operator product, so
    multivalued parameters work unchanged.
    """
    cfg = trip.cfg
    if not trip.ker_gamma0_is_friedrichs:
        raise PreconditionViolated(
            "criterion needs a triplet whose Gamma0-kernel is the "
            "Friedrichs extension"
        )
    x = float(x)
    if not x < 0.0:
        raise PreconditionViolated(f"threshold must be negative, got {x}")
    if trip.is_degenerate:
        raise PreconditionViolated("parameter space is trivial")

    bound = lower_bound(extension_from_boundary(trip, theta), cfg)
    if bound is None:
        raise PreconditionViolated("extension is not symmetric")

    m_x = weyl(trip, x)
    t_dom, t_ran = theta.domain_block, theta.range_block
    shifted = LinearRelation(
        theta.n1,
        theta.n2,
        span(np.vstack([t_dom, t_ran - m_x @ t_dom]), 2 * theta.n1, cfg),
    )
    return SemiboundResult(
        x=x,
        lower_bound=bound,
        bound_holds=bool(bound >= x),
        parameter_holds=classify(shifted, cfg).is_nonnegative,
    )


@dataclass(frozen=True)
class AlternativeExperiment:
    """Lower bounds of A_theta for R = graph(c), theta = -delta.

    computed_bound comes from the extension machinery on the tilde
    triplet; closed_form_bound is the explicit root

        ( -delta (1 + c^2) - sqrt(delta^2 (1 + c^2)^2 + 4 c^2) ) / 2;

    sufficient_bound is the a-priori threshold built from the norm of the
    operator part of R*, which must sit below the true bound.
    """

    c: float
    delta: float
    computed_bound: float
    closed_form_bound: float
    sufficient_bound: float
    sufficient_bound_holds: bool
    criterion_checked_at: tuple[float, ...]
    criterion_agrees: bool


def alternative_experiment(c: float, delta: float,
                           cfg: ToleranceConfig = DEFAULT_TOLERANCES,
                           ) -> AlternativeExperiment:
    """Worked one-dimensional example of the semiboundedness criterion."""
    c = float(c)
    delta = float(delta)
    rel = from_operator(np.array([[c]], dtype=complex), cfg)
    bundle = lift(rel, cfg)
    if not bundle.dom_R.dim:
        raise InputFormatError(
            f"slope c = {c!r} is too steep: the domain component of "
            f"graph(c) is below rank_tol = {cfg.rank_tol!r}, so dom R = {{0}}"
        )
    trip = triplet_tilde(bundle)
    theta = from_operator(np.array([[-delta]], dtype=complex), cfg)

    bound = lower_bound(extension_from_boundary(trip, theta), cfg)
    if bound is None or not math.isfinite(bound):
        raise PreconditionViolated(
            f"A_theta at c = {c!r} has no finite lower bound ({bound!r})"
        )

    s = 1.0 + c * c
    closed = (-delta * s - math.sqrt((delta * s) ** 2 + 4.0 * c * c)) / 2.0

    norm_bound = abs(c)
    x0 = min(-norm_bound**2, -1.0 - delta * (1.0 + norm_bound**2)) - 1.0

    # probes next to zero say nothing, and at c = 0 bound + 1 lands on
    # round-off, where the criterion and the rank rule both refuse
    probes = tuple(
        x for x in (bound - 1.0, bound - 1e-3, bound + 1e-3, bound + 1.0)
        if x < -1e-3
    )
    agrees = all(
        semibound_criterion(trip, theta, x).agree for x in probes
    )
    return AlternativeExperiment(
        c=c,
        delta=delta,
        computed_bound=float(bound),
        closed_form_bound=closed,
        sufficient_bound=x0,
        sufficient_bound_holds=bool(bound >= x0),
        criterion_checked_at=probes,
        criterion_agrees=agrees,
    )
