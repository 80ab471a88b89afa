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
    _is_orthonormal,
    _numerical_rank,
    nullspace_columns,
    span,
)

__all__ = [
    "BoundaryTriplet",
    "SemiboundResult",
    "AlternativeExperiment",
    "WEYL_ORIGIN_RADIUS",
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

# The Weyl functions built here all have a pole (or a defect-dimension
# jump) at lambda = 0, so a small disk around the origin is refused
# outright instead of letting the generic route return garbage.
WEYL_ORIGIN_RADIUS = 1e-6


# A Cayley transform whose off-diagonal is within this (entrywise) is
# diagonal up to rounding, as on lifted triplets: their kernels have only
# the eigenvalues 0 and infinity, so C = -1 or +1 on each axis.
_CAYLEY_POINT_ATOL = 1e-13


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


class _ResolventBlocks(NamedTuple):
    """The blocks of the Krein resolvent formula that depend on no lambda.

    With Q0 an orthonormal basis of ker Gamma0 and Q1 = Gamma0^+, the
    graph basis W = [F; G] of the adjoint gives [f0; g0] = W Q0 and
    [f1; g1] = W Q1.  ker Gamma0 is selfadjoint, so V = g0 + i f0 is
    unitary and so is its Cayley transform C = V^H (g0 - i f0).  Then
    g0 - lambda f0 = V D(lambda) and f0 = -V d_slope with

        D(lambda) = d_const + lambda d_slope = (I + C)/2 + i lambda (I - C)/2,

    so (g0 - lambda f0)^{-1} (g1 - lambda f1) = D^{-1} (rhs_const -
    lambda rhs_slope), rhs_const = V^H g1, rhs_slope = V^H f1, and
    (ker Gamma0 - lambda)^{-1} = f0 (g0 - lambda f0)^{-1} =
    -V d_slope D^{-1} V^H.  A diagonal C is stored as the vector of its
    diagonal e, and d_const, d_slope are vectors; otherwise they are
    n x n matrices.  v, gamma1_q0 = Gamma1 Q0, f1 and gamma1_q1 =
    Gamma1 Q1 are the outer factors of gamma_field, weyl and
    extension_from_boundary.  V is kept rather than f0, since recovering
    it from f0 divides by I - C, singular where C has the eigenvalue 1.
    """

    d_const: np.ndarray
    d_slope: np.ndarray
    v: np.ndarray
    f1: np.ndarray
    gamma1_q0: np.ndarray
    rhs_const: np.ndarray
    rhs_slope: np.ndarray
    gamma1_q1: np.ndarray


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
    are resolvent_blocks, the factorization of Gamma0 and the Cayley
    transform of its kernel that weyl and gamma_field read at every lambda.
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
    def resolvent_blocks(self) -> _ResolventBlocks:
        """The Krein resolvent blocks, with the Cayley transform C of
        ker Gamma0 as a vector when it is diagonal and as a matrix if not.

        A hand-built triplet whose Gamma0-kernel is not selfadjoint (V
        fails the Gram test) is refused, since the Cayley form would give
        a wrong M(lambda).
        """
        v, w, f1, g1, gamma1_q0, gamma1_q1 = self._split_by_gamma0()
        if not _is_orthonormal(v):
            raise PreconditionViolated(
                "ker Gamma0 is not selfadjoint: G0 + i F0 is not unitary"
            )
        v_h = v.conj().T
        c = v_h @ w
        off = c - np.diag(c.diagonal())
        if np.abs(off).max(initial=0.0) <= _CAYLEY_POINT_ATOL:
            c, eye = c.diagonal().copy(), 1.0
        else:
            eye = np.eye(len(c))
        return _ResolventBlocks(
            (eye + c) / 2, 0.5j * (eye - c),
            v, f1, gamma1_q0,
            v_h @ g1, v_h @ f1,
            gamma1_q1,
        )

    def _split_by_gamma0(self) -> tuple[np.ndarray, ...]:
        """Split the graph coefficients as c = Q0 a + Q1 b, with b = Gamma0 c.

        Only the live block A = Gamma0[:, live] is factored: the dead
        (exactly zero) columns of Gamma0 are kernel axes as they stand, so
        Q0 = [E_dead, E_live N] with N the nullspace of A, and
        Q1 = E_live A^+.  A's singular values are Gamma0's nonzero ones,
        so the rank rule reads them: a Gamma0 that is not surjective, or
        whose kernel is not n-dimensional, has no Weyl function at all.
        An empty live block (g = 0, every column dead) needs no SVD.
        Returns V = g0 + i f0, W = g0 - i f0, f1, g1, Gamma1 Q0 and
        Gamma1 Q1, formed from column slices and the small factors of A.
        """
        n, g = self.star.n1, self.g
        dead, live = _live_columns(self.gamma0)
        a = self.gamma0[:, live]
        u, s, vh = (np.linalg.svd(a) if a.size
                    else (a, np.zeros(0), np.eye(a.shape[1], dtype=complex)))
        if self.star.dim != n + g or _numerical_rank(s, self.cfg.rank_tol) < g:
            raise SpectrumError(
                "Gamma0 is not surjective with an n-dimensional kernel"
            )
        null = vh[g:].conj().T
        pinv = vh[:g].conj().T @ (u.conj().T / s[:, None])
        w = self.star.graph.basis
        w_q0 = _times_kernel(w, dead, live, null)
        f0, g0 = w_q0[:n], w_q0[n:]
        # f1 is cached: a product of its own, not a view that would keep
        # all of W Q1 alive
        return (g0 + 1j * f0, g0 - 1j * f0,
                w[:n, live] @ pinv, w[n:, live] @ pinv,
                _times_kernel(self.gamma1, dead, live, null),
                self.gamma1[:, live] @ pinv)

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


def _outside_origin_disk(lam: complex) -> None:
    """Refuse lambda within WEYL_ORIGIN_RADIUS of the origin."""
    if abs(lam) <= WEYL_ORIGIN_RADIUS:
        raise SpectrumError(
            f"lambda = {lam} is inside the excluded disk around the origin"
        )


def _resolvent_solve(trip: BoundaryTriplet, lam: complex, rank_tol: float,
                     ) -> tuple[_ResolventBlocks, np.ndarray]:
    """The cached blocks and X = (g0 - lambda f0)^{-1} (g1 - lambda f1).

    The defect element with Gamma0-value b has coefficients (Q1 - Q0 X) b.
    T* = ker Gamma0 (+) N_lambda exactly when the n x n pencil
    g0 - lambda f0 = V D(lambda) is invertible, so the rank rule applied
    to it is the one spectral test: below full rank, lambda is an
    eigenvalue of ker Gamma0.  V is unitary, so D(lambda) has the
    pencil's singular values: for a diagonal C they are the |d_k(lambda)|
    and need no factorization; otherwise D(lambda) goes through
    _pencil_solve, one values-only SVD and one solve.
    """
    _outside_origin_disk(lam)
    blocks = trip.resolvent_blocks
    rhs = blocks.rhs_const - lam * blocks.rhs_slope
    spectral = "an eigenvalue of ker Gamma0"
    if blocks.d_slope.ndim == 2:
        return blocks, _pencil_solve(blocks.d_const, -blocks.d_slope, lam,
                                     rhs, rank_tol, spectral)
    d = blocks.d_const + lam * blocks.d_slope
    if _numerical_rank(np.sort(np.abs(d))[::-1], rank_tol) < d.size:
        raise SpectrumError(f"lambda = {lam} is {spectral}")
    return blocks, rhs / d[:, None]


def weyl(trip: BoundaryTriplet, lam: complex,
         cfg: ToleranceConfig | None = None) -> np.ndarray:
    """Weyl function M(lambda) = Gamma1 (Gamma0 | N_lambda)^{-1}, g x g.

    Evaluated by the Krein resolvent formula

        M(lambda) = Gamma1 Q1 - Gamma1 Q0 (g0 - lambda f0)^{-1} (g1 - lambda f1)

    on the triplet's cached resolvent_blocks.  After the first call each
    lambda costs O(n g^2) products and no factorization when the Cayley
    transform of ker Gamma0 is diagonal (every lifted triplet), and one
    values-only SVD and one n x n solve when it is not.  The rank rule
    applied to the pencil's singular values decides whether lambda is a
    spectral point (SpectrumError).  A cfg given here replaces the
    triplet's rank_tol for that decision only; the cached blocks are
    kept.  weyl is the one triplet function that keeps an optional cfg,
    because bench/test_smoke.py passes one.
    """
    blocks, x = _resolvent_solve(trip, lam, (cfg or trip.cfg).rank_tol)
    return _weyl_value(blocks, x)


def gamma_field(trip: BoundaryTriplet, lam: complex) -> np.ndarray:
    """gamma(lambda): boundary coordinates -> defect element of H, n x g.

    gamma(lambda) = f1 - f0 (g0 - lambda f0)^{-1} (g1 - lambda f1), from the
    same cached blocks and rank rule as weyl.
    """
    return _gamma_value(*_resolvent_solve(trip, lam, trip.cfg.rank_tol))


def _weyl_value(blocks: _ResolventBlocks, x: np.ndarray) -> np.ndarray:
    """M(lambda) = Gamma1 Q1 - Gamma1 Q0 X for X from _resolvent_solve."""
    return blocks.gamma1_q1 - blocks.gamma1_q0 @ x


def _gamma_value(blocks: _ResolventBlocks, x: np.ndarray) -> np.ndarray:
    """gamma(lambda) = f1 - f0 X = f1 + V d_slope X.

    For a diagonal C only the columns where d_slope is nonzero are
    multiplied: the others (e = 1, half of them on a lifted triplet) add
    exact zeros.
    """
    if blocks.d_slope.ndim == 2:
        return blocks.f1 + blocks.v @ (blocks.d_slope @ x)
    k = _column_index(blocks.d_slope != 0)
    return blocks.f1 + blocks.v[:, k] @ (blocks.d_slope[k, None] * x[k])


def _origin_scaling(n1: int, n2: int, lam: complex) -> np.ndarray:
    return np.concatenate(
        [np.full(n1, -1.0 / lam, dtype=complex), np.full(n2, lam, dtype=complex)]
    )


def closed_form_weyl(bundle: LiftBundle, kind: str, lam: complex) -> np.ndarray:
    """Explicit Weyl functions, bypassing the defect-space computation.

    main and tilde compress the diagonal scaling (-1/lambda on the first
    component, lambda on the second) onto their parameter spaces; basic
    is lambda times the identity.
    """
    _outside_origin_disk(lam)
    if kind == "basic":
        return lam * np.eye(bundle.G0.dim, dtype=complex)
    if kind == "main":
        p = bundle.G.basis
    elif kind == "tilde":
        p = bundle.G_tilde.basis
    else:
        raise ValueError(f"unknown triplet kind {kind!r}")
    d = _origin_scaling(bundle.n1, bundle.n2, lam)
    return p.conj().T @ (d[:, None] * p)


def closed_form_gamma(bundle: LiftBundle, kind: str, lam: complex) -> np.ndarray:
    """Explicit gamma fields for the main and basic triplets.

    basic has the constant inclusion of G0; main rescales the first
    component of the parameter space by -1/lambda.
    """
    _outside_origin_disk(lam)
    if kind == "basic":
        return bundle.G0.basis.copy()
    if kind != "main":
        raise ValueError(f"no closed gamma field for triplet kind {kind!r}")
    p = bundle.G.basis
    d = np.concatenate(
        [
            np.full(bundle.n1, -1.0 / lam, dtype=complex),
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
    the triplet's cached resolvent_blocks, where D(i) = C and D(-i) = I.
    For a diagonal C the one solve is g x g (any other C adds the pencil
    solves at +-i): Y - M(i) X is invertible because
    Im M(i) = gamma(i)^H gamma(i) > 0.  Multivalued parameters (dim of
    theta's domain below g) need no special case.  The Cayley basis
    [R; I + i R] is orthonormal because A_theta is selfadjoint, and the
    Gram test of Subspace checks it.  A theta that is not selfadjoint
    raises PreconditionViolated; oracle.extension_definitional takes any
    theta.
    """
    cfg = trip.cfg
    if theta.n1 != trip.g or theta.n2 != trip.g:
        raise DimensionMismatch(
            f"theta acts on C^{theta.n1} x C^{theta.n2}, parameter space "
            f"has dimension {trip.g}"
        )
    if not _is_selfadjoint(theta, cfg):
        raise PreconditionViolated("theta is not selfadjoint")
    blocks, x_i = _resolvent_solve(trip, 1j, cfg.rank_tol)
    _, x_conj = _resolvent_solve(trip, -1j, cfg.rank_tol)
    t_dom = theta.domain_block
    # X (Y - M(i) X)^{-1}, solved transposed: g right-hand sides, not n
    coupling = np.linalg.solve(
        (theta.range_block - _weyl_value(blocks, x_i) @ t_dom).T, t_dom.T
    ).T
    res = (_gamma_value(blocks, x_i) @ coupling) @ _gamma_value(
        blocks, x_conj).conj().T
    # (A0 - i)^{-1} = -V d_slope C^H V^H, since D(i) = C; for a diagonal C
    # only over the columns where d_slope is nonzero, as in _gamma_value
    v, slope = blocks.v, blocks.d_slope
    c = blocks.d_const + 1j * slope
    if slope.ndim == 2:
        res -= (v @ (slope @ c.conj().T)) @ v.conj().T
    else:
        k = _column_index(slope != 0)
        v, slope = v[:, k], slope[k]
        res -= (v * (slope / c[k])) @ v.conj().T
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

    # probes next to zero say nothing and collide with the excluded disk
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
