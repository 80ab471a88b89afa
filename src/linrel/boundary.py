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

Boundary maps are matrices over the orthonormal graph basis of the
ambient adjoint: an element W @ c has boundary values gamma0 @ c and
gamma1 @ c in the coordinates of the parameter-space basis.  A triplet
built from a bundle that lift returned knows its Weyl function, gamma
field and (A0 - lambda)^{-1} in closed form from the parameter basis and
dom R, so weyl, gamma_field and Krein's formula read neither map; its
maps are assembled on their first read (the Green identity, the kernels,
boundary_map_rank and the oracle read them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    _dom_perp_ran,
    _mul_coordinates,
    _pencil_solve,
    classify,
    from_operator,
    lower_bound,
    relation_equal,
)
from .subspace import (
    Subspace,
    Verdict,
    _cayley,
    _complement_columns,
    _higham_gamma,
    _is_orthonormal,
    _numerical_rank,
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


def _is_coisometric(a: np.ndarray, length: int) -> bool:
    """A A^H = I within _higham_gamma(length) entrywise."""
    dev = a @ a.conj().T
    dev.reshape(-1)[:: len(a) + 1] -= 1.0
    return bool(np.abs(dev).max(initial=0.0) <= _higham_gamma(length))


class _MapSplit(NamedTuple):
    """Gamma split at its kernel: for A = Gamma[:, live], rank is A's
    numerical rank and null an orthonormal basis N of ker A, so
    Q0 = [E_dead, E_live N] is an orthonormal basis of ker Gamma.  pinv is
    A^+, or None for a co-isometry, whose A^+ = A^H is formed where it is
    read and never kept."""

    dead: slice | np.ndarray
    live: slice | np.ndarray
    null: np.ndarray
    pinv: np.ndarray | None
    rank: int

    def times_kernel(self, mat: np.ndarray) -> np.ndarray:
        """mat Q0, from column slices of mat and the small factor N."""
        return np.hstack([mat[:, self.dead], mat[:, self.live] @ self.null])


def _split_map(gamma: np.ndarray, length: int, rank_tol: float) -> _MapSplit:
    """Split a g x d boundary map, factoring its live block A at most once.

    Dead (exactly zero) columns are kernel axes as they stand.  Every
    lifted Gamma0 and Gamma1 is a co-isometry: A A^H = I within
    _higham_gamma(length) entrywise, for the length 2n of the star's graph
    columns (lifted maps miss it by at most n eps).  Then A^+ = A^H (not
    stored), A has rank g, and N is the complement of the columns of the
    (g + k) x g matrix A^H (one QR), or empty with no factorization when
    k = 0.  Any other A takes one SVD, which the rank rule reads; an empty
    one needs none.
    """
    dead, live = _live_columns(gamma)
    a = gamma[:, live]
    g, width = a.shape
    if _is_coisometric(a, length):
        null = (_complement_columns(a.conj().T) if width > g
                else np.zeros((width, 0), dtype=complex))
        return _MapSplit(dead, live, null, None, g)
    # the kernel needs all of V^H: only a wide A needs full_matrices for it
    u, s, vh = (np.linalg.svd(a, full_matrices=g < width) if a.size else
                (a, np.zeros(0), np.eye(width, dtype=complex)))
    rank = _numerical_rank(s, rank_tol)
    pinv = vh[:rank].conj().T @ (u[:, :rank].conj().T / s[:rank, None])
    return _MapSplit(dead, live, vh[rank:].conj().T, pinv, rank)


def _split_holds(split: _MapSplit, gamma: np.ndarray, length: int) -> bool:
    """A builder's split of gamma stands for _split_map's when its live
    block A is a co-isometry (as _split_map tests it) and A N vanishes
    within _higham_gamma(length) entrywise: then N, orthonormal and of
    width live - g, spans ker A, and nothing is factored."""
    a = gamma[:, split.live]
    return (_is_coisometric(a, length)
            and np.abs(a @ split.null).max(initial=0.0)
            <= _higham_gamma(length))


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
    singular values 1 and |lambda|, the latter n_dom times.  m0, m_inv
    and gamma_inv are None where they are zero; f0 = [dom; 0], and
    dom None stands for the identity on the first n_dom rows.  A lifted
    triplet holds its parameter basis P = [P_1; P_2] once, as gamma0
    with pole_rows = len(P_1): gamma(lambda) = [-P_1 / lambda; P_2]."""

    m0: np.ndarray | None
    m1: np.ndarray
    m_inv: np.ndarray | None
    gamma0: np.ndarray
    gamma_inv: np.ndarray | None
    dom: np.ndarray | None
    n_dom: int
    pole_rows: int = 0

    def gamma(self, inv: complex) -> np.ndarray:
        """gamma(lambda) for inv = 1/lambda, a new n x g array.  With pole
        rows it is [-P_1 inv; P_2], formed with the arithmetic of the sum
        [0; P_2] + inv [-P_1; 0], signed zeros included, so that the
        reports built on it keep their bits."""
        if self.gamma_inv is not None:
            return self.gamma0 + inv * self.gamma_inv
        out = self.gamma0.copy()
        if self.pole_rows:
            head, tail = out[: self.pole_rows], out[self.pole_rows :]
            np.multiply(-inv, head, out=head)
            head += 0.0
            tail += inv * 0
        return out

    def resolvent(self, inv: complex, out: np.ndarray) -> np.ndarray:
        """(A0 - lambda)^{-1} = -inv f0 f0^H for inv = 1/lambda, written into
        the n x n out and formed on the rows of dom only: an identity dom
        puts -inv on the diagonal."""
        n = len(out)
        out.fill(0.0)
        if self.dom is None:
            out.reshape(-1)[: self.n_dom * (n + 1) : n + 1] = -inv
        else:
            rows = len(self.dom)
            out[:rows, :rows] = (-inv * self.dom) @ self.dom.conj().T
        return out


def _laurent(whole: _KernelSplit, rank_tol: float) -> _LaurentBlocks | None:
    """The Laurent blocks of an extremal ker Gamma0 from its whole kernel
    split, or None when ker Gamma0 is not extremal by classify's
    dom-perp-ran rule on F0^H G0, at rank_tol.  Only the nonzero columns
    of f0 and of g0 enter, and dim dom A0 = ||f0||_F^2; see
    BoundaryTriplet.resolvent_blocks for the blocks."""
    _, f_live = _live_columns(whole.f0)
    _, g_live = _live_columns(whole.g0)
    f0, g0 = whole.f0[:, f_live], whole.g0[:, g_live]
    f0_h = f0.conj().T
    if not _dom_perp_ran(f0_h @ g0, rank_tol):
        return None
    f0_g1 = f0_h @ whole.g1
    return _LaurentBlocks(
        m0=whole.gamma1_q1,
        m1=whole.gamma1_q0[:, g_live] @ (g0.conj().T @ whole.f1),
        m_inv=whole.gamma1_q0[:, f_live] @ f0_g1,
        gamma0=whole.f1 - f0 @ (f0_h @ whole.f1),
        gamma_inv=f0 @ f0_g1,
        dom=f0,
        n_dom=round(np.vdot(f0, f0).real),
    )


@dataclass(eq=False)
class BoundaryTriplet:
    """Boundary maps for an adjoint relation, in graph coordinates.

    star is the relation the maps live on (an adjoint: S*, S0* or S~*).
    boundary is the parameter space, a subspace of C^n whose fixed basis
    defines the coordinates of all boundary values.  gamma0 and gamma1
    are g x d matrices acting on graph coefficients, d = star.dim.
    friedrichs is the Friedrichs extension S_F of the lift, and cfg is
    the lift's ToleranceConfig.  repr leaves out gamma0 and gamma1, so
    it neither prints nor assembles them.

    ker_gamma0 and ker_gamma1 are computed on first access, each by one
    split of its map (_split_map), and so is ker_gamma0_is_friedrichs,
    which records whether ker Gamma0 equals S_F; the semiboundedness
    criterion is only valid for such triplets.  So are resolvent_blocks,
    the lambda-free blocks that weyl and gamma_field read at every
    lambda; they and ker_gamma0 share the split of Gamma0, factored once
    per triplet.  The builders return a _LiftedTriplet for a bundle that
    lift returned, whose maps are assembled on their first read and
    whose resolvent_blocks are the paper's closed forms.
    """

    kind: str
    star: LinearRelation
    boundary: Subspace
    gamma0: np.ndarray = field(repr=False)
    gamma1: np.ndarray = field(repr=False)
    friedrichs: LinearRelation
    cfg: ToleranceConfig

    @property
    def g(self) -> int:
        return self.boundary.dim

    @cached_property
    def _gamma0_split(self) -> _MapSplit:
        return _split_map(self.gamma0, self.star.graph.ambient_dim,
                          self.cfg.rank_tol)

    @cached_property
    def ker_gamma0(self) -> LinearRelation:
        return self._kernel(self._gamma0_split)

    @cached_property
    def ker_gamma1(self) -> LinearRelation:
        return self._kernel(_split_map(
            self.gamma1, self.star.graph.ambient_dim, self.cfg.rank_tol))

    def _kernel(self, split: _MapSplit) -> LinearRelation:
        """{W c : Gamma c = 0} = W Q0, orthonormal as W and Q0 are."""
        graph = self.star.graph
        return LinearRelation(
            self.star.n1, self.star.n2,
            Subspace(graph.ambient_dim, split.times_kernel(graph.basis)),
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
        polynomials (_laurent).  Their constant term is Gamma1 Q1: the rest
        of it, Gamma1 Q0 (g0^H g1 + f0^H f1) = Gamma1 Q0 Q0^H Q1, is zero
        because Q1 = Gamma0^+ is orthogonal to ker Gamma0.  Any other A0
        keeps the kernel split (_split_by_gamma0) and solves the pencil at
        each lambda, after the Gram test of g0 + i f0 (an extremal A0 of
        dimension n is selfadjoint as it stands): a triplet whose
        Gamma0-kernel is not selfadjoint would get a wrong M(lambda), and
        is refused.  A Gamma0 that is not surjective, or whose kernel is
        not n-dimensional, has no Weyl function at all.
        """
        n, g = self.star.n1, self.g
        split = self._gamma0_split
        if self.star.dim != n + g or split.rank < g:
            raise SpectrumError(
                "Gamma0 is not surjective with an n-dimensional kernel"
            )
        whole = self._split_by_gamma0(split)
        blocks = _laurent(whole, self.cfg.rank_tol)
        if blocks is not None:
            return blocks
        if not _is_orthonormal(whole.g0 + 1j * whole.f0):
            raise PreconditionViolated(
                "ker Gamma0 is not selfadjoint: G0 + i F0 is not unitary"
            )
        return whole

    def _split_by_gamma0(self, split: _MapSplit) -> _KernelSplit:
        """Split the graph coefficients as c = Q0 a + Q1 b, with b = Gamma0 c,
        by the split of Gamma0, on the whole graph basis."""
        n = self.star.n1
        w, live, pinv = self.star.graph.basis, split.live, split.pinv
        if pinv is None:
            pinv = self.gamma0[:, live].conj().T
        w_q0 = split.times_kernel(w)
        return _KernelSplit(
            w_q0[:n], w_q0[n:], w[:n, live] @ pinv, w[n:, live] @ pinv,
            split.times_kernel(self.gamma1), self.gamma1[:, live] @ pinv,
        )

    @property
    def is_degenerate(self) -> bool:
        """True when the parameter space is trivial (S0 selfadjoint)."""
        return self.g == 0


class _LiftedTriplet(BoundaryTriplet):
    """A triplet built from a bundle that lift returned.

    main lives on S* with parameter space G, tilde on S~* with G~, and
    basic on S0* with G0.  For the parameter basis P = [P_1; P_2],
    ker Gamma0 is H (main) or S_F (basic, tilde), extremal with
    f0 = [D; 0] for D the identity (main) or the basis of dom R, and
    resolvent_blocks are the paper's closed forms:
    M(lambda) = lambda P_2^H P_2 - P_1^H P_1 / lambda and
    gamma(lambda) = [-P_1 / lambda; P_2] for main and tilde, and
    M(lambda) = lambda I and gamma(lambda) = P for basic.  So the Weyl
    set-up and Krein's formula read neither boundary map, and the blocks
    hold P itself, no zero-padded copy of it.

    gamma0 and gamma1 are assembled on their first read (_parts), one
    block of the star's graph basis at a time, with the splits of their
    live blocks that the lift's parts give; ker_gamma0 and ker_gamma1
    use those splits, with no factorization, when _split_holds, and
    _split_map's otherwise.  The graph bases stack, in this order:

      main, tilde  D on h1, graph R* = [B_h2; B_k1] on h2 and k1, and the
                   identity on k2.  Gamma0 projects (-k1, h2) and Gamma1
                   (h1, k2) onto the parameter space, inside which both
                   land: Gamma0 is A = P^H [-B_k1; B_h2] on graph R*, with
                   ker A spanned by C = B^H [0; M] (relation.
                   _mul_coordinates) for the basis M of the part of mul R*
                   that P leaves out ({0} for main, mul R* for tilde);
                   Gamma1 is [P_1^H D, P_2^H] on the other two blocks,
                   whose kernel [D^H F; G] for graph R = [F; G] is where
                   dom R (+) H2 meets the complement of P.
      basic        the identity on h1, K on h2, M on k1 and the identity
                   on k2, for the bases M of mul R* and K of ker R*, and
                   P = [M, 0; 0, K].  Gamma0 is [P_1^H, P_2^H K] on the
                   first two blocks, with kernel dom R (+) {0} = [D; 0],
                   and Gamma1 is [P_1^H M, P_2^H] on the last two, with
                   kernel {0} (+) ran R.
    """

    def __init__(self, kind: str, star: LinearRelation, boundary: Subspace,
                 bundle: LiftBundle) -> None:
        # not the dataclass __init__, which would store gamma0 and gamma1
        self.kind, self.star, self.boundary = kind, star, boundary
        self.friedrichs, self.cfg = bundle.S_F, bundle.cfg
        self._bundle = bundle

    @property
    def _dom(self) -> np.ndarray | None:
        """D, or None for main's identity."""
        return None if self.kind == "main" else self._bundle.dom_R.basis

    @cached_property
    def _parts(self) -> tuple[np.ndarray, np.ndarray, _MapSplit, _MapSplit]:
        """Gamma0, Gamma1 and the builder's splits of the two."""
        b, ph, dom = self._bundle, self.boundary.basis.conj().T, self._dom
        n1, n2 = b.n1, b.n2
        if self.kind == "basic":
            ker, mul, ran = b.ker_R_star, b.mul_R_star, b.ran_R
            widths = [n1, ker.dim, mul.dim, n2]
            blocks0 = {0: ph[:, :n1], 1: ph[:, n1:] @ ker.basis}
            blocks1 = {2: ph[:, :n1] @ mul.basis, 3: ph[:, n1:]}
            null0 = np.vstack([dom, np.zeros((ker.dim, dom.shape[1]))])
            null1 = np.vstack([np.zeros((mul.dim, ran.dim)), ran.basis])
        else:
            r_star, rel = b.R_star, b.R
            mul = Subspace.zero(n1) if dom is None else b.mul_R_star
            r_basis = r_star.graph.basis
            widths = [n1 if dom is None else dom.shape[1], r_star.dim, n2]
            blocks0 = {1: ph @ np.vstack([-r_basis[n2:], r_basis[:n2]])}
            blocks1 = {0: ph[:, :n1] if dom is None else ph[:, :n1] @ dom,
                       2: ph[:, n1:]}
            null0 = _mul_coordinates(r_star, mul)
            null1 = (rel.graph.basis if dom is None else np.vstack(
                [dom.conj().T @ rel.domain_block, rel.range_block]))
        edges = np.cumsum([0, *widths])
        maps, splits = [], []
        for blocks, null in ((blocks0, null0), (blocks1, null1)):
            gamma = np.zeros((self.g, self.star.dim), dtype=complex)
            live = np.zeros(self.star.dim, dtype=bool)
            for k, block in blocks.items():
                gamma[:, edges[k] : edges[k + 1]] = block
                live[edges[k] : edges[k + 1]] = True
            maps.append(gamma)
            splits.append(_MapSplit(_column_index(~live), _column_index(live),
                                    null, None, self.g))
        return (*maps, *splits)

    @cached_property
    def gamma0(self) -> np.ndarray:
        return self._parts[0]

    @cached_property
    def gamma1(self) -> np.ndarray:
        return self._parts[1]

    def _checked(self, split: _MapSplit, gamma: np.ndarray) -> _MapSplit:
        length = self.star.graph.ambient_dim
        # an empty map is all dead columns, split as it stands
        if self.g and _split_holds(split, gamma, length):
            return split
        return _split_map(gamma, length, self.cfg.rank_tol)

    @cached_property
    def _gamma0_split(self) -> _MapSplit:
        return self._checked(self._parts[2], self.gamma0)

    @cached_property
    def ker_gamma1(self) -> LinearRelation:
        return self._kernel(self._checked(self._parts[3], self.gamma1))

    @cached_property
    def resolvent_blocks(self) -> _LaurentBlocks:
        p, n1, dom = self.boundary.basis, self._bundle.n1, self._dom
        n_dom = n1 if dom is None else dom.shape[1]
        if self.kind == "basic":
            return _LaurentBlocks(None, np.eye(self.g, dtype=complex), None,
                                  p, None, dom, n_dom)
        p1, p2 = p[:n1], p[n1:]
        return _LaurentBlocks(None, p2.conj().T @ p2, -(p1.conj().T @ p1),
                              p, None, dom, n_dom, n1)


def _built(trip: _LiftedTriplet, bundle: LiftBundle) -> BoundaryTriplet:
    """trip for a bundle that lift returned.  Any other bundle (a
    dataclasses.replace'd or hand-made one, whose parts need not fit
    together) gets a plain triplet on trip's maps, which takes the
    generic route."""
    if bundle._from_lift:
        return trip
    return BoundaryTriplet(trip.kind, trip.star, trip.boundary, trip.gamma0,
                           trip.gamma1, trip.friedrichs, trip.cfg)


def triplet_main(bundle: LiftBundle) -> BoundaryTriplet:
    """Triplet on S* with parameter space (graph R)^perp."""
    return _built(_LiftedTriplet("main", bundle.S_star, bundle.G, bundle),
                  bundle)


def triplet_tilde(bundle: LiftBundle) -> BoundaryTriplet:
    """Triplet on S~* whose Gamma0-kernel is the Friedrichs extension."""
    return _built(_LiftedTriplet("tilde", bundle.S_tilde_star,
                                 bundle.G_tilde, bundle), bundle)


def triplet_basic(bundle: LiftBundle) -> BoundaryTriplet:
    """Triplet on S0* with parameter space G0 and Weyl function lambda*I.

    A relation with dense domain and dense range gives G0 = {0}; the
    triplet is then degenerate (S0 is already selfadjoint) and the
    is_degenerate flag reports it.
    """
    return _built(_LiftedTriplet("basic", bundle.S0_star, bundle.G0, bundle),
                  bundle)


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
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """M(lambda), gamma(lambda) if asked, and (A0 - lambda)^{-1} written
    into the n x n out if one is given.

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
        inv = 1.0 / lam if lam else 0.0
        m = lam * blocks.m1
        if blocks.m0 is not None:
            m = blocks.m0 + m
        if blocks.m_inv is not None:
            m = m + inv * blocks.m_inv
        return (m, blocks.gamma(inv) if gamma else None,
                None if out is None else blocks.resolvent(inv, out))
    f0, g = blocks.f0, trip.g
    rhs = blocks.g1 - lam * blocks.f1
    if out is not None:
        rhs = np.hstack([rhs, np.eye(len(f0))])
    x = _pencil_solve(blocks.g0, f0, lam, rhs, rank_tol, spectral)
    return (blocks.gamma1_q1 - blocks.gamma1_q0 @ x[:, :g],
            blocks.f1 - f0 @ x[:, :g] if gamma else None,
            None if out is None else np.matmul(f0, x[:, g:], out=out))


def weyl(trip: BoundaryTriplet, lam: complex,
         cfg: ToleranceConfig | None = None) -> np.ndarray:
    """Weyl function M(lambda) = Gamma1 (Gamma0 | N_lambda)^{-1}, g x g.

    Evaluated by the Krein resolvent formula

        M(lambda) = Gamma1 Q1 - Gamma1 Q0 (g0 - lambda f0)^{-1} (g1 - lambda f1)

    on the triplet's cached resolvent_blocks.  After the first call each
    lambda costs O(g^2) sums when ker Gamma0 is extremal (every lifted
    triplet, whose blocks are the closed forms), and one values-only SVD
    and one n x n solve when it is not.
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
    (every lifted triplet) (A0 - i)^{-1} = i f0 f0^H, formed on the rows
    of f0's nonzero block only (i on the first n1 diagonal entries for
    main, i D D^H for basic and tilde), and the one solve is g x g; any
    other kernel adds the pencil solves at +-i, the one at +i with the
    identity stacked onto its right-hand side.
    Y - M(i) X is invertible because Im M(i) = gamma(i)^H gamma(i) > 0.
    Multivalued parameters (dim of theta's domain below g) need no
    special case.  R is formed inside the 2n x n Cayley basis [R; I + i R]:
    (A0 - i)^{-1} in its upper half and the rank-g correction in its
    lower half, which is added in and which _cayley then overwrites;
    M(i), gamma(+-i) and the coupling are dropped once read.  The Cayley
    basis is orthonormal because A_theta is selfadjoint; subspace._cayley
    checks it through its Gram matrix I + 2 R^H R + i (R - R^H), by the
    rule of the Gram test.  A theta that is not selfadjoint raises
    PreconditionViolated; oracle.extension_definitional takes any theta.
    """
    cfg = trip.cfg
    if theta.n1 != trip.g or theta.n2 != trip.g:
        raise DimensionMismatch(
            f"theta acts on C^{theta.n1} x C^{theta.n2}, parameter space "
            f"has dimension {trip.g}"
        )
    if not classify(theta, cfg).is_selfadjoint:
        raise PreconditionViolated("theta is not selfadjoint")
    n = trip.star.n1
    basis = np.empty((2 * n, n), dtype=complex)
    res, lower = basis[:n], basis[n:]
    m_i, gamma_i, _ = _boundary_values(trip, 1j, cfg.rank_tol, gamma=True,
                                       out=res)
    gamma_conj = _boundary_values(trip, -1j, cfg.rank_tol, gamma=True)[1]
    np.conjugate(gamma_conj, out=gamma_conj)
    t_dom = theta.domain_block
    # X (Y - M(i) X)^{-1}, solved transposed: g right-hand sides, not n
    coupling = np.linalg.solve((theta.range_block - m_i @ t_dom).T,
                               t_dom.T).T
    left = gamma_i @ coupling
    del m_i, gamma_i, coupling
    np.matmul(left, gamma_conj.T, out=lower)
    del left, gamma_conj
    res += lower
    return LinearRelation(n, trip.star.n2, _cayley(basis))


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
