"""Linear relations between finite-dimensional complex Hilbert spaces.

A linear relation from C^{n1} to C^{n2} is any subspace of C^{n1+n2},
viewed as a multivalued map: the first n1 coordinates are the domain-side
component.  Operator graphs, purely multivalued relations, and everything
in between are the same kind of object here.

Inner products follow the convention <a, b> = b^H a (linear in the first
argument).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, ToleranceConfig
from .errors import DimensionMismatch, SpectrumError
from .subspace import (
    RelateResult,
    Subspace,
    _numerical_rank,
    _residual,
    _signed_swap,
    _sine_below,
    _subspace_where,
    complement,
    join,
    meet,
    nullspace_columns,
    oplus,
    orthonormal_columns,
    relate,
    span,
)

__all__ = [
    "LinearRelation",
    "RelationParts",
    "SymmetryReport",
    "from_operator",
    "from_kernel_pair",
    "from_product",
    "identity_relation",
    "zero_operator",
    "parts",
    "adjoint",
    "inverse",
    "operator_part",
    "classify",
    "lower_bound",
    "numerical_radius",
    "eigenspace",
    "defect_relation",
    "resolvent",
    "componentwise_sum",
    "meet_relations",
    "orthogonal_componentwise_sum",
    "operator_norm",
    "relation_equal",
]

# Angles per grid (odd, so a zoom keeps its centre) and zoom windows per step.
_RADIUS_ANGLES = 65
_RADIUS_WINDOWS = 4


@dataclass(eq=False)
class LinearRelation:
    """A relation C^{n1} -> C^{n2} as the subspace of its graph.

    == is identity; relation_equal decides equality at a tolerance.
    """

    n1: int
    n2: int
    graph: Subspace

    def __post_init__(self) -> None:
        if self.n1 < 1 or self.n2 < 1:
            raise DimensionMismatch(
                f"spaces must have dimension >= 1, got ({self.n1}, {self.n2})"
            )
        if self.graph.ambient_dim != self.n1 + self.n2:
            raise DimensionMismatch(
                f"graph lives in C^{self.graph.ambient_dim}, expected "
                f"C^{self.n1 + self.n2}"
            )

    @property
    def dim(self) -> int:
        return self.graph.dim

    @property
    def domain_block(self) -> np.ndarray:
        """Top n1 rows of the graph basis (domain-side components)."""
        return self.graph.basis[: self.n1]

    @property
    def range_block(self) -> np.ndarray:
        """Bottom n2 rows of the graph basis (range-side components)."""
        return self.graph.basis[self.n1 :]

    def __repr__(self) -> str:
        return f"LinearRelation(n1={self.n1}, n2={self.n2}, dim={self.dim})"


@dataclass(frozen=True)
class RelationParts:
    """Domain, range, kernel, and multivalued part of a relation."""

    dom: Subspace
    ran: Subspace
    ker: Subspace
    mul: Subspace


@dataclass(frozen=True)
class SymmetryReport:
    """Symmetry-class verdicts of a relation.

    The verdicts need the pairing <g, f> between the two components,
    which only exists when both live in the same space: for rectangular
    relations the booleans are False and dom_perp_ran is None.  The lower
    bound and the numerical radius are not verdicts; lower_bound and
    numerical_radius compute them.
    """

    is_symmetric: bool
    is_selfadjoint: bool
    is_nonnegative: bool
    dom_perp_ran: bool | None


def from_operator(mat,
                  cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> LinearRelation:
    """Graph of an everywhere-defined operator given by an n2 x n1 matrix."""
    mat = np.atleast_2d(np.asarray(mat, dtype=complex))
    return from_kernel_pair(np.eye(mat.shape[1]), mat, cfg)


def from_kernel_pair(c_mat, d_mat,
                     cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> LinearRelation:
    """Relation {(Cx, Dx) : x in C^p} from a pair of matrices."""
    c_mat = np.atleast_2d(np.asarray(c_mat, dtype=complex))
    d_mat = np.atleast_2d(np.asarray(d_mat, dtype=complex))
    if c_mat.shape[1] != d_mat.shape[1]:
        raise DimensionMismatch(
            f"C has {c_mat.shape[1]} columns, D has {d_mat.shape[1]}"
        )
    n1, n2 = c_mat.shape[0], d_mat.shape[0]
    basis = orthonormal_columns(np.vstack([c_mat, d_mat]), cfg.rank_tol)
    return LinearRelation(n1, n2, Subspace(n1 + n2, basis))


def from_product(m_space: Subspace, n_space: Subspace) -> LinearRelation:
    """The product relation M x N (every pair (m, n) is in the relation).

    Dedicated constructor: the block-diagonal basis keeps the zero blocks
    exact instead of round-tripping them through a factorization.
    """
    return LinearRelation(
        m_space.ambient_dim, n_space.ambient_dim, oplus(m_space, n_space)
    )


def identity_relation(n: int) -> LinearRelation:
    return from_operator(np.eye(n, dtype=complex))


def zero_operator(n1: int, n2: int | None = None) -> LinearRelation:
    if n2 is None:
        n2 = n1
    return from_operator(np.zeros((n2, n1), dtype=complex))


def parts(rel: LinearRelation,
          cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> RelationParts:
    """Domain, range, kernel, multivalued part.

    ker and mul come from coefficient nullspaces of the graph blocks:
    coefficients c with Gc = 0 give kernel vectors Fc, and symmetrically
    for mul.
    """
    f_blk, g_blk = rel.domain_block, rel.range_block
    dom = span(f_blk, rel.n1, cfg)
    ran = span(g_blk, rel.n2, cfg)
    ker = span(f_blk @ nullspace_columns(g_blk, cfg.rank_tol), rel.n1, cfg)
    return RelationParts(dom=dom, ran=ran, ker=ker, mul=_mul(rel, cfg))


def _mul(rel: LinearRelation, cfg: ToleranceConfig) -> Subspace:
    """mul R: range components of the coefficients with F c = 0."""
    coeffs = nullspace_columns(rel.domain_block, cfg.rank_tol)
    return span(rel.range_block @ coeffs, rel.n2, cfg)


def adjoint(rel: LinearRelation,
            cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> LinearRelation:
    """Adjoint relation, computed through the flip-flop complement.

    The orthogonal complement of the graph equals the flipped adjoint
    graph: (h, k) is in R* exactly when (k, -h) is orthogonal to R.  One
    factorization of the graph basis produces the whole adjoint; the
    definitional route lives in the oracle module as a cross-check.
    """
    return _adjoint_from_complement(rel, complement(rel.graph, cfg))


def _adjoint_from_complement(rel: LinearRelation,
                             ortho: Subspace) -> LinearRelation:
    """R* from the orthogonal complement of the graph of R, by the flip."""
    return LinearRelation(rel.n2, rel.n1, _signed_swap(ortho, rel.n1, "tail"))


def inverse(rel: LinearRelation) -> LinearRelation:
    """Componentwise swap of the graph."""
    return LinearRelation(rel.n2, rel.n1, _signed_swap(rel.graph, rel.n1, None))


def operator_part(rel: LinearRelation,
                  cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> LinearRelation:
    """Single-valued part: project the range components off mul(R).

    The graph of the operator part is the orthogonal complement of
    {0} x mul(R) inside the graph, so one projection of the graph basis
    followed by a re-span does it.  Only mul R is factored, not the
    other parts.
    """
    mul = _mul(rel, cfg)
    if mul.dim == 0:
        return rel
    projected = _residual(rel.graph, oplus(Subspace.zero(rel.n1), mul))
    basis = orthonormal_columns(projected, cfg.rank_tol)
    return LinearRelation(rel.n1, rel.n2, Subspace(rel.n1 + rel.n2, basis))


def _symmetry(rel: LinearRelation,
              cfg: ToleranceConfig) -> tuple[np.ndarray, bool] | None:
    """(F^H G, symmetry verdict) of a square relation; None if rectangular.

    The sine of the largest principal angle of the graph [F; G] against
    the graph of R* is the spectral norm of F^H G - G^H F, so R is
    symmetric when dim R <= n and that angle is below angle_tol.  The
    angle is not reported, so _sine_below's Frobenius bracket decides it
    and a values-only SVD runs only when the norm falls inside it.
    """
    if rel.n1 != rel.n2:
        return None
    cross = rel.domain_block.conj().T @ rel.range_block
    skew = cross - cross.conj().T
    return cross, rel.dim <= rel.n1 and _sine_below(skew, cfg.angle_tol)


def _is_selfadjoint(rel: LinearRelation, cfg: ToleranceConfig) -> bool:
    """classify's is_selfadjoint verdict alone, with no nonnegativity test."""
    sym = _symmetry(rel, cfg)
    return sym is not None and sym[1] and rel.dim == rel.n1


def _domain_form(rel: LinearRelation, cfg: ToleranceConfig
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U_r, W, K) from one SVD F = U S V^H of rel's domain block, rank r.

    U_r spans dom R, W = V_r S_r^{-1} whitens (F W = U_r), and K = V_{r:}
    spans the coefficients with F c = 0, so G K spans mul R orthonormally.
    The form <g, f> on unit domain vectors is W^H F^H G W, stable even for
    a badly conditioned F (steep operators have nearly vertical graphs).
    """
    f_blk = rel.domain_block
    m, k = f_blk.shape
    u, s, vh = np.linalg.svd(f_blk, full_matrices=m < k)
    r = _numerical_rank(s, cfg.rank_tol)
    return u[:, :r], vh[:r].conj().T / s[:r], vh[r:].conj().T


def lower_bound(rel: LinearRelation,
                cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> float | None:
    """Greatest lower bound of the operator part on its domain.

    None when the relation is rectangular or not symmetric by classify's
    rule; +inf when the domain is trivial (every bound holds vacuously).
    A single finite relation is never unbounded below.  The bound is the
    least eigenvalue of Re B = (B + B^H)/2 for B = U_r^H G W, with U_r and
    W of _domain_form: mul R is orthogonal to dom R in a symmetric R, so B
    is the form of the operator part.  numerical_radius reads the same B
    at t = 0, so it is never below |lower_bound|.
    """
    sym = _symmetry(rel, cfg)
    if sym is None or not sym[1]:
        return None
    dom, whitener, _ = _domain_form(rel, cfg)
    if not whitener.shape[1]:
        return math.inf
    b = (dom.conj().T @ rel.range_block) @ whitener
    return float(np.linalg.eigvalsh((b + b.conj().T) / 2.0)[0])


def numerical_radius(rel: LinearRelation,
                     cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """sup |<g, f>| / ||f||^2 over (f, g) in a square R with f != 0.

    +inf when mul R misses orthogonality to dom R by angle_tol or more (the
    rule of orthogonal_componentwise_sum): g + mul R sweeps <g, f> over C.
    Else max ||Re(e^{it} B)||_2, t in [0, pi), B = U_r^H G W (Johnson 1978;
    0.0 if dom R = {0}).  The coarse grid reads within a relative 3e-4 below
    it; zooms about its best angles reach round-off unless peaks tie (README).
    """
    if rel.n1 != rel.n2:
        raise DimensionMismatch("the numerical range needs a square relation")
    dom, whitener, kernel = _domain_form(rel, cfg)
    pairing = dom.conj().T @ rel.range_block
    if not _sine_below(pairing @ kernel, cfg.angle_tol):
        return math.inf
    b = pairing @ whitener
    step = math.pi / _RADIUS_ANGLES
    angles = np.arange(_RADIUS_ANGLES) * step
    while True:
        turned = np.exp(1j * angles)[:, None, None] * b
        herm = (turned + turned.conj().swapaxes(1, 2)) / 2.0
        norms = np.abs(np.linalg.eigvalsh(herm)).max(axis=1, initial=0.0)
        radius = float(norms.max())
        if step * step / 8.0 <= np.finfo(float).eps:
            return radius
        best = np.argsort(-norms)[:_RADIUS_WINDOWS]
        best = best[norms[best] >= radius * (1.0 - step * step / 8.0)]
        window = np.linspace(-step, step, _RADIUS_ANGLES)
        angles = (angles[best, None] + window).ravel()
        step *= 2.0 / (_RADIUS_ANGLES - 1)


def classify(rel: LinearRelation,
             cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> SymmetryReport:
    """Symmetry-class verdicts, all read off the cross-Gram matrix F^H G.

    R is symmetric by the angle rule of _symmetry, and selfadjoint when
    it is also true that dim R = n (then dim R* = dim R).  Nonnegativity
    (PSD Hermitian part of F^H G) is decided only when R is symmetric.
    The dom-perp-ran test is exact: the numerical range collapses to {0}
    precisely when F^H G vanishes (complex polarization), which is also
    the condition for the domain and range spans to be orthogonal.  A
    rectangular relation has no pairing and gets None for dom_perp_ran.
    """
    sym = _symmetry(rel, cfg)
    if sym is None:
        return SymmetryReport(False, False, False, None)
    cross, is_symmetric = sym
    dom_perp_ran = bool(
        cross.size == 0 or np.max(np.abs(cross)) <= cfg.rank_tol
    )
    is_nonnegative = False
    if is_symmetric:
        eig_floor = 0.0
        if cross.size:
            herm = (cross + cross.conj().T) / 2.0
            eig_floor = float(np.linalg.eigvalsh(herm)[0])
        is_nonnegative = eig_floor >= cfg.psd_floor
    return SymmetryReport(
        is_symmetric=is_symmetric,
        is_selfadjoint=is_symmetric and rel.dim == rel.n1,
        is_nonnegative=is_nonnegative,
        dom_perp_ran=dom_perp_ran,
    )


def eigenspace(rel: LinearRelation, lam: complex,
               cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> Subspace:
    """N_lambda(T) = {f : (f, lambda f) in T}."""
    if rel.n1 != rel.n2:
        raise DimensionMismatch("eigenspace needs a square relation")
    return span(defect_relation(rel, lam, cfg).domain_block, rel.n1, cfg)


def defect_relation(rel: LinearRelation, lam: complex,
                    cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> LinearRelation:
    """The defect pairs {(f, lambda f)} in T, as a relation."""
    if rel.n1 != rel.n2:
        raise DimensionMismatch("defect pairs need a square relation")
    return _sub_relation(rel, rel.range_block - lam * rel.domain_block, cfg)


def _sub_relation(rel: LinearRelation, constraint: np.ndarray,
                  cfg: ToleranceConfig) -> LinearRelation:
    """{W c : constraint @ c = 0} for the graph basis W of rel."""
    return LinearRelation(
        rel.n1, rel.n2, _subspace_where(rel.graph, constraint, cfg.rank_tol)
    )


def resolvent(rel: LinearRelation, lam: complex,
              cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """Matrix of (A - lambda)^{-1} when it is an everywhere-defined operator.

    The graph of the inverse is {(g - lambda f, f)}; it is the graph of a
    bounded everywhere-defined operator exactly when the pencil
    G - lambda F is square and invertible at the configured rank
    threshold.  Spectral points are detected that way, not by eigenvalue
    proximity, so relations with a nontrivial multivalued part are handled
    correctly (the resolvent vanishes on mul A).
    """
    if rel.n1 != rel.n2:
        raise DimensionMismatch("resolvent needs a square relation")
    n = rel.n1
    if rel.dim != n:
        raise SpectrumError(
            f"graph dimension {rel.dim} != {n}: (A - lambda)^(-1) cannot be "
            "an everywhere-defined operator"
        )
    x = _pencil_solve(rel.range_block, rel.domain_block, lam,
                      np.eye(n, dtype=complex), cfg.rank_tol,
                      "a spectral point")
    return rel.domain_block @ x


def _pencil_solve(g_blk: np.ndarray, f_blk: np.ndarray, lam: complex,
                  rhs: np.ndarray, rank_tol: float,
                  spectral: str) -> np.ndarray:
    """(G - lambda F)^{-1} rhs for a square pencil, after its spectral test.

    The pencil is invertible exactly when a values-only SVD finds it of
    full rank under the rank rule; otherwise SpectrumError says that
    lambda is the given kind of spectral point.
    """
    pencil = g_blk - lam * f_blk
    s = np.linalg.svd(pencil, compute_uv=False)
    if _numerical_rank(s, rank_tol) < pencil.shape[0]:
        raise SpectrumError(f"lambda = {lam} is {spectral}")
    return np.linalg.solve(pencil, rhs)


def componentwise_sum(a: LinearRelation, b: LinearRelation,
                      cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> LinearRelation:
    """Componentwise (graph) sum: the join of the two graph subspaces."""
    if (a.n1, a.n2) != (b.n1, b.n2):
        raise DimensionMismatch(
            f"componentwise sum of ({a.n1},{a.n2}) and ({b.n1},{b.n2}) relations"
        )
    return LinearRelation(a.n1, a.n2, join(a.graph, b.graph, cfg))


def meet_relations(a: LinearRelation, b: LinearRelation,
                   cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> LinearRelation:
    """Intersection of two relations: the meet of the graph subspaces."""
    if (a.n1, a.n2) != (b.n1, b.n2):
        raise DimensionMismatch(
            f"intersecting ({a.n1},{a.n2}) and ({b.n1},{b.n2}) relations"
        )
    return LinearRelation(a.n1, a.n2, meet(a.graph, b.graph, cfg))


def orthogonal_componentwise_sum(
    a: LinearRelation, b: LinearRelation,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> LinearRelation:
    """componentwise_sum of graphs that miss orthogonality by < angle_tol.

    arcsin ||a^H b|| is that miss: ||a^H b|| is the cosine of the smallest
    principal angle between the graphs.
    """
    if (a.n1, a.n2) != (b.n1, b.n2):
        raise DimensionMismatch(
            f"componentwise sum of ({a.n1},{a.n2}) and ({b.n1},{b.n2}) relations"
        )
    cosines = a.graph.basis.conj().T @ b.graph.basis
    if not _sine_below(cosines, cfg.angle_tol):
        raise ValueError(
            "graphs are not orthogonal; use componentwise_sum instead"
        )
    return componentwise_sum(a, b, cfg)


def operator_norm(rel: LinearRelation,
                  cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """||G W||_2, W of _domain_form: the norm of a single-valued relation."""
    _, whitener, kernel = _domain_form(rel, cfg)
    if kernel.shape[1]:
        raise ValueError("operator_norm needs a single-valued relation")
    s = np.linalg.svd(rel.range_block @ whitener, compute_uv=False)
    return float(s[0]) if s.size else 0.0


def relation_equal(a: LinearRelation, b: LinearRelation,
                   cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> RelateResult:
    """Relate the graphs of two relations over the same pair of spaces."""
    if (a.n1, a.n2) != (b.n1, b.n2):
        raise DimensionMismatch(
            f"comparing ({a.n1},{a.n2}) and ({b.n1},{b.n2}) relations"
        )
    return relate(a.graph, b.graph, cfg)
