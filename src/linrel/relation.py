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
from functools import cached_property

import numpy as np

from .config import DEFAULT_TOLERANCES, ToleranceConfig
from .errors import DimensionMismatch, SpectrumError
from .subspace import (
    RelateResult,
    Subspace,
    _complement_columns,
    _numerical_rank,
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


def _hermitian_floor(mat: np.ndarray) -> float:
    """lambda_min of the Hermitian part (mat + mat^H) / 2; +inf when mat
    is empty, where every floor holds vacuously."""
    if not mat.size:
        return math.inf
    return float(np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)[0])


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


class SymmetryReport:
    """Symmetry-class verdicts of a relation.

    The verdicts need the pairing <g, f> between the two components,
    which only exists when both live in the same space: for rectangular
    relations the booleans are False and dom_perp_ran is None.  The lower
    bound and the numerical radius are not verdicts; lower_bound and
    numerical_radius compute them.

    is_nonnegative is the one verdict that needs a factorization, so it
    is decided on its first read and cached: the report holds the
    cross-Gram matrix F^H G of a symmetric relation (None otherwise)
    until then, and drops it after.  == and repr see the four verdicts.
    """

    def __init__(self, is_symmetric: bool, is_selfadjoint: bool,
                 dom_perp_ran: bool | None, cross: np.ndarray | None = None,
                 psd_floor: float = 0.0) -> None:
        self.is_symmetric = is_symmetric
        self.is_selfadjoint = is_selfadjoint
        self.dom_perp_ran = dom_perp_ran
        self._cross = cross
        self._psd_floor = psd_floor

    @cached_property
    def is_nonnegative(self) -> bool:
        """The Hermitian part of F^H G is PSD down to psd_floor."""
        cross, self._cross = self._cross, None
        return cross is not None and _hermitian_floor(cross) >= self._psd_floor

    def _verdicts(self) -> tuple:
        return (self.is_symmetric, self.is_selfadjoint, self.is_nonnegative,
                self.dom_perp_ran)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymmetryReport):
            return NotImplemented
        return self._verdicts() == other._verdicts()

    def __hash__(self) -> int:
        return hash(self._verdicts())

    def __repr__(self) -> str:
        names = ("is_symmetric", "is_selfadjoint", "is_nonnegative",
                 "dom_perp_ran")
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(names, self._verdicts()))
        return f"SymmetryReport({fields})"


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


def adjoint(rel: LinearRelation) -> LinearRelation:
    """Adjoint relation, computed through the flip-flop complement.

    The orthogonal complement of the graph equals the flipped adjoint
    graph: (h, k) is in R* exactly when (k, -h) is orthogonal to R.  One
    QR of the graph basis produces the whole adjoint, with no rank to
    decide (complement); the definitional route lives in the oracle
    module as a cross-check.
    """
    return _adjoint_from_complement(rel, complement(rel.graph))


def _adjoint_from_complement(rel: LinearRelation,
                             ortho: Subspace) -> LinearRelation:
    """R* from the orthogonal complement of the graph of R, by the flip."""
    return LinearRelation(rel.n2, rel.n1, _signed_swap(ortho, rel.n1, "tail"))


def inverse(rel: LinearRelation) -> LinearRelation:
    """Componentwise swap of the graph."""
    return LinearRelation(rel.n2, rel.n1, _signed_swap(rel.graph, rel.n1, None))


def operator_part(rel: LinearRelation,
                  cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> LinearRelation:
    """Single-valued part: the graph with {0} x mul(R) split off.

    Only mul R is factored, not the other parts; _operator_part_off does
    the rest with one QR.
    """
    return _operator_part_off(rel, _mul(rel, cfg))


def _mul_coordinates(rel: LinearRelation, mul: Subspace) -> np.ndarray:
    """C = G^H M, the graph coordinates of {0} x mul R.

    With W = [F; G] the graph basis and M the basis of mul R, [0; M] lies
    in the graph, so [0; M] = W C for C = W^H [0; M] = G^H M, and C has
    orthonormal columns because W and [0; M] do.
    """
    return rel.range_block.conj().T @ mul.basis


def _operator_part_off(rel: LinearRelation, mul: Subspace) -> LinearRelation:
    """The operator part of rel, given mul R as a subspace of C^{n2}.

    Its graph is the orthogonal complement of {0} x mul R inside the
    graph, whose coordinates C are _mul_coordinates.  The complement of
    the d x m block C in C^d (_complement_columns, one QR) times W is an
    orthonormal basis of the operator part's graph: no rank rule, and no
    SVD.
    """
    if mul.dim == 0:
        return rel
    basis = rel.graph.basis @ _complement_columns(_mul_coordinates(rel, mul))
    return LinearRelation(rel.n1, rel.n2, Subspace(rel.n1 + rel.n2, basis))


def _dom_perp_ran(cross: np.ndarray, rank_tol: float) -> bool:
    """classify's dom-perp-ran verdict on a cross-Gram matrix F^H G: every
    entry at most rank_tol, the scale of a unit-norm residual the rank
    rule calls zero."""
    return bool(np.abs(cross).max(initial=0.0) <= rank_tol)


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


def _form_bound(rel: LinearRelation, form: tuple) -> float:
    """lambda_min(Re B) for B = U_r^H G W of a _domain_form; +inf when
    dom R = {0}."""
    dom, whitener, _ = form
    return _hermitian_floor((dom.conj().T @ rel.range_block) @ whitener)


def _form_radius(rel: LinearRelation, form: tuple,
                 cfg: ToleranceConfig) -> float:
    """The numerical radius read off a _domain_form (numerical_radius)."""
    dom, whitener, kernel = form
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
    if not classify(rel, cfg).is_symmetric:
        return None
    return _form_bound(rel, _domain_form(rel, cfg))


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
    return _form_radius(rel, _domain_form(rel, cfg), cfg)


def _bound_and_radius(rel: LinearRelation, is_symmetric: bool,
                      cfg: ToleranceConfig
                      ) -> tuple[float | None, float | None]:
    """(lower_bound, numerical_radius) of rel from one _domain_form, given
    classify's symmetry verdict; (None, None) for a rectangular rel."""
    if rel.n1 != rel.n2:
        return None, None
    form = _domain_form(rel, cfg)
    return (_form_bound(rel, form) if is_symmetric else None,
            _form_radius(rel, form, cfg))


def classify(rel: LinearRelation,
             cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> SymmetryReport:
    """Symmetry-class verdicts, all read off the cross-Gram matrix F^H G.

    The sine of the largest principal angle of the graph [F; G] against
    the graph of R* is the spectral norm of F^H G - G^H F, so R is
    symmetric when dim R <= n and that angle is below angle_tol.  The
    angle is not reported, so _sine_below's Frobenius bracket decides it
    and a values-only SVD runs only when the norm falls inside it.  R is
    selfadjoint when it is also true that dim R = n (then dim R* =
    dim R).  Nonnegativity (PSD Hermitian part of F^H G) is decided only
    when R is symmetric, and only when the report's is_nonnegative is
    first read.
    The dom-perp-ran test is exact: the numerical range collapses to {0}
    precisely when F^H G vanishes (complex polarization), which is also
    the condition for the domain and range spans to be orthogonal.  A
    rectangular relation has no pairing and gets None for dom_perp_ran.
    """
    if rel.n1 != rel.n2:
        return SymmetryReport(False, False, None)
    cross = rel.domain_block.conj().T @ rel.range_block
    is_symmetric = rel.dim <= rel.n1 and _sine_below(
        cross - cross.conj().T, cfg.angle_tol)
    return SymmetryReport(
        is_symmetric=is_symmetric,
        is_selfadjoint=is_symmetric and rel.dim == rel.n1,
        dom_perp_ran=_dom_perp_ran(cross, cfg.rank_tol),
        cross=cross if is_symmetric else None,
        psd_floor=cfg.psd_floor,
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


def _same_spaces(a: LinearRelation, b: LinearRelation, what: str) -> None:
    """Raise DimensionMismatch, in the words of what, unless a and b are
    relations between the same pair of spaces."""
    if (a.n1, a.n2) != (b.n1, b.n2):
        raise DimensionMismatch(
            f"{what} ({a.n1},{a.n2}) and ({b.n1},{b.n2}) relations"
        )


def componentwise_sum(a: LinearRelation, b: LinearRelation,
                      cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> LinearRelation:
    """Componentwise (graph) sum: the join of the two graph subspaces."""
    _same_spaces(a, b, "componentwise sum of")
    return LinearRelation(a.n1, a.n2, join(a.graph, b.graph, cfg))


def meet_relations(a: LinearRelation, b: LinearRelation,
                   cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> LinearRelation:
    """Intersection of two relations: the meet of the graph subspaces."""
    _same_spaces(a, b, "intersecting")
    return LinearRelation(a.n1, a.n2, meet(a.graph, b.graph, cfg))


def orthogonal_componentwise_sum(
    a: LinearRelation, b: LinearRelation,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> LinearRelation:
    """componentwise_sum of graphs that miss orthogonality by < angle_tol.

    arcsin ||a^H b|| is that miss: ||a^H b|| is the cosine of the smallest
    principal angle between the graphs.
    """
    _same_spaces(a, b, "componentwise sum of")
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
    _same_spaces(a, b, "comparing")
    return relate(a.graph, b.graph, cfg)
