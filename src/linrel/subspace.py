"""Orthonormal-basis arithmetic for closed subspaces of C^n.

A subspace is stored as an ambient dimension together with a matrix whose
columns form an orthonormal basis.  The zero subspace (an ``(n, 0)`` basis
matrix) is a first-class value so that kernel and multivalued-part
computations never need special casing.

Every basis is checked when its Subspace is built, and the rule has no
exceptions: a basis is Gram-tested if and only if it comes from a
factorization, from user input or from a product of bases.  Such a
basis must pass |B^H B - I| <= 1e-8 off the diagonal and <= 1e-8 +
1e-5 on it; an entry of modulus above 2, NaN or inf fails it before the
product is formed.  The two exact rearrangements of checked bases are
not tested; Subspace.full makes its identity on the first read of its
basis.  A stack of existing Subspace bases (and identities) on
pairwise disjoint rows, as oplus and the lifted relations of the
extension module are, has a block diagonal Gram matrix with the parts'
Grams as its blocks whenever it is assembled (_stack).  A stack's
basis exists only once it is read: _stack checks the row map and knows
the dimension when it builds the stack, and assembles the zero-padded
matrix on the first read of .basis.  A signed swap [B[s:]; B[:s]] with
one block negated, as the adjoint, the inverse and the boundary space
G~ are, has the Gram matrix of B itself (_signed_swap).  Either way the
parts' own checks decide the same, exactly.  The Cayley basis [R; I + iR]
of an n x n R (boundary.extension_from_boundary, which forms R in the
basis's upper half) is a product, and is tested through its Gram matrix
in closed form, I + 2 R^H R + i (R - R^H):
one n x n x n product in place of the n x 2n x n one, with the same
entry bound and the same rule on the deviation from I (_cayley).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .config import _EPS, DEFAULT_TOLERANCES, ToleranceConfig
from .errors import DimensionMismatch

__all__ = [
    "Subspace",
    "Verdict",
    "RelateResult",
    "span",
    "complement",
    "meet",
    "join",
    "relate",
    "oplus",
]


# Absolute Gram-matrix deviation a Subspace basis may carry and still count
# as orthonormal: far above the ~1e-15 round-off of any factorization, far
# below a basis that was never orthonormalized.
_GRAM_ATOL = 1e-8
# Extra slack on the Gram diagonal: np.allclose's default rtol, which it
# scales by the identity's unit diagonal.  Kept so that the accepted bases
# are exactly those of np.allclose(B^H B, I, atol=_GRAM_ATOL).
_GRAM_DIAG_RTOL = 1e-5
_GRAM_DIAG_BOUND = _GRAM_ATOL + _GRAM_DIAG_RTOL
# No entry of an accepted basis exceeds its column norm,
# sqrt(1 + _GRAM_DIAG_BOUND) < 2, in modulus.  So a basis with an entry
# beyond this bound (or a NaN) fails the Gram test anyway, and rejecting it
# before the product keeps the accept set and spares numpy's overflow and
# invalid-value warnings.
_ENTRY_BOUND = 2.0


def _is_orthonormal(basis: np.ndarray) -> bool:
    """|B^H B - I| <= _GRAM_ATOL off the diagonal, <= _GRAM_DIAG_BOUND on it.

    The accept set of np.allclose(B^H B, I, atol=_GRAM_ATOL) without its
    per-call machinery.  A NaN, inf or huge entry fails before the
    product, so no RuntimeWarning precedes the rejection.
    """
    if not np.abs(basis).max(initial=0.0) <= _ENTRY_BOUND:
        return False
    dev = basis.conj().T @ basis
    dev.reshape(-1)[:: basis.shape[1] + 1] -= 1.0
    return _gram_deviation_within(dev)


def _gram_deviation_within(dev: np.ndarray) -> bool:
    """The rule of _is_orthonormal on a d x d deviation B^H B - I, d >= 1:
    |dev| <= _GRAM_ATOL off the diagonal, <= _GRAM_DIAG_BOUND on it."""
    d = len(dev)
    dev = np.abs(dev)
    # a basis from a factorization deviates by ~1e-15 everywhere: one pass
    if dev.max() <= _GRAM_ATOL:
        return True
    diag = dev.reshape(-1)[:: d + 1]
    if not diag.max() <= _GRAM_DIAG_BOUND:
        return False
    diag[:] = 0.0
    return bool(dev.max() <= _GRAM_ATOL)


def _as_matrix(vectors, ambient_dim: int | None) -> np.ndarray:
    """Stack vectors as columns of a complex matrix."""
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        mat = np.asarray(vectors, dtype=complex)
    else:
        cols = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
        if not cols:
            if ambient_dim is None:
                raise DimensionMismatch(
                    "empty span needs an explicit ambient_dim"
                )
            return np.zeros((ambient_dim, 0), dtype=complex)
        lengths = {c.shape[0] for c in cols}
        if len(lengths) != 1:
            raise DimensionMismatch(f"mixed vector lengths {sorted(lengths)}")
        mat = np.column_stack(cols)
    if ambient_dim is not None and mat.shape[0] != ambient_dim:
        raise DimensionMismatch(
            f"vectors live in C^{mat.shape[0]}, expected C^{ambient_dim}"
        )
    return mat


def _numerical_rank(s: np.ndarray, rank_tol: float) -> int:
    """Singular values above rank_tol relative to max(leading value, 1).

    The unit floor matters: the matrices factored here are built from
    unit-norm columns, so a residual whose largest singular value sits far
    below 1 is a numerically zero matrix, and a purely relative threshold
    would resurrect its rounding noise as full rank.
    """
    if s.size == 0:
        return 0
    return int(np.count_nonzero(s > rank_tol * max(float(s[0]), 1.0)))


def orthonormal_columns(mat: np.ndarray, rank_tol: float) -> np.ndarray:
    """Orthonormal basis of the column span, rank decided by rank_tol."""
    mat = np.asarray(mat, dtype=complex)
    n, k = mat.shape
    if k == 0:
        return np.zeros((n, 0), dtype=complex)
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    return u[:, : _numerical_rank(s, rank_tol)]


def nullspace_columns(mat: np.ndarray, rank_tol: float) -> np.ndarray:
    """Orthonormal basis of ker(mat) as columns; mat may be empty."""
    mat = np.asarray(mat, dtype=complex)
    m, k = mat.shape
    if k == 0:
        return np.zeros((0, 0), dtype=complex)
    if m == 0:
        return np.eye(k, dtype=complex)
    # V^H is k x k either way; only a wide matrix needs the full
    # factorization for it, and a tall one would form an unread m x m U
    _, s, vh = np.linalg.svd(mat, full_matrices=m < k)
    return vh[_numerical_rank(s, rank_tol) :].conj().T


@dataclass(eq=False)
class Subspace:
    """A closed linear subspace of C^n held as an orthonormal basis.

    == is identity; relate decides equality at a tolerance.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self) -> None:
        self.basis = np.asarray(self.basis, dtype=complex)
        if self.ambient_dim < 0:
            raise DimensionMismatch(f"ambient_dim {self.ambient_dim} < 0")
        if self.basis.ndim != 2 or self.basis.shape[0] != self.ambient_dim:
            raise DimensionMismatch(
                f"basis shape {self.basis.shape} does not match ambient "
                f"dimension {self.ambient_dim}"
            )
        if self.basis.shape[1] and not _is_orthonormal(self.basis):
            raise ValueError("basis columns are not orthonormal")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.zeros((ambient_dim, 0), dtype=complex))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        # the identity is orthonormal exactly, as a stack of unit columns
        out = object.__new__(_Identity)
        out.ambient_dim = ambient_dim
        return out

    def projector(self) -> np.ndarray:
        """Orthogonal projection matrix onto the subspace."""
        return self.basis @ self.basis.conj().T

    def __repr__(self) -> str:
        return f"Subspace(ambient_dim={self.ambient_dim}, dim={self.dim})"


class Verdict(Enum):
    EQUAL = "equal"
    SUBSET = "subset"
    SUPERSET = "superset"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class RelateResult:
    """Containment verdict plus the principal angle supporting it.

    forward_angle is the largest principal angle of U measured against V
    (0 when U is contained in V), reverse_angle the converse.  ``angle``
    is the angle relevant to the verdict: the residual for EQUAL/SUBSET/
    SUPERSET, and the smaller of the two containment angles when the
    spaces are incomparable.
    """

    verdict: Verdict
    angle: float
    forward_angle: float
    reverse_angle: float

    @property
    def contained(self) -> bool:
        """U lies in V: the verdict is EQUAL or SUBSET."""
        return self.verdict in (Verdict.EQUAL, Verdict.SUBSET)


def span(vectors, ambient_dim: int | None = None,
         cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> Subspace:
    """Orthonormalized column span of the given vectors."""
    mat = _as_matrix(vectors, ambient_dim)
    return Subspace(mat.shape[0], orthonormal_columns(mat, cfg.rank_tol))


def _span_and_complement(mat: np.ndarray, cfg: ToleranceConfig
                         ) -> tuple[Subspace, Subspace]:
    """The column span of an n-row mat and its orthogonal complement in
    C^n.  A square or wide mat that _spans_everything certifies spans C^n:
    the pair is then C^n and {0}, exactly, with no basis to factor or
    test.  Otherwise one SVD mat = U S V^H of rank r gives U[:, :r] and
    U[:, r:].  Only a tall mat needs the full U for the complement; a
    square or wide one has a thin U that is already n x n.  A tall mat
    always takes the SVD: it cannot span C^n, and its bases are read.
    """
    n, k = mat.shape
    if k == 0:
        return Subspace.zero(n), Subspace.full(n)
    if n <= k and _spans_everything(mat, cfg.rank_tol):
        return Subspace.full(n), Subspace.zero(n)
    u, s, _ = np.linalg.svd(mat, full_matrices=n > k)
    r = _numerical_rank(s, cfg.rank_tol)
    return Subspace(n, u[:, :r]), Subspace(n, u[:, r:])


def complement(u: Subspace) -> Subspace:
    """Orthogonal complement of u in its ambient space.

    u's basis W passed the Gram test, so its singular values are 1 to
    within 1e-5 and no rank is left to decide: _complement_columns(W)
    spans W^perp, and takes the Gram test.
    """
    return Subspace(u.ambient_dim, _complement_columns(u.basis))


def _complement_columns(mat: np.ndarray) -> np.ndarray:
    """The last d - r columns of one complete QR of a d x r mat with
    (nearly) orthonormal columns: an orthonormal basis of the complement
    of its span in C^d, with no rank to decide.  A copy, not a view that
    would keep all of the d x d factor."""
    return np.linalg.qr(mat, mode="complete")[0][:, mat.shape[1] :].copy()


def _same_ambient(u: Subspace, v: Subspace, what: str) -> None:
    """Raise DimensionMismatch, naming the operation, unless u and v
    live in the same C^n."""
    if u.ambient_dim != v.ambient_dim:
        raise DimensionMismatch(
            f"{what} of C^{u.ambient_dim} and C^{v.ambient_dim} subspaces"
        )


def join(u: Subspace, v: Subspace,
         cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> Subspace:
    """Closure of u + v (finite dimension: the plain sum)."""
    _same_ambient(u, v, "join")
    stacked = np.hstack([u.basis, v.basis])
    return Subspace(u.ambient_dim, orthonormal_columns(stacked, cfg.rank_tol))


def meet(u: Subspace, v: Subspace,
         cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> Subspace:
    """Intersection: the directions of u whose angle to v has sine <= rank_tol.

    The singular values of the residual (I - P_v) u are the sines of the
    principal angles of u against v, so the coefficients of the shared
    directions are its nullspace at rank_tol, and u times them is the
    meet: one factorization.
    """
    _same_ambient(u, v, "meet")
    return _subspace_where(u, _residual(u, v), cfg.rank_tol)


def _subspace_where(u: Subspace, constraint: np.ndarray,
                    rank_tol: float) -> Subspace:
    """{B c : constraint @ c = 0} for the basis B of u.

    B and the nullspace basis of the constraint are both orthonormal, so
    their product is an orthonormal basis as it stands: no second
    factorization.
    """
    basis = u.basis @ nullspace_columns(constraint, rank_tol)
    return Subspace(u.ambient_dim, basis)


def _residual(a: Subspace, b: Subspace) -> np.ndarray:
    """(I - P_b) applied to the basis of a; its singular values are sines."""
    return a.basis - b.basis @ (b.basis.conj().T @ a.basis)


def _angle(sine: float) -> float:
    """arcsin of a sine, capped at pi/2."""
    return float(np.arcsin(min(1.0, sine)))


def _sine_angle(mat: np.ndarray) -> float:
    """arcsin of the spectral norm of mat, capped at pi/2; 0 when mat is empty.

    The callers pass a matrix whose singular values are the sines of a set
    of principal angles, so this is the largest of those angles.
    """
    if mat.size == 0:
        return 0.0
    return _angle(float(np.linalg.svd(mat, compute_uv=False)[0]))


def _higham_gamma(terms: int) -> float:
    """Higham's gamma_k = k eps / (1 - k eps) for k = terms: the relative
    error bound of a computed sum of k terms, here taken at eps =
    np.finfo(float).eps, twice the unit round-off."""
    k_eps = terms * _EPS
    return k_eps / (1.0 - k_eps)


def _spans_everything(mat: np.ndarray, rank_tol: float) -> bool:
    """A certificate, by one Cholesky, that the rank rule gives an n x k
    mat (n <= k) rank n; False leaves the rank to the SVD.

    The rule counts the computed singular values above rank_tol *
    max(s_0, 1).  With f >= ||mat||_F (the computed norm widened by
    _higham_gamma(2 n k), as _sine_below widens it) and rho =
    _higham_gamma(2 n k) f, the room for the SVD's own error in each s_i,
    that threshold is at most rank_tol * max(f, 1) + rank_tol rho, and
    s_min >= sigma_min - rho.  So sigma_min > t = rank_tol * max(f, 1) +
    (1 + rank_tol) rho makes the rule's rank n.  The Cholesky of the
    computed mat mat^H - delta I with delta = t^2 + _higham_gamma(k + n +
    2) f^2 completes only if sigma_min^2 > t^2: the computed product is
    off by at most _higham_gamma(k) f^2 in norm, a Cholesky that completes
    is exact for a matrix off by at most _higham_gamma(n + 1) f^2 (Higham,
    ASNA, Thm 10.3), and _higham_gamma(k + n + 2) exceeds their sum by
    gamma_1 and the second-order terms, which cover the shift's rounding.
    A certified mat is therefore one the SVD rule calls full rank.  A mat
    of rank n whose sigma_min lies between the rule's threshold and about
    t (f can exceed s_0 by sqrt(n)) is not certified, and the SVD decides.
    """
    n, k = mat.shape
    slack = _higham_gamma(2 * mat.size)
    fro = float(np.linalg.norm(mat)) * (1.0 + slack)
    t = rank_tol * max(fro, 1.0) + (1.0 + rank_tol) * slack * fro
    gram = mat @ mat.conj().T
    gram.reshape(-1)[:: n + 1] -= t * t + _higham_gamma(k + n + 2) * fro * fro
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def _sine_below(mat: np.ndarray, angle_tol: float) -> bool:
    """The verdict _sine_angle(mat) < angle_tol, with an SVD only if needed.

    ||X||_F / sqrt(k) <= ||X||_2 <= ||X||_F for k = min(shape), so the
    Frobenius norm brackets the spectral norm.  Both edges are widened by
    _higham_gamma(2 m n), the bound for the 2 m n real squares that the
    computed norm sums, at eps: half of it covers the norm's round-off and
    the other half the SVD's own.  An upper edge whose angle is below
    angle_tol decides True, a lower edge whose angle is at or above it
    decides False, and only a spectral norm inside the bracket is
    factored, with _sine_angle's values-only SVD.  For verdicts whose
    angle is not reported; relate and every printed angle keep the SVD.
    """
    if mat.size == 0:
        return 0.0 < angle_tol
    fro = float(np.linalg.norm(mat))
    slack = _higham_gamma(2 * mat.size)
    if _angle(fro * (1.0 + slack)) < angle_tol:
        return True
    if _angle(fro / math.sqrt(min(mat.shape)) * (1.0 - slack)) >= angle_tol:
        return False
    return _sine_angle(mat) < angle_tol


def _containment_angle(a: Subspace, b: Subspace) -> float:
    """Largest principal angle of a against b; 0 iff a is inside b.

    Sine-based: the residual (I - P_b) a has singular values sin(theta),
    which resolves angles far below 1e-8 where cosines saturate.
    """
    if a.dim == 0:
        return 0.0
    if b.dim == 0:
        return float(np.pi / 2)
    return _sine_angle(_residual(a, b))


def relate(u: Subspace, v: Subspace,
           cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> RelateResult:
    """Classify the pair as equal / subset / superset / incomparable.

    One containment angle is factored at most.  A space of larger
    dimension never lies in a smaller one, so its angle is pi/2 by the
    count; for equal dimensions the two containment sines are equal
    (Stewart & Sun, ch. I.5), so the forward one serves both.
    """
    _same_ambient(u, v, "relate")
    if u.dim > v.dim:
        fwd, rev = math.pi / 2, _containment_angle(v, u)
    else:
        fwd = _containment_angle(u, v)
        rev = fwd if u.dim == v.dim else math.pi / 2
    if fwd < cfg.angle_tol and rev < cfg.angle_tol:
        return RelateResult(Verdict.EQUAL, max(fwd, rev), fwd, rev)
    if fwd < cfg.angle_tol:
        return RelateResult(Verdict.SUBSET, fwd, fwd, rev)
    if rev < cfg.angle_tol:
        return RelateResult(Verdict.SUPERSET, rev, fwd, rev)
    return RelateResult(Verdict.INCOMPARABLE, min(fwd, rev), fwd, rev)


def oplus(u: Subspace, v: Subspace) -> Subspace:
    """External direct sum: u + v inside C^(m+n), with exact zero blocks."""
    m, n = u.ambient_dim, v.ambient_dim
    return _stack(m + n, [(u, [(0, m)]), (v, [(m, m + n)])])


def _assembled(ambient_dim: int, basis: np.ndarray) -> Subspace:
    """A Subspace whose basis is orthonormal by construction: no Gram test.

    Only _signed_swap and _cayley build one, each from a basis that was
    checked; _stack and Subspace.full build their own subclasses.
    Every basis from a factorization, from user input or from a product
    of bases goes through Subspace.__post_init__.
    """
    out = object.__new__(Subspace)
    out.ambient_dim = ambient_dim
    out.basis = basis
    return out


class _Stacked(Subspace):
    """A _stack: its dim is known when it is built, its basis is not.

    The zero-padded basis is assembled on the first read of .basis, with
    the parts' bases as they are then, and the list of parts is dropped;
    until that read the stack holds its parts and no matrix of its own.
    """

    @property
    def dim(self) -> int:
        return self._dim

    @cached_property
    def basis(self) -> np.ndarray:
        basis = np.zeros((self.ambient_dim, self._dim), dtype=complex)
        col = 0
        for part, rows in self._blocks:
            cols = slice(col, col + part.dim)
            src = 0
            for start, stop in rows:
                basis[start:stop, cols] = part.basis[src : src + stop - start]
                src += stop - start
            col += part.dim
        del self._blocks
        return basis


class _Identity(Subspace):
    """C^n from Subspace.full: its dim is n, and its basis, the identity,
    is made on the first read of .basis, as a _Stacked basis is."""

    @property
    def dim(self) -> int:
        return self.ambient_dim

    @cached_property
    def basis(self) -> np.ndarray:
        return np.eye(self.ambient_dim, dtype=complex)


def _stack(ambient_dim: int, blocks) -> Subspace:
    """Column blocks of existing Subspaces placed on pairwise disjoint rows.

    Each block is (part, rows): rows is a list of half-open target row
    ranges (start, stop) whose lengths add up to part.ambient_dim, and the
    rows of part's basis fill them in order, in part's columns; every other
    entry is an exact zero.  The Gram matrix of the stack is then block
    diagonal with the parts' Gram matrices as its blocks, because each
    cross block sums products with exact zeros.  So the stack is
    orthonormal exactly when its parts are, which their own checks decided,
    and no Gram product is formed.  Raises ValueError when two ranges
    overlap or one leaves C^ambient_dim.

    The rows are checked here; the basis is assembled on its first read
    (_Stacked), so a stack that is never read costs its object only.  No
    part's basis may change in place while the stack is unread.
    """
    ranges = []
    for part, rows in blocks:
        if sum(stop - start for start, stop in rows) != part.ambient_dim:
            raise DimensionMismatch(
                f"rows {rows} do not hold a C^{part.ambient_dim} part"
            )
        ranges += [r for r in rows if r[0] != r[1]]
    end = 0
    for start, stop in sorted(ranges):
        if start < end or stop < start:
            raise ValueError(
                f"row range ({start}, {stop}) is reversed or overlaps another"
            )
        end = stop
    if end > ambient_dim:
        raise ValueError(f"row {end - 1} lies outside C^{ambient_dim}")

    out = object.__new__(_Stacked)
    out.ambient_dim = ambient_dim
    out._blocks = blocks
    out._dim = sum(part.dim for part, _ in blocks)
    return out


def _signed_swap(space: Subspace, split: int,
                 negate: str | None) -> Subspace:
    """[B[split:]; B[:split]] for the basis B of space, one block negated.

    negate names the block that changes sign, "head" (B[:split]) or
    "tail" (B[split:]), or is None.  On a graph, J(h, k) = (k, -h) is the
    swap with "head" negated, -J the one with "tail" and the inverse
    relation the one with None.  Rows only move and change sign, so the
    Gram matrix is B's and space's own check decides.  np.vstack keeps
    the slices' memory order and unary minus keeps signed zeros; later
    factorizations and printed bases depend on both.
    """
    head, tail = space.basis[:split], space.basis[split:]
    if negate == "head":
        head = -head
    elif negate == "tail":
        tail = -tail
    return _assembled(space.ambient_dim, np.vstack([tail, head]))


def _cayley(basis: np.ndarray) -> Subspace:
    """The span of the Cayley basis [R; I + iR] of an n x n R, given as
    the 2n x n basis whose first n rows hold R; its last n rows are
    written here, so R is never copied.

    Its Gram matrix is I + 2 R^H R + i (R - R^H), so the deviation from I
    costs one n x n x n product, and the entry bound of _is_orthonormal
    on the assembled basis and the rule of _gram_deviation_within on that
    deviation decide it.  A basis that fails raises Subspace's
    ValueError; a NaN or huge entry fails before the product.
    """
    n = basis.shape[1]
    res, lower = basis[:n], basis[n:]
    np.multiply(res, 1j, out=lower)
    lower += np.eye(n)
    if not np.abs(basis).max(initial=0.0) <= _ENTRY_BOUND:
        raise ValueError("basis columns are not orthonormal")
    res_h = res.conj().T
    dev = res_h @ res
    dev *= 2.0
    res_h -= res
    res_h *= 1j
    dev -= res_h
    if not _gram_deviation_within(dev):
        raise ValueError("basis columns are not orthonormal")
    return _assembled(2 * n, basis)
