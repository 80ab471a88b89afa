"""Brute-force verifiers and seeded input generators for the test suite.

The verifiers here deliberately avoid the main modules' algorithms:
adjoint_definitional solves the defining pairing equations as one dense
nullspace problem with its own SVD helper, weyl_definitional builds
the Weyl function straight from its definition, one defect-space
nullspace per lambda, and extension_definitional builds A_theta by
membership instead of by Krein's resolvent formula.  They are allowed
to be slower; they exist to disagree loudly when the fast paths are
wrong.

The random_* generators are input factories for property tests, not
verifiers, so they may lean on plain QR factorizations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .boundary import (
    BoundaryTriplet,
    extension_from_boundary,
    triplet_main,
)
from .config import DEFAULT_TOLERANCES, ToleranceConfig
from .errors import DimensionMismatch, SpectrumError
from .extension import LiftBundle
from .relation import LinearRelation, _sub_relation, classify, relation_equal
from .subspace import Subspace, Verdict, complement, relate

__all__ = [
    "adjoint_definitional",
    "defect_coefficients",
    "weyl_definitional",
    "extension_definitional",
    "SweepRecord",
    "SweepReport",
    "extension_sweep",
    "random_relation",
    "random_selfadjoint_relation",
    "random_hermitian",
]


def _svd_nullspace(mat: np.ndarray, rank_tol: float) -> np.ndarray:
    """Orthonormal nullspace basis; local copy to keep the oracle separate.

    Rank thresholding is relative to max(s[0], 1): inputs are assembled
    from unit-norm graph columns, so anything far below unit scale is
    noise, not rank.
    """
    rows, cols = mat.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=complex)
    if rows == 0:
        return np.eye(cols, dtype=complex)
    _, s, vh = np.linalg.svd(mat, full_matrices=True)
    return vh[_rank(s, rank_tol):].conj().T


def _rank(s: np.ndarray, rank_tol: float) -> int:
    """Singular values s (descending) above rank_tol * max(s[0], 1)."""
    if s.size == 0:
        return 0
    return int(np.count_nonzero(s > rank_tol * max(float(s[0]), 1.0)))


def _kernel_pencil_values(trip: BoundaryTriplet, lam: complex) -> np.ndarray:
    """Singular values of G0 - lambda F0, [F0; G0] a graph basis of ker Gamma0.

    The basis is W times the nullspace of all of Gamma0.  When ker Gamma0
    is extremal (|F0^H G0| <= rank_tol entrywise, classify's dom-perp-ran
    rule), F0^H G0 = 0 and F0^H F0 + G0^H G0 = I, so the values are
    exactly 1 and |lambda|, the latter dim dom ker Gamma0 times; they are
    taken in that form, because a computed value next to rank_tol = 1e-10
    is off by about eps, 2e-6 of it.  Any other kernel's are computed.
    """
    rank_tol = trip.cfg.rank_tol
    n = trip.star.n1
    kernel = trip.star.graph.basis @ _svd_nullspace(trip.gamma0, rank_tol)
    f0, g0 = kernel[:n], kernel[n:]
    if np.abs(f0.conj().T @ g0).max(initial=0.0) > rank_tol:
        return np.linalg.svd(g0 - lam * f0, compute_uv=False)
    s = np.ones(n)
    n_dom = _rank(np.linalg.svd(f0, compute_uv=False), rank_tol)
    s[:n_dom] = abs(lam)
    return np.sort(s)[::-1]


def adjoint_definitional(rel: LinearRelation,
                         cfg: ToleranceConfig = DEFAULT_TOLERANCES,
                         ) -> LinearRelation:
    """Adjoint straight from the pairing equations.

    (h, k) belongs to R* exactly when <g, h> = <f, k> for every (f, g)
    in R; testing against each graph basis column gives the linear system
    [G^H, -F^H] (h; k) = 0, one row per column of the graph basis.
    """
    f_blk, g_blk = rel.domain_block, rel.range_block
    system = np.hstack([g_blk.conj().T, -f_blk.conj().T])
    basis = _svd_nullspace(system, cfg.rank_tol)
    return LinearRelation(rel.n2, rel.n1, Subspace(rel.n1 + rel.n2, basis))


def defect_coefficients(trip: BoundaryTriplet, lam: complex) -> np.ndarray:
    """Graph coefficients spanning N_lambda(star) = {fhat : f' = lambda f}."""
    w = trip.star.graph.basis
    n = trip.star.n1
    pencil = w[n:] - lam * w[:n]
    return _svd_nullspace(pencil, trip.cfg.rank_tol)


def weyl_definitional(trip: BoundaryTriplet, lam: complex) -> np.ndarray:
    """M(lambda) = Gamma1 (Gamma0 | N_lambda)^{-1}, one nullspace per lambda.

    lambda is a spectral point (SpectrumError) when it is an eigenvalue of
    ker Gamma0 by boundary.weyl's rule, here on _kernel_pencil_values:
    the n x n pencil has numerical rank below n.  So is it when the
    defect space does not have dimension g or Gamma0 has a kernel on it.
    """
    s = _kernel_pencil_values(trip, lam)
    if _rank(s, trip.cfg.rank_tol) < s.size:
        raise SpectrumError(f"lambda = {lam} is an eigenvalue of ker Gamma0")
    ns = defect_coefficients(trip, lam)
    if ns.shape[1] != trip.g:
        raise SpectrumError(
            f"defect space at lambda = {lam} has dimension {ns.shape[1]}, "
            f"expected {trip.g}"
        )
    a0 = trip.gamma0 @ ns
    if _svd_nullspace(a0, trip.cfg.rank_tol).shape[1]:
        raise SpectrumError(
            f"Gamma0 is not invertible on the defect space at lambda = {lam}"
        )
    return (trip.gamma1 @ ns) @ np.linalg.inv(a0)


def extension_definitional(trip: BoundaryTriplet,
                           theta: LinearRelation) -> LinearRelation:
    """A_theta = {fhat in star : (Gamma0 fhat, Gamma1 fhat) in theta}.

    The membership constraint is expressed against a basis of the
    orthogonal complement of theta's graph, so theta may be any relation
    in the parameter space, selfadjoint or not.
    """
    cfg = trip.cfg
    if theta.n1 != trip.g or theta.n2 != trip.g:
        raise DimensionMismatch(
            f"theta acts on C^{theta.n1} x C^{theta.n2}, parameter space "
            f"has dimension {trip.g}"
        )
    constraint = complement(theta.graph, cfg).basis.conj().T @ np.vstack(
        [trip.gamma0, trip.gamma1]
    )
    return _sub_relation(trip.star, constraint, cfg)


@dataclass(frozen=True)
class SweepRecord:
    """Verdicts for one boundary parameter in an extension sweep.

    matches_definitional: the Krein-formula A_theta of a selfadjoint theta
    equals extension_definitional's (True for the others, which are built
    by that route alone).
    """

    theta_selfadjoint: bool
    extension: LinearRelation
    extension_selfadjoint: bool
    extends_s: bool
    inside_s_star: bool
    matches_definitional: bool

    @property
    def consistent(self) -> bool:
        """Selfadjoint parameters must give selfadjoint extensions of S,
        the same by both routes."""
        if not self.theta_selfadjoint:
            return True
        return (self.extension_selfadjoint and self.extends_s
                and self.inside_s_star and self.matches_definitional)


@dataclass(frozen=True)
class SweepReport:
    records: tuple[SweepRecord, ...]
    injective: bool

    @property
    def all_consistent(self) -> bool:
        return all(r.consistent for r in self.records)


def extension_sweep(bundle: LiftBundle,
                    thetas: Sequence[LinearRelation]) -> SweepReport:
    """Drive theta -> A_theta over a grid and check the claimed properties.

    Every selfadjoint theta must produce a selfadjoint relation between
    S and S*, and distinct parameters must produce distinct extensions
    (the parametrization is a bijection).  Selfadjoint parameters go
    through extension_from_boundary, checked against the membership route
    of extension_definitional; non-selfadjoint parameters take the
    membership route only, are expected to fail selfadjointness, and are
    only recorded.
    """
    cfg = bundle.cfg
    trip = triplet_main(bundle)
    records = []
    for theta in thetas:
        theta_selfadjoint = classify(theta, cfg).is_selfadjoint
        definitional = extension_definitional(trip, theta)
        a_theta, matches = definitional, True
        if theta_selfadjoint:
            a_theta = extension_from_boundary(trip, theta)
            matches = (relation_equal(a_theta, definitional, cfg).verdict
                       is Verdict.EQUAL)
        fwd = relate(bundle.S.graph, a_theta.graph, cfg).verdict
        bwd = relate(a_theta.graph, bundle.S_star.graph, cfg).verdict
        records.append(
            SweepRecord(
                theta_selfadjoint=theta_selfadjoint,
                extension=a_theta,
                extension_selfadjoint=classify(a_theta, cfg).is_selfadjoint,
                extends_s=fwd in (Verdict.EQUAL, Verdict.SUBSET),
                inside_s_star=bwd in (Verdict.EQUAL, Verdict.SUBSET),
                matches_definitional=matches,
            )
        )

    injective = True
    for i in range(len(thetas)):
        for j in range(i + 1, len(thetas)):
            same_theta = (
                relation_equal(thetas[i], thetas[j], cfg).verdict
                is Verdict.EQUAL
            )
            same_ext = (
                relation_equal(
                    records[i].extension, records[j].extension, cfg
                ).verdict
                is Verdict.EQUAL
            )
            if same_ext and not same_theta:
                injective = False
    return SweepReport(records=tuple(records), injective=injective)


def _crandn(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal(
        (rows, cols)
    )


def random_relation(n1: int, n2: int, rank: int | None = None,
                    rng: np.random.Generator | int | None = None,
                    ) -> LinearRelation:
    """Haar-ish random relation: a random graph subspace of given rank."""
    rng = np.random.default_rng(rng)
    total = n1 + n2
    if rank is None:
        rank = int(rng.integers(0, total + 1))
    if not 0 <= rank <= total:
        raise ValueError(f"rank {rank} out of range for ambient C^{total}")
    if rank == 0:
        basis = np.zeros((total, 0), dtype=complex)
    else:
        basis = np.linalg.qr(_crandn(rng, total, rank))[0]
    return LinearRelation(n1, n2, Subspace(total, basis))


def random_hermitian(n: int, rng: np.random.Generator | int | None = None,
                     nonneg: bool = False) -> np.ndarray:
    rng = np.random.default_rng(rng)
    raw = _crandn(rng, n, n)
    if nonneg:
        return raw @ raw.conj().T
    return (raw + raw.conj().T) / 2.0


def random_selfadjoint_relation(n: int,
                                rng: np.random.Generator | int | None = None,
                                dom_dim: int | None = None,
                                nonneg: bool = False) -> LinearRelation:
    """Random selfadjoint relation in C^n, optionally nonnegative.

    Built as a Hermitian operator on a random subspace L plus the
    multivalued part {0} x L^perp; that decomposition is exactly the
    structure of a selfadjoint relation, so selfadjointness holds by
    construction instead of by rejection sampling.
    """
    rng = np.random.default_rng(rng)
    if dom_dim is None:
        dom_dim = int(rng.integers(0, n + 1))
    if not 0 <= dom_dim <= n:
        raise ValueError(f"dom_dim {dom_dim} out of range for C^{n}")
    full = np.linalg.qr(_crandn(rng, n, n), mode="complete")[0]
    l_basis, perp_basis = full[:, :dom_dim], full[:, dom_dim:]
    t_mat = random_hermitian(dom_dim, rng, nonneg=nonneg)

    op_cols = np.vstack([l_basis, l_basis @ t_mat])
    if dom_dim:
        op_cols = np.linalg.qr(op_cols)[0]
    mul_cols = np.vstack(
        [np.zeros((n, n - dom_dim), dtype=complex), perp_basis]
    )
    basis = np.hstack([op_cols, mul_cols])
    return LinearRelation(n, n, Subspace(2 * n, basis))
