"""In-process workloads: lift_chain and calculus_small.

Both are closed loops with one client: the next operation starts when the
previous one has returned.  A round is a fixed composition of sizes and
ranks; the seed chooses the matrices and the order inside the round, so
every round does the same kind of work and counts per operation repeat
exactly for a given seed.  Inputs are built with numpy from the seed and
wrapped in the package's public constructors; generation is never timed.

Program functions are looked up on the ``linrel`` package at call time,
so the tracer's rebinding reaches the calls made here.
"""

from __future__ import annotations

import resource

import numpy as np

import linrel as L
from common import crandn, orthonormal, require, seeded_rng

# lift_chain: sizes n1 = n2 = n, each with rank n/2 (G0 != {0}), n and
# 3n/2 (dense domain and range, G0 = {0}).
LIFT_SIZES = (16, 32, 48, 64, 96)
WEYL_GRID = (-2.0, -0.5, 1j, 1.5 - 0.5j)
WEYL_TOL = 1e-8

# calculus_small: n = 2..12, two relations per operation with ranks drawn
# from the classes n/2, n, 3n/2 in the pairings below.
CALC_SIZES = tuple(range(2, 13))
CALC_RANK_PAIRS = ((0.5, 1.0), (1.0, 1.5), (1.5, 0.5))

_WARMUP_STREAM = 2**32 - 1


def _relation(rng, n1: int, n2: int, rank: int) -> L.LinearRelation:
    basis = orthonormal(rng, n1 + n2, rank)
    return L.LinearRelation(n1, n2, L.Subspace(n1 + n2, basis))


def _selfadjoint(rng, n: int, dom_dim: int, nonneg: bool = False) -> L.LinearRelation:
    """Hermitian operator on a random subspace plus {0} x its complement."""
    full = np.linalg.qr(crandn(rng, n, n))[0]
    dom, perp = full[:, :dom_dim], full[:, dom_dim:]
    raw = crandn(rng, dom_dim, dom_dim)
    herm = raw @ raw.conj().T if nonneg else (raw + raw.conj().T) / 2.0
    op_cols = np.vstack([dom, dom @ herm])
    if dom_dim:
        op_cols = np.linalg.qr(op_cols)[0]
    mul_cols = np.vstack([np.zeros((n, n - dom_dim), dtype=complex), perp])
    return L.LinearRelation(n, n, L.Subspace(2 * n, np.hstack([op_cols, mul_cols])))


def _shuffled(rng, ops: list) -> list:
    return [ops[i] for i in rng.permutation(len(ops))]


class _InProcess:
    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        """Generate the first round and run one untimed warm-up operation."""
        self.round(0)
        self.run(self._warmup_input())

    def install_tracer(self, tracer, spans_path) -> None:
        """Wrap the program in this process; spans are written at the end."""
        tracer.install()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


class LiftChain(_InProcess):
    """lift -> three triplets -> Weyl grid -> extension -> classify."""

    def _op_input(self, rng, n: int, rank: int):
        rel = _relation(rng, n, n, rank)
        g = 2 * n - rank  # dim (graph R)^perp, the main triplet's parameter space
        return rel, _selfadjoint(rng, g, g // 2)

    def _warmup_input(self):
        return self._op_input(seeded_rng(self.seed, _WARMUP_STREAM), 8, 4)

    def round(self, k: int) -> list:
        rng = seeded_rng(self.seed, k)
        ops = [
            self._op_input(rng, n, rank)
            for n in LIFT_SIZES
            for rank in (n // 2, n, 3 * n // 2)
        ]
        return _shuffled(rng, ops)

    def run(self, op) -> None:
        rel, theta = op
        bundle = L.lift(rel)
        trips = (L.triplet_main(bundle), L.triplet_basic(bundle), L.triplet_tilde(bundle))
        for trip in trips:
            if trip.is_degenerate:
                continue
            for lam in WEYL_GRID:
                diff = L.weyl(trip, lam) - L.closed_form_weyl(bundle, trip.kind, lam)
                err = float(np.max(np.abs(diff)))
                require(err < WEYL_TOL,
                        f"weyl {trip.kind} at {lam}: |M - closed form| = {err:.3e}")
        ext = L.extension_from_boundary(trips[0], theta)
        require(L.classify(ext).is_selfadjoint, "A_theta is not selfadjoint")


class CalculusSmall(_InProcess):
    """parts, adjoint vs oracle, classify, meet/join, 2x2 block checks."""

    def _op_input(self, rng, n: int, f1: float, f2: float):
        r1 = _relation(rng, n, n, max(1, int(f1 * n)))
        r2 = _relation(rng, n, n, max(1, int(f2 * n)))
        sa = _selfadjoint(rng, n, (n + 1) // 2, nonneg=True)
        h1, h2 = (n + 1) // 2, max(1, n // 2)

        def entry(n_from, n_to):
            return _relation(rng, n_from, n_to, (n_from + n_to) // 2)

        blk = L.Block2x2(e11=entry(h1, h1), e12=entry(h2, h1),
                         e21=entry(h1, h2), e22=entry(h2, h2))
        return r1, r2, sa, blk

    def _warmup_input(self):
        return self._op_input(seeded_rng(self.seed, _WARMUP_STREAM), 2, 0.5, 1.0)

    def round(self, k: int) -> list:
        rng = seeded_rng(self.seed, k)
        ops = [
            self._op_input(rng, n, f1, f2)
            for n in CALC_SIZES
            for f1, f2 in CALC_RANK_PAIRS
        ]
        return _shuffled(rng, ops)

    def run(self, op) -> None:
        r1, r2, sa, blk = op
        for rel in (r1, r2):
            p = L.parts(rel)
            require(p.dom.dim + p.mul.dim == rel.dim and p.ran.dim + p.ker.dim == rel.dim,
                    f"parts dimensions do not add up to dim R = {rel.dim}")
        adj = L.adjoint(r1)
        res = L.relation_equal(adj, L.adjoint_definitional(r1))
        require(res.verdict is L.Verdict.EQUAL,
                f"adjoint differs from the definitional adjoint: {res.verdict}")
        res = L.relation_equal(L.adjoint(adj), r1)
        require(res.verdict is L.Verdict.EQUAL, f"adjoint is not an involution: {res.verdict}")
        # a random graph is never Lagrangian; the seeded sa is by construction
        require(not L.classify(r1).is_selfadjoint, "random relation classified selfadjoint")
        rep = L.classify(sa)
        require(rep.is_selfadjoint and rep.is_nonnegative,
                "nonnegative selfadjoint relation misclassified")
        low, high = L.meet(r1.graph, r2.graph), L.join(r1.graph, r2.graph)
        require(low.dim + high.dim == r1.dim + r2.dim
                and high.dim == min(r1.graph.ambient_dim, r1.dim + r2.dim),
                f"meet/join dimensions {low.dim}/{high.dim} for graphs {r1.dim}/{r2.dim}")
        inside = (L.Verdict.EQUAL, L.Verdict.SUBSET)
        require(L.relate(r1.graph, high).verdict in inside
                and L.relate(low, r2.graph).verdict in inside,
                "meet/join not ordered against the graphs")
        require(L.check_adjoint_inclusion(blk).inclusion_holds, "block adjoint inclusion fails")
        require(L.check_row_col_duality(blk), "row-of-columns differs from column-of-rows")
