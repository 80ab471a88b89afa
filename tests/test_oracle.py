"""The oracles and generators themselves: independent verifiers must be
trustworthy before anything else leans on them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linrel.oracle import (
    adjoint_definitional,
    extension_sweep,
    random_hermitian,
    random_relation,
    random_selfadjoint_relation,
)
from linrel.relation import (
    adjoint,
    classify,
    from_operator,
    identity_relation,
    parts,
)

from conftest import assert_relation_equal


class TestGenerators:
    def test_random_relation_honors_rank(self, rng):
        for rank in range(6):
            rel = random_relation(2, 3, rank=rank, rng=rng)
            assert rel.dim == rank
            assert rel.graph.ambient_dim == 5

    def test_random_relation_draws_all_ranks(self):
        rng = np.random.default_rng(0)
        seen = {random_relation(2, 2, rng=rng).dim for _ in range(200)}
        assert seen == {0, 1, 2, 3, 4}

    def test_random_hermitian(self, rng):
        a = random_hermitian(4, rng=rng)
        np.testing.assert_allclose(a, a.conj().T, atol=1e-12)
        b = random_hermitian(4, rng=rng, nonneg=True)
        assert np.linalg.eigvalsh(b)[0] >= -1e-12

    def test_random_selfadjoint_relation(self, rng):
        for _ in range(10):
            rel = random_selfadjoint_relation(3, rng=rng)
            rep = classify(rel)
            assert rep.is_selfadjoint

    def test_random_selfadjoint_relation_nonneg(self, rng):
        for _ in range(10):
            rel = random_selfadjoint_relation(3, rng=rng, nonneg=True)
            rep = classify(rel)
            assert rep.is_selfadjoint and rep.is_nonnegative

    def test_random_selfadjoint_relation_dom_dim(self, rng):
        for dom_dim in range(4):
            rel = random_selfadjoint_relation(3, rng=rng, dom_dim=dom_dim)
            assert parts(rel).dom.dim == dom_dim
            assert classify(rel).is_selfadjoint


class TestAdjointOracle:
    def test_identity(self):
        assert_relation_equal(
            adjoint_definitional(identity_relation(3)), identity_relation(3)
        )

    def test_matrix_case(self, rng):
        a = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        assert_relation_equal(
            adjoint_definitional(from_operator(a)),
            from_operator(a.conj().T),
        )

    def test_agrees_with_complement_route(self, rng):
        for _ in range(20):
            rel = random_relation(3, 2, rng=rng)
            assert_relation_equal(adjoint(rel), adjoint_definitional(rel))


class TestExtensionSweep:
    def test_selfadjoint_parameters_are_consistent(self, rng):
        rel = random_relation(2, 2, rank=2, rng=rng)
        from linrel.extension import lift

        bundle = lift(rel)
        g = bundle.G.dim
        thetas = [random_selfadjoint_relation(g, rng=rng) for _ in range(4)]
        report = extension_sweep(bundle, thetas)
        assert report.all_consistent
        assert report.injective
        assert all(r.theta_selfadjoint for r in report.records)
        assert all(r.matches_definitional for r in report.records)

    def test_krein_route_is_checked_against_membership(self, rng,
                                                       monkeypatch):
        # a Krein route that returned another selfadjoint extension of S
        # would pass every other check of the record
        from linrel import oracle
        from linrel.extension import lift

        bundle = lift(random_relation(2, 2, rank=2, rng=rng))
        thetas = [random_selfadjoint_relation(bundle.G.dim, rng=rng)]
        monkeypatch.setattr(oracle, "extension_from_boundary",
                            lambda trip, theta: bundle.K)
        rec = extension_sweep(bundle, thetas).records[0]
        assert rec.extension_selfadjoint and rec.extends_s
        assert not rec.matches_definitional
        assert not rec.consistent

    def test_non_selfadjoint_parameter_is_flagged_not_failed(self, rng):
        rel = random_relation(2, 2, rank=2, rng=rng)
        from linrel.extension import lift

        bundle = lift(rel)
        g = bundle.G.dim
        skew = from_operator(1j * np.eye(g))
        report = extension_sweep(bundle, [skew])
        rec = report.records[0]
        assert not rec.theta_selfadjoint
        assert rec.consistent  # vacuously: nothing is claimed for it
        assert not rec.extension_selfadjoint

    def test_accepts_bare_relation_source(self, rng):
        from linrel.extension import lift

        rel = random_relation(2, 2, rank=1, rng=rng)
        g = 4 - 1
        thetas = [random_selfadjoint_relation(g, rng=rng) for _ in range(2)]
        report = extension_sweep(lift(rel), thetas)
        assert report.all_consistent


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 4),
    nonneg=st.booleans(),
)
def test_selfadjoint_generator_property(seed, n, nonneg):
    rng = np.random.default_rng(seed)
    rel = random_selfadjoint_relation(n, rng=rng, nonneg=nonneg)
    rep = classify(rel)
    assert rep.is_selfadjoint
    if nonneg:
        assert rep.is_nonnegative
    assert_relation_equal(adjoint(rel), rel)
