"""Linear relations: constructors, parts, adjoints, classification,
spectral helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linrel.config import ToleranceConfig
from linrel.errors import DimensionMismatch, SpectrumError
from linrel.oracle import (
    adjoint_definitional,
    random_relation,
    random_selfadjoint_relation,
)
from linrel.relation import (
    LinearRelation,
    adjoint,
    classify,
    componentwise_sum,
    defect_relation,
    eigenspace,
    from_kernel_pair,
    from_operator,
    from_product,
    identity_relation,
    inverse,
    lower_bound,
    numerical_range_hull,
    operator_norm,
    operator_part,
    orthogonal_componentwise_sum,
    parts,
    relation_equal,
    resolvent,
    zero_operator,
)
from linrel.subspace import Subspace, Verdict, complement, relate, span

from conftest import CFG, assert_relation_equal, assert_subspace_equal, tilted


def graph_of_scalar(c):
    return from_operator(np.array([[c]], dtype=complex))


def pure_multivalued(n1, n2):
    return from_product(Subspace.zero(n1), Subspace.full(n2))


class TestConstructors:
    def test_from_operator_membership(self, rng):
        a = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        rel = from_operator(a)
        assert (rel.n1, rel.n2, rel.dim) == (2, 3, 2)
        x = rng.normal(size=(2, 1))
        pair = np.vstack([x, a @ x])
        # (x, Ax) lies in the graph
        proj = rel.graph.projector()
        np.testing.assert_allclose(proj @ pair, pair, atol=1e-12)

    def test_from_kernel_pair_matches_operator(self, rng):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert_relation_equal(
            from_kernel_pair(np.eye(3), a), from_operator(a)
        )

    def test_from_product_parts(self):
        rel = pure_multivalued(2, 3)
        p = parts(rel)
        assert p.dom.dim == 0 and p.mul.dim == 3
        assert p.ran.dim == 3 and p.ker.dim == 0

    def test_dimension_checks(self):
        with pytest.raises(DimensionMismatch):
            from_kernel_pair(np.eye(2), np.ones((2, 3)))
        with pytest.raises(DimensionMismatch):
            relation_equal(identity_relation(2), identity_relation(3))


class TestParts:
    def test_operator_parts(self, rng):
        a = rng.normal(size=(4, 4))
        a[3] = a[2]  # force a nontrivial kernel of the adjoint
        rel = from_operator(a)
        p = parts(rel)
        assert p.dom.dim == 4
        assert p.mul.dim == 0
        assert p.ran.dim == np.linalg.matrix_rank(a)

    def test_adjoint_parts_duality(self, rng):
        rel = random_relation(3, 4, rng=rng)
        p = parts(rel)
        q = parts(adjoint(rel))
        assert_subspace_equal(q.mul, complement(p.dom))
        assert_subspace_equal(q.ker, complement(p.ran))


class TestAdjoint:
    def test_matches_definitional_oracle(self, rng):
        for _ in range(10):
            rel = random_relation(3, 2, rng=rng)
            assert_relation_equal(adjoint(rel), adjoint_definitional(rel))

    def test_involution(self, rng):
        rel = random_relation(2, 3, rng=rng)
        assert_relation_equal(adjoint(adjoint(rel)), rel)

    def test_scalar_graph_conjugates(self):
        rel = graph_of_scalar(1 + 2j)
        assert_relation_equal(adjoint(rel), graph_of_scalar(1 - 2j))

    def test_adjoint_of_pure_multivalued(self):
        # ({0} x H2)* = {0} x H1: the constraint kills the first slot
        # and leaves the second free
        rel = pure_multivalued(2, 3)
        adj = adjoint(rel)
        p = parts(adj)
        assert p.dom.dim == 0 and p.ran.dim == 2
        assert p.ker.dim == 0 and p.mul.dim == 2

    def test_adjoint_swaps_spaces(self, rng):
        rel = random_relation(2, 5, rng=rng)
        adj = adjoint(rel)
        assert (adj.n1, adj.n2) == (5, 2)


class TestInverse:
    def test_parts_swap(self, rng):
        rel = random_relation(3, 3, rng=rng)
        p, q = parts(rel), parts(inverse(rel))
        assert_subspace_equal(q.dom, p.ran)
        assert_subspace_equal(q.ran, p.dom)
        assert_subspace_equal(q.ker, p.mul)
        assert_subspace_equal(q.mul, p.ker)

    def test_adjoint_commutes_with_inverse(self, rng):
        rel = random_relation(3, 2, rng=rng)
        assert_relation_equal(adjoint(inverse(rel)), inverse(adjoint(rel)))


class TestOperatorPart:
    def test_splits_off_multivalued_part(self, rng):
        rel = componentwise_sum(
            from_operator(rng.normal(size=(3, 3))),
            from_product(Subspace.zero(3), span(np.eye(3)[:, :1], 3)),
        )
        op = operator_part(rel)
        assert parts(op).mul.dim == 0
        assert_subspace_equal(parts(op).dom, parts(rel).dom)
        res = relation_equal(op, rel)
        assert res.verdict is Verdict.SUBSET

    def test_pure_multivalued_has_zero_operator_part(self):
        op = operator_part(pure_multivalued(2, 2))
        assert op.dim == 0


class TestClassify:
    def test_hermitian_matrix(self):
        h = np.array([[2.0, 1.0], [1.0, 3.0]])
        rel = from_operator(h)
        rep = classify(rel)
        assert rep.is_symmetric and rep.is_selfadjoint and rep.is_nonnegative
        assert abs(lower_bound(rel) - np.linalg.eigvalsh(h)[0]) < 1e-12

    def test_symmetric_not_selfadjoint(self, rng):
        # restrict a Hermitian matrix to a 1-dim domain
        h = np.diag([1.0, 2.0, 5.0])
        d = np.eye(3)[:, :1]
        rel = from_kernel_pair(d, h @ d)
        rep = classify(rel)
        assert rep.is_symmetric and not rep.is_selfadjoint

    def test_indefinite(self):
        rel = from_operator(np.diag([1.0, -1.0]))
        rep = classify(rel)
        assert rep.is_selfadjoint and not rep.is_nonnegative
        assert abs(lower_bound(rel) + 1.0) < 1e-12

    def test_nonsymmetric(self, rng):
        rel = from_operator(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert not classify(rel).is_symmetric and lower_bound(rel) is None

    def test_trivial_domain_bound_is_plus_infinity(self):
        rel = pure_multivalued(2, 2)
        rep = classify(rel)
        assert rep.is_symmetric and rep.is_nonnegative
        assert lower_bound(rel) == math.inf

    def test_numerical_range_radius_of_identity(self):
        radius = np.max(np.abs(numerical_range_hull(identity_relation(3), 2048)))
        assert abs(radius - 1.0) < 1e-8

    def test_rectangular_relation_has_no_pairing_fields(self, rng):
        # the component pairing needs n1 == n2; everything that depends
        # on it must come back None instead of crashing
        rel = random_relation(2, 1, rng=rng)
        rep = classify(rel)
        assert not (rep.is_symmetric or rep.is_selfadjoint or rep.is_nonnegative)
        assert rep.dom_perp_ran is None
        assert lower_bound(rel) is None
        with pytest.raises(DimensionMismatch):
            numerical_range_hull(rel)


def reference_symmetry(rel):
    """(is_symmetric, is_selfadjoint) by forming the adjoint and relating."""
    verdict = relate(rel.graph, adjoint(rel).graph).verdict
    return verdict in (Verdict.EQUAL, Verdict.SUBSET), verdict is Verdict.EQUAL


class TestClassifyGramRule:
    """classify's Gram-norm symmetry test against the adjoint route."""

    @pytest.mark.parametrize("rank", [0, 3, 6, 9])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_relations(self, rank, seed):
        rel = random_relation(6, 6, rank=rank, rng=seed)
        rep = classify(rel)
        assert (rep.is_symmetric, rep.is_selfadjoint) == reference_symmetry(rel)

    def test_constructed_symmetric_and_selfadjoint(self):
        sa = random_selfadjoint_relation(6, rng=3, dom_dim=4)
        sym = LinearRelation(6, 6, Subspace(12, sa.graph.basis[:, :4]))
        for rel, want in ((sym, (True, False)), (sa, (True, True))):
            rep = classify(rel)
            assert reference_symmetry(rel) == want
            assert (rep.is_symmetric, rep.is_selfadjoint) == want

    @pytest.mark.parametrize("factor", [0.1, 10.0])
    def test_tilt_around_angle_tol(self, factor):
        sa = random_selfadjoint_relation(6, rng=3, dom_dim=4)
        sym = LinearRelation(6, 6, Subspace(12, sa.graph.basis[:, :4]))
        for rel, selfadjoint in ((sym, False), (sa, True)):
            rel = tilted(rel, factor * CFG.angle_tol)
            want = (True, selfadjoint) if factor < 1 else (False, False)
            rep = classify(rel)
            assert reference_symmetry(rel) == want
            assert (rep.is_symmetric, rep.is_selfadjoint) == want


class TestOneRulePerVerdict:
    """Rank and angle verdicts that used to follow a second, local rule."""

    def test_tilted_nonnegative_relation_stays_nonnegative(self):
        # nonnegativity and the lower bound follow the symmetry (angle) rule;
        # a skew part far below angle_tol must not veto them
        sa = random_selfadjoint_relation(6, rng=0, dom_dim=4, nonneg=True)
        rel = tilted(sa, 0.1 * CFG.angle_tol)
        rep = classify(rel)
        assert rep.is_selfadjoint and rep.is_nonnegative
        bound = lower_bound(rel)
        assert bound is not None and math.isfinite(bound)
        assert abs(bound - lower_bound(sa)) < 1e-9

    def test_resolvent_follows_the_rank_rule(self):
        # 5e-11 sits below rank_tol * max(s_max, 1): parts and eigenspace
        # see a kernel, so 0 is a spectral point of the resolvent too
        rel = from_operator(np.diag([0.5, 5e-11]))
        assert parts(rel).ker.dim == 1
        assert eigenspace(rel, 0.0).dim == 1
        with pytest.raises(SpectrumError, match="spectral point"):
            resolvent(rel, 0.0)

    def test_orthogonal_sum_uses_angle_tol(self):
        # the graphs miss orthogonality by arcsin(1e-7)
        eps = 1e-7
        a = LinearRelation(2, 2, span([[1.0, 0.0, 0.0, 0.0]]))
        b = LinearRelation(
            2, 2, span([[eps, math.sqrt(1.0 - eps * eps), 0.0, 0.0]])
        )
        total = orthogonal_componentwise_sum(
            a, b, ToleranceConfig(angle_tol=1e-6)
        )
        assert total.dim == 2
        with pytest.raises(ValueError, match="not orthogonal"):
            orthogonal_componentwise_sum(a, b)


class TestSpectral:
    def test_eigenspace_of_diagonal(self):
        rel = from_operator(np.diag([1.0, 1.0, 4.0]))
        assert eigenspace(rel, 1.0).dim == 2
        assert eigenspace(rel, 4.0).dim == 1
        assert eigenspace(rel, 3.0).dim == 0

    def test_defect_relation_is_inside(self, rng):
        rel = from_operator(np.diag([1.0, 2.0]))
        d = defect_relation(rel, 2.0)
        assert d.dim == 1
        assert relation_equal(d, rel).verdict is Verdict.SUBSET

    def test_resolvent_of_matrix(self, rng):
        a = rng.normal(size=(3, 3))
        lam = 2.5j
        np.testing.assert_allclose(
            resolvent(from_operator(a), lam),
            np.linalg.inv(a - lam * np.eye(3)),
            atol=1e-10,
        )

    def test_resolvent_at_eigenvalue_raises(self):
        with pytest.raises(SpectrumError):
            resolvent(from_operator(np.diag([1.0, 2.0])), 2.0)

    def test_resolvent_vanishes_on_multivalued_part(self):
        # A = span{e1} x span{e1} + {0} x span{e2}: (A+1)^(-1) kills e2
        graph = np.zeros((4, 2), dtype=complex)
        graph[0, 0] = graph[2, 0] = 1 / np.sqrt(2)
        graph[3, 1] = 1.0
        rel = LinearRelation(2, 2, Subspace(4, graph))
        r = resolvent(rel, -1.0)
        np.testing.assert_allclose(r, np.diag([0.5, 0.0]), atol=1e-12)

    def test_resolvent_of_pure_multivalued_is_zero(self):
        # ({0} x C^2 - lambda)^(-1) = C^2 x {0}, the zero operator
        np.testing.assert_allclose(
            resolvent(pure_multivalued(2, 2), -1.0),
            np.zeros((2, 2)),
            atol=1e-14,
        )

    def test_resolvent_needs_graph_dimension_n(self):
        graph = np.zeros((4, 1), dtype=complex)
        graph[0, 0] = graph[2, 0] = 1 / np.sqrt(2)
        rel = LinearRelation(2, 2, Subspace(4, graph))
        with pytest.raises(SpectrumError, match="everywhere-defined"):
            resolvent(rel, -1.0)


class TestSums:
    def test_componentwise_sum_joins_graphs(self, rng):
        a = random_relation(2, 2, rank=1, rng=rng)
        b = random_relation(2, 2, rank=1, rng=rng)
        s = componentwise_sum(a, b)
        assert relation_equal(a, s).verdict in (Verdict.SUBSET, Verdict.EQUAL)
        assert relation_equal(b, s).verdict in (Verdict.SUBSET, Verdict.EQUAL)

    def test_orthogonal_sum_rejects_overlap(self, rng):
        a = from_operator(np.eye(2))
        with pytest.raises(ValueError, match="not orthogonal"):
            orthogonal_componentwise_sum(a, a)


class TestOperatorNorm:
    def test_matches_spectral_norm(self, rng):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert abs(
            operator_norm(from_operator(a)) - np.linalg.norm(a, 2)
        ) < 1e-10

    def test_zero_relation(self):
        assert operator_norm(zero_operator(2)) == pytest.approx(0.0)

    def test_rejects_multivalued(self):
        with pytest.raises(ValueError, match="single-valued"):
            operator_norm(pure_multivalued(2, 2))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n1=st.integers(1, 4),
    n2=st.integers(1, 4),
)
def test_adjoint_involution_property(seed, n1, n2):
    rng = np.random.default_rng(seed)
    rel = random_relation(n1, n2, rng=rng)
    assert_relation_equal(adjoint(adjoint(rel)), rel)
    assert_relation_equal(adjoint(rel), adjoint_definitional(rel))


def test_numerical_range_radius_ignores_the_basis():
    # the same relation under a second orthonormal basis W Q
    rng = np.random.default_rng(12)
    for dim in (2, 4, 6):
        rel = random_relation(4, 4, rank=dim, rng=rng)
        q = np.linalg.qr(rng.normal(size=(dim, dim))
                         + 1j * rng.normal(size=(dim, dim)))[0]
        turned = LinearRelation(4, 4, Subspace(8, rel.graph.basis @ q))
        for seed in (0, 7):
            r1 = np.max(np.abs(numerical_range_hull(rel, 2048, seed)))
            r2 = np.max(np.abs(numerical_range_hull(turned, 2048, seed)))
            assert abs(r1 - r2) < 1e-12
