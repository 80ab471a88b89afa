"""Linear relations: constructors, parts, adjoints, classification,
spectral helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linrel.boundary import (
    extension_from_boundary,
    triplet_basic,
    triplet_main,
    triplet_tilde,
)
from linrel.config import ToleranceConfig
from linrel.errors import DimensionMismatch, SpectrumError
from linrel.extension import is_singular_relation, lift
from linrel.oracle import (
    adjoint_definitional,
    random_hermitian,
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
    meet_relations,
    numerical_radius,
    operator_norm,
    operator_part,
    orthogonal_componentwise_sum,
    parts,
    relation_equal,
    resolvent,
    zero_operator,
)
from linrel.subspace import (
    Subspace,
    Verdict,
    _complement_columns,
    _numerical_rank,
    complement,
    nullspace_columns,
    relate,
    span,
)

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

    def test_constructor_dimension_checks(self):
        with pytest.raises(DimensionMismatch, match="dimension >= 1"):
            LinearRelation(0, 2, Subspace.zero(2))
        with pytest.raises(DimensionMismatch, match="graph lives in C\\^4"):
            LinearRelation(2, 3, Subspace.zero(4))

    # each binary operation names itself; (1, 3) and (2, 2) have graphs
    # in the same C^4, so only the pair of spaces tells them apart
    @pytest.mark.parametrize("op, words", [
        (componentwise_sum, "componentwise sum of"),
        (meet_relations, "intersecting"),
        (orthogonal_componentwise_sum, "componentwise sum of"),
        (relation_equal, "comparing"),
    ])
    def test_binary_operations_need_the_same_spaces(self, op, words):
        a, b = zero_operator(1, 3), zero_operator(2, 2)
        with pytest.raises(DimensionMismatch) as err:
            op(a, b)
        assert str(err.value) == f"{words} (1,3) and (2,2) relations"


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


def _composed_parts(rel):
    """dom, ran, ker and mul composed from factorizations of their own:
    span(F), span(G), span(F null(G)) and span(G null(F))."""
    f_blk, g_blk = rel.domain_block, rel.range_block
    tol = CFG.rank_tol
    return (span(f_blk, rel.n1, CFG), span(g_blk, rel.n2, CFG),
            span(f_blk @ nullspace_columns(g_blk, tol), rel.n1, CFG),
            span(g_blk @ nullspace_columns(f_blk, tol), rel.n2, CFG))


def _parts_cases():
    """Every rank class of small square, tall and wide relations, with
    the empty and the full graph, selfadjoint relations and the zero,
    identity and wide zero operators."""
    rng = np.random.default_rng(35)
    cases = []
    for n1, n2 in [(1, 1), (3, 3), (2, 9), (9, 2), (5, 7), (12, 12)]:
        total = n1 + n2
        for rank in sorted({0, 1, n1, n2, total // 2, total - 1, total}):
            cases.append(random_relation(n1, n2, rank=rank, rng=rng))
    for n in (4, 12):
        for dom_dim in (0, 2, n):
            cases.append(random_selfadjoint_relation(n, rng=rng,
                                                     dom_dim=dom_dim))
    cases += [zero_operator(5), identity_relation(5), zero_operator(3, 7),
              zero_operator(7, 3), pure_multivalued(2, 3),
              from_product(span(rng.normal(size=(6, 2)), 6),
                           span(rng.normal(size=(4, 3)), 4))]
    return cases


def _composed_operator_part(rel):
    """W V_r for the graph basis W and the first r right singular vectors
    V_r of an SVD of F of its own; W itself when F has no kernel."""
    f_blk = rel.domain_block
    n1, k = f_blk.shape
    _, s, vh = np.linalg.svd(f_blk, full_matrices=n1 < k)
    r = _numerical_rank(s, CFG.rank_tol)
    return rel.graph.basis if r == k else rel.graph.basis @ vh[:r].conj().T


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestPartsMatchTheirComposition:
    # parts, operator_part and is_singular_relation read one split of
    # each graph block; the spans and nullspaces factored one by one give
    # the same bits, and so the same verdicts
    @pytest.mark.parametrize("rel", _parts_cases(), ids=repr)
    def test_same_bits_and_verdicts(self, rel):
        dom, ran, ker, mul = _composed_parts(rel)
        p = parts(rel)
        for got, want in zip((p.dom, p.ran, p.ker, p.mul),
                             (dom, ran, ker, mul)):
            assert _same_bits(got.basis, want.basis)
        op = operator_part(rel)
        assert _same_bits(op.graph.basis, _composed_operator_part(rel))
        # the graph without {0} x mul R, as its coordinates' complement
        coords = rel.range_block.conj().T @ mul.basis
        off = rel.graph.basis @ _complement_columns(coords)
        assert relate(op.graph, Subspace(rel.n1 + rel.n2, off),
                      CFG).verdict is Verdict.EQUAL
        singular = relate(rel.graph, from_product(dom, mul).graph,
                          CFG).verdict is Verdict.EQUAL
        assert is_singular_relation(rel) is singular


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
        assert abs(numerical_radius(identity_relation(3)) - 1.0) < 1e-12

    def test_rectangular_relation_has_no_pairing_fields(self, rng):
        # the component pairing needs n1 == n2; everything that depends
        # on it must come back None instead of crashing
        rel = random_relation(2, 1, rng=rng)
        rep = classify(rel)
        assert not (rep.is_symmetric or rep.is_selfadjoint or rep.is_nonnegative)
        assert rep.dom_perp_ran is None
        assert lower_bound(rel) is None
        with pytest.raises(DimensionMismatch):
            numerical_radius(rel)


def crandn(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def unitary(rng, n):
    return np.linalg.qr(crandn(rng, n, n))[0]


def radius_of(mat):
    return numerical_radius(from_operator(np.asarray(mat, dtype=complex)))


class TestNumericalRadius:
    """Closed forms of w(A) = max |<A f, f>| over unit vectors f."""

    def test_jordan_block_gives_one_half(self):
        assert abs(radius_of([[0.0, 1.0], [0.0, 0.0]]) - 0.5) < 1e-12

    @pytest.mark.parametrize(
        "a, b", [(1.0, 1.0), (1 + 2j, 3 - 1j), (-0.5j, 4.0)]
    )
    def test_two_by_two_triangular_gives_disk_radius(self, a, b):
        # the field of values of [[a, b], [0, a]] is the disk about a of
        # radius |b| / 2
        want = abs(a) + abs(b) / 2
        assert abs(radius_of([[a, b], [0.0, a]]) - want) < 1e-12 * want

    @pytest.mark.parametrize("eigs", [
        [2.0, 3j, -1 + 1j, 0.5],
        # the largest |eig| peaks halfway between two of the 65 coarse
        # angles; a slightly smaller one peaks on a coarse angle and reads
        # higher there
        [(1 - 1e-5) * np.exp(-10j * np.pi / 65), np.exp(-40.5j * np.pi / 65)],
    ])
    def test_normal_matrix_gives_spectral_radius(self, rng, eigs):
        q = unitary(rng, len(eigs))
        mat = q @ np.diag(eigs) @ q.conj().T
        want = max(abs(np.asarray(eigs)))
        assert abs(radius_of(mat) - want) < 1e-12 * want

    def test_hermitian_matrix_gives_largest_absolute_eigenvalue(self, rng):
        for _ in range(5):
            mat = random_hermitian(5, rng=rng)
            want = np.max(np.abs(np.linalg.eigvalsh(mat)))
            assert abs(radius_of(mat) - want) < 1e-12 * want

    def test_purely_multivalued_relation_gives_zero(self):
        assert numerical_radius(pure_multivalued(2, 2)) == 0.0

    def test_multivalued_part_on_the_domain_gives_infinity(self):
        # R = {(a e1, b e1)}: <g, f> / ||f||^2 = b / a sweeps all of C
        basis = np.zeros((4, 2), dtype=complex)
        basis[0, 0] = basis[2, 1] = 1.0
        rel = LinearRelation(2, 2, Subspace(4, basis))
        assert numerical_radius(rel) == math.inf


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


def relation_with_mul(rng, n, dom_dim, mul_dim, tilt=0.0):
    """{(D y, T y + m) : y, m in M} in a random basis, D and M orthonormal.

    M is orthogonal to dom = span D except that its first vector is
    turned by the angle tilt toward D's first one.  With tilt = 0 the
    numerical range is the field of values of D^H T.
    """
    q = unitary(rng, n)
    dom, mul = q[:, :dom_dim], q[:, dom_dim : dom_dim + mul_dim].copy()
    if tilt and dom_dim and mul_dim:
        mul[:, 0] = math.cos(tilt) * mul[:, 0] + math.sin(tilt) * dom[:, 0]
    op = crandn(rng, n, dom_dim) * 10.0 ** rng.uniform(-1, 1)
    cols = np.block([
        [dom, np.zeros((n, mul_dim))],
        [op, mul],
    ])
    mixed = cols @ crandn(rng, dom_dim + mul_dim, dom_dim + mul_dim)
    return LinearRelation(n, n, Subspace(2 * n, np.linalg.qr(mixed)[0]))


def reference_radius(rel):
    """w from F^H F and F^H G alone: eigh whitening, then the largest
    eigenvalue of Re(e^{it} B) on a dense grid of the full circle, each
    local maximum polished by golden-section search."""
    f_blk, g_blk = rel.domain_block, rel.range_block
    mu, v = np.linalg.eigh(f_blk.conj().T @ f_blk)
    live = mu > 1e-8
    whitener = v[:, live] / np.sqrt(mu[live])
    cross = f_blk.conj().T @ g_blk
    if np.linalg.norm(whitener.conj().T @ cross @ v[:, ~live]) > 1e-6:
        return math.inf
    b = whitener.conj().T @ cross @ whitener
    if not b.size:
        return 0.0

    def support(t):
        turned = np.exp(1j * np.atleast_1d(t))[:, None, None] * b
        herm = (turned + turned.conj().swapaxes(1, 2)) / 2.0
        return np.linalg.eigvalsh(herm)[:, -1]

    grid = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
    vals = support(grid)
    h = grid[1]
    best = vals.max()
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    peaks = (vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1))
    for t in grid[peaks]:
        lo, hi = t - h, t + h
        for _ in range(60):
            left, right = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
            if support(left)[0] > support(right)[0]:
                hi = right
            else:
                lo = left
        best = max(best, support((lo + hi) / 2)[0])
    return float(best)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 6),
    data=st.data(),
)
def test_numerical_radius_matches_reference_property(seed, n, data):
    rng = np.random.default_rng(seed)
    dom_dim = data.draw(st.integers(0, n))
    mul_dim = data.draw(st.integers(0, n - dom_dim))
    tilt = data.draw(st.sampled_from([0.0, 0.1, 1.0]))
    rel = relation_with_mul(rng, n, dom_dim, mul_dim, tilt)
    want = reference_radius(rel)
    got = numerical_radius(rel)
    if math.isinf(want) or want == 0.0:
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-9)


def test_numerical_range_radius_ignores_the_basis():
    # the same relation under a second graph basis W Q, and the relation
    # {(U f, U g)} in unitarily changed coordinates U + U
    rng = np.random.default_rng(12)
    for dom_dim, mul_dim in ((2, 0), (4, 0), (3, 1), (2, 2), (0, 2)):
        rel = relation_with_mul(rng, 4, dom_dim, mul_dim)
        basis, dim = rel.graph.basis, rel.dim
        turned = LinearRelation(4, 4, Subspace(8, basis @ unitary(rng, dim)))
        u = unitary(rng, 4)
        moved = LinearRelation(4, 4, Subspace(8, np.vstack(
            [u @ rel.domain_block, u @ rel.range_block]
        )))
        want = numerical_radius(rel)
        for other in (turned, moved):
            assert abs(numerical_radius(other) - want) < 1e-12 * max(want, 1.0)


def negated(rel):
    """-R = {(f, -g)}: the same basis with its range block negated."""
    basis = np.vstack([rel.domain_block, -rel.range_block])
    return LinearRelation(rel.n1, rel.n2, Subspace(rel.n1 + rel.n2, basis))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 7),
    data=st.data(),
)
def test_radius_is_never_below_the_lower_bound_property(seed, n, data):
    # lower_bound is the least eigenvalue of Re B, and numerical_radius
    # reads ||Re B||_2 at its grid angle t = 0 from the same B: no slack
    # (the shipped-spec case is in test_cli's TestShippedSpecs)
    rng = np.random.default_rng(seed)
    dom_dim = data.draw(st.integers(1, n), label="dom_dim")
    nonneg = data.draw(st.booleans(), label="nonneg")
    sa = random_selfadjoint_relation(n, rng=rng, dom_dim=dom_dim,
                                     nonneg=nonneg)
    rels = [sa, negated(sa)]
    n1 = data.draw(st.integers(1, 4), label="n1")
    n2 = data.draw(st.integers(1, 4), label="n2")
    rank = data.draw(st.integers(0, n1 + n2), label="rank")
    bundle = lift(random_relation(n1, n2, rank=rank, rng=rng))
    for build in (triplet_main, triplet_basic, triplet_tilde):
        trip = build(bundle)
        if not trip.is_degenerate:
            theta = random_selfadjoint_relation(
                trip.g, rng=rng,
                dom_dim=data.draw(st.integers(0, trip.g), label="theta_dom"))
            rels.append(extension_from_boundary(trip, theta))
    for rel in rels:
        bound = lower_bound(rel)
        assert bound is not None
        if math.isfinite(bound):
            assert numerical_radius(rel) >= abs(bound)


# Metamorphic: a unitary change of coordinates U (+) V on H1 (+) H2 maps a
# relation's graph onto the graph of (f, g) -> (U f, V g).  Every verdict
# is about the spans, so none of them may move.


def _recoordinated(rel, u, v):
    n = rel.n1 + rel.n2
    w = np.zeros((n, n), dtype=complex)
    w[: rel.n1, : rel.n1], w[rel.n1 :, rel.n1 :] = u, v
    return LinearRelation(rel.n1, rel.n2, Subspace(n, w @ rel.graph.basis))


def _relation_of_kind(kind, n1, n2, rng):
    """A relation whose parts are not all generic: a random graph of random
    rank, a product M x N, or a rank-deficient operator."""
    if kind == "random":
        return random_relation(n1, n2, rng=rng)
    if kind == "product":
        return from_product(
            span(crandn(rng, n1, int(rng.integers(0, n1 + 1))), n1),
            span(crandn(rng, n2, int(rng.integers(0, n2 + 1))), n2))
    rank = int(rng.integers(0, min(n1, n2) + 1))
    return from_operator(crandn(rng, n2, rank) @ crandn(rng, rank, n1))


def _related_to(rel, kind, rng):
    """A second relation over the same spaces: the same graph in another
    basis, a part of it, it plus one direction, or an unrelated one."""
    n, d = rel.n1 + rel.n2, rel.dim
    basis = rel.graph.basis
    if kind == "rebased":
        other = basis @ unitary(rng, d) if d else basis
    elif kind == "part":
        other = basis[:, : int(rng.integers(0, d + 1))]
    elif kind == "more":
        other = np.hstack([basis, crandn(rng, n, 1)])
    else:
        return _relation_of_kind("random", rel.n1, rel.n2, rng)
    return LinearRelation(rel.n1, rel.n2, span(other, n))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n1=st.integers(1, 6),
    n2=st.integers(1, 6),
    kind=st.sampled_from(["random", "product", "operator"]),
    pair=st.sampled_from(["rebased", "part", "more", "unrelated"]),
)
def test_parts_and_relate_survive_new_coordinates(seed, n1, n2, kind, pair):
    rng = np.random.default_rng(seed)
    a = _relation_of_kind(kind, n1, n2, rng)
    b = _related_to(a, pair, rng)
    u, v = unitary(rng, n1), unitary(rng, n2)
    a_new, b_new = _recoordinated(a, u, v), _recoordinated(b, u, v)
    for rel, moved in ((a, a_new), (b, b_new)):
        old, new = parts(rel), parts(moved)
        for name, w in (("dom", u), ("ran", v), ("ker", u), ("mul", v)):
            before, after = getattr(old, name), getattr(new, name)
            assert before.dim == after.dim, name
            mapped = Subspace(after.ambient_dim, w @ before.basis)
            assert relate(mapped, after).verdict is Verdict.EQUAL, name
    assert (relate(a_new.graph, b_new.graph).verdict
            is relate(a.graph, b.graph).verdict)
    assert relation_equal(a_new, b_new).verdict is relation_equal(a, b).verdict


def _square_relation_of_kind(kind, n, rng):
    """A square relation of each symmetry class: generic, selfadjoint,
    nonnegative selfadjoint, symmetric but not selfadjoint (a part of a
    selfadjoint graph), or a product M x M^perp (dom perpendicular to
    ran)."""
    if kind == "random":
        return random_relation(n, n, rng=rng)
    if kind in ("selfadjoint", "nonnegative"):
        return random_selfadjoint_relation(n, rng=rng,
                                           nonneg=kind == "nonnegative")
    if kind == "symmetric":
        whole = random_selfadjoint_relation(n, rng=rng).graph.basis
        return LinearRelation(
            n, n, Subspace(2 * n, whole[:, : int(rng.integers(0, n))]))
    m = span(crandn(rng, n, int(rng.integers(0, n + 1))), n)
    return from_product(m, complement(m))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 6),
    kind=st.sampled_from(["random", "selfadjoint", "nonnegative",
                          "symmetric", "product"]),
)
def test_classify_survives_new_coordinates(seed, n, kind):
    # U (+) U keeps the pairing <g, f>, so all four verdicts stay
    rng = np.random.default_rng(seed)
    rel = _square_relation_of_kind(kind, n, rng)
    u = unitary(rng, n)
    before = classify(rel)
    after = classify(_recoordinated(rel, u, u))
    assert after == before, (before, after)
