"""The lift of a relation to a symmetric relation in the product space,
its distinguished selfadjoint extensions, and the extremal family."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linrel import extension, subspace
from linrel.config import ToleranceConfig
from linrel.errors import DimensionMismatch, PreconditionViolated
from linrel.extension import (
    _adjoint_angle,
    extremal_family,
    friedrichs_generic,
    is_extremal,
    is_singular_relation,
    krein_generic,
    krein_order_check,
    krein_order_margin,
    lift,
    nonneg_extension,
    s0_adjoint_decomposition_check,
)
from linrel.oracle import (
    random_relation,
    random_selfadjoint_relation,
)
from linrel.relation import (
    LinearRelation,
    adjoint,
    classify,
    from_operator,
    from_product,
    identity_relation,
    lower_bound,
    meet_relations,
    parts,
    relation_equal,
    zero_operator,
)
from linrel.subspace import Subspace, Verdict, oplus, relate, span

from conftest import CFG, assert_relation_equal, assert_subspace_equal, tilted


@pytest.fixture
def bundle(rng):
    # graph dimension 2 in C^2 x C^3 keeps ran R proper, so the basic
    # boundary space G0 is never trivial
    return lift(random_relation(2, 3, rank=2, rng=rng))


class TestLiftStructure:
    def test_s_is_symmetric_with_orthogonal_dom_ran(self, bundle):
        rep = classify(bundle.S)
        assert rep.is_symmetric and rep.dom_perp_ran and rep.is_nonnegative

    def test_s_star_is_the_adjoint(self, bundle):
        assert_relation_equal(adjoint(bundle.S), bundle.S_star)

    def test_s_tilde_star_is_the_adjoint(self, bundle):
        assert_relation_equal(adjoint(bundle.S_tilde), bundle.S_tilde_star)

    def test_s0_star_is_the_adjoint(self, bundle):
        assert_relation_equal(adjoint(bundle.S0), bundle.S0_star)

    def test_chain_of_inclusions(self, bundle):
        for smaller, larger in [
            (bundle.S, bundle.S0),
            (bundle.S0, bundle.S0_star),
            (bundle.S, bundle.S_tilde),
            (bundle.S_tilde, bundle.S_tilde_star),
            (bundle.H, bundle.S_star),
            (bundle.K, bundle.S_star),
            (bundle.S0, bundle.S_F),
            (bundle.S_F, bundle.S0_star),
            (bundle.S_K, bundle.S0_star),
        ]:
            res = relation_equal(smaller, larger)
            assert res.verdict in (Verdict.EQUAL, Verdict.SUBSET)

    def test_decompositions(self, bundle):
        assert s0_adjoint_decomposition_check(bundle)

    def test_friedrichs_closed_form(self, bundle):
        assert_relation_equal(friedrichs_generic(bundle.S), bundle.S_F)

    def test_krein_closed_form(self, bundle):
        assert_relation_equal(krein_generic(bundle.S), bundle.S_K)

    def test_friedrichs_rejects_generic_symmetric(self):
        # the closed form needs dom S perp ran S; a plain Hermitian
        # matrix violates that
        with pytest.raises(PreconditionViolated, match="perpendicular"):
            friedrichs_generic(from_operator(np.diag([1.0, 2.0])))

    def test_s_tilde_is_friedrichs_meet_k(self, bundle):
        assert_relation_equal(
            meet_relations(bundle.S_F, bundle.K), bundle.S_tilde
        )


# every Subspace a LiftBundle holds: the graphs of S .. S~*, then the rest
_BUNDLE_RELATIONS = ("S", "S_star", "H", "K", "S_F", "S_K", "S0", "S0_star",
                     "S_tilde", "S_tilde_star")
_BUNDLE_SPACES = ("G", "G0", "G_tilde", "dom_R", "ran_R", "mul_R_star",
                  "ker_R_star")


class TestStackedBases:
    """lift stacks checked bases on disjoint rows instead of Gram-testing them."""

    # ranks n/2, n and 3n/2
    @pytest.mark.parametrize(
        ("n", "rank"), [(4, 2), (4, 4), (4, 6), (6, 3), (6, 6), (6, 9)]
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_bundle_basis_is_orthonormal(self, n, rank, seed):
        bundle = lift(random_relation(n, n, rank=rank, rng=seed))
        spaces = [getattr(bundle, name).graph for name in _BUNDLE_RELATIONS]
        spaces += [getattr(bundle, name) for name in _BUNDLE_SPACES]
        for space in spaces:
            assert space.dim == 0 or subspace._is_orthonormal(space.basis)
        # rank n/2 leaves dom R and ran R proper, so G0 != {0}; ranks n and
        # 3n/2 make both dense, so G0 = {0}
        assert (bundle.G0.dim > 0) is (rank < n)

    def test_lifted_bases_are_the_zero_padded_blocks(self, bundle):
        n1, n = bundle.n1, bundle.n
        f, g = bundle.R.domain_block, bundle.R.range_block
        want = np.zeros((2 * n, bundle.R.dim), dtype=complex)
        want[:n1], want[n + n1 :] = f, g
        assert bundle.S.graph.basis.tobytes() == want.tobytes()
        r_star = bundle.R_star.graph.basis
        k = bundle.K.graph.basis
        assert np.array_equal(k[:, : bundle.R.dim], want)
        assert np.array_equal(k[n1 : n + n1, bundle.R.dim :], r_star)
        assert not np.any(k[:n1, bundle.R.dim :])
        assert not np.any(k[n + n1 :, bundle.R.dim :])


class TestLiftAdjointCheck:
    """lift's Gram-norm check of the closed-form S* against adjoint(S)."""

    @pytest.mark.parametrize("rank", [2, 4, 6])
    def test_gram_angle_matches_relate(self, rank):
        bundle = lift(random_relation(4, 4, rank=rank, rng=rank))
        ref = relate(bundle.S_star.graph, adjoint(bundle.S).graph)
        assert ref.verdict is Verdict.EQUAL
        assert abs(_adjoint_angle(bundle.S_star, bundle.S) - ref.angle) < 1e-12

    def test_wrong_s_star_raises(self, monkeypatch):
        rel = random_relation(3, 3, rank=3, rng=1)
        other = adjoint(random_relation(3, 3, rank=3, rng=2))
        monkeypatch.setattr(
            extension, "_adjoint_from_complement", lambda rel, ortho: other
        )
        with pytest.raises(ArithmeticError, match="disagrees with adjoint"):
            lift(rel)

    def test_s_star_of_wrong_dimension_raises(self, monkeypatch):
        rel = random_relation(3, 3, rank=3, rng=1)
        r_star = adjoint(rel)
        short = LinearRelation(3, 3, Subspace(6, r_star.graph.basis[:, 1:]))
        monkeypatch.setattr(
            extension, "_adjoint_from_complement", lambda rel, ortho: short
        )
        with pytest.raises(ArithmeticError, match="disagrees with adjoint"):
            lift(rel)


class TestDistinguishedExtensions:
    def test_h_and_extremes_are_nonneg_selfadjoint(self, bundle):
        for ext in (bundle.H, bundle.S_F, bundle.S_K):
            rep = classify(ext)
            assert rep.is_selfadjoint and rep.is_nonnegative

    def test_k_is_selfadjoint_but_indefinite(self):
        # scalar model: R = graph of 1 gives K = the flip (f,g)->(g,f),
        # a selfadjoint involution with eigenvalues +1 and -1
        bundle = lift(from_operator(np.array([[1.0]])))
        rep = classify(bundle.K)
        assert rep.is_selfadjoint and not rep.is_nonnegative
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert_relation_equal(bundle.K, from_operator(flip))
        assert abs(lower_bound(bundle.K) + 1.0) < 1e-12

    def test_extremality(self, bundle):
        assert is_extremal(bundle.H, bundle)
        assert is_extremal(bundle.S_F, bundle)
        assert is_extremal(bundle.S_K, bundle)

    def test_extremality_rejects_indefinite_k(self, bundle):
        with pytest.raises(PreconditionViolated, match="nonnegative"):
            is_extremal(bundle.K, bundle)

    def test_krein_order_of_extremes(self, bundle):
        assert krein_order_margin(bundle.S_F, bundle) >= -1e-10
        assert krein_order_margin(bundle.S_K, bundle) >= -1e-10
        assert krein_order_check(bundle.H, bundle)

    def test_singular_flags(self):
        assert is_singular_relation(zero_operator(2))
        assert is_singular_relation(
            from_product(Subspace.zero(2), Subspace.full(3))
        )
        assert not is_singular_relation(identity_relation(2))

    def test_h_is_singular_k_is_not(self, bundle):
        assert is_singular_relation(bundle.H)
        assert not is_singular_relation(bundle.K)


class TestNonnegExtension:
    def test_matches_boundary_route(self, rng):
        from linrel.boundary import extension_from_boundary, triplet_basic

        bundle = lift(random_relation(2, 3, rank=2, rng=rng))
        trip = triplet_basic(bundle)
        g0 = bundle.G0.dim
        theta = random_selfadjoint_relation(g0, rng=rng, nonneg=True)
        assert_relation_equal(
            nonneg_extension(bundle, theta),
            extension_from_boundary(trip, theta),
        )

    def test_rejects_non_selfadjoint_parameter(self, bundle):
        g0 = bundle.G0.dim
        theta = from_operator(1j * np.eye(g0))
        with pytest.raises(PreconditionViolated, match="selfadjoint"):
            nonneg_extension(bundle, theta)

    def test_rejects_wrong_parameter_dimension(self, bundle):
        theta = identity_relation(bundle.G0.dim + 1)
        with pytest.raises(DimensionMismatch):
            nonneg_extension(bundle, theta)

    def test_parameter_tolerance_comes_from_the_lift(self, rng):
        # a parameter 1e-6 off selfadjoint passes the lift's angle_tol of
        # 1e-5 and fails the default 1e-8
        rel = random_relation(3, 3, rank=1, rng=rng)
        cfg = ToleranceConfig(angle_tol=1e-5)
        bundle = lift(rel, cfg)
        g0 = bundle.G0.dim
        theta = tilted(
            random_selfadjoint_relation(g0, rng=rng, dom_dim=g0, nonneg=True),
            1e-6,
        )
        ext = nonneg_extension(bundle, theta)
        assert classify(ext, cfg).is_selfadjoint
        with pytest.raises(PreconditionViolated, match="selfadjoint"):
            nonneg_extension(lift(rel), theta)

    def test_sandwiched_between_s_and_s_star(self, bundle, rng):
        g0 = bundle.G0.dim
        theta = random_selfadjoint_relation(g0, rng=rng, nonneg=True)
        ext = nonneg_extension(bundle, theta)
        assert relation_equal(bundle.S, ext).verdict in (
            Verdict.EQUAL, Verdict.SUBSET,
        )
        assert relation_equal(ext, bundle.S_star).verdict in (
            Verdict.EQUAL, Verdict.SUBSET,
        )

    def test_krein_margin_of_tilted_extension_is_finite(self):
        # selfadjointness within angle_tol is the only symmetry gate; the
        # margin is read off the Hermitian parts of the differences
        bundle = lift(random_relation(3, 3, rank=2, rng=1))
        d, g0 = bundle.dom_R.dim, bundle.G0.dim
        theta = random_selfadjoint_relation(g0, rng=1, dom_dim=g0, nonneg=True)
        ext = nonneg_extension(bundle, theta)
        # theta's columns first: the tilt then stays inside the positive
        # definite block, and the tilted extension stays nonnegative
        b = ext.graph.basis
        cols = np.hstack([b[:, d : d + g0], b[:, :d], b[:, d + g0 :]])
        a = tilted(
            LinearRelation(ext.n1, ext.n2, Subspace(2 * ext.n1, cols)),
            0.5 * CFG.angle_tol,
        )
        margin = krein_order_margin(a, bundle)
        assert math.isfinite(margin)
        assert abs(margin - krein_order_margin(ext, bundle)) < 1e-7


class TestExtremalFamily:
    def test_endpoints(self, bundle):
        # parameter subspace {0} freezes gamma0: the Friedrichs end;
        # the full parameter space frees it: the Krein end
        a_zero = extremal_family(bundle, Subspace.zero(bundle.G0.dim))
        a_full = extremal_family(bundle, Subspace.full(bundle.G0.dim))
        assert_relation_equal(a_zero, bundle.S_F)
        assert_relation_equal(a_full, bundle.S_K)

    def test_members_are_extremal_and_ordered(self, bundle, rng):
        g0 = bundle.G0.dim
        for dim in range(g0 + 1):
            raw = rng.normal(size=(g0, dim)) + 1j * rng.normal(size=(g0, dim))
            a_l = extremal_family(bundle, span(raw, g0))
            assert is_extremal(a_l, bundle)
            assert krein_order_check(a_l, bundle)

    def test_trivial_parameter_space(self):
        # dense domain and range: G0 = {0} and S_F = S_K = S0
        dense = lift(from_operator(np.array([[2.0, 1.0], [0.0, 3.0]])))
        assert dense.G0.dim == 0
        for l_space in (Subspace.zero(0), Subspace.full(0)):
            a_l = extremal_family(dense, l_space)
            assert_relation_equal(a_l, dense.S0)
            assert_relation_equal(a_l, dense.S_K)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n1=st.integers(1, 6),
    n2=st.integers(1, 6),
)
def test_paper_characterizations_on_random_lifts(seed, n1, n2):
    # rank below max(n1, n2) leaves dom R or ran R proper, so G0 != {0}
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(0, max(n1, n2)))
    bundle = lift(random_relation(n1, n2, rank=rank, rng=rng))
    g0 = bundle.G0.dim
    assert g0 >= 1
    # every nonnegative theta lands between S_F and S_K in resolvent order
    theta = random_selfadjoint_relation(g0, rng=rng, nonneg=True)
    assert krein_order_check(nonneg_extension(bundle, theta), bundle)
    # a product parameter L x (G0 (-) L) gives an extremal extension,
    # which is the one whose domain is orthogonal to its range
    k = int(rng.integers(0, g0 + 1))
    raw = rng.normal(size=(g0, k)) + 1j * rng.normal(size=(g0, k))
    a_l = extremal_family(bundle, span(raw, g0))
    assert is_extremal(a_l, bundle)
    assert classify(a_l, bundle.cfg).dom_perp_ran


class TestNamedExamples:
    def test_scalar_graph(self):
        # R = graph of 1 in C x C: everything is explicit.  R is densely
        # defined and surjective, so the basic boundary space is trivial
        bundle = lift(from_operator(np.array([[1.0]])))
        assert bundle.S.dim == 1 and bundle.S_star.dim == 3
        assert bundle.G.dim == 1 and bundle.G0.dim == 0
        p = parts(bundle.S)
        assert_subspace_equal(p.dom, oplus(Subspace.full(1), Subspace.zero(1)))
        assert_subspace_equal(p.ran, oplus(Subspace.zero(1), Subspace.full(1)))
        # S_F = H here: the domain of R is everything
        assert_relation_equal(bundle.S_F, bundle.H)

    def test_zero_operator(self):
        bundle = lift(zero_operator(2))
        # ran R = {0} makes S the zero operator on H1 (+) {0}
        assert_relation_equal(
            bundle.S,
            from_product(
                oplus(Subspace.full(2), Subspace.zero(2)),
                Subspace.zero(4),
            ),
        )
        assert is_singular_relation(bundle.S)
        # singular lift: Friedrichs and Krein meet in S itself
        assert_relation_equal(meet_relations(bundle.S_F, bundle.S_K), bundle.S)

    def test_pure_multivalued(self):
        bundle = lift(from_product(Subspace.zero(1), Subspace.full(1)))
        # dom R = {0}: the lift is {0} x ({0} (+) H2)
        assert bundle.S.dim == 1
        p = parts(bundle.S)
        assert p.dom.dim == 0 and p.mul.dim == 1
        assert is_singular_relation(bundle.S)
        # Friedrichs keeps the trivial domain, Krein maximizes the kernel
        assert_relation_equal(
            bundle.S_F, from_product(Subspace.zero(2), Subspace.full(2))
        )
        assert_relation_equal(
            bundle.S_K,
            from_product(
                oplus(Subspace.full(1), Subspace.zero(1)),
                oplus(Subspace.zero(1), Subspace.full(1)),
            ),
        )


class TestIntermediateLift:
    """The intermediate extension keeps dom perp ran, so the extreme-
    extension machinery applies to it directly; its Friedrichs and Krein
    extensions and the product relation dom x ran have explicit forms in
    terms of the original parts."""

    @pytest.fixture
    def mid(self, rng):
        bundle = lift(random_relation(2, 3, rank=2, rng=rng))
        p = parts(bundle.S_tilde)
        s0_mid = from_product(p.dom, p.ran)
        return bundle, s0_mid

    def test_keeps_orthogonal_dom_ran(self, mid):
        bundle, _ = mid
        assert classify(bundle.S_tilde).dom_perp_ran

    def test_friedrichs_is_unchanged(self, mid):
        bundle, _ = mid
        assert_relation_equal(
            friedrichs_generic(bundle.S_tilde), bundle.S_F
        )

    def test_krein_product_form(self, mid):
        bundle, _ = mid
        want = from_product(
            oplus(bundle.dom_R, bundle.ker_R_star),
            oplus(bundle.mul_R_star, bundle.ran_R),
        )
        assert_relation_equal(krein_generic(bundle.S_tilde), want)

    def test_dom_ran_product_form(self, mid):
        bundle, s0_mid = mid
        want = from_product(
            oplus(bundle.dom_R, Subspace.zero(bundle.n2)),
            oplus(bundle.mul_R_star, bundle.ran_R),
        )
        assert_relation_equal(s0_mid, want)

    def test_dom_ran_product_adjoint(self, mid):
        bundle, s0_mid = mid
        want = from_product(
            oplus(bundle.dom_R, bundle.ker_R_star),
            oplus(bundle.mul_R_star, Subspace.full(bundle.n2)),
        )
        assert_relation_equal(adjoint(s0_mid), want)

    def test_dom_ran_product_adjoint_eigenspaces_are_flat(self, mid):
        # the adjoint is a product relation: for nonzero lambda its
        # eigenspace is {0} (+) ker R*, independent of lambda
        from linrel.relation import eigenspace

        bundle, s0_mid = mid
        star = adjoint(s0_mid)
        want = oplus(Subspace.zero(bundle.n1), bundle.ker_R_star)
        for lam in (-1.0, 1.0, 2.0, 1j):
            assert_subspace_equal(eigenspace(star, lam), want)
