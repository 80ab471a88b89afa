"""The lift of a relation to a symmetric relation in the product space,
its distinguished selfadjoint extensions, and the extremal family."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linrel import extension, subspace
from linrel.boundary import (
    extension_from_boundary,
    triplet_basic,
    triplet_main,
    triplet_tilde,
    weyl,
)
from linrel.config import ToleranceConfig
from linrel.errors import DimensionMismatch, PreconditionViolated
from linrel.extension import (
    _adjoint_angle,
    _adjoint_sines,
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
    from_kernel_pair,
    from_operator,
    from_product,
    identity_relation,
    lower_bound,
    meet_relations,
    operator_part,
    parts,
    relation_equal,
    zero_operator,
)
from linrel.subspace import Subspace, Verdict, oplus, relate, span

from conftest import CFG, assert_relation_equal, assert_subspace_equal, tilted


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

    @pytest.mark.parametrize("rank", [4, 6])
    def test_full_rank_blocks_give_the_identity(self, rank):
        # at ranks n and 3n/2 both blocks span everything: dom R and ran R
        # are all of C^n, whose identity basis is made when first read
        bundle = lift(random_relation(4, 4, rank=rank, rng=0))
        for space in (bundle.dom_R, bundle.ran_R):
            assert space.dim == 4
            assert space.basis.tobytes() == np.eye(4, dtype=complex).tobytes()
        assert bundle.mul_R_star.dim == bundle.ker_R_star.dim == 0

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


def _closed_forms(bundle):
    """The (part, rows) blocks of every lifted relation, written out."""
    n1, n = bundle.n1, bundle.n
    h1, h2, k1, k2 = (0, n1), (n1, n), (n, n + n1), (n + n1, 2 * n)
    graph_r = (bundle.R.graph, [h1, k2])
    r_star = (bundle.R_star.graph, [(n1, n + n1)])
    all_h1 = (Subspace.full(n1), [h1])
    all_k2 = (Subspace.full(bundle.n2), [k2])
    dom, ran = (bundle.dom_R, [h1]), (bundle.ran_R, [k2])
    mul, ker = (bundle.mul_R_star, [k1]), (bundle.ker_R_star, [h2])
    return {
        "S": [graph_r],
        "S_star": [all_h1, r_star, all_k2],
        "H": [all_h1, all_k2],
        "K": [graph_r, r_star],
        "S_F": [dom, mul, all_k2],
        "S_K": [all_h1, ker, ran],
        "S0": [dom, ran],
        "S0_star": [all_h1, ker, mul, all_k2],
        "S_tilde": [graph_r, mul],
        "S_tilde_star": [dom, r_star, all_k2],
    }


class TestLazyMembers:
    """lift builds none of the lifted relations; each is built on its first
    read, and its graph basis is assembled on the first read of that."""

    @pytest.mark.parametrize("rank", [2, 4, 6])
    def test_the_boundary_chain_assembles_no_lifted_basis(self, rank):
        # the three triplets, a Weyl value each, Krein's formula and its
        # classify build S*, S0*, S~* and S_F, and read no graph basis of
        # theirs, nor assemble a boundary map: the Laurent blocks are the
        # closed forms in P and dom R
        bundle = lift(random_relation(4, 4, rank=rank, rng=rank))
        assert not set(vars(bundle)) & set(_BUNDLE_RELATIONS)
        trips = [build(bundle)
                 for build in (triplet_main, triplet_basic, triplet_tilde)]
        for trip in trips:
            if not trip.is_degenerate:
                weyl(trip, -1.0)
        theta = random_selfadjoint_relation(trips[0].g, rng=3)
        assert classify(extension_from_boundary(trips[0], theta)).is_selfadjoint
        built = set(vars(bundle)) & set(_BUNDLE_RELATIONS)
        assert built == {"S_star", "S0_star", "S_tilde_star", "S_F"}
        for name in built:
            assert "basis" not in vars(getattr(bundle, name).graph), name
        for trip in trips:
            assert not {"gamma0", "gamma1"} & set(vars(trip)), trip.kind

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n1=st.integers(1, 5),
        n2=st.integers(1, 5),
        order=st.permutations(_BUNDLE_RELATIONS),
    )
    def test_members_read_in_any_order_are_their_closed_forms(self, seed, n1,
                                                              n2, order):
        bundle = lift(random_relation(n1, n2, rng=np.random.default_rng(seed)))
        want = _closed_forms(bundle)
        for name in order:
            got = getattr(bundle, name)
            assert got is getattr(bundle, name)  # built once
            assert "basis" not in vars(got.graph)
            eager = subspace._stack(2 * bundle.n, want[name])
            basis = eager.basis
            assert (got.n1, got.n2) == (bundle.n, bundle.n)
            assert got.dim == eager.dim
            # the first read assembles the eager stack's bytes, once
            assert got.graph.basis.tobytes() == basis.tobytes(), name
            assert got.graph.basis.shape == basis.shape
            assert got.graph.basis is got.graph.basis
            assert "_blocks" not in vars(got.graph)

    def test_members_stack_the_fields_of_a_replaced_bundle(self, rng):
        # dataclasses.replace keeps no member of the old bundle: S_F, S0*
        # and S~ stack the new mul R* on rows k1
        bundle = lift(random_relation(4, 4, rank=2, rng=7))
        old = bundle.S_F
        mul = bundle.mul_R_star
        moved = Subspace(mul.ambient_dim,
                         mul.basis @ np.linalg.qr(rng.normal(
                             size=(mul.dim, mul.dim)))[0])
        new = dataclasses.replace(bundle, mul_R_star=moved)
        n1, n = new.n1, new.n
        k1 = slice(n, n + n1)
        cols = slice(new.dom_R.dim, new.dom_R.dim + mul.dim)
        assert new.S_F is not old
        assert np.array_equal(new.S_F.graph.basis[k1, cols], moved.basis)
        assert not np.array_equal(old.graph.basis[k1, cols], moved.basis)
        want = _closed_forms(new)
        for name in ("S_F", "S0_star", "S_tilde"):
            got = getattr(new, name).graph.basis
            assert got.tobytes() == subspace._stack(
                2 * n, want[name]).basis.tobytes(), name


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

    @pytest.mark.parametrize("rank", [3, 6, 9])
    def test_wrong_r_star_raises_at_every_rank(self, rank, monkeypatch):
        # an R* of the right dimension, but of another relation; at rank 3
        # mul R* != {0}, and the check still comes before G~ is formed.
        # The error prints the angle between the lifted S* and adjoint(S)
        rel = random_relation(6, 6, rank=rank, rng=1)
        other = adjoint(random_relation(6, 6, rank=rank, rng=2))
        monkeypatch.setattr(
            extension, "_adjoint_from_complement", lambda rel, ortho: other
        )
        angle = _adjoint_angle(other, rel)
        assert angle > CFG.angle_tol
        want = re.escape(f"disagrees with adjoint(S): angle {angle:.3e}")
        with pytest.raises(ArithmeticError, match=want + "$"):
            lift(rel)

    @pytest.mark.parametrize("rank", [2, 4, 6])
    def test_check_reads_the_r_star_block_without_s(self, rank):
        # S*^H J S is zero but for the block R*^H J graph R, which has the
        # same singular values; lift builds no S for the check
        rel = random_relation(4, 4, rank=rank, rng=rank)
        bundle = lift(rel)
        assert "S" not in vars(bundle)
        block = _adjoint_sines(bundle.R_star, rel)
        full = _adjoint_sines(bundle.S_star, bundle.S)
        small = np.linalg.svd(block, compute_uv=False)
        big = np.linalg.svd(full, compute_uv=False)
        assert np.allclose(big[: small.size], small, rtol=0.0, atol=1e-15)
        assert np.all(big[small.size :] <= 1e-15)

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

    def test_extension_checks_reject_symmetric_s(self, bundle):
        # S itself is symmetric, but dim S = dim R < n
        for check in (is_extremal, krein_order_margin):
            with pytest.raises(PreconditionViolated, match="not selfadjoint"):
                check(bundle.S, bundle)

    def test_extension_checks_reject_what_does_not_contain_s(self, bundle):
        # the identity on C^n is nonnegative and selfadjoint, but holds no
        # ((f1, 0), (0, g2)) of S but zero
        ident = identity_relation(bundle.n)
        for check in (is_extremal, krein_order_margin):
            with pytest.raises(PreconditionViolated, match="does not extend S"):
                check(ident, bundle)

    @pytest.mark.parametrize("rank_tol, blames_tolerances", [
        (1e-10, False), (1e-8, False), (1e-6, True)])
    def test_refusal_names_the_angle_and_the_tolerance_pair(
            self, rank_tol, blames_tolerances, rng):
        # the message carries the containment angle against angle_tol, and
        # names the tolerance pair only where rank_tol exceeds angle_tol
        cfg = ToleranceConfig(rank_tol=rank_tol)
        bundle = lift(random_relation(2, 3, rank=2, rng=rng), cfg)
        with pytest.raises(PreconditionViolated) as info:
            is_extremal(identity_relation(bundle.n), bundle)
        msg = str(info.value)
        head = re.fullmatch(r"relation does not extend S: containment angle "
                            r"(\S+) is not below angle_tol 1e-08(;.*)?", msg)
        assert head, msg
        assert float(head[1]) >= cfg.angle_tol
        assert (head[2] == f"; rank_tol {rank_tol:g} exceeds angle_tol, so "
                "the rank rule can drop directions of R that the angle rule "
                "still sees") if blames_tolerances else head[2] is None, msg

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

    def test_rejects_parameter_subspace_outside_g0(self, bundle):
        g0 = bundle.G0.dim
        for l_space in (Subspace.zero(g0 + 1), Subspace.full(g0 - 1)):
            with pytest.raises(DimensionMismatch, match="L lives in"):
                extremal_family(bundle, l_space)

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


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n1=st.integers(1, 7),
    n2=st.integers(1, 7),
    selfadjoint=st.booleans(),
)
def test_one_svd_splits_each_block_into_span_and_complement(seed, n1, n2,
                                                            selfadjoint):
    # dom R and mul R* = (dom R)^perp are the two halves of one SVD's U of
    # the domain block (or C^n1 and {0}, when one Cholesky certifies it of
    # full rank), and ran R and ker R* of the range block: each pair is
    # orthogonal to round-off and together they fill the whole space.
    # A selfadjoint relation with a multivalued part has a domain block of
    # rank below its width
    rng = np.random.default_rng(seed)
    if selfadjoint:
        rel = random_selfadjoint_relation(n1, rng=rng)
    else:
        rel = random_relation(n1, n2, rng=rng)
    bundle = lift(rel)
    eps = np.finfo(float).eps
    for part, perp, block in (
        (bundle.dom_R, bundle.mul_R_star, rel.domain_block),
        (bundle.ran_R, bundle.ker_R_star, rel.range_block),
    ):
        n = part.ambient_dim
        assert part.dim + perp.dim == n
        whole = np.hstack([part.basis, perp.basis])
        dev = np.abs(whole.conj().T @ whole - np.eye(n)).max()
        assert dev <= 10 * eps * n, dev
        assert_subspace_equal(part, span(block, n))


# (graph R)^perp from the splits of F and G, in every rank class: dim R =
# 0; tall, square and wide blocks; both blocks of full rank (N^H = W); one
# block certified by Cholesky and the other factored by SVD; n1 != n2 both
# ways; the whole space; a product relation, whose pieces inside
# dom R (+) ran R are {0}; and a relation with mul R and ker R nontrivial
_COMPLEMENT_CASES = {
    "empty": lambda: random_relation(3, 4, rank=0, rng=1),
    "tall": lambda: random_relation(6, 6, rank=3, rng=2),
    "square": lambda: random_relation(5, 5, rank=5, rng=3),
    "wide": lambda: random_relation(4, 4, rank=6, rng=4),
    "cholesky_and_svd": lambda: random_relation(3, 9, rank=5, rng=5),
    "svd_and_cholesky": lambda: random_relation(9, 3, rank=5, rng=6),
    "rectangular_tall": lambda: random_relation(5, 9, rank=4, rng=7),
    "rectangular_wide": lambda: random_relation(9, 5, rank=11, rng=8),
    "whole": lambda: random_relation(3, 3, rank=6, rng=9),
    "product": lambda: from_product(
        span(np.random.default_rng(10).normal(size=(5, 2)), 5),
        span(np.random.default_rng(11).normal(size=(4, 3)), 4)),
    "selfadjoint": lambda: random_selfadjoint_relation(6, rng=12, dom_dim=3),
}


@pytest.mark.parametrize("make", list(_COMPLEMENT_CASES.values()),
                         ids=list(_COMPLEMENT_CASES))
def test_g_is_the_complement_of_the_graph_in_three_pieces(make):
    # G stacks mul R* x {0} and {0} x ker R*, projected off graph R, and a
    # piece inside dom R (+) ran R of dimension r_F + r_G - r; together
    # they span
    # complement(graph R), and lift's op R*, R* without its first m
    # columns, spans operator_part(adjoint(R))
    rel = make()
    bundle = lift(rel)
    n1, n = rel.n1, rel.n1 + rel.n2
    g = bundle.G.basis
    m, k = bundle.mul_R_star.dim, bundle.ker_R_star.dim
    product = g[:, m + k :]
    assert product.shape[1] == bundle.dom_R.dim + bundle.ran_R.dim - rel.dim
    pieces = (
        (g[:n1, :m], bundle.mul_R_star),
        (g[n1:, m : m + k], bundle.ker_R_star),
        (product[:n1], bundle.dom_R),
        (product[n1:], bundle.ran_R),
    )
    for block, space in pieces:
        if block.shape[1] and space.dim:
            inside = block - space.basis @ (space.basis.conj().T @ block)
            assert np.abs(inside).max() < 1e-13
    assert np.abs(g.conj().T @ g - np.eye(g.shape[1])).max(initial=0.0) < 1e-13
    assert relate(bundle.G, subspace.complement(rel.graph),
                  CFG).verdict is Verdict.EQUAL
    r_star = bundle.R_star
    op = LinearRelation(r_star.n1, r_star.n2, Subspace(
        n, r_star.graph.basis[:, m:]))
    assert relation_equal(op, operator_part(adjoint(rel)),
                          CFG).verdict is Verdict.EQUAL
    assert relation_equal(r_star, adjoint(rel), CFG).verdict is Verdict.EQUAL


# kernel pairs C = diag(c), D = diag(d) (zero rows below, to n rows) whose
# blocks have a singular value the rank rule drops: just below the default
# rank_tol, or between angle_tol and a rank_tol of 1e-6; in one block or
# in both
_DROPPED_CASES = [
    (2, [1.0, 5e-11], [1.0, 1.0], 1e-10),
    (2, [1.0, 1e-7], [1.0, 1.0], 1e-6),
    (4, [1.0, 1.0, 5e-11], [3e-11, 1.0, 1.0], 1e-10),
    (4, [1.0, 1.0, 1e-7], [2e-7, 1.0, 1.0], 1e-6),
]


@pytest.mark.parametrize("n, c, d, rank_tol", _DROPPED_CASES)
def test_g_stays_the_complement_when_the_rank_rule_drops_a_value(
        n, c, d, rank_tol):
    # mul R* x {0} and {0} x ker R* meet graph R through the dropped
    # singular values; G takes them projected off graph R, so it is
    # (graph R)^perp to round-off whatever the two tolerances, and the S*
    # self-check passes even when the dropped value is above angle_tol
    rel = from_kernel_pair(np.eye(n, len(c)) * c, np.eye(n, len(d)) * d)
    cfg = ToleranceConfig(rank_tol=rank_tol)
    bundle = lift(rel, cfg)
    assert bundle.mul_R_star.dim == 1 + (n - len(c))
    g, w = bundle.G.basis, rel.graph.basis
    assert g.shape == (2 * n, 2 * n - rel.dim)
    assert np.abs(g.conj().T @ w).max() < 1e-15
    assert np.abs(g.conj().T @ g - np.eye(g.shape[1])).max() < 1e-13
    assert relate(bundle.G, subspace.complement(rel.graph),
                  CFG).verdict is Verdict.EQUAL
    assert relation_equal(bundle.R_star, adjoint(rel),
                          CFG).verdict is Verdict.EQUAL


def test_lift_forms_no_dense_factor_of_the_sum_space(monkeypatch):
    # at n1 = n2 = 96, rank 48, the old route's complete QR of the 192 x 48
    # graph basis formed a 192 x 192 Q; now every factorization lift takes
    # is of a 96-row block or of the 96 x 48 coordinates, and tracemalloc
    # finds no call that allocates as much as one 192 x 192 matrix
    rel = random_relation(96, 96, rank=48, rng=1)
    square = 192 * 192 * np.dtype(complex).itemsize
    peaks = []
    for name in ("svd", "qr", "cholesky"):
        def traced(*args, _real=getattr(np.linalg, name), _name=name,
                   **kwargs):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = _real(*args, **kwargs)
            peaks.append((_name, tracemalloc.get_traced_memory()[1] - before))
            return out

        monkeypatch.setattr(np.linalg, name, traced)
    tracemalloc.start()
    try:
        lift(rel)
    finally:
        tracemalloc.stop()
    assert [name for name, _ in peaks] == ["svd", "svd", "qr"], peaks
    assert all(peak < square for _, peak in peaks), peaks


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
