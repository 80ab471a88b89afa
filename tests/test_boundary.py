"""Boundary triplets for the lifted relation: Green identity, Weyl
functions and gamma fields, extensions from boundary parameters, and the
semiboundedness criterion."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linrel.boundary import (
    BoundaryTriplet,
    _KernelSplit,
    _LaurentBlocks,
    alternative_experiment,
    boundary_map_rank,
    closed_form_gamma,
    closed_form_weyl,
    extension_from_boundary,
    gamma_field,
    green_identity_defect,
    semibound_criterion,
    triplet_basic,
    triplet_main,
    triplet_tilde,
    weyl,
)
from linrel.config import DEFAULT_TOLERANCES, ToleranceConfig
from linrel.errors import DimensionMismatch, PreconditionViolated, SpectrumError
from linrel.extension import lift
from linrel.oracle import (
    defect_coefficients,
    extension_definitional,
    random_relation,
    random_selfadjoint_relation,
    weyl_definitional,
)
from linrel.relation import (
    LinearRelation,
    classify,
    from_operator,
    from_product,
    operator_part,
    relation_equal,
    resolvent,
)
from linrel.specio import load_relation_spec
from linrel.subspace import Subspace, Verdict, orthonormal_columns

from conftest import (
    assert_relation_equal,
    mixed_coordinates,
    recoordinatized,
    swapped,
)


@pytest.fixture
def bundle(rng):
    return lift(random_relation(2, 3, rank=2, rng=rng))


@pytest.fixture
def trip_main(bundle):
    return triplet_main(bundle)


class TestTripletStructure:
    def test_green_identity(self, bundle):
        for builder in (triplet_main, triplet_basic, triplet_tilde):
            assert green_identity_defect(builder(bundle)) < 1e-12

    def test_boundary_maps_are_surjective(self, bundle):
        for builder in (triplet_main, triplet_basic, triplet_tilde):
            trip = builder(bundle)
            assert boundary_map_rank(trip) == 2 * trip.g

    def test_triplets_copy_the_lift_cfg(self, rng):
        cfg = ToleranceConfig(rank_tol=1e-9, angle_tol=1e-6, psd_floor=-1e-6)
        bundle = lift(random_relation(2, 3, rank=2, rng=rng), cfg)
        for builder in (triplet_main, triplet_basic, triplet_tilde):
            assert builder(bundle).cfg is cfg

    def test_map_rank_follows_the_rank_rule(self):
        # stacked singular values (0.01, 5e-11): 5e-11 is below
        # rank_tol * max(s_max, 1), so the rank is 1, not 2
        star = from_product(Subspace.full(1), Subspace.full(1))
        trip = BoundaryTriplet(
            "main", star, Subspace.full(1),
            np.array([[0.01, 0.0]]), np.array([[0.0, 5e-11]]),
            star, DEFAULT_TOLERANCES,
        )
        assert boundary_map_rank(trip) == 1

    def test_kernels_main(self, bundle, trip_main):
        assert_relation_equal(trip_main.ker_gamma0, bundle.H)
        assert_relation_equal(trip_main.ker_gamma1, bundle.K)

    def test_kernels_basic(self, bundle):
        trip = triplet_basic(bundle)
        assert_relation_equal(trip.ker_gamma0, bundle.S_F)
        assert_relation_equal(trip.ker_gamma1, bundle.S_K)

    def test_kernels_tilde(self, bundle):
        trip = triplet_tilde(bundle)
        assert_relation_equal(trip.ker_gamma0, bundle.S_F)
        assert_relation_equal(trip.ker_gamma1, bundle.K)

    def test_friedrichs_flags(self, bundle):
        # the main triplet pins H, which is the Friedrichs extension only
        # when R is densely defined with dense range upstairs
        assert triplet_basic(bundle).ker_gamma0_is_friedrichs
        assert triplet_tilde(bundle).ker_gamma0_is_friedrichs
        dense = lift(from_operator(np.array([[1.0, 0.5], [0.0, 2.0]])))
        assert triplet_main(dense).ker_gamma0_is_friedrichs

    def test_degenerate_basic_triplet(self):
        # dense domain and full range leave nothing for G0
        bundle = lift(from_operator(np.eye(2)))
        trip = triplet_basic(bundle)
        assert trip.is_degenerate and trip.g == 0


class TestWeyl:
    def test_basic_weyl_is_lambda(self, bundle):
        trip = triplet_basic(bundle)
        lam = 2 + 1j
        m = weyl(trip, lam)
        np.testing.assert_allclose(m, lam * np.eye(trip.g), atol=1e-12)

    def test_main_matches_closed_form(self, bundle, trip_main):
        for lam in (-10.0, -1.0, -0.1, 1j, 1 + 1j, 2.0):
            np.testing.assert_allclose(
                weyl(trip_main, lam),
                closed_form_weyl(bundle, "main", lam),
                atol=1e-9,
            )

    def test_tilde_matches_closed_form(self, bundle):
        trip = triplet_tilde(bundle)
        for lam in (-1.0, 1j, 2.0):
            np.testing.assert_allclose(
                weyl(trip, lam),
                closed_form_weyl(bundle, "tilde", lam),
                atol=1e-9,
            )

    def test_scalar_graph_value(self):
        # R = graph(1): the main Weyl function at -2 is
        # (1/2 * (-1/lambda) + 1/2 * lambda) = (0.25 - 1.0) = -0.75
        bundle = lift(from_operator(np.array([[1.0]])))
        trip = triplet_main(bundle)
        m = weyl(trip, -2.0)
        assert m.shape == (1, 1)
        assert abs(m[0, 0] - (-0.75)) < 1e-12

    def test_weak_identity(self, bundle, trip_main):
        # <M(lambda) h, h> = -(1/lambda) |u1|^2 + lambda |u2|^2 for the
        # boundary vector u = P h split along H1 (+) H2
        p_basis = bundle.G.basis
        lam = -2.5
        m = weyl(trip_main, lam)
        rng = np.random.default_rng(3)
        h = rng.normal(size=(trip_main.g,)) + 1j * rng.normal(size=(trip_main.g,))
        u = p_basis @ h
        u1, u2 = u[: bundle.n1], u[bundle.n1 :]
        lhs = complex(np.vdot(h, m @ h))
        rhs = -(1 / lam) * np.vdot(u1, u1) + lam * np.vdot(u2, u2)
        assert abs(lhs - rhs) < 1e-10

    def test_origin_is_excluded(self, trip_main):
        # dom H is not {0}, so the pencil has the singular value |lambda|:
        # the rank rule refuses |lambda| <= rank_tol and lets 1e-8 through
        for lam in (0.0, DEFAULT_TOLERANCES.rank_tol / 2):
            with pytest.raises(SpectrumError, match="eigenvalue of ker Gamma0"):
                weyl(trip_main, lam)
        assert np.all(np.isfinite(weyl(trip_main, 1e-8)))

    def test_origin_guard_is_shared(self, bundle, trip_main):
        lam = DEFAULT_TOLERANCES.rank_tol / 2
        want = f"lambda = {lam} is an eigenvalue of ker Gamma0"
        for call in (
            lambda: weyl(trip_main, lam),
            lambda: gamma_field(trip_main, lam),
        ):
            with pytest.raises(SpectrumError) as exc:
                call()
            assert str(exc.value) == want
        # the closed forms refuse only their pole, and basic has none
        for call in (
            lambda: closed_form_weyl(bundle, "main", 0.0),
            lambda: closed_form_weyl(bundle, "tilde", 0.0),
            lambda: closed_form_gamma(bundle, "main", 0.0),
        ):
            with pytest.raises(SpectrumError) as exc:
                call()
            assert str(exc.value) == "lambda = 0.0 is a pole of the closed form"
        assert np.all(closed_form_weyl(bundle, "basic", 0.0) == 0.0)
        np.testing.assert_array_equal(closed_form_gamma(bundle, "basic", 0.0),
                                      bundle.G0.basis)

    def test_defect_dimension_constant(self, trip_main):
        for lam in (-3.0, 0.5j, 1 + 2j):
            assert defect_coefficients(trip_main, lam).shape[1] == trip_main.g

    def test_gamma_field_closed_forms(self, bundle, trip_main):
        for lam in (-1.5, 1j):
            np.testing.assert_allclose(
                gamma_field(trip_main, lam),
                closed_form_gamma(bundle, "main", lam),
                atol=1e-9,
            )
        trip0 = triplet_basic(bundle)
        for lam in (-1.5, 1j):
            np.testing.assert_allclose(
                gamma_field(trip0, lam),
                closed_form_gamma(bundle, "basic", lam),
                atol=1e-9,
            )

    def test_no_closed_gamma_for_tilde(self, bundle):
        with pytest.raises(ValueError, match="tilde"):
            closed_form_gamma(bundle, "tilde", -1.0)


def nonzero_eigenvalues(rel):
    """Nonzero eigenvalues of the operator part of a selfadjoint relation."""
    op = operator_part(rel)
    f_blk, g_blk = op.domain_block, op.range_block
    ev = np.linalg.eigvals(
        np.linalg.solve(f_blk.conj().T @ f_blk, f_blk.conj().T @ g_blk)
    )
    return ev.real[np.abs(ev) > 1e-6]


class TestResolventRoute:
    """weyl and gamma_field against the per-lambda nullspace oracle."""

    LAMBDAS = (-2.0, -0.5, 1j, 1.5 - 0.5j)

    @pytest.mark.parametrize("rank", [4, 8, 12])
    def test_agrees_with_oracle_and_closed_forms(self, rank):
        bundle = lift(random_relation(8, 8, rank=rank, rng=5))
        for build in (triplet_main, triplet_basic, triplet_tilde):
            trip = build(bundle)
            for lam in self.LAMBDAS:
                m = weyl(trip, lam)
                np.testing.assert_allclose(
                    m, weyl_definitional(trip, lam), atol=1e-9
                )
                np.testing.assert_allclose(
                    m, closed_form_weyl(bundle, trip.kind, lam), atol=1e-9
                )
                if trip.kind != "tilde":
                    np.testing.assert_allclose(
                        gamma_field(trip, lam),
                        closed_form_gamma(bundle, trip.kind, lam),
                        atol=1e-9,
                    )

    @pytest.mark.parametrize("rank", [4, 8, 12])
    def test_eigenvalue_of_ker_gamma0_is_a_spectral_point(self, rank):
        bundle = lift(random_relation(8, 8, rank=rank, rng=5))
        main_trip = triplet_main(bundle)
        trip = swapped(main_trip)
        assert green_identity_defect(trip) < 1e-12
        for lam in (1j, 1.5 - 0.5j):
            want = -np.linalg.inv(weyl(main_trip, lam))
            np.testing.assert_allclose(weyl(trip, lam), want, atol=1e-9)
            np.testing.assert_allclose(
                weyl_definitional(trip, lam), want, atol=1e-9
            )
        eigs = nonzero_eigenvalues(trip.ker_gamma0)
        assert eigs.size
        for mu in (eigs.min(), eigs.max()):
            for route in (weyl, weyl_definitional, gamma_field):
                with pytest.raises(SpectrumError):
                    route(trip, float(mu))

    def test_gamma0_without_full_rank_has_no_weyl_function(self):
        star = from_product(Subspace.full(1), Subspace.full(1))
        trip = BoundaryTriplet(
            "main", star, Subspace.full(1),
            np.array([[5e-11, 0.0]]), np.array([[0.0, 1.0]]),
            star, DEFAULT_TOLERANCES,
        )
        for route in (weyl, weyl_definitional, gamma_field):
            with pytest.raises(SpectrumError):
                route(trip, -1.0)

    def test_cfg_changes_only_the_rank_decision(self, trip_main):
        # ker Gamma0 = H: the pencil's singular values are |lambda| and 1
        lam = -10.0
        m = weyl(trip_main, lam)
        blocks = trip_main.resolvent_blocks
        loose = ToleranceConfig(rank_tol=0.5)
        with pytest.raises(SpectrumError, match="eigenvalue"):
            weyl(trip_main, lam, loose)
        strict = ToleranceConfig(rank_tol=1e-14)
        np.testing.assert_array_equal(weyl(trip_main, lam, strict), m)
        assert trip_main.resolvent_blocks is blocks


def from_cayley(c):
    """The selfadjoint relation with graph basis [(I - C)/(2i); (I + C)/2].

    That basis is orthonormal for every unitary C, and its Cayley
    transform is C itself (V = I).
    """
    n = len(c)
    eye = np.eye(n)
    basis = np.vstack([(eye - c) / 2j, (eye + c) / 2])
    return LinearRelation(n, n, Subspace(2 * n, basis))


class TestCayleyDiagonalization:
    """weyl, gamma_field and extension_from_boundary against the oracle,
    on extremal kernels (the Laurent route) and on kernels with nonzero
    eigenvalues, where the pencil is solved at each lambda."""

    LAMBDAS = (-2.5, 0.5, 1j, 1.5 - 0.5j)

    def check(self, trip):
        """The Weyl function, the gamma field and a Krein-formula extension
        agree with the definitional routes off the spectrum.  A
        degenerate triplet (g = 0) has no parameter to extend by."""
        for lam in self.LAMBDAS:
            np.testing.assert_allclose(
                weyl(trip, lam), weyl_definitional(trip, lam), atol=1e-9
            )
            np.testing.assert_allclose(
                gamma_field(trip, lam), gamma_definitional(trip, lam),
                atol=1e-9,
            )
        if trip.is_degenerate:
            return
        theta = random_selfadjoint_relation(trip.g, rng=3)
        assert_relation_equal(extension_from_boundary(trip, theta),
                              extension_definitional(trip, theta))

    def test_main_triplet_takes_the_laurent_route(self):
        trip = triplet_main(lift(random_relation(16, 16, rank=16, rng=5)))
        self.check(trip)
        # ker Gamma0 = H is extremal: dom H = H1 and ran H = H2 (each of
        # dimension n/2), so M(lambda) is a Laurent polynomial and f0
        # keeps only the n/2 columns that span dom H
        blocks = trip.resolvent_blocks
        n = trip.star.n1
        assert isinstance(blocks, _LaurentBlocks)
        assert blocks.n_dom == n // 2
        assert blocks.f0.shape == (n, n // 2)
        assert not blocks.f0[n // 2:].any()

    @pytest.mark.parametrize("rank", [8, 16, 24])
    @pytest.mark.parametrize("build", [triplet_main, triplet_basic, triplet_tilde])
    def test_swapped_triplets(self, build, rank):
        trip = swapped(build(lift(random_relation(16, 16, rank=rank, rng=5))))
        self.check(trip)
        if build is not triplet_basic:
            # ker Gamma0 is K, whose nonzero eigenvalues are spectral points
            eigs = nonzero_eigenvalues(trip.ker_gamma0)
            assert eigs.size >= 4
            for mu in eigs:
                with pytest.raises(SpectrumError):
                    weyl(trip, float(mu))

    @pytest.mark.parametrize("c", [
        # ker Gamma0 = K has the eigenvalues +-c_j: +-0.7 three times and
        # +-1.3 twice, each a repeated non-real Cayley eigenvalue
        [0.7, 0.7, 0.7, 1.3, 1.3],
        # two eigenvalues 5e-7 apart at the Cayley eigenvalue -i
        [1.0, 1.0 + 5e-7, 0.3, 2.0],
    ], ids=["repeated_nonreal", "near_minus_i"])
    def test_clustered_cayley_transform(self, c):
        trip = swapped(triplet_main(lift(from_operator(np.diag(c)))))
        assert trip.g == len(c)
        self.check(trip)
        for mu in (*c, *(-x for x in c)):
            for route in (weyl, weyl_definitional, gamma_field):
                with pytest.raises(SpectrumError):
                    route(trip, mu)

    def test_nearly_extremal_kernel_takes_pencil(self):
        # Cayley phases pi and 0 give an axis of dom and one of ran;
        # pi - d and d, d = 1e-9, leave |f0^H g0| at d/2, above rank_tol:
        # the pencil route is taken, and it finds the eigenvalue near
        # -cot(d/2) = -2e9 that the Laurent rule would miss there
        d = 1e-9
        rel = from_cayley(np.diag(np.exp(1j * np.array([np.pi, np.pi - d,
                                                         0.0, d]))))
        no_maps = np.zeros((0, 4))

        def trip_at(cfg):
            return BoundaryTriplet("basic", rel, Subspace.zero(4), no_maps,
                                   no_maps, rel, cfg)

        trip = trip_at(DEFAULT_TOLERANCES)
        assert isinstance(trip.resolvent_blocks, _KernelSplit)
        with pytest.raises(SpectrumError, match="eigenvalue"):
            gamma_field(trip, -1 / math.tan(d / 2))
        for lam in (*self.LAMBDAS, -1e7):
            assert gamma_field(trip, lam).shape == (4, 0)
        # at rank_tol = 1e-8 the same kernel counts as extremal, with two
        # domain axes, and 1 <= 1e-8 * 2e9 refuses the same lambda
        loose = trip_at(ToleranceConfig(rank_tol=1e-8))
        assert isinstance(loose.resolvent_blocks, _LaurentBlocks)
        assert loose.resolvent_blocks.n_dom == 2
        with pytest.raises(SpectrumError, match="eigenvalue"):
            gamma_field(loose, -1 / math.tan(d / 2))

    def test_kernel_that_is_not_selfadjoint_is_refused(self):
        # ker Gamma0 = span (-i, 1): V = G0 + i F0 = sqrt(2), not unitary
        star = from_product(Subspace.full(1), Subspace.full(1))
        trip = BoundaryTriplet(
            "main", star, Subspace.full(1),
            np.array([[1.0, 1j]]), np.array([[0.0, 1.0]]),
            star, DEFAULT_TOLERANCES,
        )
        for route in (weyl, gamma_field):
            with pytest.raises(PreconditionViolated, match="not selfadjoint"):
                route(trip, -1.0)


def gamma_definitional(trip, lam):
    """gamma(lambda) from the oracle's defect space: f (Gamma0 | N)^-1."""
    ns = defect_coefficients(trip, lam)
    f_blk = trip.star.graph.basis[: trip.star.n1]
    return (f_blk @ ns) @ np.linalg.inv(trip.gamma0 @ ns)


class TestLiveColumns:
    """Gamma0's exactly-zero columns are kernel axes as they stand."""

    LAMBDAS = (-2.0, 0.5, 1j, 1.5 - 0.5j)

    @pytest.mark.parametrize("build", [triplet_basic, triplet_tilde])
    def test_mixed_kernel_matches_oracle(self, build, rng):
        # the dead columns stay exactly zero, while the kernel of the live
        # block now mixes every live column
        trip = build(lift(random_relation(6, 6, rank=3, rng=5)))
        dead = ~trip.gamma0.any(axis=0)
        mixed = mixed_coordinates(trip, rng)
        assert not mixed.gamma0[:, dead].any()
        assert mixed.gamma0[:, ~dead].all()
        assert int((~dead).sum()) > mixed.g  # a live nullspace exists
        assert green_identity_defect(mixed) < 1e-12
        for lam in self.LAMBDAS:
            np.testing.assert_allclose(
                weyl(mixed, lam), weyl_definitional(mixed, lam), atol=1e-9
            )
            np.testing.assert_allclose(
                gamma_field(mixed, lam), gamma_definitional(mixed, lam),
                atol=1e-9,
            )

    @pytest.mark.parametrize("build", [triplet_main, triplet_basic, triplet_tilde])
    def test_permuted_columns_give_the_same_weyl_function(self, build, rng):
        trip = build(lift(random_relation(8, 8, rank=5, rng=5)))
        perm = rng.permutation(trip.star.dim)
        permuted = recoordinatized(trip, np.eye(trip.star.dim)[:, perm])
        # the dead columns are scattered, not one or two runs
        dead = np.flatnonzero(~permuted.gamma0.any(axis=0))
        assert np.count_nonzero(np.diff(dead) > 1) > 1
        for lam in self.LAMBDAS:
            np.testing.assert_allclose(
                weyl(permuted, lam), weyl(trip, lam), rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("live_block", ["2I", "unitary+1e-9"])
    def test_gamma0_off_the_coisometry_takes_the_svd(self, live_block, rng,
                                                     monkeypatch):
        # a hand-built Gamma0 whose square live block misses A A^H = I
        # far beyond round-off keeps the SVD set-up and its rank rule; its
        # kernel is still the dead axes, so the Laurent route follows
        trip = triplet_main(lift(random_relation(3, 3, rank=2, rng=5)))
        live = trip.gamma0.any(axis=0)
        g = trip.g
        gamma0 = trip.gamma0.copy()
        if live_block == "2I":
            gamma0[:, live] = 2.0 * np.eye(g)
        else:
            noise = rng.normal(size=(g, g)) + 1j * rng.normal(size=(g, g))
            gamma0[:, live] += 1e-9 * noise
        hand = BoundaryTriplet(trip.kind, trip.star, trip.boundary, gamma0,
                               trip.gamma1, trip.friedrichs, trip.cfg)
        calls = []
        for name in ("svd", "qr"):
            real = getattr(np.linalg, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls.append((_name, np.shape(args[0])))
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        assert isinstance(hand.resolvent_blocks, _LaurentBlocks)
        assert calls == [("svd", (g, g))], calls
        monkeypatch.undo()
        for lam in self.LAMBDAS:
            want = weyl_definitional(hand, lam)
            scale = max(1.0, float(np.abs(want).max()))
            np.testing.assert_allclose(weyl(hand, lam), want, rtol=0,
                                       atol=1e-9 * scale)


def _weyl_or_spectral(route, trip, lam):
    try:
        return route(trip, lam)
    except SpectrumError:
        return None


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 6),
    rank_class=st.sampled_from(["below", "equal", "above"]),
    lam=st.complex_numbers(max_magnitude=4.0).filter(lambda z: abs(z) >= 0.05),
)
def test_weyl_matches_definitional_route(seed, n, rank_class, lam):
    # rank below, at and above n: every kind of lift and triplet kernel
    rng = np.random.default_rng(seed)
    rank = {"below": int(rng.integers(0, n)), "equal": n,
            "above": int(rng.integers(n + 1, 2 * n + 1))}[rank_class]
    bundle = lift(random_relation(n, n, rank=rank, rng=rng))
    for build in (triplet_main, triplet_basic, triplet_tilde):
        for trip in (build(bundle), swapped(build(bundle))):
            m = _weyl_or_spectral(weyl, trip, lam)
            want = _weyl_or_spectral(weyl_definitional, trip, lam)
            assert (m is None) == (want is None), (trip.kind, lam)
            if m is not None:
                scale = max(1.0, float(np.abs(want).max(initial=0.0)))
                np.testing.assert_allclose(m, want, rtol=0, atol=1e-9 * scale)


DATA = Path(__file__).resolve().parents[1] / "data"
RANK_TOL = DEFAULT_TOLERANCES.rank_tol
EPS = np.finfo(float).eps


@pytest.mark.parametrize("build", [triplet_main, triplet_basic, triplet_tilde])
@pytest.mark.parametrize("spec", sorted(DATA.glob("*.json")),
                         ids=lambda path: path.stem)
@pytest.mark.parametrize("lam", [
    RANK_TOL, -RANK_TOL, RANK_TOL * (1 - 1e-6), RANK_TOL * (1 + 1e-6),
    -RANK_TOL * (1 - 1e-6), -RANK_TOL * (1 + 1e-6),
], ids=["+tol", "-tol", "+below", "+above", "-below", "-above"])
def test_weyl_and_definitional_share_the_spectral_rule(build, spec, lam):
    # one rule for both routes: lambda is an eigenvalue of ker Gamma0 when
    # the pencil G0 - lambda F0 has numerical rank below n.  With dom
    # ker Gamma0 != {0} its singular value |lambda| is refused up to and
    # at rank_tol and let through just above it; the oracle's defect
    # space there carries a relative error of about eps / |lambda|
    bundle = lift(load_relation_spec(str(spec)).relation)
    trip = build(bundle)
    m = _weyl_or_spectral(weyl, trip, lam)
    want = _weyl_or_spectral(weyl_definitional, trip, lam)
    assert (m is None) == (want is None), (trip.kind, lam)
    n_dom = orthonormal_columns(trip.ker_gamma0.domain_block,
                                RANK_TOL).shape[1]
    assert (m is None) == (n_dom > 0 and abs(lam) <= RANK_TOL), (trip.kind,
                                                                  lam)
    if m is not None:
        scale = float(np.abs(want).max(initial=0.0))
        np.testing.assert_allclose(m, want, rtol=0,
                                   atol=10 * EPS / abs(lam) * scale)


# the default grid crosses |lambda| = rank_tol next to 0 (no disk around
# 0 is refused) and |lambda| = 1/rank_tol at 1e10; the one at
# rank_tol = 1e-3 crosses |lambda| = rank_tol and |lambda| = 1/rank_tol
SPECTRAL_GRIDS = {
    1e-10: (-2.0, -0.5, 1j, 1.5 - 0.5j, 1e-3, 1e3, 1e10, 1e11, -1e11,
            0.0, 1e-12, 1e-9, 5e-7, 1e-7j),
    1e-3: (1e-4, 9e-4, 1.1e-3, 1e-3j, 999.0, 1001.0, -1001.0),
}


class TestLaurentRoute:
    """Every lifted ker Gamma0 is extremal, so M(lambda) is evaluated as
    m0 + lambda m1 + m_inv / lambda."""

    @pytest.mark.parametrize("rank_tol", list(SPECTRAL_GRIDS))
    @pytest.mark.parametrize("spec", sorted(DATA.glob("*.json")),
                             ids=lambda path: path.stem)
    def test_spectral_decisions_on_shipped_specs(self, spec, rank_tol):
        # the pencil's singular values are 1 and |lambda|, the latter
        # dim dom ker Gamma0 times: lambda is refused iff that dimension
        # is positive and min(1, |lambda|) <= rank_tol * max(1, |lambda|)
        cfg = ToleranceConfig(rank_tol=rank_tol)
        bundle = lift(load_relation_spec(str(spec), cfg).relation, cfg)
        for build in (triplet_main, triplet_basic, triplet_tilde):
            trip = build(bundle)
            n_dom = orthonormal_columns(trip.ker_gamma0.domain_block,
                                        rank_tol).shape[1]
            assert n_dom < trip.star.n1  # some singular value is 1
            for lam in SPECTRAL_GRIDS[rank_tol]:
                r = abs(lam)
                singular = n_dom > 0 and min(1.0, r) <= rank_tol * max(1.0, r)
                m = _weyl_or_spectral(weyl, trip, lam)
                assert (m is None) == singular, (trip.kind, lam)

    @pytest.mark.parametrize("build", [triplet_main, triplet_basic,
                                       triplet_tilde])
    def test_accurate_far_from_unit_scale(self, build):
        bundle = lift(
            load_relation_spec(str(DATA / "halfline_embed.json")).relation)
        trip = build(bundle)
        for lam in (1e-9, 5e-7, 1e-7j, 1e-3, 1e3):
            want = closed_form_weyl(bundle, trip.kind, lam)
            err = np.abs(weyl(trip, lam) - want).max()
            assert err <= 1e-14 * max(1.0, np.abs(want).max()), (lam, err)


class TestExtensionFromBoundary:
    def test_recovers_h_and_k(self, bundle, trip_main):
        g = trip_main.g
        zero = from_operator(np.zeros((g, g)))
        mul = from_product(Subspace.zero(g), Subspace.full(g))
        assert_relation_equal(
            extension_from_boundary(trip_main, zero), bundle.K
        )
        assert_relation_equal(
            extension_from_boundary(trip_main, mul), bundle.H
        )

    def test_selfadjoint_parameter_gives_selfadjoint_extension(
        self, bundle, trip_main, rng
    ):
        theta = random_selfadjoint_relation(trip_main.g, rng=rng)
        ext = extension_from_boundary(trip_main, theta)
        rep = classify(ext)
        assert rep.is_selfadjoint
        assert relation_equal(bundle.S, ext).verdict in (
            Verdict.EQUAL, Verdict.SUBSET,
        )
        assert relation_equal(ext, bundle.S_star).verdict in (
            Verdict.EQUAL, Verdict.SUBSET,
        )

    @staticmethod
    def _symmetric_theta(g):
        # a 1-dim restriction of a Hermitian parameter: symmetric, and not
        # selfadjoint for g > 1
        basis = np.zeros((2 * g, 1), dtype=complex)
        basis[0, 0] = 1 / math.sqrt(2)
        basis[g, 0] = 1 / math.sqrt(2)
        return LinearRelation(g, g, Subspace(2 * g, basis))

    def test_symmetric_parameter_gives_symmetric_extension(
        self, bundle, trip_main
    ):
        theta = self._symmetric_theta(trip_main.g)
        ext = extension_definitional(trip_main, theta)
        assert classify(ext).is_symmetric

    def test_symmetric_parameter_is_refused_by_the_krein_route(
        self, trip_main
    ):
        # the resolvent formula needs a selfadjoint theta; the membership
        # route of the oracle takes both of these
        g = trip_main.g
        assert g > 1
        for theta in (self._symmetric_theta(g), from_operator(1j * np.eye(g))):
            with pytest.raises(PreconditionViolated,
                               match="theta is not selfadjoint"):
                extension_from_boundary(trip_main, theta)

    def test_wrong_parameter_dimension_is_refused(self, trip_main):
        theta = from_operator(np.eye(trip_main.g + 1))
        for route in (extension_from_boundary, extension_definitional):
            with pytest.raises(DimensionMismatch, match="parameter space"):
                route(trip_main, theta)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n1=st.integers(1, 6),
    n2=st.integers(1, 6),
    data=st.data(),
)
def test_krein_extension_matches_definitional_route(seed, n1, n2, data):
    # random lifts of every rank, all three triplets and their swapped
    # forms, and selfadjoint theta of every domain dimension: dom_dim < g
    # is a multivalued parameter
    rng = np.random.default_rng(seed)
    rank = data.draw(st.integers(0, n1 + n2), label="rank")
    bundle = lift(random_relation(n1, n2, rank=rank, rng=rng))
    for build in (triplet_main, triplet_basic, triplet_tilde):
        for trip in (build(bundle), swapped(build(bundle))):
            if trip.is_degenerate:
                continue
            dom_dim = data.draw(st.integers(0, trip.g), label="dom_dim")
            theta = random_selfadjoint_relation(trip.g, rng=rng,
                                                dom_dim=dom_dim)
            ext = extension_from_boundary(trip, theta)
            want = extension_definitional(trip, theta)
            assert_relation_equal(ext, want, msg=trip.kind)
            # the basis is the Cayley graph: column j is
            # ((A - i)^{-1} e_j, e_j + i (A - i)^{-1} e_j)
            n = ext.n1
            basis = ext.graph.basis
            for rel in (ext, want):
                res = resolvent(rel, 1j)
                np.testing.assert_allclose(basis[:n], res, rtol=0, atol=1e-12)
                np.testing.assert_allclose(basis[n:], np.eye(n) + 1j * res,
                                           rtol=0, atol=1e-12)


class TestSemiboundCriterion:
    @pytest.fixture
    def trip(self):
        # non-dense domain: R maps span{e1} into C^2
        c = np.array([[1.0], [0.0]])
        d = np.array([[1.0], [1.0]])
        from linrel.relation import from_kernel_pair

        return triplet_tilde(lift(from_kernel_pair(c, d)))

    def test_agreement_on_operator_parameters(self, trip, rng):
        for x in (-0.5, -1.5, -4.0, -20.0):
            theta = random_selfadjoint_relation(trip.g, rng=rng)
            res = semibound_criterion(trip, theta, x)
            assert res.agree, (
                f"x={x}: bound_holds={res.bound_holds} "
                f"parameter_holds={res.parameter_holds} "
                f"lower_bound={res.lower_bound}"
            )

    def test_agreement_on_multivalued_parameter(self, trip):
        g = trip.g
        theta = from_product(Subspace.zero(g), Subspace.full(g))
        res = semibound_criterion(trip, theta, -1.0)
        # ker Gamma0 is the Friedrichs extension: nonnegative, so both
        # sides of the criterion must come out true
        assert res.bound_holds and res.parameter_holds

    def test_rejects_nonnegative_threshold(self, trip):
        theta = from_operator(np.zeros((trip.g, trip.g)))
        with pytest.raises(PreconditionViolated, match="negative"):
            semibound_criterion(trip, theta, 0.5)

    def test_rejects_non_selfadjoint_parameter(self, trip):
        theta = from_operator(1j * np.eye(trip.g))
        with pytest.raises(PreconditionViolated, match="selfadjoint"):
            semibound_criterion(trip, theta, -1.0)

    def test_rejects_wrong_triplet(self):
        # the main triplet pins H, not the Friedrichs extension, when
        # the domain upstairs is not dense
        c = np.array([[1.0], [0.0]])
        d = np.array([[1.0], [1.0]])
        from linrel.relation import from_kernel_pair

        trip = triplet_main(lift(from_kernel_pair(c, d)))
        assert not trip.ker_gamma0_is_friedrichs
        theta = from_operator(np.zeros((trip.g, trip.g)))
        with pytest.raises(PreconditionViolated, match="Friedrichs"):
            semibound_criterion(trip, theta, -1.0)


class TestAlternativeExperiment:
    def test_spot_values(self):
        for c, delta, want in [
            (0.0, 1.0, -1.0),
            (1.0, 1.0, -1.0 - math.sqrt(2.0)),
            (2.0, 1.0, (-5.0 - math.sqrt(41.0)) / 2.0),
        ]:
            exp = alternative_experiment(c, delta)
            assert abs(exp.computed_bound - want) < 1e-8
            assert abs(exp.closed_form_bound - want) < 1e-12
            assert exp.criterion_agrees and exp.sufficient_bound_holds

    def test_large_slope(self):
        exp = alternative_experiment(10.0, 0.1)
        assert abs(exp.computed_bound - exp.closed_form_bound) < 1e-8
        assert exp.computed_bound < -10.0

    def test_monotone_divergence(self):
        bounds = [
            alternative_experiment(c, 1.0).computed_bound
            for c in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
        ]
        assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
        assert bounds[-1] < -1000.0

    def test_sufficient_bound_sits_below(self):
        for c in (0.0, 1.0, 5.0):
            exp = alternative_experiment(c, 2.0)
            assert exp.sufficient_bound < exp.computed_bound
