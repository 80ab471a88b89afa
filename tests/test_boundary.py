"""Boundary triplets for the lifted relation: Green identity, Weyl
functions and gamma fields, extensions from boundary parameters, and the
semiboundedness criterion."""

import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linrel.boundary import (
    BoundaryTriplet,
    _KernelSplit,
    _LaurentBlocks,
    _LiftedTriplet,
    _boundary_values,
    _split_holds,
    _split_map,
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
    _kernel_pencil_values,
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
from linrel.subspace import (
    Subspace,
    Verdict,
    _cayley,
    _is_orthonormal,
    oplus,
    orthonormal_columns,
)

from conftest import (
    assert_relation_equal,
    mixed_coordinates,
    off_coisometry,
    recoordinatized,
    swapped,
)


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

    @pytest.mark.parametrize("build",
                             [triplet_main, triplet_basic, triplet_tilde])
    def test_repr_names_the_kind_and_assembles_no_map(self, build):
        trip = build(lift(random_relation(3, 3, rank=2, rng=1)))
        text = repr(trip)
        assert f"kind={trip.kind!r}" in text
        assert "gamma" not in text
        assert not {"gamma0", "gamma1", "_parts"} & set(vars(trip))

    def test_hand_built_ker_gamma1_splits_the_map(self, bundle):
        # swapped(main) has Gamma1 = -Gamma0 of main, so its ker Gamma1 is
        # main's ker Gamma0, H, by the generic split of a plain triplet
        trip = swapped(triplet_main(bundle))
        assert type(trip) is BoundaryTriplet
        assert_relation_equal(trip.ker_gamma1, bundle.H)


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
        # dimension n/2), so M(lambda) is a Laurent polynomial and
        # f0 = [I; 0] spans dom H with the identity on its first n/2 rows
        blocks = trip.resolvent_blocks
        n = trip.star.n1
        assert isinstance(blocks, _LaurentBlocks)
        assert blocks.n_dom == n // 2
        assert blocks.dom is None
        want = np.zeros((n, n), dtype=complex)
        want[: n // 2, : n // 2] = 2j * np.eye(n // 2)
        got = blocks.resolvent(-2j, np.empty((n, n), dtype=complex))
        np.testing.assert_array_equal(got, want)

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
        g = trip.g
        hand = off_coisometry(trip, live_block, rng)
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


def _pencil_allows(trip, lam):
    """The shared rule on the oracle's kernel pencil: full rank n."""
    s = _kernel_pencil_values(trip, lam)
    kept = np.count_nonzero(s > RANK_TOL * max(float(s[0]), 1.0))
    return int(kept) == s.size


@pytest.mark.parametrize("build", [triplet_main, triplet_basic, triplet_tilde])
@pytest.mark.parametrize("spec", sorted(DATA.glob("*.json")),
                         ids=lambda path: path.stem)
@pytest.mark.parametrize("lam", [
    RANK_TOL * (1 - 1e-6), RANK_TOL * (1 + 1e-6),
    -RANK_TOL * (1 - 1e-6), -RANK_TOL * (1 + 1e-6),
], ids=["+below", "+above", "-below", "-above"])
def test_definitional_verdict_survives_new_coordinates(build, spec, lam, rng):
    # next to |lambda| = rank_tol, Gamma0 restricted to N_lambda has a
    # singular value of about |lambda|, and a rank rule on it decides by
    # less than eps; the oracle takes its verdict from the pencil alone.
    # So on the triplet, its swap and both in mixed coordinates it
    # answers exactly when the pencil rule allows lambda.  Where ker Gamma0
    # is extremal the pencil's values are exact, and mixed coordinates keep
    # the verdict and boundary.weyl's; a swapped main or tilde kernel (K)
    # is not extremal, and its computed |lambda| is as close to rank_tol
    # as its round-off, so only the first claim is made there
    trip = build(lift(load_relation_spec(str(spec)).relation))
    for t in (trip, swapped(trip)):
        mixed = mixed_coordinates(t, rng)
        allows = [_pencil_allows(u, lam) for u in (t, mixed)]
        for u, allowed in zip((t, mixed), allows):
            got = _weyl_or_spectral(weyl_definitional, u, lam)
            assert (got is not None) == allowed, (t.kind, lam)
        if isinstance(t.resolvent_blocks, _LaurentBlocks):
            assert allows[0] == allows[1], (t.kind, lam)
            for u in (t, mixed):
                assert (_weyl_or_spectral(weyl, u, lam) is not None) == (
                    allows[0]), (t.kind, lam)


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

    @pytest.mark.parametrize("rank_tol", [1e-10, 1e-8])
    def test_route_is_classify_dom_perp_ran(self, rank_tol, rng):
        # resolvent_blocks and classify read one dom-perp-ran rule on
        # ker Gamma0.  Lifted and mixed-coordinate kernels are extremal,
        # swapped main and tilde have K, and basic's Gamma0 + 5e-10 Gamma1
        # has a selfadjoint kernel with max |F0^H G0| = 5e-10, between the
        # two rank_tols
        cfg = ToleranceConfig(rank_tol=rank_tol)
        bundle = lift(random_relation(8, 8, rank=4, rng=5), cfg)
        basic = triplet_basic(bundle)
        nearly = BoundaryTriplet(
            basic.kind, basic.star, basic.boundary,
            basic.gamma0 + 5e-10 * basic.gamma1, basic.gamma1,
            basic.friedrichs, cfg,
        )
        kernel = nearly.ker_gamma0
        cross = kernel.domain_block.conj().T @ kernel.range_block
        np.testing.assert_allclose(np.abs(cross).max(), 5e-10, rtol=1e-6)
        trips = [nearly]
        for build in (triplet_main, triplet_basic, triplet_tilde):
            trip = build(bundle)
            trips += [trip, swapped(trip), mixed_coordinates(trip, rng)]
        routes = []
        for trip in trips:
            laurent = isinstance(trip.resolvent_blocks, _LaurentBlocks)
            assert laurent is classify(trip.ker_gamma0, cfg).dom_perp_ran, (
                trip.kind)
            routes.append(laurent)
        # nearly, then (lifted, swapped, mixed) for main, basic and tilde
        assert routes == [rank_tol > 5e-10, True, False, True,
                          True, True, True, True, False, True]

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


@pytest.mark.parametrize("n1, n2, rank", [
    (4, 4, 2), (4, 4, 4), (4, 4, 6), (3, 5, 4), (5, 3, 1),
])
@pytest.mark.parametrize("build", [triplet_main, triplet_basic, triplet_tilde])
def test_cayley_gram_in_closed_form_is_the_gram_test(build, n1, n2, rank):
    # the Gram matrix I + 2 R^H R + i (R - R^H) decides as the Gram test of
    # the assembled basis [R; I + iR]: it accepts A_theta's, and rejects an
    # R with one entry moved by 1e-6 or with a NaN by the same ValueError,
    # before any RuntimeWarning; a move of 1e-9 stays inside both
    trip = build(lift(random_relation(n1, n2, rank=rank, rng=5)))
    if trip.is_degenerate:
        assert trip.kind == "basic" and rank >= max(n1, n2)
        return
    ext = extension_from_boundary(trip, random_selfadjoint_relation(trip.g,
                                                                    rng=3))
    n = ext.n1
    res = ext.graph.basis[:n]
    assert ext.graph.basis.tobytes() == np.vstack(
        [res, np.eye(n) + 1j * res]).tobytes()
    for value, accepted in ((1e-9, True), (1e-6, False), (np.nan, False)):
        moved = res.copy()
        moved[0, -1] += value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assembled = np.vstack([moved, np.eye(n) + 1j * moved])
            assert _is_orthonormal(assembled) is accepted
            # _cayley takes R in the upper half and writes the lower
            buffer = np.vstack([moved, np.zeros_like(moved)])
            if accepted:
                assert _cayley(buffer).basis.tobytes() == assembled.tobytes()
                continue
            message = "^basis columns are not orthonormal$"
            with pytest.raises(ValueError, match=message):
                Subspace(2 * n, assembled)
            with pytest.raises(ValueError, match=message):
                _cayley(buffer)


def _krein_term_by_term(trip, theta):
    """R = (A0 - i)^{-1} + (gamma(i) C) gamma(-i)^H, C = X (Y - M(i) X)^{-1}
    solved transposed, each term its own array."""
    n = trip.star.n1
    res = _boundary_values(trip, 1j, trip.cfg.rank_tol, gamma=False,
                           out=np.empty((n, n), dtype=complex))[2]
    t_dom = theta.domain_block
    coupling = np.linalg.solve((theta.range_block - weyl(trip, 1j) @ t_dom).T,
                               t_dom.T).T
    res += (gamma_field(trip, 1j) @ coupling) @ gamma_field(trip, -1j).conj().T
    return res


@pytest.mark.parametrize("n", [4, 12, 24])
def test_krein_formula_in_the_cayley_basis_is_bit_for_bit(n):
    # R formed inside the Cayley basis, its correction added from the
    # lower half, is the R of the formula written out, to the last bit:
    # on the lifted triplets, on a hand-built one (dense Laurent blocks)
    # and on a swapped one (the pencil route)
    bundle = lift(random_relation(n, n, rank=n // 2, rng=n))
    for build in (triplet_main, triplet_basic, triplet_tilde):
        lifted = build(bundle)
        trips = [lifted, _hand_built(lifted)]
        if build is triplet_main:
            trips.append(swapped(lifted))
        for trip in trips:
            for dom_dim in (trip.g, trip.g // 2):
                theta = random_selfadjoint_relation(trip.g, rng=3,
                                                    dom_dim=dom_dim)
                res = _krein_term_by_term(trip, theta)
                want = np.vstack([res, np.eye(len(res)) + 1j * res])
                got = extension_from_boundary(trip, theta).graph.basis
                assert got.tobytes() == want.tobytes(), (trip.kind, dom_dim)


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

    def test_rejects_trivial_parameter_space(self):
        # dense domain and range: the basic triplet has G0 = {0}, and its
        # Gamma0-kernel S0* = S0 is the Friedrichs extension
        trip = triplet_basic(lift(from_operator(np.eye(2))))
        assert trip.ker_gamma0_is_friedrichs and trip.is_degenerate
        with pytest.raises(PreconditionViolated, match="trivial"):
            semibound_criterion(trip, from_operator(np.zeros((1, 1))), -1.0)

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




# The closed forms: a lifted triplet's Laurent blocks are formed from P
# and dom R, and the splits of the live blocks of Gamma0 and Gamma1 come
# from the lift's parts, so neither its Weyl set-up nor its kernels
# factor anything.  _split_map and the whole kernel split of a hand-built
# copy (the same maps, the generic route) are their oracle.


def _hand_built(trip):
    return BoundaryTriplet(trip.kind, trip.star, trip.boundary, trip.gamma0,
                           trip.gamma1, trip.friedrichs, trip.cfg)


def _whole_star_maps(trip, n1):
    """Gamma0 and Gamma1 as projections of the whole star's rows."""
    w, n = trip.star.graph.basis, trip.star.n1
    h1, h2, k1, k2 = w[:n1], w[n1:n], w[n : n + n1], w[n + n1 :]
    ph = trip.boundary.basis.conj().T
    if trip.kind == "basic":
        return ph @ w[:n], ph @ w[n:]
    return ph @ np.vstack([-k1, h2]), ph @ np.vstack([h1, k2])


def _kernel_projector(split, d):
    """Q0 Q0^H for the orthonormal basis Q0 = [E_dead, E_live N] of a
    split's kernel, as a d x d matrix."""
    dead = np.arange(d)[split.dead]
    q0 = np.zeros((d, dead.size + split.null.shape[1]), dtype=complex)
    q0[dead, np.arange(dead.size)] = 1.0
    q0[split.live, dead.size :] = split.null
    return q0 @ q0.conj().T


def _assert_close(got, want, what):
    # c eps: the two routes differ by round-off in bases of the same spans
    err = float(np.abs(got - want).max(initial=0.0))
    assert err <= 1e3 * EPS, f"{what}: {err:.3e}"


def _check_closed_forms(bundle):
    for build in (triplet_main, triplet_basic, triplet_tilde):
        trip = build(bundle)
        want0, want1 = _whole_star_maps(trip, bundle.n1)
        _assert_close(trip.gamma0, want0, f"{trip.kind} Gamma0")
        _assert_close(trip.gamma1, want1, f"{trip.kind} Gamma1")
        if trip.is_degenerate:
            continue
        d, length = trip.star.dim, trip.star.graph.ambient_dim
        for known, gamma, name in ((trip._parts[2], trip.gamma0, "Gamma0"),
                                   (trip._parts[3], trip.gamma1, "Gamma1")):
            assert _split_holds(known, gamma, length), (trip.kind, name)
            oracle = _split_map(gamma, length, RANK_TOL)
            assert oracle.pinv is None and oracle.rank == trip.g
            _assert_close(_kernel_projector(known, d),
                          _kernel_projector(oracle, d),
                          f"{trip.kind} ker {name}")

        # the closed-form blocks against the whole split's: its constant
        # term Gamma1 Q1 is zero to round-off, gamma(lambda) is compared
        # as a value (the lifted blocks hold P once, the split's hold two
        # dense terms), and f0 f0^H is read through the resolvent at
        # lambda = -1
        got, want = trip.resolvent_blocks, _hand_built(trip).resolvent_blocks
        assert isinstance(got, _LaurentBlocks), trip.kind
        assert isinstance(want, _LaurentBlocks), trip.kind
        assert got.m0 is None
        _assert_close(want.m0, 0.0, f"{trip.kind} m0")
        for name in ("m1", "m_inv"):
            value = getattr(got, name)
            _assert_close(0.0 if value is None else value,
                          getattr(want, name), f"{trip.kind} {name}")
        for lam in (-1.0, 1j, 2.5 - 0.5j):
            _assert_close(got.gamma(1 / lam), want.gamma(1 / lam),
                          f"{trip.kind} gamma({lam})")
        n = trip.star.n1
        _assert_close(got.resolvent(-1.0, np.empty((n, n), dtype=complex)),
                      want.resolvent(-1.0, np.empty((n, n), dtype=complex)),
                      f"{trip.kind} f0 f0^H")
        assert got.n_dom == want.n_dom


def _special_relation(shape, n, rng):
    """A relation in C^n x C^n with a trivial part: dom R = {0}
    (mul R* = C^n), ran R = {0} (ker R* = C^n), or dense domain and
    range (mul R* = ker R* = {0}: the basic triplet is degenerate)."""
    if shape == "dense":
        return random_relation(n, n, rank=n, rng=rng)
    part = orthonormal_columns(
        rng.normal(size=(n, n // 2 + 1)) + 1j * rng.normal(size=(n, n // 2 + 1)),
        RANK_TOL)
    zero = Subspace.zero(n)
    space = Subspace(n, part)
    if shape == "dom0":
        return from_product(zero, space)
    return from_product(space, zero)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(2, 8),
    shape=st.sampled_from(["1", "n/2", "n", "3n/2", "2n-1",
                           "dom0", "ran0", "dense"]),
)
def test_closed_forms_match_the_whole_split(seed, n, shape):
    # ranks 1 .. 2n - 1, and dom R, ran R or both halves of G0 trivial
    rng = np.random.default_rng(seed)
    ranks = {"1": 1, "n/2": n // 2, "n": n, "3n/2": 3 * n // 2,
             "2n-1": 2 * n - 1}
    rel = (random_relation(n, n, rank=ranks[shape], rng=rng)
           if shape in ranks else _special_relation(shape, n, rng))
    _check_closed_forms(lift(rel))


@pytest.mark.parametrize("spec", sorted(DATA.glob("*.json")),
                         ids=lambda path: path.stem)
def test_closed_forms_on_every_spec(spec):
    _check_closed_forms(lift(load_relation_spec(str(spec)).relation))


def _parent_builder_maps(bundle, kind):
    """Gamma0 and Gamma1 as the eager builders formed them: the blocks
    P^H [-B_k1; B_h2], P_1^H D and P_2^H (main, tilde), or P_1^H,
    P_2^H K, P_1^H M and P_2^H (basic), zero-padded on the star's
    columns."""
    n1, n2 = bundle.n1, bundle.n2
    if kind == "basic":
        star, p = bundle.S0_star, bundle.G0
        ker, mul = bundle.ker_R_star, bundle.mul_R_star
        ph, cut = p.basis.conj().T, n1 + ker.dim
        gamma0 = np.zeros((p.dim, star.dim), dtype=complex)
        gamma1 = np.zeros_like(gamma0)
        gamma0[:, :n1] = ph[:, :n1]
        gamma0[:, n1:cut] = ph[:, n1:] @ ker.basis
        gamma1[:, cut:cut + mul.dim] = ph[:, :n1] @ mul.basis
        gamma1[:, cut + mul.dim:] = ph[:, n1:]
        return gamma0, gamma1
    star, p, dom = {"main": (bundle.S_star, bundle.G, None),
                    "tilde": (bundle.S_tilde_star, bundle.G_tilde,
                              bundle.dom_R.basis)}[kind]
    b = bundle.R_star.graph.basis
    ph = p.basis.conj().T
    first = n1 if dom is None else dom.shape[1]
    live = slice(first, first + b.shape[1])
    gamma0 = np.zeros((p.dim, star.dim), dtype=complex)
    gamma1 = np.zeros_like(gamma0)
    gamma0[:, live] = ph @ np.vstack([-b[n2:], b[:n2]])
    gamma1[:, :first] = ph[:, :n1] if dom is None else ph[:, :n1] @ dom
    gamma1[:, live.stop:] = ph[:, n1:]
    return gamma0, gamma1


@pytest.mark.parametrize("rank", [1, 4, 8, 12, 15])
def test_maps_are_assembled_on_first_read_as_the_builders_formed_them(rank):
    # no triplet holds a map until one is read; the read gives the bytes
    # of the eager builder's zero-padded blocks, once
    bundle = lift(random_relation(8, 8, rank=rank, rng=rank))
    for build in (triplet_main, triplet_basic, triplet_tilde):
        trip = build(bundle)
        assert not {"gamma0", "gamma1"} & set(vars(trip)), trip.kind
        want0, want1 = _parent_builder_maps(bundle, trip.kind)
        assert trip.gamma0.tobytes() == want0.tobytes(), trip.kind
        assert trip.gamma1.tobytes() == want1.tobytes(), trip.kind
        assert trip.gamma0.shape == want0.shape
        assert trip.gamma0 is trip.gamma0 and trip.gamma1 is trip.gamma1


@pytest.mark.parametrize("build", [triplet_basic, triplet_tilde])
def test_parts_route_off_its_kernel_takes_the_whole_split(build, rng):
    # mul R* moved by 1e-9: [D; 0] (basic) and B^H [0; M] (tilde) miss the
    # kernel of A by far more than round-off.  A replaced bundle carries
    # no mark of lift, so its triplets are plain ones on the same maps,
    # split by _split_map, and M(lambda) is the hand-built triplet's, bit
    # for bit
    bundle = lift(random_relation(6, 6, rank=3, rng=5))
    assert bundle._from_lift
    assert not dataclasses.replace(bundle)._from_lift
    mul = bundle.mul_R_star
    noise = rng.normal(size=mul.basis.shape) + 1j * rng.normal(
        size=mul.basis.shape)
    moved = Subspace(mul.ambient_dim,
                     orthonormal_columns(mul.basis + 1e-9 * noise, RANK_TOL))
    bundle = dataclasses.replace(
        bundle, mul_R_star=moved, G0=oplus(moved, bundle.ker_R_star))
    trip = build(bundle)
    assert type(trip) is BoundaryTriplet
    lazy = _LiftedTriplet(trip.kind, trip.star, trip.boundary, bundle)
    assert not _split_holds(lazy._parts[2], trip.gamma0,
                            trip.star.graph.ambient_dim)
    hand = _hand_built(trip)
    for lam in (-1.0, 1j, 2.5 - 0.5j):
        np.testing.assert_array_equal(weyl(trip, lam), weyl(hand, lam))
