"""SVD budget of classify, relate, lift, the triplet builders, the Weyl
function, the Krein-formula extension, the sub-relation builders and the
block calculus, at a fixed seed.

numpy.linalg.svd calls are counted, so a change that re-forms an adjoint
inside lift, factors the triplet kernels eagerly, or re-orthonormalizes a
graph basis times a nullspace basis fails here, not only in the
benchmark.  The kernels themselves are checked on first access.  Gram
tests of Subspace bases are counted too, so a change that routes one of
lift's stacked or swapped bases back through the Gram product fails here
as well.  Verdict-only angles (classify's symmetry, lift's S* check,
theta's selfadjointness test) are Frobenius brackets that factor nothing
away from angle_tol, and relate factors one containment angle at most.
A Weyl function evaluated again on a triplet with an extremal ker Gamma0
(every lifted one, in any graph coordinates) may call no numpy.linalg
function at all.  Its first call uses only the live (not exactly zero)
columns of Gamma0, a co-isometry on every lifted triplet: no SVD, and one
QR where the live block has a kernel (none for main).  On the swapped
main and tilde triplets each lambda costs one values-only SVD and one
solve of the n x n pencil, and no eigensolver runs.  numerical_radius
factors the domain block once however many angles it searches, with one
batched eigvalsh per grid of angles.
"""

from pathlib import Path

import numpy as np
import pytest

from linrel import relation, subspace
from linrel.blockcalc import Block2x2, block, column, row
from linrel.boundary import (
    extension_from_boundary,
    gamma_field,
    triplet_basic,
    triplet_main,
    triplet_tilde,
    weyl,
)
from linrel.config import ToleranceConfig
from linrel.extension import friedrichs_generic, krein_generic, lift
from linrel.oracle import random_relation, random_selfadjoint_relation
from linrel.relation import classify, defect_relation, relation_equal
from linrel.specio import load_relation_spec
from linrel.subspace import Verdict, meet, relate, span

from conftest import assert_relation_equal, mixed_coordinates, swapped

DATA = Path(__file__).resolve().parents[1] / "data"

N = 8
# the S* self-check is a Frobenius bracket, not an SVD
LIFT_SVD_BUDGET = 8
# Gram checks per lift, by rank: the bases lift factors (G, dom R, ran R,
# mul R*, ker R*, and for G~ the multivalued and operator parts of R*).
# At ranks N and 3N/2, mul R* = ker R* = {0} take no check and R* is its
# own operator part, hence 7/3/3.  R* and G~ are signed swaps of G and of
# op R*, and the lifted relations are stacks: none takes a Gram product.
LIFT_GRAM_CHECKS = {N // 2: 7, N: 3, 3 * N // 2: 3}
# adjoint factors the complement of the graph and flips it; inverse only
# swaps the graph's components
RELATION_GRAM_CHECKS = {"adjoint": 1, "inverse": 0}


@pytest.fixture
def svd_calls(monkeypatch):
    calls = []
    real_svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append((np.shape(args[0]), kwargs.get("compute_uv", True)))
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


@pytest.fixture
def gram_checks(monkeypatch):
    calls = []
    real_check = subspace._is_orthonormal

    def counted(basis):
        calls.append(basis.shape)
        return real_check(basis)

    monkeypatch.setattr(subspace, "_is_orthonormal", counted)
    return calls


@pytest.mark.parametrize("make, selfadjoint", [
    (lambda: random_selfadjoint_relation(N, rng=0, dom_dim=5, nonneg=True),
     True),
    (lambda: random_relation(N, N, rank=N, rng=0), False),
], ids=["symmetric", "skew-part-O(1)"])
def test_classify_factors_nothing(make, selfadjoint, svd_calls, monkeypatch):
    # verdicts only: no operator part, no lower bound, no numerical radius,
    # and the Frobenius bracket decides the symmetry angle of a skew part
    # at round-off or of order one without an SVD
    def no_radius(*args, **kwargs):
        raise AssertionError("classify computed the numerical radius")

    monkeypatch.setattr(relation, "numerical_radius", no_radius)
    rel = make()
    svd_calls.clear()
    rep = classify(rel)
    assert rep.is_selfadjoint is selfadjoint
    assert rep.is_nonnegative is selfadjoint
    assert svd_calls == [], svd_calls


def test_numerical_radius_factors_once_at_any_angle_grid(svd_calls,
                                                         monkeypatch):
    # one SVD of F, whatever the grid (the angle of mul R against dom R is
    # a Frobenius bracket); then one batched eigvalsh for the coarse grid
    # and one per zoom, until the spacing h has h^2/8 <= eps
    eig_calls = []
    real_eigvalsh = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        eig_calls.append(np.shape(args[0]))
        return real_eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    rel = random_selfadjoint_relation(N, rng=0, dom_dim=5)
    for angles, windows in ((65, 4), (17, 1), (257, 2)):
        monkeypatch.setattr(relation, "_RADIUS_ANGLES", angles)
        monkeypatch.setattr(relation, "_RADIUS_WINDOWS", windows)
        zooms, step = 0, np.pi / angles
        while step * step / 8.0 > np.finfo(float).eps:
            zooms, step = zooms + 1, step * 2.0 / (angles - 1)
        svd_calls.clear()
        eig_calls.clear()
        relation.numerical_radius(rel)
        assert svd_calls == [((N, N), True)], svd_calls
        assert eig_calls[0] == (angles, 5, 5), eig_calls
        assert len(eig_calls) == zooms + 1, eig_calls
        for count, *tail in eig_calls[1:]:
            assert count in range(angles, windows * angles + 1, angles)
            assert tail == [5, 5], eig_calls


@pytest.mark.parametrize("rank", [N // 2, N, 3 * N // 2])
def test_lift_stays_within_budget(rank, svd_calls):
    rel = random_relation(N, N, rank=rank, rng=5)
    svd_calls.clear()
    lift(rel)
    assert len(svd_calls) <= LIFT_SVD_BUDGET, svd_calls


@pytest.mark.parametrize("rank", list(LIFT_GRAM_CHECKS))
def test_lift_gram_checks_only_factored_bases(rank, gram_checks):
    rel = random_relation(N, N, rank=rank, rng=5)
    gram_checks.clear()
    bundle = lift(rel)
    assert len(gram_checks) == LIFT_GRAM_CHECKS[rank], gram_checks
    # no basis of C^{2n}, the lift's own graph space, is Gram-tested
    assert all(rows < 2 * bundle.n for rows, _ in gram_checks), gram_checks


@pytest.mark.parametrize("name", list(RELATION_GRAM_CHECKS))
@pytest.mark.parametrize("rank", [N // 2, N, 3 * N // 2])
def test_adjoint_and_inverse_gram_checks(name, rank, gram_checks):
    rel = random_relation(N, N, rank=rank, rng=5)
    gram_checks.clear()
    getattr(relation, name)(rel)
    assert len(gram_checks) == RELATION_GRAM_CHECKS[name], gram_checks


def _same_bits(got, want):
    return (got.flags.f_contiguous == want.flags.f_contiguous
            and got.flags.c_contiguous == want.flags.c_contiguous
            and got.tobytes("A") == want.tobytes("A"))


@pytest.mark.parametrize("make", [
    lambda: random_relation(N, N, rank=N // 2, rng=5),
    lambda: random_relation(3, 5, rank=3, rng=5),
    lambda: random_relation(5, 3, rank=6, rng=5),
    # real entries and exact zeros: the signs of zeros must survive too
    lambda: load_relation_spec(DATA / "halfline_embed.json").relation,
], ids=["square", "wide", "tall", "halfline"])
def test_flips_are_the_hand_built_signed_stacks(make):
    # bit for bit and in the same memory order: later factorizations of
    # these bases (and the printed G~) depend on both
    rel = make()
    n1 = rel.n1
    bundle = lift(rel)
    g = subspace.complement(rel.graph).basis
    assert _same_bits(bundle.R_star.graph.basis,
                      np.vstack([-g[n1:], g[:n1]]))
    assert _same_bits(relation.inverse(rel).graph.basis,
                      np.vstack([rel.range_block, rel.domain_block]))
    op = relation.operator_part(bundle.R_star)
    assert _same_bits(bundle.G_tilde.basis,
                      np.vstack([op.range_block, -op.domain_block]))


@pytest.mark.parametrize("rank", [N // 2, N, 3 * N // 2])
def test_triplet_builders_factor_nothing(rank, svd_calls):
    bundle = lift(random_relation(N, N, rank=rank, rng=5))
    svd_calls.clear()
    trips = [build(bundle) for build in (triplet_main, triplet_basic, triplet_tilde)]
    assert svd_calls == []

    targets = {
        "main": (bundle.H, bundle.K),
        "basic": (bundle.S_F, bundle.S_K),
        "tilde": (bundle.S_F, bundle.K),
    }
    for trip in trips:
        want0, want1 = targets[trip.kind]
        assert_relation_equal(trip.ker_gamma0, want0)
        assert_relation_equal(trip.ker_gamma1, want1)
        assert trip.ker_gamma0 is trip.ker_gamma0  # computed once
    # main pins H, which is S_F only when G0 = {0}
    h_is_sf = relation_equal(bundle.H, bundle.S_F).verdict is Verdict.EQUAL
    assert [t.ker_gamma0_is_friedrichs for t in trips] == [h_is_sf, True, True]


FACTORIZATIONS = ("svd", "eigh", "eigvalsh", "eig", "solve", "inv", "qr")


@pytest.fixture
def linalg_calls(monkeypatch):
    calls = []
    for name in FACTORIZATIONS:
        real = getattr(np.linalg, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls.append((_name, np.shape(args[0])))
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("dom_dim", [N, 5])
def test_lower_bound_reads_the_whitened_form(dom_dim, linalg_calls,
                                             monkeypatch):
    # the SVD of the domain block and one eigvalsh of Re B, single-valued
    # (dom_dim = N) or not; _symmetry's bracket factors nothing, and there
    # is no operator part and no second factorization of mul R
    def refused(*args, **kwargs):
        raise AssertionError("lower_bound rebuilt the operator part")

    monkeypatch.setattr(relation, "operator_part", refused)
    monkeypatch.setattr(relation, "_mul", refused)
    rel = random_selfadjoint_relation(N, rng=0, dom_dim=dom_dim)
    linalg_calls.clear()
    assert np.isfinite(relation.lower_bound(rel))
    assert linalg_calls == [("svd", (N, N)),
                            ("eigvalsh", (dom_dim, dom_dim))], linalg_calls


def _live_width(trip, bundle):
    """Columns of Gamma0 that are not exactly zero, by triplet kind."""
    return {
        "main": trip.g,
        "basic": bundle.n1 + bundle.ker_R_star.dim,
        "tilde": bundle.R_star.dim,
    }[trip.kind]


def _set_up(trip, bundle):
    """The factorizations of a lifted triplet's first Weyl call.

    Its live block A (g x live) is a co-isometry: no SVD, and one complete
    QR of A^H for the kernel when live > g.  live = g for main always, and
    for tilde when mul R* = {0}; a degenerate triplet has no live column.
    """
    if trip.is_degenerate:
        return []
    g, live = trip.g, _live_width(trip, bundle)
    return [("qr", (live, g))] if live > g else []


@pytest.mark.parametrize("rank", [N // 2, N, 3 * N // 2])
@pytest.mark.parametrize("build", [triplet_main, triplet_basic, triplet_tilde])
def test_weyl_factors_gamma0_once_per_triplet(build, rank, linalg_calls):
    # at most one QR on the first call, of Gamma0's live block only, and no
    # SVD or eigh: a lifted Gamma0 is a co-isometry, and a lifted
    # ker Gamma0 is extremal, so M(lambda) is a Laurent polynomial.  Then
    # each lambda costs sums only, whatever cfg weyl is given
    bundle = lift(random_relation(N, N, rank=rank, rng=5))
    trip = build(bundle)
    linalg_calls.clear()
    weyl(trip, -1.0)
    assert linalg_calls == _set_up(trip, bundle), linalg_calls
    if trip.kind == "main":
        assert linalg_calls == []
    elif not trip.is_degenerate:
        assert _live_width(trip, bundle) < trip.gamma0.shape[1]
        # basic and tilde have a kernel in the live block at rank N/2
        assert len(linalg_calls) == (rank == N // 2)
    later = (
        lambda: weyl(trip, 1j),
        lambda: gamma_field(trip, -0.5),
        lambda: weyl(trip, 2.0, ToleranceConfig(rank_tol=1e-12)),
    )
    for call in later:
        linalg_calls.clear()
        call()
        assert linalg_calls == []


@pytest.mark.parametrize("rank", [N // 2, N, 3 * N // 2])
@pytest.mark.parametrize("build", [triplet_main, triplet_tilde])
def test_swapped_triplets_still_rotate(build, rank, svd_calls, linalg_calls):
    # ker Gamma0 of the swapped main and tilde triplets is K, whose
    # nonzero eigenvalues make it not extremal.  No eigh or eig runs at
    # all, and each lambda after the set-up solves the n x n pencil
    # G0 - lambda F0 by one values-only SVD and one solve.  (swapped basic
    # has the extremal ker Gamma0 = S_K and takes the Laurent route.)  The
    # swapped Gamma0 is the co-isometric Gamma1, so the set-up is a QR.
    trip = swapped(build(lift(random_relation(N, N, rank=rank, rng=5))))
    n = trip.star.n1
    linalg_calls.clear()
    weyl(trip, -1.0)
    assert [name for name, _ in linalg_calls] == ["qr", "svd", "solve"], (
        linalg_calls)
    later = (
        lambda: weyl(trip, 1j),
        lambda: gamma_field(trip, -0.5),
        lambda: weyl(trip, 2.0, ToleranceConfig(rank_tol=1e-12)),
    )
    for call in later:
        svd_calls.clear()
        linalg_calls.clear()
        call()
        assert linalg_calls == [("svd", (n, n)), ("solve", (n, n))], (
            linalg_calls)
        assert svd_calls == [((n, n), False)], svd_calls


@pytest.fixture
def every_linalg_call(monkeypatch):
    calls = []
    for name in np.linalg.__all__:
        real = getattr(np.linalg, name)
        if not callable(real) or isinstance(real, type):
            continue

        def counted(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("rank", [N // 2, N, 3 * N // 2])
def test_main_set_up_calls_no_linalg(rank, every_linalg_call):
    # the main triplet's live block is a square co-isometry: Q1 = A^H and
    # no kernel beyond the dead axes, so nothing is factored or inverted
    trip = triplet_main(lift(random_relation(N, N, rank=rank, rng=5)))
    every_linalg_call.clear()
    assert isinstance(trip.resolvent_blocks, tuple)
    assert every_linalg_call == []


@pytest.mark.parametrize("du, dv, factored", [
    (3, 3, True), (2, 5, True), (5, 2, True), (0, 4, False), (4, 0, False),
    (0, 0, False),
])
def test_relate_factors_once(du, dv, factored, svd_calls):
    # one values-only SVD of the smaller space's residual against the
    # larger (either one at equal dimension); an empty space needs none
    rng = np.random.default_rng(9)

    def space(d):
        raw = rng.normal(size=(N, d)) + 1j * rng.normal(size=(N, d))
        return span(raw, N)

    u, v = space(du), space(dv)
    svd_calls.clear()
    relate(u, v)
    assert svd_calls == ([((N, min(du, dv)), False)] if factored else []), (
        svd_calls)


@pytest.mark.parametrize("build, rank, coordinates", [
    (triplet_basic, N // 2, mixed_coordinates),
    (triplet_basic, N, mixed_coordinates),
    (triplet_tilde, N // 2, mixed_coordinates),
    (triplet_basic, N // 2, lambda trip, rng: swapped(trip)),
], ids=["mixed_basic", "mixed_basic_degenerate", "mixed_tilde",
        "swapped_basic"])
def test_laurent_route_does_not_depend_on_coordinates(build, rank,
                                                      coordinates, rng,
                                                      every_linalg_call):
    # the route is chosen by dom ker Gamma0 perp ran ker Gamma0, which a
    # unitary change of graph coordinates keeps: the mixed kernels of
    # basic and tilde (S_F) and swapped basic's S_K are extremal, so
    # after the set-up no lambda calls numpy.linalg at all
    trip = coordinates(build(lift(random_relation(N, N, rank=rank, rng=5))),
                       rng)
    weyl(trip, -1.0)
    later = (
        lambda: weyl(trip, 1j),
        lambda: gamma_field(trip, -0.5),
        lambda: weyl(trip, 1e3, ToleranceConfig(rank_tol=1e-12)),
    )
    for call in later:
        every_linalg_call.clear()
        call()
        assert every_linalg_call == []


# {W c : M c = 0} needs the factorizations that find M and its nullspace,
# and none after: W c is orthonormal when W and c are
SUB_RELATION_BUDGETS = {
    "friedrichs_generic": 4,
    "krein_generic": 4,
    "defect_relation": 1,
}


def _build_sub_relation(name, bundle):
    if name == "defect_relation":
        return lambda: defect_relation(bundle.S_star, 1j)
    generic = {"friedrichs_generic": friedrichs_generic,
               "krein_generic": krein_generic}[name]
    return lambda: generic(bundle.S)


@pytest.mark.parametrize("name", list(SUB_RELATION_BUDGETS))
@pytest.mark.parametrize("rank", [N // 2, N, 3 * N // 2])
def test_sub_relation_builders_factor_no_product(name, rank, svd_calls):
    build = _build_sub_relation(name, lift(random_relation(N, N, rank=rank, rng=5)))
    svd_calls.clear()
    rel = build()
    assert len(svd_calls) <= SUB_RELATION_BUDGETS[name], svd_calls
    basis = rel.graph.basis
    gram_err = np.abs(basis.conj().T @ basis - np.eye(rel.dim))
    assert np.max(gram_err, initial=0.0) < 1e-12


# basic at ranks N and 3N/2 has G0 = {0}: no parameter to extend by
EXTENSION_CASES = [
    (build, rank)
    for build in (triplet_main, triplet_basic, triplet_tilde)
    for rank in (N // 2, N, 3 * N // 2)
    if build is not triplet_basic or rank == N // 2
]


@pytest.mark.parametrize("fresh", [False, True], ids=["set-up-paid", "fresh"])
@pytest.mark.parametrize("build, rank", EXTENSION_CASES)
def test_krein_extension_solves_once(build, rank, fresh, svd_calls,
                                     linalg_calls):
    # Krein's formula on the cached blocks: one g x g solve, and on a fresh
    # triplet the set-up's QR (if any) before it.  The selfadjointness
    # test of theta is a Frobenius bracket, and nothing runs an SVD
    bundle = lift(random_relation(N, N, rank=rank, rng=5))
    trip = build(bundle)
    theta = random_selfadjoint_relation(trip.g, rng=3)
    if not fresh:
        weyl(trip, -1.0)
    svd_calls.clear()
    linalg_calls.clear()
    ext = extension_from_boundary(trip, theta)
    g = trip.g
    set_up = _set_up(trip, bundle) if fresh else []
    assert linalg_calls == [*set_up, ("solve", (g, g))], linalg_calls
    assert svd_calls == [], svd_calls
    basis = ext.graph.basis
    gram_err = np.abs(basis.conj().T @ basis - np.eye(ext.dim))
    assert np.max(gram_err, initial=0.0) < 1e-12


@pytest.mark.parametrize("build", [triplet_main, triplet_tilde])
def test_krein_extension_on_a_pencil_kernel(build, svd_calls, linalg_calls):
    # ker Gamma0 = K of the swapped main and tilde triplets is not
    # extremal: besides the g x g solve, one values-only SVD and one solve
    # of the n x n pencil at +i, whose right-hand side also yields
    # (A0 - i)^{-1}, and the same at -i; theta's test factors nothing
    trip = swapped(build(lift(random_relation(N, N, rank=N // 2, rng=5))))
    theta = random_selfadjoint_relation(trip.g, rng=3)
    weyl(trip, -1.0)
    svd_calls.clear()
    linalg_calls.clear()
    extension_from_boundary(trip, theta)
    g, n = trip.g, trip.star.n1
    pencil = [("svd", (n, n)), ("solve", (n, n))]
    assert linalg_calls == [*pencil, *pencil, ("solve", (g, g))], (
        linalg_calls)
    assert all(not uv for _, uv in svd_calls), svd_calls


# row and column are images of their entries' graph coefficients, and meet
# is u times a coefficient nullspace: none forms a graph complement
CALCULUS_BUDGETS = {"meet": 1, "row": 1, "column": 2, "block": 5}


def _build_calculus(name, h1, h2):
    rng = np.random.default_rng(7)

    def rel(n1, n2):
        return random_relation(n1, n2, rank=(n1 + n2) // 2, rng=rng)

    if name == "meet":
        shared = rng.normal(size=(h1 + h2, 1))
        u = span(np.hstack([shared, rng.normal(size=(h1 + h2, h1))]))
        v = span(np.hstack([shared, rng.normal(size=(h1 + h2, h2))]))
        return lambda: meet(u, v)
    if name == "row":
        c, d = rel(h1, h1), rel(h2, h1)
        return lambda: row(c, d).graph
    if name == "column":
        a, b = rel(h1, h1), rel(h1, h2)
        return lambda: column(a, b).graph
    entries = Block2x2(e11=rel(h1, h1), e12=rel(h2, h1),
                       e21=rel(h1, h2), e22=rel(h2, h2))
    return lambda: block(entries).graph


@pytest.mark.parametrize("name", list(CALCULUS_BUDGETS))
@pytest.mark.parametrize("h1, h2", [(N, N), (3, 5)])
def test_block_calculus_forms_no_complement(name, h1, h2, svd_calls):
    build = _build_calculus(name, h1, h2)
    svd_calls.clear()
    space = build()
    assert len(svd_calls) <= CALCULUS_BUDGETS[name], svd_calls
    assert space.dim >= 1
    gram_err = np.abs(space.basis.conj().T @ space.basis - np.eye(space.dim))
    assert np.max(gram_err) < 1e-12
