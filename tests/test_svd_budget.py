"""SVD budget of classify, relate, lift, the triplet builders, the Weyl
function, the Krein-formula extension, the sub-relation builders and the
block calculus, at a fixed seed.

One fixture records every numpy.linalg call, so a change that re-forms
an adjoint inside lift, factors a block of R apart from its complement,
factors the triplet kernels eagerly, or re-orthonormalizes a graph basis
times a nullspace basis fails here, not only in the benchmark.  Gram
tests of Subspace bases are counted too, so a change that routes one of
lift's stacked or swapped bases back through the Gram product fails here
as well.  complement (so G in lift, and adjoint) is one QR of a checked
basis, with no SVD, and a square or wide block of R of full rank is
certified by one Cholesky, with no SVD either.  Verdict-only angles (classify's
symmetry, lift's S* check, theta's selfadjointness test) are Frobenius
brackets that factor nothing away from angle_tol, classify's PSD verdict
takes its eigvalsh only when it is read, and relate factors one
containment angle at most.  Krein-order margins on one bundle solve the
pencils of S_F and S_K once.  Every boundary map is split by one routine
that uses only its live (not exactly zero) columns.  A lifted Gamma0 or
Gamma1 is a co-isometry there: no SVD, and one QR where the live block
has a kernel.  A lifted triplet's builder knows the kernels of Gamma0
and Gamma1 from the lift's parts, so neither takes even that QR, and its
Weyl set-up, in closed form, reads neither map and calls no numpy.linalg
function at all.  On a hand-built triplet ker_gamma0, the Weyl set-up
and the Krein-formula extension share the one split of Gamma0, so Gamma0
is factored at most once per triplet; off the co-isometry that is one
SVD.  A Weyl function evaluated again on a triplet
with an extremal ker Gamma0 (every lifted one, in any graph coordinates)
may call no numpy.linalg function at all.  On the swapped main and tilde
triplets each lambda costs one values-only SVD and one solve of the
n x n pencil, and no eigensolver runs.  numerical_radius factors the
domain block once however many angles it searches, with one batched
eigvalsh per grid of angles, and the symmetry block of a CLI report
reads the lower bound and the radius off that one factorization.
"""

from pathlib import Path

import numpy as np
import pytest

from linrel import cli, extension, relation, subspace
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

from conftest import (
    assert_relation_equal,
    mixed_coordinates,
    off_coisometry,
    swapped,
)

DATA = Path(__file__).resolve().parents[1] / "data"

N = 8
# numpy.linalg factorizations per lift, by rank.  G is one QR of the
# checked graph basis and the S* self-check is a Frobenius bracket, not
# an SVD.  At rank N/2 the domain and range blocks are tall: one SVD each
# gives dom R and mul R*, ran R and ker R*, and op R* splits mul R* off
# R* by one more QR.  At ranks N and 3N/2 both blocks are square or wide
# and of full rank: one Cholesky each certifies it, so dom R and ran R
# are everything, mul R* = ker R* = {0}, and R* is its own operator part
LIFT_FACTORIZATIONS = {
    N // 2: ["qr", "svd", "svd", "qr"],
    N: ["qr", "cholesky", "cholesky"],
    3 * N // 2: ["qr", "cholesky", "cholesky"],
}
# Gram checks per lift, by rank: the bases lift factors (G, dom R, ran R,
# mul R*, ker R*, and for G~ the operator part of R*).  At ranks N and
# 3N/2, dom R and ran R are identities and mul R* = ker R* = {0}, none
# tested, and R* is its own operator part, hence 6/1/1.  R* and G~ are
# signed swaps of G and of op R*, and the lifted relations are stacks:
# none takes a Gram product.
LIFT_GRAM_CHECKS = {N // 2: 6, N: 1, 3 * N // 2: 1}
# adjoint takes the complement of the graph and flips it; inverse only
# swaps the graph's components
RELATION_GRAM_CHECKS = {"adjoint": 1, "inverse": 0}


FACTORIZATIONS = ("svd", "eigh", "eigvalsh", "eig", "solve", "inv", "qr",
                  "cholesky")


class LinalgCalls(list):
    """Every numpy.linalg call in order, as (name, shape of the first
    argument, compute_uv); compute_uv is None outside svd."""

    def named(self, *names):
        """(name, shape) of the calls to the named functions."""
        return [(name, shape) for name, shape, _ in self if name in names]

    @property
    def factorizations(self):
        return self.named(*FACTORIZATIONS)

    @property
    def svd(self):
        """(shape, compute_uv) of every SVD."""
        return [(shape, uv) for name, shape, uv in self if name == "svd"]


@pytest.fixture
def linalg(monkeypatch):
    calls = LinalgCalls()
    for name in np.linalg.__all__:
        real = getattr(np.linalg, name)
        if not callable(real) or isinstance(real, type):
            continue

        def counted(*args, _name=name, _real=real, **kwargs):
            uv = kwargs.get("compute_uv", True) if _name == "svd" else None
            shape = getattr(args[0], "shape", None) if args else None
            calls.append((_name, shape, uv))
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
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
def test_classify_factors_nothing(make, selfadjoint, linalg, monkeypatch):
    # verdicts only: no operator part, no lower bound, no numerical radius,
    # and the Frobenius bracket decides the symmetry angle of a skew part
    # at round-off or of order one without an SVD
    def no_radius(*args, **kwargs):
        raise AssertionError("classify computed the numerical radius")

    monkeypatch.setattr(relation, "numerical_radius", no_radius)
    rel = make()
    linalg.clear()
    rep = classify(rel)
    assert rep.is_selfadjoint is selfadjoint
    assert linalg.factorizations == [], linalg
    # the PSD verdict alone needs an eigvalsh: on its first read, once,
    # and only for a symmetric relation
    assert rep.is_nonnegative is selfadjoint
    assert rep.is_nonnegative is selfadjoint
    want = [("eigvalsh", (N, N))] if selfadjoint else []
    assert linalg.factorizations == want, linalg
    assert rep._cross is None


def test_classify_report_compares_verdicts_only(linalg):
    rel = random_selfadjoint_relation(N, rng=0, dom_dim=5, nonneg=True)
    first, second = classify(rel), classify(rel)
    linalg.clear()
    assert repr(first) == ("SymmetryReport(is_symmetric=True, "
                           "is_selfadjoint=True, is_nonnegative=True, "
                           "dom_perp_ran=False)")
    assert first == second and hash(first) == hash(second)
    # repr decided first's PSD verdict and == second's: one eigvalsh each
    assert len(linalg.named("eigvalsh")) == 2, linalg


@pytest.mark.parametrize("make", [
    lambda: random_selfadjoint_relation(N, rng=0, dom_dim=5),
    lambda: random_relation(N, N, rank=N, rng=0),
    lambda: random_relation(3, 5, rank=4, rng=0),
], ids=["symmetric", "not-symmetric", "rectangular"])
def test_symmetry_echo_factors_the_domain_block_once(make, linalg):
    # classify's verdicts, then the lower bound and the radius from one
    # SVD of the domain block; a rectangular relation has neither
    rel = make()
    linalg.clear()
    echo = cli._symmetry_echo(rel, classify(rel), ToleranceConfig())
    want = [] if rel.n1 != rel.n2 else [((N, N), True)]
    assert linalg.svd == want, linalg
    assert echo["lower_bound"] == cli.encode_float(relation.lower_bound(rel))
    if rel.n1 == rel.n2:
        assert echo["numerical_range_radius"] == cli.encode_float(
            relation.numerical_radius(rel))


def test_numerical_radius_factors_once_at_any_angle_grid(linalg,
                                                         monkeypatch):
    # one SVD of F, whatever the grid (the angle of mul R against dom R is
    # a Frobenius bracket); then one batched eigvalsh for the coarse grid
    # and one per zoom, until the spacing h has h^2/8 <= eps
    rel = random_selfadjoint_relation(N, rng=0, dom_dim=5)
    for angles, windows in ((65, 4), (17, 1), (257, 2)):
        monkeypatch.setattr(relation, "_RADIUS_ANGLES", angles)
        monkeypatch.setattr(relation, "_RADIUS_WINDOWS", windows)
        zooms, step = 0, np.pi / angles
        while step * step / 8.0 > np.finfo(float).eps:
            zooms, step = zooms + 1, step * 2.0 / (angles - 1)
        linalg.clear()
        relation.numerical_radius(rel)
        eig_calls = [shape for _, shape in linalg.named("eigvalsh")]
        assert linalg.svd == [((N, N), True)], linalg
        assert eig_calls[0] == (angles, 5, 5), eig_calls
        assert len(eig_calls) == zooms + 1, eig_calls
        for count, *tail in eig_calls[1:]:
            assert count in range(angles, windows * angles + 1, angles)
            assert tail == [5, 5], eig_calls


@pytest.mark.parametrize("rank", list(LIFT_FACTORIZATIONS))
def test_lift_stays_within_budget(rank, linalg):
    rel = random_relation(N, N, rank=rank, rng=5)
    linalg.clear()
    bundle = lift(rel)
    assert [name for name, _ in linalg.factorizations] == (
        LIFT_FACTORIZATIONS[rank]), linalg
    # the QRs are G's, of the graph basis, and op R*'s, of the
    # dim R* x dim mul R* block, only when mul R* != {0}; a Cholesky is of
    # the N x N Gram matrix of a block
    mul = bundle.mul_R_star.dim
    want_qr = [("qr", (2 * N, rank))]
    want_qr += [("qr", (bundle.R_star.dim, mul))] if mul else []
    assert linalg.named("qr") == want_qr, linalg
    assert all(shape == (N, N) for _, shape in linalg.named("cholesky"))


@pytest.mark.parametrize("rank", [0, N // 2, N, 3 * N // 2, 2 * N])
def test_complement_and_adjoint_take_one_qr(rank, linalg):
    # the basis passed its Gram test, so no rank is left to decide: one
    # complete QR, and no SVD
    rel = random_relation(N, N, rank=rank, rng=5) if rank else None
    space = rel.graph if rank else subspace.Subspace.zero(2 * N)
    linalg.clear()
    subspace.complement(space)
    assert linalg.factorizations == [("qr", (2 * N, rank))], linalg
    if rank:
        linalg.clear()
        relation.adjoint(rel)
        assert linalg.factorizations == [("qr", (2 * N, rank))], linalg


def test_krein_margins_reuse_the_extreme_resolvents(linalg):
    # (S_F + 1)^{-1} and (S_K + 1)^{-1} are solved once per bundle: the
    # three sampled margins solve the n x n pencils of S_F, S_K and three
    # A, and a second sampling only those of its three A
    bundle = lift(random_relation(N, N, rank=N // 2, rng=5))
    n = bundle.n
    for margins in (5, 3):
        linalg.clear()
        cli._worst_krein_margin(bundle, np.random.default_rng(0))
        assert linalg.named("solve") == [("solve", (n, n))] * margins, linalg


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
    op = relation._operator_part_off(bundle.R_star, bundle.mul_R_star)
    assert _same_bits(bundle.G_tilde.basis,
                      np.vstack([op.range_block, -op.domain_block]))


def test_lift_and_operator_part_share_the_op_part_route(monkeypatch):
    # lift's G~ splits its own mul R* off R*, operator_part the mul R of
    # _mul: the same private helper, and no other route to an operator part
    calls = []
    real = relation._operator_part_off
    assert extension._operator_part_off is real

    def counted(rel, mul):
        calls.append(mul)
        return real(rel, mul)

    monkeypatch.setattr(relation, "_operator_part_off", counted)
    monkeypatch.setattr(extension, "_operator_part_off", counted)
    bundle = lift(random_relation(N, N, rank=N // 2, rng=5))
    assert len(calls) == 1 and calls[0] is bundle.mul_R_star
    calls.clear()
    op = relation.operator_part(bundle.R_star)
    assert len(calls) == 1
    assert_relation_equal(op, real(bundle.R_star, bundle.mul_R_star))


@pytest.mark.parametrize("rank", [N // 2, N, 3 * N // 2])
def test_triplet_builders_factor_nothing(rank, linalg):
    bundle = lift(random_relation(N, N, rank=rank, rng=5))
    linalg.clear()
    trips = [build(bundle) for build in (triplet_main, triplet_basic, triplet_tilde)]
    assert linalg.svd == []

    # a lifted Gamma0 and Gamma1 are co-isometries whose kernels come
    # from the lift's parts: neither kernel calls numpy.linalg
    for trip in trips:
        linalg.clear()
        trip.ker_gamma0
        assert linalg == [], (trip.kind, linalg)
        trip.ker_gamma1
        assert linalg == [], (trip.kind, linalg)
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


@pytest.mark.parametrize("dom_dim", [N, 5])
def test_lower_bound_reads_the_whitened_form(dom_dim, linalg, monkeypatch):
    # the SVD of the domain block and one eigvalsh of Re B, single-valued
    # (dom_dim = N) or not; classify's bracket factors nothing, and there
    # is no operator part and no second factorization of mul R
    def refused(*args, **kwargs):
        raise AssertionError("lower_bound rebuilt the operator part")

    monkeypatch.setattr(relation, "operator_part", refused)
    monkeypatch.setattr(relation, "_mul", refused)
    rel = random_selfadjoint_relation(N, rng=0, dom_dim=dom_dim)
    linalg.clear()
    assert np.isfinite(relation.lower_bound(rel))
    assert linalg.factorizations == [("svd", (N, N)),
                                     ("eigvalsh", (dom_dim, dom_dim))], linalg


# every rank class of a lift: G0 and the kernel of basic's and tilde's
# live block nontrivial (N/2) or not, dom R = C^N, mul R* = {0}
@pytest.mark.parametrize("rank", [1, N // 2, N, 3 * N // 2, 2 * N - 1])
@pytest.mark.parametrize("build", [triplet_main, triplet_basic, triplet_tilde])
def test_weyl_set_up_reads_no_boundary_map(build, rank, linalg):
    # nothing on the first call: a lifted triplet's Laurent blocks are the
    # closed forms in P and dom R, so neither Gamma0 nor Gamma1 is
    # assembled, let alone split.  Then each lambda costs sums only,
    # whatever cfg weyl is given
    bundle = lift(random_relation(N, N, rank=rank, rng=5))
    trip = build(bundle)
    linalg.clear()
    weyl(trip, -1.0)
    assert linalg == [], linalg
    later = (
        lambda: weyl(trip, 1j),
        lambda: gamma_field(trip, -0.5),
        lambda: weyl(trip, 2.0, ToleranceConfig(rank_tol=1e-12)),
    )
    for call in later:
        linalg.clear()
        call()
        assert linalg == [], linalg
    assert not {"gamma0", "gamma1", "_gamma0_split"} & set(vars(trip))


@pytest.mark.parametrize("rank", [N // 2, N, 3 * N // 2])
@pytest.mark.parametrize("build", [triplet_main, triplet_tilde])
def test_swapped_triplets_still_rotate(build, rank, linalg):
    # ker Gamma0 of the swapped main and tilde triplets is K, whose
    # nonzero eigenvalues make it not extremal.  No eigh or eig runs at
    # all, and each lambda after the set-up solves the n x n pencil
    # G0 - lambda F0 by one values-only SVD and one solve.  (swapped basic
    # has the extremal ker Gamma0 = S_K and takes the Laurent route.)  The
    # swapped Gamma0 is the co-isometric Gamma1, so the set-up is a QR.
    trip = swapped(build(lift(random_relation(N, N, rank=rank, rng=5))))
    n = trip.star.n1
    linalg.clear()
    weyl(trip, -1.0)
    assert [name for name, _ in linalg.factorizations] == [
        "qr", "svd", "solve"], linalg
    later = (
        lambda: weyl(trip, 1j),
        lambda: gamma_field(trip, -0.5),
        lambda: weyl(trip, 2.0, ToleranceConfig(rank_tol=1e-12)),
    )
    for call in later:
        linalg.clear()
        call()
        assert linalg.factorizations == [("svd", (n, n)),
                                         ("solve", (n, n))], linalg
        assert linalg.svd == [((n, n), False)], linalg


@pytest.mark.parametrize("rank", [N // 2, N, 3 * N // 2])
def test_main_set_up_calls_no_linalg(rank, linalg):
    # the main triplet's live block is a square co-isometry: Q1 = A^H and
    # no kernel beyond the dead axes, so nothing is factored or inverted
    trip = triplet_main(lift(random_relation(N, N, rank=rank, rng=5)))
    linalg.clear()
    assert isinstance(trip.resolvent_blocks, tuple)
    assert linalg == []


@pytest.mark.parametrize("du, dv, factored", [
    (3, 3, True), (2, 5, True), (5, 2, True), (0, 4, False), (4, 0, False),
    (0, 0, False),
])
def test_relate_factors_once(du, dv, factored, linalg):
    # one values-only SVD of the smaller space's residual against the
    # larger (either one at equal dimension); an empty space needs none
    rng = np.random.default_rng(9)

    def space(d):
        raw = rng.normal(size=(N, d)) + 1j * rng.normal(size=(N, d))
        return span(raw, N)

    u, v = space(du), space(dv)
    linalg.clear()
    relate(u, v)
    assert linalg.svd == ([((N, min(du, dv)), False)] if factored else []), (
        linalg)


@pytest.mark.parametrize("build, rank, coordinates", [
    (triplet_basic, N // 2, mixed_coordinates),
    (triplet_basic, N, mixed_coordinates),
    (triplet_tilde, N // 2, mixed_coordinates),
    (triplet_basic, N // 2, lambda trip, rng: swapped(trip)),
], ids=["mixed_basic", "mixed_basic_degenerate", "mixed_tilde",
        "swapped_basic"])
def test_laurent_route_does_not_depend_on_coordinates(build, rank,
                                                      coordinates, rng,
                                                      linalg):
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
        linalg.clear()
        call()
        assert linalg == []


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
def test_sub_relation_builders_factor_no_product(name, rank, linalg):
    build = _build_sub_relation(name, lift(random_relation(N, N, rank=rank, rng=5)))
    linalg.clear()
    rel = build()
    assert len(linalg.svd) <= SUB_RELATION_BUDGETS[name], linalg
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
def test_krein_extension_solves_once(build, rank, fresh, linalg,
                                     gram_checks):
    # Krein's formula on the cached blocks: one g x g solve, fresh triplet
    # or not, since a lifted set-up factors nothing.  The selfadjointness
    # test of theta is a Frobenius bracket, and nothing runs an SVD.  The
    # Cayley basis is tested through its n x n Gram matrix in closed form,
    # not by the Gram product of the assembled 2n x n basis
    bundle = lift(random_relation(N, N, rank=rank, rng=5))
    trip = build(bundle)
    theta = random_selfadjoint_relation(trip.g, rng=3)
    if not fresh:
        weyl(trip, -1.0)
    linalg.clear()
    gram_checks.clear()
    ext = extension_from_boundary(trip, theta)
    g = trip.g
    assert linalg.factorizations == [("solve", (g, g))], linalg
    assert linalg.svd == [], linalg
    assert gram_checks == [], gram_checks
    basis = ext.graph.basis
    gram_err = np.abs(basis.conj().T @ basis - np.eye(ext.dim))
    assert np.max(gram_err, initial=0.0) < 1e-12


@pytest.mark.parametrize("build, rank", EXTENSION_CASES)
def test_gamma0_is_factored_once_per_triplet(build, rank, linalg):
    # ker_gamma0, the Weyl set-up and Krein's formula read one cached
    # split of Gamma0, which the lift's parts give: no QR and no SVD
    bundle = lift(random_relation(N, N, rank=rank, rng=5))
    trip = build(bundle)
    theta = random_selfadjoint_relation(trip.g, rng=3)
    linalg.clear()
    trip.ker_gamma0
    weyl(trip, -1.0)
    extension_from_boundary(trip, theta)
    assert linalg.named("qr", "svd") == [], linalg


@pytest.mark.parametrize("live_block", ["2I", "unitary+1e-9"])
def test_gamma0_off_the_coisometry_is_factored_once(live_block, rng, linalg):
    # a hand-built Gamma0 that fails the co-isometry test takes one SVD of
    # its live block, shared by ker_gamma0 and the Weyl set-up
    trip = off_coisometry(triplet_main(lift(random_relation(N, N, rank=N // 2,
                                                            rng=5))),
                          live_block, rng)
    linalg.clear()
    trip.ker_gamma0
    weyl(trip, -1.0)
    assert linalg.svd == [((trip.g, trip.g), True)], linalg


@pytest.mark.parametrize("build", [triplet_main, triplet_tilde])
def test_krein_extension_on_a_pencil_kernel(build, linalg):
    # ker Gamma0 = K of the swapped main and tilde triplets is not
    # extremal: besides the g x g solve, one values-only SVD and one solve
    # of the n x n pencil at +i, whose right-hand side also yields
    # (A0 - i)^{-1}, and the same at -i; theta's test factors nothing
    trip = swapped(build(lift(random_relation(N, N, rank=N // 2, rng=5))))
    theta = random_selfadjoint_relation(trip.g, rng=3)
    weyl(trip, -1.0)
    linalg.clear()
    extension_from_boundary(trip, theta)
    g, n = trip.g, trip.star.n1
    pencil = [("svd", (n, n)), ("solve", (n, n))]
    assert linalg.factorizations == [*pencil, *pencil, ("solve", (g, g))], (
        linalg)
    assert all(not uv for _, uv in linalg.svd), linalg


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
def test_block_calculus_forms_no_complement(name, h1, h2, linalg):
    build = _build_calculus(name, h1, h2)
    linalg.clear()
    space = build()
    assert len(linalg.svd) <= CALCULUS_BUDGETS[name], linalg
    assert space.dim >= 1
    gram_err = np.abs(space.basis.conj().T @ space.basis - np.eye(space.dim))
    assert np.max(gram_err) < 1e-12
