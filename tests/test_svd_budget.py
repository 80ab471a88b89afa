"""SVD budget of classify, lift, the triplet builders, the Weyl function,
the sub-relation builders and the block calculus, at a fixed seed.

numpy.linalg.svd calls are counted, so a change that re-forms an adjoint
inside lift, factors the triplet kernels eagerly, or re-orthonormalizes a
graph basis times a nullspace basis fails here, not only in the
benchmark.  The kernels themselves are checked on first access.  Gram
tests of Subspace bases are counted too, so a change that routes one of
lift's stacked bases back through the Gram product fails here as well.
"""

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
from linrel.subspace import Verdict, meet, span

from conftest import assert_relation_equal

N = 8
LIFT_SVD_BUDGET = 9
# Gram checks per lift, by rank: the bases lift factors or flips (G, R*,
# dom R, ran R, mul R*, ker R*, and for G~ the multivalued and operator
# parts of R* and G~ itself).  At ranks N and 3N/2, mul R* = ker R* = {0}
# take no check and R* is its own operator part, hence 9/5/5.  The
# relations lift stacks from these bases take no Gram product.
LIFT_GRAM_CHECKS = {N // 2: 9, N: 5, 3 * N // 2: 5}


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


def test_classify_factors_once_and_samples_nothing(svd_calls, monkeypatch):
    # verdicts only: no operator part, no lower bound, no numerical range
    def no_sampling(*args, **kwargs):
        raise AssertionError("classify sampled the numerical range")

    monkeypatch.setattr(relation, "numerical_range_hull", no_sampling)
    rel = random_selfadjoint_relation(N, rng=0, dom_dim=5, nonneg=True)
    svd_calls.clear()
    rep = classify(rel)
    assert rep.is_selfadjoint and rep.is_nonnegative
    assert len(svd_calls) <= 1, svd_calls


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


@pytest.mark.parametrize("rank", [N // 2, N, 3 * N // 2])
@pytest.mark.parametrize("build", [triplet_main, triplet_basic, triplet_tilde])
def test_weyl_factors_gamma0_once_per_triplet(build, rank, svd_calls):
    # one SVD of Gamma0 on the first call; then each lambda costs one
    # values-only SVD of the n x n pencil, whatever cfg weyl is given
    trip = build(lift(random_relation(N, N, rank=rank, rng=5)))
    n = trip.star.n1
    pencil_only = [((n, n), False)]
    svd_calls.clear()
    weyl(trip, -1.0)
    assert len(svd_calls) <= 2, svd_calls
    later = (
        lambda: weyl(trip, 1j),
        lambda: gamma_field(trip, -0.5),
        lambda: weyl(trip, 2.0, ToleranceConfig(rank_tol=1e-12)),
    )
    for call in later:
        svd_calls.clear()
        call()
        assert svd_calls == pencil_only


# {W c : M c = 0} needs the factorizations that find M and its nullspace,
# and none after: W c is orthonormal when W and c are
SUB_RELATION_BUDGETS = {
    "extension_from_boundary": 2,
    "friedrichs_generic": 4,
    "krein_generic": 4,
    "defect_relation": 1,
}


def _build_sub_relation(name, bundle):
    if name == "extension_from_boundary":
        trip = triplet_main(bundle)
        theta = random_selfadjoint_relation(trip.g, rng=3)
        return lambda: extension_from_boundary(trip, theta)
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
