"""SVD budget of classify, lift and the triplet builders, at a fixed seed.

numpy.linalg.svd calls are counted, so a change that re-forms an adjoint
inside lift or factors the triplet kernels eagerly fails here, not only
in the benchmark.  The kernels themselves are checked on first access.
"""

import numpy as np
import pytest

from linrel import relation
from linrel.boundary import triplet_basic, triplet_main, triplet_tilde
from linrel.extension import lift
from linrel.oracle import random_relation, random_selfadjoint_relation
from linrel.relation import classify, relation_equal
from linrel.subspace import Verdict

from conftest import assert_relation_equal

N = 8
LIFT_SVD_BUDGET = 9


@pytest.fixture
def svd_calls(monkeypatch):
    calls = []
    real_svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
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
