"""Shared fixtures and assertion helpers for the test suite."""

import math

import numpy as np
import pytest

from linrel.boundary import BoundaryTriplet
from linrel.config import DEFAULT_TOLERANCES
from linrel.relation import LinearRelation, relation_equal
from linrel.subspace import Subspace, Verdict, relate


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


def assert_subspace_equal(u, v, tol=1e-8, msg=""):
    res = relate(u, v)
    assert res.verdict is Verdict.EQUAL and res.angle < tol, (
        f"{msg or 'subspaces differ'}: verdict={res.verdict.name} "
        f"angle={res.angle:.3e}"
    )


def assert_relation_equal(r, s, tol=1e-8, msg=""):
    res = relation_equal(r, s)
    assert res.verdict is Verdict.EQUAL and res.angle < tol, (
        f"{msg or 'relations differ'}: verdict={res.verdict.name} "
        f"angle={res.angle:.3e}"
    )


def assert_relation_subset(r, s, tol=1e-8, msg=""):
    res = relation_equal(r, s)
    assert res.verdict in (Verdict.EQUAL, Verdict.SUBSET), (
        f"{msg or 'not a sub-relation'}: verdict={res.verdict.name} "
        f"forward_angle={res.forward_angle:.3e}"
    )
    assert res.forward_angle < tol


CFG = DEFAULT_TOLERANCES


def tilted(rel, eps):
    """rel with its first basis vector turned by eps toward J^-1 of its second.

    J^-1 (h, k) = (-k, h) maps the second basis vector out of every
    selfadjoint relation containing rel, so for such rel the graph leaves
    its adjoint by a largest principal angle of eps.
    """
    n = rel.n1
    b = rel.graph.basis.copy()
    w = np.concatenate([-b[n:, 1], b[:n, 1]])
    b[:, 0] = math.cos(eps) * b[:, 0] + math.sin(eps) * w
    return LinearRelation(n, n, Subspace(2 * n, np.linalg.qr(b)[0]))


def swapped(trip):
    """The triplet (Gamma1, -Gamma0): Green identity kept, M' = -M^{-1}.

    Its Gamma0-kernel is ker Gamma1 of trip, whose operator part has
    nonzero eigenvalues, unlike the kernels the three builders pin.
    """
    return BoundaryTriplet(
        trip.kind, trip.star, trip.boundary, trip.gamma1, -trip.gamma0,
        trip.friedrichs, trip.cfg,
    )


def recoordinatized(trip, q):
    """trip on the graph basis W q with maps Gamma0 q and Gamma1 q.

    For a unitary q this is the same triplet in other graph coefficients,
    so it has the same Weyl function and gamma field.
    """
    star = trip.star
    graph = Subspace(star.graph.ambient_dim, star.graph.basis @ q)
    return BoundaryTriplet(
        trip.kind, LinearRelation(star.n1, star.n2, graph), trip.boundary,
        trip.gamma0 @ q, trip.gamma1 @ q, trip.friedrichs, trip.cfg,
    )


def haar_unitary(rng, k):
    z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return np.linalg.qr(z)[0]


def mixed_coordinates(trip, rng):
    """trip recoordinatized by random unitaries on the exactly-zero columns
    of Gamma0 and on the others: the dead columns stay dead, while every
    column of ker Gamma0's basis mixes the axes of its domain and of its
    range."""
    dead = ~trip.gamma0.any(axis=0)
    q = np.zeros((dead.size, dead.size), dtype=complex)
    q[np.ix_(dead, dead)] = haar_unitary(rng, int(dead.sum()))
    q[np.ix_(~dead, ~dead)] = haar_unitary(rng, int((~dead).sum()))
    return recoordinatized(trip, q)
