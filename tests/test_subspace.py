"""Subspace arithmetic: spans, complements, lattice operations, verdicts."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linrel.cli import main
from linrel.config import DEFAULT_TOLERANCES
from linrel.errors import DimensionMismatch
from linrel.specio import load_relation_spec
from linrel.subspace import (
    _GRAM_ATOL,
    Subspace,
    Verdict,
    _is_orthonormal,
    _residual,
    _signed_swap,
    _sine_angle,
    _sine_below,
    _stack,
    complement,
    join,
    meet,
    oplus,
    relate,
    span,
)

from conftest import assert_subspace_equal, haar_unitary


def random_subspace(rng, ambient, dim):
    raw = rng.normal(size=(ambient, dim)) + 1j * rng.normal(size=(ambient, dim))
    return span(raw, ambient)


def test_span_deduplicates_dependent_columns():
    v = np.array([[1.0], [2.0], [0.0]], dtype=complex)
    u = span(np.hstack([v, 3 * v, -v]), 3)
    assert u.dim == 1


def test_span_of_noise_is_zero():
    # unit-scale floor: a matrix that is numerically zero must not
    # resurrect as a full-rank basis after normalization
    noise = np.full((4, 3), 1e-14, dtype=complex)
    assert span(noise, 4).dim == 0


def test_subspace_rejects_non_orthonormal_basis():
    bad = np.array([[1.0], [1.0]], dtype=complex)
    with pytest.raises(ValueError, match="orthonormal"):
        Subspace(2, bad)


# The Gram diagonal may deviate from 1 by _GRAM_ATOL plus np.allclose's
# default rtol of 1e-5; the off-diagonal entries by _GRAM_ATOL alone.
_DIAG_BOUND = 1e-8 + 1e-5


def _orthonormal(n, d, seed=11):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    return np.linalg.qr(raw)[0]


def _off_diagonal(size):
    """Basis whose Gram has size * e^(i phi) at (0, 1) and 1 on the diagonal."""
    g = np.eye(3, dtype=complex)
    g[0, 1] = size * np.exp(0.7j)
    g[1, 0] = np.conj(g[0, 1])
    return _orthonormal(5, 3) @ np.linalg.cholesky(g).conj().T


def _diagonal(dev, d=3):
    """Basis whose Gram has 1 + dev at (d-1, d-1), with complex phases."""
    b = _orthonormal(5, d) * np.exp(1j * np.arange(1, d + 1))
    b[:, -1] *= np.sqrt(1.0 + dev)
    return b


def _with_entry(value):
    b = _orthonormal(5, 3)
    b[2, 1] = value
    return b


@pytest.mark.parametrize(
    ("make", "accepted"),
    [
        (lambda: _off_diagonal(1e-8 * (1 - 1e-6)), True),
        (lambda: _off_diagonal(1e-8 * (1 + 1e-6)), False),
        (lambda: _diagonal(_DIAG_BOUND - 1e-12), True),
        (lambda: _diagonal(_DIAG_BOUND + 1e-12), False),
        (lambda: _diagonal(-(_DIAG_BOUND - 1e-12)), True),
        (lambda: _diagonal(-(_DIAG_BOUND + 1e-12)), False),
        (lambda: _diagonal(1e-8 * (1 + 1e-6)), True),
        (lambda: _with_entry(np.nan), False),
        (lambda: _with_entry(np.inf), False),
        (lambda: _with_entry(complex(0.0, -np.inf)), False),
        (lambda: _with_entry(1e200), False),
        (lambda: np.zeros((4, 0), dtype=complex), True),
        (lambda: _orthonormal(4, 1), True),
        (lambda: _diagonal(_DIAG_BOUND - 1e-12, d=1), True),
        (lambda: _diagonal(_DIAG_BOUND + 1e-12, d=1), False),
        (lambda: _diagonal(np.nan, d=1), False),
    ],
    ids=[
        "offdiag-inside", "offdiag-outside",
        "diag-above-inside", "diag-above-outside",
        "diag-below-inside", "diag-below-outside",
        "diag-beyond-atol-alone", "nan", "inf", "imag-inf", "huge",
        "d0", "d1", "d1-inside", "d1-outside", "d1-nan",
    ],
)
def test_subspace_accept_set_is_allclose(make, accepted):
    basis = make()
    n, d = basis.shape
    with np.errstate(invalid="ignore", over="ignore"):
        gram = basis.conj().T @ basis
        want = bool(np.allclose(gram, np.eye(d), atol=_GRAM_ATOL))
    # the case lies on the side of the bound its id names
    assert want is accepted
    # a non-finite or huge entry is rejected before any product: no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            Subspace(n, basis)
            got = True
        except ValueError:
            got = False
    assert got is want


@pytest.mark.parametrize(
    ("dev", "orthonormalized"),
    [(_DIAG_BOUND - 1e-12, False), (_DIAG_BOUND + 1e-12, True)],
    ids=["inside", "outside"],
)
def test_graph_basis_spec_at_the_diagonal_bound(tmp_path, capsys, dev,
                                                 orthonormalized):
    """A graph_basis scaled to the bound keeps its flag and its verdict."""
    col = np.array([0.6 * np.exp(0.4j), 0.8 * np.exp(-1.1j)]) * np.sqrt(1 + dev)
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps({
        "label": "scaled unit graph",
        "mode": "graph_basis",
        "n1": 1,
        "n2": 1,
        "matrices": {"basis": [[[z.real, z.imag]] for z in col]},
    }))
    spec = load_relation_spec(str(path))
    assert spec.was_orthonormalized is orthonormalized
    assert spec.relation.dim == 1
    main(["analyze", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert report["input"]["orthonormalized"] is orthonormalized
    main(["verify", str(path)])
    status = "FAIL" if orthonormalized else "ok  "
    assert f"{status} input_graph_orthonormal\n" in capsys.readouterr().out


def test_zero_and_full():
    z = Subspace.zero(3)
    f = Subspace.full(3)
    assert z.dim == 0 and f.dim == 3
    assert relate(z, f).verdict is Verdict.SUBSET
    np.testing.assert_allclose(f.projector(), np.eye(3), atol=1e-14)
    np.testing.assert_allclose(z.projector(), np.zeros((3, 3)), atol=1e-14)


def test_complement_involution_and_dimension(rng):
    for dim in range(5):
        u = random_subspace(rng, 4, dim)
        uc = complement(u)
        assert uc.dim == 4 - u.dim
        assert np.max(np.abs(uc.basis.conj().T @ u.basis)) < 1e-12 \
            if u.dim and uc.dim else True
        assert_subspace_equal(complement(uc), u)


def test_meet_join_de_morgan(rng):
    u = random_subspace(rng, 5, 3)
    v = random_subspace(rng, 5, 3)
    m = meet(u, v)
    j = join(u, v)
    assert m.dim + j.dim == u.dim + v.dim
    assert_subspace_equal(complement(j), meet(complement(u), complement(v)))


def test_relate_verdicts(rng):
    u = random_subspace(rng, 6, 2)
    w = join(u, random_subspace(rng, 6, 2))
    res = relate(u, w)
    assert res.verdict is Verdict.SUBSET
    assert res.forward_angle < 1e-10 and res.reverse_angle > 1e-4
    assert relate(w, u).verdict is Verdict.SUPERSET
    assert relate(u, u).verdict is Verdict.EQUAL

    a = span(np.eye(4)[:, :2], 4)
    b = span(np.eye(4)[:, 1:3], 4)
    assert relate(a, b).verdict is Verdict.INCOMPARABLE


def test_relate_angle_is_the_principal_angle():
    theta = 0.3
    a = span(np.array([[1.0], [0.0]]), 2)
    b = span(np.array([[np.cos(theta)], [np.sin(theta)]]), 2)
    res = relate(a, b)
    assert res.verdict is Verdict.INCOMPARABLE
    assert abs(res.angle - theta) < 1e-12


def test_oplus_blocks(rng):
    u = random_subspace(rng, 3, 2)
    v = random_subspace(rng, 2, 1)
    w = oplus(u, v)
    assert w.ambient_dim == 5 and w.dim == 3
    # top-right and bottom-left blocks stay exactly zero
    assert np.all(w.basis[:3, 2:] == 0)
    assert np.all(w.basis[3:, :2] == 0)


@pytest.mark.parametrize(
    ("m", "du", "n", "dv"),
    [(3, 2, 2, 1), (4, 0, 3, 3), (1, 1, 5, 0), (6, 6, 2, 2)],
)
def test_oplus_is_bit_identical_to_zero_padding(rng, m, du, n, dv):
    u = random_subspace(rng, m, du)
    v = random_subspace(rng, n, dv)
    padded = np.zeros((m + n, du + dv), dtype=complex)
    padded[:m, :du] = u.basis
    padded[m:, du:] = v.basis
    w = oplus(u, v)
    assert w.basis.shape == padded.shape
    assert w.basis.tobytes() == padded.tobytes()
    assert _is_orthonormal(w.basis) or w.dim == 0


def test_stack_splits_a_part_over_row_ranges(rng):
    u = random_subspace(rng, 5, 3)
    v = random_subspace(rng, 2, 2)
    # u's rows 0..1 go to rows 0..1, its rows 2..4 to rows 5..7; v fills 2..3
    w = _stack(8, [(u, [(0, 2), (5, 8)]), (v, [(2, 4)]),
                   (Subspace.full(1), [(4, 5)])])
    assert w.ambient_dim == 8 and w.dim == 6
    assert np.array_equal(w.basis[[0, 1, 5, 6, 7], :3], u.basis)
    assert np.array_equal(w.basis[2:4, 3:5], v.basis)
    assert w.basis[4, 5] == 1
    nonzero = np.count_nonzero(u.basis) + np.count_nonzero(v.basis) + 1
    assert np.count_nonzero(w.basis) == nonzero
    assert _is_orthonormal(w.basis)


@pytest.mark.parametrize(
    "blocks",
    [
        [(0, 3), (2, 4)],          # two parts share row 2
        [(0, 2), (1, 3)],          # the same, the other way round
        [(0, 3), (0, 2)],          # identical starts
        [(1, 4), (0, 2)],          # given out of order
    ],
    ids=["tail", "head", "same-start", "unsorted"],
)
def test_stack_rejects_overlapping_row_maps(rng, blocks):
    (a0, a1), (b0, b1) = blocks
    u = random_subspace(rng, a1 - a0, 1)
    v = random_subspace(rng, b1 - b0, 1)
    with pytest.raises(ValueError, match="overlaps"):
        _stack(6, [(u, [(a0, a1)]), (v, [(b0, b1)])])


def test_stack_rejects_overlap_within_one_part(rng):
    u = random_subspace(rng, 4, 2)
    with pytest.raises(ValueError, match="overlaps"):
        _stack(6, [(u, [(0, 2), (1, 3)])])


def test_stack_rejects_rows_outside_and_wrong_lengths(rng):
    u = random_subspace(rng, 3, 2)
    with pytest.raises(ValueError, match="outside"):
        _stack(4, [(u, [(2, 5)])])
    with pytest.raises(DimensionMismatch):
        _stack(6, [(u, [(0, 2)])])
    with pytest.raises(ValueError, match="reversed"):
        _stack(8, [(u, [(2, 0), (3, 8)])])


@pytest.mark.parametrize("negate, signs", [("head", (1, -1)),
                                           ("tail", (-1, 1)),
                                           (None, (1, 1))])
def test_signed_swap_moves_and_negates_the_named_block(rng, negate, signs):
    u = random_subspace(rng, 5, 3)
    w = _signed_swap(u, 2, negate)
    assert w.ambient_dim == 5 and w.dim == 3
    assert np.array_equal(w.basis[:3], signs[0] * u.basis[2:])
    assert np.array_equal(w.basis[3:], signs[1] * u.basis[:2])
    assert _is_orthonormal(w.basis)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    ambient=st.integers(1, 6),
    d1=st.integers(0, 6),
    d2=st.integers(0, 6),
)
def test_lattice_properties(seed, ambient, d1, d2):
    rng = np.random.default_rng(seed)
    u = random_subspace(rng, ambient, min(d1, ambient))
    v = random_subspace(rng, ambient, min(d2, ambient))
    m, j = meet(u, v), join(u, v)
    assert m.dim + j.dim == u.dim + v.dim
    assert relate(m, u).verdict in (Verdict.EQUAL, Verdict.SUBSET)
    assert relate(u, j).verdict in (Verdict.EQUAL, Verdict.SUBSET)
    assert_subspace_equal(complement(complement(u)), u)


def test_meet_shared_direction_below_half_dimension():
    # dim u + dim v <= ambient: a generic pair would meet in {0}
    e = np.eye(4, dtype=complex)
    u, v = span(e[:, :2], 4), span(e[:, 1:3], 4)
    for m in (meet(u, v), meet(v, u)):
        assert m.dim == 1
        assert_subspace_equal(m, span(e[:, 1:2], 4))


def test_meet_with_zero_full_and_itself(rng):
    u = random_subspace(rng, 5, 3)
    for m in (meet(u, Subspace.zero(5)), meet(Subspace.zero(5), u)):
        assert m.dim == 0 and m.basis.shape == (5, 0)
    assert_subspace_equal(meet(u, Subspace.full(5)), u)
    assert_subspace_equal(meet(Subspace.full(5), u), u)
    assert_subspace_equal(meet(u, u), u)
    assert meet(Subspace.zero(5), Subspace.zero(5)).dim == 0


@pytest.mark.parametrize("factor, shared", [(10.0, 1), (0.1, 2)])
def test_meet_decides_tilt_against_rank_tol(factor, shared):
    # v is u with its second direction turned by a sine of factor * rank_tol
    t = factor * DEFAULT_TOLERANCES.rank_tol
    e = np.eye(4, dtype=complex)
    u = span(e[:, :2], 4)
    turned = np.cos(t) * e[:, 1] + np.sin(t) * e[:, 2]
    v = Subspace(4, np.column_stack([e[:, 0], turned]))
    m, j = meet(u, v), join(u, v)
    assert m.dim == shared
    assert m.dim + j.dim == u.dim + v.dim
    assert relate(m, u).forward_angle < 1e-12


EPS = np.finfo(float).eps


def _with_spectrum(rng, rows, cols, top, shape):
    """rows x cols matrix with spectral norm top and a singular value
    profile that puts it at an edge of the Frobenius bracket or inside."""
    k = min(rows, cols)
    if shape == "rank-1":  # ||X||_2 = ||X||_F
        s = np.zeros(k)
    elif shape == "flat":  # ||X||_2 = ||X||_F / sqrt(k)
        s = np.ones(k)
    else:
        s = rng.uniform(0.0, 1.0, size=k)
    if k:
        s[0] = 1.0
    u, v = haar_unitary(rng, rows)[:, :k], haar_unitary(rng, cols)[:, :k]
    return (u * (top * s)) @ v.conj().T


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    rows=st.integers(0, 6),
    cols=st.integers(0, 6),
    angle_tol=st.sampled_from([EPS, 1e-10, 1e-8, 1e-3, 0.5, 1.0,
                               math.pi / 2 - 1e-6, math.pi / 2 - 1e-9,
                               math.pi / 2, 2.0]),
    factor=st.sampled_from([1 - 1e-6, 1 + 1e-6, 0.1, 10.0, 1.0]),
    shape=st.sampled_from(["rank-1", "flat", "random"]),
)
def test_sine_below_is_the_svd_verdict(seed, rows, cols, angle_tol, factor,
                                       shape):
    # spectral norms at sin(angle_tol) (1 +- 1e-6), 10^+-1 of it and on it,
    # with the Frobenius norm at either edge of its bracket or between;
    # empty matrices, angle_tol at eps and next to and beyond pi/2
    rng = np.random.default_rng(seed)
    mat = _with_spectrum(rng, rows, cols, math.sin(angle_tol) * factor, shape)
    assert _sine_below(mat, angle_tol) == (_sine_angle(mat) < angle_tol)


@pytest.mark.parametrize("factor, shape, verdict", [
    (0.1, "rank-1", True), (0.1, "flat", True),
    (10.0, "rank-1", False), (10.0, "flat", False),
])
def test_sine_below_factors_nothing_outside_the_bracket(factor, shape,
                                                        verdict, monkeypatch):
    # the Frobenius norm decides at a factor of 10 from sin(angle_tol),
    # whichever edge of the bracket the spectral norm sits on
    def refused(*args, **kwargs):
        raise AssertionError("the bracket took an SVD")

    rng = np.random.default_rng(5)
    angle_tol = DEFAULT_TOLERANCES.angle_tol
    mat = _with_spectrum(rng, 6, 4, math.sin(angle_tol) * factor, shape)
    assert (_sine_angle(mat) < angle_tol) is verdict
    monkeypatch.setattr(np.linalg, "svd", refused)
    assert _sine_below(mat, angle_tol) is verdict


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    ambient=st.integers(1, 8),
    dim=st.integers(1, 8),
    log_tilt=st.floats(-16.0, 1.0),
)
def test_equal_dimension_containment_sines_agree(seed, ambient, dim,
                                                 log_tilt):
    # ||(I - P_v) P_u|| = ||(I - P_u) P_v|| when dim u = dim v (Stewart &
    # Sun, ch. I.5), so relate factors one residual for both; the two
    # computed sines agree to 16 eps ambient (at most ~10 eps measured)
    rng = np.random.default_rng(seed)
    dim = min(dim, ambient)
    a = rng.normal(size=(ambient, dim)) + 1j * rng.normal(size=(ambient, dim))
    tilt = rng.normal(size=a.shape) + 1j * rng.normal(size=a.shape)
    u, v = span(a, ambient), span(a + 10.0 ** log_tilt * tilt, ambient)
    if u.dim != v.dim:
        return
    forward = np.linalg.norm(_residual(u, v), 2)
    reverse = np.linalg.norm(_residual(v, u), 2)
    assert abs(forward - reverse) <= 16 * EPS * ambient


def test_relate_counts_dimensions_before_factoring(rng):
    # a larger space never lies in a smaller one: its angle is pi/2 exactly
    u = random_subspace(rng, 6, 2)
    w = join(u, random_subspace(rng, 6, 2))
    res = relate(w, u)
    assert res.verdict is Verdict.SUPERSET
    assert res.forward_angle == math.pi / 2
    assert relate(u, w).reverse_angle == math.pi / 2
    v = random_subspace(rng, 6, 2)
    res = relate(u, v)
    assert res.forward_angle == res.reverse_angle
