"""Command-line interface and the spec-file IO layer behind it."""

import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linrel import boundary, cli, extension, relation
from linrel.cli import main
from linrel.config import ToleranceConfig
from linrel.errors import InputFormatError
from linrel.extension import lift
from linrel.oracle import random_relation, random_selfadjoint_relation
from linrel.relation import (
    LinearRelation,
    adjoint,
    numerical_radius,
    relation_equal,
)
from linrel.specio import (
    decode_matrix,
    dump_report,
    encode_float,
    encode_matrix,
    load_relation_spec,
    report_pieces,
)
from linrel.subspace import (
    Subspace,
    Verdict,
    complement,
    oplus,
    orthonormal_columns,
    span,
)

from conftest import CFG, haar_unitary, swapped

DATA = Path(__file__).resolve().parents[1] / "data"
SRC = Path(__file__).resolve().parents[1] / "src"

EXTENSIONS_CHECKS = [
    "triplet_main_green_identity",
    "triplet_main_surjective_and_kernels",
    "triplet_basic_green_identity",
    "triplet_basic_surjective_and_kernels",
    "triplet_tilde_green_identity",
    "triplet_tilde_surjective_and_kernels",
    "adjoint_is_componentwise_sum_H_K",
    "s0_adjoint_is_sum_of_extreme_extensions",
    "friedrichs_closed_form",
    "krein_closed_form",
    "krein_order_sampled_parameters",
]

VERIFY_CHECKS = [
    "input_graph_orthonormal",
    "adjoint_matches_oracle",
    "adjoint_involution",
    "adjoint_parts_duality",
    "lift_decompositions",
    "extreme_extensions_closed_forms",
    "triplet_main",
    "weyl_main_certificate",
    "triplet_basic",
    "weyl_basic_certificate",
    "triplet_tilde",
    "weyl_tilde_certificate",
    "extension_sweep",
    "krein_order_sampled",
]


def write_spec(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def as_lists(obj):
    """obj with every matrix as encode_matrix's nested lists."""
    if isinstance(obj, np.ndarray):
        return encode_matrix(obj)
    if isinstance(obj, dict):
        return {key: as_lists(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [as_lists(item) for item in obj]
    return obj


def json_dumps(report):
    return json.dumps(as_lists(report), indent=2, sort_keys=True,
                      allow_nan=False)


@pytest.fixture(autouse=True)
def reports_are_json_dumps(monkeypatch):
    """Every report a test here writes through the CLI is compared with
    json.dumps of the same report with its matrices as nested lists."""
    differ = []

    def checked(report):
        pieces = list(report_pieces(report))
        if "".join(pieces) != json_dumps(report):
            differ.append(sorted(report))
        return iter(pieces)

    monkeypatch.setattr(cli, "report_pieces", checked)
    yield
    assert differ == []


@pytest.fixture
def operator_spec(tmp_path):
    return write_spec(
        tmp_path / "op.json",
        {
            "label": "hermitian test matrix",
            "mode": "operator",
            "n1": 2,
            "n2": 2,
            "matrices": {
                "operator": [
                    [[2.0, 0.0], [1.0, 0.0]],
                    [[1.0, 0.0], [3.0, 0.0]],
                ]
            },
        },
    )


@pytest.fixture
def halfline_spec(tmp_path):
    return write_spec(
        tmp_path / "halfline.json",
        {
            "label": "non-dense Jacobi action",
            "mode": "kernel_pair",
            "n1": 3,
            "n2": 3,
            "matrices": {
                "c": [
                    [[1.0, 0.0], [0.0, 0.0]],
                    [[0.0, 0.0], [1.0, 0.0]],
                    [[0.0, 0.0], [0.0, 0.0]],
                ],
                "d": [
                    [[2.0, 0.0], [1.0, 0.0]],
                    [[1.0, 0.0], [2.0, 0.0]],
                    [[1.0, 0.0], [0.0, 0.0]],
                ],
            },
        },
    )


@pytest.fixture
def theta_spec(tmp_path):
    return write_spec(
        tmp_path / "theta.json",
        {
            "label": "minus identity",
            "mode": "operator",
            "n1": 2,
            "n2": 2,
            "matrices": {
                "operator": [
                    [[-1.0, 0.0], [0.0, 0.0]],
                    [[0.0, 0.0], [-1.0, 0.0]],
                ]
            },
        },
    )


class TestSpecIO:
    def test_matrix_round_trip(self):
        mat = np.array([[1 + 2j, 0.5], [0.0, -1j]])
        decoded = decode_matrix(encode_matrix(mat), "m")
        np.testing.assert_array_equal(decoded, mat)

    def test_decode_rejects_bare_numbers(self):
        with pytest.raises(InputFormatError, match=r"m\[0\]\[1\]"):
            decode_matrix([[[1.0, 0.0], 2.0]], "m")

    def test_decode_rejects_ragged_rows(self):
        with pytest.raises(InputFormatError, match="entries"):
            decode_matrix([[[1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]], "m")

    def test_decode_rejects_non_finite(self):
        with pytest.raises(InputFormatError, match="finite"):
            decode_matrix([[[math.nan, 0.0]]], "m")

    def test_encode_float_policy(self):
        assert encode_float(None) is None
        assert encode_float(math.inf) == "inf"
        assert encode_float(-math.inf) == "-inf"
        assert encode_float(1.5) == 1.5

    def test_dump_report_rejects_nan(self):
        with pytest.raises(ValueError):
            dump_report({"x": math.nan})

    def test_writer_prints_empty_matrices_as_json_does(self):
        report = {
            "empty": {}, "none": [], "nested": [[], {}, [[]]],
            "matrices": [np.zeros(shape, dtype=complex) for shape in
                         [(3, 0), (0, 0), (0, 4), (1, 1), (2, 3)]],
            "deep": {"a": {"b": [np.zeros((2, 0)), {"c": np.eye(2)}]}},
            "signed_zeros": np.array([[-0.0 - 0.0j, 0.0 - 0.0j]]),
            "ints": [0, -3, 2**70, True, False, None],
        }
        assert dump_report(report) == json_dumps(report)

    @settings(max_examples=60, deadline=None)
    @given(st.recursive(
        st.none() | st.booleans() | st.integers()
        | st.floats(allow_nan=False, allow_infinity=False) | st.text()
        | st.builds(
            lambda rows, cols, seed: np.random.default_rng(seed).standard_normal(
                (rows, cols, 2)).view(complex)[..., 0] * 10.0 ** (seed % 40 - 20),
            st.integers(0, 3), st.integers(0, 3), st.integers(0, 100)),
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=4), children, max_size=3),
        max_leaves=12,
    ))
    def test_writer_is_json_dumps(self, report):
        assert dump_report(report) == json_dumps(report)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises_before_any_piece(self, bad):
        matrix = np.ones((2, 2), dtype=complex)
        matrix[1, 0] = complex(0.0, bad)
        for report in ({"x": [1.0, {"y": bad}]}, {"m": [matrix]}):
            with pytest.raises(ValueError):
                report_pieces(report)  # raised by the call, not the first piece

    @pytest.mark.parametrize("out", [False, True])
    def test_non_finite_report_exits_4_and_writes_nothing(
            self, out, operator_spec, tmp_path, monkeypatch, capsys):
        real = cli.encode_relation

        def poisoned(rel):
            encoded = real(rel)
            encoded["graph_basis"] = encoded["graph_basis"] * math.nan
            return encoded

        monkeypatch.setattr(cli, "encode_relation", poisoned)
        path = tmp_path / "report.json"
        argv = ["analyze", operator_spec] + (["--out", str(path)] if out else [])
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "internal error: ValueError" in captured.err
        assert not path.exists()

    def test_graph_basis_orthonormalized_flag(self, tmp_path):
        path = write_spec(
            tmp_path / "skew.json",
            {
                "label": "skew basis",
                "mode": "graph_basis",
                "n1": 1,
                "n2": 1,
                "matrices": {"basis": [[[2.0, 0.0]], [[2.0, 0.0]]]},
            },
        )
        spec = load_relation_spec(path)
        assert spec.was_orthonormalized
        assert spec.relation.dim == 1

    def test_missing_key_reports_path(self, tmp_path):
        path = write_spec(
            tmp_path / "nomode.json",
            {"label": "x", "n1": 1, "n2": 1, "matrices": {}},
        )
        with pytest.raises(InputFormatError, match="mode"):
            load_relation_spec(path)


class TestAnalyze:
    def test_report_shape(self, operator_spec, capsys):
        assert main(["analyze", operator_spec]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["symmetry"]["is_selfadjoint"]
        assert report["symmetry"]["is_nonnegative"]
        assert report["parts"]["dom"]["dim"] == 2
        assert report["config"]["seed"] == 0
        assert report["input"]["label"] == "hermitian test matrix"

    def test_rectangular_relation_analyzes_cleanly(self, tmp_path, capsys):
        # pairing-dependent symmetry fields are null between different spaces
        path = write_spec(
            tmp_path / "rect.json",
            {
                "label": "pure multivalued part",
                "mode": "graph_basis",
                "n1": 2,
                "n2": 1,
                "matrices": {
                    "basis": [[[0.0, 0.0]], [[0.0, 0.0]], [[1.0, 0.0]]]
                },
            },
        )
        assert main(["analyze", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["symmetry"]["dom_perp_ran"] is None
        assert report["symmetry"]["numerical_range_radius"] is None
        assert not report["symmetry"]["is_symmetric"]
        assert report["parts"]["mul"]["dim"] == 1

    def test_seed_leaves_the_symmetry_block_alone(self, halfline_spec, capsys):
        # the radius is exact: --seed reaches only the config echo
        blocks = []
        for seed in ("0", "7"):
            assert main(["analyze", halfline_spec, "--seed", seed]) == 0
            blocks.append(json.loads(capsys.readouterr().out)["symmetry"])
        rel = load_relation_spec(halfline_spec).relation
        assert blocks[0] == blocks[1]
        assert blocks[0]["numerical_range_radius"] == numerical_radius(rel)

    def test_numerical_range_of_all_of_c_prints_inf(self, tmp_path, capsys):
        # R = {(a e1, b e1)}: mul R = span e1 meets dom R, so <g, f> / ||f||^2
        # = b / a takes every value; dump_report refuses a raw inf
        path = write_spec(
            tmp_path / "plane.json",
            {
                "label": "numerical range C",
                "mode": "graph_basis",
                "n1": 2,
                "n2": 2,
                "matrices": {
                    "basis": [
                        [[1.0, 0.0], [0.0, 0.0]],
                        [[0.0, 0.0], [0.0, 0.0]],
                        [[0.0, 0.0], [1.0, 0.0]],
                        [[0.0, 0.0], [0.0, 0.0]],
                    ]
                },
            },
        )
        assert main(["analyze", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["symmetry"]["numerical_range_radius"] == "inf"
        assert report["parts"]["mul"]["dim"] == 1

    def test_adjoint_round_trip(self, operator_spec, tmp_path, capsys):
        # the emitted adjoint basis must re-ingest to the same relation
        assert main(["analyze", operator_spec]) == 0
        report = json.loads(capsys.readouterr().out)
        adj = report["adjoint"]
        path = write_spec(
            tmp_path / "roundtrip.json",
            {
                "label": "round trip",
                "mode": "graph_basis",
                "n1": adj["n1"],
                "n2": adj["n2"],
                "matrices": {"basis": adj["graph_basis"]},
            },
        )
        spec = load_relation_spec(path)
        assert not spec.was_orthonormalized
        basis = decode_matrix(adj["graph_basis"], "basis")
        want = LinearRelation(adj["n1"], adj["n2"], Subspace(4, basis))
        res = relation_equal(spec.relation, want)
        assert res.verdict is Verdict.EQUAL

    def test_deterministic_output(self, halfline_spec, capsys):
        assert main(["analyze", halfline_spec]) == 0
        first = capsys.readouterr().out
        assert main(["analyze", halfline_spec]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_out_flag_writes_file(self, operator_spec, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["analyze", operator_spec, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        json.loads(out.read_text())


class TestExtensions:
    def test_checks_all_pass(self, halfline_spec, capsys):
        assert main(["extensions", halfline_spec]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(c["passed"] for c in report["checks"])
        assert report["extensions"]["S_star"]["dim"] == 6 + 6 - report[
            "extensions"
        ]["S"]["dim"]
        assert all(f["extremal"] for f in report["extremal_family"])

    def test_check_names_and_order(self, capsys):
        assert main(["extensions", str(DATA / "halfline_embed.json")]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [c["name"] for c in checks] == EXTENSIONS_CHECKS
        assert all(c["passed"] for c in checks)

    @pytest.mark.parametrize("name", ["graph_one", "theta_minus_one"])
    def test_trivial_parameter_space(self, name, capsys):
        # dense domain and range: G0 = {0}, S0 is already selfadjoint
        assert main(["extensions", str(DATA / f"{name}.json")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["boundary_spaces"]["G0"]["dim"] == 0
        assert [c["name"] for c in report["checks"]] == EXTENSIONS_CHECKS
        assert all(c["passed"] for c in report["checks"])
        assert all(f["extremal"] for f in report["extremal_family"])


def _kernel_pair_spec(tmp_path, c, d):
    n = len(c)
    return write_spec(tmp_path / "kernel_pair.json", {
        "mode": "kernel_pair", "n1": n, "n2": n, "matrices": {
            "c": encode_matrix(np.diag(c)), "d": encode_matrix(np.diag(d))}})


class TestRankRuleBetweenTolerances:
    """C = diag(1, 1e-7), D = I with --tol-rank 1e-6: the rank rule drops a
    singular value of the domain block that angle_tol sees.  dom R then
    misses a direction of graph R, so the extension checks refuse it as a
    precondition (exit 3); lift itself, and the Weyl functions, stand."""

    @pytest.mark.parametrize("command, code", [
        ("analyze", 0), ("extensions", 3), ("verify", 3)])
    def test_exit_codes(self, command, code, tmp_path, capsys):
        spec = _kernel_pair_spec(tmp_path, [1.0, 1e-7], [1.0, 1.0])
        assert main([command, spec, "--tol-rank", "1e-6"]) == code
        err = capsys.readouterr().err
        if code == 3:
            # the refusal gives the angle and blames the tolerance pair
            head = re.fullmatch(
                r"precondition violated: relation does not extend S: "
                r"containment angle (\S+) is not below angle_tol 1e-08; "
                r"rank_tol 1e-06 exceeds angle_tol, so the rank rule can drop "
                r"directions of R that the angle rule still sees\n", err)
            assert head, err
            assert 1e-8 <= float(head[1]) < 1e-6

    @pytest.mark.parametrize("kind", ["main", "basic", "tilde"])
    def test_weyl_runs(self, kind, tmp_path, capsys):
        spec = _kernel_pair_spec(tmp_path, [1.0, 1e-7], [1.0, 1.0])
        assert main(["weyl", spec, "--triplet", kind, "--grid",
                     "[0.5, -1.0, [0.0, 1.0]]", "--tol-rank", "1e-6"]) == 0
        assert capsys.readouterr().out.count(",ok\n") == 3

    @pytest.mark.parametrize("c, d", [
        ([1.0, 5e-11], [1.0, 1.0]), ([1.0, 1.0, 5e-11], [3e-11, 1.0, 1.0])])
    def test_verify_passes_below_the_default_rank_tol(self, c, d, tmp_path,
                                                      capsys):
        # a value the default rank rule drops, in one block or in both
        spec = _kernel_pair_spec(tmp_path, c, d)
        assert main(["verify", spec]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[1] for line in lines[:-1]] == VERIFY_CHECKS
        assert all(line.startswith("ok ") for line in lines[:-1])
        assert lines[-1] == "verify: PASS (14/14)"


def _graph_basis(kind, n1, n2, seed):
    """An orthonormal graph basis in C^n1 x C^n2: of an operator's graph,
    of a Hermitian operator's (n2 = n1), or of a random subspace."""
    rng = np.random.default_rng(seed)

    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if kind == "subspace":
        raw = gauss(n1 + n2, int(rng.integers(1, n1 + n2 + 1)))
    else:
        op = gauss(n2, n1)
        if kind == "hermitian":
            op = op + op.conj().T
        raw = np.vstack([np.eye(n1), op])
    return np.linalg.qr(raw)[0]


def _verdicts(path):
    """Exit code and verdicts of every command on the spec at path: the
    symmetry verdicts and part dimensions of analyze, each check's passed,
    extremal_family's extremal and the flags of extensions, verify's
    status column, and weyl's on each triplet."""
    grid = "[0.0, 1e-12, [0.0, 1.0]]"
    runs = [["analyze", path], ["extensions", path], ["verify", path]] + [
        ["weyl", path, "--triplet", kind, "--grid", grid]
        for kind in ("main", "basic", "tilde")]
    verdicts = []
    for argv in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        text = out.getvalue()
        if not text:
            seen = None
        elif argv[0] == "analyze":
            report = json.loads(text)
            sym = report["symmetry"]
            seen = ([sym[key] for key in ("is_symmetric", "is_selfadjoint",
                                          "is_nonnegative", "dom_perp_ran")],
                    {key: part["dim"] for key, part in report["parts"].items()})
        elif argv[0] == "extensions":
            report = json.loads(text)
            seen = ([c["passed"] for c in report["checks"]],
                    [f["extremal"] for f in report["extremal_family"]],
                    report["flags"])
        elif argv[0] == "verify":
            lines = text.splitlines()
            seen = [line.split()[0] for line in lines[:-1]] + lines[-1:]
        else:
            seen = [row[-1] for row in csv.reader(io.StringIO(text))][1:]
        verdicts.append((argv[0], argv[3:4], code, seen))
    return verdicts


class TestBasisInvariance:
    """A relation is its graph, not the basis it is given in: a graph_basis
    spec and the same spec with its basis times a unitary get the same
    exit codes and verdicts from every command."""

    @settings(max_examples=15, deadline=None)
    @given(kind=st.sampled_from(["operator", "hermitian", "subspace"]),
           n1=st.integers(1, 4), n2=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_verdicts_do_not_depend_on_the_basis(self, kind, n1, n2, seed):
        if kind == "hermitian":
            n2 = n1
        basis = _graph_basis(kind, n1, n2, seed)
        rotated = basis @ haar_unitary(np.random.default_rng(seed + 1),
                                       basis.shape[1])
        with tempfile.TemporaryDirectory() as tmp:
            verdicts = []
            for name, mat in (("given", basis), ("rotated", rotated)):
                path = write_spec(Path(tmp) / f"{name}.json", {
                    "mode": "graph_basis", "n1": n1, "n2": n2,
                    "matrices": {"basis": encode_matrix(mat)}})
                verdicts.append(_verdicts(path))
        assert verdicts[0] == verdicts[1]


class TestWeyl:
    def read_csv(self, text):
        return list(csv.reader(io.StringIO(text)))

    def test_grid_with_singular_point(self, halfline_spec, capsys):
        code = main(
            ["weyl", halfline_spec, "--triplet", "basic",
             "--grid", "[-1, [0, 1], 0]"]
        )
        assert code == 0
        rows = self.read_csv(capsys.readouterr().out)
        header, body = rows[0], rows[1:]
        assert header[:2] == ["re_lambda", "im_lambda"]
        assert header[-1] == "status"
        assert [r[-1] for r in body] == ["ok", "ok", "singular"]
        # basic Weyl function is lambda * I: check the (0,0) entry at -1
        i = header.index("m00_re")
        assert abs(float(body[0][i]) + 1.0) < 1e-9
        # singular rows leave the matrix cells empty
        assert all(cell == "" for cell in body[2][2:-1])

    def test_eigenvalue_of_ker_gamma0_is_singular(self, monkeypatch, capsys):
        # R = graph(1): the swapped main triplet has ker Gamma0 = K, whose
        # eigenvalues are +-1, and M'(2) = -1 / M(2) = -1 / 0.75
        monkeypatch.setitem(
            cli._TRIPLET_BUILDERS, "main",
            lambda bundle: swapped(boundary.triplet_main(bundle)),
        )
        code = main(
            ["weyl", str(DATA / "graph_one.json"), "--grid", "[-1.0, 1.0, 2.0]"]
        )
        assert code == 0
        header, *body = self.read_csv(capsys.readouterr().out)
        assert [r[-1] for r in body] == ["singular", "singular", "ok"]
        assert abs(float(body[2][header.index("m00_re")]) + 4 / 3) < 1e-12

    def test_rows_end_in_lf(self, halfline_spec, tmp_path, capsys):
        # a row must end in its last cell for line-anchored tools such as
        # grep ',ok$', on stdout and in an --out file alike
        out = tmp_path / "rows.csv"
        for argv in (["weyl", halfline_spec, "--grid", "[-1.0, 0.0]"],
                     ["semibound-demo"]):
            assert main(argv) == 0
            assert main(argv + ["--out", str(out)]) == 0
            for text in (capsys.readouterr().out, out.read_bytes().decode()):
                assert "\r" not in text, argv
                assert text.splitlines()[1].endswith((",ok", ",singular",
                                                      ",True", ",False"))

    @pytest.mark.parametrize("argv", [
        ["weyl", str(DATA / "halfline_embed.json"), "--triplet", "main",
         "--grid", "[1e-12, 1e10]"],
        ["weyl", str(DATA / "halfline_embed.json"), "--triplet", "basic",
         "--grid", "[-2.0, [0.0, 1.0], [1.5, -0.5], 0.0]"],
        ["semibound-demo"],
    ], ids=["weyl-singular", "weyl-mixed", "semibound-demo"])
    def test_csv_bytes_are_the_csv_modules(self, argv, monkeypatch, capsys):
        # no field needs quoting, so joining with commas writes what
        # csv.writer writes; both singular and ok rows are pinned
        tables = []
        real = cli._emit_csv

        def recorded(header, rows, out_path):
            tables.append((header, rows))
            real(header, rows, out_path)

        monkeypatch.setattr(cli, "_emit_csv", recorded)
        assert main(argv) == 0
        out = capsys.readouterr().out
        (header, rows), = tables
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        assert out.startswith(buf.getvalue())
        if argv[0] == "weyl":
            assert out == buf.getvalue()
            statuses = [row[-1] for row in rows]
            assert statuses == (["singular", "singular"] if "main" in argv
                                else ["ok", "ok", "ok", "singular"])

    def test_header_names_are_unique_past_ten(self, tmp_path, capsys):
        # basic's G0 = mul R* + ker R* has dimension 6 + 6 at rank 2 in
        # C^8 x C^8: g = 12, so unpadded (1, 10) and (11, 0) would collide
        rel = random_relation(8, 8, rank=2, rng=11)
        spec = write_spec(tmp_path / "g12.json", {
            "mode": "graph_basis", "n1": 8, "n2": 8,
            "matrices": {"basis": encode_matrix(rel.graph.basis)}})
        assert main(["weyl", spec, "--triplet", "basic",
                     "--grid", "[-1.0]"]) == 0
        header, row = self.read_csv(capsys.readouterr().out)
        assert len(header) == len(set(header)) == 2 + 2 * 12 * 12 + 1
        assert header == cli._weyl_header(12)
        assert header[2:6] == ["m0000_re", "m0000_im", "m0001_re", "m0001_im"]
        # basic's Weyl function is lambda * I, entry (11, 11) included
        assert float(row[header.index("m1111_re")]) == -1.0
        assert float(row[header.index("m1110_re")]) == 0.0

    @pytest.mark.parametrize("g", range(11))
    def test_header_names_are_unpadded_up_to_ten(self, g):
        want = ["re_lambda", "im_lambda"]
        for i in range(g):
            for j in range(g):
                want += [f"m{i}{j}_re", f"m{i}{j}_im"]
        assert cli._weyl_header(g) == want + ["status"]

    def test_bad_grid_exits_2(self, halfline_spec, capsys):
        assert main(["weyl", halfline_spec, "--grid", "nope"]) == 2
        assert "grid" in capsys.readouterr().err

    def test_grid_rejects_strings(self, halfline_spec, capsys):
        assert main(["weyl", halfline_spec, "--grid", '["a"]']) == 2

    def test_grid_rejects_non_finite(self, halfline_spec, capsys):
        # json.loads accepts NaN and Infinity; they must not reach the SVDs
        assert main(["weyl", halfline_spec, "--grid", "[NaN, Infinity]"]) == 2
        assert "--grid[0]: non-finite" in capsys.readouterr().err


class TestExtend:
    def test_selfadjoint_theta(self, halfline_spec, theta_spec, capsys):
        # the halfline lift has a 2-dim basic parameter space, matching
        # the 2x2 theta
        code = main(
            ["extend", halfline_spec, "--theta", theta_spec,
             "--triplet", "basic"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["symmetry"]["is_selfadjoint"]
        assert report["triplet"]["kind"] == "basic"

    def test_non_selfadjoint_theta_exits_3(
        self, halfline_spec, tmp_path, capsys
    ):
        bad = write_spec(
            tmp_path / "bad_theta.json",
            {
                "label": "skew",
                "mode": "operator",
                "n1": 2,
                "n2": 2,
                "matrices": {
                    "operator": [
                        [[0.0, 1.0], [0.0, 0.0]],
                        [[0.0, 0.0], [0.0, 1.0]],
                    ]
                },
            },
        )
        code = main(
            ["extend", halfline_spec, "--theta", bad, "--triplet", "basic"]
        )
        assert code == 3
        assert "selfadjoint" in capsys.readouterr().err

    @staticmethod
    def _plus_identity(tmp_path):
        return write_spec(
            tmp_path / "theta_plus_one.json",
            {
                "label": "plus identity",
                "mode": "operator",
                "n1": 2,
                "n2": 2,
                "matrices": {
                    "operator": [
                        [[1.0, 0.0], [0.0, 0.0]],
                        [[0.0, 0.0], [1.0, 0.0]],
                    ]
                },
            },
        )

    def test_nonnegative_theta_gets_the_krein_order(self, tmp_path, capsys):
        # theta = +I makes A_theta nonnegative, so extend decides
        # extremality and the resolvent sandwich
        code = main(
            ["extend", str(DATA / "halfline_embed.json"), "--theta",
             self._plus_identity(tmp_path), "--triplet", "basic"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["symmetry"]["is_nonnegative"]
        assert report["extremal"] is False
        assert report["krein_order"]["holds"] is True

    def test_nonnegative_theta_is_checked_once(self, tmp_path, monkeypatch,
                                               capsys):
        # one classify of A_theta serves the symmetry block, extremality
        # and the Krein order, and S is related to A_theta once
        calls = {"classify": 0, "relate": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for module in (cli, extension, relation):
            monkeypatch.setattr(module, "classify",
                                counted("classify", relation.classify))
        monkeypatch.setattr(extension, "relate",
                            counted("relate", extension.relate))
        code = main(
            ["extend", str(DATA / "halfline_embed.json"), "--theta",
             self._plus_identity(tmp_path), "--triplet", "basic"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["extremal"] is False
        assert calls == {"classify": 1, "relate": 1}

    def test_dimension_mismatch_exits_2(
        self, halfline_spec, theta_spec, capsys
    ):
        # main triplet of the halfline lift has a 4-dim parameter space
        code = main(["extend", halfline_spec, "--theta", theta_spec])
        assert code == 2
        assert "dimension" in capsys.readouterr().err


def _parent_boundary_basis(bundle, kind):
    """The boundary basis of kind as a lift that factored every part on
    its own printed it: G = (graph R)^perp; G0 from span and complement
    of each block of R; G~ the flip of R*'s graph projected off
    {0} x mul R* and re-spanned."""
    rel = bundle.R
    if kind == "main":
        return complement(rel.graph).basis
    if kind == "basic":
        return oplus(complement(span(rel.domain_block, rel.n1)),
                     complement(span(rel.range_block, rel.n2))).basis
    r_star = bundle.R_star
    n2 = r_star.n1
    mul = relation._dom_and_mul(r_star, CFG)[1].basis
    lifted = np.vstack([np.zeros((n2, mul.shape[1])), mul])
    w = r_star.graph.basis
    op = orthonormal_columns(w - lifted @ (lifted.conj().T @ w), CFG.rank_tol)
    return np.vstack([op[n2:], -op[:n2]])


def _triplet_on(bundle, kind, basis):
    """The lift's triplet of kind with its boundary maps taken in basis."""
    space = Subspace(basis.shape[0], basis)
    if kind == "basic":
        star = bundle.S0_star
        n, ph = star.n1, basis.conj().T
        w = star.graph.basis
        return boundary.BoundaryTriplet(kind, star, space, ph @ w[:n],
                                        ph @ w[n:], bundle.S_F, bundle.cfg)
    star = bundle.S_star if kind == "main" else bundle.S_tilde_star
    return boundary._LiftedTriplet(kind, star, space, bundle)


def _theta_payload(theta, coordinates=None):
    payload = {"mode": "graph_basis", "n1": theta.n1, "n2": theta.n2,
               "matrices": {"basis": encode_matrix(theta.graph.basis)}}
    if coordinates is not None:
        payload["coordinates"] = coordinates
    return payload


def _generated_spec(tmp_path):
    rel = random_relation(4, 4, rank=2, rng=11)
    return write_spec(tmp_path / "generated.json", {
        "mode": "graph_basis", "n1": 4, "n2": 4,
        "matrices": {"basis": encode_matrix(rel.graph.basis)},
    })


class TestThetaCoordinates:
    """A theta file that carries the basis it was written in means the
    same A_theta whatever basis the current lift factors."""

    @pytest.mark.parametrize("kind", ["main", "basic", "tilde"])
    @pytest.mark.parametrize("source", ["halfline_embed", "generated"])
    def test_parent_basis_theta_keeps_its_extension(self, source, kind,
                                                    tmp_path, capsys):
        spec = (str(DATA / "halfline_embed.json") if source == "halfline_embed"
                else _generated_spec(tmp_path))
        bundle = lift(load_relation_spec(spec).relation)
        old = _parent_boundary_basis(bundle, kind)
        g = old.shape[1]
        # a multivalued part too, so theta is not a multiple of I
        theta = random_selfadjoint_relation(g, rng=4, dom_dim=g - 1)
        path = write_spec(tmp_path / "theta.json", _theta_payload(
            theta, {"triplet": kind, "basis": encode_matrix(old)}))
        code = main(["extend", spec, "--theta", path, "--triplet", kind])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        ext = report["extension"]
        got = LinearRelation(ext["n1"], ext["n2"], Subspace(
            2 * ext["n1"], decode_matrix(ext["graph_basis"], "extension")))
        want = boundary.extension_from_boundary(
            _triplet_on(bundle, kind, old), theta)
        res = relation_equal(got, want)
        assert res.verdict is Verdict.EQUAL, (res.verdict, res.angle)
        assert report["theta"]["spec"]["coordinates"]["triplet"] == kind

    def test_theta_minus_one_needs_no_coordinates(self, tmp_path, capsys):
        # -I is fixed by every unitary change of basis
        halfline = str(DATA / "halfline_embed.json")
        bundle = lift(load_relation_spec(halfline).relation)
        theta = load_relation_spec(str(DATA / "theta_minus_one.json")).relation
        reports = []
        for coordinates in (None, {"triplet": "basic", "basis": encode_matrix(
                _parent_boundary_basis(bundle, "basic"))}):
            path = write_spec(tmp_path / "theta.json",
                              _theta_payload(theta, coordinates))
            assert main(["extend", halfline, "--theta", path,
                         "--triplet", "basic"]) == 0
            ext = json.loads(capsys.readouterr().out)["extension"]
            reports.append(LinearRelation(ext["n1"], ext["n2"], Subspace(
                2 * ext["n1"], decode_matrix(ext["graph_basis"], "ext"))))
        assert relation_equal(*reports).verdict is Verdict.EQUAL

    @pytest.mark.parametrize("defect, message", [
        ("kind", "'main' triplet"),
        ("span", "does not span"),
        ("gram", "not orthonormal"),
        ("shape", "shape"),
    ])
    def test_mismatched_coordinates_exit_2(self, defect, message, tmp_path,
                                           capsys):
        halfline = str(DATA / "halfline_embed.json")
        bundle = lift(load_relation_spec(halfline).relation)
        basis = bundle.G0.basis
        kind = "basic"
        if defect == "kind":
            kind = "main"
        elif defect == "span":
            # turn the first column into a direction of G0's complement
            other = complement(bundle.G0).basis[:, :1]
            basis = np.hstack([other, basis[:, 1:]])
        elif defect == "gram":
            basis = 2.0 * basis
        else:
            basis = basis[:-1]
        theta = load_relation_spec(str(DATA / "theta_minus_one.json")).relation
        path = write_spec(tmp_path / "theta.json", _theta_payload(
            theta, {"triplet": kind, "basis": encode_matrix(basis)}))
        code = main(["extend", halfline, "--theta", path,
                     "--triplet", "basic"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and message in err, err

    @pytest.mark.parametrize("entry", [
        [], {"basis": [[[1.0, 0.0]]]}, {"triplet": 1, "basis": [[[1.0, 0.0]]]},
        {"triplet": "basic"}, {"triplet": "basic", "basis": [[1.0]]},
    ], ids=["list", "no-triplet", "int-triplet", "no-basis", "bare-number"])
    def test_malformed_coordinates_exit_2(self, entry, tmp_path, capsys):
        theta = load_relation_spec(str(DATA / "theta_minus_one.json")).relation
        path = write_spec(tmp_path / "theta.json",
                          _theta_payload(theta, entry))
        code = main(["extend", str(DATA / "halfline_embed.json"), "--theta",
                     path, "--triplet", "basic"])
        assert code == 2
        assert "coordinates" in capsys.readouterr().err


class TestSemiboundDemo:
    def test_csv_and_verdict(self, tmp_path, capsys):
        out = tmp_path / "demo.csv"
        code = main(
            ["semibound-demo", "--c-list", "[0.0, 1.0]", "--out", str(out)]
        )
        assert code == 0
        assert "verdict" in capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert rows[0][0] == "c"
        assert abs(float(rows[1][1]) + 1.0) < 1e-8
        assert abs(float(rows[2][1]) + 1.0 + math.sqrt(2)) < 1e-8

    def test_bad_c_list_exits_2(self, capsys):
        assert main(["semibound-demo", "--c-list", "{}"]) == 2

    def test_non_finite_delta_exits_2(self, capsys):
        assert main(["semibound-demo", "--delta", "nan"]) == 2
        assert "--delta: non-finite" in capsys.readouterr().err

    def test_non_finite_slope_exits_2(self, capsys):
        # an infinite slope used to pass with an infinite gap
        assert main(["semibound-demo", "--c-list", "[Infinity]"]) == 2
        err = capsys.readouterr().err
        assert "--c-list[0]: non-finite" in err

    def test_default_list_passes_the_gap_rule(self, capsys):
        assert main(["semibound-demo"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == (
            "verdict: bounded-below branch holds for every family member "
            "(4/4); criterion agreement 4/4"
        )

    def test_gap_beyond_angle_tol_exits_1(self, capsys):
        # the computed bound misses the closed form by about 1e12 here
        assert main(["semibound-demo", "--c-list", "[1e6]"]) == 1
        last = capsys.readouterr().out.splitlines()[-1]
        assert "closed-form gap FAILED" in last
        assert "[1000000.0]" in last

    def test_too_steep_slope_exits_2(self, capsys):
        assert main(["semibound-demo", "--c-list", "[1e200]"]) == 2
        err = capsys.readouterr().err
        assert "slope c = 1e+200" in err and "rank_tol = 1e-10" in err

    def test_missing_lower_bound_is_a_typed_error(self, monkeypatch, capsys):
        monkeypatch.setattr(boundary, "lower_bound", lambda rel, cfg=None: None)
        assert main(["semibound-demo", "--c-list", "[1.0]"]) == 3
        assert "no finite lower bound" in capsys.readouterr().err


class TestVerify:
    def test_pass(self, halfline_spec, capsys):
        assert main(["verify", halfline_spec]) == 0
        out = capsys.readouterr().out
        assert "verify: PASS" in out
        assert "FAIL" not in out

    def test_check_names_and_order(self, capsys):
        assert main(["verify", str(DATA / "halfline_embed.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[1] for line in lines[:-1]] == VERIFY_CHECKS
        assert all(line.startswith("ok ") for line in lines[:-1])
        assert lines[-1] == f"verify: PASS ({len(VERIFY_CHECKS)}/{len(VERIFY_CHECKS)})"

    @pytest.mark.parametrize("name", ["graph_one", "theta_minus_one"])
    def test_degenerate_triplet_has_no_weyl_row(self, name, capsys):
        # G0 = {0}: the basic triplet has no Weyl function to certify
        assert main(["verify", str(DATA / f"{name}.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        want = [c for c in VERIFY_CHECKS if c != "weyl_basic_certificate"]
        assert [line.split()[1] for line in lines[:-1]] == want
        assert lines[-1] == f"verify: PASS ({len(want)}/{len(want)})"

    def test_graph_of_everything_passes(self, tmp_path, capsys):
        # graph R = C^12 x C^12: G = {0}, so the sweep has no parameter
        # to draw and holds vacuously
        basis = orthonormal_columns(
            np.random.default_rng(8).standard_normal((24, 24)), 1e-10)
        path = write_spec(tmp_path / "everything.json", {
            "mode": "graph_basis", "n1": 12, "n2": 12,
            "matrices": {"basis": encode_matrix(basis)},
        })
        for command in ("analyze", "extensions"):
            assert main([command, path]) == 0
        assert main(["verify", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "ok   extension_sweep" in lines
        assert lines[-1].startswith("verify: PASS")

    def test_corrupted_basis_fails(self, tmp_path, capsys):
        path = write_spec(
            tmp_path / "skew.json",
            {
                "label": "not orthonormal",
                "mode": "graph_basis",
                "n1": 1,
                "n2": 1,
                "matrices": {
                    "basis": [[[1.0, 0.0]], [[1.0, 0.0]]],
                },
            },
        )
        assert main(["verify", path]) == 1
        out = capsys.readouterr().out
        assert "FAIL input_graph_orthonormal" in out
        assert "verify: FAIL" in out

    @pytest.mark.parametrize(
        "defect, tight, loose",
        # rank_tol 1e-11 tightens both bounds below the patched residuals,
        # rank_tol 1e-8 loosens them above; the default sits between
        [(5e-11, "1e-11", None), (5e-9, None, "1e-8")],
    )
    def test_rank_tol_sets_green_and_weyl_bounds(
            self, defect, tight, loose, monkeypatch, capsys):
        # the Green defect is patched to defect and the Weyl certificate
        # to 10 defect more: both pass at rank_tol (bounds rank_tol and
        # 10 rank_tol) when defect < rank_tol, and fail when defect > rank_tol
        real_certificate = cli.weyl_certificate
        monkeypatch.setattr(cli, "green_identity_defect", lambda trip: defect)
        monkeypatch.setattr(
            cli, "weyl_certificate",
            lambda trip, lam: real_certificate(trip, lam) + 10 * defect)
        path = str(DATA / "halfline_embed.json")
        failing = [name for name in VERIFY_CHECKS
                   if name.startswith(("triplet_", "weyl_"))]
        green_checks = [f"triplet_{kind}_green_identity"
                        for kind in ("main", "basic", "tilde")]

        def verify_failures(*extra):
            code = main(["verify", path, *extra])
            lines = capsys.readouterr().out.splitlines()
            return code, [line.split()[1] for line in lines
                          if line.startswith("FAIL ")]

        def extensions_failures(*extra):
            code = main(["extensions", path, *extra])
            checks = json.loads(capsys.readouterr().out)["checks"]
            return code, [c["name"] for c in checks if not c["passed"]]

        # passing at the bound that is above the defect ...
        above = ["--tol-rank", loose] if loose else []
        assert verify_failures(*above) == (0, [])
        assert extensions_failures(*above) == (0, [])
        # ... and failing at the one below it
        below = ["--tol-rank", tight] if tight else []
        assert verify_failures(*below) == (1, failing)
        assert extensions_failures(*below) == (1, green_checks)


def _nearly_orthonormal(n, rank, seed, scale=0.0, decimals=None):
    """A random graph basis in C^n x C^n with its first column scaled by
    1 + scale, or with every part rounded to decimals."""
    basis = random_relation(n, n, rank=rank, rng=seed).graph.basis.copy()
    basis[:, 0] *= 1.0 + scale
    if decimals is not None:
        basis = (np.round(basis.real, decimals)
                 + 1j * np.round(basis.imag, decimals))
    return basis


def _graph_basis_spec(tmp_path, basis):
    n = basis.shape[0] // 2
    return write_spec(tmp_path / "near.json", {
        "mode": "graph_basis", "n1": n, "n2": n,
        "matrices": {"basis": encode_matrix(basis)},
    })


class TestNearlyOrthonormalInput:
    """A graph basis that passes the Gram test but deviates from
    orthonormal by more than round-off is polished on load."""

    @pytest.mark.parametrize("n, rank, seed, scale, decimals", [
        (6, 6, 1, 1e-7, None),
        (6, 6, 2, 4e-6, None),
        (12, 24, 3, 1e-6, None),
        (4, 4, 1, 0.0, 8),
        (4, 4, 2, 0.0, 8),
    ])
    def test_check_commands_pass(self, n, rank, seed, scale, decimals,
                                 tmp_path, capsys):
        basis = _nearly_orthonormal(n, rank, seed, scale, decimals)
        path = _graph_basis_spec(tmp_path, basis)
        spec = load_relation_spec(path)
        # accepted as it stands: a polished basis is not "orthonormalized"
        assert not spec.was_orthonormalized
        # one Newton-Schulz step takes a Gram deviation E to about (3/4) E^2
        before, after = (
            np.abs(b.conj().T @ b - np.eye(b.shape[1])).max()
            for b in (basis, spec.relation.graph.basis))
        assert after <= before**2 + 1e-14, (before, after)
        assert main(["extensions", path]) == 0
        assert main(["verify", path]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith(
            "verify: PASS")

    def test_echo_is_the_input_basis(self, tmp_path, capsys):
        basis = _nearly_orthonormal(6, 6, 1, scale=1e-7)
        assert main(["analyze", _graph_basis_spec(tmp_path, basis)]) == 0
        echo = json.loads(capsys.readouterr().out)["input"]["spec"]
        np.testing.assert_array_equal(
            decode_matrix(echo["matrices"]["basis"], "basis"), basis)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 6),
        rank_share=st.floats(0.1, 1.0),
        seed=st.integers(0, 2**16),
        scale=st.floats(-5e-6, 5e-6),
        noise=st.sampled_from([0.0, 1e-9, 3e-9, 6e-9]),
    )
    def test_every_accepted_basis_is_its_adjoints_adjoint(
            self, tmp_path_factory, n, rank_share, seed, scale, noise):
        rank = max(1, round(rank_share * 2 * n))
        basis = _nearly_orthonormal(n, rank, seed, scale)
        rng = np.random.default_rng(seed)
        basis = basis + noise * (rng.uniform(-1, 1, basis.shape)
                                 + 1j * rng.uniform(-1, 1, basis.shape))
        rel = load_relation_spec(
            _graph_basis_spec(tmp_path_factory.mktemp("near"), basis)).relation
        res = relation_equal(adjoint(adjoint(rel)), rel)
        assert res.verdict is Verdict.EQUAL, res


class TestReportsAgree:
    """verify's grouped checks are folds of extensions' checks: passed
    when all of the group pass, residual their largest.  The Krein-order
    checks are left out: verify draws its parameters from the rng stream
    after the sweep's draws, extensions from a fresh stream, so they
    sample different parameters."""

    GROUPS = {
        **{f"triplet_{kind}": [f"triplet_{kind}_green_identity",
                               f"triplet_{kind}_surjective_and_kernels"]
           for kind in ("main", "basic", "tilde")},
        "extreme_extensions_closed_forms": ["friedrichs_closed_form",
                                            "krein_closed_form"],
    }

    @pytest.mark.parametrize("defect", [None, 5e-11])
    @pytest.mark.parametrize("path", sorted(DATA.glob("*.json")),
                             ids=lambda path: path.stem)
    def test_verify_groups_fold_extensions_checks(self, path, defect,
                                                  monkeypatch, capsys):
        argv = [str(path)]
        if defect is not None:
            # a Green defect above rank_tol fails every triplet check
            monkeypatch.setattr(cli, "green_identity_defect",
                                lambda trip: defect)
            argv += ["--tol-rank", "1e-11"]
        main(["extensions", *argv])
        checks = {c["name"]: c
                  for c in json.loads(capsys.readouterr().out)["checks"]}
        main(["verify", *argv])
        lines = {line.split()[1]: line
                 for line in capsys.readouterr().out.splitlines()[:-1]}
        for name, group in self.GROUPS.items():
            passed = all(checks[c]["passed"] for c in group)
            residual = max(checks[c]["residual"] for c in group)
            status = "ok" if passed else "FAIL"
            want = f"{status:4s} {name} (residual={residual:.3e})"
            assert lines[name] == want
            if name.startswith("triplet_"):
                assert passed is (defect is None)


KREIN_MARGIN = -1e-7


class TestKreinRule:
    """extend's holds, extensions' and verify's Krein checks read one
    comparison: the margin is >= psd_floor."""

    @pytest.mark.parametrize("floor, holds", [
        (KREIN_MARGIN, True),
        (float(np.nextafter(KREIN_MARGIN, 0.0)), False),
    ])
    def test_margin_at_the_floor(self, floor, holds, tmp_path, monkeypatch,
                                 capsys):
        for name in ("krein_order_margin", "_krein_margin"):
            monkeypatch.setattr(cli, name, lambda a, bundle: KREIN_MARGIN)
        path = str(DATA / "halfline_embed.json")
        flag = f"--psd-floor={floor!r}"
        code = 0 if holds else 1
        status = "ok" if holds else "FAIL"

        assert main(["extend", path, "--theta",
                     TestExtend._plus_identity(tmp_path), "--triplet",
                     "basic", flag]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["krein_order"]["holds"] is holds

        assert main(["extensions", path, flag]) == code
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [c for c in checks if c["name"].startswith("krein_order")] == [
            {"name": "krein_order_sampled_parameters", "passed": holds,
             "residual": -KREIN_MARGIN}]
        assert all(c["passed"] for c in checks
                   if not c["name"].startswith("krein_order"))

        assert main(["verify", path, flag]) == code
        lines = capsys.readouterr().out.splitlines()
        assert f"{status:4s} krein_order_sampled (residual=1.000e-07)" in lines
        assert sum(line.startswith("FAIL ") for line in lines) == (not holds)


class TestErrorPaths:
    def test_malformed_json_exits_2_with_location(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"label": "x",\n  "mode": }')
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_missing_file_exits_2(self, capsys):
        assert main(["analyze", "/no/such/file.json"]) == 2

    @pytest.mark.parametrize("argv", [
        ["analyze", str(DATA / "halfline_embed.json")],
        ["weyl", str(DATA / "halfline_embed.json"), "--grid", "[-1.0]"],
        ["verify", str(DATA / "graph_one.json")],
    ], ids=["analyze", "weyl", "verify"])
    def test_closed_stdout_exits_2(self, argv):
        # the reader of stdout is gone before the command writes: an input
        # error on one stderr line, and no "Exception ignored" at shutdown
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        try:
            proc = subprocess.run([sys.executable, "-m", "linrel.cli", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE,
                                  text=True, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == "input error: stdout: Broken pipe\n"

    @pytest.mark.parametrize(
        "argv", [["analyze", str(DATA / "graph_one.json")], ["semibound-demo"]]
    )
    def test_out_into_missing_directory_exits_2(self, argv, tmp_path, capsys):
        out = tmp_path / "missing" / "report.txt"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ")
        assert str(out) in err and "No such file or directory" in err
        assert not out.parent.exists()

    @pytest.mark.parametrize("command", ["verify", "extensions"])
    def test_out_is_checked_before_any_work(self, command, tmp_path,
                                            monkeypatch, capsys):
        def no_lift(rel, cfg=None):
            pytest.fail("the command ran before --out was checked")

        monkeypatch.setattr(cli, "lift", no_lift)
        out = tmp_path / "missing" / "x.txt"
        path = str(DATA / "halfline_embed.json")
        assert main([command, path, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"input error: {out}: No such file or directory\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["verify", "extensions"])
    def test_out_directory_is_rejected_before_any_work(self, command, tmp_path,
                                                       monkeypatch, capsys):
        def no_lift(rel, cfg=None):
            pytest.fail("the command ran before --out was checked")

        monkeypatch.setattr(cli, "lift", no_lift)
        path = str(DATA / "halfline_embed.json")
        assert main([command, path, "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {tmp_path}: Is a directory\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["verify", "extensions"])
    def test_empty_out_is_rejected_before_any_work(self, command, tmp_path,
                                                   monkeypatch, capsys):
        # the empty path used to pass the check and fail only at open,
        # after the whole battery had run
        def no_lift(rel, cfg=None):
            pytest.fail("the command ran before --out was checked")

        monkeypatch.setattr(cli, "lift", no_lift)
        monkeypatch.chdir(tmp_path)
        path = str(DATA / "halfline_embed.json")
        assert main([command, path, "--out", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "input error: --out: No such file or directory\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["analyze", str(DATA / "halfline_embed.json")],
        ["extensions", str(DATA / "halfline_embed.json")],
        ["verify", str(DATA / "halfline_embed.json")],
        ["weyl", str(DATA / "halfline_embed.json"), "--grid", "[-1.0]"],
        ["extend", str(DATA / "halfline_embed.json"), "--theta",
         str(DATA / "theta_minus_one.json"), "--triplet", "basic"],
        ["semibound-demo"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_exits_2(self, argv, monkeypatch, capsys):
        # numpy's default_rng refuses a negative seed: extensions and
        # verify used to exit 4 with its ValueError, analyze to exit 0
        def no_load(*args, **kwargs):
            pytest.fail("the command ran before --seed was checked")

        monkeypatch.setattr(cli, "load_relation_spec", no_load)
        monkeypatch.setattr(cli, "alternative_experiment", no_load)
        assert main([*argv, "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "input error: --seed: expected a non-negative integer, got -1\n"
        )

    def test_wrong_operator_shape_exits_2(self, tmp_path, capsys):
        path = write_spec(
            tmp_path / "shape.json",
            {
                "label": "wrong shape",
                "mode": "operator",
                "n1": 2,
                "n2": 2,
                "matrices": {"operator": [[[1.0, 0.0]]]},
            },
        )
        assert main(["analyze", path]) == 2
        assert "operator" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry, why",
        [([True, False], "expected a real number"), ([10**400, 0], "non-finite")],
    )
    def test_spec_entry_must_be_a_finite_real(self, tmp_path, entry, why,
                                              capsys):
        # bool is an int to Python, and float(10**400) overflows
        path = write_spec(
            tmp_path / "entry.json",
            {
                "mode": "operator",
                "n1": 1,
                "n2": 1,
                "matrices": {"operator": [[entry]]},
            },
        )
        assert main(["analyze", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ")
        assert "matrices.operator[0][0]" in err and why in err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--tol-rank", "-1"),
            ("--tol-angle", "nan"),
            ("--tol-angle", "0"),
            ("--psd-floor", "1"),
            # below machine epsilon: these used to exit 4, 4 and 3
            ("--tol-angle", "1e-20"),
            ("--tol-rank", "1e-16"),
            ("--tol-rank", "4e-17"),
        ],
    )
    def test_bad_tolerance_exits_2(self, operator_spec, flag, value, capsys):
        halfline = str(DATA / "halfline_embed.json")
        for argv in (["analyze", operator_spec], ["extensions", halfline],
                     ["verify", halfline]):
            assert main([*argv, flag, value]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("input error: ")
            assert captured.out == ""

    def test_tolerances_at_machine_epsilon_are_accepted(self):
        eps = np.finfo(float).eps
        cfg = ToleranceConfig(rank_tol=eps, angle_tol=eps)
        assert cfg.rank_tol == cfg.angle_tol == eps
        with pytest.raises(ValueError, match="machine epsilon"):
            ToleranceConfig(rank_tol=np.nextafter(eps, 0))

    def test_internal_error_exits_4(self, monkeypatch, capsys):
        # an exception outside the typed errors is an internal error
        def broken_lift(rel, cfg=None):
            raise ArithmeticError("closed-form S* disagrees with adjoint(S)")

        monkeypatch.setattr(cli, "lift", broken_lift)
        path = str(DATA / "halfline_embed.json")
        assert main(["extensions", path]) == 4
        err = capsys.readouterr().err
        assert err.startswith("internal error: ArithmeticError: ")
        assert err.count("\n") == 1

    def test_negative_psd_floor_needs_the_equals_form(self, operator_spec, capsys):
        # argparse reads "-1e-6" after a space as an option, not a value
        with pytest.raises(SystemExit) as exc:
            main(["analyze", operator_spec, "--psd-floor", "-1e-6"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["analyze", operator_spec, "--psd-floor=-1e-6"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["psd_floor"] == -1e-6


class TestShippedSpecs:
    """The commands of CI's console-script step, in process, on data/*.json."""

    ENVELOPE = ["tool", "config", "input"]

    @staticmethod
    def runs():
        for spec in sorted(str(p) for p in DATA.glob("*.json")):
            yield "json", ["analyze", spec]
            yield "text", ["verify", spec]
            yield "json", ["extensions", spec]
            for kind in ("main", "basic", "tilde"):
                yield "csv", ["weyl", spec, "--triplet", kind,
                              "--grid", "[-1.0, [0.0, 1.0]]"]
        yield "json", ["extend", str(DATA / "halfline_embed.json"),
                       "--theta", str(DATA / "theta_minus_one.json"),
                       "--triplet", "basic"]
        yield "csv", ["semibound-demo"]

    def test_every_command_exits_0_through_one_output_path(self, capsys):
        envelopes = []
        for kind, argv in self.runs():
            assert main(argv) == 0, argv
            out = capsys.readouterr().out
            if kind == "json":
                report = json.loads(out)
                assert set(self.ENVELOPE) <= set(report), argv
                envelopes.append({k: sorted(report[k]) for k in self.ENVELOPE})
            elif kind == "csv":
                header = out.splitlines()[0]
                first = "re_lambda,im_lambda," if argv[0] == "weyl" else "c,"
                assert header.startswith(first), argv
            else:
                assert out.splitlines()[-1].startswith("verify: PASS"), argv
        assert len(envelopes) > 1
        assert all(e == envelopes[0] for e in envelopes)

    @pytest.mark.parametrize(
        "name", sorted(p.stem for p in DATA.glob("*.json"))
    )
    def test_radius_is_at_least_the_lower_bound(self, name, capsys):
        # the unit f that attains lower_bound has |<g, f>| = |lower_bound|,
        # in analyze and in extend on each triplet; a theta of the wrong
        # dimension is an input error with no report
        spec = str(DATA / f"{name}.json")
        theta = str(DATA / "theta_minus_one.json")
        runs = [["analyze", spec]] + [
            ["extend", spec, "--theta", theta, "--triplet", kind]
            for kind in ("main", "basic", "tilde")
        ]
        checked = 0
        for argv in runs:
            code = main(argv)
            out, err = capsys.readouterr()
            if code == 2:
                assert "parameter space has dimension" in err, argv
                continue
            assert code == 0, argv
            sym = json.loads(out)["symmetry"]
            if not sym["is_symmetric"]:
                continue
            checked += 1
            radius = sym["numerical_range_radius"]
            if sym["lower_bound"] == "inf":  # dom R = {0}
                assert radius == 0.0, argv
            else:
                assert radius >= abs(sym["lower_bound"]), argv
        assert checked, name
