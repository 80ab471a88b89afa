"""Command-line interface and the spec-file IO layer behind it."""

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from linrel import boundary, cli
from linrel.cli import main
from linrel.config import ToleranceConfig
from linrel.errors import InputFormatError
from linrel.relation import LinearRelation, numerical_radius, relation_equal
from linrel.specio import (
    decode_matrix,
    dump_report,
    encode_float,
    encode_matrix,
    load_relation_spec,
)
from linrel.subspace import Subspace, Verdict

from conftest import swapped

DATA = Path(__file__).resolve().parents[1] / "data"

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
    "weyl_main_closed_form",
    "triplet_basic",
    "weyl_basic_closed_form",
    "triplet_tilde",
    "weyl_tilde_closed_form",
    "extension_sweep",
    "krein_order_sampled",
]


def write_spec(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


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

    def test_nonnegative_theta_gets_the_krein_order(self, tmp_path, capsys):
        # theta = +I makes A_theta nonnegative, so extend decides
        # extremality and the resolvent sandwich
        plus = write_spec(
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
        code = main(
            ["extend", str(DATA / "halfline_embed.json"), "--theta", plus,
             "--triplet", "basic"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["symmetry"]["is_nonnegative"]
        assert report["extremal"] is False
        assert report["krein_order"]["holds"] is True

    def test_dimension_mismatch_exits_2(
        self, halfline_spec, theta_spec, capsys
    ):
        # main triplet of the halfline lift has a 4-dim parameter space
        code = main(["extend", halfline_spec, "--theta", theta_spec])
        assert code == 2
        assert "dimension" in capsys.readouterr().err


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
        # the Green defect is patched to defect and the Weyl gap to
        # 10 defect: both pass at rank_tol (bounds rank_tol and 10 rank_tol)
        # when defect < rank_tol, and fail when defect > rank_tol
        real_weyl = cli.weyl
        monkeypatch.setattr(cli, "green_identity_defect", lambda trip: defect)
        monkeypatch.setattr(cli, "weyl",
                            lambda trip, lam: real_weyl(trip, lam) + 10 * defect)
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


class TestErrorPaths:
    def test_malformed_json_exits_2_with_location(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"label": "x",\n  "mode": }')
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_missing_file_exits_2(self, capsys):
        assert main(["analyze", "/no/such/file.json"]) == 2

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
