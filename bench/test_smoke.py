"""Smoke test for the benchmark; it asserts no timings.

Every workload runs one short round in each mode and must print every
metric BENCHMARK.json declares, with its unit; a wrong result must count as
a failed operation.  Run from the repository root:

    python3 -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from cli_cold import G0_ZERO_DEFECT, WEYL_GRID, check_output  # noqa: E402
from common import CheckFailed, KnownDefect  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_declared_metric(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    if workload != "cli_cold":
        assert result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])


def test_perturbed_weyl_matrix_counts_as_failure(monkeypatch):
    import inproc
    import linrel
    from run import measure

    weyl = linrel.weyl
    monkeypatch.setattr(linrel, "weyl", lambda trip, lam, cfg=None: weyl(trip, lam, cfg) + 1e-6)
    result = measure(inproc.LiftChain(seed=3), seconds=0.0)
    assert result["attempted"] == len(result["failures"]) > 0
    assert all(not known and "closed form" in cause for cause, known in result["failures"])


def _weyl_csv(g0: int, perturb: float = 0.0) -> str:
    header = ["re_lambda", "im_lambda"]
    header += [f"m{i}{j}_{p}" for i in range(g0) for j in range(g0) for p in ("re", "im")]
    lines = [",".join(header + ["status"])]
    for lam in WEYL_GRID:
        mat = lam * np.eye(g0) + perturb
        cells = [repr(lam.real), repr(lam.imag)]
        cells += [repr(float(x)) for z in mat.ravel() for x in (z.real, z.imag)]
        lines.append(",".join(cells + ["ok"]))
    return "\n".join(lines) + "\n"


def test_cli_checks_reject_wrong_output():
    dims = (2, 2, 2, 2)  # n1, n2, dim R, dim G0
    check_output("weyl", "spec", dims, 0, _weyl_csv(2), "")
    with pytest.raises(CheckFailed):
        check_output("weyl", "spec", dims, 0, _weyl_csv(2, perturb=1e-6), "")
    with pytest.raises(CheckFailed):
        check_output("verify", "spec", dims, 1, "FAIL x\nverify: FAIL (13/14)\n", "")
    with pytest.raises(CheckFailed):
        check_output("extensions", "spec", dims, 2, "", G0_ZERO_DEFECT)
    with pytest.raises(KnownDefect):
        check_output("extensions", "spec", (2, 2, 2, 0), 2, "", G0_ZERO_DEFECT)
