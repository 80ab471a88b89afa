"""cli_cold workload: one new ``python -m linrel.cli`` process per operation.

This is what a command-line user pays: interpreter start, numpy and linrel
import, spec parsing and report encoding.  The inputs are the repository's
``data/*.json`` plus four spec files generated from the seed, written to
the run's own directory.  Each round runs analyze, extensions, verify and
``weyl --triplet basic`` on every input, in a seeded order.

This module does not import linrel: the expected dimensions the outputs
are checked against are computed here with plain numpy.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from common import CheckFailed, KnownDefect, crandn, orthonormal, require, seeded_rng

COMMANDS = ("analyze", "extensions", "verify", "weyl")
WEYL_GRID = (-2.0, -0.5, 1j, 1.5 - 0.5j)
WEYL_GRID_ARG = "[-2.0, -0.5, [0.0, 1.0], [1.5, -0.5]]"
WEYL_TOL = 1e-9

# `extensions` on a relation with dense domain and range (G0 = {0}) stops
# with this message: extremal_family builds a relation on C^0.
G0_ZERO_DEFECT = "input error: spaces must have dimension >= 1, got (0, 0)"

_GEN_STREAM = 2**32 - 2
_VERIFY_PASS = re.compile(r"^verify: PASS \((\d+)/(\d+)\)$")


def _encode(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def _generated_specs(seed: int) -> dict[str, dict]:
    """Small and moderate relations in each of the three spec modes."""
    rng = seeded_rng(seed, _GEN_STREAM)
    low_rank_op = crandn(rng, 4, 2) @ crandn(rng, 2, 4)
    return {
        "gen_kernel_pair_n3.json": {
            "mode": "kernel_pair", "n1": 3, "n2": 3,
            "matrices": {"c": _encode(crandn(rng, 3, 2)), "d": _encode(crandn(rng, 3, 2))},
        },
        "gen_operator_n4.json": {
            "mode": "operator", "n1": 4, "n2": 4,
            "matrices": {"operator": _encode(low_rank_op)},
        },
        "gen_kernel_pair_n12.json": {
            "mode": "kernel_pair", "n1": 12, "n2": 12,
            "matrices": {"c": _encode(crandn(rng, 12, 8)), "d": _encode(crandn(rng, 12, 8))},
        },
        "gen_graph_basis_n12.json": {
            "mode": "graph_basis", "n1": 12, "n2": 12,
            "matrices": {"basis": _encode(orthonormal(rng, 24, 12))},
        },
    }


def _decode(obj) -> np.ndarray:
    return np.array([[complex(re_, im) for re_, im in row] for row in obj], dtype=complex)


def expected_dims(spec: dict) -> tuple[int, int, int, int]:
    """(n1, n2, dim R, dim G0) of a spec, from its graph columns."""
    n1, n2 = spec["n1"], spec["n2"]
    m = spec["matrices"]
    if spec["mode"] == "operator":
        cols = np.vstack([np.eye(n1), _decode(m["operator"])])
    elif spec["mode"] == "kernel_pair":
        cols = np.vstack([_decode(m["c"]), _decode(m["d"])])
    else:
        cols = _decode(m["basis"])
    rank = int(np.linalg.matrix_rank(cols))
    g0 = (n1 - int(np.linalg.matrix_rank(cols[:n1]))) + (
        n2 - int(np.linalg.matrix_rank(cols[n1:]))
    )
    return n1, n2, rank, g0


class CliCold:
    def __init__(self, root: Path, seed: int, workdir: Path) -> None:
        self.root = root
        self.seed = seed
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.tracer = None
        self.spans_path = None
        self.peak_kb = 0
        self.specs: dict[str, tuple] = {}  # display name -> (path, dims)

    def setup(self) -> None:
        """Write the generated specs and run one untimed warm-up process."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        for path in sorted((self.root / "data").glob("*.json")):
            name = path.relative_to(self.root).as_posix()
            self.specs[name] = (name, expected_dims(json.loads(path.read_text())))
        for name, spec in _generated_specs(self.seed).items():
            path = self.workdir / name
            spec["label"] = f"benchmark-generated {spec['mode']} relation"
            path.write_text(json.dumps(spec))
            self.specs[name] = (path.relative_to(self.root).as_posix(), expected_dims(spec))
        self.run(("analyze", next(iter(self.specs))))

    def install_tracer(self, tracer, spans_path: Path) -> None:
        """Traced operations run the launcher, which installs the same wrappers."""
        self.tracer = tracer
        self.spans_path = spans_path

    @property
    def _state_path(self) -> Path:
        return self.workdir / "trace_state.json"

    def round(self, k: int) -> list:
        ops = [(cmd, spec) for spec in self.specs for cmd in COMMANDS]
        order = seeded_rng(self.seed, k).permutation(len(ops))
        return [ops[i] for i in order]

    def peak_rss_mb(self) -> float:
        return self.peak_kb / 1024.0

    def close(self) -> None:
        """Remove the generated spec files and captured outputs."""
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _argv(self, cmd: str, path: str, traced: bool) -> list[str]:
        args = [cmd, path, "--seed", str(self.seed & 0x7FFFFFFF)]
        if cmd == "weyl":
            args += ["--triplet", "basic", "--grid", WEYL_GRID_ARG]
        if traced:
            launcher = str(Path(__file__).resolve().parent / "cli_launcher.py")
            return [sys.executable, launcher, str(self._state_path), str(self.spans_path),
                    str(self.tracer.op_id), *args]
        return [sys.executable, "-m", "linrel.cli", *args]

    def run(self, op) -> None:
        cmd, spec = op
        path, dims = self.specs[spec]
        traced = self.tracer is not None and self.tracer.enabled
        if traced:
            self._state_path.unlink(missing_ok=True)
        out_path = self.workdir / "stdout.txt"
        err_path = self.workdir / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(self._argv(cmd, path, traced), cwd=self.root, env=self.env,
                                    stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        if traced and self._state_path.exists():
            self.tracer.merge(json.loads(self._state_path.read_text()))
        stdout = out_path.read_text(encoding="utf-8")
        stderr = err_path.read_text(encoding="utf-8")
        check_output(cmd, spec, dims, proc.returncode, stdout, stderr)


def check_output(cmd: str, spec: str, dims: tuple, rc: int, stdout: str, stderr: str) -> None:
    """Raise CheckFailed or KnownDefect unless the command's output is right."""
    n1, n2, dim, g0 = dims
    if cmd == "extensions" and g0 == 0 and rc == 2 and G0_ZERO_DEFECT in stderr:
        raise KnownDefect(f"extensions {spec}: {G0_ZERO_DEFECT}")
    require(rc == 0, f"{cmd} {spec}: exit code {rc}: {stderr.strip()[-200:]}")
    if cmd == "verify":
        last = stdout.strip().splitlines()[-1] if stdout.strip() else ""
        match = _VERIFY_PASS.match(last)
        require(match is not None and match.group(1) == match.group(2),
                f"verify {spec}: {last!r}")
        return
    if cmd == "weyl":
        _check_weyl_csv(spec, stdout, g0)
        return
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{cmd} {spec}: report is not JSON: {exc}") from exc
    inp = report["input"]
    require((inp["n1"], inp["n2"], inp["dim"]) == (n1, n2, dim),
            f"{cmd} {spec}: input echo {inp['n1']}/{inp['n2']}/{inp['dim']}, "
            f"expected {n1}/{n2}/{dim}")
    if cmd == "analyze":
        p = report["parts"]
        require(p["dom"]["dim"] + p["mul"]["dim"] == dim
                and p["ran"]["dim"] + p["ker"]["dim"] == dim
                and report["adjoint"]["dim"] == n1 + n2 - dim,
                f"analyze {spec}: parts or adjoint dimensions inconsistent")
    else:
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        require(not failed, f"extensions {spec}: failed checks {failed}")
        got = report["boundary_spaces"]["G0"]["dim"]
        require(got == g0, f"extensions {spec}: dim G0 = {got}, expected {g0}")


def _check_weyl_csv(spec: str, text: str, g0: int) -> None:
    """Every row ok, and the basic triplet's Weyl matrix equals lambda * I."""
    rows = list(csv.reader(io.StringIO(text)))
    require(len(rows) == 1 + len(WEYL_GRID), f"weyl {spec}: {len(rows)} CSV rows")
    width = 3 + 2 * g0 * g0
    for lam, row in zip(WEYL_GRID, rows[1:]):
        require(len(row) == width and row[-1] == "ok", f"weyl {spec}: row {row[:2]} not ok")
        got = complex(float(row[0]), float(row[1]))
        require(got == lam, f"weyl {spec}: row for {got}, expected {lam}")
        vals = np.array([float(x) for x in row[2:-1]]).reshape(g0 * g0, 2)
        mat = (vals[:, 0] + 1j * vals[:, 1]).reshape(g0, g0)
        err = float(np.max(np.abs(mat - lam * np.eye(g0)))) if g0 else 0.0
        require(err < WEYL_TOL * max(1.0, abs(lam)),
                f"weyl {spec}: |M({lam}) - lambda I| = {err:.3e}")
