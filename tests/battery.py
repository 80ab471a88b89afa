"""Byte battery of the linrel command line, run in process.

Every command runs on a fixed set of specs: data/*.json, the generated
specs of the benchmark's cli_cold workload for seeds 1 and 3, and seeded
QR graph_basis specs at (n, rank) = (24, 12) and (48, 48), n = n1 = n2,
and kernel pairs whose graph blocks have singular values just below the
default rank_tol (5e-11) or between angle_tol and a rank_tol of 1e-6
(1e-7), in one block or in both.  That is analyze, extensions and
verify (also with --seed 3 and --tol-rank 1e-11, and on those kernel
pairs with --tol-rank 1e-6, weyl on every triplet too), weyl on all
three triplets over a grid with singular
points, extend with a seeded selfadjoint theta on every nondegenerate
triplet, with and without a coordinates entry, semibound-demo, --out,
and the error paths.  The manifest maps each argv to its exit code and
the sha256 of its stdout, its stderr and its --out file, and of its
output with every float literal masked, so that a comparison tells a
move in the digits (verdicts, statuses and words the same) from any
other; a JSON report also gets the sha256 of each key down to depth
two, so that a comparison names the report fields that moved.  Its
header records Python, numpy and the BLAS and LAPACK numpy was built
with.

    python tests/battery.py --workdir W --manifest A.json [--src SRC]
    python tests/battery.py --compare A.json B.json

--src is the source directory whose linrel package runs (default: the
src next to this file), so one checkout can run another's code.  The
work directory holds the specs, theta files and --out files, and the
runs name them relative to it, so reports do not depend on where it is.
A theta file with coordinates copies the boundary basis that
extensions prints; it is written by the first run in a work directory
and read by every later one, so two versions run in one work directory
read the same theta bytes.  Bytes depend on the BLAS kernel and the
CPU: compare manifests made on one machine.  Not a pytest module.
Python 3.10 or later, as linrel.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import shutil
import sys
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GRID = "[-2.0, -0.5, 0.0, 1e-12, [0.0, 1.0], [1.5, -0.5], 1e10]"
TRIPLETS = ("main", "basic", "tilde")
QR_SPECS = ((24, 12), (48, 48))
# kernel pairs C, D as diagonals of their top rows (zero rows below, to n
# rows): one block or both with a singular value the rank rule drops at
# the default rank_tol (5e-11), or only at --tol-rank 1e-6 (1e-7, above
# the default angle_tol)
RANK_RULE_SPECS = {
    "one_block_5e-11": (2, [1.0, 5e-11], [1.0, 1.0]),
    "one_block_1e-7": (2, [1.0, 1e-7], [1.0, 1.0]),
    "both_blocks_5e-11": (4, [1.0, 1.0, 5e-11], [3e-11, 1.0, 1.0]),
    "both_blocks_1e-7": (4, [1.0, 1.0, 1e-7], [2e-7, 1.0, 1.0]),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _key_hashes(text: str) -> dict[str, str]:
    """sha256 of each key of a JSON object down to depth two; {} when the
    text is not a JSON object."""
    try:
        obj = json.loads(text)
    except ValueError:
        return {}
    if not isinstance(obj, dict):
        return {}
    out = {}
    for key, value in obj.items():
        items = value.items() if isinstance(value, dict) else [(None, value)]
        for sub, leaf in items:
            name = key if sub is None else f"{key}.{sub}"
            out[name] = _sha(json.dumps(leaf, sort_keys=True).encode())
    return out


# a float literal as repr, json and %.3e print it; integers stay
_FLOAT = re.compile(r"-?(\d+\.\d*(e[-+]?\d+)?|\d+e[-+]?\d+|inf|nan)")


def _masked(text: str) -> str:
    """sha256 of text with every float masked: what is left is the
    verdicts, statuses, dimensions and words of a report."""
    return _sha(_FLOAT.sub("#", text).encode())


def _encode(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def _crandn(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols)))


def _write_json(path: Path, obj: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2) + "\n")


def _write_specs() -> list[str]:
    """The relation specs, written under the current directory; their
    relative paths."""
    specs = []
    for src in sorted((ROOT / "data").glob("*.json")):
        dst = Path("data") / src.name
        dst.parent.mkdir(exist_ok=True)
        shutil.copyfile(src, dst)
        specs.append(str(dst))
    sys.path.insert(0, str(ROOT / "bench"))
    from cli_cold import _generated_specs

    for seed in (1, 3):
        for name, spec in _generated_specs(seed).items():
            path = Path("gen") / f"seed{seed}_{name}"
            _write_json(path, spec)
            specs.append(str(path))
    for n, rank in QR_SPECS:
        rng = np.random.default_rng([n, rank])
        basis = np.linalg.qr(_crandn(rng, 2 * n, rank))[0]
        path = Path("gen") / f"qr_n{n}_rank{rank}.json"
        _write_json(path, {"mode": "graph_basis", "n1": n, "n2": n,
                           "label": f"seeded QR n={n} rank={rank}",
                           "matrices": {"basis": _encode(basis)}})
        specs.append(str(path))
    for name, (n, c, d) in RANK_RULE_SPECS.items():
        path = Path("gen") / f"rank_rule_{name}.json"
        _write_json(path, {"mode": "kernel_pair", "n1": n, "n2": n,
                           "label": f"rank rule {name}", "matrices": {
                               key: _encode(np.eye(n, len(diag)) * diag)
                               for key, diag in (("c", c), ("d", d))}})
        specs.append(str(path))
    return specs


class Battery:
    def __init__(self) -> None:
        from linrel import cli

        self.cli = cli
        self.runs: dict[str, dict] = {}

    def run(self, *argv: str, out: str | None = None) -> str:
        """Run linrel with argv (and --out out); record it; its stdout."""
        argv = [*argv, *(["--out", out] if out else [])]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        text = stdout.getvalue()
        entry = {"exit": code,
                 "stdout": _sha(text.encode()),
                 "stderr": _sha(stderr.getvalue().encode()),
                 "masked": _masked(text + stderr.getvalue()),
                 "keys": _key_hashes(text)}
        if out and Path(out).is_file():
            written = Path(out).read_text()
            entry["out"] = _sha(written.encode())
            entry["masked"] = _masked(written + stderr.getvalue())
            entry["keys"] = _key_hashes(written)
        self.runs[" ".join(argv)] = entry
        return text


def _theta(path: Path, g: int, seed: int, kind: str,
           basis: list | None) -> str:
    """A seeded selfadjoint theta on C^g: the graph of a Hermitian matrix,
    with a coordinates entry when basis is given.  Kept if it exists."""
    if not path.exists():
        rng = np.random.default_rng([seed, g])
        raw = _crandn(rng, g, g)
        spec = {"mode": "operator", "n1": g, "n2": g,
                "label": f"seeded Hermitian theta g={g}",
                "matrices": {"operator": _encode((raw + raw.conj().T) / 2)}}
        if basis is not None:
            spec["coordinates"] = {"triplet": kind, "basis": basis}
        _write_json(path, spec)
    return str(path)


def _boundary_runs(bat: Battery, spec: str, report: str) -> None:
    """weyl on every triplet; extend with theta files on every
    nondegenerate one, and with data/theta_minus_one.json on each."""
    from linrel import lift
    from linrel.boundary import triplet_basic, triplet_main, triplet_tilde
    from linrel.specio import load_relation_spec

    builders = dict(zip(TRIPLETS, (triplet_main, triplet_basic,
                                   triplet_tilde)))
    spaces = {"main": "G", "basic": "G0", "tilde": "G_tilde"}
    printed = json.loads(report)["boundary_spaces"] if report else {}
    bundle = lift(load_relation_spec(spec).relation)
    stem = Path(spec).stem
    for kind in TRIPLETS:
        bat.run("weyl", spec, "--triplet", kind, "--grid", GRID)
        bat.run("extend", spec, "--theta", "data/theta_minus_one.json",
                "--triplet", kind)
        g = builders[kind](bundle).g
        if not g:
            continue
        plain = _theta(Path("theta") / f"{stem}_{kind}.json", g, 5, kind,
                       None)
        bat.run("extend", spec, "--theta", plain, "--triplet", kind)
        if spaces[kind] in printed:
            named = _theta(Path("theta") / f"{stem}_{kind}_coordinates.json",
                           g, 5, kind, printed[spaces[kind]]["basis"])
            bat.run("extend", spec, "--theta", named, "--triplet", kind)
            # coordinates for one triplet, given to another
            other = "basic" if kind != "basic" else "main"
            bat.run("extend", spec, "--theta", named, "--triplet", other)


def _error_runs(bat: Battery) -> None:
    spec = "data/halfline_embed.json"
    Path("skew.json").write_text(json.dumps({
        "label": "skew", "mode": "operator", "n1": 2, "n2": 2,
        "matrices": {"operator": [[[0.0, 1.0], [0.0, 0.0]],
                                  [[0.0, 0.0], [0.0, 1.0]]]}}))
    for argv in (
        ["analyze", "no/such/file.json"],
        ["analyze", spec, "--out", "out"],
        ["analyze", spec, "--out", "no/such/dir/report.json"],
        ["analyze", spec, "--out="],
        ["extensions", spec, "--seed=-1"],
        ["analyze", spec, "--tol-rank", "0"],
        ["analyze", spec, "--tol-angle", "1e-20"],
        ["analyze", spec, "--psd-floor", "1e-3"],
        ["weyl", spec, "--grid", "[\"a\"]"],
        ["weyl", spec, "--grid", "[]"],
        ["weyl", spec, "--grid", "[NaN]"],
        ["weyl", spec, "--triplet", "other", "--grid", "[1.0]"],
        ["extend", spec, "--theta", "skew.json", "--triplet", "basic"],
        ["extend", spec, "--theta", spec, "--triplet", "basic"],
        ["semibound-demo", "--c-list", "[]"],
        ["semibound-demo", "--delta", "inf"],
        ["no-such-command"],
        [],
        ["--version"],
        *[[cmd, "--help"] for cmd in ("analyze", "extensions", "weyl",
                                      "extend", "semibound-demo", "verify")],
    ):
        bat.run(*argv)


def _battery(workdir: Path) -> dict[str, dict]:
    workdir.mkdir(parents=True, exist_ok=True)
    cwd = Path.cwd()
    os.chdir(workdir)
    try:
        Path("out").mkdir(exist_ok=True)
        specs = _write_specs()
        bat = Battery()
        for spec in specs:
            stem = Path(spec).stem
            bat.run("analyze", spec)
            report = bat.run("extensions", spec)
            bat.run("verify", spec)
            for flags in (["--seed", "3"], ["--tol-rank", "1e-11"]):
                for cmd in ("analyze", "extensions", "verify"):
                    bat.run(cmd, spec, *flags)
            if "rank_rule" in stem:
                for cmd in ("analyze", "extensions", "verify"):
                    bat.run(cmd, spec, "--tol-rank", "1e-6")
                for kind in TRIPLETS:
                    bat.run("weyl", spec, "--triplet", kind, "--grid", GRID,
                            "--tol-rank", "1e-6")
            _boundary_runs(bat, spec, report)
            bat.run("analyze", spec, out=f"out/{stem}_analyze.json")
            bat.run("weyl", spec, "--triplet", "basic", "--grid", GRID,
                    out=f"out/{stem}_weyl.csv")
        spec = "data/halfline_embed.json"
        bat.run("extensions", spec, out="out/extensions.json")
        bat.run("verify", spec, out="out/verify.txt")
        bat.run("semibound-demo")
        bat.run("semibound-demo", "--delta", "0.5", "--c-list",
                "[0.0, 3.0, 1e4, 1e5]")
        bat.run("semibound-demo", out="out/semibound.csv")
        _error_runs(bat)
    finally:
        os.chdir(cwd)
    return bat.runs


def _header() -> dict:
    config = np.show_config(mode="dicts")
    return {"python": platform.python_version(),
            "machine": platform.machine(),
            "numpy": np.__version__,
            "blas": config["Build Dependencies"]["blas"],
            "lapack": config["Build Dependencies"]["lapack"]}


def _compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    if a["header"] != b["header"]:
        print("headers differ: bytes of the two manifests are not comparable")
    runs_a, runs_b = a["runs"], b["runs"]
    same = 0
    for argv in sorted(runs_a.keys() | runs_b.keys()):
        ra, rb = runs_a.get(argv), runs_b.get(argv)
        if ra is None or rb is None:
            print(f"only in {path_a if rb is None else path_b}: {argv}")
            continue
        if ra == rb:
            same += 1
            continue
        what = [f"exit {ra['exit']} -> {rb['exit']}"
                if ra["exit"] != rb["exit"] else f"exit {ra['exit']}"]
        what += [name for name in ("stdout", "stderr", "out")
                 if ra.get(name) != rb.get(name)]
        if ra["masked"] != rb["masked"]:
            what.append("MORE THAN FLOATS")  # a verdict, status or word
        keys = sorted(k for k in ra["keys"].keys() | rb["keys"].keys()
                      if ra["keys"].get(k) != rb["keys"].get(k))
        print(f"moved: {argv}: {', '.join(what)}"
              + (f"; keys {', '.join(keys)}" if keys else ""))
    total = len(runs_a.keys() | runs_b.keys())
    print(f"{same} of {total} identical")
    return 0 if same == total else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--manifest", type=Path)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    if args.compare:
        return _compare(*args.compare)
    if args.workdir is None or args.manifest is None:
        parser.error("--workdir and --manifest are needed for a run")
    sys.path.insert(0, str(args.src.resolve()))
    manifest = args.manifest.resolve()
    runs = _battery(args.workdir)
    manifest.write_text(json.dumps({"header": _header(), "runs": runs},
                                   indent=1, sort_keys=True) + "\n")
    codes = Counter(entry["exit"] for entry in runs.values())
    print(f"{len(runs)} runs, exit codes {dict(sorted(codes.items()))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
