"""linrel benchmark: end-to-end and per-layer metrics for three workloads.

Usage, from the repository root:

    python3 bench/run.py --workload lift_chain --seed 1 --seconds 25 --trace 0

Workloads (see bench/README.md for why each was chosen):

  lift_chain      lift -> boundary triplets -> Weyl grid -> extension, n 16..96
  calculus_small  parts, adjoint, classify, meet/join, 2x2 blocks, n 2..12
  cli_cold        one new ``python -m linrel.cli`` process per operation

Each workload is a closed loop with one client.  The run measures whole
rounds until ``--seconds`` have passed.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
rounds and reports the per-layer metrics of the traced ones, per
operation, plus the tracing overhead.  Every result is checked; a failed
operation is counted, never hidden.  The last line of standard output is
one JSON object; the lines before it, starting with ``#``, repeat every
metric with its unit, the failure rate and the machine set-up.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

# Pinned before numpy loads, here and (through the environment) in every
# child process: with more than one OpenBLAS thread on a small shared box
# the small SVDs this package makes become bimodal (see bench/README.md).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from common import KnownDefect  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("lift_chain", "calculus_small", "cli_cold")
SETUP_SAMPLES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("flops_computed"):
        return "flop"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def check_layout() -> None:
    """The benchmark measures the package in ROOT/src; refuse to run without it."""
    missing = [p for p in (ROOT / "src" / "linrel" / "__init__.py", ROOT / "data")
               if not p.exists()]
    if missing:
        sys.exit(f"bench/run.py: {', '.join(map(str, missing))} not found; "
                 "run from a linrel checkout")
    sys.path.insert(0, str(ROOT / "src"))


def make_workload(name: str, seed: int):
    if name == "cli_cold":
        from cli_cold import CliCold

        return CliCold(ROOT, seed, OUT / f"cli-{os.getpid()}")
    import inproc

    return {"lift_chain": inproc.LiftChain, "calculus_small": inproc.CalculusSmall}[name](seed)


def setup_probe(args) -> None:
    """Import, generate and warm up in this fresh process; print the time."""
    workload = make_workload(args.workload, args.seed)
    try:
        workload.setup()
        elapsed = time.perf_counter() - _START
    finally:
        workload.close()
    print(json.dumps({"setup_s": elapsed}))


def probe_setup(args) -> float:
    """Set-up time of one fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"bench/run.py: set-up failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure(workload, seconds: float, tracer=None, probe=None, probes: int = 0) -> dict:
    """Run whole rounds until seconds of rounds have passed; odd rounds are traced.

    probe() runs probes times between rounds, spread evenly over the run so
    that set-up is sampled under the same machine load as the operations;
    its time is not counted as run time.
    """
    latencies = {False: [], True: []}
    failures = []  # (cause, known)
    setups = []
    attempted = 0
    k = 0
    start = time.perf_counter()
    paused = 0.0
    min_rounds = 2 if tracer is not None else 1
    while k < min_rounds or time.perf_counter() - start - paused < seconds:
        traced = tracer is not None and k % 2 == 1
        for op in workload.round(k):
            if tracer is not None:
                tracer.op_id = attempted
                tracer.enabled = traced
            t0 = time.perf_counter()
            try:
                workload.run(op)
            except KnownDefect as exc:
                failures.append((str(exc), True))
            except Exception as exc:  # every failure is counted and reported
                failures.append((f"{type(exc).__name__}: {exc}", False))
            finally:
                if tracer is not None:
                    tracer.enabled = False
            latencies[traced].append(time.perf_counter() - t0)
            attempted += 1
        k += 1
        elapsed = time.perf_counter() - start - paused
        while len(setups) < probes and len(setups) < probes * elapsed / seconds:
            t0 = time.perf_counter()
            setups.append(probe())
            paused += time.perf_counter() - t0
    while len(setups) < probes:
        setups.append(probe())
    return {"plain": latencies[False], "traced": latencies[True], "setups": setups,
            "failures": failures, "attempted": attempted, "rounds": k}


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        **{var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    check_layout()
    if args.setup_probe:
        setup_probe(args)
        return 0

    workload = make_workload(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"trace_{args.workload}_seed{args.seed}.tsv"
    tracer = None
    try:
        workload.setup()
        if args.trace:
            from tracer import SPAN_HEADER, Tracer

            tracer = Tracer()
            spans_path.write_text(SPAN_HEADER)
            workload.install_tracer(tracer, spans_path)
        run = measure(workload, args.seconds, tracer, lambda: probe_setup(args),
                      0 if args.trace else SETUP_SAMPLES)
        peak_mb = workload.peak_rss_mb()
    finally:
        workload.close()

    failures = run["failures"]
    known = sorted({cause for cause, is_known in failures if is_known})
    unexpected = [cause for cause, is_known in failures if not is_known]
    plain, setups = run["plain"], run["setups"]
    if args.trace:
        with open(spans_path, "a", encoding="utf-8") as fh:
            tracer.write_rows(fh)
        traced = run["traced"]
        metrics = tracer.layer_metrics(len(traced))
        metrics["trace.overhead_ratio"] = (
            (len(plain) / sum(plain)) / (len(traced) / sum(traced))
        )
        units = {name: layer_unit(name) for name in metrics}
        samples = f"{len(traced)} traced and {len(plain)} untraced operations"
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(plain) / sum(plain),
            "latency_p50_ms": 1e3 * statistics.median(plain),
            "latency_p90_ms": 1e3 * p90(plain),
            "peak_rss_mb": peak_mb,
        }
        units = END_TO_END_UNITS
        samples = (f"{len(plain)} operations in {run['rounds']} rounds; setup_s is the "
                   f"median of {len(setups)} fresh processes spread over the run")

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {samples}")
    print("# environment " + json.dumps(environment(), sort_keys=True))
    for name, value in metrics.items():
        print(f"# {name:28s} {value:14.6g} {units[name]}")
    print(f"# {'fail_rate':28s} {len(failures) / run['attempted']:14.6g} ratio "
          f"({len(failures)} of {run['attempted']})")
    for cause in known:
        count = sum(1 for c, _ in failures if c == cause)
        print(f"# known defect, {count} failed: {cause}")
    for cause in unexpected[:20]:
        print(f"# UNEXPECTED FAILURE: {cause}")
    if args.trace:
        print(f"# spans written to {spans_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": run["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
