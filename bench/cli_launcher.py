"""Run ``linrel.cli.main`` with the benchmark's tracer installed.

Usage: python cli_launcher.py STATE_JSON SPANS_TSV OP_ID CLI_ARGS...

Used for the traced run of cli_cold in place of ``python -m linrel.cli``.
It times the import of linrel.cli, installs the same wrappers as the
in-process workloads, runs the command, writes the aggregates to
STATE_JSON, appends the spans to SPANS_TSV under operation OP_ID, and
exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def main(argv: list[str]) -> int:
    state_path, spans_path, op_id, cli_args = argv[0], argv[1], int(argv[2]), argv[3:]
    start = perf_counter()
    import linrel.cli

    import_s = perf_counter() - start
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.import_s = import_s
    tracer.op_id = op_id
    tracer.enabled = True
    try:
        return linrel.cli.main(cli_args)
    finally:
        tracer.enabled = False
        with open(state_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.state(), fh)
        with open(spans_path, "a", encoding="utf-8") as fh:
            tracer.write_rows(fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
