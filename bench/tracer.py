"""Span tracer installed from outside the program.

Every public function of the linrel modules (the functions named in each
module's ``__all__``) is replaced by a wrapper that records a span, and the
replacement is rebound in every linrel module that imported the original,
including dictionaries of functions such as the CLI's triplet table.  The
numpy.linalg kernels the package calls are wrapped the same way, and
``Subspace.__init__`` is wrapped to count constructions.  No program file
is changed: the wrappers live only in the traced process.

A span is (span id, parent id, operation id, name, start, end).  Spans are
kept in memory in flat arrays and written out when the benchmark ends.
Self time is a span's duration minus the time its children cover; the
process is single-threaded, so children never overlap and their covered
time is the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "subspace",
    "relation",
    "blockcalc",
    "extension",
    "boundary",
    "oracle",
    "specio",
    "cli",
)
LINALG_KERNELS = ("svd", "eigvalsh", "inv", "pinv", "qr")
SPAN_HEADER = "span\tparent\top\tname\tstart_s\tend_s\n"

# Complex arithmetic costs about four real flops per real-valued flop.
_COMPLEX = 4.0


def _shape(a):
    shape = getattr(a, "shape", None)
    if shape is None or len(shape) != 2:
        return None
    return int(shape[0]), int(shape[1])


def _svd_flops(args, kwargs, full_default=True):
    """Golub-Van Loan leading-order counts for the R-SVD of an m x n matrix."""
    shape = _shape(args[0]) if args else None
    if shape is None:
        return 0.0
    big, small = max(shape), min(shape)
    full = kwargs.get("full_matrices", args[1] if len(args) > 1 else full_default)
    uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    if not uv:
        real = 2 * big * small**2 + 2 * small**3
    elif full:
        real = 4 * big**2 * small + 22 * small**3
    else:
        real = 6 * big * small**2 + 20 * small**3
    return _COMPLEX * real


def _kernel_flops(name, args, kwargs):
    """Flop count computed from argument shapes; labelled as computed."""
    if name == "svd":
        return _svd_flops(args, kwargs)
    shape = _shape(args[0]) if args else None
    if shape is None:
        return 0.0
    m, n = shape
    big, small = max(m, n), min(m, n)
    if name == "eigvalsh":
        real = 4 * n**3 / 3
    elif name == "inv":
        real = 2 * n**3
    elif name == "pinv":
        real = 6 * big * small**2 + 20 * small**3 + 2 * m * n * small
    else:  # qr with the orthogonal factor formed explicitly
        real = 4 * big * small**2 - 4 * small**3 / 3
    return _COMPLEX * real


class Tracer:
    """In-memory span store plus per-name aggregates.

    Recording happens only while ``enabled`` is true, so untraced
    operations pay one attribute test per wrapped call.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.op_id = -1
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._stack: list[list] = []
        self._next_id = 0
        # flat span columns
        self.span_id = array("q")
        self.parent_id = array("q")
        self.span_op = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # aggregates
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.flops = 0.0
        self.lift_svd_calls = 0
        self._lift_depth = 0
        self.constructions = 0
        self.report_bytes = 0
        self.import_s = 0.0

    def _index(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def span(self, name: str, fn, args, kwargs, on_result=None):
        """Run fn inside a span named name and return its result."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, 0.0]
        self._stack.append(frame)
        is_lift = name == "extension.lift"
        if is_lift:
            self._lift_depth += 1
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            if is_lift:
                self._lift_depth -= 1
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration - frame[1]
            self.span_id.append(sid)
            self.parent_id.append(parent)
            self.span_op.append(self.op_id)
            self.span_name.append(self._index(name))
            self.span_start.append(start)
            self.span_end.append(end)
        if on_result is not None:
            on_result(result)
        return result

    def wrap(self, name: str, fn):
        tracer = self
        on_result = self._count_report if name == "specio.dump_report" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            return tracer.span(name, fn, args, kwargs, on_result)

        return traced

    def _count_report(self, text) -> None:
        self.report_bytes += len(text.encode("utf-8"))

    def wrap_kernel(self, kernel: str, fn):
        tracer = self
        name = f"linalg.{kernel}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.flops += _kernel_flops(kernel, args, kwargs)
            if kernel == "svd" and tracer._lift_depth:
                tracer.lift_svd_calls += 1
            return tracer.span(name, fn, args, kwargs)

        return traced

    def wrap_constructor(self, init):
        tracer = self

        @functools.wraps(init)
        def counted(obj, *args, **kwargs):
            if tracer.enabled:
                tracer.constructions += 1
            return init(obj, *args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap the public functions, numpy.linalg kernels and Subspace."""
        import numpy as np

        replacements: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"linrel.{layer}")
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replacements[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "linrel" or n.startswith("linrel."))
        ]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in replacements:
                    setattr(mod, attr, replacements[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in replacements:
                            value[key] = replacements[id(item)]
        for kernel in LINALG_KERNELS:
            setattr(np.linalg, kernel,
                    self.wrap_kernel(kernel, getattr(np.linalg, kernel)))
        from linrel.subspace import Subspace

        Subspace.__init__ = self.wrap_constructor(Subspace.__init__)

    # -- aggregation -------------------------------------------------------

    _PER_NAME = ("calls", "self_s", "total_s")
    _TOTALS = ("flops", "lift_svd_calls", "constructions", "report_bytes", "import_s")

    def state(self) -> dict:
        """Aggregates as plain data, for merging across processes."""
        state = {key: dict(getattr(self, key)) for key in self._PER_NAME}
        state.update({key: getattr(self, key) for key in self._TOTALS})
        return state

    def merge(self, state: dict) -> None:
        for key in self._PER_NAME:
            target = getattr(self, key)
            for name, value in state[key].items():
                target[name] += value
        for key in self._TOTALS:
            setattr(self, key, getattr(self, key) + state[key])

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-operation layer metrics over ops traced operations."""
        ops = max(ops, 1)
        out: dict[str, float] = {}
        svd = "linalg.svd"
        others = [f"linalg.{k}" for k in LINALG_KERNELS if k != "svd"]
        out["linalg.svd_calls"] = self.calls.get(svd, 0) / ops
        out["linalg.svd_ms"] = 1e3 * self.total_s.get(svd, 0.0) / ops
        out["linalg.other_calls"] = sum(self.calls.get(k, 0) for k in others) / ops
        out["linalg.other_ms"] = 1e3 * sum(self.total_s.get(k, 0.0) for k in others) / ops
        out["linalg.flops_computed"] = self.flops / ops
        for layer in LAYERS:
            prefix = layer + "."
            names = [n for n in self.calls if n.startswith(prefix)]
            out[f"{layer}.calls"] = sum(self.calls[n] for n in names) / ops
            out[f"{layer}.self_ms"] = 1e3 * sum(self.self_s[n] for n in names) / ops
        lifts = self.calls.get("extension.lift", 0)
        out["extension.lift_ms"] = 1e3 * self.total_s.get("extension.lift", 0.0) / ops
        out["extension.lift_svd_calls"] = self.lift_svd_calls / lifts if lifts else 0.0
        out["boundary.weyl_ms"] = 1e3 * self.total_s.get("boundary.weyl", 0.0) / ops
        out["subspace.constructions"] = self.constructions / ops
        out["specio.report_bytes"] = self.report_bytes / ops
        out["cli.import_ms"] = 1e3 * self.import_s / ops
        return out

    def write_rows(self, fh) -> None:
        """Write every span as a tab-separated row under SPAN_HEADER."""
        for i in range(len(self.span_id)):
            fh.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\n" % (
                self.span_id[i], self.parent_id[i], self.span_op[i],
                self.names[self.span_name[i]], self.span_start[i], self.span_end[i]))
