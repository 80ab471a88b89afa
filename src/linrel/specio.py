"""Loading relation spec files and serializing reports.

Spec files are JSON with complex entries encoded as [re, im] pairs, so
no string parsing of "a+bi" forms ever happens and round-trips are
bit-stable.  Three input modes are supported:

  operator     an n2 x n1 matrix, ingested as its graph;
  kernel_pair  matrices C (n1 x p) and D (n2 x p), the relation
               {(Cx, Dx)};
  graph_basis  an (n1+n2) x d matrix of graph columns.

A graph_basis that fails the Gram test is re-orthonormalized and the
event is recorded on the loaded spec; verification commands treat it as
a failure, analysis commands only flag it.  One that passes it but
deviates from orthonormal by more than round-off is polished by one
Newton-Schulz step and Gram-tested again; that is not recorded, because
the span is unchanged up to round-off.

A report is a dictionary whose matrices are complex ndarrays.
report_pieces writes it as json.dumps(report, indent=2, sort_keys=True,
allow_nan=False) would, a piece at a time and straight from the arrays,
after one walk that rejects a NaN or an infinity before any piece exists.

A boundary parameter (theta) spec may carry an optional coordinates
entry, {"triplet": <kind>, "basis": <matrix>}: the triplet kind and the
orthonormal boundary basis, as the extensions command prints it under
boundary_spaces, that theta's rows and columns refer to.  It is parsed
here and checked against the current triplet by the extend command.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import islice
from typing import Any, Iterator

import numpy as np

from .config import DEFAULT_TOLERANCES, ToleranceConfig
from .errors import InputFormatError
from .relation import LinearRelation, from_kernel_pair, from_operator
from .subspace import Subspace, _higham_gamma, span

__all__ = [
    "LoadedSpec",
    "encode_matrix",
    "decode_matrix",
    "encode_float",
    "encode_subspace",
    "encode_relation",
    "load_relation_spec",
    "report_pieces",
    "dump_report",
]

_MODES = ("operator", "kernel_pair", "graph_basis")
_MODE_MATRICES = {
    "operator": ("operator",),
    "kernel_pair": ("c", "d"),
    "graph_basis": ("basis",),
}


def encode_matrix(mat: np.ndarray) -> list:
    """Nested lists of [re, im] pairs, row by row."""
    mat = np.asarray(mat, dtype=complex)
    return [
        [[float(z.real), float(z.imag)] for z in row] for row in mat
    ]


def _finite(value: Any, where: str) -> float:
    """value as a float; InputFormatError unless it is a finite real number.

    This is the one rule for numbers read from JSON, in spec files and in
    CLI arguments alike.  A boolean is not a number although bool is an
    int, and an integer beyond the float range is non-finite.
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InputFormatError(f"{where}: expected a real number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise InputFormatError(f"{where}: non-finite value {out!r}")
    return out


def decode_matrix(obj: Any, where: str) -> np.ndarray:
    """Parse a [re, im]-encoded matrix, reporting the offending entry."""
    if not isinstance(obj, list) or not obj:
        raise InputFormatError(
            f"{where}: expected a non-empty list of rows"
        )
    rows = []
    width: int | None = None
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            raise InputFormatError(f"{where}[{i}]: expected a list of entries")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise InputFormatError(
                f"{where}[{i}]: row has {len(row)} entries, expected {width}"
            )
        entries = []
        for j, entry in enumerate(row):
            at = f"{where}[{i}][{j}]"
            if not (isinstance(entry, list) and len(entry) == 2):
                raise InputFormatError(f"{at}: expected a [re, im] pair")
            entries.append(complex(_finite(entry[0], at), _finite(entry[1], at)))
        rows.append(entries)
    return np.array(rows, dtype=complex)


def encode_float(value: float | None):
    """JSON-safe scalar: None stays null, infinities become strings."""
    if value is None:
        return None
    value = float(value)
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def encode_subspace(space: Subspace) -> dict:
    return {
        "ambient_dim": space.ambient_dim,
        "dim": space.dim,
        "basis": space.basis,
    }


def encode_relation(rel: LinearRelation) -> dict:
    return {
        "n1": rel.n1,
        "n2": rel.n2,
        "dim": rel.dim,
        "graph_basis": rel.graph.basis,
    }


@dataclass(frozen=True)
class LoadedSpec:
    """A parsed relation spec plus input metadata for report echoing."""

    relation: LinearRelation
    mode: str
    label: str | None
    path: str
    was_orthonormalized: bool
    echo: dict
    coordinates: tuple[str, np.ndarray] | None = None


def _require_positive_int(raw: dict, key: str, path: str) -> int:
    value = raw.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise InputFormatError(f"{path}: field {key!r} must be a positive integer")
    return value


def load_relation_spec(
    path: str, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> LoadedSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        ) from exc

    if not isinstance(raw, dict):
        raise InputFormatError(f"{path}: top level must be an object")
    mode = raw.get("mode")
    if mode not in _MODES:
        raise InputFormatError(
            f"{path}: field 'mode' must be one of {', '.join(_MODES)}"
        )
    n1 = _require_positive_int(raw, "n1", path)
    n2 = _require_positive_int(raw, "n2", path)
    label = raw.get("label")
    if label is not None and not isinstance(label, str):
        raise InputFormatError(f"{path}: field 'label' must be a string")
    matrices = raw.get("matrices")
    if not isinstance(matrices, dict):
        raise InputFormatError(f"{path}: field 'matrices' must be an object")
    missing = [k for k in _MODE_MATRICES[mode] if k not in matrices]
    if missing:
        raise InputFormatError(
            f"{path}: mode {mode!r} needs matrices {missing}"
        )

    decoded = {
        key: decode_matrix(matrices[key], f"{path}: matrices.{key}")
        for key in _MODE_MATRICES[mode]
    }
    was_orthonormalized = False
    if mode == "operator":
        mat = decoded["operator"]
        if mat.shape != (n2, n1):
            raise InputFormatError(
                f"{path}: matrices.operator has shape {mat.shape}, "
                f"expected ({n2}, {n1})"
            )
        rel = from_operator(mat, cfg)
    elif mode == "kernel_pair":
        c_mat, d_mat = decoded["c"], decoded["d"]
        if c_mat.shape[0] != n1 or d_mat.shape[0] != n2:
            raise InputFormatError(
                f"{path}: kernel pair has {c_mat.shape[0]}/{d_mat.shape[0]} "
                f"rows, expected {n1}/{n2}"
            )
        if c_mat.shape[1] != d_mat.shape[1]:
            raise InputFormatError(
                f"{path}: matrices.c and matrices.d must have equally many "
                "columns"
            )
        rel = from_kernel_pair(c_mat, d_mat, cfg)
    else:
        basis = decoded["basis"]
        if basis.shape[0] != n1 + n2:
            raise InputFormatError(
                f"{path}: matrices.basis has {basis.shape[0]} rows, "
                f"expected n1 + n2 = {n1 + n2}"
            )
        try:
            graph = _polished(Subspace(n1 + n2, basis))
        except ValueError:
            graph = span(basis, n1 + n2, cfg)
            was_orthonormalized = True
        rel = LinearRelation(n1, n2, graph)

    echo = {
        "mode": mode,
        "n1": n1,
        "n2": n2,
        "label": label,
        "matrices": decoded,
    }
    coordinates = None
    if "coordinates" in raw:
        coordinates = _coordinates(raw["coordinates"], path)
        echo["coordinates"] = {"triplet": coordinates[0],
                               "basis": coordinates[1]}
    return LoadedSpec(
        relation=rel,
        mode=mode,
        label=label,
        path=path,
        was_orthonormalized=was_orthonormalized,
        echo=echo,
        coordinates=coordinates,
    )


def _polished(space: Subspace) -> Subspace:
    """space, or its basis B after one Newton-Schulz step B(3I - B^H B)/2
    when max|B^H B - I| exceeds the round-off _higham_gamma(rows).

    The Gram test accepts deviations up to 1e-8, which relate would read
    as an angle of that size; the step squares the deviation (about
    (3/4) E^2) and keeps the span.  The result is Gram-tested again.
    """
    basis = space.basis
    dev = basis.conj().T @ basis
    dev.reshape(-1)[:: space.dim + 1] -= 1.0
    if np.abs(dev).max(initial=0.0) <= _higham_gamma(space.ambient_dim):
        return space
    return Subspace(space.ambient_dim, basis - basis @ dev / 2)


def _coordinates(obj: Any, path: str) -> tuple[str, np.ndarray]:
    """The (triplet kind, basis matrix) of a coordinates entry."""
    if not isinstance(obj, dict) or not isinstance(obj.get("triplet"), str):
        raise InputFormatError(
            f"{path}: field 'coordinates' must be an object with a string "
            "'triplet' and a 'basis' matrix"
        )
    return obj["triplet"], decode_matrix(obj.get("basis"),
                                         f"{path}: coordinates.basis")


_INDENT = "  "
_NON_FINITE = "Out of range float values are not JSON compliant"


def _check_report(obj: Any) -> None:
    """Raise as json.dumps(obj, allow_nan=False) would, for an object of
    report_pieces: ValueError for a NaN or an infinity, in an array too,
    and TypeError for a value that JSON cannot hold.  A key must be a
    string."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(
                    f"keys must be str, not {type(key).__name__}"
                )
            _check_report(value)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _check_report(item)
    elif isinstance(obj, np.ndarray):
        if obj.ndim != 2:
            raise TypeError(f"a report array must be a matrix, not {obj.ndim}-D")
        if not np.isfinite(obj).all():
            raise ValueError(_NON_FINITE)
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(_NON_FINITE)
    elif obj is not None and not isinstance(obj, (str, int)):
        raise TypeError(
            f"Object of type {type(obj).__name__} is not JSON serializable"
        )


def _float_pairs(mat: np.ndarray) -> list[float]:
    """The real and imaginary part of every entry, row by row, as floats."""
    flat = np.ascontiguousarray(mat, dtype=complex).view(np.float64)
    return flat.ravel().tolist()


def _matrix_pieces(mat: np.ndarray, indent: str) -> Iterator[str]:
    """A complex matrix as the json text of its nested [re, im] lists,
    one piece per row.

    indent is the newline and indentation of the line the matrix ends on.
    The entries are formatted in one pass: every real and imaginary part,
    row by row, as one list of floats, each by float.__repr__ as json
    does, joined per row with the separators json puts between them.
    """
    rows, cols = mat.shape
    if rows == 0:
        yield "[]"
        return
    row_indent = indent + _INDENT
    if cols == 0:
        yield "[" + ",".join([row_indent + "[]"] * rows) + indent + "]"
        return
    pair_indent = row_indent + _INDENT
    part_indent = pair_indent + _INDENT
    parts = iter(map(float.__repr__, _float_pairs(mat)))
    pairs = map(("," + part_indent).join, zip(parts, parts))
    row_open = row_indent + "[" + pair_indent + "[" + part_indent
    between = pair_indent + "]," + pair_indent + "[" + part_indent
    row_close = pair_indent + "]" + row_indent + "]"
    yield "["
    for i in range(rows):
        yield (("," if i else "") + row_open
               + between.join(islice(pairs, cols)) + row_close)
    yield indent + "]"


def _pieces(obj: Any, indent: str) -> Iterator[str]:
    """The json text of a checked obj, in pieces; indent is the newline and
    indentation of the line obj ends on.  Keys and scalars are written by
    json.dumps itself."""
    if isinstance(obj, np.ndarray):
        yield from _matrix_pieces(obj, indent)
        return
    if isinstance(obj, dict):
        items = [(json.dumps(key) + ": ", obj[key])
                 for key in sorted(obj)]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        items = [("", item) for item in obj]
        brackets = "[]"
    else:
        yield json.dumps(obj)
        return
    if not items:
        yield brackets
        return
    inner = indent + _INDENT
    separator = brackets[0] + inner
    for prefix, value in items:
        yield separator + prefix
        yield from _pieces(value, inner)
        separator = "," + inner
    yield indent + brackets[1]


def report_pieces(report: dict) -> Iterator[str]:
    """json.dumps(report, indent=2, sort_keys=True, allow_nan=False), in
    pieces whose concatenation is that text.

    Matrices may be complex ndarrays, written as nested [re, im] lists.
    The whole report is checked first, so a NaN or an infinity raises
    ValueError here, before any piece is made.
    """
    _check_report(report)
    return _pieces(report, "\n")


def dump_report(report: dict) -> str:
    """Deterministic JSON text for a report dictionary."""
    return "".join(report_pieces(report))
