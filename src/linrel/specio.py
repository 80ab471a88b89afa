"""Loading relation spec files and serializing reports.

Spec files are JSON with complex entries encoded as [re, im] pairs, so
no string parsing of "a+bi" forms ever happens and round-trips are
bit-stable.  Three input modes are supported:

  operator     an n2 x n1 matrix, ingested as its graph;
  kernel_pair  matrices C (n1 x p) and D (n2 x p), the relation
               {(Cx, Dx)};
  graph_basis  an (n1+n2) x d matrix of graph columns.

A graph_basis that is not orthonormal is re-orthonormalized and the
event is recorded on the loaded spec; verification commands treat it as
a failure, analysis commands only flag it.

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
from typing import Any

import numpy as np

from .config import DEFAULT_TOLERANCES, ToleranceConfig
from .errors import InputFormatError
from .relation import LinearRelation, from_kernel_pair, from_operator
from .subspace import Subspace, span

__all__ = [
    "LoadedSpec",
    "encode_matrix",
    "decode_matrix",
    "encode_float",
    "encode_subspace",
    "encode_relation",
    "load_relation_spec",
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
        "basis": encode_matrix(space.basis),
    }


def encode_relation(rel: LinearRelation) -> dict:
    return {
        "n1": rel.n1,
        "n2": rel.n2,
        "dim": rel.dim,
        "graph_basis": encode_matrix(rel.graph.basis),
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
            graph = Subspace(n1 + n2, basis)
        except ValueError:
            graph = span(basis, n1 + n2, cfg)
            was_orthonormalized = True
        rel = LinearRelation(n1, n2, graph)

    echo = {
        "mode": mode,
        "n1": n1,
        "n2": n2,
        "label": label,
        "matrices": {key: encode_matrix(mat) for key, mat in decoded.items()},
    }
    coordinates = None
    if "coordinates" in raw:
        coordinates = _coordinates(raw["coordinates"], path)
        echo["coordinates"] = {"triplet": coordinates[0],
                               "basis": encode_matrix(coordinates[1])}
    return LoadedSpec(
        relation=rel,
        mode=mode,
        label=label,
        path=path,
        was_orthonormalized=was_orthonormalized,
        echo=echo,
        coordinates=coordinates,
    )


def _coordinates(obj: Any, path: str) -> tuple[str, np.ndarray]:
    """The (triplet kind, basis matrix) of a coordinates entry."""
    if not isinstance(obj, dict) or not isinstance(obj.get("triplet"), str):
        raise InputFormatError(
            f"{path}: field 'coordinates' must be an object with a string "
            "'triplet' and a 'basis' matrix"
        )
    return obj["triplet"], decode_matrix(obj.get("basis"),
                                         f"{path}: coordinates.basis")


def dump_report(report: dict) -> str:
    """Deterministic JSON text for a report dictionary."""
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
