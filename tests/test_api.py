"""The package surface: one export list, one tolerance per lift, and no
private helper left without a caller."""

import ast
import inspect
from pathlib import Path

import pytest

import linrel
from linrel import (
    blockcalc,
    boundary,
    cli,
    config,
    errors,
    extension,
    oracle,
    relation,
    specio,
    subspace,
)

EXPORTING = (config, errors, subspace, relation, blockcalc, extension, boundary, oracle)


def test_export_list_is_the_union_of_module_lists():
    union = [name for mod in EXPORTING for name in mod.__all__]
    assert len(set(union)) == len(union)
    assert linrel.__all__ == ["__version__", *union]
    for mod in EXPORTING:
        for name in mod.__all__:
            assert getattr(linrel, name) is getattr(mod, name)


@pytest.mark.parametrize(
    "mod", EXPORTING + (specio, cli), ids=lambda m: m.__name__
)
def test_functions_taking_a_lift_take_no_cfg(mod):
    # the lift's own cfg decides every verdict built on it
    for name, fn in vars(mod).items():
        if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
            continue
        params = inspect.signature(fn).parameters
        takes_lift = [
            p for p in params.values() if "LiftBundle" in str(p.annotation)
        ]
        if takes_lift:
            assert "cfg" not in params, name
            assert all(p.annotation == "LiftBundle" for p in takes_lift), name


def test_functions_taking_a_triplet_take_no_cfg():
    # a triplet copies its lift's cfg; weyl keeps an optional one because
    # bench/test_smoke.py passes it
    takes_cfg = []
    for mod in EXPORTING + (specio, cli):
        for name, fn in vars(mod).items():
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            params = inspect.signature(fn).parameters
            if "cfg" in params and any(
                "BoundaryTriplet" in str(p.annotation) for p in params.values()
            ):
                takes_cfg.append(f"{mod.__name__}.{name}")
    assert takes_cfg == ["linrel.boundary.weyl"]


def _defined_names(stmt):
    """Names a module-level statement binds: a def, a class or targets."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def _referenced_names(stmt):
    """Names a statement reads, as a bare name or as an attribute."""
    refs = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
    return refs


def test_every_private_module_name_is_used_in_the_package():
    # a _helper that only tests (or nothing) call is dead code: deleting
    # its last caller must delete it too.  A statement's references to
    # the names it defines itself (recursion) do not count.
    package = Path(linrel.__file__).parent
    statements = [
        stmt
        for path in sorted(package.glob("*.py"))
        for stmt in ast.parse(path.read_text(), str(path)).body
    ]
    refs = [_referenced_names(stmt) for stmt in statements]
    orphans = []
    for i, stmt in enumerate(statements):
        for name in _defined_names(stmt):
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(name in r for j, r in enumerate(refs) if j != i):
                orphans.append(name)
    assert orphans == []
