"""The package surface: one export list, and one tolerance per lift."""

import inspect

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
