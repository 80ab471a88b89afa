"""Helpers shared by the workloads: seeded generators and check failures."""

from __future__ import annotations

import numpy as np


class CheckFailed(Exception):
    """An operation finished but its result failed the benchmark's check."""


class KnownDefect(Exception):
    """An operation failed in the way a listed, not yet fixed defect predicts."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def seeded_rng(seed: int, *stream: int) -> np.random.Generator:
    """Generator for one input stream of a run; negative seeds wrap to 64 bits."""
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, *stream])


def crandn(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def orthonormal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Orthonormal basis of a random cols-dimensional subspace of C^rows."""
    if cols == 0:
        return np.zeros((rows, 0), dtype=complex)
    return np.linalg.qr(crandn(rng, rows, cols))[0]
