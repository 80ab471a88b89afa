"""Tolerance configuration shared by every numerical decision in the package."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

__all__ = ["ToleranceConfig", "DEFAULT_TOLERANCES"]

_EPS = sys.float_info.epsilon  # == np.finfo(float).eps, about 2.2e-16


@dataclass(frozen=True)
class ToleranceConfig:
    """Knobs for all rank / equality / positivity verdicts.

    rank_tol
        Singular values at or below ``rank_tol * max(s_max, 1)`` (not
        ``rank_tol * s_max``) are treated as zero.  One knob and one rule
        for every rank-revealing decision so verdicts stay reproducible.
    angle_tol
        Principal angle (radians) that two subspaces must stay strictly
        below to be reported equal.  Containment, symmetry and
        orthogonality tests use the same strict rule, so angle_tol must
        be positive: at 0 no equality or symmetry verdict could pass.
    psd_floor
        Eigenvalue floor for positive-semidefinite verdicts: a Hermitian
        matrix counts as PSD when its smallest eigenvalue is >= psd_floor.

    rank_tol and angle_tol may not lie below machine epsilon
    (``np.finfo(float).eps``, about 2.2e-16); such a value raises
    ``ValueError``.  Below round-off the rank rule counts noise as rank
    and no computed angle between equal subspaces is small enough, so the
    verdicts would report round-off, not the input.
    """

    rank_tol: float = 1e-10
    angle_tol: float = 1e-8
    psd_floor: float = -1e-10

    def __post_init__(self) -> None:
        for name in ("rank_tol", "angle_tol", "psd_floor"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name in ("rank_tol", "angle_tol"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
            if value < _EPS:
                raise ValueError(
                    f"{name} must be at least machine epsilon {_EPS!r}, "
                    f"got {value!r}"
                )
        if self.psd_floor > 0:
            raise ValueError(f"psd_floor must be <= 0, got {self.psd_floor!r}")


DEFAULT_TOLERANCES = ToleranceConfig()
