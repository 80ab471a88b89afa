"""Tolerance configuration shared by every numerical decision in the package."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ToleranceConfig", "DEFAULT_TOLERANCES"]


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
    """

    rank_tol: float = 1e-10
    angle_tol: float = 1e-8
    psd_floor: float = -1e-10

    def __post_init__(self) -> None:
        for name in ("rank_tol", "angle_tol", "psd_floor"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.rank_tol <= 0:
            raise ValueError(f"rank_tol must be positive, got {self.rank_tol!r}")
        if self.angle_tol <= 0:
            raise ValueError(f"angle_tol must be positive, got {self.angle_tol!r}")
        if self.psd_floor > 0:
            raise ValueError(f"psd_floor must be <= 0, got {self.psd_floor!r}")


DEFAULT_TOLERANCES = ToleranceConfig()
