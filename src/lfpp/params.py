"""Coupling parameters for the exponential field weight e^(xi*h).

The derived exponents are tied together by xi = gamma/d and
Q = 2/gamma + gamma/2, and xi is always positive.  The dimension d is an
input, not something this package estimates; for gamma = sqrt(8/3) it
equals 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class LqgParams:
    gamma: float
    d: float

    def __post_init__(self):
        if not (0.0 < self.gamma < 2.0):
            raise ValueError(f"gamma must lie in (0, 2), got {self.gamma}")
        if not (0.0 < self.d < math.inf):
            raise ValueError(f"dimension must be positive and finite, got {self.d}")
        if not (0.0 < self.xi < math.inf):
            raise ValueError(f"xi = gamma/d must be positive and finite, got {self.xi}")

    @property
    def xi(self) -> float:
        return self.gamma / self.d

    @property
    def q(self) -> float:
        return 2.0 / self.gamma + self.gamma / 2.0

    @property
    def xi_q(self) -> float:
        return self.xi * self.q

    @classmethod
    def pure_gravity(cls) -> "LqgParams":
        """gamma = sqrt(8/3), d = 4, so xi = 1/sqrt(6) and Q = 5/sqrt(6)."""
        return cls(gamma=math.sqrt(8.0 / 3.0), d=4.0)
