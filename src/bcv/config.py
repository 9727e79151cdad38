"""Resolution knobs shared by the sup searches."""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class GridConfig:
    """Coarse resolution of the (x, h) scan of a modulus search."""
    x_points: int = 2048
    h_points: int = 512

    def __post_init__(self):
        if self.x_points < 2 or self.h_points < 2:
            raise ValueError("grid needs at least 2 points per axis")


@dataclass(frozen=True)
class SupSearchConfig:
    """Scan range and resolution for one-dimensional sup searches over lambda."""
    lambda_max: float = 60.0
    points: int = 100_000

    def __post_init__(self):
        if not (math.isfinite(self.lambda_max) and self.lambda_max > 0):
            raise ValueError("lambda_max must be positive and finite")
        if self.points < 100:
            raise ValueError("scan needs at least 100 points")
