"""Resolution knobs of the one-dimensional sup searches."""

import math
from dataclasses import dataclass


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
