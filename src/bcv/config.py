"""Resolution and tolerance knobs shared by the sup searches and quadratures."""

from dataclasses import dataclass


@dataclass(frozen=True)
class GridConfig:
    """Controls the coarse grid and the local refinement of a sup search.

    x_points, h_points: coarse resolution of the (x, h) scan.
    refine_top: number of best coarse cells refined by golden section.
    refine_tol: interval width at which golden section stops.
    """
    x_points: int = 2048
    h_points: int = 512
    refine: bool = True
    refine_top: int = 8
    refine_tol: float = 1e-13

    def __post_init__(self):
        if self.x_points < 2 or self.h_points < 2:
            raise ValueError("grid needs at least 2 points per axis")
        if self.refine_top < 1:
            raise ValueError("refine_top must be positive")


@dataclass(frozen=True)
class QuadConfig:
    abs_tol: float = 1e-10
    max_depth: int = 40

    def __post_init__(self):
        if self.abs_tol <= 0:
            raise ValueError("abs_tol must be positive")
        if self.max_depth < 1:
            raise ValueError("max_depth must be positive")


@dataclass(frozen=True)
class SupSearchConfig:
    """Scan range and resolution for one-dimensional sup searches over lambda."""
    lambda_max: float = 60.0
    points: int = 100_000

    def __post_init__(self):
        if self.lambda_max <= 0:
            raise ValueError("lambda_max must be positive")
        if self.points < 100:
            raise ValueError("scan needs at least 100 points")
