"""Validation behavior of the shared configuration dataclasses."""

import math

import pytest

from bcv.config import GridConfig, SupSearchConfig


def test_grid_config_defaults():
    cfg = GridConfig()
    assert cfg.x_points == 2048
    assert cfg.h_points == 512


@pytest.mark.parametrize("kwargs", [
    {"x_points": 1},
    {"h_points": 0},
    {"h_points": 1},
])
def test_grid_config_rejects_degenerate(kwargs):
    with pytest.raises(ValueError):
        GridConfig(**kwargs)


def test_sup_search_config_defaults_and_validation():
    cfg = SupSearchConfig()
    assert cfg.lambda_max == 60.0
    assert cfg.points == 100_000
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            SupSearchConfig(lambda_max=bad)
    with pytest.raises(ValueError):
        SupSearchConfig(points=99)


def test_configs_are_frozen():
    cfg = GridConfig()
    with pytest.raises(Exception):
        cfg.x_points = 4096
