"""Validation behavior of the shared configuration: the modulus scan grid
constants and the sup-search dataclass."""

import math

import pytest

from bcv import moduli
from bcv.config import SupSearchConfig


def test_grid_config_defaults():
    # bcv lower reports this grid as x_points=2048,h_points=512
    assert moduli.X_POINTS == 2048
    assert moduli.H_POINTS == 512


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
    cfg = SupSearchConfig()
    with pytest.raises(Exception):
        cfg.points = 200_000
