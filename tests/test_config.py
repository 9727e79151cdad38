"""Validation behavior of the scan settings: the modulus scan grid constants
and the lambda scan of sup_C."""

import inspect
import math

import pytest

from bcv import moduli
from bcv.central import sup_C


def test_grid_config_defaults():
    # the grid path of the moduli scans x_points=2048, h_points=512
    assert moduli.X_POINTS == 2048
    assert moduli.H_POINTS == 512


def test_sup_search_config_defaults_and_validation():
    params = inspect.signature(sup_C).parameters
    assert params["lambda_max"].default == 60.0
    assert params["points"].default == 100_000
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            sup_C(lambda_max=bad)
    with pytest.raises(ValueError, match="at least 100 points"):
        sup_C(points=99)
