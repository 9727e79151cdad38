"""Validation behavior of the scan settings (the modulus scan grid constants
and the lambda scan of sup_C) and of the guards on non-finite input."""

import inspect
import math

import numpy as np
import pytest

from bcv import moduli
from bcv.bounds import G_of_lambda
from bcv.central import C_of_lambda, nu, r_of_lambda, sup_C
from bcv.dist import tv_binom_poisson_bound
from bcv.noncentral import J_limit


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


@pytest.mark.parametrize("call", [lambda: J_limit(13, math.inf),
                                  lambda: nu(math.inf),
                                  lambda: r_of_lambda(math.inf),
                                  lambda: C_of_lambda(np.array([1.0, math.inf])),
                                  lambda: G_of_lambda(math.inf),
                                  lambda: tv_binom_poisson_bound(math.nan, 1.0)],
                         ids=["J_limit", "nu", "r_of_lambda", "C_of_lambda", "G_of_lambda",
                              "tv_binom_poisson_bound"])
def test_non_finite_input_is_rejected(call):
    # unguarded, each returned NaN (the first five after a RuntimeWarning
    # from inf * 0 or inf - inf) instead of raising
    with pytest.raises(ValueError):
        call()
