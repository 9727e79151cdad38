"""Shared fixtures and hypothesis settings for the test suite."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# numerical searches inside properties can be slow on first call; judge them
# on correctness, not wall clock
settings.register_profile(
    "numeric",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def corpus():
    """The smooth-plus-kink function corpus used across inequality tests."""
    import math

    fns = {
        "square": lambda y: np.asarray(y) ** 2,
        "cube": lambda y: np.asarray(y) ** 3,
        "vee": lambda y: np.abs(np.asarray(y) - 0.5),
        "sine": lambda y: np.sin(math.pi * np.asarray(y)),
    }
    # the contracts of bcv.moduli: f'' of one sign, or linear between knots
    for name, curvature in (("square", 1), ("cube", 1), ("sine", -1)):
        fns[name].curvature = curvature
    fns["vee"].breakpoints = (0.5,)
    return fns
