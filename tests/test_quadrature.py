"""The fixed composite Gauss-Legendre rule against closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bcv.quadrature import NODES_PER_PANEL, PANELS, gauss_legendre


def integrate(f):
    nodes, weights = gauss_legendre()
    return float(weights @ f(nodes))


def test_rule_is_cached_read_only_and_interior():
    nodes, weights = gauss_legendre()
    assert gauss_legendre()[0] is nodes
    assert len(nodes) == len(weights) == PANELS * NODES_PER_PANEL
    assert 0.0 < nodes[0] and nodes[-1] < 1.0 and np.all(np.diff(nodes) > 0.0)
    assert np.all(weights > 0.0)
    assert math.fsum(weights) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        nodes[0] = 0.5
    with pytest.raises(ValueError):
        weights[0] = 0.5


def test_polynomials_are_integrated_exactly():
    # 16 nodes per panel are exact through degree 31 on every panel
    for d in range(32):
        assert integrate(lambda t: t ** d) == pytest.approx(1.0 / (d + 1), rel=1e-15)


def test_cosine_matches_sine_difference():
    assert integrate(lambda t: 2.0 * np.cos(2.0 * t)) == pytest.approx(
        math.sin(2.0), abs=1e-15)


def test_exponential_layer_is_resolved_up_to_a_1e4():
    # e^{-a t} has a layer of width 1/a at 0; the dyadic grading follows it
    for a in (1e-3, 1.0, 7.2, 100.0, 1e3, 1e4):
        exact = -math.expm1(-a) / a
        assert integrate(lambda t: np.exp(-a * t)) == pytest.approx(exact, rel=1e-14)


def test_sqrt_endpoint_singularity_is_resolved_by_grading():
    # sqrt is analytic on every panel but the first, [0, 2^-19], whose
    # whole mass is below 2e-9
    assert integrate(np.sqrt) == pytest.approx(2.0 / 3.0, abs=1e-12)


@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_quadratic_agreement_with_closed_form(a, b, c):
    exact = a / 3.0 + b / 2.0 + c
    assert abs(integrate(lambda t: a * t * t + b * t + c) - exact) < 1e-14
