import math

import numpy as np
import pytest
from scipy.integrate import quad

from bsann.network import NetworkParams, _sigmoid_arr, eval_batch
from bsann.problems import normal_cdf


def sigmoid(x):
    return float(_sigmoid_arr(np.array([x]))[0])


def unit_derivatives(x):
    """s'(x) and s''(x) from a network with one hidden unit and unit weights."""
    unit = NetworkParams.from_flat(np.array([1.0, 0.0, 1.0, 0.0]), 1)
    _, d1, d2 = eval_batch(unit, np.array([x]))
    return float(d1[0]), float(d2[0])


def test_sigmoid_center_and_saturation():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(36.0) == pytest.approx(1.0, abs=1e-15)
    assert sigmoid(-36.0) == pytest.approx(0.0, abs=1e-15)
    # stability: huge magnitudes must not overflow
    with np.errstate(over="raise"):
        assert np.array_equal(_sigmoid_arr(np.array([800.0, -800.0])), [1.0, 0.0])


def test_sigmoid_monotone():
    xs = np.linspace(-10.0, 10.0, 201)
    assert np.all(np.diff(_sigmoid_arr(xs)) > 0.0)


def test_sigmoid_deriv_frozen_values():
    # s(1) = 0.7310585786300049
    d1, d2 = unit_derivatives(1.0)
    assert d1 == pytest.approx(0.19661193324148185, abs=1e-15)
    assert d2 == pytest.approx(-0.09085774767294841, abs=1e-15)
    assert unit_derivatives(0.0) == (0.25, 0.0)


def test_sigmoid_deriv_matches_finite_differences():
    h = 1e-6
    for x in (-2.5, -0.3, 0.0, 0.7, 3.1):
        d1, d2 = unit_derivatives(x)
        fd1 = (sigmoid(x + h) - sigmoid(x - h)) / (2.0 * h)
        assert d1 == pytest.approx(fd1, rel=1e-8, abs=1e-10)
        fd2 = (unit_derivatives(x + h)[0] - unit_derivatives(x - h)[0]) / (2.0 * h)
        assert d2 == pytest.approx(fd2, rel=1e-7, abs=1e-10)


def test_normal_cdf_frozen_and_tails():
    assert normal_cdf(0.0) == 0.5
    assert normal_cdf(1.96) == pytest.approx(0.9750021048517795, abs=1e-14)
    assert normal_cdf(-8.0) < 1e-14
    assert 1.0 - normal_cdf(8.0) < 1e-14


def test_normal_cdf_symmetry():
    rng = np.random.default_rng(3)
    for x in rng.uniform(-5.0, 5.0, 100):
        assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("x", [-3.0, -1.0, -0.2, 0.35, 1.5, 2.7])
def test_normal_cdf_against_quadrature(x):
    ref, _ = quad(lambda u: math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi), -12.0, x, limit=200)
    assert normal_cdf(x) == pytest.approx(ref, abs=1e-13)
