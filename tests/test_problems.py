import math

import numpy as np
import pytest
from scipy.stats import norm

from bsann.problems import (
    INITIAL_DATA,
    TERMINAL_PAYOFF,
    CollocationSet,
    collocation_points,
    european_call,
    european_put,
    fractional_manufactured,
)
from bsann.stepper import spatial_rhs

CALL = european_call(0.05, 0.2, 10.0, 1.0)
PUT = european_put(0.05, 0.2, 10.0, 1.0)


def test_call_payoff_and_metadata():
    assert CALL.data(12.0) == 2.0
    assert CALL.data(8.0) == 0.0
    assert np.array_equal(CALL.data(np.array([0.0, 10.0, 15.0])), [0.0, 0.0, 5.0])
    assert CALL.data_kind == TERMINAL_PAYOFF
    assert CALL.alpha == 1.0


def test_call_exact_frozen_value():
    # d1 = 0.35, d2 = 0.15; verified against scipy and quadrature oracles
    assert CALL.exact(10.0, 1.0) == pytest.approx(1.0450583572185567, abs=1e-9)


def test_call_exact_matches_independent_cdf():
    rng = np.random.default_rng(12)
    for _ in range(50):
        s = float(rng.uniform(0.5, 30.0))
        tau = float(rng.uniform(0.05, 1.0))
        vol = 0.2 * math.sqrt(tau)
        d1 = (math.log(s / 10.0) + (0.05 + 0.02) * tau) / vol
        ref = s * norm.cdf(d1) - 10.0 * math.exp(-0.05 * tau) * norm.cdf(d1 - vol)
        assert CALL.exact(s, tau) == pytest.approx(ref, abs=1e-12)


def test_call_limits_and_boundaries():
    assert CALL.exact(0.0, 0.5) == 0.0
    assert CALL.exact(1e-12, 0.5) == pytest.approx(0.0, abs=1e-12)
    assert CALL.left_bc(0.0, 0.7) == 0.0
    assert CALL.right_bc(15.0, 0.7) == pytest.approx(15.0 - 10.0 * math.exp(-0.035), rel=1e-14)
    # payoff row at tau = 0
    assert np.array_equal(CALL.exact(np.array([8.0, 13.0]), 0.0), [0.0, 3.0])


def test_put_payoff_and_boundaries():
    assert PUT.data(12.0) == 0.0
    assert PUT.data(6.5) == 3.5
    assert PUT.right_bc(15.0, 0.5) == 0.0
    assert PUT.left_bc(0.0, 0.5) == pytest.approx(10.0 * math.exp(-0.025), rel=1e-14)


def test_put_exact_frozen_value():
    # S -> 0 limit is the discounted strike
    assert PUT.exact(0.0, 1.0) == pytest.approx(9.5122942, abs=1e-7)
    assert PUT.exact(0.0, 1.0) == pytest.approx(10.0 * math.exp(-0.05), rel=1e-14)


def test_put_call_parity():
    rng = np.random.default_rng(40)
    for _ in range(50):
        s = float(rng.uniform(0.01, 30.0))
        tau = float(rng.uniform(0.01, 1.0))
        parity = CALL.exact(s, tau) - PUT.exact(s, tau) - (s - 10.0 * math.exp(-0.05 * tau))
        assert abs(parity) < 1e-9


def test_closed_form_bounds():
    rng = np.random.default_rng(41)
    s = rng.uniform(0.0, 40.0, 1000)
    tau = rng.uniform(0.0, 1.0, 1000)
    for si, ti in zip(s, tau):
        disc = 10.0 * math.exp(-0.05 * ti)
        assert PUT.exact(si, ti) <= disc + 1e-9
        assert CALL.exact(si, ti) >= max(si - disc, 0.0) - 1e-9
        assert PUT.data(si) >= 0.0
        assert CALL.data(si) >= 0.0


@pytest.mark.parametrize("problem", [CALL, PUT], ids=["call", "put"])
def test_exact_solves_the_marching_pde(problem):
    # closed form plugged into U_tau = gamma1 U_SS + gamma2 U_S + gamma3 U
    # via finite differences; stay away from S = 0 and the tau = 0 kink
    rng = np.random.default_rng(50)
    h = 1e-4
    worst = 0.0
    for _ in range(100):
        s = float(rng.uniform(2.0, 25.0))
        tau = float(rng.uniform(0.2, 0.95))
        u_tau = (problem.exact(s, tau + h) - problem.exact(s, tau - h)) / (2.0 * h)
        u = problem.exact(s, tau)
        u_s = (problem.exact(s + h, tau) - problem.exact(s - h, tau)) / (2.0 * h)
        u_ss = (problem.exact(s + h, tau) - 2.0 * u + problem.exact(s - h, tau)) / (h * h)
        rhs = spatial_rhs(
            problem.operator, np.array([s]), tau, np.array([u]), np.array([u_s]), np.array([u_ss])
        )[0]
        worst = max(worst, abs(u_tau - rhs))
    assert worst < 1e-4


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_fractional_forcing_frozen_point(alpha):
    problem = fractional_manufactured(alpha)
    # at S = 0, t = 0 the time terms vanish and -(1)^2 * a * 2 remains
    assert problem.operator.forcing(0.0, 0.0) == pytest.approx(-0.0625, abs=1e-12)


def test_fractional_exact_and_data():
    problem = fractional_manufactured(0.5)
    assert problem.exact(0.5, 0.0) == pytest.approx(0.125, abs=1e-15)
    assert problem.exact(1.0, 0.37) == pytest.approx(0.0, abs=1e-15)
    s = np.linspace(0.0, 1.0, 11)
    assert np.allclose(problem.data(s), problem.exact(s, 0.0), atol=1e-15)
    assert problem.data_kind == INITIAL_DATA
    assert problem.left_bc(0.0, 0.4) == 0.0
    assert problem.right_bc(1.0, 0.4) == 0.0


def test_fractional_exact_scaling_in_time():
    problem = fractional_manufactured(0.4)
    s = np.linspace(0.0, 1.0, 7)
    assert np.allclose(problem.exact(s, 1.0), 4.0 * problem.exact(s, 0.0), atol=1e-14)


def test_fractional_alpha_validation():
    with pytest.raises(ValueError):
        fractional_manufactured(1.0)
    with pytest.raises(ValueError):
        fractional_manufactured(0.0)
    with pytest.raises(ValueError):
        fractional_manufactured(-0.2)


def test_option_argument_validation():
    with pytest.raises(ValueError):
        european_call(0.05, -0.2, 10.0, 1.0)
    with pytest.raises(ValueError):
        european_call(0.05, 0.2, 0.0, 1.0)
    with pytest.raises(ValueError):
        european_put(0.05, 0.2, 10.0, 0.0)


def test_collocation_points_spacing():
    colloc = collocation_points(0.0, 15.0, 150)
    assert colloc.count == 150
    assert colloc.points[0] == 0.0
    assert colloc.points[-1] == 15.0
    spacing = np.diff(colloc.points)
    assert np.allclose(spacing, 15.0 / 149.0, rtol=1e-12)


def test_collocation_points_minimal():
    colloc = collocation_points(0.0, 1.0, 2)
    assert np.array_equal(colloc.points, [0.0, 1.0])


def test_collocation_validation():
    with pytest.raises(ValueError):
        collocation_points(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        collocation_points(1.0, 0.0, 10)
    with pytest.raises(ValueError):
        CollocationSet(points=np.array([0.0, 0.5, 0.5, 1.0]))
    for n_pde in (1, 4):
        with pytest.raises(ValueError):
            CollocationSet(points=np.array([0.0, 0.5, 1.0]), n_pde=n_pde)
