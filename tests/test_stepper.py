import math

import numpy as np
import pytest

from bsann.stepper import (
    SpatialOperator,
    StepHistory,
    TimeGrid,
    b_weights,
    caputo_residual,
    l1_history,
    make_time_grid,
    spatial_rhs,
)


def test_b_weights_frozen_values():
    b = b_weights(0.5, 3)
    assert b[0] == 1.0
    assert b[1] == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-14)
    assert b[2] == pytest.approx(math.sqrt(3.0) - math.sqrt(2.0), abs=1e-14)
    assert b[1] == pytest.approx(0.4142136, abs=1e-7)
    assert b[2] == pytest.approx(0.3178372, abs=1e-7)


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_b_weights_formula_and_monotonicity(alpha):
    count = 12
    b = b_weights(alpha, count)
    for m in range(count):
        expect = (m + 1) ** (1.0 - alpha) - m ** (1.0 - alpha)
        assert b[m] == pytest.approx(expect, rel=1e-14)
    assert np.all(np.diff(b) < 0.0)
    assert np.all(b > 0.0)


def test_b_weights_telescoping():
    # sum_{m=0}^{k-1} (b_m - b_{m+1}) + b_k collapses to b_0 = 1
    for alpha in (0.25, 0.6, 0.85):
        b = b_weights(alpha, 30)
        for k in (1, 7, 29):
            total = np.sum(b[:k] - b[1 : k + 1]) + b[k]
            assert total == pytest.approx(1.0, abs=1e-12)


def test_b_weights_alpha_one_collapses():
    b = b_weights(1.0, 5)
    assert b[0] == 1.0
    assert np.all(b[1:] == 0.0)


def test_b_weights_validation():
    with pytest.raises(ValueError):
        b_weights(0.0, 3)
    with pytest.raises(ValueError):
        b_weights(1.5, 3)
    with pytest.raises(ValueError):
        b_weights(0.5, 0)


@pytest.mark.parametrize(
    "n_steps, horizon, alpha",
    [(20, 1.0, 1.0), (10, 1.0, 0.5), (1000, 1.0, 0.5), (7, 0.9, 0.3), (49, 1.0, 1.0)],
)
def test_make_time_grid(n_steps, horizon, alpha):
    grid = make_time_grid(n_steps, horizon, alpha)
    assert grid.n_steps == n_steps
    assert grid.dt == horizon / n_steps
    assert grid.horizon == pytest.approx(horizon, rel=1e-12)
    assert grid.b.size == (n_steps if alpha < 1.0 else 0)
    # node times are Python's k * dt bit for bit, and read-only
    assert grid.t.shape == (n_steps + 1,)
    assert [float(t) for t in grid.t] == [k * grid.dt for k in range(n_steps + 1)]
    assert grid.horizon == grid.t[-1]
    assert not grid.t.flags.writeable
    with pytest.raises(ValueError):
        grid.t[0] = 1.0
    # the history coefficient is the Python-float expression, bit for bit
    if alpha == 1.0:
        coef = 1.0 / grid.dt
    else:
        coef = 1.0 / (math.gamma(2.0 - alpha) * grid.dt**alpha)
    assert type(grid.coef) is float and grid.coef == coef
    assert l1_history(grid, StepHistory(np.zeros(2)), 0)[0] == coef


def test_time_grid_alpha_one_has_no_memory_weights():
    grid = make_time_grid(4, 1.0, 1.0)
    assert grid.b.size == 0


def test_time_grid_derives_its_memory_weights():
    for n in (1, 7):
        assert np.array_equal(TimeGrid(n, 0.1, 0.4).b, b_weights(0.4, n))
        assert TimeGrid(n, 0.1, 1.0).b.size == 0


def test_l1_history_rejects_steps_past_the_grid():
    for alpha in (0.5, 1.0):
        grid = make_time_grid(3, 1.0, alpha)
        hist = StepHistory(np.zeros(2))
        for k in range(1, 4):
            hist.append(np.full(2, float(k)))
        l1_history(grid, hist, 2)
        with pytest.raises(ValueError, match="past the grid"):
            l1_history(grid, hist, 3)


def test_time_grid_validation():
    with pytest.raises(ValueError):
        make_time_grid(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        make_time_grid(4, -1.0, 1.0)
    with pytest.raises(ValueError):
        make_time_grid(4, 1.0, 1.2)


def test_step_history():
    hist = StepHistory(np.array([1.0, 2.0, 3.0]))
    assert hist.n_points == 3
    assert hist.steps_completed == 0
    hist.append(np.array([4.0, 5.0, 6.0]))
    assert hist.steps_completed == 1
    assert np.array_equal(hist.row(0), [1.0, 2.0, 3.0])
    assert np.array_equal(hist.row(1), [4.0, 5.0, 6.0])
    assert hist.values().shape == (2, 3)
    with pytest.raises(ValueError):
        hist.append(np.array([1.0, 2.0]))
    # growing past the current capacity keeps every earlier row
    for k in range(2, 9):
        hist.append(np.full(3, float(k)))
    assert hist.steps_completed == 8
    assert np.array_equal(hist.values()[2:, 0], np.arange(2.0, 9.0))
    assert np.array_equal(hist.row(1), [4.0, 5.0, 6.0])
    with pytest.raises(ValueError):
        hist.values()[0, 0] = 9.0  # views are read-only


def test_caputo_alpha_one_is_backward_euler():
    rng = np.random.default_rng(9)
    grid = make_time_grid(6, 1.2, 1.0)
    hist = StepHistory(rng.normal(size=8))
    for _ in range(3):
        hist.append(rng.normal(size=8))
    new = rng.normal(size=8)
    rhs = rng.normal(size=8)
    res = caputo_residual(grid, hist, new, rhs, 3)
    euler = (new - hist.row(3)) / grid.dt - rhs
    assert np.max(np.abs(res - euler)) < 1e-14


def test_caputo_matches_naive_memory_sum():
    # independent assembly straight from the discretization formula
    rng = np.random.default_rng(21)
    alpha = 0.6
    grid = make_time_grid(8, 1.0, alpha)
    rows = [rng.normal(size=5)]
    hist = StepHistory(rows[0])
    for _ in range(5):
        rows.append(rng.normal(size=5))
        hist.append(rows[-1])
    new = rng.normal(size=5)
    rhs = rng.normal(size=5)
    n = 5
    b = b_weights(alpha, n + 1)
    scale = 1.0 / (math.gamma(2.0 - alpha) * grid.dt ** alpha)
    stack = rows + [new]
    acc = np.zeros(5)
    for m in range(n + 1):
        acc += b[m] * (stack[n + 1 - m] - stack[n - m])
    expect = scale * acc - rhs
    got = caputo_residual(grid, hist, new, rhs, n)
    assert np.max(np.abs(got - expect)) < 1e-13


def test_caputo_rejects_unready_history():
    grid = make_time_grid(4, 1.0, 0.5)
    hist = StepHistory(np.zeros(3))
    with pytest.raises(ValueError):
        caputo_residual(grid, hist, np.zeros(3), np.zeros(3), 1)


def test_spatial_rhs_matches_hand_formula():
    op = SpatialOperator(
        gamma1=lambda s: 0.02 * s * s,
        gamma2=lambda s: 0.05 * s,
        gamma3=-0.05,
        forcing=lambda s, t: np.sin(s) + t,
    )
    s = np.array([1.0, 2.0])
    val = np.array([3.0, 4.0])
    d1 = np.array([0.5, -0.5])
    d2 = np.array([-1.0, 2.0])
    got = spatial_rhs(op, s, 0.3, val, d1, d2)
    expect = 0.02 * s ** 2 * d2 + 0.05 * s * d1 - 0.05 * val + np.sin(s) + 0.3
    assert np.allclose(got, expect, atol=1e-15)
