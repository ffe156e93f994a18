import numpy as np
import pytest

from bsann.mapping import from_x, make_arctan_map, to_x, truncated_map
from bsann.network import eval_batch, load_params_csv
from bsann.problems import INITIAL_DATA, ProblemSpec, european_call, fractional_manufactured
from bsann.solver import (
    START_STEPS,
    SolveResult,
    build_collocation,
    error_metrics,
    history_at,
    read_csv,
    read_numeric_csv,
    solve,
    write_solution_outputs,
    write_surface_csv,
)
from bsann.stepper import SpatialOperator, make_time_grid, spatial_rhs
from bsann.trainer import TrainConfig, TrainingDiverged, step_cost


def constant_problem(exact=True):
    op = SpatialOperator(
        gamma1=lambda s: np.zeros_like(s),
        gamma2=lambda s: np.zeros_like(s),
        gamma3=0.0,
        forcing=lambda s, t: 0.0,
    )
    one = lambda s: np.ones_like(np.asarray(s, dtype=float))
    return ProblemSpec(
        name="constant",
        alpha=1.0,
        maturity=1.0,
        operator=op,
        data_kind=INITIAL_DATA,
        data=one,
        left_bc=lambda s, t: 1.0,
        right_bc=lambda s, t: 1.0,
        exact=(lambda s, t: one(s)) if exact else None,
    )


@pytest.fixture(scope="module")
def tiny_solve():
    problem = constant_problem()
    dmap = truncated_map(2.0)
    grid = make_time_grid(3, 1.0, 1.0)
    cfg = TrainConfig(eta=0.03, epochs_first=300, epochs_rest=150, seed=1)
    return problem, dmap, grid, cfg, solve(problem, dmap, grid, 4, 12, cfg)


def test_build_collocation_truncated():
    colloc = build_collocation(truncated_map(15.0), 150)
    assert colloc.count == 150 and colloc.n_pde == 150
    assert np.allclose(colloc.points, np.linspace(0.0, 15.0, 150))


def test_build_collocation_arctan_surrogate():
    dmap = make_arctan_map(10.0, 0.6)
    colloc = build_collocation(dmap, 10)
    base = np.linspace(0.0, 1.0, 10)
    assert np.allclose(colloc.points[:-1], base[:-1])
    assert colloc.points[-1] == dmap.right_eval_point
    assert colloc.n_pde == 9  # the surrogate is no residual row
    with pytest.raises(ValueError):
        build_collocation(dmap, 2)


def test_price_points_units():
    dmap = make_arctan_map(10.0, 0.6)
    colloc = build_collocation(dmap, 10)
    s = from_x(dmap, colloc.points)
    assert s[0] == 0.0
    assert s[-1] > 1e7
    # strike sits at x = quantile by construction
    assert to_x(dmap, 10.0) == pytest.approx(0.6, abs=1e-12)
    trunc = truncated_map(5.0)
    tc = build_collocation(trunc, 7)
    got = from_x(trunc, tc.points)
    got[0] = 99.0  # returned array is a copy
    assert tc.points[0] == 0.0


def test_solve_surface_shape_and_data_row(tiny_solve):
    problem, dmap, grid, cfg, result = tiny_solve
    assert result.surface.shape == (4, 12)
    assert np.array_equal(result.surface[0], problem.data(result.s_points))
    assert np.array_equal(result.final_row(), result.surface[-1])
    assert len(result.params_per_step) == 3
    assert result.wall_times.shape == (3,)
    assert result.breakdowns[0].shape == (301, 4)
    assert result.breakdowns[1].shape == (151, 4)
    assert result.surrogate_index is None
    assert np.allclose(result.natural_times, grid.times())


def test_solve_constant_problem_is_accurate(tiny_solve):
    _, _, _, _, result = tiny_solve
    summary = error_metrics(result)
    assert summary.max_abs < 5e-3


def test_solve_is_deterministic(tiny_solve):
    problem, dmap, grid, cfg, result = tiny_solve
    again = solve(problem, dmap, grid, 4, 12, cfg)
    assert np.array_equal(result.surface, again.surface)
    for a, b in zip(result.params_per_step, again.params_per_step):
        assert np.array_equal(a.to_flat(), b.to_flat())


def test_solve_alpha_mismatch():
    problem = european_call(0.05, 0.2, 10.0, 1.0)
    grid = make_time_grid(3, 1.0, 0.5)
    with pytest.raises(ValueError):
        solve(problem, truncated_map(15.0), grid, 4, 10, TrainConfig())


@pytest.mark.parametrize("theta, alpha", [(-0.1, 1.0), (1.5, 1.0), (0.5, 0.5)])
def test_solve_rejects_a_theta_before_training(theta, alpha):
    # a 1-step march never reaches a theta step, so the check must come first
    problem = fractional_manufactured(alpha) if alpha < 1.0 else european_call(0.05, 0.2, 10.0, 1.0)
    grid = make_time_grid(1, 1.0, alpha)
    with pytest.raises(ValueError, match="theta"):
        solve(problem, truncated_map(1.0), grid, 4, 10, TrainConfig(), theta)


def test_theta_half_starts_with_two_backward_euler_steps():
    # 31 points on [0, 15] put a node on the strike, where the payoff has its
    # kink; a finite-difference payoff rhs used to blow this run up
    problem = european_call(0.05, 0.2, 10.0, 1.0)
    dmap = truncated_map(15.0)
    grid = make_time_grid(4, 1.0, 1.0)
    cfg = TrainConfig(eta=0.03, epochs_first=300, epochs_rest=60, seed=0)
    euler = solve(problem, dmap, grid, 20, 31, cfg, 1.0)
    half = solve(problem, dmap, grid, 20, 31, cfg, 0.5)
    assert 10.0 in half.s_points and half.theta == 0.5
    assert START_STEPS == 2
    for k in range(START_STEPS):
        assert np.array_equal(half.breakdowns[k], euler.breakdowns[k])
        assert np.array_equal(half.params_per_step[k].to_flat(), euler.params_per_step[k].to_flat())
    assert not np.array_equal(half.breakdowns[2], euler.breakdowns[2])
    # step 3 starts from step 2's network, whose exact derivatives give rhs_old
    prev = half.params_per_step[1]
    rhs_old = spatial_rhs(problem.operator, half.s_points, 2 * grid.dt,
                          *eval_batch(prev, half.colloc.points))
    start = step_cost(prev, problem, dmap, grid, half.colloc, history_at(half, 2), 2,
                      0.5, rhs_old)
    assert start.total == pytest.approx(half.breakdowns[2][0, 3], rel=1e-12)
    assert error_metrics(half).max_abs <= 1.1 * error_metrics(euler).max_abs


def test_option_marching_reports_calendar_time():
    problem = european_call(0.05, 0.2, 10.0, 1.0)
    grid = make_time_grid(2, 1.0, 1.0)
    cfg = TrainConfig(epochs_first=40, epochs_rest=20, seed=0)
    result = solve(problem, truncated_map(15.0), grid, 5, 12, cfg)
    # row 0 is the payoff, stamped at calendar time T; the last row is t = 0
    assert np.allclose(result.natural_times, [1.0, 0.5, 0.0])
    payoff = np.maximum(result.s_points - 10.0, 0.0)
    assert np.array_equal(result.surface[0], payoff)


def test_history_at_rebuilds_prefixes(tiny_solve):
    _, _, _, _, result = tiny_solve
    h0 = history_at(result, 0)
    assert h0.steps_completed == 0
    h2 = history_at(result, 2)
    assert h2.steps_completed == 2
    assert np.array_equal(h2.values(), result.surface[:3])


def test_error_metrics_surrogate_mask():
    problem = european_call(0.05, 0.2, 10.0, 1.0)
    dmap = make_arctan_map(10.0, 0.6)
    grid = make_time_grid(2, 1.0, 1.0)
    cfg = TrainConfig(epochs_first=40, epochs_rest=20, seed=0)
    result = solve(problem, dmap, grid, 5, 6, cfg)
    assert result.surrogate_index == 5
    excl = error_metrics(result)
    incl = error_metrics(result, exclude_surrogate=False)
    assert not excl.used[5] and incl.used.all()
    assert excl.max_abs == np.abs(excl.abs_errors[:5]).max()
    # the surrogate sits at a price ~1e7 where the raw error is enormous
    assert incl.max_abs > 1e6 > excl.max_abs


def test_error_metrics_requires_exact(tiny_solve):
    _, dmap, grid, cfg, _ = tiny_solve
    problem = constant_problem(exact=False)
    result = solve(problem, dmap, grid, 4, 12, cfg)
    with pytest.raises(ValueError):
        error_metrics(result)


def test_solve_divergence_carries_partial_result():
    problem = european_call(0.05, 0.2, 10.0, 1.0)
    grid = make_time_grid(20, 1.0, 1.0)
    cfg = TrainConfig(optimizer="sgd", eta=0.03, epochs_first=5000, epochs_rest=1200, seed=0)
    with pytest.raises(TrainingDiverged) as info:
        solve(problem, truncated_map(15.0), grid, 20, 150, cfg)
    exc = info.value
    assert exc.step_index == 0
    assert exc.partial is not None
    assert exc.partial.surface.shape == (1, 150)
    assert exc.partial.params_per_step == ()
    assert "step 0" in str(exc)
    assert not exc.partial.complete
    with pytest.raises(ValueError, match="partial"):
        error_metrics(exc.partial)


def test_sweep_alpha_entries():
    # an alpha sweep is a loop of solve, one alpha at a time
    cfg = TrainConfig(eta=0.03, epochs_first=200, epochs_rest=100, seed=0)
    for alpha in (0.4, 0.6):
        problem = fractional_manufactured(alpha)
        grid = make_time_grid(3, problem.maturity, alpha)
        result = solve(problem, truncated_map(1.0), grid, 4, 12, cfg)
        assert isinstance(result, SolveResult) and result.complete
        assert result.problem.alpha == alpha and result.grid.alpha == alpha
        assert result.final_row().shape == (12,)
        assert error_metrics(result).max_abs < 0.5
        assert result.s_points.shape == (12,)


def test_write_solution_outputs_inventory(tiny_solve, tmp_path):
    _, _, _, _, result = tiny_solve
    out = tmp_path / "run"
    write_solution_outputs(out, result)
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "cost_step_1.csv",
        "cost_step_2.csv",
        "cost_step_3.csv",
        "errors.csv",
        "params_step_1.csv",
        "params_step_2.csv",
        "params_step_3.csv",
        "surface.csv",
        "timing.csv",
    ]


def test_surface_csv_round_trip(tiny_solve, tmp_path):
    _, _, grid, _, result = tiny_solve
    path = tmp_path / "surface.csv"
    write_surface_csv(path, result)
    header, mat = read_numeric_csv(path)
    assert header == ("t", "S", "U")
    assert mat.shape == (4 * 12, 3)
    # repr formatting makes the round trip bit-exact
    assert np.array_equal(mat[:, 2], result.surface.ravel())
    assert np.array_equal(mat[:12, 1], result.s_points)
    assert np.array_equal(mat[::12, 0], grid.times())


def test_errors_and_cost_and_timing_csv(tiny_solve, tmp_path):
    _, _, _, _, result = tiny_solve
    write_solution_outputs(tmp_path, result)
    header, mat = read_numeric_csv(tmp_path / "errors.csv")
    assert header == ("S", "abs_err", "log10_abs_err")
    assert mat.shape == (12, 3)
    summary = error_metrics(result, exclude_surrogate=False)
    assert np.array_equal(mat[:, 1], summary.abs_errors)
    header, mat = read_numeric_csv(tmp_path / "cost_step_1.csv")
    assert header == ("epoch", "pde_term", "left_bc_term", "right_bc_term", "total")
    assert mat.shape == (301, 5)
    assert np.array_equal(mat[:, 0], np.arange(301))
    assert np.array_equal(mat[:, 1:], result.breakdowns[0])
    header, rows = read_csv(tmp_path / "timing.csv")
    assert header == ("step", "seconds", "epochs", "seconds_per_epoch")
    assert [r[0] for r in rows] == ["1", "2", "3"]
    assert [r[2] for r in rows] == ["300", "150", "150"]


def test_params_csv_round_trip(tiny_solve, tmp_path):
    _, _, _, _, result = tiny_solve
    write_solution_outputs(tmp_path, result)
    for i, params in enumerate(result.params_per_step):
        loaded = load_params_csv(tmp_path / f"params_step_{i + 1}.csv")
        assert np.array_equal(loaded.to_flat(), params.to_flat())


def test_read_csv_rejects_bad_files(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError):
        read_csv(empty)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ValueError):
        read_csv(ragged)
