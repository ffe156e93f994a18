import os
from dataclasses import replace

import numpy as np
import pytest

import reference
from bsann.config import build_grid, build_map, build_problem, build_train_config, load_config
from bsann.csvio import write_csv
from bsann.mapping import from_x, make_arctan_map, to_x, truncated_map
from bsann.network import eval_batch, init_params, load_params_csv
from bsann.problems import european_call, fractional_manufactured
from bsann.solver import (
    SolveResult,
    build_collocation,
    error_metrics,
    history_at,
    kept_nbytes,
    read_csv,
    read_numeric_csv,
    solve,
    write_solution_outputs,
    write_surface_csv,
)
from bsann.stepper import StepHistory, make_time_grid
from bsann.trainer import (
    OptimizerState,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    build_step_context,
)
from cases import constant_problem

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


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
    assert result.colloc.n_pde == result.colloc.count  # no surrogate column
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


@pytest.mark.parametrize("theta, alpha", [(-0.1, 1.0), (1.5, 1.0), (0.5, 0.5), (0.5, 1.0)])
def test_solve_rejects_a_theta_before_training(monkeypatch, theta, alpha):
    # every step is implicit: theta must be 1, and the check comes before any training
    monkeypatch.setattr("bsann.trainer._Workspace", None)
    problem = fractional_manufactured(alpha) if alpha < 1.0 else european_call(0.05, 0.2, 10.0, 1.0)
    grid = make_time_grid(1, 1.0, alpha)
    with pytest.raises(ValueError, match="theta"):
        solve(problem, truncated_map(1.0), grid, 4, 10, TrainConfig(), theta)


_ROW_CASES = [(act, kind, 1.0, 1.0) for act in ("identity", "sigmoid")
              for kind in ("truncated", "arctan")]


@pytest.mark.parametrize("act,kind,theta,alpha", _ROW_CASES + [("identity", "truncated", 1.0, 0.5)])
def test_stored_rows_are_the_stored_networks_on_the_grid(act, kind, theta, alpha):
    # each surface row is its step's last training pass, which must equal a
    # fresh evaluation of the stored parameters bit for bit
    if alpha < 1.0:
        problem, dmap = fractional_manufactured(alpha), truncated_map(1.0)
    else:
        problem = european_call(0.05, 0.2, 10.0, 1.0)
        dmap = make_arctan_map(10.0, 0.6) if kind == "arctan" else truncated_map(15.0)
    cfg = TrainConfig(eta=0.03, epochs_first=40, epochs_rest=10, seed=2)
    result = solve(problem, dmap, make_time_grid(4, 1.0, alpha), 5, 12, cfg, theta,
                   output_activation=act)
    assert result.surface.shape == (5, 12)
    for k, params in enumerate(result.params_per_step, start=1):
        want = eval_batch(params, result.colloc.points, act)[0]
        assert np.array_equal(result.surface[k], want)


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
    assert result.colloc.n_pde == 5
    summary = error_metrics(result)
    assert summary.max_abs == summary.abs_errors[:5].max()
    assert summary.mean_abs == summary.abs_errors[:5].mean()
    # the surrogate sits at a price ~1e7 where the raw error is enormous;
    # abs_errors keeps it, the maximum leaves it out
    assert summary.abs_errors[5] > 1e6 > summary.max_abs


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
    assert "marching step 1 " in str(exc)
    assert not exc.partial.complete
    with pytest.raises(ValueError, match="partial"):
        error_metrics(exc.partial)


def test_write_solution_outputs_returns_the_summary_it_wrote(tiny_solve, tmp_path):
    _, dmap, grid, cfg, result = tiny_solve
    summary = write_solution_outputs(tmp_path / "complete", result)
    expect = error_metrics(result)
    assert np.array_equal(summary.abs_errors, expect.abs_errors)
    assert (summary.max_abs, summary.mean_abs) == (expect.max_abs, expect.mean_abs)
    # no exact solution: no errors.csv and no summary
    inexact = solve(constant_problem(exact=False), dmap, grid, 4, 12, cfg)
    assert write_solution_outputs(tmp_path / "inexact", inexact) is None
    assert not (tmp_path / "inexact" / "errors.csv").exists()
    # a partial march has no row at the reporting time
    sgd = TrainConfig(optimizer="sgd", eta=0.03, epochs_first=5000, epochs_rest=1200, seed=0)
    with pytest.raises(TrainingDiverged) as info:
        solve(european_call(0.05, 0.2, 10.0, 1.0), truncated_map(15.0),
              make_time_grid(20, 1.0, 1.0), 20, 150, sgd)
    assert write_solution_outputs(tmp_path / "partial", info.value.partial) is None
    assert not (tmp_path / "partial" / "errors.csv").exists()


@pytest.mark.parametrize("n_steps", [1, 4, 5, 7, 8])
def test_kept_nbytes_counts_what_a_solve_holds(n_steps):
    cfg = TrainConfig(eta=0.03, epochs_first=6, epochs_rest=3, seed=1)
    result = solve(constant_problem(), truncated_map(2.0), make_time_grid(n_steps, 1.0), 4, 12, cfg)
    # the surface is a view of the march's whole history buffer
    held = result.surface.base.nbytes
    held += sum(b.nbytes for b in result.breakdowns)
    held += sum(p.flat.nbytes for p in result.params_per_step)
    assert kept_nbytes(12, 4, n_steps, 6, 3) == held


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


def test_surface_csv_bytes_match_per_cell_formatting(tiny_solve, tmp_path):
    # t and S are formatted once per value, not once per cell; the bytes
    # must be those of the float cells that write_csv formats one by one
    result = tiny_solve[-1]
    write_surface_csv(tmp_path / "surface.csv", result)
    rows = [
        (t, s, u)
        for t, row in zip(result.natural_times, result.surface)
        for s, u in zip(result.s_points, row)
    ]
    write_csv(tmp_path / "cells.csv", ("t", "S", "U"), rows)
    assert (tmp_path / "surface.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


def test_errors_and_cost_and_timing_csv(tiny_solve, tmp_path):
    _, _, _, _, result = tiny_solve
    write_solution_outputs(tmp_path, result)
    header, mat = read_numeric_csv(tmp_path / "errors.csv")
    assert header == ("S", "abs_err", "log10_abs_err")
    assert mat.shape == (12, 3)
    summary = error_metrics(result)
    assert np.array_equal(mat[:, 1], summary.abs_errors)
    assert np.array_equal(mat[:, 2], np.log10(np.maximum(summary.abs_errors, 1e-300)))
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


def _reference_march(problem, dmap, grid, n_points, n_hidden, cfg, init_scale, act):
    """Surface, breakdowns and parameters of a backward-Euler march whose every
    epoch is one reference.blocks_cost_gradient call and one adam_step."""
    colloc = build_collocation(dmap, n_points)
    history = StepHistory(problem.data(from_x(dmap, colloc.points)))
    flat = init_params(n_hidden, cfg.seed, init_scale).to_flat()
    breakdowns, params = [], []
    for k in range(grid.n_steps):
        ctx = build_step_context(problem, dmap, grid, colloc, history, k, output_activation=act)
        state = OptimizerState.zeros(flat.size)
        epochs = cfg.epochs_first if k == 0 else cfg.epochs_rest
        rows = []
        for e in range(epochs + 1):
            grad, _, _, (val, _, _), cost = reference.blocks_cost_gradient(ctx, flat, n_hidden)
            rows.append(cost)
            if e < epochs:
                adam_step(state, flat, grad, cfg)
        history.append(val)
        breakdowns.append(np.array(rows))
        params.append(flat.copy())
    return history.values(), breakdowns, params


_FRACTIONAL = dict(n_steps=4, epochs_first=1000, epochs_rest=300)


@pytest.mark.parametrize("config,overrides", [
    ("example1_mapped.cfg", dict(n_steps=3)),
    ("example2_fractional.cfg", _FRACTIONAL),
    ("example2_fractional.cfg", dict(_FRACTIONAL, output_activation="sigmoid")),
])
def test_solve_matches_the_reference_march_bit_for_bit(config, overrides):
    # pins the hand-over from step to step (the last, cost-only pass becomes
    # the next history row) as well as every epoch of every step
    cfg = replace(load_config(os.path.join(CONFIG_DIR, config)), **overrides)
    problem, dmap, grid = build_problem(cfg), build_map(cfg), build_grid(cfg)
    train_cfg = build_train_config(cfg)
    result = solve(problem, dmap, grid, cfg.n_hidden, cfg.n_points, train_cfg,
                   init_scale=cfg.init_scale, output_activation=cfg.output_activation)
    surface, breakdowns, params = _reference_march(problem, dmap, grid, cfg.n_points,
                                                   cfg.n_hidden, train_cfg, cfg.init_scale,
                                                   cfg.output_activation)
    assert np.array_equal(result.surface, surface)
    assert len(result.breakdowns) == len(breakdowns) == grid.n_steps
    for got, want in zip(result.breakdowns, breakdowns):
        assert np.array_equal(got, want)
    for got, want in zip(result.params_per_step, params):
        assert np.array_equal(got.flat, want)
