"""Command-line front end.

Subcommands:
    solve        march a configured problem and write the CSV/SVG artifact set
    compare      train the first step under each compare.optimizers entry
    sweep-alpha  solve the fractional benchmark across several alpha values
    lr-search    grid-search the learning rate on truncated probe runs
    selftest     run a fast invariant suite and print PASS/FAIL lines

compare and lr-search format their rows, plots and messages from the
ProbeRun records of trainer.probe_first_step. sweep-alpha runs solve one
alpha at a time and keeps only each alpha's status row and a copy of its
final row. Every run is reported as completed or diverged.

Exit statuses: 0 success, 2 configuration error, 3 training diverged
(solve: the march; compare and lr-search: every run; sweep-alpha: any
alpha), 1 selftest failure or a stdout closed before the command finished
reporting. On exit 3 the partial outputs are still written. An output
directory that cannot be created and an artifact that cannot be written are
the same config error on output.dir; the outputs written before it stay.
No other nonzero codes escape.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import replace
from typing import Callable, Optional

import numpy as np

from .config import (
    ConfigError,
    RunConfig,
    build_grid,
    build_map,
    build_problem,
    build_train_config,
    load_config,
)
from .csvio import write_csv
from .plots import LineSeries, write_line_plot
from .problems import FRACTIONAL
from .solver import (
    ErrorSummary,
    SolveResult,
    build_collocation,
    error_metrics,
    solve,
    write_cost_csv,
    write_solution_outputs,
)
from .trainer import ProbeRun, TrainingDiverged, lr_grid_search, probe_first_step

EXIT_OK = 0
EXIT_FAILED = 1  # a selftest check failed, or stdout closed before the report ended
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def _load(args, check: Optional[Callable[[RunConfig], None]] = None):
    """Resolved config with the command-line overrides applied, and its solver objects.

    Returns (cfg, problem, dmap, grid, train_cfg). `check` raises ConfigError
    for keys the command itself needs. It and the builders run before the
    output directory is created, so a config error creates nothing.
    """
    cfg = load_config(args.config)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("network.seed", f"must be >= 0, got {args.seed}")
        cfg = replace(cfg, seed=args.seed)
    if args.no_plots:
        cfg = replace(cfg, plots=False)
    if check is not None:
        check(cfg)
    built = (cfg, build_problem(cfg), build_map(cfg), build_grid(cfg), build_train_config(cfg))
    os.makedirs(cfg.out_dir, exist_ok=True)
    return built


def _solution_plots(out_dir: str, result: SolveResult, summary: Optional[ErrorSummary]) -> None:
    """solution.svg, error.svg and cost.svg for a march with at least one step.

    solution.svg and error.svg cover the first colloc.n_pde columns, so an
    arctan grid's x = 1 surrogate is not drawn. Without a summary (no exact
    solution, or a partial march) there is no exact curve and no error plot.
    """
    n = result.colloc.n_pde
    s = result.s_points[:n]
    series = [LineSeries(s, result.surface[0, :n], "data row")]
    if summary is not None:
        series.append(LineSeries(s, result.problem.exact(s, result.grid.horizon), "exact"))
    series.append(LineSeries(s, result.final_row()[:n], "network"))
    steps = result.surface.shape[0] - 1
    done = f"{steps}" if result.complete else f"{steps} of {result.grid.n_steps}"
    write_line_plot(
        os.path.join(out_dir, "solution.svg"), series,
        title=f"{result.problem.name}: solution after {done} steps",
        x_label="S", y_label="U",
    )
    if summary is not None:
        write_line_plot(
            os.path.join(out_dir, "error.svg"),
            [LineSeries(s, summary.abs_errors[:n], "abs error")],
            title=f"{result.problem.name}: pointwise error", x_label="S",
            y_label="abs error", log_y=True,
        )
    cost_series = []
    for i in sorted({0, len(result.breakdowns) - 1}):
        trace = result.breakdowns[i][:, 3]
        cost_series.append(LineSeries(np.arange(trace.size), trace, f"step {i + 1}"))
    write_line_plot(
        os.path.join(out_dir, "cost.svg"), cost_series,
        title="training cost", x_label="epoch", y_label="cost", log_y=True,
    )


def cmd_solve(args) -> int:
    cfg, problem, dmap, grid, tcfg = _load(args)
    diverged = None
    try:
        result = solve(
            problem, dmap, grid, cfg.n_hidden, cfg.n_points, tcfg,
            cfg.theta, cfg.init_scale, cfg.output_activation,
        )
    except TrainingDiverged as exc:
        result, diverged = exc.partial, exc
    summary = write_solution_outputs(cfg.out_dir, result)
    if cfg.plots and result.breakdowns:
        _solution_plots(cfg.out_dir, result, summary)
    if diverged is not None:
        print(f"error: {diverged}", file=sys.stderr)
        return EXIT_DIVERGED
    if summary is not None:
        print(f"max abs error {summary.max_abs:.6e}, mean {summary.mean_abs:.6e}")
    print(f"wrote {cfg.out_dir}/surface.csv ({grid.n_steps} steps, {cfg.n_points} points)")
    return EXIT_OK


def _status(run: ProbeRun) -> tuple:
    """A probe run's (status, diverged_epoch cell) for compare.csv and lr_search.csv."""
    return ("completed", "") if run.diverged_epoch is None else ("diverged", run.diverged_epoch)


def cmd_compare(args) -> int:
    cfg, problem, dmap, grid, tcfg = _load(args)
    runs = probe_first_step(
        problem, dmap, grid, build_collocation(dmap, cfg.n_points), cfg.n_hidden, tcfg,
        [dict(optimizer=name) for name in cfg.compare_optimizers],
        cfg.init_scale, cfg.output_activation,
    )
    series = []
    rows = []
    for name, run in zip(cfg.compare_optimizers, runs):
        write_cost_csv(os.path.join(cfg.out_dir, f"cost_{name}.csv"), run.breakdown)
        status, div = _status(run)
        epochs = run.breakdown.shape[0] - 1
        rows.append((name, status, epochs, div, run.final_cost, run.seconds, run.seconds_per_epoch))
        series.append(LineSeries(np.arange(run.trace.size), run.trace, f"{name} ({status})"))
        print(f"{name}: {status}, final cost {run.final_cost:.6e}")
    write_csv(
        os.path.join(cfg.out_dir, "compare.csv"),
        ("optimizer", "status", "epochs_recorded", "diverged_epoch",
         "final_cost", "seconds", "seconds_per_epoch"),
        rows,
    )
    if cfg.plots:
        write_line_plot(
            os.path.join(cfg.out_dir, "compare.svg"), series,
            title=f"{problem.name}: first-step cost by optimizer",
            x_label="epoch", y_label="cost", log_y=True,
        )
    if all(run.diverged_epoch is not None for run in runs):
        print("error: every optimizer diverged", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def _check_sweep_alpha(cfg: RunConfig) -> None:
    if cfg.sweep_alphas is None:
        raise ConfigError("sweep.alphas", "required key is missing")
    if cfg.problem_name != FRACTIONAL:
        raise ConfigError("problem.name", "sweep-alpha applies to the fractional benchmark")


def cmd_sweep_alpha(args) -> int:
    cfg, _, dmap, _, tcfg = _load(args, _check_sweep_alpha)
    status_rows, finals = [], []
    for alpha in cfg.sweep_alphas:
        run = replace(cfg, alpha=alpha)
        try:
            result = solve(
                build_problem(run), dmap, build_grid(run), cfg.n_hidden, cfg.n_points, tcfg,
                1.0, cfg.init_scale, cfg.output_activation,
            )
        except TrainingDiverged as exc:
            # a partial result lies on the same collocation grid
            s_points = exc.partial.s_points
            note = f"diverged in step {exc.step_index + 1} at epoch {exc.epoch}"
            status_rows.append((alpha, note, ""))
        else:
            s_points = result.s_points
            max_abs = error_metrics(result).max_abs
            note = f"max abs error {max_abs:.6e}"
            status_rows.append((alpha, "completed", max_abs))
            # final_row() is a view, and result would otherwise live on through
            # the next alpha's solve: keep a copy and let the rest go now
            finals.append((alpha, result.final_row().copy()))
            del result
        print(f"alpha={alpha!r}: {note}")
    write_csv(
        os.path.join(cfg.out_dir, "sweep.csv"),
        ["S"] + [f"alpha_{a!r}" for a, _ in finals],
        np.column_stack([s_points] + [row for _, row in finals]).tolist(),
    )
    write_csv(
        os.path.join(cfg.out_dir, "sweep_status.csv"), ("alpha", "status", "max_abs_error"),
        status_rows,
    )
    if cfg.plots and finals:
        series = [LineSeries(s_points, row, f"alpha={a!r}") for a, row in finals]
        write_line_plot(
            os.path.join(cfg.out_dir, "sweep.svg"), series,
            title="final-time solution by alpha", x_label="S", y_label="U",
        )
    if len(finals) < len(status_rows):
        print("error: at least one alpha diverged", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def _check_lr_search(cfg: RunConfig) -> None:
    if cfg.lr_candidates is None:
        raise ConfigError("lr.candidates", "required key is missing")


def cmd_lr_search(args) -> int:
    cfg, problem, dmap, grid, tcfg = _load(args, _check_lr_search)
    colloc = build_collocation(dmap, cfg.n_points)
    best_eta, runs = lr_grid_search(
        problem, dmap, grid, colloc, cfg.n_hidden, tcfg, cfg.lr_candidates,
        cfg.lr_probe_epochs, cfg.init_scale, cfg.output_activation,
    )
    etas = cfg.lr_candidates
    rows = []
    for eta, run in zip(etas, runs):
        status, div = _status(run)
        rows.append((eta, status, run.final_cost, div))
    write_csv(
        os.path.join(cfg.out_dir, "lr_search.csv"),
        ("eta", "status", "final_cost", "diverged_epoch"), rows,
    )
    done = [(eta, run.final_cost) for eta, run in zip(etas, runs) if run.diverged_epoch is None]
    if cfg.plots and done:
        write_line_plot(
            os.path.join(cfg.out_dir, "lr_search.svg"),
            [LineSeries(*np.array(done).T, f"cost after {cfg.lr_probe_epochs} epochs")],
            title=f"{problem.name}: learning-rate probe", x_label="eta",
            y_label="cost", log_y=True,
        )
    if best_eta is None:
        failures = ", ".join(
            f"eta={eta:g} diverged at epoch {run.diverged_epoch}" for eta, run in zip(etas, runs)
        )
        print(f"error: all learning-rate candidates diverged: {failures}", file=sys.stderr)
        return EXIT_DIVERGED
    print(f"chosen eta = {best_eta:g}")
    return EXIT_OK


def _selftest_checks():
    import math as _math

    from .mapping import jacobians, make_arctan_map, to_x, truncated_map
    from .network import (
        NetworkParams,
        _sigmoid_arr,
        eval_batch,
        forward,
        init_params,
        load_params_csv,
        save_params_csv,
    )
    from .problems import european_call, european_put, normal_cdf
    from .stepper import StepHistory, b_weights, caputo_residual, make_time_grid
    from .trainer import OptimizerState, TrainConfig, adam_step

    def check_sigmoid_and_cdf():
        assert np.array_equal(_sigmoid_arr(np.array([0.0, -800.0, 800.0])), [0.5, 0.0, 1.0])
        # one hidden unit with unit weights: the derivatives are s'(1) and s''(1)
        unit = NetworkParams.from_flat(np.array([1.0, 0.0, 1.0, 0.0]), 1)
        _, d1, d2 = eval_batch(unit, np.array([1.0]))
        assert abs(d1[0] - 0.19661193324148185) < 1e-12
        assert abs(d2[0] + 0.09085774767294841) < 1e-12
        assert abs(normal_cdf(1.96) - 0.9750021048517795) < 1e-12
        assert abs(normal_cdf(0.7) + normal_cdf(-0.7) - 1.0) < 1e-14

    def check_network():
        params = init_params(7, 3)
        assert params.size == 22
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "params.csv")
            save_params_csv(params, path)
            back = load_params_csv(path)
        assert np.array_equal(params.to_flat(), back.to_flat())
        x = 0.37
        h = 1e-5
        net = forward(params, x)
        vp = forward(params, x + h).value
        vm = forward(params, x - h).value
        assert abs((vp - vm) / (2 * h) - net.d1) < 1e-6

    def check_stepper():
        b = b_weights(0.5, 3)
        assert abs(b[0] - 1.0) < 1e-15
        assert abs(b[1] - (2 ** 0.5 - 1.0)) < 1e-12
        grid = make_time_grid(4, 1.0, 1.0)
        hist = StepHistory(np.array([1.0, 2.0]))
        rhs = np.array([0.5, -0.5])
        new = np.array([1.25, 1.875])
        res = caputo_residual(grid, hist, new, rhs, 0)
        euler = (new - hist.row(0)) / grid.dt - rhs
        assert np.all(np.abs(res - euler) < 1e-12)

    def check_adam():
        cfg = TrainConfig(eta=0.1)
        state = OptimizerState.zeros(2)
        grad = np.array([1.0, -2.0])
        _, out = adam_step(state, np.zeros(2), grad, cfg)
        expect = -cfg.eta * grad / (np.abs(grad) + cfg.epsilon)
        assert np.all(np.abs(out - expect) < 1e-12)

    def check_mapping():
        dmap = make_arctan_map(10.0, 0.6)
        assert abs(to_x(dmap, 10.0) - 0.6) < 1e-12
        upsilon, theta = jacobians(dmap, np.array([0.0, 0.5]))
        assert abs(upsilon[1] - dmap.length * _math.pi) < 1e-9
        assert theta[0] == 0.0
        upsilon, theta = jacobians(truncated_map(15.0), np.array([3.0]))
        assert upsilon[0] == 1.0 and theta[0] == 0.0

    def check_pricing():
        call = european_call(0.05, 0.2, 10.0, 1.0)
        put = european_put(0.05, 0.2, 10.0, 1.0)
        assert abs(call.exact(10.0, 1.0) - 1.0450583572185567) < 1e-6
        rng = np.random.default_rng(0)
        s = rng.uniform(0.5, 25.0, 20)
        parity = call.exact(s, 0.7) - put.exact(s, 0.7) - (s - 10.0 * np.exp(-0.05 * 0.7))
        assert np.max(np.abs(parity)) < 1e-9

    def check_determinism():
        from .solver import solve as _solve

        problem = european_call(0.05, 0.2, 10.0, 1.0)
        grid = make_time_grid(2, 1.0, 1.0)
        cfg = TrainConfig(eta=0.03, epochs_first=40, epochs_rest=20, seed=5)
        a, b = (_solve(problem, truncated_map(15.0), grid, 4, 12, cfg) for _ in range(2))
        assert np.array_equal(a.surface, b.surface)
        for pa, pb in zip(a.params_per_step, b.params_per_step, strict=True):
            assert np.array_equal(pa.flat, pb.flat)

    return [
        ("sigmoid and normal CDF", check_sigmoid_and_cdf),
        ("network evaluation and round-trip", check_network),
        ("marching weights and residual", check_stepper),
        ("adam first update", check_adam),
        ("domain maps", check_mapping),
        ("closed-form prices", check_pricing),
        ("deterministic solve", check_determinism),
    ]


def cmd_selftest(_args) -> int:
    failures = 0
    for name, fn in _selftest_checks():
        try:
            fn()
        except Exception as exc:  # report every failure, keep going
            failures += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"PASS {name}")
    if failures:
        print(f"{failures} check(s) failed")
        return EXIT_FAILED
    print("all checks passed")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):  # argparse drops a failed write
        (file or sys.stderr).write(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bsann",
        description="Collocation-network solver for ordinary and time-fractional "
        "Black-Scholes problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_text in (
        ("solve", cmd_solve, "march a configured problem"),
        ("compare", cmd_compare, "first-step optimizer comparison"),
        ("sweep-alpha", cmd_sweep_alpha, "fractional benchmark across alphas"),
        ("lr-search", cmd_lr_search, "learning-rate grid search"),
        ("selftest", cmd_selftest, "run the fast invariant suite"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        if fn is not cmd_selftest:
            p.add_argument("--config", required=True, help="path to a key=value config file")
            p.add_argument("--out", default=None, help="output directory (overrides output.dir)")
            p.add_argument("--seed", type=int, default=None, help="seed override (network.seed)")
            p.add_argument("--no-plots", action="store_true", help="skip SVG plot emission")
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        finally:  # --help and usage errors leave here, after argparse printed
            sys.stdout.flush()
        code = args.fn(args)
        sys.stdout.flush()  # a pipe closed before a last flush fails here, not at exit
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BrokenPipeError:  # nothing reads stdout any more: the report could not be given
        # so that interpreter shutdown does not flush into the closed pipe again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAILED
    except OSError as exc:  # an output dir or artifact that cannot be written; earlier ones stay
        print(f"config error: output.dir: cannot write: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
