"""Marching orchestration: per-step training, metrics, CSV outputs.

One network is trained per time step. Step k starts from step k-1's
parameters (warm start), so only the first step pays the full epoch budget.
Option problems march in remaining time tau = T - t with the payoff as row 0;
the fractional benchmark marches forward in t. The stored surface row k is
the last pass of step k's training loop on the collocation grid,
bit-identical to eval_batch at the stored parameters.

Under the arctan map the grid's x = 1 entry is replaced by the map's
right_eval_point. That surrogate column is stored in the surface and its raw
error in errors.csv, but it is no residual row: the far-field boundary
condition is imposed at the outermost finite grid point, and error maxima,
means and plots cover the first colloc.n_pde columns only.

A diverged march raises TrainingDiverged with the completed rows attached as
a partial SolveResult, so these two records describe every solve. An alpha
sweep is one solve per alpha (see cli's sweep-alpha). First-step probes
(compare, lr-search) live in trainer.probe_first_step.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .csvio import read_csv, read_numeric_csv, write_csv  # noqa: F401  (readers re-exported)
from .mapping import ARCTAN, DomainMap, from_x
# nothing here calls eval_batch; bench/layers.py wraps bsann.solver.eval_batch
from .network import IDENTITY, NetworkParams, eval_batch, init_params, save_params_csv  # noqa: F401
from .problems import TERMINAL_PAYOFF, CollocationSet, ProblemSpec, collocation_points
from .stepper import StepHistory, TimeGrid
from .trainer import TrainConfig, TrainingDiverged, train_step_network


def build_collocation(dmap: DomainMap, n_points: int) -> CollocationSet:
    """Equidistant working grid. Arctan grids get the x=1 surrogate substituted
    as their last point, which is the one point outside the residual rows."""
    if dmap.kind == ARCTAN:
        if n_points < 3:
            raise ValueError("arctan grids need at least 3 points")
        base = collocation_points(0.0, 1.0, n_points).points.copy()
        if dmap.right_eval_point <= base[-2]:
            raise ValueError(
                f"right_eval_point {dmap.right_eval_point} must exceed the last interior "
                f"abscissa {base[-2]}"
            )
        base[-1] = dmap.right_eval_point
        return CollocationSet(points=base, n_pde=n_points - 1)
    return collocation_points(0.0, dmap.s_max, n_points)


@dataclass(frozen=True)
class SolveResult:
    problem: ProblemSpec
    dmap: DomainMap
    grid: TimeGrid
    colloc: CollocationSet
    s_points: np.ndarray
    surface: np.ndarray                      # (n_steps+1, r); row 0 is the data
    params_per_step: Tuple[NetworkParams, ...]
    breakdowns: Tuple[np.ndarray, ...]       # per step, (epochs+1, 4)
    wall_times: np.ndarray                   # seconds per step
    theta: float = 1.0
    output_activation: str = IDENTITY

    @property
    def natural_times(self) -> np.ndarray:
        """Calendar times per surface row (maturity - tau for option problems)."""
        t = self.grid.t
        if self.problem.data_kind == TERMINAL_PAYOFF:
            return self.problem.maturity - t
        return t

    def final_row(self) -> np.ndarray:
        return self.surface[-1]

    @property
    def complete(self) -> bool:
        """False for a diverged solve's partial result, whose last row is not at the horizon."""
        return self.surface.shape[0] == self.grid.n_steps + 1


def history_at(result: SolveResult, step_index: int) -> StepHistory:
    """Rebuild the training history as it stood before step step_index + 1."""
    hist = StepHistory(result.surface[0])
    for k in range(1, step_index + 1):
        hist.append(result.surface[k])
    return hist


def solve(
    problem: ProblemSpec,
    dmap: DomainMap,
    grid: TimeGrid,
    n_hidden: int,
    n_points: int,
    cfg: TrainConfig,
    theta: float = 1.0,
    init_scale: float = 0.01,
    output_activation: str = IDENTITY,
) -> SolveResult:
    """March all time steps, one trained network per step.

    Every step is implicit: the L1 scheme for alpha < 1, which is backward
    Euler at alpha = 1. theta is kept for existing callers and must be 1;
    step 1's context rejects any other before training starts.

    Raises TrainingDiverged with the failing step index and the partial
    result (completed rows) attached when a step's cost blows up.
    """
    if grid.alpha != problem.alpha:
        raise ValueError(
            f"grid alpha {grid.alpha} does not match problem alpha {problem.alpha}"
        )
    colloc = build_collocation(dmap, n_points)
    s_vals = from_x(dmap, colloc.points)
    history = StepHistory(problem.data(s_vals))
    params = init_params(n_hidden, cfg.seed, init_scale)

    snapshots = []
    breakdowns = []
    walls = []

    def result() -> SolveResult:
        return SolveResult(
            problem=problem,
            dmap=dmap,
            grid=grid,
            colloc=colloc,
            s_points=s_vals,
            surface=history.values(),
            params_per_step=tuple(snapshots),
            breakdowns=tuple(breakdowns),
            wall_times=np.asarray(walls),
            theta=theta,
            output_activation=output_activation,
        )

    for k in range(1, grid.n_steps + 1):
        t0 = time.perf_counter()
        try:
            res = train_step_network(
                params, problem, dmap, grid, colloc, history, k - 1, cfg, theta,
                output_activation=output_activation,
            )
        except TrainingDiverged as exc:
            exc.partial = result()
            raise
        walls.append(time.perf_counter() - t0)
        params = res.params
        history.append(res.values)
        snapshots.append(params)
        breakdowns.append(res.breakdown)
    return result()


def kept_nbytes(r: int, n: int, n_steps: int, epochs_first: int, epochs_rest: int) -> int:
    """Bytes a complete solve keeps: the surface buffer, and per step one
    (epochs+1, 4) cost breakdown and one flat vector of 3n+1 parameters."""
    epochs = epochs_first + 1 + (n_steps - 1) * (epochs_rest + 1)
    return StepHistory.nbytes(n_steps, r) + 32 * epochs + 8 * n_steps * (3 * n + 1)


@dataclass(frozen=True)
class ErrorSummary:
    abs_errors: np.ndarray      # per collocation point at the reporting time
    max_abs: float              # over the first colloc.n_pde points
    mean_abs: float


def error_metrics(result: SolveResult) -> ErrorSummary:
    """Pointwise errors against the problem's exact solution at the final time.

    abs_errors covers every column; the maximum and mean leave out an arctan
    grid's x = 1 surrogate, which lies past the first colloc.n_pde columns.
    """
    if result.problem.exact is None:
        raise ValueError(f"problem {result.problem.name!r} has no exact solution")
    if not result.complete:
        raise ValueError("a partial march has no row at the reporting time")
    t_final = result.grid.horizon
    exact = np.asarray(result.problem.exact(result.s_points, t_final), dtype=float)
    abs_err = np.abs(exact - result.final_row())
    used = abs_err[:result.colloc.n_pde]
    return ErrorSummary(abs_errors=abs_err, max_abs=float(used.max()), mean_abs=float(used.mean()))


def write_surface_csv(path, result: SolveResult) -> None:
    """Rows (t, S, U) over every stored step; t is calendar time. Each t and
    S is formatted once, as the str cell that write_csv would make of it."""
    s_cells = [repr(s) for s in result.s_points.tolist()]
    write_csv(path, ("t", "S", "U"), (
        (t, s, u)
        for t, row in zip(map(repr, result.natural_times.tolist()), result.surface)
        for s, u in zip(s_cells, row.tolist())
    ))


def write_errors_csv(path, result: SolveResult, summary: ErrorSummary) -> None:
    """Rows (S, abs_err, log10_abs_err) at the reporting time."""
    abs_err = summary.abs_errors
    columns = (result.s_points, abs_err, np.log10(np.maximum(abs_err, 1e-300)))
    write_csv(path, ("S", "abs_err", "log10_abs_err"), np.column_stack(columns).tolist())


def write_cost_csv(path, breakdown: np.ndarray) -> None:
    """Rows (epoch, pde_term, left_bc_term, right_bc_term, total)."""
    write_csv(
        path, ("epoch", "pde_term", "left_bc_term", "right_bc_term", "total"),
        ((e, *row.tolist()) for e, row in enumerate(breakdown)),
    )


def write_timing_csv(path, result: SolveResult) -> None:
    epochs = [b.shape[0] - 1 for b in result.breakdowns]
    write_csv(path, ("step", "seconds", "epochs", "seconds_per_epoch"), (
        (i + 1, sec, e, sec / max(1, e))
        for i, (sec, e) in enumerate(zip(result.wall_times.tolist(), epochs))
    ))


def write_solution_outputs(out_dir, result: SolveResult) -> Optional[ErrorSummary]:
    """surface.csv, errors.csv (when exact), cost_step_k.csv, params_step_k.csv, timing.csv.

    Returns the solve's one error summary, which errors.csv is written from, or
    None when the problem has no exact solution or the march is partial."""
    os.makedirs(out_dir, exist_ok=True)
    write_surface_csv(os.path.join(out_dir, "surface.csv"), result)
    summary = None
    if result.problem.exact is not None and result.complete:
        summary = error_metrics(result)
        write_errors_csv(os.path.join(out_dir, "errors.csv"), result, summary)
    for i, breakdown in enumerate(result.breakdowns):
        write_cost_csv(os.path.join(out_dir, f"cost_step_{i + 1}.csv"), breakdown)
    for i, params in enumerate(result.params_per_step):
        save_params_csv(params, os.path.join(out_dir, f"params_step_{i + 1}.csv"))
    write_timing_csv(os.path.join(out_dir, "timing.csv"), result)
    return summary
