"""Marching orchestration: per-step training, metrics, CSV outputs.

One network is trained per time step. Step k starts from step k-1's
parameters (warm start), so only the first step pays the full epoch budget.
Option problems march in remaining time tau = T - t with the payoff as row 0;
the fractional benchmark marches forward in t. The stored surface row k is
exactly the trained network evaluated on the collocation grid after step k.

Under the arctan map the grid's x = 1 entry is replaced by the map's
right_eval_point. That surrogate column is evaluated and reported but kept
out of the residual sum and, by default, out of error metrics; the far-field
boundary condition is imposed at the outermost finite grid point.

A diverged march raises TrainingDiverged with the completed rows attached as
a partial SolveResult, so these two records describe every solve. An alpha
sweep is one solve per alpha (see cli's sweep-alpha). First-step probes
(compare, lr-search) live in trainer.probe_first_step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .csvio import read_csv, read_numeric_csv, write_csv  # noqa: F401  (readers re-exported)
from .mapping import ARCTAN, DomainMap, from_x, jacobians, transform_derivatives
from .network import IDENTITY, NetworkParams, eval_batch, init_params, save_params_csv
from .problems import TERMINAL_PAYOFF, CollocationSet, ProblemSpec, collocation_points
from .stepper import StepHistory, TimeGrid, spatial_rhs
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
    def surrogate_index(self) -> Optional[int]:
        """Column of the arctan grid's x = 1 surrogate; None without one."""
        return self.colloc.n_pde if self.colloc.n_pde < self.colloc.count else None

    @property
    def natural_times(self) -> np.ndarray:
        """Calendar times per surface row (maturity - tau for option problems)."""
        t = self.grid.times()
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


# steps that solve() runs at theta = 1 before switching to its theta
START_STEPS = 2


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

    Steps 1 and 2 are backward Euler whatever theta is (Rannacher's start:
    two implicit steps damp the payoff's kink before a theta < 1 step sees
    it). Every later step uses theta, and takes the old step's spatial rhs
    from the previous step's network and its exact input derivatives, so no
    derivative of the data row is ever needed.

    Raises TrainingDiverged with the failing step index and the partial
    result (completed rows) attached when a step's cost blows up.
    """
    if grid.alpha != problem.alpha:
        raise ValueError(
            f"grid alpha {grid.alpha} does not match problem alpha {problem.alpha}"
        )
    if not 0.0 <= theta <= 1.0 or (theta < 1.0 and grid.alpha < 1.0):
        raise ValueError(f"theta must lie in [0, 1], and be 1 when alpha < 1; got {theta}")
    colloc = build_collocation(dmap, n_points)
    s_vals = from_x(dmap, colloc.points)
    history = StepHistory(problem.data(s_vals))
    params = init_params(n_hidden, cfg.seed, init_scale)
    # the map's chain-rule factors, for the old step's rhs when theta < 1
    factors = jacobians(dmap, colloc.points) if theta < 1.0 else None
    rhs_old = None

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
                params, problem, dmap, grid, colloc, history, k - 1, cfg,
                theta if k > START_STEPS else 1.0, rhs_old, output_activation,
            )
        except TrainingDiverged as exc:
            exc.partial = result()
            raise
        walls.append(time.perf_counter() - t0)
        params = res.params
        val, d1, d2 = eval_batch(params, colloc.points, output_activation)
        history.append(val)
        snapshots.append(params)
        breakdowns.append(res.breakdown)
        if theta < 1.0:
            d1, d2 = transform_derivatives(d1, d2, *factors)
            rhs_old = spatial_rhs(problem.operator, s_vals, k * grid.dt, val, d1, d2)
    return result()


@dataclass(frozen=True)
class ErrorSummary:
    abs_errors: np.ndarray      # per collocation point at the reporting time
    log10_abs: np.ndarray
    used: np.ndarray            # boolean mask of points entering the maxima
    max_abs: float
    mean_abs: float


def error_metrics(result: SolveResult, exclude_surrogate: bool = True) -> ErrorSummary:
    """Pointwise errors against the problem's exact solution at the final time."""
    if result.problem.exact is None:
        raise ValueError(f"problem {result.problem.name!r} has no exact solution")
    if not result.complete:
        raise ValueError("a partial march has no row at the reporting time")
    t_final = result.grid.horizon
    exact = np.asarray(result.problem.exact(result.s_points, t_final), dtype=float)
    abs_err = np.abs(exact - result.final_row())
    used = np.ones(abs_err.size, dtype=bool)
    if exclude_surrogate and result.surrogate_index is not None:
        used[result.surrogate_index] = False
    log10 = np.log10(np.maximum(abs_err, 1e-300))
    return ErrorSummary(
        abs_errors=abs_err,
        log10_abs=log10,
        used=used,
        max_abs=float(abs_err[used].max()),
        mean_abs=float(abs_err[used].mean()),
    )


def write_surface_csv(path, result: SolveResult) -> None:
    """Rows (t, S, U) over every stored step; t is calendar time."""
    s_points = result.s_points.tolist()
    write_csv(path, ("t", "S", "U"), (
        (t, s, u)
        for t, row in zip(result.natural_times.tolist(), result.surface)
        for s, u in zip(s_points, row.tolist())
    ))


def write_errors_csv(path, result: SolveResult) -> None:
    """Rows (S, abs_err, log10_abs_err) at the reporting time."""
    summary = error_metrics(result, exclude_surrogate=False)
    columns = (result.s_points, summary.abs_errors, summary.log10_abs)
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


def write_solution_outputs(out_dir, result: SolveResult) -> None:
    """surface.csv, errors.csv (when exact), cost_step_k.csv, params_step_k.csv, timing.csv."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    write_surface_csv(os.path.join(out_dir, "surface.csv"), result)
    if result.problem.exact is not None and result.complete:
        write_errors_csv(os.path.join(out_dir, "errors.csv"), result)
    for i, breakdown in enumerate(result.breakdowns):
        write_cost_csv(os.path.join(out_dir, f"cost_step_{i + 1}.csv"), breakdown)
    for i, params in enumerate(result.params_per_step):
        save_params_csv(params, os.path.join(out_dir, f"params_step_{i + 1}.csv"))
    write_timing_csv(os.path.join(out_dir, "timing.csv"), result)
