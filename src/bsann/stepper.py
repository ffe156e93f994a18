"""Time discretization: uniform grids, memory weights and marching residuals.

The time-fractional derivative of order alpha in (0, 1) is discretized with
the classical L1 formula. With b_m = (m+1)^(1-alpha) - m^(1-alpha),

    D^alpha U(t_{n+1}) ~ (1 / Gamma(2-alpha)) *
        sum_{m=0}^{n} b_m (U_{n+1-m} - U_{n-m}) / dt^alpha

whose truncation error is O(dt^(2-alpha)) for C^2 trajectories. At alpha = 1
the weights collapse to (1, 0, 0, ...) and the residual reduces to backward
Euler, the scheme of every ordinary step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Tuple

import numpy as np


def b_weights(alpha: float, count: int) -> np.ndarray:
    """Memory weights b_m = (m+1)^(1-alpha) - m^(1-alpha), m = 0..count-1."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if alpha == 1.0:
        out = np.zeros(count)
        out[0] = 1.0
        return out
    m = np.arange(count, dtype=float)
    return (m + 1.0) ** (1.0 - alpha) - m ** (1.0 - alpha)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid with the memory weights for its fractional order:
    b = b_weights(alpha, n_steps), one per step, for alpha < 1 and empty at alpha = 1."""

    n_steps: int
    dt: float
    alpha: float
    b: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        b = b_weights(self.alpha, self.n_steps) if self.alpha < 1.0 else np.empty(0)
        object.__setattr__(self, "b", b)

    @property
    def horizon(self) -> float:
        return self.n_steps * self.dt

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)


def make_time_grid(n_steps: int, horizon: float, alpha: float = 1.0) -> TimeGrid:
    """Uniform grid over [0, horizon]; b is empty for alpha = 1."""
    if not horizon > 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    return TimeGrid(n_steps=n_steps, dt=horizon / n_steps, alpha=alpha)


class StepHistory:
    """Per-step solution values on the collocation grid; row 0 is the data.

    Rows live in one array whose capacity doubles when it fills, so a march
    of N steps copies O(N r) values in total and values() is a view.
    """

    def __init__(self, initial_row: np.ndarray):
        row = np.asarray(initial_row, dtype=float)
        if row.ndim != 1 or row.size < 1:
            raise ValueError("initial row must be a non-empty 1-d array")
        self._buf = row[None, :].copy()
        self._count = 1

    @property
    def n_points(self) -> int:
        return self._buf.shape[1]

    @property
    def steps_completed(self) -> int:
        return self._count - 1

    def row(self, k: int) -> np.ndarray:
        return self.values()[k]

    def append(self, row: np.ndarray) -> None:
        row = np.asarray(row, dtype=float)
        if row.shape != self._buf.shape[1:]:
            raise ValueError(
                f"row shape {row.shape} does not match the grid width {self._buf.shape[1:]}"
            )
        if self._count == self._buf.shape[0]:
            grown = np.empty((2 * self._count, self.n_points))
            grown[: self._count] = self._buf
            self._buf = grown
        self._buf[self._count] = row
        self._count += 1

    @staticmethod
    def nbytes(n_steps: int, r: int) -> int:
        """Bytes of the buffer after n_steps appends: its capacity doubles from 1 row."""
        return 8 * (1 << n_steps.bit_length()) * r

    def values(self) -> np.ndarray:
        """Read-only (steps_completed + 1, n_points) view, row k = step k."""
        view = self._buf[: self._count]
        view.flags.writeable = False
        return view


@dataclass(frozen=True)
class SpatialOperator:
    """Right-hand side gamma1(S) U_SS + gamma2(S) U_S + gamma3 U + f(S, t)."""

    gamma1: Callable[[np.ndarray], np.ndarray]
    gamma2: Callable[[np.ndarray], np.ndarray]
    gamma3: float
    forcing: Callable[[np.ndarray, float], np.ndarray]


def spatial_rhs(
    op: SpatialOperator, s: np.ndarray, t: float, value: np.ndarray, d1: np.ndarray, d2: np.ndarray
) -> np.ndarray:
    """Evaluate the spatial operator on given value/derivative vectors."""
    s = np.asarray(s, dtype=float)
    return (
        np.asarray(op.gamma1(s), dtype=float) * d2
        + np.asarray(op.gamma2(s), dtype=float) * d1
        + op.gamma3 * value
        + np.broadcast_to(np.asarray(op.forcing(s, t), dtype=float), s.shape)
    )


def l1_history(
    grid: TimeGrid, history: StepHistory, n: int, columns=slice(None)
) -> Tuple[float, np.ndarray]:
    """Known part of the discrete time derivative for the candidate step n+1.

    Returns (coef, acc) with the derivative of a candidate row U_{n+1} equal
    to coef * (U_{n+1} + acc), where

        acc = -U_n + sum_{m=1}^{n} b_m (U_{n+1-m} - U_{n-m}),
        coef = 1 / (Gamma(2-alpha) dt^alpha),

    restricted to the given history columns. At alpha = 1 the memory sum
    vanishes and coef = 1/dt (backward Euler). n must name a step of the
    grid, 0 <= n < grid.n_steps.
    """
    if n >= grid.n_steps:
        raise ValueError(f"step index {n} is past the grid's last step {grid.n_steps - 1}")
    if n < 0 or history.steps_completed < n:
        raise ValueError(f"history holds steps 0..{history.steps_completed}, need 0..{n}")
    acc = -history.row(n)[columns]
    if grid.alpha == 1.0:
        return 1.0 / grid.dt, acc
    coef = 1.0 / (math.gamma(2.0 - grid.alpha) * grid.dt**grid.alpha)
    if n >= 1:
        rows = history.values()[: n + 1, columns]
        diffs = rows[1:] - rows[:-1]  # diffs[j] = row_{j+1} - row_j
        # sum_{m=1}^{n} b_m diffs[n-m] with the weights reversed onto j = 0..n-1
        acc = acc + grid.b[1 : n + 1][::-1] @ diffs
    return coef, acc


def caputo_residual(
    grid: TimeGrid,
    history: StepHistory,
    new_values: np.ndarray,
    rhs_new: np.ndarray,
    n: int,
) -> np.ndarray:
    """L1 marching residual for the candidate step n+1.

    residual_i = (1/Gamma(2-alpha)) sum_{m=0}^{n} b_m
                 (U_{n+1-m} - U_{n-m})(S_i) / dt^alpha  -  rhs_new_i,
    where the m = 0 difference pairs new_values with history row n.
    Degenerates to backward Euler at alpha = 1.
    """
    new_values = np.asarray(new_values, dtype=float)
    rhs_new = np.asarray(rhs_new, dtype=float)
    if new_values.shape != (history.n_points,) or rhs_new.shape != new_values.shape:
        raise ValueError("new_values and rhs_new must match the history grid width")
    coef, acc = l1_history(grid, history, n)
    return coef * (new_values + acc) - rhs_new
