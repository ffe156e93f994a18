"""Problem definitions: shipped Black-Scholes examples and collocation grids.

Every problem is stated in marching coordinates. Option contracts carry a
terminal payoff, so the solver marches in remaining time tau = T - t and the
payoff is the row-0 data; with U(S, t) = u(S, tau) the Black-Scholes equation
becomes

    du/dtau = (sigma^2 S^2 / 2) u_SS + r S u_S - r u

so gamma1 = sigma^2 S^2 / 2, gamma2 = r S, gamma3 = -r and f = 0. Boundary
functions and the optional exact solution take the marching time as their
time argument. The fractional benchmark marches forward in t directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .stepper import SpatialOperator

TERMINAL_PAYOFF = "terminal_payoff"
INITIAL_DATA = "initial_data"
DATA_KINDS = (TERMINAL_PAYOFF, INITIAL_DATA)
# the built-in problems, by the name that problem.name selects
BUILTIN_NAMES = CALL, PUT, FRACTIONAL = ("european_call", "european_put", "fractional_manufactured")


def pow_or_inf(base: float, exponent: float) -> float:
    """base**exponent of Python floats, with inf where the power overflows
    (Python raises OverflowError there, numpy would return inf)."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


@dataclass(frozen=True)
class ProblemSpec:
    """One marching problem: spatial operator, data row, boundaries, exact."""

    name: str
    alpha: float
    maturity: float
    operator: SpatialOperator
    data_kind: str
    data: Callable[[np.ndarray], np.ndarray]
    left_bc: Callable[[float, float], float]   # (S_boundary, march time) -> value
    right_bc: Callable[[float, float], float]
    exact: Optional[Callable[[np.ndarray, float], np.ndarray]] = None

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not self.maturity > 0.0:
            raise ValueError(f"maturity must be positive, got {self.maturity}")
        if self.data_kind not in DATA_KINDS:
            raise ValueError(f"unknown data_kind {self.data_kind!r}")


@dataclass(frozen=True)
class CollocationSet:
    """Training abscissae in solver coordinates. The residual rows are
    points[:n_pde], with the boundary conditions at points 0 and n_pde - 1;
    any later point is evaluated and reported but not trained on."""

    points: np.ndarray
    n_pde: Optional[int] = None  # None: every point is a residual row

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("need at least two collocation points")
        if np.any(np.diff(pts) <= 0.0):
            raise ValueError("collocation points must be strictly increasing")
        n_pde = pts.size if self.n_pde is None else self.n_pde
        if not 2 <= n_pde <= pts.size:
            raise ValueError(f"n_pde must lie in [2, {pts.size}], got {n_pde}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "n_pde", n_pde)

    @property
    def count(self) -> int:
        return self.points.size


def collocation_points(lo: float, hi: float, count: int) -> CollocationSet:
    """count equidistant points spanning [lo, hi] inclusive."""
    if count < 2:
        raise ValueError(f"count must be >= 2, got {count}")
    if not hi > lo:
        raise ValueError(f"need hi > lo, got [{lo}, {hi}]")
    return CollocationSet(points=np.linspace(lo, hi, count))


def _bs_exact(s, tau: float, r: float, sigma: float, k: float, sign: float):
    """Black-Scholes price sign * (S N(sign d1) - K e^(-r tau) N(sign (d1 - vol))) of a
    call (sign = 1) or put (sign = -1), vol = sigma sqrt(tau); the payoff at tau <= 0,
    the S -> 0 limit at S <= 0. The sign products are exact negations."""
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if tau <= 0.0:
        out = np.maximum(sign * s_arr - sign * k, 0.0)
        return out if np.ndim(s) else float(out[0])
    disc = k * math.exp(-r * tau)
    vol = sigma * math.sqrt(tau)
    out = np.empty_like(s_arr)
    for i, si in enumerate(s_arr):
        if si <= 0.0:
            out[i] = 0.0 if sign > 0 else disc
            continue
        d1 = (math.log(si / k) + (r + 0.5 * sigma * sigma) * tau) / vol
        out[i] = sign * si * normal_cdf(sign * d1) - sign * disc * normal_cdf(sign * (d1 - vol))
    return out if np.ndim(s) else float(out[0])


def _bs_operator(r: float, sigma: float) -> SpatialOperator:
    return SpatialOperator(
        gamma1=lambda s: 0.5 * sigma * sigma * s * s,
        gamma2=lambda s: r * s,
        gamma3=-r,
        forcing=lambda s, t: np.zeros_like(np.asarray(s, dtype=float)),
    )


def european_call(r: float, sigma: float, strike: float, maturity: float) -> ProblemSpec:
    """Vanilla call in tau-marching form; exact price available."""
    _check_option_args(r, sigma, strike, maturity)
    return ProblemSpec(
        name=CALL,
        alpha=1.0,
        maturity=maturity,
        operator=_bs_operator(r, sigma),
        data_kind=TERMINAL_PAYOFF,
        data=lambda s: np.maximum(np.asarray(s, dtype=float) - strike, 0.0),
        left_bc=lambda s, tau: 0.0,
        right_bc=lambda s, tau: s - strike * math.exp(-r * tau),
        exact=lambda s, tau: _bs_exact(s, tau, r, sigma, strike, 1.0),
    )


def european_put(r: float, sigma: float, strike: float, maturity: float) -> ProblemSpec:
    """Vanilla put in tau-marching form; exact price available."""
    _check_option_args(r, sigma, strike, maturity)
    return ProblemSpec(
        name=PUT,
        alpha=1.0,
        maturity=maturity,
        operator=_bs_operator(r, sigma),
        data_kind=TERMINAL_PAYOFF,
        data=lambda s: np.maximum(strike - np.asarray(s, dtype=float), 0.0),
        left_bc=lambda s, tau: strike * math.exp(-r * tau),
        right_bc=lambda s, tau: 0.0,
        exact=lambda s, tau: _bs_exact(s, tau, r, sigma, strike, -1.0),
    )


def _check_option_args(r: float, sigma: float, strike: float, maturity: float) -> None:
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if not strike > 0.0:
        raise ValueError(f"strike must be positive, got {strike}")
    if not maturity > 0.0:
        raise ValueError(f"maturity must be positive, got {maturity}")
    if r < 0.0:
        raise ValueError(f"rate must be non-negative, got {r}")


def fractional_manufactured(
    alpha: float, r: float = 0.05, sigma: float = 0.25, maturity: float = 1.0
) -> ProblemSpec:
    """Fractional benchmark on [0, 1] with exact solution (t+1)^2 S^2 (1-S).

    The forcing is manufactured so the exact solution satisfies
    D^alpha U = a U_SS + b U_S - c U + f with a = sigma^2/2, b = r - a, c = r.
    Marches forward in t; both boundary values are zero.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"fractional benchmark needs alpha in (0, 1), got {alpha}")
    a = 0.5 * sigma * sigma
    b = r - a
    c = r
    g3ma = math.gamma(3.0 - alpha)
    g2ma = math.gamma(2.0 - alpha)

    def forcing(s, t):
        s = np.asarray(s, dtype=float)
        # Caputo derivative of (t+1)^2 = t^2 + 2t + 1
        dterm = 2.0 * pow_or_inf(t, 2.0 - alpha) / g3ma + 2.0 * pow_or_inf(t, 1.0 - alpha) / g2ma
        shape = s * s * (1.0 - s)
        spatial = a * (2.0 - 6.0 * s) + b * (2.0 * s - 3.0 * s * s) - c * shape
        return dterm * shape - pow_or_inf(t + 1.0, 2) * spatial

    def exact(s, t):
        s = np.asarray(s, dtype=float)
        return pow_or_inf(t + 1.0, 2) * s * s * (1.0 - s)

    return ProblemSpec(
        name=FRACTIONAL,
        alpha=alpha,
        maturity=maturity,
        operator=SpatialOperator(
            gamma1=lambda s: np.full_like(np.asarray(s, dtype=float), a),
            gamma2=lambda s: np.full_like(np.asarray(s, dtype=float), b),
            gamma3=-c,
            forcing=forcing,
        ),
        data_kind=INITIAL_DATA,
        data=lambda s: np.asarray(s, dtype=float) ** 2 * (1.0 - np.asarray(s, dtype=float)),
        left_bc=lambda s, t: 0.0,
        right_bc=lambda s, t: 0.0,
        exact=exact,
    )
