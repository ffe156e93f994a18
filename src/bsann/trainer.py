"""Per-step cost assembly and full-batch training of the collocation network.

For one marching step the cost is

    cost = (1/(2r)) * sum_i residual_i^2
           + (N(left) - M_a(t))^2 + (N(right) - M_b(t))^2

where the residual couples the candidate network to the stored history
through the marching scheme (L1 memory sum for alpha < 1, theta scheme for
alpha = 1, implicit by default). All residual and cost gradients are exact:
the network's input derivatives and parameter gradients are closed forms, so
no finite differences of the candidate network appear anywhere.

Training is deterministic full-batch gradient descent in one of three
flavours (adam, sgd, rmsprop) on the flat parameter vector. A step whose
cost leaves [0, 1e12] or stops being finite raises TrainingDiverged with the
epoch index and the breakdown recorded so far.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import ClassVar, Dict, Iterator, Optional, Sequence

import numpy as np

from .mapping import ARCTAN, DomainMap, from_x, jacobians
from .network import (
    IDENTITY,
    NetworkParams,
    _check_activation,
    _raw_eval,
    _raw_eval_grads,
    _split_flat,
    grad_blocks,
    init_params,
)
from .problems import CollocationSet, ProblemSpec
from .stepper import StepHistory, TimeGrid, l1_history

ADAM = "adam"
SGD = "sgd"
RMSPROP = "rmsprop"
OPTIMIZERS = (ADAM, SGD, RMSPROP)

DIVERGENCE_LIMIT = 1e12


class TrainingDiverged(RuntimeError):
    """Raised when the training cost stops being finite or passes the limit."""

    def __init__(self, epoch: int, cost: float, step_index: Optional[int] = None, breakdown=None):
        self.epoch = epoch
        self.cost = cost
        self.step_index = step_index
        self.breakdown = breakdown
        self.partial = None  # filled by the solver with results up to the failed step
        where = f" at marching step {step_index}" if step_index is not None else ""
        super().__init__(f"training diverged{where} at epoch {epoch} (cost {cost!r})")


@dataclass(frozen=True)
class TrainConfig:
    # Adam's moment decays (Kingma & Ba 2015) and the denominator guard that
    # Adam and RMSprop share are constants, not settings
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    epsilon: ClassVar[float] = 1e-8

    optimizer: str = ADAM
    eta: float = 0.03
    epochs_first: int = 5000
    epochs_rest: int = 1200
    seed: int = 0

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if not self.eta > 0.0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.epochs_first < 1 or self.epochs_rest < 1:
            raise ValueError("epoch counts must be >= 1")


@dataclass
class OptimizerState:
    """First and second moment accumulators plus the update counter."""

    m: np.ndarray
    v: np.ndarray
    iteration: int = 0

    @classmethod
    def zeros(cls, size: int) -> "OptimizerState":
        return cls(m=np.zeros(size), v=np.zeros(size), iteration=0)


@dataclass(frozen=True)
class CostBreakdown:
    pde_term: float
    left_bc_term: float
    right_bc_term: float
    total: float


@dataclass(frozen=True)
class StepContext:
    """Everything constant over one step's training loop."""

    points: np.ndarray        # solver-coordinate abscissae, all r of them
    n_pde: int                # the residual sum runs over points[:n_pde]
    a_value: np.ndarray
    a_d1: np.ndarray
    a_d2: np.ndarray
    offset: np.ndarray
    r_norm: int
    left_index: int
    right_index: int
    left_target: float
    right_target: float
    output_activation: str


def build_step_context(
    problem: ProblemSpec,
    dmap: DomainMap,
    grid: TimeGrid,
    colloc: CollocationSet,
    history: StepHistory,
    step_index: int,
    theta: float = 1.0,
    rhs_old: Optional[np.ndarray] = None,
    output_activation: str = IDENTITY,
) -> StepContext:
    """Assemble the per-step linear residual coefficients and BC targets."""
    _check_activation(output_activation)
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    if grid.alpha < 1.0 and theta != 1.0:
        raise ValueError("the fractional marching scheme is implicit-only (theta = 1)")
    pts = colloc.points
    r = colloc.count
    if history.n_points != r:
        raise ValueError(f"history width {history.n_points} does not match {r} points")
    t_next = (step_index + 1) * grid.dt

    if dmap.kind == ARCTAN:
        # the last abscissa is the x=1 reporting surrogate: it stays out of
        # the residual sum, and the far-field condition is imposed at the
        # outermost finite grid point instead
        if r < 3:
            raise ValueError("arctan grids need at least 3 points")
        pde_index = np.arange(r - 1)
        right_index = r - 2
    else:
        pde_index = np.arange(r)
        right_index = r - 1

    x_pde = pts[pde_index]
    s_pts = from_x(dmap, pts)
    s_pde = s_pts[pde_index]
    upsilon, map_theta = jacobians(dmap, x_pde)

    g1 = np.asarray(problem.operator.gamma1(s_pde), dtype=float)
    g2 = np.asarray(problem.operator.gamma2(s_pde), dtype=float)
    g3 = problem.operator.gamma3
    f_vals = np.broadcast_to(
        np.asarray(problem.operator.forcing(s_pde, t_next), dtype=float), s_pde.shape
    )

    # theta weights the new step's spatial operator; the old step's part
    # enters through rhs_old
    c_t, acc = l1_history(grid, history, step_index, pde_index)
    offset = c_t * acc - theta * f_vals
    if theta < 1.0:
        if rhs_old is None:
            raise ValueError("theta < 1 requires the previous step's spatial rhs")
        rhs_old = np.asarray(rhs_old, dtype=float)
        if rhs_old.shape != (r,):
            raise ValueError("rhs_old must cover the full collocation grid")
        offset = offset - (1.0 - theta) * rhs_old[pde_index]

    a_value = np.full_like(x_pde, c_t) - theta * g3
    a_d1 = -theta * (g1 * map_theta + g2) / upsilon
    a_d2 = -theta * g1 / (upsilon * upsilon)

    return StepContext(
        points=pts,
        n_pde=pde_index.size,
        a_value=a_value,
        a_d1=a_d1,
        a_d2=a_d2,
        offset=offset,
        r_norm=r,
        left_index=0,
        right_index=right_index,
        left_target=float(problem.left_bc(float(s_pts[0]), t_next)),
        right_target=float(problem.right_bc(float(s_pts[right_index]), t_next)),
        output_activation=output_activation,
    )


@dataclass(frozen=True)
class _Workspace:
    """Buffers that every epoch of one step overwrites in place."""

    blocks: np.ndarray  # (3, r, 3n+1) network gradient blocks, see grad_blocks
    coef: np.ndarray    # (3, n_pde, 3n+1) a_value, a_d1, a_d2 repeated along each row
    jac: np.ndarray     # (n_pde, 3n+1) residual Jacobian
    term: np.ndarray    # (n_pde, 3n+1) one term of jac before it is added


def _workspace(ctx: StepContext, n: int) -> _Workspace:
    # full-shape coefficients make the row scaling a same-shape product,
    # which numpy runs as one flat loop rather than one loop per row
    shape = (ctx.n_pde, 3 * n + 1)
    coef = np.repeat(np.stack([ctx.a_value, ctx.a_d1, ctx.a_d2])[:, :, None], shape[1], axis=2)
    return _Workspace(grad_blocks(ctx.points.size, n), coef, np.empty(shape), np.empty(shape))


def _context_cost_grad(ctx: StepContext, flat: np.ndarray, n: int, ws: Optional[_Workspace]):
    """Cost breakdown and its flat gradient; with ws None, the cost alone and grad None."""
    w, b, v, beta = _split_flat(flat, n)
    if ws is None:
        val, d1, d2 = _raw_eval(w, b, v, beta, ctx.points, ctx.output_activation)
    else:
        val, d1, d2, g_val, g_d1, g_d2 = _raw_eval_grads(
            w, b, v, beta, ctx.points, ws.blocks, ctx.output_activation
        )
    m = ctx.n_pde
    resid = ctx.a_value * val[:m] + ctx.a_d1 * d1[:m] + ctx.a_d2 * d2[:m] + ctx.offset
    left_miss = float(val[ctx.left_index] - ctx.left_target)
    right_miss = float(val[ctx.right_index] - ctx.right_target)
    grad = None
    if ws is not None:
        # jac = (a_value*g_val + a_d1*g_d1) + a_d2*g_d2 over the residual rows
        jac, term = ws.jac, ws.term
        np.multiply(ws.coef[0], g_val[:m], out=jac)
        np.multiply(ws.coef[1], g_d1[:m], out=term)
        jac += term
        np.multiply(ws.coef[2], g_d2[:m], out=term)
        jac += term
        grad = (
            (resid @ jac) / ctx.r_norm
            + 2.0 * left_miss * g_val[ctx.left_index]
            + 2.0 * right_miss * g_val[ctx.right_index]
        )
    pde = float(resid @ resid) / (2.0 * ctx.r_norm)
    cost = CostBreakdown(
        pde_term=pde,
        left_bc_term=left_miss**2,
        right_bc_term=right_miss**2,
        total=pde + left_miss**2 + right_miss**2,
    )
    return cost, grad


def step_cost(
    params: NetworkParams,
    problem: ProblemSpec,
    dmap: DomainMap,
    grid: TimeGrid,
    colloc: CollocationSet,
    history: StepHistory,
    step_index: int,
    theta: float = 1.0,
    rhs_old: Optional[np.ndarray] = None,
    output_activation: str = IDENTITY,
) -> CostBreakdown:
    """Cost of a candidate network for marching step step_index + 1."""
    ctx = build_step_context(
        problem, dmap, grid, colloc, history, step_index, theta, rhs_old, output_activation
    )
    cost, _ = _context_cost_grad(ctx, params.to_flat(), params.n_hidden, None)
    return cost


def cost_gradient(
    params: NetworkParams,
    problem: ProblemSpec,
    dmap: DomainMap,
    grid: TimeGrid,
    colloc: CollocationSet,
    history: StepHistory,
    step_index: int,
    theta: float = 1.0,
    rhs_old: Optional[np.ndarray] = None,
    output_activation: str = IDENTITY,
) -> NetworkParams:
    """Exact gradient of step_cost with respect to every parameter, in the flat layout."""
    ctx = build_step_context(
        problem, dmap, grid, colloc, history, step_index, theta, rhs_old, output_activation
    )
    n = params.n_hidden
    _, grad = _context_cost_grad(ctx, params.to_flat(), n, _workspace(ctx, n))
    return NetworkParams.from_flat(grad, n)


def adam_step(state: OptimizerState, params: np.ndarray, grad: np.ndarray, cfg: TrainConfig):
    """One Adam update on the flat vector; epsilon sits outside the square root."""
    if params.shape != grad.shape or state.m.shape != params.shape:
        raise ValueError("parameter, gradient and state shapes must match")
    m = (1.0 - cfg.beta1) * grad + cfg.beta1 * state.m
    v = (1.0 - cfg.beta2) * (grad * grad) + cfg.beta2 * state.v
    i = state.iteration
    mhat = m / (1.0 - cfg.beta1 ** (i + 1))
    vhat = v / (1.0 - cfg.beta2 ** (i + 1))
    new_params = params - cfg.eta * mhat / (np.sqrt(vhat) + cfg.epsilon)
    return OptimizerState(m=m, v=v, iteration=i + 1), new_params


def sgd_step(state: OptimizerState, params: np.ndarray, grad: np.ndarray, cfg: TrainConfig):
    """Plain full-batch gradient descent."""
    if params.shape != grad.shape:
        raise ValueError("parameter and gradient shapes must match")
    return (
        OptimizerState(m=state.m, v=state.v, iteration=state.iteration + 1),
        params - cfg.eta * grad,
    )


def rmsprop_step(state: OptimizerState, params: np.ndarray, grad: np.ndarray, cfg: TrainConfig):
    """RMSprop with decay 0.9 on the squared-gradient average."""
    if params.shape != grad.shape or state.v.shape != params.shape:
        raise ValueError("parameter, gradient and state shapes must match")
    v = 0.9 * state.v + 0.1 * (grad * grad)
    new_params = params - cfg.eta * grad / (np.sqrt(v) + cfg.epsilon)
    return OptimizerState(m=state.m, v=v, iteration=state.iteration + 1), new_params


_STEP_FNS = {ADAM: adam_step, SGD: sgd_step, RMSPROP: rmsprop_step}


@dataclass(frozen=True)
class StepTrainResult:
    """Trained parameters plus the recorded cost trajectory for one step."""

    params: NetworkParams
    breakdown: np.ndarray  # (epochs+1, 4): pde, left_bc, right_bc, total

    @property
    def trace(self) -> np.ndarray:
        """Total cost per epoch; entry 0 is the cost at the initial parameters."""
        return self.breakdown[:, 3]


def train_step_network(
    initial: NetworkParams,
    problem: ProblemSpec,
    dmap: DomainMap,
    grid: TimeGrid,
    colloc: CollocationSet,
    history: StepHistory,
    step_index: int,
    cfg: TrainConfig,
    theta: float = 1.0,
    rhs_old: Optional[np.ndarray] = None,
    output_activation: str = IDENTITY,
) -> StepTrainResult:
    """Train one marching step to convergence of its epoch budget.

    The budget is cfg.epochs_first for the first step and cfg.epochs_rest
    afterwards (warm starts make the later steps cheap). The returned
    breakdown has epochs+1 rows; row e holds the cost after e updates.
    """
    ctx = build_step_context(
        problem, dmap, grid, colloc, history, step_index, theta, rhs_old, output_activation
    )
    n = initial.n_hidden
    epochs = cfg.epochs_first if step_index == 0 else cfg.epochs_rest
    step_fn = _STEP_FNS[cfg.optimizer]
    flat = initial.to_flat()
    state = OptimizerState.zeros(flat.size)
    ws = _workspace(ctx, n)
    breakdown = np.empty((epochs + 1, 4))
    for e in range(epochs + 1):
        # the last pass only records the cost, so it skips the Jacobian
        cost, grad = _context_cost_grad(ctx, flat, n, ws if e < epochs else None)
        breakdown[e] = (cost.pde_term, cost.left_bc_term, cost.right_bc_term, cost.total)
        if not np.isfinite(cost.total) or cost.total > DIVERGENCE_LIMIT:
            raise TrainingDiverged(epoch=e, cost=cost.total, breakdown=breakdown[: e + 1].copy())
        if e < epochs:
            state, flat = step_fn(state, flat, grad, cfg)
    return StepTrainResult(params=NetworkParams.from_flat(flat, n), breakdown=breakdown)


@dataclass(frozen=True)
class ProbeRun:
    """One first-step training run of a shared-start probe."""

    breakdown: np.ndarray           # (epochs recorded + 1, 4)
    diverged_epoch: Optional[int]   # None when the run completed its budget
    seconds: float

    @property
    def trace(self) -> np.ndarray:
        return self.breakdown[:, 3]

    @property
    def seconds_per_epoch(self) -> float:
        return self.seconds / max(1, self.breakdown.shape[0] - 1)


def probe_first_step(
    problem: ProblemSpec,
    dmap: DomainMap,
    grid: TimeGrid,
    colloc: CollocationSet,
    n_hidden: int,
    cfg: TrainConfig,
    variants: Sequence[Dict[str, object]],
    init_scale: float = 0.01,
    theta: float = 1.0,
    output_activation: str = IDENTITY,
) -> Iterator[ProbeRun]:
    """Train the first marching step once per variant, all from one shared start.

    Each variant names the TrainConfig fields that differ from cfg. A
    diverging run is recorded with its breakdown up to the failing epoch;
    it is never raised. Runs are yielded one at a time so that a caller
    which keeps only a summary frees each breakdown before the next run.
    The epoch loop keeps its Jacobians in one workspace per step, but its
    (r, n) temporaries are still fresh each epoch, and holding every
    breakdown shifts their heap addresses: it made `bsann lr-search` on
    bench/workloads/lr_probe.cfg about 10% slower (2.1-2.4 s against
    1.9-2.3 s) on a 2-core x86 host.
    """
    history = StepHistory(problem.data(from_x(dmap, colloc.points)))
    initial = init_params(n_hidden, cfg.seed, init_scale)
    for variant in variants:
        run_cfg = replace(cfg, **variant)
        t0 = time.perf_counter()
        diverged_epoch = None
        try:
            breakdown = train_step_network(
                initial, problem, dmap, grid, colloc, history, 0, run_cfg,
                theta, None, output_activation,
            ).breakdown
        except TrainingDiverged as exc:
            breakdown, diverged_epoch = exc.breakdown, exc.epoch
        yield ProbeRun(breakdown, diverged_epoch, time.perf_counter() - t0)


@dataclass(frozen=True)
class LrOutcome:
    eta: float
    final_cost: float  # inf when the probe diverged
    diverged_epoch: Optional[int] = None


@dataclass(frozen=True)
class LrSearchResult:
    best_eta: float
    outcomes: tuple


class LrSearchFailed(RuntimeError):
    """Every candidate diverged during its probe run."""

    def __init__(self, outcomes):
        self.outcomes = tuple(outcomes)
        lines = ", ".join(
            f"eta={o.eta:g} diverged at epoch {o.diverged_epoch}" for o in self.outcomes
        )
        super().__init__(f"all learning-rate candidates diverged: {lines}")


def lr_grid_search(
    problem: ProblemSpec,
    dmap: DomainMap,
    grid: TimeGrid,
    colloc: CollocationSet,
    n_hidden: int,
    cfg: TrainConfig,
    candidates: Sequence[float],
    probe_epochs: int,
    init_scale: float = 0.01,
    theta: float = 1.0,
    output_activation: str = IDENTITY,
) -> LrSearchResult:
    """Deterministic grid replacement for a learning-rate search.

    Trains the first marching step for probe_epochs under each candidate eta
    from one shared initialization and keeps the lowest final cost, breaking
    ties toward the smaller eta. Raises LrSearchFailed when every candidate
    diverges.
    """
    if len(candidates) == 0:
        raise ValueError("need at least one learning-rate candidate")
    if probe_epochs < 1:
        raise ValueError(f"probe_epochs must be >= 1, got {probe_epochs}")
    runs = probe_first_step(
        problem, dmap, grid, colloc, n_hidden, cfg,
        [dict(eta=float(eta), epochs_first=int(probe_epochs)) for eta in candidates],
        init_scale, theta, output_activation,
    )
    outcomes = [
        LrOutcome(
            eta=float(eta),
            final_cost=float("inf") if run.diverged_epoch is not None else float(run.trace[-1]),
            diverged_epoch=run.diverged_epoch,
        )
        for eta, run in zip(candidates, runs)
    ]
    finite = [o for o in outcomes if np.isfinite(o.final_cost)]
    if not finite:
        raise LrSearchFailed(outcomes)
    best = min(finite, key=lambda o: (o.final_cost, o.eta))
    return LrSearchResult(best_eta=best.eta, outcomes=tuple(outcomes))
