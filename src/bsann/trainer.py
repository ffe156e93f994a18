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
step and epoch indices and the breakdown recorded so far.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import ClassVar, Dict, Optional, Sequence, Tuple

import numpy as np

from .mapping import DomainMap, from_x, jacobians
from .network import (
    IDENTITY,
    NetworkParams,
    PassBuffers,
    _check_activation,
    _forward,
    _group_grads,
    _split_flat,
    init_params,
)
from .problems import CollocationSet, ProblemSpec, pow_or_inf
from .stepper import StepHistory, TimeGrid, l1_history

ADAM = "adam"
SGD = "sgd"
RMSPROP = "rmsprop"
OPTIMIZERS = (ADAM, SGD, RMSPROP)

DIVERGENCE_LIMIT = 1e12


class TrainingDiverged(RuntimeError):
    """Raised when the training cost stops being finite or passes the limit."""

    def __init__(self, epoch: int, cost: float, step_index: int, breakdown: np.ndarray):
        self.epoch = epoch
        self.cost = cost
        self.step_index = step_index
        self.breakdown = breakdown
        self.partial = None  # filled by solve with the results up to the failed step
        super().__init__(
            f"training diverged at marching step {step_index} at epoch {epoch} (cost {cost!r})"
        )


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
    """First and second moment accumulators plus the update counter.

    The update steps overwrite m and v in place. Their two scratch vectors,
    the rows of scratch, are allocated with the state unless given.
    """

    m: np.ndarray
    v: np.ndarray
    iteration: int = 0
    scratch: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.scratch is None:
            self.scratch = np.empty((2, self.m.size))

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
    """Everything constant over one step's training loop. The boundary conditions
    sit at points 0 and n_pde - 1; the residual sum is divided by 2 * points.size."""

    points: np.ndarray        # solver-coordinate abscissae, all r of them
    n_pde: int                # the residual sum runs over points[:n_pde]
    a_value: np.ndarray
    a_d1: np.ndarray
    a_d2: np.ndarray
    offset: np.ndarray
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

    # the residual rows and the boundary points are the collocation set's
    # layout: the arctan surrogate past n_pde is never trained on
    m = colloc.n_pde
    x_pde = pts[:m]
    s_pts = from_x(dmap, pts)
    s_pde = s_pts[:m]
    upsilon, map_theta = jacobians(dmap, x_pde)

    g1 = np.asarray(problem.operator.gamma1(s_pde), dtype=float)
    g2 = np.asarray(problem.operator.gamma2(s_pde), dtype=float)
    g3 = problem.operator.gamma3
    f_vals = np.broadcast_to(
        np.asarray(problem.operator.forcing(s_pde, t_next), dtype=float), s_pde.shape
    )

    # theta weights the new step's spatial operator; the old step's part
    # enters through rhs_old
    c_t, acc = l1_history(grid, history, step_index, slice(0, m))
    offset = c_t * acc - theta * f_vals
    if theta < 1.0:
        if rhs_old is None:
            raise ValueError("theta < 1 requires the previous step's spatial rhs")
        rhs_old = np.asarray(rhs_old, dtype=float)
        if rhs_old.shape != (r,):
            raise ValueError("rhs_old must cover the full collocation grid")
        offset = offset - (1.0 - theta) * rhs_old[:m]

    a_value = np.full_like(x_pde, c_t) - theta * g3
    a_d1 = -theta * (g1 * map_theta + g2) / upsilon
    a_d2 = -theta * g1 / (upsilon * upsilon)

    return StepContext(
        points=pts,
        n_pde=m,
        a_value=a_value,
        a_d1=a_d1,
        a_d2=a_d2,
        offset=offset,
        left_target=float(problem.left_bc(float(s_pts[0]), t_next)),
        right_target=float(problem.right_bc(float(s_pts[m - 1]), t_next)),
        output_activation=output_activation,
    )


@dataclass(frozen=True)
class _Workspace:
    """Buffers that every epoch of one step overwrites in place.

    The Jacobian of the residual rows is built one parameter group at a time
    (hidden weights, hidden biases, output weights, output bias): the group's
    (value, d1, d2) gradients from the network pass are scaled by full-shape
    copies of a_value, a_d1 and a_d2 into two scratch arrays, and the last add
    writes the group's columns of jac. The group's value gradients at the two
    boundary points go into its slices of rows. With the identity head the
    output-bias column of jac and of rows is constant; it is written once per
    step, when the workspace is built, and no epoch writes it again.

    A pass that only needs the cost (step_cost, the last epoch of a step)
    runs on the same workspace and leaves jac, rows and grad as they were.
    """

    hidden: PassBuffers           # network pass at ctx.points
    targets: tuple                # per group: jac columns, 3 coefficients, 2 scratch, 2 rows slices
    jac: np.ndarray               # (n_pde, 3n+1) residual Jacobian
    resid: np.ndarray             # (n_pde,) residual
    rtmp: np.ndarray              # (n_pde,) one residual term before it is added
    rows: np.ndarray              # (2, 3n+1) value gradients at the left and right boundary
    scaled: np.ndarray            # (3n+1,) one boundary row times its factor
    grad: np.ndarray              # (3n+1,) flat cost gradient
    epoch_groups: int             # groups rewritten each epoch: 3, or 4 with a sigmoid head


def workspace_nbytes(r: int, n: int) -> int:
    """Bytes of one step's training workspace and optimizer state for r points
    and n hidden units; an upper bound, exact when every point is a residual row."""
    size = 3 * n + 1
    own = 5 * r * n + r * size + 2 * r + 8 * size  # the last term counts m, v and scratch
    return PassBuffers.nbytes(r, n) + 8 * own


def _workspace(ctx: StepContext, n: int) -> _Workspace:
    """Workspace for ctx's step and n hidden units."""
    m, size = ctx.n_pde, 3 * n + 1
    coef = np.repeat(np.stack([ctx.a_value, ctx.a_d1, ctx.a_d2])[:, :, None], n, axis=2)
    scratch = np.empty((2, m, n))
    jac, rows = np.empty((m, size)), np.empty((2, size))
    targets = []
    for group in range(4):
        k = 1 if group == 3 else n
        cols = slice(group * n, group * n + k)
        targets.append(
            (jac[:, cols], *coef[:, :, :k], *scratch[:, :, :k], rows[0, cols], rows[1, cols])
        )
    ws = _Workspace(
        PassBuffers(ctx.points, n), tuple(targets),
        jac, np.empty(m), np.empty(m), rows, np.empty(size), np.empty(size),
        3 if ctx.output_activation == IDENTITY else 4,
    )
    if ws.epoch_groups == 3:
        _group_columns(ctx, ws, 3)
    return ws


def _group_columns(ctx: StepContext, ws: _Workspace, group: int) -> None:
    """Write one parameter group's columns of jac and of the boundary rows.

    jac = (a_value*g_value + a_d1*g_d1) + a_d2*g_d2 over the residual rows."""
    g_val, g_d1, g_d2 = _group_grads(ws.hidden, group, ctx.output_activation)
    jac, c_val, c_d1, c_d2, t1, t2, left, right = ws.targets[group]
    m = ctx.n_pde
    np.multiply(c_val, g_val[:m], out=t1)
    np.multiply(c_d1, g_d1[:m], out=t2)
    t1 += t2
    np.multiply(c_d2, g_d2[:m], out=t2)
    np.add(t1, t2, out=jac)
    np.copyto(left, g_val[0])
    np.copyto(right, g_val[m - 1])


def _context_cost_grad(
    ctx: StepContext, flat: np.ndarray, n: int, ws: _Workspace, row: np.ndarray, grad: bool = True
) -> Optional[np.ndarray]:
    """Write the cost terms (pde, left_bc, right_bc, total) into row; with grad,
    return the flat cost gradient, which is ws.grad and the next call overwrites."""
    w, b, v, beta = _split_flat(flat, n)
    val, d1, d2 = _forward(w, b, v, beta, ws.hidden, ctx.output_activation)
    m = ctx.n_pde
    # resid = ((a_value*val + a_d1*d1) + a_d2*d2) + offset
    resid, term = ws.resid, ws.rtmp
    np.multiply(ctx.a_value, val[:m], out=resid)
    np.multiply(ctx.a_d1, d1[:m], out=term)
    resid += term
    np.multiply(ctx.a_d2, d2[:m], out=term)
    resid += term
    resid += ctx.offset
    left_miss = float(val[0] - ctx.left_target)
    right_miss = float(val[m - 1] - ctx.right_target)
    pde = float(resid @ resid) / (2.0 * ctx.points.size)
    left_sq, right_sq = pow_or_inf(left_miss, 2), pow_or_inf(right_miss, 2)
    row[0] = pde
    row[1] = left_sq
    row[2] = right_sq
    row[3] = pde + left_sq + right_sq
    if not grad:
        return None
    for group in range(ws.epoch_groups):
        _group_columns(ctx, ws, group)
    # (resid @ jac) / r + 2*left_miss*g_value[left] + 2*right_miss*g_value[right]
    out, scaled = ws.grad, ws.scaled
    np.matmul(resid, ws.jac, out=out)
    out /= ctx.points.size
    np.multiply(ws.rows[0], 2.0 * left_miss, out=scaled)
    out += scaled
    np.multiply(ws.rows[1], 2.0 * right_miss, out=scaled)
    out += scaled
    return out


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
    n = params.n_hidden
    row = np.empty(4)
    _context_cost_grad(ctx, params.to_flat(), n, _workspace(ctx, n), row, grad=False)
    return CostBreakdown(*row.tolist())


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
    grad = _context_cost_grad(ctx, params.to_flat(), n, _workspace(ctx, n), np.empty(4))
    return NetworkParams.from_flat(grad, n)


# The update steps work in place: they overwrite state and params and return
# both. Each keeps the operands of its textbook expression; a product or a sum
# whose two operands trade places rounds identically.


def adam_step(state: OptimizerState, params: np.ndarray, grad: np.ndarray, cfg: TrainConfig):
    """One Adam update on the flat vector; epsilon sits outside the square root.

    m = (1-b1)*g + b1*m, v = (1-b2)*(g*g) + b2*v and
    params -= eta*mhat / (sqrt(vhat) + eps), with the bias-corrected moments
    mhat and vhat.
    """
    if params.shape != grad.shape or state.m.shape != params.shape or state.v.shape != params.shape:
        raise ValueError("parameter, gradient and state shapes must match")
    m, v = state.m, state.v
    t, u = state.scratch
    m *= cfg.beta1
    np.multiply(grad, 1.0 - cfg.beta1, out=t)
    m += t
    np.multiply(grad, grad, out=t)
    t *= 1.0 - cfg.beta2
    v *= cfg.beta2
    v += t
    i = state.iteration
    np.divide(v, 1.0 - cfg.beta2 ** (i + 1), out=t)
    np.sqrt(t, out=t)
    t += cfg.epsilon
    np.divide(m, 1.0 - cfg.beta1 ** (i + 1), out=u)
    u *= cfg.eta
    u /= t
    params -= u
    state.iteration = i + 1
    return state, params


def sgd_step(state: OptimizerState, params: np.ndarray, grad: np.ndarray, cfg: TrainConfig):
    """Plain full-batch gradient descent: params -= eta*g."""
    if params.shape != grad.shape:
        raise ValueError("parameter and gradient shapes must match")
    t = state.scratch[0]
    np.multiply(grad, cfg.eta, out=t)
    params -= t
    state.iteration += 1
    return state, params


def rmsprop_step(state: OptimizerState, params: np.ndarray, grad: np.ndarray, cfg: TrainConfig):
    """RMSprop with decay 0.9: v = 0.9*v + 0.1*(g*g), params -= eta*g / (sqrt(v) + eps)."""
    if params.shape != grad.shape or state.v.shape != params.shape:
        raise ValueError("parameter, gradient and state shapes must match")
    v = state.v
    t, u = state.scratch
    v *= 0.9
    np.multiply(grad, grad, out=t)
    t *= 0.1
    v += t
    np.sqrt(v, out=u)
    u += cfg.epsilon
    np.multiply(grad, cfg.eta, out=t)
    t /= u
    params -= t
    state.iteration += 1
    return state, params


_STEP_FNS = {ADAM: adam_step, SGD: sgd_step, RMSPROP: rmsprop_step}


@dataclass(frozen=True)
class StepTrainResult:
    """Trained parameters plus the recorded cost trajectory for one step."""

    params: NetworkParams
    breakdown: np.ndarray  # (epochs+1, 4): pde, left_bc, right_bc, total


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
        grad = _context_cost_grad(ctx, flat, n, ws, breakdown[e], e < epochs)
        total = float(breakdown[e, 3])
        if not math.isfinite(total) or total > DIVERGENCE_LIMIT:
            raise TrainingDiverged(e, total, step_index, breakdown[: e + 1].copy())
        if grad is not None:
            step_fn(state, flat, grad, cfg)
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

    @property
    def final_cost(self) -> float:
        """Cost after the last update; inf for a diverged run, whose trace
        ends at the cost that stopped it."""
        return float(self.trace[-1]) if self.diverged_epoch is None else math.inf


def probe_first_step(
    problem: ProblemSpec,
    dmap: DomainMap,
    grid: TimeGrid,
    colloc: CollocationSet,
    n_hidden: int,
    cfg: TrainConfig,
    variants: Sequence[Dict[str, object]],
    init_scale: float = 0.01,
    output_activation: str = IDENTITY,
) -> Tuple[ProbeRun, ...]:
    """Train the first marching step once per variant, all from one shared start.

    The first step is backward Euler for every theta (see solver.solve), so
    a probe needs no theta and no old-step rhs. Each variant names the
    TrainConfig fields that differ from cfg. Returns one run per variant, in
    order. A diverging run is recorded with its breakdown up to the failing
    epoch; it is never raised. Each run builds one workspace for its step;
    with the identity head its epochs allocate no array.
    """
    history = StepHistory(problem.data(from_x(dmap, colloc.points)))
    initial = init_params(n_hidden, cfg.seed, init_scale)
    runs = []
    for variant in variants:
        run_cfg = replace(cfg, **variant)
        t0 = time.perf_counter()
        diverged_epoch = None
        try:
            breakdown = train_step_network(
                initial, problem, dmap, grid, colloc, history, 0, run_cfg,
                output_activation=output_activation,
            ).breakdown
        except TrainingDiverged as exc:
            breakdown, diverged_epoch = exc.breakdown, exc.epoch
        runs.append(ProbeRun(breakdown, diverged_epoch, time.perf_counter() - t0))
    return tuple(runs)


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
    output_activation: str = IDENTITY,
) -> Tuple[Optional[float], Tuple[ProbeRun, ...]]:
    """Deterministic grid replacement for a learning-rate search.

    Trains the first marching step for probe_epochs under each candidate eta
    from one shared initialization. Returns (best eta, one run per candidate
    in order): the best eta has the lowest final cost, ties going to the
    smaller eta, and is None when every candidate diverges. The first step is
    backward Euler for every theta, so the search has no theta.
    """
    if len(candidates) == 0:
        raise ValueError("need at least one learning-rate candidate")
    if probe_epochs < 1:
        raise ValueError(f"probe_epochs must be >= 1, got {probe_epochs}")
    runs = probe_first_step(
        problem, dmap, grid, colloc, n_hidden, cfg,
        [dict(eta=float(eta), epochs_first=int(probe_epochs)) for eta in candidates],
        init_scale, output_activation,
    )
    completed = [
        (run.final_cost, float(eta)) for eta, run in zip(candidates, runs)
        if run.diverged_epoch is None
    ]
    return (min(completed)[1] if completed else None), runs
