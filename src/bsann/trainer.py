"""Per-step cost assembly and full-batch training of the collocation network.

For one marching step the cost is

    cost = (1/(2r)) * sum_i residual_i^2
           + (N(left) - M_a(t))^2 + (N(right) - M_b(t))^2

where the residual couples the candidate network to the stored history
through the implicit marching scheme (the L1 memory sum, which is backward
Euler at alpha = 1). All residual and cost gradients are exact:
the network's input derivatives and parameter gradients are closed forms, so
no finite differences of the candidate network appear anywhere.

Training is deterministic full-batch gradient descent in one of three
flavours (adam, sgd, rmsprop) on the flat parameter vector; an epoch is one
network pass and a few stacked calls on a _Workspace bound once per step.
Every product keeps the operands and order of tests/reference.py, which the
kernel matches bit for bit. A step whose cost leaves [0, 1e12] or stops
being finite raises TrainingDiverged with the step and epoch indices and
the breakdown recorded so far.
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
    _grads,
    _values,
    aligned_empty,
    aligned_nbytes,
    init_params,
)
from .problems import CollocationSet, ProblemSpec, pow_or_inf
from .stepper import StepHistory, TimeGrid, l1_history

ADAM = "adam"
SGD = "sgd"
RMSPROP = "rmsprop"

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
            f"training diverged at marching step {step_index + 1} at epoch {epoch} (cost {cost!r})"
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
    the rows of scratch, are allocated with the state unless given. Every
    array that the state allocates starts on a cache line (aligned_empty).
    """

    m: np.ndarray
    v: np.ndarray
    iteration: int = 0
    scratch: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.scratch is None:
            (self.scratch,) = aligned_empty((2, self.m.size))

    @classmethod
    def zeros(cls, size: int) -> "OptimizerState":
        m, v, scratch = aligned_empty((size,), (size,), (2, size))
        m[:] = v[:] = 0.0
        return cls(m=m, v=v, iteration=0, scratch=scratch)


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
    """Assemble the per-step linear residual coefficients and BC targets.

    Every step is implicit, so there is no old-step rhs: theta and rhs_old
    are kept for existing callers and must be 1 and None.
    """
    _check_activation(output_activation)
    if theta != 1.0 or rhs_old is not None:
        raise ValueError(f"every step is implicit: theta must be 1 and rhs_old None, got {theta}")
    pts = colloc.points
    r = colloc.count
    if history.n_points != r:
        raise ValueError(f"history width {history.n_points} does not match {r} points")
    t_next = float(grid.t[step_index + 1])

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

    c_t, acc = l1_history(grid, history, step_index, slice(0, m))
    offset = c_t * acc - f_vals
    a_value = np.full_like(x_pde, c_t) - g3
    a_d1 = -(g1 * map_theta + g2) / upsilon
    a_d2 = -g1 / (upsilon * upsilon)

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


class _Workspace:
    """Buffers that every epoch of one step overwrites in place, with the views
    that an epoch reads bound once. The pass reads hidden.params, which the
    training loop updates in place.

    Products run over all r points, so every operand is one contiguous block;
    an arctan surrogate point (past n_pde) gets zero coefficients, and its
    rows of the products and of jac_all are never read. One call makes the
    residual's three products, one the Jacobian's nine (each gradient plane
    times its kind's coefficients, into a kind-major block via prods_g), and
    two adds give (a_value*g_value + a_d1*g_d1) + a_d2*g_d2 in jac_w, a
    group-major view of jac[:, :3n]. One call scales both boundary rows of value
    gradients, read from the gradient planes. The identity head's constant
    output-bias column of jac is written once, here. A cost-only pass
    (step_cost, a step's last epoch) leaves jac and grad alone. Every array, a
    zeroed optimizer state's too, is a view of one aligned_empty block.
    """

    def __init__(self, ctx: StepContext, n: int):
        m, r = ctx.n_pde, ctx.points.size
        self.ctx = ctx
        self.identity = ctx.output_activation == IDENTITY
        self.hidden = h = PassBuffers(ctx.points, n)
        self.params = h.params
        (self.coef, self.terms, self.resid, self.coef_planes, prods, self.jac_all,
         self.miss, self.bias_edges, self.scaled, self.grad, moment1, moment2,
         scratch) = aligned_empty(*_workspace_shapes(r, m, n))
        self.coef[:] = 0.0
        self.coef[:, :m] = ctx.a_value, ctx.a_d1, ctx.a_d2
        self.term_rows = tuple(self.terms[:, :m])
        self.coef_planes[:] = self.coef[:, :, None]
        self.prod_val, self.prod_d1, self.prod_d2 = prods
        self.prods_g = prods.swapaxes(0, 1)
        self.jac = self.jac_all[:m]
        self.jac_w = self.jac_all[:, : 3 * n].reshape(r, 3, n).swapaxes(0, 1)
        # value gradients at the left and right boundary points, (3 groups, 2, n)
        self.edges = h.g[:, 0, 0 : m : m - 1]
        self.miss_col = self.miss[:, None]  # twice the boundary misses
        self.scaled_w = self.scaled[:, : 3 * n].reshape(2, 3, n).swapaxes(0, 1)
        self.scaled_bias = self.scaled[:, -1]
        self.scaled_left, self.scaled_right = self.scaled
        moment1[:] = moment2[:] = 0.0
        self.state = OptimizerState(moment1, moment2, scratch=scratch)
        if self.identity:
            self._bias_column(h.one, h.zero, h.zero)

    def _bias_column(self, g_val, g_d1, g_d2):
        """Write the output-bias column of jac, and its value gradients at the
        two boundary points, from its (r, 1) gradient columns."""
        ctx, m = self.ctx, self.ctx.n_pde
        self.jac[:, -1] = (ctx.a_value * g_val[:m, 0] + ctx.a_d1 * g_d1[:m, 0]
                           + ctx.a_d2 * g_d2[:m, 0])
        self.bias_edges[:] = g_val[0, 0], g_val[m - 1, 0]


def _workspace_shapes(r: int, m: int, n: int) -> tuple:
    """Shapes of _Workspace's own arrays, in the order that it unpacks them, for
    r points of which m are residual rows."""
    size = 3 * n + 1
    return ((3, r), (3, r), (m,), (3, r, n), (3, 3, r, n), (r, size), (2,), (2,), (2, size),
            (size,), (size,), (size,), (2, size))


def workspace_nbytes(r: int, n: int) -> int:
    """Bytes of one step's training workspace and optimizer state for r points
    and n hidden units; an upper bound, exact when every point is a residual row."""
    return aligned_nbytes(*PassBuffers.shapes(r, n)) + aligned_nbytes(*_workspace_shapes(r, r, n))


def _context_cost_grad(ws: _Workspace, row: np.ndarray, grad: bool = True) -> np.ndarray:
    """Write the cost terms (pde, left_bc, right_bc, total) of ws.params into
    row and return the pass, (value, d1, d2) at ctx.points as (3, r) rows;
    with grad, also write the flat cost gradient into ws.grad. The next call
    may overwrite both."""
    ctx, h = ws.ctx, ws.hidden
    out = _values(h, ctx.output_activation)
    # resid = ((a_value*val + a_d1*d1) + a_d2*d2) + offset
    resid = ws.resid
    np.multiply(ws.coef, out, out=ws.terms)
    t_val, t_d1, t_d2 = ws.term_rows
    np.add(t_val, t_d1, out=resid)
    resid += t_d2
    resid += ctx.offset
    val = h.p
    left_miss = float(val[0] - ctx.left_target)
    right_miss = float(val[ctx.n_pde - 1] - ctx.right_target)
    pde = float(resid @ resid) / (2.0 * ctx.points.size)
    left_sq, right_sq = pow_or_inf(left_miss, 2), pow_or_inf(right_miss, 2)
    row[0] = pde
    row[1] = left_sq
    row[2] = right_sq
    row[3] = pde + left_sq + right_sq
    if not grad:
        return out
    bias = _grads(h, ctx.output_activation)
    if not ws.identity:
        ws._bias_column(*bias)
    # jac_w = (a_value*g_value + a_d1*g_d1) + a_d2*g_d2, all three groups at once
    np.multiply(ws.coef_planes, h.g, out=ws.prods_g)
    np.add(ws.prod_val, ws.prod_d1, out=ws.prod_val)
    np.add(ws.prod_val, ws.prod_d2, out=ws.jac_w)
    # (resid @ jac) / r + 2*left_miss*g_value[left] + 2*right_miss*g_value[right]
    g, miss = ws.grad, ws.miss
    np.matmul(resid, ws.jac, out=g)
    g /= ctx.points.size
    miss[0] = 2.0 * left_miss
    miss[1] = 2.0 * right_miss
    np.multiply(ws.edges, ws.miss_col, out=ws.scaled_w)
    np.multiply(ws.bias_edges, miss, out=ws.scaled_bias)
    g += ws.scaled_left
    g += ws.scaled_right
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
    ws = _Workspace(ctx, params.n_hidden)
    ws.params[:] = params.flat
    row = np.empty(4)
    _context_cost_grad(ws, row, grad=False)
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
    ws = _Workspace(ctx, params.n_hidden)
    ws.params[:] = params.flat
    _context_cost_grad(ws, np.empty(4))
    return NetworkParams.from_flat(ws.grad, params.n_hidden)


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
OPTIMIZERS = tuple(_STEP_FNS)


@dataclass(frozen=True)
class StepTrainResult:
    """Trained parameters, the recorded cost trajectory and the last pass's values."""

    params: NetworkParams
    breakdown: np.ndarray  # (epochs+1, 4): pde, left_bc, right_bc, total
    values: np.ndarray     # the network's values at colloc.points


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
    The values of the last pass, the cost-only one after the last update,
    are returned as a copy: bit for bit eval_batch(params, colloc.points,
    output_activation)[0].
    """
    ctx = build_step_context(
        problem, dmap, grid, colloc, history, step_index, theta, rhs_old, output_activation
    )
    epochs = cfg.epochs_first if step_index == 0 else cfg.epochs_rest
    step_fn = _STEP_FNS[cfg.optimizer]
    ws = _Workspace(ctx, initial.n_hidden)
    flat, grad, state = ws.params, ws.grad, ws.state
    flat[:] = initial.flat
    breakdown = np.empty((epochs + 1, 4))
    for e in range(epochs + 1):
        # the last pass only records the cost, so it skips the Jacobian
        last = _context_cost_grad(ws, breakdown[e], e < epochs)
        total = float(breakdown[e, 3])
        if not math.isfinite(total) or total > DIVERGENCE_LIMIT:
            raise TrainingDiverged(e, total, step_index, breakdown[: e + 1].copy())
        if e < epochs:
            step_fn(state, flat, grad, cfg)
    return StepTrainResult(NetworkParams.from_flat(flat, initial.n_hidden), breakdown,
                           last[0].copy())


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

    Each variant names the TrainConfig fields that differ from cfg. Returns
    one run per variant, in order. A diverging run is recorded with its
    breakdown up to the failing epoch; it is never raised. Each run builds
    one workspace for its step; with the identity head its epochs allocate
    no array.
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
    smaller eta, and is None when every candidate diverges.
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
