import math
from dataclasses import replace

import numpy as np
import pytest

from bsann.mapping import from_x, jacobians, make_arctan_map, truncated_map
from bsann.network import NetworkParams, eval_batch, forward, init_params
from bsann.problems import european_call, fractional_manufactured
from bsann.solver import build_collocation
from bsann.stepper import StepHistory, caputo_residual, make_time_grid, spatial_rhs
from bsann import trainer
from bsann.trainer import (
    OptimizerState,
    ProbeRun,
    TrainConfig,
    TrainingDiverged,
    _context_cost_grad,
    _Workspace,
    workspace_nbytes,
    adam_step,
    build_step_context,
    cost_gradient,
    lr_grid_search,
    probe_first_step,
    rmsprop_step,
    sgd_step,
    step_cost,
    train_step_network,
)
from cases import constant_problem
from reference import blocks_cost_gradient, euler_residual, transform_derivatives


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(optimizer="newton")
    with pytest.raises(ValueError):
        TrainConfig(eta=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs_first=0)


def test_adam_first_step_formula():
    # bias correction makes the first update -eta * g / (|g| + eps)
    cfg = TrainConfig(eta=0.05)
    grad = np.array([3.0, -0.25, 1e-12])
    state, params = adam_step(OptimizerState.zeros(3), np.zeros(3), grad, cfg)
    expect = -cfg.eta * grad / (np.abs(grad) + cfg.epsilon)
    assert np.allclose(params, expect, atol=1e-15)
    assert state.iteration == 1


def test_adam_ten_step_hand_trace():
    # independent scalar re-implementation of the update rules
    cfg = TrainConfig(eta=0.1)
    rng = np.random.default_rng(100)
    grads = rng.normal(size=(10, 4))
    state = OptimizerState.zeros(4)
    p = rng.normal(size=4)
    ph = [float(v) for v in p]
    m = [0.0] * 4
    v = [0.0] * 4
    for i in range(10):
        state, p = adam_step(state, p, grads[i], cfg)
        for j in range(4):
            g = float(grads[i][j])
            m[j] = (1.0 - 0.9) * g + 0.9 * m[j]
            v[j] = (1.0 - 0.999) * g * g + 0.999 * v[j]
            mhat = m[j] / (1.0 - 0.9 ** (i + 1))
            vhat = v[j] / (1.0 - 0.999 ** (i + 1))
            ph[j] -= 0.1 * mhat / (math.sqrt(vhat) + 1e-8)
        assert np.max(np.abs(p - np.array(ph))) < 1e-12


def test_sgd_on_scalar_quadratic():
    # minimize (w - 3)^2 from w = 0 with eta = 0.1: first step lands on 0.6
    cfg = TrainConfig(optimizer="sgd", eta=0.1)
    state = OptimizerState.zeros(1)
    w = np.array([0.0])
    state, w = sgd_step(state, w, 2.0 * (w - 3.0), cfg)
    assert w[0] == pytest.approx(0.6, abs=1e-15)
    for _ in range(200):
        state, w = sgd_step(state, w, 2.0 * (w - 3.0), cfg)
    assert w[0] == pytest.approx(3.0, abs=1e-12)


def test_rmsprop_first_step_formula():
    cfg = TrainConfig(optimizer="rmsprop", eta=0.01)
    grad = np.array([2.0, -4.0])
    state, params = rmsprop_step(OptimizerState.zeros(2), np.zeros(2), grad, cfg)
    v = 0.1 * grad * grad
    expect = -cfg.eta * grad / (np.sqrt(v) + cfg.epsilon)
    assert np.allclose(params, expect, atol=1e-15)
    assert np.allclose(state.v, v, atol=1e-15)


def test_optimizer_shape_validation():
    cfg = TrainConfig()
    with pytest.raises(ValueError):
        adam_step(OptimizerState.zeros(2), np.zeros(3), np.zeros(3), cfg)
    with pytest.raises(ValueError):
        sgd_step(OptimizerState.zeros(2), np.zeros(2), np.zeros(3), cfg)


def naive_cost(params, problem, dmap, grid, colloc, history, step_index):
    """Cost assembled the long way: network forward, explicit rhs, residual."""
    pts = colloc.points
    r = pts.size
    s_vals = from_x(dmap, colloc.points)
    t_next = float(grid.t[step_index + 1])
    if dmap.kind == "arctan":
        pde = np.arange(r - 1)
        right_index = r - 2
    else:
        pde = np.arange(r)
        right_index = r - 1
    vals = np.empty(r)
    d1s = np.empty(r)
    d2s = np.empty(r)
    for i in range(r):
        net = forward(params, float(pts[i]))
        vals[i] = net.value
        d1s[i], d2s[i] = transform_derivatives(net.d1, net.d2, *jacobians(dmap, pts[i]))
    rhs_new = spatial_rhs(problem.operator, s_vals, t_next, vals, d1s, d2s)
    if grid.alpha < 1.0:
        resid = caputo_residual(
            grid,
            _sliced_history(history, pde),
            vals[pde],
            rhs_new[pde],
            step_index,
        )
    else:
        resid = euler_residual(grid.dt, history.row(step_index)[pde], vals[pde], rhs_new[pde])
    cost = float(resid @ resid) / (2.0 * r)
    cost += (vals[0] - problem.left_bc(float(s_vals[0]), t_next)) ** 2
    cost += (vals[right_index] - problem.right_bc(float(s_vals[right_index]), t_next)) ** 2
    return cost


def _sliced_history(history, idx):
    rows = history.values()[:, idx]
    out = StepHistory(rows[0])
    for k in range(1, rows.shape[0]):
        out.append(rows[k])
    return out


# problem, map, (n_steps, maturity, alpha), points, seed, random history rows
# (the step index), hidden units
_NAIVE_CASES = {
    "euler": (lambda: european_call(0.05, 0.2, 10.0, 1.0), truncated_map(15.0), (4, 1.0, 1.0),
              18, 8, 1, 5),
    "fractional": (lambda: fractional_manufactured(0.5), truncated_map(1.0), (6, 1.0, 0.5),
                   15, 9, 3, 4),
    "mapped": (lambda: european_call(0.05, 0.2, 10.0, 1.0), make_arctan_map(10.0, 0.6),
               (5, 1.0, 1.0), 9, 10, 2, 6),
}


@pytest.mark.parametrize("case", _NAIVE_CASES)
def test_step_cost_matches_naive_assembly(case):
    make_problem, dmap, grid_args, r, seed, step, n = _NAIVE_CASES[case]
    problem, grid = make_problem(), make_time_grid(*grid_args)
    colloc = build_collocation(dmap, r)
    rng = np.random.default_rng(seed)
    history = StepHistory(problem.data(from_x(dmap, colloc.points)))
    for _ in range(step):
        history.append(rng.normal(size=r))
    params = NetworkParams.from_flat(rng.uniform(-0.5, 0.5, 3 * n + 1), n)
    got = step_cost(params, problem, dmap, grid, colloc, history, step)
    want = naive_cost(params, problem, dmap, grid, colloc, history, step)
    assert got.total == pytest.approx(want, rel=1e-12)
    assert got.total == pytest.approx(
        got.pde_term + got.left_bc_term + got.right_bc_term, rel=1e-15
    )


@pytest.mark.parametrize("case", ["euler", "fractional", "mapped"])
def test_cost_gradient_matches_finite_differences(case):
    rng = np.random.default_rng(13)
    if case == "euler":
        problem = european_call(0.05, 0.2, 10.0, 1.0)
        dmap = truncated_map(15.0)
        grid = make_time_grid(4, 1.0, 1.0)
    elif case == "fractional":
        problem = fractional_manufactured(0.4)
        dmap = truncated_map(1.0)
        grid = make_time_grid(4, 1.0, 0.4)
    else:
        problem = european_call(0.05, 0.2, 10.0, 1.0)
        dmap = make_arctan_map(10.0, 0.6)
        grid = make_time_grid(4, 1.0, 1.0)
    colloc = build_collocation(dmap, 12)
    history = StepHistory(problem.data(from_x(dmap, colloc.points)))
    history.append(rng.normal(size=12))
    n = 4
    params = NetworkParams.from_flat(rng.uniform(-0.4, 0.4, 3 * n + 1), n)
    grad = cost_gradient(params, problem, dmap, grid, colloc, history, 1).to_flat()
    flat = params.to_flat()
    h = 1e-6
    fd = np.empty_like(flat)
    for j in range(flat.size):
        up = flat.copy()
        up[j] += h
        down = flat.copy()
        down[j] -= h
        cu = step_cost(NetworkParams.from_flat(up, n), problem, dmap, grid, colloc, history, 1)
        cd = step_cost(NetworkParams.from_flat(down, n), problem, dmap, grid, colloc, history, 1)
        fd[j] = (cu.total - cd.total) / (2.0 * h)
    assert np.allclose(fd, grad, rtol=1e-5, atol=1e-9)


def test_step_times_reach_the_problem_as_python_floats():
    # isinstance(t, float) would pass a leaked np.float64, which subclasses float
    seen = []

    def record(value):
        def f(s, t):
            seen.append(t)
            return value
        return f

    base = constant_problem()
    problem = replace(base, operator=replace(base.operator, forcing=record(0.0)),
                      left_bc=record(1.0), right_bc=record(1.0))
    dmap = truncated_map(2.0)
    grid = make_time_grid(7, 0.9, 1.0)
    colloc = build_collocation(dmap, 8)
    history = StepHistory(np.ones(8))
    for _ in range(grid.n_steps - 1):
        history.append(np.ones(8))
    for k in (0, grid.n_steps - 1):
        seen.clear()
        build_step_context(problem, dmap, grid, colloc, history, k)
        assert len(seen) == 3  # forcing, left_bc, right_bc
        assert all(type(t) is float and t == (k + 1) * grid.dt for t in seen)


def test_context_contract_errors():
    problem = fractional_manufactured(0.5)
    dmap = truncated_map(1.0)
    grid = make_time_grid(4, 1.0, 0.5)
    colloc = build_collocation(dmap, 10)
    history = StepHistory(problem.data(colloc.points))
    with pytest.raises(ValueError):
        build_step_context(problem, dmap, grid, colloc, history, 0, theta=0.5)
    euler = make_time_grid(4, 1.0, 1.0)
    call = european_call(0.05, 0.2, 10.0, 1.0)
    for retired in (dict(theta=0.5), dict(rhs_old=np.zeros(10))):
        with pytest.raises(ValueError):
            build_step_context(call, truncated_map(15.0), euler,
                               build_collocation(truncated_map(15.0), 10),
                               StepHistory(np.zeros(10)), 0, **retired)  # no theta < 1 scheme
    with pytest.raises(ValueError):
        build_step_context(call, truncated_map(15.0), euler,
                           build_collocation(truncated_map(15.0), 10),
                           StepHistory(np.zeros(9)), 0)  # width mismatch
    with pytest.raises(ValueError):
        build_step_context(problem, dmap, grid, colloc, history, 2)  # history too short


def test_train_step_epoch_budgets_and_trace():
    problem = constant_problem()
    dmap = truncated_map(2.0)
    grid = make_time_grid(3, 1.0, 1.0)
    colloc = build_collocation(dmap, 8)
    history = StepHistory(problem.data(colloc.points))
    cfg = TrainConfig(eta=0.05, epochs_first=60, epochs_rest=25, seed=3)
    initial = init_params(4, cfg.seed, 0.01)
    first = train_step_network(initial, problem, dmap, grid, colloc, history, 0, cfg)
    assert first.breakdown.shape == (61, 4)
    start = step_cost(initial, problem, dmap, grid, colloc, history, 0)
    assert first.breakdown[0, 3] == pytest.approx(start.total, rel=1e-12)
    assert first.breakdown[-1, 3] < first.breakdown[0, 3]
    history.append(eval_batch(first.params, colloc.points)[0])
    second = train_step_network(first.params, problem, dmap, grid, colloc, history, 1, cfg)
    assert second.breakdown.shape == (26, 4)


def _second_step(case):
    """Problem, map, grid, collocation and two-row history for a small step 1."""
    rng = np.random.default_rng(21)
    problem = european_call(0.05, 0.2, 10.0, 1.0)
    dmap = make_arctan_map(10.0, 0.6) if case == "arctan" else truncated_map(15.0)
    grid = make_time_grid(4, 1.0, 1.0)
    colloc = build_collocation(dmap, 12)
    history = StepHistory(problem.data(from_x(dmap, colloc.points)))
    history.append(history.row(0) + rng.normal(scale=0.01, size=12))
    activation = "sigmoid" if case == "sigmoid" else "identity"
    return (problem, dmap, grid, colloc, history), activation


_STEP_FNS = {"adam": adam_step, "sgd": sgd_step, "rmsprop": rmsprop_step}


@pytest.mark.parametrize("case,optimizer", [
    pytest.param(case, optimizer, id=case if optimizer == "adam" else f"{case}-{optimizer}")
    for optimizer in _STEP_FNS for case in ("truncated", "arctan", "sigmoid")
])
def test_train_step_matches_fresh_per_epoch_calls(case, optimizer):
    # the loop reuses one workspace for every epoch and skips the Jacobian on
    # the last pass; neither may change a bit of the trajectory
    step, act = _second_step(case)
    step_fn = _STEP_FNS[optimizer]
    cfg = TrainConfig(optimizer=optimizer, eta=0.05 if optimizer == "adam" else 0.002,
                      epochs_first=50, epochs_rest=50, seed=4)
    initial = init_params(4, cfg.seed, 0.1)
    got = train_step_network(initial, *step, 1, cfg, output_activation=act)
    params, state, rows = initial, OptimizerState.zeros(initial.size), []
    for e in range(cfg.epochs_rest + 1):
        cost = step_cost(params, *step, 1, output_activation=act)
        rows.append((cost.pde_term, cost.left_bc_term, cost.right_bc_term, cost.total))
        if e < cfg.epochs_rest:
            grad = cost_gradient(params, *step, 1, output_activation=act)
            state, flat = step_fn(state, params.to_flat(), grad.to_flat(), cfg)
            params = NetworkParams.from_flat(flat, 4)
    assert np.array_equal(got.breakdown, np.array(rows))
    assert np.array_equal(got.params.to_flat(), params.to_flat())


def _run_pass(ws, flat, row, grad=True):
    ws.params[:] = flat
    return _context_cost_grad(ws, row, grad)


def _boundary_rows(ws):
    """The value-gradient rows at the left and right boundary points that the
    gradient read, in the flat layout."""
    edges = ws.edges.swapaxes(0, 1)
    return np.array([np.append(edge.ravel(), bias) for edge, bias in zip(edges, ws.bias_edges)])


@pytest.mark.parametrize("case", ["truncated", "arctan", "sigmoid"])
def test_workspace_carries_no_state_between_calls(case):
    step, act = _second_step(case)
    ctx = build_step_context(*step, 1, output_activation=act)
    n = 5
    rng = np.random.default_rng(22)
    flat_a, flat_b = rng.uniform(-1.0, 1.0, (2, 3 * n + 1))
    ws = _Workspace(ctx, n)
    bias_column = ws.jac[:, -1].copy()
    row, row_fresh, row_cost = np.empty((3, 4))
    for flat in (flat_a, flat_b, flat_a):
        want = eval_batch(NetworkParams.from_flat(flat, n), ctx.points, act)
        full = _run_pass(ws, flat, row).copy()
        grad, jac, rows = ws.grad.copy(), ws.jac.copy(), _boundary_rows(ws)
        planes = ws.hidden.g.copy()
        fresh = _Workspace(ctx, n)
        _run_pass(fresh, flat, row_fresh)
        assert np.array_equal(row, row_fresh) and np.array_equal(grad, fresh.grad)
        assert np.array_equal(jac, fresh.jac) and np.array_equal(rows, _boundary_rows(fresh))
        assert np.array_equal(planes, fresh.hidden.g)
        # the cost-only pass returns what eval_batch computes, bit for bit,
        # records the full call's cost row and leaves the gradient and the
        # Jacobian alone
        cost_only = _run_pass(ws, flat, row_cost, grad=False)
        assert np.array_equal(row_cost, row) and np.array_equal(ws.grad, grad)
        assert np.array_equal(ws.jac, jac)
        for got, full_got, expected in zip(cost_only, full, want):
            assert np.array_equal(got, expected) and np.array_equal(full_got, expected)
    if act == "identity":
        # the output-bias column, ((a_value*1) + (a_d1*0)) + a_d2*0, is set
        # once per step and never overwritten
        want = (ctx.a_value * 1.0 + ctx.a_d1 * 0.0) + ctx.a_d2 * 0.0
        assert np.array_equal(bias_column, want)
        assert np.array_equal(ws.jac[:, -1], want)
        ws.jac[:, -1] = np.nan
        _run_pass(ws, flat_b, row)
        assert np.all(np.isnan(ws.jac[:, -1]))
    else:
        # with the sigmoid head the output-bias column moves with the parameters
        assert not np.array_equal(ws.jac[:, -1], bias_column)


@pytest.mark.parametrize("r,n", [(150, 20), (10, 20), (60, 6), (110, 20)])
@pytest.mark.parametrize("case", ["truncated", "arctan", "sigmoid"])
def test_cost_gradient_matches_blocks_reference_bit_for_bit(case, r, n):
    # a gradient that differed by 3.6e-16 relative moved example3_truncated's
    # error from 1.4e-2 to 1.9e-1, so the kernel must equal the whole-block
    # reference exactly, not to a tolerance. The gradient's sums absorb most
    # last-bit changes of single Jacobian entries, so the Jacobian, the
    # boundary rows, the pass and the cost row are compared too.
    rng = np.random.default_rng(r + n)
    problem = european_call(0.05, 0.2, 10.0, 1.0)
    dmap = make_arctan_map(10.0, 0.6) if case == "arctan" else truncated_map(15.0)
    grid = make_time_grid(20, 1.0, 1.0)
    colloc = build_collocation(dmap, r)
    history = StepHistory(problem.data(from_x(dmap, colloc.points)))
    history.append(history.row(0) + rng.normal(scale=0.01, size=r))
    act = "sigmoid" if case == "sigmoid" else "identity"
    ctx = build_step_context(problem, dmap, grid, colloc, history, 1, output_activation=act)
    ws = _Workspace(ctx, n)
    for scale in (0.01, 0.1, 1.0, 4.0):
        params = NetworkParams.from_flat(rng.uniform(-scale, scale, 3 * n + 1), n)
        got = cost_gradient(params, problem, dmap, grid, colloc, history, 1, output_activation=act)
        grad, jac, rows, values, cost = blocks_cost_gradient(ctx, params.to_flat(), n)
        assert np.array_equal(got.to_flat(), grad)
        row = np.empty(4)
        out = _run_pass(ws, params.to_flat(), row)
        assert np.array_equal(out, values) and np.array_equal(row, cost)
        assert np.array_equal(ws.grad, grad)
        assert np.array_equal(ws.jac, jac) and np.array_equal(_boundary_rows(ws), rows)


@pytest.mark.parametrize("act", ["identity", "sigmoid"])
def test_workspace_nbytes_counts_the_allocation(act):
    step, _ = _second_step("truncated")
    ctx = build_step_context(*step, 1, output_activation=act)
    n = 7
    ws = _Workspace(ctx, n)
    state = ws.state
    arrays = [state.m, state.v, state.scratch]
    for owner in (ws.hidden, ws):
        for value in vars(owner).values():
            items = value if isinstance(value, tuple) else (value,)
            arrays += [a for a in items if isinstance(a, np.ndarray)]
    bases = {id(a.base if a.base is not None else a): a.base if a.base is not None else a
             for a in arrays}
    # one block for the pass buffers, one for the rest of the step
    assert len(bases) == 2
    assert sum(a.nbytes for a in bases.values()) == workspace_nbytes(ctx.points.size, n)
    # the Jacobian's group-major view writes jac itself
    assert np.shares_memory(ws.jac_w, ws.jac) and ws.jac_w.shape == (3, ctx.n_pde, n)


@pytest.mark.parametrize("act", ["identity", "sigmoid"])
@pytest.mark.parametrize("r,n", [(150, 20), (7, 3)])
def test_epoch_buffers_start_on_cache_lines(r, n, act):
    problem = european_call(0.05, 0.2, 10.0, 1.0)
    dmap = truncated_map(15.0)
    colloc = build_collocation(dmap, r)
    history = StepHistory(problem.data(colloc.points))
    ctx = build_step_context(problem, dmap, make_time_grid(4, 1.0, 1.0), colloc, history, 0,
                             output_activation=act)
    for junk in range(1, 8):
        # 8 to 56 bytes taken from the heap first, so that no lucky heap
        # state lines the blocks up by itself
        held = [np.empty(junk), bytes(8 * junk)]
        ws = _Workspace(ctx, n)
        state = ws.state
        h = ws.hidden
        blocks = {
            "params": h.params, "planes": h.xx, "out": h.out, "coef": ws.coef,
            "terms": ws.terms, "resid": ws.resid, "coef_planes": ws.coef_planes,
            "prods": ws.prod_val, "jac_all": ws.jac_all, "scaled": ws.scaled,
            "grad": ws.grad, "m": state.m, "v": state.v, "scratch": state.scratch,
        }
        if r * n % 8 == 0:
            # planes of whole cache lines: then every plane starts on one too
            planes = (*h.xx, *h.wq, *h.vvv, *h.tmp, *h.sd, *h.g.reshape(9, r, n),
                      *ws.coef_planes, *ws.prod_val, *ws.prod_d1, *ws.prod_d2)
            blocks.update((f"plane {i}", p) for i, p in enumerate(planes))
        misaligned = [name for name, a in blocks.items() if a.ctypes.data % 64]
        assert not misaligned, (len(held[1]), misaligned)


def test_training_divergence_is_reported():
    problem = european_call(0.05, 0.2, 10.0, 1.0)
    dmap = truncated_map(15.0)
    grid = make_time_grid(20, 1.0, 1.0)
    colloc = build_collocation(dmap, 150)
    history = StepHistory(problem.data(colloc.points))
    cfg = TrainConfig(optimizer="sgd", eta=0.03, epochs_first=5000, epochs_rest=1200, seed=0)
    initial = init_params(20, cfg.seed, 0.01)
    with pytest.raises(TrainingDiverged) as info:
        train_step_network(initial, problem, dmap, grid, colloc, history, 0, cfg)
    exc = info.value
    assert exc.epoch < 50
    assert exc.breakdown.shape[0] == exc.epoch + 1
    assert not np.isfinite(exc.cost) or exc.cost > 1e12


def test_training_divergence_names_its_step():
    problem = european_call(0.05, 0.2, 10.0, 1.0)
    dmap = truncated_map(15.0)
    grid = make_time_grid(20, 1.0, 1.0)
    colloc = build_collocation(dmap, 150)
    history = StepHistory(problem.data(colloc.points))
    history.append(history.row(0))
    cfg = TrainConfig(optimizer="sgd", eta=0.03, epochs_first=5000, epochs_rest=1200, seed=0)
    with pytest.raises(TrainingDiverged) as info:
        train_step_network(init_params(20, cfg.seed, 0.01), problem, dmap, grid, colloc,
                           history, 1, cfg)
    assert info.value.step_index == 1
    assert "marching step 2 " in str(info.value)


def test_probe_first_step_shares_the_start():
    problem = constant_problem()
    dmap = truncated_map(2.0)
    grid = make_time_grid(2, 1.0, 1.0)
    cfg = TrainConfig(eta=0.01, epochs_first=50, epochs_rest=20, seed=4)
    a, s = probe_first_step(problem, dmap, grid, build_collocation(dmap, 10), 4, cfg,
                            [dict(optimizer="adam"), dict(optimizer="sgd")])
    assert a.trace[0] == s.trace[0]
    assert a.diverged_epoch is None and s.diverged_epoch is None
    assert a.breakdown.shape == (51, 4)
    assert a.seconds_per_epoch == pytest.approx(a.seconds / 50.0)


def test_probe_first_step_records_divergence():
    problem = european_call(0.05, 0.2, 10.0, 1.0)
    dmap = truncated_map(15.0)
    grid = make_time_grid(20, 1.0, 1.0)
    cfg = TrainConfig(eta=0.03, epochs_first=30, epochs_rest=10, seed=0)
    adam, sgd = probe_first_step(problem, dmap, grid, build_collocation(dmap, 150), 20, cfg,
                                 [dict(optimizer="adam"), dict(optimizer="sgd")])
    assert adam.diverged_epoch is None
    assert sgd.diverged_epoch is not None
    assert sgd.breakdown.shape[0] == sgd.diverged_epoch + 1
    assert sgd.trace[-1] > adam.trace[-1]
    assert sgd.final_cost == math.inf and adam.final_cost == adam.trace[-1]


def test_lr_grid_search_picks_lowest_cost():
    problem = constant_problem()
    dmap = truncated_map(2.0)
    grid = make_time_grid(3, 1.0, 1.0)
    colloc = build_collocation(dmap, 8)
    cfg = TrainConfig(eta=0.5, epochs_first=100, epochs_rest=50, seed=2)
    etas = (0.001, 0.01, 0.05)
    best_eta, runs = lr_grid_search(problem, dmap, grid, colloc, 4, cfg, etas, 80)
    assert best_eta in etas
    assert len(runs) == 3
    assert all(run.breakdown.shape == (81, 4) for run in runs)
    costs = {eta: run.final_cost for eta, run in zip(etas, runs)}
    assert best_eta == min(costs, key=lambda e: (costs[e], e))
    # repeat run is identical
    again_eta, again = lr_grid_search(problem, dmap, grid, colloc, 4, cfg, etas, 80)
    assert again_eta == best_eta
    assert all(a.final_cost == b.final_cost for a, b in zip(runs, again))


def test_lr_grid_search_breaks_ties_toward_the_smaller_eta(monkeypatch):
    # every probe ends at the same cost; the one diverged run does not count
    tied = ProbeRun(np.ones((3, 4)), None, 0.0)
    lost = ProbeRun(np.zeros((2, 4)), 1, 0.0)
    monkeypatch.setattr(trainer, "probe_first_step", lambda *args: (tied, lost, tied, tied))
    problem = constant_problem()
    dmap = truncated_map(2.0)
    colloc = build_collocation(dmap, 8)
    best_eta, runs = lr_grid_search(problem, dmap, make_time_grid(3, 1.0, 1.0), colloc, 4,
                                    TrainConfig(), (0.05, 0.001, 0.01, 0.03), 2)
    assert best_eta == 0.01
    assert [run is tied for run in runs] == [True, False, True, True]


def test_lr_grid_search_all_divergent():
    problem = european_call(0.05, 0.2, 10.0, 1.0)
    dmap = truncated_map(15.0)
    grid = make_time_grid(20, 1.0, 1.0)
    colloc = build_collocation(dmap, 150)
    cfg = TrainConfig(optimizer="sgd", eta=0.1, seed=0)
    best_eta, runs = lr_grid_search(problem, dmap, grid, colloc, 20, cfg, (0.03, 0.1), 200)
    assert best_eta is None
    assert len(runs) == 2
    assert all(run.diverged_epoch is not None for run in runs)
    assert all(run.final_cost == math.inf for run in runs)


def test_lr_grid_search_validation():
    problem = constant_problem()
    dmap = truncated_map(2.0)
    grid = make_time_grid(3, 1.0, 1.0)
    colloc = build_collocation(dmap, 8)
    cfg = TrainConfig()
    with pytest.raises(ValueError):
        lr_grid_search(problem, dmap, grid, colloc, 4, cfg, (), 10)
    with pytest.raises(ValueError):
        lr_grid_search(problem, dmap, grid, colloc, 4, cfg, (0.01,), 0)
