"""Reference implementations that the tests compare production code against."""

import numpy as np

from bsann.stepper import StepHistory, l1_history


def euler_residual(dt, old_values, new_values, rhs_new):
    """Backward-Euler residual (new - old)/dt - rhs_new, the ordinary march's scheme."""
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    old_values = np.asarray(old_values, dtype=float)
    new_values = np.asarray(new_values, dtype=float)
    rhs_new = np.asarray(rhs_new, dtype=float)
    if not (old_values.shape == new_values.shape == rhs_new.shape):
        raise ValueError("all vectors must share one shape")
    return (new_values - old_values) / dt - rhs_new


def transform_derivatives(d1, d2, upsilon, theta):
    """Convert x-space first and second derivatives to price space with the
    chain-rule factors of bsann.mapping.jacobians (see that module's docstring)."""
    return d1 / upsilon, d2 / (upsilon * upsilon) + theta * d1 / upsilon


def _sigmoid(z):
    pos = z >= 0
    ez = np.exp(np.where(pos, -z, z))
    return np.where(pos, 1.0, ez) / (1.0 + ez)


def blocks_cost_gradient(ctx, flat, n):
    """Flat step-cost gradient built from whole (r, 3n+1) gradient blocks,
    with the residual Jacobian, the two boundary rows of value gradients, the
    pass (value, d1, d2) and the cost row (pde, left_bc, right_bc, total).

    Broadcast products fill column slices of three blocks (value, d1, d2),
    and the residual Jacobian is a_value*g_value + a_d1*g_d1 + a_d2*g_d2 over
    whole rows: the straightforward form of the arithmetic that the
    group-by-group kernel performs in place. Every product keeps its operands
    and order, so production must match it bit for bit.
    """
    w, b, v, beta = flat[:n], flat[n : 2 * n], flat[2 * n : 3 * n], flat[-1]
    x = ctx.points
    r = x.size
    z = np.outer(x, w)
    z += b
    s = _sigmoid(z)
    s1 = s * (1.0 - s)
    s2 = s1 * (1.0 - 2.0 * s)
    ww = w * w
    s1w = s1 * w
    s2ww = s2 * ww
    p, px, pxx = s @ v + beta, s1w @ v, s2ww @ v
    s6 = 6.0 * s
    s3 = s1 * (1.0 - s6 + s6 * s)
    xs = x[:, None]

    blocks = np.zeros((3, r, 3 * n + 1))
    blocks[0, :, -1] = 1.0
    g_p, g_px, g_pxx = blocks
    hw, hb, ov = slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n)
    p_w, p_b = g_p[:, hw], g_p[:, hb]
    np.multiply(v, s1, out=p_b)
    np.multiply(p_b, xs, out=p_w)
    g_p[:, ov] = s
    t = s2 * w
    t *= xs
    t += s1
    np.multiply(v, t, out=g_px[:, hw])
    px_b = g_px[:, hb]
    np.multiply(v, s2, out=px_b)
    px_b *= w
    g_px[:, ov] = s1w
    t = s3 * ww
    t *= xs
    t += (2.0 * w) * s2
    np.multiply(v, t, out=g_pxx[:, hw])
    pxx_b = g_pxx[:, hb]
    np.multiply(v, s3, out=pxx_b)
    pxx_b *= ww
    g_pxx[:, ov] = s2ww

    if ctx.output_activation == "identity":
        val, d1, d2, g_val, g_d1, g_d2 = p, px, pxx, g_p, g_px, g_pxx
    else:
        q = _sigmoid(p)
        q1 = q * (1.0 - q)
        q2 = q1 * (1.0 - 2.0 * q)
        val, d1, d2 = q, q1 * px, q2 * px * px + q1 * pxx
        q3 = q1 * (1.0 - 6.0 * q + 6.0 * q * q)
        qc = q1[:, None]
        g_val = qc * g_p
        g_d1 = q2[:, None] * g_p * px[:, None] + qc * g_px
        g_d2 = (
            q3[:, None] * g_p * (px * px)[:, None]
            + q2[:, None] * (2.0 * px[:, None] * g_px + pxx[:, None] * g_p)
            + qc * g_pxx
        )

    m = ctx.n_pde
    resid = ctx.a_value * val[:m] + ctx.a_d1 * d1[:m] + ctx.a_d2 * d2[:m] + ctx.offset
    left_miss = float(val[0] - ctx.left_target)
    right_miss = float(val[m - 1] - ctx.right_target)
    coef = np.repeat(np.stack([ctx.a_value, ctx.a_d1, ctx.a_d2])[:, :, None], 3 * n + 1, axis=2)
    jac = np.multiply(coef[0], g_val[:m])
    jac += coef[1] * g_d1[:m]
    jac += coef[2] * g_d2[:m]
    grad = (
        (resid @ jac) / ctx.points.size
        + 2.0 * left_miss * g_val[0]
        + 2.0 * right_miss * g_val[m - 1]
    )
    pde = float(resid @ resid) / (2.0 * ctx.points.size)
    left, right = left_miss**2, right_miss**2
    cost = np.array([pde, left, right, pde + left + right])
    return grad, jac, g_val[[0, m - 1]], (val, d1, d2), cost


def _thomas(lower, diag, upper, rhs):
    """Solve a tridiagonal system; lower[0] and upper[-1] are not read."""
    lo, di, up, d = lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()
    c = [up[0] / di[0]]
    d[0] /= di[0]
    for i in range(1, len(di)):
        den = di[i] - lo[i] * c[i - 1]
        c.append(up[i] / den)
        d[i] = (d[i] - lo[i] * d[i - 1]) / den
    for i in range(len(di) - 2, -1, -1):
        d[i] -= c[i] * d[i + 1]
    return np.array(d)


def fd_error_floor(problem, s_max, grid, s_eval, m):
    """Max error at s_eval of a finite-difference march: the error that a
    perfect fit at every step of the network march would leave.

    Each step solves the solver's own time scheme, coef*(U + acc) = L U + f
    from l1_history, with central differences in S on m intervals of
    [0, s_max] and the problem's Dirichlet values at both ends.
    """
    s = np.linspace(0.0, s_max, m + 1)
    h = s_max / m
    op = problem.operator
    g1 = np.asarray(op.gamma1(s[1:-1]), dtype=float) / (h * h)
    g2 = np.asarray(op.gamma2(s[1:-1]), dtype=float) / (2.0 * h)
    lower, upper = -(g1 - g2), -(g1 + g2)
    history = StepHistory(problem.data(s))
    for k in range(grid.n_steps):
        t = (k + 1) * grid.dt
        coef, acc = l1_history(grid, history, k)
        left, right = problem.left_bc(s[0], t), problem.right_bc(s[-1], t)
        rhs = op.forcing(s[1:-1], t) - coef * acc[1:-1]
        rhs[0] -= lower[0] * left
        rhs[-1] -= upper[-1] * right
        inner = _thomas(lower, coef + 2.0 * g1 - op.gamma3, upper, rhs)
        history.append(np.concatenate(([left], inner, [right])))
    fd = np.interp(s_eval, s, history.row(grid.n_steps))
    return float(np.max(np.abs(fd - problem.exact(s_eval, grid.horizon))))
