"""Single-input, single-output collocation network with one hidden layer.

The network is N(x) = psi(sum_i v_i * sigmoid(w_i x + b_i) + beta) with a
scalar input. Both derivatives with respect to the input and gradients of
(value, d1, d2) with respect to every parameter are exact closed forms; the
trainer never uses finite differences of the candidate network.

Flat parameter layout (fixed order, length 3n+1):
    hidden_weights[0:n], hidden_biases[n:2n], output_weights[2n:3n], output_bias
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvio import read_csv, write_csv

IDENTITY = "identity"
SIGMOID = "sigmoid"
_ACTIVATIONS = (IDENTITY, SIGMOID)


def _check_activation(name: str) -> None:
    if name not in _ACTIVATIONS:
        raise ValueError(f"unknown output activation {name!r}; expected one of {_ACTIVATIONS}")


@dataclass(frozen=True)
class NetworkParams:
    """Parameters of a 1-n-1 network."""

    hidden_weights: np.ndarray
    hidden_biases: np.ndarray
    output_weights: np.ndarray
    output_bias: float

    def __post_init__(self):
        w = np.asarray(self.hidden_weights, dtype=float)
        b = np.asarray(self.hidden_biases, dtype=float)
        v = np.asarray(self.output_weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("hidden_weights must be a non-empty 1-d array")
        if b.shape != w.shape or v.shape != w.shape:
            raise ValueError("hidden_biases and output_weights must match hidden_weights in shape")
        object.__setattr__(self, "hidden_weights", w)
        object.__setattr__(self, "hidden_biases", b)
        object.__setattr__(self, "output_weights", v)
        object.__setattr__(self, "output_bias", float(self.output_bias))

    @property
    def n_hidden(self) -> int:
        return self.hidden_weights.size

    @property
    def size(self) -> int:
        return 3 * self.n_hidden + 1

    def to_flat(self) -> np.ndarray:
        return np.concatenate(
            [self.hidden_weights, self.hidden_biases, self.output_weights, [self.output_bias]]
        )

    @classmethod
    def from_flat(cls, flat: np.ndarray, n_hidden: int) -> "NetworkParams":
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (3 * n_hidden + 1,):
            raise ValueError(f"flat vector must have length {3 * n_hidden + 1}, got {flat.shape}")
        w, b, v, beta = _split_flat(flat, n_hidden)
        return cls(w.copy(), b.copy(), v.copy(), float(beta))


def _split_flat(flat: np.ndarray, n: int):
    """Views of the three weight groups and the output bias of a flat vector."""
    return flat[:n], flat[n : 2 * n], flat[2 * n : 3 * n], flat[-1]


def _parts(params: NetworkParams):
    return params.hidden_weights, params.hidden_biases, params.output_weights, params.output_bias


@dataclass(frozen=True)
class NetEval:
    """Network output and its first two derivatives with respect to the input."""

    value: float
    d1: float
    d2: float


def init_params(n_hidden: int, seed: int, scale: float = 0.01) -> NetworkParams:
    """Draw every parameter independently from U[-scale, scale], deterministically."""
    if n_hidden < 1:
        raise ValueError(f"n_hidden must be >= 1, got {n_hidden}")
    if not scale > 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    rng = np.random.default_rng(seed)
    flat = rng.uniform(-scale, scale, size=3 * n_hidden + 1)
    return NetworkParams.from_flat(flat, n_hidden)


def _sigmoid_arr(z: np.ndarray) -> np.ndarray:
    # exp is only ever taken of a non-positive argument, so no overflow
    pos = z >= 0
    ez = np.exp(np.where(pos, -z, z))
    return np.where(pos, 1.0, ez) / (1.0 + ez)


def _hidden_pass(w, b, v, beta, x):
    """(s, s1, s2, ww, s1w, s2ww, p, px, pxx) at a vector of inputs: the hidden
    sigmoids and their first two derivatives, w*w, s1*w, s2*w*w, and the
    pre-activation head P with its first two input derivatives."""
    z = np.outer(x, w)
    z += b
    s = _sigmoid_arr(z)
    s1 = s * (1.0 - s)
    s2 = s1 * (1.0 - 2.0 * s)
    ww = w * w
    s1w = s1 * w
    s2ww = s2 * ww
    return s, s1, s2, ww, s1w, s2ww, s @ v + beta, s1w @ v, s2ww @ v


def _sigmoid_head(p, px, pxx, grads=None):
    """Chain rule of the sigmoid head q = sigmoid(P): value, d1 and d2, followed by
    their parameter gradients when grads holds those of (P, P_x, P_xx)."""
    q = _sigmoid_arr(p)
    q1 = q * (1.0 - q)
    q2 = q1 * (1.0 - 2.0 * q)
    out = (q, q1 * px, q2 * px * px + q1 * pxx)
    if grads is None:
        return out
    g_p, g_px, g_pxx = grads
    q3 = q1 * (1.0 - 6.0 * q + 6.0 * q * q)
    qc = q1[:, None]
    g_value = qc * g_p
    g_d1 = q2[:, None] * g_p * px[:, None] + qc * g_px
    g_d2 = (
        q3[:, None] * g_p * (px * px)[:, None]
        + q2[:, None] * (2.0 * px[:, None] * g_px + pxx[:, None] * g_p)
        + qc * g_pxx
    )
    return out + (g_value, g_d1, g_d2)


def _raw_eval(w, b, v, beta, x, output_activation=IDENTITY):
    """value/d1/d2 arrays at a vector of inputs. Internal, array-based."""
    p, px, pxx = _hidden_pass(w, b, v, beta, x)[-3:]
    if output_activation == IDENTITY:
        return p, px, pxx
    return _sigmoid_head(p, px, pxx)


def grad_blocks(r: int, n: int) -> np.ndarray:
    """Caller-owned output of _raw_eval_grads for r inputs and n hidden units.

    Three (r, 3n+1) blocks for value, d1 and d2 in the flat layout order. The
    output-bias column is constant (ones for the value, zeros for both
    derivatives); it is filled here and _raw_eval_grads never writes it, so
    one set of blocks serves any number of calls.
    """
    blocks = np.zeros((3, r, 3 * n + 1))
    blocks[0, :, -1] = 1.0
    return blocks


def _raw_eval_grads(w, b, v, beta, x, blocks, output_activation=IDENTITY):
    """As _raw_eval, plus parameter gradients of value, d1 and d2.

    Returns (value, d1, d2, g_value, g_d1, g_d2) where each g_* has shape
    (len(x), 3n+1) in the flat layout order. The identity head writes its
    gradients into `blocks` (see grad_blocks) and returns them; the sigmoid
    head returns new arrays computed from them.
    """
    n = w.size
    s, s1, s2, ww, s1w, s2ww, p, px, pxx = _hidden_pass(w, b, v, beta, x)
    s6 = 6.0 * s
    s3 = s1 * (1.0 - s6 + s6 * s)
    xs = x[:, None]

    # gradients of the pre-activation head P and its input derivatives by
    # parameter group (hidden weights, hidden biases, output weights, output
    # bias). The in-place sequences below evaluate exactly these products,
    # left to right: regrouping one changes its last bits, and training
    # amplifies those into visibly different solutions.
    #   g_p   = [v*s1*xs,                 v*s1,       s,     1]
    #   g_px  = [v*(s2*w*xs + s1),        v*s2*w,     s1*w,  0]
    #   g_pxx = [v*(s3*ww*xs + 2*w*s2),   v*s3*ww,    s2*ww, 0]
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

    if output_activation == IDENTITY:
        return p, px, pxx, g_p, g_px, g_pxx
    return _sigmoid_head(p, px, pxx, (g_p, g_px, g_pxx))


def eval_batch(params: NetworkParams, x: np.ndarray, output_activation: str = IDENTITY):
    """Vectorized (value, d1, d2) arrays over a vector of inputs."""
    _check_activation(output_activation)
    x = np.asarray(x, dtype=float)
    return _raw_eval(*_parts(params), x, output_activation)


def forward(params: NetworkParams, x: float, output_activation: str = IDENTITY) -> NetEval:
    """Evaluate the network and its first two input derivatives at one point."""
    val, d1, d2 = eval_batch(params, np.array([float(x)]), output_activation)
    return NetEval(value=float(val[0]), d1=float(d1[0]), d2=float(d2[0]))


def param_grad(
    params: NetworkParams, x: float, target: str = "value", output_activation: str = IDENTITY
) -> NetworkParams:
    """Exact gradient of value, d1 or d2 at one input point w.r.t. all parameters.

    The gradient is returned in the parameters' own container and flat layout.
    """
    _check_activation(output_activation)
    if target not in ("value", "d1", "d2"):
        raise ValueError(f"target must be 'value', 'd1' or 'd2', got {target!r}")
    blocks = grad_blocks(1, params.n_hidden)
    out = _raw_eval_grads(*_parts(params), np.array([float(x)]), blocks, output_activation)
    g = out[{"value": 3, "d1": 4, "d2": 5}[target]][0]
    return NetworkParams.from_flat(g, params.n_hidden)


def save_params_csv(params: NetworkParams, path) -> None:
    """One named value per line; the header names the flat layout."""
    n = params.n_hidden
    names = (
        [f"hidden_weights[{i}]" for i in range(n)]
        + [f"hidden_biases[{i}]" for i in range(n)]
        + [f"output_weights[{i}]" for i in range(n)]
        + ["output_bias"]
    )
    write_csv(path, ("name", "value"), zip(names, params.to_flat().tolist()))


def load_params_csv(path) -> NetworkParams:
    """Inverse of save_params_csv; round-trips bit-exactly."""
    header, rows = read_csv(path)
    if header != ("name", "value"):
        raise ValueError(f"unexpected parameter CSV header: {','.join(header)!r}")
    if not rows or rows[-1][0] != "output_bias" or (len(rows) - 1) % 3 != 0:
        raise ValueError("parameter CSV does not match the flat layout")
    values = np.array([float(val) for _, val in rows])
    return NetworkParams.from_flat(values, (len(rows) - 1) // 3)
