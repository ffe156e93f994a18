"""Single-input, single-output collocation network with one hidden layer.

The network is N(x) = psi(sum_i v_i * sigmoid(w_i x + b_i) + beta) with a
scalar input. Both derivatives with respect to the input and gradients of
(value, d1, d2) with respect to every parameter are exact closed forms; the
trainer never uses finite differences of the candidate network.

A pass (_values, then _grads for the parameter gradients) writes into
caller-owned PassBuffers, so a training loop that keeps one set per step
allocates no (r, n) array per epoch with the identity head. Planes that one
operation treats alike are stacked so that one numpy call covers them all;
every product still keeps its operands and its left-to-right order, so a
layout change changes no output bit.

Flat parameter layout (fixed order, length 3n+1), which is also how
NetworkParams stores them:
    hidden_weights[0:n], hidden_biases[n:2n], output_weights[2n:3n], output_bias
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvio import read_csv, write_csv

IDENTITY = "identity"
SIGMOID = "sigmoid"
ACTIVATIONS = (IDENTITY, SIGMOID)


def _check_activation(name: str) -> None:
    if name not in ACTIVATIONS:
        raise ValueError(f"unknown output activation {name!r}; expected one of {ACTIVATIONS}")


@dataclass(frozen=True)
class NetworkParams:
    """Parameters of a 1-n-1 network: one read-only vector in the flat layout."""

    flat: np.ndarray

    def __post_init__(self):
        flat = np.array(self.flat, dtype=float)
        if flat.ndim != 1 or flat.size < 4 or (flat.size - 1) % 3:
            raise ValueError(f"flat vector must have length 3n+1 with n >= 1, got {flat.shape}")
        flat.flags.writeable = False
        object.__setattr__(self, "flat", flat)

    @property
    def n_hidden(self) -> int:
        return (self.flat.size - 1) // 3

    @property
    def size(self) -> int:
        return self.flat.size

    def to_flat(self) -> np.ndarray:
        return self.flat.copy()

    @classmethod
    def from_flat(cls, flat: np.ndarray, n_hidden: int) -> "NetworkParams":
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (3 * n_hidden + 1,):
            raise ValueError(f"flat vector must have length {3 * n_hidden + 1}, got {flat.shape}")
        return cls(flat)


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


def aligned_nbytes(*shapes) -> int:
    """Bytes of aligned_empty(*shapes)'s block: whole 64-byte lines per view, and
    7 float64s of slack to reach a line from any 8-byte-aligned block start."""
    return 56 + 64 * sum(-(-math.prod(shape) // 8) for shape in shapes)


def aligned_empty(*shapes) -> list:
    """One uninitialized float64 C-contiguous view per shape tuple, all from one
    block, each padded to whole 64-byte cache lines and starting on one, so
    where a view lies depends only on the shapes. A vectorized loop over an
    array that starts off a line splits loads across lines, which made an epoch
    10-20 % slower wherever malloc happened to put a step's buffers."""
    block = np.empty(aligned_nbytes(*shapes) // 8)
    start = -block.__array_interface__["data"][0] % 64 // 8
    views = []
    for shape in shapes:
        views.append(block[start : start + math.prod(shape)].reshape(shape))
        start += -(-views[-1].size // 8) * 8
    return views


def _sigmoid_into(z, out, ez):
    """Write sigmoid(z) into out; ez is float scratch of z's shape."""
    # exp is only ever taken of a non-positive argument, so no overflow. maximum(ez,
    # sign(z)) is where(z >= 0, 1, ez) exactly: 0 <= ez <= 1, and ez = 1 at z = 0
    np.sign(z, out=out)
    np.abs(z, out=ez)
    np.negative(ez, out=ez)
    np.exp(ez, out=ez)
    np.maximum(ez, out, out=out)
    ez += 1.0
    out /= ez
    return out


def _sigmoid_arr(z: np.ndarray) -> np.ndarray:
    return _sigmoid_into(z, *np.empty((2,) + z.shape))


# (r, n) planes of PassBuffers' one block, in order: x twice, (w, w*w),
# v three times, three scratch planes, (s1, s2, s3), and the gradient block
# of 3 groups by 3 kinds
_PLANES = 2 + 2 + 3 + 3 + 3 + 9


class PassBuffers:
    """Caller-owned arrays that network passes at one fixed input vector overwrite.

    A pass reads `params` (the flat layout), which the caller writes. Every
    (r, n) operand is a full plane, and planes treated alike lie side by side:
    (w, w*w), (v, v, v), (s1, s2, s3) and g[group, kind], the gradients of
    (value, d1, d2) for the hidden weights, hidden biases and output weights;
    g[2, 0] is s itself. numpy runs a same-shape contiguous operation as one
    flat loop, far faster at these sizes than a broadcast or strided one. out
    holds (value, d1, d2): (P, P_x, P_xx) of P = s @ v + beta, from one
    batched matmul of g[2], or the sigmoid head's. Every array comes from one
    aligned_empty call on shapes(r, n), so each starts on a cache line. Views
    are bound once, here.
    """

    def __init__(self, x: np.ndarray, n: int):
        x = np.asarray(x, dtype=float).ravel()
        r = x.size
        self.params, planes, self.out, self.one, self.zero = aligned_empty(*self.shapes(r, n))
        self.pw, self.pb, self.pv = self.params[: 3 * n].reshape(3, n)
        self.xx, self.wq, self.vvv, self.tmp, self.sd, g = np.split(planes, [2, 4, 7, 10, 13])
        self.xx[:] = x[:, None]
        self.x, self.w, self.ww, self.vv = self.xx[0], self.wq[0], self.wq[1], self.vvv[:2]
        self.tmp0, self.tmp1, self.tmp2 = self.tmp
        self.s1, self.s2, self.s3 = self.sd
        self.s12, self.s23 = self.sd[:2], self.sd[1:]
        self.g = g.reshape(3, 3, r, n)
        g_w, self.g_b, self.g_v = self.g
        self.g_w0, self.g_w1, self.g_w2 = g_w
        self.g_b0, self.s, self.g_v1, self.g_v2 = self.g_b[0], *self.g_v
        self.g_w12, self.g_b12, self.g_v12 = g_w[1:], self.g_b[1:], self.g_v[1:]
        self.p = self.out[0]
        self.one[:], self.zero[:] = 1.0, 0.0  # the output bias's g_value; g_d1, g_d2

    @staticmethod
    def shapes(r: int, n: int) -> tuple:
        """Shapes of params, the plane block, out, one and zero for r inputs."""
        return (3 * n + 1,), (_PLANES, r, n), (3, r), (r, 1), (r, 1)


def _values(h: PassBuffers, output_activation=IDENTITY) -> np.ndarray:
    """Fill and return h.out, (value, d1, d2) at h's inputs for h.params; on the
    way, w, w*w, s with s1, s2 and s3, and the output-weight gradients. With
    the sigmoid head q = sigmoid(P), h.head keeps the chain rule's columns."""
    np.copyto(h.w, h.pw)
    np.multiply(h.w, h.w, out=h.ww)
    z = np.multiply(h.x, h.w, out=h.tmp0)
    z += h.pb
    s = _sigmoid_into(z, h.s, h.tmp1)
    # the factors 1 - s, 1 - 2s and 1 - 6s in one call, with 2s and 6s held
    # in the output-weight planes that s1*w and s2*ww overwrite below;
    # s1 = s*(1 - s), s2 = s1*(1 - 2s), s3 = s1*((1 - 6s) + 6s*s)
    np.multiply(s, 2.0, out=h.g_v1)
    np.multiply(s, 6.0, out=h.g_v2)
    np.subtract(1.0, h.g_v, out=h.tmp)
    np.multiply(s, h.tmp0, out=h.s1)
    np.multiply(h.s1, h.tmp1, out=h.s2)
    np.multiply(h.g_v2, s, out=h.g_v2)
    np.add(h.tmp2, h.g_v2, out=h.tmp2)
    np.multiply(h.s1, h.tmp2, out=h.s3)
    np.multiply(h.s12, h.wq, out=h.g_v12)
    np.matmul(h.g_v, h.pv, out=h.out)
    np.add(h.p, h.params[-1], out=h.p)
    if output_activation != IDENTITY:
        p, px, pxx = h.out.copy()
        q = _sigmoid_arr(p)
        q1 = q * (1.0 - q)
        q2 = q1 * (1.0 - 2.0 * q)
        q3 = q1 * (1.0 - 6.0 * q + 6.0 * q * q)
        h.head = tuple(col[:, None] for col in (q1, q2, q3, px, pxx))
        h.out[:] = q, q1 * px, q2 * px * px + q1 * pxx
    return h.out


def _head_chain(head, g_p, g_px, g_pxx):
    """Chain rule of the sigmoid head: (g_value, g_d1, g_d2) from the
    gradients of P, P_x and P_xx."""
    q1, q2, q3, px, pxx = head
    return (
        q1 * g_p,
        q2 * g_p * px + q1 * g_px,
        q3 * g_p * (px * px) + q2 * (2.0 * px * g_px + pxx * g_p) + q1 * g_pxx,
    )


def _grads(h: PassBuffers, output_activation=IDENTITY):
    """Fill h.g after _values; return the output bias's (g_value, g_d1, g_d2)
    as (r, 1) columns. Each product keeps the operands and left-to-right order
    of the expression that it evaluates: regrouping one changes its last bits,
    and training amplifies those into visibly different solutions.
      g_p   = [v*s1*x,                  v*s1,     s,      1]
      g_px  = [v*((s2*w)*x + s1),       v*s2*w,   s1*w,   0]
      g_pxx = [v*((s3*ww)*x + 2w*s2),   v*s3*ww,  s2*ww,  0]
    """
    t = h.tmp0
    np.copyto(h.vvv, h.pv)
    np.multiply(h.vvv, h.sd, out=h.g_b)
    np.multiply(h.g_b12, h.wq, out=h.g_b12)
    np.multiply(h.g_b0, h.x, out=h.g_w0)
    np.multiply(h.s23, h.wq, out=h.g_w12)
    np.multiply(h.g_w12, h.xx, out=h.g_w12)
    np.add(h.g_w1, h.s1, out=h.g_w1)
    np.multiply(h.w, 2.0, out=t)
    t *= h.s2
    np.add(h.g_w2, t, out=h.g_w2)
    np.multiply(h.vv, h.g_w12, out=h.g_w12)
    if output_activation == IDENTITY:
        return h.one, h.zero, h.zero
    kinds = h.g.swapaxes(0, 1)
    kinds[...] = _head_chain(h.head, *kinds)
    return _head_chain(h.head, h.one, h.zero, h.zero)


def eval_batch(params: NetworkParams, x: np.ndarray, output_activation: str = IDENTITY):
    """Vectorized (value, d1, d2) arrays over a vector of inputs."""
    _check_activation(output_activation)
    h = PassBuffers(x, params.n_hidden)
    h.params[:] = params.flat
    return tuple(_values(h, output_activation))


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
    h = PassBuffers(np.array([float(x)]), params.n_hidden)
    h.params[:] = params.flat
    _values(h, output_activation)
    bias = _grads(h, output_activation)
    pick = {"value": 0, "d1": 1, "d2": 2}[target]
    flat = np.concatenate((h.g[:, pick, 0].ravel(), bias[pick][0]))
    return NetworkParams.from_flat(flat, params.n_hidden)


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
