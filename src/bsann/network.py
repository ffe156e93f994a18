"""Single-input, single-output collocation network with one hidden layer.

The network is N(x) = psi(sum_i v_i * sigmoid(w_i x + b_i) + beta) with a
scalar input. Both derivatives with respect to the input and gradients of
(value, d1, d2) with respect to every parameter are exact closed forms; the
trainer never uses finite differences of the candidate network.

A pass writes into caller-owned PassBuffers, so a training loop that keeps
one set per step allocates no (r, n) array per epoch with the identity head;
eval_batch and param_grad make fresh ones. Parameter gradients come one group
at a time (_group_grads), each a contiguous (r, n) array.

Flat parameter layout (fixed order, length 3n+1), which is also how
NetworkParams stores them:
    hidden_weights[0:n], hidden_biases[n:2n], output_weights[2n:3n], output_bias
"""

from __future__ import annotations

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


def _split_flat(flat: np.ndarray, n: int):
    """Views of the three weight groups and the output bias of a flat vector."""
    return flat[:n], flat[n : 2 * n], flat[2 * n : 3 * n], flat[-1]


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


def _sigmoid_into(z, out, ez, pos):
    """Write sigmoid(z) into out; ez and pos are float scratch of z's shape."""
    # exp is only ever taken of a non-positive argument, so no overflow.
    # maximum(ez, z >= 0) is where(z >= 0, 1, ez) exactly, since 0 <= ez <= 1
    np.greater_equal(z, 0.0, out=pos)
    np.abs(z, out=ez)
    np.negative(ez, out=ez)
    np.exp(ez, out=ez)
    np.maximum(ez, pos, out=out)
    ez += 1.0
    out /= ez
    return out


def _sigmoid_arr(z: np.ndarray) -> np.ndarray:
    return _sigmoid_into(z, *np.empty((3,) + z.shape))


# the (r, n) planes of a pass
_PLANES = ("x", "w", "ww", "z", "ez", "pos", "s", "s1", "s2", "s1w", "s2ww",
           "v", "vs1", "s3", "g0", "g1", "g2")


class PassBuffers:
    """Caller-owned arrays that network passes at one fixed input vector overwrite.

    Every (r, n) operand is a full same-shape array: the inputs repeated along
    each row once, and w, v and w*w copied along each column once per pass.
    numpy runs a same-shape product as one flat loop, several times faster at
    these sizes than the same product broadcast from an (n,) vector. The
    buffers also hold the parameter-gradient products that _group_grads emits
    one group at a time; a pass that only needs the values fills them too.
    """

    def __init__(self, x: np.ndarray, n: int):
        x = np.asarray(x, dtype=float).ravel()
        r = x.size
        for name, plane in zip(_PLANES, np.empty((len(_PLANES), r, n))):
            setattr(self, name, plane)
        self.x[:] = x[:, None]
        self.p, self.px, self.pxx = np.empty((3, r))
        # g_p, g_px and g_pxx of the output bias
        self.one, self.zero = np.ones((r, 1)), np.zeros((r, 1))

    @staticmethod
    def nbytes(r: int, n: int) -> int:
        """Bytes that PassBuffers(x, n) allocates for r inputs."""
        return 8 * len(_PLANES) * r * n + 40 * r


def _hidden_pass(w, b, v, beta, h: PassBuffers):
    """Fill h for one parameter set: the hidden sigmoids s with their input
    derivatives s1, s2 and s3, the products s1*w, s2*w*w, v*s1, and the
    pre-activation head P with its first two input derivatives in h.p, h.px
    and h.pxx."""
    np.copyto(h.w, w)
    np.multiply(h.w, h.w, out=h.ww)
    z = np.multiply(h.x, h.w, out=h.z)
    z += b
    _sigmoid_into(z, h.s, h.ez, h.pos)
    t, u = h.z, h.ez  # free from here on
    # s1 = s*(1 - s), s2 = s1*(1 - 2s)
    np.subtract(1.0, h.s, out=t)
    np.multiply(h.s, t, out=h.s1)
    np.multiply(h.s, 2.0, out=t)
    np.subtract(1.0, t, out=t)
    np.multiply(h.s1, t, out=h.s2)
    np.multiply(h.s1, h.w, out=h.s1w)
    np.multiply(h.s2, h.ww, out=h.s2ww)
    np.matmul(h.s, v, out=h.p)
    h.p += beta
    np.matmul(h.s1w, v, out=h.px)
    np.matmul(h.s2ww, v, out=h.pxx)
    np.copyto(h.v, v)
    np.multiply(h.v, h.s1, out=h.vs1)
    # s3 = s1*((1 - 6s) + 6s*s)
    np.multiply(h.s, 6.0, out=t)
    np.subtract(1.0, t, out=u)
    t *= h.s
    u += t
    np.multiply(h.s1, u, out=h.s3)


def _forward(w, b, v, beta, h: PassBuffers, output_activation=IDENTITY):
    """value, d1 and d2 at h's inputs. With the sigmoid head q = sigmoid(P), the
    columns that its parameter-gradient chain rule needs are kept in h.head."""
    _hidden_pass(w, b, v, beta, h)
    p, px, pxx = h.p, h.px, h.pxx
    if output_activation == IDENTITY:
        return p, px, pxx
    q = _sigmoid_arr(p)
    q1 = q * (1.0 - q)
    q2 = q1 * (1.0 - 2.0 * q)
    q3 = q1 * (1.0 - 6.0 * q + 6.0 * q * q)
    h.head = tuple(col[:, None] for col in (q1, q2, q3, px, pxx))
    return q, q1 * px, q2 * px * px + q1 * pxx


def _group_grads(h: PassBuffers, group: int, output_activation=IDENTITY):
    """Parameter gradients (g_value, g_d1, g_d2) of one group at h's inputs,
    after _forward: group 0 the hidden weights, 1 the hidden biases,
    2 the output weights, each (r, n), and 3 the output bias, (r, 1).

    With the identity head the arrays are views into h, overwritten by the
    next group; the sigmoid head's chain rule returns new ones. The in-place
    sequences evaluate exactly these products of P, P_x and P_xx, left to
    right: regrouping one changes its last bits, and training amplifies those
    into visibly different solutions.
      g_p   = [v*s1*x,                  v*s1,     s,      1]
      g_px  = [v*((s2*w)*x + s1),       v*s2*w,   s1*w,   0]
      g_pxx = [v*((s3*ww)*x + 2w*s2),   v*s3*ww,  s2*ww,  0]
    """
    t, u = h.z, h.ez
    if group == 0:
        np.multiply(h.vs1, h.x, out=h.g0)
        np.multiply(h.s2, h.w, out=t)
        t *= h.x
        t += h.s1
        np.multiply(h.v, t, out=h.g1)
        np.multiply(h.s3, h.ww, out=t)
        t *= h.x
        np.multiply(h.w, 2.0, out=u)
        u *= h.s2
        t += u
        np.multiply(h.v, t, out=h.g2)
        g = (h.g0, h.g1, h.g2)
    elif group == 1:
        np.multiply(h.v, h.s2, out=h.g1)
        h.g1 *= h.w
        np.multiply(h.v, h.s3, out=h.g2)
        h.g2 *= h.ww
        g = (h.vs1, h.g1, h.g2)
    elif group == 2:
        g = (h.s, h.s1w, h.s2ww)
    else:
        g = (h.one, h.zero, h.zero)
    if output_activation == IDENTITY:
        return g
    # chain rule of the sigmoid head, in new arrays
    g_p, g_px, g_pxx = g
    q1, q2, q3, px, pxx = h.head
    return (
        q1 * g_p,
        q2 * g_p * px + q1 * g_px,
        q3 * g_p * (px * px) + q2 * (2.0 * px * g_px + pxx * g_p) + q1 * g_pxx,
    )


def eval_batch(params: NetworkParams, x: np.ndarray, output_activation: str = IDENTITY):
    """Vectorized (value, d1, d2) arrays over a vector of inputs."""
    _check_activation(output_activation)
    h = PassBuffers(x, params.n_hidden)
    return _forward(*_split_flat(params.flat, params.n_hidden), h, output_activation)


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
    _forward(*_split_flat(params.flat, params.n_hidden), h, output_activation)
    pick = {"value": 0, "d1": 1, "d2": 2}[target]
    g = [_group_grads(h, group, output_activation)[pick][0].copy() for group in range(4)]
    return NetworkParams.from_flat(np.concatenate(g), params.n_hidden)


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
