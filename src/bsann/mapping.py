"""Domain handling for the semi-infinite price axis.

Two modes: plain truncation at a finite s_max (identity coordinates), and an
arctangent compression of [0, infinity) onto x in [0, 1):

    x(S) = (2/pi) * arctan(S / L),      S(x) = L * tan(pi x / 2)

The characteristic length L is chosen so a reference price (the strike) lands
at a chosen quantile l of the unit interval: L = K / tan(pi l / 2).

Derivatives of a network trained in x-coordinates convert to price
coordinates through

    dU/dS   = d1 / Upsilon(x)
    d2U/dS2 = d2 / Upsilon(x)^2 + Theta(x) * d1 / Upsilon(x)

with Upsilon = dS/dx = L pi / (2 cos^2(pi x / 2)) and
Theta = -2 cos(pi x / 2) sin(pi x / 2) / L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Tuple

import numpy as np

TRUNCATED = "truncated"
ARCTAN = "arctan"
MAP_KINDS = (TRUNCATED, ARCTAN)


@dataclass(frozen=True)
class DomainMap:
    kind: str
    s_max: float = 0.0          # truncated mode: right edge of the price grid
    length: float = 0.0         # arctan mode: characteristic length L
    # arctan mode: the far-field surrogate abscissa standing in for x = 1
    right_eval_point: ClassVar[float] = 0.9999999

    def __post_init__(self):
        if self.kind not in MAP_KINDS:
            raise ValueError(f"unknown map kind {self.kind!r}")
        if self.kind == TRUNCATED and not self.s_max > 0.0:
            raise ValueError(f"truncated map needs s_max > 0, got {self.s_max}")
        if self.kind == ARCTAN and not self.length > 0.0:
            raise ValueError(f"arctan map needs a positive length, got {self.length}")


def truncated_map(s_max: float) -> DomainMap:
    return DomainMap(kind=TRUNCATED, s_max=float(s_max))


def make_arctan_map(reference_price: float, quantile: float = 0.6) -> DomainMap:
    """Arctan map placing reference_price at x = quantile."""
    if not reference_price > 0.0:
        raise ValueError(f"reference_price must be positive, got {reference_price}")
    if not 0.0 < quantile < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {quantile}")
    length = reference_price / math.tan(math.pi * quantile / 2.0)
    return DomainMap(kind=ARCTAN, length=length)


def to_x(dmap: DomainMap, s):
    """Price to solver coordinate. Identity for truncated maps."""
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 0.0):
        raise ValueError("price must be non-negative")
    if dmap.kind == TRUNCATED:
        return s_arr if s_arr.ndim else float(s_arr)
    out = (2.0 / math.pi) * np.arctan(s_arr / dmap.length)
    return out if out.ndim else float(out)


def from_x(dmap: DomainMap, x):
    """Solver coordinate to price, as a new array (a float for scalar input).

    Domain error at or beyond x = 1 for arctan maps.
    """
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0):
        raise ValueError("coordinate must be non-negative")
    if dmap.kind == TRUNCATED:
        out = x_arr.copy()
    elif np.any(x_arr >= 1.0):
        raise ValueError("arctan map is defined for x in [0, 1); use right_eval_point for x = 1")
    else:
        out = dmap.length * np.tan(math.pi * x_arr / 2.0)
    return out if out.ndim else float(out)


def jacobians(dmap: DomainMap, x) -> Tuple[np.ndarray, np.ndarray]:
    """Chain-rule factors (upsilon = dS/dx, theta) at solver coordinates x."""
    x = np.asarray(x, dtype=float)
    if dmap.kind == TRUNCATED:
        return np.ones_like(x), np.zeros_like(x)
    if np.any(x < 0.0) or np.any(x >= 1.0):
        raise ValueError("arctan jacobians are defined for x in [0, 1)")
    half = 0.5 * np.pi * x
    cos_half = np.cos(half)
    upsilon = dmap.length * np.pi / (2.0 * cos_half * cos_half)
    theta = -2.0 * cos_half * np.sin(half) / dmap.length
    return upsilon, theta
