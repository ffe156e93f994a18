"""Run configuration: flat key=value files with dotted keys.

A config file is plain text, one `section.key = value` per line, `#`
comments and blank lines ignored. Every range rule of the underlying types
is checked here before any computation starts; violations raise ConfigError
carrying the offending field path, which the CLI turns into exit status 2.

The four shipped problems cover the built-in catalog; `problem.name =
custom` builds an operator from expression strings (see exprs) so other
linear parabolic problems fit without code changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .exprs import ExpressionError, compile_expression
from .mapping import ARCTAN, TRUNCATED, DomainMap, from_x, make_arctan_map, truncated_map
from .network import IDENTITY, SIGMOID
from .problems import (
    INITIAL_DATA,
    TERMINAL_PAYOFF,
    ProblemSpec,
    european_call,
    european_put,
    fractional_manufactured,
)
from .solver import build_collocation
from .stepper import SpatialOperator, TimeGrid, make_time_grid
from .trainer import OPTIMIZERS, TrainConfig, workspace_nbytes

PROBLEM_NAMES = ("european_call", "european_put", "fractional_manufactured", "custom")

# no single buffer that a run sizes from its config may pass this many bytes:
# a step's training workspace, a step's cost breakdown, or a solve's surface
# and kept breakdowns. A size key past it is a config error, found before
# anything is allocated.
MAX_BUFFER_BYTES = 1 << 30


class ConfigError(ValueError):
    """Invalid configuration; `field` is the dotted key path at fault."""

    def __init__(self, field_path: str, message: str):
        self.field = field_path
        super().__init__(f"{field_path}: {message}")


def parse_kv_text(text: str) -> Dict[str, str]:
    """Parse `key = value` lines; duplicates and malformed lines are errors."""
    out: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}", "empty key")
        if key in out:
            raise ConfigError(key, "duplicate key")
        out[key] = value
    return out


# every key the schema understands; None marks "required depends on context"
_KNOWN_KEYS = {
    "problem.name", "problem.rate", "problem.sigma", "problem.strike", "problem.maturity",
    "problem.gamma1", "problem.gamma2", "problem.gamma3", "problem.forcing",
    "problem.data", "problem.data_kind", "problem.left_bc", "problem.right_bc",
    "problem.exact",
    "map.kind", "map.s_max", "map.l", "map.reference_price",
    "grid.n_steps", "grid.alpha", "grid.theta",
    "points.count",
    "network.n_hidden", "network.seed", "network.init_scale", "network.output_activation",
    "training.optimizer", "training.eta", "training.epochs_first", "training.epochs_rest",
    "output.dir",
    "compare.optimizers",
    "sweep.alphas",
    "lr.candidates", "lr.probe_epochs",
}


def _as_float(raw: Dict[str, str], key: str, default: Optional[float] = None) -> Optional[float]:
    if key not in raw:
        return default
    try:
        value = float(raw[key])
    except ValueError:
        raise ConfigError(key, f"not a number: {raw[key]!r}") from None
    if not np.isfinite(value):
        raise ConfigError(key, f"not a finite number: {raw[key]!r}")
    return value


def _as_int(raw: Dict[str, str], key: str, default: Optional[int] = None) -> Optional[int]:
    if key not in raw:
        return default
    try:
        return int(raw[key])
    except ValueError:
        raise ConfigError(key, f"not an integer: {raw[key]!r}") from None


def _as_floats(raw: Dict[str, str], key: str) -> Optional[Tuple[float, ...]]:
    if key not in raw:
        return None
    items = [piece.strip() for piece in raw[key].split(",") if piece.strip()]
    if not items:
        raise ConfigError(key, "empty list")
    try:
        return tuple(float(piece) for piece in items)
    except ValueError:
        raise ConfigError(key, f"not a number list: {raw[key]!r}") from None


def _require(raw: Dict[str, str], key: str) -> str:
    if key not in raw:
        raise ConfigError(key, "required key is missing")
    return raw[key]


def _expr(raw: Dict[str, str], key: str, variables) -> Callable:
    text = _require(raw, key)
    try:
        return compile_expression(text, variables)
    except ExpressionError as exc:
        raise ConfigError(key, str(exc)) from None


@dataclass(frozen=True)
class RunConfig:
    """Validated run description; builders below turn it into solver objects."""

    problem_name: str
    rate: float
    sigma: float
    strike: Optional[float]
    maturity: float
    custom: Dict[str, str]            # raw expression strings for custom problems
    map_kind: str
    s_max: float
    quantile: float
    reference_price: Optional[float]
    n_steps: int
    alpha: float
    theta: float
    n_points: int
    n_hidden: int
    seed: int
    init_scale: float
    output_activation: str
    optimizer: str
    eta: float
    epochs_first: int
    epochs_rest: int
    out_dir: str
    plots: bool                       # SVG output; only --no-plots turns it off
    compare_optimizers: Tuple[str, ...]
    sweep_alphas: Optional[Tuple[float, ...]]
    lr_candidates: Optional[Tuple[float, ...]]
    lr_probe_epochs: int


def config_from_mapping(raw: Dict[str, str]) -> RunConfig:
    """Validate a parsed key map into a RunConfig; ConfigError names the field."""
    for key in raw:
        if key not in _KNOWN_KEYS:
            raise ConfigError(key, "unknown key")

    name = _require(raw, "problem.name")
    if name not in PROBLEM_NAMES:
        raise ConfigError("problem.name", f"must be one of {PROBLEM_NAMES}, got {name!r}")

    rate = _as_float(raw, "problem.rate", 0.05)
    default_sigma = 0.25 if name == "fractional_manufactured" else 0.2
    sigma = _as_float(raw, "problem.sigma", default_sigma)
    strike = _as_float(raw, "problem.strike", 10.0 if name in ("european_call", "european_put") else None)
    maturity = _as_float(raw, "problem.maturity", 1.0)
    if not maturity > 0.0:
        raise ConfigError("problem.maturity", f"must be positive, got {maturity}")
    if name in ("european_call", "european_put"):
        if not sigma > 0.0:
            raise ConfigError("problem.sigma", f"must be positive, got {sigma}")
        if strike is None or not strike > 0.0:
            raise ConfigError("problem.strike", f"must be positive, got {strike}")
        if rate < 0.0:
            raise ConfigError("problem.rate", f"must be non-negative for {name}, got {rate}")

    custom: Dict[str, str] = {}
    if name == "custom":
        for key in ("problem.gamma1", "problem.gamma2", "problem.gamma3",
                    "problem.data", "problem.data_kind", "problem.left_bc",
                    "problem.right_bc"):
            custom[key] = _require(raw, key)
        for key in ("problem.forcing", "problem.exact"):
            if key in raw:
                custom[key] = raw[key]
        if custom["problem.data_kind"] not in (TERMINAL_PAYOFF, INITIAL_DATA):
            raise ConfigError(
                "problem.data_kind",
                f"must be {TERMINAL_PAYOFF!r} or {INITIAL_DATA!r}, got {custom['problem.data_kind']!r}",
            )
        _as_float(raw, "problem.gamma3")  # numeric check up front
    else:
        for key in ("problem.gamma1", "problem.gamma2", "problem.gamma3",
                    "problem.forcing", "problem.data", "problem.data_kind",
                    "problem.left_bc", "problem.right_bc", "problem.exact"):
            if key in raw:
                raise ConfigError(key, f"only valid when problem.name = custom, not {name!r}")

    map_kind = _require(raw, "map.kind")
    if map_kind not in (TRUNCATED, ARCTAN):
        raise ConfigError("map.kind", f"must be {TRUNCATED!r} or {ARCTAN!r}, got {map_kind!r}")
    s_max = _as_float(raw, "map.s_max", 0.0)
    if map_kind == TRUNCATED and not s_max > 0.0:
        raise ConfigError("map.s_max", f"must be positive for truncated maps, got {s_max}")
    quantile = _as_float(raw, "map.l", 0.6)
    if not 0.0 < quantile < 1.0:
        raise ConfigError("map.l", f"must lie in (0, 1), got {quantile}")
    reference_price = _as_float(raw, "map.reference_price", None)
    if map_kind == ARCTAN:
        anchor = reference_price if reference_price is not None else strike
        if anchor is None or not anchor > 0.0:
            raise ConfigError(
                "map.reference_price",
                "arctan maps need a positive reference price (or problem.strike)",
            )

    n_steps = _as_int(raw, "grid.n_steps")
    if n_steps is None or n_steps < 1:
        raise ConfigError("grid.n_steps", f"must be an integer >= 1, got {raw.get('grid.n_steps')!r}")
    alpha = _as_float(raw, "grid.alpha", 1.0)
    if not 0.0 < alpha <= 1.0:
        raise ConfigError("grid.alpha", f"must lie in (0, 1], got {alpha}")
    theta = _as_float(raw, "grid.theta", 1.0)
    if not 0.0 <= theta <= 1.0:
        raise ConfigError("grid.theta", f"must lie in [0, 1], got {theta}")
    if alpha < 1.0 and theta != 1.0:
        raise ConfigError("grid.theta", "fractional marching is implicit only; set theta = 1")
    if name in ("european_call", "european_put") and alpha != 1.0:
        raise ConfigError("grid.alpha", f"{name} is an ordinary problem; set grid.alpha = 1")
    if name == "fractional_manufactured":
        if not 0.0 < alpha < 1.0:
            raise ConfigError("grid.alpha", "fractional benchmark needs alpha in (0, 1)")
        if map_kind != TRUNCATED or s_max != 1.0:
            raise ConfigError("map.s_max", "fractional benchmark lives on [0, 1]; use truncated s_max = 1")

    n_points = _as_int(raw, "points.count")
    if n_points is None or n_points < 2:
        raise ConfigError("points.count", f"must be an integer >= 2, got {raw.get('points.count')!r}")
    if map_kind == ARCTAN:
        if n_points < 3:
            raise ConfigError("points.count", "arctan grids need at least 3 points")
        if (n_points - 2) / (n_points - 1) >= DomainMap.right_eval_point:
            raise ConfigError("points.count", f"with {n_points} points the last interior "
                              f"abscissa reaches the x = 1 surrogate {DomainMap.right_eval_point}")

    n_hidden = _as_int(raw, "network.n_hidden")
    if n_hidden is None or n_hidden < 1:
        raise ConfigError("network.n_hidden", f"must be an integer >= 1, got {raw.get('network.n_hidden')!r}")
    seed = _as_int(raw, "network.seed", 0)
    if seed < 0:
        raise ConfigError("network.seed", f"must be >= 0, got {seed}")
    init_scale = _as_float(raw, "network.init_scale", 0.01)
    if not init_scale > 0.0:
        raise ConfigError("network.init_scale", f"must be positive, got {init_scale}")
    output_activation = raw.get("network.output_activation", IDENTITY)
    if output_activation not in (IDENTITY, SIGMOID):
        raise ConfigError(
            "network.output_activation",
            f"must be {IDENTITY!r} or {SIGMOID!r}, got {output_activation!r}",
        )

    optimizer = raw.get("training.optimizer", "adam")
    if optimizer not in OPTIMIZERS:
        raise ConfigError("training.optimizer", f"must be one of {OPTIMIZERS}, got {optimizer!r}")
    eta = _as_float(raw, "training.eta", 0.03)
    if not 0.0 < eta < 1.0:
        raise ConfigError("training.eta", f"must lie in (0, 1), got {eta}")
    epochs_first = _as_int(raw, "training.epochs_first", 5000)
    epochs_rest = _as_int(raw, "training.epochs_rest", 1200)
    if epochs_first < 1:
        raise ConfigError("training.epochs_first", f"must be >= 1, got {epochs_first}")
    if epochs_rest < 1:
        raise ConfigError("training.epochs_rest", f"must be >= 1, got {epochs_rest}")

    out_dir = raw.get("output.dir", "out")

    compare_raw = raw.get("compare.optimizers", "adam,sgd,rmsprop")
    compare = tuple(piece.strip() for piece in compare_raw.split(",") if piece.strip())
    if not compare:
        raise ConfigError("compare.optimizers", "empty list")
    for piece in compare:
        if piece not in OPTIMIZERS:
            raise ConfigError("compare.optimizers", f"unknown optimizer {piece!r}")
    if len(set(compare)) != len(compare):
        raise ConfigError("compare.optimizers", f"duplicate optimizer in {compare_raw!r}")

    sweep_alphas = _as_floats(raw, "sweep.alphas")
    if sweep_alphas is not None:
        for a in sweep_alphas:
            if not 0.0 < a < 1.0:
                raise ConfigError("sweep.alphas", f"each alpha must lie in (0, 1), got {a}")

    lr_candidates = _as_floats(raw, "lr.candidates")
    if lr_candidates is not None:
        for cand in lr_candidates:
            if not 0.0 < cand < 1.0:
                raise ConfigError("lr.candidates", f"each candidate must lie in (0, 1), got {cand}")
    lr_probe_epochs = _as_int(raw, "lr.probe_epochs", 800)
    if lr_probe_epochs < 1:
        raise ConfigError("lr.probe_epochs", f"must be >= 1, got {lr_probe_epochs}")

    _check_sizes(n_points, n_hidden, n_steps, epochs_first, epochs_rest, lr_probe_epochs)

    return RunConfig(
        problem_name=name,
        rate=rate,
        sigma=sigma,
        strike=strike,
        maturity=maturity,
        custom=custom,
        map_kind=map_kind,
        s_max=s_max,
        quantile=quantile,
        reference_price=reference_price,
        n_steps=n_steps,
        alpha=alpha,
        theta=theta,
        n_points=n_points,
        n_hidden=n_hidden,
        seed=seed,
        init_scale=init_scale,
        output_activation=output_activation,
        optimizer=optimizer,
        eta=eta,
        epochs_first=epochs_first,
        epochs_rest=epochs_rest,
        out_dir=out_dir,
        plots=True,
        compare_optimizers=compare,
        sweep_alphas=sweep_alphas,
        lr_candidates=lr_candidates,
        lr_probe_epochs=lr_probe_epochs,
    )


def _check_sizes(n_points, n_hidden, n_steps, epochs_first, epochs_rest, lr_probe_epochs) -> None:
    """Name the size key whose buffer would pass MAX_BUFFER_BYTES."""
    limit = MAX_BUFFER_BYTES
    if workspace_nbytes(n_points, 1) > limit:
        raise ConfigError("points.count", f"{n_points} points need a training workspace "
                          f"of more than {limit} bytes")
    if workspace_nbytes(n_points, n_hidden) > limit:
        raise ConfigError("network.n_hidden", f"{n_hidden} hidden units on {n_points} points "
                          f"need a training workspace of more than {limit} bytes")
    # a breakdown holds 4 doubles per epoch, plus the starting cost
    for key, epochs in (("training.epochs_first", epochs_first),
                        ("training.epochs_rest", epochs_rest),
                        ("lr.probe_epochs", lr_probe_epochs)):
        if 32 * (epochs + 1) > limit:
            raise ConfigError(key, f"the cost breakdown of {epochs} epochs passes {limit} bytes")
    # a solve keeps the solution surface and every step's breakdown
    kept = 8 * (n_steps + 1) * n_points + 32 * (epochs_first + 1 + (n_steps - 1) * (epochs_rest + 1))
    if kept > limit:
        raise ConfigError("grid.n_steps", f"{n_steps} steps keep more than {limit} bytes "
                          "of solution surface and cost breakdowns")


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from None
    return config_from_mapping(parse_kv_text(text))


def _build_custom_problem(cfg: RunConfig) -> ProblemSpec:
    raw = dict(cfg.custom)
    raw.setdefault("problem.forcing", "0")
    gamma1 = _expr(raw, "problem.gamma1", ["S"])
    gamma2 = _expr(raw, "problem.gamma2", ["S"])
    gamma3 = float(raw["problem.gamma3"])
    forcing = _expr(raw, "problem.forcing", ["S", "t"])
    data = _expr(raw, "problem.data", ["S"])
    left = _expr(raw, "problem.left_bc", ["S", "t"])
    right = _expr(raw, "problem.right_bc", ["S", "t"])
    exact = None
    if "problem.exact" in raw:
        exact = _expr(raw, "problem.exact", ["S", "t"])

    # a function that is not finite where training evaluates it would only
    # surface later as a diverged cost, so name its key here instead
    dmap = build_map(cfg)
    s = from_x(dmap, build_collocation(dmap, cfg.n_points).points)
    if dmap.kind == ARCTAN:
        s = s[:-1]  # the x = 1 surrogate never enters training
    samples = [("problem.gamma1", gamma1, (s,)), ("problem.gamma2", gamma2, (s,)),
               ("problem.data", data, (s,))]
    for t in (0.0, cfg.maturity):
        samples += [("problem.forcing", forcing, (s, t)), ("problem.left_bc", left, (s[0], t)),
                    ("problem.right_bc", right, (s[-1], t))]
        if exact is not None:
            samples.append(("problem.exact", exact, (s, t)))
    with np.errstate(all="ignore"):
        for key, fn, args in samples:
            if not np.all(np.isfinite(fn(*args))):
                raise ConfigError(key, "is not finite at every training price point")

    operator = SpatialOperator(gamma1=gamma1, gamma2=gamma2, gamma3=gamma3, forcing=forcing)
    return ProblemSpec(
        name="custom",
        alpha=cfg.alpha,
        rate=cfg.rate,
        sigma=cfg.sigma,
        maturity=cfg.maturity,
        operator=operator,
        data_kind=raw["problem.data_kind"],
        data=data,
        left_bc=lambda s, t: float(left(s, t)),
        right_bc=lambda s, t: float(right(s, t)),
        exact=exact,
        strike=cfg.strike,
    )


def build_problem(cfg: RunConfig, alpha: Optional[float] = None) -> ProblemSpec:
    """Instantiate the configured problem; alpha overrides for sweeps."""
    a = cfg.alpha if alpha is None else alpha
    if cfg.problem_name == "european_call":
        return european_call(cfg.rate, cfg.sigma, cfg.strike, cfg.maturity)
    if cfg.problem_name == "european_put":
        return european_put(cfg.rate, cfg.sigma, cfg.strike, cfg.maturity)
    if cfg.problem_name == "fractional_manufactured":
        return fractional_manufactured(a, cfg.rate, cfg.sigma, cfg.maturity)
    return _build_custom_problem(cfg)


def build_map(cfg: RunConfig) -> DomainMap:
    if cfg.map_kind == TRUNCATED:
        return truncated_map(cfg.s_max)
    anchor = cfg.reference_price if cfg.reference_price is not None else cfg.strike
    return make_arctan_map(anchor, cfg.quantile)


def build_grid(cfg: RunConfig) -> TimeGrid:
    return make_time_grid(cfg.n_steps, cfg.maturity, cfg.alpha)


def build_train_config(cfg: RunConfig) -> TrainConfig:
    return TrainConfig(
        optimizer=cfg.optimizer,
        eta=cfg.eta,
        epochs_first=cfg.epochs_first,
        epochs_rest=cfg.epochs_rest,
        seed=cfg.seed,
    )
