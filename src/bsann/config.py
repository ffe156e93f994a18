"""Run configuration: flat key=value files with dotted keys.

A config file is plain text, one `section.key = value` per line, `#`
comments and blank lines ignored. Every key is declared once, in KEYS: the
RunConfig field it fills, its parser, its default (or REQUIRED), its range
rule, and the problems and map kinds it applies to. RunConfig is made from
KEYS, one field per key plus `plots`. A choice key accepts the tuple that
its owning module checks against (mapping, problems, network, trainer). A
key that is unknown, missing where it is required, out of range or given
where it does not apply raises ConfigError naming the key, and so does each
of the few rules that tie keys together; the CLI turns it into exit status
2 before any computation starts.

`problem.name` selects one of the built-in problems of bsann.problems, or
`custom`, which builds an operator from expression strings (see exprs) so
other linear parabolic problems fit without code changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, make_dataclass
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from .exprs import ExpressionError, compile_expression
from .mapping import ARCTAN, MAP_KINDS, TRUNCATED, DomainMap, from_x, make_arctan_map, truncated_map
from .network import ACTIVATIONS, IDENTITY
from .problems import (
    BUILTIN_NAMES,
    CALL,
    DATA_KINDS,
    FRACTIONAL,
    PUT,
    ProblemSpec,
    european_call,
    european_put,
    fractional_manufactured,
)
from .solver import build_collocation, kept_nbytes
from .stepper import SpatialOperator, TimeGrid, make_time_grid
from .trainer import ADAM, OPTIMIZERS, TrainConfig, workspace_nbytes

CUSTOM = "custom"
PROBLEM_NAMES = BUILTIN_NAMES + (CUSTOM,)
OPTIONS = (CALL, PUT)

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
    """Parse `key = value` lines; duplicates, malformed lines and a `#` in a value are errors."""
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
        if "#" in value:  # an inline comment would silently become part of the value
            raise ConfigError(key, f"'#' in the value {value!r}; comments go on lines of their own")
        if key in out:
            raise ConfigError(key, "duplicate key")
        out[key] = value
    return out


# parsers take (key, text) and name the key when the text does not parse

def _text(key: str, text: str) -> str:
    return text


def _float(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(key, f"not a finite number: {text!r}")
    return value


def _int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(key, f"not an integer: {text!r}") from None


def _items(key: str, text: str) -> Tuple[str, ...]:
    items = tuple(piece.strip() for piece in text.split(",") if piece.strip())
    if not items:
        raise ConfigError(key, "empty list")
    return items


def _floats(key: str, text: str) -> Tuple[float, ...]:
    return tuple(_float(key, piece) for piece in _items(key, text))


def _choice(*options: str) -> Callable[[str, str], str]:
    def parse(key: str, text: str) -> str:
        if text not in options:
            raise ConfigError(key, f"must be one of {options}, got {text!r}")
        return text
    return parse


# range rules: a test of one value (of each item of a list) and what it demands
_POSITIVE = (lambda v: v > 0.0, "must be positive")
_OPEN_UNIT = (lambda v: 0.0 < v < 1.0, "must lie in (0, 1)")


def _at_least(low: int):
    return (lambda v: v >= low, f"must be >= {low}")


def _where(names=PROBLEM_NAMES, kinds=MAP_KINDS) -> Callable[[str, str], bool]:
    return lambda name, kind: name in names and kind in kinds


REQUIRED = object()


@dataclass(frozen=True)
class Key:
    """One config key and the RunConfig field it fills. default may map problem
    names to defaults; a problem missing from that map requires the key. applies
    tests (problem.name, map.kind); where it fails, the key must not be given and
    its field is None."""

    field: str
    parse: Callable[[str, str], Any]
    default: Any = None
    rule: Optional[Tuple[Callable[[Any], bool], str]] = None
    applies: Callable[[str, str], bool] = _where()


_CUSTOM = _where((CUSTOM,))
_BUILTIN = _where(BUILTIN_NAMES)

KEYS: Dict[str, Key] = {
    "problem.name": Key("problem_name", _choice(*PROBLEM_NAMES), REQUIRED),
    "problem.rate": Key("rate", _float, 0.05, None, _BUILTIN),
    "problem.sigma": Key("sigma", _float, {CALL: 0.2, PUT: 0.2, FRACTIONAL: 0.25}, None, _BUILTIN),
    # options price against the strike; a custom problem needs it only to anchor an arctan map
    "problem.strike": Key("strike", _float, {CALL: 10.0, PUT: 10.0}, _POSITIVE,
                          lambda name, kind: name in OPTIONS or (name, kind) == (CUSTOM, ARCTAN)),
    "problem.maturity": Key("maturity", _float, 1.0, _POSITIVE),
    "problem.gamma1": Key("gamma1", _text, REQUIRED, None, _CUSTOM),
    "problem.gamma2": Key("gamma2", _text, REQUIRED, None, _CUSTOM),
    "problem.gamma3": Key("gamma3", _float, REQUIRED, None, _CUSTOM),
    "problem.forcing": Key("forcing", _text, "0", None, _CUSTOM),
    "problem.data": Key("data", _text, REQUIRED, None, _CUSTOM),
    "problem.data_kind": Key("data_kind", _choice(*DATA_KINDS), REQUIRED, None, _CUSTOM),
    "problem.left_bc": Key("left_bc", _text, REQUIRED, None, _CUSTOM),
    "problem.right_bc": Key("right_bc", _text, REQUIRED, None, _CUSTOM),
    "problem.exact": Key("exact", _text, None, None, _CUSTOM),
    "map.kind": Key("map_kind", _choice(*MAP_KINDS), REQUIRED),
    "map.s_max": Key("s_max", _float, REQUIRED, _POSITIVE, _where(kinds=(TRUNCATED,))),
    "map.l": Key("quantile", _float, 0.6, _OPEN_UNIT, _where(kinds=(ARCTAN,))),
    "grid.n_steps": Key("n_steps", _int, REQUIRED, _at_least(1)),
    "grid.alpha": Key("alpha", _float, 1.0, (lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]")),
    # kept so that existing configs parse: every step is implicit
    "grid.theta": Key("theta", _float, 1.0, (lambda v: v == 1.0, "must be 1 (every step is implicit)")),
    "points.count": Key("n_points", _int, REQUIRED, _at_least(2)),
    "network.n_hidden": Key("n_hidden", _int, REQUIRED, _at_least(1)),
    "network.seed": Key("seed", _int, 0, _at_least(0)),
    "network.init_scale": Key("init_scale", _float, 0.01, _POSITIVE),
    "network.output_activation": Key("output_activation", _choice(*ACTIVATIONS), IDENTITY),
    "training.optimizer": Key("optimizer", _choice(*OPTIMIZERS), ADAM),
    "training.eta": Key("eta", _float, 0.03, _OPEN_UNIT),
    "training.epochs_first": Key("epochs_first", _int, 5000, _at_least(1)),
    "training.epochs_rest": Key("epochs_rest", _int, 1200, _at_least(1)),
    "output.dir": Key("out_dir", _text, "out"),
    # every command reads the one config, so the command keys apply to every run
    "compare.optimizers": Key("compare_optimizers", _items, OPTIMIZERS,
                              (lambda v: v in OPTIMIZERS, f"each must be one of {OPTIMIZERS}")),
    "sweep.alphas": Key("sweep_alphas", _floats, None, _OPEN_UNIT),
    "lr.candidates": Key("lr_candidates", _floats, None, _OPEN_UNIT),
    "lr.probe_epochs": Key("lr_probe_epochs", _int, 800, _at_least(1)),
}


# one field per KEYS row, in KEYS order, plus plots (SVG output), which only --no-plots
# sets. Before Python 3.12 make_dataclass sets __module__ to `types`, hiding it from pickle.
RunConfig = make_dataclass(
    "RunConfig", [spec.field for spec in KEYS.values()] + ["plots"], frozen=True,
    namespace={"__module__": __name__, "__doc__": "Validated run description; the builders "
               "below turn it into solver objects. A field whose key does not apply is None."})


def _resolve(raw: Dict[str, str], key: str, name: Optional[str]) -> Any:
    """The value of an applicable key: parsed and range-checked, or its default."""
    spec = KEYS[key]
    if key not in raw:
        default = spec.default.get(name, REQUIRED) if isinstance(spec.default, dict) else spec.default
        if default is REQUIRED:
            raise ConfigError(key, "required key is missing")
        return default
    value = spec.parse(key, raw[key])
    # a list names each value once: a repeat would run the same variant twice
    if isinstance(value, tuple) and len(set(value)) != len(value):
        raise ConfigError(key, f"repeated value in {raw[key]!r}")
    if spec.rule is not None:
        test, demand = spec.rule
        for item in value if isinstance(value, tuple) else (value,):
            if not test(item):
                raise ConfigError(key, f"{demand}, got {item!r}")
    return value


def config_from_mapping(raw: Dict[str, str]) -> RunConfig:
    """Validate a parsed key map into a RunConfig; ConfigError names the field."""
    for key in raw:
        if key not in KEYS:
            raise ConfigError(key, "unknown key")
    name = _resolve(raw, "problem.name", None)
    kind = _resolve(raw, "map.kind", name)
    values: Dict[str, Any] = {"plots": True}
    for key, spec in KEYS.items():
        if key in raw and not spec.applies(name, kind):
            raise ConfigError(key, f"does not apply to problem.name = {name} on map.kind = {kind}")
        values[spec.field] = _resolve(raw, key, name) if spec.applies(name, kind) else None
    cfg = RunConfig(**values)

    # the rules that tie one key to another
    if name in OPTIONS:
        if not cfg.sigma > 0.0:
            raise ConfigError("problem.sigma", f"must be positive for {name}, got {cfg.sigma}")
        if cfg.rate < 0.0:
            raise ConfigError("problem.rate", f"must be non-negative for {name}, got {cfg.rate}")
        if cfg.alpha != 1.0:
            raise ConfigError("grid.alpha", f"{name} is an ordinary problem; set grid.alpha = 1")
    if name == FRACTIONAL:
        if cfg.alpha == 1.0:
            raise ConfigError("grid.alpha", "fractional benchmark needs alpha in (0, 1)")
        if cfg.s_max != 1.0:
            raise ConfigError("map.s_max", "fractional benchmark lives on [0, 1]; use truncated s_max = 1")
    if cfg.map_kind == ARCTAN:
        n_points = cfg.n_points
        if n_points < 3:
            raise ConfigError("points.count", "arctan grids need at least 3 points")
        if (n_points - 2) / (n_points - 1) >= DomainMap.right_eval_point:
            raise ConfigError("points.count", f"with {n_points} points the last interior "
                              f"abscissa reaches the x = 1 surrogate {DomainMap.right_eval_point}")
    _check_sizes(cfg)
    return cfg


def _check_sizes(cfg: RunConfig) -> None:
    """Name the size key whose buffer would pass MAX_BUFFER_BYTES."""
    limit = MAX_BUFFER_BYTES
    n_points, n_hidden, n_steps = cfg.n_points, cfg.n_hidden, cfg.n_steps
    if workspace_nbytes(n_points, 1) > limit:
        raise ConfigError("points.count", f"{n_points} points need a training workspace "
                          f"of more than {limit} bytes")
    if workspace_nbytes(n_points, n_hidden) > limit:
        raise ConfigError("network.n_hidden", f"{n_hidden} hidden units on {n_points} points "
                          f"need a training workspace of more than {limit} bytes")
    # a breakdown holds 4 doubles per epoch, plus the starting cost
    for key, epochs in (("training.epochs_first", cfg.epochs_first),
                        ("training.epochs_rest", cfg.epochs_rest),
                        ("lr.probe_epochs", cfg.lr_probe_epochs)):
        if 32 * (epochs + 1) > limit:
            raise ConfigError(key, f"the cost breakdown of {epochs} epochs passes {limit} bytes")
    # sweep-alpha holds one solve at a time, so the bound covers a sweep too
    if kept_nbytes(n_points, n_hidden, n_steps, cfg.epochs_first, cfg.epochs_rest) > limit:
        raise ConfigError("grid.n_steps", f"{n_steps} steps keep more than {limit} bytes "
                          "of solution surface, cost breakdowns and parameters")


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from None
    return config_from_mapping(parse_kv_text(text))


def _expr(key: str, text: str, variables) -> Callable:
    try:
        fn = compile_expression(text, variables)
    except ExpressionError as exc:
        raise ConfigError(key, str(exc)) from None
    # an expression without S, such as "1", still gives one value per price
    return lambda s, *t: np.broadcast_to(fn(s, *t), np.shape(s))


def _build_custom_problem(cfg: RunConfig) -> ProblemSpec:
    gamma1 = _expr("problem.gamma1", cfg.gamma1, ["S"])
    gamma2 = _expr("problem.gamma2", cfg.gamma2, ["S"])
    forcing = _expr("problem.forcing", cfg.forcing, ["S", "t"])
    data = _expr("problem.data", cfg.data, ["S"])
    left = _expr("problem.left_bc", cfg.left_bc, ["S", "t"])
    right = _expr("problem.right_bc", cfg.right_bc, ["S", "t"])
    exact = None if cfg.exact is None else _expr("problem.exact", cfg.exact, ["S", "t"])

    # a function that is not finite where training evaluates it would only
    # surface later as a diverged cost, so name its key here instead
    dmap = build_map(cfg)
    colloc = build_collocation(dmap, cfg.n_points)
    s = from_x(dmap, colloc.points)[: colloc.n_pde]
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

    operator = SpatialOperator(gamma1=gamma1, gamma2=gamma2, gamma3=cfg.gamma3, forcing=forcing)
    return ProblemSpec(name=CUSTOM, alpha=cfg.alpha, maturity=cfg.maturity, operator=operator,
                       data_kind=cfg.data_kind, data=data,
                       left_bc=left, right_bc=right, exact=exact)


def build_problem(cfg: RunConfig) -> ProblemSpec:
    """Instantiate the configured problem."""
    if cfg.problem_name == CALL:
        return european_call(cfg.rate, cfg.sigma, cfg.strike, cfg.maturity)
    if cfg.problem_name == PUT:
        return european_put(cfg.rate, cfg.sigma, cfg.strike, cfg.maturity)
    if cfg.problem_name == FRACTIONAL:
        return fractional_manufactured(cfg.alpha, cfg.rate, cfg.sigma, cfg.maturity)
    return _build_custom_problem(cfg)


def build_map(cfg: RunConfig) -> DomainMap:
    if cfg.map_kind == TRUNCATED:
        return truncated_map(cfg.s_max)
    return make_arctan_map(cfg.strike, cfg.quantile)


def build_grid(cfg: RunConfig) -> TimeGrid:
    return make_time_grid(cfg.n_steps, cfg.maturity, cfg.alpha)


def build_train_config(cfg: RunConfig) -> TrainConfig:
    return TrainConfig(optimizer=cfg.optimizer, eta=cfg.eta, epochs_first=cfg.epochs_first,
                       epochs_rest=cfg.epochs_rest, seed=cfg.seed)
