import glob
import os
import re

import numpy as np
import pytest

from bsann.config import (
    CUSTOM_FIELD,
    KEYS,
    MAX_BUFFER_BYTES,
    ConfigError,
    build_grid,
    build_map,
    build_problem,
    build_train_config,
    config_from_mapping,
    load_config,
    parse_kv_text,
)

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
CONFIG_DIR = os.path.join(ROOT, "configs")

MINIMAL = {
    "problem.name": "european_call",
    "map.kind": "truncated",
    "map.s_max": "15",
    "grid.n_steps": "20",
    "points.count": "150",
    "network.n_hidden": "20",
}


def with_(**overrides):
    raw = dict(MINIMAL)
    for key, val in overrides.items():
        if val is None:
            raw.pop(key, None)
        else:
            raw[key] = val
    return raw


def test_parse_kv_text():
    text = "\n".join(
        [
            "# comment",
            "",
            "a.b = 1",
            "  c.d=  hello world  ",
            "e = x = y",
        ]
    )
    assert parse_kv_text(text) == {"a.b": "1", "c.d": "hello world", "e": "x = y"}


def test_parse_kv_text_errors():
    with pytest.raises(ConfigError) as info:
        parse_kv_text("just words\n")
    assert info.value.field == "line 1"
    with pytest.raises(ConfigError) as info:
        parse_kv_text("a = 1\na = 2\n")
    assert info.value.field == "a"
    with pytest.raises(ConfigError):
        parse_kv_text("= 3\n")


def test_minimal_config_defaults():
    cfg = config_from_mapping(MINIMAL)
    assert cfg.problem_name == "european_call"
    assert cfg.rate == 0.05 and cfg.sigma == 0.2 and cfg.strike == 10.0
    assert cfg.maturity == 1.0 and cfg.alpha == 1.0 and cfg.theta == 1.0
    assert cfg.optimizer == "adam" and cfg.eta == 0.03
    assert cfg.epochs_first == 5000 and cfg.epochs_rest == 1200
    assert cfg.seed == 0 and cfg.init_scale == 0.01
    assert cfg.output_activation == "identity"
    assert cfg.out_dir == "out" and cfg.plots is True
    assert cfg.compare_optimizers == ("adam", "sgd", "rmsprop")
    assert cfg.sweep_alphas is None and cfg.lr_candidates is None
    assert cfg.lr_probe_epochs == 800


def test_fractional_defaults_differ():
    cfg = config_from_mapping(
        {
            "problem.name": "fractional_manufactured",
            "map.kind": "truncated",
            "map.s_max": "1",
            "grid.n_steps": "10",
            "grid.alpha": "0.5",
            "points.count": "60",
            "network.n_hidden": "6",
        }
    )
    assert cfg.sigma == 0.25 and cfg.strike is None


@pytest.mark.parametrize(
    "overrides,bad_field",
    [
        ({"problem.name": "american_call"}, "problem.name"),
        ({"problem.name": None}, "problem.name"),
        ({"problem.sigma": "0"}, "problem.sigma"),
        ({"problem.strike": "-1"}, "problem.strike"),
        ({"problem.maturity": "0"}, "problem.maturity"),
        ({"problem.data": "max(S-10,0)"}, "problem.data"),
        ({"map.kind": "log"}, "map.kind"),
        ({"map.s_max": "0"}, "map.s_max"),
        ({"grid.n_steps": "0"}, "grid.n_steps"),
        ({"grid.n_steps": "2.5"}, "grid.n_steps"),
        ({"grid.n_steps": None}, "grid.n_steps"),
        ({"grid.alpha": "0.5"}, "grid.alpha"),
        ({"grid.alpha": "1.5"}, "grid.alpha"),
        ({"grid.theta": "1.5"}, "grid.theta"),
        ({"points.count": "1"}, "points.count"),
        ({"points.count": None}, "points.count"),
        ({"network.n_hidden": "0"}, "network.n_hidden"),
        ({"network.seed": "-1"}, "network.seed"),
        ({"network.init_scale": "0"}, "network.init_scale"),
        ({"network.output_activation": "relu"}, "network.output_activation"),
        ({"training.optimizer": "lbfgs"}, "training.optimizer"),
        ({"training.eta": "1.5"}, "training.eta"),
        ({"training.eta": "0"}, "training.eta"),
        ({"training.beta1": "1"}, "training.beta1"),
        ({"training.beta2": "-0.1"}, "training.beta2"),
        ({"training.epsilon": "0"}, "training.epsilon"),
        ({"training.epochs_first": "0"}, "training.epochs_first"),
        ({"training.epochs_rest": "-5"}, "training.epochs_rest"),
        ({"output.plots": "maybe"}, "output.plots"),
        ({"compare.optimizers": "adam,newton"}, "compare.optimizers"),
        ({"sweep.alphas": "0.3,1.0"}, "sweep.alphas"),
        ({"sweep.alphas": "0.3,oops"}, "sweep.alphas"),
        ({"lr.candidates": "0.01,2"}, "lr.candidates"),
        ({"lr.probe_epochs": "0"}, "lr.probe_epochs"),
        ({"nonsense.key": "1"}, "nonsense.key"),
        ({"training.eta": "fast"}, "training.eta"),
        ({"map.s_max": "inf"}, "map.s_max"),
        ({"problem.rate": "nan"}, "problem.rate"),
        ({"problem.rate": "-0.01"}, "problem.rate"),
        ({"compare.optimizers": "adam,adam,sgd"}, "compare.optimizers"),
        # keys given where they do not apply
        ({"map.kind": "arctan", "points.count": "10"}, "map.s_max"),
        ({"map.l": "0.6"}, "map.l"),
        ({"problem.name": "fractional_manufactured", "grid.alpha": "0.5", "map.s_max": "1",
          "problem.strike": "10"}, "problem.strike"),
        ({"problem.name": "custom", "problem.strike": "10"}, "problem.strike"),
        ({"problem.name": "custom", "problem.rate": "0.05"}, "problem.rate"),
        ({"map.reference_price": "10"}, "map.reference_price"),
        # a list key names each value once, however it is written
        ({"sweep.alphas": "0.5, 0.5"}, "sweep.alphas"),
        ({"sweep.alphas": "0.3, 0.5, 5e-1"}, "sweep.alphas"),
        ({"lr.candidates": "0.01, 0.01"}, "lr.candidates"),
        ({"lr.candidates": "0.01, 0.02, 0.010"}, "lr.candidates"),
        # a sweep needs at least one alpha
        ({"sweep.alphas": ""}, "sweep.alphas"),
    ],
)
def test_rejections_name_the_field(overrides, bad_field):
    with pytest.raises(ConfigError) as info:
        config_from_mapping(with_(**overrides))
    assert info.value.field == bad_field


# the largest epoch budget whose cost breakdown stays within the byte limit
MAX_EPOCHS = MAX_BUFFER_BYTES // 32 - 1


@pytest.mark.parametrize(
    "overrides,bad_field",
    [
        ({"points.count": "5000000"}, "points.count"),
        ({"network.n_hidden": "100000"}, "network.n_hidden"),
        ({"training.epochs_first": str(MAX_EPOCHS + 1)}, "training.epochs_first"),
        ({"training.epochs_rest": str(MAX_EPOCHS + 1)}, "training.epochs_rest"),
        ({"lr.probe_epochs": str(MAX_EPOCHS + 1)}, "lr.probe_epochs"),
        ({"grid.n_steps": "1000000000"}, "grid.n_steps"),
        ({"grid.n_steps": "100000"}, "grid.n_steps"),  # 1201-row breakdowns kept per step
    ],
)
def test_size_keys_past_the_byte_limit_are_rejected(overrides, bad_field):
    with pytest.raises(ConfigError) as info:
        config_from_mapping(with_(**overrides))
    assert info.value.field == bad_field


def test_sizes_within_the_byte_limit_pass():
    assert config_from_mapping(with_(**{"lr.probe_epochs": str(MAX_EPOCHS)})).lr_probe_epochs == MAX_EPOCHS
    assert config_from_mapping(with_(**{"grid.n_steps": "10000"})).n_steps == 10000
    assert config_from_mapping(with_(**{"network.n_hidden": "1000"})).n_hidden == 1000


def test_fractional_constraints():
    base = {
        "problem.name": "fractional_manufactured",
        "map.kind": "truncated",
        "map.s_max": "1",
        "grid.n_steps": "10",
        "grid.alpha": "0.5",
        "points.count": "60",
        "network.n_hidden": "6",
    }
    config_from_mapping(base)
    for key, val, field in [
        ("grid.alpha", "1.0", "grid.alpha"),
        ("grid.theta", "0.5", "grid.theta"),
        ("map.s_max", "2", "map.s_max"),
    ]:
        bad = dict(base)
        bad[key] = val
        with pytest.raises(ConfigError) as info:
            config_from_mapping(bad)
        assert info.value.field == field


def test_arctan_constraints():
    base = with_(**{"map.kind": "arctan", "map.s_max": None, "points.count": "10"})
    cfg = config_from_mapping(base)
    assert cfg.quantile == 0.6
    with pytest.raises(ConfigError) as info:
        config_from_mapping({**base, "map.l": "1.0"})
    assert info.value.field == "map.l"
    with pytest.raises(ConfigError) as info:
        config_from_mapping({**base, "map.right_eval_point": "0.8"})
    assert info.value.field == "map.right_eval_point"
    # the last interior abscissa (n-2)/(n-1) must stay below the x = 1
    # surrogate; 10,000,000 points stay below it, but their training
    # workspace passes MAX_BUFFER_BYTES
    with pytest.raises(ConfigError) as info:
        config_from_mapping({**base, "points.count": "10000000"})
    assert info.value.field == "points.count" and "workspace" in str(info.value)
    with pytest.raises(ConfigError) as info:
        config_from_mapping({**base, "points.count": "10000002"})
    assert info.value.field == "points.count" and "surrogate" in str(info.value)
    with pytest.raises(ConfigError) as info:
        config_from_mapping({**base, "points.count": "2"})
    assert info.value.field == "points.count"
    dmap = build_map(cfg)
    assert dmap.kind == "arctan" and dmap.right_eval_point == 0.9999999
    # the strike anchors the map
    assert dmap.length == pytest.approx(10.0 / np.tan(np.pi * 0.3), rel=1e-12)


def test_custom_problem_round_trip():
    raw = {
        "problem.name": "custom",
        "problem.gamma1": "0.02 * S**2",
        "problem.gamma2": "0.05 * S",
        "problem.gamma3": "-0.05",
        "problem.forcing": "0",
        "problem.data": "max(S - 10, 0)",
        "problem.data_kind": "terminal_payoff",
        "problem.left_bc": "0",
        "problem.right_bc": "S - 10*exp(-0.05*t)",
        "problem.exact": "S*0",
        "map.kind": "truncated",
        "map.s_max": "15",
        "grid.n_steps": "4",
        "points.count": "12",
        "network.n_hidden": "4",
    }
    cfg = config_from_mapping(raw)
    problem = build_problem(cfg)
    assert problem.name == "custom"
    s = np.array([5.0, 12.0])
    assert np.array_equal(problem.data(s), [0.0, 2.0])
    assert problem.operator.gamma1(np.array([2.0]))[0] == pytest.approx(0.08)
    assert problem.operator.gamma3 == -0.05
    assert problem.left_bc(0.0, 0.3) == 0.0
    assert problem.right_bc(15.0, 1.0) == pytest.approx(15.0 - 10.0 * np.exp(-0.05))
    assert problem.exact(s, 0.0).shape == (2,)


def test_custom_requires_all_parts():
    raw = {
        "problem.name": "custom",
        "problem.gamma1": "0",
        "map.kind": "truncated",
        "map.s_max": "1",
        "grid.n_steps": "2",
        "points.count": "5",
        "network.n_hidden": "3",
    }
    with pytest.raises(ConfigError) as info:
        config_from_mapping(raw)
    assert info.value.field == "problem.gamma2"
    raw["problem.gamma2"] = "0"
    raw["problem.gamma3"] = "0"
    raw["problem.data"] = "1 +"
    raw["problem.data_kind"] = "initial_data"
    raw["problem.left_bc"] = "1"
    raw["problem.right_bc"] = "1"
    cfg_bad_expr = dict(raw)
    with pytest.raises(ConfigError):
        build_problem(config_from_mapping(cfg_bad_expr))


def test_custom_data_kind_validated():
    raw = {
        "problem.name": "custom",
        "problem.gamma1": "0",
        "problem.gamma2": "0",
        "problem.gamma3": "0",
        "problem.data": "1",
        "problem.data_kind": "payoff",
        "problem.left_bc": "1",
        "problem.right_bc": "1",
        "map.kind": "truncated",
        "map.s_max": "1",
        "grid.n_steps": "2",
        "points.count": "5",
        "network.n_hidden": "3",
    }
    with pytest.raises(ConfigError) as info:
        config_from_mapping(raw)
    assert info.value.field == "problem.data_kind"


def test_builders_agree_with_config():
    cfg = config_from_mapping(
        with_(**{"training.eta": "0.2", "network.seed": "3", "grid.n_steps": "10"})
    )
    grid = build_grid(cfg)
    assert grid.n_steps == 10 and grid.dt == pytest.approx(0.1) and grid.alpha == 1.0
    tc = build_train_config(cfg)
    assert tc.eta == 0.2 and tc.seed == 3 and tc.optimizer == "adam"
    dmap = build_map(cfg)
    assert dmap.kind == "truncated" and dmap.s_max == 15.0
    problem = build_problem(cfg)
    assert problem.name == "european_call" and problem.data(12.0) == 2.0


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError) as info:
        load_config(str(tmp_path / "nope.cfg"))
    assert info.value.field == "config"


def test_all_shipped_configs_parse():
    paths = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.cfg")))
    assert len(paths) == 4
    # the benchmark's own configs must load as well
    paths += sorted(glob.glob(os.path.join(ROOT, "bench", "workloads", "*.cfg")))
    assert len(paths) == 6
    for path in paths:
        cfg = load_config(path)
        problem = build_problem(cfg)
        build_map(cfg)
        build_grid(cfg)
        build_train_config(cfg)
        assert problem.maturity > 0.0


def test_readme_configuration_table_lists_every_key():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([\w.]+)` \|", section, re.M)
    custom = {key for key, spec in KEYS.items() if spec.field == CUSTOM_FIELD}
    assert len(rows) == len(set(rows))
    assert set(rows) == set(KEYS) - custom
    # the custom keys are documented by the custom example block instead
    assert custom <= set(re.findall(r"^(problem\.\w+) =", section, re.M))
