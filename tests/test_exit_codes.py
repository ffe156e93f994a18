"""Property tests of the exit-code contract: 0 success, 2 config error naming
the key, 3 divergence, and never a traceback.

Every generated run of solve, compare, lr-search or sweep-alpha is tiny (at
most 3 epochs, 2 steps, 12 points, 2 learning rates and 2 alphas), so the
examples cover many inputs in little time. Runs are derandomized, so the
suite sees the same examples every time.
"""

import contextlib
import io
import os
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsann.cli import main
from bsann.config import ConfigError, parse_kv_text

EXIT_CODES = {0, 2, 3}

# tiny runs of each problem family, every one of them valid
BASES = [
    {"problem.name": "european_call", "map.kind": "truncated", "map.s_max": "15"},
    {"problem.name": "european_put", "map.kind": "arctan", "problem.strike": "10"},
    {"problem.name": "fractional_manufactured", "map.kind": "truncated", "map.s_max": "1",
     "grid.alpha": "0.5"},
    {"problem.name": "custom", "map.kind": "truncated", "map.s_max": "2",
     "problem.gamma1": "0*S", "problem.gamma2": "0*S", "problem.gamma3": "0",
     "problem.data": "1 + 0*S", "problem.data_kind": "initial_data",
     "problem.left_bc": "1", "problem.right_bc": "1", "problem.exact": "1 + 0*S"},
]
BUDGET = {"grid.n_steps": "2", "points.count": "12", "network.n_hidden": "3",
          "training.epochs_first": "3", "training.epochs_rest": "2",
          "lr.candidates": "0.01, 0.1", "lr.probe_epochs": "2", "sweep.alphas": "0.4, 0.6"}
COMMANDS = ["solve", "compare", "lr-search", "sweep-alpha"]

# values an override may set, valid and invalid; None removes the key
CHOICES = {
    "problem.name": ["european_call", "fractional_manufactured", "custom", "bogus"],
    "problem.rate": [None, "0", "-0.01", "nan", "1e308"],
    "problem.sigma": [None, "0", "1e-300", "50"],
    "problem.strike": [None, "0", "-1", "1e300"],
    "problem.maturity": [None, "0", "1e-300", "1e300"],
    "problem.gamma1": [None, "S*S", "S/0", "log(S)", "1e308*S*S", "S +"],
    "problem.gamma3": [None, "-0.05", "nan", "1e308"],
    "problem.data": [None, "1", "max(S - 1, 0)", "exp(1000*S)"],
    "problem.data_kind": [None, "terminal_payoff", "other"],
    "problem.right_bc": [None, "S - t", "nan", "1e308"],
    "problem.exact": [None, "1"],
    "map.kind": ["truncated", "arctan", "log"],
    "map.s_max": [None, "1", "0", "-3", "inf", "x"],
    "map.l": [None, "0", "1", "0.999999"],
    "grid.n_steps": ["1", "0", "-1", "1.5"],
    "grid.alpha": [None, "1", "0.5", "0", "1.5"],
    "grid.theta": [None, "0.5", "0", "2"],
    "points.count": ["2", "3", "5", "1", "x"],
    "network.n_hidden": ["1", "0", "-2"],
    "network.output_activation": [None, "sigmoid", "relu"],
    "network.init_scale": [None, "0", "1e300"],
    "training.optimizer": [None, "sgd", "rmsprop", "lbfgs"],
    "training.eta": [None, "0.9", "0", "1e-300"],
    "training.epochs_first": ["1", "0", "-1", "x"],
    "training.epochs_rest": ["1", "0"],
    "output.bogus": ["1"],
    "compare.optimizers": [None, "sgd", "adam,adam", "lbfgs"],
    "lr.candidates": [None, "0.9", "0", "x"],
    "lr.probe_epochs": [None, "0"],
    "sweep.alphas": [None, "1", "0.5"],
}


@st.composite
def solve_configs(draw):
    raw = {**draw(st.sampled_from(BASES)), **BUDGET}
    for key in draw(st.lists(st.sampled_from(sorted(CHOICES)), max_size=3, unique=True)):
        value = draw(st.sampled_from(CHOICES[key]))
        if value is None:
            raw.pop(key, None)
        else:
            raw[key] = value
    return [f"{key} = {value}" for key, value in raw.items()]


def _lines(base, key, value):
    raw = {**BASES[base], **BUDGET, key: value}
    return [f"{k} = {v}" for k, v in raw.items()]


@settings(max_examples=240, deadline=None, derandomize=True)
@given(solve_configs(), st.booleans(), st.sampled_from(COMMANDS))
# boundary misses and the manufactured forcing used to overflow Python floats
# and escape as OverflowError
@example(_lines(0, "problem.strike", "1e300"), False, "solve")
@example(_lines(2, "problem.maturity", "1e300"), False, "solve")
# the first-step probes used to need an old-step rhs at theta < 1, and escaped
# as ValueError; a theta other than 1 is now a config error
@example(_lines(0, "grid.theta", "0.5"), False, "compare")
@example(_lines(0, "grid.theta", "0.5"), False, "lr-search")
# custom functions without S used to give 0-d values: a data row that no
# history takes, and an exact curve that the plot cannot draw
@example(_lines(3, "problem.data", "1"), False, "lr-search")
@example(_lines(3, "problem.exact", "1"), True, "solve")
# an integer literal past the float range used to escape as OverflowError
@example(_lines(3, "problem.data", "max(S - 10, 0) + 1" + "0" * 400 + " * 0"), False, "solve")
def test_solve_exits_with_a_documented_code(lines, plots, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines + [f"output.dir = {os.path.join(tmp, 'out')}"]) + "\n")
        err = io.StringIO()
        # diverging runs overflow on purpose; their numpy warnings are expected
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                np.errstate(all="ignore"):
            code = main([command, "--config", path] + ([] if plots else ["--no-plots"]))
    assert code in EXIT_CODES, err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("config error: ")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.text(alphabet=st.sampled_from("ab.=# \t\n\r\x0b\x0c\x1c  =1"), max_size=60))
def test_parse_kv_text_returns_a_mapping_or_names_a_line(text):
    try:
        parsed = parse_kv_text(text)
    except ConfigError as exc:
        assert exc.field
    else:
        assert all(key and key == key.strip() for key in parsed)
        assert all(value == value.strip() for value in parsed.values())
