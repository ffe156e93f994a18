import gc
import os
import re
import subprocess
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest

import bsann
from bsann.cli import main
from bsann.config import build_grid, build_map, build_problem, build_train_config, load_config
from bsann.solver import read_csv, read_numeric_csv, solve
from bsann.trainer import TrainingDiverged

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def constant_cfg(out_dir, extra=""):
    return (
        "problem.name = custom\n"
        "problem.gamma1 = 0*S\n"
        "problem.gamma2 = 0*S\n"
        "problem.gamma3 = 0\n"
        "problem.data = 1 + 0*S\n"
        "problem.data_kind = initial_data\n"
        "problem.left_bc = 1\n"
        "problem.right_bc = 1\n"
        "problem.exact = 1 + 0*S\n"
        "map.kind = truncated\n"
        "map.s_max = 2\n"
        "grid.n_steps = 3\n"
        "points.count = 12\n"
        "network.n_hidden = 4\n"
        "network.seed = 1\n"
        "training.epochs_first = 120\n"
        "training.epochs_rest = 60\n"
        f"output.dir = {out_dir}\n" + extra
    )


def divergent_cfg(out_dir, extra=""):
    # full-batch gradient descent at this rate blows up within a few epochs
    return (
        "problem.name = european_call\n"
        "map.kind = truncated\n"
        "map.s_max = 15\n"
        "grid.n_steps = 20\n"
        "points.count = 150\n"
        "network.n_hidden = 20\n"
        "network.seed = 0\n"
        "training.optimizer = sgd\n"
        "training.eta = 0.03\n"
        f"output.dir = {out_dir}\n" + extra
    )


def fractional_cfg(out_dir, extra=""):
    return (
        "problem.name = fractional_manufactured\n"
        "map.kind = truncated\n"
        "map.s_max = 1\n"
        "grid.n_steps = 3\n"
        "grid.alpha = 0.5\n"
        "points.count = 12\n"
        "network.n_hidden = 4\n"
        "network.seed = 0\n"
        "training.epochs_first = 150\n"
        "training.epochs_rest = 80\n"
        f"output.dir = {out_dir}\n" + extra
    )


def all_csvs(out_dir):
    return sorted(p for p in os.listdir(out_dir) if p.endswith(".csv"))


def test_solve_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, constant_cfg(out))
    assert main(["solve", "--config", cfg]) == 0
    stdout = capsys.readouterr().out
    assert "max abs error" in stdout
    assert "wrote" in stdout and "surface.csv (3 steps, 12 points)" in stdout
    names = sorted(os.listdir(out))
    for expected in (
        "surface.csv", "errors.csv", "timing.csv",
        "cost_step_1.csv", "cost_step_3.csv",
        "params_step_1.csv", "params_step_3.csv",
        "solution.svg", "error.svg", "cost.svg",
    ):
        assert expected in names
    for name in all_csvs(out):
        header, rows = read_csv(out / name)
        assert len(header) >= 2 and rows
    svg = (out / "solution.svg").read_text(encoding="utf-8")
    assert "solution after 3 steps" in svg and "exact" in svg


def test_solve_no_plots_and_out_override(tmp_path):
    out = tmp_path / "ignored"
    other = tmp_path / "actual"
    cfg = write_cfg(tmp_path, constant_cfg(out))
    assert main(["solve", "--config", cfg, "--no-plots", "--out", str(other)]) == 0
    assert not out.exists()
    names = os.listdir(other)
    assert "surface.csv" in names
    assert not any(n.endswith(".svg") for n in names)


def test_solve_seed_override_changes_surface(tmp_path):
    out1, out2, out3 = (tmp_path / n for n in ("a", "b", "c"))
    cfg = write_cfg(tmp_path, constant_cfg(out1))
    main(["solve", "--config", cfg, "--no-plots"])
    main(["solve", "--config", cfg, "--no-plots", "--out", str(out2), "--seed", "7"])
    main(["solve", "--config", cfg, "--no-plots", "--out", str(out3), "--seed", "1"])
    base = (out1 / "surface.csv").read_bytes()
    assert (out2 / "surface.csv").read_bytes() != base
    assert (out3 / "surface.csv").read_bytes() == base  # seed 1 is the config value


def test_repeat_runs_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    cfg = write_cfg(tmp_path, constant_cfg(out1))
    assert main(["solve", "--config", cfg, "--no-plots"]) == 0
    assert main(["solve", "--config", cfg, "--no-plots", "--out", str(out2)]) == 0
    names = [n for n in all_csvs(out1) if n != "timing.csv"]
    assert names == [n for n in all_csvs(out2) if n != "timing.csv"]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_config_errors_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert main(["solve", "--config", missing]) == 2
    assert "config error" in capsys.readouterr().err
    bad = write_cfg(tmp_path, "problem.name = european_call\nbogus.key = 1\n", "bad.cfg")
    assert main(["solve", "--config", bad]) == 2
    assert "bogus.key" in capsys.readouterr().err
    hot = write_cfg(
        tmp_path, constant_cfg(tmp_path / "x") + "training.eta = 1.5\n", "hot.cfg"
    )
    assert main(["solve", "--config", hot]) == 2
    assert "training.eta" in capsys.readouterr().err
    cfg = write_cfg(tmp_path, constant_cfg(tmp_path / "y"), "seed.cfg")
    assert main(["solve", "--config", cfg, "--seed", "-4"]) == 2
    assert "network.seed" in capsys.readouterr().err
    blocker = tmp_path / "afile"
    blocker.write_text("", encoding="utf-8")
    assert main(["solve", "--config", cfg, "--out", str(blocker / "sub")]) == 2
    assert "config error: output.dir" in capsys.readouterr().err
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes(b"problem.name = european_call\n# \xff\n")
    assert main(["solve", "--config", str(latin1)]) == 2
    assert "config error: config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,text",
    [
        ("problem.gamma1", "+".join(["S"] * 100_000)),
        ("problem.gamma1", "-" * 100_000 + "S"),
        ("problem.gamma1", "S/0"),
        ("problem.data", "log(S)"),  # the grid starts at S = 0
        ("problem.gamma3", "nan"),
        ("problem.data", "max(S - 10, 0) + 1" + "0" * 400 + " * 0"),
    ],
    ids=["deep-sum", "deep-negation", "division-by-zero", "log-at-zero", "nan-gamma3",
         "huge-integer"],
)
def test_unusable_custom_functions_exit_2(tmp_path, capsys, key, text):
    defaults = {"problem.gamma1": "0*S", "problem.data": "1 + 0*S", "problem.gamma3": "0"}
    cfg_text = constant_cfg(tmp_path / "out").replace(
        f"{key} = {defaults[key]}\n", f"{key} = {text}\n"
    )
    assert f"{key} = {text}" in cfg_text
    assert main(["solve", "--config", write_cfg(tmp_path, cfg_text), "--no-plots"]) == 2
    assert f"config error: {key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command,cfg_text,key",
    [
        ("solve", divergent_cfg("{out}", "problem.rate = -0.01\n"), "problem.rate"),
        ("solve", divergent_cfg("{out}").replace("map.kind = truncated", "map.kind = arctan")
         .replace("map.s_max = 15\n", "").replace("points.count = 150", "points.count = 10000002"),
         "points.count"),
        ("compare", constant_cfg("{out}", "compare.optimizers = adam,adam,sgd\n"),
         "compare.optimizers"),
        ("sweep-alpha", fractional_cfg("{out}", "sweep.alphas = 0.5, 0.5\n"), "sweep.alphas"),
        ("lr-search", constant_cfg("{out}", "lr.candidates = 0.01, 0.01\n"), "lr.candidates"),
        # every step is implicit; grid.theta stays a key so that existing configs parse
        ("solve", constant_cfg("{out}", "grid.theta = 0.5\n"), "grid.theta"),
        ("compare", constant_cfg("{out}", "grid.theta = 0.5\n"), "grid.theta"),
        ("lr-search", constant_cfg("{out}", "lr.candidates = 0.01\ngrid.theta = 0.5\n"),
         "grid.theta"),
        ("sweep-alpha", fractional_cfg("{out}", "sweep.alphas = 0.4\ngrid.theta = 0.5\n"),
         "grid.theta"),
    ],
    ids=["negative-option-rate", "arctan-points-reach-surrogate", "duplicate-optimizer",
         "repeated-alpha", "repeated-eta", "retired-theta-solve", "retired-theta-compare",
         "retired-theta-lr-search", "retired-theta-sweep-alpha"],
)
def test_rejected_inputs_exit_2_and_create_nothing(tmp_path, capsys, command, cfg_text, key):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, cfg_text.replace("{out}", str(out)))
    assert main([command, "--config", cfg, "--no-plots"]) == 2
    assert f"config error: {key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key,value",
    [("points.count", "5000000"), ("network.n_hidden", "100000"),
     ("training.epochs_first", "40000000"), ("grid.n_steps", "1000000000")],
)
def test_oversized_keys_exit_2_before_anything_is_built(tmp_path, capsys, monkeypatch, key, value):
    def never(*args, **kwargs):
        raise AssertionError("a solver object was built")

    for name in ("build_problem", "build_map", "build_grid", "build_train_config", "solve"):
        monkeypatch.setattr(bsann.cli, name, never)
    out = tmp_path / "out"
    text = divergent_cfg(out)
    text = "\n".join(line for line in text.splitlines() if not line.startswith(key)) + "\n"
    cfg = write_cfg(tmp_path, text + f"{key} = {value}\n")
    assert main(["solve", "--config", cfg, "--no-plots"]) == 2
    assert f"config error: {key}" in capsys.readouterr().err
    assert not out.exists()


def test_divergence_exits_3_with_partial_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, divergent_cfg(out))
    assert main(["solve", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "error: training diverged at marching step 1 " in err
    header, rows = read_csv(out / "surface.csv")
    assert header == ("t", "S", "U")
    assert len(rows) == 150  # only the data row was reached
    assert (out / "timing.csv").exists()


def test_partial_march_is_plotted_without_the_exact_price(tmp_path, capsys):
    out = tmp_path / "out"
    # three sgd epochs survive step 1; step 2's sixty blow up
    extra = "training.epochs_first = 3\ntraining.epochs_rest = 60\n"
    cfg = write_cfg(tmp_path, divergent_cfg(out, extra))
    assert main(["solve", "--config", cfg]) == 3
    assert "marching step 2 " in capsys.readouterr().err
    names = os.listdir(out)
    assert "params_step_1.csv" in names and "params_step_2.csv" not in names
    # like errors.csv, no error plot: the last row is not at the reporting time
    assert "errors.csv" not in names and "error.svg" not in names
    svg = (out / "solution.svg").read_text(encoding="utf-8")
    assert "solution after 1 of 20 steps" in svg and "exact" not in svg
    assert "cost.svg" in names


# the x-axis tick labels of a bsann SVG plot (y-axis labels are end-anchored)
X_TICK = re.compile(r'text-anchor="middle" font-family="sans-serif" font-size="11" '
                    r'fill="#333">([^<]+)</text>')


def test_arctan_plots_leave_the_surrogate_out(tmp_path, capsys):
    out = tmp_path / "out"
    text = (
        "problem.name = european_call\n"
        "map.kind = arctan\n"
        "grid.n_steps = 2\n"
        "points.count = 10\n"
        "network.n_hidden = 4\n"
        "training.epochs_first = 20\n"
        "training.epochs_rest = 10\n"
        f"output.dir = {out}\n"
    )
    assert main(["solve", "--config", write_cfg(tmp_path, text)]) == 0
    capsys.readouterr()
    # the x = 1 surrogate sits near S = 4.6e7; the plots end at the last finite point
    for name in ("solution.svg", "error.svg"):
        ticks = [float(t) for t in X_TICK.findall((out / name).read_text(encoding="utf-8"))]
        assert ticks and max(ticks) < 1e6
    # errors.csv is a raw table and keeps the surrogate row
    _, errors = read_numeric_csv(out / "errors.csv")
    assert errors.shape[0] == 10 and errors[-1, 0] > 1e6


@pytest.mark.parametrize(
    "command, cfg_text, blocked, written",
    [
        ("solve", constant_cfg, "surface.csv", None),
        ("solve", constant_cfg, "cost.svg", "errors.csv"),
        ("compare", lambda out: constant_cfg(out, "compare.optimizers = adam\n"),
         "compare.csv", "cost_adam.csv"),
        ("lr-search", lambda out: constant_cfg(out, "lr.candidates = 0.01\nlr.probe_epochs = 5\n"),
         "lr_search.csv", None),
        ("sweep-alpha", lambda out: fractional_cfg(out, "sweep.alphas = 0.5\n"),
         "sweep_status.csv", "sweep.csv"),
    ],
    ids=["solve-csv", "solve-svg", "compare", "lr-search", "sweep-alpha"],
)
def test_an_unwritable_artifact_exits_2_and_keeps_earlier_outputs(
    tmp_path, capsys, command, cfg_text, blocked, written
):
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert main([command, "--config", write_cfg(tmp_path, cfg_text(out))]) == 2
    err = capsys.readouterr().err
    assert "config error: output.dir: cannot write" in err and blocked in err
    if written is not None:
        assert (out / written).is_file()


def test_missing_config_flag_is_usage_error(capsys):
    for command in ("solve", "compare", "sweep-alpha", "lr-search"):
        with pytest.raises(SystemExit) as info:
            main([command])
        assert info.value.code == 2
        assert "--config" in capsys.readouterr().err
    # selftest takes no config
    with pytest.raises(SystemExit) as info:
        main(["selftest", "--config", "x"])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["not-a-command"])
    capsys.readouterr()


def test_compare_writes_traces(tmp_path, capsys):
    out = tmp_path / "cmp"
    cfg = write_cfg(
        tmp_path,
        constant_cfg(out, "compare.optimizers = adam,sgd\ntraining.eta = 0.01\n"),
    )
    assert main(["compare", "--config", cfg]) == 0
    stdout = capsys.readouterr().out
    assert "adam: completed" in stdout and "sgd: completed" in stdout
    header, rows = read_csv(out / "compare.csv")
    assert header == (
        "optimizer", "status", "epochs_recorded", "diverged_epoch",
        "final_cost", "seconds", "seconds_per_epoch",
    )
    assert [r[0] for r in rows] == ["adam", "sgd"]
    assert all(r[1] == "completed" for r in rows)
    assert (out / "cost_adam.csv").exists() and (out / "cost_sgd.csv").exists()
    assert (out / "compare.svg").exists()


def test_compare_all_divergent_exits_3(tmp_path, capsys):
    out = tmp_path / "cmp"
    cfg = write_cfg(tmp_path, divergent_cfg(out, "compare.optimizers = sgd\n"))
    assert main(["compare", "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert "every optimizer diverged" in captured.err
    header, rows = read_csv(out / "compare.csv")
    assert rows[0][0] == "sgd" and rows[0][1] == "diverged"
    assert rows[0][3] != ""  # diverged_epoch recorded
    # a diverged run's final cost reads inf, as in lr_search.csv; its cost
    # file still ends at the cost that stopped it
    assert rows[0][4] == "inf"
    assert "sgd: diverged, final cost inf" in captured.out
    _, costs = read_numeric_csv(out / "cost_sgd.csv")
    assert costs[-1, 4] > 1e12


def test_sweep_alpha_outputs(tmp_path, capsys):
    out = tmp_path / "sweep"
    cfg = write_cfg(tmp_path, fractional_cfg(out, "sweep.alphas = 0.4,0.6\n"))
    assert main(["sweep-alpha", "--config", cfg]) == 0
    stdout = capsys.readouterr().out
    assert "alpha=0.4" in stdout and "alpha=0.6" in stdout
    header, rows = read_csv(out / "sweep.csv")
    assert header == ("S", "alpha_0.4", "alpha_0.6")
    assert len(rows) == 12
    # each column is, bit for bit, the final row of a solve at that alpha alone
    _, table = read_numeric_csv(out / "sweep.csv")
    base = load_config(cfg)
    for column, alpha in ((1, 0.4), (2, 0.6)):
        run = replace(base, alpha=alpha)
        result = solve(
            build_problem(run), build_map(run), build_grid(run), run.n_hidden, run.n_points,
            build_train_config(run), 1.0, run.init_scale, run.output_activation,
        )
        assert result.complete and result.problem.alpha == alpha == result.grid.alpha
        assert np.array_equal(table[:, 0], result.s_points)
        assert np.array_equal(table[:, column], result.final_row())
    header, rows = read_csv(out / "sweep_status.csv")
    assert header == ("alpha", "status", "max_abs_error")
    assert all(r[1] == "completed" and float(r[2]) < 0.5 for r in rows)
    assert (out / "sweep.svg").exists()


def test_sweep_alpha_keeps_alpha_order_past_a_divergence(tmp_path, capsys, monkeypatch):
    real_solve = bsann.cli.solve

    def middle_diverges(problem, *args):
        result = real_solve(problem, *args)
        if problem.alpha == 0.5:
            exc = TrainingDiverged(7, float("inf"), 1, np.zeros((8, 4)))
            exc.partial = replace(result, surface=result.surface[:2])
            raise exc
        return result

    monkeypatch.setattr(bsann.cli, "solve", middle_diverges)
    out = tmp_path / "sweep"
    cfg = write_cfg(tmp_path, fractional_cfg(out, "sweep.alphas = 0.4,0.5,0.6\n"))
    assert main(["sweep-alpha", "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert "at least one alpha diverged" in captured.err
    assert captured.out.index("alpha=0.4") < captured.out.index("alpha=0.5: diverged")
    assert captured.out.index("alpha=0.5") < captured.out.index("alpha=0.6")
    header, rows = read_csv(out / "sweep.csv")
    assert header == ("S", "alpha_0.4", "alpha_0.6") and len(rows) == 12
    header, rows = read_csv(out / "sweep_status.csv")
    assert [r[0] for r in rows] == ["0.4", "0.5", "0.6"]
    assert [r[1] for r in rows] == ["completed", "diverged in step 2 at epoch 7", "completed"]
    assert rows[1][2] == "" and rows[0][2] != "" and rows[2][2] != ""


def test_sweep_alpha_holds_one_solve_at_a_time(tmp_path, capsys, monkeypatch):
    # every earlier alpha's result and surface buffer is freed before the
    # next alpha is solved, so a sweep holds what one solve holds
    real_solve = bsann.cli.solve
    refs = []

    def tracked(*args):
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)
        result = real_solve(*args)
        buffer = result.surface if result.surface.base is None else result.surface.base
        refs.extend((weakref.ref(result), weakref.ref(buffer)))
        return result

    monkeypatch.setattr(bsann.cli, "solve", tracked)
    out = tmp_path / "sweep"
    cfg = write_cfg(tmp_path, fractional_cfg(out, "sweep.alphas = 0.4,0.5,0.6\n"))
    assert main(["sweep-alpha", "--config", cfg, "--no-plots"]) == 0
    assert len(refs) == 6
    gc.collect()
    assert [ref() for ref in refs] == [None] * 6


def test_sweep_alpha_diverged_status_is_readable(tmp_path, capsys):
    out = tmp_path / "sweep"
    hot = "training.optimizer = sgd\ntraining.eta = 0.9\nsweep.alphas = 0.4\n"
    cfg = write_cfg(tmp_path, fractional_cfg(out, hot))
    assert main(["sweep-alpha", "--config", cfg, "--no-plots"]) == 3
    assert "at least one alpha diverged" in capsys.readouterr().err
    header, rows = read_csv(out / "sweep_status.csv")
    assert header == ("alpha", "status", "max_abs_error")
    assert rows[0][0] == "0.4" and rows[0][1].startswith("diverged in step 1 ")
    assert rows[0][2] == ""
    header, rows = read_csv(out / "sweep.csv")
    assert header == ("S",) and len(rows) == 12


def test_sweep_alpha_requires_config_keys(tmp_path, capsys):
    cfg = write_cfg(tmp_path, fractional_cfg(tmp_path / "x"))
    assert main(["sweep-alpha", "--config", cfg]) == 2
    assert "sweep.alphas" in capsys.readouterr().err
    call = write_cfg(
        tmp_path, constant_cfg(tmp_path / "y", "sweep.alphas = 0.5\n"), "call.cfg"
    )
    assert main(["sweep-alpha", "--config", call]) == 2
    assert "problem.name" in capsys.readouterr().err
    # the key checks run before the output directory is created
    assert not (tmp_path / "x").exists() and not (tmp_path / "y").exists()


def test_lr_search_missing_candidates_creates_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    shipped = os.path.join(CONFIG_DIR, "example2_fractional.cfg")
    assert main(["lr-search", "--config", shipped, "--out", "d"]) == 2
    assert "lr.candidates" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_lr_search_reports_choice(tmp_path, capsys):
    out = tmp_path / "lr"
    cfg = write_cfg(
        tmp_path,
        constant_cfg(out, "lr.candidates = 0.01,0.05\nlr.probe_epochs = 60\n"),
    )
    assert main(["lr-search", "--config", cfg]) == 0
    stdout = capsys.readouterr().out
    assert "chosen eta = " in stdout
    header, rows = read_csv(out / "lr_search.csv")
    assert header == ("eta", "status", "final_cost", "diverged_epoch")
    assert len(rows) == 2 and all(r[1] == "completed" for r in rows)
    assert (out / "lr_search.svg").exists()


def test_lr_search_all_divergent_exits_3(tmp_path, capsys):
    out = tmp_path / "lr"
    cfg = write_cfg(
        tmp_path, divergent_cfg(out, "lr.candidates = 0.03,0.1\nlr.probe_epochs = 200\n")
    )
    assert main(["lr-search", "--config", cfg]) == 3
    assert "all learning-rate candidates diverged" in capsys.readouterr().err
    # the partial outputs are written: every candidate reads diverged
    header, rows = read_csv(out / "lr_search.csv")
    assert header == ("eta", "status", "final_cost", "diverged_epoch")
    assert [r[0] for r in rows] == ["0.03", "0.1"]
    assert all(r[1] == "diverged" and r[2] == "inf" and r[3] != "" for r in rows)
    missing = write_cfg(tmp_path, constant_cfg(tmp_path / "z"), "nolr.cfg")
    assert main(["lr-search", "--config", missing]) == 2


def test_selftest_passes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["selftest"]) == 0
    stdout = capsys.readouterr().out
    assert stdout.count("PASS ") == 7
    assert "FAIL" not in stdout
    assert "all checks passed" in stdout
    assert list(tmp_path.iterdir()) == []
    # the selftest needs no working directory at all, not even an existing one
    gone = tmp_path / "gone"
    gone.mkdir()
    monkeypatch.chdir(gone)
    gone.rmdir()
    assert main(["selftest"]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_console_script_entry_point():
    # the child imports the same bsann package as this process, installed or not
    package_root = os.path.dirname(os.path.dirname(bsann.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from bsann.cli import main; sys.exit(main(['selftest']))"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0
    assert "all checks passed" in proc.stdout


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_closed_stdout_exits_1_without_blaming_output_dir(tmp_path, unbuffered):
    package_root = os.path.dirname(os.path.dirname(bsann.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    # buffered, the pipe fails only at the last flush; unbuffered, at the first print
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    out = tmp_path / "out"
    path = write_cfg(tmp_path, constant_cfg(out))
    # argparse prints the help and exits before the command runs
    for args in (["selftest"], ["solve", "--config", path, "--no-plots"], ["--help"],
                 ["solve", "--help"]):
        read_end, write_end = os.pipe()
        os.close(read_end)  # nothing will ever read what the command reports
        try:
            proc = subprocess.run([sys.executable, "-m", "bsann.cli", *args], stdout=write_end,
                                  stderr=subprocess.PIPE, text=True, timeout=120, env=env)
        finally:
            os.close(write_end)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == ""
    assert (out / "surface.csv").is_file()
