"""Workloads, closed loop, correctness checks and metrics of the bsann benchmark.

Each workload iteration runs one user-visible `bsann` command exactly as a
user would, then checks its outputs. Iterations run one at a time from this
single process (a closed loop with one client) for about `--seconds` (see
closed_loop); at least one always runs.

`--trace 0` runs the commands as child processes (`python -m bsann.cli`) and
reports the end-to-end metrics: medians over the iterations of wall time, CPU
time and peak RSS, the median set-up time of SETUP_REPEATS set-up-only
children, and the deterministic accuracy figures. `--trace 1` runs each
iteration twice in this process through `bsann.cli.main`, untraced and then
traced (see layers.py), and reports the per-layer metrics.

The workloads are fixed: `--seed` is accepted and recorded in the stamp but
changes no input. The acceptance gates hold at the configs' own network
seeds, and other seeds move the final error by more than any bound
(example1_truncated, network seeds 0-5: 1.5e-2 to 4.0e-2 on S <= 12, three of
them above the 2e-2 gate; frac_long: 0.07 to 0.55).

fail_frac (failed / attempted iterations) is printed with the metrics; the
result carries it as `failed` and `attempted`.

An iteration fails on an unexpected exit status, a missing artifact, an
accuracy gate that does not hold, outputs that do not agree with each other,
or outputs that differ from the first iteration's (sha256 of `surface.csv`,
every `params_step_*.csv` and `lr_search.csv`).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

import bsann.cli
from bsann.config import (
    build_grid,
    build_map,
    build_problem,
    load_config,
    parse_kv_text,
)
from bsann.mapping import ARCTAN, from_x
from bsann.network import eval_batch, load_params_csv
from bsann.solver import build_collocation, read_csv, read_numeric_csv

import layers
from run import PINNED_ENV

SETUP_REPEATS = 9
COMMAND_TIMEOUT_S = 120.0
# relative agreement required between figures that two outputs both state
AGREE_RTOL = 1e-6

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import bsann
from bsann.config import build_grid, build_map, build_problem, build_train_config, load_config
cfg = load_config(sys.argv[1])
build_problem(cfg), build_map(cfg), build_grid(cfg), build_train_config(cfg)
print(repr(time.perf_counter() - t0))
"""


@dataclass(frozen=True)
class Workload:
    name: str
    config: str                     # path relative to the repository root
    command: str                    # bsann subcommand
    gate: Optional[float] = None    # bound on the final-time max abs error
    gate_s_max: float = np.inf      # the gate applies to S <= gate_s_max


WORKLOADS = {
    w.name: w
    for w in (
        # epoch kernel at r=150, n=20; gate as tests/test_acceptance.py test_02
        Workload("call_truncated", "configs/example1_truncated.cfg", "solve", 2e-2, 12.0),
        # r=10 on the arctan map: per-epoch numpy call overhead; no accuracy gate
        Workload("call_mapped", "configs/example1_mapped.cfg", "solve"),
        # per-step work: L1 memory sum, per-step evaluation, 2N CSV files
        Workload("frac_long", "bench/workloads/frac_long.cfg", "solve"),
        # lr_grid_search, the multi-run trainer
        Workload("lr_probe", "bench/workloads/lr_probe.cfg", "lr-search"),
    )
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "max_abs_err": "1",
    "max_abs_err_mid": "1",
    "final_cost": "1",
}

PER_LAYER_UNITS = {
    "config.load_s": "s",
    "cli.other_s": "s",
    "solver.march_other_s": "s",
    "solver.write_s": "s",
    "solver.bytes_out": "bytes",
    "solver.files_out": "count",
    "plots.svg_s": "s",
    "trainer.train_s": "s",
    "trainer.context_s": "s",
    "trainer.epoch_us": "us",
    "trainer.loop_us": "us",
    "trainer.epochs": "count",
    "trainer.steps": "count",
    "trainer.probes": "count",
    "trainer.probes_diverged": "count",
    "trainer.useful_epoch_frac": "ratio",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "micro.samples": "count",
    **{
        name + suffix: "us"
        for name in (
            "trainer.context_us", "trainer.grad_us", "trainer.cost_us",
            "trainer.update_us", "network.eval_us", "stepper.history_us",
        )
        for suffix in ("", ".q1", ".q3")
    },
}

# figures that must repeat exactly between traced runs (timing.csv makes bytes_out vary)
COUNTS = ("trainer.epochs", "trainer.steps", "trainer.probes", "trainer.probes_diverged",
          "trainer.useful_epoch_frac", "solver.files_out")


class CheckFailed(Exception):
    """One correctness check of an iteration did not hold."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Command:
    code: int
    stdout: str
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Iteration:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    chosen_eta: Optional[float] = None  # lr_probe
    values: Dict[str, float] = field(default_factory=dict)
    digests: Dict[str, str] = field(default_factory=dict)
    out_dirs: List[str] = field(default_factory=list)
    failure: Optional[str] = None

    def add(self, cmd: Command, out_dir: str) -> None:
        self.wall_s += cmd.wall_s
        self.cpu_s += cmd.cpu_s
        self.rss_mb = max(self.rss_mb, cmd.rss_mb)
        self.out_dirs.append(out_dir)


def child_runner(work: str) -> Callable[[List[str], str], Command]:
    """Run `bsann <args>` in a child process; wall, CPU and peak RSS from wait4."""
    env = dict(os.environ, **PINNED_ENV)

    def run(args: List[str], label: str) -> Command:
        log = os.path.join(work, f"{label}.log")
        with open(log, "w", encoding="utf-8") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "bsann.cli", *args], stdout=fh, stderr=subprocess.STDOUT,
                env=env, cwd=work,
            )
            killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
            finally:
                killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(log, encoding="utf-8") as fh:
            text = fh.read()
        return Command(
            code=proc.returncode, stdout=text, wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime, rss_mb=usage.ru_maxrss * 1024 / 1e6,
        )

    return run


def inprocess_runner(rec: Optional[layers.Recorder]) -> Callable[[List[str], str], Command]:
    """Run `bsann.cli.main(args)` in this process, under a root span when tracing."""

    def run(args: List[str], label: str) -> Command:
        buf = io.StringIO()
        span = rec.span(layers.CLI) if rec is not None else contextlib.nullcontext()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            c0 = time.process_time()
            t0 = time.perf_counter()
            with span:
                code = bsann.cli.main(args)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
        return Command(code=code, stdout=buf.getvalue(), wall_s=wall, cpu_s=cpu, rss_mb=0.0)

    return run


def write_config(path: str, mapping: Dict[str, str]) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{key} = {value}\n" for key, value in mapping.items())
    return path


def derive_config(root: str, wl: Workload, work: str, overrides: Dict[str, str]) -> str:
    """The workload's config with `overrides` applied, written into the work dir."""
    with open(os.path.join(root, wl.config), encoding="utf-8") as fh:
        mapping = parse_kv_text(fh.read())
    mapping.update(overrides)
    return write_config(os.path.join(work, f"{wl.name}.cfg"), mapping)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _expect_files(out: str, names: List[str]) -> None:
    missing = [n for n in names if not os.path.isfile(os.path.join(out, n))]
    _require(not missing, f"missing artifacts in {os.path.basename(out)}: {missing[:4]}")


def check_solve(cfg_path: str, out: str, cmd: Command, gate_s_max: float = np.inf):
    """Checks of one `bsann solve`; returns (values, digests, max abs error on S <= gate_s_max)."""
    _require(cmd.code == 0, f"solve exited {cmd.code}: {cmd.stdout.strip()[-200:]}")
    cfg = load_config(cfg_path)
    problem, dmap, grid = build_problem(cfg), build_map(cfg), build_grid(cfg)
    steps = range(1, grid.n_steps + 1)
    csvs = ["surface.csv", "errors.csv", "timing.csv"]
    csvs += [f"cost_step_{k}.csv" for k in steps] + [f"params_step_{k}.csv" for k in steps]
    svgs = ["solution.svg", "error.svg", "cost.svg"] if cfg.plots else []
    _expect_files(out, csvs + svgs)

    _, errors = read_numeric_csv(os.path.join(out, "errors.csv"))
    finite = errors[:-1] if dmap.kind == ARCTAN else errors  # the x=1 surrogate row
    max_err = float(finite[:, 1].max())
    printed = [ln for ln in cmd.stdout.splitlines() if ln.startswith("max abs error ")]
    _require(len(printed) == 1, "solve printed no error summary")
    shown = float(printed[0].split()[3].rstrip(","))
    _require(abs(shown - max_err) <= AGREE_RTOL * max_err,
             "printed error disagrees with errors.csv")

    # the stored final row is the last network evaluated on the collocation grid
    params = load_params_csv(os.path.join(out, f"params_step_{grid.n_steps}.csv"))
    colloc = build_collocation(dmap, cfg.n_points)
    _, surface = read_numeric_csv(os.path.join(out, "surface.csv"))
    final_row = surface[-cfg.n_points:, 2]
    net_row = eval_batch(params, colloc.points, cfg.output_activation)[0]
    _require(np.allclose(final_row, net_row, rtol=1e-12, atol=1e-14),
             "surface.csv final row differs from the last params_step file")

    # off-grid accuracy: midpoints between collocation nodes (finite nodes on the arctan map)
    nodes = colloc.points[:-1] if dmap.kind == ARCTAN else colloc.points
    mid_x = 0.5 * (nodes[1:] + nodes[:-1])
    mid_s = np.asarray(from_x(dmap, mid_x), dtype=float) if dmap.kind == ARCTAN else mid_x
    exact = np.asarray(problem.exact(mid_s, grid.horizon), dtype=float)
    mid_err = float(np.abs(eval_batch(params, mid_x, cfg.output_activation)[0] - exact).max())

    _, cost = read_numeric_csv(os.path.join(out, f"cost_step_{grid.n_steps}.csv"))
    values = {"max_abs_err": max_err, "max_abs_err_mid": mid_err, "final_cost": float(cost[-1, 4])}
    _require(all(np.isfinite(v) for v in values.values()), f"non-finite figures {values}")
    digests = {
        n: _sha256(os.path.join(out, n)) for n in csvs if n.startswith(("surface", "params"))
    }
    return values, digests, float(finite[finite[:, 0] <= gate_s_max, 1].max())


def run_solve(wl: Workload, cfg_path: str, work: str, runner, it: Iteration):
    out = os.path.join(work, "out")
    shutil.rmtree(out, ignore_errors=True)
    cmd = runner(["solve", "--config", cfg_path, "--out", out], "solve")
    it.add(cmd, out)
    it.values, it.digests, gated = check_solve(cfg_path, out, cmd, wl.gate_s_max)
    if wl.gate is not None:
        _require(gated <= wl.gate,
                 f"max abs error {gated:.3e} on S <= {wl.gate_s_max:g} exceeds {wl.gate:g}")


def confirm_probe(cfg_path: str, work: str, runner, eta: float, cost: float) -> Dict[str, float]:
    """`solve` one step at the chosen eta, which must reproduce the probe; returns its figures.

    The confirming solve starts from the same initial network and trains the
    same first step (same dt) for the same epochs, so its final cost must equal
    the chosen probe's, and it gives the chosen probe an accuracy figure.
    """
    cfg = load_config(cfg_path)
    with open(cfg_path, encoding="utf-8") as fh:
        mapping = parse_kv_text(fh.read())
    mapping.update({
        "problem.maturity": repr(cfg.maturity / cfg.n_steps),
        "grid.n_steps": "1",
        "training.eta": repr(eta),
        "training.epochs_first": str(cfg.lr_probe_epochs),
    })
    confirm_cfg = write_config(os.path.join(work, "confirm.cfg"), mapping)
    out = os.path.join(work, "confirm")
    shutil.rmtree(out, ignore_errors=True)
    cmd = runner(["solve", "--config", confirm_cfg, "--out", out], "confirm")
    values, _, _ = check_solve(confirm_cfg, out, cmd)
    _require(abs(values["final_cost"] - cost) <= AGREE_RTOL * cost,
             "confirming solve does not reproduce the chosen probe's cost")
    return dict(values, final_cost=cost)


def run_lr_probe(wl: Workload, cfg_path: str, work: str, runner, it: Iteration,
                 confirm: bool = False):
    """`lr-search`; with `confirm`, then confirm_probe, left out of the iteration's
    times and peak RSS, which are the search's own."""
    out = os.path.join(work, "search")
    shutil.rmtree(out, ignore_errors=True)
    cmd = runner(["lr-search", "--config", cfg_path, "--out", out], "search")
    it.add(cmd, out)
    _require(cmd.code == 0, f"lr-search exited {cmd.code}: {cmd.stdout.strip()[-200:]}")
    cfg = load_config(cfg_path)
    _expect_files(out, ["lr_search.csv"] + (["lr_search.svg"] if cfg.plots else []))
    _, rows = read_csv(os.path.join(out, "lr_search.csv"))
    _require(len(rows) == len(cfg.lr_candidates), "lr_search.csv has one row per candidate")
    _require({r[1] for r in rows} <= {"completed", "diverged"}, "unknown probe status")
    done = [(float(r[2]), float(r[0])) for r in rows if r[1] == "completed"]
    _require(done and all(np.isfinite(c) for c, _ in done), "no finite completed probe")
    best_cost, it.chosen_eta = min(done)
    printed = [ln for ln in cmd.stdout.splitlines() if ln.startswith("chosen eta = ")]
    _require(printed == [f"chosen eta = {it.chosen_eta:g}"],
             "printed eta disagrees with lr_search.csv")
    it.values = {"final_cost": best_cost}
    it.digests = {"lr_search.csv": _sha256(os.path.join(out, "lr_search.csv"))}
    if confirm:
        it.values = confirm_probe(cfg_path, work, runner, it.chosen_eta, best_cost)


def run_iteration(wl: Workload, cfg_path: str, work: str, runner,
                  reference: Optional[Dict[str, str]], confirm: bool = False) -> Iteration:
    """One checked iteration; `confirm` adds lr_probe's accuracy figures (see run_lr_probe)."""
    it = Iteration()
    try:
        if wl.command == "lr-search":
            run_lr_probe(wl, cfg_path, work, runner, it, confirm)
        else:
            run_solve(wl, cfg_path, work, runner, it)
        _require(reference is None or it.digests == reference,
                 "outputs differ from the first iteration's")
    except CheckFailed as exc:
        it.failure = str(exc)
    return it


def measure_setup(cfg_path: str, work: str) -> List[float]:
    """Set-up-only children: one warm-up (fills the bytecode cache), then SETUP_REPEATS timed."""
    env = dict(os.environ, **PINNED_ENV)

    def once() -> float:
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, cfg_path], capture_output=True, text=True,
            env=env, cwd=work, timeout=COMMAND_TIMEOUT_S, check=True,
        )
        return float(done.stdout.strip().splitlines()[-1])

    once()
    return [once() for _ in range(SETUP_REPEATS)]


def _blas_name() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment_stamp(load_before) -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "child_env": {k: v for k, v in PINNED_ENV.items() if k != "PYTHONPATH"},
    }


def _number(value):
    """JSON has no NaN: a figure that could not be computed is reported as null."""
    return float(value) if value is not None and np.isfinite(value) else None


def _median(values):
    return statistics.median(values) if values else float("nan")


def closed_loop(seconds: float):
    """Yields iteration indices for a run of about `seconds`: at least one, then another
    only while it is expected to end nearer the deadline than stopping now would. A
    run's length then depends little on how iteration times fall against the deadline,
    which keeps every workload's run near `seconds`."""
    start = time.perf_counter()
    steps: List[float] = []
    while not steps or time.perf_counter() - start + statistics.median(steps) / 2 < seconds:
        t0 = time.perf_counter()
        yield len(steps)
        steps.append(time.perf_counter() - t0)


def _untraced(wl: Workload, cfg_path: str, work: str, seconds: float):
    setup = measure_setup(cfg_path, work)
    iterations: List[Iteration] = []
    reference = None
    for i in closed_loop(seconds):
        it = run_iteration(wl, cfg_path, work, child_runner(work), reference, confirm=i == 0)
        iterations.append(it)
        reference = reference or it.digests or None
    metrics = {
        "wall_s": _median([it.wall_s for it in iterations]),
        "cpu_s": _median([it.cpu_s for it in iterations]),
        "setup_s": _median(setup),
        "peak_rss_mb": _median([it.rss_mb for it in iterations]),
        **iterations[0].values,
    }
    return iterations, metrics, None


def _traced(wl: Workload, cfg_path: str, work: str, seconds: float):
    """Untraced then traced in-process pairs; per-layer figures are medians over the pairs."""
    rec = layers.Recorder()
    iterations: List[Iteration] = []
    figures: List[Dict[str, float]] = []
    untraced_walls: List[float] = []
    reference = None
    for _ in closed_loop(seconds):
        plain = run_iteration(wl, cfg_path, work, inprocess_runner(None), reference)
        reference = reference or plain.digests or None
        rec.run = len(figures)
        with layers.installed(rec):
            it = run_iteration(wl, cfg_path, work, inprocess_runner(rec), reference)
        reference = reference or it.digests or None
        iterations += [plain, it]
        untraced_walls.append(plain.wall_s)
        fig = layers.run_figures(rec.spans, rec.run)
        csvs = [os.path.join(d, n) for d in it.out_dirs if os.path.isdir(d)
                for n in os.listdir(d) if n.endswith(".csv")]
        fig["solver.files_out"] = len(csvs)
        fig["solver.bytes_out"] = sum(os.path.getsize(p) for p in csvs)
        figures.append(fig)

    for name in COUNTS:
        if len({f[name] for f in figures}) > 1 and iterations[-1].failure is None:
            iterations[-1].failure = f"{name} differs between traced runs"
    metrics = {name: _median([f[name] for f in figures]) for name in figures[0]}
    last = rec.last
    if wl.command == "lr-search" and iterations[-1].failure is None:
        # micro-timings need a SolveResult at the chosen probe's parameters: an untimed confirm
        side = layers.Recorder()
        try:
            with layers.installed(side):
                confirm_probe(cfg_path, work, inprocess_runner(None), iterations[-1].chosen_eta,
                              iterations[-1].values["final_cost"])
        except CheckFailed as exc:
            iterations[-1].failure = str(exc)
        last = side.last
    if layers.SOLVE in last:
        metrics.update(layers.micro_timings(last[layers.SOLVE], last[layers.TRAIN_CONFIG]))
    metrics["trace.untraced_wall_s"] = _median(untraced_walls)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    return iterations, metrics, rec


def measure(wl: Workload, seed: Optional[int], seconds: float, trace: bool, root: str,
            work: str, overrides: Optional[Dict[str, str]] = None):
    """Run the closed loop; returns (result, stamp, iterations, recorder or None)."""
    os.makedirs(work, exist_ok=True)
    cfg_path = derive_config(root, wl, work, overrides or {})
    load_before = os.getloadavg()
    iterations, metrics, rec = (_traced if trace else _untraced)(wl, cfg_path, work, seconds)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    failed = sum(it.failure is not None for it in iterations)
    missing = sorted(set(units) - set(metrics))
    if missing and not failed:
        raise RuntimeError(f"metrics not computed: {missing}")
    result = {
        "correct": failed == 0,
        "attempted": len(iterations),
        "failed": failed,
        "metrics": {
            name: {"value": _number(metrics.get(name)), "unit": unit}
            for name, unit in units.items()
        },
    }
    stamp = environment_stamp(load_before)
    stamp.update(workload=wl.name, seed=seed, trace=int(trace),
                 iteration_wall_s=[it.wall_s for it in iterations],
                 failures=[it.failure for it in iterations if it.failure])
    return result, stamp, iterations, rec


def main(argv, root: str) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="recorded in the stamp; the workloads are fixed")
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")

    work = os.path.join(root, ".bench_work", f"{args.workload}-{os.getpid()}")
    try:
        result, stamp, iterations, _ = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), root, work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))  # only when no other run is using it
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']!r:>24} {m['unit']}")
    print(f"{'fail_frac':32s} {result['failed'] / result['attempted']!r:>24} 1")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(json.dumps(result))
    return 0
