"""Outside-in layer trace of one bsann command, plus fixed-size micro-timings.

Spans are recorded from the benchmark's side: `installed()` swaps wrappers into
the namespaces that *call* each public function (`cli` imports
`load_config`, `solve`, `write_solution_outputs` and `write_line_plot` by
name; `solver` imports `train_step_network` and `eval_batch`; `trainer`
calls its own `train_step_network` from `lr_grid_search` and its own
`build_step_context` from the training loop). Private helpers and
`trainer.adam_step`, which the loop reaches through a dict bound at import,
are not wrapped; the inner-epoch split comes from `micro_timings()` instead,
which times the public functions at the workload's own sizes.

A span records its name, start, end, parent span and run id. A layer's self
time is its duration minus the time covered by its direct children.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

import numpy as np

import bsann.cli
import bsann.solver
import bsann.trainer
from bsann.network import eval_batch
from bsann.solver import history_at
from bsann.trainer import (
    OptimizerState,
    TrainingDiverged,
    adam_step,
    build_step_context,
    cost_gradient,
    step_cost,
    train_step_network,
)

CLI = "cli.main"
SOLVE = "solver.solve"
LR_SEARCH = "trainer.lr_grid_search"
TRAIN = "trainer.train_step_network"
CONTEXT = "trainer.build_step_context"
LOAD = "config.load_config"
WRITE = "solver.write_solution_outputs"
PLOT = "plots.write_line_plot"
TRAIN_CONFIG = "config.build_train_config"

# (module, attribute, span name): the importing namespace is patched, because
# a module that did `from x import f` keeps calling its own binding of f
TARGETS = (
    (bsann.cli, "load_config", LOAD),
    (bsann.cli, "build_problem", "config.build_problem"),
    (bsann.cli, "build_map", "config.build_map"),
    (bsann.cli, "build_grid", "config.build_grid"),
    (bsann.cli, "build_train_config", TRAIN_CONFIG),
    (bsann.cli, "solve", SOLVE),
    (bsann.cli, "lr_grid_search", LR_SEARCH),
    (bsann.cli, "error_metrics", "solver.error_metrics"),
    (bsann.cli, "write_solution_outputs", WRITE),
    (bsann.cli, "write_line_plot", PLOT),
    (bsann.solver, "train_step_network", TRAIN),
    (bsann.solver, "eval_batch", "network.eval_batch"),
    (bsann.trainer, "train_step_network", TRAIN),
    (bsann.trainer, "build_step_context", CONTEXT),
)

# relative distance to the final cost within which an epoch counts as settled
SETTLED_RTOL = 0.01

MICRO_WARMUP = 20
MICRO_SAMPLES = 31
MICRO_MIN_BATCH_S = 0.002
MICRO_EPOCHS = 20


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: int
    info: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def useful_epochs(trace: np.ndarray) -> int:
    """First epoch after which the cost stays within SETTLED_RTOL of its final value."""
    final = trace[-1]
    settled = np.abs(trace - final) <= SETTLED_RTOL * abs(final)
    unsettled = np.flatnonzero(~settled)
    return 0 if unsettled.size == 0 else int(unsettled[-1]) + 1


class Recorder:
    """In-memory span list; `run` tags the spans of one workload iteration."""

    def __init__(self):
        self.spans: List[Span] = []
        self.run = 0
        self.last: Dict[str, object] = {}
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), float("nan"), parent, self.run)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                try:
                    out = fn(*args, **kwargs)
                except TrainingDiverged as exc:
                    if name == TRAIN:
                        sp.info.update(epochs=exc.breakdown.shape[0] - 1, useful=0, diverged=1)
                    raise
                if name == TRAIN:
                    sp.info.update(
                        epochs=out.breakdown.shape[0] - 1,
                        useful=useful_epochs(out.breakdown[:, 3]),
                        diverged=0,
                    )
                self.last[name] = out
                return out

        return traced


@contextmanager
def installed(rec: Recorder):
    """Swap the span wrappers in for the duration of the block."""
    saved = []
    try:
        for module, attr, name in TARGETS:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, rec.wrap(name, original))
        yield rec
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def run_figures(spans: List[Span], run: int) -> Dict[str, float]:
    """Per-layer seconds and counts for the spans of one run.

    `trainer.epoch_us` is the self time of `train_step_network` (its context
    build has a span of its own) over the epochs run; `solver.march_other_s`
    is `solve` less the training it called.
    """
    mine = [i for i, sp in enumerate(spans) if sp.run == run]
    covered = defaultdict(float)
    for i in mine:
        if spans[i].parent is not None:
            covered[spans[i].parent] += spans[i].seconds
    total = defaultdict(float)
    own = defaultdict(float)
    for i in mine:
        total[spans[i].name] += spans[i].seconds
        own[spans[i].name] += spans[i].seconds - covered[i]

    def parent_name(sp):
        return spans[sp.parent].name if sp.parent is not None else None

    trains = [spans[i] for i in mine if spans[i].name == TRAIN]
    probes = [sp for sp in trains if parent_name(sp) == LR_SEARCH]
    in_solve = [sp for sp in trains if parent_name(sp) == SOLVE]
    epochs = sum(sp.info["epochs"] for sp in trains)
    return {
        "trace.wall_s": total[CLI],
        "cli.other_s": own[CLI],
        "config.load_s": total[LOAD],
        "solver.march_other_s": total[SOLVE] - sum(sp.seconds for sp in in_solve),
        "solver.write_s": total[WRITE],
        "plots.svg_s": total[PLOT],
        "trainer.train_s": total[TRAIN],
        "trainer.context_s": total[CONTEXT],
        "trainer.epoch_us": 1e6 * own[TRAIN] / max(1, epochs),
        "trainer.epochs": epochs,
        "trainer.steps": len(in_solve),
        "trainer.probes": len(probes),
        "trainer.probes_diverged": sum(sp.info["diverged"] for sp in probes),
        "trainer.useful_epoch_frac": sum(sp.info["useful"] for sp in trains) / max(1, epochs),
    }


def check_nesting(spans: List[Span]) -> List[str]:
    """Every span lies inside its parent and shares its parent's run id."""
    problems = []
    for i, sp in enumerate(spans):
        if not sp.start <= sp.end:
            problems.append(f"span {i} ({sp.name}) ends before it starts")
        if sp.parent is None:
            continue
        up = spans[sp.parent]
        if sp.parent >= i or up.run != sp.run or sp.start < up.start or sp.end > up.end:
            problems.append(f"span {i} ({sp.name}) lies outside its parent {up.name}")
    return problems


def _per_call_seconds(fns: Dict[str, Callable[[], object]]) -> Dict[str, List[float]]:
    """MICRO_SAMPLES per-call times of each function, taken round-robin so that a drift
    in machine speed hits every function alike; each sample times a batch of calls
    lasting at least MICRO_MIN_BATCH_S, after MICRO_WARMUP calls."""
    batches = {}
    for name, fn in fns.items():
        for _ in range(MICRO_WARMUP):
            fn()
        batch = 1
        while True:
            t0 = time.perf_counter()
            for _ in range(batch):
                fn()
            if time.perf_counter() - t0 >= MICRO_MIN_BATCH_S:
                break
            batch *= 2
        batches[name] = batch
    samples = {name: [] for name in fns}
    for _ in range(MICRO_SAMPLES):
        for name, fn in fns.items():
            t0 = time.perf_counter()
            for _ in range(batches[name]):
                fn()
            samples[name].append((time.perf_counter() - t0) / batches[name])
    return samples


def micro_timings(result, train_cfg) -> Dict[str, float]:
    """Median and quartiles (µs per call) of the public per-epoch functions.

    Sizes and parameters are the workload's own: the trained parameters of
    the last step of `result` (a SolveResult). `trainer.context_us` and
    `stepper.history_us` are taken at the last step index, where the L1
    memory sum is longest. `cost_gradient` and `step_cost` rebuild the context
    on every call, so they are timed at step index 0, where the context is
    cheapest, and `trainer.grad_us` and `trainer.cost_us` are per-sample
    differences from the context build timed in the same round.
    `trainer.loop_us` is what a training epoch costs beyond the gradient and
    the update: `train_step_network` over MICRO_EPOCHS epochs at step index 0,
    less its context build, per epoch, minus `grad_us` and `update_us`, all
    from the same rounds (the spans' `trainer.epoch_us` is timed at another
    moment, and this host's speed drifts by more than the loop's share).
    """
    last = result.grid.n_steps - 1
    history = history_at(result, last)
    params = result.params_per_step[-1]
    tail = (result.theta, None, result.output_activation)
    common = (result.problem, result.dmap, result.grid, result.colloc)
    at_last = common + (history, last) + tail
    at_first = common + (history_at(result, 0), 0) + tail
    flat = params.to_flat()
    grad = cost_gradient(params, *at_first).to_flat()
    state = OptimizerState(m=0.1 * grad, v=grad * grad, iteration=last)
    short = replace(train_cfg, epochs_first=MICRO_EPOCHS)
    raw = _per_call_seconds({
        "epoch": lambda: train_step_network(params, *at_first[:6], short, *tail),
        "first_context": lambda: build_step_context(*at_first),
        "trainer.context_us": lambda: build_step_context(*at_last),
        "trainer.cost_us": lambda: step_cost(params, *at_first),
        "trainer.grad_us": lambda: cost_gradient(params, *at_first),
        "trainer.update_us": lambda: adam_step(state, flat, grad, train_cfg),
        "network.eval_us": lambda: eval_batch(params, result.colloc.points, *tail[2:]),
        "stepper.history_us": history.values,
    })
    base = raw.pop("first_context")
    epoch = [(s - b) / MICRO_EPOCHS for s, b in zip(raw.pop("epoch"), base)]
    for name in ("trainer.cost_us", "trainer.grad_us"):
        raw[name] = [s - b for s, b in zip(raw[name], base)]
    raw["trainer.loop_us"] = [
        e - g - u for e, g, u in zip(epoch, raw["trainer.grad_us"], raw["trainer.update_us"])
    ]
    out = {"micro.samples": MICRO_SAMPLES}
    for name, samples in raw.items():
        q1, median, q3 = statistics.quantiles([1e6 * s for s in samples], n=4)
        out[name] = median
        if name != "trainer.loop_us":
            out[name + ".q1"] = q1
            out[name + ".q3"] = q3
    return out
