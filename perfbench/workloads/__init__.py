"""Benchmark workloads. Each one drives the engine's public functions
from outside and stresses one group of modules while barely touching
the others.

A workload object lives in the worker process (perfbench/worker.py):

- `setup()` makes the seeded inputs; it is timed as part of `setup_s`
  together with Ray start and the first (warm-up) op.
- `reference()` compares the warm-up op's answer (`self.first`, already
  checked) with answers computed another way, and records any mismatch
  in `ref_problems`, which every later check reports. It runs once per
  worker, outside every timer.
- `op(i, corrupt)` is one timed operation on input i. The warm-up op
  has i = 0, and tail ops (see Spec) have i = -1, -2, ... It returns a
  dict with the number of work items it processed under `items`, plus
  whatever the checks need. `corrupt=True` damages the output before it
  is checked, which the self-check uses to prove that a wrong answer is
  caught.
- `check(res)` returns the list of problems with one op's answer.
- `layers(res)` maps one op's result to per-layer metrics.
- `layer_passes()` runs in the traced run only: single-layer passes
  that time one layer on its own.
"""

from __future__ import annotations

import importlib
from typing import NamedTuple


class Spec(NamedTuple):
    module: str
    why: str
    op_limit_s: float = 30.0  # ops take 1-4 s
    lap: int = 1  # a run ends after a whole number of laps of this many ops
    min_ops: int = 1  # ops an untraced run makes at least
    split: float = 0.5  # share of an untraced run's ops and op time on its first worker
    tail: int = 0  # known hangs, run once each, untraced, after every other op


WORKLOADS = {
    "search": Spec(
        "perfbench.workloads.search",
        "the paper's core loop (enumeration, sympy dedup, CV scoring, pruning) "
        "with no Ray Data pass, so data-stage changes must read as no change",
        min_ops=3,  # three samples per run
    ),
    "backfill": Spec(
        "perfbench.workloads.backfill",
        "the production job: fit, resumable map-only backfill with no exchange, "
        "and a resume that must skip every shard; the one workload that writes data",
        min_ops=3,
    ),
    "temporal": Spec(
        "perfbench.workloads.temporal",
        "as-of plus lag/lead plus sessionize in one entity-hash exchange over a "
        "skewed stream, where the hottest bucket sets the pace",
    ),
    "registry": Spec(
        "perfbench.workloads.registry",
        "many small relational plans where fixed per-plan overhead dominates; "
        "relational.py is most of the code, and its num_cpus=1 hang counts as a failed op",
        op_limit_s=8.0,  # see registry.py
        lap=4,  # one op per query of registry.WORKING
        min_ops=8,  # two laps: a query's first run in a worker is the slower one
        split=0.0,  # all on the last worker, so the second lap runs warm
        tail=1,  # registry.KNOWN_HANGS
    ),
}


class Workload:
    def __init__(self, seed: int, workdir: str, tracer, scale: float = 1.0):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.scale = scale
        self.ref_problems: list[str] = []

    def setup(self) -> None:
        raise NotImplementedError

    def reference(self) -> None:
        pass

    def op(self, i: int, corrupt: bool = False) -> dict:
        raise NotImplementedError

    def check(self, res: dict) -> list[str]:
        raise NotImplementedError

    def layers(self, res: dict) -> dict[str, float]:
        return {}

    def layer_passes(self) -> dict[str, float]:
        return {}


def drain(ds) -> int:
    """Execute a Dataset through the driver and count its rows."""
    return sum(b.num_rows for b in ds.iter_batches(batch_format="pyarrow", batch_size=None))


def make(name: str, seed: int, workdir: str, tracer, scale: float = 1.0) -> Workload:
    return importlib.import_module(WORKLOADS[name].module).WORKLOAD(seed, workdir, tracer, scale)
