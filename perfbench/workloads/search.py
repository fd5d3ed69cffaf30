"""`search`: the complexity-driven search over seeded token-table samples.

Stresses pipelines.search, functions.sympy_rules and functions.kernels.
Base features come from one column_stats pass during setup; the op
itself runs no Ray Data pass (scoring runs as Ray tasks), so a change to
the data stages must read as no change here.

How much work a search does depends on its sample: which candidates
survive pruning, and how fast each one's CV fits converge, vary from
sample to sample by about 20%. So the seed draws SAMPLES samples and
op i searches sample i mod SAMPLES; a run's median then spans several
inputs instead of resting on one.

Every answer is checked against the pinned answer for its seed, row
count and sample in perfbench/search_pins.json (written by
perfbench/make_pins.py); a sample with no pinned answer is checked
against its first answer in the run.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pyarrow as pa

from .. import inputs
from . import Workload

ROWS = 150
SAMPLES = 5
C_MAX = 3  # also at the self-check's size, where a search takes about 2.5 s
COUNTS = ("enumerated", "deduped_sympy", "deduped_value", "constant", "pruned_eps", "scored")
PINS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "search_pins.json")
SCORE_TOL = 1e-9  # CV scores may differ in their last bits between machines


def pin_key(seed: int, rows: int, sample: int) -> str:
    return f"{seed}/{rows}/{sample}"


def load_pins() -> dict[str, dict]:
    if not os.path.exists(PINS):
        return {}
    with open(PINS) as fh:
        return json.load(fh)


def rescore(feat, cols: dict, y: np.ndarray) -> float:
    """The CV score of one feature, re-derived from the layers below the
    search: per-fold fit on the train slice, evaluate on the test slice,
    then the grid-searched CV score with the search's default settings."""
    from complexity_driven_feature_construction_ray.functions.kernels import (
        evaluate,
        fit_on_arrays,
    )
    from complexity_driven_feature_construction_ray.pipelines.model import (
        C_GRID,
        cv_score,
        stratified_folds,
    )

    fold = stratified_folds(y, 5, 42)
    col = np.empty(len(y))
    for f in range(5):
        tr = fold != f
        fitted = fit_on_arrays([feat], {c: v[tr] for c, v in cols.items()}, y=y[tr])
        col[~tr] = evaluate(feat, {c: v[~tr] for c, v in cols.items()}, fitted)
    return cv_score(col, y, fold, C_GRID, 25)[0]


class Search(Workload):
    def setup(self) -> None:
        import ray.data

        from complexity_driven_feature_construction_ray.stages.stats import (
            base_features_from_stats,
            column_stats,
        )
        from complexity_driven_feature_construction_ray.stages.token_stats import (
            TOKEN_STAT_COLS,
            token_stats_arrays,
        )

        self.rows = rows = max(60, int(ROWS * self.scale))
        self.samples = []
        for part in range(SAMPLES):
            t = inputs.token_table(rows, self.seed, part)
            cols = {
                "n_tok": t["n_tok"].to_numpy().astype(np.float64),
                "source": t["source"].to_numpy(zero_copy_only=False),
            }
            cols.update(token_stats_arrays(t["tokens"]))
            self.samples.append((cols, t["label"].to_numpy().astype(np.int8)))
        union = pa.concat_tables(pa.table(cols) for cols, _y in self.samples)
        stats = column_stats(ray.data.from_arrow(union), ["n_tok", "source", *TOKEN_STAT_COLS])
        self.base = base_features_from_stats(stats)
        stored = load_pins()
        self.pins = {
            k: stored[pin_key(self.seed, rows, k)]
            for k in range(SAMPLES)
            if pin_key(self.seed, rows, k) in stored
        }

    def op(self, i: int, corrupt: bool = False) -> dict:
        from complexity_driven_feature_construction_ray.pipelines.search import (
            ComplexityDrivenSearch,
        )

        k = i % SAMPLES
        cols, y = self.samples[k]
        with self.tracer.span("search.run"):
            result = ComplexityDrivenSearch(c_max=C_MAX).run(cols, y, self.base)
        self.last = (k, result)
        res = {
            "items": result.stats["scored"],
            "sample": k,
            "best": result.best.name,
            "score": result.best.score,
            "seconds": result.stats["seconds"],
            **{c: result.stats[c] for c in COUNTS},
        }
        if corrupt:
            res["score"] += 1e-6
        return res

    def check(self, res: dict) -> list[str]:
        """The best score must re-derive exactly, the counts must add up,
        and the answer must equal the sample's pinned one."""
        k, result = self.last
        cols, y = self.samples[k]
        problems = []
        score = rescore(result.best.feature, cols, y)
        if abs(score - res["score"]) > 1e-12:
            problems.append(f"best {res['best']} rescored {score!r}, search said {res['score']!r}")
        lost = res["enumerated"] - res["constant"] - res["deduped_sympy"] - res["deduped_value"]
        if lost != res["scored"]:
            problems.append(f"scored {res['scored']} != enumerated minus pruned {lost}")
        pin = self.pins.setdefault(k, {c: res[c] for c in ("best", "score", *COUNTS)})
        for c in ("best", *COUNTS):
            if res[c] != pin[c]:
                problems.append(f"sample {k} {c}: {res[c]!r} != pinned {pin[c]!r}")
        if abs(res["score"] - pin["score"]) > SCORE_TOL:
            problems.append(f"sample {k} score: {res['score']!r} != pinned {pin['score']!r}")
        return problems

    def layers(self, res: dict) -> dict[str, float]:
        out = {"search.run_s": res["seconds"]}
        out.update({f"search.{c}": res[c] for c in COUNTS})
        out["search.scored_per_enumerated"] = res["scored"] / max(1, res["enumerated"])
        return out

    def layer_passes(self) -> dict[str, float]:
        """One canonical_key and one fit_on_arrays + evaluate per scored
        candidate of the last search over its whole sample: the
        per-candidate work that the search multiplies by its CV folds."""
        from complexity_driven_feature_construction_ray.functions.kernels import (
            evaluate,
            fit_on_arrays,
        )
        from complexity_driven_feature_construction_ray.functions.sympy_rules import (
            canonical_key,
        )

        k, result = self.last
        cols, y = self.samples[k]
        key_s = eval_s = 0.0
        for s in result.all_scored.values():
            t0 = time.perf_counter()
            with self.tracer.span("sympy_rules.canonical_key"):
                canonical_key(s.feature)
            t1 = time.perf_counter()
            with self.tracer.span("kernels.evaluate"):
                evaluate(s.feature, cols, fit_on_arrays([s.feature], cols, y=y))
            key_s += t1 - t0
            eval_s += time.perf_counter() - t1
        return {"sympy_rules.canonical_key_s": key_s, "kernels.evaluate_s": eval_s}


WORKLOAD = Search
