"""`backfill`: the production backfill job over a seeded Parquet token table.

Stresses sources, stages.token_stats, stages.fit, stages.backfill and
state.checkpoint. Each op follows scripts/backfill_job.py: fit the eight
job features, run the resumable backfill into a fresh directory, then
run it again, which must skip every shard. It is map-only with no
exchange, and it is the one workload that writes data.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .. import inputs
from . import Workload, drain

ROWS = 12_000
FILES = 16
SHARDS = 8


def job_features() -> list:
    """The eight features of the backfill job's SPECS, with the same raw
    column properties the job declares."""
    from complexity_driven_feature_construction_ray.functions.expr import (
        binary,
        groupbythen,
        raw,
        unary,
    )

    n_tok = raw("n_tok", properties={"min": 1.0, "max": 512.0, "has_zero": False, "distinct": 512})
    tok_mean = raw("tok_mean", properties={"min": 0.0, "max": 50257.0, "has_zero": False})
    source = raw("source", "categorical", {"distinct": 5})
    return [
        unary("log", n_tok),
        unary("minmax", n_tok),
        unary("zscore", tok_mean),
        unary("reciprocal", n_tok),
        binary("add", n_tok, tok_mean),
        binary("div", tok_mean, n_tok),
        groupbythen("mean", n_tok, source),
        groupbythen("max", tok_mean, source),
    ]


def _read_dir(path: str, columns: list[str]) -> pa.Table:
    files = sorted(glob.glob(os.path.join(path, "*.parquet")))
    return pa.concat_tables([pq.read_table(f, columns=columns) for f in files])


class Backfill(Workload):
    def setup(self) -> None:
        self.rows = max(2_000, int(ROWS * self.scale))
        self.table = inputs.token_table(self.rows, self.seed)
        self.files = inputs.write_parts(self.table, os.path.join(self.workdir, "input"), FILES)
        self.features = job_features()
        self.names = [f.name for f in self.features]

    def op(self, i: int, corrupt: bool = False) -> dict:
        import ray.data

        from complexity_driven_feature_construction_ray.stages.fit import fit_distributed
        from complexity_driven_feature_construction_ray.stages.token_stats import (
            TOKEN_STAT_COLS,
            token_stats_dataset,
        )
        from complexity_driven_feature_construction_ray.state.checkpoint import (
            resumable_backfill,
        )

        out = os.path.join(self.workdir, f"out-{i}")
        t0 = time.perf_counter()
        with self.tracer.span("fit"):
            fitted = fit_distributed(
                self.features,
                token_stats_dataset(ray.data.read_parquet(self.files)),
                input_cols=[*self.table.column_names, *TOKEN_STAT_COLS],
            )
        t1 = time.perf_counter()
        with self.tracer.span("backfill"):
            first = resumable_backfill(self.files, out, self.features, fitted, num_shards=SHARDS)
        t2 = time.perf_counter()
        with self.tracer.span("checkpoint.resume"):
            again = resumable_backfill(self.files, out, self.features, fitted, num_shards=SHARDS)
        t3 = time.perf_counter()
        if corrupt:
            victim = sorted(glob.glob(os.path.join(out, "shard=00000", "*.parquet")))[0]
            t = pq.read_table(victim)
            pq.write_table(t.slice(0, t.num_rows - 1), victim)
        return {
            "items": self.rows,
            "i": i,
            "out": out,
            "computed": first["computed"],
            "skipped": again["skipped"],
            "recomputed": again["computed"],
            "fit_s": t1 - t0,
            "backfill_s": t2 - t1,
            "resume_s": t3 - t2,
        }

    def _features_of(self, out: str) -> np.ndarray:
        t = _read_dir(os.path.join(out, "shard=*"), ["doc_id", *self.names])
        t = t.take(pa.compute.sort_indices(t, [("doc_id", "ascending")]))
        return np.column_stack([t[n].to_numpy() for n in self.names])

    def reference(self) -> None:
        """Fit and evaluate the same features on the whole table in memory
        (functions.kernels) and compare with the warm-up op's output."""
        from complexity_driven_feature_construction_ray.functions.kernels import (
            evaluate,
            fit_on_arrays,
        )
        from complexity_driven_feature_construction_ray.stages.token_stats import (
            token_stats_arrays,
        )

        cols = {
            "n_tok": self.table["n_tok"].to_numpy().astype(np.float64),
            "source": self.table["source"].to_numpy(zero_copy_only=False),
        }
        cols.update(token_stats_arrays(self.table["tokens"]))
        fitted = fit_on_arrays(self.features, cols)
        expect = np.column_stack([evaluate(f, cols, fitted) for f in self.features])
        if not np.allclose(self.first_features, expect, rtol=1e-9, atol=0.0, equal_nan=True):
            self.ref_problems.append("warm-up features differ from the in-memory fit")

    def check(self, res: dict) -> list[str]:
        problems = list(self.ref_problems)
        out = res["out"]
        try:
            every = list(range(SHARDS))
            if res["computed"] != every:
                problems.append(f"first run computed shards {res['computed']}")
            if res["skipped"] != every or res["recomputed"]:
                problems.append(f"resume skipped {res['skipped']}, recomputed {res['recomputed']}")
            lineage = [self._lineage(out, s) for s in every]
            written = sum(
                pq.read_metadata(f).num_rows
                for f in glob.glob(os.path.join(out, "shard=*", "*.parquet"))
            )
            if written != self.rows or sum(r["rows"] for r in lineage) != self.rows:
                problems.append(f"wrote {written} rows of {self.rows}")
            shard = (self.seed + res["i"]) % SHARDS
            got = _read_dir(os.path.join(out, f"shard={shard:05d}"), ["doc_id", "tokens"])
            src = pa.concat_tables(
                pq.read_table(f, columns=["doc_id", "tokens"]) for f in lineage[shard]["input_files"]
            )
            got, src = (t.take(pa.compute.sort_indices(t, [("doc_id", "ascending")])) for t in (got, src))
            if not got.equals(src):
                problems.append(f"shard {shard}: token arrays differ from the source")
            feats = self._features_of(out)
            if not hasattr(self, "first_features"):
                self.first_features = feats
            elif feats.shape != self.first_features.shape or not np.array_equal(
                feats, self.first_features, equal_nan=True
            ):
                problems.append("feature values differ from the warm-up op")
            res["bytes_written"] = sum(
                os.path.getsize(f) for f in glob.glob(os.path.join(out, "**"), recursive=True)
                if os.path.isfile(f)
            )
            res["shard_s"] = [r["seconds"] for r in lineage]
        except (OSError, ValueError, KeyError, pa.ArrowException) as e:
            problems.append(f"output unreadable: {e!r}")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return problems

    @staticmethod
    def _lineage(out: str, shard: int) -> dict:
        with open(os.path.join(out, f"shard={shard:05d}", "_lineage.json")) as fh:
            return json.load(fh)

    def layers(self, res: dict) -> dict[str, float]:
        return {
            "fit.s": res["fit_s"],
            "fit.rows_per_s": self.rows / res["fit_s"],
            "backfill.s": res["backfill_s"],
            "backfill.rows_per_s": self.rows / res["backfill_s"],
            "backfill.bytes_written": res.get("bytes_written", 0),
            "backfill.shard_s_p50": float(np.median(res.get("shard_s", [0.0]))),
            "checkpoint.resume_s": res["resume_s"],
            "checkpoint.shards_computed": len(res["computed"]),
            "checkpoint.shards_skipped": len(res["skipped"]),
        }

    def layer_passes(self) -> dict[str, float]:
        """One read pass through `sources`, then one token-stats pass over
        the already-read blocks, each timed on its own."""
        import ray.data

        from complexity_driven_feature_construction_ray.sources.readers import read_table
        from complexity_driven_feature_construction_ray.stages.token_stats import (
            token_stats_dataset,
        )

        t0 = time.perf_counter()
        with self.tracer.span("sources.read"):
            n_read = drain(read_table(os.path.join(self.workdir, "input")))
        t1 = time.perf_counter()
        held = ray.data.read_parquet(self.files).materialize()
        t2 = time.perf_counter()
        with self.tracer.span("token_stats"):
            n_stats = drain(token_stats_dataset(held))
        t3 = time.perf_counter()
        if n_read != self.rows or n_stats != self.rows:
            raise RuntimeError(f"layer passes saw {n_read}/{n_stats} rows of {self.rows}")
        return {"sources.read_s": t1 - t0, "token_stats.s": t3 - t2}


WORKLOAD = Backfill
