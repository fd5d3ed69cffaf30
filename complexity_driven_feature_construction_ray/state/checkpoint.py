"""Checkpoint / lineage store for resumable backfill.

The reference's only persistence is write-only per-layer pickle dumps
with no resume path (reference ComplexityDrivenFeatureConstruction.py:
632-654; SURVEY.md §4 "Checkpoint/resume: none"). Here resumability is
first-class (BASELINE.md gate): output is laid out one directory per
input shard, written atomically (tmp dir + rename), with a
`_lineage.json` per shard recording the input fingerprint, plan hash,
row counts and stage metrics. A restarted run revalidates each shard's
lineage and skips completed shards without recomputation.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import time


def plan_fingerprint(features, fitted) -> str:
    """Stable hash of the feature plan + fitted-state identity."""
    h = hashlib.blake2b(digest_size=16)
    for f in sorted(f.name for f in features):
        h.update(f.encode())
    for k in sorted(fitted):
        h.update(k.encode())
    return h.hexdigest()


def _input_fingerprint(files: list[str]) -> str:
    h = hashlib.blake2b(digest_size=16)
    for f in sorted(files):
        st = os.stat(f)
        h.update(f.encode())
        h.update(str(st.st_size).encode())
    return h.hexdigest()


_OP_STATS_RE = re.compile(
    r"^Operator \d+ (.+?): (\d+) tasks executed, "
    r"(\d+) blocks produced in ([0-9.]+)s",
    re.M,
)


def stage_metrics(ds) -> dict:
    """Structured per-operator metrics from Dataset.stats() for the
    lineage record: (operator, tasks, blocks, seconds) per stage plus
    end-to-end rows/s. Best-effort — the stats string is a Ray-internal
    format, so parse failures degrade to an empty record rather than
    failing the shard commit."""
    try:
        s = ds.stats()
        ops = [
            {
                "operator": m.group(1),
                "tasks": int(m.group(2)),
                "blocks": int(m.group(3)),
                "seconds": float(m.group(4)),
            }
            for m in _OP_STATS_RE.finditer(s)
        ]
        thr = re.search(r"Ray Data throughput: ([0-9.eE+]+) rows/s", s)
        return {
            "operators": ops,
            "rows_per_sec": round(float(thr.group(1)), 1) if thr else None,
        }
    except Exception:
        return {"operators": [], "rows_per_sec": None}


class LineageStore:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)

    def shard_dir(self, shard: int) -> str:
        return os.path.join(self.out_dir, f"shard={shard:05d}")

    def lineage_path(self, shard: int) -> str:
        return os.path.join(self.shard_dir(shard), "_lineage.json")

    def is_complete(self, shard: int, input_fp: str, plan_fp: str) -> bool:
        try:
            with open(self.lineage_path(shard)) as fh:
                rec = json.load(fh)
            return rec["input_fingerprint"] == input_fp and rec["plan_fingerprint"] == plan_fp
        except (OSError, json.JSONDecodeError, KeyError):
            return False

    def read(self, shard: int) -> dict | None:
        try:
            with open(self.lineage_path(shard)) as fh:
                return json.load(fh)
        except OSError:
            return None

    def commit(self, shard: int, tmp_dir: str, record: dict) -> None:
        """Atomic publish: tmp dir -> shard dir, then the lineage record."""
        final = self.shard_dir(shard)
        if os.path.exists(final):
            shutil.rmtree(final)
        os.rename(tmp_dir, final)
        with open(self.lineage_path(shard) + ".tmp", "w") as fh:
            json.dump(record, fh, indent=1)
        os.rename(self.lineage_path(shard) + ".tmp", self.lineage_path(shard))


def resumable_backfill(
    input_files: list[str],
    out_dir: str,
    features,
    fitted,
    *,
    num_shards: int = 8,
    concurrency: int | None = None,
    batch_size: int | None = 4096,
    keep_input: bool = True,
    stop_after_shards: int | None = None,
) -> dict:
    """Backfill `features` over the Parquet `input_files`, resumably.

    Files are grouped into `num_shards` shards; each shard streams
    through token-stats + FeatureBackfill tasks and publishes
    atomically with a lineage record. Completed shards (matching input
    + plan fingerprints) are skipped on rerun. `stop_after_shards` is a
    test hook simulating a mid-run kill after N shards.
    """
    import ray.data

    from ..stages.backfill import backfill_dataset
    from ..stages.token_stats import token_stats_dataset

    store = LineageStore(out_dir)
    plan_fp = plan_fingerprint(features, fitted)
    shards = [sorted(input_files)[i::num_shards] for i in range(num_shards)]
    shards = [s for s in shards if s]

    done, skipped = [], []
    for i, files in enumerate(shards):
        if stop_after_shards is not None and len(done) >= stop_after_shards:
            break
        input_fp = _input_fingerprint(files)
        if store.is_complete(i, input_fp, plan_fp):
            skipped.append(i)
            continue
        t0 = time.time()
        ds = ray.data.read_parquet(files)
        out = backfill_dataset(
            token_stats_dataset(ds),
            features,
            fitted,
            concurrency=concurrency,
            batch_size=batch_size,
            keep_input=keep_input,
        )
        # pid-suffixed tmp dir + stale sweep. The suffix keeps THIS
        # run's cleanup from deleting another live writer's in-progress
        # tmp; the glob sweep reclaims shard-sized leftovers of KILLED
        # runs (otherwise they leak forever under new pids). Ownership
        # contract: one writer per out_dir at a time — commit() is
        # last-writer-wins (rmtree + rename), so concurrent writers to
        # the same out_dir must be serialized by the caller.
        import glob

        for stale in glob.glob(store.shard_dir(i) + ".tmp-*"):
            shutil.rmtree(stale, ignore_errors=True)
        tmp = store.shard_dir(i) + f".tmp-{os.getpid()}"
        out.write_parquet(tmp)
        # row count from the written files' metadata — no extra data pass
        import pyarrow.parquet as pq

        n_rows = sum(
            pq.read_metadata(os.path.join(tmp, f)).num_rows
            for f in os.listdir(tmp)
            if f.endswith(".parquet")
        )
        store.commit(
            i,
            tmp,
            {
                "shard": i,
                "input_files": files,
                "input_fingerprint": input_fp,
                "plan_fingerprint": plan_fp,
                "n_features": len(features),
                "rows": n_rows,
                "seconds": round(time.time() - t0, 3),
                "stage_metrics": stage_metrics(out),
                "completed_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            },
        )
        done.append(i)
    return {"shards": len(shards), "computed": done, "skipped": skipped, "plan_fingerprint": plan_fp}
