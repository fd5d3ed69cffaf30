"""Checkpoint / lineage store for resumable backfill.

The reference's only persistence is write-only per-layer pickle dumps
with no resume path (reference ComplexityDrivenFeatureConstruction.py:
632-654; SURVEY.md §4 "Checkpoint/resume: none"). Here output is laid
out one directory per input shard, published atomically (tmp dir +
rename) with a `_lineage.json` recording the input fingerprint (path,
size, mtime), the plan hash (feature names, fitted values), row counts
and stage metrics; a rerun skips shards whose lineage still matches.
All pending shards run as ONE Ray Data execution whose last stage
writes each shard's rows; the driver commits a shard as soon as the
task holding its last rows ends. No read block spans two shards, and a
backfill task bundles whole blocks up to `batch_size` rows, so a kill
loses the shards in running tasks: one per task when shards hold at
least `batch_size` rows, a few per task when they are smaller.
"""

from __future__ import annotations

import functools
import glob
import hashlib
import itertools
import json
import os
import re
import shutil
import time
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq


def _feed(h, v) -> None:
    """Hash `v` by value, the same in every process: numeric arrays by
    dtype, shape and bytes, object and string arrays element by element,
    containers item by item (dicts in key order), the rest by repr."""
    if isinstance(v, (np.ndarray, np.generic)):
        a = np.asarray(v)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        if a.dtype.kind not in "OSU":
            return h.update(np.ascontiguousarray(a).tobytes())
        v = a.ravel().tolist()
    if isinstance(v, dict):
        v = sorted(v.items(), key=lambda kv: repr(kv[0]))
    if isinstance(v, (tuple, list)):
        h.update(f"{type(v).__name__}{len(v)}".encode())
        for x in v:
            _feed(h, x)
    else:
        r = repr(v).encode()
        h.update(f"{type(v).__name__}{len(r)}:".encode() + r)


def _digest(v) -> str:
    h = hashlib.blake2b(digest_size=16)
    _feed(h, v)
    return h.hexdigest()


def plan_fingerprint(features, fitted) -> str:
    """Stable hash of the feature names + the fitted values."""
    return _digest((sorted(f.name for f in features), fitted))


def _input_fingerprint(files: list[str]) -> str:
    stats = [(f, os.stat(f)) for f in sorted(files)]
    return _digest([(f, st.st_size, st.st_mtime_ns) for f, st in stats])


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

    def commit(self, shard: int, tmp_dir: str, record: dict) -> None:
        """Atomic publish: tmp dir -> shard dir, then the lineage record."""
        final = self.shard_dir(shard)
        if os.path.exists(final):
            shutil.rmtree(final)
        os.rename(tmp_dir, final)
        with open(self.lineage_path(shard) + ".tmp", "w") as fh:
            json.dump(record, fh, indent=1)
        os.rename(self.lineage_path(shard) + ".tmp", self.lineage_path(shard))


_MANIFEST = pa.schema([("shard", pa.int64()), ("rows", pa.int64()), ("file", pa.string())])


def _write_shards(batch: pa.Table, *, shard_of, tmp_of, features) -> pa.Table:
    """Split a backfilled batch by the shard of each row's `path`, write
    each part into its shard's tmp dir, and return the (shard, rows,
    file) manifest. With `features` (keep_input=False) a part holds what
    FeatureBackfill(keep_input=False) writes: doc_id, then each feature
    column as float64."""
    written = []
    if batch.num_rows:
        paths = pc.dictionary_encode(batch["path"].combine_chunks())
        codes = np.array([shard_of[p] for p in paths.dictionary.to_pylist()])
        shard = codes[paths.indices.to_numpy()]
        if features is None:
            batch = batch.drop_columns(["path"])
        else:
            cols = {c: batch[c] for c in ("doc_id",) if c in batch.column_names}
            for c in features:
                if c not in cols:
                    cols[c] = np.asarray(batch[c].to_numpy(zero_copy_only=False), np.float64)
            batch = pa.table(cols)
        for s in np.unique(shard).tolist():
            part, name = batch.filter(pa.array(shard == s)), f"{uuid.uuid4().hex}.parquet"
            pq.write_table(part, os.path.join(tmp_of[s], name))
            written.append({"shard": s, "rows": part.num_rows, "file": name})
    return pa.Table.from_pylist(written, schema=_MANIFEST)


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

    Files are grouped into `num_shards` shards. Shards whose lineage
    matches their input + plan fingerprints are skipped; the rest stream
    through token-stats + FeatureBackfill tasks in one Ray Data
    execution. A shard commits (rename, then lineage record) as soon as
    its written rows reach its input row count from the Parquet footers,
    that is when the task holding its last rows ends; a task holds one
    shard, or several when shards are smaller than `batch_size` (see the
    module docstring). A shard still short when the stream ends raises
    and never commits.
    A record's `seconds` is run start -> commit and its `stage_metrics`
    are the run's operator stats at commit. `stop_after_shards=N`, a
    test hook simulating a mid-run kill, computes only the first N
    pending shards.
    """
    import ray.data

    from ..stages.backfill import backfill_dataset
    from ..stages.token_stats import token_stats_dataset

    t0 = time.time()
    store = LineageStore(out_dir)
    plan_fp = plan_fingerprint(features, fitted)
    shards = [sorted(input_files)[i::num_shards] for i in range(num_shards)]
    shards = [s for s in shards if s]
    input_fps = [_input_fingerprint(files) for files in shards]
    skipped = [i for i, fp in enumerate(input_fps) if store.is_complete(i, fp, plan_fp)]
    todo = [i for i in range(len(shards)) if i not in skipped][:stop_after_shards]
    done: list[int] = []
    report = {"shards": len(shards), "computed": done, "skipped": skipped, "plan_fingerprint": plan_fp}
    if not todo:
        return report
    # pid-suffixed tmp dirs + stale sweep: the suffix keeps this run
    # from deleting another live writer's tmp; the sweep reclaims the
    # leftovers of killed runs. One writer per out_dir at a time:
    # commit() is last-writer-wins (rmtree + rename).
    tmp_of = {i: store.shard_dir(i) + f".tmp-{os.getpid()}" for i in todo}
    for i in todo:
        for stale in glob.glob(store.shard_dir(i) + ".tmp-*"):
            shutil.rmtree(stale, ignore_errors=True)
        os.makedirs(tmp_of[i])
    # Files in shard order, one read task per pending shard: Ray splits
    # the list with np.array_split, and pending shards' file counts
    # never grow and differ by at most one, so the splits fall on shard
    # boundaries and no read block mixes two shards. The read's
    # parallelism is the pending shard count.
    shard_of = {f: i for i in todo for f in shards[i]}
    expect = {i: sum(pq.read_metadata(f).num_rows for f in shards[i]) for i in todo}
    read = ray.data.read_parquet(list(shard_of), include_paths=True, override_num_blocks=len(todo))
    # keep_input=True keeps the `path` shard tag; for keep_input=False
    # the writer keeps FeatureBackfill's columns, in its order
    ordered = sorted(features, key=lambda f: (f.complexity, f.name))
    names = list(dict.fromkeys(f.name for f in ordered))
    out = backfill_dataset(
        token_stats_dataset(read),
        features,
        fitted,
        concurrency=concurrency,
        batch_size=batch_size,
    ).map_batches(
        functools.partial(
            _write_shards,
            shard_of=shard_of,
            tmp_of=tmp_of,
            features=None if keep_input else names,
        ),
        batch_format="pyarrow",
        batch_size=None,
        concurrency=concurrency,  # the backfill's, so the two stages fuse
    )
    rows, files = dict.fromkeys(todo, 0), {i: set() for i in todo}
    # no prefetch: it holds each manifest back until the next one lands
    stream = out.iter_batches(batch_format="pyarrow", batch_size=None, prefetch_batches=0)
    for m in itertools.chain(stream, [_MANIFEST.empty_table()]):  # last: 0-row shards
        for i, n, f in zip(*(m[c].to_pylist() for c in _MANIFEST.names)):
            rows[i] += n
            files[i].add(f)
        for i in [i for i in todo if i not in done and rows[i] == expect[i]]:
            # a retried writer task may have left files no manifest names
            for f in set(os.listdir(tmp_of[i])) - files[i]:
                os.remove(os.path.join(tmp_of[i], f))
            store.commit(
                i,
                tmp_of[i],
                {
                    "shard": i,
                    "input_files": shards[i],
                    "input_fingerprint": input_fps[i],
                    "plan_fingerprint": plan_fp,
                    "n_features": len(features),
                    "rows": rows[i],
                    "seconds": round(time.time() - t0, 3),
                    "stage_metrics": stage_metrics(out),
                    "completed_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
                },
            )
            done.append(i)
    short = {i: (rows[i], expect[i]) for i in todo if i not in done}
    if short:
        raise RuntimeError(f"shards not committed, (written, expected) rows: {short}")
    done.sort()
    return report
