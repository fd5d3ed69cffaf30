"""Hash buckets for the shuffle/grouped-map family: which bucket a key
lands in (`bucket_of`) and how many buckets there are (`default_buckets`).

Every windowed / as-of / grouped-map / dedup stage hashes entities into
B buckets and processes each bucket as ONE in-memory table: the
exchange range-partitions rows at the bucket ids, one reducer block per
bucket, and calls the stage's function once per block.
`stages/temporal.py:grouped_map` (one
input) and `fused_exchange` (two) are the one place every hash
exchange (temporal, partition, relational, dedup and text stages)
assigns buckets, always through `bucket_of`. B scales with DATA SIZE
so bucket memory stays bounded at 100 TB; the CPU count is the only
floor (more buckets than CPUs on small input only add tasks and
exchange fragments).

Row counts come from Dataset metadata only (`ds._meta_count()`), which
is free for read_parquet / from_pandas / repartition lineages and None
for map lineages — callers that transform before bucketing either pass
`num_rows`/`num_buckets` explicitly or fall back to the CPU floor.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

_HASH_KEY = "0123456789123456"  # fixed pandas hash key => cross-process determinism

# One bucket materializes as a single Arrow table in one exchange task.
# 250k rows of ~1 KiB documents ~= 256 MiB — safely inside a worker
# heap at concurrency x per-task overhead; override per call for wide
# payloads (images) via target_rows.
TARGET_ROWS_PER_BUCKET = 250_000


def _hashable(col) -> np.ndarray:
    """One key column as hash_array input: integers of any width (nulls
    as 0) widen to int64, so an int32 and an int64 copy of a key agree
    and a batch with nulls hashes its other keys as one without does;
    anything else hashes by value as Python objects."""
    if isinstance(col, (pa.Array, pa.ChunkedArray)):
        if pa.types.is_integer(col.type):
            col = pc.fill_null(col, 0)
        col = col.to_numpy(zero_copy_only=False)
    col = np.asarray(col)
    return col.astype(np.int64) if col.dtype.kind in "iu" else col.astype(object)


def bucket_of(key, num_buckets: int) -> np.ndarray:
    """Bucket in [0, num_buckets) of every row of `key`: one column
    (Arrow or numpy) or a list of columns for a multi-column key. A
    hash, never `key % B`, so keys sharing a stride with B (orderkeys
    4*i at B=4) still spread over every bucket."""
    cols = key if isinstance(key, (list, tuple)) else [key]
    h = np.zeros(len(cols[0]), np.uint64)
    for col in cols:
        h = h * np.uint64(1_000_003) ^ pd.util.hash_array(_hashable(col), hash_key=_HASH_KEY)
    return (h % np.uint64(num_buckets)).astype(np.int32)


def cpu_floor() -> int:
    """Parallelism floor: the cluster's CPU count (at least 1); before
    Ray starts, the machine's (what a default `ray.init` gets)."""
    try:
        import ray

        return max(1, int(ray.cluster_resources().get("CPU", 1)))
    except Exception:  # Ray not started yet
        return os.cpu_count() or 1


def data_sized_buckets(
    num_rows: int | None, *, target_rows: int = TARGET_ROWS_PER_BUCKET
) -> int:
    """Bucket count for `num_rows` rows: grows linearly with data past
    the CPU floor so per-bucket memory stays bounded at any scale."""
    floor = cpu_floor()
    if not num_rows or num_rows <= 0:
        return floor
    return max(floor, math.ceil(num_rows / target_rows))


def _cheap_count(ds) -> int | None:
    """Row count from plan metadata only — never executes the pipeline."""
    try:
        n = ds._meta_count()
        return int(n) if n is not None else None
    except Exception:  # pragma: no cover - internal API drift guard
        return None


def default_buckets(
    *datasets,
    num_rows: int | None = None,
    target_rows: int = TARGET_ROWS_PER_BUCKET,
) -> int:
    """Bucket count for a shuffle stage over `datasets` (summed rows).

    Prefers an explicit `num_rows` hint; else sums the metadata counts
    of the inputs (ignoring those without one); else the CPU floor.
    """
    if num_rows is None:
        counts = [_cheap_count(ds) for ds in datasets]
        known = [c for c in counts if c is not None]
        num_rows = sum(known) if known else None
    return data_sized_buckets(num_rows, target_rows=target_rows)
