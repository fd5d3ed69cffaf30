"""Temporal stages: as-of (point-in-time) join, lag/lead, sessionization.

Net-new semantics relative to the reference (which has no time axis —
SURVEY.md §2.7 "Streaming: none"), required by the north rule: attach
each feature's latest non-leaking value at every entity×timestamp.

Partitioning model: every entity is hashed to exactly one of B buckets
(deterministic pandas hash, stable across processes — NOT Python's
salted hash()), so no entity ever straddles a partition boundary; the
groupby(bucket) shuffle co-locates probe and event rows, and each
bucket is processed with a vectorized sorted-merge (pd.merge_asof — a
per-key binary-search cursor over ts-sorted frames). Zero temporal
leakage holds by construction: only events with event_ts <= probe_ts
can be selected; tests verify row-by-row against a brute-force oracle.

Skew note: buckets are uniform in entities; a single pathological
entity bounds a bucket from below. B defaults to a DATA-SIZED count
(rows / target-rows-per-bucket from Dataset metadata, CPU count only
as a parallelism floor — stages/bucketing.py) and is configurable per
call; a CPU-derived default would make per-bucket memory grow linearly
with the dataset and OOM at 100 TB.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .bucketing import default_buckets

_HASH_KEY = "0123456789123456"  # fixed pandas hash key => cross-process determinism


def _bucket_of(values, num_buckets: int) -> np.ndarray:
    arr = np.asarray(values)
    if arr.dtype.kind in "iu":
        return (arr % num_buckets).astype(np.int32)
    h = pd.util.hash_array(arr.astype(object), hash_key=_HASH_KEY)
    return (h % num_buckets).astype(np.int32)


def _sort_order(t: pa.Table, cols: list[str]) -> np.ndarray:
    """Stable sort permutation over (small) sort-key columns only; the
    caller applies it to the wide table with Table.take so payload
    columns (token lists etc.) never pass through pandas."""
    df = pd.DataFrame({c: t[c].to_numpy(zero_copy_only=False) for c in cols})
    return df.sort_values(cols, kind="stable").index.to_numpy()


def _shift_within(v: np.ndarray, same: np.ndarray, n: int):
    """v shifted by n (positive = lag) with nulls at group boundaries.
    `same[i]` says row i has the same group key as row i-1 (group-sorted
    input); works for any dtype via Arrow null masking."""
    import pyarrow.compute as pc

    gid = np.cumsum(~same)
    m = len(v)
    idx = np.arange(m) - n
    valid = (idx >= 0) & (idx < m)
    src = np.clip(idx, 0, m - 1)
    valid &= gid[src] == gid
    arr = pa.array(v[src], from_pandas=True)
    return pc.if_else(pa.array(valid), arr, pa.nulls(m, type=arr.type))


def _as_arrow_schema(schema) -> pa.Schema:
    """Normalize a Dataset schema to pure-pyarrow types. Pandas-block
    datasets report Python/numpy types (e.g. <class 'object'>) for
    which `.cast(t)` raises; map them through pa.from_numpy_dtype with
    a string fallback for object dtype."""
    fields = []
    for name, t in zip(schema.names, schema.types):
        if not isinstance(t, pa.DataType):
            try:
                t = pa.from_numpy_dtype(np.dtype(t))
            except (TypeError, pa.ArrowNotImplementedError):
                t = pa.string()
        fields.append(pa.field(name, t))
    return pa.schema(fields)


def row_number(
    ds,
    *,
    key: str,
    ts: str,
    out_col: str = "row_num",
    num_buckets: int | None = None,
    tiebreak: list[str] | None = None,
):
    """Per-entity 1-based row number ordered by (ts, tiebreak) — the
    ROW_NUMBER() OVER (PARTITION BY key ORDER BY ts) window. One
    entity-hash shuffle, vectorized cumcount per bucket."""
    B = num_buckets or default_buckets(ds)

    def add_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__bucket", pa.array(_bucket_of(batch[key].to_numpy(zero_copy_only=False), B))
        )

    def rank_bucket(g: pa.Table) -> pa.Table:
        order = _sort_order(g, [key, ts, *(tiebreak or [])])
        out = g.take(pa.array(order)).drop_columns(["__bucket"])
        k = g[key].to_numpy(zero_copy_only=False)[order]
        m = len(k)
        new_entity = np.empty(m, dtype=bool)
        new_entity[0] = True
        new_entity[1:] = k[1:] != k[:-1]
        idx = np.arange(m)
        start = np.maximum.accumulate(np.where(new_entity, idx, 0))
        return out.append_column(out_col, pa.array((idx - start + 1).astype(np.int64)))

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(rank_bucket, batch_format="pyarrow")
    )


def window_rank(
    ds,
    *,
    key: str,
    ts: str,
    ntile: int | None = None,
    tiebreak: list[str] | None = None,
    num_buckets: int | None = None,
    cols: tuple[str, ...] = ("ntile", "percent_rank", "cume_dist"),
):
    """Per-entity rank-family windows ordered by (ts, tiebreak):
    NTILE(n), PERCENT_RANK(), CUME_DIST(). Same shape as row_number —
    one entity-hash shuffle, vectorized per-segment arithmetic (no
    per-key Python). With a unique (ts, tiebreak) order, rank equals
    row number, so percent_rank = (rn-1)/(cnt-1) and cume_dist =
    rn/cnt exactly match SQL; NTILE uses the SQL split (first cnt%n
    tiles get ceil(cnt/n) rows)."""
    B = num_buckets or default_buckets(ds)

    def add_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__bucket", pa.array(_bucket_of(batch[key].to_numpy(zero_copy_only=False), B))
        )

    def rank_bucket(g: pa.Table) -> pa.Table:
        order = _sort_order(g, [key, ts, *(tiebreak or [])])
        out = g.take(pa.array(order)).drop_columns(["__bucket"])
        k = g[key].to_numpy(zero_copy_only=False)[order]
        m = len(k)
        new_entity = np.empty(m, dtype=bool)
        new_entity[0] = True
        new_entity[1:] = k[1:] != k[:-1]
        idx = np.arange(m)
        start = np.maximum.accumulate(np.where(new_entity, idx, 0))
        # segment length broadcast to every row: next segment start - start
        seg_starts = np.flatnonzero(new_entity)
        seg_ends = np.append(seg_starts[1:], m)
        cnt = np.repeat(seg_ends - seg_starts, seg_ends - seg_starts)
        rn0 = idx - start  # 0-based row number within entity
        if "ntile" in cols:
            n = ntile or 4
            q, r = cnt // n, cnt % n
            boundary = r * (q + 1)  # rows below this sit in the big tiles
            in_big = rn0 < boundary
            with np.errstate(divide="ignore", invalid="ignore"):
                tile = np.where(
                    in_big,
                    rn0 // np.maximum(q + 1, 1),
                    r + (rn0 - boundary) // np.maximum(q, 1),
                )
            out = out.append_column("ntile", pa.array((tile + 1).astype(np.int64)))
        if "percent_rank" in cols:
            pr = np.where(cnt > 1, rn0 / np.maximum(cnt - 1, 1), 0.0)
            out = out.append_column("percent_rank", pa.array(pr.astype(np.float64)))
        if "cume_dist" in cols:
            out = out.append_column(
                "cume_dist", pa.array(((rn0 + 1) / cnt).astype(np.float64))
            )
        return out

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(rank_bucket, batch_format="pyarrow")
    )


def rolling_agg(
    ds,
    *,
    key: str,
    ts: str,
    col: str,
    window: int,
    agg: str = "sum",
    out_col: str | None = None,
    num_buckets: int | None = None,
    tiebreak: list[str] | None = None,
    range_seconds: float | None = None,
    expanding: bool = False,
):
    """Per-entity rolling aggregate ordered by ts. Arrow-native: one
    entity-hash shuffle, vectorized prefix-sum math per bucket.

    window frame:
    - default: last `window` ROWS (ROWS BETWEEN window-1 PRECEDING AND
      CURRENT ROW)
    - expanding=True: cumulative frame (ROWS BETWEEN UNBOUNDED
      PRECEDING AND CURRENT ROW — running sum/mean/count); `window`
      is ignored
    - range_seconds set: trailing TIME window (RANGE BETWEEN INTERVAL
      range_seconds PRECEDING AND CURRENT ROW) — the window start is a
      binary search for ts_i - range per entity segment; `window` is
      ignored. SQL RANGE frame semantics: all peers of the current
      row's ts are in the frame, including rows after it in order."""
    B = num_buckets or default_buckets(ds)
    out_col = out_col or f"{col}_roll{agg}{window}"

    def add_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__bucket", pa.array(_bucket_of(batch[key].to_numpy(zero_copy_only=False), B))
        )

    def roll_bucket(g: pa.Table) -> pa.Table:
        order = _sort_order(g, [key, ts, *(tiebreak or [])])
        out = g.take(pa.array(order)).drop_columns(["__bucket"])
        k = g[key].to_numpy(zero_copy_only=False)[order]
        v = g[col].to_numpy(zero_copy_only=False)[order].astype(np.float64)
        m = len(v)
        # SQL window semantics under NULLs: a NULL (NaN after astype)
        # contributes nothing — zero-fill before the prefix sum and keep
        # a parallel prefix count of non-null values; count counts
        # non-nulls, sum/mean over an all-NULL window are NULL.
        ok = ~np.isnan(v)
        vz = np.where(ok, v, 0.0)
        # group starts (sorted by key => contiguous)
        is_start = np.empty(m, dtype=bool)
        is_start[0] = True
        is_start[1:] = k[1:] != k[:-1]
        start_of = np.maximum.accumulate(np.where(is_start, np.arange(m), -1))
        hi = np.arange(m) + 1
        if expanding:
            lo = start_of
        elif range_seconds is None:
            lo = np.maximum(np.arange(m) - window + 1, start_of)
        else:
            # trailing time window: within each entity segment (ts is
            # sorted there) the frame start is searchsorted(ts, ts_i - w).
            # One numpy searchsorted per segment — the same per-key-segment
            # cursor shape as the as-of attach; exact int64-ns arithmetic.
            t_ns = (
                g[ts].to_numpy(zero_copy_only=False)[order]
                .astype("datetime64[ns]")
                .view(np.int64)
            )
            w_ns = np.int64(round(range_seconds * 1e9))
            lo = np.empty(m, dtype=np.int64)
            hi = np.empty(m, dtype=np.int64)
            seg_starts = np.flatnonzero(is_start)
            seg_ends = np.append(seg_starts[1:], m)
            for s0, s1 in zip(seg_starts, seg_ends):
                lo[s0:s1] = s0 + np.searchsorted(
                    t_ns[s0:s1], t_ns[s0:s1] - w_ns, side="left"
                )
                hi[s0:s1] = s0 + np.searchsorted(
                    t_ns[s0:s1], t_ns[s0:s1], side="right"
                )
        csum = np.concatenate(([0.0], np.cumsum(vz)))
        ccnt = np.concatenate(([0], np.cumsum(ok.astype(np.int64))))
        nn = ccnt[hi] - ccnt[lo]  # non-null values in window
        if agg == "sum":
            res = csum[hi] - csum[lo]
            res[nn == 0] = np.nan
        elif agg == "mean":
            with np.errstate(invalid="ignore", divide="ignore"):
                res = (csum[hi] - csum[lo]) / nn
        elif agg == "count":
            return out.append_column(out_col, pa.array(nn.astype(np.int64)))
        else:
            raise ValueError(f"unsupported rolling agg {agg}")
        return out.append_column(out_col, pa.array(pd.Series(res), from_pandas=True))

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(roll_bucket, batch_format="pyarrow")
    )


def grouped_map(ds, key: str, fn, *, num_buckets: int | None = None, batch_format="pandas",
                materialize_input: bool = False):
    """Apply `fn` to hash-bucket partitions co-grouped by `key`.

    For per-entity logic that is already vectorized across entities
    (pandas groupby inside `fn`), this replaces groupby(key).map_groups
    — which pays a Python call per DISTINCT KEY (10k users = 10k calls)
    — with one call per bucket (one per CPU on small inputs). `fn` must
    group by `key` itself; every row of a key lands in exactly one bucket.

    materialize_input=True snapshots the bucket-tagged stream into the
    object store BEFORE the groupby's sort exchange. Ray 2.49's
    streaming planner degrades super-linearly when a Sort is chained
    behind a deep map/union plan (measured 70–90s vs ~12s over the
    same 2.6M rows in the dedup pair scan); use it when grouped_map
    sits mid-superstep in an iterative pipeline whose per-step input
    is bounded (labels/messages), NOT on corpus-sized one-shot streams
    where holding a full copy in the object store is the real cost.
    """
    B = num_buckets or default_buckets(ds)

    def add_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__gm_bucket",
            pa.array(_bucket_of(batch[key].to_numpy(zero_copy_only=False), B)),
        )

    def run(g):
        g = g.drop(columns=["__gm_bucket"]) if hasattr(g, "drop") else g.drop_columns(["__gm_bucket"])
        return fn(g)

    tagged = ds.map_batches(add_bucket, batch_format="pyarrow")
    if materialize_input:
        tagged = tagged.materialize()
    return tagged.groupby("__gm_bucket").map_groups(run, batch_format=batch_format)


def fused_exchange(first, second, key: str, fn, *, num_buckets: int | None = None):
    """Co-group two Datasets by `key` through ONE hash exchange and call
    `fn(first_rows, second_rows)` once per bucket.

    This is the tagged-union plan: each side's rows are tagged, the two
    streams union, and one `grouped_map` exchange puts every row of a
    key -- a fact-side partial and its header alike -- in the same
    bucket. A groupby on one side followed by a join to the other
    pays two exchanges of the same key; this pays one.

    `fn` gets two `pa.Table`s holding the bucket's rows of each side in
    arrival order. Either may have 0 rows (a bucket of lines whose
    headers were all filtered out, or headers with no lines), so a
    header probe inside `fn` must check for a hit (`sorted_lookup`).
    The tag never reaches `fn`. Both sides must carry one schema (pad
    the other side's columns): Ray's union expects the same schema in
    every block. `fn` returns what `map_groups` accepts; a callback
    written for pandas calls `.to_pandas()` itself. `num_buckets` is
    passed through to `grouped_map`.
    """
    import pyarrow.compute as pc

    def tagger(side: int):
        def tag(batch: pa.Table) -> pa.Table:
            return batch.append_column(
                "__fx_side", pa.array(np.full(batch.num_rows, side, np.int8)))
        return tag

    def run(g: pa.Table):
        second_rows = pc.equal(g["__fx_side"], 1)
        g = g.drop_columns(["__fx_side"])
        return fn(g.filter(pc.invert(second_rows)), g.filter(second_rows))

    both = first.map_batches(tagger(0), batch_format="pyarrow").union(
        second.map_batches(tagger(1), batch_format="pyarrow"))
    return grouped_map(both, key, run, num_buckets=num_buckets,
                       batch_format="pyarrow")


def asof_join(
    probe_ds,
    event_ds,
    *,
    key: str,
    probe_ts: str,
    event_ts: str,
    value_cols: list[str],
    event_key: str | None = None,
    num_buckets: int | None = None,
    allow_exact: bool = True,
    tolerance=None,
    probe_schema: pa.Schema | None = None,
    event_schema: pa.Schema | None = None,
    direction: str = "backward",
):
    """For each probe row, attach the latest event values with
    event_ts <= probe_ts (strictly < when allow_exact=False) for the
    same entity; NULL when no prior event exists — never a later value.
    direction="nearest" instead attaches the event minimizing
    |event_ts - probe_ts| with a DETERMINISTIC tie rule: equidistant
    before/after resolves to the EARLIER event (backward wins), so the
    result is engine-replayable — pandas' own merge_asof(nearest) tie
    behavior is unspecified, so nearest is built from one backward and
    one forward pass with an explicit per-row distance compare.
    `tolerance` (seconds or pd.Timedelta) bounds staleness: events older
    than probe_ts - tolerance attach as NULL (the feature-store max-age
    rule).

    Implementation: tag + union both sides, hash-bucket by entity,
    groupby(bucket), per-bucket ts-sorted pd.merge_asof (sorted-merge
    with a binary-search cursor per key).

    Pass `probe_schema` / `event_schema` when that side is a lazy
    map_batches lineage: ds.schema() on such a dataset EXECUTES the
    upstream pipeline to discover the schema (a full extra pass).
    """
    event_key = event_key or key
    B = num_buckets or default_buckets(probe_ds, event_ds)
    if probe_schema is None:
        probe_schema = probe_ds.schema(fetch_if_missing=False) or probe_ds.schema()
    probe_schema = _as_arrow_schema(probe_schema)
    probe_cols = probe_schema.names
    probe_types = dict(zip(probe_schema.names, probe_schema.types))
    if event_schema is None:
        event_schema = event_ds.schema(fetch_if_missing=False) or event_ds.schema()
    event_schema = _as_arrow_schema(event_schema)
    event_types = dict(zip(event_schema.names, event_schema.types))
    out_event_cols = [f"asof_{c}" for c in value_cols]

    def tag_probe(batch: pa.Table) -> pa.Table:
        t = batch.append_column("__bucket", pa.array(_bucket_of(batch[key].to_numpy(zero_copy_only=False), B)))
        t = t.append_column("__side", pa.array(np.zeros(len(batch), dtype=np.int8)))
        t = t.append_column("__ts", batch[probe_ts])
        for c in value_cols:
            t = t.append_column(f"__ev_{c}", pa.nulls(len(batch), type=event_types[c]))
        return t

    def tag_event(batch: pa.Table) -> pa.Table:
        n = len(batch)
        cols = {
            "__bucket": pa.array(_bucket_of(batch[event_key].to_numpy(zero_copy_only=False), B)),
            "__side": pa.array(np.ones(n, dtype=np.int8)),
            "__ts": batch[event_ts].cast(probe_types[probe_ts]),
            key: batch[event_key].cast(probe_types[key]),
        }
        t = pa.table(cols)
        for c in probe_cols:
            if c not in t.column_names:
                t = t.append_column(c, pa.nulls(n, type=probe_types[c]))
        for c in value_cols:
            t = t.append_column(f"__ev_{c}", batch[c])
        return t.select([*probe_cols, "__bucket", "__side", "__ts", *[f"__ev_{c}" for c in value_cols]])

    tagged_probe = probe_ds.map_batches(tag_probe, batch_format="pyarrow").select_columns(
        [*probe_cols, "__bucket", "__side", "__ts", *[f"__ev_{c}" for c in value_cols]]
    )
    tagged_event = event_ds.map_batches(tag_event, batch_format="pyarrow")
    both = tagged_probe.union(tagged_event)

    ev_cols = [f"__ev_{c}" for c in value_cols]

    def merge_bucket(g: pa.Table) -> pa.Table:
        # Arrow-native: the merge itself runs on small pandas frames of
        # (key, ts, event values) only; wide payload columns (token
        # lists, feature columns) are reordered with Table.take and
        # never converted to Python objects.
        side = g["__side"].to_numpy()
        probe_idx = np.flatnonzero(side == 0)
        event_idx = np.flatnonzero(side == 1)
        ts = g["__ts"].to_numpy(zero_copy_only=False)
        keys_np = g[key].to_numpy(zero_copy_only=False)

        order = probe_idx[np.argsort(ts[probe_idx], kind="stable")]
        out = g.take(pa.array(order)).drop_columns(
            ["__bucket", "__side", "__ts", *ev_cols]
        )
        if len(event_idx) == 0:
            for c, name in zip(value_cols, out_event_cols):
                out = out.append_column(name, pa.nulls(len(out), type=event_types[c]))
            return out

        probe_small = pd.DataFrame({key: keys_np[order], "__ts": ts[order]})
        ev_order = event_idx[np.argsort(ts[event_idx], kind="stable")]
        right = pd.DataFrame({key: keys_np[ev_order], "__ts": ts[ev_order]})
        for c in ev_cols:
            right[c] = g[c].to_numpy(zero_copy_only=False)[ev_order]
        tol = (
            None
            if tolerance is None
            else (
                pd.Timedelta(seconds=tolerance)
                if not isinstance(tolerance, pd.Timedelta)
                else tolerance
            )
        )
        if direction == "nearest":
            right = right.assign(__evts=right["__ts"].to_numpy())
            back = pd.merge_asof(
                probe_small, right, on="__ts", by=key,
                direction="backward", allow_exact_matches=allow_exact,
                tolerance=tol,
            )
            fwd = pd.merge_asof(
                probe_small, right, on="__ts", by=key,
                direction="forward", allow_exact_matches=allow_exact,
                tolerance=tol,
            )
            p_ts = probe_small["__ts"].to_numpy()
            d_back = (p_ts - back["__evts"].to_numpy()).astype("timedelta64[us]") \
                if np.issubdtype(p_ts.dtype, np.datetime64) else p_ts - back["__evts"].to_numpy()
            d_fwd = (fwd["__evts"].to_numpy() - p_ts).astype("timedelta64[us]") \
                if np.issubdtype(p_ts.dtype, np.datetime64) else fwd["__evts"].to_numpy() - p_ts
            has_b = back["__evts"].notna().to_numpy()
            has_f = fwd["__evts"].notna().to_numpy()
            # forward wins only when strictly closer; ties go backward
            use_f = has_f & (~has_b | (d_fwd < d_back))
            merged = back
            for c in ev_cols:
                merged[c] = back[c].where(~use_f, fwd[c])
        else:
            merged = pd.merge_asof(
                probe_small,
                right,
                on="__ts",
                by=key,
                direction="backward",
                allow_exact_matches=allow_exact,
                tolerance=tol,
            )
        for c, name in zip(value_cols, out_event_cols):
            out = out.append_column(
                name, pa.array(merged[f"__ev_{c}"], type=event_types[c], from_pandas=True)
            )
        return out

    return both.groupby("__bucket").map_groups(merge_bucket, batch_format="pyarrow")


def lag_lead(
    ds,
    *,
    key: str,
    ts: str,
    cols: list[str],
    lags: tuple[int, ...] = (1,),
    leads: tuple[int, ...] = (1,),
    num_buckets: int | None = None,
    tiebreak: list[str] | None = None,
):
    """Per-entity lag/lead of `cols` ordered by ts (first/last rows NULL).

    One shuffle by entity-hash bucket; inside a bucket the shift is a
    vectorized pandas groupby over all entities of the bucket at once.
    Pass `tiebreak` columns to make ordering total when ts can tie.
    """
    B = num_buckets or default_buckets(ds)

    def add_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__bucket", pa.array(_bucket_of(batch[key].to_numpy(zero_copy_only=False), B))
        )

    def shift_bucket(g: pa.Table) -> pa.Table:
        order = _sort_order(g, [key, ts, *(tiebreak or [])])
        out = g.take(pa.array(order)).drop_columns(["__bucket"])
        k = g[key].to_numpy(zero_copy_only=False)[order]
        same = np.empty(len(k), dtype=bool)  # same[i]: key[i] == key[i-1]
        same[0] = False
        same[1:] = k[1:] == k[:-1]
        for c in cols:
            v = g[c].to_numpy(zero_copy_only=False)[order]
            for n in lags:
                out = out.append_column(f"{c}_lag{n}", _shift_within(v, same, n))
            for n in leads:
                out = out.append_column(f"{c}_lead{n}", _shift_within(v, same, -n))
        return out

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(shift_bucket, batch_format="pyarrow")
    )


def windowed(
    ds,
    *,
    key: str,
    ts: str,
    lag_cols: list[str] | None = None,
    lags: tuple[int, ...] = (1,),
    leads: tuple[int, ...] = (1,),
    gap=None,
    session_col: str = "session_idx",
    num_buckets: int | None = None,
    tiebreak: list[str] | None = None,
):
    """Fused lag/lead + sessionization: ONE entity-hash shuffle and ONE
    per-bucket sorted scan produce both, instead of two full shuffles of
    the wide table (token payloads move through the exchange once)."""
    B = num_buckets or default_buckets(ds)
    gap_td = (
        None
        if gap is None
        else (pd.Timedelta(seconds=gap) if not isinstance(gap, pd.Timedelta) else gap)
    )

    def add_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__bucket", pa.array(_bucket_of(batch[key].to_numpy(zero_copy_only=False), B))
        )

    def scan_bucket(g: pa.Table) -> pa.Table:
        order = _sort_order(g, [key, ts, *(tiebreak or [])])
        out = g.take(pa.array(order)).drop_columns(["__bucket"])
        k = g[key].to_numpy(zero_copy_only=False)[order]
        m = len(k)
        same = np.empty(m, dtype=bool)
        same[0] = False
        same[1:] = k[1:] == k[:-1]
        for c in lag_cols or []:
            v = g[c].to_numpy(zero_copy_only=False)[order]
            for n in lags:
                out = out.append_column(f"{c}_lag{n}", _shift_within(v, same, n))
            for n in leads:
                out = out.append_column(f"{c}_lead{n}", _shift_within(v, same, -n))
        if gap_td is not None:
            t_np = g[ts].to_numpy(zero_copy_only=False)[order]
            new_entity = ~same
            gap_break = np.zeros(m, dtype=bool)
            gap_break[1:] = (t_np[1:] - t_np[:-1]) > gap_td.to_timedelta64()
            sid = np.cumsum(new_entity | gap_break)
            ent_id = np.cumsum(new_entity)
            first = sid[new_entity][ent_id - 1]
            out = out.append_column(
                session_col, pa.array((sid - first).astype(np.int64))
            )
        return out

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(scan_bucket, batch_format="pyarrow")
    )


def temporal_attach(
    probe_ds,
    event_ds,
    *,
    key: str,
    probe_ts: str,
    event_ts: str,
    value_cols: list[str],
    event_key: str | None = None,
    lag_cols: list[str] | None = None,
    lags: tuple[int, ...] = (1,),
    leads: tuple[int, ...] = (1,),
    gap=None,
    session_col: str = "session_idx",
    num_buckets: int | None = None,
    tiebreak: list[str] | None = None,
    allow_exact: bool = True,
    tolerance=None,
    probe_schema: pa.Schema | None = None,
    event_schema: pa.Schema | None = None,
):
    """Fully fused temporal layer: as-of value attach + lag/lead +
    sessionization in ONE entity shuffle and ONE per-bucket sorted scan.

    asof_join followed by windowed shuffles the wide probe table twice
    (both bucket by the same entity key); here events ride along in the
    same exchange and the as-of lookup is a per-key-segment binary
    search (np.searchsorted cursor) over the ts-sorted events — the
    probe sort order is (key, ts, tiebreak), which also serves the
    window pass, so payload columns move exactly once."""
    event_key = event_key or key
    B = num_buckets or default_buckets(probe_ds, event_ds)
    if probe_schema is None:
        probe_schema = probe_ds.schema(fetch_if_missing=False) or probe_ds.schema()
    probe_schema = _as_arrow_schema(probe_schema)
    probe_cols = probe_schema.names
    probe_types = dict(zip(probe_schema.names, probe_schema.types))
    if event_schema is None:
        event_schema = event_ds.schema(fetch_if_missing=False) or event_ds.schema()
    event_schema = _as_arrow_schema(event_schema)
    event_types = dict(zip(event_schema.names, event_schema.types))
    out_event_cols = [f"asof_{c}" for c in value_cols]
    ev_cols = [f"__ev_{c}" for c in value_cols]
    gap_td = (
        None
        if gap is None
        else (pd.Timedelta(seconds=gap) if not isinstance(gap, pd.Timedelta) else gap)
    )
    tol_td = (
        None
        if tolerance is None
        else (
            pd.Timedelta(seconds=tolerance)
            if not isinstance(tolerance, pd.Timedelta)
            else tolerance
        )
    )

    def tag_probe(batch: pa.Table) -> pa.Table:
        t = batch.append_column(
            "__bucket", pa.array(_bucket_of(batch[key].to_numpy(zero_copy_only=False), B))
        )
        t = t.append_column("__side", pa.array(np.zeros(len(batch), dtype=np.int8)))
        t = t.append_column("__ts", batch[probe_ts])
        for c in value_cols:
            t = t.append_column(f"__ev_{c}", pa.nulls(len(batch), type=event_types[c]))
        return t.select([*probe_cols, "__bucket", "__side", "__ts", *ev_cols])

    def tag_event(batch: pa.Table) -> pa.Table:
        n = len(batch)
        cols = {
            "__bucket": pa.array(_bucket_of(batch[event_key].to_numpy(zero_copy_only=False), B)),
            "__side": pa.array(np.ones(n, dtype=np.int8)),
            "__ts": batch[event_ts].cast(probe_types[probe_ts]),
            key: batch[event_key].cast(probe_types[key]),
        }
        t = pa.table(cols)
        for c in probe_cols:
            if c not in t.column_names:
                t = t.append_column(c, pa.nulls(n, type=probe_types[c]))
        for c in value_cols:
            t = t.append_column(f"__ev_{c}", batch[c])
        return t.select([*probe_cols, "__bucket", "__side", "__ts", *ev_cols])

    both = probe_ds.map_batches(tag_probe, batch_format="pyarrow").union(
        event_ds.map_batches(tag_event, batch_format="pyarrow")
    )

    def scan_bucket(g: pa.Table) -> pa.Table:
        side = g["__side"].to_numpy()
        probe_idx = np.flatnonzero(side == 0)
        event_idx = np.flatnonzero(side == 1)
        ts = g["__ts"].to_numpy(zero_copy_only=False)
        keys_np = g[key].to_numpy(zero_copy_only=False)

        # probe order: (key, ts, tiebreak) — serves window AND per-key as-of
        sub = g.take(pa.array(probe_idx))
        order_local = _sort_order(sub, [key, "__ts", *(tiebreak or [])])
        order = probe_idx[order_local]
        out = g.take(pa.array(order)).drop_columns(["__bucket", "__side", "__ts", *ev_cols])
        k = keys_np[order]
        t_np = ts[order]
        m = len(k)
        same = np.empty(m, dtype=bool)
        if m:  # a bucket can hold ONLY event rows (probe keys absent)
            same[0] = False
            same[1:] = k[1:] == k[:-1]

        # ---- as-of attach: per-key-segment binary-search cursor
        ev_order = event_idx[np.argsort(ts[event_idx], kind="stable")]
        ek, et = keys_np[ev_order], ts[ev_order]
        attach_src = np.full(m, -1, dtype=np.int64)  # index into ev_order
        if len(ev_order):
            ek_sort = np.argsort(ek, kind="stable")  # events grouped by key, ts-sorted within
            ek_g, et_g = ek[ek_sort], et[ek_sort]
            key_starts = np.flatnonzero(
                np.concatenate(([True], ek_g[1:] != ek_g[:-1]))
            )
            key_vals = ek_g[key_starts]
            key_ends = np.append(key_starts[1:], len(ek_g))
            seg_starts = np.flatnonzero(~same)  # probe key-segment starts
            seg_ends = np.append(seg_starts[1:], m)
            for lo, hi in zip(seg_starts, seg_ends):
                ki = np.searchsorted(key_vals, k[lo])
                if ki >= len(key_vals) or key_vals[ki] != k[lo]:
                    continue
                elo, ehi = key_starts[ki], key_ends[ki]
                side_ = "right" if allow_exact else "left"
                pos = np.searchsorted(et_g[elo:ehi], t_np[lo:hi], side=side_) - 1
                valid = pos >= 0
                if tol_td is not None:
                    # staleness bound: the matched event must lie within
                    # tolerance of the probe ts
                    ev_ts = et_g[elo + np.clip(pos, 0, None)]
                    valid &= (t_np[lo:hi] - ev_ts) <= tol_td.to_timedelta64()
                # map back: ek_sort indexes the ev_order-sorted arrays,
                # ev_order indexes the original bucket rows
                attach_src[lo:hi][valid] = ev_order[ek_sort[elo + pos[valid]]]
        mask = attach_src >= 0
        for c, name in zip(value_cols, out_event_cols):
            all_vals = g[f"__ev_{c}"].to_numpy(zero_copy_only=False)
            attached = np.empty(m, dtype=object)
            attached[:] = None
            attached[mask] = all_vals[attach_src[mask]]
            out = out.append_column(
                name, pa.array(attached, type=event_types[c], from_pandas=True)
            )

        # ---- lag/lead
        for c in lag_cols or []:
            v = g[c].to_numpy(zero_copy_only=False)[order]
            for n in lags:
                out = out.append_column(f"{c}_lag{n}", _shift_within(v, same, n))
            for n in leads:
                out = out.append_column(f"{c}_lead{n}", _shift_within(v, same, -n))

        # ---- sessionize
        if gap_td is not None:
            new_entity = ~same
            gap_break = np.zeros(m, dtype=bool)
            gap_break[1:] = (t_np[1:] - t_np[:-1]) > gap_td.to_timedelta64()
            sid = np.cumsum(new_entity | gap_break)
            ent_id = np.cumsum(new_entity)
            first = sid[new_entity][ent_id - 1]
            out = out.append_column(session_col, pa.array((sid - first).astype(np.int64)))
        return out

    return both.groupby("__bucket").map_groups(scan_bucket, batch_format="pyarrow")


def sessionize(
    ds,
    *,
    key: str,
    ts: str,
    gap,
    num_buckets: int | None = None,
    session_col: str = "session_idx",
    tiebreak: list[str] | None = None,
):
    """Gap-based sessionization: a new session starts when the time since
    the entity's previous row exceeds `gap` (pd.Timedelta or seconds).
    Emits a 0-based per-entity session index."""
    B = num_buckets or default_buckets(ds)
    gap_td = pd.Timedelta(seconds=gap) if not isinstance(gap, pd.Timedelta) else gap

    def add_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__bucket", pa.array(_bucket_of(batch[key].to_numpy(zero_copy_only=False), B))
        )

    def sess_bucket(g: pa.Table) -> pa.Table:
        order = _sort_order(g, [key, ts, *(tiebreak or [])])
        out = g.take(pa.array(order)).drop_columns(["__bucket"])
        k = g[key].to_numpy(zero_copy_only=False)[order]
        t_np = g[ts].to_numpy(zero_copy_only=False)[order]
        m = len(k)
        new_entity = np.empty(m, dtype=bool)
        new_entity[0] = True
        new_entity[1:] = k[1:] != k[:-1]
        gap_break = np.zeros(m, dtype=bool)
        gap_break[1:] = (t_np[1:] - t_np[:-1]) > gap_td.to_timedelta64()
        sid = np.cumsum(new_entity | gap_break)
        # per-entity 0-based index: subtract the entity's first session id
        ent_id = np.cumsum(new_entity)  # 1-based entity ordinal
        first = sid[new_entity][ent_id - 1]
        return out.append_column(session_col, pa.array((sid - first).astype(np.int64)))

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(sess_bucket, batch_format="pyarrow")
    )


def ohlc_agg(
    ds,
    *,
    key: str,
    ts: str,
    value: str,
    width_s: int,
    order_col: str,
):
    """OHLC resample: per (key, tumbling window) the first/last/max/min
    of ``value``, ordered by (ts, order_col) so ties are total. The
    time-series downsampling primitive (candlesticks, telemetry
    rollups).

    first/last are not algebraic for Ray's hash aggregate, so this
    ships mergeable CELLS instead: each batch pre-reduces to one row
    per (key, window) carrying its own open/close plus their ordering
    keys; the single exchange then moves O(keys x windows) cells, not
    events, and a per-key-hash bucket pass re-reduces cells with the
    same lexicographic first/last rule."""
    import pyarrow.compute as _pc

    width_us = int(width_s) * 1_000_000

    def cells(batch: pa.Table) -> pa.Table:
        epoch_us = _pc.cast(
            _pc.cast(batch[ts], pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        df = pd.DataFrame({
            key: batch[key].to_numpy(zero_copy_only=False),
            "win": epoch_us // width_us,
            "__ts": epoch_us,
            "__ord": batch[order_col].to_numpy(zero_copy_only=False),
            "__v": batch[value].to_numpy(zero_copy_only=False),
        }).sort_values(["__ts", "__ord"], kind="stable")
        gb = df.groupby([key, "win"], sort=False)
        # POSITIONAL first/last rows (head/tail) — groupby first()/last()
        # aggregations skip NaN, which would return the first NON-NULL
        # value instead of the value AT the minimal (ts, order) row and
        # diverge from SQL first_value()/last_value()
        firsts = gb.head(1).set_index([key, "win"])
        lasts = gb.tail(1).set_index([key, "win"])
        agg = gb.agg(high=("__v", "max"), low=("__v", "min"),
                     n_events=("__v", "size"))
        out = pd.DataFrame({
            "open_ts": firsts["__ts"], "open_ord": firsts["__ord"],
            "open": firsts["__v"],
            "close_ts": lasts["__ts"], "close_ord": lasts["__ord"],
            "close": lasts["__v"],
            "high": agg["high"], "low": agg["low"],
            "n_events": agg["n_events"],
        }).reset_index()
        return pa.Table.from_pandas(out, preserve_index=False)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        first = g.sort_values(["open_ts", "open_ord"], kind="stable") \
                 .groupby([key, "win"], sort=False).head(1).set_index([key, "win"])
        last = g.sort_values(["close_ts", "close_ord"], kind="stable") \
                .groupby([key, "win"], sort=False).tail(1).set_index([key, "win"])
        agg = g.groupby([key, "win"], sort=False).agg(
            high=("high", "max"), low=("low", "min"), n_events=("n_events", "sum")
        )
        out = pd.DataFrame({
            "open": first["open"], "high": agg["high"], "low": agg["low"],
            "close": last["close"], "n_events": agg["n_events"],
        }).reset_index()
        return out

    return grouped_map(ds.map_batches(cells, batch_format="pyarrow"), key, merge)


def tumbling_agg(
    ds,
    *,
    key: str,
    ts: str,
    value: str,
    width_s: int,
    ndigits: int = 6,
):
    """Tumbling-window aggregate: count + sum of ``value`` per
    (``key``, fixed ``width_s``-second window of ``ts``).

    The window index is row-local arithmetic (one vectorized cast +
    integer floor-divide), so the ONLY exchange is Ray's hash
    aggregate, which partially combines per block before the shuffle —
    per-window partials move, not events. Scale-correct for skewed
    keys too: the grouping key is (entity, window), so a hot entity
    spreads across its windows."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Sum

    width_us = int(width_s) * 1_000_000

    def add_window(batch: pa.Table) -> pa.Table:
        # normalize whatever timestamp unit the source used to us
        epoch_us = pc.cast(
            pc.cast(batch[ts], pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                key: batch[key],
                "win": pa.array(epoch_us // width_us),
                value: batch[value],
            }
        )

    agg = (
        ds.map_batches(add_window, batch_format="pyarrow")
        .groupby([key, "win"])
        .aggregate(Count(), Sum(value, alias_name="sum_value"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                key: batch[key],
                "win": batch["win"],
                "n_events": batch["count()"].cast(pa.int64()),
                "sum_value": pa.array(
                    np.round(
                        batch["sum_value"].to_numpy(zero_copy_only=False), ndigits
                    )
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def hopping_agg(
    ds,
    *,
    key: str,
    ts: str,
    value: str,
    width_s: int,
    hop_s: int,
    ndigits: int = 6,
    mode: str = "combine",
):
    """Hopping (sliding) window aggregate: count + sum of ``value`` per
    (``key``, ``width_s``-second window advancing every ``hop_s``).
    Window ``win`` covers [win*hop, win*hop + width). ``width_s`` must
    be a multiple of ``hop_s`` (align-free arithmetic windows).

    Two exchange strategies, same result:

    - ``mode="combine"`` (default — streaming-safe at any m): row-local
      m× explode PER BATCH, then Ray's partially-combining hash
      aggregate on (key, win) — per-window PARTIALS move, not events.
      Right when windows are DENSE (many events per window, e.g.
      metrics streams), where partials are much smaller than raw rows,
      and whenever m = width/hop is large (the explode amplification
      never exceeds one batch at a time).
    - ``mode="bucket"``: shuffle RAW events once by entity-hash bucket,
      then explode + aggregate locally per bucket. Right when windows
      are SPARSE (events per (key, win) ~ 1, the typical user-activity
      shape) and m is small: a combining aggregate would ship m×
      exploded rows and combine nothing. Measured 3.4 s → 1.1 s on
      100k events / 287k output groups, m=3, 32 CPUs. Memory note: the
      per-bucket task materializes an m× exploded frame of the whole
      bucket — keep m·bucket_rows within worker heap (data-sized
      buckets hold bucket_rows near 250k)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Sum

    if width_s % hop_s:
        raise ValueError("width_s must be a multiple of hop_s")
    m = width_s // hop_s
    hop_us = int(hop_s) * 1_000_000

    if mode == "bucket":
        def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
            base = (
                g[ts].to_numpy().astype("datetime64[us]").astype(np.int64)
                // hop_us
            )
            n = len(base)
            idx = np.repeat(np.arange(n), m)
            win = np.repeat(base, m) - np.tile(np.arange(m, dtype=np.int64), n)
            e = pd.DataFrame({
                key: g[key].to_numpy()[idx],
                "win": win,
                "__v": g[value].to_numpy()[idx],
            })
            out = (
                e.groupby([key, "win"], sort=False)
                .agg(n_events=("__v", "size"), sum_value=("__v", "sum"))
                .reset_index()
            )
            out["sum_value"] = out["sum_value"].round(ndigits)
            return out

        return grouped_map(ds, key, per_bucket)

    def explode(batch: pa.Table) -> pa.Table:
        epoch_us = pc.cast(
            pc.cast(batch[ts], pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        base = epoch_us // hop_us
        n = len(base)
        idx = np.repeat(np.arange(n), m)
        win = np.repeat(base, m) - np.tile(np.arange(m, dtype=np.int64), n)
        t = batch.select([key, value]).take(pa.array(idx))
        return t.append_column("win", pa.array(win))

    agg = (
        ds.map_batches(explode, batch_format="pyarrow")
        .groupby([key, "win"])
        .aggregate(Count(), Sum(value, alias_name="sum_value"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                key: batch[key],
                "win": batch["win"],
                "n_events": batch["count()"].cast(pa.int64()),
                "sum_value": pa.array(
                    np.round(
                        batch["sum_value"].to_numpy(zero_copy_only=False), ndigits
                    )
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def ewma(
    ds,
    *,
    key: str,
    ts: str,
    col: str,
    alpha: float,
    out_col: str = "ewma",
    num_buckets: int | None = None,
    tiebreak: list[str] | None = None,
):
    """Per-entity exponential moving average ordered by (ts, tiebreak):
    y_0 = x_0;  y_i = alpha * x_i + (1 - alpha) * y_{i-1}
    (pandas ewm(adjust=False) recursion). The state is inherently
    sequential per entity, so the stage co-locates each entity in one
    hash bucket (the same single-shuffle contract as the other
    windows) and runs the C-level pandas ewm kernel per entity segment
    inside the bucket."""
    assert 0.0 < alpha <= 1.0, alpha

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts, *(tiebreak or [])], kind="stable")
        g[out_col] = (
            g.groupby(key, sort=False)[col]
            .transform(lambda s: s.ewm(alpha=alpha, adjust=False).mean())
        )
        return g

    return grouped_map(ds, key, per_bucket, num_buckets=num_buckets)


def fill_forward(
    ds,
    *,
    key: str,
    ts: str,
    cols: list[str],
    suffix: str = "_ffill",
    num_buckets: int | None = None,
    tiebreak: list[str] | None = None,
):
    """Per-entity last-observation-carried-forward: each NULL in `cols`
    takes the most recent non-NULL value of the SAME entity ordered by
    (ts, tiebreak); leading NULLs stay NULL (SQL
    `last_value(x IGNORE NULLS) OVER (... ROWS UNBOUNDED PRECEDING)`).

    Same single-shuffle contract as lag_lead: one entity-hash-bucket
    exchange, then a vectorized fill inside the bucket — the carried
    source INDEX is a running maximum (np.maximum.accumulate), clipped
    to the entity segment's first row so state never leaks across
    entities. No per-row Python, any number of fill columns per pass.
    """
    B = num_buckets or default_buckets(ds)

    def add_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__bucket", pa.array(_bucket_of(batch[key].to_numpy(zero_copy_only=False), B))
        )

    def fill_bucket(g: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        order = _sort_order(g, [key, ts, *(tiebreak or [])])
        out = g.take(pa.array(order)).drop_columns(["__bucket"])
        k = out[key].to_numpy(zero_copy_only=False)
        m = len(k)
        same = np.empty(m, dtype=bool)
        same[0] = False
        same[1:] = k[1:] == k[:-1]
        pos = np.arange(m)
        # first row index of each entity segment, carried forward
        seg_first = np.maximum.accumulate(np.where(~same, pos, -1))
        for c in cols:
            arr = out[c].combine_chunks() if out[c].num_chunks > 1 else out[c].chunk(0) if out[c].num_chunks else pa.nulls(0, type=out.schema.field(c).type)
            valid = ~np.asarray(pc.is_null(arr, nan_is_null=True))
            src = np.maximum.accumulate(np.where(valid, pos, -1))
            ok = src >= seg_first  # a carry from before the segment is no carry
            filled = arr.take(pa.array(np.where(ok, src, 0)))
            out = out.append_column(
                f"{c}{suffix}",
                pc.if_else(pa.array(ok), filled, pa.nulls(m, type=arr.type)),
            )
        return out

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(fill_bucket, batch_format="pyarrow")
    )


def funnel(
    ds,
    steps: list[str],
    *,
    key: str = "user_id",
    ts: str = "ts",
    type_col: str = "event_type",
    num_buckets: int | None = None,
):
    """Ordered funnel conversion (view -> click -> purchase shape): a
    user reaches step k+1 at the EARLIEST steps[k+1] event strictly
    after the time they reached step k (unbounded lookforward). Returns
    one row per step: (step 1-based, event_type, n_users).

    One entity-hash shuffle co-locates each user's funnel events; the
    per-bucket pass is K pandas groupby-mins chained through a map
    (C-level, no per-user Python), and only K partial-count rows per
    bucket reach the final aggregate. Callers should pre-filter the
    stream to the funnel's event types at the read — other event types
    never enter the exchange.

    Executes eagerly: the shuffle and aggregate run inside this call
    (the K-row result is finished on the driver), and the returned
    Dataset is built from that in-memory result."""
    from ray.data.aggregate import Sum

    step_names = list(steps)

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        counts = []
        reached = None  # per-user Series: ts at which the previous step was reached
        for i, st in enumerate(step_names):
            sub = df[df[type_col] == st]
            if i == 0:
                cur = sub.groupby(key)[ts].min()
            elif reached is None or not len(reached):
                cur = reached if reached is not None else sub.groupby(key)[ts].min().iloc[:0]
            else:
                prev_ts = sub[key].map(reached)
                # NaT (user never reached the previous step) compares False
                ok = sub[ts].to_numpy() > prev_ts.to_numpy()
                cur = sub[ok].groupby(key)[ts].min()
            reached = cur
            counts.append(len(cur))
        return pd.DataFrame(
            {
                "step": np.arange(1, len(step_names) + 1, dtype=np.int64),
                "event_type": step_names,
                "n_users": np.asarray(counts, dtype=np.int64),
            }
        )

    parts = grouped_map(ds, key, per_bucket, num_buckets=num_buckets)
    out = parts.groupby(["step", "event_type"]).aggregate(Sum("n_users", alias_name="n_users"))
    # K-row result: finish on the driver (a Sort exchange over K rows
    # bought nothing), and pin the empty-input shape — the SQL twin's
    # UNION ALL of scalar counts always emits one row per step, so a
    # zero-event stream must yield K zero rows, not zero blocks.
    import ray.data

    pdf = out.to_pandas()
    if len(pdf) == 0:
        pdf = pd.DataFrame(
            {
                "step": np.arange(1, len(step_names) + 1, dtype=np.int64),
                "event_type": step_names,
                "n_users": np.zeros(len(step_names), dtype=np.int64),
            }
        )
    return ray.data.from_pandas(pdf.sort_values("step").reset_index(drop=True))


def retention_cohorts(
    ds,
    *,
    key: str = "user_id",
    ts: str = "ts",
    period_days: int = 7,
    num_buckets: int | None = None,
):
    """Cohort retention matrix: cohort = each user's FIRST active day
    (days since epoch); a user counts toward (cohort_day, offset) for
    every period (default week) in which they have any event. Returns
    (cohort_day, offset, n_users).

    Per-batch distinct (user, day) cells shrink the exchange to active
    user-days before the single entity-hash shuffle; users never
    straddle buckets, so per-bucket (cohort, offset) counts are exact
    partials and the final aggregate is a plain sum."""
    from ray.data.aggregate import Sum

    def day_cells(batch: pa.Table) -> pa.Table:
        days = (
            batch[ts].to_numpy(zero_copy_only=False)
            .astype("datetime64[D]").astype(np.int64)
        )
        df = pd.DataFrame(
            {key: batch[key].to_numpy(zero_copy_only=False), "__day": days}
        ).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates([key, "__day"])  # global dedup: user-complete bucket
        cohort = df.groupby(key)["__day"].transform("min").to_numpy()
        off = (df["__day"].to_numpy() - cohort) // period_days
        cells = pd.DataFrame(
            {key: df[key].to_numpy(), "cohort_day": cohort, "offset": off}
        ).drop_duplicates()
        part = (
            cells.groupby(["cohort_day", "offset"], sort=False)
            .size().reset_index(name="n_users")
        )
        part["n_users"] = part["n_users"].astype(np.int64)
        return part

    parts = grouped_map(
        ds.map_batches(day_cells, batch_format="pyarrow"), key, per_bucket,
        num_buckets=num_buckets,
    )
    out = parts.groupby(["cohort_day", "offset"]).aggregate(Sum("n_users", alias_name="n_users"))
    return out.sort(["cohort_day", "offset"])


def transition_counts(
    ds,
    *,
    key: str = "user_id",
    ts: str = "ts",
    type_col: str = "event_type",
    tiebreak: str | None = None,
    num_buckets: int | None = None,
):
    """First-order Markov transition table over per-entity event
    sequences (next-event prediction / journey-analysis shape):
    (from_type, to_type, n, p) where p is row-normalized per from_type.
    One entity-hash shuffle; per bucket a C-level sort + shifted
    same-entity compare extracts consecutive pairs, and only
    (from, to) count cells — bounded by K^2 event types — reach the
    final aggregate. `tiebreak` orders equal timestamps
    deterministically."""
    from ray.data.aggregate import Sum

    order = [key, ts] + ([tiebreak] if tiebreak else [])

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(order, kind="stable")
        u = df[key].to_numpy()
        et = df[type_col].to_numpy(dtype=object)
        if len(df) < 2:
            return pd.DataFrame(
                {"from_type": pd.Series([], dtype=object),
                 "to_type": pd.Series([], dtype=object),
                 "n": pd.Series([], dtype=np.int64)}
            )
        same = u[:-1] == u[1:]
        part = (
            pd.DataFrame({"from_type": et[:-1][same], "to_type": et[1:][same]})
            .groupby(["from_type", "to_type"], sort=False)
            .size().reset_index(name="n")
        )
        part["n"] = part["n"].astype(np.int64)
        return part

    counts = (
        grouped_map(ds, key, per_bucket, num_buckets=num_buckets)
        .groupby(["from_type", "to_type"])
        .aggregate(Sum("n", alias_name="n"))
    )

    # K^2 cells: row-normalize per from_type in a tiny grouped map
    def norm(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("to_type", kind="stable")
        g["p"] = np.round(g["n"].to_numpy() / g["n"].sum(), 6)
        return g

    return counts.groupby("from_type").map_groups(norm, batch_format="pandas")


def interarrival_stats(
    ds,
    *,
    key: str = "user_id",
    ts: str = "ts",
    tiebreak: str | None = None,
    num_buckets: int | None = None,
):
    """Per-entity inter-event gap statistics (arrival-process /
    engagement-cadence profile): n_gaps, min/max gap in exact integer
    microseconds, float mean rounded to 6dp. Entities never straddle
    buckets, so each bucket computes its users' stats completely —
    nothing but the per-user result rows leave the shuffle."""

    order = [key, ts] + ([tiebreak] if tiebreak else [])

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(order, kind="stable")
        u = df[key].to_numpy()
        t = df[ts].to_numpy().astype("datetime64[us]").view(np.int64)
        if len(df) < 2:
            return pd.DataFrame(
                {key: pd.Series([], dtype=u.dtype),
                 "n_gaps": pd.Series([], dtype=np.int64),
                 "gap_min_us": pd.Series([], dtype=np.int64),
                 "gap_max_us": pd.Series([], dtype=np.int64),
                 "gap_mean_us": pd.Series([], dtype=np.float64)}
            )
        same = u[:-1] == u[1:]
        gaps = pd.DataFrame({key: u[1:][same], "g": (t[1:] - t[:-1])[same]})
        gb = gaps.groupby(key, sort=False)["g"]
        out = pd.DataFrame(
            {
                "n_gaps": gb.size().astype(np.int64),
                "gap_min_us": gb.min().astype(np.int64),
                "gap_max_us": gb.max().astype(np.int64),
                "gap_mean_us": np.round(gb.mean(), 6),
            }
        ).reset_index()
        return out

    return grouped_map(ds, key, per_bucket, num_buckets=num_buckets)
