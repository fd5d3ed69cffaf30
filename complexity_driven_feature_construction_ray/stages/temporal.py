"""Temporal stages: as-of (point-in-time) join, lag/lead, sessionization.

Net-new semantics relative to the reference (which has no time axis —
SURVEY.md §2.7 "Streaming: none"), required by the north rule: attach
each feature's latest non-leaking value at every entity×timestamp.

Partitioning model: every entity is hashed to exactly one of B buckets
(`bucketing.bucket_of`, stable across processes — NOT Python's salted
hash()), so no entity ever straddles a partition boundary. One input
goes through `grouped_map`, two (probe and event rows) through
`fused_exchange`; they are the only exchanges here, and both
range-partition the bucket-tagged rows at the known bucket boundaries
(one reducer per bucket, no sampling pass). Inside a bucket every
window is one sorted scan (`_sorted` + `_windows`: the Arrow
(key, ts, tiebreak) sort, the same-entity mask, lag/lead and
sessions), and the as-of attach is one cursor (`_asof_match`: the
events sorted once by a packed (key, ts) int64, every probe placed by
a binary search). Zero temporal leakage holds by
construction: only events with event_ts <= probe_ts can be selected;
tests verify row-by-row against a brute-force oracle.

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
import pyarrow.compute as pc

from .arrowutil import packed_keys
from .bucketing import bucket_of, default_buckets


def _sort_order(t: pa.Table, cols: list[str]) -> np.ndarray:
    """Stable sort permutation over the sort-key columns, nulls (and
    NaN) last; the caller applies it to the wide table with Table.take.
    Arrow sorts neither dictionary columns nor NaN as null, so those
    keys are decoded and NaN nulled first."""
    keys = {c: pc.cast(t[c], t[c].type.value_type) if pa.types.is_dictionary(t[c].type)
            else t[c] for c in cols}
    keys = {c: pc.if_else(pc.is_nan(k), pa.scalar(None, k.type), k)
            if pa.types.is_floating(k.type) else k for c, k in keys.items()}
    return pc.sort_indices(pa.table(keys), sort_keys=[(c, "ascending") for c in keys]).to_numpy()


def _shift_within(v: np.ndarray, same: np.ndarray, n: int):
    """v shifted by n (positive = lag) with nulls at group boundaries.
    `same[i]` says row i has the same group key as row i-1 (group-sorted
    input); works for any dtype via Arrow null masking."""
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


def _timedelta(v) -> np.timedelta64:
    """A gap or tolerance given as seconds or pd.Timedelta."""
    return (v if isinstance(v, pd.Timedelta) else pd.Timedelta(seconds=v)).to_timedelta64()


def _sorted(g: pa.Table, key: str, ts: str, tiebreak: list[str] | None):
    """One bucket sorted by (key, ts, tiebreak), and `same`: same[i]
    says row i has row i-1's key."""
    out = g.take(pa.array(_sort_order(g, [key, ts, *(tiebreak or [])])))
    k = out[key].to_numpy(zero_copy_only=False)
    same = np.zeros(len(k), dtype=bool)
    same[1:] = k[1:] == k[:-1]
    return out, same


def _seg_start(same: np.ndarray) -> np.ndarray:
    """Index of the first row of each row's entity segment."""
    return np.maximum.accumulate(np.where(same, 0, np.arange(len(same))))


def _windows(out: pa.Table, same: np.ndarray, ts: str, lag_cols=None,
             lags=(1,), leads=(1,), gap=None, session_col="session_idx") -> pa.Table:
    """Append lag/lead of `lag_cols` (NULL across entities) and, with a
    `gap`, the 0-based per-entity session index (a new session starts
    when the time since the entity's previous row exceeds `gap`) to a
    `_sorted` bucket."""
    for c in lag_cols or []:
        v = out[c].to_numpy(zero_copy_only=False)
        for n in lags:
            out = out.append_column(f"{c}_lag{n}", _shift_within(v, same, n))
        for n in leads:
            out = out.append_column(f"{c}_lead{n}", _shift_within(v, same, -n))
    if gap is not None:
        t = out[ts].to_numpy(zero_copy_only=False)
        new_session = ~same
        new_session[1:] |= (t[1:] - t[:-1]) > _timedelta(gap)
        sid = np.cumsum(new_session)
        out = out.append_column(session_col, pa.array(sid - sid[_seg_start(same)]))
    return out


def grouped_map(ds, key, fn, *, num_buckets: int | None = None, batch_format="pandas",
                materialize_input: bool = False):
    """Apply `fn` to hash-bucket partitions co-grouped by `key` (a
    column, or a list of columns for a multi-column key).

    For per-entity logic that is already vectorized across entities
    (pandas groupby inside `fn`), this replaces groupby(key).map_groups
    — which pays a Python call per DISTINCT KEY (10k users = 10k calls)
    — with one call per non-empty bucket (one per CPU on small
    inputs). `fn` must group by `key` itself; every row of a key lands
    in exactly one bucket (`bucketing.bucket_of`), and `fn` gets all
    of that bucket's rows in one batch.

    materialize_input=True snapshots the bucket-tagged stream into the
    object store BEFORE the exchange's sort. Ray 2.49's
    streaming planner degrades super-linearly when a Sort is chained
    behind a deep map/union plan (measured 70–90s vs ~12s over the
    same 2.6M rows in the dedup pair scan); use it when grouped_map
    sits mid-superstep in an iterative pipeline whose per-step input
    is bounded (labels/messages), NOT on corpus-sized one-shot streams
    where holding a full copy in the object store is the real cost.
    """
    return _exchange([ds], key, fn, num_buckets or default_buckets(ds), batch_format,
                     materialize_input)


def fused_exchange(first, second, key, fn, *, num_buckets: int | None = None):
    """Co-group two Datasets by `key` through ONE hash exchange and call
    `fn(first_rows, second_rows)` once per bucket.

    This is the tagged-union plan: each side's rows are tagged, the two
    streams union, and one hash exchange puts every row of a
    key -- a fact-side partial and its header alike -- in the same
    bucket. A groupby on one side followed by a join to the other
    pays two exchanges of the same key; this pays one.

    `fn` gets two `pa.Table`s holding the bucket's rows of each side in
    arrival order. Either may have 0 rows (a bucket of lines whose
    headers were all filtered out, or headers with no lines), so a
    header probe inside `fn` must check for a hit (`sorted_lookup`).
    The tag never reaches `fn`. Both sides must carry one schema (pad
    the other side's columns): Ray's union expects the same schema in
    every block. `fn` returns what `map_batches` accepts; a callback
    written for pandas calls `.to_pandas()` itself. `num_buckets`
    defaults to `default_buckets(first, second)`, so a caller that
    tags or pads its inputs first sizes B from the untagged inputs.
    """
    return _exchange([first, second], key, fn, num_buckets or default_buckets(first, second),
                     "pyarrow")


def _exchange(inputs, key, fn, B: int, batch_format, materialize_input=False):
    """The hash-bucket exchange behind grouped_map (one input, `fn(rows)`)
    and fused_exchange (two, `fn(first_rows, second_rows)`). Each input
    tags its rows with their key's bucket (and, with two inputs, its
    side) in its own map, before the union: a tag added after the union
    would be one more task per block. A sort on the bucket id at the
    boundaries 1..B-1 makes each bucket one reducer's block, in the row
    order a groupby(bucket).map_groups gave, and a whole-block map calls
    `fn` once per non-empty block. Both the tagged input and the
    callback's output drop their schema metadata: Parquet written from
    pandas carries a `pandas` dict there, and Ray cannot hash such a
    schema when it dedups block schemas."""
    cols = key if isinstance(key, (list, tuple)) else [key]
    tags = ["__gm_bucket", "__fx_side"]

    def tagger(side: int):
        def tag(batch: pa.Table) -> pa.Table:
            bucket = bucket_of([batch[c] for c in cols], B)
            batch = batch.replace_schema_metadata(None)
            return batch.append_column("__gm_bucket", pa.array(bucket)).append_column(
                "__fx_side", pa.array(np.full(batch.num_rows, side, np.int8)))
        return tag

    def run(g):
        if not len(g):  # an empty bucket: no call
            return
        if len(inputs) == 1:
            out = fn(g.drop(columns=tags) if hasattr(g, "drop") else g.drop_columns(tags))
        else:
            second_rows = pc.equal(g["__fx_side"], 1)
            g = g.drop_columns(tags)
            out = fn(g.filter(pc.invert(second_rows)), g.filter(second_rows))
        # a callback's pa.Table.from_pandas output carries the same dict
        yield out.replace_schema_metadata(None) if isinstance(out, pa.Table) else out

    tagged = [ds.map_batches(tagger(i), batch_format="pyarrow") for i, ds in enumerate(inputs)]
    both = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]
    if materialize_input:
        both = both.materialize()
    # known boundaries skip Ray's sampling pass; an empty list would
    # sample, so B=1 keeps [1] and one always-empty partition
    return both.sort("__gm_bucket", boundaries=list(range(1, max(B, 2)))).map_batches(
        run, batch_format=batch_format, batch_size=None)


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

    def rank_bucket(g: pa.Table) -> pa.Table:
        out, same = _sorted(g, key, ts, tiebreak)
        rn = np.arange(len(same)) - _seg_start(same) + 1
        return out.append_column(out_col, pa.array(rn.astype(np.int64)))

    return grouped_map(ds, key, rank_bucket, num_buckets=num_buckets, batch_format="pyarrow")


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

    def rank_bucket(g: pa.Table) -> pa.Table:
        out, same = _sorted(g, key, ts, tiebreak)
        m = len(same)
        # segment length broadcast to every row: next segment start - start
        seg_starts = np.flatnonzero(~same)
        seg_len = np.diff(np.append(seg_starts, m))
        cnt = np.repeat(seg_len, seg_len)
        rn0 = np.arange(m) - _seg_start(same)  # 0-based row number within entity
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

    return grouped_map(ds, key, rank_bucket, num_buckets=num_buckets, batch_format="pyarrow")


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
    out_col = out_col or f"{col}_roll{agg}{window}"

    def roll_bucket(g: pa.Table) -> pa.Table:
        out, same = _sorted(g, key, ts, tiebreak)
        v = out[col].to_numpy(zero_copy_only=False).astype(np.float64)
        m = len(v)
        # SQL window semantics under NULLs: a NULL (NaN after astype)
        # contributes nothing — zero-fill before the prefix sum and keep
        # a parallel prefix count of non-null values; count counts
        # non-nulls, sum/mean over an all-NULL window are NULL.
        ok = ~np.isnan(v)
        vz = np.where(ok, v, 0.0)
        start_of = _seg_start(same)
        hi = np.arange(m) + 1
        if expanding:
            lo = start_of
        elif range_seconds is None:
            lo = np.maximum(np.arange(m) - window + 1, start_of)
        else:
            # trailing time window: within each entity segment (ts is
            # sorted there) the frame start is searchsorted(ts, ts_i - w).
            # One numpy searchsorted per segment; exact int64-ns arithmetic.
            t_ns = (
                out[ts].to_numpy(zero_copy_only=False)
                .astype("datetime64[ns]")
                .view(np.int64)
            )
            w_ns = np.int64(round(range_seconds * 1e9))
            lo = np.empty(m, dtype=np.int64)
            hi = np.empty(m, dtype=np.int64)
            seg_starts = np.flatnonzero(~same)
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

    return grouped_map(ds, key, roll_bucket, num_buckets=num_buckets, batch_format="pyarrow")


def _asof_match(pk, pt, ek, et, *, forward: bool, allow_exact: bool, tol=None) -> np.ndarray:
    """Event row each probe row attaches, -1 for none: among events with
    the probe's key, the last with et <= pt (the first with et >= pt
    when `forward`; strict when not `allow_exact`), at most `tol` away.
    Equal-ts events resolve to the last (first when `forward`) in
    arrival order, as pd.merge_asof does. The cursor sorts the events
    once, stably, by a packed (key, ts) int64 (`arrowutil.packed_keys`;
    NaT and NaN sort last) and places every probe with one binary
    search. Null keys never match."""
    ne = len(ek)
    hit = np.full(len(pk), -1, dtype=np.int64)
    if ne == 0 or len(pk) == 0:
        return hit
    codes = pd.factorize(np.concatenate([ek, pk]))[0]
    key = packed_keys(codes + 1, np.concatenate([et, pt]))[0]
    order = np.argsort(key[:ne], kind="stable")
    at = np.searchsorted(key[:ne][order], key[ne:],
                         side="left" if forward == allow_exact else "right") - (not forward)
    src = order[np.clip(at, 0, ne - 1)]
    hit = np.where((at >= 0) & (at < ne) & (codes[src] == codes[ne:]) & (codes[ne:] >= 0),
                   src, -1)
    if tol is not None:
        m = hit >= 0
        hit[m] = np.where(np.abs(pt[m] - et[hit[m]]) <= tol, hit[m], -1)
    return hit


def _asof_rows(pk, pt, ek, et, *, direction: str, allow_exact: bool, tol=None) -> np.ndarray:
    """`_asof_match` backward, or for direction="nearest" the event
    minimizing |et - pt|: forward wins only when strictly closer, so
    equidistant events resolve to the EARLIER one."""
    back = _asof_match(pk, pt, ek, et, forward=False, allow_exact=allow_exact, tol=tol)
    if direction != "nearest":
        return back
    fwd = _asof_match(pk, pt, ek, et, forward=True, allow_exact=allow_exact, tol=tol)
    both = (back >= 0) & (fwd >= 0)
    closer = np.zeros(len(pk), dtype=bool)
    closer[both] = (et[fwd[both]] - pt[both]) < (pt[both] - et[back[both]])
    return np.where((fwd >= 0) & ((back < 0) | closer), fwd, back)


def _attach(probe_ds, event_ds, *, key, probe_ts, event_ts, value_cols, event_key,
            num_buckets, allow_exact, tolerance, probe_schema, event_schema,
            direction="backward", tiebreak=None, lag_cols=None, lags=(1,),
            leads=(1,), gap=None, session_col="session_idx"):
    """The as-of attach behind asof_join and temporal_attach: probe and
    event rows meet in one `fused_exchange` by entity, and each bucket
    is one `_sorted` probe scan, the `_asof_rows` cursor, then the
    `_windows` columns."""
    event_key = event_key or key
    B = num_buckets or default_buckets(probe_ds, event_ds)
    if probe_schema is None:
        probe_schema = probe_ds.schema(fetch_if_missing=False) or probe_ds.schema()
    probe_schema = _as_arrow_schema(probe_schema)
    probe_types = dict(zip(probe_schema.names, probe_schema.types))
    if event_schema is None:
        event_schema = event_ds.schema(fetch_if_missing=False) or event_ds.schema()
    event_schema = _as_arrow_schema(event_schema)
    event_types = dict(zip(event_schema.names, event_schema.types))
    ev_cols = {f"__ev_{c}": c for c in value_cols}
    # both sides carry the probe columns plus one __ev_ column per value;
    # event rows fill key and probe_ts, probe rows leave __ev_ null
    shared = pa.schema([*probe_schema, *(pa.field(e, event_types[c]) for e, c in ev_cols.items())])
    tol = None if tolerance is None else _timedelta(tolerance)

    def pad(cols: dict, n: int) -> pa.Table:
        return pa.table({f.name: cols[f.name] if f.name in cols else pa.nulls(n, type=f.type)
                         for f in shared})

    def tag_probe(batch: pa.Table) -> pa.Table:
        return pad({c: batch[c] for c in probe_schema.names}, batch.num_rows)

    def tag_event(batch: pa.Table) -> pa.Table:
        cols = {e: batch[c] for e, c in ev_cols.items()}
        cols[key] = batch[event_key].cast(probe_types[key])
        cols[probe_ts] = batch[event_ts].cast(probe_types[probe_ts])
        return pad(cols, batch.num_rows)

    def scan_bucket(probes: pa.Table, events: pa.Table) -> pa.Table:
        out, same = _sorted(probes.drop_columns(list(ev_cols)), key, probe_ts, tiebreak)
        hit = _asof_rows(out[key].to_numpy(zero_copy_only=False),
                         out[probe_ts].to_numpy(zero_copy_only=False),
                         events[key].to_numpy(zero_copy_only=False),
                         events[probe_ts].to_numpy(zero_copy_only=False),
                         direction=direction, allow_exact=allow_exact, tol=tol)
        miss = hit < 0
        idx = pa.array(np.where(miss, 0, hit), mask=miss)
        for e, c in ev_cols.items():
            out = out.append_column(f"asof_{c}", events[e].take(idx).cast(event_types[c]))
        return _windows(out, same, probe_ts, lag_cols, lags, leads, gap, session_col)

    return fused_exchange(
        probe_ds.map_batches(tag_probe, batch_format="pyarrow"),
        event_ds.map_batches(tag_event, batch_format="pyarrow"),
        key, scan_bucket, num_buckets=B,
    )


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
    result is engine-replayable — a backward and a forward cursor with
    an explicit per-row distance compare. `tolerance` (seconds or
    pd.Timedelta) bounds staleness: events older than
    probe_ts - tolerance (for nearest, further than tolerance either
    way) attach as NULL (the feature-store max-age rule).

    Implementation: temporal_attach's exchange and cursor with no
    window columns — probe and event rows co-grouped by entity in one
    `fused_exchange`, then per bucket one binary-search cursor of the
    probes over the sorted events (`_asof_match`).

    Pass `probe_schema` / `event_schema` when that side is a lazy
    map_batches lineage: ds.schema() on such a dataset EXECUTES the
    upstream pipeline to discover the schema (a full extra pass).
    """
    return _attach(
        probe_ds, event_ds, key=key, probe_ts=probe_ts, event_ts=event_ts,
        value_cols=value_cols, event_key=event_key, num_buckets=num_buckets,
        allow_exact=allow_exact, tolerance=tolerance, probe_schema=probe_schema,
        event_schema=event_schema, direction=direction,
    )


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
    """Per-entity lag/lead of `cols` ordered by ts (first/last rows NULL):
    `windowed` with lag columns only. Pass `tiebreak` columns to make
    ordering total when ts can tie.
    """
    return windowed(ds, key=key, ts=ts, lag_cols=cols, lags=lags, leads=leads,
                    num_buckets=num_buckets, tiebreak=tiebreak)


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

    def scan_bucket(g: pa.Table) -> pa.Table:
        return _windows(*_sorted(g, key, ts, tiebreak), ts, lag_cols, lags, leads,
                        gap, session_col)

    return grouped_map(ds, key, scan_bucket, num_buckets=num_buckets, batch_format="pyarrow")


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
    same exchange and the as-of lookup is a cursor of the bucket's
    probes over its sorted events (`_asof_match`) — the probe sort order is
    (key, ts, tiebreak), which also serves the window pass, so payload
    columns move exactly once."""
    return _attach(
        probe_ds, event_ds, key=key, probe_ts=probe_ts, event_ts=event_ts,
        value_cols=value_cols, event_key=event_key, num_buckets=num_buckets,
        allow_exact=allow_exact, tolerance=tolerance, probe_schema=probe_schema,
        event_schema=event_schema, tiebreak=tiebreak, lag_cols=lag_cols, lags=lags,
        leads=leads, gap=gap, session_col=session_col,
    )


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
    Emits a 0-based per-entity session index: `windowed` with a gap
    only."""
    return windowed(ds, key=key, ts=ts, gap=gap, session_col=session_col,
                    num_buckets=num_buckets, tiebreak=tiebreak)


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
    def fill_bucket(g: pa.Table) -> pa.Table:
        out, same = _sorted(g, key, ts, tiebreak)
        m = len(same)
        pos = np.arange(m)
        seg_first = _seg_start(same)
        for c in cols:
            arr = out[c].combine_chunks()
            valid = ~np.asarray(pc.is_null(arr, nan_is_null=True))
            src = np.maximum.accumulate(np.where(valid, pos, -1))
            ok = src >= seg_first  # a carry from before the segment is no carry
            filled = arr.take(pa.array(np.where(ok, src, 0)))
            out = out.append_column(
                f"{c}{suffix}",
                pc.if_else(pa.array(ok), filled, pa.nulls(m, type=arr.type)),
            )
        return out

    return grouped_map(ds, key, fill_bucket, num_buckets=num_buckets, batch_format="pyarrow")


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
