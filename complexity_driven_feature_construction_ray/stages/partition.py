"""Explicit partitioning utilities: range-partition sort and the
skew-salting shuffle.

The north-star layout is range partitioning by (doc_id, ingest_ts) with
an explicit sort; grouped aggregates over skewed keys (the Zipfian
`source` column: 55% of rows share one value) must not ship every row
of the hot key to one reducer. Two complementary answers:

- `range_partition_sort`: Ray Data's sort IS a range-partitioning
  shuffle (sample -> range boundaries -> exchange -> per-partition
  sort); output blocks are non-overlapping sorted ranges, the layout
  cursor-based stages (as-of merge, windows) want.
- `salted_aggregate`: the classic two-phase skew-salting shuffle made
  explicit: stage 1 groups by (key, hash(doc) % salt) so a hot key
  spreads over `salt` reducers; stage 2 merges the tiny per-salt
  partials. Mergeable aggregates only (sum/count/min/max/mean).

Note the engine's *default* answer to skew is even cheaper: partial
aggregation inside map_batches (stages/fit.py) — only O(batches x keys)
summary rows ever reach a shuffle. `salted_aggregate` is the explicit
shuffle-level variant for when the per-batch combiner doesn't apply
(e.g. the grouping key set is too large to hold per batch).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def range_partition_sort(ds, keys: list[str], *, num_partitions: int | None = None):
    """Globally sort (= range-partition) by `keys`; optionally repartition
    first so the sort has enough input blocks to sample well."""
    if num_partitions is not None:
        ds = ds.repartition(num_partitions)
    return ds.sort(keys)


_MERGE = {
    "sum": ("sum", "sum"),
    "count": ("count", "sum"),
    "min": ("min", "min"),
    "max": ("max", "max"),
    # mean = (sum, count) partials merged then divided
    "mean": ("mean", None),
}


def salted_aggregate(
    ds,
    *,
    key: str,
    col: str,
    agg: str = "sum",
    salt: int = 16,
    out_col: str | None = None,
):
    """Two-phase skew-salted grouped aggregate: returns a Dataset with
    one row per key value: (key, out_col)."""
    from ray.data.aggregate import Count, Max, Mean, Min, Sum

    assert agg in _MERGE, agg
    out_col = out_col or f"{agg}_{col}"

    def add_salt(batch: pa.Table) -> pa.Table:
        # salt by row position: rows of a hot key spread uniformly over
        # `salt` sub-keys regardless of the key distribution
        salt_col = (np.arange(len(batch)) % salt).astype(np.int32)
        return batch.append_column("__salt", pa.array(salt_col))

    # phase 1: (key, salt) partials — the hot key fans out over `salt` reducers
    if agg == "sum":
        a1 = Sum(col, alias_name="__p")
    elif agg == "count":
        a1 = Count(alias_name="__p")
    elif agg == "min":
        a1 = Min(col, alias_name="__p")
    elif agg == "max":
        a1 = Max(col, alias_name="__p")
    else:  # mean: track sum and count partials
        a1 = None

    salted = ds.map_batches(add_salt, batch_format="pyarrow", batch_size=None)
    if agg == "mean":
        part = salted.groupby([key, "__salt"]).aggregate(
            Sum(col, alias_name="__s"), Count(alias_name="__n")
        )
        final = part.groupby(key).aggregate(
            Sum("__s", alias_name="__ss"), Sum("__n", alias_name="__nn")
        )

        def div(batch: pa.Table) -> pa.Table:
            v = batch["__ss"].to_numpy() / batch["__nn"].to_numpy()
            return pa.table({key: batch[key], out_col: pa.array(v)})

        return final.map_batches(div, batch_format="pyarrow", batch_size=None)

    part = salted.groupby([key, "__salt"]).aggregate(a1)
    _, merge_kind = _MERGE[agg]
    a2 = {"sum": Sum, "min": Min, "max": Max}[merge_kind]("__p", alias_name=out_col)
    return part.groupby(key).aggregate(a2)


def shuffle_hash_join(
    left,
    right,
    *,
    left_on: str,
    right_on: str | None = None,
    join_type: str = "inner",
    num_buckets: int | None = None,
    suffix: str = "_r",
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
):
    """Large x large partitioned equi-join (the join for two FACT tables).

    Both sides hash-partition by join key into the same data-sized
    buckets (stages/bucketing.py: rows / 250k, CPUs only a floor), then
    each bucket joins locally via pyarrow's C++ hash join — one
    all-to-all exchange per side and nothing ever materializes
    driver-side. Complements the broadcast/semi/anti/range joins
    (pipelines/relational.py:387-540), which require one side to fit in
    the object store; the reference's only join is that broadcast
    re-attach (reference FastGroupByThenTransformation.py:38-40), so
    this operator is part of the net-new scale surface.

    Partitioning assumption: rows of ONE key land in one bucket, so a
    pathologically hot key (>~250k rows on both sides) makes that
    bucket's local join quadratic-ish in the hot-key rows; pre-split
    such keys to the broadcast path. `join_type` is "inner",
    "left outer" or "full outer" (pyarrow Table.join naming) — outer
    semantics are per-bucket-correct because both sides of a key
    co-locate, so a row unmatched in its bucket is unmatched globally.

    Column names: right columns colliding with a left column get
    `suffix`; the right key column is dropped (equi-join, same values).
    """
    from .bucketing import default_buckets
    from .temporal import _as_arrow_schema, fused_exchange

    right_on = right_on or left_on
    B = num_buckets or default_buckets(left, right)

    # a caller-supplied schema skips the fetch: .schema() on a lazy
    # map/aggregate lineage EXECUTES the upstream plan once just to
    # see names, then the probe executes it AGAIN (measured 2x on
    # aggregate-fed joins)
    _ls = left_schema or left.schema(fetch_if_missing=False) or left.schema()
    _rs = right_schema or right.schema(fetch_if_missing=False) or right.schema()
    left_schema = _as_arrow_schema(_ls)
    right_schema = _as_arrow_schema(_rs)
    left_names = list(left_schema.names)
    right_payload = [n for n in right_schema.names if n != right_on]
    rename_right = {
        n: (n + suffix if n in left_names else n) for n in right_payload
    }
    out_right = [rename_right[n] for n in right_payload]
    left_out = [n for n in left_names if n != left_on]

    # Pad each side to the shared (key + left payload + right payload)
    # schema with typed nulls: fused_exchange unions the two streams.
    # The pad columns are all-null Arrow arrays — O(1) validity
    # bitmaps, not materialized values.
    def pad_left(batch: pa.Table) -> pa.Table:
        n = len(batch)
        cols = {"__k": batch[left_on].cast(left_schema.field(left_on).type)}
        for name in left_out:
            cols[name] = batch[name]
        for rn in right_payload:
            cols[rename_right[rn]] = pa.nulls(n, type=right_schema.field(rn).type)
        return pa.table(cols)

    def pad_right(batch: pa.Table) -> pa.Table:
        n = len(batch)
        cols = {"__k": batch[right_on].cast(left_schema.field(left_on).type)}
        for name in left_out:
            cols[name] = pa.nulls(n, type=left_schema.field(name).type)
        for rn in right_payload:
            cols[rename_right[rn]] = batch[rn]
        return pa.table(cols)

    def join_bucket(lt: pa.Table, rt: pa.Table) -> pa.Table:
        out = lt.select(["__k", *left_out]).join(
            rt.select(["__k", *out_right]), keys="__k", join_type=join_type)
        # pyarrow join may reorder columns; pin the output layout
        out = out.select(["__k", *left_out, *out_right])
        return out.rename_columns([left_on, *left_out, *out_right])

    return fused_exchange(
        left.map_batches(pad_left, batch_format="pyarrow"),
        right.map_batches(pad_right, batch_format="pyarrow"),
        "__k", join_bucket, num_buckets=B,
    )


def skew_join(
    left,
    right,
    *,
    left_on: str,
    right_on: str | None = None,
    hot_threshold: int = 250_000,
    num_buckets: int | None = None,
    suffix: str = "_r",
):
    """Skew-aware large x large inner equi-join.

    `shuffle_hash_join`'s documented hazard is the hot key: all rows of
    one key land in one bucket, so a key with millions of rows on the
    probe side makes that bucket's local join the straggler. This
    operator splits the key space by an exact LEFT-side count pass
    (projected to the key column only — the count shuffle moves 8
    bytes/row):

    - keys with count > hot_threshold ("hot", by construction at most
      |left| / hot_threshold of them): the matching RIGHT rows are
      collected and broadcast via ray.put, and the hot LEFT rows join
      against them batch-locally with pyarrow's C++ join — perfectly
      parallel, no co-location needed;
    - everything else streams through the bucketed shuffle join.

    Assumption (documented): the RIGHT side is not itself skewed on the
    same keys — right rows for hot keys must fit in the object store
    (true for the fact x dimension shape this targets). Output =
    exact inner-join rows, same layout as shuffle_hash_join.
    """
    import ray
    from ray.data.aggregate import Count

    right_on = right_on or left_on

    # pass 1: exact per-key count on the key column only (combiner:
    # per-batch value_counts, then a key-cardinality-sized aggregate)
    def key_counts(batch: pa.Table) -> pa.Table:
        import pandas as pd

        vc = pd.Series(batch[left_on].to_numpy(zero_copy_only=False)).value_counts()
        return pa.table({"k": pa.array(vc.index.to_numpy()),
                         "c": pa.array(vc.to_numpy(np.int64))})

    from ray.data.aggregate import Sum

    counts = (
        left.select_columns([left_on])
        .map_batches(key_counts, batch_format="pyarrow")
        .groupby("k")
        .aggregate(Sum("c", alias_name="c"))
    )
    hot = counts.filter(expr=f"c > {int(hot_threshold)}").to_pandas()
    hot_keys = np.sort(hot["k"].to_numpy())

    if len(hot_keys) == 0:
        return shuffle_hash_join(
            left, right, left_on=left_on, right_on=right_on,
            num_buckets=num_buckets, suffix=suffix,
        )

    hot_ref = ray.put(hot_keys)

    def is_hot(arr: np.ndarray, keys: np.ndarray) -> np.ndarray:
        idx = np.clip(np.searchsorted(keys, arr), 0, len(keys) - 1)
        return keys[idx] == arr

    def split(batch: pa.Table, want_hot: bool, col: str) -> pa.Table:
        mask = is_hot(batch[col].to_numpy(zero_copy_only=False), ray.get(hot_ref))
        return batch.filter(pa.array(mask if want_hot else ~mask))

    # broadcast the right rows of hot keys (small by assumption).
    # Collected as Arrow batches — no pandas roundtrip (which would
    # bounce strings through object arrays). Note the two-scan trade:
    # the RIGHT side is read once here for hot rows and again in the
    # cold shuffle path; acceptable because hot-row extraction is a
    # pruned streaming filter, and caching the right side instead
    # would materialize it.
    from .temporal import _as_arrow_schema as _aas

    hot_right = right.map_batches(lambda t: split(t, True, right_on), batch_format="pyarrow")
    hot_blocks = list(hot_right.iter_batches(batch_format="pyarrow", batch_size=None))
    right_hot_tbl = (
        pa.concat_tables(hot_blocks).combine_chunks()
        if hot_blocks
        else pa.Table.from_pylist([], schema=_aas(hot_right.schema()))
    )
    # rename right payload to the joined layout
    l_schema = _aas(left.schema(fetch_if_missing=False) or left.schema())
    left_names = list(l_schema.names)
    right_payload = [n for n in right_hot_tbl.column_names if n != right_on]
    rename_right = {n: (n + suffix if n in left_names else n) for n in right_payload}
    right_hot_tbl = right_hot_tbl.rename_columns(
        ["__k" if c == right_on else rename_right[c] for c in right_hot_tbl.column_names]
    )
    rh_ref = ray.put(right_hot_tbl)
    left_out = [n for n in left_names if n != left_on]
    out_right = [rename_right[n] for n in right_payload]

    def hot_join(batch: pa.Table) -> pa.Table:
        lt = split(batch, True, left_on)
        if len(lt) == 0:
            return pa.table({c: pa.array([], type=f.type) for c, f in zip(
                [left_on, *left_out, *out_right],
                [l_schema.field(left_on), *[l_schema.field(n) for n in left_out],
                 *[ray.get(rh_ref).schema.field(c) for c in out_right]],
            )})
        names = ["__k" if c == left_on else c for c in lt.column_names]
        out = lt.rename_columns(names).join(ray.get(rh_ref), keys="__k", join_type="inner")
        out = out.select(["__k", *left_out, *out_right])
        return out.rename_columns([left_on, *left_out, *out_right])

    hot_part = left.map_batches(hot_join, batch_format="pyarrow")
    cold_part = shuffle_hash_join(
        left.map_batches(lambda t: split(t, False, left_on), batch_format="pyarrow"),
        right.map_batches(lambda t: split(t, False, right_on), batch_format="pyarrow"),
        left_on=left_on, right_on=right_on,
        num_buckets=num_buckets, suffix=suffix,
    )
    return hot_part.union(cold_part)


def broadcast_join(
    left,
    right,
    *,
    left_on: str,
    right_on: str | None = None,
    join_type: str = "inner",
    suffix: str = "_r",
    left_schema: pa.Schema | None = None,
):
    """Small-side broadcast equi-join, the one way a plan attaches
    dimension columns (customer, supplier, part, or a computed
    per-key table) to a fact stream: the RIGHT side is collected as
    one Arrow table, shipped ONCE via ray.put, and every left batch
    joins against it locally with pyarrow's C++ hash join — zero
    shuffle of the left stream. A left key with no right row drops
    ("inner", the SQL join) or keeps nulls ("left outer"); it never
    picks up a neighbour's value. The right side must fit in the
    object store (the caller's contract; auto_join enforces a row
    bound). Output layout matches shuffle_hash_join: [left_on, left
    payload..., right payload...], right collisions suffixed, right
    key dropped.

    Only the left side's column names are needed up front. A read
    knows them from file metadata; on a map lineage (an earlier
    join's output) `left.schema()` runs the whole pipeline once, so
    join on the read side or pass `left_schema`."""
    import ray

    from .temporal import _as_arrow_schema as _aas

    right_on = right_on or left_on
    blocks = list(right.iter_batches(batch_format="pyarrow", batch_size=None))
    right_tbl = (
        pa.concat_tables(blocks).combine_chunks()
        if blocks
        else pa.Table.from_pylist([], schema=_aas(right.schema()))
    )

    l_schema = _aas(left_schema or left.schema(fetch_if_missing=False)
                    or left.schema())
    left_names = list(l_schema.names)
    left_out = [n for n in left_names if n != left_on]
    right_payload = [n for n in right_tbl.column_names if n != right_on]
    rename_right = {n: (n + suffix if n in left_names else n) for n in right_payload}
    out_right = [rename_right[n] for n in right_payload]
    right_tbl = right_tbl.rename_columns(
        ["__k" if c == right_on else rename_right[c] for c in right_tbl.column_names]
    )
    r_ref = ray.put(right_tbl)

    def probe(batch: pa.Table) -> pa.Table:
        rt = ray.get(r_ref)  # zero-copy from the local object store
        names = ["__k" if c == left_on else c for c in batch.column_names]
        out = batch.rename_columns(names).join(rt, keys="__k", join_type=join_type)
        out = out.select(["__k", *left_out, *out_right])
        return out.rename_columns([left_on, *left_out, *out_right])

    return left.map_batches(probe, batch_format="pyarrow")


# Right sides under this row count broadcast by default: ~2M rows of a
# few narrow columns is tens of MB — one object-store put, read
# zero-copy by every task. Above it, the bucketed shuffle wins.
BROADCAST_MAX_ROWS = 2_000_000


def auto_join(
    left,
    right,
    *,
    left_on: str,
    right_on: str | None = None,
    join_type: str = "inner",
    suffix: str = "_r",
    broadcast_max_rows: int = BROADCAST_MAX_ROWS,
    hot_threshold: int | None = None,
    left_schema: pa.Schema | None = None,
):
    """Strategy-dispatching equi-join — the one entry point callers
    should use unless they know better:

    - RIGHT side's metadata row count known and under
      `broadcast_max_rows` -> `broadcast_join` (no shuffle at all);
    - `hot_threshold` given -> `skew_join` (exact key-count pass routes
      hot keys to a broadcast, cold tail to the bucketed shuffle);
    - else -> `shuffle_hash_join` (both sides bucketed, pyarrow join
      per bucket).

    Row counts come from Dataset METADATA only (free for read/
    repartition lineages, None for map lineages) — an unknown count
    falls through to the shuffle path rather than risking an unbounded
    driver collect."""
    from .bucketing import _cheap_count

    n_right = _cheap_count(right)
    if n_right is not None and n_right <= broadcast_max_rows:
        return broadcast_join(
            left, right, left_on=left_on, right_on=right_on,
            join_type=join_type, suffix=suffix, left_schema=left_schema,
        )
    if hot_threshold is not None:
        if join_type != "inner":
            raise ValueError("skew_join path supports inner joins only")
        return skew_join(
            left, right, left_on=left_on, right_on=right_on,
            hot_threshold=hot_threshold, suffix=suffix,
        )
    return shuffle_hash_join(
        left, right, left_on=left_on, right_on=right_on,
        join_type=join_type, suffix=suffix, left_schema=left_schema,
    )


def distinct_set_op(left, right, *, on: list[str], op: str, num_buckets: int | None = None):
    """Row-level INTERSECT / EXCEPT with SQL DISTINCT semantics.

    Both sides project to the key columns, get a side tag, and
    co-locate by key-hash bucket (one shuffle of the key projections
    only); each bucket resolves the set logic with a C-level pandas
    merge. Every occurrence of a key lands in exactly one bucket, so
    per-bucket results are globally correct and the union is the
    answer. Bucket count is data-sized via `default_buckets` on the
    larger side.
    """
    from .bucketing import default_buckets
    from .temporal import fused_exchange

    if op not in ("intersect", "except"):
        raise ValueError(f"op must be 'intersect' or 'except', got {op!r}")
    B = num_buckets or max(default_buckets(left), default_buckets(right))

    def resolve(lt: pa.Table, rt: pa.Table):
        l = lt.to_pandas().drop_duplicates()
        r = rt.to_pandas().drop_duplicates()
        if op == "intersect":
            out = l.merge(r, on=on)
        else:
            out = l.merge(r, on=on, how="left", indicator=True)
            out = out.loc[out["_merge"] == "left_only", on]
        return out.reset_index(drop=True)

    return fused_exchange(left.select_columns(on), right.select_columns(on), on,
                          resolve, num_buckets=B)


def zorder_key(ds, cols: list[str], *, bits: int = 8, out_col: str = "z"):
    """Z-order (Morton) clustering key over numeric columns — the
    locality-preserving layout key behind OPTIMIZE ZORDER-style data
    clustering: sort/partition by it and range scans on ANY of the
    participating columns touch few partitions. One global min/max
    aggregate pass fixes each column's quantization range; the encode
    itself is row-local vectorized bit interleaving (column i owns bit
    positions i, i+n, i+2n, ...)."""
    from ray.data.aggregate import Max, Min

    if bits * len(cols) > 63:
        raise ValueError(
            f"bits*cols = {bits * len(cols)} would overflow the int64 key "
            "(sign bit at 63): reduce bits or the column count"
        )
    aggs = []
    for c in cols:
        aggs += [Min(c), Max(c)]
    mm = ds.aggregate(*aggs)
    lo = np.array([float(mm[f"min({c})"]) for c in cols])
    hi = np.array([float(mm[f"max({c})"]) for c in cols])
    span = np.where(hi > lo, hi - lo, 1.0)
    n = len(cols)
    top = (1 << bits) - 1

    def encode(batch: pa.Table) -> pa.Table:
        z = np.zeros(batch.num_rows, dtype=np.int64)
        for i, c in enumerate(cols):
            x = batch[c].to_numpy(zero_copy_only=False).astype(np.float64)
            q = np.clip(
                np.floor((x - lo[i]) * (1 << bits) / span[i]).astype(np.int64), 0, top
            )
            for j in range(bits):
                z |= ((q >> j) & 1) << (j * n + i)
        return batch.append_column(out_col, pa.array(z))

    return ds.map_batches(encode, batch_format="pyarrow")


def snapshot_diff(old_ds, new_ds, *, key: str, val: str, num_buckets: int | None = None):
    """Snapshot delta audit (CDC verification / SCD planning shape):
    classify every key across two versions of a keyed table as
    added / removed / changed / unchanged and count each class. Both
    snapshots hash-partition on the key into shared buckets (neither
    side broadcasts — the 100-TB case is two full table versions); per
    bucket one C-level outer merge classifies every key of the bucket,
    and only the 4 partial count rows per bucket reach the final
    aggregate. Keys are assumed unique within a snapshot (primary-key
    table), matching the SQL FULL OUTER JOIN the oracle replays."""
    from ray.data.aggregate import Sum

    from .bucketing import default_buckets
    from .temporal import fused_exchange

    B = num_buckets or default_buckets(old_ds, new_ds)

    def per_bucket(old: pa.Table, new: pa.Table):
        import pandas as pd

        a, b = old.to_pandas(), new.to_pandas()
        m = a.merge(b, on=key, how="outer", suffixes=("_a", "_b"), indicator=True)
        status = np.where(
            m["_merge"].to_numpy() == "left_only",
            "removed",
            np.where(
                m["_merge"].to_numpy() == "right_only",
                "added",
                np.where(
                    m[f"{val}_a"].to_numpy() != m[f"{val}_b"].to_numpy(),
                    "changed",
                    "unchanged",
                ),
            ),
        )
        part = pd.Series(status).value_counts()
        return pd.DataFrame(
            {"status": part.index.to_numpy(dtype=object), "n": part.to_numpy(np.int64)}
        )

    parts = fused_exchange(old_ds.select_columns([key, val]), new_ds.select_columns([key, val]),
                           key, per_bucket, num_buckets=B)
    return parts.groupby("status").aggregate(Sum("n", alias_name="n"))


def _skyline2d_local(df, x: str, y: str):
    """Exact 2-D skyline of one frame: rows maximizing `x` while
    minimizing `y` (dominated = some row has x >= AND y <= with one
    strict). Vectorized: per-x-group y-min candidates, then a strict
    running min over x-descending groups; duplicate (x, y) pairs all
    survive (neither dominates the other)."""
    import pandas as pd  # noqa: F401  (module defers pandas imports)

    if not len(df):
        return df
    gmin = df.groupby(x)[y].min()
    gmin = gmin.sort_index(ascending=False)  # x desc
    # strict dominator: min y among STRICTLY larger x
    m_strict = gmin.cummin().shift(1)
    alive_x = gmin.index[gmin < m_strict.fillna(np.inf)]
    keep_min = df[y].to_numpy() == df[x].map(gmin).to_numpy()
    return df[keep_min & df[x].isin(alive_x).to_numpy()]


def skyline_2d(ds, *, x_col: str, y_col: str):
    """Distributed 2-D skyline (Pareto-optimal set: maximize x_col,
    minimize y_col). The local skyline is a COMBINER — the skyline of
    a union equals the skyline of the unioned local skylines — so each
    block contributes only its own frontier (typically O(log n) rows)
    and the final merge runs on that tiny union driver-side. Returns a
    pandas frame sorted for determinism."""
    def local(batch: pa.Table) -> pa.Table:
        out = _skyline2d_local(batch.to_pandas(), x_col, y_col)
        return pa.Table.from_pandas(out, preserve_index=False)

    parts = ds.map_batches(local, batch_format="pyarrow").to_pandas()
    return _skyline2d_local(parts, x_col, y_col)


def ordered_cumsum(ds, *, range_col: str, order_cols: list[str], value_col: str,
                   out_col: str = "cumsum", num_buckets: int | None = None):
    """GLOBAL running sum over a total order — the primitive behind
    running totals and token-balanced shard planning. A global cumsum
    can't be one shuffle (every row depends on every earlier row), so
    it is the classic two-pass prefix layout:

      1. per range-bucket partial sums (a cell per bucket — O(buckets)
         rows to the driver, never data),
      2. exclusive prefix offsets over the sorted cells driver-side,
      3. one bucket-hash exchange; inside each bucket an order_cols
         sort + C-level cumsum + its bucket's offset.

    `range_col` must be a coarse integer prefix of the total order
    (hour index, id block): all rows of bucket k order before all rows
    of bucket k+1, with `order_cols` breaking ties inside the bucket.
    """
    import pandas as pd

    from .temporal import grouped_map

    def cells(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "k": batch[range_col].to_numpy(zero_copy_only=False),
            "v": batch[value_col].to_numpy(zero_copy_only=False),
        })
        agg = df.groupby("k", as_index=False)["v"].sum()
        return pa.Table.from_pandas(agg, preserve_index=False)

    totals = (
        ds.map_batches(cells, batch_format="pyarrow").to_pandas()
        .groupby("k")["v"].sum().sort_index()
    )
    offsets = totals.cumsum().shift(1, fill_value=0).to_dict()

    def run(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([range_col, *order_cols], kind="stable")
        within = g.groupby(range_col, sort=False)[value_col].cumsum()
        g[out_col] = within.to_numpy() + g[range_col].map(offsets).to_numpy()
        return g

    return grouped_map(ds, range_col, run, num_buckets=num_buckets)
