"""Per-row token statistics — the numeric raw features over `tokens`.

The reference's raw features are CSV columns (reference
reader/Reader.py:15-37); our table's payload is a list-of-integer token
column, so the numeric raw-feature set is derived once per row here
(SURVEY.md §7.1): tok_mean, tok_max, tok_min, tok_std,
tok_distinct_ratio — all computed zero-copy from the Arrow list
buffers with segmented numpy reductions (no Python loop over rows).
Distinct counts come from one sort of packed int64 (row, token) keys
(`_row_value_runs`), exact for every integer width. A row with no
tokens gets NaN for every stat. Lists of non-integers raise TypeError.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .arrowutil import packed_keys

TOKEN_STAT_COLS = ("tok_mean", "tok_max", "tok_min", "tok_std", "tok_distinct_ratio")


def _flat_tokens(tokens_col, name: str = "tokens") -> tuple[np.ndarray, np.ndarray]:
    """(per-row lengths as int64, flat token ids in their own integer
    dtype) of a list-of-integer column `name` (Array or ChunkedArray).
    A list of non-integers raises TypeError; a null list row or a null
    id raises ValueError."""
    arr = tokens_col.combine_chunks() if isinstance(tokens_col, pa.ChunkedArray) else tokens_col
    value_type = getattr(arr.type, "value_type", None)
    if value_type is None or not pa.types.is_integer(value_type):
        raise TypeError(f"token column {name!r} must be a list of integers, got {arr.type}")
    flat = arr.flatten()
    if arr.null_count or flat.null_count:
        raise ValueError(f"token column {name!r} holds a null {'row' if arr.null_count else 'id'}")
    lengths = pc.list_value_length(arr).to_numpy().astype(np.int64)
    return lengths, flat.to_numpy(zero_copy_only=False)


def _row_value_runs(lengths: np.ndarray, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, length) of each run of equal (row, token) pairs, in (row,
    token) order: one in-place sort of `arrowutil.packed_keys` (row,
    token) keys, exact for every integer width."""
    if not len(flat):
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    key, span = packed_keys(np.repeat(np.arange(len(lengths), dtype=np.int64), lengths), flat)
    key.sort()
    run_starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    return key[run_starts] // span, np.diff(np.append(run_starts, len(key)))


_PAIR_LOW = 1 << 31


def _pack_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """int64 key per (a, b) token pair, ordered as (a, b): a in the high
    32 bits, b + 2**31 in the low 32. Ids outside int32 raise ValueError
    rather than collide."""
    for ids in (a, b):
        if len(ids) and (ids.min() < -_PAIR_LOW or ids.max() >= _PAIR_LOW):
            raise ValueError("token ids must fit in int32 to be counted as pairs")
    return (a.astype(np.int64) << 32) | (b.astype(np.int64) + _PAIR_LOW)


def _unpack_pairs(pair: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return pair >> 32, (pair & 0xFFFFFFFF) - _PAIR_LOW


def token_stats_arrays(tokens_col) -> dict[str, np.ndarray]:
    """Segmented reductions over a list-of-integer column (Array or
    ChunkedArray): float64 sums, max and min over each non-empty row in
    token order, NaN for every stat of an empty row, and an integer-exact
    distinct count (`_row_value_runs`). Non-integer lists raise TypeError."""
    lengths, flat = _flat_tokens(tokens_col)
    n = len(lengths)
    stats = {name: np.full(n, np.nan) for name in TOKEN_STAT_COLS}
    rows = np.flatnonzero(lengths)
    at = (np.cumsum(lengths) - lengths)[rows]
    cnt = lengths[rows]
    values = flat.astype(np.float64)
    mean = np.add.reduceat(values, at) / cnt
    var = np.maximum(np.add.reduceat(values * values, at) / cnt - mean * mean, 0.0)
    run_row, _ = _row_value_runs(lengths, flat)
    stats["tok_mean"][rows] = mean
    stats["tok_max"][rows] = np.maximum.reduceat(values, at)
    stats["tok_min"][rows] = np.minimum.reduceat(values, at)
    stats["tok_std"][rows] = np.sqrt(var)
    stats["tok_distinct_ratio"][rows] = np.bincount(run_row, minlength=n)[rows] / cnt
    return stats


def add_token_stats(batch: pa.Table) -> pa.Table:
    stats = token_stats_arrays(batch["tokens"])
    for name in TOKEN_STAT_COLS:
        batch = batch.append_column(name, pa.array(stats[name], type=pa.float64()))
    return batch


def token_stats_dataset(ds):
    """Stateless map_batches stage attaching the token-stat columns."""
    return ds.map_batches(add_token_stats, batch_format="pyarrow", batch_size=None)


def numpy_base_columns(batch: pa.Table, needed: list[str]) -> dict[str, np.ndarray]:
    """Numpy views of the needed base columns, deriving token stats on the
    fly when a requested stat column isn't materialized in the batch."""
    cols: dict[str, np.ndarray] = {}
    stats = None
    for name in needed:
        if name in batch.column_names:
            cols[name] = batch[name].to_numpy(zero_copy_only=False)
        elif name in TOKEN_STAT_COLS:
            if stats is None:
                stats = token_stats_arrays(batch["tokens"])
            cols[name] = stats[name]
        else:
            raise KeyError(f"column {name} not in batch and not a token stat")
    return cols


def bigram_pair_counts(
    ds, *, tokens_col: str = "tokens", k: int = 50, alphabet_bound: int | None = None
):
    """Corpus-wide adjacent token-pair frequencies, exact top-k — the
    counting step of one BPE merge (Sennrich et al. 2016) and the
    bigram table vocabulary analyses start from.

    Per-batch segmented pair encode (`_pack_pairs` over the zero-copy
    list buffers) + np.unique partials -> pair-hash bucket shuffle with
    one C-level groupby-sum + local top-k per bucket (grouped_map; a
    Ray Aggregate here pays ~Python-per-distinct-key and measured 43 s
    on 2.5M pairs vs ~2 s for the bucketed path) -> tiny global sort
    with deterministic (count desc, a, b) ties. Token lists never
    shuffle; the exchange is the distinct (pair, n) cells. At corpus
    scale where even distinct pairs are too many, the approximate path
    is stages/sketch.py:cms_token_counts."""
    import pandas as pd

    from .temporal import grouped_map

    if alphabet_bound is not None and alphabet_bound * alphabet_bound <= (1 << 18):
        # Dense small-alphabet path (the BPE merge loop's shape: byte
        # alphabet + a few learned ids). The whole pair space is
        # bound² ≤ 256k cells, so the pair-hash exchange buys nothing:
        # each block emits ONE fixed-size bincount blob (bound²·8 B ≤
        # 2 MB), a map_batches pass tree-reduces blob rows 32:1 so the
        # driver folds O(blocks/32) blobs, and top-k comes off the
        # dense vector. Ids must be < alphabet_bound (guarded).
        import ray.data

        A = int(alphabet_bound)

        def dense_partial(batch: pa.Table) -> pa.Table:
            lengths, flat = _flat_tokens(batch[tokens_col], tokens_col)
            flat = flat.astype(np.int64)
            n = len(flat)
            if n == 0:
                blob = np.zeros(A * A, dtype=np.int64)
            else:
                if flat.max() >= A or flat.min() < 0:
                    raise ValueError(
                        f"token id outside [0, {A}) — alphabet_bound too small"
                    )
                ends = np.cumsum(lengths)
                valid = np.ones(n, dtype=bool)
                valid[ends - 1] = False
                pos = np.flatnonzero(valid)
                blob = np.bincount(
                    flat[pos] * A + flat[pos + 1], minlength=A * A
                ).astype(np.int64)
            return pa.table({"blob": pa.array([blob.tobytes()], type=pa.binary())})

        def merge_blobs(batch: pa.Table) -> pa.Table:
            tot = np.zeros(A * A, dtype=np.int64)
            for b in batch["blob"]:
                tot += np.frombuffer(b.as_py(), dtype=np.int64)
            return pa.table({"blob": pa.array([tot.tobytes()], type=pa.binary())})

        reduced = (
            ds.map_batches(dense_partial, batch_format="pyarrow")
            .map_batches(merge_blobs, batch_format="pyarrow", batch_size=32)
        )
        tot = np.zeros(A * A, dtype=np.int64)
        for row in reduced.take_all():
            tot += np.frombuffer(row["blob"], dtype=np.int64)
        nz = np.flatnonzero(tot)
        # same deterministic order as the bucketed path:
        # n desc, then (a, b) asc == pair key asc
        order = np.lexsort((nz, -tot[nz]))[:k]
        sel = nz[order]
        return ray.data.from_arrow(
            pa.table(
                {
                    "a": pa.array(sel // A),
                    "b": pa.array(sel % A),
                    "n": pa.array(tot[sel]),
                }
            )
        )

    def partials(batch: pa.Table) -> pa.Table:
        lengths, flat = _flat_tokens(batch[tokens_col], tokens_col)
        flat = flat.astype(np.int64)
        n = len(flat)
        if n == 0:
            return pa.table(
                {"pair": pa.array([], type=pa.int64()), "n": pa.array([], type=pa.int64())}
            )
        ends = np.cumsum(lengths)
        valid = np.ones(n, dtype=bool)
        # last token of each row starts no pair (empty rows resolve to
        # the previous row's end / the global tail, both already False)
        valid[ends - 1] = False
        pos = np.flatnonzero(valid)
        key = _pack_pairs(flat[pos], flat[pos + 1])
        uniq, cnt = np.unique(key, return_counts=True)
        return pa.table({"pair": pa.array(uniq), "n": pa.array(cnt.astype(np.int64))})

    def bucket_topk(g: pd.DataFrame) -> pa.Table:
        s = g.groupby("pair")["n"].sum().reset_index()
        s = s.sort_values(["n", "pair"], ascending=[False, True], kind="stable").head(k)
        return pa.table(
            {
                "pair": pa.array(s["pair"].to_numpy(np.int64)),
                "n": pa.array(s["n"].to_numpy(np.int64)),
            }
        )

    # every partial row of a pair lands in one bucket, so the global
    # top-k is contained in the union of per-bucket top-k's
    counts = grouped_map(
        ds.map_batches(partials, batch_format="pyarrow"), "pair", bucket_topk
    )

    def decode(batch: pa.Table) -> pa.Table:
        a, b = _unpack_pairs(batch["pair"].to_numpy(zero_copy_only=False))
        return pa.table({"a": pa.array(a), "b": pa.array(b), "n": batch["n"]})

    return (
        counts.sort(["n", "pair"], descending=[True, False])
        .limit(k)
        .map_batches(decode, batch_format="pyarrow")
    )


def skipgram_pmi(ds, *, tokens_col: str = "tokens", window: int = 2, mod: int | None = 256, k: int = 25):
    """Skip-gram co-occurrence counts + pointwise mutual information
    (Church & Hanks 1990) over the token corpus — the statistic behind
    word2vec-style context tables and PPMI embedding matrices.

    Ordered (center, context) pairs at forward distances 1..window.
    Per-batch segmented encode over the zero-copy list buffers (one
    shifted-gather per distance, no row loop) -> np.unique partials ->
    pair-hash bucket C-level sum. The full pair table is at most
    vocab² cells (mod² when a byte view is requested) — bounded by the
    ALPHABET, not the corpus — so marginals and PMI are computed on
    that small table driver-side; the corpus itself never shuffles.

    Returns pandas (a, b, n, pmi) top-k by (n desc, a, b), pmi =
    ln(n·N / (ca·cb)) over pair-table marginals, rounded to 6."""
    import pandas as pd

    from .temporal import grouped_map

    def partials(batch: pa.Table) -> pa.Table:
        lengths, flat = _flat_tokens(batch[tokens_col], tokens_col)
        flat = flat.astype(np.int64)
        if mod:
            flat = flat % mod
        n = len(flat)
        if n == 0:
            return pa.table(
                {"pair": pa.array([], type=pa.int64()), "n": pa.array([], type=pa.int64())}
            )
        starts = np.zeros(len(lengths), dtype=np.int64)
        np.cumsum(lengths[:-1], out=starts[1:])
        row_of = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
        rem = lengths[row_of] - (np.arange(n, dtype=np.int64) - starts[row_of])
        if mod and mod * mod <= (1 << 24):
            # alphabet-bounded dense count: O(n) bincount over the
            # mod² key space beats the O(n log n) sort in np.unique
            dense = np.zeros(mod * mod, dtype=np.int64)
            for d in range(1, window + 1):
                sel = np.flatnonzero(rem > d)
                dense += np.bincount(
                    flat[sel] * mod + flat[sel + d], minlength=mod * mod
                )
            nz = np.flatnonzero(dense)
            uniq = _pack_pairs(nz // mod, nz % mod)
            cnt = dense[nz]
        else:
            keys = [
                _pack_pairs(flat[sel], flat[sel + d])
                for d in range(1, window + 1)
                for sel in (np.flatnonzero(rem > d),)
            ]
            uniq, cnt = np.unique(np.concatenate(keys), return_counts=True)
        return pa.table({"pair": pa.array(uniq), "n": pa.array(cnt.astype(np.int64))})

    def bucket_sum(g: pd.DataFrame) -> pa.Table:
        s = g.groupby("pair")["n"].sum().reset_index()
        return pa.table(
            {
                "pair": pa.array(s["pair"].to_numpy(np.int64)),
                "n": pa.array(s["n"].to_numpy(np.int64)),
            }
        )

    cells = grouped_map(
        ds.map_batches(partials, batch_format="pyarrow"), "pair", bucket_sum
    ).to_pandas()
    a, b = _unpack_pairs(cells["pair"].to_numpy(np.int64))
    cnt = cells["n"].to_numpy(np.int64)
    N = float(cnt.sum())
    ca = pd.Series(cnt).groupby(a).transform("sum").to_numpy(np.float64)
    cb = pd.Series(cnt).groupby(b).transform("sum").to_numpy(np.float64)
    pmi = np.round(np.log(cnt.astype(np.float64) * N / (ca * cb)), 6)
    out = pd.DataFrame({"a": a, "b": b, "n": cnt, "pmi": pmi})
    return (
        out.sort_values(["n", "a", "b"], ascending=[False, True, True], kind="stable")
        .head(k)
        .reset_index(drop=True)
    )


def token_entropy_batch(batch: pa.Table, *, tokens_col: str = "tokens", id_col: str = "doc_id") -> pa.Table:
    """Per-document unigram (Shannon) entropy in nats — the token-
    diversity quality signal (low-entropy docs are boilerplate /
    repetition; used alongside the Gopher repetition rules). Stateless
    and row-local: run-length counts per (row, token) from one packed-
    key sort (`_row_value_runs`), one bincount per batch. No loop over
    rows. An empty document's entropy is 0."""
    lengths, flat = _flat_tokens(batch[tokens_col], tokens_col)
    run_row, run_len = _row_value_runs(lengths, flat)
    p = run_len / lengths[run_row]
    h = np.bincount(run_row, weights=-p * np.log(p), minlength=len(lengths))
    return pa.table(
        {
            id_col: batch[id_col],
            "n_tok": pa.array(lengths),
            "entropy": pa.array(np.round(h, 6), pa.float64()),  # bincount of no runs is int64
        }
    )


def zipf_fit(ds, *, tokens_col: str = "tokens", top_ranks: int = 1000):
    """Zipf-law fit over the corpus unigram distribution: OLS of
    ln(count) on ln(rank) across the `top_ranks` most frequent tokens
    (rank by count desc, token asc). The exchanged state is the
    vocab-bounded distinct (token, count) table — per-batch bincount
    partials, pair-hash bucket C-level sum — so the fit input is
    O(vocab) regardless of corpus size. Returns a one-row DataFrame
    (slope, intercept, r2, n_ranks); slope ≈ -1 is Zipf."""
    import pandas as pd

    from .temporal import grouped_map

    def partials(batch: pa.Table) -> pa.Table:
        flat = _flat_tokens(batch[tokens_col], tokens_col)[1].astype(np.int64)
        uniq, cnt = np.unique(flat, return_counts=True)
        return pa.table({"tok": pa.array(uniq), "n": pa.array(cnt.astype(np.int64))})

    def bucket_sum(g: pd.DataFrame) -> pa.Table:
        s = g.groupby("tok")["n"].sum().reset_index()
        return pa.table(
            {
                "tok": pa.array(s["tok"].to_numpy(np.int64)),
                "n": pa.array(s["n"].to_numpy(np.int64)),
            }
        )

    cells = grouped_map(
        ds.map_batches(partials, batch_format="pyarrow"), "tok", bucket_sum
    ).to_pandas()
    cells = cells.sort_values(["n", "tok"], ascending=[False, True], kind="stable").head(
        top_ranks
    )
    x = np.log(np.arange(1, len(cells) + 1, dtype=np.float64))
    y = np.log(cells["n"].to_numpy(np.float64))
    xm, ym = x.mean(), y.mean()
    sxx = float(((x - xm) ** 2).sum())
    sxy = float(((x - xm) * (y - ym)).sum())
    slope = sxy / sxx
    intercept = ym - slope * xm
    syy = float(((y - ym) ** 2).sum())
    r2 = (sxy * sxy) / (sxx * syy) if syy > 0 else 1.0
    return pd.DataFrame(
        {
            "slope": [round(slope, 6)],
            "intercept": [round(intercept, 6)],
            "r2": [round(r2, 6)],
            "n_ranks": [np.int64(len(cells))],
        }
    )


def token_grep(ds, needle, *, tokens_col: str = "tokens", id_col: str = "doc_id", mod: int | None = None):
    """Token-subsequence search: every (doc, position) where the exact
    contiguous token sequence `needle` occurs — the memorization-probe /
    contamination-span primitive ("which documents contain this exact
    token run, and where"). Row-local: each batch runs one shifted
    vectorized compare per needle offset over the zero-copy flat values
    buffer (no row loop, nothing shuffles); `mod` searches the reduced
    token view (e.g. 256 for the byte view). Returns a Dataset of
    (id, pos) with pos the 0-based match offset within the document."""
    needle = np.asarray(needle, dtype=np.int64)
    k = len(needle)
    if k == 0:
        raise ValueError("empty needle")

    def scan(batch: pa.Table) -> pa.Table:
        lengths, values = _flat_tokens(batch[tokens_col], tokens_col)
        values = values.astype(np.int64)
        if mod is not None:
            values = values % mod
        n_rows = len(lengths)
        total = len(values)
        empty = pa.table(
            {
                id_col: pa.array([], type=batch.schema.field(id_col).type),
                "pos": pa.array([], type=pa.int64()),
            }
        )
        if total < k:
            return empty
        row_of = np.repeat(np.arange(n_rows, dtype=np.int64), lengths)
        starts = np.zeros(n_rows, dtype=np.int64)
        np.cumsum(lengths[:-1], out=starts[1:])
        # candidate start positions: all k tokens match AND the window
        # stays inside one document (same row at start and end)
        ok = values[: total - k + 1] == needle[0]
        for j in range(1, k):
            ok &= values[j : total - k + 1 + j] == needle[j]
        ok &= row_of[: total - k + 1] == row_of[k - 1 :]
        hits = np.flatnonzero(ok)
        rows = row_of[hits]
        ids = batch[id_col].take(pa.array(rows))
        return pa.table(
            {id_col: ids, "pos": pa.array(hits - starts[rows])}
        )

    return ds.map_batches(scan, batch_format="pyarrow")
