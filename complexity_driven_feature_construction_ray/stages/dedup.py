"""Deduplication stages: exact, MinHash+LSH, SimHash, embedding-cosine.

Training-data curation ops at 100 TB shape:
- exact: keep min id per distinct content, co-grouped by content hash
  (collision-safe: the group re-checks real content)
- MinHash+LSH: shingle->minhash signatures per batch (all-vectorized
  segmented numpy, no Python loop over shingles), banded into bucket
  keys, candidate pairs with estimated Jaccard >= threshold from the
  collided buckets, then a driver-side union-find over the (tiny) pair
  set to form duplicate clusters
- SimHash: 64-bit sign fingerprint, banded into 4x16-bit keys,
  Hamming-verified within buckets
- embedding-cosine: random-hyperplane LSH buckets + exact cosine verify

Every LSH family (MinHash, incremental MinHash, SimHash, pHash,
embedding) goes through ONE pair scan, `_pairs_from_band_arrays`. Every
hash exchange here goes through `stages/temporal.py:grouped_map` (one
input) or `fused_exchange` (two), so `bucketing.bucket_of` assigns all
buckets. The heavy work (hashing, signatures, banding) streams through
map_batches; only small key rows (never documents) and the candidate
pair list cross an exchange.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .arrowutil import list_column_matrix
from .bucketing import default_buckets
from .temporal import fused_exchange, grouped_map

_U64 = np.uint64
_PRIME = _U64((1 << 61) - 1)
_HASH_KEY = "0123456789123456"


def _hash_words(words: np.ndarray) -> np.ndarray:
    return pd.util.hash_array(words, hash_key=_HASH_KEY).astype(_U64)


# ---------------------------------------------------------------------------
# exact dedup


def exact_dedup(ds, *, content_col: str = "text", id_col: str = "doc_id", num_buckets: int | None = None):
    """Keep one row (min id) per distinct content value. Rows co-group
    by a bucket of the content hash (one call per bucket, not one per
    distinct content); each bucket resolves hash collisions by grouping
    on the actual content. B defaults to a data-sized count."""

    def first_per_content(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(id_col, kind="stable").groupby(content_col, sort=False).head(1)

    return grouped_map(ds, content_col, first_per_content, num_buckets=num_buckets)


# ---------------------------------------------------------------------------
# minhash + LSH


def _flat_words(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(word hashes, per-row word counts) for a batch — one explode, one
    vectorized hash pass, no per-row Python loop."""
    s = pd.Series(texts).fillna("")
    ex = s.str.findall(r"\S+").explode().dropna()
    counts = np.bincount(ex.index.to_numpy(dtype=np.int64), minlength=len(texts))
    wh = (
        _hash_words(ex.to_numpy(dtype=object))
        if len(ex)
        else np.empty(0, dtype=_U64)
    )
    return wh, counts


def _shingle_hashes(texts: list[str], shingle_words: int) -> tuple[np.ndarray, np.ndarray]:
    """All word-k-gram hashes of a batch + row offsets (segmented layout).
    Fully vectorized: shingle starts are the flat positions whose k-th
    successor is still in the same row; the k-way mix is k-1 shifted
    vector ops over the whole flat hash array."""
    k = shingle_words
    wh, word_counts = _flat_words(texts)
    counts = np.maximum(word_counts - k + 1, 0)
    offsets = np.zeros(len(texts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    W = len(wh)
    if W == 0 or counts.sum() == 0:
        return np.empty(0, dtype=_U64), offsets
    row_of = np.repeat(np.arange(len(texts)), word_counts)
    valid = np.zeros(W, dtype=bool)
    if W >= k:
        valid[: W - k + 1] = row_of[: W - k + 1] == row_of[k - 1 :]
    starts = np.flatnonzero(valid)
    with np.errstate(over="ignore"):
        acc = wh[starts].copy()
        for j in range(1, k):
            acc = acc * _U64(1_000_003) + wh[starts + j]
    return acc, offsets


def minhash_signatures(
    texts: list[str], num_perm: int = 64, shingle_words: int = 3, seed: int = 42
) -> np.ndarray:
    """(n_rows, num_perm) uint64 MinHash signatures; empty rows -> max."""
    sh, offsets = _shingle_hashes(texts, shingle_words)
    rng = np.random.default_rng(seed)
    a = rng.integers(1, 1 << 61, num_perm, dtype=np.uint64) | _U64(1)
    b = rng.integers(0, 1 << 61, num_perm, dtype=np.uint64)
    n = len(texts)
    out = np.full((n, num_perm), np.iinfo(np.uint64).max, dtype=_U64)
    if len(sh) == 0:
        return out
    starts = offsets[:-1]
    nonempty = offsets[1:] > starts
    st = starts[nonempty]
    # one permutation at a time over the flat shingle array: the
    # (n_shingles, num_perm) matrix formulation allocates an
    # ~n_shingles*perm*8B temp and reduceat strides across it, which
    # measured 35x slower (5.3s vs 0.15s on 1.56M shingles x 64 perms)
    # than num_perm contiguous 1D multiply+reduceat passes
    mins = np.empty((len(st), num_perm), dtype=_U64)
    with np.errstate(over="ignore"):
        for j in range(num_perm):
            h = sh * a[j]
            h += b[j]
            mins[:, j] = np.minimum.reduceat(h, st)
    out[nonempty] = mins
    return out


def _band_keys(sigs: np.ndarray, bands: int) -> np.ndarray:
    """(n, bands) int64 band-bucket keys."""
    n, p = sigs.shape
    r = p // bands
    s = sigs[:, : bands * r].reshape(n, bands, r)
    with np.errstate(over="ignore"):
        acc = np.zeros((n, bands), dtype=_U64)
        for j in range(r):
            acc = acc * _U64(0x9E3779B97F4A7C15) + s[:, :, j]
    return acc.astype(np.int64)


def _sig_est_matrix(sigs: np.ndarray) -> np.ndarray:
    return (sigs[:, None, :] == sigs[None, :, :]).mean(axis=2)


def _grouped_bucket_pairs(ids, rows, est_fn, keep_fn, chain_est_val=1.0) -> pd.DataFrame:
    """Candidate pairs within one LSH bucket with an exact-equal shortcut:
    rows with identical feature vectors link to their group min id (O(k));
    the quadratic scan (est_fn over the unique-row matrix, keep_fn on the
    upper triangle) runs on group representatives only. With u unique
    rows a k-member bucket costs O(k + u^2) instead of O(k^2)."""
    uniq, inv = np.unique(rows, axis=0, return_inverse=True)
    reps = np.empty(len(uniq), dtype=np.int64)  # index of min-id member per group
    order = np.lexsort((np.arange(len(ids)), inv))  # ids already id-sorted
    first_pos = np.searchsorted(inv[order], np.arange(len(uniq)))
    reps = order[first_pos]
    # chain: every non-representative pairs with its group's min id
    nonrep = np.ones(len(ids), dtype=bool)
    nonrep[reps] = False
    chain_a = ids[reps[inv[nonrep]]]
    chain_b = ids[np.flatnonzero(nonrep)]
    chain_est = np.full(int(nonrep.sum()), float(chain_est_val))
    if len(uniq) >= 2:
        est = est_fn(uniq)
        iu = np.triu_indices(len(uniq), k=1)
        vals = est[iu]
        keep = keep_fn(vals)
        rep_a = ids[reps[iu[0][keep]]]
        rep_b = ids[reps[iu[1][keep]]]
        rep_est = vals[keep].astype(float)
    else:
        rep_a = rep_b = np.array([], dtype=ids.dtype)
        rep_est = np.array([])
    a = np.concatenate([chain_a, rep_a])
    b = np.concatenate([chain_b, rep_b])
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    return pd.DataFrame({"a": lo, "b": hi, "est": np.concatenate([chain_est, rep_est])})


def minhash_lsh_dedup(
    ds,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 64,
    bands: int = 16,
    threshold: float = 0.7,
    seed: int = 42,
    return_pairs: bool = False,
) -> pd.DataFrame:
    """Near-duplicate clusters via MinHash+LSH.

    Returns a pandas DataFrame (id, rep_id, is_dup) for every document
    that appeared in at least one candidate bucket, with rep_id the
    cluster representative (min id); is_dup marks non-representatives.
    With return_pairs=True, returns the raw candidate-pair frame
    (a, b, est) instead — the edge list for the distributed
    connected-components path (stages/graph.py).

    Signatures are computed ONCE into a materialized signature table
    (id, sig) — num_perm x 8 bytes per doc, the artifact production
    MinHash pipelines persist (10-25x smaller than a real 2-5 KB-doc
    corpus; Ray spills it under memory pressure). Both the hot-bucket
    count pass and the candidate-pair pass then map over the signature
    table, so the corpus text is scanned and shingled exactly once —
    recomputing signatures per pass measured ~55s of each pass at 3M
    docs / 8 CPUs, pure duplicated compute."""
    sig_ds = ds.map_batches(
        _minhash_featurize(text_col, id_col, num_perm, seed), batch_format="pyarrow"
    ).materialize()

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:
            return pd.DataFrame({"a": [], "b": [], "est": []})
        g = g.drop_duplicates(subset=[id_col]).sort_values(id_col, kind="stable")
        ids = g[id_col].to_numpy()
        sigs = np.stack(g["sig"].to_numpy())
        # mega-bucket guard: a bucket of k identical docs must cost O(k),
        # not O(k^2). Group identical signatures first (est == 1.0 within
        # a group, always >= threshold): chain members to the group min id,
        # then run the O(g^2) signature scan over group REPRESENTATIVES
        # only — est(rep_A, rep_B) equals est(any_A, any_B) for identical
        # signatures, so clusters are unchanged via union-find transitivity.
        return _grouped_bucket_pairs(
            ids, sigs, lambda s: _sig_est_matrix(s), lambda est: est >= threshold
        )

    def est2(A: np.ndarray, B: np.ndarray) -> np.ndarray:
        # aligned (m, num_perm) signature matrices for the size-2 buckets
        return (A == B).mean(axis=1)

    pairs = _pairs_from_band_arrays(
        sig_ds, _minhash_band_arrays(id_col, num_perm, bands), "sig", bands,
        bucket_pairs, id_col, fast2=(est2, lambda e: e >= threshold),
    )
    if return_pairs:
        return pairs
    return _clusters_from_pairs(pairs)


def _minhash_featurize(text_col: str, id_col: str, num_perm: int, seed: int, side=None):
    """Batch -> signature table (id, sig). With a `side` (1 new, 0 old)
    the side flag rides as one more signature column."""

    def featurize(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        sigs = minhash_signatures(batch[text_col].to_pylist(), num_perm, seed=seed).astype(np.int64)
        if side is not None:
            sigs = np.column_stack([sigs, np.full(len(sigs), side, np.int64)])
        return pa.table({
            id_col: pa.array(np.asarray(ids)),
            "sig": pa.FixedSizeListArray.from_arrays(pa.array(sigs.reshape(-1)), sigs.shape[1]),
        })

    return featurize


def _minhash_band_arrays(id_col: str, num_perm: int, bands: int):
    """The MinHash `band_arrays` for `_pairs_from_band_arrays`: band keys
    re-derive from the stored signatures (a few cheap integer folds,
    never from text); the feature is the whole stored signature row."""

    def band_arrays(batch: pa.Table):
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        sigs = np.ascontiguousarray(list_column_matrix(batch["sig"], dtype=np.int64))
        keys = _band_keys(sigs[:, :num_perm].view(_U64), bands)  # (n, bands) int64
        # fold (band_id, band_key) into one int64 bucket key so the
        # downstream count/filter/exchange is single-column + vectorized
        band_id = np.tile(np.arange(bands, dtype=np.uint64), len(ids))
        with np.errstate(over="ignore"):
            bucket = (keys.reshape(-1).view(_U64) * _U64(bands * 2 + 1) + band_id).view(np.int64)
        return bucket, ids, sigs

    return band_arrays


def _hamming_elementwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row Hamming distance between two aligned uint64 vectors."""
    x = (a ^ b).view(np.uint8).reshape(len(a), 8)
    return _POP[x].sum(axis=1).astype(float)


def _pairs_from_band_arrays(
    ds, band_arrays, feat_col: str, bands: int, bucket_pairs, id_col: str, fast2=None
) -> pd.DataFrame:
    """Candidate pairs from LSH band buckets: the one pair scan behind
    MinHash (plain and incremental), SimHash, pHash and embedding dedup.

    Contract: band_arrays(batch) -> (bucket_flat doc-major (n*bands,),
    ids (n,), feat (n,) or (n,d)). The band-replicated feature stream
    is never built: np.repeat-ing a 64-perm signature per band moves
    feature_bytes x bands through memory twice (~24 GB per pass at 3M
    docs), a NON-SCALING serial component in the N->4N protocol
    (measured efficiency 0.69). Instead:

    - count pass: per-batch np.unique over the flat buckets only (no
      id/feature replication), folded by `grouped_map` into the hot set
      = buckets with >= 2 members (broadcast via one ray.put). A
      groupby(bucket) would pay one Python call, or one sort key, per
      distinct bucket, almost all of them singletons;
    - pair pass: recompute buckets, searchsorted-filter to hot rows,
      and GATHER ids/features only for those (dup-rate-sized), then
      `grouped_map` on the bucket key into P coarse partitions, each one
      `_partition_pairs_arrow` scan (vectorized size-2 fast path via
      fast2, per-bucket `bucket_pairs` otherwise) with in-partition
      pair dedup. Without fast2 every bucket goes to `bucket_pairs`.
    """
    import ray

    def count_partials(batch: pa.Table) -> pa.Table:
        bucket, _ids, _f = band_arrays(batch)
        uniq, cnt = np.unique(bucket, return_counts=True)
        # the fold only asks "global count >= 2", so per-batch counts
        # clip to 2 and ship as uint8 — halves the shuffled bytes with
        # identical hot sets (2 + anything >= 2; 1 + 1 = 2)
        return pa.table({
            "bucket": pa.array(uniq),
            "c": pa.array(np.minimum(cnt, 2).astype(np.uint8)),
        })

    def hot_in_group(g: pa.Table) -> pa.Table:
        b = g["bucket"].to_numpy()
        order = np.argsort(b, kind="stable")
        bs = b[order]
        cs = g["c"].to_numpy()[order].astype(np.int64)
        starts = np.flatnonzero(np.r_[True, bs[1:] != bs[:-1]])
        totals = np.add.reduceat(cs, starts)
        return pa.table({"bucket": pa.array(bs[starts][totals >= 2])})

    # materialize the (clipped-count, vocabulary-sized) partials before
    # the grouped_map sort — same chained-map->Sort pathology note as
    # the hot-row stream below
    partials = ds.map_batches(
        count_partials, batch_format="pyarrow"
    ).materialize()
    hot = grouped_map(partials, "bucket", hot_in_group, batch_format="pyarrow")
    hot_keys = np.sort(hot.to_pandas()["bucket"].to_numpy().astype(np.int64))
    if len(hot_keys) == 0:
        return pd.DataFrame({"a": [], "b": [], "est": []})
    # ONE shared object-store copy read zero-copy by every task, instead
    # of re-serializing a closure-captured array per task submission
    hot_ref = ray.put(hot_keys)
    # ~1k collided buckets per partition, however dup-heavy the corpus:
    # the per-call overhead is paid P times, not once per bucket
    P = max(64, len(hot_keys) // 1024 + 1)

    def hot_rows(batch: pa.Table) -> pa.Table:
        bucket, ids, feat = band_arrays(batch)
        hk = ray.get(hot_ref)  # SORTED: searchsorted membership
        pos = np.searchsorted(hk, bucket)
        mask = (pos < len(hk)) & (hk[np.minimum(pos, len(hk) - 1)] == bucket)
        sel = np.flatnonzero(mask)
        doc = sel // bands
        fsel = feat[doc]
        if fsel.ndim == 2:
            farr = pa.FixedSizeListArray.from_arrays(
                pa.array(np.ascontiguousarray(fsel).reshape(-1)), fsel.shape[1]
            )
        else:
            farr = pa.array(fsel)
        return pa.table({
            "bucket": pa.array(bucket[sel]),
            id_col: pa.array(np.asarray(ids)[doc]),
            feat_col: farr,
        })

    def partition_pairs(g: pa.Table) -> pa.Table:
        return _partition_pairs_arrow(g, bucket_pairs, id_col, feat_col, fast2)

    # materialize_input: Ray 2.49 chained map->Sort in ONE streaming
    # plan measured 70-90s where sort-over-materialized-blocks takes
    # ~12s on the same 2.6M rows. The stream is bounded by the duplicate
    # rate (only collided-bucket rows), so pinning it in the object
    # store is proportional to dups, not corpus.
    return grouped_map(
        ds.map_batches(hot_rows, batch_format="pyarrow", batch_size=None),
        "bucket", partition_pairs, num_buckets=P, batch_format="pyarrow",
        materialize_input=True,
    ).to_pandas()


def _concat_aranges(cnt: np.ndarray) -> np.ndarray:
    """[0..cnt[0]), [0..cnt[1]), ... concatenated, vectorized."""
    total = int(cnt.sum())
    return np.arange(total) - np.repeat(np.cumsum(cnt) - cnt, cnt)


def _small_bucket_pairs_vec(
    feat, ids_all, starts, sizes, sel, est2, keep2, chain_est_val
):
    """Vectorized _grouped_bucket_pairs over MANY small buckets at once.

    `sel` indexes buckets (into starts/sizes) whose rows are id-sorted
    and id-distinct. Reproduces the per-bucket semantics exactly:
    rows with byte-identical features chain to their clone group's min
    id at est=chain_est_val; one representative per clone class enters
    the all-pairs est2/keep2 scan. A pandas bucket_pairs call per
    bucket measured ~0.2ms — at 3M docs the ~235k 3-member buckets
    were ~50s of an 85s pipeline; this does them all in a handful of
    whole-partition numpy passes."""
    cnt = sizes[sel]
    row_idx = starts[sel].repeat(cnt) + _concat_aranges(cnt)
    sub = feat[row_idx]
    if sub.ndim == 2:
        subc = np.ascontiguousarray(sub)
        v = subc.view(
            np.dtype((np.void, subc.dtype.itemsize * subc.shape[1]))
        ).ravel()
    else:
        v = sub
    _, cls = np.unique(v, return_inverse=True)
    bl = np.repeat(np.arange(len(sel)), cnt)
    ids_sub = ids_all[row_idx]
    order = np.lexsort((ids_sub, cls, bl))
    r = row_idx[order]
    blo, clso = bl[order], cls[order]
    rs = np.r_[True, (blo[1:] != blo[:-1]) | (clso[1:] != clso[:-1])]
    head = np.flatnonzero(rs)
    run_id = np.cumsum(rs) - 1
    head_row = r[head][run_id]
    outs = []
    nonrep = ~rs
    if nonrep.any():
        a = ids_all[head_row[nonrep]]  # run head = min id in clone run
        b = ids_all[r[nonrep]]
        outs.append(pd.DataFrame({
            "a": a, "b": b,
            "est": np.full(len(a), float(chain_est_val)),
        }))
    # representatives per bucket, bucket-ordered; all-pairs per rep count
    rep_rows = r[head]
    u = np.bincount(blo[head], minlength=len(sel))
    hstart = np.cumsum(u) - u
    for k in np.unique(u):
        if k < 2:
            continue
        gsel = np.flatnonzero(u == k)
        M = rep_rows[hstart[gsel][:, None] + np.arange(k)]
        for i in range(k):
            for j in range(i + 1, k):
                est = np.asarray(est2(feat[M[:, i]], feat[M[:, j]]), dtype=float)
                keep = keep2(est)
                if keep.any():
                    a = ids_all[M[:, i]][keep]
                    b = ids_all[M[:, j]][keep]
                    outs.append(pd.DataFrame({
                        "a": np.minimum(a, b),
                        "b": np.maximum(a, b),
                        "est": est[keep],
                    }))
    return outs


def _partition_pairs_arrow(
    t: pa.Table, bucket_pairs, id_col: str, feat_col: str, fast2
) -> pa.Table:
    """Arrow-native scan of one pair-pass partition (many hot buckets).

    A pandas map_groups scan boxes every FixedSizeList feature row into
    its own numpy object — at 3M docs the pair pass carries ~2.6M hot
    rows x 64-element signatures, and the per-row boxing plus np.stack
    on object arrays measured as the bulk of a 50s phase. Here the
    partition arrives as an Arrow table, the feature column converts
    zero-copy to ONE (n, d) matrix (list_column_matrix), and both the
    size-2 fast path and the rare >= 3-member fallback index into that
    matrix; output goes back out as an Arrow block (pandas-format
    blocks measured ~10x slower through downstream Ray ops)."""
    idtype = t.schema.field(id_col).type
    out_schema = pa.schema(
        [("a", idtype), ("b", idtype), ("est", pa.float64())]
    )
    n = len(t)
    if n == 0:
        return out_schema.empty_table()
    bucket = t["bucket"].to_numpy(zero_copy_only=False)
    ids_raw = t[id_col].to_numpy(zero_copy_only=False)
    ftype = t.schema.field(feat_col).type
    if (
        pa.types.is_fixed_size_list(ftype)
        or pa.types.is_list(ftype)
        or pa.types.is_large_list(ftype)
    ):
        feat = list_column_matrix(
            t[feat_col], dtype=ftype.value_type.to_pandas_dtype()
        )
    else:
        feat = t[feat_col].to_numpy(zero_copy_only=False)

    # stable (bucket, id) ordering without pandas sort_values
    o1 = np.argsort(ids_raw, kind="stable")
    order = o1[np.argsort(bucket[o1], kind="stable")]
    bucket = bucket[order]
    ids_all = ids_raw[order]
    feat = feat[order]

    outs = []
    starts = np.flatnonzero(np.r_[True, bucket[1:] != bucket[:-1]])
    sizes = np.diff(np.r_[starts, n])
    if fast2 is not None:
        if len(fast2) == 3:
            est2, keep2, chain_est = fast2
        else:
            est2, keep2 = fast2
            chain_est = 1.0
        # buckets containing duplicate input ids route to the per-bucket
        # fallback (ids are id-sorted within a bucket, so dup ids are
        # neighbors)
        eqprev = np.r_[False, ids_all[1:] == ids_all[:-1]]
        eqprev[starts] = False
        dupb = np.add.reduceat(eqprev.astype(np.int64), starts) > 0
        two = sizes == 2
        i0 = starts[two]
        ok = ~dupb[two]
        if ok.any():
            sel = i0[ok]
            est = np.asarray(est2(feat[sel], feat[sel + 1]), dtype=float)
            keep = keep2(est)
            if keep.any():
                a = ids_all[sel][keep]
                bb = ids_all[sel + 1][keep]
                outs.append(pd.DataFrame({
                    "a": np.minimum(a, bb),
                    "b": np.maximum(a, bb),
                    "est": est[keep],
                }))
        VMAX = 8  # 3..VMAX-member buckets vectorize; bigger ones are
        # rare enough for the per-bucket mega-bucket-guarded fallback
        vec = np.flatnonzero((sizes >= 3) & (sizes <= VMAX) & ~dupb)
        if len(vec):
            outs.extend(_small_bucket_pairs_vec(
                feat, ids_all, starts, sizes, vec, est2, keep2, chain_est
            ))
        fallback = np.flatnonzero((sizes >= 2) & (dupb | (sizes > VMAX)))
    else:
        fallback = np.arange(len(starts))
    for si in fallback:
        s = starts[si]
        sl = slice(s, s + sizes[si])
        sub = pd.DataFrame({id_col: ids_all[sl]})
        fsl = feat[sl]
        sub[feat_col] = list(fsl) if fsl.ndim == 2 else fsl
        outs.append(bucket_pairs(sub))
    if not outs:
        return out_schema.empty_table()
    res = pd.concat(outs, ignore_index=True).drop_duplicates(
        subset=["a", "b"], ignore_index=True
    )
    return pa.table({
        "a": pa.array(res["a"].to_numpy(), type=idtype),
        "b": pa.array(res["b"].to_numpy(), type=idtype),
        "est": pa.array(res["est"].to_numpy(np.float64)),
    })


def _clusters_from_pairs(pairs: pd.DataFrame) -> pd.DataFrame:
    """Driver-side union-find over the (dup-rate-sized) candidate pair
    set. Vectorized min-label propagation: hook every edge's larger
    root onto the smaller via np.minimum.at, then pointer-jump to a
    fixpoint — each round is whole-array numpy, and rounds are
    O(log diameter) (dup clusters are near-cliques, so 2-3 rounds).
    The per-edge Python dict walk this replaces measured tens of
    seconds serial on multi-million-pair corpora — the driver tail
    that capped the measured N->4N scaling efficiency."""
    if not len(pairs):
        return pd.DataFrame({"id": [], "rep_id": [], "is_dup": []})
    a = pairs["a"].to_numpy()
    b = pairs["b"].to_numpy()
    ids = np.unique(np.concatenate([a, b]))  # any orderable id type
    ia = np.searchsorted(ids, a)
    ib = np.searchsorted(ids, b)
    parent = np.arange(len(ids), dtype=np.int64)
    while True:
        ra, rb = parent[ia], parent[ib]
        lo = np.minimum(ra, rb)
        hi = np.maximum(ra, rb)
        before = parent.copy()
        np.minimum.at(parent, hi, lo)
        while True:
            pp = parent[parent]
            if np.array_equal(pp, parent):
                break
            parent = pp
        if np.array_equal(parent, before):
            break
    reps = ids[parent]
    return pd.DataFrame({"id": ids, "rep_id": reps, "is_dup": ids != reps})


# ---------------------------------------------------------------------------
# simhash

_POP = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def _hamming(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x = (a[:, None] ^ b[None, :]).view(np.uint8).reshape(len(a), len(b), 8)
    return _POP[x].sum(axis=2)


def simhash_values(texts: list[str]) -> np.ndarray:
    """64-bit SimHash per text (word-level features). Vectorized: one
    flat hash pass, one unpackbits over all words, per-row bit-score
    sums via add.reduceat."""
    n = len(texts)
    out = np.zeros(n, dtype=_U64)
    wh, counts = _flat_words(texts)
    if len(wh) == 0:
        return out
    # (64, W) layout so the segmented row-sum runs over contiguous memory
    bits = (
        np.unpackbits(wh.view(np.uint8)).reshape(len(wh), 64).T.astype(np.int64)
    )
    ends = np.cumsum(counts)
    starts = ends - counts
    nonempty = counts > 0
    # score per (row, bit): sum of (2b-1) = 2*sum(b) - n_words
    bit_sums = np.add.reduceat(np.ascontiguousarray(bits), starts[nonempty], axis=1)
    score = 2 * bit_sums.T - counts[nonempty][:, None]
    packed = np.ascontiguousarray(
        np.packbits((score > 0).astype(np.uint8), axis=1)
    ).view(_U64).ravel()
    out[nonempty] = packed
    return out


def simhash_dedup(
    ds, *, text_col: str = "text", id_col: str = "doc_id", max_hamming: int = 3,
    return_pairs: bool = False,
) -> pd.DataFrame:
    """Near-dup clusters where SimHash Hamming distance <= max_hamming.
    Bucketing: 4 x 16-bit bands (any pair within distance 3 shares a band).
    return_pairs=True returns the raw (a, b, est) candidate-pair frame
    for the distributed connected-components path.

    Fingerprints are computed ONCE into a materialized (id, simhash)
    table — 16 bytes per doc — so the corpus text is hashed exactly
    once; both passes map over the fingerprint table (same rationale
    as minhash_lsh_dedup's signature table)."""

    def featurize(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        sh = simhash_values(texts)
        return pa.table({
            id_col: pa.array(np.asarray(ids)),
            "simhash": pa.array(sh.astype(np.int64)),
        })

    sig_ds = ds.map_batches(featurize, batch_format="pyarrow").materialize()

    def band_arrays(batch: pa.Table):
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        sh = batch["simhash"].to_numpy(zero_copy_only=False).view(_U64)
        n = len(ids)
        band_key = np.empty(4 * n, dtype=np.int64)
        for b in range(4):
            band_key[b::4] = ((sh >> _U64(16 * b)) & _U64(0xFFFF)).astype(np.int64)
        # fold (band_id, 16-bit key) into one int64 bucket key
        bucket = band_key * 4 + np.tile(np.arange(4, dtype=np.int64), n)
        return bucket, ids, sh.astype(np.int64)

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:
            return pd.DataFrame({"a": [], "b": [], "est": []})
        g = g.drop_duplicates(subset=[id_col]).sort_values(id_col, kind="stable")
        ids = g[id_col].to_numpy()
        sh = g["simhash"].to_numpy().astype(np.int64).view(_U64)
        # mega-bucket guard: identical simhash (distance 0) chains to the
        # group min id in O(k); the O(g^2) Hamming scan sees only distinct
        # values (see minhash_lsh_dedup for the correctness argument)
        return _grouped_bucket_pairs(
            ids,
            sh[:, None],
            lambda s: _hamming(s[:, 0], s[:, 0]).astype(float),
            lambda d: d <= max_hamming,
            chain_est_val=0.0,
        )

    def est2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return _hamming_elementwise(
            np.ascontiguousarray(a, dtype=np.int64).view(_U64),
            np.ascontiguousarray(b, dtype=np.int64).view(_U64),
        )

    pairs = _pairs_from_band_arrays(
        sig_ds, band_arrays, "simhash", 4, bucket_pairs, id_col,
        fast2=(est2, lambda d: d <= max_hamming, 0.0),
    )
    if return_pairs:
        return pairs
    return _clusters_from_pairs(pairs)


# ---------------------------------------------------------------------------
# embedding cosine near-dup


def embedding_dedup(
    ds,
    *,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    threshold: float = 0.95,
    n_planes: int = 12,
    seed: int = 42,
    dim: int | None = None,
) -> pd.DataFrame:
    """Near-dup clusters where cosine similarity >= threshold.
    Random-hyperplane LSH buckets + exact cosine verify per bucket.

    `dim`: embedding width. Read from the schema when the column is a
    fixed-size list; for variable list columns either pass it
    explicitly or cast at ingestion with arrowutil.cast_fixed_list —
    there is deliberately NO ds.take(1) fallback (it would partially
    execute the upstream pipeline before the bucket pass)."""
    if dim is None:
        sch = ds.schema(fetch_if_missing=False)
        base = getattr(sch, "base_schema", sch)
        if isinstance(base, pa.Schema) and emb_col in base.names:
            t = base.field(emb_col).type
            if pa.types.is_fixed_size_list(t):
                dim = t.list_size
            elif len(getattr(t, "shape", ())) == 1:
                # Ray's ArrowTensorType (from_pandas of ndarray cells)
                # carries the width in the extension type's shape
                dim = int(t.shape[0])
        elif emb_col in getattr(base, "names", ()):
            # pandas-block lineage: TensorDtype carries element_shape
            t = base.types[list(base.names).index(emb_col)]
            shape = getattr(t, "element_shape", None)
            if shape is not None and len(shape) == 1:
                dim = int(shape[0])
    if dim is None:
        raise ValueError(
            f"embedding_dedup: {emb_col!r} is a variable-width list and "
            "dim was not given; pass dim=... or cast the column to "
            "FixedSizeList at ingestion (stages/arrowutil.py:"
            "cast_fixed_list) so the width is schema metadata"
        )
    rng = np.random.default_rng(seed)
    planes = rng.normal(size=(dim, n_planes))

    def band_arrays(batch: pa.Table):
        embs = list_column_matrix(batch[emb_col])
        norm = np.linalg.norm(embs, axis=1, keepdims=True)
        embs = embs / np.maximum(norm, 1e-12)
        bits = (embs @ planes > 0).astype(np.uint64)
        key = np.zeros(len(embs), dtype=np.uint64)
        for j in range(n_planes):
            key = (key << _U64(1)) | bits[:, j]
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        return key.astype(np.int64), ids, embs

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:
            return pd.DataFrame({"a": [], "b": [], "est": []})
        g = g.sort_values(id_col, kind="stable")
        ids = g[id_col].to_numpy()
        e = np.stack(g["emb_n"].to_numpy())
        # mega-bucket guard: byte-identical vectors (clones) chain in O(k);
        # cosine of 1.0 always passes the threshold
        return _grouped_bucket_pairs(
            ids, e, lambda u: u @ u.T, lambda sim: sim >= threshold
        )

    def est2(A: np.ndarray, B: np.ndarray) -> np.ndarray:
        # aligned (m, dim) L2-normalized embedding matrices
        return (A * B).sum(axis=1)

    pairs = _pairs_from_band_arrays(
        ds, band_arrays, "emb_n", 1, bucket_pairs, id_col,
        fast2=(est2, lambda s: s >= threshold),
    )
    return _clusters_from_pairs(pairs)


def ngram_jaccard(a: str, b: str, n_words: int = 3) -> float:
    """Exact word-n-gram Jaccard (the verification oracle for MinHash)."""

    def grams(t):
        ws = t.split()
        return {tuple(ws[i : i + n_words]) for i in range(len(ws) - n_words + 1)}

    ga, gb = grams(a), grams(b)
    if not ga and not gb:
        return 1.0
    return len(ga & gb) / max(len(ga | gb), 1)


def clusters_dataset(clusters: pd.DataFrame):
    """Cluster map as a Ray Dataset (id, rep_id, is_dup) so downstream
    joins/sinks stream. The map itself is assembled on the driver from
    the union-find over candidate PAIRS (small by LSH construction); the
    heavy corpus never materializes."""
    import ray.data

    return ray.data.from_pandas(clusters.reset_index(drop=True))


def apply_dedup(ds, clusters: pd.DataFrame, *, id_col: str = "doc_id"):
    """Drop rows marked is_dup from `ds`, streaming: the dup-id set
    (only members of near-dup clusters, not the corpus) broadcasts once
    via ray.put; each batch anti-joins with a sorted-array searchsorted.
    This is the scale path for consuming minhash/simhash/embedding
    cluster maps — the full dataset flows through map_batches and is
    never collected on the driver."""
    import ray

    dup = clusters.loc[clusters["is_dup"], "id"].to_numpy()
    dup_ref = ray.put(np.sort(dup))

    def keep(batch: pa.Table) -> pa.Table:
        from .arrowutil import sorted_lookup

        d = ray.get(dup_ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        _, found = sorted_lookup(d, ids)
        return batch.filter(pa.array(~found))

    return ds.map_batches(keep, batch_format="pyarrow")


def decontaminate(
    ds,
    benchmark_texts,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    ngram_words: int = 8,
    mode: str = "flag",
):
    """Benchmark decontamination: flag (mode="flag") or drop
    (mode="drop") training documents sharing any word-n-gram with a
    benchmark/eval set — the train-test-overlap removal step of LLM
    data pipelines (GPT-3 appendix C / Llama-style 8-gram rule).

    The benchmark n-gram hash set is tiny relative to the corpus and
    broadcasts once via ray.put; each batch computes its shingle hashes
    with the vectorized MinHash machinery and probes them with a
    sorted-array lookup; per-row "any hit" is a segmented reduction.
    The corpus streams — nothing materializes."""
    import ray

    from .arrowutil import sorted_lookup

    bench_sh, _ = _shingle_hashes(list(benchmark_texts), ngram_words)
    bench_ref = ray.put(np.unique(bench_sh))  # stays uint64: casting a
    # sorted uint64 array to int64 wraps and breaks the sort order

    def mark(batch: pa.Table) -> pa.Table:
        sh, offsets = _shingle_hashes(batch[text_col].to_pylist(), ngram_words)
        bs = ray.get(bench_ref)
        _, found = sorted_lookup(bs, sh)
        n = len(batch)
        counts = np.diff(offsets)
        hit = np.zeros(n, dtype=bool)
        nonempty = counts > 0
        if found.any() and nonempty.any():
            hit[nonempty] = (
                np.add.reduceat(found.astype(np.int64), offsets[:-1][nonempty]) > 0
            )
        if mode == "drop":
            return batch.filter(pa.array(~hit))
        return batch.append_column("contaminated", pa.array(hit))

    return ds.map_batches(mark, batch_format="pyarrow")


def dup_passages(
    ds,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    shingle_words: int = 5,
    num_buckets: int | None = None,
):
    """Corpus-level duplicated-passage statistics (the suffix-array
    substring-dedup measurement of Lee et al., "Deduplicating Training
    Data Makes Language Models Better", at word-n-gram granularity): a
    shingle OCCURRENCE is duplicated iff that word-n-gram appears >= 2
    times anywhere in the corpus (within- or cross-document). Returns
    one row per document with >= 1 shingle: (id, n_shingles, dup_frac).

    Scale shape: the corpus streams once through the vectorized shingle
    kernel; only (id, shingle-hash) occurrence rows shuffle, co-grouped
    by the shingle (`grouped_map`, data-sized B) so every equal shingle
    meets in one bucket. Each group marks duplicates with one np.unique
    and pre-aggregates per document BEFORE the second (tiny) per-doc
    combine — the wide shuffle carries 16-byte rows, the narrow one
    O(docs) partials."""
    from ray.data.aggregate import Sum

    def to_occurrences(batch: pa.Table) -> pa.Table:
        sh, offsets = _shingle_hashes(batch[text_col].to_pylist(), shingle_words)
        counts = np.diff(offsets)
        ids = np.repeat(batch[id_col].to_numpy(zero_copy_only=False), counts)
        return pa.table({id_col: pa.array(ids), "sh": pa.array(sh.view(np.int64))})

    def mark_and_combine(g: pd.DataFrame) -> pa.Table:
        # emit ARROW blocks (typed even when empty): the downstream Ray
        # Sum aggregate runs ~10x slower on pandas-format blocks
        if not len(g):
            return pa.table(
                {
                    id_col: pa.array([], type=pa.int64()),
                    "n_shingles": pa.array([], type=pa.int64()),
                    "n_dup": pa.array([], type=pa.int64()),
                }
            )
        sh = g["sh"].to_numpy()
        _, inv, cnt = np.unique(sh, return_inverse=True, return_counts=True)
        dup = (cnt[inv] >= 2).astype(np.int64)
        part = pd.DataFrame({id_col: g[id_col].to_numpy(), "dup": dup})
        agg = part.groupby(id_col, sort=False).agg(
            n_shingles=("dup", "size"), n_dup=("dup", "sum")
        )
        # metadata-free schema so Ray can hash it for block-schema dedup
        agg = agg.reset_index()
        return pa.table(
            {
                id_col: pa.array(agg[id_col].to_numpy(), type=pa.int64()),
                "n_shingles": pa.array(agg["n_shingles"].to_numpy(), type=pa.int64()),
                "n_dup": pa.array(agg["n_dup"].to_numpy(), type=pa.int64()),
            }
        )

    partials = grouped_map(
        ds.map_batches(to_occurrences, batch_format="pyarrow"), "sh", mark_and_combine,
        num_buckets=num_buckets or default_buckets(ds),
    )
    per_doc = partials.groupby(id_col).aggregate(
        Sum("n_shingles", alias_name="n_shingles"), Sum("n_dup", alias_name="n_dup")
    )

    def finish(batch: pa.Table) -> pa.Table:
        n = batch["n_shingles"].to_numpy(zero_copy_only=False).astype(np.float64)
        d = batch["n_dup"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                id_col: batch[id_col],
                "n_shingles": batch["n_shingles"],
                "dup_frac": pa.array(np.round(d / np.maximum(n, 1.0), 6)),
            }
        )

    return per_doc.map_batches(finish, batch_format="pyarrow")


def phash_dedup(
    ds, *, payload_col: str = "payload", id_col: str = "item_id", max_hamming: int = 6,
    return_pairs: bool = False,
) -> pd.DataFrame:
    """IMAGE near-dup clusters via perceptual hash (DCT pHash) Hamming
    distance — the multimodal member of the SimHash family. Identical
    banding/verify machinery as simhash_dedup: 4 x 16-bit bands (a pair
    within Hamming 3 always shares a band; larger max_hamming values
    are verified when the pair happens to collide, the standard
    banded-LSH recall trade), mega-bucket guard, hot-bucket routing.
    The DCT + hashing streams through map_batches (one batched einsum
    per batch); only small (bucket, id, hash) rows shuffle.

    Hashes are computed ONCE into a materialized (id, phash) table —
    decoding an image payload is by far the most expensive step of
    this family, so the decode must never run once per pass."""
    from .multimodal import phash64_batch

    def featurize(batch: pa.Table) -> pa.Table:
        payloads = batch[payload_col].to_pylist()
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        ph = phash64_batch(payloads)
        return pa.table({
            id_col: pa.array(np.asarray(ids)),
            "phash": pa.array(ph.astype(np.int64)),
        })

    sig_ds = ds.map_batches(featurize, batch_format="pyarrow").materialize()

    def band_arrays(batch: pa.Table):
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        ph = batch["phash"].to_numpy(zero_copy_only=False).view(_U64)
        n = len(ids)
        band_key = np.empty(4 * n, dtype=np.int64)
        for b in range(4):
            band_key[b::4] = ((ph >> _U64(16 * b)) & _U64(0xFFFF)).astype(np.int64)
        bucket = band_key * 4 + np.tile(np.arange(4, dtype=np.int64), n)
        return bucket, ids, ph.astype(np.int64)

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:
            return pd.DataFrame({"a": [], "b": [], "est": []})
        g = g.drop_duplicates(subset=[id_col]).sort_values(id_col, kind="stable")
        ids = g[id_col].to_numpy()
        ph = g["phash"].to_numpy().astype(np.int64).view(_U64)
        return _grouped_bucket_pairs(
            ids,
            ph[:, None],
            lambda s: _hamming(s[:, 0], s[:, 0]).astype(float),
            lambda d: d <= max_hamming,
            chain_est_val=0.0,
        )

    def est2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return _hamming_elementwise(
            np.ascontiguousarray(a, dtype=np.int64).view(_U64),
            np.ascontiguousarray(b, dtype=np.int64).view(_U64),
        )

    pairs = _pairs_from_band_arrays(
        sig_ds, band_arrays, "phash", 4, bucket_pairs, id_col,
        fast2=(est2, lambda d: d <= max_hamming, 0.0),
    )
    if return_pairs:
        return pairs
    return _clusters_from_pairs(pairs)


def dedup_against(
    ds_new,
    ds_old,
    *,
    content_col: str = "text",
    id_col: str = "doc_id",
    num_buckets: int | None = None,
):
    """Incremental exact dedup: drop rows of ds_new whose content
    already appears in ds_old — the daily-shard-vs-historical-corpus
    shape, where the historical side is far too large to broadcast.
    Both sides co-group on the content hash through ONE
    `fused_exchange` (data-sized buckets, nothing materializes on the
    driver); within a bucket the probe is an is_in on the actual
    content, so hash collisions cannot drop a live row. Both inputs
    must carry (id_col, content_col)."""

    def probe(new: pa.Table, old: pa.Table) -> pa.Table:
        seen = pc.is_in(new[content_col], value_set=old[content_col].combine_chunks())
        return new.filter(pc.invert(seen))

    return fused_exchange(
        ds_new.select_columns([id_col, content_col]),
        ds_old.select_columns([id_col, content_col]),
        content_col, probe, num_buckets=num_buckets,
    )


def source_contamination(
    ds,
    *,
    text_col: str = "text",
    group_col: str = "source",
    shingle_words: int = 5,
    num_buckets: int | None = None,
):
    """Cross-source n-gram contamination matrix: for every source pair,
    the number of distinct word-n-grams they share and the Jaccard of
    their distinct-shingle sets — the data-mixing diagnostic for "are
    my sources secretly the same crawl". Scale shape: one streaming
    shingle pass emits per-batch-distinct (shingle-hash, source) cells
    co-grouped by shingle (`grouped_map`); each bucket resolves its
    pair counts and per-source distinct partials locally (a self-merge
    over ≤ |sources| rows per shingle), and only O(sources²) partial
    cells reach the final aggregate. Documents never shuffle."""
    from ray.data.aggregate import Sum

    def to_cells(batch: pa.Table) -> pa.Table:
        sh, offsets = _shingle_hashes(batch[text_col].to_pylist(), shingle_words)
        counts = np.diff(offsets)
        src = np.repeat(
            np.asarray(batch[group_col].to_pandas(), dtype=object), counts
        )
        df = pd.DataFrame({"sh": sh.view(np.int64), "src": src}).drop_duplicates()
        return pa.table(
            {"sh": pa.array(df["sh"].to_numpy()), "src": pa.array(df["src"], pa.string())}
        )

    def combine(g: pd.DataFrame) -> pa.Table:
        g = g.drop_duplicates(["sh", "src"])
        per = g.groupby("src", sort=False).size().reset_index(name="distinct_a")
        per.columns = ["source_a", "distinct_a"]
        per["source_b"] = ""
        per["shared"] = 0
        m = g.merge(g, on="sh")
        m = m[m["src_x"] < m["src_y"]]
        pair = m.groupby(["src_x", "src_y"], sort=False).size().reset_index(name="shared")
        pair.columns = ["source_a", "source_b", "shared"]
        pair["distinct_a"] = 0
        out = pd.concat(
            [pair, per[["source_a", "source_b", "shared", "distinct_a"]]],
            ignore_index=True,
        )
        # emit typed Arrow so empty buckets don't break schema inference
        return pa.table(
            {
                "source_a": pa.array(out["source_a"], pa.string()),
                "source_b": pa.array(out["source_b"], pa.string()),
                "shared": pa.array(out["shared"].to_numpy().astype(np.int64)),
                "distinct_a": pa.array(out["distinct_a"].to_numpy().astype(np.int64)),
            }
        )

    agg = (
        grouped_map(
            ds.map_batches(to_cells, batch_format="pyarrow"), "sh", combine,
            num_buckets=num_buckets or default_buckets(ds),
        )
        .groupby(["source_a", "source_b"])
        .aggregate(
            Sum("shared", alias_name="shared_ngrams"),
            Sum("distinct_a", alias_name="distinct_n"),
        )
    )
    # O(sources^2) rows — driver-side jaccard assembly is a constant
    pdf = agg.to_pandas()
    d = pdf.loc[pdf["source_b"] == "", ["source_a", "distinct_n"]].set_index(
        "source_a"
    )["distinct_n"]
    pairs = pdf[pdf["source_b"] != ""].copy()
    union = (
        pairs["source_a"].map(d).to_numpy()
        + pairs["source_b"].map(d).to_numpy()
        - pairs["shared_ngrams"].to_numpy()
    )
    pairs["jaccard"] = np.round(pairs["shared_ngrams"].to_numpy() / union, 6)
    pairs["shared_ngrams"] = pairs["shared_ngrams"].astype(np.int64)
    return (
        pairs[["source_a", "source_b", "shared_ngrams", "jaccard"]]
        .sort_values(["source_a", "source_b"])
        .reset_index(drop=True)
    )


def minhash_dedup_incremental(
    ds_new,
    ds_old,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 64,
    bands: int = 16,
    threshold: float = 0.7,
    seed: int = 42,
) -> pd.DataFrame:
    """Incremental MinHash+LSH near-dedup: flag docs of ds_new that are
    near-duplicates of ds_old (the daily-shard-vs-historical-index
    production shape; within-new duplicates are minhash_lsh_dedup's
    job). BOTH corpora stream into one signature table, the side flag
    riding as one more signature column, and go through the same pair
    scan as minhash_lsh_dedup: band buckets co-locate the two sides,
    the hot-bucket prefilter skips singleton buckets, and only new×old
    pairs are scored — the historical corpus never broadcasts. Returns
    one row per flagged new doc: (doc_id, matched_id, est) with the
    best (highest-estimate, then min-id) historical match. Ids must be
    globally unique across the two inputs."""

    imax = np.iinfo(np.int64).max

    def bucket_hits(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"a": [], "b": [], "est": []})
        g = g.drop_duplicates(subset=[id_col]).sort_values(id_col, kind="stable")
        feat = np.stack(g["sig"].to_numpy())
        sigs, new_mask = feat[:, :num_perm], feat[:, num_perm] == 1
        if not new_mask.any() or new_mask.all():
            return empty
        ids = g[id_col].to_numpy()
        # mega-bucket guard: collapse identical signatures first so the
        # quadratic scan runs over unique signatures only (O(k + u^2))
        uniq, inv = np.unique(sigs, axis=0, return_inverse=True)
        u = len(uniq)
        old_min = np.full(u, imax, dtype=np.int64)
        old_rows = ~new_mask
        np.minimum.at(old_min, inv[old_rows], ids[old_rows])
        has_old = old_min < imax
        if not has_old.any():
            return empty
        est = _sig_est_matrix(uniq)  # u x u, diagonal 1.0 (exact dups)
        valid = (est >= threshold) & has_old[None, :]
        est_v = np.where(valid, est, -1.0)
        best = est_v.max(axis=1)
        cand = np.where(valid & (est_v == best[:, None]), old_min[None, :], imax)
        match = cand.min(axis=1)
        rows = new_mask & (best[inv] >= threshold)
        return pd.DataFrame(
            {"a": ids[rows], "b": match[inv[rows]], "est": best[inv[rows]]}
        )

    new_sigs, old_sigs = (
        ds.map_batches(_minhash_featurize(text_col, id_col, num_perm, seed, side=side),
                       batch_format="pyarrow")
        for ds, side in ((ds_new, 1), (ds_old, 0))
    )
    sig_ds = new_sigs.union(old_sigs).materialize()
    hits = _pairs_from_band_arrays(
        sig_ds, _minhash_band_arrays(id_col, num_perm, bands), "sig", bands, bucket_hits, id_col
    )
    if not len(hits):
        return pd.DataFrame(
            {"doc_id": pd.Series([], dtype=np.int64),
             "matched_id": pd.Series([], dtype=np.int64),
             "est": pd.Series([], dtype=float)}
        )
    # the same (new, old) hit can surface from several bands: keep the
    # best (highest est, then min matched id) per new doc
    hits = hits.sort_values(["a", "est", "b"], ascending=[True, False, True])
    out = hits.groupby("a", sort=True).head(1).reset_index(drop=True)
    out.columns = ["doc_id", "matched_id", "est"]
    out["doc_id"] = out["doc_id"].astype(np.int64)
    out["matched_id"] = out["matched_id"].astype(np.int64)
    return out


def sequence_dedup(ds, *, tokens_col: str = "tokens", id_col: str = "doc_id", num_buckets: int | None = None):
    """Exact token-SEQUENCE dedup: one row (min id) per distinct token
    array, with the group size — the per-row token-array-equality
    invariant turned into a dedup operator. Each batch encodes its list
    column to flat bytes (arrowutil.list_to_binary, no per-row Python),
    co-groups rows by the bytes (`grouped_map`), and the per-bucket
    resolve groups on the ACTUAL byte sequence, so hash collisions
    cannot merge two distinct sequences."""
    from .arrowutil import list_to_binary

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({id_col: batch[id_col], "seq": list_to_binary(batch[tokens_col])})

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        # dropna=False: a null token list is its own group (distinct
        # from the empty list), matching SQL GROUP BY semantics
        agg = g.groupby("seq", sort=False, dropna=False).agg(
            **{id_col: (id_col, "min"), "group_size": (id_col, "size")}
        )
        return agg.reset_index(drop=True)

    return grouped_map(
        ds.map_batches(prep, batch_format="pyarrow"), "seq", resolve,
        num_buckets=num_buckets or default_buckets(ds),
    )


def remove_dup_spans(
    ds,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    shingle_words: int = 5,
    num_buckets: int | None = None,
):
    """Duplicated-passage REMOVAL (the substring-dedup of Lee et al.,
    "Deduplicating Training Data Makes Language Models Better", at
    word-n-gram resolution): every occurrence of a word-n-gram that
    appears >= 2 times anywhere in the corpus is cut EXCEPT the global
    first (min (doc, position)); overlapping duplicated spans merge.
    Returns (id, text, n_removed) with the surviving words rejoined by
    single spaces (output text is whitespace-normalized).

    Scale shape — two data-sized exchanges, documents never collect on
    the driver: (1) (shingle-hash, doc, pos) occurrence rows co-group
    by shingle (`grouped_map`); each bucket keeps its first occurrence
    and emits the rest as 16-byte cut rows. (2) cut rows meet their
    documents by doc id (`fused_exchange`); each bucket unions its cut
    intervals into a word mask and rebuilds the text."""
    B = num_buckets or default_buckets(ds)

    def occurrences(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        sh, offsets = _shingle_hashes(texts, shingle_words)
        counts = np.diff(offsets)
        ids = np.repeat(batch[id_col].to_numpy(zero_copy_only=False), counts)
        pos = np.arange(len(sh), dtype=np.int64) - np.repeat(offsets[:-1], counts)
        return pa.table(
            {"sh": pa.array(sh.view(np.int64)), id_col: pa.array(ids), "pos": pa.array(pos)}
        )

    def cuts_for_bucket(g: pd.DataFrame) -> pa.Table:
        sh = g["sh"].to_numpy()
        doc = g[id_col].to_numpy()
        pos = g["pos"].to_numpy()
        order = np.lexsort((pos, doc, sh))
        sh_s, doc_s, pos_s = sh[order], doc[order], pos[order]
        # every row that is NOT the first of its shingle group is a cut
        first = np.ones(len(sh_s), dtype=bool)
        first[1:] = sh_s[1:] != sh_s[:-1]
        return pa.table(
            {
                id_col: pa.array(doc_s[~first]),
                "pos": pa.array(pos_s[~first]),
            }
        )

    cuts = grouped_map(
        ds.map_batches(occurrences, batch_format="pyarrow"), "sh", cuts_for_bucket,
        num_buckets=B,
    )

    # both sides of the doc-id exchange carry (id, text, pos): documents
    # with a null pos, cut rows with a null text
    def pad_doc(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: batch[id_col],
                text_col: pa.array(
                    pd.Series(batch[text_col].to_pandas()).fillna(""), type=pa.string()
                ),
                "pos": pa.nulls(batch.num_rows, pa.int64()),
            }
        )

    def pad_cut(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: batch[id_col],
                text_col: pa.nulls(batch.num_rows, pa.string()),
                "pos": batch["pos"],
            }
        )

    def rebuild(docs: pa.Table, cut: pa.Table) -> pa.Table:
        docs, cut = docs.to_pandas(), cut.to_pandas()
        cut_by_doc = {k: v["pos"].to_numpy() for k, v in cut.groupby(id_col, sort=False)}
        out_id, out_txt, out_n = [], [], []
        k = shingle_words
        for did, txt in zip(docs[id_col], docs[text_col]):
            words = txt.split()
            p = cut_by_doc.get(did)
            if p is None or not len(words):
                out_id.append(did)
                out_txt.append(" ".join(words))
                out_n.append(0)
                continue
            mask = np.zeros(len(words), dtype=bool)
            idx = (p[:, None] + np.arange(k)).reshape(-1)
            mask[np.clip(idx, 0, len(words) - 1)] = True
            out_id.append(did)
            out_txt.append(" ".join(w for w, m in zip(words, mask) if not m))
            out_n.append(int(mask.sum()))
        return pa.table(
            {
                id_col: pa.array(out_id, type=pa.int64()),
                text_col: pa.array(out_txt, type=pa.string()),
                "n_removed": pa.array(out_n, type=pa.int64()),
            }
        )

    return fused_exchange(
        ds.map_batches(pad_doc, batch_format="pyarrow"),
        cuts.map_batches(pad_cut, batch_format="pyarrow"),
        id_col, rebuild, num_buckets=B,
    )


def ngram_novelty(
    ds,
    reference_texts,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    ngram_words: int = 5,
):
    """Per-document n-gram novelty vs a reference corpus: the fraction
    of the doc's DISTINCT word-n-grams absent from the reference — the
    memorization / redundancy score dual to `decontaminate`'s boolean
    flag (novelty 0 = fully contained in the reference, 1 = entirely
    new text). Docs with fewer than n words score 0.0 with n_grams 0.

    The reference's distinct shingle-hash set broadcasts once via
    ray.put; each batch computes distinct per-doc shingles with one
    lexsort + shifted compare (no per-row Python) and probes the sorted
    reference array. The corpus streams; output is one row per doc."""
    import ray

    from .arrowutil import sorted_lookup

    ref_sh, _ = _shingle_hashes(list(reference_texts), ngram_words)
    ref_ref = ray.put(np.unique(ref_sh))

    def score(batch: pa.Table) -> pa.Table:
        n = len(batch)
        sh, offsets = _shingle_hashes(batch[text_col].to_pylist(), ngram_words)
        counts = np.diff(offsets)
        rows = np.repeat(np.arange(n, dtype=np.int64), counts)
        if len(sh):
            order = np.lexsort((sh, rows))
            r, h = rows[order], sh[order]
            first = np.ones(len(r), dtype=bool)
            first[1:] = (r[1:] != r[:-1]) | (h[1:] != h[:-1])
            rd, hd = r[first], h[first]
            _, seen = sorted_lookup(ray.get(ref_ref), hd)
            n_distinct = np.bincount(rd, minlength=n).astype(np.int64)
            n_unseen = np.bincount(
                rd, weights=(~seen).astype(np.float64), minlength=n
            ).astype(np.int64)
        else:
            n_distinct = np.zeros(n, dtype=np.int64)
            n_unseen = np.zeros(n, dtype=np.int64)
        novelty = np.zeros(n, dtype=np.float64)
        nz = n_distinct > 0
        novelty[nz] = np.round(n_unseen[nz] / n_distinct[nz], 6)
        return pa.table(
            {
                id_col: batch[id_col],
                "n_grams": pa.array(n_distinct),
                "n_unseen": pa.array(n_unseen),
                "novelty": pa.array(novelty),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")
