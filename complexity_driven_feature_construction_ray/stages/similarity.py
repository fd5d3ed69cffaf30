"""Approximate-nearest-neighbor search over an embedding column.

- `knn_bruteforce`: exact cosine top-k. The query matrix is broadcast
  (ray.put once, read in every task); each batch does one numpy matmul
  and emits only its local top-k per query (partial top-k combiner), so
  the groupby(query) shuffle moves k rows per (query, batch), never the
  embeddings.
- `knn_ivf`: the scale path — coarse k-means centroids fit on a seeded
  driver-side sample, every batch assigns its vectors to centroids and
  only batches' vectors in each query's `nprobe` nearest cells are
  scored. Same output contract; recall < 1 by design.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .arrowutil import list_column_matrix


def _normalize(m: np.ndarray) -> np.ndarray:
    return m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)


def knn_bruteforce(
    ds,
    queries: np.ndarray,
    *,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    k: int = 10,
    query_ids: np.ndarray | None = None,
) -> pd.DataFrame:
    """Exact cosine top-k: returns (query_id, rank, id, score).

    Ties on score break by ascending id (stable, SQL-reproducible)."""
    import ray

    qn = _normalize(np.asarray(queries, dtype=np.float64))
    qids = np.arange(len(qn)) if query_ids is None else np.asarray(query_ids)
    q_ref = ray.put(qn)

    def local_topk(batch: pa.Table) -> pa.Table:
        q = ray.get(q_ref)
        embs = _normalize(list_column_matrix(batch[emb_col]))
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        sims = embs @ q.T  # (n, nq)
        kk = min(k, len(ids))
        top = np.argpartition(-sims, kk - 1, axis=0)[:kk]  # (kk, nq)
        nq = sims.shape[1]
        out_q = np.repeat(qids, kk)
        out_i = ids[top.T.reshape(-1)]
        out_s = sims[top.T.reshape(-1), np.repeat(np.arange(nq), kk)]
        return pa.table(
            {
                "query_id": pa.array(out_q, type=pa.int64()),
                "id": pa.array(out_i),
                "score": pa.array(out_s, type=pa.float64()),
            }
        )

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["score", "id"], ascending=[False, True], kind="stable").head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    out = (
        ds.map_batches(local_topk, batch_format="pyarrow")
        .groupby("query_id")
        .map_groups(final_topk, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values(["query_id", "rank"]).reset_index(drop=True)


def _seeded_sample(ds, sample_size: int, emb_col: str, seed: int) -> np.ndarray:
    """Normalized sample of ~sample_size embedding rows drawn uniformly
    from the WHOLE dataset (random_sample(1.0) is a keep-all no-op, so
    a bare limit() would take the corpus prefix — biased on any
    source/time-ordered layout). One count pass sets the fraction; the
    slight over/under-draw is trimmed to sample_size."""
    n = ds.count()
    frac = min(1.0, (2.0 * sample_size) / max(n, 1))
    rows = ds.random_sample(frac, seed=seed).limit(sample_size).take_all()
    return _normalize(np.stack([r[emb_col] for r in rows]).astype(np.float64))


def _kmeans(sample: np.ndarray, n_clusters: int, iters: int = 10, seed: int = 42) -> np.ndarray:
    rng = np.random.default_rng(seed)
    centers = sample[rng.choice(len(sample), size=min(n_clusters, len(sample)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(sample @ centers.T, axis=1)  # cosine on normalized data
        for c in range(len(centers)):
            m = assign == c
            if m.any():
                centers[c] = sample[m].mean(axis=0)
        centers = _normalize(centers)
    return centers


def knn_ivf(
    ds,
    queries: np.ndarray,
    *,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    k: int = 10,
    n_clusters: int = 16,
    nprobe: int = 4,
    sample_size: int = 2000,
    seed: int = 42,
) -> pd.DataFrame:
    """IVF-style ANN: centroids from a seeded sample; per batch only the
    vectors assigned to each query's nprobe nearest cells are scored."""
    import ray

    sample = _seeded_sample(ds, sample_size, emb_col, seed)
    centers = _kmeans(sample, n_clusters, seed=seed)
    qn = _normalize(np.asarray(queries, dtype=np.float64))
    probe = np.argsort(-(qn @ centers.T), axis=1)[:, :nprobe]  # (nq, nprobe)
    q_ref = ray.put((qn, centers, probe))

    def local_topk(batch: pa.Table) -> pa.Table:
        q, cent, prb = ray.get(q_ref)
        embs = _normalize(list_column_matrix(batch[emb_col]))
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        cell = np.argmax(embs @ cent.T, axis=1)
        rows_q, rows_i, rows_s = [], [], []
        for qi in range(len(q)):
            mask = np.isin(cell, prb[qi])
            if not mask.any():
                continue
            sims = embs[mask] @ q[qi]
            sel_ids = ids[mask]
            kk = min(k, len(sel_ids))
            top = np.argpartition(-sims, kk - 1)[:kk]
            rows_q.append(np.full(kk, qi, dtype=np.int64))
            rows_i.append(sel_ids[top])
            rows_s.append(sims[top])
        if not rows_q:
            return pa.table(
                {"query_id": pa.array([], type=pa.int64()),
                 "id": pa.array([], type=pa.int64()),
                 "score": pa.array([], type=pa.float64())}
            )
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(rows_q)),
                "id": pa.array(np.concatenate(rows_i)),
                "score": pa.array(np.concatenate(rows_s), type=pa.float64()),
            }
        )

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["score", "id"], ascending=[False, True], kind="stable").head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    out = (
        ds.map_batches(local_topk, batch_format="pyarrow")
        .groupby("query_id")
        .map_groups(final_topk, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values(["query_id", "rank"]).reset_index(drop=True)


def pq_fit(
    sample: np.ndarray, *, m: int = 8, codes: int = 16, iters: int = 12, seed: int = 7
) -> np.ndarray:
    """Product-quantization codebooks: per-subspace Lloyd k-means over a
    (normalized) sample. Returns (m, codes, d/m). The fit is a
    driver-side constant — the corpus never participates."""
    X = np.asarray(sample, dtype=np.float64)
    n, d = X.shape
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    sub = d // m
    rng = np.random.default_rng(seed)
    books = np.empty((m, codes, sub), dtype=np.float64)
    for s in range(m):
        S = X[:, s * sub : (s + 1) * sub]
        C = S[rng.choice(n, size=min(codes, n), replace=False)].copy()
        for _ in range(iters):
            d2 = ((S[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
            a = d2.argmin(axis=1)
            for c in range(len(C)):
                msk = a == c
                if msk.any():
                    C[c] = S[msk].mean(axis=0)
        books[s, : len(C)] = C
        if len(C) < codes:
            books[s, len(C) :] = C[-1]
    return books


def pq_assign(ds, codebooks: np.ndarray, *, emb_col: str = "embedding", id_col: str = "vec_id"):
    """Streaming PQ encode: each vector becomes m uint8 codes (m bytes
    instead of 4·d) — the memory-bound ANN path at corpus scale. The
    codebooks broadcast once via ray.put; per batch the encode is one
    matmul per subspace (the -2x·c + ||c||² expansion, no pairwise
    temp)."""
    import ray

    b_ref = ray.put(codebooks)
    m, _codes, sub = codebooks.shape

    def enc(batch: pa.Table) -> pa.Table:
        B = ray.get(b_ref)
        if batch.num_rows == 0:
            return pa.table(
                {
                    id_col: batch[id_col],
                    "codes": pa.array([], type=pa.list_(pa.uint8(), m)),
                }
            )
        X = _normalize(list_column_matrix(batch[emb_col]).astype(np.float64))
        out = np.empty((len(X), m), dtype=np.uint8)
        for s in range(m):
            S = X[:, s * sub : (s + 1) * sub]
            d2 = -2.0 * (S @ B[s].T) + (B[s] ** 2).sum(axis=1)[None, :]
            out[:, s] = d2.argmin(axis=1).astype(np.uint8)
        return pa.table(
            {
                id_col: batch[id_col],
                "codes": pa.FixedSizeListArray.from_arrays(
                    pa.array(out.reshape(-1)), m
                ),
            }
        )

    return ds.map_batches(enc, batch_format="pyarrow")


def knn_pq(
    ds,
    queries: np.ndarray,
    *,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    k: int = 10,
    m: int = 8,
    codes: int = 16,
    sample_size: int = 2000,
    seed: int = 7,
) -> pd.DataFrame:
    """PQ + asymmetric-distance (ADC) approximate top-k: vectors are
    scanned as m-byte codes, each query carries an (m × codes) distance
    lookup table, and per-batch scoring is m table-gathers + adds — no
    float matrix ever re-enters memory. Vectors and queries are
    L2-normalized so PQ's squared L2 is monotone in cosine; the score
    column is the implied cosine (1 - d²/2), comparable to
    knn_bruteforce's. Same output contract: (query_id, rank, id,
    score); recall < 1 by design (quantization)."""
    import ray

    sample = _seeded_sample(ds, sample_size, emb_col, seed)
    books = pq_fit(sample, m=m, codes=codes, seed=seed)
    sub = books.shape[2]
    qn = _normalize(np.asarray(queries, dtype=np.float64))
    lut = np.empty((len(qn), m, codes), dtype=np.float64)
    for s in range(m):
        Qs = qn[:, s * sub : (s + 1) * sub]
        lut[:, s, :] = ((Qs[:, None, :] - books[s][None, :, :]) ** 2).sum(axis=2)

    codes_ds = pq_assign(ds, books, emb_col=emb_col, id_col=id_col)
    lut_ref = ray.put(lut)

    def local_topk(batch: pa.Table) -> pa.Table:
        L = ray.get(lut_ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        n = len(ids)
        if n == 0:
            return pa.table(
                {
                    "query_id": pa.array([], type=pa.int64()),
                    "id": pa.array([], type=pa.int64()),
                    "score": pa.array([], type=pa.float64()),
                }
            )
        C = list_column_matrix(batch["codes"]).astype(np.int64)  # (n, m)
        acc = np.zeros((L.shape[0], n), dtype=np.float64)
        for s in range(m):
            acc += L[:, s, C[:, s]]
        score = 1.0 - acc / 2.0  # implied cosine
        kk = min(k, n)
        top = np.argpartition(-score, kk - 1, axis=1)[:, :kk]  # (nq, kk)
        nq = L.shape[0]
        return pa.table(
            {
                "query_id": pa.array(np.repeat(np.arange(nq, dtype=np.int64), kk)),
                "id": pa.array(ids[top.reshape(-1)]),
                "score": pa.array(
                    np.take_along_axis(score, top, axis=1).reshape(-1)
                ),
            }
        )

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["score", "id"], ascending=[False, True], kind="stable").head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    out = (
        codes_ds.map_batches(local_topk, batch_format="pyarrow")
        .groupby("query_id")
        .map_groups(final_topk, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values(["query_id", "rank"]).reset_index(drop=True)
