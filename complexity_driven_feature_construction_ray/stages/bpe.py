"""Distributed BPE tokenizer training over the int-token corpus.

Byte-pair encoding (Sennrich, Haddow & Birch 2016, "Neural Machine
Translation of Rare Words with Subword Units") run the way a corpus-
scale trainer has to: each merge step is one streaming pair-count pass
over the corpus (`token_stats.bigram_pair_counts` with k=1 — segmented
zero-copy pair encode, bucketed C-level count, tiny argmax) followed by
one vectorized map_batches pass that rewrites every sequence, with a
parquet checkpoint every few merges so executor lineage stays bounded
and a killed run resumes from the last published step.

Classic single-node trainers count once over a word-frequency dict and
update counts incrementally per merge; that needs a shared mutable
index, which is exactly what a streaming engine should avoid. The
recount formulation trades k extra linear passes (each parallel,
zero-copy) for zero shared state — the right trade on a cluster, and
the pass count k (merges) is a constant independent of corpus size.

The merge-apply kernel is fully vectorized: match positions on the
flat value buffer, row-boundary masking from the list offsets, and
greedy left-to-right overlap resolution for self-pairs (a == b) via
run-parity — no Python loop over rows or tokens.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .token_stats import _flat_tokens, bigram_pair_counts


def merge_pair_flat(
    flat: np.ndarray, lengths: np.ndarray, a: int, b: int, new_id: int
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy left-to-right merge of adjacent pair (a, b) -> new_id on a
    flat token buffer segmented by `lengths`. Returns (new_flat,
    new_lengths). Matches never span row boundaries. For a != b two
    matches can never be adjacent (positions i and i+1 both matching
    forces a == b), so all matches apply at once; for a == b, maximal
    runs of consecutive matches keep only even offsets — exactly the
    pairs a left-to-right scan would merge (aaaa -> XX, aaa -> Xa)."""
    n = len(flat)
    if n < 2:
        return flat, lengths
    m = np.zeros(n, dtype=bool)
    m[:-1] = (flat[:-1] == a) & (flat[1:] == b)
    ends = np.cumsum(lengths)
    # a row's last token starts no pair (empty rows index the previous
    # row's end or position -1 — both already False or masked again)
    m[ends - 1] = False
    pos = np.flatnonzero(m)
    if len(pos) == 0:
        return flat, lengths
    if a == b and len(pos) > 1:
        new_run = np.ones(len(pos), dtype=bool)
        new_run[1:] = pos[1:] != pos[:-1] + 1
        run_id = np.cumsum(new_run) - 1
        offset = pos - pos[new_run][run_id]
        pos = pos[(offset & 1) == 0]
    out = flat.copy()
    out[pos] = new_id
    keep = np.ones(n, dtype=bool)
    keep[pos + 1] = False
    row_of = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    merged_per_row = np.bincount(row_of[pos], minlength=len(lengths)).astype(np.int64)
    return out[keep], lengths - merged_per_row


def _rebuild(batch: pa.Table, tokens_col: str, flat: np.ndarray, lengths: np.ndarray):
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    lst = pa.ListArray.from_arrays(pa.array(offsets), pa.array(flat))
    return batch.set_column(
        batch.schema.get_field_index(tokens_col), tokens_col, lst
    )


def apply_merges(ds, merges, *, tokens_col: str = "tokens"):
    """Apply a learned merge table to a corpus in ONE map_batches pass:
    the kernel loops over merges in rank order (a handful of scalars)
    with the vectorized pair-merge per step; sequences never leave the
    worker between merges. `merges` is any iterable of (a, b, new_id)
    in rank order (or a DataFrame with those columns)."""
    if isinstance(merges, pd.DataFrame):
        triples = list(
            zip(
                merges["a"].astype(np.int64),
                merges["b"].astype(np.int64),
                merges["new_id"].astype(np.int64),
            )
        )
    else:
        triples = [(int(a), int(b), int(x)) for a, b, x in merges]

    def _apply(batch: pa.Table) -> pa.Table:
        lengths, flat = _flat_tokens(batch[tokens_col], tokens_col)
        flat = flat.astype(np.int64)
        for a, b, new_id in triples:
            flat, lengths = merge_pair_flat(flat, lengths, a, b, new_id)
        return _rebuild(batch, tokens_col, flat, lengths)

    return ds.map_batches(_apply, batch_format="pyarrow")


def bpe_train(
    ds,
    n_merges: int,
    *,
    tokens_col: str = "tokens",
    checkpoint_every: int = 3,
    checkpoint_dir: str | None = None,
) -> pd.DataFrame:
    """Learn `n_merges` BPE merges over the corpus. Returns the merge
    table DataFrame (rank, a, b, new_id, n) — O(n_merges) rows on the
    driver; the corpus itself streams through count + rewrite passes.
    New ids are allocated from max(token) + 1 upward so learned symbols
    can themselves merge in later steps (the (X, c) case).

    Per step: one `bigram_pair_counts(k=1)` pass (deterministic
    n-desc, (a, b)-asc tie-break) + one `apply_merges` rewrite. A
    parquet checkpoint every `checkpoint_every` steps bounds lineage;
    intermediate checkpoints are deleted as soon as superseded."""
    import shutil
    import tempfile

    import ray.data

    ckpt = checkpoint_dir or tempfile.mkdtemp(prefix="bpe_", dir="/tmp")

    def max_partial(batch: pa.Table) -> pa.Table:
        flat = _flat_tokens(batch[tokens_col], tokens_col)[1]
        m = int(flat.max()) if len(flat) else -1
        return pa.table({"m": pa.array([m], type=pa.int64())})

    next_id = int(ds.map_batches(max_partial, batch_format="pyarrow").max("m")) + 1

    merges: list[dict] = []
    cur = ds
    last_ckpt = None
    for rank in range(n_merges):
        # next_id is a strict bound on every live token id, so the
        # byte-level shape (the standard BPE start) rides the dense
        # small-alphabet count path — no pair-hash exchange per merge
        top = bigram_pair_counts(
            cur, tokens_col=tokens_col, k=1, alphabet_bound=next_id
        ).take_all()
        if not top or top[0]["n"] < 2:
            break
        a, b, n = int(top[0]["a"]), int(top[0]["b"]), int(top[0]["n"])
        merges.append({"rank": rank, "a": a, "b": b, "new_id": next_id, "n": n})
        cur = apply_merges(cur, [(a, b, next_id)], tokens_col=tokens_col)
        next_id += 1
        if (rank + 1) % checkpoint_every == 0 and rank + 1 < n_merges:
            path = f"{ckpt}/step_{rank + 1}"
            cur.write_parquet(path)
            cur = ray.data.read_parquet(path)
            if last_ckpt:
                shutil.rmtree(last_ckpt, ignore_errors=True)
            last_ckpt = path
    return pd.DataFrame(
        merges, columns=["rank", "a", "b", "new_id", "n"]
    ).astype(np.int64, errors="ignore")


def bpe_reference(rows: list[list[int]], n_merges: int) -> pd.DataFrame:
    """Pure-Python oracle: greedy recount BPE with the same tie-break
    (count desc, (a, b) asc) and left-to-right apply. For tests."""
    seqs = [list(map(int, r)) for r in rows]
    next_id = max((t for r in seqs for t in r), default=-1) + 1
    out = []
    for rank in range(n_merges):
        counts: dict[tuple[int, int], int] = {}
        for r in seqs:
            for i in range(len(r) - 1):
                counts[(r[i], r[i + 1])] = counts.get((r[i], r[i + 1]), 0) + 1
        if not counts:
            break
        best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        (a, b), n = best
        if n < 2:
            break
        out.append({"rank": rank, "a": a, "b": b, "new_id": next_id, "n": n})
        new_seqs = []
        for r in seqs:
            s, i = [], 0
            while i < len(r):
                if i + 1 < len(r) and r[i] == a and r[i + 1] == b:
                    s.append(next_id)
                    i += 2
                else:
                    s.append(r[i])
                    i += 1
            new_seqs.append(s)
        seqs = new_seqs
        next_id += 1
    return pd.DataFrame(out, columns=["rank", "a", "b", "new_id", "n"]).astype(
        np.int64, errors="ignore"
    )
