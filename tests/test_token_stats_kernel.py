"""token_stats_arrays and token_entropy_batch count each row's distinct
tokens with one sort of packed int64 (row, token) keys. The two-key
lexsort formulation they replaced is kept here as the reference: on
rows with tokens every stat and the entropy must be bit-equal to it.
Empty rows get NaN stats (never a neighbour's), wide integer ids count
exactly, and lists of non-integers, null ids and null rows are refused.
Pair counts keep negative ids apart and refuse ids outside int32."""

import glob
import os
import re
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest
import ray

from complexity_driven_feature_construction_ray.functions.expr import raw, unary
from complexity_driven_feature_construction_ray.functions.kernels import fit_on_arrays
from complexity_driven_feature_construction_ray.sources.token_table import token_table_arrow
from complexity_driven_feature_construction_ray.stages.bpe import apply_merges
from complexity_driven_feature_construction_ray.stages.token_stats import (
    TOKEN_STAT_COLS,
    bigram_pair_counts,
    skipgram_pmi,
    token_entropy_batch,
    token_stats_arrays,
)
from complexity_driven_feature_construction_ray.state import resumable_backfill


def _lexsort_stats(tokens_col) -> dict[str, np.ndarray]:
    """The lexsort formulation, valid for rows with at least one token."""
    arr = tokens_col.combine_chunks() if isinstance(tokens_col, pa.ChunkedArray) else tokens_col
    lengths = pc.list_value_length(arr).to_numpy().astype(np.int64)
    values = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(lengths)
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    row_of = np.repeat(np.arange(n, dtype=np.int64), lengths)

    sums = np.add.reduceat(values, starts)
    sumsq = np.add.reduceat(values * values, starts)
    mean = sums / lengths
    var = np.maximum(sumsq / lengths - mean * mean, 0.0)
    tmax = np.maximum.reduceat(values, starts)
    tmin = np.minimum.reduceat(values, starts)

    order = np.lexsort((values, row_of))
    sv, sr = values[order], row_of[order]
    new = np.ones(len(sv), dtype=np.int64)
    if len(sv) > 1:
        new[1:] = (sr[1:] != sr[:-1]) | (sv[1:] != sv[:-1])
    distinct = np.bincount(sr, weights=new, minlength=n)

    return {
        "tok_mean": mean,
        "tok_max": tmax,
        "tok_min": tmin,
        "tok_std": np.sqrt(var),
        "tok_distinct_ratio": distinct / lengths,
    }


def _lexsort_entropy(batch: pa.Table) -> pa.Table:
    """The lexsort formulation of token_entropy_batch."""
    arr = batch["tokens"]
    arr = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
    lengths = pc.list_value_length(arr).to_numpy().astype(np.int64)
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
    n_rows = len(lengths)
    row_of = np.repeat(np.arange(n_rows, dtype=np.int64), lengths)
    if len(flat):
        order = np.lexsort((flat, row_of))
        sv, sr = flat[order], row_of[order]
        new = np.ones(len(sv), dtype=bool)
        new[1:] = (sr[1:] != sr[:-1]) | (sv[1:] != sv[:-1])
        run_starts = np.flatnonzero(new)
        run_len = np.diff(np.append(run_starts, len(sv))).astype(np.float64)
        run_row = sr[run_starts]
        p = run_len / lengths[run_row]
        h = np.bincount(run_row, weights=-p * np.log(p), minlength=n_rows)
    else:
        h = np.zeros(n_rows)
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_tok": pa.array(lengths),
            "entropy": pa.array(np.round(h, 6)),
        }
    )


def _random_tokens(seed, n_rows, dtype, *, min_len=1, lo=-300, hi=300):
    """Rows of 0..40 ids (min_len up), with single-token rows and long
    runs of one repeated id mixed in."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_rows):
        kind = rng.integers(4)
        if kind == 0:
            rows.append([int(rng.integers(lo, hi))])
        elif kind == 1:
            rows.append([int(rng.integers(lo, hi))] * int(rng.integers(2, 200)))
        else:
            rows.append(rng.integers(lo, hi, rng.integers(min_len, 41)).tolist())
    return pa.array(rows, type=pa.list_(dtype))


def _assert_stats_equal(got, ref, rows=slice(None)):
    for name in TOKEN_STAT_COLS:
        assert np.array_equal(got[name][rows], ref[name], equal_nan=True), name


def test_bit_equal_to_lexsort_on_bench_table():
    from perfbench.inputs import token_table

    tokens = token_table(12000, 1)["tokens"]
    _assert_stats_equal(token_stats_arrays(tokens), _lexsort_stats(tokens))


@pytest.mark.parametrize("dtype", [pa.int16(), pa.int32(), pa.int64()])
@pytest.mark.parametrize("seed", [0, 1])
def test_bit_equal_to_lexsort_on_random_batches(dtype, seed):
    tokens = _random_tokens(seed, 500, dtype)
    _assert_stats_equal(token_stats_arrays(tokens), _lexsort_stats(tokens))
    chunked = pa.chunked_array([tokens.slice(0, 123), tokens.slice(123)])
    _assert_stats_equal(token_stats_arrays(chunked), _lexsort_stats(tokens))


def test_empty_rows_are_nan_and_others_unchanged():
    tokens = pa.array([[1, 2], []], type=pa.list_(pa.int32()))
    got = token_stats_arrays(tokens)
    assert got["tok_mean"][0] == 1.5 and got["tok_distinct_ratio"][0] == 1.0
    assert all(np.isnan(got[c][1]) for c in TOKEN_STAT_COLS)

    got = token_stats_arrays(pa.array([[], [3, 3]], type=pa.list_(pa.int32())))
    assert all(np.isnan(got[c][0]) for c in TOKEN_STAT_COLS)
    assert [got[c][1] for c in TOKEN_STAT_COLS] == [3.0, 3.0, 3.0, 0.0, 0.5]

    got = token_stats_arrays(pa.array([[], []], type=pa.list_(pa.int64())))
    assert all(np.isnan(got[c]).all() for c in TOKEN_STAT_COLS)
    assert all(len(v) == 0 for v in token_stats_arrays(pa.array([], pa.list_(pa.int8()))).values())

    # empty rows mixed in: the other rows match the reference on them alone
    tokens = _random_tokens(5, 400, pa.int32(), min_len=0)
    lengths = pc.list_value_length(tokens).to_numpy()
    full = np.flatnonzero(lengths)
    assert 0 < len(full) < len(tokens)
    got = token_stats_arrays(tokens)
    _assert_stats_equal(got, _lexsort_stats(tokens.take(full)), rows=full)
    assert all(np.isnan(got[c][lengths == 0]).all() for c in TOKEN_STAT_COLS)


def _distinct_ratio(rows):
    return [len(set(r)) / len(r) for r in rows]


def test_distinct_count_is_integer_exact():
    got = token_stats_arrays(pa.array([[2**53, 2**53 + 1]], type=pa.list_(pa.int64())))
    assert got["tok_distinct_ratio"].tolist() == [1.0]


@pytest.mark.parametrize(
    "dtype",
    [pa.int8(), pa.int16(), pa.int32(), pa.int64(), pa.uint8(), pa.uint16(), pa.uint32(), pa.uint64()],
)
def test_distinct_count_exact_over_the_full_range(dtype):
    info = np.iinfo(dtype.to_pandas_dtype())
    lo, hi = int(info.min), int(info.max)
    rows = [
        [lo, hi, lo, hi - 1, lo + 1],
        [hi, hi, hi],
        [lo],
        [hi - 1, hi - 2, hi - 1, hi],
        [lo + 1, lo + 2, lo + 2, lo + 1],
    ]
    got = token_stats_arrays(pa.array(rows, type=pa.list_(dtype)))
    assert got["tok_distinct_ratio"].tolist() == _distinct_ratio(rows)


def test_distinct_count_exact_near_two_to_the_62():
    big = 2**62
    # a span over 2**63: the ids are ranked before packing
    wide = [[-big, big, -big, big - 1], [big, big - 1, big, -big + 1], [-big + 1]]
    # a span of 5 far from zero: packed as offsets from the minimum
    narrow = [[big + i % 3, big + i % 5] for i in range(8)]
    for rows in (wide, narrow):
        got = token_stats_arrays(pa.array(rows, type=pa.list_(pa.int64())))
        assert got["tok_distinct_ratio"].tolist() == _distinct_ratio(rows)


@pytest.mark.parametrize(
    "typ, value",
    [
        (pa.list_(pa.float64()), [[1.0, 2.0]]),
        (pa.large_list(pa.float32()), [[1.0]]),
        (pa.list_(pa.string()), [["a"]]),
        (pa.int32(), [1]),
    ],
)
def test_non_integer_tokens_raise(typ, value):
    with pytest.raises(TypeError, match=re.escape(str(typ))):
        token_stats_arrays(pa.array(value, type=typ))


@pytest.mark.parametrize("dtype", [pa.int32(), pa.int64()])
@pytest.mark.parametrize("seed, lo, hi", [(0, -2**30, 2**30), (1, -300, 300), (2, 0, 3)])
def test_entropy_bit_equal_to_lexsort(dtype, seed, lo, hi):
    tokens = _random_tokens(seed, 300, dtype, min_len=0, lo=lo, hi=hi)
    batch = pa.table({"doc_id": pa.array(np.arange(len(tokens))), "tokens": tokens})
    assert (pc.list_value_length(tokens).to_numpy() == 0).any()
    assert token_entropy_batch(batch).equals(_lexsort_entropy(batch))
    empty = batch.slice(0, 0)
    assert token_entropy_batch(empty).equals(_lexsort_entropy(empty))


def test_backfill_over_an_empty_document(tmp_path, ray_session):
    # empty documents first in one file and last in another: the first
    # once took its neighbour's stats, the last failed the whole task
    d = tmp_path / "in"
    d.mkdir()
    for i in range(4):
        t = token_table_arrow(50, seed=3, start=50 * i)
        if i in (1, 2):
            row = 0 if i == 1 else t.num_rows - 1
            tokens = t["tokens"].to_pylist()
            tokens[row] = []
            n_tok = t["n_tok"].to_numpy().copy()
            n_tok[row] = 0
            t = t.set_column(1, "tokens", pa.array(tokens, t.schema.field("tokens").type))
            t = t.set_column(2, "n_tok", pa.array(n_tok, pa.int32()))
        pq.write_table(t, str(d / f"part-{i}.parquet"))
    files = sorted(glob.glob(str(d / "*.parquet")))
    n_tok = raw("n_tok", properties={"min": 0.0, "max": 512.0, "has_zero": True, "distinct": 512})
    feats = [n_tok, unary("minmax", n_tok)]
    cols = {"n_tok": pq.read_table(files[0])["n_tok"].to_numpy().astype(np.float64)}
    fitted = fit_on_arrays(feats, cols)

    out = str(tmp_path / "out")
    r = resumable_backfill(files, out, feats, fitted, num_shards=4)
    assert r["computed"] == [0, 1, 2, 3] and r["skipped"] == []
    got = pads.dataset(sorted(glob.glob(os.path.join(out, "shard=*", "*.parquet")))).to_table()
    assert got.num_rows == 200
    empty = got.filter(pc.equal(got["n_tok"], 0))
    assert empty.num_rows == 2
    for c in TOKEN_STAT_COLS:
        assert all(np.isnan(v) for v in empty[c].to_pylist()), c
    full = got.filter(pc.greater(got["n_tok"], 0))
    assert not any(np.isnan(full[c].to_numpy()).any() for c in TOKEN_STAT_COLS)


def test_null_token_id_is_refused():
    # a null id once read as a garbage int64: tok_distinct_ratio 1.0
    with pytest.raises(ValueError, match="'tokens' holds a null id"):
        token_stats_arrays(pa.array([[1, None, 3]], pa.list_(pa.int32())))


def test_null_token_row_is_refused():
    batch = pa.table({"doc_id": [0, 1], "toks": pa.array([[1, 2], None], pa.list_(pa.int64()))})
    with pytest.raises(ValueError, match="'toks' holds a null row"):
        token_entropy_batch(batch, tokens_col="toks")


PAIR_ROWS = [[1, -1], [2, -1], [-3, 4, -3, 4], [2**31 - 1, -2**31, 7], [2, -1]]


def _pair_table(rows):
    return pa.table({"tokens": pa.array(rows, pa.list_(pa.int64()))})


def test_pair_counts_keep_negative_and_wide_ids_apart(ray_session):
    # (a << 32) | b once let a negative b cover a: (1, -1) and (2, -1)
    # both packed to -1 and counted as one pair
    counts = Counter((a, b) for r in PAIR_ROWS for a, b in zip(r, r[1:]))
    want = sorted(((a, b, n) for (a, b), n in counts.items()), key=lambda t: (-t[2], t[0], t[1]))
    ds = ray.data.from_arrow(_pair_table(PAIR_ROWS))
    got = bigram_pair_counts(ds, k=10).to_pandas()
    assert list(zip(got["a"], got["b"], got["n"])) == want
    pmi = skipgram_pmi(ds, window=1, mod=None, k=10)
    assert sorted(zip(pmi["a"], pmi["b"], pmi["n"])) == sorted(want)


@pytest.mark.parametrize("bad", [2**31, -2**31 - 1])
def test_pair_counts_refuse_ids_outside_int32(ray_session, bad):
    ds = ray.data.from_arrow(_pair_table([[1, bad, 1]]))
    with pytest.raises(Exception, match="int32"):
        bigram_pair_counts(ds, k=5).to_pandas()
    with pytest.raises(Exception, match="int32"):
        skipgram_pmi(ds, window=1, mod=None)


def test_bpe_refuses_a_float_token_column(ray_session):
    # BPE's flatten once cast a float list to int64 without a word
    ds = ray.data.from_arrow(pa.table(
        {"tokens": pa.array([[1.0, 2.0, 1.0, 2.0]], pa.list_(pa.float64()))}))
    # Ray re-raises the task's TypeError wrapped, with its message
    with pytest.raises(Exception, match=re.escape(
            "TypeError: token column 'tokens' must be a list of integers, got list<item: double>")):
        apply_merges(ds, [(1, 2, 3)]).take_all()
