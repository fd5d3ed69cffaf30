"""The entity exchange and the in-bucket scan of `stages.temporal`.

`_exchange` (behind `grouped_map` and `fused_exchange`) range-partitions
bucket-tagged rows at the known bucket boundaries; `_sort_order` is an
Arrow sort; `_asof_match` is a binary-search cursor over events sorted
by a packed (key, ts) int64. The formulations they replaced are kept
here as references: a `groupby(bucket).map_groups` exchange, a pandas
stable `sort_values`, and a stable lexsort of probe and event rows with
a running max (min) of the last event seen. Each new form must give the
reference's answer: the same calls with the same rows in the same
order, the same permutation, the same attached event row."""

import uuid
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray

from complexity_driven_feature_construction_ray.stages.arrowutil import packed_keys
from complexity_driven_feature_construction_ray.stages.bucketing import bucket_of
from complexity_driven_feature_construction_ray.stages.temporal import (
    _asof_match,
    _asof_rows,
    _sort_order,
    fused_exchange,
    grouped_map,
)

# ---------------------------------------------------------------- references


def _lexsort_asof_match(pk, pt, ek, et, *, forward, allow_exact, tol=None):
    ne, n = len(ek), len(ek) + len(pk)
    hit = np.full(len(pk), -1, dtype=np.int64)
    if ne == 0 or n == ne:
        return hit
    codes = pd.factorize(np.concatenate([ek, pk]))[0]
    ev_first = allow_exact != forward
    side = np.repeat([not ev_first, ev_first], [ne, n - ne])
    order = np.lexsort((side, np.concatenate([et, pt]), codes))
    is_ev = order < ne
    pos = np.arange(n)
    if forward:
        seen = np.minimum.accumulate(np.where(is_ev, pos, n)[::-1])[::-1]
    else:
        seen = np.maximum.accumulate(np.where(is_ev, pos, -1))
    probe, at = order[~is_ev], seen[~is_ev]
    src = order[np.clip(at, 0, n - 1)]
    ok = (at >= 0) & (at < n) & (codes[src] == codes[probe]) & (codes[probe] >= 0)
    hit[probe - ne] = np.where(ok, src, -1)
    if tol is not None:
        m = hit >= 0
        hit[m] = np.where(np.abs(pt[m] - et[hit[m]]) <= tol, hit[m], -1)
    return hit


def _lexsort_asof_rows(pk, pt, ek, et, *, direction, allow_exact, tol=None):
    back = _lexsort_asof_match(pk, pt, ek, et, forward=False, allow_exact=allow_exact, tol=tol)
    if direction == "backward":
        return back
    fwd = _lexsort_asof_match(pk, pt, ek, et, forward=True, allow_exact=allow_exact, tol=tol)
    if direction == "forward":
        return fwd
    both = (back >= 0) & (fwd >= 0)
    closer = np.zeros(len(pk), dtype=bool)
    closer[both] = (et[fwd[both]] - pt[both]) < (pt[both] - et[back[both]])
    return np.where((fwd >= 0) & ((back < 0) | closer), fwd, back)


def _pandas_sort_order(t: pa.Table, cols: list[str]) -> np.ndarray:
    df = pd.DataFrame({c: t[c].to_numpy(zero_copy_only=False) for c in cols})
    return df.sort_values(cols, kind="stable").index.to_numpy()


def _map_groups_exchange(inputs, key, fn, B, batch_format):
    """The exchange as a groupby(bucket).map_groups over the same tags."""
    cols = key if isinstance(key, (list, tuple)) else [key]
    tags = ["__gm_bucket", "__fx_side"]

    def tagger(side):
        def tag(batch: pa.Table) -> pa.Table:
            bucket = bucket_of([batch[c] for c in cols], B)
            batch = batch.replace_schema_metadata(None)
            return batch.append_column("__gm_bucket", pa.array(bucket)).append_column(
                "__fx_side", pa.array(np.full(batch.num_rows, side, np.int8)))
        return tag

    def run(g):
        if len(inputs) == 1:
            return fn(g.drop(columns=tags) if hasattr(g, "drop") else g.drop_columns(tags))
        second_rows = pc.equal(g["__fx_side"], 1)
        g = g.drop_columns(tags)
        return fn(g.filter(pc.invert(second_rows)), g.filter(second_rows))

    tagged = [ds.map_batches(tagger(i), batch_format="pyarrow") for i, ds in enumerate(inputs)]
    both = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]
    return both.groupby("__gm_bucket").map_groups(run, batch_format=batch_format)


# ---------------------------------------------------------------- the cursor

DIRECTIONS = [("backward", False), ("backward", True), ("forward", False), ("forward", True),
              ("nearest", False), ("nearest", True)]


def _cursor(pk, pt, ek, et, direction, allow_exact, tol):
    if direction == "forward":
        return _asof_match(pk, pt, ek, et, forward=True, allow_exact=allow_exact, tol=tol)
    return _asof_rows(pk, pt, ek, et, direction=direction, allow_exact=allow_exact, tol=tol)


def _random_keys(rng, n, kind):
    if kind == "float":  # a null int key reaches the cursor as NaN
        k = rng.integers(0, 5, n).astype(np.float64)
        k[rng.random(n) < 0.15] = np.nan
        return k
    k = rng.choice(np.array(["a", "bb", "c", "dd", "e"], dtype=object), n)
    k[rng.random(n) < 0.15] = None
    return k


def _random_ts(rng, ne, npr, kind):
    """(event ts, probe ts, tolerance) drawn from a few values, so equal
    ts ties within and across the two sides are common."""
    def draw(n):
        if kind == "int":
            return rng.integers(-5, 6, n), 3
        if kind == "wide":  # (key, ts) packing overflows int64: the rank path
            vals = np.array([-2**62, -2**62 + 1, -1, 0, 2**62 - 1, 2**62], dtype=np.int64)
            return rng.choice(vals, n), 1
        if kind == "float":
            t = rng.integers(-5, 6, n) / 2.0
            t[rng.random(n) < 0.15] = np.nan
            return t, 1.5
        t = (rng.integers(0, 11, n) * 10**9).astype("datetime64[ns]")
        t[rng.random(n) < 0.15] = np.datetime64("NaT")
        return t, np.timedelta64(3, "s")
    et, tol = draw(ne)
    return et, draw(npr)[0], tol


@pytest.mark.parametrize("ts_kind", ["int", "wide", "float", "datetime"])
@pytest.mark.parametrize("key_kind", ["float", "object"])
def test_cursor_equals_the_lexsort_reference(ts_kind, key_kind):
    rng = np.random.default_rng(zlib.crc32(f"{ts_kind}/{key_kind}".encode()))
    for _ in range(150):
        ne, npr = rng.integers(0, 25), rng.integers(0, 25)
        ek, pk = _random_keys(rng, ne, key_kind), _random_keys(rng, npr, key_kind)
        et, pt, tol = _random_ts(rng, ne, npr, ts_kind)
        for direction, allow_exact in DIRECTIONS:
            for t in (None, tol):
                got = _cursor(pk, pt, ek, et, direction, allow_exact, t)
                want = _lexsort_asof_rows(pk, pt, ek, et, direction=direction,
                                          allow_exact=allow_exact, tol=t)
                np.testing.assert_array_equal(got, want, err_msg=str(
                    (direction, allow_exact, t, list(ek), list(et), list(pk), list(pt))))


def test_cursor_resolves_equal_ts_events_by_arrival():
    ek, et = np.array([1, 1, 1, 1]), np.array([5, 5, 7, 7])
    pk, pt = np.array([1, 1, 1]), np.array([5, 6, 7])
    back = _asof_match(pk, pt, ek, et, forward=False, allow_exact=True)
    np.testing.assert_array_equal(back, [1, 1, 3])
    np.testing.assert_array_equal(_asof_match(pk, pt, ek, et, forward=False, allow_exact=False),
                                  [-1, 1, 1])
    np.testing.assert_array_equal(_asof_match(pk, pt, ek, et, forward=True, allow_exact=True),
                                  [0, 2, 2])
    np.testing.assert_array_equal(_asof_match(pk, pt, ek, et, forward=True, allow_exact=False),
                                  [2, 2, -1])


def test_packed_keys_order_pairs_and_give_the_group_back():
    rng = np.random.default_rng(7)
    group = rng.integers(0, 6, 400)
    for values in (rng.integers(-2**62, 2**62, 400), rng.integers(0, 9, 400).astype(np.uint64),
                   rng.normal(size=400), np.where(rng.random(400) < 0.2, np.nan, 1.0)):
        key, span = packed_keys(group, values)
        assert key.dtype == np.int64
        np.testing.assert_array_equal(key // span, group)
        np.testing.assert_array_equal(np.argsort(key, kind="stable"),
                                      np.lexsort((values, group)))


# ---------------------------------------------------------------- the sort


def _sort_table(rng, n, dictionary_key: bool) -> pa.Table:
    int_key = pa.array(rng.integers(0, 6, n), mask=rng.random(n) < 0.1)
    words = np.array(["ant", "bee", "cat", "Dog", "éclair"], dtype=object)[rng.integers(0, 5, n)]
    str_key = pa.array(words, mask=rng.random(n) < 0.1)
    if dictionary_key:  # no nulls: the reference misreads them (next test)
        str_key = pa.array(words).dictionary_encode()
    ts = pa.array((rng.integers(0, 4, n) * 10**6).astype("datetime64[us]"),
                  mask=rng.random(n) < 0.1)
    f = rng.integers(0, 3, n).astype(np.float64)
    f[rng.random(n) < 0.1] = np.nan
    flt = pa.array(f, mask=rng.random(n) < 0.1)  # NaN and null both
    return pa.table({"i": int_key, "s": str_key, "ts": ts, "f": flt,
                     "tb": rng.integers(0, 3, n)})


@pytest.mark.parametrize("cols", [["i", "ts", "tb"], ["s", "ts"], ["s", "f", "tb"],
                                  ["f", "i"], ["tb"], ["i", "s", "f", "ts", "tb"]])
@pytest.mark.parametrize("dictionary_key", [False, True])
def test_sort_order_equals_the_pandas_reference(cols, dictionary_key):
    rng = np.random.default_rng(len(cols) + 10 * dictionary_key)
    for n in (0, 1, 7, 300):
        t = _sort_table(rng, n, dictionary_key)
        # several chunks, as a bucket gathered from many blocks has
        t = pa.concat_tables([t.slice(0, n // 3), t.slice(n // 3)])
        np.testing.assert_array_equal(_sort_order(t, cols), _pandas_sort_order(t, cols))


def test_sort_order_puts_null_dictionary_keys_last():
    # ChunkedArray.to_numpy reads a null dictionary slot as a value, so
    # the pandas form sorted such rows among the others
    s = pa.chunked_array([pa.array(["b", None, "a", None, "b"]).dictionary_encode()])
    t = pa.table({"s": s, "tb": [0, 1, 2, 3, 4]})
    np.testing.assert_array_equal(_sort_order(t, ["s", "tb"]), [2, 0, 4, 1, 3])


# ---------------------------------------------------------------- the exchange

BLOCKS = 3


def _keyed_blocks(n=240, seed=0):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 40, n)
    t = pa.table({"k": keys, "row": np.arange(n)})
    return [t.slice(i * n // BLOCKS, n // BLOCKS) for i in range(BLOCKS)]


def _recorders():
    """(one-input, two-input) callbacks that return the rows they got,
    tagged with the call and their arrival position. Built in a function
    so Ray ships them by value: workers cannot import a test module."""
    def record_one(g) -> pa.Table:
        t = g if isinstance(g, pa.Table) else pa.Table.from_pandas(g, preserve_index=False)
        return t.append_column("call", pa.array([uuid.uuid4().hex] * t.num_rows)).append_column(
            "pos", pa.array(np.arange(t.num_rows)))

    def record_two(first: pa.Table, second: pa.Table) -> pa.Table:
        return record_one(pa.concat_tables([
            first.append_column("side", pa.array(np.zeros(first.num_rows, np.int8))),
            second.append_column("side", pa.array(np.ones(second.num_rows, np.int8)))]))

    return record_one, record_two


def _calls(ds) -> list[tuple]:
    """Every call as the tuple of (side, row) it received, in order."""
    df = ds.to_pandas()
    if "side" not in df:
        df["side"] = 0
    return sorted(tuple(zip(g["side"], g["row"])) for _, g in df.sort_values("pos").groupby("call"))


@pytest.mark.parametrize("num_buckets", [1, 3, 8])
@pytest.mark.parametrize("batch_format", ["pyarrow", "pandas"])
def test_grouped_map_calls_match_the_map_groups_exchange(num_buckets, batch_format):
    blocks = _keyed_blocks()
    record_one, _ = _recorders()
    got = _calls(grouped_map(ray.data.from_arrow(blocks), "k", record_one,
                             num_buckets=num_buckets, batch_format=batch_format))
    want = _calls(_map_groups_exchange([ray.data.from_arrow(blocks)], "k", record_one,
                                       num_buckets, batch_format))
    assert got == want
    # one call per non-empty bucket, holding every row of its keys
    keys = pa.concat_tables(blocks)["k"].to_numpy()
    assert len(got) == len(set(bucket_of(keys, num_buckets)))
    assert sorted(r for call in got for _, r in call) == list(range(len(keys)))
    call_of = {}
    for i, call in enumerate(got):
        for _, r in call:
            assert call_of.setdefault(keys[r], i) == i


@pytest.mark.parametrize("num_buckets", [1, 3, 8])
def test_fused_exchange_calls_match_the_map_groups_exchange(num_buckets):
    first = _keyed_blocks(seed=1)
    second = [t.set_column(1, "row", pa.array(t["row"].to_numpy() + 1000))
              for t in _keyed_blocks(n=60, seed=2)]
    _, record_two = _recorders()
    got = _calls(fused_exchange(ray.data.from_arrow(first), ray.data.from_arrow(second), "k",
                                record_two, num_buckets=num_buckets))
    want = _calls(_map_groups_exchange([ray.data.from_arrow(first), ray.data.from_arrow(second)],
                                       "k", record_two, num_buckets, "pyarrow"))
    assert got == want
    keys = np.concatenate([pa.concat_tables(s)["k"].to_numpy() for s in (first, second)])
    assert len(got) == len(set(bucket_of(keys, num_buckets)))


def test_grouped_map_never_calls_fn_on_an_empty_bucket():
    calls = grouped_map(ray.data.from_arrow(_keyed_blocks(n=6)), "k", _recorders()[0],
                        num_buckets=32, batch_format="pyarrow").to_pandas()
    assert calls["call"].nunique() == len(set(bucket_of(calls["k"].to_numpy(), 32)))
    assert calls["call"].nunique() < 32
