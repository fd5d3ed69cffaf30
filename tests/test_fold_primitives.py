"""The two fold primitives the relational queries share:
`stages.arrowutil.bucket_fold` (grouped ufunc folds) against a pandas
groupby, and `stages.temporal.fused_exchange` (one tagged-union
exchange) on one-sided buckets, empty inputs and 1 vs 16 buckets;
`grouped_map` and `fused_exchange` on keys that share a stride with
the bucket count."""

import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray

from complexity_driven_feature_construction_ray.stages.arrowutil import bucket_fold
from complexity_driven_feature_construction_ray.stages.bucketing import bucket_of
from complexity_driven_feature_construction_ray.stages.temporal import fused_exchange, grouped_map


def _groupby(keys, values, how):
    df = pd.DataFrame({"k": keys, "v": values})
    g = df.groupby("k", sort=True)["v"]
    return g.agg(how).index.to_numpy(), g.agg(how).to_numpy(), g.size().to_numpy()


def test_int64_sum_near_2_62_is_exact():
    rng = np.random.default_rng(0)
    keys = rng.permutation(np.repeat(np.arange(4), 16))
    values = (1 << 58) + rng.integers(0, 1 << 20, 64)  # group sums just past 2**62
    ks, n, s = bucket_fold(keys, (np.add, values))
    gk, gs, gn = _groupby(keys, values, "sum")
    assert s.dtype == np.int64
    np.testing.assert_array_equal(ks, gk)
    np.testing.assert_array_equal(n, gn)
    np.testing.assert_array_equal(s, gs)
    exact = [sum(int(v) for v in values[keys == k]) for k in ks]
    assert [int(v) for v in s] == exact
    assert min(exact) > 2**62
    # the float64 route would round these sums
    assert any(int(float(e)) != e for e in exact)


def test_float_sum_is_bit_equal_to_the_add_at_loop():
    rng = np.random.default_rng(1)
    keys = rng.integers(0, 7, 500)
    values = rng.normal(size=500) * 10.0 ** rng.integers(-6, 6, 500)
    ks, _, s = bucket_fold(keys, (np.add, values))
    uniq, inv = np.unique(keys, return_inverse=True)
    loop = np.zeros(len(uniq))
    for i, v in zip(inv, values):
        loop[i] += v
    np.testing.assert_array_equal(ks, uniq)
    assert s.tobytes() == loop.tobytes()
    np.testing.assert_allclose(s, _groupby(keys, values, "sum")[1], rtol=1e-9)


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.float64])
def test_max_of_negatives_and_min_of_positives(dtype):
    rng = np.random.default_rng(2)
    keys = rng.integers(0, 5, 200)
    neg = -(rng.integers(1, 1000, 200)).astype(dtype)
    pos = rng.integers(1, 1000, 200).astype(dtype)
    ks, _, mx, mn = bucket_fold(keys, (np.maximum, neg), (np.minimum, pos))
    np.testing.assert_array_equal(mx, _groupby(keys, neg, "max")[1])
    np.testing.assert_array_equal(mn, _groupby(keys, pos, "min")[1])
    assert (mx < 0).all() and (mn > 0).all()


def test_two_dimensional_key_groups_by_column():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 6, 300)
    b = rng.integers(-3, 3, 300)
    v = rng.integers(-100, 100, 300)
    uk, n, s, mx = bucket_fold(np.stack([a, b]), (np.add, v), (np.maximum, v))
    g = pd.DataFrame({"a": a, "b": b, "v": v}).groupby(["a", "b"], sort=True)["v"]
    ref = g.agg(["size", "sum", "max"]).reset_index()
    assert uk.shape == (2, len(ref))
    np.testing.assert_array_equal(uk[0], ref["a"])
    np.testing.assert_array_equal(uk[1], ref["b"])
    np.testing.assert_array_equal(n, ref["size"])
    np.testing.assert_array_equal(s, ref["sum"])
    np.testing.assert_array_equal(mx, ref["max"])


def test_zero_rows():
    ks, n, s, mx = bucket_fold(np.array([], np.int64),
                               (np.add, np.array([], np.int64)),
                               (np.maximum, np.array([], np.float64)))
    assert len(ks) == len(n) == len(s) == len(mx) == 0
    assert n.dtype == s.dtype == np.int64 and mx.dtype == np.float64
    uk, n = bucket_fold(np.empty((2, 0), np.int64))
    assert uk.shape == (2, 0) and len(n) == 0


def _echo():
    # a closure, so Ray ships it by value (workers cannot import a
    # test module): one output row per input row, tagged with what
    # this call saw
    def echo(first: pa.Table, second: pa.Table) -> pa.Table:
        call = uuid.uuid4().hex
        seen = ",".join(first.column_names) + "|" + ",".join(second.column_names)
        n = first.num_rows + second.num_rows
        return pa.table({
            "k": np.concatenate([first["k"].to_numpy(), second["k"].to_numpy()]),
            "v": np.concatenate([first["v"].to_numpy(), second["v"].to_numpy()]),
            "side": np.repeat([0, 1], [first.num_rows, second.num_rows]),
            "call": [call] * n,
            "seen": [seen] * n,
            "second_rows": np.full(n, second.num_rows),
        })
    return echo


def _side(keys, base):
    keys = np.asarray(keys, np.int64)
    return pa.table({"k": keys, "v": base + np.arange(len(keys), dtype=np.int64)})


@pytest.mark.parametrize("num_buckets", [1, 16])
def test_fused_exchange_co_groups_both_sides(num_buckets):
    # keys 8..31 map to buckets that hold first-side rows only at 16
    first = _side(np.repeat(np.arange(32), 2), 0)
    second = _side(np.arange(8), 1000)
    out = fused_exchange(ray.data.from_arrow(first), ray.data.from_arrow(second),
                         "k", _echo(), num_buckets=num_buckets).to_pandas()
    # every input row arrives once, on its own side, without the tag
    got = out.sort_values(["side", "k", "v"])[["k", "v", "side"]]
    ref = pd.concat([first.to_pandas().assign(side=0),
                     second.to_pandas().assign(side=1)]).sort_values(["side", "k", "v"])
    np.testing.assert_array_equal(got.to_numpy(), ref.to_numpy())
    assert set(out["seen"]) == {"k,v|k,v"}
    # each key meets all its rows, from both sides, in one call
    assert (out.groupby("k")["call"].nunique() == 1).all()
    # one call per bucket that holds a key; a first-side key meets no
    # second-side row exactly when no second-side key shares its bucket
    bucket = bucket_of(np.arange(32), num_buckets)
    assert out["call"].nunique() == len(set(bucket))
    one_sided = set(out.loc[out["second_rows"] == 0, "k"])
    assert one_sided == {k for k in range(32) if bucket[k] not in bucket[:8]}
    assert (num_buckets == 1) == (not one_sided)


def test_fused_exchange_with_only_one_side_in_every_bucket():
    first = _side(np.arange(10), 0)
    out = fused_exchange(ray.data.from_arrow(first),
                         ray.data.from_arrow(first.slice(0, 0)),
                         "k", _echo(), num_buckets=4).to_pandas()
    assert sorted(out["k"]) == list(range(10))
    assert (out["side"] == 0).all() and (out["second_rows"] == 0).all()


def test_fused_exchange_with_both_sides_empty():
    empty = ray.data.from_arrow(_side([], 0))
    out = fused_exchange(empty, empty, "k", _echo(), num_buckets=16)
    assert out.take_all() == []


# keys sharing a stride with the bucket count, and one key column
# typed int32 on one side and int64 on the other
STRIDED = [
    pytest.param(4, 4, np.int64, np.int64, id="4i-at-4"),
    pytest.param(16, 16, np.int64, np.int64, id="16i-at-16"),
    pytest.param(4, 4, np.int32, np.int64, id="int32-int64-at-4"),
    pytest.param(16, 16, np.int32, np.int64, id="int32-int64-at-16"),
]


@pytest.mark.parametrize("stride, num_buckets, first_dtype, second_dtype", STRIDED)
def test_grouped_map_fills_every_bucket_with_strided_keys(stride, num_buckets, first_dtype,
                                                          second_dtype):
    keys = stride * np.arange(300)
    first = pa.table({"k": keys.astype(first_dtype), "v": np.arange(300)})
    second = pa.table({"k": keys[::-1].astype(second_dtype), "v": 1000 + np.arange(300)})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("k", as_index=False)["v"].sum()
        return out.assign(call=uuid.uuid4().hex)

    out = grouped_map(ray.data.from_arrow([first, second]), "k", per_bucket,
                      num_buckets=num_buckets).to_pandas()
    assert out["call"].nunique() == num_buckets
    ref = pd.concat([first.to_pandas(), second.to_pandas()]).groupby("k", as_index=False)["v"].sum()
    got = out.sort_values("k")[["k", "v"]].reset_index(drop=True)
    np.testing.assert_array_equal(got.to_numpy(), ref.to_numpy())


@pytest.mark.parametrize("stride, num_buckets, first_dtype, second_dtype", STRIDED)
def test_fused_exchange_fills_every_bucket_with_strided_keys(stride, num_buckets, first_dtype,
                                                             second_dtype):
    keys = stride * np.arange(300)
    first = pa.table({"k": keys.astype(first_dtype), "a": np.arange(300)})
    second = pa.table({"k": keys[::2].astype(second_dtype), "a": 1000 + np.arange(150)})

    def join(lt: pa.Table, rt: pa.Table) -> pd.DataFrame:
        out = lt.to_pandas().merge(rt.to_pandas(), on="k", suffixes=("", "_r"))
        return out.assign(call=uuid.uuid4().hex, first_rows=lt.num_rows)

    out = fused_exchange(ray.data.from_arrow(first), ray.data.from_arrow(second), "k", join,
                         num_buckets=num_buckets).to_pandas()
    assert out["call"].nunique() == num_buckets
    ref = first.to_pandas().merge(second.to_pandas(), on="k", suffixes=("", "_r"))
    got = out.sort_values("k")[["k", "a", "a_r"]].reset_index(drop=True)
    np.testing.assert_array_equal(got.to_numpy(), ref.sort_values("k").to_numpy())
    assert out.groupby("call")["first_rows"].first().sum() == 300


def test_relational_queries_do_not_inline_the_fold_or_the_header_probe():
    # the grouped fold lives in bucket_fold, the in-bucket header
    # probe in sorted_lookup and the dimension attach in
    # broadcast_join; hand-inlined copies drift (a max started at 0, a
    # probe with no hit check), and a fractional-CPU actor pool starves
    # a one-CPU cluster
    import inspect
    import re

    from complexity_driven_feature_construction_ray.pipelines import relational

    src = inspect.getsource(relational)
    assert not re.findall(r"np\.(?:add|minimum|maximum)\.at\(", src)
    assert "# FK: header" not in src
    assert "num_cpus=0.5" not in src
    assert not re.findall(r"ObjectRef\)\s*\\?\s*else", src)


def test_temporal_partition_and_relational_exchange_only_through_grouped_map():
    # the exchange behind grouped_map and fused_exchange is the one
    # place that tags rows with a bucket and groups by it, in the
    # temporal, partition, relational, dedup and text stages; the as-of
    # attach has one cursor (_asof_match)
    import inspect
    import re

    from complexity_driven_feature_construction_ray.pipelines import relational
    from complexity_driven_feature_construction_ray.stages import (
        dedup,
        embedding,
        graph,
        packing,
        partition,
        temporal,
        text,
    )

    # exchanges left out of the rule, one line why each
    out_of_scope = {
        (graph, "connected_components"): "its unions already feed grouped_map(materialize_input=True)",
        (packing, "packed_layout"): "an id-range layout: a range partition, not a hash",
        (embedding, "semdedup"): "groups by k-means cluster, not by a hash bucket",
    }
    for (mod, name), why in out_of_scope.items():
        assert hasattr(mod, name), (mod.__name__, name, why)
    # a plain concatenation of one pair scan's input, not an exchange
    plain_unions = {(dedup, "minhash_dedup_incremental")}

    for mod in (temporal, partition, relational, dedup, text):
        src = inspect.getsource(mod)
        if mod is temporal:
            exchange = inspect.getsource(temporal._exchange)
            assert src.count(exchange) == 1
            src = src.replace(exchange, "")
        assert not re.findall(r"""\.groupby\(\s*\[?\s*["']__""", src), mod.__name__
        assert not re.findall(r"merge_asof\s*\(", src), mod.__name__
        assert "_bucket_of" not in src and "_hash_mod" not in src, mod.__name__
        assert not re.findall(r"%\s*(?:np\.uint64\(|_U64\()?\s*num_buckets", src), mod.__name__
        if mod in (dedup, text):
            for name, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn.__module__ == mod.__name__ and ".union(" in inspect.getsource(fn):
                    assert (mod, name) in plain_unions, (mod.__name__, name)
    assert not hasattr(dedup, "_pairs_from_hot_buckets")
    assert not hasattr(dedup, "_partition_pairs_impl")


def test_grouped_map_callback_can_hash_the_schema_of_pandas_written_parquet(tmp_path):
    # Parquet written from pandas carries a `pandas` dict in its schema
    # metadata, and pa.Schema.__hash__ raises on it; Ray hashes block
    # schemas to dedup them, so the exchange drops the metadata of its
    # input and of a callback's pa.Table.from_pandas output
    for i in range(4):
        pd.DataFrame({"k": np.arange(i * 50, i * 50 + 50), "v": 1.0}).to_parquet(
            tmp_path / f"part{i}.parquet")
    ds = ray.data.read_parquet(str(tmp_path))
    assert ds.schema().base_schema.metadata

    def hashed(g: pa.Table) -> pa.Table:
        hash(g.schema)
        return pa.Table.from_pandas(pd.DataFrame({"n": [g.num_rows]}))

    out = grouped_map(ds, "k", hashed, num_buckets=4, batch_format="pyarrow").materialize()
    blocks = [ray.get(ref) for ref in out.to_arrow_refs()]
    assert sum(b["n"].to_numpy().sum() for b in blocks if b.num_rows) == 200
    for b in blocks:
        hash(b.schema)
