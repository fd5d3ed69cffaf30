"""Distributed stages vs the in-memory numpy oracle (allclose parity)."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from complexity_driven_feature_construction_ray.functions import (
    binary,
    evaluate,
    fit_on_arrays,
    groupbythen,
    raw,
    unary,
)
from complexity_driven_feature_construction_ray.sources import token_table_arrow
from complexity_driven_feature_construction_ray.stages.backfill import FeatureBackfill, backfill_dataset
from complexity_driven_feature_construction_ray.stages.fit import fit_distributed
from complexity_driven_feature_construction_ray.stages.stats import base_features_from_stats, column_stats
from complexity_driven_feature_construction_ray.stages.token_stats import (
    token_stats_arrays,
    token_stats_dataset,
)


@pytest.fixture(scope="module")
def table():
    return token_table_arrow(2000)


@pytest.fixture(scope="module")
def ds(table, ray_session):
    return ray.data.from_arrow(table).repartition(5)


def oracle_cols(table):
    cols = {
        "n_tok": table["n_tok"].to_numpy().astype(np.float64),
        "source": table["source"].to_numpy(zero_copy_only=False),
        "label": table["label"].to_numpy().astype(np.float64),
    }
    cols.update(token_stats_arrays(table["tokens"]))
    return cols


def test_token_stats_match_per_row_oracle(table, ds):
    out = token_stats_dataset(ds).sort("doc_id").to_pandas()
    toks = [np.asarray(t, dtype=np.float64) for t in table["tokens"].to_pylist()]
    assert np.allclose(out["tok_mean"], [t.mean() for t in toks])
    assert np.allclose(out["tok_std"], [t.std() for t in toks])
    assert np.allclose(out["tok_max"], [t.max() for t in toks])
    assert np.allclose(
        out["tok_distinct_ratio"], [len(np.unique(t)) / len(t) for t in toks]
    )


def test_column_stats(table, ds):
    stats = column_stats(ds, ["n_tok", "source"])
    n = table["n_tok"].to_numpy()
    assert stats["n_tok"]["kind"] == "numeric"
    assert stats["n_tok"]["min"] == n.min() and stats["n_tok"]["max"] == n.max()
    assert stats["n_tok"]["count"] == 2000 and stats["n_tok"]["nulls"] == 0
    assert not stats["n_tok"]["has_zero"]
    assert stats["source"]["kind"] == "categorical"
    src = table["source"].to_numpy(zero_copy_only=False)
    vals, counts = np.unique(src, return_counts=True)
    assert stats["source"]["distinct"] == dict(zip(vals.tolist(), counts.tolist()))
    feats = {f.name: f for f in base_features_from_stats(stats)}
    assert feats["n_tok"].properties["min"] == float(n.min())
    assert feats["source"].properties["values"] == sorted(vals.tolist())


def test_fit_distributed_matches_in_memory(table, ds):
    cols = oracle_cols(table)
    n_tok = raw("n_tok", properties={"min": 1.0, "max": 512.0, "has_zero": False, "distinct": 512})
    tok_mean = raw("tok_mean", properties={"min": 0.0, "max": 50257.0, "distinct": None})
    src = raw("source", "categorical", {"distinct": 5})
    feats = [
        unary("minmax", n_tok),
        unary("zscore", tok_mean),
        unary("discretize", tok_mean),
        groupbythen("mean", tok_mean, src),
        groupbythen("std", n_tok, src),
        groupbythen("count", n_tok, src),
        unary("minmax", groupbythen("mean", n_tok, src)),  # stateful depth 2
        binary("add", unary("log", n_tok), tok_mean),
    ]
    ref = fit_on_arrays(feats, cols)
    dist = fit_distributed(feats, ds)
    assert set(ref) == set(dist)
    for k in ref:
        for a, b in zip(ref[k], dist[k]):
            if isinstance(a, np.ndarray) and a.dtype.kind in "OUS":
                assert np.array_equal(a, b), k
            else:
                assert np.allclose(np.asarray(a, dtype=float), np.asarray(b, dtype=float)), k


def test_backfill_allclose_and_token_equality(table, ds):
    cols = oracle_cols(table)
    n_tok = raw("n_tok", properties={"min": 1.0, "max": 512.0, "has_zero": False, "distinct": 512})
    src = raw("source", "categorical", {"distinct": 5})
    feats = [
        unary("log", n_tok),
        unary("minmax", n_tok),
        groupbythen("mean", n_tok, src),
        binary("div", groupbythen("mean", n_tok, src), n_tok),
    ]
    fitted = fit_distributed(feats, ds)
    out = backfill_dataset(ds, feats, fitted, concurrency=2).sort("doc_id").to_pandas()
    for f in feats:
        expect = evaluate(f, cols, fitted)
        assert np.allclose(np.asarray(out[f.name]), expect, equal_nan=True), f.name
    # per-row token-array equality vs the source table (BASELINE.md gate)
    for i in (0, 777, 1999):
        assert np.array_equal(
            np.asarray(out["tokens"][i]), np.asarray(table["tokens"][i].as_py())
        )


def test_backfill_callable_smoke(table):
    # actor __init__ exceptions surface late in Ray — smoke the class directly
    n_tok = raw("n_tok", properties={"min": 1.0, "max": 512.0, "has_zero": False})
    f = unary("log", n_tok)
    bf = FeatureBackfill([f], {})
    out = bf(table.slice(0, 50))
    assert "log(n_tok)" in out.column_names
    assert np.allclose(
        out["log(n_tok)"].to_numpy(),
        np.log(table["n_tok"].to_numpy()[:50].astype(float)),
    )


def test_range_partition_sort_global_order(ray_session):
    from complexity_driven_feature_construction_ray.stages.partition import (
        range_partition_sort,
    )
    from complexity_driven_feature_construction_ray.sources.token_table import (
        token_table_dataset,
    )

    ds = token_table_dataset(3000, override_num_blocks=8)
    out = range_partition_sort(ds, ["doc_id", "ingest_ts"], num_partitions=8)
    # sorted across block boundaries, not just within blocks
    prev_last = None
    import pyarrow.compute as pc

    for b in out.iter_batches(batch_format="pyarrow", batch_size=None):
        ids = b["doc_id"].to_pylist()
        assert ids == sorted(ids)
        if prev_last is not None and ids:
            assert prev_last <= ids[0]
        if ids:
            prev_last = ids[-1]


def test_salted_aggregate_matches_plain_groupby(ray_session):
    import pandas as pd
    import ray.data
    from complexity_driven_feature_construction_ray.stages.partition import (
        salted_aggregate,
    )

    rng = np.random.default_rng(12)
    # Zipf-style skew: one key holds ~80% of rows
    keys = rng.choice(["hot", "a", "b", "c"], p=[0.8, 0.1, 0.05, 0.05], size=20000)
    vals = rng.random(20000)
    df = pd.DataFrame({"k": keys, "v": vals})
    ds = ray.data.from_pandas(df).repartition(8)
    for agg, expect in (
        ("sum", df.groupby("k")["v"].sum()),
        ("mean", df.groupby("k")["v"].mean()),
        ("count", df.groupby("k")["v"].count().astype(float)),
        ("max", df.groupby("k")["v"].max()),
    ):
        out = (
            salted_aggregate(ds, key="k", col="v", agg=agg, salt=8, out_col="r")
            .to_pandas()
            .set_index("k")["r"]
            .sort_index()
        )
        assert np.allclose(out.to_numpy(dtype=float), expect.sort_index().to_numpy(dtype=float)), agg


def test_distinct_exact_and_hll(ray_session):
    import pandas as pd
    import ray.data
    from complexity_driven_feature_construction_ray.stages.sketch import (
        distinct_exact,
        distinct_hll,
    )

    rng = np.random.default_rng(21)
    df = pd.DataFrame(
        {
            "g": rng.choice(["a", "b"], 50000),
            "v": rng.integers(0, 8000, 50000),
        }
    )
    ds = ray.data.from_pandas(df).repartition(8)
    exact = distinct_exact(ds, key_cols=["g"], value_col="v", out_col="n")
    truth = df.groupby("g")["v"].nunique().sort_index()
    assert exact.set_index("g")["n"].sort_index().equals(truth)

    approx = distinct_hll(ds, key_cols=["g"], value_col="v", p=12, out_col="n")
    for g in ("a", "b"):
        est = float(approx.set_index("g")["n"][g])
        true = float(truth[g])
        assert abs(est - true) / true < 0.05, (g, est, true)


class TestShuffleHashJoin:
    """Large x large bucketed equi-join vs a pandas merge oracle."""

    def _sides(self, n_left=5000, n_right=800, seed=7):
        rng = np.random.default_rng(seed)
        left = pa.table(
            {
                "k": rng.integers(0, 1000, n_left).astype(np.int64),
                "lv": rng.standard_normal(n_left),
            }
        )
        right = pa.table(
            {
                "rk": np.arange(n_right, dtype=np.int64),
                "rv": rng.standard_normal(n_right),
                # name-collision column: must get the _r suffix
                "lv": rng.standard_normal(n_right),
            }
        )
        return left, right

    def test_inner_matches_pandas_merge(self, ray_session):
        from complexity_driven_feature_construction_ray.stages.partition import (
            shuffle_hash_join,
        )

        left, right = self._sides()
        out = shuffle_hash_join(
            ray.data.from_arrow(left).repartition(8),
            ray.data.from_arrow(right).repartition(4),
            left_on="k",
            right_on="rk",
        ).to_pandas()
        exp = (
            left.to_pandas()
            .merge(right.to_pandas(), left_on="k", right_on="rk", suffixes=("", "_r"))
            .drop(columns=["rk"])
        )
        assert sorted(out.columns) == sorted(exp.columns)
        key = ["k", "lv", "rv", "lv_r"]
        got = out.sort_values(key).reset_index(drop=True)
        want = exp[out.columns].sort_values(key).reset_index(drop=True)
        assert len(got) == len(want)
        for c in out.columns:
            assert np.allclose(got[c], want[c])

    def test_left_outer_keeps_unmatched(self, ray_session):
        from complexity_driven_feature_construction_ray.stages.partition import (
            shuffle_hash_join,
        )

        left, right = self._sides(n_left=2000, n_right=100)
        out = shuffle_hash_join(
            ray.data.from_arrow(left).repartition(8),
            ray.data.from_arrow(right).repartition(4),
            left_on="k",
            right_on="rk",
            join_type="left outer",
        ).to_pandas()
        exp = left.to_pandas().merge(
            right.to_pandas(), left_on="k", right_on="rk", how="left", suffixes=("", "_r")
        )
        assert len(out) == len(exp)
        assert out["rv"].isna().sum() == exp["rv"].isna().sum()
        # matched subset agrees
        got_m = out.dropna(subset=["rv"]).sort_values(["k", "lv"]).reset_index(drop=True)
        exp_m = (
            exp.dropna(subset=["rv"])[out.columns]
            .sort_values(["k", "lv"])
            .reset_index(drop=True)
        )
        assert np.allclose(got_m["rv"], exp_m["rv"])


class TestWinsorize:
    def test_exact_bounds_and_clip(self, ray_session):
        from complexity_driven_feature_construction_ray.functions.expr import winsorize
        from complexity_driven_feature_construction_ray.functions.kernels import (
            evaluate,
            fit_on_arrays,
        )

        rng = np.random.default_rng(2)
        x = rng.normal(100.0, 25.0, 5000)
        x[::97] = np.nan
        f = winsorize(
            raw("x", properties={"min": 0.0, "max": 200.0}), 0.1, 0.9
        )
        fitted = fit_on_arrays([f], {"x": x})
        lo, hi = fitted[f.name]
        sv = np.sort(x[~np.isnan(x)])
        n = len(sv)
        # percentile_disc: value at 1-based rank ceil(q*n)
        assert lo == sv[int(np.ceil(0.1 * n)) - 1]
        assert hi == sv[int(np.ceil(0.9 * n)) - 1]
        out = evaluate(f, {"x": x}, fitted)
        assert np.nanmin(out) == lo and np.nanmax(out) == hi
        assert np.isnan(out[np.isnan(x)]).all()  # NaN propagates

    def test_distributed_fit_matches_in_memory(self, ray_session):
        import ray.data

        from complexity_driven_feature_construction_ray.functions.expr import winsorize
        from complexity_driven_feature_construction_ray.functions.kernels import (
            fit_on_arrays,
        )
        from complexity_driven_feature_construction_ray.stages.fit import fit_distributed

        rng = np.random.default_rng(4)
        x = rng.integers(0, 500, 20000).astype(np.float64)  # discrete: sketch exact
        f = winsorize(raw("x", properties={"min": 0.0, "max": 500.0}), 0.05, 0.95)
        ref = fit_on_arrays([f], {"x": x})
        ds = ray.data.from_arrow(pa.table({"x": pa.array(x)})).repartition(8)
        dist = fit_distributed([f], ds, input_cols=["x"])
        assert ref[f.name] == dist[f.name]


def test_q_approx_distinct_within_tolerance(ray_session):
    import duckdb

    from complexity_driven_feature_construction_ray.pipelines.relational import (
        q_approx_distinct,
    )

    sf = "/root/testdata/sf0.001"
    got = q_approx_distinct(sf).set_index("l_returnflag")["n_approx"]
    exp = (
        duckdb.connect()
        .execute(
            f"SELECT l_returnflag, count(DISTINCT l_partkey) n "
            f"FROM read_parquet('{sf}/lineitem.parquet') GROUP BY 1"
        )
        .df()
        .set_index("l_returnflag")["n"]
    )
    assert set(got.index) == set(exp.index)
    for k in exp.index:
        rel = abs(got[k] - exp[k]) / exp[k]
        assert rel < 0.05, (k, got[k], exp[k])


class TestBloomFilter:
    def test_no_false_negatives_and_low_fp(self):
        from complexity_driven_feature_construction_ray.stages.bloom import BloomFilter

        rng = np.random.default_rng(7)
        members = rng.choice(10_000_000, size=5000, replace=False)
        bf = BloomFilter.build(members, bits_per_key=10)
        assert bf.contains(members).all()  # Bloom guarantee: zero false negatives
        probe = rng.integers(10_000_000, 20_000_000, size=20000)
        fp = bf.contains(probe).mean()
        assert fp < 0.03, fp  # ~1% expected at 10 bits/key, k=7

    def test_empty_keys(self):
        from complexity_driven_feature_construction_ray.stages.bloom import BloomFilter

        bf = BloomFilter.build(np.array([], dtype=np.int64))
        assert not bf.contains(np.array([1, 2, 3])).any()


class TestRankAndExpandingWindows:
    def _events(self, n=400, users=7, seed=3):
        rng = np.random.default_rng(seed)
        return pa.table({
            "eid": pa.array(np.arange(n)),
            "u": pa.array(rng.integers(0, users, n)),
            "ts": pa.array(rng.integers(0, 10_000, n)),
            "v": pa.array(rng.normal(size=n)),
        })

    def test_window_rank_matches_duckdb(self, ray_session):
        import duckdb

        from complexity_driven_feature_construction_ray.stages.temporal import window_rank

        t = self._events()
        ds = ray.data.from_arrow(t).repartition(6)
        got = (
            window_rank(ds, key="u", ts="ts", ntile=3, tiebreak=["eid"])
            .to_pandas()[["eid", "ntile", "percent_rank", "cume_dist"]]
            .sort_values("eid").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("e", t.to_pandas())
        exp = con.execute("""
            SELECT eid, ntile(3) OVER w AS ntile,
                   percent_rank() OVER w AS percent_rank,
                   cume_dist() OVER w AS cume_dist
            FROM e WINDOW w AS (PARTITION BY u ORDER BY ts, eid) ORDER BY eid
        """).df()
        assert (got["ntile"].to_numpy() == exp["ntile"].to_numpy()).all()
        np.testing.assert_allclose(got["percent_rank"], exp["percent_rank"])
        np.testing.assert_allclose(got["cume_dist"], exp["cume_dist"])

    def test_window_rank_tiny_groups(self, ray_session):
        # groups smaller than the tile count: each row is its own tile
        from complexity_driven_feature_construction_ray.stages.temporal import window_rank

        t = pa.table({"eid": pa.array([0, 1, 2]), "u": pa.array([1, 1, 2]),
                      "ts": pa.array([5, 1, 9])})
        got = (
            window_rank(ray.data.from_arrow(t), key="u", ts="ts", ntile=4,
                        tiebreak=["eid"])
            .to_pandas().sort_values("eid").reset_index(drop=True)
        )
        assert got.loc[got.eid == 1, "ntile"].item() == 1  # earliest ts of u=1
        assert got.loc[got.eid == 0, "ntile"].item() == 2
        assert got.loc[got.eid == 2, "percent_rank"].item() == 0.0  # singleton

    def test_expanding_matches_pandas_cumsum(self, ray_session):
        from complexity_driven_feature_construction_ray.stages.temporal import rolling_agg

        t = self._events(seed=11)
        ds = ray.data.from_arrow(t).repartition(6)
        got = (
            rolling_agg(ds, key="u", ts="ts", col="v", window=0, expanding=True,
                        agg="sum", out_col="cs", tiebreak=["eid"])
            .to_pandas().sort_values("eid").reset_index(drop=True)
        )
        df = t.to_pandas().sort_values(["u", "ts", "eid"])
        df["cs"] = df.groupby("u")["v"].cumsum()
        exp = df.sort_values("eid").reset_index(drop=True)
        np.testing.assert_allclose(got["cs"], exp["cs"], rtol=1e-9)


class TestReshape:
    def test_pivot_mean_merges_partials(self, ray_session):
        from complexity_driven_feature_construction_ray.stages.reshape import pivot_wide

        rng = np.random.default_rng(5)
        t = pa.table({
            "g": pa.array(rng.choice(["a", "b", "c"], 500).astype(object)),
            "p": pa.array(rng.choice(["x", "y"], 500).astype(object)),
            "v": pa.array(rng.normal(size=500)),
        })
        # many blocks => mean MUST merge as sum/count, not mean-of-means
        ds = ray.data.from_arrow(t).repartition(9)
        got = pivot_wide(ds, index_col="g", pivot_col="p", value_col="v", agg="mean")
        exp = (
            t.to_pandas().pivot_table(index="g", columns="p", values="v", aggfunc="mean")
        )
        for gkey in ["a", "b", "c"]:
            for pkey in ["x", "y"]:
                np.testing.assert_allclose(
                    got.loc[got.g == gkey, f"v_{pkey}"].item(), exp.loc[gkey, pkey]
                )

    def test_unpivot_shape(self, ray_session):
        from complexity_driven_feature_construction_ray.stages.reshape import unpivot

        t = pa.table({"id": pa.array([1, 2]), "a": pa.array([1.0, 2.0]),
                      "b": pa.array([3.0, 4.0])})
        out = unpivot(ray.data.from_arrow(t), id_cols=["id"], value_cols=["a", "b"]).to_pandas()
        assert len(out) == 4
        assert set(out["variable"]) == {"a", "b"}
        assert out.loc[(out["id"] == 2) & (out.variable == "b"), "value"].item() == 4.0


class TestRobustRanknormTargetEncode:
    def test_robust_distributed_matches_in_memory(self, ray_session):
        from complexity_driven_feature_construction_ray.functions.expr import robust_scale
        from complexity_driven_feature_construction_ray.functions.kernels import (
            evaluate,
            fit_on_arrays,
        )
        from complexity_driven_feature_construction_ray.stages.fit import fit_distributed

        rng = np.random.default_rng(9)
        x = rng.integers(0, 300, 15000).astype(np.float64)
        f = robust_scale(raw("x", properties={"min": 0.0, "max": 300.0}))
        ref = fit_on_arrays([f], {"x": x})
        ds = ray.data.from_arrow(pa.table({"x": pa.array(x)})).repartition(7)
        dist = fit_distributed([f], ds, input_cols=["x"])
        assert ref[f.name] == dist[f.name]
        med, q25, q75 = ref[f.name]
        out = evaluate(f, {"x": x}, ref)
        np.testing.assert_allclose(out, (x - med) / (q75 - q25))

    def test_robust_constant_column_is_zero(self):
        from complexity_driven_feature_construction_ray.functions.expr import robust_scale
        from complexity_driven_feature_construction_ray.functions.kernels import (
            evaluate,
            fit_on_arrays,
        )

        x = np.full(100, 7.0)
        f = robust_scale(raw("x", properties={"min": 7.0, "max": 7.0}))
        fitted = fit_on_arrays([f], {"x": x})
        assert (evaluate(f, {"x": x}, fitted) == 0.0).all()  # IQR 0 -> zeros

    def test_ranknorm_is_cume_dist(self, ray_session):
        from complexity_driven_feature_construction_ray.functions.expr import rank_normalize
        from complexity_driven_feature_construction_ray.functions.kernels import (
            evaluate,
            fit_on_arrays,
        )
        from complexity_driven_feature_construction_ray.stages.fit import fit_distributed

        rng = np.random.default_rng(3)
        x = rng.integers(0, 40, 5000).astype(np.float64)
        x[::53] = np.nan
        f = rank_normalize(raw("x", properties={"min": 0.0, "max": 40.0}))
        ref = fit_on_arrays([f], {"x": x})
        out = evaluate(f, {"x": x}, ref)
        ok = ~np.isnan(x)
        n = ok.sum()
        # cume_dist: P(train value <= x)
        exp = np.array([np.sum(x[ok] <= v) / n for v in x[ok]])
        np.testing.assert_allclose(out[ok], exp)
        assert np.isnan(out[~ok]).all()
        ds = ray.data.from_arrow(pa.table({"x": pa.array(x)})).repartition(6)
        dist = fit_distributed([f], ds, input_cols=["x"])
        out2 = evaluate(f, {"x": x}, dist)
        np.testing.assert_allclose(out2[ok], exp)

    def test_target_encode_shrinks_to_global_mean(self, ray_session):
        from complexity_driven_feature_construction_ray.functions.expr import target_encode
        from complexity_driven_feature_construction_ray.functions.kernels import (
            evaluate,
            fit_on_arrays,
        )
        from complexity_driven_feature_construction_ray.stages.fit import fit_distributed

        rng = np.random.default_rng(1)
        k = rng.choice(np.array(["a", "b", "rare"], dtype=object), 2000, p=[0.5, 0.49, 0.01])
        v = np.where(k == "a", 10.0, np.where(k == "b", 20.0, 1000.0))
        f = target_encode(
            raw("v", properties={"min": 0.0, "max": 1000.0}),
            raw("k", "categorical", {"distinct": 3}),
            m=50.0,
        )
        ref = fit_on_arrays([f], {"v": v, "k": k})
        keys, vals, gm = ref[f.name]
        np.testing.assert_allclose(gm, v.mean())
        enc = dict(zip(keys, vals))
        # heavy shrinkage pulls the rare key's 1000.0 most of the way to gm
        assert abs(enc["rare"] - gm) < abs(1000.0 - gm) / 2
        assert abs(enc["a"] - 10.0) < 2.0  # frequent keys barely move
        # unseen key at apply -> global mean
        out = evaluate(f, {"v": np.zeros(2), "k": np.array(["zz", "a"], dtype=object)}, ref)
        np.testing.assert_allclose(out[0], gm)
        # distributed fit parity
        ds = ray.data.from_arrow(
            pa.table({"v": pa.array(v), "k": pa.array(k.astype(str))})
        ).repartition(5)
        dist = fit_distributed([f], ds, input_cols=["v", "k"])
        dkeys, dvals, dgm = dist[f.name]
        assert list(dkeys) == list(keys)
        np.testing.assert_allclose(dvals, vals)
        np.testing.assert_allclose(dgm, gm)


def test_cms_overcount_envelope(ray_session):
    """CMS estimates: never under the true count, over by <= eps*N."""
    import duckdb

    from complexity_driven_feature_construction_ray.pipelines.relational import (
        d_cms_counts,
    )

    sf = "/root/testdata/sf0.001"
    got = d_cms_counts(sf).set_index("token")["approx_n"]
    exact = (
        duckdb.connect()
        .execute(
            f"""SELECT tok, count(*) n FROM (
                 SELECT unnest(regexp_extract_all(text, '\\S+')) tok
                 FROM read_parquet('{sf}/documents.parquet'))
               GROUP BY tok"""
        )
        .df()
        .set_index("tok")["n"]
    )
    total = int(exact.sum())
    eps_bound = np.e / (1 << 14) * total
    for tok, est in got.items():
        true_n = int(exact[tok])
        assert est >= true_n, (tok, est, true_n)  # CMS never undercounts
        assert est <= true_n + max(eps_bound, 1), (tok, est, true_n)


class TestQcut:
    def test_qcut_matches_quantile_edges_and_distributed(self, ray_session):
        from complexity_driven_feature_construction_ray.functions.expr import (
            quantile_discretize,
        )
        from complexity_driven_feature_construction_ray.functions.kernels import (
            evaluate,
            fit_on_arrays,
        )
        from complexity_driven_feature_construction_ray.stages.fit import fit_distributed

        rng = np.random.default_rng(13)
        x = rng.lognormal(3, 1, 8000).round(2)  # skewed, discrete-ish
        x[::71] = np.nan
        f = quantile_discretize(raw("x", properties={"min": 0.0, "max": 1e6}), bins=4)
        ref = fit_on_arrays([f], {"x": x})
        (edges,) = ref[f.name]
        sv = np.sort(x[~np.isnan(x)])
        n = len(sv)
        # percentile_disc edges at ranks ceil(k/4 * n)
        for k, e in enumerate(edges, start=1):
            assert e == sv[int(np.ceil(k / 4 * n)) - 1]
        out = evaluate(f, {"x": x}, ref)
        ok = ~np.isnan(x)
        # equal-frequency: each bin holds ~n/4 values
        counts = np.bincount(out[ok].astype(int), minlength=4)
        assert counts.min() > 0.8 * n / 4 and counts.max() < 1.2 * n / 4
        assert (out[~ok] == -1.0).all()
        ds = ray.data.from_arrow(pa.table({"x": pa.array(x)})).repartition(6)
        dist = fit_distributed([f], ds, input_cols=["x"])
        np.testing.assert_array_equal(dist[f.name][0], edges)


class TestConnectedComponents:
    @staticmethod
    def _brute(edges, nodes):
        parent = {n: n for n in nodes}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        # min id of each component
        comp = {}
        for n in nodes:
            r = find(n)
            comp.setdefault(r, []).append(n)
        out = {}
        for members in comp.values():
            m = min(members)
            for n in members:
                out[n] = m
        return out

    def test_random_graph_matches_union_find(self, ray_session):
        import ray.data

        from complexity_driven_feature_construction_ray.stages.graph import (
            connected_components,
        )

        rng = np.random.default_rng(21)
        n_nodes = 300
        nodes = list(range(n_nodes))
        edges = [tuple(sorted(e)) for e in rng.integers(0, n_nodes, (250, 2)) if e[0] != e[1]]
        exp = self._brute(edges, nodes)
        eds = ray.data.from_arrow(pa.table({
            "src": pa.array([a for a, _ in edges], type=pa.int64()),
            "dst": pa.array([b for _, b in edges], type=pa.int64()),
        })).repartition(4)
        nds = ray.data.from_arrow(pa.table({"id": pa.array(nodes, type=pa.int64())}))
        got = connected_components(eds, nds, small_edge_budget=0).to_pandas()
        got_map = dict(zip(got["id"], got["component"]))
        assert got_map == exp

    def test_long_chain_converges(self, ray_session):
        # a path graph stresses convergence depth; pointer jumping
        # makes it ~log2(n) passes
        import ray.data

        from complexity_driven_feature_construction_ray.stages.graph import (
            connected_components,
        )

        n = 12
        eds = ray.data.from_arrow(pa.table({
            "src": pa.array(list(range(n - 1)), type=pa.int64()),
            "dst": pa.array(list(range(1, n)), type=pa.int64()),
        }))
        got = connected_components(eds, small_edge_budget=0).to_pandas()
        assert (got["component"] == 0).all()
        assert len(got) == n


def test_d_components_matches_union_find_clusters(ray_session):
    """The distributed label-propagation component map must equal the
    driver-side union-find cluster map on the same LSH pair graph."""
    from complexity_driven_feature_construction_ray.pipelines.relational import (
        _perturbed_docs,
        d_components,
    )
    from complexity_driven_feature_construction_ray.stages.dedup import (
        minhash_lsh_dedup,
    )

    sf = "/root/testdata/sf0.001"
    comp = d_components(sf).set_index("id")["component"]
    clusters = minhash_lsh_dedup(_perturbed_docs(sf), threshold=0.5)
    uf = dict(zip(clusters["id"], clusters["rep_id"]))
    for doc_id, c in comp.items():
        assert c == uf.get(doc_id, doc_id), (doc_id, c)


def test_ewma_matches_recursion(ray_session):
    from complexity_driven_feature_construction_ray.stages.temporal import ewma

    rng = np.random.default_rng(17)
    n, users, a = 500, 6, 0.25
    t = pa.table({
        "eid": pa.array(np.arange(n)),
        "u": pa.array(rng.integers(0, users, n)),
        "ts": pa.array(rng.integers(0, 10_000, n)),
        "v": pa.array(rng.normal(size=n)),
    })
    ds = ray.data.from_arrow(t).repartition(5)
    got = (
        ewma(ds, key="u", ts="ts", col="v", alpha=a, out_col="e", tiebreak=["eid"])
        .to_pandas().sort_values("eid").reset_index(drop=True)
    )
    df = t.to_pandas().sort_values(["u", "ts", "eid"])
    # independent recursion, plain Python loop per user
    exp = {}
    for u, g in df.groupby("u"):
        y = None
        for eid, x in zip(g["eid"], g["v"]):
            y = x if y is None else a * x + (1 - a) * y
            exp[eid] = y
    for eid, e in zip(got["eid"], got["e"]):
        np.testing.assert_allclose(e, exp[eid], rtol=1e-12)


def test_skew_join_hot_and_cold_paths(ray_session):
    """A deliberately hot key (80% of left rows) plus a cold tail:
    the skew join must produce exactly the plain-join rows."""
    import duckdb

    from complexity_driven_feature_construction_ray.stages.partition import skew_join

    rng = np.random.default_rng(8)
    n = 4000
    keys = np.where(rng.random(n) < 0.8, 7, rng.integers(0, 50, n)).astype(np.int64)
    left = pa.table({"k": pa.array(keys), "x": pa.array(rng.normal(size=n))})
    right = pa.table({
        "rk": pa.array(np.arange(50, dtype=np.int64)),
        "label": pa.array([f"g{i}" for i in range(50)]),
    })
    lds = ray.data.from_arrow(left).repartition(6)
    rds = ray.data.from_arrow(right).repartition(2)
    out = skew_join(lds, rds, left_on="k", right_on="rk", hot_threshold=500).to_pandas()
    con = duckdb.connect()
    con.register("l", left.to_pandas())
    con.register("r", right.to_pandas())
    exp = con.execute(
        "SELECT label, count(*) n, sum(x) s FROM l JOIN r ON k = rk GROUP BY label"
    ).df().set_index("label")
    got = out.groupby("label").agg(n=("x", "size"), s=("x", "sum"))
    assert len(out) == int(exp["n"].sum())
    for lbl in exp.index:
        assert got.loc[lbl, "n"] == exp.loc[lbl, "n"]
        np.testing.assert_allclose(got.loc[lbl, "s"], exp.loc[lbl, "s"], rtol=1e-9)


def test_outer_join_types(ray_session):
    """left/full outer shuffle_hash_join vs pandas merge."""
    import pandas as pd

    from complexity_driven_feature_construction_ray.stages.partition import shuffle_hash_join

    left = pd.DataFrame({"k": [1, 2, 3, 4, 4], "a": [10.0, 20.0, 30.0, 40.0, 41.0]})
    right = pd.DataFrame({"k": [2, 4, 5], "b": ["x", "y", "z"]})
    lds = ray.data.from_pandas(left).repartition(3)
    rds = ray.data.from_pandas(right).repartition(2)

    got_left = (
        shuffle_hash_join(lds, rds, left_on="k", join_type="left outer", num_buckets=4)
        .to_pandas().sort_values(["k", "a"]).reset_index(drop=True)
    )
    exp_left = left.merge(right, on="k", how="left").sort_values(["k", "a"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got_left, exp_left.astype(got_left.dtypes.to_dict()), check_like=True
    )

    got_full = (
        shuffle_hash_join(lds, rds, left_on="k", join_type="full outer", num_buckets=4)
        .to_pandas().sort_values(["k", "a"]).reset_index(drop=True)
    )
    exp_full = left.merge(right, on="k", how="outer").sort_values(["k", "a"]).reset_index(drop=True)
    assert len(got_full) == len(exp_full)
    assert sorted(got_full["k"]) == sorted(exp_full["k"])
    assert set(got_full.loc[got_full["a"].isna(), "k"]) == {5}


def test_skew_join_hot_key_with_no_right_match(ray_session):
    """A hot left key absent from the right side must flow through
    (inner join drops it) instead of crashing the hot-broadcast path."""
    import pandas as pd

    from complexity_driven_feature_construction_ray.stages.partition import skew_join

    left = pd.DataFrame({"k": [7] * 10 + [1, 2, 3], "a": range(13)})
    right = pd.DataFrame({"k": [1, 2, 3], "b": ["x", "y", "z"]})
    out = (
        skew_join(
            ray.data.from_pandas(left).repartition(3),
            ray.data.from_pandas(right),
            left_on="k", hot_threshold=5, num_buckets=4,
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert out["k"].tolist() == [1, 2, 3]
    assert out["b"].tolist() == ["x", "y", "z"]


def test_broadcast_and_auto_join_parity(ray_session):
    """broadcast_join == shuffle_hash_join == pandas merge; auto_join
    dispatches to broadcast for a metadata-small right side and to the
    shuffle for an unknown-count (map-lineage) right side."""
    import pandas as pd

    from complexity_driven_feature_construction_ray.stages.partition import (
        auto_join,
        broadcast_join,
        shuffle_hash_join,
    )

    left = pd.DataFrame({"k": [1, 2, 2, 3, 5], "a": [1.0, 2.0, 2.5, 3.0, 5.0]})
    right = pd.DataFrame({"k": [1, 2, 4], "b": ["x", "y", "w"], "a": [9.0, 8.0, 7.0]})
    lds = ray.data.from_pandas(left).repartition(3)
    rds = ray.data.from_pandas(right).repartition(2)
    exp = left.merge(right, on="k", how="inner", suffixes=("", "_r"))

    def norm(ds):
        df = ds.to_pandas().sort_values(["k", "a"]).reset_index(drop=True)
        return df[["k", "a", "b", "a_r"]]

    got_b = norm(broadcast_join(lds, rds, left_on="k"))
    got_s = norm(shuffle_hash_join(lds, rds, left_on="k", num_buckets=4))
    want = exp.sort_values(["k", "a"]).reset_index(drop=True)[["k", "a", "b", "a_r"]]
    pd.testing.assert_frame_equal(got_b, want.astype(got_b.dtypes.to_dict()))
    pd.testing.assert_frame_equal(got_s, want.astype(got_s.dtypes.to_dict()))

    # auto: metadata count known + small -> broadcast (same rows)
    got_a = norm(auto_join(lds, rds, left_on="k"))
    pd.testing.assert_frame_equal(got_a, want.astype(got_a.dtypes.to_dict()))

    # auto: map lineage loses the count -> falls to the shuffle path
    rds_map = rds.map_batches(lambda t: t, batch_format="pyarrow")
    got_m = norm(auto_join(lds, rds_map, left_on="k"))
    pd.testing.assert_frame_equal(got_m, want.astype(got_m.dtypes.to_dict()))

    # left outer through broadcast keeps unmatched left rows
    got_lo = (
        broadcast_join(lds, rds, left_on="k", join_type="left outer")
        .to_pandas().sort_values(["k", "a"]).reset_index(drop=True)
    )
    assert len(got_lo) == 5 and got_lo.loc[got_lo["k"] == 5, "b"].isna().all()


def test_auto_join_flips_to_shuffle_above_threshold(ray_session, monkeypatch):
    """The planner must pick broadcast only under broadcast_max_rows
    and flip to the bucketed shuffle above it — the guard that keeps a
    fact-sized right side from materializing driver-side (the
    q_interval_join scale fix). Spies record which strategy ran; both
    paths must return identical rows."""
    import pandas as pd

    from complexity_driven_feature_construction_ray.stages import partition

    left = pd.DataFrame({"k": np.arange(50) % 7, "a": np.arange(50.0)})
    right = pd.DataFrame({"k": np.arange(7), "b": np.arange(7) * 10})
    lds = ray.data.from_pandas(left).repartition(3)
    rds = ray.data.from_pandas(right).repartition(2)

    calls = []
    real_b, real_s = partition.broadcast_join, partition.shuffle_hash_join
    monkeypatch.setattr(
        partition, "broadcast_join",
        lambda *a, **kw: calls.append("broadcast") or real_b(*a, **kw))
    monkeypatch.setattr(
        partition, "shuffle_hash_join",
        lambda *a, **kw: calls.append("shuffle") or real_s(*a, **kw))

    def norm(ds):
        return (ds.to_pandas().sort_values(["k", "a"])
                .reset_index(drop=True)[["k", "a", "b"]])

    want = (left.merge(right, on="k").sort_values(["k", "a"])
            .reset_index(drop=True)[["k", "a", "b"]])
    got_small = norm(partition.auto_join(lds, rds, left_on="k"))
    assert calls == ["broadcast"]
    # right side bigger than the threshold -> planner flips to shuffle
    got_big = norm(partition.auto_join(
        lds, rds, left_on="k", broadcast_max_rows=3))
    assert calls == ["broadcast", "shuffle"]
    pd.testing.assert_frame_equal(got_small, want.astype(got_small.dtypes.to_dict()))
    pd.testing.assert_frame_equal(got_big, want.astype(got_big.dtypes.to_dict()))

    # left_schema passthrough (skips the lineage-executing schema
    # fetch) must not change results on either path
    sch = pa.schema([("k", pa.int64()), ("a", pa.float64())])
    lmap = lds.map_batches(lambda t: t, batch_format="pyarrow")
    got_sch_b = norm(partition.auto_join(
        lmap, rds, left_on="k", left_schema=sch))
    got_sch_s = norm(partition.auto_join(
        lmap, rds, left_on="k", left_schema=sch, broadcast_max_rows=3))
    pd.testing.assert_frame_equal(got_sch_b, want.astype(got_sch_b.dtypes.to_dict()))
    pd.testing.assert_frame_equal(got_sch_s, want.astype(got_sch_s.dtypes.to_dict()))
