"""Round-2 scale/robustness fixes: data-sized bucket counts, event-only
as-of buckets, pandas-block schemas, rolling-window NULL semantics,
LSH mega-bucket guard, streaming dedup apply, vectorized text kernels."""

import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from complexity_driven_feature_construction_ray.stages.bucketing import (
    cpu_floor,
    data_sized_buckets,
    default_buckets,
)


class TestDataSizedBuckets:
    def test_grows_with_rows(self):
        floor = cpu_floor()
        assert data_sized_buckets(None) == floor
        assert data_sized_buckets(1000) == floor
        # past the floor, bucket count scales linearly with data so the
        # per-bucket map_groups table stays bounded at any corpus size
        big = data_sized_buckets(250_000 * floor * 4)
        assert big == floor * 4
        assert data_sized_buckets(2 * 250_000 * floor * 4) == 2 * big

    def test_dataset_metadata_count(self, ray_session):
        small = ray.data.from_pandas(pd.DataFrame({"a": np.arange(10)}))
        assert default_buckets(small) == cpu_floor()
        # metadata count drives the size; target_rows shrunk to verify
        # growth without building a huge frame
        n = 10_000
        ds = ray.data.from_pandas(pd.DataFrame({"a": np.arange(n)}))
        floor = cpu_floor()  # expectations respect the parallelism floor
        assert default_buckets(ds, target_rows=100) == max(floor, n // 100)
        # two inputs (as-of probe+event) sum their counts
        assert default_buckets(ds, ds, target_rows=100) == max(floor, 2 * n // 100)

    def test_lineage_without_metadata_falls_back(self, ray_session):
        ds = ray.data.from_pandas(pd.DataFrame({"a": np.arange(10_000)}))
        mapped = ds.map_batches(lambda b: b, batch_format="pyarrow")
        assert mapped._meta_count() is None
        assert default_buckets(mapped, target_rows=100) == cpu_floor()
        # an explicit row hint restores data sizing on lazy lineages
        assert default_buckets(mapped, num_rows=10_000, target_rows=100) == max(
            cpu_floor(), 100
        )


class TestTemporalEdgeCases:
    def test_temporal_attach_event_only_bucket(self, ray_session):
        """Event keys absent from the probe side put ONLY event rows in
        some hash buckets; the scan must not crash (ADVICE r1 #1)."""
        from complexity_driven_feature_construction_ray.stages.temporal import (
            temporal_attach,
        )

        probe = pd.DataFrame(
            {
                "k": ["u0"] * 3,
                "ts": pd.to_datetime(["2025-01-01", "2025-01-02", "2025-01-03"]),
                "x": [1.0, 2.0, 3.0],
            }
        )
        event = pd.DataFrame(
            {
                "k": ["u0", "zz", "zz"],
                "ts": pd.to_datetime(
                    ["2025-01-01 12:00", "2025-01-01 00:00", "2025-01-02 00:00"]
                ),
                "v": [10.0, 77.0, 88.0],
            }
        )
        out = temporal_attach(
            ray.data.from_arrow(pa.Table.from_pandas(probe)),
            ray.data.from_arrow(pa.Table.from_pandas(event)),
            key="k",
            probe_ts="ts",
            event_ts="ts",
            value_cols=["v"],
            lag_cols=["x"],
            gap=3600,
            num_buckets=8,
        ).to_pandas()
        out = out.sort_values("ts").reset_index(drop=True)
        assert len(out) == 3  # event-only rows never leak into the output
        assert np.isnan(out["asof_v"][0]) and out["asof_v"][2] == 10.0

    def test_asof_join_pandas_block_schema(self, ray_session):
        """from_pandas datasets report numpy/object types in .schema();
        the join must normalize them to Arrow (ADVICE r1 #2)."""
        from complexity_driven_feature_construction_ray.stages.temporal import asof_join

        probe = pd.DataFrame(
            {"k": ["a", "b"], "ts": pd.to_datetime(["2025-01-02", "2025-01-02"])}
        )
        event = pd.DataFrame(
            {"k": ["a"], "ts": pd.to_datetime(["2025-01-01"]), "v": [5.0]}
        )
        out = asof_join(
            ray.data.from_pandas(probe),
            ray.data.from_pandas(event),
            key="k",
            probe_ts="ts",
            event_ts="ts",
            value_cols=["v"],
            num_buckets=4,
        ).to_pandas()
        got = out.set_index("k")["asof_v"]
        assert got["a"] == 5.0 and np.isnan(got["b"])

    def test_rolling_null_semantics(self, ray_session):
        """A NULL poisons nothing: sum/mean skip it, count counts
        non-nulls, an all-NULL window is NULL (ADVICE r1 #3)."""
        from complexity_driven_feature_construction_ray.stages.temporal import rolling_agg

        df = pd.DataFrame(
            {
                "k": ["a"] * 5,
                "ts": pd.to_datetime("2025-01-01") + pd.to_timedelta(range(5), unit="h"),
                "v": [1.0, None, 3.0, None, None],
            }
        )
        ds = ray.data.from_arrow(pa.Table.from_pandas(df))
        out = (
            rolling_agg(ds, key="k", ts="ts", col="v", window=2, agg="sum", out_col="r", num_buckets=2)
            .to_pandas()
            .sort_values("ts")["r"]
            .tolist()
        )
        exp = [1.0, 1.0, 3.0, 3.0, None]  # SQL: SUM over trailing 2 rows
        assert out[:4] == exp[:4] and pd.isna(out[4])
        cnt = (
            rolling_agg(ds, key="k", ts="ts", col="v", window=2, agg="count", out_col="r", num_buckets=2)
            .to_pandas()
            .sort_values("ts")["r"]
            .tolist()
        )
        assert cnt == [1, 1, 1, 1, 0]


class TestMegaBucketGuard:
    def test_identical_docs_cost_linear(self, ray_session):
        """5k identical docs collapse into one LSH bucket; the exact-
        equal shortcut must pair them in O(k), not O(k^2) (VERDICT #3)."""
        from complexity_driven_feature_construction_ray.stages.dedup import (
            minhash_lsh_dedup,
        )

        n = 5000
        text = "the quick brown fox jumps over the lazy dog again and again"
        df = pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64), "text": [text] * n})
        t0 = time.time()
        clusters = minhash_lsh_dedup(
            ray.data.from_pandas(df).repartition(4), threshold=0.7
        )
        took = time.time() - t0
        assert len(clusters) == n
        assert (clusters["rep_id"] == 0).all()
        assert clusters["is_dup"].sum() == n - 1
        assert took < 60, f"mega-bucket path took {took:.1f}s"

    def test_mixed_groups_same_clusters(self, ray_session):
        """Shortcut clusters == brute-force clusters on a mixed corpus of
        exact clones + near-dups + unique docs."""
        from complexity_driven_feature_construction_ray.stages.dedup import (
            minhash_lsh_dedup,
        )

        base = (
            "data processing engines stream arrow record batches through "
            "vectorized kernels with backpressure and spilling"
        )
        rows = []
        for i in range(30):
            rows.append((i, base))  # clone group
        for i in range(30, 40):
            rows.append((i, base + f" variant {i}"))  # near dups
        for i in range(40, 60):
            rows.append((i, f"totally different document number {i} " * 5))
        df = pd.DataFrame(rows, columns=["doc_id", "text"])
        clusters = minhash_lsh_dedup(ray.data.from_pandas(df), threshold=0.5)
        reps = clusters.set_index("id")["rep_id"]
        assert (reps.loc[np.arange(30)] == 0).all()  # clones -> one cluster
        assert (reps.loc[np.arange(30, 40)] == 0).all()  # near-dups join it


class TestApplyDedup:
    def test_streaming_filter(self, ray_session):
        from complexity_driven_feature_construction_ray.stages.dedup import (
            apply_dedup,
            clusters_dataset,
            minhash_lsh_dedup,
        )

        df = pd.DataFrame(
            {
                "doc_id": np.arange(6, dtype=np.int64),
                "text": ["same text for dedup test body here"] * 3
                + [f"unique document {i} with its own words entirely" for i in range(3)],
            }
        )
        ds = ray.data.from_pandas(df)
        clusters = minhash_lsh_dedup(ds, threshold=0.7)
        kept = apply_dedup(ds, clusters).to_pandas()
        assert sorted(kept["doc_id"]) == [0, 3, 4, 5]
        cds = clusters_dataset(clusters)
        assert cds.count() == len(clusters)


class TestVectorizedText:
    def test_fingerprint_matches_python_oracle(self):
        from complexity_driven_feature_construction_ray.stages.text import fingerprint

        p = (1 << 61) - 1
        texts = ["alpha beta gamma", "beta alpha gamma", "", "single", "x " * 300]
        out = fingerprint(pa.table({"text": texts}))["fingerprint"].to_pylist()

        def oracle(txt):
            ws = [w for w in txt.split() if w]
            h = 0
            hv = pd.util.hash_array(np.array(ws, dtype=object)) if ws else []
            for x in hv:
                h = (h * 1_000_003 + int(x) % p) % p
            return int(np.uint64(h).astype(np.int64))

        assert out == [oracle(t) for t in texts]
        assert out[0] != out[1]  # order-sensitive

    def test_langid_vectorized_equals_rowwise(self):
        from complexity_driven_feature_construction_ray.stages.text import (
            _LANG_MARKERS,
            LanguageId,
        )

        rng = np.random.default_rng(11)
        vocab = sorted(set().union(*_LANG_MARKERS.values())) + ["zzz", "qqq"]
        texts = [
            " ".join(rng.choice(vocab, size=rng.integers(0, 25)).tolist())
            for _ in range(200)
        ] + ["", "中文 文本"]
        got = LanguageId()(pa.table({"text": texts}))["lang_pred"].to_pylist()

        # row-wise reference (the round-1 scan semantics)
        import re

        word_re = re.compile(r"[a-zà-ÿ]+")
        cjk = re.compile(r"[一-鿿]")
        exp = []
        for t in texts:
            t = (t or "").lower()
            if cjk.search(t):
                exp.append("zh")
                continue
            words = word_re.findall(t)
            best, best_n = "en", -1
            for lang, stops in _LANG_MARKERS.items():
                m = sum(1 for w in words if w in stops)
                if m > best_n:
                    best, best_n = lang, m
            exp.append(best)
        assert got == exp


class TestDistributedMedian:
    def test_impute_median_streams_exact(self, ray_session):
        """impute_median now fits via the mergeable weighted-value sketch
        — no driver-side sample needed, exact at small distinct counts
        (ADVICE r1 #4)."""
        import pandas as pd
        import ray.data

        from complexity_driven_feature_construction_ray.functions.expr import raw, unary
        from complexity_driven_feature_construction_ray.stages.fit import fit_distributed

        rng = np.random.default_rng(2)
        v = rng.integers(0, 40, 5001).astype(np.float64)
        v[rng.choice(5001, 500, replace=False)] = np.nan
        ds = ray.data.from_pandas(pd.DataFrame({"v": v})).repartition(6)
        plan = unary("impute_median", raw("v", properties={"missing_values": True}))
        fitted = fit_distributed([plan], ds, input_cols=["v"])  # no sample arg
        assert fitted[plan.name][0] == np.nanmedian(v)

    def test_sketch_bounded_error_on_wide_distribution(self):
        from complexity_driven_feature_construction_ray.stages.fit import (
            _merge_quant,
            _quant_partial,
            _weighted_median,
        )

        rng = np.random.default_rng(1)
        x = rng.normal(size=150_000)
        parts = [("quant",) + _quant_partial(c) for c in np.array_split(x, 12)]
        got = _weighted_median(*_merge_quant(parts))
        assert abs((x < got).mean() - 0.5) < 1e-3  # rank error ~ 1/4096


class TestRangeWindowAndGroupedMedian:
    def test_rolling_range_matches_bruteforce(self, ray_session):
        """Trailing time window with SQL RANGE semantics (equal-ts peers
        included) vs an O(n^2) brute-force oracle."""
        from complexity_driven_feature_construction_ray.stages.temporal import rolling_agg

        rng = np.random.default_rng(4)
        n = 300
        df = pd.DataFrame(
            {
                "k": rng.choice(["a", "b", "c"], n),
                # coarse grid so duplicate (k, ts) pairs occur -> peers
                "ts": pd.Timestamp("2025-01-01")
                + pd.to_timedelta(rng.integers(0, 48, n) * 3600, unit="s"),
                "v": rng.normal(0, 1, n).round(3),
                "i": np.arange(n),
            }
        )
        out = (
            rolling_agg(
                ray.data.from_arrow(pa.Table.from_pandas(df)),
                key="k", ts="ts", col="v", window=0,
                range_seconds=3 * 3600.0, agg="sum", out_col="r",
                tiebreak=["i"], num_buckets=4,
            )
            .to_pandas()
            .set_index("i")["r"]
        )
        w = pd.Timedelta(hours=3)
        for _, row in df.iterrows():
            frame = df[
                (df["k"] == row["k"])
                & (df["ts"] <= row["ts"])
                & (df["ts"] >= row["ts"] - w)
            ]
            assert out[row["i"]] == pytest.approx(frame["v"].sum())

    def test_grouped_median_matches_numpy(self, ray_session):
        from complexity_driven_feature_construction_ray.stages.sketch import grouped_median

        rng = np.random.default_rng(7)
        df = pd.DataFrame(
            {
                "g": rng.choice(["x", "y"], 5001),
                "v": rng.integers(0, 30, 5001).astype(np.float64),
            }
        )
        ds = ray.data.from_pandas(df).repartition(5)
        out = grouped_median(ds, key_cols=["g"], value_col="v").set_index("g")["median"]
        for g in ("x", "y"):
            assert out[g] == np.median(df.loc[df["g"] == g, "v"])

    def test_grouped_quantile_disc_semantics(self, ray_session):
        """percentile_disc: smallest value whose cumulative count
        reaches q*N — checked against a numpy rank oracle."""
        from complexity_driven_feature_construction_ray.stages.sketch import (
            grouped_quantile,
        )

        rng = np.random.default_rng(3)
        df = pd.DataFrame(
            {"g": rng.choice(["a", "b"], 4000), "v": rng.integers(0, 25, 4000).astype(float)}
        )
        ds = ray.data.from_pandas(df).repartition(4)
        for q in (0.1, 0.5, 0.9):
            out = grouped_quantile(ds, key_cols=["g"], value_col="v", q=q).set_index("g")[
                "quantile"
            ]
            for g in ("a", "b"):
                v = np.sort(df.loc[df["g"] == g, "v"].to_numpy())
                # smallest value at cumulative rank >= q*N (1-based)
                exp = v[int(np.ceil(q * len(v))) - 1]
                assert out[g] == exp, (g, q)


class TestAsofTolerance:
    def test_staleness_bound(self, ray_session):
        """tolerance nulls out matches older than the bound, and
        allow_exact=False skips an event at the probe's own ts —
        verified against a brute-force oracle on both the asof_join and
        the fused temporal_attach paths, and on asof_join's nearest
        direction (further than tolerance either way is no match)."""
        from complexity_driven_feature_construction_ray.stages.temporal import (
            asof_join,
            temporal_attach,
        )

        rng = np.random.default_rng(12)
        n = 200
        probe = pd.DataFrame(
            {
                "k": rng.choice(["a", "b", "c"], n),
                "ts": pd.Timestamp("2025-01-02")
                + pd.to_timedelta(rng.integers(0, 96 * 3600, n), unit="s"),
                "pid": np.arange(n),
            }
        )
        event = pd.DataFrame(
            {
                "k": rng.choice(["a", "b", "c"], 60),
                "ts": pd.Timestamp("2025-01-01")
                + pd.to_timedelta(rng.integers(0, 120 * 3600, 60), unit="s"),
                "v": rng.normal(0, 1, 60).round(3),
            }
        )
        # probes at an event's own (k, ts), where allow_exact decides
        exact = event.iloc[::3][["k", "ts"]].assign(pid=n + np.arange(20))
        probe = pd.concat([probe, exact], ignore_index=True)
        tol = 12 * 3600.0

        def oracle(row, allow_exact, tolerance, direction="backward"):
            ev = event[event["k"] == row["k"]]
            before = (row["ts"] - ev["ts"]).dt.total_seconds()  # > 0: event first
            near = np.abs(before) <= (np.inf if tolerance is None else tolerance)
            back = ev[near & ((before > 0) | (allow_exact & (before == 0)))]
            fwd = ev[near & ((before < 0) | (allow_exact & (before == 0)))]
            b = back.sort_values("ts").iloc[-1] if len(back) else None
            f = fwd.sort_values("ts").iloc[0] if len(fwd) and direction == "nearest" else None
            if f is not None and (b is None or f["ts"] - row["ts"] < row["ts"] - b["ts"]):
                return f["v"]
            return np.nan if b is None else b["v"]

        cases = [
            (fn, {"allow_exact": ax, "tolerance": t})
            for fn in (asof_join, temporal_attach)
            for ax in (True, False)
            for t in (None, tol)
        ] + [
            (asof_join, {"allow_exact": ax, "tolerance": t, "direction": "nearest"})
            for ax in (True, False)
            for t in (None, tol)
        ]
        for fn, kw in cases:
            out = fn(
                ray.data.from_arrow(pa.Table.from_pandas(probe)),
                ray.data.from_arrow(pa.Table.from_pandas(event)),
                key="k", probe_ts="ts", event_ts="ts",
                value_cols=["v"], num_buckets=4, **kw,
            ).to_pandas().set_index("pid")["asof_v"]
            assert len(out) == len(probe)
            for _, row in probe.iterrows():
                exp = oracle(row, **kw)
                got = out[row["pid"]]
                assert (np.isnan(exp) and np.isnan(got)) or got == exp, (fn.__name__, kw, row["pid"])


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_temporal_family_randomized_vs_bruteforce(ray_session, seed):
    """Randomized cross-check of the whole windowed family against
    row-by-row oracles: duplicate timestamps, missing entities, and
    entities spanning bucket boundaries all drawn at random."""
    from complexity_driven_feature_construction_ray.stages.temporal import (
        asof_join,
        lag_lead,
        row_number,
        sessionize,
    )

    rng = np.random.default_rng(seed)
    n = 250
    probe = pd.DataFrame(
        {
            "k": rng.choice([f"u{i}" for i in range(12)], n),
            "ts": pd.Timestamp("2025-02-01")
            + pd.to_timedelta(rng.integers(0, 2000, n) * 60, unit="s"),
            "pid": np.arange(n),
        }
    )
    event = pd.DataFrame(
        {
            "k": rng.choice([f"u{i}" for i in range(15)], 80),  # some keys unseen
            "ts": pd.Timestamp("2025-01-28")
            + pd.to_timedelta(rng.integers(0, 9000, 80) * 60, unit="s"),
            "v": rng.normal(0, 1, 80).round(3),
        }
    ).drop_duplicates(subset=["k", "ts"])  # as-of needs a deterministic winner per (k, ts)
    pds = ray.data.from_arrow(pa.Table.from_pandas(probe)).repartition(3)
    eds = ray.data.from_arrow(pa.Table.from_pandas(event)).repartition(2)

    # as-of
    got = (
        asof_join(pds, eds, key="k", probe_ts="ts", event_ts="ts",
                  value_cols=["v"], num_buckets=5)
        .to_pandas().set_index("pid")["asof_v"]
    )
    for _, row in probe.iterrows():
        cand = event[(event["k"] == row["k"]) & (event["ts"] <= row["ts"])]
        exp = cand.sort_values("ts")["v"].iloc[-1] if len(cand) else np.nan
        g = got[row["pid"]]
        assert (np.isnan(exp) and np.isnan(g)) or g == exp

    # lag/lead (tiebreak on pid makes the order total)
    ll = (
        lag_lead(pds, key="k", ts="ts", cols=["pid"], lags=(1,), leads=(1,),
                 tiebreak=["pid"], num_buckets=4)
        .to_pandas().set_index("pid")
    )
    sp = probe.sort_values(["k", "ts", "pid"]).reset_index(drop=True)
    for i in range(len(sp)):
        pid = sp.loc[i, "pid"]
        exp_lag = sp.loc[i - 1, "pid"] if i > 0 and sp.loc[i - 1, "k"] == sp.loc[i, "k"] else None
        exp_lead = (
            sp.loc[i + 1, "pid"] if i + 1 < len(sp) and sp.loc[i + 1, "k"] == sp.loc[i, "k"] else None
        )
        got_lag, got_lead = ll.loc[pid, "pid_lag1"], ll.loc[pid, "pid_lead1"]
        assert (pd.isna(got_lag) and exp_lag is None) or got_lag == exp_lag
        assert (pd.isna(got_lead) and exp_lead is None) or got_lead == exp_lead

    # row_number: a permutation of 1..count(k) per entity, matching rank order
    rn = (
        row_number(pds, key="k", ts="ts", tiebreak=["pid"], num_buckets=4)
        .to_pandas()
    )
    for k, g in rn.groupby("k"):
        g = g.sort_values(["ts", "pid"]).reset_index(drop=True)
        assert g["row_num"].tolist() == list(range(1, len(g) + 1))

    # sessionize: 2h gap oracle
    sess = (
        sessionize(pds, key="k", ts="ts", gap=7200, tiebreak=["pid"], num_buckets=4)
        .to_pandas().set_index("pid")["session_idx"]
    )
    for k, g in probe.groupby("k"):
        g = g.sort_values(["ts", "pid"])
        sid, prev = 0, None
        for _, row in g.iterrows():
            if prev is not None and (row["ts"] - prev).total_seconds() > 7200:
                sid += 1
            assert sess[row["pid"]] == sid, (k, row["pid"])
            prev = row["ts"]
