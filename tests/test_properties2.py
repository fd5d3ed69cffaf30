"""Hypothesis property tests for the round-2 pure kernels (no Ray):
Mersenne-61 modmul, fingerprints, bucket sizing, the quantile sketch,
the LSH mega-bucket shortcut, and SMOTE interpolation bounds."""

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import given, settings, strategies as st

from complexity_driven_feature_construction_ray.stages.bucketing import (
    cpu_floor,
    data_sized_buckets,
)
from complexity_driven_feature_construction_ray.stages.text import _mulmod61, fingerprint

_P61 = (1 << 61) - 1


class TestMulmod61:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=_P61 - 1),
        st.integers(min_value=0, max_value=_P61 - 1),
    )
    def test_matches_python_ints(self, a, b):
        got = _mulmod61(np.array([a], dtype=np.uint64), np.array([b], dtype=np.uint64))
        assert int(got[0]) == (a * b) % _P61


_word = st.text(alphabet="abcdefgh", min_size=1, max_size=6)
_words = st.lists(_word, min_size=0, max_size=30)


class TestFingerprint:
    @settings(max_examples=60, deadline=None)
    @given(_words)
    def test_equals_sequential_oracle(self, ws):
        import pyarrow as pa

        text = " ".join(ws)
        got = fingerprint(pa.table({"text": [text]}))["fingerprint"][0].as_py()
        h = 0
        hv = pd.util.hash_array(np.array(ws, dtype=object)) if ws else []
        for x in hv:
            h = (h * 1_000_003 + int(x) % _P61) % _P61
        assert got == int(np.uint64(h).astype(np.int64))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_word, min_size=2, max_size=10, unique=True))
    def test_order_sensitive(self, ws):
        import pyarrow as pa

        a = " ".join(ws)
        b = " ".join(reversed(ws))
        fa, fb = fingerprint(pa.table({"text": [a, b]}))["fingerprint"].to_pylist()
        assert fa != fb  # distinct word orders, astronomically unlikely to collide


class TestBucketSizing:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10**14))
    def test_monotone_and_bounded(self, n):
        b = data_sized_buckets(n)
        assert b >= cpu_floor()
        # per-bucket rows stay bounded by the target once past the floor
        if b > cpu_floor():
            assert (n + b - 1) // b <= 250_000
        assert data_sized_buckets(2 * n) >= b


class TestQuantSketch:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=400,
        ),
        st.integers(min_value=1, max_value=6),
    )
    def test_exact_median_under_cap(self, vals, nparts):
        from complexity_driven_feature_construction_ray.stages.fit import (
            _merge_quant,
            _quant_partial,
            _weighted_median,
        )

        x = np.asarray(vals, dtype=np.float64)
        parts = [
            ("quant",) + _quant_partial(c) for c in np.array_split(x, nparts) if True
        ]
        got = _weighted_median(*_merge_quant(parts))
        assert got == np.median(x)


class TestGroupedBucketPairs:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=40),
        st.floats(min_value=0.1, max_value=1.0),
    )
    def test_equals_naive_all_pairs(self, row_groups, threshold):
        """The exact-equal shortcut must produce the same SURVIVING PAIR
        SET as the naive O(k^2) scan up to union-find equivalence: both
        must yield identical connected components."""
        from complexity_driven_feature_construction_ray.stages.dedup import (
            _clusters_from_pairs,
            _grouped_bucket_pairs,
        )

        rng = np.random.default_rng(0)
        proto = rng.integers(0, 50, (6, 8)).astype(np.int64)  # 6 signature prototypes
        rows = proto[np.asarray(row_groups)]
        ids = np.arange(len(rows), dtype=np.int64)

        def est_fn(u):
            return (u[:, None, :] == u[None, :, :]).mean(axis=2)

        got = _grouped_bucket_pairs(ids, rows, est_fn, lambda e: e >= threshold)
        # naive reference
        est = est_fn(rows)
        iu = np.triu_indices(len(ids), k=1)
        keep = est[iu] >= threshold
        naive = pd.DataFrame({"a": ids[iu[0][keep]], "b": ids[iu[1][keep]], "est": est[iu][keep]})
        ca = _clusters_from_pairs(got).set_index("id")["rep_id"].to_dict()
        cb = _clusters_from_pairs(naive).set_index("id")["rep_id"].to_dict()
        assert ca == cb


class TestSmoteBounds:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=3, max_value=30), st.integers(min_value=31, max_value=80))
    def test_synthetics_in_minority_hull_box(self, n_min, n_maj):
        from complexity_driven_feature_construction_ray.pipelines.model import (
            smote_oversample,
        )

        rng = np.random.default_rng(n_min * 100 + n_maj)
        X = np.vstack([rng.normal(0, 1, (n_maj, 2)), rng.normal(10, 1, (n_min, 2))])
        y = np.array([0] * n_maj + [1] * n_min, dtype=np.int8)
        Xa, ya = smote_oversample(X, y, seed=1)
        assert (ya == 1).sum() == n_maj
        new = Xa[len(X):]
        Xm = X[y == 1]
        lo, hi = Xm.min(axis=0), Xm.max(axis=0)
        assert (new >= lo - 1e-9).all() and (new <= hi + 1e-9).all()


class TestPartitionPairsArrow:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6), st.floats(min_value=0.1, max_value=0.9))
    def test_equals_pandas_impl(self, seed, threshold):
        """The Arrow partition-group scan (vectorized size-2 fast path +
        vectorized 3..8-member clone-chain kernel + pandas fallback)
        must emit the exact same (a, b, est) pair set as one pandas
        bucket_pairs call per bucket, on clone-heavy buckets of sizes
        1..12."""
        from complexity_driven_feature_construction_ray.stages.dedup import (
            _grouped_bucket_pairs,
            _partition_pairs_arrow,
            _sig_est_matrix,
        )

        rng = np.random.default_rng(seed)
        nb = 60
        sizes = rng.integers(1, 13, nb)
        n = int(sizes.sum())
        bucket = np.repeat(rng.choice(10**9, nb, replace=False), sizes)
        ids = rng.choice(10**7, n, replace=False)
        pool = rng.integers(0, 2**40, (15, 16)).astype(np.int64)
        feat = pool[rng.integers(0, 15, n)]

        def est2(A, B):
            return (A == B).mean(axis=1)

        def bucket_pairs(g):
            if len(g) < 2:
                return pd.DataFrame({"a": [], "b": [], "est": []})
            g = g.drop_duplicates(subset=["doc_id"]).sort_values("doc_id", kind="stable")
            i = g["doc_id"].to_numpy()
            s = np.stack(g["sig"].to_numpy())
            return _grouped_bucket_pairs(i, s, _sig_est_matrix, lambda e: e >= threshold)

        t = pa.table({
            "bucket": pa.array(bucket),
            "doc_id": pa.array(ids),
            "sig": pa.FixedSizeListArray.from_arrays(pa.array(feat.reshape(-1)), 16),
        })
        out_a = _partition_pairs_arrow(
            t, bucket_pairs, "doc_id", "sig", (est2, lambda e: e >= threshold)
        ).to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
        per_bucket = [bucket_pairs(g) for _, g in t.to_pandas().groupby("bucket")]
        out_p = pd.concat(per_bucket).drop_duplicates(["a", "b"]).sort_values(["a", "b"])
        out_p = out_p.reset_index(drop=True)
        out_p["a"] = out_p["a"].astype(np.int64)
        out_p["b"] = out_p["b"].astype(np.int64)
        pd.testing.assert_frame_equal(out_a, out_p, check_dtype=False)
