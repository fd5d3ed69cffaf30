"""One-pass column-statistics stage → raw-feature properties.

The reference derives per-column properties (dtype, missing, has_zero,
min/max, distinct count) by materializing the whole table
(reference candidates/RawFeature.py:80-101, transformations/
Transformation.py:47-65). Here the same properties come from a single
streaming pass: per-batch partial stats inside map_batches (one tiny
summary row per batch), combined driver-side — no shuffle at all.

Distinct counts are exact up to `distinct_cap` tracked values; beyond
the cap the column is recorded as high-cardinality (the only consumers
are applicability predicates and the OneHot generator, both of which
only care about *small* distinct sets).
"""

from __future__ import annotations

import pickle

import numpy as np
import pyarrow as pa
import pyarrow.types as pat

from ..functions.expr import Feature, raw

DISTINCT_CAP = 1000


def _partial_stats(batch: pa.Table, columns: list[str], cap: int) -> dict:
    out = {}
    for c in columns:
        col = batch[c]
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        nulls = arr.null_count
        if pat.is_floating(arr.type) or pat.is_integer(arr.type) or pat.is_boolean(arr.type):
            v = arr.to_numpy(zero_copy_only=False).astype(np.float64)
            nan = np.isnan(v)
            nulls = int(nan.sum())
            vv = v[~nan]
            uniq = np.unique(vv)
            out[c] = {
                "kind": "numeric",
                "count": len(v),
                "nulls": nulls,
                "min": float(vv.min()) if len(vv) else None,
                "max": float(vv.max()) if len(vv) else None,
                "has_zero": bool((vv == 0.0).any()) if len(vv) else False,
                "distinct": set(uniq[: cap + 1].tolist()),
            }
        else:
            v = arr.to_numpy(zero_copy_only=False)
            vals, counts = np.unique(v[v != None], return_counts=True)  # noqa: E711
            out[c] = {
                "kind": "categorical",
                "count": len(v),
                "nulls": nulls,
                "distinct": dict(zip(vals.tolist()[: cap + 1], counts.tolist())),
            }
    return out


def _merge(a: dict, b: dict, cap: int) -> dict:
    for c, s in b.items():
        if c not in a:
            a[c] = s
            continue
        t = a[c]
        t["count"] += s["count"]
        t["nulls"] += s["nulls"]
        if t["kind"] == "numeric":
            for k, fn in (("min", min), ("max", max)):
                if s[k] is not None:
                    t[k] = s[k] if t[k] is None else fn(t[k], s[k])
            t["has_zero"] = t["has_zero"] or s["has_zero"]
            if len(t["distinct"]) <= cap:
                t["distinct"] |= s["distinct"]
        else:
            if len(t["distinct"]) <= cap:
                for k, n in s["distinct"].items():
                    t["distinct"][k] = t["distinct"].get(k, 0) + n
    return a


def column_stats(ds, columns: list[str], distinct_cap: int = DISTINCT_CAP) -> dict:
    """Streamed per-column stats: {col: {kind,count,nulls,min,max,has_zero,distinct}}.

    `distinct` is the exact value set (numeric) or value->count dict
    (categorical) when cardinality <= distinct_cap, else None (overflow).
    """

    def part(batch: pa.Table) -> pa.Table:
        blob = pickle.dumps(_partial_stats(batch, columns, distinct_cap))
        return pa.table({"blob": pa.array([blob], type=pa.binary())})

    rows = ds.map_batches(part, batch_format="pyarrow").take_all()
    merged: dict = {}
    for r in rows:
        _merge(merged, pickle.loads(r["blob"]), distinct_cap)
    for c, s in merged.items():
        if len(s["distinct"]) > distinct_cap:
            s["distinct"] = None
        s["n_distinct"] = len(s["distinct"]) if s["distinct"] is not None else None
    return merged


def base_features_from_stats(stats: dict) -> list[Feature]:
    """Raw Feature leaves with reference-style properties attached."""
    feats = []
    for c, s in stats.items():
        if s["kind"] == "numeric":
            feats.append(
                raw(
                    c,
                    "numeric",
                    {
                        "missing_values": s["nulls"] > 0,
                        "min": s["min"],
                        "max": s["max"],
                        "has_zero": s["has_zero"],
                        "distinct": s["n_distinct"],
                    },
                )
            )
        else:
            feats.append(
                raw(
                    c,
                    "categorical",
                    {
                        "missing_values": s["nulls"] > 0,
                        "distinct": s["n_distinct"],
                        "values": sorted(s["distinct"]) if s["distinct"] else None,
                    },
                )
            )
    return feats


def correlation_matrix(ds, columns: list[str]) -> "pd.DataFrame":
    """Pairwise Pearson correlations over `columns` in ONE streaming
    pass: each batch contributes (n, column sums, X^T X) — O(k^2)
    floats regardless of rows — merged by addition driver-side. No
    shuffle; NaN rows are dropped listwise (SQL corr() drops pairwise,
    so feed NaN-free columns for oracle parity). Population-vs-sample
    normalization cancels in the ratio, so this equals SQL corr()
    exactly. Returns long format (col_a, col_b, corr) for a < b."""
    import pandas as pd

    k = len(columns)

    def part(batch: pa.Table) -> pa.Table:
        x = np.column_stack(
            [batch[c].to_numpy(zero_copy_only=False).astype(np.float64) for c in columns]
        )
        x = x[~np.isnan(x).any(axis=1)]
        blob = pickle.dumps((len(x), x.sum(axis=0), x.T @ x))
        return pa.table({"blob": pa.array([blob], type=pa.binary())})

    n = 0
    s = np.zeros(k)
    c = np.zeros((k, k))
    for row in ds.map_batches(part, batch_format="pyarrow", batch_size=None).take_all():
        pn, ps, pc = pickle.loads(row["blob"])
        n += pn
        s += ps
        c += pc
    if n == 0:
        # zero input rows: SQL's GROUP BY over an empty union has no
        # groups, so corr() emits no rows at all — match that instead
        # of emitting k*(k-1)/2 NaN rows (the silent-wrong-shape class
        # the empty-input gate caught).
        return pd.DataFrame({"col_a": pd.Series(dtype=object),
                             "col_b": pd.Series(dtype=object),
                             "corr": pd.Series(dtype=np.float64)})
    mean = s / max(n, 1)
    cov = c / max(n, 1) - np.outer(mean, mean)
    sd = np.sqrt(np.maximum(np.diag(cov), 0.0))
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = cov / np.outer(sd, sd)
    rows = [
        (columns[i], columns[j], float(corr[i, j]))
        for i in range(k)
        for j in range(i + 1, k)
    ]
    return pd.DataFrame(rows, columns=["col_a", "col_b", "corr"])


def psi_drift(ds_ref, ds_cur, *, col: str, bins: int = 10, floor: float = 1e-6):
    """Population Stability Index between a reference snapshot and a
    current shard of the same column — the standard drift monitor for
    a feature/corpus statistic (PSI < 0.1 stable, > 0.25 shifted).
    Three cheap passes, all mergeable: a global min/max aggregate on
    the reference fixes the bin edges; each side then streams one
    histogram pass whose per-batch partial is a `bins`-long bincount
    (out-of-range current values clamp into the edge bins). Zero-count
    bins are floored so the log ratio stays finite. Returns a pandas
    DataFrame with one row: (psi, n_ref, n_cur)."""
    import pandas as pd
    from ray.data.aggregate import Max, Min

    mm = ds_ref.aggregate(Min(col), Max(col))
    lo, hi = float(mm[f"min({col})"]), float(mm[f"max({col})"])
    span = hi - lo if hi > lo else 1.0

    def hist(ds):
        def partial(batch: pa.Table) -> pa.Table:
            x = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
            idx = np.clip(
                np.floor((x - lo) * bins / span).astype(np.int64), 0, bins - 1
            )
            return pa.table(
                {
                    "bin": pa.array(np.arange(bins, dtype=np.int64)),
                    "c": pa.array(np.bincount(idx, minlength=bins).astype(np.int64)),
                }
            )

        from ray.data.aggregate import Sum

        out = (
            ds.map_batches(partial, batch_format="pyarrow")
            .groupby("bin")
            .aggregate(Sum("c", alias_name="c"))
            .to_pandas()
        )
        counts = np.zeros(bins, dtype=np.int64)
        counts[out["bin"].to_numpy()] = out["c"].to_numpy()
        return counts

    rc, cc = hist(ds_ref), hist(ds_cur)
    p = np.maximum(rc / rc.sum(), floor)
    q = np.maximum(cc / cc.sum(), floor)
    psi = float(np.sum((q - p) * np.log(q / p)))
    return pd.DataFrame(
        {"psi": [round(psi, 6)], "n_ref": [int(rc.sum())], "n_cur": [int(cc.sum())]}
    )


def histogram(ds, *, col: str, bins: int = 10):
    """Exact equi-width histogram of a numeric column: one global
    min/max aggregate fixes the edges, then one streaming pass whose
    per-batch partial is a `bins`-long bincount — the profiling
    primitive behind range-partition planning and skew checks. Returns
    a pandas frame (bin, bin_lo, bin_hi, n) covering every bin, empty
    ones included; the max value lands in the last bin."""
    import pandas as pd
    from ray.data.aggregate import Max, Min, Sum

    mm = ds.aggregate(Min(col), Max(col))
    lo, hi = float(mm[f"min({col})"]), float(mm[f"max({col})"])
    span = hi - lo if hi > lo else 1.0

    def partial(batch: pa.Table) -> pa.Table:
        x = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
        idx = np.clip(np.floor((x - lo) * bins / span).astype(np.int64), 0, bins - 1)
        return pa.table(
            {
                "bin": pa.array(np.arange(bins, dtype=np.int64)),
                "c": pa.array(np.bincount(idx, minlength=bins).astype(np.int64)),
            }
        )

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bin")
        .aggregate(Sum("c", alias_name="n"))
        .to_pandas()
    )
    counts = np.zeros(bins, dtype=np.int64)
    counts[out["bin"].to_numpy()] = out["n"].to_numpy()
    b = np.arange(bins, dtype=np.int64)
    return pd.DataFrame(
        {
            "bin": b,
            "bin_lo": np.round(lo + b * span / bins, 6),
            "bin_hi": np.round(lo + (b + 1) * span / bins, 6),
            "n": counts,
        }
    )


def profile_columns(ds, cols: list[str]):
    """One-pass numeric column profiler (the pre-ingest data-quality /
    range-planning primitive): per column n, n_null, min, max, mean
    (6dp). A single streaming pass emits one partial row per
    (batch, column) — n/null counts, +-inf-sentinel extremes and an
    exact running sum — so the exchange is batches x columns rows and
    the merge is one tiny hash aggregate; no column ever re-scans.
    Timestamps and ints profile through float64 (exact below 2^53).

    Executes eagerly: the pass runs inside this call (the O(cols)-row
    result is finished on the driver), and the returned Dataset is
    built from that in-memory result."""
    from ray.data.aggregate import Max, Min, Sum

    def partials(batch: pa.Table) -> pa.Table:
        names, ns, nulls, mns, mxs, sums = [], [], [], [], [], []
        for c in cols:
            arr = batch[c]
            v = arr.to_numpy(zero_copy_only=False).astype(np.float64)
            valid = ~np.isnan(v)
            names.append(c)
            ns.append(len(v))
            nulls.append(int(len(v) - valid.sum()))
            mns.append(v[valid].min() if valid.any() else np.inf)
            mxs.append(v[valid].max() if valid.any() else -np.inf)
            sums.append(float(v[valid].sum()))
        return pa.table(
            {
                "col": pa.array(names, type=pa.string()),
                "n": pa.array(np.asarray(ns, np.int64)),
                "n_null": pa.array(np.asarray(nulls, np.int64)),
                "mn": pa.array(np.asarray(mns, np.float64)),
                "mx": pa.array(np.asarray(mxs, np.float64)),
                "s": pa.array(np.asarray(sums, np.float64)),
            }
        )

    agg = (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby("col")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("n_null", alias_name="n_null"),
            Min("mn", alias_name="mn"),
            Max("mx", alias_name="mx"),
            Sum("s", alias_name="s"),
        )
    )

    def finish(batch: pa.Table) -> pa.Table:
        n = batch["n"].to_numpy()
        nn = batch["n_null"].to_numpy()
        valid = (n - nn).astype(np.float64)
        mn = batch["mn"].to_numpy().copy()
        mx = batch["mx"].to_numpy().copy()
        mean = np.full(len(n), np.nan)
        ok = valid > 0
        mean[ok] = np.round(batch["s"].to_numpy()[ok] / valid[ok], 6)
        mn[~ok] = np.nan
        mx[~ok] = np.nan
        return pa.table(
            {
                "col": batch["col"],
                "n": batch["n"],
                "n_null": batch["n_null"],
                "v_min": pa.array(mn),
                "v_max": pa.array(mx),
                "v_mean": pa.array(mean),
            }
        )

    out = agg.map_batches(finish, batch_format="pyarrow")
    # O(cols)-row result: finish on the driver so a zero-row input
    # still yields one (n=0, NULL extremes) row per requested column —
    # SQL's UNION ALL of scalar aggregates always emits every column's
    # row; Ray drops 0-row blocks, so the missing rows are rebuilt here.
    import pandas as pd
    import ray.data

    pdf = out.to_pandas()
    seen = set(pdf["col"]) if "col" in pdf.columns else set()
    missing = [c for c in cols if c not in seen]
    if missing:
        pad = pd.DataFrame(
            {
                "col": missing,
                "n": np.zeros(len(missing), dtype=np.int64),
                "n_null": np.zeros(len(missing), dtype=np.int64),
                "v_min": np.full(len(missing), np.nan),
                "v_max": np.full(len(missing), np.nan),
                "v_mean": np.full(len(missing), np.nan),
            }
        )
        pdf = pd.concat([pdf, pad], ignore_index=True) if len(pdf) else pad
    return ray.data.from_pandas(pdf.sort_values("col").reset_index(drop=True))


def covariance_matrix_list(ds, col: str) -> "pd.DataFrame":
    """Exact population covariance matrix of a fixed-width embedding
    list column in ONE streaming pass: each batch contributes
    (n, Σx, XᵀX) — O(d²) floats regardless of rows, merged by addition
    driver-side; no shuffle and the embedding matrix never leaves the
    stream. This is the mergeable pass under PCA/whitening
    (stages/similarity.py), exposed so the covariance cells themselves
    are value-verifiable against SQL covar_pop. Returns long format
    (dim_a, dim_b, cov) for dim_a ≤ dim_b, 1-based to match SQL list
    indexing, biased-half-up quantized at 6dp."""
    import pandas as pd

    from .arrowutil import list_column_matrix

    def part(batch: pa.Table) -> pa.Table:
        x = list_column_matrix(batch[col], dtype=np.float64)
        blob = pickle.dumps((len(x), x.sum(axis=0), x.T @ x))
        return pa.table({"blob": pa.array([blob], type=pa.binary())})

    n = 0
    s = None
    c = None
    for row in ds.map_batches(part, batch_format="pyarrow", batch_size=None).take_all():
        pn, ps, pc = pickle.loads(row["blob"])
        if pn == 0:
            continue
        n += pn
        s = ps if s is None else s + ps
        c = pc if c is None else c + pc
    if n == 0:
        return pd.DataFrame(columns=["dim_a", "dim_b", "cov"])
    mean = s / n
    cov = c / n - np.outer(mean, mean)
    d = cov.shape[0]
    iu = np.triu_indices(d)
    out = pd.DataFrame(
        {
            "dim_a": (iu[0] + 1).astype(np.int64),
            "dim_b": (iu[1] + 1).astype(np.int64),
            "cov": np.floor(cov[iu] * 1e6 + 0.5005) / 1e6,
        }
    )
    return out
