"""Distributed fitting of stateful feature nodes (the scale path).

The reference fits scalers/discretizers/group-aggregates on an
in-memory train fold (reference MinMaxScalingTransformation.py:21-39,
FastGroupByThenTransformation.py:23-25). At 100 TB the fit must itself
be a streaming aggregate: for every stateful node we compute mergeable
per-batch partials inside map_batches (combiner pattern — the shuffle
is avoided entirely; only O(batches × keys) summary bytes reach the
driver) and combine them driver-side into the same `Fitted` state dict
the in-memory path produces.

Nested stateful nodes (e.g. minmax(gbt_mean(x by k))) need the inner
state before the outer partials can be computed, so fitting runs in
stateful-depth passes — depth is almost always ≤ 2.

gbt partials are per-key (count, sum, sumsq, min, max, prod) tuples.
`impute_median` fits through a mergeable weighted-value sketch: each
batch contributes its exact (unique value, count) table when it has
<= _QUANT_K distinct values, else a rank-uniform compression to
_QUANT_K weighted points (rank error <= n_batch/_QUANT_K per batch, so
<= N/_QUANT_K ~ 0.02% overall) — exact at test scale, bounded-size at
100 TB. Only `mdlp` (supervised) and non-mergeable custom/gbt ops fit
on a seeded sample (documented divergence; exact at test scale where
the sample is the whole table).
"""

from __future__ import annotations

import pickle

import numpy as np
import pyarrow as pa

from ..functions.expr import Feature
from ..functions.kernels import Fitted, _eval_node, _mdlp_cuts

_MERGEABLE_GBT = {"max", "min", "mean", "std", "count", "sum", "var", "prod"}


def _stateful_depth(f: Feature, cache: dict) -> int:
    if f.name in cache:
        return cache[f.name]
    child = max((_stateful_depth(p, cache) for p in f.parents), default=0)
    d = child + 1 if _is_stateful(f) else child
    cache[f.name] = d
    return d


_STATEFUL_UNARY = (
    "minmax", "zscore", "impute_mean", "impute_median", "impute_mode", "discretize", "mdlp",
    "winsor", "robust", "ranknorm", "qcut", "boxcox", "yeojohnson",
)


def _is_stateful(f: Feature) -> bool:
    from ..functions.expr import CUSTOM_OPS

    spec = CUSTOM_OPS.get(f.op)
    if spec is not None:
        return spec["fit"] is not None
    return f.op in _STATEFUL_UNARY or f.op.startswith("gbt_") or f.op == "target_encode"


def _partial_for(f: Feature, cols: dict, fitted: Fitted, cache: dict):
    op = f.op
    if op.startswith("gbt_") or op == "target_encode":
        v = _eval_node(f.parents[0], cols, fitted, cache)
        k = _eval_node(f.parents[1], cols, fitted, cache)
        uniq, inv = np.unique(k, return_inverse=True)
        nk = len(uniq)
        nan = np.isnan(v)
        cnt = np.bincount(inv, weights=(~nan).astype(np.float64), minlength=nk)
        vz = np.where(nan, 0.0, v)
        s = np.bincount(inv, weights=vz, minlength=nk)
        ss = np.bincount(inv, weights=vz * vz, minlength=nk)
        vmax = np.full(nk, -np.inf)
        np.fmax.at(vmax, inv, np.where(nan, -np.inf, v))
        vmin = np.full(nk, np.inf)
        np.fmin.at(vmin, inv, np.where(nan, np.inf, v))
        prod = np.ones(nk)
        with np.errstate(over="ignore"):  # nanprod overflows to inf, as in the reference
            np.multiply.at(prod, inv, np.where(nan, 1.0, v))
        return ("gbt", uniq, cnt, s, ss, vmin, vmax, prod)
    p = _eval_node(f.parents[0], cols, fitted, cache)
    nan = np.isnan(p)
    pv = p[~nan]
    if op == "impute_mode":
        vals, counts = np.unique(pv, return_counts=True)
        return ("counts", vals, counts)
    if op == "boxcox":
        from ..functions.kernels import _boxcox_partial

        return ("boxcox",) + _boxcox_partial(pv)
    if op == "yeojohnson":
        from ..functions.kernels import _yeojohnson_partial

        return ("boxcox",) + _yeojohnson_partial(pv)
    if op in ("impute_median", "winsor", "robust", "ranknorm", "qcut"):
        # all fit through the mergeable weighted-value sketch. The
        # quantile-EDGE fits (winsor/robust/qcut/ranknorm) are compared
        # against exact SQL percentile_disc/cume_dist oracles, so they
        # get a 16x larger per-partial cap: exact while a block stays
        # under 64k distinct values (covers every test sf; lineitem
        # blocks at sf0.1 carry 10k-37k distinct prices, past the 4k
        # default), bounded rank error ~n_block/65536 beyond.
        k = 16 * _QUANT_K if op != "impute_median" else None
        return ("quant",) + _quant_partial(pv, k)
    n = len(pv)
    return (
        "scalar",
        n,
        float(pv.sum()) if n else 0.0,
        float((pv**2).sum()) if n else 0.0,
        float(pv.min()) if n else np.inf,
        float(pv.max()) if n else -np.inf,
    )


_QUANT_K = 4096  # weighted points per batch partial for the median sketch


def _quant_partial(pv: np.ndarray, k: int = None) -> tuple:
    """Mergeable weighted-value summary of a batch: exact value/count
    table when distinct <= k (default _QUANT_K), else k rank-uniform
    points (deterministic; each carries its rank-segment's weight)."""
    k = k or _QUANT_K
    vals, counts = np.unique(pv, return_counts=True)
    if len(vals) <= k:
        return (vals, counts.astype(np.float64))
    cw = np.cumsum(counts)
    total = cw[-1]
    # segment boundaries at uniform ranks; point = value at segment end
    bounds = np.linspace(0, total, k + 1)[1:]
    idx = np.searchsorted(cw, bounds, side="left")
    idx = np.minimum(idx, len(vals) - 1)
    w = np.diff(np.concatenate(([0.0], cw[idx])))
    keep = w > 0
    return (vals[idx][keep], w[keep])


def _merge_quant(parts) -> tuple[np.ndarray, np.ndarray]:
    vals = np.concatenate([p[1] for p in parts])
    w = np.concatenate([p[2] for p in parts])
    order = np.argsort(vals, kind="stable")
    return vals[order], w[order]


def _weighted_median(vals: np.ndarray, w: np.ndarray) -> float:
    """np.nanmedian semantics on an expanded multiset: the mean of the
    order statistics at 0-based ranks floor((N-1)/2) and floor(N/2)."""
    if len(vals) == 0:
        return float("nan")  # all-NULL input: median is NULL (np.nanmedian / SQL)
    cw = np.cumsum(w)
    total = cw[-1]
    lo_rank, hi_rank = (total - 1) / 2.0, total / 2.0
    lo = vals[np.searchsorted(cw, lo_rank, side="right")]
    hi = vals[np.searchsorted(cw, hi_rank, side="right")]
    return float((lo + hi) / 2.0)


def _merge_scalar(parts):
    n = sum(p[1] for p in parts)
    s = sum(p[2] for p in parts)
    ss = sum(p[3] for p in parts)
    mn = min(p[4] for p in parts)
    mx = max(p[5] for p in parts)
    return n, s, ss, mn, mx


def _merge_gbt(parts):
    keys = np.unique(np.concatenate([p[1] for p in parts]))
    nk = len(keys)
    cnt = np.zeros(nk)
    s = np.zeros(nk)
    ss = np.zeros(nk)
    mn = np.full(nk, np.inf)
    mx = np.full(nk, -np.inf)
    prod = np.ones(nk)
    with np.errstate(over="ignore"):
        for p in parts:
            idx = np.searchsorted(keys, p[1])
            cnt[idx] += p[2]
            s[idx] += p[3]
            ss[idx] += p[4]
            mn[idx] = np.fmin(mn[idx], p[5])
            mx[idx] = np.fmax(mx[idx], p[6])
            prod[idx] *= p[7]
    return keys, cnt, s, ss, mn, mx, prod


def _merge_boxcox(parts):
    n = sum(p[1] for p in parts)
    slog = sum(p[2] for p in parts)
    s_vec = np.sum([p[3] for p in parts], axis=0)
    ss_vec = np.sum([p[4] for p in parts], axis=0)
    return n, slog, s_vec, ss_vec


def _merge_counts(parts):
    vals = np.unique(np.concatenate([p[1] for p in parts]))
    counts = np.zeros(len(vals))
    for p in parts:
        counts[np.searchsorted(vals, p[1])] += p[2]
    return vals, counts


def _finalize(f: Feature, merged) -> tuple:
    from ..functions.expr import DISCRETIZE_BINS

    op = f.op
    if op == "impute_mode":
        vals, counts = merged
        return (float(vals[np.argmax(counts)]) if len(vals) else 0.0,)
    if op in ("boxcox", "yeojohnson"):
        from ..functions.kernels import _boxcox_best_lambda

        return (_boxcox_best_lambda(*merged),)
    if op == "target_encode":
        keys, cnt, s, ss, mn, mx, prod = merged
        (m,) = f.params or (20.0,)
        gm = float(s.sum() / max(cnt.sum(), 1.0))
        return (keys, (s + m * gm) / (cnt + m), gm)
    if op.startswith("gbt_"):
        agg = op[4:]
        keys, cnt, s, ss, mn, mx, prod = merged
        safe = np.maximum(cnt, 1)
        mean = s / safe
        if agg == "count":
            vals = cnt
        elif agg == "sum":
            vals = s
        elif agg == "prod":
            vals = prod
        elif agg == "min":
            vals = mn
        elif agg == "max":
            vals = mx
        elif agg == "mean":
            vals = mean
        else:  # std / var — population, matching np.nanstd
            var = np.maximum(ss / safe - mean**2, 0.0)
            vals = var if agg == "var" else np.sqrt(var)
        return (keys, vals)
    if op == "impute_median":
        vals, w = merged
        return (_weighted_median(vals, w),)
    if op == "ranknorm":
        vals, w = merged  # sorted, possibly duplicated across partials:
        # cumulative weights make searchsorted(side='right') exact anyway
        return (vals, np.cumsum(w).astype(np.float64))
    if op == "qcut":
        vals, w = merged
        (b,) = f.params or (10,)
        if len(vals) == 0:
            return (np.array([]),)
        cw = np.cumsum(w)
        total = cw[-1]
        edges = [
            float(vals[np.searchsorted(cw, max(np.ceil(k / b * total), 1.0), side="left")])
            for k in range(1, b)
        ]
        return (np.asarray(edges, dtype=np.float64),)
    if op in ("winsor", "robust"):
        vals, w = merged
        if len(vals) == 0:
            return (float("nan"),) * (3 if op == "robust" else 2)
        q_lo, q_hi = f.params or (0.05, 0.95)
        cw = np.cumsum(w)
        total = cw[-1]

        def disc(q: float) -> float:
            # percentile_disc: value at 1-based rank ceil(q*N)
            r = max(np.ceil(q * total), 1.0)
            return float(vals[np.searchsorted(cw, r, side="left")])

        if op == "robust":
            return (disc(0.5), disc(0.25), disc(0.75))
        return (disc(q_lo), disc(q_hi))
    n, s, ss, mn, mx = merged
    if op == "minmax":
        return (mn, mx)
    if op == "zscore":
        mean = s / max(n, 1)
        var = max(ss / max(n, 1) - mean**2, 0.0)
        return (mean, float(np.sqrt(var)))
    if op == "impute_mean":
        return (s / max(n, 1),)
    if op == "discretize":
        from ..functions.expr import DISCRETIZE_BINS as B

        return (np.linspace(mn, mx, B + 1)[1:-1],)
    raise ValueError(op)


def fit_distributed(
    features: list[Feature],
    ds,
    *,
    y_col: str | None = None,
    sample_for_unmergeable=None,
    fitted: Fitted | None = None,
    input_cols: list[str] | None = None,
) -> Fitted:
    """Fit all stateful nodes of `features` by streaming passes over `ds`.

    `sample_for_unmergeable`: (cols, y) in-memory sample — or a zero-arg
    callable returning one, invoked only if actually needed — used for
    mdlp / custom ops, whose fit state is not a mergeable aggregate.

    `input_cols`: the dataset's column names, if the caller knows them.
    Without it we fall back to ds.schema() — which for a lazy map_batches
    lineage EXECUTES the upstream pipeline to discover the schema (a full
    extra pass; 29s at 3M rows in bench) — so hot paths must pass it.
    """
    fitted = dict(fitted or {})
    depth_cache: dict = {}
    nodes: dict[str, Feature] = {}
    for root in features:
        for f in root.walk():
            if _is_stateful(f) and f.name not in fitted:
                nodes[f.name] = f
    if not nodes:
        return fitted

    # prune at the read: only the raw columns the trees actually touch
    # (token-stat columns not yet materialized are derived per batch from
    # `tokens` inside the pass)
    needed = sorted(
        {f.params[0] for root in features for f in root.walk() if f.op == "raw"}
    )
    if input_cols is not None:
        have = set(input_cols)
    else:
        schema = ds.schema(fetch_if_missing=False)
        have = set(schema.names) if schema is not None else set(ds.schema().names)
    from .token_stats import TOKEN_STAT_COLS

    keep = [c for c in needed if c in have]
    if any(c not in have for c in needed):
        missing = [c for c in needed if c not in have]
        assert all(c in TOKEN_STAT_COLS for c in missing), missing
        keep.append("tokens")
    if set(keep) < have:
        ds = ds.select_columns(sorted(set(keep)))

    max_depth = max(_stateful_depth(nodes[n], depth_cache) for n in nodes)
    for level in range(1, max_depth + 1):
        level_nodes = [
            f
            for n, f in nodes.items()
            if _stateful_depth(f, depth_cache) == level and n not in fitted
        ]
        if not level_nodes:
            continue
        from ..functions.expr import CUSTOM_OPS, registry_snapshot

        mergeable = [
            f
            for f in level_nodes
            if not (
                f.op == "mdlp"  # supervised, needs y -> sample path
                or f.op in CUSTOM_OPS  # custom fits are opaque -> sample path
                or (f.op.startswith("gbt_") and f.op[4:] not in _MERGEABLE_GBT)
            )
        ]
        unmergeable = [f for f in level_nodes if f not in mergeable]

        if mergeable:
            plans = mergeable
            state = dict(fitted)
            ops_snapshot = registry_snapshot()

            def part_batch(
                batch: pa.Table, _plans=plans, _state=state, _needed=needed, _ops=ops_snapshot
            ) -> pa.Table:
                from ..functions.expr import install_registry
                from .token_stats import numpy_base_columns

                install_registry(_ops)  # per-process registry (worker side)
                cols = numpy_base_columns(batch, _needed)
                cache: dict = {}
                parts = {f.name: _partial_for(f, cols, _state, cache) for f in _plans}
                return pa.table({"blob": pa.array([pickle.dumps(parts)], type=pa.binary())})

            rows = ds.map_batches(
                part_batch, batch_format="pyarrow", batch_size=None
            ).take_all()
            all_parts: dict[str, list] = {f.name: [] for f in plans}
            # take_all returns partials in task completion order; float
            # merges are order-sensitive, so merge in blob order to fit
            # the same values (and plan fingerprint) on every rerun
            for r in sorted(rows, key=lambda r: r["blob"]):
                for name, p in pickle.loads(r["blob"]).items():
                    all_parts[name].append(p)
            for f in plans:
                parts = all_parts[f.name]
                kind = parts[0][0]
                merged = (
                    _merge_gbt(parts)
                    if kind == "gbt"
                    else _merge_counts(parts)
                    if kind == "counts"
                    else _merge_quant(parts)
                    if kind == "quant"
                    else _merge_boxcox(parts)
                    if kind == "boxcox"
                    else _merge_scalar(parts)
                )
                fitted[f.name] = _finalize(f, merged)

        if unmergeable:
            if sample_for_unmergeable is None:
                raise ValueError(
                    f"nodes {[f.name for f in unmergeable]} need sample_for_unmergeable"
                )
            from ..functions.kernels import fit_on_arrays

            # a callable defers sample generation to first actual need —
            # the common mergeable-only run never pays for it
            if callable(sample_for_unmergeable):
                sample_for_unmergeable = sample_for_unmergeable()
            cols, y = sample_for_unmergeable
            fitted = fit_on_arrays(unmergeable, cols, y=y, fitted=fitted)
    return fitted
