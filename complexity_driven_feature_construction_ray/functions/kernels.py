"""Vectorized kernels: compile feature expressions to numpy over column dicts.

Semantics mirror the reference transformations exactly (so the numpy
oracle / allclose parity holds):
- add/mul are np.nansum/np.nanprod across the two operand columns
  (reference HigherOrderCommutativeTransformation.py:17-18)
- sub/div are np.subtract/np.divide (reference
  binary/NonCommutativeBinaryTransformation.py:15-29)
- minmax/zscore fit min,max / mean,std on the TRAIN fold only and apply
  everywhere (reference MinMaxScalingTransformation.py:21-39,
  StandardScalingTransformation.py:21-26 — population std, sklearn-style)
- discretize: 10 equal-width bins from train min/max, labels 0..9,
  NaN -> -1 (reference PandasDiscretizerTransformation.py:23-34)
- mdlp: supervised entropy/MDL cut points fit on the train fold
  (reference mdlp_discretization/MDLP.py, re-implemented from the
  published MDLP recipe, not copied)
- impute_mean: train-fold nanmean fills NaN (reference ImputationTransformation.py:35-50)
- onehot: (x == value) as float, unseen value -> zeros
  (reference OneHotTransformation.py:31-40)
- gbt_<agg>: fit = per-key aggregate over the train fold; transform =
  broadcast the aggregate back to every row by key; unseen key -> NaN
  (reference FastGroupByThenTransformation.py:23-40)

State is a plain dict {node_name: state_tuple} so it can be ray.put()
once and shared by every backfill actor.
"""

from __future__ import annotations

import numpy as np

from .expr import Feature, DISCRETIZE_BINS

Cols = dict[str, np.ndarray]
Fitted = dict[str, tuple]


# ---------------------------------------------------------------------------
# group-by helpers (vectorized; no Python loop over rows)


def _group_reduce(agg: str, values: np.ndarray, keys: np.ndarray):
    """Per-key reduction -> (sorted unique keys, aggregate per key)."""
    uniq, inv = np.unique(keys, return_inverse=True)
    k = len(uniq)
    if agg == "count":
        return uniq, np.bincount(inv, minlength=k).astype(np.float64)
    order = np.argsort(inv, kind="stable")
    sv = values[order]
    sk = inv[order]
    starts = np.searchsorted(sk, np.arange(k))
    bounds = np.append(starts, len(sv))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        if agg == "sum":
            out = np.add.reduceat(np.nan_to_num(sv), starts)
        elif agg == "prod":
            out = np.multiply.reduceat(np.nan_to_num(sv, nan=1.0), starts)
        elif agg == "max":
            out = np.fmax.reduceat(sv, starts)
        elif agg == "min":
            out = np.fmin.reduceat(sv, starts)
        elif agg in ("mean", "std", "var"):
            cnt = np.diff(bounds) - np.add.reduceat(np.isnan(sv).astype(np.int64), starts)
            cnt = np.maximum(cnt, 1)
            s = np.add.reduceat(np.nan_to_num(sv), starts)
            mean = s / cnt
            if agg == "mean":
                out = mean
            else:
                ss = np.add.reduceat(np.nan_to_num(sv) ** 2, starts)
                var = np.maximum(ss / cnt - mean**2, 0.0)  # population (np.nanstd)
                out = var if agg == "var" else np.sqrt(var)
        elif agg == "median":
            out = np.empty(k)
            for i in range(k):  # k = #distinct keys (small by applicability bound)
                out[i] = np.nanmedian(sv[bounds[i] : bounds[i + 1]])
        else:
            raise ValueError(agg)
    return uniq, out


def _group_lookup(keys: np.ndarray, fit_keys: np.ndarray, fit_vals: np.ndarray) -> np.ndarray:
    """Broadcast per-key aggregates back onto rows; unseen key -> NaN."""
    idx = np.searchsorted(fit_keys, keys)
    idx = np.clip(idx, 0, len(fit_keys) - 1)
    hit = fit_keys[idx] == keys
    out = np.where(hit, fit_vals[idx], np.nan)
    return out.astype(np.float64)


# ---------------------------------------------------------------------------
# MDLP (Fayyad & Irani 1993 entropy/MDL discretization) — compact numpy form


def _entropy(counts: np.ndarray) -> np.ndarray:
    """Shannon entropy (bits) of each row of a (m, k) class-count
    matrix. Terms add left to right, the order in which numpy sums a
    vector of fewer than 8 values, so a row's entropy is bit-equal to
    summing its nonzero terms alone."""
    with np.errstate(divide="ignore", invalid="ignore"):
        p = counts / counts.sum(axis=1, keepdims=True)
        t = np.where(counts > 0, p * np.log2(p), 0.0)
    h = t[:, 0]
    for j in range(1, t.shape[1]):
        h = h + t[:, j]
    return -h


def _mdlp_cuts(x: np.ndarray, y: np.ndarray, max_depth: int = 6) -> list[float]:
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    classes = np.unique(ys)
    cuts: list[float] = []

    def rec(lo: int, hi: int, depth: int):
        if hi - lo < 4 or depth >= max_depth:
            return
        seg_x, seg_y = xs[lo:hi], ys[lo:hi]
        n = hi - lo
        # candidate boundaries: where x changes value
        change = np.nonzero(np.diff(seg_x) > 0)[0] + 1
        if len(change) == 0:
            return
        onehot_y = seg_y[:, None] == classes[None, :]
        cum = np.cumsum(onehot_y, axis=0)
        total = cum[-1]
        # class-weighted entropy of every boundary at once; argmin keeps
        # the first of equal minima
        left = cum[change - 1]
        e = (change / n) * _entropy(left) + ((n - change) / n) * _entropy(total - left)
        j = int(np.argmin(e))
        best, best_i = e[j], int(change[j])
        left, right = cum[best_i - 1], total - cum[best_i - 1]
        ent, ent_l, ent_r = _entropy(np.stack([total, left, right]))
        gain = ent - best
        k = (total > 0).sum()
        k1, k2 = (left > 0).sum(), (right > 0).sum()
        delta = np.log2(3.0**k - 2.0) - (k * ent - k1 * ent_l - k2 * ent_r)
        if gain <= (np.log2(n - 1) + delta) / n:
            return
        cut = (seg_x[best_i - 1] + seg_x[best_i]) / 2.0
        cuts.append(float(cut))
        rec(lo, lo + best_i, depth + 1)
        rec(lo + best_i, hi, depth + 1)

    rec(0, len(xs), 0)
    if not cuts:
        raise ValueError("MDLP found no cut point")  # reference raises too
    return sorted(cuts)


def _quantiles_disc(p: np.ndarray, qs: tuple) -> tuple:
    """Discrete quantiles, SQL percentile_disc semantics: the value at
    1-based rank ceil(q*n) of the sorted non-NaN values. One sort for
    any number of quantiles."""
    sv = np.sort(p[~np.isnan(p)])
    n = len(sv)
    if n == 0:
        return tuple(float("nan") for _ in qs)
    return tuple(float(sv[max(int(np.ceil(q * n)) - 1, 0)]) for q in qs)


def _winsor_bounds_exact(p: np.ndarray, q: tuple) -> tuple[float, float]:
    return _quantiles_disc(p, q)


# Box-Cox lambda grid: (i - 10)/5 for i in 0..20 — the same arithmetic
# as the SQL oracle's grid expression so the IEEE values are identical.
BOXCOX_LAMBDAS = (np.arange(21, dtype=np.float64) - 10.0) / 5.0


def _boxcox_partial(pv: np.ndarray) -> tuple:
    """Mergeable Box-Cox fit partial over strictly-positive values:
    (n, sum(ln x), per-lambda sum(y), per-lambda sum(y^2))."""
    n = len(pv)
    if n == 0:
        z = np.zeros(len(BOXCOX_LAMBDAS))
        return 0, 0.0, z, z.copy()
    slog = float(np.log(pv).sum())
    lams = BOXCOX_LAMBDAS
    with np.errstate(all="ignore"):
        Y = (np.power(pv[:, None], lams[None, :]) - 1.0) / lams[None, :]
        Y[:, lams == 0.0] = np.log(pv)[:, None]
    return n, slog, Y.sum(axis=0), (Y * Y).sum(axis=0)


def _yj_transform(x: np.ndarray, lam: float) -> np.ndarray:
    """Yeo-Johnson transform at a fixed lambda (NaN propagates)."""
    out = np.full_like(x, np.nan, dtype=np.float64)
    pos = x >= 0  # False for NaN -> stays NaN
    neg = x < 0
    with np.errstate(all="ignore"):
        if lam == 0.0:
            out[pos] = np.log1p(x[pos])
        else:
            out[pos] = (np.power(x[pos] + 1.0, lam) - 1.0) / lam
        l2 = 2.0 - lam
        if l2 == 0.0:
            out[neg] = -np.log1p(-x[neg])
        else:
            out[neg] = -(np.power(1.0 - x[neg], l2) - 1.0) / l2
    return out


def _yeojohnson_partial(pv: np.ndarray) -> tuple:
    """Mergeable Yeo-Johnson fit partial: (n, sum(sign(x)·ln(|x|+1)),
    per-lambda sum(y), per-lambda sum(y^2)). The LL profile has the
    same -n/2·ln σ² + (λ-1)·C shape as Box-Cox, so the argmax reuses
    _boxcox_best_lambda."""
    n = len(pv)
    if n == 0:
        z = np.zeros(len(BOXCOX_LAMBDAS))
        return 0, 0.0, z, z.copy()
    slog = float(np.sum(np.sign(pv) * np.log1p(np.abs(pv))))
    s_vec = np.empty(len(BOXCOX_LAMBDAS))
    ss_vec = np.empty(len(BOXCOX_LAMBDAS))
    for j, lam in enumerate(BOXCOX_LAMBDAS):
        y = _yj_transform(pv, float(lam))
        s_vec[j] = y.sum()
        ss_vec[j] = (y * y).sum()
    return n, slog, s_vec, ss_vec


def _boxcox_best_lambda(n: int, slog: float, s_vec: np.ndarray, ss_vec: np.ndarray) -> float:
    """Profile log-likelihood argmax over the grid; ascending grid +
    first-max ties = smallest lambda, matching ORDER BY ll DESC, lam."""
    if n == 0:
        return 1.0  # identity-shaped default on empty fit input
    mean = s_vec / n
    var = ss_vec / n - mean * mean
    with np.errstate(divide="ignore", invalid="ignore"):
        ll = -n / 2.0 * np.log(var) + (BOXCOX_LAMBDAS - 1.0) * slog
    ll = np.where(np.isfinite(ll), ll, -np.inf)
    return float(BOXCOX_LAMBDAS[int(np.argmax(ll))])


# ---------------------------------------------------------------------------
# fit / evaluate


def _eval_node(f: Feature, cols: Cols, fitted: Fitted, cache: dict) -> np.ndarray:
    key = f.name
    if key in cache:
        return cache[key]
    out = _eval_inner(f, cols, fitted, cache)
    cache[key] = out
    return out


def _eval_inner(f: Feature, cols: Cols, fitted: Fitted, cache: dict) -> np.ndarray:
    op = f.op
    if op == "raw":
        arr = cols[f.params[0]]
        if f.params[1] == "numeric":
            return np.asarray(arr, dtype=np.float64)
        return np.asarray(arr)
    if op == "onehot":
        p = _eval_node(f.parents[0], cols, fitted, cache)
        return (p == f.params[0]).astype(np.float64)
    if op.startswith("gbt_"):
        v = _eval_node(f.parents[0], cols, fitted, cache)
        k = _eval_node(f.parents[1], cols, fitted, cache)
        fit_keys, fit_vals = fitted[f.name]
        return _group_lookup(k, fit_keys, fit_vals)
    if op == "target_encode":
        k = _eval_node(f.parents[1], cols, fitted, cache)
        fit_keys, fit_vals, gm = fitted[f.name]
        out = _group_lookup(k, fit_keys, fit_vals)
        return np.where(np.isnan(out), gm, out)  # unseen key -> global mean
    args = [_eval_node(p, cols, fitted, cache) for p in f.parents]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if op == "minus":
            return -args[0]
        if op == "reciprocal":
            return 1.0 / args[0]
        if op == "log":
            return np.log(args[0])
        if op == "boxcox":
            (lam,) = fitted[f.name]
            x = args[0]
            return np.log(x) if lam == 0.0 else (np.power(x, lam) - 1.0) / lam
        if op == "yeojohnson":
            (lam,) = fitted[f.name]
            return _yj_transform(args[0], lam)
        if op == "minmax":
            mn, mx = fitted[f.name]
            rng = mx - mn
            if rng == 0:
                return np.zeros_like(args[0])
            return (args[0] - mn) / rng
        if op == "zscore":
            mean, std = fitted[f.name]
            if std == 0:
                return np.zeros_like(args[0])
            return (args[0] - mean) / std
        if op in ("impute_mean", "impute_median", "impute_mode"):
            (val,) = fitted[f.name]
            return np.where(np.isnan(args[0]), val, args[0])
        if op == "winsor":
            lo, hi = fitted[f.name]
            return np.clip(args[0], lo, hi)  # NaN propagates through clip
        if op == "robust":
            med, q25, q75 = fitted[f.name]
            iqr = q75 - q25
            if iqr == 0 or np.isnan(iqr):
                return np.zeros_like(args[0])
            return (args[0] - med) / iqr
        if op == "ranknorm":
            vals, cw = fitted[f.name]
            x = args[0]
            if len(vals) == 0:
                return np.full_like(x, np.nan)
            idx = np.searchsorted(vals, x, side="right")
            total = cw[-1]
            cdf = np.where(idx > 0, cw[np.maximum(idx, 1) - 1] / total, 0.0)
            return np.where(np.isnan(x), np.nan, cdf)
        if op == "npfun":
            return getattr(np, f.params[0])(args[0]).astype(np.float64)
        if op == "dummy_one":
            return np.ones_like(args[0], dtype=np.float64)
        if op == "discretize":
            # right-closed bins, matching pd.cut (reference
            # PandasDiscretizerTransformation.py:23-34); out-of-range clips
            (edges,) = fitted[f.name]
            out = np.digitize(args[0], edges, right=True).astype(np.float64)
            out = np.clip(out, 0, DISCRETIZE_BINS - 1)
            out[np.isnan(args[0])] = -1.0
            return out
        if op == "qcut":
            (edges,) = fitted[f.name]
            out = np.digitize(args[0], edges, right=True).astype(np.float64)
            out[np.isnan(args[0])] = -1.0
            return out
        if op == "mdlp":
            (cuts,) = fitted[f.name]
            out = np.digitize(args[0], cuts, right=True).astype(np.float64)
            out[np.isnan(args[0])] = -1.0
            return out
        if op == "add":
            return np.nansum(np.stack(args), axis=0)
        if op == "mul":
            return np.nanprod(np.stack(args), axis=0)
        if op == "sub":
            return np.subtract(args[0], args[1])
        if op == "div":
            return np.divide(args[0], args[1])
        from .expr import CUSTOM_OPS

        if op in CUSTOM_OPS:
            state = fitted.get(f.name)
            return np.asarray(
                CUSTOM_OPS[op]["kernel"](args, f, state), dtype=np.float64
            )
    raise ValueError(op)


def fit_on_arrays(
    features: list[Feature],
    cols: Cols,
    y: np.ndarray | None = None,
    fitted: Fitted | None = None,
    cache: dict | None = None,
) -> Fitted:
    """Fit every stateful node of the given trees on in-memory train columns.

    Train-fold-only semantics: pass the TRAIN slice of the columns; apply
    the returned state to any fold via `evaluate`.

    A given `fitted` is the shared state to fit into: nodes already in it
    are kept, new ones are added to it in place, and it is returned. A
    given `cache` holds node outputs over these same `cols` (as
    `evaluate` fills it) and is shared the same way, so a later call
    reuses the parent outputs an earlier one computed.
    """
    fitted = {} if fitted is None else fitted
    cache = {} if cache is None else cache
    for root in features:
        for f in root.walk():
            if f.name in fitted:
                continue
            op = f.op
            if op in ("minmax", "zscore", "impute_mean", "impute_median", "impute_mode", "discretize", "mdlp", "winsor", "robust", "ranknorm", "qcut", "boxcox", "yeojohnson"):
                p = _eval_node(f.parents[0], cols, fitted, cache)
                with np.errstate(all="ignore"):
                    if op == "minmax":
                        fitted[f.name] = (np.nanmin(p), np.nanmax(p))
                    elif op == "zscore":
                        fitted[f.name] = (np.nanmean(p), np.nanstd(p))
                    elif op == "impute_mean":
                        fitted[f.name] = (np.nanmean(p),)
                    elif op == "impute_median":
                        fitted[f.name] = (np.nanmedian(p),)
                    elif op == "impute_mode":
                        vals, counts = np.unique(p[~np.isnan(p)], return_counts=True)
                        # ties -> smallest value (sklearn most_frequent)
                        fitted[f.name] = (vals[np.argmax(counts)] if len(vals) else 0.0,)
                    elif op == "discretize":
                        mn, mx = np.nanmin(p), np.nanmax(p)
                        edges = np.linspace(mn, mx, DISCRETIZE_BINS + 1)[1:-1]
                        fitted[f.name] = (edges,)
                    elif op == "winsor":
                        fitted[f.name] = _winsor_bounds_exact(p, f.params or (0.05, 0.95))
                    elif op == "robust":
                        med, q25, q75 = _quantiles_disc(p, (0.5, 0.25, 0.75))
                        fitted[f.name] = (med, q25, q75)
                    elif op == "boxcox":
                        pv = p[~np.isnan(p)]
                        n, slog, s_vec, ss_vec = _boxcox_partial(pv)
                        fitted[f.name] = (_boxcox_best_lambda(n, slog, s_vec, ss_vec),)
                    elif op == "yeojohnson":
                        pv = p[~np.isnan(p)]
                        n, slog, s_vec, ss_vec = _yeojohnson_partial(pv)
                        fitted[f.name] = (_boxcox_best_lambda(n, slog, s_vec, ss_vec),)
                    elif op == "ranknorm":
                        vals, counts = np.unique(p[~np.isnan(p)], return_counts=True)
                        fitted[f.name] = (vals, np.cumsum(counts).astype(np.float64))
                    elif op == "qcut":
                        (b,) = f.params or (10,)
                        sv = np.sort(p[~np.isnan(p)])
                        n = len(sv)
                        if n == 0:
                            fitted[f.name] = (np.array([]),)
                        else:
                            ranks = [
                                max(int(np.ceil(k / b * n)) - 1, 0)
                                for k in range(1, b)
                            ]
                            fitted[f.name] = (sv[ranks].astype(np.float64),)
                    elif op == "mdlp":
                        if y is None:
                            raise ValueError("mdlp requires y")
                        mask = ~np.isnan(p)
                        fitted[f.name] = (np.asarray(_mdlp_cuts(p[mask], y[mask])),)
            elif op.startswith("gbt_"):
                v = _eval_node(f.parents[0], cols, fitted, cache)
                k = _eval_node(f.parents[1], cols, fitted, cache)
                fitted[f.name] = _group_reduce(op[4:], v, k)
            elif op == "target_encode":
                v = _eval_node(f.parents[0], cols, fitted, cache)
                k = _eval_node(f.parents[1], cols, fitted, cache)
                uniq, s = _group_reduce("sum", v, k)
                _, cnt = _group_reduce("count", v, k)
                (m,) = f.params or (20.0,)
                ok = ~np.isnan(v)
                gm = float(v[ok].sum() / max(ok.sum(), 1))
                fitted[f.name] = (uniq, (s + m * gm) / (cnt + m), gm)
            else:
                from .expr import CUSTOM_OPS

                spec = CUSTOM_OPS.get(op)
                if spec is not None and spec["fit"] is not None:
                    parents = [_eval_node(p, cols, fitted, cache) for p in f.parents]
                    fitted[f.name] = spec["fit"](parents, y)
    return fitted


def evaluate(f: Feature, cols: Cols, fitted: Fitted, cache: dict | None = None) -> np.ndarray:
    """Materialize one feature column (float64) over the given columns."""
    return _eval_node(f, cols, fitted, cache if cache is not None else {})


def compile_many(features: list[Feature], fitted: Fitted):
    """Batch evaluator: cols dict -> dict of feature-name -> float64 array.

    Shares the per-batch node cache across features (common subexpressions
    are computed once per batch)."""

    def run(cols: Cols) -> dict[str, np.ndarray]:
        cache: dict = {}
        return {f.name: _eval_node(f, cols, fitted, cache) for f in features}

    return run
