"""FairExp layer: context-conditional fairness measures + SFFS repair.

Re-creates the reference's fairness layer (reference new_project/
fairexp.py, fmeasures/ROD.py:62-176, fmeasures/CDP.py:30-70,
fmeasures/CTPB.py:31-73) Ray-Data-first:

- The fairness measures are GROUPED AGGREGATES: one
  ds.groupby(context, sensitive).aggregate(count, sum(pred), ...) pass
  produces a tiny per-(context, group) table; the context-weighted
  combine (odds ratios, rate gaps) is driver-side on that table — the
  reference instead materializes the whole frame and loops Python-side
  over unique contexts (ROD.py:95-141).
- SFFS repair (sequential floating forward selection,
  fairexp.py:299-420) is a driver loop; the floating-elimination
  fan-out — the reference's mp.Pool (fairexp.py:361-366) — runs as
  parallel Ray tasks over a broadcast feature matrix (search.Broadcast),
  and the speculative variant (fairexp_optimistic.py:356-460) evaluates
  the next k additions in parallel, accepting the first improvement.
  One subset's k fold models and its full-sample model are fitted in
  one batched solve (`model.grid_fit_score`), for SFFS and NSGA-II.

Semantics per measure (exact reference behavior):
- ROD (ROD.py:101-141): per context z, with _0 = rows where
  sensitive != protected and _1 = rows where sensitive == protected,
  p_1_s = mean(pred) (0.5 when the side is empty in z);
  OR_z = (p_1_0/p_0_0) * (p_0_1/p_1_1); non-finite OR_z dropped
  (with its weight); ROD = -|sum_z w_z OR_z - 1|, w_z = n_z / N.
- CDP / CTPB / CTNB (CDP.py:30-70, CTPB.py:31-73): per context,
  max-min gap of the group metric (selection rate / TPR / TNR),
  skipping contexts with < 2 distinct sensitive values present;
  result = sum_z gap_z * n_z / N (N = all rows).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .model import _standardize, grid_fit_score, stratified_folds


# ---------------------------------------------------------------------------
# distributed grouped aggregate -> tiny per-(context, group) table


def fairness_groups(
    ds,
    *,
    ctx_cols: list[str],
    sens_col: str,
    pred_col: str,
    y_col: str | None = None,
) -> pd.DataFrame:
    """One shuffle: (context..., sensitive) -> counts and pred/y sums.

    Output columns: ctx_cols..., sens, n, sum_pred [, n_pos, sum_pred_pos,
    n_neg, sum_negpred_neg] — everything every measure below needs."""
    from ray.data.aggregate import Count, Sum

    def project(batch: pa.Table) -> pa.Table:
        cols = {c: batch[c] for c in (*ctx_cols, sens_col)}
        pred = batch[pred_col].to_numpy(zero_copy_only=False).astype(np.float64)
        cols["__pred"] = pa.array(pred)
        if y_col is not None:
            y = batch[y_col].to_numpy(zero_copy_only=False).astype(np.float64)
            cols["__pos"] = pa.array((y > 0).astype(np.float64))
            cols["__pred_pos"] = pa.array(np.where(y > 0, pred, 0.0))
            cols["__neg"] = pa.array((y <= 0).astype(np.float64))
            cols["__negpred_neg"] = pa.array(np.where(y <= 0, 1.0 - pred, 0.0))
        return pa.table(cols)

    aggs = [Count(alias_name="n"), Sum("__pred", alias_name="sum_pred")]
    if y_col is not None:
        aggs += [
            Sum("__pos", alias_name="n_pos"),
            Sum("__pred_pos", alias_name="sum_pred_pos"),
            Sum("__neg", alias_name="n_neg"),
            Sum("__negpred_neg", alias_name="sum_negpred_neg"),
        ]
    out = (
        ds.map_batches(project, batch_format="pyarrow")
        .groupby([*ctx_cols, sens_col])
        .aggregate(*aggs)
    )
    return out.to_pandas()


# ---------------------------------------------------------------------------
# driver-side combines (operate on the tiny grouped table)


def rod_from_groups(
    groups: pd.DataFrame, *, ctx_cols: list[str], sens_col: str, protected
) -> float:
    n_total = groups["n"].sum()
    rods, weights = [], []
    for _, g in groups.groupby(ctx_cols, sort=False):
        prot = g[g[sens_col] == protected]
        nonp = g[g[sens_col] != protected]
        p_1_0 = nonp["sum_pred"].sum() / nonp["n"].sum() if nonp["n"].sum() > 0 else 0.5
        p_1_1 = prot["sum_pred"].sum() / prot["n"].sum() if prot["n"].sum() > 0 else 0.5
        p_0_0, p_0_1 = 1.0 - p_1_0, 1.0 - p_1_1
        with np.errstate(divide="ignore", invalid="ignore"):
            odds = (p_1_0 / p_0_0) * (p_0_1 / p_1_1)
        if np.isfinite(odds):
            rods.append(odds)
            weights.append(g["n"].sum() / n_total)
    if not rods:
        return 0.0
    return float(-abs(np.dot(rods, weights) - 1.0))


def conditional_gap_from_groups(
    groups: pd.DataFrame, *, ctx_cols: list[str], sens_col: str, kind: str = "cdp"
) -> float:
    """kind: cdp (selection rate) / ctpb (TPR) / ctnb (TNR)."""
    n_total = groups["n"].sum()
    total = 0.0
    for _, g in groups.groupby(ctx_cols, sort=False):
        if g[sens_col].nunique() < 2:
            continue
        if kind == "cdp":
            rates = g["sum_pred"] / g["n"]
        elif kind == "ctpb":
            rates = g["sum_pred_pos"] / g["n_pos"]
        elif kind == "ctnb":
            rates = g["sum_negpred_neg"] / g["n_neg"]
        else:
            raise ValueError(kind)
        rates = rates[np.isfinite(rates)]
        if len(rates) < 2:
            continue
        total += (rates.max() - rates.min()) * (g["n"].sum() / n_total)
    return float(total)


def rod_measure(ds, *, ctx_cols, sens_col, pred_col, protected) -> float:
    g = fairness_groups(ds, ctx_cols=ctx_cols, sens_col=sens_col, pred_col=pred_col)
    return rod_from_groups(g, ctx_cols=ctx_cols, sens_col=sens_col, protected=protected)


def gap_measure(ds, *, ctx_cols, sens_col, pred_col, y_col=None, kind="cdp") -> float:
    g = fairness_groups(
        ds, ctx_cols=ctx_cols, sens_col=sens_col, pred_col=pred_col, y_col=y_col
    )
    return conditional_gap_from_groups(g, ctx_cols=ctx_cols, sens_col=sens_col, kind=kind)


# ---------------------------------------------------------------------------
# in-memory ROD (used inside the SFFS scoring loop, reference
# fairexp.py:257-296 computes ROD per evaluation on the train sample)


def rod_arrays(pred: np.ndarray, sensitive: np.ndarray, contexts: np.ndarray, protected) -> float:
    df = pd.DataFrame({"__s": sensitive, "__p": np.asarray(pred, dtype=np.float64)})
    ctx_cols = []
    contexts = np.atleast_2d(np.asarray(contexts))
    if contexts.shape[0] == len(pred):
        contexts = contexts.T
    for i, col in enumerate(contexts):
        df[f"__c{i}"] = col
        ctx_cols.append(f"__c{i}")
    groups = (
        df.groupby([*ctx_cols, "__s"], sort=False)
        .agg(n=("__p", "size"), sum_pred=("__p", "sum"))
        .reset_index()
    )
    return rod_from_groups(groups, ctx_cols=ctx_cols, sens_col="__s", protected=protected)


# ---------------------------------------------------------------------------
# filters (reference fairexp.py:107-134, 192-196)


def drop_nan_inf(ds, cols: list[str]):
    """Drop rows where any of `cols` is NaN/Inf (fairexp.py:192-196)."""

    def f(batch: pa.Table) -> pa.Table:
        mask = np.ones(len(batch), dtype=bool)
        for c in cols:
            v = batch[c].to_numpy(zero_copy_only=False).astype(np.float64)
            mask &= np.isfinite(v)
        return batch.filter(pa.array(mask))

    return ds.map_batches(f, batch_format="pyarrow", batch_size=None)


def duplicate_columns(X: np.ndarray, names: list[str]) -> list[str]:
    """Names of columns whose byte content already appeared (the exact
    version of the reference's Bloom-filter column dedup,
    fairexp.py:107-116 — exact is affordable at plan level)."""
    seen: set[bytes] = set()
    dups = []
    for j, name in enumerate(names):
        key = np.ascontiguousarray(X[:, j]).tobytes()
        if key in seen:
            dups.append(name)
        else:
            seen.add(key)
    return dups


def mutual_information(x: np.ndarray, y: np.ndarray, bins: int = 10) -> float:
    """Histogram MI(x; y) in nats for the keep-MI>0 prefilter
    (fairexp.py:117-126 uses sklearn mutual_info_classif; this is the
    plain histogram estimator — same keep/drop contract)."""
    x = np.asarray(x, dtype=np.float64)
    finite = np.isfinite(x)
    x, y = x[finite], np.asarray(y)[finite]
    if len(x) == 0 or x.min() == x.max():
        return 0.0
    xb = np.digitize(x, np.linspace(x.min(), x.max(), bins + 1)[1:-1])
    joint = pd.crosstab(xb, y).to_numpy().astype(np.float64)
    pxy = joint / joint.sum()
    px = pxy.sum(axis=1, keepdims=True)
    py = pxy.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = pxy * np.log(pxy / (px @ py))
    return float(np.nansum(terms))


# ---------------------------------------------------------------------------
# SFFS repair (reference fairexp.py:299-420 phase 1 + floating step;
# speculative width per fairexp_optimistic.py:356-460)


def _eval_subset(ctx, names_sel: list[str]) -> tuple[float, float]:
    """(CV-f1, ROD) of one feature subset; `ctx` is the repair call's
    broadcast (X, names, y, fold, sensitive, contexts, protected,
    max_iter). The k fold models, whose test predictions give the
    CV-f1, and the full-sample model, whose train predictions give the
    ROD, are fitted at C=1 in one `grid_fit_score` solve."""
    X, all_names, y, fold, sens, ctx_cols, protected, max_iter = ctx
    Xs = X[:, [all_names.index(n) for n in names_sel]]
    tests = [fold == f for f in range(int(fold.max()) + 1)]
    slices = []
    for te in tests:
        Xtr, Xte = _standardize(Xs[~te], Xs[te])
        slices.append((Xtr, y[~te], Xte, y[te]))
    Xall, _ = _standardize(Xs, Xs)
    slices.append((Xall, y, Xall, y))
    pred = grid_fit_score(slices, (1.0,), max_iter)[2][0, :, 0] >= 0.5
    preds = np.empty(len(y), dtype=np.int8)
    for f, te in enumerate(tests):
        preds[te] = pred[f, : te.sum()]
    tp = int(((preds == 1) & (y == 1)).sum())
    fp = int(((preds == 1) & (y == 0)).sum())
    fn = int(((preds == 0) & (y == 1)).sum())
    denom = 2 * tp + fp + fn
    acc = 2 * tp / denom if denom else 0.0
    return acc, rod_arrays(pred[-1, : len(y)], sens, ctx_cols, protected)


def _eval_mask(ctx, mask: np.ndarray) -> tuple[float, float, float]:
    names = ctx[1]
    acc, fair = _eval_subset(ctx, [names[i] for i in np.flatnonzero(mask)])
    return acc, fair, float(-mask.sum())


def fairexp_lifecycle(
    n_rows: int,
    *,
    sample_rows: int = 1500,
    c_max: int = 2,
    seed: int = 42,
    protected="web",
    mi_threshold: float = 0.0,
    causal_filter=None,
    use_ray: bool = True,
    speculative: int = 0,
    strategy: str = "sffs",
) -> dict:
    """The reference's full FairExp run (fairexp.py:87-197 + 299-511):
    sample -> complexity-driven search -> duplicate-column + MI (+
    optional causal hook) prefilter -> full-table distributed backfill
    -> NaN/Inf row drop -> SFFS repair on the sample.

    `causal_filter(name, x, y, sensitive) -> bool` is the pluggable
    stand-in for the reference's R/bnlearn d-separation check
    (causality/causal_filter.py:3-19): the engine preserves the
    interface (a per-candidate boolean), not the R subprocess.
    """
    from ..sources.token_table import TOKEN_TABLE_SCHEMA, token_table_dataset
    from ..stages.backfill import backfill_dataset
    from ..stages.fit import fit_distributed
    from ..stages.token_stats import TOKEN_STAT_COLS, token_stats_dataset
    from .flagship import search_sample
    from .search import ComplexityDrivenSearch
    from ..functions.expr import raw
    from ..functions.kernels import evaluate, fit_on_arrays

    # 1. search on the seeded sample
    cols, y = search_sample(sample_rows, seed=seed)
    base = [
        raw("n_tok", properties={"min": 1.0, "max": 512.0, "has_zero": False, "distinct": 512}),
        raw("tok_mean", properties={"min": float(cols["tok_mean"].min()), "max": float(cols["tok_mean"].max()), "has_zero": False}),
        raw("tok_std", properties={"min": 0.0, "max": float(cols["tok_std"].max()), "has_zero": True}),
        raw("source", "categorical", {"distinct": 5, "values": ["books", "chat", "code", "web", "wiki"]}),
    ]
    search = ComplexityDrivenSearch(c_max=c_max, epsilon=0.0, use_ray=use_ray, lr_max_iter=15)
    res = search.run(cols, y, base)
    constructed = sorted(
        (s.feature for s in res.all_scored.values() if s.feature.op != "minus"),
        key=lambda f: (f.complexity, f.name),
    )

    # 2. prefilter on the sample: exact duplicate columns, MI > threshold,
    #    optional causal hook (fairexp.py:105-134)
    mem_fitted = fit_on_arrays(constructed, cols, y=y)
    cache: dict = {}
    mat = {f.name: evaluate(f, cols, mem_fitted, cache) for f in constructed}
    names = [f.name for f in constructed]
    X = np.column_stack([mat[n] for n in names])
    dropped_dup = set(duplicate_columns(X, names))
    kept, dropped_mi, dropped_causal = [], [], []
    for f in constructed:
        if f.name in dropped_dup:
            continue
        if mutual_information(mat[f.name], y) <= mi_threshold:
            dropped_mi.append(f.name)
            continue
        if causal_filter is not None and not causal_filter(
            f.name, mat[f.name], y, cols["source"]
        ):
            dropped_causal.append(f.name)
            continue
        kept.append(f)

    # 3. full-table distributed fit + backfill + NaN/Inf drop
    ds = token_stats_dataset(token_table_dataset(n_rows, seed=seed))
    fitted = fit_distributed(
        kept,
        ds,
        input_cols=[*TOKEN_TABLE_SCHEMA.names, *TOKEN_STAT_COLS],
        sample_for_unmergeable=(cols, y),
    )
    out = backfill_dataset(ds, kept, fitted)
    feature_cols = [f.name for f in kept if f.op != "raw"]
    out = drop_nan_inf(out, feature_cols)

    # 4. selection on the sample's backfilled columns: SFFS repair
    #    (default) or the NSGA-II evolutionary strategy
    sel_names = sorted(f.name for f in kept)
    Xs = np.column_stack([mat[n] for n in sel_names])
    ctx = np.digitize(cols["n_tok"], [64.0, 128.0, 256.0])
    if strategy == "nsga2":
        evo = nsga2_search(
            Xs, sel_names, y, sensitive=cols["source"], contexts=ctx,
            protected=protected, use_ray=use_ray, generations=8, seed=seed,
        )
        best = evo["front"][0]
        repair = {
            "selected": best["selected"],
            "acc": best["acc"],
            "fair": best["fair"],
            "pareto": [(r["selected"], r["acc"], r["fair"]) for r in evo["front"]],
        }
    else:
        repair = sffs_repair(
            Xs, sel_names, y, sensitive=cols["source"], contexts=ctx,
            protected=protected, use_ray=use_ray, speculative=speculative,
        )
    return {
        "dataset": out,
        "constructed": names,
        "dropped_dup": sorted(dropped_dup),
        "dropped_mi": dropped_mi,
        "dropped_causal": dropped_causal,
        "backfilled": sel_names,
        "selected": repair["selected"],
        "acc": repair["acc"],
        "fair": repair["fair"],
        "pareto": repair["pareto"],
    }


def sffs_repair(
    X: np.ndarray,
    names: list[str],
    y: np.ndarray,
    *,
    sensitive: np.ndarray,
    contexts: np.ndarray,
    protected,
    cv: int = 5,
    seed: int = 42,
    max_iter: int = 25,
    use_ray: bool = True,
    speculative: int = 0,
) -> dict:
    """Phase-1 SFFS: add features in the given (complexity) order; accept
    an addition iff CV-f1 improves; on every improvement try the parallel
    floating eliminations and accept the best one that does not reduce
    f1. Returns selected names + the registered (names, acc, fair) log +
    the (acc, fairness) Pareto front (fairexp.py:235-254).

    speculative > 1 enables the optimistic variant
    (fairexp_optimistic.py:356-460): the next `speculative` additions
    are evaluated together (in parallel with `use_ray`) and the FIRST
    improving one (in order) is accepted; later speculative results are
    logged but not accepted (they were evaluated against the
    pre-acceptance set). Width 1 is plain SFFS. The answer does not
    depend on `use_ray`."""
    from .search import Broadcast

    y = np.asarray(y).astype(np.int8)
    fold = stratified_folds(y, cv, seed)
    shared = Broadcast(
        (X, names, y, fold, sensitive, contexts, protected, max_iter), use_ray=use_ray
    )
    width = max(1, speculative)

    current: list[str] = []
    explored: set[tuple] = set()
    registered: list[tuple] = []
    best_acc, best_fair = 0.0, 0.0

    def floating_eliminate():
        nonlocal best_acc, best_fair, current
        cands = []
        if len(current) > 1:
            for z in current:
                sub = tuple(sorted(c for c in current if c != z))
                if sub not in explored:
                    cands.append(list(sub))
        if not cands:
            return
        results = shared.map(_eval_subset, cands)
        for c, (a, fr) in zip(cands, results):
            explored.add(tuple(c))
            registered.append((c, a, fr))
        accs = [r[0] for r in results]
        bi = int(np.argmax(accs))
        if accs[bi] >= best_acc:
            best_acc, best_fair = results[bi]
            current = sorted(cands[bi])

    i = 0
    while i < len(names):
        # the next `width` unexplored additions, evaluated together
        batch: list[tuple[int, list[str]]] = []
        j = i
        while j < len(names) and len(batch) < width:
            if names[j] not in current:
                trial = sorted([*current, names[j]])
                if tuple(trial) not in explored:
                    batch.append((j, trial))
            j += 1
        if not batch:
            i = j
            continue
        results = shared.map(_eval_subset, [t for _, t in batch])
        accepted = None
        for (jj, trial), (acc, fair) in zip(batch, results):
            explored.add(tuple(trial))
            registered.append((trial, acc, fair))
            if accepted is None and acc > best_acc:
                accepted = (jj, trial, acc, fair)
        if accepted is None:
            i = j
            continue
        jj, trial, acc, fair = accepted
        best_acc, best_fair = acc, fair
        current = trial
        floating_eliminate()
        i = jj + 1

    # Pareto front over (acc, fairness) — fairexp.py:235-254
    front = []
    for i, (sel_i, a_i, f_i) in enumerate(registered):
        dominated = any(
            (a_j >= a_i and f_j >= f_i and (a_j > a_i or f_j > f_i))
            for j, (_, a_j, f_j) in enumerate(registered)
            if j != i
        )
        if not dominated:
            front.append((sel_i, a_i, f_i))
    return {
        "selected": current,
        "acc": best_acc,
        "fair": best_fair,
        "registered": registered,
        "pareto": sorted(front, key=lambda r: (-r[1], -r[2], r[0])),
    }


# ---------------------------------------------------------------------------
# NSGA-II evolutionary search (reference new_project/evolutionary.py:39-239)


def _fast_non_dominated_sort(F: np.ndarray) -> list[np.ndarray]:
    """Fronts of row indices for a MAXIMIZED objective matrix (n, m)."""
    n = len(F)
    dominates = np.zeros((n, n), dtype=bool)
    for i in range(n):
        ge = (F[i] >= F).all(axis=1)
        gt = (F[i] > F).any(axis=1)
        dominates[i] = ge & gt
    dom_count = dominates.sum(axis=0)  # how many dominate i
    fronts = []
    remaining = np.ones(n, dtype=bool)
    while remaining.any():
        front = np.flatnonzero(remaining & (dom_count == 0))
        if len(front) == 0:  # numerical safety: dump the rest
            front = np.flatnonzero(remaining)
        fronts.append(front)
        remaining[front] = False
        dom_count = dom_count - dominates[front].sum(axis=0)
    return fronts


def _crowding_distance(F: np.ndarray) -> np.ndarray:
    n, m = F.shape
    d = np.zeros(n)
    for j in range(m):
        order = np.argsort(F[:, j], kind="stable")
        d[order[0]] = d[order[-1]] = np.inf
        span = F[order[-1], j] - F[order[0], j]
        if span > 0 and n > 2:
            d[order[1:-1]] += (F[order[2:], j] - F[order[:-2], j]) / span
    return d


def nsga2_search(
    X: np.ndarray,
    names: list[str],
    y: np.ndarray,
    *,
    sensitive: np.ndarray,
    contexts: np.ndarray,
    protected,
    cv: int = 5,
    seed: int = 42,
    max_iter: int = 25,
    pop_size: int | None = None,
    generations: int = 20,
    crossover_rate: float = 0.9,
    use_ray: bool = True,
) -> dict:
    """NSGA-II multi-objective feature selection over binary masks
    (reference new_project/evolutionary.py:39-239, there via pymoo
    NSGA2; pymoo is not available here, so the algorithm is
    re-implemented: fast non-dominated sort + crowding-distance
    elitism, binary tournament selection, one-point crossover at 0.9,
    bitflip mutation p=1/n_features, duplicate elimination). Objectives
    MAXIMIZE (cv_f1, ROD fairness, -n_selected) — evolutionary.py:
    76-80 objective_() returns [f1, rod, -sum(mask)]. Population
    defaults to ceil(sqrt(n_features)) as in evolutionary.py:196
    (floored at 8 so tiny feature sets still explore). Mask
    evaluations fan out as Ray tasks per generation over a broadcast
    matrix; all-zero masks get one random bit set, as in the
    reference's _evaluate (:169-173). Deterministic under `seed`.
    Returns the final non-dominated front."""
    from .search import Broadcast

    y = np.asarray(y).astype(np.int8)
    fold = stratified_folds(y, cv, seed)
    n_var = len(names)
    rng = np.random.default_rng(seed)
    pop_n = pop_size or max(8, int(np.ceil(np.sqrt(n_var))))
    p_mut = 1.0 / n_var

    cache: dict[tuple, tuple[float, float, float]] = {}

    def fix(mask: np.ndarray) -> np.ndarray:
        if not mask.any():
            mask = mask.copy()
            mask[rng.integers(n_var)] = True
        return mask

    shared = Broadcast(
        (X, names, y, fold, sensitive, contexts, protected, max_iter), use_ray=use_ray
    )

    def evaluate_all(masks: list[np.ndarray]) -> np.ndarray:
        uniq = {tuple(m): m for m in masks if tuple(m) not in cache}
        if uniq:
            cache.update(zip(uniq, shared.map(_eval_mask, list(uniq.values()))))
        return np.array([cache[tuple(m)] for m in masks])

    # unique initial population (duplicate elimination applies from
    # generation 0, not only to children — a duplicate mask in the
    # elite pool would waste slots for the whole run)
    pop: list[np.ndarray] = []
    seen0: set = set()
    attempts0 = 0
    while len(pop) < pop_n and attempts0 < 50 * pop_n:
        attempts0 += 1
        m = fix(rng.random(n_var) < 0.5)
        if tuple(m) in seen0:
            continue
        seen0.add(tuple(m))
        pop.append(m)
    F = evaluate_all(pop)
    for _ in range(generations):
        fronts = _fast_non_dominated_sort(F)
        rank = np.empty(len(pop), dtype=np.int64)
        for r, fr in enumerate(fronts):
            rank[fr] = r
        crowd = np.zeros(len(pop))
        for fr in fronts:
            crowd[fr] = _crowding_distance(F[fr])

        def tournament() -> np.ndarray:
            a, b = rng.integers(len(pop), size=2)
            if (rank[a], -crowd[a]) <= (rank[b], -crowd[b]):
                return pop[a]
            return pop[b]

        children: list[np.ndarray] = []
        seen = {tuple(m) for m in pop}
        attempts = 0
        while len(children) < pop_n and attempts < 20 * pop_n:
            attempts += 1
            p1, p2 = tournament(), tournament()
            if rng.random() < crossover_rate and n_var > 1:
                cut = int(rng.integers(1, n_var))
                c = np.concatenate([p1[:cut], p2[cut:]])
            else:
                c = p1.copy()
            flip = rng.random(n_var) < p_mut
            c = fix(np.logical_xor(c, flip))
            if tuple(c) in seen:  # eliminate duplicates (evolutionary.py:200)
                continue
            seen.add(tuple(c))
            children.append(c)
        if not children:
            break
        Fc = evaluate_all(children)
        combined = pop + children
        Fall = np.vstack([F, Fc])
        fronts = _fast_non_dominated_sort(Fall)
        next_idx: list[int] = []
        for fr in fronts:
            if len(next_idx) + len(fr) <= pop_n:
                next_idx.extend(fr.tolist())
            else:
                cd = _crowding_distance(Fall[fr])
                order = np.argsort(-cd, kind="stable")
                next_idx.extend(fr[order][: pop_n - len(next_idx)].tolist())
                break
        pop = [combined[i] for i in next_idx]
        F = Fall[next_idx]

    final = _fast_non_dominated_sort(F)[0]
    front = []
    for i in final:
        sel = sorted(names[j] for j in np.flatnonzero(pop[i]))
        front.append({"selected": sel, "acc": float(F[i, 0]), "fair": float(F[i, 1]),
                      "n_features": int(-F[i, 2])})
    front.sort(key=lambda r: (-r["acc"], -r["fair"], r["n_features"], r["selected"]))
    return {"front": front, "evaluated": len(cache)}
