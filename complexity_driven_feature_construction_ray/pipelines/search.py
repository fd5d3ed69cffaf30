"""Complexity-driven candidate search (the engine proper).

Re-creates the reference's layered breadth-first search by complexity
budget (reference feature_selection/ComplexityDrivenFeatureConstruction.py:
381-685) Ray-Data-first:

- plan enumeration, sympy dedup, ε-gate, Pareto/AICc selection are
  driver-side (O(candidates), tiny — SURVEY.md §1.5: "the data is big,
  the plan is small")
- candidate SCORING is the heavy stage and fans out as Ray tasks over
  one broadcast context (`Broadcast`): the scoring sample, fold ids and
  target are `ray.put` once per run and deserialized once per worker
  process (replacing the reference's fork-globals mp.Pool,
  run_evaluation.py:433-452 / my_globale_module.py:1-18). Tasks, not a
  dedicated actor pool: actor startup costs more than the scoring
  (stages/backfill.py has the measured gap). On a one-CPU cluster no
  task could run beside another, so `Broadcast` scores in-process
- scoring is incremental (`ScoringContext`): each process memoizes
  every node's per-fold fitted state and train/test outputs by name,
  so a child fits and evaluates only its top node on its parents'
  outputs, as the reference builds children from parent fold caches
  (run_evaluation.py:278-285). The memo keeps the raws and survivors
  (the possible parents) and drops the rest at each new layer
- one task scores `score_batch` candidates, and fits all of their
  C × fold (× one-vs-rest head) problems in one batched Newton solve
  (`model.cv_grid_scores`)
- the re-scoring passes slice and fit the same way. `ScoringContext`
  alone fits and evaluates feature trees: `multiple_cv_rescore` scores
  as the search does; nested CV and the side metrics train on each
  fold's own standardized train outputs (`fold_slices`), as the
  reference's passes do. `model.grid_fit_score` is the only model fit

Evaluation semantics per candidate mirror run_evaluation.py:247-398:
per-fold fit of stateful nodes on the train slice only, transform of
the test slice, grid-searched CV accuracy; constant-feature kill
(:287-290); exact value-dedup via a content hash of the per-fold
outputs (:292-298); the ε-pruning gate keeps a candidate iff its score
improves on the best parent by more than epsilon, with raw and one-hot
features always passing (:370-371). A candidate whose kernel or CV step
raises is dropped alone (:401-414).
"""

from __future__ import annotations

import functools
import hashlib
import pickle
import time
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, permutations

import numpy as np

from ..functions.expr import (
    BINARY_OPS,
    Feature,
    UNARY_OPS,
    binary,
    groupbythen,
    install_registry,
    is_applicable,
    onehot,
    registry_snapshot,
    unary,
)
from ..functions.kernels import evaluate, fit_on_arrays
from ..functions.sympy_rules import canonical_key, canonical_sympy, is_constant_expr
from .model import C_GRID, _standardize, cv_grid_scores, cv_slices, grid_fit_score, stratified_folds

DEFAULT_GBT_AGGS = ("max", "min", "mean", "std")  # reference feature_space/division.py:41-56

# The default producer (get_transformation_for_division, reference
# candidate_generation/feature_space/division.py:23-56): MinMaxScaling,
# MDLP-discretize (supervised), 1/x, -1*x, log, mean-impute; binary
# nansum/nanprod; GroupByThen{max,min,mean,std}. OneHot candidates are
# generated separately from categorical raws (as in the reference).
DIVISION_OPS = dict(
    unary_ops=("minmax", "mdlp", "reciprocal", "minus", "log", "impute_mean"),
    binary_ops=("add", "mul"),
    gbt_aggs=("max", "min", "mean", "std"),
)

# ExploreKit-style producer (get_transformation_for_feature_space,
# reference feature_space/explorekit_transformations.py:19-41):
# equal-width discretize(10) + MinMaxScaling; binary nansum/nanprod +
# divide/subtract; same GroupByThen family.
EXPLOREKIT_OPS = dict(
    unary_ops=("discretize", "minmax"),
    binary_ops=("add", "mul", "div", "sub"),
    gbt_aggs=("max", "min", "mean", "std"),
)

# TreeGenerator's hard-coded transformation set (reference
# candidate_generation/TreeGenerator.py:66-84): discretize(10) +
# MinMaxScaling; nansum/nanprod; divide/subtract; GroupByThen
# {max,min,mean,std} — the same families as the ExploreKit space.
TREE_OPS = dict(EXPLOREKIT_OPS)

# candidates per scoring task, and per batched CV solve
SCORE_BATCH = 4


@dataclass
class Scored:
    feature: Feature
    score: float
    best_C: float
    loglik: float
    name: str = ""
    side: dict | None = None  # AIC/BIC/consistency, see candidate_side_metrics

    def __post_init__(self):
        self.name = self.feature.name

    @property
    def complexity(self) -> int:
        return self.feature.complexity


@dataclass
class SearchResult:
    survivors: dict[int, list[Scored]]
    all_scored: dict[str, Scored]
    best: Scored
    pareto: list[Scored]
    aicc_selected: Scored
    stats: dict = field(default_factory=dict)

    def all_representations(self) -> list[Feature]:
        return [s.feature for layer in self.survivors.values() for s in layer]


class ScoringContext:
    """What every candidate of one search, or of one rescore split, is
    scored against: the sample columns, the labels, one fold split, the
    C grid and the Newton budget; and the per-fold memo.

    The memo holds, for each fold, every node's fitted state and its
    train and test outputs, keyed by node name. A candidate fits and
    evaluates only its top node, on its parents' memoized outputs; a node
    missing from the memo (a parent this process has not met yet) is
    computed through the same path and memoized. The outputs are the ones
    a per-fold refit of the whole tree computes, so scores do not change.
    The memo is built lazily in the process that scores and is never
    pickled with the context; `retain` keeps it to the possible parents.
    """

    def __init__(self, cols, y, fold, c_grid, max_iter: int):
        self.cols, self.y, self.fold = cols, y, fold
        self.c_grid, self.max_iter = c_grid, max_iter
        self._folds: list[tuple] | None = None
        self._layer = None

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_folds": None, "_layer": None}

    def _memo(self) -> list[tuple]:
        """Per fold: (train cols, test cols, train labels, test mask,
        fitted state, train outputs, test outputs)."""
        if self._folds is None:
            self._folds = []
            for f in range(int(self.fold.max()) + 1):
                tr = self.fold != f
                self._folds.append((
                    {c: v[tr] for c, v in self.cols.items()},
                    {c: v[~tr] for c, v in self.cols.items()},
                    self.y[tr], ~tr, {}, {}, {},
                ))
        return self._folds

    def retain(self, keep) -> None:
        """`keep` is (layer, names) or None. The first call of a new
        layer drops every memo entry whose name is not in `names`: the
        raws and survivors, the only possible parents of the layer's
        candidates."""
        if keep is None or keep[0] == self._layer:
            return
        layer, names = keep
        for *_, state, train, test in self._folds or ():
            for memo in (state, train, test):
                for name in [n for n in memo if n not in names]:
                    del memo[name]
        self._layer = layer

    def column(self, feat: Feature) -> tuple[np.ndarray, str]:
        """The feature's out-of-fold column (each fold's test rows from a
        fit on its train rows) and a content hash of its per-fold
        outputs."""
        col = np.empty(len(self.y), dtype=np.float64)
        hasher = hashlib.blake2b(digest_size=16)
        for cols_tr, cols_te, y_tr, te, state, train, test in self._memo():
            fit_on_arrays([feat], cols_tr, y=y_tr, fitted=state, cache=train)
            out = evaluate(feat, cols_te, state, test)
            col[te] = out
            hasher.update(np.round(np.nan_to_num(out, nan=-1e18), 10).tobytes())
        return col, hasher.hexdigest()

    def fold_slices(self, feat: Feature, *, skip_one_label: bool = False) -> list[tuple]:
        """Per fold, the feature's standardized (X_train, y_train, X_test,
        y_test, test_mask). The model trains on the fold's own train
        outputs, as the reference's re-scoring passes do; the search
        instead trains on the out-of-fold column (`cv_slices` of
        `column`). With `skip_one_label`, a fold whose train labels hold
        one label is left out before anything is fitted on it."""
        out = []
        for cols_tr, cols_te, y_tr, te, state, train, test in self._memo():
            if skip_one_label and y_tr.min() == y_tr.max():
                continue
            fit_on_arrays([feat], cols_tr, y=y_tr, fitted=state, cache=train)
            x_tr = evaluate(feat, cols_tr, state, train)[:, None]
            x_te = evaluate(feat, cols_te, state, test)[:, None]
            Xtr, Xte = _standardize(
                np.nan_to_num(x_tr, nan=0.0, posinf=0.0, neginf=0.0),
                np.nan_to_num(x_te, nan=0.0, posinf=0.0, neginf=0.0),
            )
            out.append((Xtr, y_tr, Xte, self.y[te], te))
        return out

    def score(self, feats: list[Feature]) -> list[tuple]:
        """(score, best_C, loglik, vhash, const) per feature. The
        non-constant features are fitted in one batched solve
        (`cv_grid_scores`). A feature whose kernel or CV step raises is
        dropped alone (reference run_evaluation.py:401-414
        evaluate_catch): it is marked constant so the driver discards
        it."""
        out: list = [None] * len(feats)
        pending = []
        for i, f in enumerate(feats):
            try:
                col, vhash = self.column(f)
                finite = col[np.isfinite(col)]
                if len(finite) == 0 or finite.min() == finite.max():
                    out[i] = (0.0, 1.0, -np.inf, vhash, True)
                else:
                    pending.append((i, vhash, cv_slices(col, self.y, self.fold)))
            except Exception:
                out[i] = _dropped(f)
        for (i, vhash, _), r in zip(pending, self._solve([p[2] for p in pending])):
            out[i] = _dropped(feats[i]) if r is None else (*r, vhash, False)
        return out

    def _solve(self, slice_sets: list) -> list:
        """`cv_grid_scores` of every set; None for a set whose solve
        raises. When the joint solve raises, each set is solved alone."""
        try:
            return cv_grid_scores(slice_sets, self.c_grid, self.max_iter)
        except Exception:
            if len(slice_sets) <= 1:
                return [None] * len(slice_sets)
            return [r for s in slice_sets for r in self._solve([s])]


def _dropped(feat: Feature) -> tuple:
    return (0.0, 1.0, -np.inf, f"error:{feat.name}", True)


def _chunks(items: list, n: int) -> list[list]:
    return [items[i : i + n] for i in range(0, len(items), n)]


_WORKER_CTX: dict = {}  # this worker process's broadcast context, by ref


def _resolve_ctx(wrapped_ref):
    """Resolve a broadcast context through the per-worker-process cache:
    ONE deserialization per worker, however many tasks land on it.
    `wrapped_ref` is a 1-tuple so Ray does not auto-resolve the ObjectRef
    before the task body runs. The cache keeps the latest context only:
    an earlier one, and the scoring memo it carries, is dead weight once
    its call has returned (two calls interleaving on one worker stay
    correct, and only deserialize and memoize again)."""
    import ray

    (ref,) = wrapped_ref
    key = ref.hex()
    ctx = _WORKER_CTX.get(key)
    if ctx is None:
        _WORKER_CTX.clear()
        ctx = _WORKER_CTX[key] = pickle.loads(ray.get(ref))
    return ctx


def _map_item(fn, wrapped_ref, registry, item):
    install_registry(registry)
    return fn(_resolve_ctx(wrapped_ref), item)


@functools.cache
def _map_task():
    import ray

    return ray.remote(num_cpus=1)(_map_item)


class Broadcast:
    """A context shared by every item of one search, rescore or repair
    call, and the fan-out over it.

    `map(fn, items)` returns `[fn(ctx, item) for item in items]`. With
    `use_ray`, more than one item and a cluster of more than one CPU, it
    runs one Ray task per item; the context is `ray.put` once, on the
    first such map, and later maps reuse it. Otherwise it runs
    in-process: one item would run nothing in parallel, and neither
    would tasks on a one-CPU cluster, which would only add their
    overhead. The cluster's CPU count is read once per `Broadcast`. `fn`
    must be a module-level function: it travels by reference. Each task
    installs the driver's op-registry snapshot before it runs."""

    def __init__(self, ctx, *, use_ray: bool = True):
        self.ctx = ctx
        self.use_ray = use_ray
        self._ref = None
        self._cpus = None

    def _parallel(self) -> bool:
        import ray

        if self._cpus is None:
            if not ray.is_initialized():
                ray.init()
            self._cpus = ray.cluster_resources().get("CPU", 0)
        return self._cpus > 1

    def map(self, fn, items) -> list:
        items = list(items)
        if not self.use_ray or len(items) <= 1 or not self._parallel():
            return [fn(self.ctx, item) for item in items]
        import ray

        if self._ref is None:
            self._ref = ray.put(pickle.dumps(self.ctx))
        registry = registry_snapshot()
        task = _map_task()
        return ray.get([task.remote(fn, (self._ref,), registry, item) for item in items])


def _score_chunk(ctx: ScoringContext, item) -> list[tuple]:
    feats, keep = item
    ctx.retain(keep)
    return ctx.score(feats)


def multiple_cv_rescore(
    features: list[Feature],
    cols,
    y,
    *,
    repeats: int = 5,
    cv: int = 5,
    seed: int = 42,
    c_grid=None,
    max_iter: int = 25,
    use_ray: bool = True,
) -> dict[str, tuple[float, float]]:
    """Repeated-CV re-scoring of (top-k) candidates — the reference's
    multiple-CV stabilization pass (reference evaluation/
    multiple_cv_scikit.py): each candidate scored under `repeats`
    different stratified fold splits; returns name -> (mean, std) of the
    per-repeat scores. Scoring is the search's: one `ScoringContext`
    (and so one memo) per repeat's split, one task per (repeat,
    `SCORE_BATCH` candidates) with one batched solve each. A candidate
    that fails to score counts 0.0 for that repeat."""
    c_grid = tuple(c_grid or C_GRID)
    y = np.asarray(y).astype(np.int8)
    splits = tuple(
        ScoringContext(cols, y, stratified_folds(y, cv, seed + r), c_grid, max_iter)
        for r in range(repeats)
    )
    items = [(r, chunk) for r in range(repeats) for chunk in _chunks(features, SCORE_BATCH)]
    shared = Broadcast(splits, use_ray=use_ray)
    by_name: dict[str, list[float]] = {}
    for (_r, chunk), scores in zip(items, shared.map(_repeat_chunk, items)):
        for f, s in zip(chunk, scores):
            by_name.setdefault(f.name, []).append(s[0])
    return {
        name: (float(np.mean(v)), float(np.std(v))) for name, v in by_name.items()
    }


def _repeat_chunk(splits, item) -> list[tuple]:
    r, feats = item
    return splits[r].score(feats)


def _nested_cv_one(
    feat: Feature, outer: ScoringContext, inner: list[ScoringContext]
) -> tuple[float, float]:
    """Nested CV for one candidate (reference evaluation/
    nested_cv_scikit.py:run_nested_cross_validation, ~64-107): for each
    outer test fold t, the other folds rotate as validation to pick C by
    mean accuracy (`inner[t]`: the rows outside fold t); the model
    (feature fit + LR) then refits on all non-test rows and scores the
    held-out test fold (`outer`). The inner grids and the outer refits,
    every C of each, are fitted in one `grid_fit_score` solve; each
    problem converges on its own, so the outer refits not read leave
    the ones read unchanged. Returns (mean, std) of the per-test-fold
    scores."""
    slices, owner = [], []
    for t, ctx in enumerate(inner):
        got = ctx.fold_slices(feat, skip_one_label=True)
        slices += got
        owner += [t] * len(got)
    n_inner = len(slices)
    slices += outer.fold_slices(feat)
    c_grid = outer.c_grid
    acc = grid_fit_score([s[:4] for s in slices], c_grid, outer.max_iter)[0]
    owner = np.asarray(owner)
    outer_scores = []
    for t in range(len(inner)):
        per_c = acc[:, :n_inner][:, owner == t]
        best = max(range(len(c_grid)), key=lambda c: np.mean(per_c[c]) if per_c.shape[1] else -1.0)
        outer_scores.append(float(acc[best, n_inner + t]))
    return float(np.mean(outer_scores)), float(np.std(outer_scores))


def nested_cv_rescore(
    features: list[Feature],
    cols,
    y,
    *,
    cv: int = 5,
    seed: int = 42,
    c_grid=None,
    max_iter: int = 25,
    use_ray: bool = True,
) -> dict[str, tuple[float, float]]:
    """Nested-CV re-scoring of (top-k) candidates — the reference's
    nested_cv pass (evaluation/nested_cv_scikit.py; there with 20 outer
    folds, here parameterized). One task per candidate over one
    broadcast of `ScoringContext`s, whose memos every candidate of a
    process shares: the outer split, and per outer test fold the split
    of the rows outside it (fold ids renumbered to stay contiguous).
    Returns name -> (mean, std) of outer-fold scores."""
    c_grid = tuple(c_grid or C_GRID)
    y = np.asarray(y).astype(np.int8)
    fold = stratified_folds(y, cv, seed)
    inner = []
    for t in range(int(fold.max()) + 1):
        rows = fold != t
        sub = fold[rows]
        inner.append(ScoringContext(
            {c: v[rows] for c, v in cols.items()}, y[rows], np.where(sub > t, sub - 1, sub),
            c_grid, max_iter,
        ))
    shared = Broadcast((ScoringContext(cols, y, fold, c_grid, max_iter), inner), use_ray=use_ray)
    return {f.name: r for f, r in zip(features, shared.map(_nested_one, features))}


def _nested_one(ctx, feat: Feature) -> tuple[float, float]:
    try:
        return _nested_cv_one(feat, *ctx)
    except Exception:
        # a candidate whose refit fails on some slice (e.g. MDLP finding
        # no cut) scores (0.0, 0.0), as in the reference's except branch
        # (nested_cv_scikit.py:107-110) — never aborts the pass
        return (0.0, 0.0)


def candidate_side_metrics(
    feat: Feature, cols, y, fold, best_C: float = 1.0, max_iter: int = 25
) -> dict:
    """Per-candidate side metrics (reference evaluation/
    run_evaluation.py:85-138 + 196-204): out-of-fold probability
    predictions at the candidate's best C give an RSS, from which AIC /
    AICc / BIC are computed on BOTH k definitions — k=1 (feature count
    of the single constructed column, `*_k1`) and k=expression
    complexity (`*_kc`) — plus the label-consistency ratio
    (calculate_consistency, :118-138): the fraction of rows whose
    feature value maps to a single label. The labels must be binary."""
    y = np.asarray(y).astype(np.int8)
    return _side_metrics(ScoringContext(cols, y, fold, None, max_iter), feat, best_C)


def _side_metrics(ctx: ScoringContext, feat: Feature, best_C: float) -> dict:
    """`candidate_side_metrics` over `ctx`'s split and memo: the k fold
    models are fitted at `best_C` in one `grid_fit_score` solve."""
    y = ctx.y
    if len(np.unique(y)) > 2:
        raise ValueError("side metrics need binary labels")
    slices = ctx.fold_slices(feat)
    P = grid_fit_score([s[:4] for s in slices], (best_C,), ctx.max_iter)[2][0, :, 0]
    p_out = np.empty(len(y), dtype=np.float64)
    for f, (*_, yt, te) in enumerate(slices):
        p_out[te] = P[f, : len(yt)]
    col_out = ctx.column(feat)[0]

    n = len(y)
    rss = float(np.sum((y - p_out) ** 2))

    def ic(kk: int) -> tuple[float, float, float]:
        base = n * np.log(max(rss, 1e-300) / n)
        aic = 2 * kk + base
        bic = np.log(n) * kk + base
        aicc = aic + (2 * kk * (kk + 1)) / (n - kk - 1) if n - kk - 1 > 0 else np.inf
        return float(aic), float(bic), float(aicc)

    aic1, bic1, aicc1 = ic(1)
    kc = feat.complexity
    aicc_, bicc_, aiccc_ = ic(kc)

    # label consistency of the materialized column (exact value -> label)
    import pandas as pd

    s = pd.Series(col_out)
    nun = pd.Series(y).groupby(s).nunique()
    inconsistent = set(nun[nun > 1].index)
    consistency = float((~s.isin(inconsistent)).mean())
    return {
        "rss": rss,
        "aic_k1": aic1,
        "bic_k1": bic1,
        "aicc_k1": aicc1,
        "aic_kc": aicc_,
        "bic_kc": bicc_,
        "aicc_kc": aiccc_,
        "consistency": consistency,
    }


def compute_side_metrics(
    scored: list[Scored],
    cols,
    y,
    *,
    cv: int = 5,
    seed: int = 42,
    max_iter: int = 25,
    use_ray: bool = True,
) -> list[Scored]:
    """Attach side metrics to each Scored (fan-out: one task per
    candidate over one broadcast `ScoringContext`, whose memo every
    candidate of a process shares); returns the same objects."""
    y = np.asarray(y).astype(np.int8)
    ctx = ScoringContext(cols, y, stratified_folds(y, cv, seed), None, max_iter)
    items = [(s.feature, s.best_C) for s in scored]
    for s, side in zip(scored, Broadcast(ctx, use_ray=use_ray).map(_side_one, items)):
        s.side = side
    return scored


_SIDE_KEYS = ("rss", "aic_k1", "bic_k1", "aicc_k1", "aic_kc", "bic_kc", "aicc_kc", "consistency")


def _side_one(ctx: ScoringContext, item) -> dict:
    try:
        return _side_metrics(ctx, *item)
    except Exception:  # drop-not-crash, as in the scoring fan-out
        return dict.fromkeys(_SIDE_KEYS, float("nan"))


def pareto_front(scored: list[Scored]) -> list[Scored]:
    """Non-dominated (max score, min complexity) set, one per complexity."""
    best_at: dict[int, Scored] = {}
    for s in scored:
        cur = best_at.get(s.complexity)
        if cur is None or s.score > cur.score:
            best_at[s.complexity] = s
    front: list[Scored] = []
    best_seen = -np.inf
    for c in sorted(best_at):
        if best_at[c].score > best_seen:
            front.append(best_at[c])
            best_seen = best_at[c].score
    return front


def aicc_select(champions: list[Scored], n: int) -> Scored:
    """AICc over per-complexity champions (reference
    ComplexityDrivenFeatureConstruction.py:754-798): k = expression
    complexity, LL = held-out log-likelihood at the champion's best C."""
    best, best_v = None, np.inf
    for s in champions:
        k = s.complexity
        if n - k - 1 <= 0 or not np.isfinite(s.loglik):
            continue
        v = -2.0 * s.loglik + 2 * k + (2.0 * k * (k + 1)) / (n - k - 1)
        if v < best_v:
            best, best_v = s, v
    return best if best is not None else max(champions, key=lambda s: s.score)


class ComplexityDrivenSearch:
    def __init__(
        self,
        c_max: int | None = 3,
        epsilon: float = 0.0,
        cv: int = 5,
        seed: int = 42,
        c_grid=C_GRID,
        gbt_aggs=DEFAULT_GBT_AGGS,
        unary_ops=DIVISION_OPS["unary_ops"],
        binary_ops=DIVISION_OPS["binary_ops"],
        max_seconds: float | None = None,
        hard_c_cap: int = 10,
        max_onehot_values: int = 20,
        score_batch: int = SCORE_BATCH,
        lr_max_iter: int = 25,
        use_ray: bool = True,
        instance_selection: bool = False,
        strategy: str = "layered",
        tree_depth: int = 3,
        tree_frontier_cap: int | None = None,
    ):
        # default op families = get_transformation_for_division
        # (reference candidate_generation/feature_space/division.py:23-56)
        self.c_max = c_max
        self.epsilon = epsilon
        self.cv = cv
        self.seed = seed
        self.c_grid = tuple(c_grid)
        self.gbt_aggs = tuple(gbt_aggs)
        self.unary_ops = tuple(unary_ops)
        self.binary_ops = tuple(binary_ops)
        self.max_seconds = max_seconds
        self.hard_c_cap = hard_c_cap
        self.max_onehot_values = max_onehot_values
        self.score_batch = score_batch
        self.lr_max_iter = lr_max_iter
        self.use_ray = use_ray
        # reference Config 'instance.selection' (EvaluationFramework.py:
        # 193-199): condense the scoring sample by CNN before the search
        self.instance_selection = instance_selection
        # "layered" = the reference's complexity-budget BFS;
        # "explorekit" = one-shot Fui/Foi/Foui enumeration
        # (candidate_generation/explorekit/Generator.py);
        # "tree" = TreeGenerator's depth-layered expansion over the
        # accumulated feature set (candidate_generation/TreeGenerator.py)
        self.strategy = strategy
        # tree strategy only: number of expansion rounds (reference
        # runs `for depth in range(3)`, TreeGenerator.py:138-140) and an
        # optional score-ranked cap on the accumulated frontier (the
        # reference is unbounded; a cap keeps depth-3 runs tractable on
        # wider schemas — None = faithful)
        self.tree_depth = tree_depth
        self.tree_frontier_cap = tree_frontier_cap

    # -- scoring -------------------------------------------------------------

    def _score_layer(self, layer: list[Feature], shared: Broadcast, keep=None) -> list[tuple]:
        """(feature, score, best_C, loglik, vhash, const) per candidate,
        in layer order; one task and one batched solve per `score_batch`
        candidates. `keep` is passed to `ScoringContext.retain`."""
        chunks = _chunks(layer, self.score_batch)
        scores = shared.map(_score_chunk, [(chunk, keep) for chunk in chunks])
        return [(f, *r) for f, r in zip(layer, (r for out in scores for r in out))]

    @staticmethod
    def _harmonic_stop(champions: dict, survivors: dict, c: int) -> bool:
        pop = [s for k, v in survivors.items() if k <= c for s in v]
        total = len(pop)
        if total == 0 or any((c - h) not in champions for h in range(3)):
            return False

        def hm(champ: Scored) -> float:
            acc = sum(1 for s in pop if s.score <= champ.score) / total
            simp = sum(1 for s in pop if s.complexity >= champ.complexity) / total
            return (2 * simp * acc) / (simp + acc) if (simp + acc) else 0.0

        h0, h1, h2 = (hm(champions[c - h]) for h in range(3))
        return h2 >= h1 and h2 >= h0

    # -- enumeration ---------------------------------------------------------

    def _unary_candidates(self, parents: list[Feature]) -> list[Feature]:
        out = []
        for p in parents:
            for op in self.unary_ops:
                if op in UNARY_OPS and is_applicable(op, (p,)):
                    out.append(unary(op, p))
        return out

    def _binary_candidates(self, a_list: list[Feature], b_list: list[Feature]) -> list[Feature]:
        """Commutative ops pair combinations-with-replacement; order-matters
        ops pair all ordered pairs (reference Transformation.get_combinations,
        transformations/Transformation.py:72-83)."""
        out = []
        same = a_list is b_list
        for i, a in enumerate(a_list):
            for j, b in enumerate(b_list):
                for op in self.binary_ops:
                    commutative = op in ("add", "mul")
                    if commutative:
                        if same and j < i:
                            continue  # (a,b) == (b,a)
                        if is_applicable(op, (a, b)):
                            out.append(binary(op, a, b))
                    else:
                        if a.name == b.name:
                            continue
                        if is_applicable(op, (a, b)):
                            out.append(binary(op, a, b))
                        if not same and is_applicable(op, (b, a)):
                            out.append(binary(op, b, a))
        return out

    def _gbt_candidates(self, values: list[Feature], keys: list[Feature]) -> list[Feature]:
        out = []
        for v in values:
            for k in keys:
                if v.name == k.name:
                    continue
                for agg in self.gbt_aggs:
                    if is_applicable(f"gbt_{agg}", (v, k)):
                        out.append(groupbythen(agg, v, k))
        return out

    # -- the layered loop ----------------------------------------------------

    def run(self, cols: dict[str, np.ndarray], y: np.ndarray, base_features: list[Feature]) -> SearchResult:
        t0 = time.time()
        y = np.asarray(y).astype(np.int8)
        if self.instance_selection:
            from .model import cnn_instance_selection

            numeric = [
                f.params[0]
                for f in base_features
                if f.properties.get("type") == "numeric"
            ]
            if numeric:
                keep = cnn_instance_selection(
                    np.column_stack([np.asarray(cols[c], dtype=np.float64) for c in numeric]),
                    y,
                    seed=self.seed,
                )
                cols = {c: np.asarray(v)[keep] for c, v in cols.items()}
                y = y[keep]
        fold = stratified_folds(y, self.cv, self.seed)

        numeric_raws = [f for f in base_features if f.properties.get("type") == "numeric"]
        cat_raws = [f for f in base_features if f.properties.get("type") == "categorical"]
        clean_raws = [f for f in numeric_raws if not f.properties.get("missing_values")]
        parked = [f for f in numeric_raws if f.properties.get("missing_values")]

        seen_sympy: set[str] = set()
        seen_values: set[str] = set()
        scores: dict[str, float] = {f.name: 0.0 for f in parked}
        all_scored: dict[str, Scored] = {}
        survivors: dict[int, list[Scored]] = {}
        stats = {"enumerated": 0, "deduped_sympy": 0, "deduped_value": 0, "constant": 0, "pruned_eps": 0}

        def admit(cands: list[Feature]) -> list[Feature]:
            fresh = []
            for f in cands:
                stats["enumerated"] += 1
                expr = canonical_sympy(f)
                if is_constant_expr(expr):
                    stats["constant"] += 1
                    continue
                key = canonical_key(f)
                if key in seen_sympy:
                    stats["deduped_sympy"] += 1
                    continue
                seen_sympy.add(key)
                fresh.append(f)
            return fresh

        # one broadcast per run, held only here: a retry builds its own,
        # so it can never score against a previous run's sample
        shared = Broadcast(
            ScoringContext(cols, y, fold, self.c_grid, self.lr_max_iter),
            use_ray=self.use_ray,
        )

        def score(layer: list[Feature], keep=None) -> list[Scored]:
            """Scores `layer`, drops the constant and value-duplicate
            candidates, records the rest in `all_scored` and `scores`, and
            returns them in layer order."""
            fresh = []
            for f, acc, best_c, ll, vhash, const in self._score_layer(layer, shared, keep):
                if const:
                    stats["constant"] += 1
                elif vhash in seen_values:
                    stats["deduped_value"] += 1
                else:
                    seen_values.add(vhash)
                    sc = all_scored[f.name] = Scored(f, acc, best_c, ll)
                    scores[f.name] = acc
                    fresh.append(sc)
            return fresh

        champions: dict[int, Scored] = {}  # best-so-far after each layer
        c_limit = self.c_max if self.c_max is not None else self.hard_c_cap
        fi = clean_raws + parked + cat_raws
        if self.strategy == "explorekit":
            self._run_explorekit(fi, admit, score, survivors, all_scored, champions)
        elif self.strategy == "tree":
            self._run_tree(fi, admit, score, survivors, all_scored, champions)
        else:
            self._run_layers(
                c_limit, t0, clean_raws, parked, cat_raws,
                admit, score, survivors, all_scored, scores, stats, champions,
            )
        flat = list(all_scored.values())
        best = max(flat, key=lambda s: s.score)
        front = pareto_front(flat)
        aicc = aicc_select(front, n=len(y))
        stats["seconds"] = time.time() - t0
        stats["scored"] = len(flat)
        return SearchResult(survivors, all_scored, best, front, aicc, stats)

    def _run_layers(
        self, c_limit, t0, clean_raws, parked, cat_raws,
        admit, score, survivors, all_scored, scores, stats, champions,
    ):
        raw_names = frozenset(f.name for f in clean_raws + parked + cat_raws)
        for c in range(1, c_limit + 1):
            if self.max_seconds is not None and time.time() - t0 > self.max_seconds:
                stats["deadline_hit"] = True
                break
            layer: list[Feature] = []
            if c == 1:
                layer = admit(list(clean_raws))
            else:
                prev = [s.feature for s in survivors.get(c - 1, [])]
                un_parents = prev + (parked if c == 2 else [])
                layer += admit(self._unary_candidates(un_parents))
                if c == 2:
                    for cf in cat_raws:
                        vals = cf.properties.get("values") or []
                        layer += admit(
                            [onehot(cf, v) for v in vals[: self.max_onehot_values]]
                        )
                # binary over 2-partitions of c-1 (reference :422-461)
                for c1 in range(1, (c - 1) // 2 + 1):
                    c2 = c - 1 - c1
                    if c2 < c1:
                        continue
                    a = [s.feature for s in survivors.get(c1, [])]
                    b = a if c1 == c2 else [s.feature for s in survivors.get(c2, [])]
                    layer += admit(self._binary_candidates(a, b))
                # gbt: value complexity + key complexity + 1 == c
                keys = cat_raws + [
                    s.feature
                    for lv in survivors.values()
                    for s in lv
                    if s.feature.op in ("discretize", "mdlp")
                ]
                for key_f in keys:
                    cv_needed = c - 1 - key_f.complexity
                    if cv_needed >= 1 and cv_needed in survivors:
                        layer += admit(
                            self._gbt_candidates(
                                [s.feature for s in survivors[cv_needed]], [key_f]
                            )
                        )

            # the memo keeps the raws and survivors: the possible parents
            keep = (c, raw_names.union(s.name for lv in survivors.values() for s in lv))
            kept: list[Scored] = []
            # the ε gate; every parent is of a lower layer, so its score
            # is already in `scores`
            for sc in score(layer, keep):
                always_pass = sc.feature.op in ("raw", "onehot")
                parent_best = max(
                    (scores.get(p.name, 0.0) for p in sc.feature.parents), default=0.0
                )
                if always_pass or sc.score - parent_best > self.epsilon:
                    kept.append(sc)
                else:
                    stats["pruned_eps"] += 1
            if kept:
                survivors[c] = kept
            if all_scored:
                champions[c] = max(all_scored.values(), key=lambda s: s.score)

            # harmonic-mean stop (c_max=None mode, reference
            # ComplexityDrivenFeatureConstruction.py:266-318,660-676):
            # stop when the 2-layer-old champion's harmonic mean of
            # P(score <= champ) and P(complexity >= champ) dominates.
            if self.c_max is None and c > 2 and self._harmonic_stop(champions, survivors, c):
                stats["harmonic_stop"] = c
                break

    def _enum_ops(self) -> dict:
        """The strategy's op families as `explorekit_generate` and
        `tree_expand` take them."""
        return dict(
            unary_ops=tuple(op for op in self.unary_ops if op in UNARY_OPS),
            commutative_ops=tuple(op for op in self.binary_ops if op in ("add", "mul")),
            ordered_ops=tuple(op for op in self.binary_ops if op in ("div", "sub")),
            gbt_aggs=self.gbt_aggs,
        )

    def _run_explorekit(self, fi, admit, score, survivors, all_scored, champions):
        """ExploreKit's one-shot enumeration instead of the layered
        complexity loop: Fui / Foi / Foui generated up front (reference
        candidate_generation/explorekit/Generator.py:27-94), scored in a
        single pass. No ε-parent gate — ExploreKit ranks candidates
        standalone; the engine's constant/sympy/value dedup still
        applies."""
        layer = admit(list(fi)) + admit(explorekit_generate(fi, **self._enum_ops()))
        for sc in score(layer):
            survivors.setdefault(sc.complexity, []).append(sc)
        if all_scored:
            champions[1] = max(all_scored.values(), key=lambda s: s.score)

    def _run_tree(self, fi, admit, score, survivors, all_scored, champions):
        """TreeGenerator's depth-layered BFS (reference
        candidate_generation/TreeGenerator.py:62-143): F[0] = the raw
        features; layer d+1 applies EVERY transformation to ALL features
        accumulated in F[0..d] (generate_in_parallel fans out per
        transformation over chain(*F)), for tree_depth expansion rounds.
        The reference enumerates without score pruning (materialize only
        reports transform failures); here each layer runs through the
        engine's shared constant/sympy/value dedup and the scoring fan-out
        so the result table has the same shape as the other strategies.
        No ε-parent gate, matching the reference."""
        frontier = admit(list(fi))
        accumulated: list[Feature] = []
        raw_names = frozenset(f.name for f in fi)
        for d in range(self.tree_depth + 1):
            keep = (d, raw_names.union(f.name for f in accumulated))
            for sc in score(frontier, keep):
                survivors.setdefault(sc.complexity, []).append(sc)
                accumulated.append(sc.feature)
            if all_scored:
                champions[d + 1] = max(all_scored.values(), key=lambda s: s.score)
            if d == self.tree_depth:
                break
            pool = accumulated
            if self.tree_frontier_cap is not None and len(pool) > self.tree_frontier_cap:
                ranked = sorted(
                    (all_scored[f.name] for f in pool), key=lambda s: -s.score
                )
                pool = [s.feature for s in ranked[: self.tree_frontier_cap]]
            frontier = admit(tree_expand(pool, **self._enum_ops()))


def _unary_over(feats: list[Feature], unary_ops: tuple) -> list[Feature]:
    """Every applicable unary op over `feats`, transformation-major."""
    return [unary(op, p) for op in unary_ops for p in feats if is_applicable(op, (p,))]


def _higher_order_over(
    feats: list[Feature], commutative_ops: tuple, ordered_ops: tuple, gbt_aggs: tuple
) -> list[Feature]:
    """Every applicable binary and GroupByThen candidate over `feats`,
    transformation-major: commutative ops over combinations with
    replacement, ordered ops and (value, key) GroupByThen over ordered
    pairs without repetition (reference Transformation.get_combinations,
    transformations/Transformation.py:72-83)."""
    out = [
        binary(op, a, b)
        for op in commutative_ops
        for a, b in combinations_with_replacement(feats, 2)
        if is_applicable(op, (a, b))
    ]
    out += [
        binary(op, a, b)
        for op in ordered_ops
        for a, b in permutations(feats, 2)
        if is_applicable(op, (a, b))
    ]
    out += [
        groupbythen(agg, v, k)
        for agg in gbt_aggs
        for v, k in permutations(feats, 2)
        if is_applicable(f"gbt_{agg}", (v, k))
    ]
    return out


def tree_expand(
    feats: list[Feature],
    *,
    unary_ops: tuple = TREE_OPS["unary_ops"],
    commutative_ops: tuple = ("add", "mul"),
    ordered_ops: tuple = ("div", "sub"),
    gbt_aggs: tuple = DEFAULT_GBT_AGGS,
) -> list[Feature]:
    """One TreeGenerator expansion step: every transformation applied to
    the whole accumulated feature set, transformation-major (reference
    TreeGenerator.py:46-53 generate_for_transformation over the
    transformations list built at :66-84 — unaries first, then
    nansum/nanprod, then divide/subtract, then GroupByThen). Pair
    semantics follow `_higher_order_over`. Applicability runs this
    engine's predicates (functions/expr.py:is_applicable)."""
    return _unary_over(feats, unary_ops) + _higher_order_over(
        feats, commutative_ops, ordered_ops, gbt_aggs
    )


def explorekit_generate(
    base_features: list[Feature],
    *,
    unary_ops: tuple = ("discretize", "minmax"),
    commutative_ops: tuple = ("add", "mul"),
    ordered_ops: tuple = ("div", "sub"),
    gbt_aggs: tuple = DEFAULT_GBT_AGGS,
    include_raw: bool = False,
) -> list[Feature]:
    """ExploreKit's enumeration order (reference candidate_generation/
    explorekit/Generator.py:27-94 with the op families of
    feature_space/explorekit_transformations.py:19-41), over this
    engine's feature algebra:

      Fui  = unary(Fi)            discretize(10) then minmax, each over
                                  all of Fi (transformation-major)
      Foi  = higher-order(Fi+Fui) nansum/nanprod over combinations WITH
                                  replacement (commutative, repetition
                                  allowed); divide/subtract over ordered
                                  pairs (no repetition); GroupByThen
                                  {max,min,mean,std} over (value, key)
                                  ordered pairs — the three
                                  get_combinations branches of
                                  transformations/Transformation.py:72-83
      Foui = unary(Foi)

    Returns Fui + Foi + Foui in enumeration order (generate_candidates);
    include_raw=True appends Fi (generate_all_candidates:21-24).
    Applicability runs the engine's predicates
    (functions/expr.py:is_applicable), which mirror the reference's
    per-transformation is_applicable checks (numeric-only operands,
    no re-discretize/re-scale, div-by-zero guard, gbt value without
    missing values)."""
    fi = list(base_features)
    fui = _unary_over(fi, unary_ops)
    foi = _higher_order_over(fi + fui, commutative_ops, ordered_ops, gbt_aggs)
    out = fui + foi + _unary_over(foi, unary_ops)
    if include_raw:
        out.extend(fi)
    return out
