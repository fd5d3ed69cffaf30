"""The re-scoring passes and FairExp against the per-fit code they
replaced.

Nested CV, the side metrics and FairExp's subset evaluation slice
through `ScoringContext` and fit through one `model.grid_fit_score`
solve. The per-slice refits and one-model-at-a-time fits they replaced
are copied below as the reference. Nested CV, SFFS and NSGA-II must be
bit-equal to it: their answers are accuracies, F1 and ROD of 0/1
predictions, which rounding in the last bit of a coefficient does not
move here. The side metrics sum squared probabilities, and a batched
solve rounds those in the last bits, so they are held to 1e-12
relative (seen: 2.7e-16). The inputs hold a rounded column, an inner
fold whose train rows hold one label, a supervised op whose fit needs
both labels, and an MDLP candidate that finds no cut; each pass runs
in-process and as 4-CPU Ray tasks.
"""

import numpy as np
import pandas as pd
import pytest

from complexity_driven_feature_construction_ray.functions.expr import (
    CUSTOM_OPS,
    binary,
    custom,
    groupbythen,
    raw,
    register_op,
    unary,
)
from complexity_driven_feature_construction_ray.functions.kernels import evaluate, fit_on_arrays
from complexity_driven_feature_construction_ray.pipelines import fairexp
from complexity_driven_feature_construction_ray.pipelines.fairexp import (
    nsga2_search,
    rod_arrays,
    sffs_repair,
)
from complexity_driven_feature_construction_ray.pipelines.model import (
    LogisticRegressionNumpy,
    _standardize,
    grid_fit_score,
    stratified_folds,
)
from complexity_driven_feature_construction_ray.pipelines.search import (
    Scored,
    candidate_side_metrics,
    compute_side_metrics,
    nested_cv_rescore,
)

# -- the reference: a whole-tree refit per slice, one model per fit ------------


def _ref_slice(feat, cols, y, tr, te):
    fitted = fit_on_arrays([feat], {c: a[tr] for c, a in cols.items()}, y=y[tr])
    x_tr = evaluate(feat, {c: a[tr] for c, a in cols.items()}, fitted)
    x_te = evaluate(feat, {c: a[te] for c, a in cols.items()}, fitted)
    Xtr, Xte = _standardize(
        np.nan_to_num(x_tr[:, None], nan=0.0, posinf=0.0, neginf=0.0),
        np.nan_to_num(x_te[:, None], nan=0.0, posinf=0.0, neginf=0.0),
    )
    return Xtr, Xte, x_te


def _ref_nested_cv_one(feat, cols, y, fold, c_grid, max_iter):
    k = int(fold.max()) + 1
    slices, owner = [], []
    for t in range(k):
        for v in range(k):
            tr = (fold != t) & (fold != v)
            if v == t or y[tr].min() == y[tr].max():
                continue
            Xtr, Xte, _ = _ref_slice(feat, cols, y, tr, fold == v)
            slices.append((Xtr, y[tr], Xte, y[fold == v]))
            owner.append(t)
    acc = grid_fit_score(slices, c_grid, max_iter)[0] if slices else np.empty((len(c_grid), 0))
    owner = np.asarray(owner)
    outer_scores = []
    for t in range(k):
        per_c = acc[:, owner == t]
        best = max(range(len(c_grid)), key=lambda c: np.mean(per_c[c]) if per_c.shape[1] else -1.0)
        tr, te = fold != t, fold == t
        Xtr, Xte, _ = _ref_slice(feat, cols, y, tr, te)
        m = LogisticRegressionNumpy(C=c_grid[best], max_iter=max_iter).fit(Xtr, y[tr])
        outer_scores.append(float((m.predict(Xte) == y[te]).mean()))
    return float(np.mean(outer_scores)), float(np.std(outer_scores))


def _ref_nested(feats, cols, y, cv, c_grid, max_iter):
    y = np.asarray(y).astype(np.int8)
    fold = stratified_folds(y, cv, 42)
    out = {}
    for f in feats:
        try:
            out[f.name] = _ref_nested_cv_one(f, cols, y, fold, c_grid, max_iter)
        except Exception:
            out[f.name] = (0.0, 0.0)
    return out


def _ref_side_metrics(feat, cols, y, fold, best_C, max_iter):
    y = np.asarray(y).astype(np.int8)
    col_out = np.empty(len(y), dtype=np.float64)
    p_out = np.empty(len(y), dtype=np.float64)
    for f in range(int(fold.max()) + 1):
        tr, te = fold != f, fold == f
        Xtr, Xte, x_te = _ref_slice(feat, cols, y, tr, te)
        col_out[te] = x_te
        m = LogisticRegressionNumpy(C=best_C, max_iter=max_iter).fit(Xtr, y[tr])
        p_out[te] = m.predict_proba(Xte)
    n = len(y)
    rss = float(np.sum((y - p_out) ** 2))

    def ic(kk):
        base = n * np.log(max(rss, 1e-300) / n)
        aic = 2 * kk + base
        bic = np.log(n) * kk + base
        aicc = aic + (2 * kk * (kk + 1)) / (n - kk - 1) if n - kk - 1 > 0 else np.inf
        return float(aic), float(bic), float(aicc)

    aic1, bic1, aicc1 = ic(1)
    aicc_, bicc_, aiccc_ = ic(feat.complexity)
    s = pd.Series(col_out)
    nun = pd.Series(y).groupby(s).nunique()
    consistency = float((~s.isin(set(nun[nun > 1].index))).mean())
    return {"rss": rss, "aic_k1": aic1, "bic_k1": bic1, "aicc_k1": aicc1,
            "aic_kc": aicc_, "bic_kc": bicc_, "aicc_kc": aiccc_, "consistency": consistency}


def _ref_cv_f1(X, y, fold, max_iter=25):
    preds = np.empty(len(y), dtype=np.int8)
    for f in range(int(fold.max()) + 1):
        tr, te = fold != f, fold == f
        Xtr, Xte = _standardize(X[tr], X[te])
        clf = LogisticRegressionNumpy(C=1.0, max_iter=max_iter).fit(Xtr, y[tr])
        preds[te] = clf.predict(Xte)
    tp = int(((preds == 1) & (y == 1)).sum())
    fp = int(((preds == 1) & (y == 0)).sum())
    fn = int(((preds == 0) & (y == 1)).sum())
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def _ref_eval_subset(ctx, names_sel):
    X, all_names, y, fold, sens, ctx_cols, protected, max_iter = ctx
    Xs = X[:, [all_names.index(n) for n in names_sel]]
    acc = _ref_cv_f1(Xs, y, fold, max_iter)
    Xs2, _ = _standardize(Xs, Xs)
    pred = LogisticRegressionNumpy(C=1.0, max_iter=max_iter).fit(Xs2, y).predict(Xs2)
    return acc, rod_arrays(pred, sens, ctx_cols, protected)


# -- fixtures ------------------------------------------------------------------


@pytest.fixture(autouse=True)
def gap_op():
    """`gap(x)`: a supervised fit that needs both labels, as MDLP does
    on a slice with a cut; a one-label train slice raises. Defined in
    the fixture so that Ray workers get the functions by value."""

    def fit(parents, y):
        (x,), y = parents, np.asarray(y)
        if y.min() == y.max():
            raise ValueError("one label")
        return (float(x[y == 1].mean() - x[y == 0].mean()),)

    register_op("gap", kernel=lambda args, f, state: args[0] * state[0], fit=fit)
    yield
    CUSTOM_OPS.pop("gap", None)


def _sample(n=160, seed=11):
    """Signal `a`, a column `b` rounded to one decimal, a group key `g`
    and a noise column whose MDLP finds no cut."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(1.0, 9.0, n)
    b = np.round(rng.uniform(0.5, 4.0, n), 1)
    g = rng.integers(0, 4, n).astype(float)
    noise = rng.normal(size=n)
    y = (a + 0.8 * g + rng.normal(0, 1.5, n) > 6.0).astype(np.int8)
    cols = {"a": a, "b": b, "g": g, "noise": noise}
    ra = raw("a", properties={"min": 1.0, "max": 9.0, "has_zero": False, "distinct": None})
    rb = raw("b", properties={"min": 0.5, "max": 4.0, "has_zero": False, "distinct": None})
    rg = raw("g", properties={"min": 0.0, "max": 3.0, "has_zero": True, "distinct": 4})
    rn = raw("noise", properties={"min": -5.0, "max": 5.0, "has_zero": True, "distinct": None})
    feats = [
        ra, rb, unary("mdlp", ra), unary("mdlp", rn), unary("minmax", rb),
        binary("div", ra, rb), binary("mul", ra, rg), groupbythen("mean", ra, rg),
        unary("minmax", binary("div", ra, rb)), custom("gap", ra),
    ]
    return cols, y, feats


def _one_label_inner_fold(y, cv):
    """Labels with two positives, so some inner train slice (two folds
    dropped) holds negatives only."""
    y1 = np.zeros(len(y), dtype=np.int8)
    y1[[3, 50]] = 1
    fold = stratified_folds(y1, cv, 42)
    assert any(
        len(np.unique(y1[(fold != t) & (fold != v)])) == 1
        for t in range(cv) for v in range(cv) if v != t
    )
    return y1


LABELS = ("signal", "one_label_inner")


def _labels(kind, y, cv):
    return y if kind == "signal" else _one_label_inner_fold(y, cv)


# -- nested CV -----------------------------------------------------------------


@pytest.mark.parametrize("use_ray", [False, True])
@pytest.mark.parametrize("labels", LABELS)
@pytest.mark.parametrize("cv,c_grid,max_iter", [(4, (0.01, 1.0, 100.0), 15), (5, (0.1, 10.0), 25)])
def test_nested_cv_equals_per_fit(ray_session, use_ray, labels, cv, c_grid, max_iter):
    cols, y, feats = _sample()
    y = _labels(labels, y, cv)
    got = nested_cv_rescore(feats, cols, y, cv=cv, c_grid=c_grid, max_iter=max_iter, use_ray=use_ray)
    ref = _ref_nested(feats, cols, y, cv, c_grid, max_iter)
    assert got == ref
    assert ref["mdlp(noise)"] == (0.0, 0.0)  # no cut: the candidate's fallback
    # a one-label inner slice is skipped before any fit, so a fit that
    # needs both labels does not zero the candidate
    assert ref["gap(a)"] != (0.0, 0.0)
    assert sum(v != (0.0, 0.0) for v in ref.values()) >= 6


# -- side metrics --------------------------------------------------------------


def _assert_side_close(got, want):
    assert got.keys() == want.keys()
    for k in want:
        if np.isnan(want[k]):
            assert np.isnan(got[k]), k
        else:
            assert got[k] == pytest.approx(want[k], rel=1e-12, abs=0.0), k


@pytest.mark.parametrize("use_ray", [False, True])
@pytest.mark.parametrize("labels", LABELS)
def test_side_metrics_within_1e12_of_per_fit(ray_session, use_ray, labels):
    cols, y, feats = _sample()
    y = _labels(labels, y, 4)
    fold = stratified_folds(y, 4, 42)
    best = [0.01, 1.0, 100.0]
    scored = [Scored(f, 0.5, best[i % 3], -1.0) for i, f in enumerate(feats)]
    compute_side_metrics(scored, cols, y, cv=4, max_iter=15, use_ray=use_ray)
    for s in scored:
        try:
            want = _ref_side_metrics(s.feature, cols, y, fold, s.best_C, 15)
        except ValueError:
            with pytest.raises(ValueError):
                candidate_side_metrics(s.feature, cols, y, fold, s.best_C, 15)
            want = dict.fromkeys(s.side, float("nan"))
        else:
            _assert_side_close(candidate_side_metrics(s.feature, cols, y, fold, s.best_C, 15), want)
        _assert_side_close(s.side, want)
    assert all(np.isnan(v) for v in scored[3].side.values())  # mdlp(noise): no cut
    assert sum(np.isfinite(s.side["rss"]) for s in scored) >= len(scored) - 2


# -- FairExp -------------------------------------------------------------------


def _fair_sample(n=240, seed=4):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 5))
    X[:, 3] = np.round(X[:, 3])  # rounded: many ties
    y = (X[:, 0] + 0.7 * X[:, 1] + 0.5 * X[:, 3] + rng.normal(0, 0.6, n) > 0).astype(np.int8)
    kw = dict(
        sensitive=rng.choice(["web", "books", "code"], n),
        contexts=rng.integers(0, 3, n), protected="web", cv=4, max_iter=12,
    )
    return X, ["a", "b", "n1", "r", "n2"], y, kw


def test_eval_subset_equals_per_fit():
    X, names, y, kw = _fair_sample()
    ctx = (X, names, y, stratified_folds(y, kw["cv"], 42), kw["sensitive"],
           kw["contexts"], kw["protected"], kw["max_iter"])
    for m in range(1, 2 ** len(names)):
        sub = [n for i, n in enumerate(names) if m >> i & 1]
        assert fairexp._eval_subset(ctx, sub) == _ref_eval_subset(ctx, sub), sub


@pytest.mark.parametrize("speculative", [0, 1, 2])
def test_sffs_equals_per_fit(ray_session, monkeypatch, speculative):
    X, names, y, kw = _fair_sample()
    got = [sffs_repair(X, names, y, use_ray=u, speculative=speculative, **kw) for u in (False, True)]
    monkeypatch.setattr(fairexp, "_eval_subset", _ref_eval_subset)
    ref = sffs_repair(X, names, y, use_ray=False, speculative=speculative, **kw)
    assert got[0] == ref and got[1] == ref
    assert len(ref["registered"]) > len(names)


def test_nsga2_equals_per_fit(ray_session, monkeypatch):
    X, names, y, kw = _fair_sample()
    got = [nsga2_search(X, names, y, use_ray=u, generations=4, **kw) for u in (False, True)]
    monkeypatch.setattr(fairexp, "_eval_subset", _ref_eval_subset)
    ref = nsga2_search(X, names, y, use_ray=False, generations=4, **kw)
    assert got[0] == ref and got[1] == ref
    assert len(ref["front"]) > 1
