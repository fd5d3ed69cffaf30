"""The batched grid kernels against the per-fit loops they replace:
`cv_score` (one Newton solve for every C × fold × head problem),
`_mdlp_cuts` (one entropy pass over every boundary) and the inner grid
of `nested_cv_rescore`."""

import numpy as np
import pytest

from complexity_driven_feature_construction_ray.functions.expr import binary, groupbythen, raw, unary
from complexity_driven_feature_construction_ray.functions.kernels import _mdlp_cuts
from complexity_driven_feature_construction_ray.pipelines.model import (
    C_GRID,
    LogisticRegressionNumpy,
    _fit_batch,
    _newton_step,
    _padded,
    _standardize,
    cv_score,
    stratified_folds,
)
from complexity_driven_feature_construction_ray.pipelines.search import nested_cv_rescore

# ---------------------------------------------------------------------------
# reference: one fit per (C, fold[, class])


def _ovr_predict_ll(Xtr, ytr, Xte, yte, C, max_iter):
    classes = np.unique(ytr)
    heads = [LogisticRegressionNumpy(C=C, max_iter=max_iter).fit(Xtr, (ytr == c).astype(np.int8)) for c in classes]
    raw_p = np.column_stack([h.predict_proba(Xte) for h in heads])
    p = raw_p / np.maximum(raw_p.sum(axis=1, keepdims=True), 1e-12)
    col = np.clip(np.searchsorted(classes, yte), 0, len(classes) - 1)
    pt = np.where(classes[col] == yte, p[np.arange(len(yte)), col], 1e-12)
    return classes[np.argmax(p, axis=1)], float(np.sum(np.log(np.clip(pt, 1e-12, 1.0))))


def _reference_cv_score(X, y, fold, c_grid, max_iter):
    X = np.nan_to_num(np.asarray(X, dtype=np.float64), nan=0.0, posinf=0.0, neginf=0.0)
    if X.ndim == 1:
        X = X[:, None]
    multiclass = len(np.unique(y)) > 2
    best = (-1.0, 1.0, -np.inf)
    for C in c_grid:
        accs, lls = [], []
        for f in range(int(fold.max()) + 1):
            tr, te = fold != f, fold == f
            if y[tr].min() == y[tr].max():
                continue
            Xtr, Xte = _standardize(X[tr], X[te])
            if multiclass:
                pred, ll = _ovr_predict_ll(Xtr, y[tr], Xte, y[te], C, max_iter)
            else:
                m = LogisticRegressionNumpy(C=C, max_iter=max_iter).fit(Xtr, y[tr])
                pred, ll = m.predict(Xte), m.log_likelihood(Xte, y[te])
            accs.append(float((pred == y[te]).mean()))
            lls.append(ll)
        if accs and float(np.mean(accs)) > best[0]:
            best = (float(np.mean(accs)), C, float(np.mean(lls)))
    return best


def _cases():
    rng = np.random.default_rng(20)
    n = 150
    y = rng.integers(0, 2, n).astype(np.int8)
    fold = stratified_folds(y, 5)
    signal = y + rng.normal(0, 0.8, n)
    inf_nan = signal.copy()
    inf_nan[[3, 17, 40]] = np.nan
    inf_nan[5], inf_nan[9] = np.inf, -np.inf
    # one positive row: the train slice of its fold holds negatives only
    y_one = np.zeros(n, dtype=np.int8)
    y_one[7] = 1
    # class 2 sits in fold 0 only, so fold 0's train slice has no class 2
    y3 = rng.integers(0, 2, n).astype(np.int8)
    f3 = stratified_folds(y3, 5)
    y3[np.flatnonzero(f3 == 0)[:4]] = 2
    x3 = y3 + rng.normal(0, 0.7, n)
    return {
        "signal": (signal, y, fold),
        "noise": (rng.normal(size=n), y, fold),
        "rounded": (np.round(signal), y, fold),
        "constant": (np.full(n, 3.0), y, fold),
        "nan_inf": (inf_nan, y, fold),
        "one_class_train": (rng.normal(size=n) + y_one, y_one, stratified_folds(y_one, 5)),
        "three_class_one_fold": (x3, y3, f3),
        "three_class_two_cols": (np.column_stack([x3, rng.normal(size=n)]), y3, f3),
        "two_cols": (np.column_stack([signal, np.round(rng.normal(size=n), 1)]), y, fold),
    }


CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("c_grid,max_iter", [(C_GRID, 25), ((0.01, 1000.0), 3)])
def test_cv_score_matches_per_fit_loop(name, c_grid, max_iter):
    X, y, fold = CASES[name]
    score, best_c, ll = cv_score(X, y, fold, c_grid, max_iter)
    ref = _reference_cv_score(X, y, fold, c_grid, max_iter)
    assert (score, best_c) == ref[:2]
    assert abs(ll - ref[2]) <= 1e-9


def test_each_problem_freezes_after_its_own_converged_step():
    # a loose tol makes problems stop at different steps; each must end
    # where its own separate fit ends
    X, y, fold = CASES["two_cols"]
    slices = [_standardize(X[fold != f], X[fold == f])[0] for f in range(5)]
    Y = np.zeros((5, 1, max(len(s) for s in slices)))
    for f in range(5):
        Y[f, 0, : len(slices[f])] = y[fold != f]
    W = _fit_batch(_padded(slices), Y, np.ones((5, 1), bool), C_GRID, 25, tol=0.05)
    for c, C in enumerate(C_GRID):
        for f in range(5):
            ref = LogisticRegressionNumpy(C=C, max_iter=25, tol=0.05).fit(slices[f], y[fold != f])
            assert np.allclose(W[c, f, 0], ref.coef_, rtol=0, atol=1e-12)


def test_cv_score_all_folds_degenerate():
    y = np.zeros(20, dtype=np.int8)
    assert cv_score(np.arange(20.0), y, stratified_folds(y, 4)) == (-1.0, 1.0, -np.inf)


def test_newton_step_falls_back_per_system():
    rng = np.random.default_rng(0)
    H = rng.normal(size=(4, 3, 3))
    H = H @ H.transpose(0, 2, 1) + np.eye(3)
    H[2] = np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])  # singular
    g = rng.normal(size=(4, 3))
    step = _newton_step(H, g)
    for i in (0, 1, 3):
        assert np.array_equal(step[i], np.linalg.solve(H[i], g[i]))
    assert np.array_equal(step[2], np.linalg.lstsq(H[2], g[2], rcond=None)[0])


# ---------------------------------------------------------------------------
# reference: the per-boundary MDLP loop


def _entropy_ref(counts):
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts[counts > 0] / n
    return float(-(p * np.log2(p)).sum())


def _mdlp_cuts_ref(x, y, max_depth=6):
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    classes = np.unique(ys)
    cuts = []

    def rec(lo, hi, depth):
        if hi - lo < 4 or depth >= max_depth:
            return
        seg_x, seg_y = xs[lo:hi], ys[lo:hi]
        n = hi - lo
        change = np.nonzero(np.diff(seg_x) > 0)[0] + 1
        if len(change) == 0:
            return
        cum = np.cumsum(seg_y[:, None] == classes[None, :], axis=0)
        total = cum[-1]
        best, best_i = None, None
        for i in change:
            left, right = cum[i - 1], total - cum[i - 1]
            e = (i / n) * _entropy_ref(left) + ((n - i) / n) * _entropy_ref(right)
            if best is None or e < best:
                best, best_i = e, i
        ent = _entropy_ref(total)
        gain = ent - best
        k = (total > 0).sum()
        left, right = cum[best_i - 1], total - cum[best_i - 1]
        k1, k2 = (left > 0).sum(), (right > 0).sum()
        delta = np.log2(3.0**k - 2.0) - (k * ent - k1 * _entropy_ref(left) - k2 * _entropy_ref(right))
        if gain <= (np.log2(n - 1) + delta) / n:
            return
        cuts.append(float((seg_x[best_i - 1] + seg_x[best_i]) / 2.0))
        rec(lo, lo + best_i, depth + 1)
        rec(lo + best_i, hi, depth + 1)

    rec(0, len(xs), 0)
    if not cuts:
        raise ValueError("MDLP found no cut point")
    return sorted(cuts)


def _cuts_or_error(fn, x, y, depth):
    try:
        return fn(x, y, depth)
    except ValueError as e:
        return str(e)


@pytest.mark.parametrize("n_classes", [2, 3])
@pytest.mark.parametrize("max_depth", [1, 2, 6])
def test_mdlp_cuts_match_per_boundary_loop(n_classes, max_depth):
    rng = np.random.default_rng(100 * n_classes + max_depth)
    errors = 0
    for trial in range(60):
        n = int(rng.integers(6, 300))
        x = rng.normal(size=n)
        if trial % 2:
            x = np.round(x * rng.choice([1, 4]))  # ties
        y = np.clip(np.floor(x + rng.normal(0, 0.8, n)).astype(int) + 1, 0, n_classes - 1)
        if trial % 7 == 0:
            y = rng.integers(0, n_classes, n)  # no signal: often no cut
        if trial % 5 == 0:
            # mirrored labels: boundaries i and n - i tie exactly, and the
            # first of them must win
            x = np.arange(n, dtype=np.float64)
            y = np.r_[y[: n // 2], y[: n // 2][::-1]]
            x = x[: len(y)]
        got = _cuts_or_error(_mdlp_cuts, x, y, max_depth)
        assert got == _cuts_or_error(_mdlp_cuts_ref, x, y, max_depth)
        errors += isinstance(got, str)
    assert 0 < errors < 60


@pytest.mark.parametrize("m", [20, 40])
def test_mdlp_equal_boundaries_take_the_first(m):
    # 0…0 1…1 0…0: the boundaries at m and 2m score exactly alike
    x = np.arange(3 * m, dtype=np.float64)
    y = np.r_[np.zeros(m), np.ones(m), np.zeros(m)].astype(int)
    assert _mdlp_cuts(x, y, 1) == _mdlp_cuts_ref(x, y, 1) == [m - 0.5]


def test_mdlp_no_cut_raises():
    with pytest.raises(ValueError, match="MDLP found no cut point"):
        _mdlp_cuts(np.full(50, 2.0), np.arange(50) % 2)
    with pytest.raises(ValueError, match="MDLP found no cut point"):
        _mdlp_cuts(np.arange(40.0), np.arange(40) % 2)


# ---------------------------------------------------------------------------
# nested CV: values computed by the per-C fit loop it replaced

NESTED_PINS = {
    (4, (0.01, 1.0, 100.0), 15): {
        "a": (0.7875104195609891, 0.02934388790806378),
        "b": (0.5250069463739928, 0.00041678243956655425),
        "mdlp(a)": (0.7707001944984718, 0.030670817443036368),
        "mdlp(b)": (0.0, 0.0),
        "(a/b)": (0.7338149485968324, 0.04677628623483704),
        "(a*g)": (0.7753542650736316, 0.02125590441789388),
        "mean(a by g)": (0.6045429285912753, 0.030913393479042903),
    },
    (5, None, 25): {
        "a": (0.8125524677956288, 0.0178490062312551),
        "b": (0.5250054277029961, 0.005126328755804178),
        "mdlp(a)": (0.7622865103488203, 0.043882857473580734),
        "mdlp(b)": (0.0, 0.0),
        "(a/b)": (0.7578611231726733, 0.042949593252591206),
        "(a*g)": (0.778949558546823, 0.03544658736879825),
        "mean(a by g)": (0.5587892603850051, 0.08400619842137497),
    },
}


@pytest.mark.parametrize("cv,c_grid,max_iter", sorted(NESTED_PINS, key=str))
def test_nested_cv_rescore_pinned(cv, c_grid, max_iter):
    rng = np.random.default_rng(11)
    n = 240
    a = rng.uniform(1.0, 9.0, n)
    b = np.round(rng.uniform(0.5, 4.0, n), 1)
    g = rng.integers(0, 4, n).astype(float)
    y = (a + 0.8 * g + rng.normal(0, 1.5, n) > 6.0).astype(np.int8)
    ra = raw("a", properties={"min": 1.0, "max": 9.0, "has_zero": False, "distinct": None})
    rb = raw("b", properties={"min": 0.5, "max": 4.0, "has_zero": False, "distinct": None})
    rg = raw("g", properties={"min": 0.0, "max": 3.0, "has_zero": True, "distinct": 4})
    feats = [ra, rb, unary("mdlp", ra), unary("mdlp", rb), binary("div", ra, rb),
             binary("mul", ra, rg), groupbythen("mean", ra, rg)]
    got = nested_cv_rescore(feats, {"a": a, "b": b, "g": g}, y, cv=cv, c_grid=c_grid,
                            max_iter=max_iter, use_ray=False)
    assert got == NESTED_PINS[(cv, c_grid, max_iter)]
