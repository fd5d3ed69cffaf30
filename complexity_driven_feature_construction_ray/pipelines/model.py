"""Numpy scoring model: L2 logistic regression + stratified CV.

The reference scores candidates with sklearn LogisticRegression under a
C grid and f1-micro (reference ComplexityDrivenFeatureConstruction.py:
41-52, evaluation/run_evaluation.py:142-243). sklearn is not available
here, so the model is a small Newton/IRLS implementation — for
single-label data f1-micro equals accuracy, which is what `cv_score`
returns. Folds are deterministic stratified splits (seeded, mirroring
the reference's fixed seed 42 in EvaluationFramework.py:179).

`cv_score` fits a candidate's whole C grid × fold grid in one batched
Newton solve (`grid_fit_score`). Each fold is standardized on its own
train slice; the train slices are stacked and zero-padded to the
longest (an all-zero row, intercept included, adds nothing to any
gradient or Hessian); every (C, fold, head) problem steps together
through one stacked `np.linalg.solve`. A problem freezes after the step
whose own max|step| < tol, so it follows the same iterates as a
separate `LogisticRegressionNumpy` fit, and a singular stack falls back
to a per-problem solve (lstsq where that is singular too), as `fit`
does. Multiclass labels are one more batch axis of one-vs-rest heads;
a head whose class is absent from a fold's train slice is never fitted
and never predicts. One batch costs a few dozen numpy calls per Newton
step however many problems it holds, where one fit per problem cost as
many per problem — at the search's sample sizes the per-call overhead
was the whole cost. Rounding differs from separate fits in the last
bits only, so it decides nothing except exact ties: two OvR heads that
are equal in exact arithmetic (equal class counts on a feature that
cannot tell the classes apart) may be ordered differently.

The search goes one step further (`cv_grid_scores`): the `cv_slices` of
all the candidates of one scoring task, over the same fold split, go
into one solve (candidates × C × folds × heads), and each candidate
takes its own argmax and log-likelihood from its own slices. Every
candidate's slices have the same row counts, so the padding, and with
it each problem's arithmetic, is the same as in a solve of its own.
The batch is one task's candidates, not a whole layer: the stacked
designs grow with the batch, and a layer-wide solve costs driver
memory that the smaller batches do not. A search that runs in-process
(`use_ray=False`, or a one-CPU cluster, see `search.Broadcast`) solves
the same batches, one after another.

`grid_fit_score` is the pipelines' only model fit. Besides accuracies
and log-likelihoods it returns every problem's test probabilities, so
the passes that read predictions fit through it too: nested CV fits
its inner grids and outer refits in one solve, the side metrics their
k folds at the candidate's best C (`search.py`), and FairExp a
subset's k fold models and its full-sample model (`fairexp.py`).
`LogisticRegressionNumpy` stays for the callers that want one model
(`selection.py`, `stages/qualityclf.py`).
"""

from __future__ import annotations

import numpy as np

C_GRID = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)


def _newton_step(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Solve H @ step = g for one (p, p) system or a stack of them. A
    singular stack falls back to one solve per system, and a singular
    system to least squares."""
    try:
        return np.linalg.solve(H, g[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if H.ndim == 2:
            return np.linalg.lstsq(H, g, rcond=None)[0]
        return np.stack([_newton_step(h, v) for h, v in zip(H, g)])


class LogisticRegressionNumpy:
    """Binary L2-regularized logistic regression via Newton iterations."""

    def __init__(self, C: float = 1.0, max_iter: int = 25, tol: float = 1e-6):
        self.C = C
        self.max_iter = max_iter
        self.tol = tol
        self.coef_: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegressionNumpy":
        n, p = X.shape
        Xb = np.hstack([X, np.ones((n, 1))])
        w = np.zeros(p + 1)
        lam = 1.0 / self.C
        reg = lam * np.eye(p + 1)
        reg[-1, -1] = 0.0  # don't regularize the intercept
        for _ in range(self.max_iter):
            z = Xb @ w
            mu = 1.0 / (1.0 + np.exp(-np.clip(z, -35, 35)))
            g = Xb.T @ (mu - y) + lam * np.r_[w[:-1], 0.0]
            s = np.maximum(mu * (1 - mu), 1e-9)
            H = (Xb * s[:, None]).T @ Xb + reg
            step = _newton_step(H, g)
            w -= step
            if np.max(np.abs(step)) < self.tol:
                break
        self.coef_ = w
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        Xb = np.hstack([X, np.ones((len(X), 1))])
        z = np.clip(Xb @ self.coef_, -35, 35)
        return 1.0 / (1.0 + np.exp(-z))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(np.int8)

    def log_likelihood(self, X: np.ndarray, y: np.ndarray) -> float:
        p = np.clip(self.predict_proba(X), 1e-12, 1 - 1e-12)
        return float(np.sum(y * np.log(p) + (1 - y) * np.log(1 - p)))


def stratified_folds(y: np.ndarray, k: int, seed: int = 42) -> np.ndarray:
    """Deterministic stratified fold ids in [0, k) per row."""
    rng = np.random.default_rng(seed)
    fold = np.empty(len(y), dtype=np.int32)
    for cls in np.unique(y):
        idx = np.nonzero(y == cls)[0]
        perm = rng.permutation(len(idx))
        fold[idx[perm]] = np.arange(len(idx)) % k
    return fold


def _standardize(train: np.ndarray, test: np.ndarray):
    mu = train.mean(axis=0)
    sd = train.std(axis=0)
    sd = np.where(sd == 0, 1.0, sd)
    return (train - mu) / sd, (test - mu) / sd


def _padded(blocks: list[np.ndarray]) -> np.ndarray:
    """Stack (n_i, p) blocks into (F, max n_i, p + 1) designs with an
    intercept column. Rows past a block's end are all zero."""
    out = np.zeros((len(blocks), max(len(b) for b in blocks), blocks[0].shape[1] + 1))
    for i, b in enumerate(blocks):
        out[i, : len(b), :-1] = b
        out[i, : len(b), -1] = 1.0
    return out


def _fit_batch(X, Y, live, c_grid, max_iter: int, tol: float = 1e-6) -> np.ndarray:
    """Newton-fit every (C, slice, head) L2 logistic problem at once.

    X is (F, n, p + 1) padded designs, Y (F, H, n) 0/1 targets and
    live (F, H) the heads to fit. Returns the (len(c_grid), F, H, p + 1)
    coefficients; a head that is not live stays at zero."""
    F, n, p1 = X.shape
    lam = (1.0 / np.asarray(c_grid, dtype=np.float64))[:, None, None, None]
    free = np.ones(p1)
    free[-1] = 0.0  # don't regularize the intercept
    W = np.zeros((len(c_grid), F, Y.shape[1], p1))
    live = np.broadcast_to(live, W.shape[:3]).copy()
    # z and the gradient are the matrix-vector products `fit` makes, one
    # per problem; the Hessian sums s * x x' over rows in one product
    X1 = X[:, None]
    XT = X1.swapaxes(-1, -2)
    XX = (X[:, :, :, None] * X[:, :, None, :]).reshape(F, 1, n, p1 * p1)
    reg = lam[..., None] * np.diag(free)
    for _ in range(max_iter):
        if not live.any():
            break
        mu = 1.0 / (1.0 + np.exp(-np.clip((X1 @ W[..., None])[..., 0], -35, 35)))
        g = (XT @ (mu - Y)[..., None])[..., 0] + lam * W * free
        s = np.maximum(mu * (1 - mu), 1e-9)
        H = (s[..., None, :] @ XX).reshape(*W.shape, p1) + reg
        step = _newton_step(H[live], g[live])
        W[live] -= step
        live[live] = ~(np.abs(step).max(axis=1) < tol)
    return W


def grid_fit_score(slices, c_grid=C_GRID, max_iter: int = 25):
    """Fit and score every (C, slice) problem in one batched Newton
    solve. `slices` is a list of standardized (X_train, y_train, X_test,
    y_test); binary labels fit one head on y itself, more than two
    labels fit one-vs-rest heads.

    Returns (acc, ll_rows, P): acc[c, f] is slice f's test accuracy at
    c_grid[c], ll_rows[c, f, :len(y_test)] its per-row test
    log-likelihoods and P[c, f, h, :len(y_test)] head h's test
    probabilities (binary: P[c, f, 0] is P(y = 1))."""
    classes = np.unique(np.concatenate([np.r_[s[1], s[3]] for s in slices]))
    multiclass = len(classes) > 2
    Xtr = _padded([s[0] for s in slices])
    Xte = _padded([s[2] for s in slices])
    F, n, m = len(slices), Xtr.shape[1], Xte.shape[1]
    n_test = np.array([len(s[3]) for s in slices])
    Y = np.zeros((F, len(classes) if multiclass else 1, n))
    yte = np.zeros((F, m), dtype=classes.dtype)
    for i, (_, ytr, _, yt) in enumerate(slices):
        Y[i, :, : len(ytr)] = (ytr[None, :] == classes[:, None]) if multiclass else ytr
        yte[i, : len(yt)] = yt
    # a head whose class is absent from the train slice is never fitted
    live = Y.any(axis=2) if multiclass else np.ones((F, 1), dtype=bool)
    W = _fit_batch(Xtr, Y, live, c_grid, max_iter)
    z = (Xte[:, None] @ W[..., None])[..., 0]
    P = 1.0 / (1.0 + np.exp(-np.clip(z, -35, 35)))
    if multiclass:
        # OvR head scores normalized to 1 over the fitted heads
        raw = np.where(live[:, :, None], P, 0.0)
        q = raw / np.maximum(raw.sum(axis=2, keepdims=True), 1e-12)
        pred = classes[np.argmax(np.where(live[:, :, None], q, -1.0), axis=2)]
        col = np.clip(np.searchsorted(classes, yte), 0, len(classes) - 1)
        pt = np.take_along_axis(q, col[None, :, None, :], axis=2)[:, :, 0]
        # a test label with no head (its class is absent from the train
        # slice) gets the floor probability
        pt = np.where(np.take_along_axis(live, col, axis=1), pt, 1e-12)
        ll_rows = np.log(np.clip(pt, 1e-12, 1.0))
    else:
        p = np.clip(P[:, :, 0], 1e-12, 1 - 1e-12)
        pred = (P[:, :, 0] >= 0.5).astype(np.int8)
        ll_rows = yte * np.log(p) + (1 - yte) * np.log(1 - p)
    acc = ((pred == yte) & (np.arange(m) < n_test[:, None])).sum(axis=2) / n_test
    return acc, ll_rows, P


def cv_slices(X: np.ndarray, y: np.ndarray, fold: np.ndarray) -> list[tuple]:
    """One candidate's standardized (X_train, y_train, X_test, y_test)
    per fold, for `cv_grid_scores`. Non-finite feature values are
    sanitized to 0 for the linear model (the reference's constant/NaN
    kill happens before scoring; this is the belt-and-braces guard). A
    fold whose train slice holds one label is skipped."""
    X = np.nan_to_num(np.asarray(X, dtype=np.float64), nan=0.0, posinf=0.0, neginf=0.0)
    if X.ndim == 1:
        X = X[:, None]
    slices = []
    for f in range(int(fold.max()) + 1):
        tr, te = fold != f, fold == f
        if y[tr].min() == y[tr].max():
            continue  # degenerate fold
        Xtr, Xte = _standardize(X[tr], X[te])
        slices.append((Xtr, y[tr], Xte, y[te]))
    return slices


def cv_grid_scores(
    slice_sets: list[list[tuple]], c_grid=C_GRID, max_iter: int = 25
) -> list[tuple[float, float, float]]:
    """`cv_score` for several candidates at once: every candidate's
    `cv_slices` over the same fold split go into one `grid_fit_score`
    solve, and each candidate then takes its own grid argmax and
    log-likelihood from its own slices."""
    flat = [s for slices in slice_sets for s in slices]
    if flat:
        acc, ll_rows, _ = grid_fit_score(flat, c_grid, max_iter)
    out, at = [], 0
    for slices in slice_sets:
        if not slices:
            out.append((-1.0, 1.0, -np.inf))
            continue
        means = [float(np.mean(a)) for a in acc[:, at : at + len(slices)]]
        c = int(np.argmax(means))
        ll = np.mean([np.sum(ll_rows[c, at + f, : len(s[3])]) for f, s in enumerate(slices)])
        out.append((means[c], c_grid[c], float(ll)))
        at += len(slices)
    return out


def cv_score(
    X: np.ndarray,
    y: np.ndarray,
    fold: np.ndarray,
    c_grid=C_GRID,
    max_iter: int = 25,
) -> tuple[float, float, float]:
    """Grid-searched CV accuracy (== f1-micro for single-label data,
    binary or multiclass — multiclass runs one-vs-rest heads).

    Returns (best mean test accuracy over the grid, best C, mean test
    log-likelihood at the best C). The first C of the grid with the best
    mean wins ties. Folds as in `cv_slices`; with no usable fold the
    score is (-1.0, 1.0, -inf).
    """
    return cv_grid_scores([cv_slices(X, y, fold)], c_grid, max_iter)[0]


def cnn_instance_selection(
    X: np.ndarray, y: np.ndarray, *, seed: int = 42, max_passes: int = 5
) -> np.ndarray:
    """Condensed Nearest Neighbour instance selection (Hart 1968) — the
    reference's optional `instance.selection` pre-step
    (EvaluationFramework.py:175-201 via imblearn
    CondensedNearestNeighbour, instance_selection/instance_selection_cnn.py).
    Returns the sorted row indices of the condensed set: one seed point
    per class, then every point misclassified by 1-NN against the
    current store joins it, repeated until a full pass adds nothing.
    Deterministic under `seed`. Distances are vectorized against the
    store; this runs on the driver-side search sample only."""
    X = np.nan_to_num(np.asarray(X, dtype=np.float64), nan=0.0, posinf=0.0, neginf=0.0)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(y)
    mu, sd = X.mean(axis=0), X.std(axis=0)
    Xs = (X - mu) / np.where(sd == 0, 1.0, sd)
    rng = np.random.default_rng(seed)
    n = len(y)
    store: list[int] = []
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        store.append(int(rng.choice(idx)))
    order = rng.permutation(n)
    in_store = np.zeros(n, dtype=bool)
    in_store[store] = True
    for _ in range(max_passes):
        added = False
        S = Xs[store]
        Sy = y[store]
        for i in order:
            if in_store[i]:
                continue
            d = ((S - Xs[i]) ** 2).sum(axis=1)
            if Sy[np.argmin(d)] != y[i]:
                store.append(int(i))
                in_store[i] = True
                S = Xs[store]
                Sy = y[store]
                added = True
        if not added:
            break
    return np.sort(np.asarray(store))


def smote_oversample(
    X: np.ndarray,
    y: np.ndarray,
    *,
    k: int = 5,
    seed: int = 42,
    target_ratio: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """SMOTE minority oversampling (the reference's sampling wrapper,
    transformations/sampling/SmoteTransformation.py via imblearn SMOTE;
    re-implemented): synthesize minority samples by interpolating a
    random fraction of the way toward one of the k nearest minority
    neighbours until n_minority >= target_ratio * n_majority.
    Deterministic under `seed`; returns (X_aug, y_aug) with the
    synthetic rows appended. Runs on the driver-side sample (the
    reference applies it inside the sklearn pipeline on in-memory
    folds)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    classes, counts = np.unique(y, return_counts=True)
    if len(classes) != 2:
        raise ValueError("smote_oversample expects binary labels")
    minority = classes[np.argmin(counts)]
    maj_n, min_n = counts.max(), counts.min()
    n_new = int(np.ceil(target_ratio * maj_n)) - min_n
    if n_new <= 0:
        return X, y
    Xm = X[y == minority]
    k_eff = min(k, len(Xm) - 1)
    if k_eff < 1:
        return X, y
    # pairwise distances within the minority class (driver sample scale)
    d2 = ((Xm[:, None, :] - Xm[None, :, :]) ** 2).sum(-1)
    np.fill_diagonal(d2, np.inf)
    nn = np.argsort(d2, axis=1, kind="stable")[:, :k_eff]
    rng = np.random.default_rng(seed)
    base = rng.integers(0, len(Xm), n_new)
    pick = nn[base, rng.integers(0, k_eff, n_new)]
    gap = rng.random((n_new, 1))
    X_new = Xm[base] + gap * (Xm[pick] - Xm[base])
    return (
        np.vstack([X, X_new]),
        np.concatenate([y, np.full(n_new, minority, dtype=y.dtype)]),
    )
