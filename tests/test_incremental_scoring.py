"""Incremental, batched candidate scoring.

The search scores each candidate from its parents' memoized per-fold
outputs and fits each task batch's candidates in one Newton solve
(`ScoringContext`). These tests hold it to the per-fold refit it
replaced, copied below as the reference: score, best C, log-likelihood,
value hash and the constant flag must be bit-equal for every candidate
a search scores, and equal again across the in-process path, 4-CPU Ray
tasks and a 1-CPU cluster (run in a subprocess, since the suite's Ray
has 4 CPUs).
"""

import hashlib
import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from complexity_driven_feature_construction_ray.functions.expr import (
    CUSTOM_OPS,
    custom,
    groupbythen,
    onehot,
    raw,
    register_op,
    unary,
)
from complexity_driven_feature_construction_ray.functions.kernels import evaluate, fit_on_arrays
from complexity_driven_feature_construction_ray.pipelines.model import (
    C_GRID,
    cv_score,
    stratified_folds,
)
from complexity_driven_feature_construction_ray.pipelines.search import (
    EXPLOREKIT_OPS,
    Broadcast,
    ComplexityDrivenSearch,
    ScoringContext,
    multiple_cv_rescore,
)
from complexity_driven_feature_construction_ray.sources import token_table_arrow
from complexity_driven_feature_construction_ray.stages.token_stats import token_stats_arrays

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- the reference: per-fold refit of the whole tree, one cv_score each ------


def _eval_candidate(feat, cols, y, fold, c_grid, max_iter=25):
    """Per-fold fit/transform + grid CV; returns (score, C, loglik, vhash, const)."""
    k = int(fold.max()) + 1
    col_out = np.empty(len(y), dtype=np.float64)
    hasher = hashlib.blake2b(digest_size=16)
    for f in range(k):
        tr = fold != f
        cols_tr = {c: v[tr] for c, v in cols.items()}
        fitted = fit_on_arrays([feat], cols_tr, y=y[tr])
        te = ~tr
        cols_te = {c: v[te] for c, v in cols.items()}
        out_te = evaluate(feat, cols_te, fitted)
        col_out[te] = out_te
        hasher.update(np.round(np.nan_to_num(out_te, nan=-1e18), 10).tobytes())
    finite = col_out[np.isfinite(col_out)]
    if len(finite) == 0 or (len(finite) and finite.min() == finite.max()):
        return (0.0, 1.0, -np.inf, hasher.hexdigest(), True)
    score, best_c, ll = cv_score(col_out, y, fold, c_grid, max_iter)
    return (score, best_c, ll, hasher.hexdigest(), False)


def _reference(feat, cols, y, fold, c_grid, max_iter):
    try:
        return _eval_candidate(feat, cols, y, fold, c_grid, max_iter)
    except Exception:
        return (0.0, 1.0, -np.inf, f"error:{feat.name}", True)


# -- fixtures ----------------------------------------------------------------


def _sample(classes: int = 2, n: int = 200):
    """Token-table sample with a categorical raw, a pure-noise raw and a
    raw with missing values (parked until the impute ops reach it)."""
    t = token_table_arrow(n)
    cols = {
        "n_tok": t["n_tok"].to_numpy().astype(np.float64),
        "source": t["source"].to_numpy(zero_copy_only=False),
    }
    cols.update(token_stats_arrays(t["tokens"]))
    rng = np.random.default_rng(5)
    cols["noise"] = rng.normal(size=n)
    gappy = cols["tok_std"].copy()
    gappy[rng.random(n) < 0.15] = np.nan
    cols["gappy"] = gappy
    y = t["label"].to_numpy().astype(np.int8)
    if classes == 3:
        y = np.where(cols["n_tok"] > np.median(cols["n_tok"]), y, 2).astype(np.int8)

    def num(c, **props):
        v = cols[c]
        return raw(c, properties={
            "min": float(np.nanmin(v)), "max": float(np.nanmax(v)),
            "has_zero": bool(np.nanmin(v) <= 0 <= np.nanmax(v)),
            "distinct": int(len(np.unique(v[~np.isnan(v)]))), **props,
        })

    base = [
        num("n_tok"), num("tok_mean"), num("noise"), num("gappy", missing_values=True),
        raw("source", "categorical", {"distinct": 5, "values": ["books", "chat", "code", "web", "wiki"]}),
    ]
    return cols, y, base


CASES = {
    "layered_c4": (2, dict(c_max=4)),
    "layered_3class": (3, dict(c_max=3)),
    "explorekit": (2, dict(strategy="explorekit", **{k: v for k, v in EXPLOREKIT_OPS.items() if k != "gbt_aggs"}, gbt_aggs=("mean",))),
    "tree": (2, dict(strategy="tree", tree_depth=2, tree_frontier_cap=5, unary_ops=("mdlp", "minmax", "impute_mean"), binary_ops=("add", "div"), gbt_aggs=("mean",))),
}


class _Recording(ComplexityDrivenSearch):
    """Keeps every (name, score, C, loglik, vhash, const) it scores."""

    def _score_layer(self, layer, shared, keep=None):
        out = super()._score_layer(layer, shared, keep)
        self.record.extend(out)
        return out


def _run_case(name: str, use_ray: bool):
    classes, kw = CASES[name]
    cols, y, base = _sample(classes)
    s = _Recording(use_ray=use_ray, lr_max_iter=10, **kw)
    s.record = []
    s.run(cols, y, base)
    return s.record


def _as_json(rows) -> list:
    return json.loads(json.dumps([[f.name, *r] for f, *r in rows]))


def one_cpu_report() -> dict:
    """Run in a subprocess whose Ray cluster has 1 CPU: every case's
    search records and the FairExp answers. Any map that tries to submit
    a Ray task raises."""
    import ray

    import complexity_driven_feature_construction_ray.pipelines.search as search

    ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
    search._map_task = _no_tasks
    shared = Broadcast((1, 2))
    out = {
        "mapped": shared.map(_add_ctx, range(6)),
        "put": shared._ref is not None,
        "cases": {name: _as_json(_run_case(name, use_ray=True)) for name in CASES},
        "sffs": _sffs(use_ray=True),
        "nsga2": _nsga2(use_ray=True),
    }
    ray.shutdown()
    return out


def _no_tasks():
    raise AssertionError("a Ray task was submitted on a 1-CPU cluster")


def _add_ctx(ctx, item):
    return ctx[0] + ctx[1] + item


def _fairexp_fixture():
    rng = np.random.default_rng(8)
    n = 300
    X = rng.normal(size=(n, 5))
    y = (X[:, 0] + 0.7 * X[:, 1] + 0.5 * X[:, 2] + rng.normal(0, 0.5, n) > 0).astype(np.int8)
    kw = dict(
        sensitive=rng.choice(["web", "books"], n), contexts=rng.integers(0, 3, n),
        protected="web", cv=3, max_iter=10,
    )
    return X, ["a", "b", "c", "n1", "n2"], y, kw


def _sffs(use_ray: bool):
    from complexity_driven_feature_construction_ray.pipelines.fairexp import sffs_repair

    X, names, y, kw = _fairexp_fixture()
    return json.loads(json.dumps(sffs_repair(X, names, y, use_ray=use_ray, speculative=4, **kw)))


def _nsga2(use_ray: bool):
    from complexity_driven_feature_construction_ray.pipelines.fairexp import nsga2_search

    X, names, y, kw = _fairexp_fixture()
    return json.loads(json.dumps(
        nsga2_search(X, names, y, use_ray=use_ray, generations=3, pop_size=8, **kw)
    ))


@pytest.fixture(scope="module")
def one_cpu():
    code = (
        "import sys, json; sys.path.insert(0, {tests!r}); "
        "import test_incremental_scoring as t; "
        "print('REPORT' + json.dumps(t.one_cpu_report()))"
    ).format(tests=os.path.join(REPO, "tests"))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=REPO, capture_output=True, text=True, timeout=600
    )
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("REPORT")]
    assert proc.returncode == 0 and lines, proc.stderr[-3000:]
    return json.loads(lines[-1][len("REPORT"):])


# -- tests -------------------------------------------------------------------


@pytest.mark.parametrize("case", sorted(CASES))
def test_search_scores_equal_per_fold_refit(ray_session, case):
    classes, _kw = CASES[case]
    cols, y, _base = _sample(classes)
    record = _run_case(case, use_ray=False)
    fold = stratified_folds(y, 5, 42)
    for f, *got in record:
        assert tuple(got) == _reference(f, cols, y, fold, C_GRID, 10), f.name
    ops = {f.op for f, *_ in record}
    dropped = [f.name for f, *r in record if r[3].startswith("error:")]
    if case == "layered_c4":
        # the node kinds the memo has to get right are all exercised
        assert {"mdlp", "onehot", "impute_mean", "gbt_mean", "add", "mul"} <= ops
        assert any(f.op == "mdlp" and f.parents[0].op != "raw" for f, *_ in record)
        assert "impute_mean(gappy)" in {f.name for f, *_ in record}
        assert dropped  # MDLP finding no cut drops a candidate
    if case == "layered_3class":
        assert len(np.unique(y)) == 3 and len(record) > 50
    assert len(record) > 20


@pytest.mark.parametrize("case", sorted(CASES))
def test_search_equal_across_paths(ray_session, one_cpu, case):
    """In-process, 4-CPU tasks and a 1-CPU cluster score identically."""
    local = _as_json(_run_case(case, use_ray=False))
    assert _as_json(_run_case(case, use_ray=True)) == local
    assert one_cpu["cases"][case] == local


def test_one_cpu_cluster_runs_in_process(ray_session, one_cpu):
    """On a 1-CPU cluster `Broadcast.map` submits no task (the report's
    task factory raises) and puts no context; SFFS and NSGA-II answer as
    they do on 4 CPUs."""
    assert one_cpu["mapped"] == [3, 4, 5, 6, 7, 8]
    assert not one_cpu["put"]
    assert one_cpu["sffs"] == _sffs(use_ray=True)
    assert one_cpu["nsga2"] == _nsga2(use_ray=True)


def test_raising_candidates_dropped_alone_in_a_batch(ray_session):
    """A custom op whose kernel raises, and an MDLP child that finds no
    cut, share one batch (one solve) with good candidates: only they are
    dropped, and the good ones score exactly as the per-fold refit."""

    def boom(args, f, state):
        raise RuntimeError("kernel failure")

    register_op("boom", kernel=boom)
    try:
        cols, y, base = _sample()
        n_tok, tok_mean, noise, gappy, source = base
        fold = stratified_folds(y, 5, 42)
        no_cut = unary("mdlp", unary("minus", noise))
        layer = [
            unary("minmax", n_tok), custom("boom", n_tok), no_cut,
            onehot(source, "web"), groupbythen("mean", tok_mean, source),
            unary("impute_mean", gappy), unary("log", n_tok),
        ]
        assert _reference(no_cut, cols, y, fold, C_GRID, 10)[3].startswith("error:")
        ctx = ScoringContext(cols, y, fold, C_GRID, 10)
        s = ComplexityDrivenSearch(use_ray=False, lr_max_iter=10, score_batch=len(layer))
        got = s._score_layer(layer, Broadcast(ctx, use_ray=False))
        for f, *r in got:
            assert tuple(r) == _reference(f, cols, y, fold, C_GRID, 10), f.name
        assert [f.name for f, *r in got if r[3].startswith("error:")] == ["boom(n_tok)", no_cut.name]
        # the same layer as one Ray task per candidate
        s.score_batch = 1
        again = s._score_layer(layer, Broadcast(ctx))
        assert [r for _f, *r in again] == [r for _f, *r in got]
    finally:
        CUSTOM_OPS.pop("boom", None)


def test_raising_joint_solve_drops_only_its_candidate(ray_session, monkeypatch):
    """When the batch's one solve raises, each candidate is solved alone:
    the one whose solve raises is dropped, the others score as the
    per-fold refit."""
    import complexity_driven_feature_construction_ray.pipelines.search as search

    real = search.cv_grid_scores

    def solve(slice_sets, c_grid, max_iter):
        # the "tri" candidate's standardized train column has 3 values
        if any(len(np.unique(s[0][0])) == 3 for s in slice_sets):
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(slice_sets, c_grid, max_iter)

    monkeypatch.setattr(search, "cv_grid_scores", solve)
    register_op("tri", kernel=lambda args, f, state: np.arange(len(args[0])) % 3.0)
    try:
        cols, y, base = _sample()
        n_tok, tok_mean, _noise, _gappy, source = base
        fold = stratified_folds(y, 5, 42)
        layer = [unary("minmax", n_tok), custom("tri", n_tok), onehot(source, "web"), tok_mean]
        got = ScoringContext(cols, y, fold, C_GRID, 10).score(layer)
        assert got[1] == (0.0, 1.0, -np.inf, "error:tri(n_tok)", True)
        for i in (0, 2, 3):
            assert got[i] == _reference(layer[i], cols, y, fold, C_GRID, 10), layer[i].name
    finally:
        CUSTOM_OPS.pop("tri", None)


def test_retain_keeps_only_possible_parents(ray_session):
    cols, y, base = _sample()
    n_tok, tok_mean = base[:2]
    ctx = ScoringContext(cols, y, stratified_folds(y, 5, 42), C_GRID, 10)

    def memo_names():
        return {n for *_, state, train, test in ctx._memo() for d in (state, train, test) for n in d}

    child = unary("minmax", unary("minus", n_tok))
    ctx.score([child, unary("log", tok_mean)])
    assert {"n_tok", "(-1*n_tok)", child.name, "log(tok_mean)"} <= memo_names()
    ctx.retain((2, frozenset({"n_tok", "(-1*n_tok)"})))
    assert memo_names() == {"n_tok", "(-1*n_tok)"}
    ctx.score([child])
    ctx.retain((2, frozenset({"n_tok"})))  # same layer: nothing dropped
    assert child.name in memo_names()
    # the memo never travels with the context
    assert pickle.loads(pickle.dumps(ctx))._folds is None
    assert ctx.score([child]) == ScoringContext(cols, y, ctx.fold, C_GRID, 10).score([child])


def test_multiple_cv_rescore_matches_refit(ray_session):
    cols, y, base = _sample()
    n_tok, tok_mean, noise, gappy, source = base
    feats = [unary("minmax", n_tok), unary("mdlp", noise), onehot(source, "web"), tok_mean, unary("impute_mean", gappy)]
    got = multiple_cv_rescore(feats, cols, y, repeats=3, max_iter=10, use_ray=True)
    assert got == multiple_cv_rescore(feats, cols, y, repeats=3, max_iter=10, use_ray=False)
    for f in feats:
        per = [_reference(f, cols, y, stratified_folds(y, 5, 42 + r), C_GRID, 10)[0] for r in range(3)]
        assert got[f.name] == (float(np.mean(per)), float(np.std(per))), f.name
