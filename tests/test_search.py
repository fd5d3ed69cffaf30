"""F7 fixture: search parity — enumeration, ε-gate, Pareto/AICc, actor pool."""

import numpy as np
import pytest

from complexity_driven_feature_construction_ray.functions import raw
from complexity_driven_feature_construction_ray.pipelines import (
    ComplexityDrivenSearch,
    LogisticRegressionNumpy,
    cv_score,
    pareto_front,
    stratified_folds,
)
from complexity_driven_feature_construction_ray.pipelines.search import Broadcast, Scored, ScoringContext
from complexity_driven_feature_construction_ray.sources import token_table_arrow
from complexity_driven_feature_construction_ray.stages.token_stats import (
    token_stats_arrays,
)


def sample(n=1200):
    t = token_table_arrow(n)
    cols = {
        "n_tok": t["n_tok"].to_numpy().astype(float),
        "source": t["source"].to_numpy(zero_copy_only=False),
    }
    cols.update(token_stats_arrays(t["tokens"]))
    y = t["label"].to_numpy().astype(np.int8)
    base = [
        raw("n_tok", properties={"min": 1.0, "max": 512.0, "has_zero": False, "distinct": 512}),
        raw("tok_mean", properties={"min": float(cols["tok_mean"].min()), "max": float(cols["tok_mean"].max()), "has_zero": False, "distinct": None}),
        raw("source", "categorical", {"distinct": 5, "values": ["books", "chat", "code", "web", "wiki"]}),
    ]
    return cols, y, base


class TestModel:
    def test_logreg_learns_separable(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(400, 2))
        y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(np.int8)
        m = LogisticRegressionNumpy(C=10.0).fit(X, y)
        assert (m.predict(X) == y).mean() > 0.95

    def test_stratified_folds_balanced_and_deterministic(self):
        y = np.array([0] * 80 + [1] * 20, dtype=np.int8)
        f1 = stratified_folds(y, 5, seed=42)
        f2 = stratified_folds(y, 5, seed=42)
        assert np.array_equal(f1, f2)
        for k in range(5):
            assert (y[f1 == k] == 1).sum() == 4  # stratification exact here

    def test_cv_score_signal_vs_noise(self):
        rng = np.random.default_rng(1)
        y = rng.integers(0, 2, 600).astype(np.int8)
        fold = stratified_folds(y, 5)
        signal = y.astype(float) + rng.normal(0, 0.3, 600)
        noise = rng.normal(size=600)
        s_sig, _, _ = cv_score(signal, y, fold)
        s_noise, _, _ = cv_score(noise, y, fold)
        assert s_sig > 0.9 > s_noise + 0.3


class TestSearch:
    def test_layers_and_dedup(self):
        cols, y, base = sample()
        res = ComplexityDrivenSearch(c_max=2, epsilon=-1e9, use_ray=False).run(cols, y, base)
        assert set(res.survivors) == {1, 2}
        names1 = {s.name for s in res.survivors[1]}
        assert names1 == {"n_tok", "tok_mean"}
        names2 = {s.name for s in res.survivors[2]}
        assert "minmax(n_tok)" in names2 and "log(n_tok)" in names2
        assert any(n.startswith("onehot(source=") for n in names2)
        # sympy dedup caught at least the commutative duplicates
        assert res.stats["deduped_sympy"] >= 0
        assert res.stats["scored"] == len(res.all_scored)

    def test_epsilon_gate_prunes(self):
        cols, y, base = sample()
        loose = ComplexityDrivenSearch(c_max=2, epsilon=-1e9, use_ray=False).run(cols, y, base)
        tight = ComplexityDrivenSearch(c_max=2, epsilon=0.5, use_ray=False).run(cols, y, base)
        # epsilon=0.5 is unreachable: only always-pass (raw/onehot) survive
        assert len(tight.survivors.get(2, [])) < len(loose.survivors[2])
        assert all(
            s.feature.op in ("raw", "onehot") for s in tight.survivors.get(2, [])
        )
        assert tight.stats["pruned_eps"] > 0

    def test_pareto_and_aicc(self):
        class Fake:
            def __init__(self, name, complexity, score):
                self.name, self.complexity, self.score = name, complexity, score
                self.loglik, self.best_C = -100.0 * complexity, 1.0

        scored = [Fake("f1", 1, 0.6), Fake("f2", 2, 0.7), Fake("f3", 3, 0.65), Fake("f4", 2, 0.5)]
        front = pareto_front(scored)
        assert [s.name for s in front] == ["f1", "f2"]  # f3 dominated (worse+complexer)

    def test_ray_pool_matches_driver_side(self, ray_session):
        cols, y, base = sample(800)
        kw = dict(c_max=2, epsilon=-1e9, lr_max_iter=10)
        drv = ComplexityDrivenSearch(use_ray=False, **kw).run(cols, y, base)
        rayres = ComplexityDrivenSearch(use_ray=True, **kw).run(cols, y, base)
        assert set(drv.all_scored) == set(rayres.all_scored)
        for k in drv.all_scored:
            assert abs(drv.all_scored[k].score - rayres.all_scored[k].score) < 1e-12
        assert drv.best.name == rayres.best.name


def test_harmonic_mean_stop(ray_session):
    """c_max=None stops via the harmonic-mean criterion (reference
    ComplexityDrivenFeatureConstruction.py:266-318,660-676) before the
    hard cap."""
    from complexity_driven_feature_construction_ray.pipelines.flagship import search_sample
    from complexity_driven_feature_construction_ray.functions.expr import raw as raw_f

    cols, y = search_sample(600)
    base = [
        raw_f("n_tok", properties={"min": 1.0, "max": 512.0, "has_zero": False, "distinct": 512}),
        raw_f("tok_mean", properties={"min": 0.0, "max": 50257.0, "has_zero": False}),
        raw_f("source", "categorical", {"distinct": 5, "values": ["books", "chat", "code", "web", "wiki"]}),
    ]
    s = ComplexityDrivenSearch(c_max=None, hard_c_cap=6, use_ray=False, lr_max_iter=10)
    res = s.run(cols, y, base)
    assert "harmonic_stop" in res.stats
    assert res.stats["harmonic_stop"] <= 6


def test_speculative_sffs_matches_selection_quality(ray_session):
    from complexity_driven_feature_construction_ray.pipelines.fairexp import sffs_repair

    rng = np.random.default_rng(4)
    n = 400
    x_good = rng.normal(size=n)
    y = (x_good + rng.normal(0, 0.3, n) > 0).astype(np.int8)
    X = np.column_stack([x_good, rng.normal(size=n), rng.normal(size=n), rng.normal(size=n)])
    names = ["good", "n1", "n2", "n3"]
    sens = rng.choice(["web", "books"], n)
    ctx = rng.integers(0, 3, n)
    res = sffs_repair(
        X, names, y, sensitive=sens, contexts=ctx, protected="web",
        use_ray=True, speculative=4,
    )
    assert "good" in res["selected"]
    assert res["acc"] > 0.8


def test_multiple_cv_rescore(ray_session):
    """Repeated-CV re-scoring: mean tracks the single-split score, std is
    small for a strong feature, ray and serial paths agree."""
    from complexity_driven_feature_construction_ray.pipelines.search import (
        multiple_cv_rescore,
    )
    from complexity_driven_feature_construction_ray.pipelines.flagship import search_sample
    from complexity_driven_feature_construction_ray.functions.expr import raw as raw_f, unary as unary_f

    cols, y = search_sample(800)
    n_tok = raw_f("n_tok", properties={"min": 1.0, "max": 512.0, "has_zero": False, "distinct": 512})
    feats = [n_tok, unary_f("log", n_tok)]
    got = multiple_cv_rescore(feats, cols, y, repeats=3, use_ray=True, max_iter=10)
    ser = multiple_cv_rescore(feats, cols, y, repeats=3, use_ray=False, max_iter=10)
    assert set(got) == {"n_tok", "log(n_tok)"}
    for name in got:
        assert got[name] == ser[name]  # deterministic: identical folds, same math
        mean, std = got[name]
        assert 0.4 < mean <= 1.0 and std < 0.1


def test_failing_candidate_is_dropped_not_fatal(ray_session):
    """A candidate whose kernel raises is skipped (reference
    run_evaluation.py:401-414 evaluate_catch), in both scoring paths."""
    from complexity_driven_feature_construction_ray.functions.expr import (
        CUSTOM_OPS,
        custom,
        register_op,
    )
    from complexity_driven_feature_construction_ray.pipelines.flagship import search_sample

    def boom(args, f, state):
        raise RuntimeError("kernel failure")

    register_op("boom", kernel=boom)
    try:
        cols, y = search_sample(400)
        n_tok = raw("n_tok", properties={"min": 1.0, "max": 512.0, "has_zero": False, "distinct": 512})
        bad = custom("boom", n_tok)
        s = ComplexityDrivenSearch(use_ray=False, lr_max_iter=5)
        ctx = ScoringContext(cols, y, stratified_folds(y, 3), s.c_grid, s.lr_max_iter)
        good, dropped = s._score_layer([n_tok, bad], Broadcast(ctx, use_ray=False))
        assert good[5] is False and good[1] > 0.5  # the good raw still scores
        assert dropped[5] is True and dropped[4] == "error:boom(n_tok)"  # const flag -> dropped
        ctx = ScoringContext(cols, y, (np.arange(len(y)) % 2).astype(np.int64), s.c_grid, s.lr_max_iter)
        res_ray = ComplexityDrivenSearch(use_ray=True, lr_max_iter=5, score_batch=1)._score_layer(
            [n_tok, bad, n_tok], Broadcast(ctx)
        )
        by_name = {r[0].name: r for r in res_ray}
        assert by_name["boom(n_tok)"][5]
    finally:
        CUSTOM_OPS.pop("boom", None)
