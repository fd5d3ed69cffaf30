"""Round-2 search-layer features: MDLP/ExploreKit producers, nested CV,
side metrics, CNN instance selection, NSGA-II."""

import numpy as np
import pytest

from complexity_driven_feature_construction_ray.functions.expr import raw
from complexity_driven_feature_construction_ray.pipelines.model import (
    cnn_instance_selection,
    stratified_folds,
)
from complexity_driven_feature_construction_ray.pipelines.search import (
    ComplexityDrivenSearch,
    DIVISION_OPS,
    EXPLOREKIT_OPS,
    candidate_side_metrics,
    nested_cv_rescore,
)


def _sample(n=600, seed=3):
    rng = np.random.default_rng(seed)
    a = rng.uniform(1.0, 9.0, n)
    b = rng.uniform(0.5, 4.0, n)
    y = (a + rng.normal(0, 1.5, n) > 5.0).astype(np.int8)
    cols = {"a": a, "b": b}
    base = [
        raw("a", properties={"min": 1.0, "max": 9.0, "has_zero": False, "distinct": None}),
        raw("b", properties={"min": 0.5, "max": 4.0, "has_zero": False, "distinct": None}),
    ]
    return cols, y, base


class TestProducers:
    def test_default_is_division_with_mdlp(self):
        s = ComplexityDrivenSearch()
        assert s.unary_ops == DIVISION_OPS["unary_ops"]
        assert "mdlp" in s.unary_ops and "discretize" not in s.unary_ops

    def test_default_search_emits_mdlp_candidates(self, ray_session):
        cols, y, base = _sample()
        res = ComplexityDrivenSearch(
            c_max=2, epsilon=-1e9, use_ray=False, lr_max_iter=10
        ).run(cols, y, base)
        assert any("mdlp" in n for n in res.all_scored), sorted(res.all_scored)

    def test_explorekit_preset_emits_div_sub(self, ray_session):
        cols, y, base = _sample()
        # binary candidates cost 1 + complexity(both parents) => c_max=3
        res = ComplexityDrivenSearch(
            c_max=3, epsilon=-1e9, use_ray=False, lr_max_iter=10, **EXPLOREKIT_OPS
        ).run(cols, y, base)
        names = set(res.all_scored)
        assert any("/" in n and "1/" not in n for n in names), sorted(names)
        assert any("-" in n and "-1*" not in n for n in names), sorted(names)
        assert any("discretize" in n for n in names)


class TestNestedCV:
    def test_ray_matches_local_and_separates_signal_from_noise(self, ray_session):
        rng = np.random.default_rng(5)
        n = 400
        sig = rng.normal(0, 1, n)
        noise = rng.normal(0, 1, n)
        y = (sig > 0).astype(np.int8)
        cols = {"sig": sig, "noise": noise}
        feats = [
            raw("sig", properties={"min": -4.0, "max": 4.0}),
            raw("noise", properties={"min": -4.0, "max": 4.0}),
        ]
        local = nested_cv_rescore(
            feats, cols, y, cv=4, c_grid=(0.1, 1.0), max_iter=10, use_ray=False
        )
        via_ray = nested_cv_rescore(
            feats, cols, y, cv=4, c_grid=(0.1, 1.0), max_iter=10, use_ray=True
        )
        assert local == via_ray  # same deterministic folds and math
        assert local["sig"][0] > 0.95
        assert abs(local["noise"][0] - 0.5) < 0.15


class TestSideMetrics:
    def test_formulas_and_consistency(self, ray_session):
        # value 1.0 maps to both labels -> 4 of 8 rows inconsistent
        col = np.array([1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 4.0])
        y = np.array([0, 1, 0, 1, 0, 0, 1, 1], dtype=np.int8)
        cols = {"c": col}
        feat = raw("c", properties={"min": 1.0, "max": 4.0})
        fold = stratified_folds(y, 2, 42)
        m = candidate_side_metrics(feat, cols, y, fold, best_C=1.0, max_iter=10)
        n = len(y)
        base = n * np.log(m["rss"] / n)
        assert m["aic_k1"] == pytest.approx(2 * 1 + base)
        assert m["bic_k1"] == pytest.approx(np.log(n) * 1 + base)
        assert m["aicc_k1"] == pytest.approx(
            m["aic_k1"] + (2 * 1 * 2) / (n - 1 - 1)
        )
        k = feat.complexity
        assert m["bic_kc"] == pytest.approx(np.log(n) * k + base)
        assert m["consistency"] == pytest.approx(4 / 8)

    def test_attach_via_ray(self, ray_session):
        from complexity_driven_feature_construction_ray.pipelines.search import (
            compute_side_metrics,
        )

        cols, y, base = _sample(300)
        res = ComplexityDrivenSearch(
            c_max=2, epsilon=-1e9, use_ray=False, lr_max_iter=10
        ).run(cols, y, base)
        scored = compute_side_metrics(res.pareto, cols, y, cv=3, max_iter=10)
        for s in scored:
            assert s.side is not None and np.isfinite(s.side["rss"])
            assert 0.0 <= s.side["consistency"] <= 1.0

    def test_ray_matches_local(self, ray_session):
        from complexity_driven_feature_construction_ray.pipelines.search import (
            Scored,
            compute_side_metrics,
        )

        cols, y, base = _sample(300)
        res = ComplexityDrivenSearch(
            c_max=2, epsilon=-1e9, use_ray=False, lr_max_iter=10
        ).run(cols, y, base)
        top = sorted(res.all_scored.values(), key=lambda s: -s.score)[:4]
        assert len(top) > 1  # enough candidates for the Ray fan-out

        def sides(use_ray):
            fresh = [Scored(s.feature, s.score, s.best_C, s.loglik) for s in top]
            out = compute_side_metrics(fresh, cols, y, cv=3, max_iter=10, use_ray=use_ray)
            return [(s.name, s.side) for s in out]

        assert sides(True) == sides(False)


class TestCNNInstanceSelection:
    def test_condenses_separable_blobs(self):
        rng = np.random.default_rng(0)
        n = 400
        X = np.vstack(
            [rng.normal(-3, 0.5, (n // 2, 2)), rng.normal(3, 0.5, (n // 2, 2))]
        )
        y = np.repeat([0, 1], n // 2)
        keep = cnn_instance_selection(X, y, seed=42)
        assert len(keep) < n // 4  # separable data condenses hard
        assert set(y[keep]) == {0, 1}
        # 1-NN on the condensed set still classifies everything correctly
        S, Sy = X[keep], y[keep]
        pred = Sy[((S[None, :, :] - X[:, None, :]) ** 2).sum(-1).argmin(1)]
        assert (pred == y).mean() > 0.99

    def test_search_with_instance_selection_runs(self, ray_session):
        cols, y, base = _sample(300)
        res = ComplexityDrivenSearch(
            c_max=1, epsilon=-1e9, use_ray=False, lr_max_iter=10,
            instance_selection=True,
        ).run(cols, y, base)
        assert res.best is not None


class TestNSGA2:
    def _fixture(self, n=300, seed=9):
        rng = np.random.default_rng(seed)
        sig = rng.normal(0, 1, n)
        y = (sig > 0).astype(np.int8)
        feats = {
            "sig": sig,
            "noise1": rng.normal(0, 1, n),
            "noise2": rng.normal(0, 1, n),
        }
        names = sorted(feats)
        X = np.column_stack([feats[k] for k in names])
        sens = rng.choice(["g0", "g1"], n)
        ctx = rng.integers(0, 3, n)
        return X, names, y, sens, ctx

    def test_front_properties_and_determinism(self, ray_session):
        from complexity_driven_feature_construction_ray.pipelines.fairexp import (
            nsga2_search,
        )

        X, names, y, sens, ctx = self._fixture()
        kw = dict(
            sensitive=sens, contexts=ctx, protected="g1", cv=3,
            generations=5, max_iter=10, pop_size=8, use_ray=False,
        )
        res1 = nsga2_search(X, names, y, **kw)
        res2 = nsga2_search(X, names, y, **kw)
        assert res1["front"] == res2["front"]  # deterministic under seed
        front = res1["front"]
        assert front
        # mutual non-domination on (acc, fair, -n_features)
        for i, a in enumerate(front):
            for j, b in enumerate(front):
                if i == j:
                    continue
                dominates = (
                    b["acc"] >= a["acc"]
                    and b["fair"] >= a["fair"]
                    and -b["n_features"] >= -a["n_features"]
                    and (
                        b["acc"] > a["acc"]
                        or b["fair"] > a["fair"]
                        or b["n_features"] < a["n_features"]
                    )
                )
                assert not dominates, (a, b)
        # the informative feature carries the best-accuracy solutions
        best = max(front, key=lambda r: r["acc"])
        assert "sig" in best["selected"] and best["acc"] > 0.8

    def test_ray_matches_local(self, ray_session):
        from complexity_driven_feature_construction_ray.pipelines.fairexp import (
            nsga2_search,
        )

        X, names, y, sens, ctx = self._fixture()
        kw = dict(
            sensitive=sens, contexts=ctx, protected="g1", cv=3,
            generations=3, max_iter=10, pop_size=8,
        )
        assert nsga2_search(X, names, y, use_ray=True, **kw) == nsga2_search(
            X, names, y, use_ray=False, **kw
        )


class TestSmote:
    def test_balances_and_interpolates(self):
        from complexity_driven_feature_construction_ray.pipelines.model import (
            smote_oversample,
        )

        rng = np.random.default_rng(6)
        X_maj = rng.normal(0, 1, (180, 3))
        X_min = rng.normal(5, 0.5, (20, 3))
        X = np.vstack([X_maj, X_min])
        y = np.array([0] * 180 + [1] * 20, dtype=np.int8)
        Xa, ya = smote_oversample(X, y, seed=42)
        assert (ya == 1).sum() == (ya == 0).sum() == 180
        assert len(Xa) == len(ya) == 360
        # synthetic rows interpolate between minority points: they stay
        # inside the minority bounding box, far from the majority blob
        new = Xa[len(X):]
        lo, hi = X_min.min(axis=0), X_min.max(axis=0)
        assert (new >= lo - 1e-9).all() and (new <= hi + 1e-9).all()
        # deterministic
        Xb, yb = smote_oversample(X, y, seed=42)
        assert np.array_equal(Xa, Xb)

    def test_already_balanced_is_identity(self):
        from complexity_driven_feature_construction_ray.pipelines.model import (
            smote_oversample,
        )

        X = np.arange(20, dtype=np.float64).reshape(10, 2)
        y = np.array([0] * 5 + [1] * 5, dtype=np.int8)
        Xa, ya = smote_oversample(X, y)
        assert np.array_equal(Xa, X) and np.array_equal(ya, y)


class TestMulticlass:
    def test_cv_score_three_classes(self, ray_session):
        from complexity_driven_feature_construction_ray.pipelines.model import (
            cv_score,
            stratified_folds,
        )

        rng = np.random.default_rng(8)
        n = 600
        x = rng.uniform(0, 3, n)
        y = np.floor(x).astype(np.int8)  # 3 bands, perfectly separable by x
        y_noisy = np.where(rng.random(n) < 0.05, (y + 1) % 3, y).astype(np.int8)
        fold = stratified_folds(y_noisy, 4, 42)
        acc, best_c, ll = cv_score(x, y_noisy, fold, c_grid=(1.0, 10.0), max_iter=15)
        assert acc > 0.85
        assert np.isfinite(ll)

    def test_search_runs_on_multiclass_labels(self, ray_session):
        from complexity_driven_feature_construction_ray.pipelines.search import (
            ComplexityDrivenSearch,
        )

        rng = np.random.default_rng(9)
        n = 400
        a = rng.uniform(0, 3, n)
        b = rng.uniform(0, 1, n)
        y = np.floor(a).astype(np.int8)
        cols = {"a": a, "b": b}
        base = [
            raw("a", properties={"min": 0.0, "max": 3.0, "has_zero": True, "distinct": None}),
            raw("b", properties={"min": 0.0, "max": 1.0, "has_zero": True, "distinct": None}),
        ]
        res = ComplexityDrivenSearch(
            c_max=1, epsilon=-1e9, use_ray=False, lr_max_iter=10
        ).run(cols, y, base)
        assert res.best.name == "a" and res.best.score > 0.85
