"""FairExp layer: fairness measures vs brute-force oracles, filters, SFFS."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data

from complexity_driven_feature_construction_ray.pipelines.fairexp import (
    conditional_gap_from_groups,
    drop_nan_inf,
    duplicate_columns,
    fairness_groups,
    gap_measure,
    mutual_information,
    rod_arrays,
    rod_measure,
    sffs_repair,
)


def _brute_rod(pred, sens, ctx, protected):
    """Literal reference semantics (fmeasures/ROD.py:101-141)."""
    pred = np.asarray(pred, dtype=float)
    n = len(pred)
    rods, weights = [], []
    for z in sorted(set(ctx)):
        ids = np.asarray(ctx) == z
        m0 = ids & (np.asarray(sens) != protected)
        m1 = ids & (np.asarray(sens) == protected)
        p10 = pred[m0].mean() if m0.any() else 0.5
        p11 = pred[m1].mean() if m1.any() else 0.5
        with np.errstate(divide="ignore", invalid="ignore"):
            o = (p10 / (1 - p10)) * ((1 - p11) / p11)
        if np.isfinite(o):
            rods.append(o)
            weights.append(ids.sum() / n)
    return -abs(np.dot(rods, weights) - 1) if rods else 0.0


@pytest.fixture()
def fair_df():
    rng = np.random.default_rng(11)
    n = 800
    return pd.DataFrame(
        {
            "ctx": rng.choice(["a", "b", "c"], n),
            "sens": rng.choice(["web", "books", "code"], n, p=[0.5, 0.3, 0.2]),
            "pred": rng.integers(0, 2, n).astype(float),
            "y": rng.integers(0, 2, n).astype(np.int8),
        }
    )


def test_rod_matches_bruteforce(ray_session, fair_df):
    ds = ray.data.from_pandas(fair_df)
    got = rod_measure(ds, ctx_cols=["ctx"], sens_col="sens", pred_col="pred", protected="web")
    exp = _brute_rod(fair_df["pred"], fair_df["sens"], fair_df["ctx"], "web")
    assert np.isclose(got, exp)
    # in-memory variant agrees with the distributed one
    got2 = rod_arrays(
        fair_df["pred"].to_numpy(), fair_df["sens"].to_numpy(),
        fair_df["ctx"].to_numpy(), "web",
    )
    assert np.isclose(got2, exp)


def test_conditional_gaps(ray_session, fair_df):
    ds = ray.data.from_pandas(fair_df)
    for kind, metric in (
        ("cdp", lambda g: g["pred"].mean()),
        ("ctpb", lambda g: g.loc[g["y"] == 1, "pred"].mean()),
        ("ctnb", lambda g: (1 - g.loc[g["y"] == 0, "pred"]).mean()),
    ):
        got = gap_measure(
            ds, ctx_cols=["ctx"], sens_col="sens", pred_col="pred", y_col="y", kind=kind
        )
        total = 0.0
        for _, cg in fair_df.groupby("ctx"):
            if cg["sens"].nunique() < 2:
                continue
            rates = cg.groupby("sens").apply(metric, include_groups=False).dropna()
            if len(rates) < 2:
                continue
            total += (rates.max() - rates.min()) * len(cg) / len(fair_df)
        assert np.isclose(got, total), kind


def test_rod_empty_side_defaults(ray_session):
    # context "b" has no protected rows -> p_1_1 = 0.5 (ROD.py:116-121)
    df = pd.DataFrame(
        {
            "ctx": ["a", "a", "a", "b", "b"],
            "sens": ["web", "x", "x", "x", "x"],
            "pred": [1.0, 0.0, 1.0, 1.0, 0.0],
        }
    )
    got = rod_measure(
        ray.data.from_pandas(df), ctx_cols=["ctx"], sens_col="sens",
        pred_col="pred", protected="web",
    )
    exp = _brute_rod(df["pred"], df["sens"], df["ctx"], "web")
    assert np.isclose(got, exp)


def test_drop_nan_inf(ray_session):
    df = pd.DataFrame({"a": [1.0, np.nan, 2.0, np.inf], "b": [1.0, 1.0, np.nan, 1.0]})
    out = drop_nan_inf(ray.data.from_pandas(df), ["a", "b"]).to_pandas()
    assert out["a"].tolist() == [1.0]


def test_duplicate_columns():
    X = np.array([[1.0, 1.0, 2.0], [3.0, 3.0, 4.0]])
    assert duplicate_columns(X, ["p", "q", "r"]) == ["q"]


def test_mutual_information_signal_vs_noise():
    rng = np.random.default_rng(5)
    y = rng.integers(0, 2, 2000)
    informative = y + rng.normal(0, 0.1, size=len(y))
    noise = rng.normal(size=len(y))
    assert mutual_information(informative, y) > 0.3
    assert mutual_information(noise, y) < 0.05
    assert mutual_information(np.ones(len(y)), y) == 0.0


def test_sffs_selects_informative_features(ray_session):
    rng = np.random.default_rng(3)
    n = 600
    x_good = rng.normal(size=n)
    y = (x_good + rng.normal(0, 0.3, n) > 0).astype(np.int8)
    X = np.column_stack([x_good, rng.normal(size=n), rng.normal(size=n)])
    names = ["good", "noise1", "noise2"]
    sens = rng.choice(["web", "books"], n)
    ctx = rng.integers(0, 3, n)
    res = sffs_repair(
        X, names, y, sensitive=sens, contexts=ctx, protected="web", use_ray=False
    )
    assert "good" in res["selected"]
    assert res["acc"] > 0.8
    # pareto front is non-dominated in (acc, fair)
    for _, a_i, f_i in res["pareto"]:
        assert not any(
            (a_j >= a_i and f_j >= f_i and (a_j > a_i or f_j > f_i))
            for _, a_j, f_j in res["registered"]
        )


@pytest.mark.parametrize("speculative", [0, 4])
def test_sffs_ray_matches_local(ray_session, speculative):
    """The Ray fan-out and the in-process loop return the identical
    repair, at plain and at speculative width."""
    rng = np.random.default_rng(8)
    n = 400
    X = rng.normal(size=(n, 5))
    y = (X[:, 0] + 0.7 * X[:, 1] + 0.5 * X[:, 2] + rng.normal(0, 0.5, n) > 0).astype(np.int8)
    names = ["a", "b", "c", "n1", "n2"]
    kw = dict(
        sensitive=rng.choice(["web", "books"], n), contexts=rng.integers(0, 3, n),
        protected="web", cv=3, max_iter=10, speculative=speculative,
    )
    local = sffs_repair(X, names, y, use_ray=False, **kw)
    via_ray = sffs_repair(X, names, y, use_ray=True, **kw)
    assert via_ray == local
    assert len(local["selected"]) > 1  # floating eliminations had >1 candidate


def test_fairness_groups_shape(ray_session, fair_df):
    g = fairness_groups(
        ray.data.from_pandas(fair_df), ctx_cols=["ctx"], sens_col="sens",
        pred_col="pred", y_col="y",
    )
    assert set(g.columns) >= {"ctx", "sens", "n", "sum_pred", "n_pos", "sum_pred_pos"}
    assert g["n"].sum() == len(fair_df)


def test_fairexp_lifecycle_with_causal_hook(ray_session):
    from complexity_driven_feature_construction_ray.pipelines.fairexp import (
        fairexp_lifecycle,
    )

    vetoed = []

    def causal(name, x, y, sens):
        if "tok_std" in name:
            vetoed.append(name)
            return False
        return True

    res = fairexp_lifecycle(
        3000, sample_rows=800, c_max=2, causal_filter=causal, use_ray=False
    )
    # hook vetoes flow into dropped_causal; vetoed features never reach SFFS
    assert res["dropped_causal"] == vetoed and vetoed
    assert not any("tok_std" in s for s in res["backfilled"])
    # backfilled dataset drops NaN/Inf rows but keeps the schema
    n = res["dataset"].count()
    assert 0 < n <= 3000
    assert res["selected"], "SFFS selected at least one feature"
    assert 0.0 <= res["acc"] <= 1.0


def test_lifecycle_nsga2_strategy(ray_session):
    from complexity_driven_feature_construction_ray.pipelines.fairexp import (
        fairexp_lifecycle,
    )

    res = fairexp_lifecycle(
        1200, sample_rows=800, c_max=1, use_ray=False, strategy="nsga2"
    )
    assert res["selected"]  # a non-empty selection off the evolutionary front
    assert 0.0 <= res["acc"] <= 1.0
    assert res["pareto"]
