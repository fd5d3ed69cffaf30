"""F8 fixtures: as-of join / lag-lead / sessionize vs brute-force oracles."""

import numpy as np
import pandas as pd
import pytest
import ray.data

from complexity_driven_feature_construction_ray.sources import token_table_arrow
from complexity_driven_feature_construction_ray.stages.temporal import (
    asof_join,
    lag_lead,
    sessionize,
)


def make_events(n_entities=60, seed=7):
    """~4 feature events per entity, ties allowed (FIXTURES.md F8)."""
    rng = np.random.default_rng(seed)
    rows = []
    base = pd.Timestamp("2025-01-01")
    for i in range(n_entities):
        k = f"doc-{i:012d}"
        for _ in range(rng.integers(2, 6)):
            rows.append(
                {
                    "entity_id": k,
                    "event_ts": base + pd.Timedelta(minutes=int(rng.integers(0, 40000))),
                    "value": float(rng.integers(0, 1000)),
                }
            )
    # inject exact-tie events
    rows.append({"entity_id": "doc-000000000000", "event_ts": rows[0]["event_ts"], "value": -5.0})
    return pd.DataFrame(rows)


@pytest.fixture(scope="module")
def probe_table():
    return token_table_arrow(300)


@pytest.fixture(scope="module")
def events_df():
    return make_events()


def test_asof_join_matches_bruteforce(ray_session, probe_table, events_df):
    probe = ray.data.from_arrow(probe_table.select(["doc_id", "ingest_ts", "n_tok"])).repartition(4)
    events = ray.data.from_pandas(events_df).repartition(3)
    out = asof_join(
        probe,
        events,
        key="doc_id",
        probe_ts="ingest_ts",
        event_ts="event_ts",
        value_cols=["value"],
        event_key="entity_id",
        num_buckets=5,
    ).to_pandas()
    assert len(out) == probe_table.num_rows
    out = out.set_index("doc_id")

    pdf = probe_table.to_pandas()
    ev = events_df
    for _, row in pdf.iterrows():
        cand = ev[(ev["entity_id"] == row["doc_id"]) & (ev["event_ts"] <= row["ingest_ts"])]
        got = out.loc[row["doc_id"], "asof_value"]
        if len(cand) == 0:
            assert pd.isna(got), row["doc_id"]
        else:
            latest = cand.loc[cand["event_ts"].idxmax()]
            ties = cand[cand["event_ts"] == latest["event_ts"]]["value"].values
            assert got in ties, (row["doc_id"], got, ties)
    # zero temporal leakage: every attached value exists at ts <= probe ts
    merged = out.reset_index().merge(ev, left_on="doc_id", right_on="entity_id")
    attached = merged[merged["asof_value"] == merged["value"]]
    assert (attached.groupby("doc_id").apply(
        lambda g: (g["event_ts"] <= g["ingest_ts"]).any()
    )).all()


def test_asof_join_partition_invariance(ray_session, probe_table, events_df):
    probe = ray.data.from_arrow(probe_table.select(["doc_id", "ingest_ts"]))
    events = ray.data.from_pandas(events_df)
    kw = dict(key="doc_id", probe_ts="ingest_ts", event_ts="event_ts",
              value_cols=["value"], event_key="entity_id")
    one = asof_join(probe, events, num_buckets=1, **kw).to_pandas().sort_values("doc_id")
    many = asof_join(probe.repartition(7), events.repartition(5), num_buckets=13, **kw).to_pandas().sort_values("doc_id")
    a = one.set_index("doc_id")["asof_value"]
    b = many.set_index("doc_id")["asof_value"]
    assert ((a == b) | (a.isna() & b.isna())).all()


def test_lag_lead_matches_oracle(ray_session, probe_table):
    ds = ray.data.from_arrow(probe_table.select(["doc_id", "source", "ingest_ts", "n_tok"]))
    out = lag_lead(
        ds, key="source", ts="ingest_ts", cols=["n_tok"], lags=(1,), leads=(1,), num_buckets=3
    ).to_pandas().sort_values(["source", "ingest_ts"], kind="stable")
    pdf = probe_table.to_pandas().sort_values(["source", "ingest_ts"], kind="stable")
    for src, g in pdf.groupby("source"):
        got = out[out["source"] == src]
        exp_lag = g["n_tok"].astype(float).shift(1)
        exp_lead = g["n_tok"].astype(float).shift(-1)
        assert np.allclose(got["n_tok_lag1"].values, exp_lag.values, equal_nan=True)
        assert np.allclose(got["n_tok_lead1"].values, exp_lead.values, equal_nan=True)


def test_sessionize_matches_oracle(ray_session):
    base = pd.Timestamp("2025-01-01")
    df = pd.DataFrame(
        {
            "k": ["a"] * 5 + ["b"] * 3,
            "t": [base, base + pd.Timedelta(minutes=10), base + pd.Timedelta(minutes=50),
                  base + pd.Timedelta(minutes=55), base + pd.Timedelta(minutes=200),
                  base, base + pd.Timedelta(minutes=31), base + pd.Timedelta(minutes=40)],
        }
    )
    out = (
        sessionize(ray.data.from_pandas(df), key="k", ts="t", gap=30 * 60, num_buckets=2)
        .to_pandas()
        .sort_values(["k", "t"])
    )
    # a: [0,0, 1,1, 2]  (gaps 10, 40, 5, 145 min); b: [0, 1, 1] (31, 9)
    assert out[out["k"] == "a"]["session_idx"].tolist() == [0, 0, 1, 1, 2]
    assert out[out["k"] == "b"]["session_idx"].tolist() == [0, 1, 1]


def test_rolling_agg_matches_pandas(ray_session):
    from complexity_driven_feature_construction_ray.stages.temporal import rolling_agg

    rng = np.random.default_rng(7)
    n = 500
    df = pd.DataFrame(
        {
            "eid": np.arange(n),
            "k": rng.choice(["u1", "u2", "u3", "u4"], size=n),
            "t": rng.integers(0, 10_000, size=n),
            "v": np.round(rng.random(size=n), 4),
        }
    )
    out = (
        rolling_agg(
            ray.data.from_pandas(df), key="k", ts="t", col="v", window=3,
            agg="sum", out_col="r", num_buckets=3, tiebreak=["eid"],
        )
        .to_pandas()
        .sort_values("eid")
        .reset_index(drop=True)
    )
    exp = df.sort_values(["k", "t", "eid"], kind="stable")
    exp["r"] = exp.groupby("k")["v"].transform(lambda s: s.rolling(3, min_periods=1).sum())
    exp = exp.sort_values("eid").reset_index(drop=True)
    assert np.allclose(out["r"].values, exp["r"].values)

    out_m = (
        rolling_agg(
            ray.data.from_pandas(df), key="k", ts="t", col="v", window=5,
            agg="mean", out_col="m", num_buckets=3, tiebreak=["eid"],
        )
        .to_pandas()
        .sort_values("eid")
        .reset_index(drop=True)
    )
    exp2 = df.copy()
    exp2["m"] = (
        df.sort_values(["k", "t", "eid"], kind="stable")
        .groupby("k")["v"]
        .transform(lambda s: s.rolling(5, min_periods=1).mean())
    )
    exp2 = exp2.sort_values("eid").reset_index(drop=True)
    assert np.allclose(out_m["m"].values, exp2["m"].values)


def test_windowed_fused_matches_separate_stages(ray_session):
    from complexity_driven_feature_construction_ray.stages.temporal import (
        lag_lead,
        sessionize,
        windowed,
    )
    from complexity_driven_feature_construction_ray.sources.token_table import (
        token_table_dataset,
    )

    ds = token_table_dataset(4000)
    fused = (
        windowed(
            ds, key="source", ts="ingest_ts", lag_cols=["n_tok"], gap=1800,
            tiebreak=["doc_id"], num_buckets=4,
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    sep = lag_lead(
        token_table_dataset(4000), key="source", ts="ingest_ts", cols=["n_tok"],
        tiebreak=["doc_id"], num_buckets=4,
    )
    sep = (
        sessionize(sep, key="source", ts="ingest_ts", gap=1800, tiebreak=["doc_id"], num_buckets=4)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    for c in ("n_tok_lag1", "n_tok_lead1", "session_idx"):
        assert np.allclose(
            fused[c].to_numpy(dtype=float), sep[c].to_numpy(dtype=float), equal_nan=True
        ), c


def test_temporal_attach_matches_composition(ray_session, probe_table, events_df):
    """fused asof+lag/lead+sessionize == asof_join then windowed."""
    from complexity_driven_feature_construction_ray.stages.temporal import (
        asof_join,
        temporal_attach,
        windowed,
    )

    probe = ray.data.from_arrow(
        probe_table.select(["doc_id", "source", "ingest_ts", "n_tok"])
    ).repartition(4)
    events = ray.data.from_pandas(
        events_df.rename(columns={"entity_id": "doc_id"})
    ).repartition(3)
    kw = dict(
        key="doc_id", probe_ts="ingest_ts", event_ts="event_ts",
        value_cols=["value"], lag_cols=["n_tok"], gap=3600, tiebreak=["source"],
    )
    fused = (
        temporal_attach(probe, events, num_buckets=5, **kw)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    comp = asof_join(
        probe, events, key="doc_id", probe_ts="ingest_ts", event_ts="event_ts",
        value_cols=["value"], num_buckets=5,
    )
    comp = (
        windowed(
            comp, key="doc_id", ts="ingest_ts", lag_cols=["n_tok"], gap=3600,
            tiebreak=["source"], num_buckets=5,
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert len(fused) == len(comp) == probe_table.num_rows
    for c in ("asof_value", "n_tok_lag1", "n_tok_lead1", "session_idx"):
        a = fused[c].to_numpy(dtype=float)
        b = comp[c].to_numpy(dtype=float)
        assert np.allclose(a, b, equal_nan=True), c


def test_fill_forward_matches_pandas_ffill(ray_session):
    """LOCF vs pandas groupby.ffill on a fixture with leading NULLs,
    all-NULL entities, NULL runs, and ts ties broken by a tiebreak col."""
    from complexity_driven_feature_construction_ray.stages.temporal import fill_forward

    rng = np.random.default_rng(11)
    n = 800
    df = pd.DataFrame(
        {
            "eid": np.arange(n),
            "ts": rng.integers(0, 50, n),  # heavy ties
            "k": rng.integers(0, 17, n),
            "v": np.where(rng.random(n) < 0.55, np.nan, rng.integers(0, 99, n).astype(float)),
        }
    )
    df.loc[df["k"] == 3, "v"] = np.nan  # an entirely-NULL entity
    ds = ray.data.from_pandas(df).repartition(7)
    got = (
        fill_forward(ds, key="k", ts="ts", cols=["v"], tiebreak=["eid"])
        .to_pandas()
        .sort_values("eid")
        .reset_index(drop=True)
    )
    exp = df.sort_values(["k", "ts", "eid"], kind="stable")
    exp["v_ffill"] = exp.groupby("k", sort=False)["v"].ffill()
    exp = exp.sort_values("eid").reset_index(drop=True)
    assert np.allclose(got["v_ffill"], exp["v_ffill"], equal_nan=True)
    # the input column is untouched
    assert np.allclose(got["v"], exp["v"], equal_nan=True)


def test_fill_forward_block_count_invariance(ray_session):
    from complexity_driven_feature_construction_ray.stages.temporal import fill_forward

    df = pd.DataFrame(
        {
            "eid": np.arange(60),
            "ts": np.arange(60) % 6,
            "k": np.arange(60) % 4,
            "v": [np.nan if i % 3 else float(i) for i in range(60)],
        }
    )
    outs = []
    for parts in (1, 13):
        ds = ray.data.from_pandas(df).repartition(parts)
        outs.append(
            fill_forward(ds, key="k", ts="ts", cols=["v"], tiebreak=["eid"])
            .to_pandas()
            .sort_values("eid")
            .reset_index(drop=True)["v_ffill"]
        )
    assert np.allclose(outs[0], outs[1], equal_nan=True)
