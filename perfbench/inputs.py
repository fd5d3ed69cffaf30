"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and is pure numpy/pyarrow, so
the same seed gives the same inputs and nothing here depends on the
engine's own generators or on bench.py: editing either cannot change
what the benchmark measures. The engine receives only what these
functions return or write.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

VOCAB = 50257
MAX_TOK = 512
SOURCES = np.array(["web", "books", "code", "wiki", "chat"])
SOURCE_P = np.array([0.55, 0.20, 0.12, 0.08, 0.05])
SOURCE_EFFECT = np.array([0.6, -0.4, 1.0, -0.8, 0.0])
EPOCH_US = 1_735_689_600_000_000  # 2025-01-01T00:00:00Z
HOUR_US = 3_600_000_000
DAY_US = 24 * HOUR_US


def token_table(n_rows: int, seed: int, part: int = 0) -> pa.Table:
    """The engine's token-table schema (doc_id, tokens, n_tok, source,
    ingest_ts, label). n_tok is log-uniform on [1, 512], tokens are
    uniform over the vocabulary, source is skewed 55/20/12/8/5, and the
    label is a noisy threshold on token mean, length and source, so the
    search has signal to find. `part` selects one of several independent
    tables drawn from the same seed."""
    rng = np.random.default_rng([seed, 1, part])
    n_tok = np.clip(np.round(2.0 ** (rng.random(n_rows) * 9.0)), 1, MAX_TOK).astype(np.int32)
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(n_tok, out=offsets[1:])
    tokens = rng.integers(0, VOCAB, int(offsets[-1]), dtype=np.int32)
    src = rng.choice(len(SOURCES), n_rows, p=SOURCE_P)
    ts = EPOCH_US + rng.integers(0, 30 * DAY_US, n_rows)
    tok_mean = np.add.reduceat(tokens.astype(np.float64), offsets[:-1]) / n_tok
    logit = (
        2.5 * (tok_mean / VOCAB - 0.5)
        + 0.012 * (n_tok - 80.0)
        + SOURCE_EFFECT[src]
        + 1.5 * (rng.random(n_rows) - 0.5)
    )
    return pa.table(
        {
            "doc_id": pa.array([f"doc-{i:09d}" for i in range(n_rows)], pa.string()),
            "tokens": pa.ListArray.from_arrays(
                pa.array(offsets, pa.int32()), pa.array(tokens, pa.int32())
            ),
            "n_tok": pa.array(n_tok, pa.int32()),
            "source": pa.array(SOURCES[src], pa.string()),
            "ingest_ts": pa.array(ts, pa.timestamp("us")),
            "label": pa.array((logit > 0.0).astype(np.int8), pa.int8()),
        }
    )


def entity_stream(n_rows: int, seed: int) -> tuple[pa.Table, pa.Table, float]:
    """An entity event stream and a feature-event table.

    The stream has about 40 rows per entity over two days; 1% of the
    entities (the hot tier) carry 20% of the rows, so one hash bucket is
    heavier than the rest. `row_id` is a unique tiebreak. Feature events
    (one per ten stream rows) have timestamps unique across the table,
    so the as-of match is unambiguous. Values are integers so checksums
    are exact. Returns (stream, events, share of rows on hot entities).
    """
    rng = np.random.default_rng([seed, 2])
    n_ent = max(100, n_rows // 40)
    hot = max(1, n_ent // 100)
    is_hot = rng.random(n_rows) < 0.2
    entity = np.where(
        is_hot, rng.integers(0, hot, n_rows), rng.integers(hot, n_ent, n_rows)
    ).astype(np.int64)
    stream = pa.table(
        {
            "row_id": pa.array(np.arange(n_rows, dtype=np.int64)),
            "entity": pa.array(entity),
            "ts": pa.array(EPOCH_US + rng.integers(0, 2 * DAY_US, n_rows), pa.timestamp("us")),
            "value": pa.array(rng.integers(0, 1_000_000, n_rows, dtype=np.int64)),
        }
    )
    n_ev = max(10, n_rows // 10)
    step = (2 * DAY_US + HOUR_US) // n_ev
    ev_ts = EPOCH_US - HOUR_US + rng.permutation(n_ev).astype(np.int64) * step + 7
    events = pa.table(
        {
            "ev_entity": pa.array(rng.integers(0, n_ent, n_ev, dtype=np.int64)),
            "event_ts": pa.array(ev_ts, pa.timestamp("us")),
            "ev_value": pa.array(rng.integers(0, 1_000_000, n_ev, dtype=np.int64)),
        }
    )
    return stream, events, float(is_hot.mean())


PRIORITIES = np.array(["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"])
PRIORITY_P = np.array([0.40, 0.25, 0.15, 0.12, 0.08])
SEGMENTS = np.array(["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"])


def order_tables(n_orders: int, seed: int) -> dict[str, pa.Table]:
    """lineitem, orders and customer in the engine's TPC-H column names,
    with only the columns the registry queries read. One to seven lines
    per order; every order's customer exists. Quantities are whole
    numbers, so sums of them are exact; prices have continuous fractions,
    so no sum lands exactly on a rounding boundary and two correct
    summation orders round to the same cents. Order priority is skewed
    40/25/15/12/8, the skew the salted aggregate is for."""
    rng = np.random.default_rng([seed, 3])
    n_cust = max(10, n_orders // 10)
    custkey = np.arange(1, n_cust + 1, dtype=np.int64)
    orderkey = np.arange(1, n_orders + 1, dtype=np.int64) * 4
    lines = rng.integers(1, 8, n_orders)
    l_orderkey = np.repeat(orderkey, lines)
    n_li = len(l_orderkey)
    qty = rng.integers(1, 51, n_li).astype(np.float64)
    price = qty * rng.uniform(900.0, 2000.0, n_li)
    disc = rng.integers(0, 11, n_li) / 100.0
    status = np.where(rng.random(n_li) < 0.5, "O", "F")
    flag = np.where(status == "O", "N", np.array(["R", "A", "N"])[rng.integers(0, 3, n_li)])
    starts = np.concatenate([[0], np.cumsum(lines)[:-1]])
    return {
        "lineitem": pa.table(
            {
                "l_orderkey": pa.array(l_orderkey),
                "l_quantity": pa.array(qty),
                "l_extendedprice": pa.array(price),
                "l_discount": pa.array(disc),
                "l_returnflag": pa.array(flag, pa.string()),
                "l_linestatus": pa.array(status, pa.string()),
            }
        ),
        "orders": pa.table(
            {
                "o_orderkey": pa.array(orderkey),
                "o_custkey": pa.array(rng.integers(1, n_cust + 1, n_orders, dtype=np.int64)),
                "o_totalprice": pa.array(np.add.reduceat(price * (1.0 - disc), starts)),
                "o_orderpriority": pa.array(
                    PRIORITIES[rng.choice(len(PRIORITIES), n_orders, p=PRIORITY_P)], pa.string()
                ),
            }
        ),
        "customer": pa.table(
            {
                "c_custkey": pa.array(custkey),
                "c_mktsegment": pa.array(SEGMENTS[rng.integers(0, len(SEGMENTS), n_cust)], pa.string()),
            }
        ),
    }


def write_parts(table: pa.Table, out_dir: str, n_files: int) -> list[str]:
    """Write `table` as `n_files` Parquet files of near-equal row count."""
    os.makedirs(out_dir, exist_ok=True)
    bounds = np.linspace(0, table.num_rows, n_files + 1).astype(int)
    paths = []
    for i in range(n_files):
        path = os.path.join(out_dir, f"part-{i:03d}.parquet")
        pq.write_table(table.slice(bounds[i], bounds[i + 1] - bounds[i]), path)
        paths.append(path)
    return paths
