"""`registry`: small plans from the engine's relational query registry.

Stresses pipelines.relational. Each op runs one query from
pipelines.relational.QUERIES over seeded lineitem, orders and customer
tables and compares its rows with a pandas reference. The tables are
small, so fixed per-plan overhead (planning, repartitioning, exchanges,
task launch) dominates, which is what a change to relational.py moves.

The queries are five of the SMOKE queries of bench.py, one per plan
shape: grouped aggregate, top-k, shuffle join, broadcast join and salted
aggregate. q_shuffle_join does not finish at num_cpus=1: it is a known
baseline failure, kept so that it shows up as a failed op. It runs once
per run, as the run's last op (a tail op), so its kill costs no extra
set-up. Ops 1, 2, ... rotate over the other four queries, and a run ends
only after whole laps of them, so every query weighs the same in every
run. A run makes two laps plus the hang, all on its last worker: nine
ops, one of them failed, and the median op is a working query's. The
op time limit is 8 s: a query takes 1.4-2.2 s, and took up to 5.7 s
while the hypervisor took a fifth of the host's CPU time. The first run
in a session, about 4.5 s, is the warm-up op, under the set-up's limit.
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING

import numpy as np
import pyarrow.parquet as pq

from .. import inputs
from . import Workload

if TYPE_CHECKING:  # pandas is imported where it is used: run.py imports this module
    import pandas as pd

ORDERS = 3_000  # about 12k lineitem rows and 300 customers
QUERIES = ("q_shuffle_join", "q_pricing_summary", "q_top_revenue", "q_broadcast_join", "q_salted_agg")
KNOWN_HANGS = ("q_shuffle_join",)  # at num_cpus=1
WORKING = tuple(q for q in QUERIES if q not in KNOWN_HANGS)

# per query: the key columns rows are matched on, and the decimals each
# float column is rounded to; other columns must be equal
SHAPES = {
    "q_pricing_summary": (["l_returnflag", "l_linestatus"], {"sum_qty": 2, "sum_rev": 2, "avg_qty": 6}),
    "q_top_revenue": (["l_orderkey"], {"revenue": 2}),
    "q_broadcast_join": (["c_mktsegment"], {"sum_total": 2}),
    "q_salted_agg": (["o_orderpriority"], {"avg_price": 4}),
    "q_shuffle_join": (["o_orderpriority"], {"revenue": 2}),
}


def query_of(i: int) -> str:
    """The query op i runs: tail op -1 runs the known hang, and the
    warm-up op 0 and ops 1, 2, ... rotate over the working queries."""
    return KNOWN_HANGS[-i - 1] if i < 0 else WORKING[(i - 1) % len(WORKING)]


def references(t: dict[str, pd.DataFrame]) -> dict[str, pd.DataFrame]:
    """Every query's answer in pandas, unrounded."""
    li, o, c = t["lineitem"], t["orders"], t["customer"]
    li = li.assign(rev=li["l_extendedprice"] * (1.0 - li["l_discount"]))
    per_order = li.groupby("l_orderkey", as_index=False).agg(revenue=("rev", "sum"))
    oc = o.merge(c, left_on="o_custkey", right_on="c_custkey")
    lo = li.merge(o, left_on="l_orderkey", right_on="o_orderkey")
    return {
        "q_pricing_summary": li.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            sum_qty=("l_quantity", "sum"),
            sum_rev=("rev", "sum"),
            avg_qty=("l_quantity", "mean"),
            n=("l_quantity", "size"),
        ),
        "q_top_revenue": per_order.sort_values(["revenue", "l_orderkey"], ascending=[False, True]).head(10),
        "q_broadcast_join": oc.groupby("c_mktsegment", as_index=False).agg(
            n_orders=("o_totalprice", "size"), sum_total=("o_totalprice", "sum")
        ),
        "q_salted_agg": o.groupby("o_orderpriority", as_index=False).agg(avg_price=("o_totalprice", "mean")),
        "q_shuffle_join": lo.groupby("o_orderpriority", as_index=False).agg(revenue=("rev", "sum")),
    }


def compare(name: str, rows: list[dict], want: pd.DataFrame) -> list[str]:
    """Rows of one query against its unrounded reference: the same
    columns and keys, equal non-float values, and each rounded float
    within half a unit of its last decimal (plus float noise)."""
    import pandas as pd

    keys, digits = SHAPES[name]
    got = pd.DataFrame(rows)
    if sorted(got.columns) != sorted(want.columns):
        return [f"{name}: columns {sorted(got.columns)} != {sorted(want.columns)}"]
    if len(got) != len(want):
        return [f"{name}: {len(got)} rows, reference has {len(want)}"]
    got = got.sort_values(keys).reset_index(drop=True)
    want = want.sort_values(keys).reset_index(drop=True)
    problems = []
    for col in want.columns:
        a, b = got[col].to_numpy(), want[col].to_numpy()
        if col in digits:
            ok = np.abs(a.astype(np.float64) - b) <= 0.51 * 10.0 ** -digits[col] + 1e-9 * np.abs(b)
        else:
            ok = a == b
        if not ok.all():
            r = int(np.argmin(ok))
            problems.append(f"{name}: {col} row {r} is {a[r]!r}, reference {b[r]!r}")
    return problems


class Registry(Workload):
    def setup(self) -> None:
        n = max(500, int(ORDERS * self.scale))
        self.tables = inputs.order_tables(n, self.seed)
        self.dir = os.path.join(self.workdir, "tables")
        os.makedirs(self.dir, exist_ok=True)
        for name, t in self.tables.items():
            pq.write_table(t, os.path.join(self.dir, f"{name}.parquet"))
        self.want: dict[str, pd.DataFrame] | None = None
        self.checked = self.matched = 0

    def op(self, i: int, corrupt: bool = False) -> dict:
        from complexity_driven_feature_construction_ray.pipelines.relational import QUERIES as REGISTRY

        name = query_of(i)
        fn, _sql = REGISTRY[name]
        t0 = time.perf_counter()
        with self.tracer.span(f"relational.{name}"):
            rows = fn(self.dir).take_all()
        seconds = time.perf_counter() - t0
        if corrupt:
            col = next(iter(SHAPES[name][1]))
            rows[0] = {**rows[0], col: rows[0][col] + 1.0}
        return {"items": 1, "query": name, "rows": rows, "seconds": seconds}

    def check(self, res: dict) -> list[str]:
        if self.want is None:  # once per worker, outside every timer
            self.want = references({k: t.to_pandas() for k, t in self.tables.items()})
        problems = compare(res["query"], res["rows"], self.want[res["query"]])
        self.checked += 1
        self.matched += not problems
        return problems

    def layers(self, res: dict) -> dict[str, float]:
        return {f"relational.{res['query']}_s": res["seconds"]}

    def layer_passes(self) -> dict[str, float]:
        """The share of answers this worker checked that matched."""
        return {"relational.hash_ok": self.matched / max(1, self.checked)}


WORKLOAD = Registry
