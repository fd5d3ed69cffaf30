"""`temporal`: the fused temporal layer over a seeded, skewed entity stream.

Stresses stages.temporal and stages.bucketing. Each op runs
temporal_attach (as-of attach plus lag/lead plus sessionize) and reduces
the output to checksums. Every row crosses the entity-hash exchange,
and the hot entities set the size of the slowest bucket.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa

from .. import inputs
from . import Workload, drain

ROWS = 120_000
FILES = 8
GAP_S = 1800
P = 1_000_000_007  # checksum modulus: every per-row term stays below it

SUMS = ("rows", "session_sum", "session_w", "asof_n", "asof_w", "lag_n", "lag_w", "lead_n", "lead_w")


def checksums(row_id, session, asof, lag, lead) -> dict[str, int]:
    """Order-independent checksums over one batch of output rows. `asof`,
    `lag` and `lead` are float arrays with NaN where the value is null.
    Each weighted sum ties a value to its row, so a value moved to the
    wrong row changes the checksum."""
    rid = np.asarray(row_id, dtype=np.int64) + 1
    out = {
        "rows": len(rid),
        "session_sum": int(np.sum(session)),
        "session_w": int(np.sum(rid * (np.asarray(session, dtype=np.int64) + 1) % P)),
    }
    for name, v in (("asof", asof), ("lag", lag), ("lead", lead)):
        ok = ~np.isnan(v)
        out[f"{name}_n"] = int(ok.sum())
        out[f"{name}_w"] = int(np.sum(rid[ok] * (v[ok].astype(np.int64) + 1) % P))
    return out


def _batch_sums(b: pa.Table) -> pa.Table:
    def vals(name: str) -> np.ndarray:
        return b[name].to_numpy(zero_copy_only=False).astype(np.float64)

    s = checksums(
        b["row_id"].to_numpy(),
        b["session_idx"].to_numpy(),
        vals("asof_ev_value"),
        vals("value_lag1"),
        vals("value_lead1"),
    )
    return pa.table({k: pa.array([v], pa.int64()) for k, v in s.items()})


def _corrupt(b: pa.Table) -> pa.Table:
    s = b["session_idx"].to_numpy().copy()
    s[:1] += 1
    return b.set_column(b.schema.get_field_index("session_idx"), "session_idx", pa.array(s))


def reduce_sums(ds) -> dict[str, int]:
    total = dict.fromkeys(SUMS, 0)
    for row in ds.map_batches(_batch_sums, batch_format="pyarrow").take_all():
        for k in SUMS:
            total[k] += int(row[k])
    return {k: (v % P if k.endswith("_w") else v) for k, v in total.items()}


class Temporal(Workload):
    def setup(self) -> None:
        self.rows = max(2_000, int(ROWS * self.scale))
        stream, events, self.hot_share = inputs.entity_stream(self.rows, self.seed)
        self.stream, self.events = stream, events
        self.stream_files = inputs.write_parts(stream, os.path.join(self.workdir, "stream"), FILES)
        self.event_files = inputs.write_parts(events, os.path.join(self.workdir, "events"), 1)

    def _inputs(self):
        import ray.data

        return ray.data.read_parquet(self.stream_files), ray.data.read_parquet(self.event_files)

    def _buckets(self) -> int:
        from complexity_driven_feature_construction_ray.stages.bucketing import (
            data_sized_buckets,
        )

        return data_sized_buckets(self.rows)

    def op(self, i: int, corrupt: bool = False) -> dict:
        from complexity_driven_feature_construction_ray.stages.temporal import temporal_attach

        probe, events = self._inputs()
        self.buckets = self._buckets()
        t0 = time.perf_counter()
        with self.tracer.span("temporal.attach"):
            out = temporal_attach(
                probe,
                events,
                key="entity",
                probe_ts="ts",
                event_ts="event_ts",
                value_cols=["ev_value"],
                event_key="ev_entity",
                lag_cols=["value"],
                gap=GAP_S,
                tiebreak=["row_id"],
                num_buckets=self.buckets,
                probe_schema=self.stream.schema,
                event_schema=self.events.schema,
            )
            if corrupt:
                out = out.map_batches(_corrupt, batch_format="pyarrow")
            sums = reduce_sums(out)
        return {"items": self.rows, "sums": sums, "attach_s": time.perf_counter() - t0}

    def reference(self) -> None:
        """The same as-of, lag/lead and sessionize in pandas, reduced to
        the same checksums, compared with the warm-up op."""
        s = self.stream.to_pandas().sort_values(["entity", "ts", "row_id"], kind="stable")
        g = s.groupby("entity", sort=False)["value"]
        s["lag"] = g.shift(1)
        s["lead"] = g.shift(-1)
        new_entity = s["entity"].ne(s["entity"].shift())
        gap = s["ts"].diff() > pd.Timedelta(seconds=GAP_S)
        sid = (new_entity | gap).cumsum()
        s["session"] = sid - sid.where(new_entity).ffill()
        self.sessions = int((new_entity | gap).sum())
        ev = self.events.to_pandas().rename(columns={"ev_entity": "entity"}).sort_values("event_ts")
        m = pd.merge_asof(
            s.sort_values("ts", kind="stable"),
            ev,
            left_on="ts",
            right_on="event_ts",
            by="entity",
            direction="backward",
            allow_exact_matches=True,
        )
        want = checksums(
            m["row_id"].to_numpy(),
            m["session"].to_numpy().astype(np.int64),
            m["ev_value"].to_numpy(dtype=np.float64),
            m["lag"].to_numpy(dtype=np.float64),
            m["lead"].to_numpy(dtype=np.float64),
        )
        want = {k: (v % P if k.endswith("_w") else v) for k, v in want.items()}
        if want != self.first["sums"]:
            self.ref_problems.append(f"warm-up checksums {self.first['sums']} != pandas {want}")

    def check(self, res: dict) -> list[str]:
        problems = list(self.ref_problems)
        if res["sums"] != self.first["sums"]:
            problems.append(f"checksums {res['sums']} != warm-up {self.first['sums']}")
        if res["sums"]["rows"] != self.rows:
            problems.append(f"{res['sums']['rows']} output rows, {self.rows} input rows")
        return problems

    def layers(self, res: dict) -> dict[str, float]:
        return {
            "temporal.attach_s": res["attach_s"],
            "temporal.rows_per_s": self.rows / res["attach_s"],
            "bucketing.buckets": self.buckets,
            "temporal.hot_share": self.hot_share,
            "temporal.sessions": getattr(self, "sessions", 0),
        }

    def layer_passes(self) -> dict[str, float]:
        """Sessionize alone and the as-of join alone over the same input:
        what the fused temporal_attach saves against running both."""
        from complexity_driven_feature_construction_ray.stages.temporal import (
            asof_join,
            sessionize,
        )

        probe, events = self._inputs()
        t0 = time.perf_counter()
        with self.tracer.span("temporal.sessionize"):
            n_sess = drain(
                sessionize(probe, key="entity", ts="ts", gap=GAP_S, tiebreak=["row_id"],
                           num_buckets=self.buckets)
            )
        t1 = time.perf_counter()
        probe, events = self._inputs()
        with self.tracer.span("temporal.asof"):
            n_asof = drain(
                asof_join(probe, events, key="entity", probe_ts="ts", event_ts="event_ts",
                          value_cols=["ev_value"], event_key="ev_entity", num_buckets=self.buckets,
                          probe_schema=self.stream.schema, event_schema=self.events.schema)
            )
        t2 = time.perf_counter()
        if n_sess != self.rows or n_asof != self.rows:
            raise RuntimeError(f"layer passes saw {n_sess}/{n_asof} rows of {self.rows}")
        return {"temporal.sessionize_s": t1 - t0, "temporal.asof_s": t2 - t1}


WORKLOAD = Temporal
