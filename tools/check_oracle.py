"""Local replica of the driver's correctness gate: run every queries()
entry at a given sf and compare against oracle_sql() via DuckDB
(row count + schema + order-insensitive value hash). Each query's
result line prints as soon as that query finishes.

Usage: python tools/check_oracle.py [--num-cpus N] [sf_dir] [query ...]

--num-cpus sets the CPUs of the local Ray cluster it starts (default 8).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def to_pandas(obj) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(obj, pd.DataFrame):
        return obj
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj.to_pandas()  # ray Dataset


def value_hash(df: pd.DataFrame) -> str:
    """Order-insensitive value hash, fully vectorized (the old per-row
    Python loop took minutes at 600k rows)."""
    df = df[sorted(df.columns)]
    cols = []
    for c in df.columns:
        s = df[c]
        if s.dtype.kind == "f":
            r = s.round(9) + 0.0  # + 0.0 normalizes -0.0
            col = r.map("{:.9f}".format).astype(str)
            col = col.where(~s.isna(), "NaN")
        else:
            col = s.astype(str).where(~s.isna(), "NULL")
        cols.append(col.to_numpy())
    lines = cols[0]
    for c in cols[1:]:
        lines = np.char.add(np.char.add(lines.astype(str), "|"), c.astype(str))
    lines = np.sort(lines.astype(str))
    h = hashlib.blake2b(digest_size=12)
    h.update("\n".join(lines.tolist()).encode())
    return h.hexdigest()


def main(sf_dir: str, only: set[str]):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as entry_mod

    qs = entry_mod.queries()
    oracles = entry_mod.oracle_sql()
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    width = max((len(n) for n in qs if not only or n in only), default=0)
    results = {}
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = to_pandas(fn(sf_dir))
            took = time.time() - t0
            if name in oracles:
                exp = con.execute(oracles[name]).fetchdf()
                ok_rows = len(got) == len(exp)
                ok_schema = sorted(map(str, got.columns)) == sorted(map(str, exp.columns))
                ok_hash = value_hash(got) == value_hash(exp) if ok_rows and ok_schema else False
                status = "OK" if (ok_rows and ok_schema and ok_hash) else "MISMATCH"
                results[name] = (status, len(got), len(exp), round(took, 1))
                if status != "OK":
                    print(f"--- {name}: rows {len(got)} vs {len(exp)}; schema ok={ok_schema}")
                    if ok_schema and ok_rows:
                        m = got.merge(exp, how="outer", indicator=True)
                        print(m[m["_merge"] != "both"].head(8).to_string())
            else:
                results[name] = ("ROWS_ONLY", len(got), None, round(took, 1))
        except Exception as e:  # noqa: BLE001
            results[name] = ("ERROR", str(e)[:140], None, round(time.time() - t0, 1))
        # one line per query as it finishes, so a hang names its query
        print(f"{name:<{width}}  {results[name]}", flush=True)
    bad = [n for n, r in results.items() if r[0] not in ("OK", "ROWS_ONLY")]
    print(f"\n{len(results) - len(bad)}/{len(results)} clean; failing: {bad}")
    return 1 if bad else 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="Check registry queries against their DuckDB twins.")
    ap.add_argument("--num-cpus", type=int, default=8, help="CPUs of the local Ray cluster")
    ap.add_argument("sf_dir", nargs="?", default="/root/testdata/sf0.01")
    ap.add_argument("queries", nargs="*", help="only these queries (default: all)")
    args = ap.parse_args()
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    code = main(args.sf_dir, set(args.queries))
    ray.shutdown()
    sys.exit(code)
