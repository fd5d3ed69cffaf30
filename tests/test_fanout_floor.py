"""The CPU count is the only fan-out floor: split reads are cut at scan
time into one block per CPU, and the plans that used to hang on a
one-CPU cluster (a post-read repartition on both sides of a union, a
fractional-CPU actor pool) finish there with their DuckDB twins'
answers."""

import json
import os
import signal
import subprocess
import sys

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

from check_empty import SCHEMA_SRC as SF  # noqa: E402
from check_oracle import TABLES, value_hash  # noqa: E402

from complexity_driven_feature_construction_ray.pipelines import relational  # noqa: E402
from complexity_driven_feature_construction_ray.stages.bucketing import cpu_floor  # noqa: E402

ONE_CPU_PLANS = [
    "q_shuffle_join", "q_three_way_join", "q_interval_join", "t_asof",
    # a map_batches over a callable class with concurrency=2 and
    # num_cpus=0.5 took the only CPU from the tasks feeding it
    "q_basket_diversity", "q_brand_growth", "q_brand_return_rate",
    "q_nation_discount_bias", "q_realized_vs_list_price",
    "q_segment_mix_trend", "q_trade_flows",
    # a repartition(8) in front of actor pools
    "m_decode_wav", "m_decode",
]
# rows-only entries (no SQL twin): the row count at sf0.001
ROWS_ONLY = {"m_decode_wav": 64, "m_decode": 64}
# each plan takes 1-4 s at sf0.001 on one CPU; a hang fails at the limit
TIMEOUT_S = 120

# runs one registry query on a fresh one-CPU Ray cluster and prints its
# rows, columns and value hash as one JSON line
ONE_CPU_RUN = """
import json, sys
import ray
from ray.data import DataContext
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
DataContext.get_current().enable_progress_bars = False
sys.path.insert(0, "tools")
from check_oracle import to_pandas, value_hash
from complexity_driven_feature_construction_ray.pipelines.relational import QUERIES
got = to_pandas(QUERIES[sys.argv[1]][0](sys.argv[2]))
print(json.dumps({"rows": len(got), "columns": sorted(map(str, got.columns)), "hash": value_hash(got)}))
ray.shutdown()
"""


def _plan_ops(ds):
    def walk(op):
        yield op.name
        for dep in op.input_dependencies:
            yield from walk(dep)

    return list(walk(ds._plan._logical_plan.dag))


def test_cpu_floor_is_the_cluster_cpu_count(ray_session):
    import ray

    assert cpu_floor() == int(ray.cluster_resources()["CPU"])


def test_split_read_is_cut_at_scan_time(ray_session, tmp_path):
    n = 6000
    pq.write_table(pa.table({"l_orderkey": pa.array(range(n), pa.int64())}),
                   tmp_path / "lineitem.parquet", row_group_size=n)
    assert pq.ParquetFile(tmp_path / "lineitem.parquet").metadata.num_row_groups == 1
    ds = relational._read(str(tmp_path), "lineitem")
    assert not any("Repartition" in op for op in _plan_ops(ds))
    assert ds._meta_count() == n  # bucket hints still see the row count
    done = ds.materialize()
    assert done.num_blocks() == cpu_floor()
    assert done.count() == n


def _twin(sql):
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return con.execute(sql).fetchdf()


@pytest.mark.parametrize("name", ONE_CPU_PLANS)
def test_finishes_on_one_cpu_like_the_twin(name):
    path = os.pathsep.join(filter(None, [ROOT, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-c", ONE_CPU_RUN, name, SF],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        start_new_session=True,  # so a hang's Ray processes die with it
    )
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    assert out is not None, f"{name} did not finish on one CPU in {TIMEOUT_S} s"
    assert proc.wait() == 0, f"{name} failed on one CPU"
    got = json.loads(out.strip().splitlines()[-1])
    if name in ROWS_ONLY:
        assert got["rows"] == ROWS_ONLY[name]
        return
    exp = _twin(relational.QUERIES[name][1])
    assert len(exp) > 0
    assert got == {"rows": len(exp), "columns": sorted(map(str, exp.columns)),
                   "hash": value_hash(exp)}
