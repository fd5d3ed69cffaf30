"""Degenerate inputs the fused relational plans must answer like their
DuckDB twins: a hash bucket holding no in-market order header
(q_market_share), a brand whose every customer total is negative
(q_brand_customer_dependency), lineitems whose order header is
missing (every fused plan that probes a header in its bucket), an
empty orders table (no line joins a header at all), and facts whose
customer, supplier or part row is missing (every plan that attaches
dimension columns through broadcast_join)."""

import os
import sys

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))

from check_empty import SCHEMA_SRC as SRC  # noqa: E402
from check_oracle import to_pandas, value_hash  # noqa: E402

from complexity_driven_feature_construction_ray.pipelines import relational  # noqa: E402
from complexity_driven_feature_construction_ray.pipelines.relational import (  # noqa: E402
    Q_BRAND_CUSTOMER_DEPENDENCY_SQL,
    Q_MARKET_SHARE_SQL,
    q_brand_customer_dependency,
    q_market_share,
)

TABLES = ("region", "nation", "customer", "supplier", "part", "orders", "lineitem")


def _fixture(dst, edit):
    """Copy the degenerate gate's source tables to `dst`; `edit(name,
    df)` may rewrite a table's pandas frame before it is written back
    with its schema."""
    for t in TABLES:
        tab = pq.read_table(f"{SRC}/{t}.parquet")
        df = edit(t, tab.to_pandas())
        if df is not None:
            tab = pa.Table.from_pandas(df, schema=tab.schema, preserve_index=False)
        pq.write_table(tab, f"{dst}/{t}.parquet")
    return str(dst)


def _twin(sf_dir, sql):
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")
    return con.execute(sql).fetchdf()


def _assert_matches_twin(got, exp, nonempty=True):
    got = to_pandas(got)
    assert len(got) == len(exp)
    assert len(exp) > 0 or not nonempty
    assert sorted(got.columns) == sorted(exp.columns)
    assert value_hash(got) == value_hash(exp)


def test_market_share_bucket_without_in_market_header(ray_session, tmp_path):
    # one customer's orders are the whole ASIA market, so most hash
    # buckets hold line cells but no in-market order header
    first = pq.read_table(f"{SRC}/orders.parquet").to_pandas()["o_custkey"].iloc[0]

    def edit(t, df):
        if t == "customer":
            df["c_nationkey"] = (df["c_custkey"] == first).map({True: 2, False: 0})
            return df
        return None

    sf = _fixture(tmp_path, edit)
    _assert_matches_twin(q_market_share(sf), _twin(sf, Q_MARKET_SHARE_SQL))


def test_brand_dependency_with_zero_and_negative_revenue(ray_session, tmp_path):
    part = pq.read_table(f"{SRC}/part.parquet").to_pandas()
    brand = sorted(part["p_brand"].unique())[0]
    neg = set(part.loc[part["p_brand"] == brand, "p_partkey"])

    def edit(t, df):
        if t == "lineitem":
            # every line of one brand is a credit (discount > 100%), so
            # each of its customer totals is negative; the first line of
            # any other brand is free (100% discount)
            df.loc[df["l_partkey"].isin(neg), "l_discount"] = 1.5
            free = (~df["l_partkey"].isin(neg)).idxmax()
            df.loc[free, "l_discount"] = 1.0
            return df
        return None

    sf = _fixture(tmp_path, edit)
    exp = _twin(sf, Q_BRAND_CUSTOMER_DEPENDENCY_SQL)
    assert int(exp.loc[exp["brand"] == brand, "top_customer_units"].iloc[0]) < 0
    _assert_matches_twin(q_brand_customer_dependency(sf), exp)


# every fused_exchange plan whose bucket probes a header side
HEADER_PROBES = [
    "q_acctbal_revenue_corr", "q_big_orders", "q_brand_hhi_trend",
    "q_interval_coverage", "q_interval_join", "q_local_supplier_revenue",
    "q_market_share", "q_nation_brand_lift", "q_open_orders_curve",
    "q_order_fill_latency", "q_order_reconcile",
    "q_order_value_by_linecount", "q_regional_price_parity",
    "q_status_consistency", "q_supplier_latency", "q_three_way_join",
    "q_trade_asymmetry", "q_trade_balance", "q_wealth_activity",
]


@pytest.fixture(scope="module")
def orphan_lines(tmp_path_factory):
    """The 10th, 20th, ... order rows deleted: their lineitems have no
    header."""
    def edit(t, df):
        if t == "orders":
            return df.drop(df.index[9::10])
        return None

    return _fixture(tmp_path_factory.mktemp("orphans"), edit)


@pytest.mark.parametrize("name", HEADER_PROBES)
def test_orphan_lines_join_like_the_twin(ray_session, orphan_lines, name):
    fn = getattr(relational, name)
    sql = getattr(relational, name.upper() + "_SQL")
    # q_nation_brand_lift's support filter (n >= 50) leaves no cell at
    # this size once the orphan lines drop, in the twin too
    _assert_matches_twin(fn(orphan_lines), _twin(orphan_lines, sql),
                         nonempty=name != "q_nation_brand_lift")


@pytest.fixture(scope="module")
def no_orders(tmp_path_factory):
    """Every order row deleted: no lineitem has a header."""
    def edit(t, df):
        return df.iloc[:0] if t == "orders" else None

    return _fixture(tmp_path_factory.mktemp("no_orders"), edit)


def test_interval_join_without_orders_keeps_the_twin_schema(ray_session, no_orders):
    got = relational.q_interval_join(no_orders)
    exp = _twin(no_orders, relational.Q_INTERVAL_JOIN_SQL)
    assert list(to_pandas(got).columns) == list(exp.columns)
    _assert_matches_twin(got, exp, nonempty=False)


@pytest.mark.parametrize("name, null_cols", [
    ("q_join_size_est", ["join_rows", "max_key_product"]),
    ("q_order_reconcile", ["mean_abs_gap", "max_abs_gap"]),
])
def test_folds_over_no_joined_row_are_null(ray_session, no_orders, name, null_cols):
    with np.errstate(all="raise"):  # no 0/0 on the driver
        got = getattr(relational, name)(no_orders)
    exp = _twin(no_orders, getattr(relational, name.upper() + "_SQL"))
    assert exp[null_cols].isna().all(axis=None)
    assert to_pandas(got)[null_cols].isna().all(axis=None)
    _assert_matches_twin(got, exp)


# every query that attaches a customer, supplier or part column through
# broadcast_join or to its top-k rows after ranking, with the dimension
# tables it probes
DIMENSION_PROBES = {
    "q_basket_diversity": ("part",),
    "q_brand_customer_dependency": ("part",),
    "q_brand_growth": ("part",),
    "q_brand_hhi_trend": ("part",),
    "q_brand_return_rate": ("part",),
    "q_customer_brand_breadth": ("part",),
    "q_discount_by_brand": ("part",),
    "q_domestic_preference": ("customer", "supplier"),
    "q_first_brand_anchor": ("part",),
    "q_geo_diversification_trend": ("customer",),
    "q_local_supplier_revenue": ("customer", "supplier"),
    "q_margin_audit": ("part",),
    "q_market_share": ("customer", "supplier"),
    "q_nation_brand_lift": ("customer", "part"),
    "q_nation_discount_bias": ("customer",),
    "q_realized_vs_list_price": ("part",),
    "q_regional_price_parity": ("customer",),
    "q_segment_mix_trend": ("customer",),
    "q_segment_reorder_gap": ("customer",),
    "q_size_quantity_corr": ("part",),
    "q_size_revenue_mix": ("part",),
    "q_supply_resilience": ("supplier",),
    "q_three_way_join": ("customer",),
    "q_trade_asymmetry": ("customer", "supplier"),
    "q_trade_balance": ("customer", "supplier"),
    "q_trade_flows": ("customer", "supplier"),
    "q_broadcast_join": ("customer",),
    "q_returned_top_customers": ("customer",),
    "q_deepest_discount_parts": ("part",),
    "q_supplier_discount_exposure": ("supplier",),
    "q_supplier_return_rate": ("supplier",),
}


def _orphan_dimension(table):
    @pytest.fixture(scope="module")
    def orphans(tmp_path_factory):
        """The 5th, 15th, ... rows of one dimension table deleted: the
        facts that reference them have no dimension row."""
        def edit(t, df):
            return df.drop(df.index[4::10]) if t == table else None

        return _fixture(tmp_path_factory.mktemp(f"orphan_{table}"), edit)

    return orphans


orphan_customer = _orphan_dimension("customer")
orphan_supplier = _orphan_dimension("supplier")
orphan_part = _orphan_dimension("part")


@pytest.mark.parametrize("name, table", [
    (name, table) for name, tables in DIMENSION_PROBES.items() for table in tables])
def test_orphan_dimension_keys_join_like_the_twin(ray_session, request, name, table):
    sf = request.getfixturevalue(f"orphan_{table}")
    fn = getattr(relational, name)
    sql = getattr(relational, name.upper() + "_SQL")
    # q_nation_brand_lift's support filter (n >= 50) leaves no cell at
    # this size, in the twin too
    _assert_matches_twin(fn(sf), _twin(sf, sql),
                         nonempty=name != "q_nation_brand_lift")
