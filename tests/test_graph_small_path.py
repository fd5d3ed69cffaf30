"""The graph operators' size-aware planner: below `small_edge_budget`
an exact numpy kernel answers driver-side; above it (or with budget=0)
the checkpointed distributed Pregel engine runs. Both paths must
compute the SAME answer — pinned here on random graphs, so the planner
switch can never change results.
"""

import numpy as np
import pandas as pd
import ray.data

from complexity_driven_feature_construction_ray.stages.graph import (
    connected_components,
    pagerank,
)


def _random_edges(seed: int, n_nodes: int, n_edges: int):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_nodes, n_edges)
    dst = rng.integers(0, n_nodes, n_edges)
    keep = src != dst
    return src[keep].astype(np.int64), dst[keep].astype(np.int64)


def test_components_small_path_equals_distributed(ray_session):
    src, dst = _random_edges(7, 400, 300)  # sparse: several components
    eds = ray.data.from_pandas(pd.DataFrame({"src": src, "dst": dst}))
    small = (
        connected_components(eds, small_edge_budget=10_000)
        .to_pandas().sort_values("id").reset_index(drop=True)
    )
    dist = (
        connected_components(
            ray.data.from_pandas(pd.DataFrame({"src": src, "dst": dst})),
            small_edge_budget=0,
        )
        .to_pandas().sort_values("id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(small, dist)


def test_components_small_path_isolated_nodes(ray_session):
    eds = ray.data.from_pandas(
        pd.DataFrame({"src": np.array([1, 2], np.int64), "dst": np.array([2, 3], np.int64)})
    )
    nds = ray.data.from_pandas(pd.DataFrame({"id": np.arange(6, dtype=np.int64)}))
    out = (
        connected_components(eds, nds, small_edge_budget=10_000)
        .to_pandas().set_index("id")["component"]
    )
    assert out.loc[1] == out.loc[2] == out.loc[3] == 1
    for iso in (0, 4, 5):
        assert out.loc[iso] == iso


def test_pagerank_small_path_equals_distributed(ray_session):
    src, dst = _random_edges(11, 80, 400)
    small = (
        pagerank(
            ray.data.from_pandas(pd.DataFrame({"src": src, "dst": dst})),
            n_iter=12,
            small_edge_budget=10_000,
        )
        .to_pandas().sort_values("id").reset_index(drop=True)
    )
    dist = (
        pagerank(
            ray.data.from_pandas(pd.DataFrame({"src": src, "dst": dst})),
            n_iter=12,
            small_edge_budget=0,
        )
        .to_pandas().sort_values("id").reset_index(drop=True)
    )
    assert list(small["id"]) == list(dist["id"])
    assert np.allclose(small["rank"], dist["rank"], atol=1e-12)
    assert abs(small["rank"].sum() - 1.0) < 1e-9


def test_checkpoint_dir_takes_checkpointed_path_below_budget(ray_session, tmp_path):
    """A caller-given checkpoint_dir is honored on a graph far below
    `small_edge_budget`: the superstep path runs and leaves its
    checkpoint in that directory, with the same answer."""
    src, dst = _random_edges(3, 30, 40)
    edges = pd.DataFrame({"src": src, "dst": dst})
    cc_dir, pr_dir = tmp_path / "cc", tmp_path / "pr"
    cc = connected_components(ray.data.from_pandas(edges), checkpoint_dir=str(cc_dir))
    pr = pagerank(ray.data.from_pandas(edges), n_iter=3, checkpoint_dir=str(pr_dir))
    cc = cc.to_pandas().sort_values("id").reset_index(drop=True)
    pr = pr.to_pandas().sort_values("id").reset_index(drop=True)
    assert any(cc_dir.rglob("*.parquet")) and any(pr_dir.rglob("*.parquet"))
    small_cc = (
        connected_components(ray.data.from_pandas(edges))
        .to_pandas().sort_values("id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(cc, small_cc)
    small_pr = (
        pagerank(ray.data.from_pandas(edges), n_iter=3)
        .to_pandas().sort_values("id").reset_index(drop=True)
    )
    assert list(pr["id"]) == list(small_pr["id"])
    assert np.allclose(pr["rank"], small_pr["rank"], atol=1e-12)
