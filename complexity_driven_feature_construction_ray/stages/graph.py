"""Distributed connected components (label propagation + pointer jumping).

The dedup family's cluster map (doc -> duplicate-cluster id) is the
connected components of the candidate-pair graph. Driver-side
union-find (stages/dedup.py:_clusters_from_pairs) is fine while the
pair set is LSH-bounded; at 100 TB the pair set itself can be
corpus-scale, so this operator keeps everything distributed:

    label(v) <- min(label(v), min over neighbors u of label(u))   (hop)
    label(v) <- label(label(v))                                   (jump)

Labels start as the node id; the fixpoint label is the component's
minimum node id — deterministic across runs and cluster sizes. The
pointer-jump squares the reach every superstep, so convergence is
O(log diameter) supersteps, not O(diameter).

Each superstep is ONE fused streaming pipeline (messages co-grouped by
node hash -> min hash-aggregate -> jump co-grouped by label) that ends
in a parquet CHECKPOINT, and the next superstep reads the checkpoint
back. The roundtrip is deliberate, not incidental:
- it severs executor lineage/state (chained materialize() in a loop
  degrades super-linearly on Ray 2.49 — measured 2s -> 70s/step by
  step 7; with the checkpoint each step stays flat),
- it makes the iteration resumable mid-algorithm (Pregel-style
  superstep checkpointing — the standard production pattern for
  iterative jobs),
- labels never visit the driver: the only driver-side values are a
  per-step label SUM (labels only decrease when they change, so the
  sum is a strictly-decreasing potential function — unchanged sum ⟺
  converged; no row-level old-vs-new co-group needed).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def _tag_edge(batch: pa.Table) -> pa.Table:
    return pa.table({
        "k": batch["u"], "v": batch["v"],
        "lbl": pa.nulls(len(batch), type=pa.int64()),
    })


def _emit(g: pd.DataFrame) -> pa.Table:
    """Per node-hash bucket: join edges with labels, emit neighbor
    messages plus each node's own current label. Emits ARROW blocks:
    the output feeds a Ray hash aggregate (Min), which runs ~10x
    slower on pandas-format blocks."""
    lab = g[g["v"].isna()][["k", "lbl"]]
    edg = g[g["lbl"].isna()][["k", "v"]]
    m = edg.merge(lab, on="k", how="inner")
    ids = np.concatenate(
        [m["v"].to_numpy(np.int64), lab["k"].to_numpy(np.int64)]
    ).astype(np.int64, copy=False)
    cand = np.concatenate(
        [m["lbl"].to_numpy(np.int64), lab["lbl"].to_numpy(np.int64)]
    ).astype(np.int64, copy=False)
    return pa.table({"id": pa.array(ids), "cand": pa.array(cand)})


def _jump(g: pd.DataFrame) -> pa.Table:
    """Per label-hash bucket: label(v) <- label(label(v)). Arrow out:
    the result streams straight into the parquet checkpoint."""
    mapping = g[g["node"].isna()][["k", "lbl2"]]
    holders = g[g["lbl2"].isna()][["k", "node"]]
    m = holders.merge(mapping, on="k", how="left")
    # every label value is itself a labeled node, so lbl2 exists; keep
    # the old label defensively if not
    lbl = np.where(m["lbl2"].isna(), m["k"], m["lbl2"]).astype(np.int64)
    return pa.table({
        "id": pa.array(m["node"].to_numpy(np.int64)),
        "component": pa.array(lbl),
    })


def _components_numpy(u: np.ndarray, v: np.ndarray, extra_ids: np.ndarray):
    """Exact small-graph kernel: min-label propagation + full pointer
    jumping over compacted ids, fully vectorized (O(E) per round,
    O(log diameter) rounds). Same fixpoint as the distributed engine —
    component = min node id — so the two paths are interchangeable."""
    ids = np.unique(np.concatenate([u, v, extra_ids]))
    if len(ids) == 0:
        return pd.DataFrame({"id": pd.Series(dtype=np.int64),
                             "component": pd.Series(dtype=np.int64)})
    su = np.searchsorted(ids, u)
    sv = np.searchsorted(ids, v)
    lbl = np.arange(len(ids), dtype=np.int64)
    while True:
        old = lbl.copy()
        np.minimum.at(lbl, sv, lbl[su])
        np.minimum.at(lbl, su, lbl[sv])
        while True:  # pointer-jump to this round's fixpoint
            nl = lbl[lbl]
            if np.array_equal(nl, lbl):
                break
            lbl = nl
        if np.array_equal(lbl, old):
            break
    return pd.DataFrame({"id": ids, "component": ids[lbl]})


def connected_components(
    edges,
    nodes=None,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    node_col: str = "id",
    max_iter: int = 50,
    checkpoint_dir: str | None = None,
    small_edge_budget: int | None = 2_000_000,
):
    """edges: Dataset[(src, dst)] (int64 node ids, undirected);
    nodes: optional Dataset[(id,)] adding isolated vertices.
    Returns Dataset[(id, component)] with component = min node id of
    the component (backed by the final checkpoint).

    Size-aware planner (the auto_join discipline): a `limit(budget+1)`
    probe pulls the edge set; if it fits `small_edge_budget` (default
    2M edges ≈ 32 MB) the exact numpy kernel answers driver-side —
    the distributed Pregel engine pays ~3 exchanges + a checkpoint
    PER SUPERSTEP of fixed overhead that dwarfs a small graph. Above
    the budget (or with `small_edge_budget=0/None`) the probe cost is
    bounded by the budget and the checkpointed superstep path runs —
    the 100 TB shape where the edge set outgrows every single node.
    A caller-given `checkpoint_dir` always takes the checkpointed path,
    whatever the graph's size.

    `max_iter` bounds the checkpointed supersteps only. The driver-side
    path always runs label propagation to its fixpoint and ignores it,
    so on a small graph the answer is exact even where the superstep
    path would stop early."""
    import shutil
    import tempfile

    import ray.data
    from ray.data.aggregate import Min

    from .temporal import grouped_map

    if small_edge_budget and checkpoint_dir is None:
        probe = edges.limit(small_edge_budget + 1).to_pandas()
        if len(probe) <= small_edge_budget:
            extra = np.array([], dtype=np.int64)
            ok = True
            if nodes is not None:
                nprobe = nodes.limit(4 * small_edge_budget + 1).to_pandas()
                if len(nprobe) <= 4 * small_edge_budget:
                    extra = nprobe[node_col].to_numpy(np.int64)
                else:
                    ok = False  # tiny edges, corpus-sized node set
            if ok:
                out = _components_numpy(
                    probe[src_col].to_numpy(np.int64),
                    probe[dst_col].to_numpy(np.int64),
                    extra,
                )
                if node_col != "id":
                    out = out.rename(columns={"id": node_col})
                return ray.data.from_pandas(out)

    ckpt = checkpoint_dir or tempfile.mkdtemp(prefix="cc_", dir="/tmp")

    # undirected: ship each edge both ways ONCE; lazy, re-read per step
    def both_ways(batch: pa.Table) -> pa.Table:
        a = batch[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "u": pa.array(np.concatenate([a, b])),
            "v": pa.array(np.concatenate([b, a])),
        })

    dir_edges = edges.map_batches(both_ways, batch_format="pyarrow")

    # labels start as the node's own id (edge endpoints + extra nodes)
    def init_from_edges(batch: pa.Table) -> pa.Table:
        return pa.table({node_col: pa.array(np.unique(batch["u"].to_numpy()))})

    seeds = dir_edges.map_batches(init_from_edges, batch_format="pyarrow")
    if nodes is not None:
        seeds = seeds.union(nodes.select_columns([node_col]))
    labels = seeds.groupby(node_col).aggregate(Min(node_col, alias_name="component"))
    labels.write_parquet(f"{ckpt}/step_0")
    labels = ray.data.read_parquet(f"{ckpt}/step_0")
    prev_sum = labels.sum("component")

    def tag_label(batch: pa.Table) -> pa.Table:
        return pa.table({
            "k": batch[node_col],
            "v": pa.nulls(len(batch), type=pa.int64()),
            "lbl": batch["component"].cast(pa.int64()),
        })

    def tag_holder(batch: pa.Table) -> pa.Table:
        return pa.table({
            "k": batch["component"].cast(pa.int64()),
            "node": batch[node_col].cast(pa.int64()),
            "lbl2": pa.nulls(len(batch), type=pa.int64()),
        })

    def tag_mapping(batch: pa.Table) -> pa.Table:
        return pa.table({
            "k": batch[node_col].cast(pa.int64()),
            "node": pa.nulls(len(batch), type=pa.int64()),
            "lbl2": batch["component"].cast(pa.int64()),
        })

    for step in range(1, max_iter + 1):
        # hop: messages co-grouped by node, min-combined
        both = dir_edges.map_batches(_tag_edge, batch_format="pyarrow").union(
            labels.map_batches(tag_label, batch_format="pyarrow")
        )
        # materialize before every Sort in the superstep: Ray 2.49's
        # planner degrades super-linearly on Sort-behind-deep-map plans
        # (the dedup pair scan measured 70-90s vs ~12s materialized);
        # per-step state here is label/message-sized, not corpus-sized
        msgs = grouped_map(
            both, "k", _emit, batch_format="pandas", materialize_input=True
        ).materialize()
        hopped = msgs.groupby("id").aggregate(Min("cand", alias_name="component"))
        if node_col != "id":
            hopped = hopped.map_batches(
                lambda t: t.rename_columns([node_col, "component"]),
                batch_format="pyarrow",
            )
        # jump: co-group holders (keyed by label) with the mapping
        jp = hopped.map_batches(tag_holder, batch_format="pyarrow").union(
            hopped.map_batches(tag_mapping, batch_format="pyarrow")
        )
        jumped = grouped_map(
            jp, "k", _jump, batch_format="pandas", materialize_input=True
        )
        if node_col != "id":
            jumped = jumped.map_batches(
                lambda t: t.rename_columns([node_col, "component"]),
                batch_format="pyarrow",
            )
        jumped.write_parquet(f"{ckpt}/step_{step}")
        labels = ray.data.read_parquet(f"{ckpt}/step_{step}")
        shutil.rmtree(f"{ckpt}/step_{step - 1}", ignore_errors=True)

        # convergence: labels only ever decrease, so the label sum is a
        # strictly-decreasing potential function — one cheap aggregate
        cur_sum = labels.sum("component")
        if cur_sum == prev_sum:
            break
        prev_sum = cur_sum
    return labels


def _pagerank_numpy(
    u: np.ndarray, v: np.ndarray, d: float, n_iter: int
) -> pd.DataFrame:
    """Exact small-graph kernel: the same power iteration with
    dangling-mass redistribution as the distributed engine, over
    compacted ids (np.add.at scatter per step; O(E) per iteration)."""
    ids = np.unique(np.concatenate([u, v]))
    if len(ids) == 0:
        return pd.DataFrame({"id": pd.Series(dtype=np.int64),
                             "rank": pd.Series(dtype=np.float64)})
    su = np.searchsorted(ids, u)
    sv = np.searchsorted(ids, v)
    N = len(ids)
    outdeg = np.bincount(su, minlength=N).astype(np.float64)
    w = 1.0 / outdeg[su]
    dangling = outdeg == 0
    r = np.full(N, 1.0 / N)
    for _ in range(n_iter):
        D = r[dangling].sum()
        contrib = np.zeros(N)
        np.add.at(contrib, sv, r[su] * w)
        r = (1.0 - d) / N + d * (contrib + D / N)
    return pd.DataFrame({"id": ids, "rank": r})


def pagerank(
    edges,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    damping: float = 0.85,
    n_iter: int = 20,
    checkpoint_dir: str | None = None,
    small_edge_budget: int | None = 2_000_000,
):
    """Distributed PageRank with dangling-node redistribution
    (Brin & Page 1998; the power-iteration formulation):

        r'(v) = (1-d)/N + d * (Σ_{u→v} r(u)/outdeg(u) + D/N),
        D = Σ_{outdeg(u)=0} r(u)

    Same Pregel-style execution as connected_components: every
    superstep is two hash-bucket co-group passes (ranks joined to
    edges by src -> contribution messages; messages combined by dst)
    ending in a parquet checkpoint that severs executor lineage and
    makes the iteration resumable. Edge weights 1/outdeg are
    precomputed ONCE in a single bucket pass (all of a src's edges
    co-locate, so the degree is bucket-local) and checkpointed; the
    per-step driver traffic is two scalars (dangling mass, rank sum).

    edges: Dataset[(src, dst)] int64 node ids, directed.
    Returns Dataset[(id, rank)] backed by the final checkpoint.
    """
    import shutil
    import tempfile

    import ray.data

    from .temporal import grouped_map

    d = float(damping)

    if small_edge_budget and checkpoint_dir is None:
        # size-aware planner, same discipline as connected_components:
        # below the budget the exact numpy power iteration answers
        # driver-side; the checkpointed superstep engine is the path
        # for edge sets that outgrow one node, and for every caller
        # that asked for checkpoints.
        probe = edges.limit(small_edge_budget + 1).to_pandas()
        if len(probe) <= small_edge_budget:
            out = _pagerank_numpy(
                probe[src_col].to_numpy(np.int64),
                probe[dst_col].to_numpy(np.int64),
                d,
                n_iter,
            )
            return ray.data.from_pandas(out)

    ckpt = checkpoint_dir or tempfile.mkdtemp(prefix="pr_", dir="/tmp")

    # --- one-time precompute: per-edge weight 1/outdeg(src) ----------------
    def to_uv(batch: pa.Table) -> pa.Table:
        return pa.table({
            "u": batch[src_col].cast(pa.int64()),
            "v": batch[dst_col].cast(pa.int64()),
        })

    uv = edges.map_batches(to_uv, batch_format="pyarrow")

    def weigh(g: pd.DataFrame) -> pa.Table:
        deg = g.groupby("u")["v"].transform("size").to_numpy(np.float64)
        return pa.table({
            "u": pa.array(g["u"].to_numpy(np.int64)),
            "v": pa.array(g["v"].to_numpy(np.int64)),
            "w": pa.array(1.0 / deg),
        })

    grouped_map(uv, "u", weigh).write_parquet(f"{ckpt}/edges_w")
    edges_w = ray.data.read_parquet(f"{ckpt}/edges_w")

    # --- node set with dangling flag (no out-edges) ------------------------
    def tag_ids(src_side: bool):
        col = "u" if src_side else "v"

        def _t(batch: pa.Table) -> pa.Table:
            ids = np.unique(batch[col].to_numpy(zero_copy_only=False))
            return pa.table({
                "id": pa.array(ids),
                "has_out": pa.array(np.full(len(ids), src_side)),
            })

        return _t

    both_ids = uv.map_batches(tag_ids(True), batch_format="pyarrow").union(
        uv.map_batches(tag_ids(False), batch_format="pyarrow")
    )

    def resolve_nodes(g: pd.DataFrame) -> pa.Table:
        agg = g.groupby("id")["has_out"].any()
        return pa.table({
            "id": pa.array(agg.index.to_numpy(np.int64)),
            "dangling": pa.array(~agg.to_numpy(bool)),
        })

    nodes = grouped_map(both_ids, "id", resolve_nodes)
    n_nodes = nodes.count()

    def init_rank(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "rank", pa.array(np.full(batch.num_rows, 1.0 / n_nodes))
        )

    nodes.map_batches(init_rank, batch_format="pyarrow").write_parquet(f"{ckpt}/step_0")
    ranks = ray.data.read_parquet(f"{ckpt}/step_0")

    # --- supersteps ---------------------------------------------------------
    def tag_edge(batch: pa.Table) -> pa.Table:
        return pa.table({
            "k": batch["u"], "v": batch["v"], "w": batch["w"],
            "rank": pa.nulls(len(batch), type=pa.float64()),
            "dangling": pa.nulls(len(batch), type=pa.bool_()),
        })

    def tag_rank(batch: pa.Table) -> pa.Table:
        return pa.table({
            "k": batch["id"],
            "v": pa.nulls(len(batch), type=pa.int64()),
            "w": pa.nulls(len(batch), type=pa.float64()),
            "rank": batch["rank"],
            "dangling": batch["dangling"],
        })

    def emit(g: pd.DataFrame) -> pa.Table:
        # arrow out: the messages go through another hash-bucket shuffle
        holders = g[g["v"].isna()]
        edg = g[g["rank"].isna()]
        m = edg[["k", "v", "w"]].merge(holders[["k", "rank"]], on="k", how="inner")
        ids = np.concatenate(
            [m["v"].to_numpy(np.int64), holders["k"].to_numpy(np.int64)]
        ).astype(np.int64, copy=False)
        contrib = np.concatenate(
            [(m["w"] * m["rank"]).to_numpy(np.float64), np.zeros(len(holders))]
        )
        # zero-contribution carrier rows keep every node (and its
        # dangling flag) alive through the combine pass; message rows
        # carry a NULL dangling flag
        dang = pa.array(
            np.concatenate(
                [np.zeros(len(m), bool), holders["dangling"].to_numpy(bool)]
            ),
            mask=np.concatenate(
                [np.ones(len(m), bool), np.zeros(len(holders), bool)]
            ),
        )
        return pa.table({
            "id": pa.array(ids),
            "contrib": pa.array(contrib),
            "dangling": dang,
        })

    for step in range(1, n_iter + 1):
        # dangling mass: one scalar off the stream
        def dm_partial(batch: pa.Table) -> pa.Table:
            r = batch["rank"].to_numpy(zero_copy_only=False)
            dg = batch["dangling"].to_numpy(zero_copy_only=False).astype(bool)
            return pa.table({"dm": pa.array([float(r[dg].sum())])})

        dangling_mass = ranks.map_batches(dm_partial, batch_format="pyarrow").sum("dm")
        base = (1.0 - d) / n_nodes + d * dangling_mass / n_nodes

        both = edges_w.map_batches(tag_edge, batch_format="pyarrow").union(
            ranks.map_batches(tag_rank, batch_format="pyarrow")
        )
        msgs = grouped_map(
            both, "k", emit, batch_format="pandas", materialize_input=True
        )

        def combine(g: pd.DataFrame, base=base) -> pa.Table:
            # arrow out: streams straight into the parquet checkpoint
            agg = g.groupby("id").agg(
                contrib=("contrib", "sum"), dangling=("dangling", "max")
            )
            return pa.table({
                "id": pa.array(agg.index.to_numpy(np.int64)),
                "dangling": pa.array(
                    pd.array(agg["dangling"], dtype="boolean").to_numpy(
                        dtype=bool, na_value=False
                    )
                ),
                "rank": pa.array(base + d * agg["contrib"].to_numpy(np.float64)),
            })

        grouped_map(msgs, "id", combine, materialize_input=True).write_parquet(
            f"{ckpt}/step_{step}"
        )
        ranks = ray.data.read_parquet(f"{ckpt}/step_{step}")
        shutil.rmtree(f"{ckpt}/step_{step - 1}", ignore_errors=True)

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({"id": batch["id"], "rank": batch["rank"]})

    return ranks.map_batches(project, batch_format="pyarrow")
