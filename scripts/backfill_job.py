#!/usr/bin/env python
"""Cluster entry point for the resumable backfill.

Submit to a running Ray cluster:

    ray job submit --working-dir . -- \
        python scripts/backfill_job.py --input /data/tokens --out /data/features \
        --features log_n_tok minmax_n_tok gbt_mean_n_tok_by_source --num-shards 256

On the fixed-size cluster the job connects to the existing head
(RAY_ADDRESS is set by `ray job submit`); locally it starts a local
session. Every shard still to compute runs in one Ray Data execution,
and each shard commits as soon as the task holding its last rows ends,
so a killed job keeps every shard whose tasks finished. Reruns resume:
shards whose _lineage.json matches the input fingerprint (path, size,
mtime) and the plan fingerprint (feature names, fitted values) are
skipped (state/checkpoint.py). Each run refits; the fit merges its
partials in a fixed order, so unchanged files fit the same values.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SPECS = {
    "log_n_tok": lambda F: F["unary"]("log", F["n_tok"]),
    "minmax_n_tok": lambda F: F["unary"]("minmax", F["n_tok"]),
    "zscore_tok_mean": lambda F: F["unary"]("zscore", F["tok_mean"]),
    "recip_n_tok": lambda F: F["unary"]("reciprocal", F["n_tok"]),
    "add_n_tok_tok_mean": lambda F: F["binary"]("add", F["n_tok"], F["tok_mean"]),
    "div_tok_mean_n_tok": lambda F: F["binary"]("div", F["tok_mean"], F["n_tok"]),
    "gbt_mean_n_tok_by_source": lambda F: F["gbt"]("mean", F["n_tok"], F["source"]),
    "gbt_max_tok_mean_by_source": lambda F: F["gbt"]("max", F["tok_mean"], F["source"]),
}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", required=True, help="directory of token-table parquet files")
    ap.add_argument("--out", required=True, help="output directory (shard=* layout)")
    ap.add_argument("--features", nargs="+", default=list(SPECS), choices=list(SPECS))
    ap.add_argument("--num-shards", type=int, default=64)
    ap.add_argument("--batch-size", type=int, default=None)
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"), include_dashboard=False)

    from complexity_driven_feature_construction_ray.functions.expr import (
        binary,
        groupbythen,
        raw,
        unary,
    )
    from complexity_driven_feature_construction_ray.sources.token_table import (
        TOKEN_TABLE_SCHEMA,
    )
    from complexity_driven_feature_construction_ray.stages.fit import fit_distributed
    from complexity_driven_feature_construction_ray.stages.token_stats import (
        TOKEN_STAT_COLS,
        token_stats_dataset,
    )
    from complexity_driven_feature_construction_ray.state.checkpoint import (
        resumable_backfill,
    )

    F = {
        "n_tok": raw("n_tok", properties={"min": 1.0, "max": 512.0, "has_zero": False, "distinct": 512}),
        "tok_mean": raw("tok_mean", properties={"min": 0.0, "max": 50257.0, "has_zero": False}),
        "source": raw("source", "categorical", {"distinct": 5}),
        "unary": unary,
        "binary": binary,
        "gbt": groupbythen,
    }
    features = [SPECS[name](F) for name in args.features]

    files = sorted(glob.glob(os.path.join(args.input, "*.parquet")))
    if not files:
        raise SystemExit(f"no parquet files under {args.input}")

    import ray.data

    fit_ds = token_stats_dataset(ray.data.read_parquet(files))
    fitted = fit_distributed(
        features, fit_ds, input_cols=[*TOKEN_TABLE_SCHEMA.names, *TOKEN_STAT_COLS]
    )
    report = resumable_backfill(
        files,
        args.out,
        features,
        fitted,
        num_shards=args.num_shards,
        batch_size=args.batch_size,
    )
    print(json.dumps(report))
    ray.shutdown()


if __name__ == "__main__":
    main()
