"""Flagship end-to-end pipeline over the tokenized sequence table.

The full reference lifecycle (SURVEY.md §3.2: sample -> search ->
filter -> backfill -> select) re-expressed as streaming Ray Data
stages, plus the north rule's temporal layer:

  generate/read token table
    -> token-stats projection (map_batches, zero-copy Arrow)
    -> streaming column stats -> raw features
    -> complexity-driven search on a seeded driver-side sample
       (scoring as Ray tasks over a broadcast sample)
    -> distributed fit of the selected plans (mergeable partials)
    -> full-table backfill (FeatureBackfill via map_batches tasks)
    -> as-of join of per-source feature events (leak-free attach)
    -> lag/lead + sessionization per source

Deterministic end-to-end: same seed -> byte-identical output.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..functions.expr import Feature
from ..sources.token_table import token_table_arrow, token_table_dataset
from ..stages.backfill import backfill_dataset
from ..stages.fit import fit_distributed
from ..stages.stats import base_features_from_stats, column_stats
from ..stages.temporal import temporal_attach
from ..stages.token_stats import TOKEN_STAT_COLS, token_stats_arrays, token_stats_dataset
from .search import ComplexityDrivenSearch, SearchResult

BASE_NUMERIC = ("n_tok", *TOKEN_STAT_COLS)


def search_sample(n_rows: int, seed: int = 42):
    """Driver-side scoring sample == the first n rows of the table
    (row-independent generator => identical on any worker)."""
    t = token_table_arrow(n_rows, seed=seed)
    cols = {
        "n_tok": t["n_tok"].to_numpy().astype(np.float64),
        "source": t["source"].to_numpy(zero_copy_only=False),
    }
    cols.update(token_stats_arrays(t["tokens"]))
    y = t["label"].to_numpy().astype(np.int8)
    return cols, y


def source_feature_events(seed: int = 42, n_days: int = 30) -> pd.DataFrame:
    """Deterministic per-source daily feature events for the as-of stage
    (a tiny event stream keyed by the skewed `source` entity)."""
    rng = np.random.default_rng(seed)
    base = pd.Timestamp("2025-01-01")
    rows = []
    for src in ("web", "books", "code", "wiki", "chat"):
        for d in range(n_days):
            rows.append(
                {
                    "entity": src,
                    "event_ts": base + pd.Timedelta(days=d, hours=int(rng.integers(0, 12))),
                    "src_quality": float(np.round(rng.random(), 6)),
                }
            )
    return pd.DataFrame(rows)


def run_flagship(
    n_rows: int,
    *,
    seed: int = 42,
    c_max: int = 2,
    sample_rows: int = 2000,
    top_k_features: int = 8,
    use_ray_scoring: bool = True,
    num_blocks: int | None = None,
    concurrency: int | None = None,
    batch_size: int | None = 4096,
    with_temporal: bool = True,
    search_result: SearchResult | None = None,
    selected: list[Feature] | None = None,
):
    """Returns (output Dataset, SearchResult, selected features)."""
    import ray.data

    ds = token_table_dataset(n_rows, seed=seed, override_num_blocks=num_blocks)
    ds = token_stats_dataset(ds)

    sample = None  # (cols, y) for unmergeable fits (mdlp is supervised)
    if selected is None:
        if search_result is None:
            stats = column_stats(ds, ["n_tok", "source", *TOKEN_STAT_COLS])
            base = base_features_from_stats(stats)
            cols, y = search_sample(min(sample_rows, n_rows), seed=seed)
            sample = (cols, y)
            search = ComplexityDrivenSearch(
                c_max=c_max, epsilon=0.0, use_ray=use_ray_scoring, lr_max_iter=15
            )
            search_result = search.run(cols, y, base)
        ranked = sorted(
            search_result.all_scored.values(), key=lambda s: (-s.score, s.complexity, s.name)
        )
        selected = [s.feature for s in ranked[:top_k_features]]

    from ..sources.token_table import TOKEN_TABLE_SCHEMA

    if sample is None:
        # lazy: generated only if a selected plan actually contains an
        # unmergeable (mdlp/custom) fit node — the common mergeable-only
        # resume/selected path skips driver-side sample generation
        m = min(sample_rows, n_rows)
        sample = lambda: search_sample(m, seed=seed)  # noqa: E731
    fitted = fit_distributed(
        selected,
        ds,
        input_cols=[*TOKEN_TABLE_SCHEMA.names, *TOKEN_STAT_COLS],
        sample_for_unmergeable=sample,
    )
    out = backfill_dataset(
        ds, selected, fitted, concurrency=concurrency, batch_size=batch_size
    )

    if with_temporal:
        import pyarrow as pa

        from ..sources.token_table import TOKEN_TABLE_SCHEMA

        # backfill output schema, known analytically (avoids ds.schema()
        # executing the lazy upstream pipeline just to discover it)
        probe_schema = TOKEN_TABLE_SCHEMA
        for c in TOKEN_STAT_COLS:
            probe_schema = probe_schema.append(pa.field(c, pa.float64()))
        for f in sorted(selected, key=lambda f: (f.complexity, f.name)):
            if f.name not in probe_schema.names:
                probe_schema = probe_schema.append(pa.field(f.name, pa.float64()))

        from ..stages.bucketing import data_sized_buckets

        events = ray.data.from_pandas(source_feature_events(seed))
        # fully fused temporal layer: as-of attach + lag/lead +
        # sessionization in ONE shuffle of the wide table. The probe is
        # a lazy backfill lineage (no metadata count) — size the
        # entity-hash buckets from the known input row count.
        out = temporal_attach(
            out,
            events,
            num_buckets=data_sized_buckets(n_rows),
            key="source",
            probe_ts="ingest_ts",
            event_ts="event_ts",
            value_cols=["src_quality"],
            event_key="entity",
            lag_cols=["n_tok"],
            gap=1800,
            tiebreak=["doc_id"],
            probe_schema=probe_schema,
        )
    return out, search_result, selected
