"""Full-table feature backfill — the core map_batches stage.

The reference backfills selected transformations over the full table in
15,000-row chunks with an mp.Pool per chunk, parallelizing over
*features* (reference new_project/fairexp.py:157-182). Here the whole
selected feature set is evaluated vectorized per Arrow batch and Ray
parallelizes over *batches* — the shape Ray Data is built for.

The feature plans and the fitted dict (scaler params, bin edges, per-key
group aggregates) are `ray.put` once by the driver, never re-shipped per
batch. Each worker process resolves them and compiles the plans once,
through a per-worker cache, on the warm task pool: tasks rather than a
dedicated actor pool, because actor startup dominated when measured at
300k rows x 32 CPUs (7.5s cold / 2.6s warm with tasks vs 36.4s / 4.7s
with actors).
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.expr import Feature, install_registry, registry_snapshot
from ..functions.kernels import Fitted, compile_many


def _needed_raw(features: list[Feature]) -> list[str]:
    return sorted({f.params[0] for root in features for f in root.walk() if f.op == "raw"})


class FeatureBackfill:
    """Batch in -> batch + one float64 column per feature."""

    def __init__(self, features: list[Feature], fitted: Fitted, keep_input: bool = True):
        self.features = features
        self.needed = _needed_raw(features)
        self.keep_input = keep_input
        self.run = compile_many(features, fitted)
        # output column name per feature, in complexity order then name
        # (reference fairexp.py:184-189 sorts backfilled columns by complexity)
        self.ordered = sorted(self.features, key=lambda f: (f.complexity, f.name))

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .token_stats import numpy_base_columns

        cols = numpy_base_columns(batch, self.needed)
        out = self.run(cols)
        result = batch if self.keep_input else batch.select(
            [c for c in ("doc_id",) if c in batch.column_names]
        )
        for f in self.ordered:
            if f.name in result.column_names:
                continue  # raw feature already physical in the batch
            result = result.append_column(f.name, pa.array(out[f.name], type=pa.float64()))
        return result


# per-worker-process cache: compile once per worker, keyed by the
# broadcast refs
_WORKER_CACHE: dict = {}


def _task_backfill(batch, *, features_ref, fitted_ref, keep_input, custom_ops=None):
    import ray

    # kernels look custom ops up per call, so install on every batch: a
    # task of another run may have replaced the registry since
    install_registry(custom_ops)
    key = (features_ref.hex(), fitted_ref.hex(), keep_input)
    bf = _WORKER_CACHE.get(key)
    if bf is None:
        if len(_WORKER_CACHE) > 4:  # refs from prior runs are dead weight
            _WORKER_CACHE.clear()
        bf = _WORKER_CACHE[key] = FeatureBackfill(
            ray.get(features_ref), ray.get(fitted_ref), keep_input
        )
    return bf(batch)


def backfill_dataset(
    ds,
    features: list[Feature],
    fitted: Fitted,
    *,
    concurrency: int | None = None,
    batch_size: int | None = None,
    keep_input: bool = True,
):
    """Backfill as a map_batches stage over zero-copy Arrow batches.

    The feature plans + fitted state are tiny (scalar params and small
    per-key aggregate tables), so they are `ray.put` once and resolved
    through a per-worker compile cache on the warm task pool (see the
    module docstring for the measured tasks-vs-actors gap)."""
    import functools

    import ray

    fn = functools.partial(
        _task_backfill,
        features_ref=ray.put(features),
        fitted_ref=ray.put(fitted),
        keep_input=keep_input,
        custom_ops=registry_snapshot(),
    )
    # concurrency caps in-flight tasks here (it is not actor-pool
    # size); honored rather than silently ignored
    return ds.map_batches(
        fn,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )
