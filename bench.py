#!/usr/bin/env python
"""Benchmark harness for the Ray-Data feature-construction engine.

Default mode: run the headline pipelines over $GRAFT_SF_DIR (default
/root/testdata/sf0.1) under ray.init(address="local",
num_cpus=$RAY_GRAFT_CPUS or 32) and print ONE JSON line:

  {"metric": ..., "value": total_sec, "unit": "sec",
   "queries": {name: sec, ...}, "sf": ..., "num_cpus": N,
   "backfill_rows": R, "backfill_rows_per_sec": T}

--scaling: run the flagship backfill job twice in FRESH processes
(num_cpus=8 then num_cpus=32) on the same input and report both
throughputs plus scaling efficiency (speedup / cpu-ratio). This is the
sandbox stand-in for the north rule's N-node vs 4N-node cluster run
(no real cluster here); results are recorded in BASELINE.md.

--job backfill is the internal worker entry used by --scaling so each
parallelism level gets its own clean Ray session.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, REPO)

DEFAULT_SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
DEFAULT_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

# headline subset of the full queries() catalog: the flagship token
# pipeline plus one representative per operator family (relational
# aggregate/join/topk, temporal, dedup, text, ANN).
HEADLINE = [
    "tok_backfill",
    "q_pricing_summary",
    "q_top_revenue",
    "q_broadcast_join",
    "q_salted_agg",
    "t_asof",
    "t_lag_lead",
    "t_sessionize",
    "t_rolling",
    "t_rolling_range",
    "q_grouped_median",
    "q_union_distinct",
    "q_shuffle_join",
    "q_bloom_semi_join",
    "t_hopping",
    "t_ntile",
    "fe_winsorize",
    "fe_target_encode",
    "q_corr",
    "t_user_trend",
    "d_stratified_sample",
    "d_c4_filter",
    "d_exact_dedup",
    "d_minhash_dedup",
    "d_quality",
    "d_lang_id",
    "d_knn",
    "d_tfidf",
    "d_mixture_sample",
    "d_dup_passages",
    "d_lm_score",
    "d_pack",
    "f_rod",
    "tok_search",
    "q_left_join",
    "q_full_outer_join",
    "q_cube",
    "t_fill_forward",
    "d_mad_filter",
    "q_string_agg",
    "d_token_budget",
    "q_grouped_p90_cont",
    "q_three_way_join",
    "q_skew_report",
    "d_span_mask",
    "d_embed_decontaminate",
    "d_kl_mix",
    "tok_bigram_counts",
    "q_intersect",
    "fe_boxcox",
    "tok_pmi",
    "tok_entropy",
    "tok_zipf",
    "d_bm25",
    "d_pii_scrub",
    "d_norm_dedup",
    "d_fuzzy_join",
    "d_incremental_dedup",
    "d_weighted_sample",
    "d_contamination_matrix",
    "d_embed_centroid",
    "d_psi",
    "d_minhash_incremental",
    "d_latest_version",
    "d_top_tokens_by_source",
    "d_knn_pq",
    "tok_seq_dedup",
    "t_window_distinct",
    "q_zorder",
    "tok_grep",
    "d_remove_dup_spans",
    "d_embed_outliers",
    "d_curation_pipeline",
    "d_lm3_score",
    "q_audit",
    "d_length_buckets",
    "d_embed_dispersion",
    "d_group_split",
    "q_histogram",
    "d_gopher_filter",
    "t_anomaly",
    "q_scd2",
    "d_detokenize",
    "t_asof_nearest",
    "d_ccnet_buckets",
    "t_ohlc",
    "d_oov_rate",
    "d_ngram_repetition",
    "t_percent_rank",
    "d_char_fingerprint",
    "t_ewma",
    "q_skyline",
    "q_grouped_mode",
    "d_fertility",
    "t_json_extract",
    "t_running_total",
    "d_shard_plan",
    "d_dup_cluster_sizes",
    "q_grouped_iqr",
    "d_prefix_dedup",
    "d_hash_features",
    "d_interleave",
    "d_cms_counts",
    "q_approx_distinct",
    "d_minhash_sig",
    "d_simhash_sig",
    "d_embed_quantize",
    "fe_woe",
    "t_seasonality",
    "t_late_events",
    "d_dedup_apply_exact",
    "d_dsir",
    "d_lang_confusion",
    "d_minhash_jaccard_est",
    "d_doc_entropy",
    "d_cond_entropy",
    "t_rolling_centered",
    "d_split_leakage",
    "d_winnow",
    "d_covariance",
    "q_spearman",
    "fe_chi2",
    "d_quantile_norm",
    "d_lexical_diversity",
    "t_resample",
    "d_ks_test",
    "d_gini",
    "d_sentence_stats",
    "t_forward_window",
    "q_percentile_exact",
    "d_compress_ratio",
    "d_span_corruption",
    "d_readability",
    "q_upsert",
    "d_ann_recall",
    "d_triangle_count",
    "d_conversation",
    "q_table_checksum",
    "tok_crop",
    "d_html_strip",
    "d_wilson_ci",
    "q_moments",
    "fe_polynomial",
    "fe_cyclic",
    "fe_crosshash",
    "d_auc",
    "t_autocorr",
    "fe_count_encode",
    "fe_loo_encode",
    "t_cusum",
    "q_grouping_sets",
    "t_pct_change",
    "d_degree_stats",
    "d_calibration",
    "fe_hinge",
    "d_url_extract",
    "d_bloom_fpr",
    "t_mann_kendall",
    "t_attribution",
    "d_kmv_distinct",
    "d_ab_ztest",
    "d_gains",
    "q_null_safe_join",
    "fe_rbf",
    "d_lang_f1",
    "t_dwell_time",
    "t_rolling_median",
    "d_jackknife",
    "d_preference_pairs",
    "d_budget_alloc",
    "q_fk_audit",
    "d_ece",
    "d_label_noise",
    "d_hard_negative",
    "q_join_size_est",
    "t_peak_detect",
    "t_streak",
    "q_except_all",
    "d_theil",
    "d_mix_entropy",
    "t_time_to_event",
    "t_km",
    "q_weighted_median",
    "d_containment",
    "q_interval_join",
    "d_kmv_setops",
    "q_grouped_ols",
    "t_forecast_error",
    "d_class_balance",
    "t_nelson_aalen",
    "t_did",
    "fe_spline",
    "q_trimmed_mean",
    "t_rfm",
    "t_time_split",
    "q_pythagorean_means",
    "d_vocab_overlap",
    "t_logrank",
    "q_assoc_rules",
    "q_benford",
    "d_hill_tail",
    "t_ljung_box",
    "q_runs_test",
    "q_theil_sen",
    "q_mann_whitney",
    "d_cross_source_dups",
    "t_changepoint",
    "q_abc",
    "t_integrity",
    "d_wasserstein",
    "d_rbo",
    "q_anova",
    "t_spectral",
    "d_bootstrap_ci",
    "d_js_divergence",
    "q_kendall_tau",
    "d_vocab_coverage",
    "q_bowley",
    "q_cramers_v",
    "t_fano",
    "t_decayed_mean",
    "d_heaps",
    "t_drawdown",
    "t_growth_accounting",
    "t_durbin_watson",
    "q_jarque_bera",
    "t_cohort_ltv",
    "q_median_test",
    "d_charclass",
    "d_hash_collisions",
    "d_truncation_waste",
    "q_share_of_parent",
    "t_xcorr",
    "q_ratio_delta",
    "t_sprt",
    "d_dup_threshold_curve",
    "q_cohens_d",
    "d_c4_funnel",
    "q_key_audit",
    "q_pearson_residuals",
    "q_cvar",
    "d_ngram_overlap_curve",
    "q_welch_t",
    "q_hhi",
    "t_hour_entropy",
    "q_tukey_fences",
    "d_distinctive_tokens",
    "t_ess",
    "d_good_turing",
    "t_circular_mean",
    "q_mahalanobis",
    "q_partial_corr",
    "t_pinball",
    "q_odds_ratio",
    "t_perm_entropy",
    "q_iqv",
    "d_token_dispersion",
    "q_assortativity",
    "d_js_matrix",
    "q_spearman_price",
    "q_theil_u",
    "q_gini",
    "t_hazard",
    "q_entropy_rate",
    "d_burrows_delta",
    "q_lorenz",
    "q_mcnemar",
    "d_novelty_curve",
    "q_cochran_armitage",
    "q_capture_recapture",
    "t_markov_stationary",
    "q_funnel_ordered",
    "q_mde",
    "d_doc_cooccur",
    "q_kruskal_wallis",
    "q_gumbel_maxima",
    "q_neyman_alloc",
    "q_elasticity",
    "t_retention_rate",
    "d_completeness_audit",
    "t_reorder_gap",
    "d_char_entropy",
    "t_seasonal_strength",
    "q_simpson_check",
    "t_peak_window",
    "t_segment_migration",
    "q_price_index",
    "t_acf_half_life",
    "t_seasonal_mk",
    "d_embed_adjacent_sim",
    "q_dup_orders",
    "t_event_trigrams",
    "t_burstiness",
    "t_stickiness",
    "d_sentence_dedup",
    "q_supply_concentration",
    "t_conversion_lag",
    "q_basket_diversity",
    "q_ship_delay",
    "t_error_recovery",
    "d_casing_profile",
    "t_activity_heatmap",
    "d_keyness_g2",
    "d_mix_budget",
    "q_revenue_decomposition",
    "q_interval_coverage",
    "t_quiet_hours",
    "t_hhi_trend",
    "q_tail_dependence",
    "q_month_end_load",
    "t_periodogram",
    "t_user_lifetime",
    "d_embed_label_purity",
    "q_topk_churn",
    "q_price_stickiness",
    "q_mantissa_ks",
    "q_psych_pricing",
    "t_priority_mix_drift",
    "q_discount_ladder",
    "q_trade_flows",
    "t_props_value_corr",
    "d_dup_locality",
    "t_dormant_share",
    "d_partition_balance",
    "q_margin_audit",
    "d_dup_by_length",
    "d_core_vocab",
    "t_weekend_mix",
    "q_order_size_hist",
    "d_token_length_profile",
    "d_embed_dim_variance",
    "q_order_reconcile",
    "t_hour_levene",
    "q_linenumber_audit",
    "t_events_per_userday",
    "t_mix_entropy_trend",
    "d_hapax_profile",
    "q_segment_revenue",
    "t_transition_asymmetry",
    "q_priority_sla",
    "d_dedup_mix_shift",
    "d_lang_length_chi2",
    "q_acctbal_revenue_corr",
    "q_order_status_age",
    "q_status_consistency",
    "d_sentence_positions",
    "t_cold_start",
    "t_signup_dow_retention",
    "q_price_variance_split",
]


# --smoke tier: ~40 representative queries, one per operator family
# (flagship/search, relational joins+aggregates, temporal/windows,
# survival, time-series diagnostics, dedup, ANN, text quality, mixture,
# feature encoders, fairness). Every name is also in HEADLINE so smoke
# timings are directly comparable with full-tier rounds.
SMOKE = [
    "tok_backfill",
    "tok_search",
    "tok_pmi",
    "q_pricing_summary",
    "q_top_revenue",
    "q_shuffle_join",
    "q_broadcast_join",
    "q_salted_agg",
    "q_three_way_join",
    "q_interval_join",
    "q_cube",
    "q_grouped_median",
    "q_skew_report",
    "q_approx_distinct",
    "q_assoc_rules",
    "t_asof",
    "t_sessionize",
    "t_rolling",
    "t_ntile",
    "t_fill_forward",
    "t_km",
    "t_ljung_box",
    "t_rfm",
    "t_spectral",
    "d_exact_dedup",
    "d_minhash_dedup",
    "d_norm_dedup",
    "d_embed_decontaminate",
    "d_knn",
    "d_knn_pq",
    "d_tfidf",
    "d_c4_filter",
    "d_quality",
    "d_lang_id",
    "d_mixture_sample",
    "d_pack",
    "d_dsir",
    "d_js_matrix",
    "fe_winsorize",
    "fe_target_encode",
    "fe_woe",
    "f_rod",
]


def _disable_thp() -> None:
    """Disable transparent huge pages for this process tree (inherited by
    the raylet and all Ray workers forked after ray.init). The sandbox
    kernel runs THP=madvise and jemalloc/plasma madvise hugepages; the
    resulting page-compaction storms showed up as 50-160s of ~100%
    kernel time on identical 25s jobs. Process-scoped (prctl), touches
    no system files."""
    import ctypes

    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(41, 1, 0, 0, 0)  # PR_SET_THP_DISABLE = 41
    except Exception:
        pass


def _init_ray(num_cpus: int) -> None:
    import ray

    if not ray.is_initialized():
        _disable_thp()
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            # keep worker stdout/stderr OUT of this process's stdout: the
            # bench contract is ONE parseable JSON line, and a flushed
            # worker print would otherwise interleave with it
            log_to_driver=False,
            # keep the worker pool warm between dataset executions: the
            # default idle-worker reaping kills workers in the gaps
            # between passes, and the respawn fork+import storm shows up
            # as ~100% kernel time at the start of every execution
            # (measured: 3M-row fit pass 18.6s with churn vs 6.8s warm)
            _system_config={
                "kill_idle_workers_interval_ms": 0,
                "enable_worker_prestart": True,
            },
        )


def _consume(obj) -> int:
    """Force execution; return the result row count."""
    import pandas as pd
    import pyarrow as pa

    if isinstance(obj, pd.DataFrame):
        return len(obj)
    if isinstance(obj, pa.Table):
        return obj.num_rows
    return obj.count()  # ray.data.Dataset


def _backfill_rows(sf_dir: str) -> int:
    name = sf_dir.rstrip("/").split("/")[-1]
    return {"sf0.001": 3000, "sf0.01": 30000, "sf0.1": 300000}.get(name, 300000)


def run_backfill_job(n_rows: int) -> dict:
    """The scaling-bench job: generate -> token stats -> distributed fit
    -> actor-pool backfill -> count. No driver-side search, no
    low-cardinality map_groups stages — this measures the throughput of
    the distributed backfill path only (the BASELINE.json metric)."""
    from complexity_driven_feature_construction_ray.functions.expr import (
        binary,
        groupbythen,
        raw,
        unary,
    )
    from complexity_driven_feature_construction_ray.pipelines.flagship import run_flagship

    n_tok = raw(
        "n_tok",
        properties={"min": 1.0, "max": 512.0, "has_zero": False, "distinct": 512},
    )
    tok_mean = raw("tok_mean", properties={"min": 0.0, "max": 50257.0, "has_zero": False})
    src = raw("source", "categorical", {"distinct": 5})
    selected = [
        unary("log", n_tok),
        unary("minmax", n_tok),
        unary("zscore", tok_mean),
        unary("reciprocal", n_tok),
        binary("add", n_tok, tok_mean),
        binary("div", tok_mean, n_tok),
        groupbythen("mean", n_tok, src),
        groupbythen("max", tok_mean, src),
    ]
    def mark(msg):
        sys.stderr.write(f"[bench {time.strftime('%H:%M:%S')}] {msg}\n")
        sys.stderr.flush()

    # warmup: run the same pipeline tiny so every Ray worker process has
    # imported numpy/pyarrow/this package — we measure steady-state
    # throughput, not the one-time ~10s import storm (which at 100 TB
    # scale is noise but at bench scale would dominate and distort the
    # N-vs-4N efficiency comparison)
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 4))
    # ~4 blocks per CPU: enough waves for balance, big enough blocks
    # that vectorized kernels amortize per-batch overhead
    blocks = max(16, 4 * cpus)

    mark("warmup start")
    warm, _, _ = run_flagship(
        max(n_rows // 4, 2000), selected=selected, with_temporal=False, num_blocks=blocks
    )
    warm.count()
    mark("warmup done")

    t0 = time.perf_counter()
    out, _, _ = run_flagship(
        n_rows, selected=selected, with_temporal=False, num_blocks=blocks
    )
    mark("plan+fit done")
    rows = out.count()
    elapsed = time.perf_counter() - t0
    mark(f"backfill done rows={rows} sec={elapsed:.1f}")
    return {"rows": rows, "sec": elapsed, "rows_per_sec": rows / elapsed}


def run_headline(sf_dir: str, num_cpus: int, tier: str = "full") -> dict:
    from complexity_driven_feature_construction_ray.pipelines.relational import QUERIES

    # session warmup: one tiny pipeline so worker startup / imports are
    # paid before any per-query timer starts
    import ray.data

    ray.data.range(10000).map_batches(lambda b: b, batch_format="pyarrow").count()

    # variance-robust timing: the shared sandbox shows 4x swings on
    # identical code (BASELINE.md documents 65-126s suite spread), so
    # each query runs k times and reports the MIN (the best proxy for
    # the code's actual cost under noise), plus the observed spread.
    # Queries whose first run is already expensive (>5s) stop at 2 reps
    # to bound total bench wall time.
    reps = max(1, int(os.environ.get("GRAFT_BENCH_REPS", "3")))
    timings: dict[str, float] = {}
    spread: dict[str, float] = {}
    names = (
        SMOKE
        if tier == "smoke"
        else (list(QUERIES) if tier == "all" else HEADLINE)
    )
    for name in names:
        fn, _sql = QUERIES[name]
        runs: list[float] = []
        for rep in range(reps):
            t0 = time.perf_counter()
            _consume(fn(sf_dir))
            runs.append(time.perf_counter() - t0)
            if runs[0] > 5.0 and rep >= 1:
                break
        timings[name] = round(min(runs), 3)
        spread[name] = round(max(runs) - min(runs), 3)

    # dedicated throughput measurement of the flagship backfill
    n_rows = _backfill_rows(sf_dir)
    bf = run_backfill_job(n_rows)

    out = {
        "metric": "headline pipeline wall time (flagship backfill + operator families)",
        "value": round(sum(timings.values()) + bf["sec"], 3),
        "unit": "sec",
        "tier": tier,
        "queries": timings,
        "query_spread": spread,
        "bench_reps": reps,
        "sf": sf_dir.rstrip("/").split("/")[-1],
        "num_cpus": num_cpus,
        "backfill_rows": bf["rows"],
        "backfill_sec": round(bf["sec"], 3),
        "backfill_rows_per_sec": round(bf["rows_per_sec"], 1),
    }
    if tier in ("full", "all"):
        # SMOKE ⊆ HEADLINE, so the full run already timed every smoke
        # query — embed the smoke-tier aggregate so each round's
        # BENCH_r{N}.json carries a stable cross-round subset whose
        # total doesn't depend on headline-list growth.
        out["smoke_value"] = round(
            sum(timings[n] for n in SMOKE if n in timings) + bf["sec"], 3)
        out["smoke_queries"] = {
            n: timings[n] for n in SMOKE if n in timings}
    return out


SCALING_ROWS = 3_000_000  # big enough that per-row compute, not driver
# overhead, dominates at both parallelism levels (~30s at 32 CPUs)

MINHASH_DOCS = 3_000_000  # dedup-family scaling corpus size


def _write_minhash_corpus(n_docs: int) -> str:
    """Deterministic synthetic corpus for the dedup scaling bench,
    written ONCE to /tmp and shared by both parallelism levels so they
    measure the same input. 120-word docs over a 4096-word vocabulary
    (C4-like median length — doc length sets the compute:shuffle ratio
    the scaling measurement sees, and 60-word docs under-weighted the
    shingle/signature compute a real corpus pays);
    every 25th doc is a near-duplicate of its predecessor (~2 of 60
    words mutated, true 3-shingle Jaccard ~0.8) and every 100th an
    exact duplicate, so the LSH banding, hot-bucket filter and pair
    scan all do real work. Pure numpy+pyarrow (no Ray): the generator
    runs in the parent before the fresh-session workers fork."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from complexity_driven_feature_construction_ray.sources.token_table import _mix64

    W, V = 120, 4096
    out_dir = f"/tmp/bench_minhash_corpus_{n_docs}_w{W}"
    done = os.path.join(out_dir, "_DONE")
    if os.path.exists(done):
        return out_dir
    os.makedirs(out_dir, exist_ok=True)
    vocab = np.array([f"w{i:04d}" for i in range(V)], dtype=object)
    pos = np.arange(W, dtype=np.uint64)
    chunk = 100_000  # 30 files at 3M docs: enough read/map blocks for
    # smooth waves at both parallelism levels
    for f0 in range(0, n_docs, chunk):
        ids = np.arange(f0, min(f0 + chunk, n_docs), dtype=np.int64)
        u = ids.view(np.uint64)
        base = u.copy()
        near = ids % 25 == 1
        exact = ids % 100 == 2
        base[near] -= np.uint64(1)   # near-dup of the preceding clean doc
        base[exact] -= np.uint64(2)  # exact dup of a clean doc
        with np.errstate(over="ignore"):
            h = _mix64(base[:, None] * np.uint64(0x9E3779B97F4A7C15) + pos[None, :] + np.uint64(7))
            widx = (h % np.uint64(V)).astype(np.int64)
            mut = _mix64(u[:, None] * np.uint64(0xBF58476D1CE4E5B9) + pos[None, :]) % np.uint64(30) == 0
            mut &= near[:, None]
            widx[mut] = (h[mut] // np.uint64(V) % np.uint64(V)).astype(np.int64)
        flat = vocab[widx.reshape(-1)]
        offsets = np.arange(0, (len(ids) + 1) * W, W, dtype=np.int32)
        lst = pa.ListArray.from_arrays(pa.array(offsets), pa.array(flat, type=pa.string()))
        text = pc.binary_join(lst, " ")
        pq.write_table(
            pa.table({"doc_id": pa.array(ids), "text": text}),
            os.path.join(out_dir, f"part_{f0:09d}.parquet"),
        )
    with open(done, "w") as fh:
        fh.write("ok")
    return out_dir


def run_minhash_job(n_docs: int) -> dict:
    """Dedup-family scaling job: MinHash+LSH near-dup detection over the
    shared synthetic corpus (signatures -> banding -> hot-bucket count
    pass -> candidate-pair scan -> cluster fold). Measures the dedup
    pipeline only; corpus generation is cached outside the timer."""
    import ray.data

    from complexity_driven_feature_construction_ray.stages.dedup import minhash_lsh_dedup

    corpus = _write_minhash_corpus(n_docs)
    # warmup: same pipeline, tiny slice — pay the worker import storm
    # before the timer (same rationale as the backfill job)
    warm = ray.data.read_parquet(corpus).limit(20_000)
    minhash_lsh_dedup(warm, text_col="text", id_col="doc_id")

    t0 = time.perf_counter()
    ds = ray.data.read_parquet(corpus)
    clusters = minhash_lsh_dedup(ds, text_col="text", id_col="doc_id")
    elapsed = time.perf_counter() - t0
    n_dup = int(clusters["is_dup"].sum()) if len(clusters) else 0
    return {
        "rows": n_docs,
        "sec": elapsed,
        "rows_per_sec": n_docs / elapsed,
        "dup_docs": n_dup,
    }


SESSIONIZE_ROWS = 120_000_000  # ~40 events/user over 3M users: the
# entity-hash exchange (every row ships to its user's bucket) dominates
# the job, which is exactly the axis the map-heavy backfill and the
# banded minhash job don't stress. 120M rows sizes the job so the
# exchange's fixed sampling/barrier cost is amortized at the high
# parallelism level (at 20M rows that fixed cost alone halves the
# measured efficiency).

SESSIONIZE_TARGET_ROWS_PER_BLOCK = 1_000_000  # data-sized read blocks
# (~20MB): Ray's default split produced 100k-row/2MB blocks, and the
# sort exchange's cost grows with in_blocks x out_blocks fragments —
# measured 2x wall at BOTH parallelism levels vs data-sized blocks.


def _write_session_stream(n_rows: int) -> str:
    """Deterministic synthetic event stream for the shuffle-heavy
    scaling job, written ONCE to /tmp and shared by both parallelism
    levels. user_id is a splitmix64 draw over n_rows/40 users with a
    hot tier (1% of users absorb ~20% of events — enough skew to make
    the exchange realistic, not enough to turn the job into a
    single-straggler measurement); ts is uniform over a 30-day window,
    so gap-based sessionization (30-min gap) yields a real mix of
    multi-session and single-session users. Pure numpy+pyarrow in the
    parent process — generation never counts toward either timer."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from complexity_driven_feature_construction_ray.sources.token_table import _mix64

    out_dir = f"/tmp/bench_session_stream_{n_rows}"
    done = os.path.join(out_dir, "_DONE")
    if os.path.exists(done):
        return out_dir
    os.makedirs(out_dir, exist_ok=True)
    n_users = max(1000, n_rows // 40)
    hot = max(10, n_users // 100)
    chunk = 1_000_000
    for f0 in range(0, n_rows, chunk):
        ids = np.arange(f0, min(f0 + chunk, n_rows), dtype=np.uint64)
        h1 = _mix64(ids * np.uint64(3) + np.uint64(11))
        h2 = _mix64(ids * np.uint64(5) + np.uint64(29))
        # 20% of events route to the hot 1% of users
        is_hot = (h1 % np.uint64(5)) == 0
        uid = np.where(
            is_hot, h2 % np.uint64(hot), hot + h2 % np.uint64(n_users - hot)
        ).astype(np.int64)
        ts_s = (h1 % np.uint64(30 * 86400)).astype(np.int64)
        ts = (np.int64(1_704_067_200) + ts_s) * np.int64(1_000_000)  # 2024-01-01 base, us
        pq.write_table(
            pa.table(
                {
                    "user_id": pa.array(uid),
                    "ts": pa.array(ts).cast(pa.timestamp("us")),
                }
            ),
            os.path.join(out_dir, f"part_{f0:09d}.parquet"),
        )
    with open(done, "w") as fh:
        fh.write("ok")
    return out_dir


def run_sessionize_job(n_rows: int) -> dict:
    """Shuffle-heavy scaling job: gap-based sessionization of the
    shared synthetic event stream. Unlike the backfill (map-dominated)
    and minhash (banded small exchanges) jobs, EVERY row must cross the
    entity-hash exchange to meet the rest of its user's history — the
    honest worst case for N->4N scaling. Consumption folds per-batch
    (rows, session-start count) partials so the result is a verifiable
    scalar and nothing corpus-sized reaches the driver."""
    import pyarrow as pa
    import ray.data

    from complexity_driven_feature_construction_ray.stages.temporal import sessionize

    stream = _write_session_stream(n_rows)

    def consume(ds) -> tuple[int, int]:
        def part(batch: pa.Table) -> pa.Table:
            s = batch["session_idx"].to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "rows": pa.array([len(s)], type=pa.int64()),
                    "idx_sum": pa.array([int(s.sum())], type=pa.int64()),
                }
            )

        rows = idx_sum = 0
        for r in ds.map_batches(part, batch_format="pyarrow").take_all():
            rows += r["rows"]
            idx_sum += r["idx_sum"]
        return rows, idx_sum

    nb = max(16, n_rows // SESSIONIZE_TARGET_ROWS_PER_BLOCK)

    # warmup: same pipeline over a small slice — pay the worker import
    # storm and the groupby planner warm-up before the timer
    warm = ray.data.read_parquet(stream, override_num_blocks=nb).limit(100_000)
    consume(sessionize(warm, key="user_id", ts="ts", gap=1800))

    t0 = time.perf_counter()
    ds = ray.data.read_parquet(stream, override_num_blocks=nb)
    rows, idx_sum = consume(sessionize(ds, key="user_id", ts="ts", gap=1800))
    elapsed = time.perf_counter() - t0
    return {
        "rows": rows,
        "sec": elapsed,
        "rows_per_sec": rows / elapsed,
        "session_idx_sum": idx_sum,
    }


def run_scaling(
    sf_dir: str, low: int, high: int, n_rows: int | None = None, job: str = "backfill",
    reps: int = 2,
) -> dict:
    """Same job at two parallelism levels, each in a fresh process/Ray
    session; efficiency = speedup / cpu-ratio. job='backfill' is the
    flagship feature-backfill path; job='minhash' is the dedup family
    (MinHash+LSH over the shared 3M-doc synthetic corpus);
    job='sessionize' is the shuffle-heavy axis (every row crosses an
    entity-hash exchange to meet its user's history).

    Each level runs `reps` times and keeps the best throughput — the
    same variance discipline as the min-of-3 headline: a single worker
    invocation varies up to ~40% run-to-run on this sandbox (page
    cache, Ray session setup/teardown of the PREVIOUS worker still
    draining), which is noise about the host, not the engine."""
    n_rows = n_rows or {
        "minhash": MINHASH_DOCS,
        "sessionize": SESSIONIZE_ROWS,
    }.get(job, SCALING_ROWS)
    if job == "minhash":
        _write_minhash_corpus(n_rows)  # generate once, outside both timers
    elif job == "sessionize":
        _write_session_stream(n_rows)  # generate once, outside both timers
    results = {}
    for cpus in (low, high):
        env = dict(os.environ, RAY_GRAFT_CPUS=str(cpus))
        best = None
        for _ in range(reps):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--job", job,
                 "--rows", str(n_rows)],
                capture_output=True,
                text=True,
                env=env,
                cwd=REPO,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise RuntimeError(f"scaling worker (cpus={cpus}) failed")
            rep = json.loads(proc.stdout.strip().splitlines()[-1])
            if best is None or rep["rows_per_sec"] > best["rows_per_sec"]:
                best = rep
        results[cpus] = best
    # both parallelism levels must compute the IDENTICAL answer, or the
    # speedup is meaningless
    for k in ("session_idx_sum", "dup_docs"):
        if results[low].get(k) != results[high].get(k):
            raise RuntimeError(
                f"{job} checksum {k} differs: {results[low].get(k)} at "
                f"{low} CPUs vs {results[high].get(k)} at {high} CPUs"
            )
    ratio = high / low
    speedup = results[high]["rows_per_sec"] / results[low]["rows_per_sec"]
    return {
        "metric": f"{job} N->4N scaling (fresh ray sessions)",
        "value": round(speedup / ratio, 3),
        "unit": "efficiency",
        "job": job,
        "sf": sf_dir.rstrip("/").split("/")[-1],
        "rows": n_rows,
        "low_cpus": low,
        "high_cpus": high,
        "low_rows_per_sec": round(results[low]["rows_per_sec"], 1),
        "high_rows_per_sec": round(results[high]["rows_per_sec"], 1),
        "speedup": round(speedup, 3),
        "scaling_efficiency": round(speedup / ratio, 3),
        # result checksums at each level (checked equal above)
        **{
            f"{lvl}_{k}": results[c][k]
            for lvl, c in (("low", low), ("high", high))
            for k in ("session_idx_sum", "dup_docs")
            if k in results[c]
        },
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scaling", action="store_true")
    ap.add_argument(
        "--smoke",
        action="store_true",
        help="run the ~40-query representative tier instead of the full headline set",
    )
    ap.add_argument(
        "--all",
        action="store_true",
        dest="all_queries",
        help=(
            "time EVERY queries() entry (669) instead of the 349-query "
            "headline list — the one-off whole-registry perf artifact; "
            "the driver-run default stays 'full' so cross-round "
            "comparison is unaffected"
        ),
    )
    ap.add_argument("--job", choices=["backfill", "minhash", "sessionize"], default=None)
    ap.add_argument(
        "--scaling-job",
        choices=["backfill", "minhash", "sessionize"],
        default="backfill",
        help="which job --scaling measures at both parallelism levels",
    )
    ap.add_argument("--rows", type=int, default=None)
    ap.add_argument("--sf-dir", default=DEFAULT_SF_DIR)
    # N vs 4N parallelism levels. Default 2->8, not 8->32: a raw
    # per-process fixed-work microbenchmark on this sandbox shows flat
    # wall time from 1->8 procs but 1.38x / 1.6x degradation at 16 / 32
    # procs (the VM's 32 vCPUs are ~16-20 effective cores), so 8->32
    # cannot physically show 4x regardless of the engine. 2->8 sits in
    # the flat region and measures the engine, not the host.
    ap.add_argument("--low-cpus", type=int, default=2)
    ap.add_argument("--high-cpus", type=int, default=8)
    args = ap.parse_args()

    import ray

    if args.job == "backfill":
        _init_ray(DEFAULT_CPUS)
        out = run_backfill_job(args.rows or _backfill_rows(args.sf_dir))
    elif args.job == "minhash":
        _init_ray(DEFAULT_CPUS)
        out = run_minhash_job(args.rows or MINHASH_DOCS)
    elif args.job == "sessionize":
        _init_ray(DEFAULT_CPUS)
        out = run_sessionize_job(args.rows or SESSIONIZE_ROWS)
    elif args.scaling:
        out = run_scaling(
            args.sf_dir, args.low_cpus, args.high_cpus, args.rows, job=args.scaling_job
        )
    else:
        _init_ray(DEFAULT_CPUS)
        tier = "smoke" if args.smoke else ("all" if args.all_queries else "full")
        out = run_headline(args.sf_dir, DEFAULT_CPUS, tier=tier)

    print(json.dumps(out))
    if ray.is_initialized():
        ray.shutdown()


if __name__ == "__main__":
    main()
