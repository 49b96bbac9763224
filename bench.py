"""Benchmark harness: headline rollup throughput + per-query timings.

Plain run: one JSON line
    {"metric": "rollup_throughput", "value": <headline seconds>,
     "unit": "sec", "queries": {...}, "sf": ..., "num_cpus": N,
     "turns": T, "turns_per_sec": ...}

``--scaling``: runs the headline pipeline in two fresh processes at
num_cpus=N and 4N (default 2 and 8 — the 1-cpu leg is the
documented-erratic one on this VM; SCALE_N overrides) on the same input
and reports both throughputs, the efficiency = (t_N/t_4N)/4, and the
same-run kernel-only multiprocessing ceiling (BASELINE.md protocol).

Input: a deterministic synthetic transcript table (input_hint schema),
generated once under /tmp and reused; sized by $GRAFT_SF_DIR's scale
factor so the 8-cpu run is long enough to amortize startup.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

BENCH_SEED = 424242


def sf_of(sf_dir: str) -> float:
    base = os.path.basename(sf_dir.rstrip("/"))
    return float(base.replace("sf", "")) if base.startswith("sf") else 0.1


def bench_input(sf: float) -> str:
    """Synth transcript parquet sized by sf (cached under /tmp).

    Sized so the small-cpu scaling leg is compute-bound (~70M turns/sf-unit:
    sf0.1 -> ~7M turns), per the BASELINE.md protocol."""
    from light_curve_feature_ray.sources.synth import synth_transcripts_parquet

    n_convs = max(50, int(30_000 * sf / 0.1))
    path = f"/tmp/lcf_ray_bench/synth_sf{sf}"
    return synth_transcripts_parquet(
        path,
        shards=64,
        n_convs=n_convs,
        mean_turns=220,
        hot_convs=max(1, n_convs // 2000),
        hot_turns=30_000,
        seed=BENCH_SEED,
        mean_dt_seconds=40.0,
    )


def run_bench(sf_dir: str, num_cpus: int) -> dict:
    import ray

    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    import ray.data as rd

    from light_curve_feature_ray.pipelines.rollup import (
        read_transcripts,
        rollup_dataset,
    )
    from light_curve_feature_ray.stages.rollup import RollupConfig

    sf = sf_of(sf_dir)
    path = bench_input(sf)
    # the headline reads the path's input units (row-group ranges), one
    # map task each; the Dataset legs read 4 blocks/cpu, one map task per
    # block. Either map task derives, packs and splits its rows for the
    # routed exchange; the reduce side runs one task per partition (P below)
    num_blocks = 4 * num_cpus
    # warm the page cache so we measure compute + shuffle, not first read
    turns = read_transcripts(path).count()

    # warm the worker pool: fresh Ray workers pay import + first-touch page
    # fault costs once per process; a small untimed rollup absorbs them
    warm_cfg = RollupConfig(
        num_partitions=max(4 * num_cpus, 32), hot_threshold=None, store_points=True
    )
    rollup_dataset(
        read_transcripts(path, num_blocks=num_blocks).limit(400_000), warm_cfg
    ).count()

    # hot-conv set: a slowly-changing data-distribution property, computed
    # untimed here (production refreshes it periodically, not per job)
    from light_curve_feature_ray.pipelines.rollup import input_units
    from light_curve_feature_ray.stages.rollup import detect_hot_convs

    hot_list = detect_hot_convs(input_units(path), 20_000)

    timings: dict[str, float] = {}

    # ---- headline: full three-tier rollup, headline features + gorilla ----
    # P=192 at every leg: many more reduce tasks than CPUs smooth the
    # straggler tail, and a fixed P keeps the scaling legs' work
    # byte-identical
    cfg = RollupConfig(
        num_partitions=192,
        hot_threshold=20_000,
        gap_fill="linear",
        store_points=True,
    )
    # two timed repeats, report the min (this sandbox VM has 30-40%
    # run-to-run noise; min is the standard de-noised estimator)
    headline = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        out = rollup_dataset(path, cfg, hot_list=hot_list)
        rows = out.count()
        headline = min(headline, time.perf_counter() - t0)
    timings["rollup_full"] = round(headline, 3)

    # ---- secondary queries (same input scale); skipped in scaling legs
    # (the scaling metric is the headline pipeline only) ----
    skip_secondary = os.environ.get("BENCH_HEADLINE_ONLY") == "1"
    if skip_secondary:
        result = {
            "metric": "rollup_throughput",
            "value": round(headline, 3),
            "unit": "sec",
            "queries": timings,
            "sf": sf,
            "num_cpus": num_cpus,
            "turns": turns,
            "tier_rows": rows,
            "turns_per_sec": round(turns / headline, 1),
        }
        ray.shutdown()
        return result

    t0 = time.perf_counter()
    cfg2 = RollupConfig(
        features=("observation_count", "mean", "standard_deviation", "amplitude"),
        num_partitions=max(4 * num_cpus, 32),
        hot_threshold=None,
        store_points=False,
        gap_fill="none",
    )
    rollup_dataset(read_transcripts(path, num_blocks=num_blocks), cfg2).count()
    timings["rollup_light"] = round(time.perf_counter() - t0, 3)

    from light_curve_feature_ray.pipelines.turns import clean_turns

    t0 = time.perf_counter()
    # P=64, as in the routed-exchange A/B (BASELINE.md "One exchange
    # for text too")
    clean_turns(read_transcripts(path, for_rollup=False), 64).count()
    timings["turns_clean"] = round(time.perf_counter() - t0, 3)

    from light_curve_feature_ray.pipelines.aggregates import group_collect

    t0 = time.perf_counter()
    group_collect(
        read_transcripts(path, for_rollup=False).map_batches(
            lambda b: b.select(["conv_id", "turn_idx", "text"]),
            batch_format="pyarrow",
        ),
        key_col="conv_id",
        order_cols=("turn_idx",),
        value_col="text",
    ).count()
    timings["turns_assemble"] = round(time.perf_counter() - t0, 3)

    # ---- incremental update (job level): fold a ~0.1%-of-convs suffix
    # delta into an on-disk checkpointed store; only the partitions that
    # contain affected conversations are read beyond their conv_id column
    # or rewritten, so update_time << rollup_full is the whole point ----
    import shutil

    import pyarrow.compute as _pc
    import pyarrow.parquet as _pq

    from light_curve_feature_ray.pipelines.update import update_rollup_job
    from light_curve_feature_ray.state.checkpoint import run_rollup_job

    def _is_delta(b):
        return _pc.and_(
            _pc.ends_with(b["conv_id"], "000"), _pc.greater(b["turn_idx"], 1)
        )

    upd_base = f"/tmp/lcf_ray_bench/upd_sf{sf}"
    old_path = f"{upd_base}/old.parquet"
    delta_path = f"{upd_base}/delta.parquet"
    if not os.path.exists(delta_path):
        os.makedirs(upd_base, exist_ok=True)
        base = _pq.read_table(path)
        mask = _is_delta(base)
        _pq.write_table(base.filter(_pc.invert(mask)), old_path + ".tmp")
        os.replace(old_path + ".tmp", old_path)
        _pq.write_table(base.filter(mask), delta_path + ".tmp")
        os.replace(delta_path + ".tmp", delta_path)
        del base
    store_dir = f"{upd_base}/store"
    shutil.rmtree(store_dir, ignore_errors=True)  # fresh store: the update
    t0 = time.perf_counter()                      # is idempotent per delta
    run_rollup_job(old_path, store_dir, cfg)
    # the FAIR baseline for the update: a full checkpointed job, parquet
    # writes included (rollup_full above is the compute pipeline only)
    timings["rollup_job_full"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()
    upd_res = update_rollup_job(store_dir, delta_path)
    timings["rollup_update_delta"] = round(time.perf_counter() - t0, 3)
    timings["rollup_update_untouched_parts"] = len(
        upd_res["partitions_untouched"]
    )

    # documents ops at the given sf testdata (small side ops)
    docs_path = f"{sf_dir}/documents.parquet"
    if os.path.exists(docs_path):
        from light_curve_feature_ray.pipelines.text import (
            exact_dedup,
            minhash_lsh_dups,
            text_stats,
        )

        docs = rd.read_parquet(docs_path, columns=["doc_id", "text"])
        t0 = time.perf_counter()
        text_stats(docs).count()
        timings["doc_text_stats"] = round(time.perf_counter() - t0, 3)
        t0 = time.perf_counter()
        exact_dedup(docs).count()
        timings["doc_exact_dedup"] = round(time.perf_counter() - t0, 3)
        t0 = time.perf_counter()
        minhash_lsh_dups(docs, threshold=0.5).count()
        timings["doc_minhash_dups"] = round(time.perf_counter() - t0, 3)

        from light_curve_feature_ray.pipelines.text import edit_distance_dups

        t0 = time.perf_counter()
        edit_distance_dups(docs, max_dist=24, prefix_chars=64).count()
        timings["doc_editdist_dups"] = round(time.perf_counter() - t0, 3)

        from light_curve_feature_ray.pipelines.text import (
            bm25_top_terms,
            tfidf_top_terms,
            top_terms,
        )

        t0 = time.perf_counter()
        top_terms(docs, k=20).count()
        timings["doc_top_terms"] = round(time.perf_counter() - t0, 3)
        t0 = time.perf_counter()
        tfidf_top_terms(docs, k=3).count()
        timings["doc_tfidf"] = round(time.perf_counter() - t0, 3)
        t0 = time.perf_counter()
        bm25_top_terms(docs, k=3).count()
        timings["doc_bm25"] = round(time.perf_counter() - t0, 3)

        from light_curve_feature_ray.pipelines.text import bm25_search

        t0 = time.perf_counter()
        bm25_search(docs, "table scan merge", top_n=20).count()
        timings["doc_bm25_search"] = round(time.perf_counter() - t0, 3)

        from light_curve_feature_ray.pipelines.text import (
            lm_score,
            repetition_stats,
        )

        t0 = time.perf_counter()
        repetition_stats(docs).count()
        timings["doc_repetition"] = round(time.perf_counter() - t0, 3)
        t0 = time.perf_counter()
        lm_score(docs).count()
        timings["doc_lm_score"] = round(time.perf_counter() - t0, 3)

        from light_curve_feature_ray.pipelines.text import dsir_weights

        docs_lang = rd.read_parquet(
            docs_path, columns=["doc_id", "text", "lang"]
        )
        t0 = time.perf_counter()
        dsir_weights(docs_lang, target_col="lang", target_value="en").count()
        timings["doc_dsir_weights"] = round(time.perf_counter() - t0, 3)

        from light_curve_feature_ray.pipelines.text import (
            char_entropy,
            pmi_bigrams,
        )

        t0 = time.perf_counter()
        pmi_bigrams(rd.read_parquet(docs_path, columns=["text"])).count()
        timings["doc_pmi_bigrams"] = round(time.perf_counter() - t0, 3)
        t0 = time.perf_counter()
        char_entropy(docs).count()
        timings["doc_char_entropy"] = round(time.perf_counter() - t0, 3)

        from light_curve_feature_ray.pipelines.text import line_dedup

        t0 = time.perf_counter()
        line_dedup(
            rd.read_parquet(docs_path, columns=["doc_id", "text"]),
            line_tokens=10,
            min_docs=2,
        ).count()
        timings["doc_line_dedup"] = round(time.perf_counter() - t0, 3)

        from light_curve_feature_ray.pipelines.text import keyword_hits

        t0 = time.perf_counter()
        keyword_hits(
            rd.read_parquet(docs_path, columns=["doc_id", "text"]),
            keywords=["spark", "hash join", "window"],
        ).count()
        timings["doc_keyword_hits"] = round(time.perf_counter() - t0, 3)

    events_path = f"{sf_dir}/events.parquet"
    if os.path.exists(events_path):
        from light_curve_feature_ray.pipelines.windows import (
            sliding_window_agg,
            tumbling_window_agg,
        )

        events = rd.read_parquet(
            events_path, columns=["user_id", "ts", "value"]
        )
        t0 = time.perf_counter()
        tumbling_window_agg(events).count()
        timings["events_tumbling_window"] = round(time.perf_counter() - t0, 3)
        t0 = time.perf_counter()
        sliding_window_agg(events).count()
        timings["events_sliding_window"] = round(time.perf_counter() - t0, 3)

        from light_curve_feature_ray.pipelines.quantiles import (
            approx_quantile_hist,
            quantile_cont,
        )

        ev_vals = rd.read_parquet(events_path, columns=["value"])
        t0 = time.perf_counter()
        quantile_cont(
            ev_vals, "value", (0.01, 0.25, 0.5, 0.75, 0.9, 0.99),
            max_candidates=4096,
        )
        timings["events_value_quantiles"] = round(time.perf_counter() - t0, 3)
        t0 = time.perf_counter()
        approx_quantile_hist(
            ev_vals, "value", (0.01, 0.25, 0.5, 0.75, 0.9, 0.99), bins=1024
        )
        timings["events_approx_quantiles"] = round(time.perf_counter() - t0, 3)

        from light_curve_feature_ray.pipelines.windows import rolling_agg

        ev_roll = rd.read_parquet(
            events_path, columns=["event_id", "user_id", "ts", "value"]
        )
        t0 = time.perf_counter()
        rolling_agg(ev_roll, k=5).count()
        timings["events_rolling"] = round(time.perf_counter() - t0, 3)

        from light_curve_feature_ray.pipelines.windows import ewma

        t0 = time.perf_counter()
        ewma(ev_roll).count()
        timings["events_ewma"] = round(time.perf_counter() - t0, 3)

        from light_curve_feature_ray.pipelines.quantiles import (
            mad_outliers,
            winsorize,
        )
        from light_curve_feature_ray.pipelines.sketches import heavy_hitters

        ev_users = rd.read_parquet(events_path, columns=["user_id"])
        t0 = time.perf_counter()
        heavy_hitters(ev_users, "user_id", min_frac=0.008).count()
        timings["events_heavy_users"] = round(time.perf_counter() - t0, 3)
        ev_win = rd.read_parquet(events_path, columns=["event_id", "value"])
        t0 = time.perf_counter()
        winsorize(ev_win, "value").count()
        timings["events_winsorized"] = round(time.perf_counter() - t0, 3)
        ev_mad = rd.read_parquet(
            events_path, columns=["event_id", "user_id", "value"]
        )
        t0 = time.perf_counter()
        mad_outliers(ev_mad, "user_id", "value", thresh=2.5).count()
        timings["events_mad_outliers"] = round(time.perf_counter() - t0, 3)

        from light_curve_feature_ray.pipelines.aggregates import group_mode

        ev_mode = rd.read_parquet(
            events_path, columns=["user_id", "event_type"]
        )
        t0 = time.perf_counter()
        group_mode(ev_mode).count()
        timings["events_mode"] = round(time.perf_counter() - t0, 3)

        from light_curve_feature_ray.pipelines.aggregates import (
            group_top_k,
            retention_cohorts,
        )
        from light_curve_feature_ray.pipelines.scan import percent_rank_rows
        from light_curve_feature_ray.pipelines.windows import (
            event_transitions,
            funnel_steps,
        )

        t0 = time.perf_counter()
        retention_cohorts(
            rd.read_parquet(events_path, columns=["user_id", "ts"])
        ).count()
        timings["events_retention"] = round(time.perf_counter() - t0, 3)
        t0 = time.perf_counter()
        group_top_k(ev_mode, k=2).count()
        timings["events_top_types"] = round(time.perf_counter() - t0, 3)
        t0 = time.perf_counter()
        percent_rank_rows(
            ev_win, order_cols=["value"], id_col="event_id"
        ).count()
        timings["events_percent_rank"] = round(time.perf_counter() - t0, 3)
        ev_seq = rd.read_parquet(
            events_path, columns=["event_id", "user_id", "ts", "event_type"]
        )
        t0 = time.perf_counter()
        event_transitions(ev_seq).count()
        timings["events_transitions"] = round(time.perf_counter() - t0, 3)
        t0 = time.perf_counter()
        funnel_steps(ev_seq, steps=("view", "click", "purchase")).count()
        timings["events_funnel"] = round(time.perf_counter() - t0, 3)

        from light_curve_feature_ray.pipelines.windows import (
            interval_coverage,
            throttle,
        )

        t0 = time.perf_counter()
        interval_coverage(
            rd.read_parquet(events_path, columns=["user_id", "ts", "value"])
        ).count()
        timings["events_coverage"] = round(time.perf_counter() - t0, 3)
        t0 = time.perf_counter()
        throttle(
            rd.read_parquet(
                events_path,
                columns=["event_id", "user_id", "event_type", "ts", "value"],
            )
        ).count()
        timings["events_throttle"] = round(time.perf_counter() - t0, 3)

        from light_curve_feature_ray.pipelines.scan import zorder_key

        t0 = time.perf_counter()
        zorder_key(
            rd.read_parquet(
                events_path, columns=["event_id", "user_id", "value"]
            )
        ).count()
        timings["events_zorder"] = round(time.perf_counter() - t0, 3)

        from light_curve_feature_ray.pipelines.quantiles import ks_drift

        t0 = time.perf_counter()
        ks_drift(
            rd.read_parquet(
                events_path, columns=["event_id", "event_type", "value"]
            )
        ).count()
        timings["events_ks_drift"] = round(time.perf_counter() - t0, 3)

        from light_curve_feature_ray.pipelines.aggregates import welch_t_ab

        t0 = time.perf_counter()
        welch_t_ab(
            rd.read_parquet(
                events_path, columns=["event_id", "event_type", "value"]
            )
        ).count()
        timings["events_welch_ab"] = round(time.perf_counter() - t0, 3)

        from light_curve_feature_ray.pipelines.windows import (
            event_path_ngrams,
            rolling_median,
        )

        t0 = time.perf_counter()
        rolling_median(
            rd.read_parquet(
                events_path,
                columns=["event_id", "user_id", "ts", "value"],
            ),
            k=5,
        ).count()
        timings["events_rolling_median"] = round(time.perf_counter() - t0, 3)
        t0 = time.perf_counter()
        event_path_ngrams(
            rd.read_parquet(
                events_path,
                columns=["event_id", "user_id", "ts", "event_type"],
            ),
            n=3,
            top=40,
        ).count()
        timings["events_paths"] = round(time.perf_counter() - t0, 3)

        from light_curve_feature_ray.pipelines.windows import lag_autocorr
        from light_curve_feature_ray.pipelines.aggregates import (
            target_encode,
        )

        t0 = time.perf_counter()
        lag_autocorr(
            rd.read_parquet(
                events_path,
                columns=["event_id", "user_id", "ts", "value"],
            ),
            lag=1,
        ).count()
        timings["events_autocorr"] = round(time.perf_counter() - t0, 3)
        t0 = time.perf_counter()
        target_encode(
            rd.read_parquet(
                events_path, columns=["event_id", "event_type", "value"]
            )
        ).count()
        timings["events_target_encode"] = round(time.perf_counter() - t0, 3)

        from light_curve_feature_ray.pipelines.quality import (
            validate_constraints,
        )

        t0 = time.perf_counter()
        validate_constraints(
            rd.read_parquet(
                events_path,
                columns=["event_id", "user_id", "event_type", "value"],
            ),
            rules=[
                {"name": "u_nn", "kind": "not_null", "col": "user_id"},
                {
                    "name": "v_range",
                    "kind": "range",
                    "col": "value",
                    "lo": 0.0,
                    "hi": 100.0,
                },
                {"name": "id_uq", "kind": "unique", "col": "event_id"},
            ],
        ).count()
        timings["events_validate"] = round(time.perf_counter() - t0, 3)

        from light_curve_feature_ray.pipelines.windows import (
            changepoint_single,
        )

        t0 = time.perf_counter()
        changepoint_single(
            rd.read_parquet(
                events_path,
                columns=["event_id", "user_id", "ts", "value"],
            ),
            min_n=4,
        ).count()
        timings["events_changepoint"] = round(time.perf_counter() - t0, 3)

        from light_curve_feature_ray.pipelines.quantiles import (
            grouped_histogram,
        )
        from light_curve_feature_ray.pipelines.aggregates import (
            audience_overlap,
        )

        t0 = time.perf_counter()
        grouped_histogram(
            rd.read_parquet(events_path, columns=["event_type", "value"]),
            "event_type",
            "value",
            bins=24,
        ).count()
        timings["events_type_histogram"] = round(time.perf_counter() - t0, 3)
        t0 = time.perf_counter()
        audience_overlap(
            rd.read_parquet(events_path, columns=["user_id", "event_type"])
        ).count()
        timings["events_audience_overlap"] = round(
            time.perf_counter() - t0, 3
        )

        from light_curve_feature_ray.pipelines.aggregates import (
            first_event_latency,
        )
        from light_curve_feature_ray.pipelines.quantiles import (
            grouped_trimmed_mean,
        )

        t0 = time.perf_counter()
        first_event_latency(
            rd.read_parquet(
                events_path, columns=["user_id", "event_type", "ts"]
            )
        ).count()
        timings["events_conversion_latency"] = round(
            time.perf_counter() - t0, 3
        )
        t0 = time.perf_counter()
        grouped_trimmed_mean(
            rd.read_parquet(events_path, columns=["event_type", "value"]),
            "event_type",
            "value",
        ).count()
        timings["events_trimmed_mean"] = round(time.perf_counter() - t0, 3)

        from light_curve_feature_ray.pipelines.windows import (
            key_lag_deltas,
            time_weighted_avg,
        )

        t0 = time.perf_counter()
        time_weighted_avg(
            rd.read_parquet(
                events_path, columns=["event_id", "user_id", "ts", "value"]
            )
        ).count()
        timings["events_twa"] = round(time.perf_counter() - t0, 3)
        t0 = time.perf_counter()
        key_lag_deltas(
            rd.read_parquet(
                events_path, columns=["event_id", "user_id", "ts", "value"]
            )
        ).count()
        timings["events_lag_deltas"] = round(time.perf_counter() - t0, 3)

        from light_curve_feature_ray.pipelines.aggregates import (
            group_entropy,
        )
        from light_curve_feature_ray.pipelines.quantiles import (
            grouped_quantile_disc,
        )

        t0 = time.perf_counter()
        group_entropy(
            rd.read_parquet(
                events_path, columns=["user_id", "event_type"]
            )
        ).count()
        timings["events_entropy"] = round(time.perf_counter() - t0, 3)
        t0 = time.perf_counter()
        grouped_quantile_disc(
            rd.read_parquet(events_path, columns=["event_type", "value"]),
            "event_type",
            "value",
            (0.01, 0.25, 0.5, 0.75, 0.9, 0.99),
        ).count()
        timings["events_disc_quantiles"] = round(
            time.perf_counter() - t0, 3
        )

        from light_curve_feature_ray.pipelines.windows import (
            windowed_count_distinct,
        )

        t0 = time.perf_counter()
        windowed_count_distinct(
            rd.read_parquet(
                events_path, columns=["event_type", "ts", "user_id"]
            ),
            window_s=3600,
        ).count()
        timings["events_windowed_distinct"] = round(
            time.perf_counter() - t0, 3
        )

        from light_curve_feature_ray.pipelines.windows import gap_report

        t0 = time.perf_counter()
        gap_report(
            rd.read_parquet(events_path, columns=["user_id", "ts"]),
            slot_s=60,
        ).count()
        timings["events_gap_report"] = round(time.perf_counter() - t0, 3)

        from light_curve_feature_ray.pipelines.quality import profile_table

        t0 = time.perf_counter()
        profile_table(
            rd.read_parquet(
                events_path,
                columns=["event_id", "user_id", "value", "event_type"],
            ),
            columns=["event_id", "user_id", "value", "event_type"],
        ).count()
        timings["events_profile"] = round(time.perf_counter() - t0, 3)

        from light_curve_feature_ray.pipelines.quantiles import (
            grouped_approx_quantiles,
        )

        t0 = time.perf_counter()
        grouped_approx_quantiles(
            rd.read_parquet(events_path, columns=["event_type", "value"]),
            "event_type",
            "value",
            (0.01, 0.25, 0.5, 0.75, 0.9, 0.99),
        ).count()
        timings["events_grouped_approx"] = round(
            time.perf_counter() - t0, 3
        )

        from light_curve_feature_ray.pipelines.windows import (
            resample_time_grid,
        )

        t0 = time.perf_counter()
        resample_time_grid(
            rd.read_parquet(
                events_path,
                columns=["event_id", "user_id", "ts", "value"],
            ),
            step_s=21600,
        ).count()
        timings["events_resample"] = round(time.perf_counter() - t0, 3)

    if os.path.exists(docs_path):
        from light_curve_feature_ray.pipelines.scan import (
            pack_sequences,
            shuffle_rank,
        )

        t0 = time.perf_counter()
        pack_sequences(docs, budget=512).count()
        timings["doc_pack"] = round(time.perf_counter() - t0, 3)
        t0 = time.perf_counter()
        shuffle_rank(
            rd.read_parquet(docs_path, columns=["doc_id"]), seed=7
        ).count()
        timings["doc_shuffle"] = round(time.perf_counter() - t0, 3)

        # connected-components dedup over exact n-gram Jaccard pairs
        # (the heaviest doc-family graph op; mirrors q_doc_dedup_groups)
        from light_curve_feature_ray.pipelines.graph import (
            dedup_keep_representatives,
        )
        from light_curve_feature_ray.pipelines.text import ngram_jaccard_dups

        t0 = time.perf_counter()
        dedup_keep_representatives(
            ngram_jaccard_dups(docs, k=5, threshold=0.3, max_df=100)
        ).count()
        timings["doc_dedup_groups"] = round(time.perf_counter() - t0, 3)

        from light_curve_feature_ray.pipelines.graph import triangle_counts

        t0 = time.perf_counter()
        triangle_counts(
            ngram_jaccard_dups(docs, k=5, threshold=0.3, max_df=100)
        ).count()
        timings["doc_triangles"] = round(time.perf_counter() - t0, 3)

        from light_curve_feature_ray.pipelines.graph import (
            pagerank_undirected,
        )

        t0 = time.perf_counter()
        pagerank_undirected(
            ngram_jaccard_dups(docs, k=5, threshold=0.3, max_df=100)
        ).count()
        timings["doc_pagerank"] = round(time.perf_counter() - t0, 3)

        from light_curve_feature_ray.pipelines.text import (
            ngram_containment_dups,
        )

        t0 = time.perf_counter()
        ngram_containment_dups(
            docs, k=5, threshold=0.6, max_df=100
        ).count()
        timings["doc_containment"] = round(time.perf_counter() - t0, 3)

        from light_curve_feature_ray.pipelines.joins import table_diff

        t0 = time.perf_counter()
        base = rd.read_parquet(
            docs_path, columns=["doc_id", "n_chars"]
        )
        table_diff(
            base.map_batches(
                lambda b: b[b["doc_id"] % 7 != 0],
                batch_format="pandas",
                batch_size=None,
            ),
            base.map_batches(
                lambda b: b[b["doc_id"] % 5 != 0],
                batch_format="pandas",
                batch_size=None,
            ),
            key_col="doc_id",
            compare_cols=["n_chars"],
        ).count()
        timings["doc_diff"] = round(time.perf_counter() - t0, 3)

    emb_path = f"{sf_dir}/embeddings.parquet"
    if os.path.exists(emb_path):
        from light_curve_feature_ray.pipelines.similarity import (
            embedding_cosine_dups,
            ivf_knn_cosine,
            knn_cosine,
            lsh_knn_cosine,
        )

        emb = rd.read_parquet(emb_path, columns=["vec_id", "embedding"])
        t0 = time.perf_counter()
        knn_cosine(emb, n_queries=5, k=10).count()
        timings["knn_cosine"] = round(time.perf_counter() - t0, 3)
        t0 = time.perf_counter()
        lsh_knn_cosine(emb, n_queries=5, k=10).count()
        timings["knn_lsh"] = round(time.perf_counter() - t0, 3)
        t0 = time.perf_counter()
        ivf_knn_cosine(emb, n_queries=5, k=10).count()
        timings["knn_ivf"] = round(time.perf_counter() - t0, 3)
        t0 = time.perf_counter()
        embedding_cosine_dups(emb, threshold=0.45).count()
        timings["emb_cosine_dups"] = round(time.perf_counter() - t0, 3)

        from light_curve_feature_ray.pipelines.similarity import (
            semantic_dedup,
        )

        t0 = time.perf_counter()
        semantic_dedup(emb, threshold=0.8).count()
        timings["emb_semantic_dedup"] = round(time.perf_counter() - t0, 3)

        from light_curve_feature_ray.pipelines.similarity import (
            kcenter_sample,
        )

        t0 = time.perf_counter()
        kcenter_sample(emb, k=16).count()
        timings["emb_kcenter_sample"] = round(time.perf_counter() - t0, 3)

    li_path = f"{sf_dir}/lineitem.parquet"
    if os.path.exists(li_path) and os.path.exists(f"{sf_dir}/orders.parquet"):
        li = rd.read_parquet(
            li_path, columns=["l_orderkey", "l_linenumber", "l_extendedprice"]
        )
        od = rd.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderkey", "o_orderstatus", "o_totalprice"],
        )
        t0 = time.perf_counter()
        li.join(
            od, "inner", 32, on=("l_orderkey",), right_on=("o_orderkey",)
        ).count()
        timings["lineitem_orders_join"] = round(time.perf_counter() - t0, 3)

    result = {
        "metric": "rollup_throughput",
        "value": round(headline, 3),
        "unit": "sec",
        "queries": timings,
        "sf": sf,
        "num_cpus": num_cpus,
        "turns": turns,
        "tier_rows": rows,
        "turns_per_sec": round(turns / headline, 1),
    }
    ray.shutdown()
    return result


def _ceiling_worker(args):
    """One partition through the exact RollupWorker kernel (no Ray)."""
    import time as _t

    import pyarrow as pa

    cfg_dict, blob = args
    from light_curve_feature_ray.stages.rollup import (
        RollupConfig,
        RollupWorker,
    )

    cfg = RollupConfig(**cfg_dict)
    table = pa.ipc.open_stream(blob).read_all()
    t0 = _t.perf_counter()
    RollupWorker(cfg)(table)
    return _t.perf_counter() - t0


def kernel_ceiling(sf: float, n_lo: int, n_hi: int) -> dict:
    """Hardware-ceiling probe: the exact worker kernel via plain
    multiprocessing (no Ray, no shuffle) at both parallelism levels on
    pre-partitioned data. This bounds what ANY pipeline built on this
    kernel can achieve on this machine; the scaling JSON reports the
    pipeline's efficiency alongside it so the number is interpretable."""
    import multiprocessing as mp

    import pyarrow as pa
    import pyarrow.compute as pc

    from light_curve_feature_ray.sources.synth import synth_transcripts_table
    from light_curve_feature_ray.stages.rollup import (
        DeriveAssign,
        RollupConfig,
    )

    n_convs = max(50, int(4_000 * sf / 0.1))
    tbl = synth_transcripts_table(
        n_convs=n_convs, mean_turns=220, hot_convs=max(1, n_convs // 2000),
        hot_turns=30_000, seed=BENCH_SEED,
    )
    nparts = 4 * n_hi
    cfg = RollupConfig(
        num_partitions=nparts, hot_threshold=None, gap_fill="linear",
        store_points=True,
    )
    derived = DeriveAssign(cfg)(tbl)
    blobs = []
    for p in range(nparts):
        sub = derived.filter(pc.equal(derived["part"], p))
        sink = pa.BufferOutputStream()
        with pa.ipc.new_stream(sink, sub.schema) as w:
            w.write_table(sub)
        blobs.append(sink.getvalue().to_pybytes())
    cfg_dict = dict(
        features=cfg.features, num_partitions=nparts, hot_threshold=None,
        gap_fill="linear", store_points=True,
    )
    jobs = [(cfg_dict, b) for b in blobs]
    out = {}
    for k in (n_lo, n_hi):
        with mp.Pool(k) as pool:
            pool.map(_ceiling_worker, jobs)  # warm (page faults, imports)
            t0 = time.perf_counter()
            pool.map(_ceiling_worker, jobs)
            out[k] = time.perf_counter() - t0
    return {
        "kernel_sec_lo": round(out[n_lo], 3),
        "kernel_sec_hi": round(out[n_hi], 3),
        "kernel_ceiling_eff": round(
            (out[n_lo] / out[n_hi]) / (n_hi / n_lo), 3
        ),
    }


def run_subprocess(sf_dir: str, ncpu: int) -> dict:
    env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), BENCH_HEADLINE_ONLY="1")
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        cwd=os.path.dirname(os.path.abspath(__file__)),
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    if "--scaling" in sys.argv:
        # N -> 4N cpus in fresh processes on the same input. This sandbox's
        # 32 vCPUs share ~8 physical cores' worth of memory bandwidth
        # (measured: 8->32 parallel numpy scales only 1.6x), so the honest
        # linear window is 2 -> 8; see BASELINE.md.
        n_lo = int(os.environ.get("SCALE_N", "2"))
        n_hi = 4 * n_lo
        repeats = int(os.environ.get("SCALE_REPEATS", "3"))
        # alternate legs and take per-leg minima: this sandbox VM drifts
        # 2-4x BETWEEN processes (page-cache / plasma / reclaim state), so
        # a single pair of runs measures machine state, not scaling
        lo_runs, hi_runs = [], []
        for _ in range(repeats):
            lo_runs.append(run_subprocess(sf_dir, n_lo))
            hi_runs.append(run_subprocess(sf_dir, n_hi))
        lo = min(lo_runs, key=lambda r: r["value"])
        hi = min(hi_runs, key=lambda r: r["value"])
        eff = (lo["value"] / hi["value"]) / (n_hi / n_lo)
        # hardware-ceiling probe: what the kernel alone scales to on this
        # machine (documents the VM's shared-memory-bandwidth wall; see
        # BASELINE.md "Scaling-measurement caveat")
        ceiling = kernel_ceiling(lo["sf"], n_lo, n_hi)
        rec = {
            "metric": "scaling_efficiency",
            "value": round(eff, 3),
            "unit": "ratio",
            "num_cpus_lo": n_lo,
            "num_cpus_hi": n_hi,
            "sec_lo": lo["value"],
            "sec_hi": hi["value"],
            "turns_per_sec_lo": lo["turns_per_sec"],
            "turns_per_sec_hi": hi["turns_per_sec"],
            "sf": lo["sf"],
            **ceiling,
        }
        if ceiling["kernel_ceiling_eff"] > 0:
            rec["pipeline_vs_ceiling"] = round(
                eff / ceiling["kernel_ceiling_eff"], 3
            )
        print(json.dumps(rec))
        return
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    print(json.dumps(run_bench(sf_dir, num_cpus)))


if __name__ == "__main__":
    main()
