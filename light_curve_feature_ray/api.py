"""One-stop public API: every operator of the engine, re-exported.

``from light_curve_feature_ray import api`` gives a user the full surface
without knowing the module layout.  Grouped as:

- **rollup engine** (the north-star pipeline): read/rollup/checkpointed
  job/incremental update/retention;
- **feature kernel**: the light-curve-feature evaluator suite, extractor,
  bins, transformers, fits, multicolor;
- **relational/curation operators**: joins, windows, quantiles, sampling,
  scan (packing/shuffle-rank/ntile), dedup family, text analysis,
  similarity search, sketches, multimodal stages.

Everything here is lazy-Dataset-in / lazy-Dataset-out (except small
driver-side results like quantile frames) and safe to compose; nothing
calls ``ray.init``.
"""

from __future__ import annotations

# --- rollup engine -------------------------------------------------------
from .pipelines.rollup import (  # noqa: F401
    read_transcripts,
    rollup_dataset,
    rollup_table,
    apply_retention,
)
from .pipelines.update import update_rollup_job  # noqa: F401
from .pipelines.turns import clean_turns  # noqa: F401
from .state.checkpoint import (  # noqa: F401
    job_report,
    read_rollup_output,
    run_rollup_job,
    write_dataset_partitioned,
)
from .stages.rollup import (  # noqa: F401
    RollupConfig,
    RollupWorker,
    detect_hot_convs,
)
from .sources.synth import (  # noqa: F401
    synth_transcripts_parquet,
    synth_transcripts_table,
)
from .sources.jsonl import read_transcripts_jsonl  # noqa: F401
from .sources.csv_src import read_transcripts_csv  # noqa: F401

# --- feature kernel ------------------------------------------------------
from .features import (  # noqa: F401
    REGISTRY,
    Bins,
    Feature,
    FeatureExtractor,
    Periodogram,
    Series,
)

# --- joins ---------------------------------------------------------------
from .pipelines.joins import (  # noqa: F401
    asof_join,
    broadcast_join,
    broadcast_semi_join,
    interval_join,
    table_diff,
)

# --- all-aggregate analytics ----------------------------------------------
from .pipelines.aggregates import (  # noqa: F401
    audience_overlap,
    chi2_crosstab,
    first_event_latency,
    first_seen_cumulative,
    group_corr,
    group_count_distinct,
    group_entropy,
    group_linear_trend,
    group_mode,
    group_top_k,
    grouping_sets_agg,
    retention_cohorts,
    last_value_per_key,
    target_encode,
    welch_t_ab,
)

# --- windows -------------------------------------------------------------
from .pipelines.windows import (  # noqa: F401
    changepoint_single,
    event_path_ngrams,
    event_transitions,
    ewma,
    lag_autocorr,
    rolling_median,
    funnel_steps,
    interval_coverage,
    key_lag_deltas,
    resample_time_grid,
    throttle,
    time_weighted_avg,
    rolling_agg,
    running_agg,
    rolling_time_agg,
    rolling_zscore,
    session_windows,
    sliding_window_agg,
    state_intervals,
    tumbling_window_agg,
    windowed_count_distinct,
)

# --- quantiles / order statistics ---------------------------------------
from .pipelines.quantiles import (  # noqa: F401
    approx_quantile_hist,
    histogram,
    exact_order_stats,
    grouped_mad,
    grouped_histogram,
    grouped_approx_quantiles,
    grouped_quantile_cont,
    grouped_quantile_disc,
    grouped_trimmed_mean,
    ks_drift,
    mad_outliers,
    quantile_cont,
    winsorize,
)

# --- scan: packing, deterministic shuffle, rank/ntile --------------------
from .pipelines.scan import (  # noqa: F401
    global_ntile,
    ordered_prefix_sum,
    pack_sequences,
    percent_rank_rows,
    rank_rows,
    shuffle_rank,
    zorder_key,
    zorder_sql,
)

# --- sampling / splits / curation ---------------------------------------
from .pipelines.sampling import (  # noqa: F401
    hash_sample,
    hash_split,
    quota_sample,
    stratified_hash_sample,
    top_k_per_group,
    weighted_sample,
)

# --- text analysis + dedup family ---------------------------------------
from .pipelines.text import (  # noqa: F401
    bm25_search,
    bm25_top_terms,
    boilerplate_score,
    chunk_text,
    dsir_weights,
    edit_distance_dups,
    exact_dedup,
    fingerprint,
    json_extract_fields,
    keyword_hits,
    lang_id,
    line_dedup,
    lm_score,
    minhash_lsh_dups,
    char_entropy,
    ngram_containment_dups,
    ngram_decontaminate,
    ngram_jaccard_dups,
    normalize_text,
    pmi_bigrams,
    redact,
    repetition_stats,
    simhash_dups,
    simhash_signatures,
    text_stats,
    tfidf_top_terms,
    token_count,
    top_terms,
    winnow_fingerprints,
)
from .pipelines.graph import (  # noqa: F401
    pagerank_undirected,
    triangle_counts,
    connected_components_min_label,
    dedup_keep_representatives,
)

# --- similarity search ---------------------------------------------------
from .pipelines.similarity import (  # noqa: F401
    embedding_cosine_dups,
    group_centroid,
    ivf_knn_cosine,
    kcenter_sample,
    knn_cosine,
    lsh_knn_cosine,
    semantic_dedup,
)

# --- pivot ---------------------------------------------------------------
from .pipelines.pivot import pivot_agg, unpivot  # noqa: F401
from .pipelines.quality import validate_constraints  # noqa: F401

# --- sketches ------------------------------------------------------------
from .pipelines.sketches import (  # noqa: F401
    bloom_probe,
    bloom_semi_join,
    bloom_sketch,
    cms_estimate,
    cms_sketch,
    heavy_hitters,
    hll_distinct,
)

# --- multimodal stages ---------------------------------------------------
from .pipelines.multimodal import (  # noqa: F401
    decode_images,
    resize_images,
    sample_frames,
)
