"""The one-stop api facade: every re-export resolves and is callable."""


def test_api_surface_importable():
    from light_curve_feature_ray import api

    groups = {
        "rollup": ["read_transcripts", "rollup_dataset", "run_rollup_job",
                   "update_rollup_job", "apply_retention", "RollupConfig",
                   "job_report", "read_rollup_output"],
        "sources": ["read_transcripts_jsonl", "read_transcripts_csv",
                    "synth_transcripts_table"],
        "features": ["FeatureExtractor", "Periodogram", "Bins", "REGISTRY"],
        "joins": ["asof_join", "interval_join", "broadcast_join",
                  "broadcast_semi_join"],
        "windows": ["tumbling_window_agg", "sliding_window_agg",
                    "session_windows", "rolling_agg"],
        "quantiles": ["quantile_cont", "grouped_quantile_cont",
                      "approx_quantile_hist", "exact_order_stats",
                      "winsorize", "grouped_mad", "mad_outliers"],
        "scan": ["ordered_prefix_sum", "pack_sequences", "shuffle_rank",
                 "rank_rows", "global_ntile"],
        "sampling": ["hash_sample", "stratified_hash_sample", "hash_split",
                     "top_k_per_group"],
        "text": ["exact_dedup", "minhash_lsh_dups", "simhash_dups",
                 "ngram_jaccard_dups", "winnow_fingerprints", "normalize_text",
                 "text_stats", "lang_id", "token_count", "top_terms",
                 "tfidf_top_terms", "redact", "fingerprint"],
        "graph": ["connected_components_min_label",
                  "dedup_keep_representatives"],
        "similarity": ["knn_cosine", "lsh_knn_cosine", "ivf_knn_cosine",
                       "embedding_cosine_dups"],
        "sketches": ["hll_distinct", "heavy_hitters"],
        "multimodal": ["decode_images", "resize_images", "sample_frames"],
    }
    for group, names in groups.items():
        for n in names:
            obj = getattr(api, n, None)
            assert obj is not None, f"api.{n} missing ({group})"
            assert callable(obj) or n == "REGISTRY", f"api.{n} not callable"
