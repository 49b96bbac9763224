"""Driver contract: entry() / queries() / oracle_sql().

Ray is initialised by the driver before importing this module; nothing here
calls ray.init/shutdown.

The testdata has no transcript table, so transcript-shaped queries derive
one deterministically from ``events`` (pipelines/events_adapter.py); the
matching DuckDB oracles apply the identical SQL transformation, so the
driver's row-count/schema/value-hash comparison exercises the real engine
end to end. Float feature outputs are rounded to 6 decimals on BOTH sides
to absorb summation-order ulp differences between numpy and DuckDB; NaN
fills are converted to Arrow nulls, which is exactly where DuckDB's
aggregates yield NULL (verified conventions: stddev_samp/skewness/kurtosis/
x/0 all NULL on degenerate input).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

SF0_001 = "/root/testdata/sf0.001"

# ---------------------------------------------------------------------------
# shared SQL fragments
# ---------------------------------------------------------------------------

from light_curve_feature_ray.pipelines.events_adapter import TRANSCRIPTS_SQL
from light_curve_feature_ray.pipelines.text import EN_STOPWORDS

_TM = f"""
turns AS ({TRANSCRIPTS_SQL}),
tm AS (
    SELECT conv_id, turn_idx, epoch(ts) AS t,
           CAST(coalesce(length(text), 0) AS DOUBLE) AS m,
           CAST(floor(epoch(ts)/60) AS BIGINT) AS j
    FROM turns
)
"""


def _r5(q: str, lm: str = "lm", n: str = "n") -> str:
    """R-5 quantile of a sorted list column ``lm`` with count ``n``
    (matches kernel.Series.ppf: h = n*q - 0.5, linear interp, clamped)."""
    h = f"least(greatest({n}*{q} - 0.5, 0), {n} - 1)"
    lo = f"CAST(floor({h}) AS BIGINT)"
    return (
        f"({lm}[{lo}+1] + ({h} - floor({h})) * "
        f"({lm}[least({lo}+2, {n})] - {lm}[{lo}+1]))"
    )


_STOP_LIST = ", ".join(f"'{w}'" for w in EN_STOPWORDS)
_TOKEN_REGEX = r"[0-9A-Za-z_]+|[^0-9A-Za-z_ \t\n\r\f\v]"


def _round6(table: pa.Table, skip=("conv_id", "tier", "bucket_ts", "n_points")):
    """Round float64 columns to 6 decimals and convert NaN -> null (parity
    with the SQL oracles' round(x, 6) and NULL semantics)."""
    cols = {}
    for name in table.column_names:
        col = table[name]
        if pa.types.is_float64(col.type) and name not in skip:
            col = pc.if_else(pc.is_nan(col), pa.scalar(None, pa.float64()), col)
            # DuckDB round() is half-away-from-zero (std::round); match it
            col = pc.round(col, ndigits=6, round_mode="half_towards_infinity")
        cols[name] = col
    return pa.table(cols)


def _finalize(ds, skip=("conv_id", "tier", "bucket_ts", "n_points")):
    return ds.map_batches(
        lambda b: _round6(b, skip), batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# transcript-family queries (events-derived)
# ---------------------------------------------------------------------------


def _turns(sf_dir: str):
    from light_curve_feature_ray.pipelines.events_adapter import (
        events_turns_dataset,
    )

    return events_turns_dataset(sf_dir, num_partitions=16)


def q_turns_clean(sf_dir: str):
    ds = _turns(sf_dir)
    return ds.map_batches(
        lambda b: b.select(["conv_id", "turn_idx", "role", "text", "tool", "ts"]),
        batch_format="pyarrow",
    )


def q_turns_assemble(sf_dir: str):
    """Training-document assembly (pipelines/aggregates.py
    group_collect): each conversation's turns concatenated in turn_idx
    order into ONE document row — exactly SQL's string_agg(text, chr(10)
    ORDER BY turn_idx, text) per conv_id with count(text) non-null
    semantics. One key-hash exchange, vectorized polars sort +
    group_by/str.join per partition."""
    from light_curve_feature_ray.pipelines.aggregates import group_collect

    turns = _turns(sf_dir)
    return group_collect(
        turns.map_batches(
            lambda b: b.select(["conv_id", "turn_idx", "text"]),
            batch_format="pyarrow",
        ),
        key_col="conv_id",
        order_cols=("turn_idx",),
        value_col="text",
        sep="\n",
        num_partitions=16,
    )


SQL_TURNS_ASSEMBLE = f"""
WITH turns AS ({TRANSCRIPTS_SQL})
SELECT conv_id, count(text) AS n_values,
       string_agg(text, chr(10) ORDER BY turn_idx, text) AS doc
FROM turns
WHERE conv_id IS NOT NULL
GROUP BY conv_id
"""


def q_events_gap_report(sf_dir: str):
    """Per-user missing-minute diagnostic (pipelines/windows.py
    gap_report) — the inverse of the rollup gap-fill: occupied 60 s
    slots per key, span, missing count and longest empty run, all in
    integer slot arithmetic (bit-exact twin). Block-local distinct
    (key, slot) combiner, one pair exchange, segment kernel."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.windows import gap_report

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    return gap_report(ev, slot_s=60, num_partitions=16)


SQL_EVENTS_GAP_REPORT = """
WITH v AS (
    SELECT user_id, CAST(floor(epoch(ts)/60) AS BIGINT) AS slot
    FROM events WHERE ts IS NOT NULL AND user_id IS NOT NULL
), d AS (
    SELECT DISTINCT user_id, slot FROM v
), g AS (
    SELECT user_id, slot,
           slot - lag(slot) OVER (PARTITION BY user_id ORDER BY slot) - 1
               AS gap
    FROM d
)
SELECT user_id, count(*) AS n_present,
       max(slot) - min(slot) + 1 AS span_slots,
       max(slot) - min(slot) + 1 - count(*) AS n_missing,
       coalesce(max(gap), 0) AS longest_gap_slots
FROM g GROUP BY user_id
"""


def q_events_profile(sf_dir: str):
    """Column-profile scorecard (pipelines/quality.py profile_table):
    per-column n_rows / n_nonnull / exact distinct count / clean-value
    min/max/avg over events — one streaming numeric-partials pass plus
    a distinct-bounded (col, value) pair exchange; col-cardinality
    broadcast-join finish."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.quality import profile_table

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "value", "event_type"],
    )
    return _finalize(
        profile_table(
            ev, columns=["event_id", "user_id", "value", "event_type"]
        ),
        skip=("col", "n_rows", "n_nonnull", "n_distinct"),
    )


def _profile_arm(col: str, numeric: bool) -> str:
    if numeric:
        stats = f"""
       round(min(CASE WHEN NOT isnan(CAST({col} AS DOUBLE))
                 THEN CAST({col} AS DOUBLE) END), 6) AS min_value,
       round(max(CASE WHEN NOT isnan(CAST({col} AS DOUBLE))
                 THEN CAST({col} AS DOUBLE) END), 6) AS max_value,
       round(avg(CASE WHEN NOT isnan(CAST({col} AS DOUBLE))
                 THEN CAST({col} AS DOUBLE) END), 6) AS avg_value"""
    else:
        stats = """
       CAST(NULL AS DOUBLE) AS min_value,
       CAST(NULL AS DOUBLE) AS max_value,
       CAST(NULL AS DOUBLE) AS avg_value"""
    return f"""
SELECT '{col}' AS col, count(*) AS n_rows, count({col}) AS n_nonnull,
       count(DISTINCT {col}) AS n_distinct,{stats}
FROM events"""


SQL_EVENTS_PROFILE = " UNION ALL ".join(
    _profile_arm(c, num)
    for c, num in (
        ("event_id", True),
        ("user_id", True),
        ("value", True),
        ("event_type", False),
    )
)


def _rollup(sf_dir: str, **cfg_kwargs):
    from light_curve_feature_ray.pipelines.rollup import rollup_dataset
    from light_curve_feature_ray.stages.rollup import RollupConfig

    cfg_kwargs.setdefault("store_points", False)
    config = RollupConfig(num_partitions=16, hot_threshold=None, **cfg_kwargs)
    return rollup_dataset(_turns(sf_dir), config)


_STATS_FEATURES = (
    "observation_count",
    "mean",
    "weighted_mean",
    "standard_deviation",
    "amplitude",
    "duration",
)

_STATS_SQL_EXPRS = """
       CAST(count(*) AS DOUBLE) AS observation_count,
       round(avg({v}), 6) AS mean,
       round(avg({v}), 6) AS weighted_mean,
       round(stddev_samp({v}), 6) AS standard_deviation,
       round((max({v}) - min({v}))/2, 6) AS amplitude,
       round(max({t}) - min({t}), 6) AS duration
"""


def q_rollup_1m_stats(sf_dir: str):
    ds = _rollup(sf_dir, features=_STATS_FEATURES, tiers=("1m",))
    return _finalize(
        ds.map_batches(
            lambda b: b.drop_columns(["tier"]), batch_format="pyarrow"
        )
    )


SQL_ROLLUP_1M_STATS = f"""
WITH {_TM}
SELECT conv_id,
       make_timestamp(j*60*1000000) AS bucket_ts,
       count(*) AS n_points,
       {_STATS_SQL_EXPRS.format(v='m', t='t')}
FROM tm GROUP BY conv_id, j
"""


def q_rollup_1m_quantiles(sf_dir: str):
    feats = (
        "median",
        "median_absolute_deviation",
        "percent_amplitude",
        {"name": "inter_percentile_range", "quantile": 0.25},
    )
    ds = _rollup(sf_dir, features=feats, tiers=("1m",))
    return _finalize(
        ds.map_batches(
            lambda b: b.drop_columns(["tier"]), batch_format="pyarrow"
        )
    )


SQL_ROLLUP_1M_QUANTILES = f"""
WITH {_TM},
g AS (
    SELECT conv_id, j, list_sort(list(m)) AS lm, count(*) AS n,
           median(m) AS med, mad(m) AS madv, max(m) AS mx, min(m) AS mn
    FROM tm GROUP BY conv_id, j
)
SELECT conv_id,
       make_timestamp(j*60*1000000) AS bucket_ts,
       n AS n_points,
       round(med, 6) AS median,
       round(madv, 6) AS median_absolute_deviation,
       round(greatest(mx - med, med - mn), 6) AS percent_amplitude,
       round({_r5('0.75')} - {_r5('0.25')}, 6) AS inter_percentile_range_25
FROM g
"""


def q_rollup_1h_by_band(sf_dir: str):
    """Per-band tier rollup: each (conv, role) sub-stream is its own
    series (composite key through the standard cascade) — per-band
    continuous aggregates, the tier-level analog of PerBandFeature."""
    from light_curve_feature_ray.pipelines.rollup import rollup_dataset
    from light_curve_feature_ray.stages.rollup import RollupConfig

    config = RollupConfig(
        features=("observation_count", "mean", "amplitude"),
        tiers=("1h",),
        gap_fill="none",
        num_partitions=16,
        hot_threshold=None,
        store_points=False,
    )

    def band_key(batch: pa.Table) -> pa.Table:
        key = pc.binary_join_element_wise(
            batch["conv_id"].cast(pa.string()),
            batch["role"].cast(pa.string()),
            "#",
        )
        return batch.set_column(
            batch.schema.get_field_index("conv_id"), "conv_id", key
        )

    ds = rollup_dataset(
        _turns(sf_dir).map_batches(band_key, batch_format="pyarrow"), config
    )

    def split_key(b: pa.Table) -> pa.Table:
        parts = pc.split_pattern(b["conv_id"].combine_chunks(), "#")
        return pa.table(
            {
                "conv_id": pc.list_element(parts, 0),
                "role": pc.list_element(parts, 1),
                "bucket_ts": b["bucket_ts"],
                "n_points": b["n_points"],
                "observation_count": b["observation_count"],
                "mean": b["mean"],
                "amplitude": b["amplitude"],
            }
        )

    return _finalize(
        ds.map_batches(split_key, batch_format="pyarrow"),
        skip=("conv_id", "role", "bucket_ts", "n_points"),
    )


# the 1h tier aggregates the 1m BIN series (cascade semantics), per band
SQL_ROLLUP_1H_BY_BAND = f"""
WITH turns AS ({TRANSCRIPTS_SQL}),
tm2 AS (
    SELECT conv_id, role,
           CAST(coalesce(length(text), 0) AS DOUBLE) AS m,
           CAST(floor(epoch(ts)/60) AS BIGINT) AS j
    FROM turns
),
bins AS (
    SELECT conv_id, role, j, avg(m) AS bm
    FROM tm2 GROUP BY conv_id, role, j
)
SELECT conv_id, role,
       make_timestamp((j//60)*3600*1000000) AS bucket_ts,
       count(*) AS n_points,
       CAST(count(*) AS DOUBLE) AS observation_count,
       round(avg(bm), 6) AS mean,
       round((max(bm) - min(bm))/2, 6) AS amplitude
FROM bins GROUP BY conv_id, role, j//60
"""


def q_rollup_1h_cascade(sf_dir: str):
    ds = _rollup(
        sf_dir, features=_STATS_FEATURES, tiers=("1h",), gap_fill="none"
    )
    return _finalize(
        ds.map_batches(
            lambda b: b.drop_columns(["tier"]), batch_format="pyarrow"
        )
    )


SQL_ROLLUP_1H_CASCADE = f"""
WITH {_TM},
bins AS (SELECT conv_id, j, avg(m) AS bm FROM tm GROUP BY conv_id, j)
SELECT conv_id,
       make_timestamp((j//60)*3600*1000000) AS bucket_ts,
       count(*) AS n_points,
       CAST(count(*) AS DOUBLE) AS observation_count,
       round(avg(bm), 6) AS mean,
       round(avg(bm), 6) AS weighted_mean,
       round(stddev_samp(bm), 6) AS standard_deviation,
       round((max(bm) - min(bm))/2, 6) AS amplitude,
       round(CAST((max(j) - min(j))*60 AS DOUBLE), 6) AS duration
FROM bins GROUP BY conv_id, j//60
"""


def q_rollup_1d_cascade(sf_dir: str):
    ds = _rollup(
        sf_dir, features=_STATS_FEATURES, tiers=("1d",), gap_fill="none"
    )
    return _finalize(
        ds.map_batches(
            lambda b: b.drop_columns(["tier"]), batch_format="pyarrow"
        )
    )


SQL_ROLLUP_1D_CASCADE = f"""
WITH {_TM},
bins AS (SELECT conv_id, j, avg(m) AS bm FROM tm GROUP BY conv_id, j),
hb AS (SELECT conv_id, j//60 AS h, avg(bm) AS hm FROM bins GROUP BY conv_id, j//60)
SELECT conv_id,
       make_timestamp((h//24)*86400*1000000) AS bucket_ts,
       count(*) AS n_points,
       CAST(count(*) AS DOUBLE) AS observation_count,
       round(avg(hm), 6) AS mean,
       round(avg(hm), 6) AS weighted_mean,
       round(stddev_samp(hm), 6) AS standard_deviation,
       round((max(hm) - min(hm))/2, 6) AS amplitude,
       round(CAST((max(h) - min(h))*3600 AS DOUBLE), 6) AS duration
FROM hb GROUP BY conv_id, h//24
"""


def q_rollup_1d_gapfill_prev(sf_dir: str):
    ds = _rollup(
        sf_dir,
        features=("observation_count", "mean"),
        tiers=("1d",),
        gap_fill="prev",
        fill_levels=("1h",),
        max_fill_gap=None,
    )
    return _finalize(
        ds.map_batches(
            lambda b: b.drop_columns(["tier"]), batch_format="pyarrow"
        )
    )


SQL_ROLLUP_1D_GAPFILL_PREV = f"""
WITH {_TM},
bins AS (SELECT conv_id, j, avg(m) AS bm FROM tm GROUP BY conv_id, j),
hb AS (SELECT conv_id, j//60 AS h, avg(bm) AS hm FROM bins GROUP BY conv_id, j//60),
rng AS (SELECT conv_id, min(h) AS hmin, max(h) AS hmax FROM hb GROUP BY conv_id),
slots AS (SELECT conv_id, unnest(generate_series(hmin, hmax)) AS h FROM rng),
filled AS (
    SELECT s.conv_id, s.h,
           last_value(hb.hm IGNORE NULLS) OVER (
               PARTITION BY s.conv_id ORDER BY s.h
               ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW
           ) AS hm
    FROM slots s LEFT JOIN hb ON hb.conv_id = s.conv_id AND hb.h = s.h
)
SELECT conv_id,
       make_timestamp((h//24)*86400*1000000) AS bucket_ts,
       count(*) AS n_points,
       CAST(count(*) AS DOUBLE) AS observation_count,
       round(avg(hm), 6) AS mean
FROM filled GROUP BY conv_id, h//24
"""


def q_rollup_incremental(sf_dir: str):
    """Continuous-aggregate UPDATE path (pipelines/update.py): the turn
    stream is split at turn_idx 12 — ``run_rollup_job`` builds the tier
    store from the first slice (1m tier keeps Gorilla points as state),
    ``update_rollup_job`` folds the suffix delta in (decode + re-run of
    the unmodified kernel for the partitions it routes to) — and the
    updated 1h projection must match the SAME SQL oracle as the full
    cascade."""
    import os
    import tempfile

    from light_curve_feature_ray.pipelines.update import update_rollup_job
    from light_curve_feature_ray.stages.rollup import RollupConfig
    from light_curve_feature_ray.state.checkpoint import (
        read_rollup_output,
        run_rollup_job,
    )

    cfg = RollupConfig(
        features=_STATS_FEATURES,
        tiers=("1m", "1h"),
        gap_fill="none",
        store_points=True,
        num_partitions=16,
        hot_threshold=None,
    )
    turns = _turns(sf_dir)
    with tempfile.TemporaryDirectory() as tmp:
        old, delta, store = (
            os.path.join(tmp, name) for name in ("old", "delta", "store")
        )
        turns.filter(expr="turn_idx < 12").write_parquet(old)
        turns.filter(expr="turn_idx >= 12").write_parquet(delta)
        run_rollup_job(old, store, cfg)
        update_rollup_job(store, delta)
        hour = read_rollup_output(store).filter(expr="tier == '1h'").map_batches(
            lambda b: b.drop_columns(["tier", "points"]),
            batch_format="pyarrow",
            batch_size=None,
        )
        # the store's files go with the directory: read them first
        return _finalize(hour).materialize()


def q_rollup_retention(sf_dir: str):
    """All three tiers + per-tier TTL retention (the 'retention' half of
    the engine contract): 1m kept 2 days, 1h kept 5 days, 1d forever.
    'now' = the data's max ts floored to the minute, so the query is
    deterministic and the cutoff comparison is exact integer minutes on
    both the engine and oracle sides."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.rollup import apply_retention

    max_ts = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts"]
    ).max("ts")
    # Dataset.max returns datetime for timestamp columns
    now_us = int(pa.scalar(max_ts, type=pa.timestamp("us")).cast(pa.int64()).as_py())
    now_us = (now_us // 60_000_000) * 60_000_000
    ds = _rollup(
        sf_dir,
        features=("observation_count", "mean"),
        tiers=("1m", "1h", "1d"),
        gap_fill="none",
    )
    kept = apply_retention(
        ds, now_us, {"1m": 2 * 86400, "1h": 5 * 86400, "1d": None}
    )
    return _finalize(kept)


SQL_ROLLUP_RETENTION = f"""
WITH {_TM},
nowj AS (SELECT CAST(floor(max(t)/60) AS BIGINT) AS nj FROM tm),
m1 AS (
    SELECT conv_id, j, count(*) AS n, avg(m) AS mean
    FROM tm GROUP BY conv_id, j
),
bins AS (SELECT conv_id, j, avg(m) AS bm FROM tm GROUP BY conv_id, j),
h1 AS (
    SELECT conv_id, j//60 AS h, count(*) AS n, avg(bm) AS mean
    FROM bins GROUP BY conv_id, j//60
),
hb AS (SELECT conv_id, j//60 AS h, avg(bm) AS hm FROM bins GROUP BY conv_id, j//60),
d1 AS (
    SELECT conv_id, h//24 AS d, count(*) AS n, avg(hm) AS mean
    FROM hb GROUP BY conv_id, h//24
)
SELECT * FROM (
    SELECT conv_id, '1m' AS tier,
           make_timestamp(j*60*1000000) AS bucket_ts,
           n AS n_points, CAST(n AS DOUBLE) AS observation_count,
           round(mean, 6) AS mean
    FROM m1 WHERE j >= (SELECT nj FROM nowj) - 2*1440
    UNION ALL
    SELECT conv_id, '1h',
           make_timestamp(h*3600*1000000),
           n, CAST(n AS DOUBLE), round(mean, 6)
    FROM h1 WHERE h*60 >= (SELECT nj FROM nowj) - 5*1440
    UNION ALL
    SELECT conv_id, '1d',
           make_timestamp(d*86400*1000000),
           n, CAST(n AS DOUBLE), round(mean, 6)
    FROM d1
)
"""


def q_rollup_1d_gapfill_linear(sf_dir: str):
    # amplitude (order statistic) rather than mean: linear interpolation
    # creates dyadic-rational fill values whose day MEAN can land exactly
    # on a round-6 halfway point (measured: 8.2921875), where the two
    # engines' summation orders disagree by an ulp. min/max of the filled
    # series are summation-free, so they verify the interpolation itself
    # bit-for-bit.
    ds = _rollup(
        sf_dir,
        features=("observation_count", "amplitude"),
        tiers=("1d",),
        gap_fill="linear",
        fill_levels=("1h",),
        max_fill_gap=None,
    )
    return _finalize(
        ds.map_batches(
            lambda b: b.drop_columns(["tier"]), batch_format="pyarrow"
        )
    )


SQL_ROLLUP_1D_GAPFILL_LINEAR = f"""
WITH {_TM},
bins AS (SELECT conv_id, j, avg(m) AS bm FROM tm GROUP BY conv_id, j),
hb AS (SELECT conv_id, j//60 AS h, avg(bm) AS hm FROM bins GROUP BY conv_id, j//60),
rng AS (SELECT conv_id, min(h) AS hmin, max(h) AS hmax FROM hb GROUP BY conv_id),
slots AS (SELECT conv_id, unnest(generate_series(hmin, hmax)) AS h FROM rng),
ctx AS (
    SELECT s.conv_id, s.h, hb.hm,
           last_value(hb.hm IGNORE NULLS) OVER w AS pv,
           last_value(CASE WHEN hb.hm IS NOT NULL THEN s.h END IGNORE NULLS)
               OVER w AS ph,
           first_value(hb.hm IGNORE NULLS) OVER wf AS nv,
           first_value(CASE WHEN hb.hm IS NOT NULL THEN s.h END IGNORE NULLS)
               OVER wf AS nh
    FROM slots s LEFT JOIN hb ON hb.conv_id = s.conv_id AND hb.h = s.h
    WINDOW w AS (PARTITION BY s.conv_id ORDER BY s.h
                 ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW),
           wf AS (PARTITION BY s.conv_id ORDER BY s.h
                  ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING)
),
filled AS (
    SELECT conv_id, h,
           CASE WHEN hm IS NOT NULL THEN hm
                -- mirror the engine exactly: m0 + frac * (m1 - m0) with
                -- frac = offset/denom computed first (stages/rollup.py
                -- _gap_fill 'linear')
                ELSE pv + (CAST(h - ph AS DOUBLE) / CAST(nh - ph AS DOUBLE))
                     * (nv - pv)
           END AS hm
    FROM ctx
)
SELECT conv_id,
       make_timestamp((h//24)*86400*1000000) AS bucket_ts,
       count(*) AS n_points,
       CAST(count(*) AS DOUBLE) AS observation_count,
       round((max(hm) - min(hm))/2, 6) AS amplitude
FROM filled GROUP BY conv_id, h//24
"""


# ---------------------------------------------------------------------------
# per-conversation feature queries
# ---------------------------------------------------------------------------


def _conv_features(sf_dir: str, features, **kwargs):
    from light_curve_feature_ray.pipelines.conv_features import per_conv_features

    return _finalize(
        per_conv_features(_turns(sf_dir), features, **kwargs), skip=("conv_id",)
    )


def q_conv_moments(sf_dir: str):
    return _conv_features(
        sf_dir,
        (
            "mean",
            "weighted_mean",
            "standard_deviation",
            "mean_variance",
            "excess_variance",
            "reduced_chi2",
            "stetson_k",
            "skew",
            "kurtosis",
        ),
    )


SQL_CONV_MOMENTS = f"""
WITH {_TM},
d AS (
    SELECT conv_id, m,
           avg(m) OVER (PARTITION BY conv_id) AS mu,
           count(*) OVER (PARTITION BY conv_id) AS n
    FROM tm
)
SELECT conv_id,
       round(avg(m), 6) AS mean,
       round(avg(m), 6) AS weighted_mean,
       round(stddev_samp(m), 6) AS standard_deviation,
       round(stddev_samp(m)/avg(m), 6) AS mean_variance,
       round((var_samp(m) - 1.0)/(avg(m)*avg(m)), 6) AS excess_variance,
       round(var_samp(m), 6) AS chi2,
       round(sum(abs(m - mu))/sqrt(any_value(n)*sum((m - mu)*(m - mu))), 6) AS "stetson_K",
       round(skewness(m), 6) AS skew,
       round(kurtosis(m), 6) AS kurtosis
FROM d GROUP BY conv_id
"""


def q_conv_time(sf_dir: str):
    return _conv_features(
        sf_dir,
        (
            "observation_count",
            "duration",
            "time_mean",
            "time_standard_deviation",
            "maximum_time_interval",
            "minimum_time_interval",
            "maximum_slope",
        ),
        # epoch-scale t makes round-6 collide with float64 ulp (~2e-7 at
        # 1.7e9); evaluate on t - min(t) per conv (exact subtraction) and
        # mirror the shift in the oracle below.
        shift_t=True,
    )


SQL_CONV_TIME = f"""
WITH {_TM},
s AS (
    SELECT conv_id, turn_idx, m,
           t - min(t) OVER (PARTITION BY conv_id) AS t
    FROM tm
),
d AS (
    SELECT conv_id, t, m,
           t - lag(t) OVER w AS dt,
           m - lag(m) OVER w AS dm
    FROM s WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx)
)
SELECT conv_id,
       CAST(count(*) AS DOUBLE) AS observation_count,
       round(max(t) - min(t), 6) AS duration,
       round(avg(t), 6) AS time_mean,
       round(stddev_samp(t), 6) AS time_standard_deviation,
       round(max(dt), 6) AS maximum_time_interval,
       round(min(dt), 6) AS minimum_time_interval,
       round(max(abs(dm / nullif(dt, 0))), 6) AS maximum_slope
FROM d GROUP BY conv_id
"""


def q_conv_shape(sf_dir: str):
    return _conv_features(
        sf_dir,
        (
            {"name": "beyond_n_std", "nstd": 1.0},
            "eta",
            "eta_e",
            "cusum",
            "lafler_kinman_string_length",
            "linear_trend",
            "linear_fit",
        ),
    )


SQL_CONV_SHAPE = f"""
WITH {_TM},
d AS (
    SELECT conv_id, turn_idx, t, m,
           t - lag(t) OVER w AS dt,
           m - lag(m) OVER w AS dm,
           avg(m) OVER (PARTITION BY conv_id) AS mu,
           stddev_samp(m) OVER (PARTITION BY conv_id) AS sd,
           count(*) OVER (PARTITION BY conv_id) AS n
    FROM tm WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx)
),
c AS (
    SELECT conv_id,
           sum(m - mu) OVER (PARTITION BY conv_id ORDER BY turn_idx) AS cs,
           sd, n
    FROM d
),
cus AS (
    SELECT conv_id, round((max(cs) - min(cs))/(any_value(sd)*any_value(n)), 6) AS cusum
    FROM c GROUP BY conv_id
),
base AS (
    SELECT conv_id,
           CASE WHEN any_value(n) < 2 THEN NULL
                ELSE round(CAST(count(*) FILTER (abs(m - mu) > sd) AS DOUBLE)/any_value(n), 6)
           END AS beyond_1_std,
           round(sum(dm*dm)/((any_value(n) - 1)*var_samp(m)), 6) AS eta,
           round((max(t) - min(t))*(max(t) - min(t))*sum(power(dm / nullif(dt, 0), 2))
             / (var_samp(m)*power(any_value(n) - 1, 3)), 6) AS eta_e,
           round((sum(dm*dm) + power(arg_min(m, turn_idx) - arg_max(m, turn_idx), 2))
             / (2*var_samp(m)*(any_value(n) - 1)), 6) AS lafler_kinman_string_length,
           round(regr_slope(m, t), 6) AS linear_trend,
           round(sqrt(greatest(regr_syy(m, t) - regr_slope(m, t)*regr_slope(m, t)*regr_sxx(m, t), 0)
             / (any_value(n) - 2) / regr_sxx(m, t)), 6) AS linear_trend_sigma,
           round(sqrt(greatest(regr_syy(m, t) - regr_slope(m, t)*regr_slope(m, t)*regr_sxx(m, t), 0)
             / (any_value(n) - 2)), 6) AS linear_trend_noise,
           round(regr_slope(m, t), 6) AS linear_fit_slope,
           round(sqrt(1.0 / regr_sxx(m, t)), 6) AS linear_fit_slope_sigma,
           round(greatest(regr_syy(m, t) - regr_slope(m, t)*regr_slope(m, t)*regr_sxx(m, t), 0)
             / (any_value(n) - 2), 6) AS linear_fit_reduced_chi2
    FROM d GROUP BY conv_id
)
SELECT base.*, cus.cusum FROM base JOIN cus USING (conv_id)
"""


def q_conv_quantiles(sf_dir: str):
    return _conv_features(
        sf_dir,
        (
            "median",
            "median_absolute_deviation",
            "percent_amplitude",
            {"name": "inter_percentile_range", "quantile": 0.25},
            {
                "name": "magnitude_percentage_ratio",
                "quantile_numerator": 0.40,
                "quantile_denominator": 0.05,
            },
            {
                "name": "percent_difference_magnitude_percentile",
                "quantile": 0.05,
            },
            {"name": "median_buffer_range_percentage", "quantile": 0.10},
            "roms",
        ),
    )


SQL_CONV_QUANTILES = f"""
WITH {_TM},
g AS (
    SELECT conv_id, list_sort(list(m)) AS lm, count(*) AS n,
           median(m) AS med, mad(m) AS madv, max(m) AS mx, min(m) AS mn
    FROM tm GROUP BY conv_id
),
r AS (
    SELECT conv_id,
           sum(abs(tm.m - g.med)) AS sad,
           count(*) FILTER (abs(tm.m - g.med) < 0.1*(g.mx - g.mn)/2) AS n_buf,
           any_value(g.n) AS n,
           any_value(g.mx) AS mx, any_value(g.mn) AS mn
    FROM tm JOIN g USING (conv_id) GROUP BY conv_id
)
SELECT g.conv_id,
       round(g.med, 6) AS median,
       round(g.madv, 6) AS median_absolute_deviation,
       round(greatest(g.mx - g.med, g.med - g.mn), 6) AS percent_amplitude,
       round({_r5('0.75', 'g.lm', 'g.n')} - {_r5('0.25', 'g.lm', 'g.n')}, 6) AS inter_percentile_range_25,
       round(({_r5('0.60', 'g.lm', 'g.n')} - {_r5('0.40', 'g.lm', 'g.n')})
           / nullif({_r5('0.95', 'g.lm', 'g.n')} - {_r5('0.05', 'g.lm', 'g.n')}, 0), 6) AS magnitude_percentage_ratio_40_5,
       round(({_r5('0.95', 'g.lm', 'g.n')} - {_r5('0.05', 'g.lm', 'g.n')}) / nullif(g.med, 0), 6)
           AS percent_difference_magnitude_percentile_5,
       round(CAST(r.n_buf AS DOUBLE)/g.n, 6) AS median_buffer_range_percentage_10,
       CASE WHEN g.mx = g.mn OR g.n < 2 THEN NULL
            ELSE round(r.sad/(g.n - 1), 6) END AS roms
FROM g JOIN r ON g.conv_id = r.conv_id
"""


def q_conv_bins(sf_dir: str):
    return _conv_features(
        sf_dir,
        (
            {
                "name": "bins",
                "features": ["observation_count", "mean", "standard_deviation"],
                "window": 3600.0,
                "offset": 0.0,
            },
        ),
    )


SQL_CONV_BINS = f"""
WITH {_TM},
bins AS (SELECT conv_id, CAST(floor(t/3600) AS BIGINT) AS hb, avg(m) AS bm
         FROM tm GROUP BY conv_id, hb)
SELECT conv_id,
       CAST(count(*) AS DOUBLE) AS "bins_window3600_offset0_observation_count",
       round(avg(bm), 6) AS "bins_window3600_offset0_mean",
       round(stddev_samp(bm), 6) AS "bins_window3600_offset0_standard_deviation"
FROM bins GROUP BY conv_id
"""


def q_conv_transformed(sf_dir: str):
    return _conv_features(
        sf_dir,
        (
            {"name": "transformed", "feature": "mean", "transformer": "arcsinh"},
            {"name": "transformed", "feature": "amplitude", "transformer": "ln1p"},
        ),
    )


SQL_CONV_TRANSFORMED = f"""
WITH {_TM}
SELECT conv_id,
       round(ln(avg(m) + sqrt(avg(m)*avg(m) + 1)), 6) AS arcsinh_mean,
       round(ln(1 + (max(m) - min(m))/2), 6) AS ln1p_amplitude
FROM tm GROUP BY conv_id
"""


def q_conv_role_features(sf_dir: str):
    """Per-band (role) features — the multicolor analog."""
    from light_curve_feature_ray.pipelines.conv_features import per_conv_features

    ds = per_conv_features(
        _turns(sf_dir),
        ("observation_count", "mean", "standard_deviation", "amplitude"),
        band_col="role",
    )
    return _finalize(ds, skip=("conv_id", "role"))


SQL_CONV_ROLE_FEATURES = f"""
WITH turns AS ({TRANSCRIPTS_SQL}),
tm AS (
    SELECT conv_id, role, CAST(coalesce(length(text), 0) AS DOUBLE) AS m FROM turns
)
SELECT conv_id, role,
       CAST(count(*) AS DOUBLE) AS observation_count,
       round(avg(m), 6) AS mean,
       round(stddev_samp(m), 6) AS standard_deviation,
       round((max(m) - min(m))/2, 6) AS amplitude
FROM tm GROUP BY conv_id, role
"""


def q_conv_advanced(sf_dir: str):
    # no SQL oracle: special functions (incomplete gamma, ln_erfc,
    # Lomb-Scargle) are not DuckDB-expressible -> rows-only check
    # (OtsuSplit is oracle-checked in conv_otsu; biweight_scale in
    # conv_biweight — closed-form, so it gets a full SQL oracle there)
    return _conv_features(
        sf_dir,
        (
            "anderson_darling_normal",
            "chi2_pvar",
            {"name": "biweight_scale", "c": 9.0},
            {
                # phase extractor exercises the fold + Bins(1e-6) dedup
                # path end to end (periodogram.rs:545-575)
                "name": "periodogram",
                "peaks": 1,
                "phase_features": ["mean", "eta"],
            },
        ),
    )


def q_conv_biweight(sf_dir: str):
    """Tukey biweight midvariance scale — closed-form (medians +
    polynomials, no special functions), so unlike the rest of
    conv_advanced it IS SQL-oracle-able: the engine spells the quartic
    as (w*w)*(w*w) so both sides evaluate identical float products."""
    return _conv_features(sf_dir, ({"name": "biweight_scale", "c": 9.0},))


# biweight_scale.rs:134-180: u = (m - med)/(c*MAD), sums over |u| < 1,
# zeta = sqrt(n)*sqrt(sum d^2 (1-u^2)^4)/|sum (1-u^2)(1-5u^2)|; 0 when
# MAD == 0. median()/mad() parity with np.median established by
# SQL_CONV_QUANTILES.
SQL_CONV_BIWEIGHT = f"""
WITH {_TM},
g AS (
    SELECT conv_id, median(m) AS med, mad(m) AS madv, count(*) AS n
    FROM tm GROUP BY conv_id
),
u AS (
    SELECT tm.conv_id, tm.m - g.med AS d,
           (tm.m - g.med) / (9.0 * g.madv) AS uu
    FROM tm JOIN g USING (conv_id)
    WHERE g.madv > 0
),
t2 AS (
    SELECT conv_id, d, uu, 1.0 - uu*uu AS w, uu*uu AS u2 FROM u
),
s AS (
    SELECT conv_id,
           sum(d*d * ((w*w)*(w*w))) FILTER (abs(uu) < 1.0) AS num,
           sum(w * (1.0 - 5.0*u2)) FILTER (abs(uu) < 1.0) AS den
    FROM t2 GROUP BY conv_id
)
SELECT g.conv_id,
       round(CASE WHEN g.madv = 0 THEN 0.0
                  ELSE sqrt(g.n) * sqrt(s.num) / abs(s.den) END, 6)
           AS biweight_scale_9
FROM g LEFT JOIN s USING (conv_id)
"""


def q_conv_otsu(sf_dir: str):
    return _conv_features(sf_dir, ("otsu_split",))


# Otsu via sorted-list cumulative sums: split k maximizes
# w0*(1-w0)*(mean_upper - mean_lower)^2, FIRST max wins (reference
# otsu_split.rs:51-104 / features/basic.py); subset std is sample std,
# 0 for singletons; flat series -> NULL (FlatTimeSeries fill)
SQL_CONV_OTSU = f"""
WITH {_TM},
g AS (
    SELECT conv_id, list_sort(list(m)) AS lm, count(*) AS n
    FROM tm GROUP BY conv_id
),
k AS (
    SELECT conv_id, lm, n,
           list_transform(range(1, n), kk ->
               (CAST(kk AS DOUBLE)/n) * (1 - CAST(kk AS DOUBLE)/n)
               * pow(
                   (list_sum(lm) - list_sum(lm[1:kk]))/(n - kk)
                   - list_sum(lm[1:kk])/kk, 2)
           ) AS icv
    FROM g WHERE n >= 2 AND lm[1] <> lm[n]
),
s AS (
    SELECT conv_id, lm, n,
           list_position(icv, list_max(icv)) AS split
    FROM k
),
parts AS (
    SELECT conv_id, n, split,
           lm[1:split] AS lower_l, lm[split+1:n] AS upper_l
    FROM s
),
m2 AS (
    SELECT conv_id, n, split,
           list_sum(lower_l)/split AS mu_l,
           list_sum(upper_l)/(n - split) AS mu_u,
           CASE WHEN split = 1 THEN 0.0 ELSE sqrt(
               list_sum(list_transform(lower_l,
                   x -> pow(x - list_sum(lower_l)/split, 2))) / (split - 1)
           ) END AS std_l,
           CASE WHEN n - split = 1 THEN 0.0 ELSE sqrt(
               list_sum(list_transform(upper_l,
                   x -> pow(x - list_sum(upper_l)/(n - split), 2))) / (n - split - 1)
           ) END AS std_u
    FROM parts
)
SELECT g.conv_id,
       round(m2.mu_u - m2.mu_l, 6) AS otsu_mean_diff,
       round(m2.std_l, 6) AS otsu_std_lower,
       round(m2.std_u, 6) AS otsu_std_upper,
       round(CAST(m2.split AS DOUBLE)/m2.n, 6) AS otsu_lower_to_all_ratio
FROM g LEFT JOIN m2 ON g.conv_id = m2.conv_id
"""


def q_conv_colors(sf_dir: str):
    """Cross-band color features (multicolor analog): bands = event types."""
    from light_curve_feature_ray.pipelines.multicolor import conv_color_features

    ds = conv_color_features(_turns(sf_dir), "click", "view")
    return _finalize(ds, skip=("conv_id",))


SQL_CONV_COLORS = f"""
WITH turns AS ({TRANSCRIPTS_SQL}),
tm AS (SELECT conv_id, role, CAST(coalesce(length(text), 0) AS DOUBLE) AS m FROM turns),
b AS (
    SELECT conv_id, role, median(m) AS med, max(m) AS mx, min(m) AS mn,
           avg(m) AS mu
    FROM tm GROUP BY conv_id, role
),
p AS (
    SELECT conv_id,
           max(CASE WHEN role = 'click' THEN med END) AS med_a,
           max(CASE WHEN role = 'view' THEN med END) AS med_b,
           max(CASE WHEN role = 'click' THEN mx END) AS mx_a,
           max(CASE WHEN role = 'view' THEN mx END) AS mx_b,
           max(CASE WHEN role = 'click' THEN mn END) AS mn_a,
           max(CASE WHEN role = 'view' THEN mn END) AS mn_b,
           max(CASE WHEN role = 'click' THEN mu END) AS mu_a,
           max(CASE WHEN role = 'view' THEN mu END) AS mu_b
    FROM b GROUP BY conv_id
)
SELECT conv_id,
       round(med_a - med_b, 6) AS color_median_click_view,
       round(mx_a - mx_b, 6) AS color_max_click_view,
       round(mn_a - mn_b, 6) AS color_min_click_view,
       round(abs(mu_a - mu_b)/2, 6) AS color_spread
FROM p
"""


_MCB_PREFIX = "bins_window3600.0_offset0.0"


def q_conv_multicolor_bins(sf_dir: str):
    """MultiColorBins: 1h-binned per-band series -> cross-band features
    (reference multicolor_bins.rs semantics; bands = event types)."""
    from light_curve_feature_ray.features.multicolor import (
        ColorOfMaximum,
        ColorOfMedian,
        ColorSpread,
        MultiColorBins,
    )
    from light_curve_feature_ray.pipelines.multicolor import (
        conv_multicolor_features,
    )

    mcb = MultiColorBins(
        [
            ColorOfMedian(["click", "view"]),
            ColorOfMaximum(["click", "view"]),
            ColorSpread(["click", "view"]),
        ],
        window=3600.0,
        offset=0.0,
    )
    ds = conv_multicolor_features(_turns(sf_dir), [mcb])
    return _finalize(ds, skip=("conv_id",))


SQL_CONV_MULTICOLOR_BINS = f"""
WITH turns AS ({TRANSCRIPTS_SQL}),
tm AS (
    SELECT conv_id, role, epoch(ts) AS t,
           CAST(coalesce(length(text), 0) AS DOUBLE) AS m
    FROM turns
),
b AS (
    SELECT conv_id, role, CAST(floor(t/3600) AS BIGINT) AS j, avg(m) AS bm
    FROM tm GROUP BY conv_id, role, j
),
agg AS (
    SELECT conv_id, role, median(bm) AS med, max(bm) AS mx, avg(bm) AS mu
    FROM b GROUP BY conv_id, role
),
p AS (
    SELECT conv_id,
           max(CASE WHEN role = 'click' THEN med END) AS med_c,
           max(CASE WHEN role = 'view' THEN med END) AS med_v,
           max(CASE WHEN role = 'click' THEN mx END) AS mx_c,
           max(CASE WHEN role = 'view' THEN mx END) AS mx_v,
           max(CASE WHEN role = 'click' THEN mu END) AS mu_c,
           max(CASE WHEN role = 'view' THEN mu END) AS mu_v
    FROM agg GROUP BY conv_id
)
SELECT conv_id,
       round(med_c - med_v, 6) AS "{_MCB_PREFIX}_color_median_click_view",
       round(mx_c - mx_v, 6) AS "{_MCB_PREFIX}_color_max_click_view",
       round(CASE WHEN mu_c IS NOT NULL AND mu_v IS NOT NULL
             THEN abs(mu_c - mu_v)/2 END, 6) AS "{_MCB_PREFIX}_color_spread"
FROM p
"""


def q_conv_multicolor_periodogram(sf_dir: str):
    """Combined two-band Lomb-Scargle periodogram (count-weighted band sum
    on the union-time frequency grid) — not SQL-expressible, rows-only."""
    from light_curve_feature_ray.features.multicolor import (
        MultiColorPeriodogram,
    )
    from light_curve_feature_ray.pipelines.multicolor import (
        conv_multicolor_features,
    )

    mcp = MultiColorPeriodogram(
        ["click", "view"],
        peaks=1,
        phase_bands=["click", "view"],
        phase_features=["mean", "eta"],
    )
    ds = conv_multicolor_features(_turns(sf_dir), [mcp])
    return _finalize(ds, skip=("conv_id",))


def q_conv_bazin_fit(sf_dir: str):
    # non-linear MCMC fit: no SQL analog -> rows-only check. Includes the
    # raw fit output AND the magnitude-space reshape via
    # Transformed(BazinFit, BazinFitTransformer)
    # (/root/reference/src/transformers/bazin_fit.rs:97-126)
    return _conv_features(
        sf_dir,
        (
            {"name": "bazin_fit", "niterations": 32},
            {
                "name": "transformed",
                "feature": {"name": "bazin_fit", "niterations": 32},
                "transformer": {"name": "bazin_fit", "mag_zp": 8.9},
            },
        ),
    )


def q_conv_villar_linexp_fit(sf_dir: str):
    """VillarFit + LinexpFit (+ their magnitude-space transformers) per
    conversation — deterministic seeded MCMC, rows-only."""
    return _conv_features(
        sf_dir,
        (
            {"name": "villar_fit", "niterations": 32},
            {"name": "linexp_fit", "niterations": 32},
            {
                "name": "transformed",
                "feature": {"name": "linexp_fit", "niterations": 32},
                "transformer": {"name": "linexp_fit", "mag_zp": 8.9},
            },
        ),
    )


def q_rollup_full_tiers(sf_dir: str):
    """Flagship: all three tiers with the headline suite incl. periodogram +
    Gorilla-compressed points (rows-only: binary column + Lomb-Scargle)."""
    from light_curve_feature_ray.stages.rollup import DEFAULT_FEATURES

    ds = _rollup(
        sf_dir,
        features=DEFAULT_FEATURES,
        tiers=("1m", "1h", "1d"),
        gap_fill="linear",
        store_points=True,
    )
    return _finalize(ds)


def q_rollup_full_tiers_sql(sf_dir: str):
    """Value-checkable projection of the flagship: the SAME full-tiers
    run as rollup_full_tiers (DEFAULT_FEATURES incl. periodogram,
    gap_fill='linear', store_points=True), projected onto its
    SQL-checkable columns (n_points, observation_count, amplitude,
    duration) so the 113k-row flagship flips from rows-only to
    value-hash-checked. Bins cascade semantics per
    /root/reference/src/features/bins.rs:171-201; the SQL twin replays
    the engine's linear gap-fill (m0 + frac*(m1-m0), frac computed
    first; gaps > max_fill_gap slots left unfilled) at both the minute
    (cap 2880) and hour (cap 48) levels. mean/weighted_mean are NOT in
    the projection for the same measured reason as
    q_rollup_1d_gapfill_linear: linear fill produces dyadic-rational
    values whose window MEAN can land exactly on a round-6 halfway
    point (sf0.01 conv c66 1h@2024-01-19T17: exactly 8.8984375) where
    numpy-pairwise and DuckDB-sequential sums straddle the boundary by
    an ulp; amplitude/duration are order statistics (summation-free),
    so they pin the interpolation itself bit-for-bit, and the fill-free
    mean path is value-checked by rollup_1h_cascade/rollup_1d_cascade."""
    from light_curve_feature_ray.stages.rollup import DEFAULT_FEATURES

    ds = _rollup(
        sf_dir,
        features=DEFAULT_FEATURES,
        tiers=("1m", "1h", "1d"),
        gap_fill="linear",
        store_points=True,
    )
    keep = [
        "conv_id",
        "tier",
        "bucket_ts",
        "n_points",
        "observation_count",
        "amplitude",
        "duration",
    ]
    return _finalize(
        ds.map_batches(lambda b: b.select(keep), batch_format="pyarrow")
    )


# mirrors stages/rollup.py: _bin_series (per-slot weighted mean, w=1 ->
# plain avg), _gap_fill 'linear' (fill = m0 + (off/den)*(m1-m0), frac
# FIRST; gaps > max_gap slots unfilled) at minute (max_fill_gap=2880)
# then hour (2880//60=48) level, then per-tier feature evaluation
SQL_ROLLUP_FULL_TIERS_SQL = f"""
WITH {_TM},
bins AS (SELECT conv_id, j, avg(m) AS bm FROM tm GROUP BY conv_id, j),
nx AS (
    SELECT conv_id, j, bm,
           lead(j)  OVER (PARTITION BY conv_id ORDER BY j) AS nj,
           lead(bm) OVER (PARTITION BY conv_id ORDER BY j) AS nbm
    FROM bins
),
gaps AS (
    SELECT conv_id, j, nj, bm, nbm,
           unnest(generate_series(j + 1, nj - 1)) AS s
    FROM nx WHERE nj IS NOT NULL AND nj - j - 1 BETWEEN 1 AND 2880
),
fm AS (
    SELECT conv_id, j AS s, bm AS fv FROM bins
    UNION ALL
    SELECT conv_id, s,
           bm + (CAST(s - j AS DOUBLE) / CAST(nj - j AS DOUBLE)) * (nbm - bm)
    FROM gaps
),
hb AS (SELECT conv_id, s // 60 AS h, avg(fv) AS hm FROM fm GROUP BY conv_id, s // 60),
nxh AS (
    SELECT conv_id, h, hm,
           lead(h)  OVER (PARTITION BY conv_id ORDER BY h) AS nh,
           lead(hm) OVER (PARTITION BY conv_id ORDER BY h) AS nhm
    FROM hb
),
gapsh AS (
    SELECT conv_id, h, nh, hm, nhm,
           unnest(generate_series(h + 1, nh - 1)) AS s
    FROM nxh WHERE nh IS NOT NULL AND nh - h - 1 BETWEEN 1 AND 48
),
fh AS (
    SELECT conv_id, h AS s, hm AS fv FROM hb
    UNION ALL
    SELECT conv_id, s,
           hm + (CAST(s - h AS DOUBLE) / CAST(nh - h AS DOUBLE)) * (nhm - hm)
    FROM gapsh
),
t1m AS (
    SELECT conv_id, '1m' AS tier,
           make_timestamp(j * 60 * 1000000) AS bucket_ts,
           count(*) AS n_points,
           CAST(count(*) AS DOUBLE) AS observation_count,
           round((max(m) - min(m)) / 2, 6) AS amplitude,
           round(max(t) - min(t), 6) AS duration
    FROM tm GROUP BY conv_id, j
),
t1h AS (
    -- engine evaluates the 1h tier on 1m bin CENTERS t = s*60 + 30,
    -- so duration = (max(s) - min(s)) * 60
    SELECT conv_id, '1h' AS tier,
           make_timestamp((s // 60) * 3600 * 1000000) AS bucket_ts,
           count(*) AS n_points,
           CAST(count(*) AS DOUBLE) AS observation_count,
           round((max(fv) - min(fv)) / 2, 6) AS amplitude,
           round(CAST((max(s) - min(s)) * 60 AS DOUBLE), 6) AS duration
    FROM fm GROUP BY conv_id, s // 60
),
t1d AS (
    -- 1d tier evaluates on 1h bin centers t = s*3600 + 1800
    SELECT conv_id, '1d' AS tier,
           make_timestamp((s // 24) * 86400 * 1000000) AS bucket_ts,
           count(*) AS n_points,
           CAST(count(*) AS DOUBLE) AS observation_count,
           round((max(fv) - min(fv)) / 2, 6) AS amplitude,
           round(CAST((max(s) - min(s)) * 3600 AS DOUBLE), 6) AS duration
    FROM fh GROUP BY conv_id, s // 24
)
SELECT * FROM t1m UNION ALL SELECT * FROM t1h UNION ALL SELECT * FROM t1d
"""


# ---------------------------------------------------------------------------
# streaming-shaped window operators over the raw events log
# ---------------------------------------------------------------------------


def q_events_sliding_window(sf_dir: str):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.windows import sliding_window_agg

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    )
    return _finalize(
        sliding_window_agg(ev, window_s=3600, slide_s=900),
        skip=("user_id", "window_start", "n"),
    )


SQL_EVENTS_SLIDING_WINDOW = """
WITH e AS (
    SELECT user_id, CAST(floor(epoch(ts)) AS BIGINT) AS t, value FROM events
),
x AS (
    SELECT user_id, value,
           unnest(generate_series((t - 3600)//900 + 1, t//900)) AS k
    FROM e
)
SELECT user_id, k*900 AS window_start,
       count(*) AS n,
       round(sum(value), 6) AS sum_value,
       round(avg(value), 6) AS mean_value
FROM x GROUP BY user_id, k
"""


def q_events_tumbling_window(sf_dir: str):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.windows import tumbling_window_agg

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    )
    return _finalize(
        tumbling_window_agg(ev, window_s=3600),
        skip=("user_id", "window_start", "n"),
    )


SQL_EVENTS_TUMBLING_WINDOW = """
WITH e AS (
    SELECT user_id, (CAST(floor(epoch(ts)) AS BIGINT)//3600)*3600 AS w, value
    FROM events
)
SELECT user_id, w AS window_start,
       count(value) AS n,
       round(sum(value), 6) AS sum_value,
       round(min(value), 6) AS min_value,
       round(max(value), 6) AS max_value,
       round(avg(value), 6) AS mean_value
FROM e GROUP BY user_id, w
"""


def q_events_rolling(sf_dir: str):
    """Per-key rolling-last-5-rows stats + lag/delta (pipelines/windows.py
    rolling_agg): one co-partitioning shuffle, then prefix-sum /
    window-view vectorized rolling aggregates per partition — the ROWS
    BETWEEN 4 PRECEDING window and LAG in a single pass."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.windows import rolling_agg

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"]
    )
    return _finalize(
        rolling_agg(ev, k=5),
        skip=("event_id", "user_id", "t_us", "rolling_n"),
    )


SQL_EVENTS_ROLLING = """
SELECT event_id, user_id, epoch_us(ts) AS t_us,
       count(value) OVER w AS rolling_n,
       round(sum(value) OVER w, 6) AS rolling_sum,
       round(avg(value) OVER w, 6) AS rolling_mean,
       round(min(value) OVER w, 6) AS rolling_min,
       round(max(value) OVER w, 6) AS rolling_max,
       round(lag(value) OVER o, 6) AS lag_value,
       round(value - lag(value) OVER o, 6) AS delta_value,
       CAST(epoch_us(ts) - lag(epoch_us(ts)) OVER o AS DOUBLE) AS delta_t_us
FROM events
WHERE ts IS NOT NULL AND user_id IS NOT NULL
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN 4 PRECEDING AND CURRENT ROW),
       o AS (PARTITION BY user_id ORDER BY ts, event_id)
"""


def q_events_user_trend(sf_dir: str):
    """Per-user OLS trend of value over time (pipelines/aggregates.py
    group_linear_trend): pure all-aggregate shape — block-local partial
    sums, one key-cardinality groupby-sum, vectorized normal-equation
    closed form; x is seconds from the global min timestamp (the
    conv_time epoch-offset lesson)."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.aggregates import (
        group_linear_trend,
    )

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    )
    return _finalize(group_linear_trend(ev), skip=("user_id", "n"))


SQL_EVENTS_USER_TREND = """
WITH m AS (SELECT min(epoch_us(ts)) AS x0 FROM events),
s AS (
    -- NULL-value rows are excluded from EVERY sum (the operator drops
    -- them before computing partials); note x0 is still the min over
    -- ALL rows, matching the operator's ds.min pre-pass
    SELECT user_id,
           count(*) AS n,
           sum((epoch_us(ts) - m.x0) / 1000000.0) AS sx,
           sum(value) AS sy,
           sum(((epoch_us(ts) - m.x0) / 1000000.0) * value) AS sxy,
           sum(((epoch_us(ts) - m.x0) / 1000000.0)
               * ((epoch_us(ts) - m.x0) / 1000000.0)) AS sxx
    FROM events CROSS JOIN m
    -- user_id IS NOT NULL mirrors the operator's NULL-key drop
    WHERE value IS NOT NULL AND ts IS NOT NULL AND user_id IS NOT NULL
    GROUP BY user_id
)
SELECT user_id, CAST(n AS BIGINT) AS n,
       round(CASE WHEN n >= 2 AND n*sxx - sx*sx > 0
             THEN (n*sxy - sx*sy) / (n*sxx - sx*sx) END, 6) AS slope,
       round(CASE WHEN n >= 2 AND n*sxx - sx*sx > 0
             THEN (sy - (n*sxy - sx*sy) / (n*sxx - sx*sx) * sx) / n
             END, 6) AS intercept
FROM s
"""


def q_lineitem_corr(sf_dir: str):
    """Per-returnflag Pearson correlation of quantity vs extended price
    (pipelines/aggregates.py group_corr): the relational corr() in pure
    all-aggregate shape (six partial sums per key, one groupby-sum,
    closed form)."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.aggregates import group_corr

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_extendedprice"],
    )
    return _finalize(
        group_corr(
            li,
            key_col="l_returnflag",
            x_col="l_quantity",
            y_col="l_extendedprice",
        ),
        skip=("l_returnflag", "n"),
    )


SQL_LINEITEM_CORR = """
WITH s AS (
    -- rows with a NULL on EITHER side are excluded from every sum
    -- (the operator's NULL-pair semantics)
    SELECT l_returnflag,
           count(*) AS n,
           sum(CAST(l_quantity AS DOUBLE)) AS sx,
           sum(CAST(l_extendedprice AS DOUBLE)) AS sy,
           sum(CAST(l_quantity AS DOUBLE) * l_extendedprice) AS sxy,
           sum(CAST(l_quantity AS DOUBLE) * l_quantity) AS sxx,
           sum(CAST(l_extendedprice AS DOUBLE) * l_extendedprice) AS syy
    FROM lineitem
    -- l_returnflag IS NOT NULL mirrors the operator's NULL-key drop
    WHERE l_quantity IS NOT NULL AND l_extendedprice IS NOT NULL
          AND l_returnflag IS NOT NULL
    GROUP BY l_returnflag
)
SELECT l_returnflag, CAST(n AS BIGINT) AS n,
       round(CASE WHEN n >= 2 AND n*sxx - sx*sx > 0 AND n*syy - sy*sy > 0
             THEN (n*sxy - sx*sy)
                  / sqrt((n*sxx - sx*sx) * (n*syy - sy*sy)) END, 6) AS corr
FROM s
"""


def q_events_zscore(sf_dir: str):
    """Per-user rolling z-score anomaly signal (pipelines/windows.py
    rolling_zscore): sample std over the last-5-rows window, same single
    co-partitioning shuffle + prefix-sum pass as rolling_agg."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.windows import rolling_zscore

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    return _finalize(
        rolling_zscore(ev, k=5), skip=("event_id", "user_id", "t_us", "n_w")
    )


SQL_EVENTS_ZSCORE = """
SELECT event_id, user_id, epoch_us(ts) AS t_us,
       round(value, 6) AS value,
       count(value) OVER w AS n_w,
       round(CASE WHEN count(value) OVER w >= 2
                   AND stddev_samp(value) OVER w > 0
                   AND value IS NOT NULL
             THEN (value - avg(value) OVER w) / (stddev_samp(value) OVER w)
             END, 6) AS zscore
FROM events
WHERE ts IS NOT NULL AND user_id IS NOT NULL
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)
"""


EWMA_ALPHA = 0.3


def q_events_ewma(sf_dir: str):
    """Per-user EWMA smoothing (pipelines/windows.py ewma): the
    adjust=False recurrence, one co-partitioning shuffle + one
    vectorized polars ewm_mean pass; the SQL twin re-derives the
    closed form (1-a)^t x_0 + sum a (1-a)^(t-j) x_j per row."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.windows import ewma

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    return _finalize(
        ewma(ev, alpha=EWMA_ALPHA), skip=("event_id", "user_id", "t_us")
    )


# the recursive CTE replays polars' exact float recurrence
# e_t = e_{t-1} + alpha*(x_t - e_{t-1}) step by step (same IEEE double
# sub/mul/add sequence), so the match is bit-level, not approximate.
# NULL rows are excluded from the recursion (they would poison every
# later step) and re-attached with NULL ewma — the operator's
# ignore_nulls semantics (null rows carry no weight, get NaN out).
SQL_EVENTS_EWMA = f"""
WITH RECURSIVE base AS (
    SELECT user_id, event_id, epoch_us(ts) AS t_us, value,
           row_number() OVER (PARTITION BY user_id
                              ORDER BY ts, event_id) - 1 AS rn
    FROM events
    WHERE value IS NOT NULL AND ts IS NOT NULL AND user_id IS NOT NULL
),
rec AS (
    SELECT user_id, event_id, t_us, value, rn, value AS e
    FROM base WHERE rn = 0
    UNION ALL
    SELECT b.user_id, b.event_id, b.t_us, b.value, b.rn,
           r.e + {EWMA_ALPHA} * (b.value - r.e)
    FROM base b JOIN rec r
      ON b.user_id = r.user_id AND b.rn = r.rn + 1
)
SELECT event_id, user_id, t_us, round(value, 6) AS value,
       round(e, 6) AS ewma
FROM rec
UNION ALL
SELECT event_id, user_id, epoch_us(ts) AS t_us, NULL AS value,
       NULL AS ewma
FROM events
WHERE value IS NULL AND ts IS NOT NULL AND user_id IS NOT NULL
"""


def q_events_sessions(sf_dir: str):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.windows import session_windows

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    )
    return _finalize(
        session_windows(ev, gap_s=1800),
        skip=("user_id", "session_idx", "session_start", "session_end", "n"),
    )


SQL_EVENTS_SESSIONS = """
WITH e AS (
    SELECT user_id, CAST(floor(epoch(ts)) AS BIGINT) AS t, value, event_id
    FROM events
),
d AS (
    SELECT *, CASE WHEN lag(t) OVER w IS NULL OR t - lag(t) OVER w > 1800
                   THEN 1 ELSE 0 END AS brk
    FROM e WINDOW w AS (PARTITION BY user_id ORDER BY t, event_id)
),
s AS (
    SELECT *, CAST(sum(brk) OVER (PARTITION BY user_id ORDER BY t, event_id
                                  ROWS UNBOUNDED PRECEDING) - 1 AS BIGINT)
              AS session_idx
    FROM d
)
SELECT user_id, session_idx,
       min(t) AS session_start, max(t) AS session_end,
       count(*) AS n, round(sum(value), 6) AS sum_value
FROM s GROUP BY user_id, session_idx
"""


# ---------------------------------------------------------------------------
# documents / embeddings queries
# ---------------------------------------------------------------------------


def _docs(sf_dir: str):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])


def q_doc_exact_dedup(sf_dir: str):
    from light_curve_feature_ray.pipelines.text import exact_dedup

    return exact_dedup(_docs(sf_dir))


SQL_DOC_EXACT_DEDUP = """
SELECT min(doc_id) AS doc_id, md5(text) AS text_md5
FROM documents GROUP BY md5(text)
"""


def q_doc_text_stats(sf_dir: str):
    from light_curve_feature_ray.pipelines.text import text_stats

    return _finalize(text_stats(_docs(sf_dir)), skip=("doc_id", "n_chars", "n_words"))


SQL_DOC_TEXT_STATS = rf"""
WITH w AS (
    -- coalesce mirrors the engine's fill_null('') total rule for NULL text
    SELECT doc_id, coalesce(text, '') AS text,
           CAST(coalesce(length(text), 0) AS BIGINT) AS n_chars,
           list_filter(string_split_regex(coalesce(text, ''), '\s+'),
                       x -> x <> '') AS words,
           length(regexp_replace(coalesce(text, ''), '\s', '', 'g')) AS non_space
    FROM documents
)
SELECT doc_id, n_chars,
       CAST(len(words) AS BIGINT) AS n_words,
       round(CASE WHEN len(words) > 0
             THEN CAST(non_space AS DOUBLE)/len(words) END, 6) AS avg_word_len,
       round(CASE WHEN len(words) > 0
             THEN CAST(len(list_filter(words, x -> lower(x) IN ({_STOP_LIST})))
                  AS DOUBLE)/len(words) END, 6) AS stop_ratio,
       round(CASE WHEN n_chars > 0
             THEN CAST(len(regexp_extract_all(text,
                  '[^0-9A-Za-z_ \t\n\r\f\v]')) AS DOUBLE)/n_chars
             END, 6) AS punct_ratio
FROM w
"""


def q_doc_lang_id(sf_dir: str):
    from light_curve_feature_ray.pipelines.text import lang_id

    return lang_id(_docs(sf_dir))


SQL_DOC_LANG_ID = rf"""
WITH w AS (
    SELECT doc_id,
           list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS words
    FROM documents
)
SELECT doc_id,
       CASE WHEN len(words) > 0 AND
                 CAST(len(list_filter(words, x -> lower(x) IN ({_STOP_LIST})))
                      AS DOUBLE)/len(words) >= 0.08
            THEN 'en' ELSE 'other' END AS lang_pred
FROM w
"""


def q_doc_token_count(sf_dir: str):
    from light_curve_feature_ray.pipelines.text import token_count

    return token_count(_docs(sf_dir))


SQL_DOC_TOKEN_COUNT = f"""
SELECT doc_id,
       CAST(len(regexp_extract_all(text, '{_TOKEN_REGEX}')) AS BIGINT) AS n_tokens
FROM documents
"""


def q_doc_fingerprint(sf_dir: str):
    from light_curve_feature_ray.pipelines.text import fingerprint

    return fingerprint(_docs(sf_dir))


SQL_DOC_FINGERPRINT = "SELECT doc_id, md5(text) AS fp FROM documents"


def q_doc_normalize(sf_dir: str):
    """Canonical text normalization (pipelines/text.py normalize_text):
    NFC + lowercase + whitespace collapse + trim, pure Arrow RE2 kernels
    byte-identical to the DuckDB spelling."""
    from light_curve_feature_ray.pipelines.text import normalize_text

    return normalize_text(_docs(sf_dir))


SQL_DOC_NORMALIZE = r"""
SELECT doc_id,
       trim(regexp_replace(lower(nfc_normalize(text)), '\s+', ' ', 'g'))
           AS norm_text
FROM documents
"""


def q_doc_top_terms(sf_dir: str):
    """Exact corpus top-20 vocabulary terms (pipelines/text.py
    top_terms): block-local tokenize + value_counts combiner, a
    vocabulary-sized groupby-sum shuffle, block-local top-k partials
    merged by one final task. Tie-break: ascending term."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.text import top_terms

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return top_terms(docs, k=20)


SQL_DOC_TOP_TERMS = f"""
WITH toks AS (
    SELECT unnest(regexp_extract_all(lower(text), '{_TOKEN_REGEX}')) AS term
    FROM documents
),
agg AS (
    SELECT term, CAST(count(*) AS BIGINT) AS cnt FROM toks GROUP BY term
)
SELECT term, cnt FROM agg ORDER BY cnt DESC, term LIMIT 20
"""


def q_doc_hash_sample(sf_dir: str):
    """Deterministic Bernoulli sample: keep the ~25% of documents whose
    Lehmer hash of doc_id (seed 7) falls below an integer threshold — the
    identical rows are kept at any parallelism / block layout / retry."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.sampling import hash_sample

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    return hash_sample(docs, rate=0.25, seed=7)


def _build_sql_doc_hash_sample() -> str:
    from light_curve_feature_ray.pipelines.sampling import (
        lehmer_sql,
        sample_threshold,
    )

    h = lehmer_sql("doc_id", seed=7)
    return f"""
SELECT doc_id, lang, {h} AS sample_h
FROM documents
WHERE {h} < {sample_threshold(0.25)}
"""


def q_doc_stratified_sample(sf_dir: str):
    """Per-language Bernoulli rates (en 60%, fr 30%, everything else 10%)
    with the same deterministic doc_id hash (seed 11)."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.sampling import (
        stratified_hash_sample,
    )

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    return stratified_hash_sample(
        docs, rates={"en": 0.6, "fr": 0.3}, group_col="lang",
        default_rate=0.1, seed=11,
    )


def _build_sql_doc_stratified_sample() -> str:
    from light_curve_feature_ray.pipelines.sampling import (
        lehmer_sql,
        sample_threshold,
    )

    h = lehmer_sql("doc_id", seed=11)
    return f"""
SELECT doc_id, lang
FROM documents
WHERE {h} < CASE lang WHEN 'en' THEN {sample_threshold(0.6)}
                      WHEN 'fr' THEN {sample_threshold(0.3)}
                      ELSE {sample_threshold(0.1)} END
"""


def q_doc_tfidf(sf_dir: str):
    """Per-document top-3 TF-IDF terms (pipelines/text.py
    tfidf_top_terms): df pass with block-local per-doc distinct combiner,
    vocabulary broadcast once via ray.put, vectorized per-batch scoring
    (polars group_by + join), exact per-doc top-k with term tie-break."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.text import tfidf_top_terms

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return _finalize(tfidf_top_terms(docs, k=3), skip=())


SQL_DOC_TFIDF = f"""
WITH toks AS (
    SELECT doc_id,
           unnest(regexp_extract_all(lower(text), '{_TOKEN_REGEX}')) AS term
    FROM documents
),
tf AS (
    SELECT doc_id, term, CAST(count(*) AS DOUBLE) AS tf
    FROM toks GROUP BY doc_id, term
),
df AS (
    SELECT term, count(DISTINCT doc_id) AS df FROM toks GROUP BY term
),
n AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM documents),
scored AS (
    SELECT tf.doc_id, tf.term, tf.tf * ln(n.n / df.df) AS score
    FROM tf JOIN df USING (term), n
),
ranked AS (
    SELECT doc_id, term, score,
           row_number() OVER (PARTITION BY doc_id
                              ORDER BY score DESC, term) AS rk
    FROM scored
)
SELECT doc_id, term, round(score, 6) AS score, rk
FROM ranked WHERE rk <= 3
"""


BM25_K1, BM25_B = 1.2, 0.75


def q_doc_bm25(sf_dir: str):
    """Per-document top-3 BM25 terms (pipelines/text.py bm25_top_terms):
    the Okapi/Lucene ranking function with length normalization — df
    table + corpus token total in ONE combiner pass (sentinel row),
    vocab/idf broadcast once via ray.put, vectorized polars scoring,
    exact per-doc top-k with term tie-break."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.text import bm25_top_terms

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return _finalize(
        bm25_top_terms(docs, k=3, k1=BM25_K1, b=BM25_B), skip=()
    )


SQL_DOC_BM25 = f"""
WITH toks AS (
    SELECT doc_id,
           unnest(regexp_extract_all(lower(coalesce(text, '')),
                  '{_TOKEN_REGEX}')) AS term
    FROM documents
),
tf AS (
    SELECT doc_id, term, CAST(count(*) AS DOUBLE) AS tf
    FROM toks GROUP BY doc_id, term
),
dl AS (
    SELECT doc_id, CAST(count(*) AS DOUBLE) AS dl FROM toks GROUP BY 1
),
df AS (
    SELECT term, CAST(count(DISTINCT doc_id) AS DOUBLE) AS df
    FROM toks GROUP BY term
),
n AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM documents),
ad AS (
    SELECT (SELECT CAST(count(*) AS DOUBLE) FROM toks) / n.n AS avgdl
    FROM n
),
scored AS (
    SELECT tf.doc_id, tf.term,
           ln((n.n - df.df + 0.5) / (df.df + 0.5) + 1)
             * (tf.tf * ({BM25_K1} + 1))
             / (tf.tf + {BM25_K1}
                * (1 - {BM25_B} + {BM25_B} * (dl.dl / ad.avgdl)))
               AS score
    FROM tf
    JOIN df USING (term)
    JOIN dl USING (doc_id), n, ad
),
ranked AS (
    SELECT doc_id, term, score,
           row_number() OVER (PARTITION BY doc_id
                              ORDER BY score DESC, term) AS rk
    FROM scored
)
SELECT doc_id, term, round(score, 6) AS score, rk
FROM ranked WHERE rk <= 3
"""


BM25_QUERY = "table scan merge"
BM25_TOP_N = 20


def q_doc_bm25_search(sf_dir: str):
    """BM25 retrieval against a fixed query string (pipelines/text.py
    bm25_search): one df+token-total corpus pass whose broadcast
    carries only the query terms' idf, per-block scoring, exact
    associative global top-n — the text-retrieval complement of the
    vector knn family."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.text import bm25_search

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return _finalize(
        bm25_search(
            docs, BM25_QUERY, top_n=BM25_TOP_N, k1=BM25_K1, b=BM25_B
        ),
        skip=("rank", "doc_id"),
    )


# shares the toks/tf/dl/df/n/ad CTE prefix with the per-doc BM25 twin
# (derived textually — lockstep rule), then sums over the query terms
_BM25_QT = ", ".join(f"('{t}')" for t in sorted(set(BM25_QUERY.split())))
SQL_DOC_BM25_SEARCH = (
    SQL_DOC_BM25.rsplit("scored AS (", 1)[0]
    + f"""qt(term) AS (VALUES {_BM25_QT}),
scored AS (
    SELECT tf.doc_id,
           sum(ln((n.n - df.df + 0.5) / (df.df + 0.5) + 1)
               * (tf.tf * ({BM25_K1} + 1))
               / (tf.tf + {BM25_K1}
                  * (1 - {BM25_B} + {BM25_B} * (dl.dl / ad.avgdl))))
               AS score
    FROM tf
    JOIN qt USING (term)
    JOIN df USING (term)
    JOIN dl USING (doc_id), n, ad
    GROUP BY tf.doc_id
),
ranked AS (
    SELECT doc_id, score,
           row_number() OVER (ORDER BY score DESC, doc_id) AS rank
    FROM scored
)
SELECT rank, doc_id, round(score, 6) AS score
FROM ranked WHERE rank <= {BM25_TOP_N}
"""
)


def q_doc_repetition(sf_dir: str):
    """Gopher-style repetition quality signals (pipelines/text.py
    repetition_stats): top-token / top-bigram fraction and duplicate-
    trigram fraction per document — block-local polars aggregates, no
    shuffle (Rae et al. 2021 table A1, adapted to flat word streams)."""
    from light_curve_feature_ray.pipelines.text import repetition_stats

    return _finalize(repetition_stats(_docs(sf_dir)), skip=())


SQL_DOC_REPETITION = rf"""
WITH w AS (
    SELECT doc_id,
           regexp_extract_all(lower(coalesce(text, '')), '{_TOKEN_REGEX}') AS toks
    FROM documents
), base AS (SELECT doc_id, toks, len(toks) AS n FROM w),
tok AS (
    SELECT doc_id, max(c) AS top_tok FROM (
        SELECT doc_id, t, count(*) AS c
        FROM base, unnest(toks) AS u(t) GROUP BY doc_id, t
    ) GROUP BY doc_id
), bg AS (
    SELECT doc_id, max(c) AS top_bg FROM (
        SELECT doc_id, g, count(*) AS c FROM (
            SELECT doc_id, unnest(list_transform(range(1, n),
                   i -> toks[i] || chr(31) || toks[i+1])) AS g
            FROM base WHERE n >= 2) GROUP BY doc_id, g
    ) GROUP BY doc_id
), tg AS (
    SELECT doc_id, count(DISTINCT g) AS d FROM (
        SELECT doc_id, unnest(list_transform(range(1, n-1),
               i -> toks[i] || chr(31) || toks[i+1] || chr(31) || toks[i+2])) AS g
        FROM base WHERE n >= 3) GROUP BY doc_id
)
SELECT b.doc_id, CAST(b.n AS BIGINT) AS n_tokens,
       round(CASE WHEN b.n > 0
             THEN CAST(tok.top_tok AS DOUBLE)/b.n END, 6) AS top_token_frac,
       round(CASE WHEN b.n >= 2
             THEN CAST(bg.top_bg AS DOUBLE)/(b.n-1) END, 6) AS top_bigram_frac,
       round(CASE WHEN b.n >= 3
             THEN 1.0 - CAST(tg.d AS DOUBLE)/(b.n-2) END, 6) AS dup_trigram_frac
FROM base b LEFT JOIN tok USING(doc_id) LEFT JOIN bg USING(doc_id)
            LEFT JOIN tg USING(doc_id)
"""


def q_lineitem_unpivot(sf_dir: str):
    """Wide -> long UNPIVOT (pipelines/pivot.py unpivot): each lineitem
    row explodes into one (name, value) row per measure column — the
    inverse of pivot_agg, a pure per-block 1->N map."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.pivot import unpivot

    cols = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]
    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber"] + cols,
    )
    return _finalize(
        unpivot(li, id_cols=["l_orderkey", "l_linenumber"], value_cols=cols),
        skip=(),
    )


_UNPIVOT_COLS = ("l_quantity", "l_extendedprice", "l_discount", "l_tax")
SQL_LINEITEM_UNPIVOT = "\nUNION ALL\n".join(
    f"SELECT l_orderkey, l_linenumber, '{c}' AS name,"
    f" round(CAST({c} AS DOUBLE), 6) AS value FROM lineitem"
    for c in _UNPIVOT_COLS
)


def q_events_last_state(sf_dir: str):
    """Latest state per user (pipelines/aggregates.py
    last_value_per_key): block-local last-per-key combiner, one tiny
    candidate shuffle, deterministic (ts, id) tie-break — the 'current
    snapshot' materialization of the event stream."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.aggregates import (
        last_value_per_key,
    )

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    return _finalize(
        last_value_per_key(ev), skip=("user_id", "t_us")
    )


SQL_EVENTS_LAST_STATE = """
WITH r AS (
    SELECT user_id, epoch_us(ts) AS t_us, value,
           row_number() OVER (PARTITION BY user_id
                              ORDER BY ts DESC, event_id DESC) AS rk
    FROM events WHERE ts IS NOT NULL AND user_id IS NOT NULL
)
SELECT user_id, t_us, round(value, 6) AS value
FROM r WHERE rk = 1
"""


def q_events_grouping_sets(sf_dir: str):
    """GROUP BY GROUPING SETS ((event_type), (user_id), ()) in one data
    pass (pipelines/aggregates.py grouping_sets_agg): every block emits
    the partials for all three sets, one combined groupby reduces them;
    grouping_id disambiguates aggregated-away keys SQL-style."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.aggregates import (
        grouping_sets_agg,
    )

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_type", "user_id", "value"],
    )
    return _finalize(
        grouping_sets_agg(
            ev, sets=[("event_type",), ("user_id",), ()], value_col="value"
        ),
        skip=("grouping_id", "n"),
    )


SQL_EVENTS_GROUPING_SETS = """
SELECT CAST(GROUPING(event_type)*2 + GROUPING(user_id) AS BIGINT)
           AS grouping_id,
       CASE WHEN GROUPING(event_type) = 0 THEN event_type END
           AS event_type,
       CASE WHEN GROUPING(user_id) = 0 THEN CAST(user_id AS VARCHAR) END
           AS user_id,
       CAST(count(value) AS BIGINT) AS n,
       round(sum(value), 6) AS sum_value
FROM events
GROUP BY GROUPING SETS ((event_type), (user_id), ())
"""


def q_events_running(sf_dir: str):
    """Per-user RUNNING aggregates (pipelines/windows.py running_agg):
    the UNBOUNDED PRECEDING frame — cumulative count/sum/max via
    segment-based prefix scans and a Cython groupby-cummax, one
    co-partitioning shuffle."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.windows import running_agg

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    return _finalize(
        running_agg(ev), skip=("event_id", "user_id", "t_us", "run_n")
    )


SQL_EVENTS_RUNNING = """
SELECT event_id, user_id, epoch_us(ts) AS t_us,
       round(value, 6) AS value,
       count(value) OVER o AS run_n,
       round(sum(value) OVER o, 6) AS run_sum,
       round(max(value) OVER o, 6) AS run_max
FROM events
WHERE ts IS NOT NULL AND user_id IS NOT NULL
WINDOW o AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
"""


def q_events_json_props(sf_dir: str):
    """JSON field extraction from the events.props string column
    (pipelines/text.py json_extract_fields): polars json_path_match +
    strict=False cast — NULL on malformed/missing, matching the SQL
    twin's json_extract_string + CAST."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.text import json_extract_fields

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "props"]
    )
    return json_extract_fields(
        ev,
        json_col="props",
        fields={"k": ("$.k", "int64")},
        id_cols=("event_id",),
    )


# the integer-regex guard pins DuckDB's TRY_CAST (which would round
# '1.5' to 2) to polars' strict integer parse ('^[+-]?[0-9]+$' -> NULL
# otherwise), so both sides yield NULL for non-integer JSON values
SQL_EVENTS_JSON_PROPS = r"""
WITH j AS (
    SELECT event_id,
           json_extract_string(
               CASE WHEN json_valid(props) THEN props END, '$.k') AS ks
    FROM events
)
SELECT event_id,
       TRY_CAST(CASE WHEN regexp_matches(ks, '^[+-]?[0-9]+$')
                THEN ks END AS BIGINT) AS k
FROM j
"""


def q_events_distinct_users(sf_dir: str):
    """Exact COUNT(DISTINCT user_id) per event type (pipelines/
    aggregates.py group_count_distinct): block-local distinct-pair
    combiner, pair-keyed dedup groupby, key-cardinality count — the
    exact twin of the HLL sketch query."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.aggregates import (
        group_count_distinct,
    )

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )
    return group_count_distinct(
        ev, key_col="event_type", value_col="user_id"
    )


SQL_EVENTS_DISTINCT_USERS = """
SELECT event_type, CAST(count(DISTINCT user_id) AS BIGINT) AS n_distinct
FROM events WHERE user_id IS NOT NULL AND event_type IS NOT NULL
GROUP BY event_type
"""


def q_events_mode(sf_dir: str):
    """Exact per-user MODE of event_type (pipelines/aggregates.py
    group_mode): block-local (key, value) pair-count combiner, one
    pair-keyed groupby-sum, then a key-hash repartition of the tiny
    pair table and a vectorized block argmax. Ties break to the
    lexicographically smallest value (deterministic at any
    parallelism, unlike DuckDB's arrival-order mode())."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.aggregates import group_mode

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    return group_mode(ev, key_col="user_id", value_col="event_type")


SQL_EVENTS_MODE = """
WITH c AS (
    SELECT user_id, event_type, CAST(count(*) AS BIGINT) AS cnt
    FROM events
    WHERE user_id IS NOT NULL AND event_type IS NOT NULL
    GROUP BY 1, 2
), r AS (
    SELECT user_id, event_type, cnt,
           row_number() OVER (
               PARTITION BY user_id ORDER BY cnt DESC, event_type ASC
           ) AS rn,
           CAST(count(*) OVER (PARTITION BY user_id) AS BIGINT) AS n_values
    FROM c
)
SELECT user_id, event_type AS mode_value, cnt AS mode_count, n_values
FROM r WHERE rn = 1
"""


_FUNNEL_STEPS = ("view", "click", "purchase")


def q_events_funnel(sf_dir: str):
    """Greedy earliest-completion funnel view->click->purchase per user
    (pipelines/windows.py funnel_steps): one key shuffle, then one
    masked minimum.reduceat per step — N vector ops where the SQL twin
    pays N-1 joins."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.windows import funnel_steps

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type"],
    )
    return funnel_steps(ev, steps=_FUNNEL_STEPS)


SQL_EVENTS_FUNNEL = f"""
WITH s1 AS (
    SELECT user_id, min(ts) AS t1 FROM events
    WHERE user_id IS NOT NULL AND ts IS NOT NULL
      AND event_type = '{_FUNNEL_STEPS[0]}'
    GROUP BY 1
), s2 AS (
    SELECT e.user_id, min(e.ts) AS t2 FROM events e JOIN s1 USING (user_id)
    WHERE e.event_type = '{_FUNNEL_STEPS[1]}' AND e.ts > s1.t1
    GROUP BY 1
), s3 AS (
    SELECT e.user_id, min(e.ts) AS t3 FROM events e JOIN s2 USING (user_id)
    WHERE e.event_type = '{_FUNNEL_STEPS[2]}' AND e.ts > s2.t2
    GROUP BY 1
), base AS (
    SELECT DISTINCT user_id FROM events
    WHERE user_id IS NOT NULL AND ts IS NOT NULL
)
SELECT b.user_id, s1.t1, s2.t2, s3.t3,
       CAST(CASE WHEN s3.t3 IS NOT NULL THEN 3
                 WHEN s2.t2 IS NOT NULL THEN 2
                 WHEN s1.t1 IS NOT NULL THEN 1
                 ELSE 0 END AS BIGINT) AS steps_completed
FROM base b
LEFT JOIN s1 USING (user_id)
LEFT JOIN s2 USING (user_id)
LEFT JOIN s3 USING (user_id)
"""


def q_events_state_intervals(sf_dir: str):
    """SCD-2 validity intervals per user (pipelines/windows.py
    state_intervals): each event's state holds from its timestamp to
    the key's next event — lead(ts) with a deterministic (ts, id)
    order; one key shuffle + one lexsort/shift per partition."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.windows import state_intervals

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"],
    )
    return state_intervals(ev)


SQL_EVENTS_STATE_INTERVALS = """
SELECT user_id, event_id, event_type AS state,
       ts AS valid_from,
       coalesce(
           lead(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id),
           TIMESTAMP '9999-12-31'
       ) AS valid_to,
       lead(ts) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
       ) IS NULL AS is_current
FROM events
WHERE ts IS NOT NULL AND user_id IS NOT NULL
"""


WEIGHTED_SAMPLE_K = 50


def q_doc_weighted_sample(sf_dir: str):
    """Efraimidis-Spirakis weighted sample without replacement
    (pipelines/sampling.py weighted_sample): k largest ln(u)/w keys
    with u from the SQL-reproducible Lehmer hash and w = n_chars;
    block top-k combiner + one k-bounded reduce, corpus never
    shuffles."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.sampling import weighted_sample

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    return _finalize(
        weighted_sample(
            docs, WEIGHTED_SAMPLE_K, weight_col="n_chars", seed=11
        ),
        skip=(),
    )


_QUOTA_MIX = {"en": 40, "de": 30, "zh": 20}


def q_doc_quota_sample(sf_dir: str):
    """Exact per-group quota sample — the data-mixing primitive
    (pipelines/sampling.py quota_sample): keep exactly quota_g rows per
    lang, the smallest Lehmer-hash ids; block-local top-quota combiner,
    one quota-bounded candidate shuffle, corpus never moves."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.sampling import quota_sample

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"]
    )
    return quota_sample(docs, _QUOTA_MIX, group_col="lang", seed=3)


def _sql_doc_quota_sample() -> str:
    from light_curve_feature_ray.pipelines.sampling import lehmer_sql

    values = ", ".join(f"('{g}', {q})" for g, q in _QUOTA_MIX.items())
    return f"""
WITH q(grp, quota) AS (VALUES {values}),
s AS (
    SELECT doc_id, lang, n_chars,
           {lehmer_sql('doc_id', seed=3)} AS sample_h
    FROM documents
), r AS (
    SELECT s.*, q.quota,
           row_number() OVER (
               PARTITION BY s.lang ORDER BY s.sample_h, s.doc_id
           ) AS rn
    FROM s JOIN q ON s.lang = q.grp
)
SELECT doc_id, lang, n_chars, sample_h FROM r WHERE rn <= quota
"""


def _sql_doc_weighted_sample() -> str:
    from light_curve_feature_ray.pipelines.sampling import (
        LEHMER_MOD,
        lehmer_sql,
    )

    return f"""
WITH s AS (
    SELECT doc_id, CAST(n_chars AS DOUBLE) AS w,
           {lehmer_sql('doc_id', seed=11)} AS h
    FROM documents
    WHERE doc_id IS NOT NULL AND n_chars > 0
), keyed AS (
    SELECT doc_id, w AS n_chars,
           ln((h + 1.0) / {LEHMER_MOD + 1}.0) / w AS es_key
    FROM s
)
SELECT doc_id, n_chars, round(es_key, 6) AS es_key
FROM keyed ORDER BY es_key DESC, doc_id ASC LIMIT {WEIGHTED_SAMPLE_K}
"""


def q_events_retention(sf_dir: str):
    """Cohort retention triangle (pipelines/aggregates.py
    retention_cohorts): day-floored first-seen cohorts x activity
    offsets; block-local DISTINCT (user, day) pair combiner, one
    key-hash exchange of the pair table, vectorized per-partition
    cohort-min + cell partials, cell-cardinality groupby-sum."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.aggregates import (
        retention_cohorts,
    )

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    return retention_cohorts(ev, key_col="user_id", ts_col="ts")


SQL_EVENTS_RETENTION = """
WITH ud AS (
    SELECT DISTINCT user_id, CAST(date_trunc('day', ts) AS TIMESTAMP) AS d
    FROM events WHERE user_id IS NOT NULL AND ts IS NOT NULL
), c AS (
    SELECT user_id, min(d) AS cohort FROM ud GROUP BY 1
)
SELECT c.cohort AS cohort,
       CAST((epoch_us(ud.d) - epoch_us(c.cohort)) // 86400000000 AS BIGINT)
           AS offset_periods,
       CAST(count(*) AS BIGINT) AS n_users
FROM ud JOIN c ON ud.user_id = c.user_id
GROUP BY 1, 2
"""


def q_events_percent_rank(sf_dir: str):
    """Global RANK / PERCENT_RANK / CUME_DIST over event value
    (pipelines/scan.py percent_rank_rows): two-phase range scan —
    bucket-count partials (driver holds <= num_buckets rows), one range
    exchange, per-bucket run-boundary rank assignment; tie runs never
    straddle buckets, divisions in the same IEEE doubles as DuckDB's
    window definitions."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.scan import percent_rank_rows

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "value"]
    )
    ranked = percent_rank_rows(
        ev, order_cols=["value"], id_col="event_id"
    )
    return _finalize(
        ranked.map_batches(
            lambda b: b.select(
                ["event_id", "rnk", "percent_rank", "cume_dist"]
            ),
            batch_format="pyarrow",
            batch_size=None,
        ),
        skip=(),
    )


SQL_EVENTS_PERCENT_RANK = """
SELECT event_id,
       CAST(rank() OVER (ORDER BY value) AS BIGINT) AS rnk,
       round(percent_rank() OVER (ORDER BY value), 6) AS percent_rank,
       round(cume_dist() OVER (ORDER BY value), 6) AS cume_dist
FROM events
"""


def q_events_top_types(sf_dir: str):
    """Exact per-user top-2 event types by frequency
    (pipelines/aggregates.py group_top_k): group_mode generalized to k
    rows per key — pair-count combiner, one pair groupby-sum, key-hash
    repartition of the pair table, vectorized per-segment head-k; ties
    (cnt DESC, value ASC), deterministic at any parallelism."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.aggregates import group_top_k

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    return group_top_k(
        ev, key_col="user_id", value_col="event_type", k=2
    )


SQL_EVENTS_TOP_TYPES = """
WITH c AS (
    SELECT user_id, event_type, CAST(count(*) AS BIGINT) AS cnt
    FROM events
    WHERE user_id IS NOT NULL AND event_type IS NOT NULL
    GROUP BY 1, 2
), r AS (
    SELECT user_id, event_type, cnt,
           row_number() OVER (
               PARTITION BY user_id ORDER BY cnt DESC, event_type ASC
           ) AS rn
    FROM c
)
SELECT user_id, event_type, cnt, CAST(rn AS BIGINT) AS rk
FROM r WHERE rn <= 2
"""


PMI_K = 100
PMI_MIN_COUNT = 10


def q_doc_pmi_bigrams(sf_dir: str):
    """Top-100 PMI collocations (pipelines/text.py pmi_bigrams): one
    tokenize pass emits unigram+bigram count partials into a single
    gram table (groupby-sum, materialized once); Tu/Tb via a tiny
    aggregate, unigram vocab broadcast once, bigram rows scored
    streaming with the literal ln(((c_ab*Tu)*Tu)/((c_a*c_b)*Tb))
    double expression the SQL twin replays."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.text import pmi_bigrams

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return _finalize(
        pmi_bigrams(docs, k=PMI_K, min_count=PMI_MIN_COUNT), skip=()
    )


SQL_DOC_PMI_BIGRAMS = f"""
WITH toks AS (
    SELECT regexp_extract_all(lower(text), '{_TOKEN_REGEX}') AS l
    FROM documents
),
ucnt AS (
    SELECT term, CAST(count(*) AS BIGINT) AS cnt
    FROM (SELECT unnest(l) AS term FROM toks) GROUP BY 1
),
tot AS (SELECT CAST(sum(cnt) AS DOUBLE) AS tu FROM ucnt),
bcnt AS (
    SELECT gram, CAST(count(*) AS BIGINT) AS cnt
    FROM (SELECT unnest(list_transform(range(2, len(l)+1),
                 i -> l[i-1] || ' ' || l[i])) AS gram FROM toks)
    GROUP BY 1
),
btot AS (SELECT CAST(sum(cnt) AS DOUBLE) AS tb FROM bcnt),
scored AS (
    SELECT split_part(b.gram, ' ', 1) AS term_a,
           split_part(b.gram, ' ', 2) AS term_b,
           b.cnt,
           ln(((CAST(b.cnt AS DOUBLE) * t.tu) * t.tu)
              / ((CAST(ua.cnt AS DOUBLE) * CAST(ub.cnt AS DOUBLE)) * bt.tb))
               AS pmi
    FROM bcnt b
    CROSS JOIN tot t
    CROSS JOIN btot bt
    JOIN ucnt ua ON ua.term = split_part(b.gram, ' ', 1)
    JOIN ucnt ub ON ub.term = split_part(b.gram, ' ', 2)
    WHERE b.cnt >= {PMI_MIN_COUNT}
)
SELECT term_a, term_b, cnt, round(pmi, 6) AS pmi FROM (
    SELECT * FROM scored ORDER BY pmi DESC, term_a, term_b LIMIT {PMI_K}
)
"""


def q_events_transitions(sf_dir: str):
    """Markov transition matrix of the event stream
    (pipelines/windows.py event_transitions): within-key adjacent
    (ts, id)-ordered state pairs — one key-hash exchange, per-partition
    lexsort + shifted-compare pair partials, global pair groupby-sum,
    tiny from_state repartition for the conditional probabilities."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.windows import event_transitions

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"],
    )
    return _finalize(event_transitions(ev), skip=())


SQL_EVENTS_TRANSITIONS = """
WITH seq AS (
    SELECT event_type AS from_state,
           lead(event_type) OVER (
               PARTITION BY user_id ORDER BY ts, event_id
           ) AS to_state
    FROM events
    WHERE user_id IS NOT NULL AND ts IS NOT NULL
      AND event_type IS NOT NULL
), pairs AS (
    SELECT from_state, to_state, CAST(count(*) AS BIGINT) AS cnt
    FROM seq WHERE to_state IS NOT NULL GROUP BY 1, 2
)
SELECT from_state, to_state, cnt,
       round(
           CAST(cnt AS DOUBLE)
           / CAST(sum(cnt) OVER (PARTITION BY from_state) AS DOUBLE),
           6
       ) AS p
FROM pairs
"""


def q_doc_char_entropy(sf_dir: str):
    """Per-document character-entropy quality signal
    (pipelines/text.py char_entropy): block-local UTF-32 decode +
    (doc, codepoint) lexsort + run-length reduceat — no shuffle; the
    -sum((c/n)*ln(c/n)) double expression is replayed literally by the
    SQL twin's per-(doc, char) groups."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.text import char_entropy

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return _finalize(char_entropy(docs), skip=())


SQL_DOC_CHAR_ENTROPY = """
WITH base AS (
    SELECT doc_id, text FROM documents
    WHERE text IS NOT NULL AND length(text) > 0
), chars AS (
    SELECT doc_id, unnest(regexp_extract_all(text, '(?s).')) AS ch
    FROM base
), cc AS (
    SELECT doc_id, ch, CAST(count(*) AS BIGINT) AS c
    FROM chars GROUP BY 1, 2
), nn AS (
    SELECT doc_id, CAST(sum(c) AS BIGINT) AS n FROM cc GROUP BY 1
)
SELECT cc.doc_id AS doc_id,
       min(nn.n) AS n_chars,
       CAST(count(*) AS BIGINT) AS distinct_chars,
       round(-sum((CAST(c AS DOUBLE) / CAST(nn.n AS DOUBLE))
                  * ln(CAST(c AS DOUBLE) / CAST(nn.n AS DOUBLE))), 6)
           AS char_entropy
FROM cc JOIN nn ON cc.doc_id = nn.doc_id
GROUP BY cc.doc_id
"""


def q_events_coverage(sf_dir: str):
    """Merged-interval coverage per user (pipelines/windows.py
    interval_coverage): each event opens [s, s + floor(abs(value))*60)
    seconds; overlapping/touching intervals merge via a per-partition
    segment-cummax (gaps-and-islands). Integer-exact, one key shuffle."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.windows import interval_coverage

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    )
    return interval_coverage(ev)


SQL_EVENTS_COVERAGE = """
WITH iv AS (
    SELECT user_id, CAST(floor(epoch(ts)) AS BIGINT) AS s,
           CAST(floor(epoch(ts)) AS BIGINT)
               + CAST(floor(abs(value)) AS BIGINT) * 60 AS e
    FROM events
    WHERE user_id IS NOT NULL AND ts IS NOT NULL AND value IS NOT NULL
), m AS (
    SELECT user_id, s, e,
           max(e) OVER (
               PARTITION BY user_id ORDER BY s, e
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
           ) AS prev_max
    FROM iv
), g AS (
    -- island break is STRICTLY s > prev_max: touching intervals merge
    -- (mirror of the kernel's new_island rule)
    SELECT user_id, s, e,
           CASE WHEN prev_max IS NULL OR s > prev_max THEN 1 ELSE 0 END
               AS new_island
    FROM m
), isl AS (
    SELECT user_id, s, e,
           sum(new_island) OVER (
               PARTITION BY user_id ORDER BY s, e
               ROWS UNBOUNDED PRECEDING
           ) AS island
    FROM g
), per_island AS (
    SELECT user_id, island, min(s) AS ist, max(e) AS ien
    FROM isl GROUP BY 1, 2
)
SELECT user_id,
       CAST(count(*) AS BIGINT) AS n_intervals,
       CAST(sum(ien - ist) AS BIGINT) AS covered_s,
       CAST(max(ien) - min(ist) AS BIGINT) AS span_s
FROM per_island GROUP BY 1
"""


THROTTLE_WINDOW_S = 3600


def q_events_throttle(sf_dir: str):
    """Rate-limit dedup (pipelines/windows.py throttle): first event per
    (user, type, hour window) with the deterministic (min ts, min id)
    pick; one key shuffle + vectorized first-of-group."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.windows import throttle

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "event_type", "ts", "value"],
    )
    return _finalize(
        throttle(ev, window_s=THROTTLE_WINDOW_S),
        skip=("event_id", "user_id", "event_type", "ts", "window_start"),
    )


SQL_EVENTS_THROTTLE = f"""
WITH w AS (
    SELECT event_id, user_id, event_type, ts, value,
           (CAST(floor(epoch(ts)) AS BIGINT) // {THROTTLE_WINDOW_S})
               * {THROTTLE_WINDOW_S} AS window_start,
           row_number() OVER (
               PARTITION BY user_id, event_type,
                   (CAST(floor(epoch(ts)) AS BIGINT) // {THROTTLE_WINDOW_S})
               ORDER BY ts, event_id
           ) AS rn
    FROM events
    WHERE ts IS NOT NULL AND user_id IS NOT NULL
      AND event_type IS NOT NULL
)
SELECT event_id, user_id, event_type, ts, round(value, 6) AS value,
       window_start
FROM w WHERE rn = 1
"""


NEW_USERS_PERIOD_S = 3600  # hourly: every testdata user first-appears on
# day 1, so a daily grain would collapse to one row and leave the
# running-total scan untested


def q_events_new_users(sf_dir: str):
    """Hourly new + cumulative distinct users (pipelines/aggregates.py
    first_seen_cumulative): per-key min-ts partials -> one key groupby
    -> period counts -> the two-phase ordered_prefix_sum running total.
    Integer-exact twin."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.aggregates import (
        first_seen_cumulative,
    )

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    return first_seen_cumulative(ev, period_s=NEW_USERS_PERIOD_S)


SQL_EVENTS_NEW_USERS = f"""
WITH f AS (
    SELECT user_id, min(CAST(floor(epoch(ts)) AS BIGINT)) AS first_s
    FROM events
    WHERE user_id IS NOT NULL AND ts IS NOT NULL
    GROUP BY 1
), d AS (
    SELECT (first_s // {NEW_USERS_PERIOD_S}) * {NEW_USERS_PERIOD_S}
               AS period_start,
           CAST(count(*) AS BIGINT) AS new_keys
    FROM f GROUP BY 1
)
SELECT period_start, new_keys,
       CAST(sum(new_keys) OVER (
           ORDER BY period_start ROWS UNBOUNDED PRECEDING
       ) AS BIGINT) AS cum_keys
FROM d
"""


CHI2_BUCKETS = 4


def q_events_chi2(sf_dir: str):
    """Chi-square-of-independence cells for event_type x (user_id % 4)
    (pipelines/aggregates.py chi2_crosstab): block count partials, one
    cell-cardinality groupby-sum, O(cells) finish. The (rt*ct)/n and
    d*d/exp doubles are replayed literally by the twin."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.aggregates import chi2_crosstab

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )
    return _finalize(
        chi2_crosstab(ev, num_buckets=CHI2_BUCKETS),
        skip=("event_type", "bucket", "obs"),
    )


SQL_EVENTS_CHI2 = f"""
WITH c AS (
    SELECT event_type,
           ((user_id % {CHI2_BUCKETS}) + {CHI2_BUCKETS}) % {CHI2_BUCKETS}
               AS bucket,
           CAST(count(*) AS BIGINT) AS obs
    FROM events
    WHERE event_type IS NOT NULL AND user_id IS NOT NULL
    GROUP BY 1, 2
), t AS (
    SELECT c.*,
           CAST(sum(obs) OVER (PARTITION BY event_type) AS DOUBLE) AS rt,
           CAST(sum(obs) OVER (PARTITION BY bucket) AS DOUBLE) AS ct,
           CAST(sum(obs) OVER () AS DOUBLE) AS tot
    FROM c
)
SELECT event_type, bucket, obs,
       round(rt * ct / tot, 6) AS expected,
       round((CAST(obs AS DOUBLE) - rt * ct / tot)
             * (CAST(obs AS DOUBLE) - rt * ct / tot)
             / (rt * ct / tot), 6) AS chi2_term
FROM t
"""


ZORDER_BITS = 16


def q_events_zorder(sf_dir: str):
    """Morton / Z-order layout key over (user_id, value)
    (pipelines/scan.py zorder_key): one tiny bounds aggregate, then a
    pure row-level bucket + bit-interleave map — the multi-dimensional
    clustering key a 100-TB Parquet layout sorts by.  The bucket doubles
    and the 16+16-bit interleave are replayed literally by the twin."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.scan import zorder_key

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "value"],
    )
    return zorder_key(
        ev,
        id_col="event_id",
        x_col="user_id",
        y_col="value",
        bits=ZORDER_BITS,
    )


def _build_sql_events_zorder() -> str:
    from light_curve_feature_ray.pipelines.scan import zorder_sql

    scale = float(1 << ZORDER_BITS)
    hi = scale - 1.0

    def bucket(col: str, mn: str, mx: str) -> str:
        return (
            f"CASE WHEN {mx} = {mn} THEN 0 ELSE CAST(least(greatest("
            f"floor((CAST({col} AS DOUBLE) - {mn}) * {scale!r} / ({mx} - {mn})),"
            f" 0.0), {hi!r}) AS BIGINT) END"
        )

    return f"""
WITH v AS (
    SELECT event_id, user_id, value FROM events
    WHERE event_id IS NOT NULL AND user_id IS NOT NULL
      AND value IS NOT NULL AND NOT isnan(value)
), mm AS (
    SELECT min(CAST(user_id AS DOUBLE)) AS xmn,
           max(CAST(user_id AS DOUBLE)) AS xmx,
           min(CAST(value AS DOUBLE)) AS ymn,
           max(CAST(value AS DOUBLE)) AS ymx
    FROM v
), b AS (
    SELECT event_id,
           {bucket("user_id", "xmn", "xmx")} AS xb,
           {bucket("value", "ymn", "ymx")} AS yb
    FROM v, mm
)
SELECT event_id, xb, yb, {zorder_sql("xb", "yb", ZORDER_BITS)} AS zkey
FROM b
"""


def q_events_ks_drift(sf_dir: str):
    """Exact two-sample Kolmogorov-Smirnov drift statistic per
    event_type (pipelines/quantiles.py ks_drift): Lehmer-parity A/B
    split of the rows, one key shuffle, vectorized per-partition ECDF
    kernel. The per-distinct-value ca/na - cb/nb doubles and the exact
    max are replayed literally by the twin."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.quantiles import ks_drift

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "value"],
    )
    return _finalize(ks_drift(ev), skip=("event_type", "n_a", "n_b"))


def _build_sql_events_ks_drift() -> str:
    from light_curve_feature_ray.pipelines.sampling import lehmer_sql

    return f"""
WITH s AS (
    SELECT event_type,
           CASE WHEN value = 0.0 THEN 0.0 ELSE value END AS value,
           CASE WHEN ({lehmer_sql("event_id")}) % 2 = 0 THEN 1 ELSE 0 END
               AS ia
    FROM events
    WHERE event_type IS NOT NULL AND event_id IS NOT NULL
      AND value IS NOT NULL AND NOT isnan(value)
), g AS (
    SELECT event_type, value,
           CAST(sum(ia) AS BIGINT) AS a_at,
           CAST(count(*) - sum(ia) AS BIGINT) AS b_at
    FROM s GROUP BY 1, 2
), w AS (
    SELECT event_type,
           sum(a_at) OVER (PARTITION BY event_type ORDER BY value
                           ROWS UNBOUNDED PRECEDING) AS ca,
           sum(b_at) OVER (PARTITION BY event_type ORDER BY value
                           ROWS UNBOUNDED PRECEDING) AS cb,
           sum(a_at) OVER (PARTITION BY event_type) AS na,
           sum(b_at) OVER (PARTITION BY event_type) AS nb
    FROM g
)
SELECT event_type,
       CAST(min(na) AS BIGINT) AS n_a,
       CAST(min(nb) AS BIGINT) AS n_b,
       round(max(abs(CAST(ca AS DOUBLE) / CAST(na AS DOUBLE)
                     - CAST(cb AS DOUBLE) / CAST(nb AS DOUBLE))), 6)
           AS ks_d
FROM w
GROUP BY 1
HAVING min(na) > 0 AND min(nb) > 0
"""


GHIST_BINS = 24


def q_events_type_histogram(sf_dir: str):
    """Faceted per-type histogram with shared global edges
    (pipelines/quantiles.py grouped_histogram): block-local (key, bin)
    count partials, one cell-cardinality groupby-sum; bin doubles
    identical to the global histogram twin."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.quantiles import grouped_histogram

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    return grouped_histogram(ev, "event_type", "value", bins=GHIST_BINS)


SQL_EVENTS_TYPE_HISTOGRAM = f"""
WITH p AS (SELECT min(value) AS lo, max(value) AS hi FROM events),
b AS (
    SELECT event_type,
           CAST(least(greatest(floor((value - p.lo)
               / ((p.hi - p.lo) / {GHIST_BINS})), 0), {GHIST_BINS} - 1)
           AS BIGINT) AS bin
    FROM events CROSS JOIN p
    WHERE value IS NOT NULL AND event_type IS NOT NULL
)
SELECT event_type, bin, CAST(count(*) AS BIGINT) AS n
FROM b GROUP BY event_type, bin
"""


def q_events_audience_overlap(sf_dir: str):
    """Pairwise audience overlap (jaccard + lift over distinct users)
    between event types (pipelines/aggregates.py audience_overlap):
    distinct (type, user) partials, one key-hash exchange with a
    triangular pair explosion bounded by |types|^2 per user, tagged
    tiny reduce. The jaccard / lift doubles are replayed literally."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.aggregates import audience_overlap

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    return _finalize(
        audience_overlap(ev),
        skip=("cat_a", "cat_b", "n_a", "n_b", "n_ab"),
    )


SQL_EVENTS_AUDIENCE_OVERLAP = """
WITH ut AS (
    SELECT DISTINCT event_type, user_id FROM events
    WHERE event_type IS NOT NULL AND user_id IS NOT NULL
), ca AS (
    SELECT event_type, CAST(count(*) AS BIGINT) AS n FROM ut GROUP BY 1
), tot AS (
    SELECT CAST(count(DISTINCT user_id) AS BIGINT) AS nu FROM ut
), pr AS (
    SELECT x.event_type AS cat_a, y.event_type AS cat_b,
           CAST(count(*) AS BIGINT) AS n_ab
    FROM ut x JOIN ut y
      ON x.user_id = y.user_id AND x.event_type < y.event_type
    GROUP BY 1, 2
)
SELECT pr.cat_a, pr.cat_b, a.n AS n_a, b.n AS n_b, pr.n_ab,
       round(CAST(pr.n_ab AS DOUBLE) / (a.n + b.n - pr.n_ab), 6)
           AS jaccard,
       round((CAST(pr.n_ab AS DOUBLE) * CAST(tot.nu AS DOUBLE))
             / (CAST(a.n AS DOUBLE) * CAST(b.n AS DOUBLE)), 6) AS lift
FROM pr
JOIN ca a ON a.event_type = pr.cat_a
JOIN ca b ON b.event_type = pr.cat_b
CROSS JOIN tot
"""


def q_events_conversion_latency(sf_dir: str):
    """Per-user first-view -> first-purchase conversion latency
    (pipelines/aggregates.py first_event_latency): block per-key min-ts
    partials per side, one key groupby-min, integer-microsecond exact
    finish — the pure all-aggregate funnel-latency signal."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.aggregates import (
        first_event_latency,
    )

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "ts"],
    )
    return first_event_latency(ev, from_type="view", to_type="purchase")


SQL_EVENTS_CONVERSION_LATENCY = """
WITH f AS (
    SELECT user_id, min(ts) AS from_ts FROM events
    WHERE user_id IS NOT NULL AND ts IS NOT NULL AND event_type = 'view'
    GROUP BY 1
), t AS (
    SELECT user_id, min(ts) AS to_ts FROM events
    WHERE user_id IS NOT NULL AND ts IS NOT NULL
      AND event_type = 'purchase'
    GROUP BY 1
)
SELECT f.user_id, f.from_ts, t.to_ts,
       CAST(epoch_us(t.to_ts) - epoch_us(f.from_ts) AS BIGINT)
           AS latency_us
FROM f JOIN t USING (user_id)
"""


TRIM_P_LO, TRIM_P_HI = 0.05, 0.95


def q_events_trimmed_mean(sf_dir: str):
    """Per-type trimmed mean (pipelines/quantiles.py
    grouped_trimmed_mean): the bit-parity grouped quantile band
    [p5, p95] broadcast once, then a pure filtered-sum combiner pass —
    the robust average the raw mean isn't."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.quantiles import (
        grouped_trimmed_mean,
    )

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    return _finalize(
        grouped_trimmed_mean(
            ev, "event_type", "value", p_lo=TRIM_P_LO, p_hi=TRIM_P_HI
        ),
        skip=("event_type", "n"),
    )


SQL_EVENTS_TRIMMED_MEAN = f"""
WITH q AS (
    SELECT event_type,
           quantile_cont(value, {TRIM_P_LO}) AS qlo,
           quantile_cont(value, {TRIM_P_HI}) AS qhi
    FROM events
    WHERE event_type IS NOT NULL AND value IS NOT NULL
      AND NOT isnan(value)
    GROUP BY 1
)
SELECT e.event_type, CAST(count(*) AS BIGINT) AS n,
       round(sum(e.value) / count(*), 6) AS trimmed_mean
FROM events e JOIN q USING (event_type)
WHERE e.value IS NOT NULL AND NOT isnan(e.value)
  AND e.value >= q.qlo AND e.value <= q.qhi
GROUP BY 1
"""


def q_events_twa(sf_dir: str):
    """Per-user time-weighted average value (pipelines/windows.py
    time_weighted_avg): one key-hash exchange, lexsort + diff +
    add.reduceat segment reduction — each value weighted by its
    holding time to the key's next event; duration telescopes to an
    integer-exact last-first span."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.windows import (
        time_weighted_avg,
    )

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    return _finalize(
        time_weighted_avg(ev, num_partitions=16),
        skip=("user_id", "duration_us", "n_holds"),
    )


SQL_EVENTS_TWA = """
WITH e AS (
    SELECT user_id, value, epoch_us(ts) AS t,
           lead(epoch_us(ts)) OVER (
               PARTITION BY user_id ORDER BY ts, event_id
           ) AS t_next
    FROM events
    WHERE user_id IS NOT NULL AND ts IS NOT NULL AND value IS NOT NULL
), h AS (
    SELECT user_id, value, t_next - t AS d
    FROM e WHERE t_next IS NOT NULL
)
SELECT user_id,
       round(sum(value * CAST(d AS DOUBLE)) / CAST(sum(d) AS DOUBLE), 6)
           AS twa,
       CAST(sum(d) AS BIGINT) AS duration_us,
       CAST(count(*) AS BIGINT) AS n_holds
FROM h GROUP BY 1 HAVING sum(d) > 0
"""


def q_events_lag_deltas(sf_dir: str):
    """Per-event lag features (pipelines/windows.py key_lag_deltas):
    value delta and elapsed time vs the same user's previous event —
    one key-hash exchange + shifted subtract, the delta-encoding /
    feature-engineering primitive. dt_us is integer-exact."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.windows import key_lag_deltas

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    return _finalize(
        key_lag_deltas(ev, num_partitions=16),
        skip=("event_id", "user_id", "dt_us"),
    )


SQL_EVENTS_LAG_DELTAS = """
WITH e AS (
    SELECT event_id, user_id, value, epoch_us(ts) AS t,
           lag(value) OVER w AS pv,
           lag(epoch_us(ts)) OVER w AS pt
    FROM events
    WHERE user_id IS NOT NULL AND ts IS NOT NULL AND value IS NOT NULL
    WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT event_id, user_id, round(value - pv, 6) AS dv,
       CAST(t - pt AS BIGINT) AS dt_us
FROM e WHERE pt IS NOT NULL
"""


HIST_BINS = 32


def q_events_value_histogram(sf_dir: str):
    """Fixed-bin histogram of event values (pipelines/quantiles.py
    histogram): block-local bincount partials + one bin-keyed
    groupby-sum; bin edges from the global min/max with identical
    double arithmetic on both sides."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.quantiles import histogram

    ev = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])
    return histogram(ev, "value", bins=HIST_BINS)


SQL_EVENTS_VALUE_HISTOGRAM = f"""
WITH p AS (SELECT min(value) AS lo, max(value) AS hi FROM events),
b AS (
    SELECT CAST(least(greatest(floor((value - p.lo)
               / ((p.hi - p.lo) / {HIST_BINS})), 0), {HIST_BINS} - 1)
           AS BIGINT) AS bin
    FROM events CROSS JOIN p WHERE value IS NOT NULL
)
SELECT bin, CAST(count(*) AS BIGINT) AS n FROM b GROUP BY bin
"""


QF_MIN_TOKENS, QF_MAX_TTF, QF_MAX_LM = 20, 0.12, 3.404


def q_doc_quality_filter(sf_dir: str):
    """Quality-filter composition: the Gopher repetition signal and the
    unigram-LM score streams JOIN on doc_id via the native hash-shuffle
    Dataset.join, then a vectorized threshold map decides keep/drop —
    the standard multi-signal curation gate, built purely by composing
    two existing oracle-green queries. Thresholds compare the round-6
    values (both sides round before comparing, so the decision is
    engine-independent)."""
    rep = q_doc_repetition(sf_dir).map_batches(
        lambda t: t.select(["doc_id", "n_tokens", "top_token_frac"]),
        batch_format="pyarrow",
        batch_size=None,
    )
    lm = q_doc_lm_score(sf_dir).map_batches(
        lambda t: t.select(["doc_id", "avg_neg_logprob"]),
        batch_format="pyarrow",
        batch_size=None,
    )
    j = rep.join(lm, "inner", 16, on=("doc_id",))

    def decide(t: pa.Table) -> pa.Table:
        n = t["n_tokens"].to_numpy(zero_copy_only=False)
        ttf = t["top_token_frac"].to_numpy(zero_copy_only=False)
        lp = t["avg_neg_logprob"].to_numpy(zero_copy_only=False)
        with np.errstate(invalid="ignore"):
            keep = (
                (n >= QF_MIN_TOKENS)
                & (np.nan_to_num(ttf, nan=np.inf) <= QF_MAX_TTF)
                & (np.nan_to_num(lp, nan=np.inf) <= QF_MAX_LM)
            )
        return t.append_column("keep", pa.array(keep))

    return j.map_batches(decide, batch_format="pyarrow", batch_size=None)


def _build_sql_doc_quality_filter() -> str:
    return f"""
WITH rep AS ({SQL_DOC_REPETITION}),
lm AS ({SQL_DOC_LM_SCORE})
SELECT rep.doc_id, rep.n_tokens, rep.top_token_frac, lm.avg_neg_logprob,
       (rep.n_tokens >= {QF_MIN_TOKENS}
        AND rep.top_token_frac <= {QF_MAX_TTF}
        AND lm.avg_neg_logprob <= {QF_MAX_LM}) AS keep
FROM rep JOIN lm ON rep.doc_id = lm.doc_id
"""


CHUNK_SIZE, CHUNK_OVERLAP = 120, 30


def q_doc_chunks(sf_dir: str):
    """Fixed-size character chunking with overlap (pipelines/text.py
    chunk_text): 1->N explode per document, codepoint boundaries matching
    SQL substring — the RAG / context-window prep step."""
    from light_curve_feature_ray.pipelines.text import chunk_text

    return chunk_text(_docs(sf_dir), size=CHUNK_SIZE, overlap=CHUNK_OVERLAP)


_STRIDE = CHUNK_SIZE - CHUNK_OVERLAP
SQL_DOC_CHUNKS = f"""
WITH b AS (SELECT doc_id, coalesce(text, '') AS t,
                  CAST(coalesce(length(text), 0) AS BIGINT) AS n
           FROM documents)
SELECT doc_id, CAST(u.ci AS BIGINT) AS chunk_idx,
       substring(t, CAST(u.ci*{_STRIDE} + 1 AS BIGINT), {CHUNK_SIZE}) AS chunk
FROM b, unnest(range(0, greatest(
    (n - {CHUNK_OVERLAP} + {_STRIDE - 1})//{_STRIDE}, 1))) AS u(ci)
"""

# n=4 fits the tiny synthetic vocabulary (docs are ~10-100 words over a
# ~30-word vocab, so real-world 8..13-gram windows almost never collide
# except on exact duplicates); the operator default stays n=8
DECONTAM_N = 4


def _docs_mod37(sf_dir: str, bench: bool):
    def f(t: pa.Table) -> pa.Table:
        m = t["doc_id"].to_numpy(zero_copy_only=False) % 37 == 0
        return t.filter(pa.array(m if bench else ~m))

    return _docs(sf_dir).map_batches(f, batch_format="pyarrow", batch_size=None)


def q_doc_decontaminate(sf_dir: str):
    """Benchmark n-gram decontamination (pipelines/text.py
    ngram_decontaminate): docs with doc_id % 37 == 0 play the held-out
    benchmark; every other doc is flagged iff it shares a word n-gram
    with any benchmark doc. Benchmark gram set broadcast once; the
    corpus side streams without a shuffle."""
    from light_curve_feature_ray.pipelines.text import ngram_decontaminate

    return ngram_decontaminate(
        _docs_mod37(sf_dir, False), _docs_mod37(sf_dir, True), n=DECONTAM_N
    )


SQL_DOC_DECONTAMINATE = rf"""
WITH toks AS (
    SELECT doc_id,
           regexp_extract_all(lower(coalesce(text, '')), '{_TOKEN_REGEX}') AS w
    FROM documents
),
bg AS (SELECT DISTINCT unnest(list_transform(range(1, len(w)-{DECONTAM_N}+2),
              i -> array_to_string(w[i:i+{DECONTAM_N - 1}], ' '))) AS g
       FROM toks WHERE doc_id % 37 = 0 AND len(w) >= {DECONTAM_N}),
cg AS (SELECT doc_id, unnest(list_transform(range(1, len(w)-{DECONTAM_N}+2),
              i -> array_to_string(w[i:i+{DECONTAM_N - 1}], ' '))) AS g
       FROM toks WHERE doc_id % 37 <> 0 AND len(w) >= {DECONTAM_N}),
hits AS (SELECT DISTINCT cg.doc_id FROM cg JOIN bg USING (g))
SELECT t.doc_id, (h.doc_id IS NOT NULL) AS contaminated
FROM toks t LEFT JOIN hits h ON t.doc_id = h.doc_id
WHERE t.doc_id % 37 <> 0
"""


def q_emb_group_centroid(sf_dir: str):
    """Per-label mean-pooled embedding centroids in long format
    (pipelines/similarity.py group_centroid): block-local reduceat
    partial sums, (label, dim) groupby-sum, vectorized divide."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.similarity import group_centroid

    emb = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"]
    )
    return _finalize(group_centroid(emb), skip=())


SQL_EMB_GROUP_CENTROID = """
WITH e AS (SELECT label, unnest(embedding) AS v,
                  unnest(range(0, len(embedding))) AS dim
           FROM embeddings)
SELECT label, CAST(dim AS BIGINT) AS dim,
       round(sum(CAST(v AS DOUBLE))/count(*), 6) AS centroid,
       CAST(count(*) AS BIGINT) AS n_vectors
FROM e GROUP BY label, dim
"""


def q_doc_lm_score(sf_dir: str):
    """Corpus unigram-LM quality score (pipelines/text.py lm_score):
    add-one-smoothed average negative token log-probability — the
    CCNet-style perplexity filter signal. Counts pass + broadcast LM +
    one vectorized scoring pass."""
    from light_curve_feature_ray.pipelines.text import lm_score

    return _finalize(lm_score(_docs(sf_dir)), skip=())


SQL_DOC_LM_SCORE = rf"""
WITH toks AS (
    SELECT doc_id,
           unnest(regexp_extract_all(lower(coalesce(text, '')),
                  '{_TOKEN_REGEX}')) AS term
    FROM documents
),
cnt AS (SELECT term, count(*) AS c FROM toks GROUP BY term),
tot AS (SELECT (SELECT count(*) FROM toks) AS t,
               (SELECT count(*) FROM cnt) AS v),
persum AS (
    SELECT tk.doc_id, sum(ln((cnt.c + 1.0) / (tot.t + tot.v))) AS lp
    FROM toks tk JOIN cnt USING (term) CROSS JOIN tot
    GROUP BY tk.doc_id
),
alldocs AS (
    SELECT doc_id,
           CAST(len(regexp_extract_all(lower(coalesce(text, '')),
                '{_TOKEN_REGEX}')) AS BIGINT) AS n
    FROM documents
)
SELECT a.doc_id, a.n AS n_tokens,
       round(CASE WHEN a.n > 0 THEN -p.lp / a.n END, 6) AS avg_neg_logprob
FROM alldocs a LEFT JOIN persum p USING (doc_id)
"""


def q_doc_dsir_weights(sf_dir: str):
    """DSIR importance weight per document (pipelines/text.py
    dsir_weights, Xie et al. 2023): sum over tokens of
    ln p_target - ln p_raw with add-one-smoothed unigram LMs (target =
    lang='en' docs, raw = whole corpus, shared corpus vocabulary). One
    counts pass producing both LMs, broadcast (term, log-ratio) table,
    one vectorized scoring pass."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.text import dsir_weights

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    return _finalize(
        dsir_weights(docs, target_col="lang", target_value="en"), skip=()
    )


SQL_DOC_DSIR_WEIGHTS = rf"""
WITH toks AS (
    SELECT doc_id, lang,
           unnest(regexp_extract_all(lower(coalesce(text, '')),
                  '{_TOKEN_REGEX}')) AS term
    FROM documents
),
cnt AS (
    SELECT term,
           CAST(count(*) AS BIGINT) AS c_raw,
           CAST(count(*) FILTER (WHERE coalesce(lang, '') = 'en')
                AS BIGINT) AS c_tgt
    FROM toks GROUP BY term
),
tot AS (SELECT (SELECT count(*) FROM toks) AS t_raw,
               (SELECT count(*) FROM toks
                WHERE coalesce(lang, '') = 'en') AS t_tgt,
               (SELECT count(*) FROM cnt) AS v),
persum AS (
    SELECT tk.doc_id,
           sum(ln((cnt.c_tgt + 1.0) / (tot.t_tgt + tot.v))
               - ln((cnt.c_raw + 1.0) / (tot.t_raw + tot.v))) AS lw
    FROM toks tk JOIN cnt USING (term) CROSS JOIN tot
    GROUP BY tk.doc_id
),
alldocs AS (
    SELECT doc_id,
           CAST(len(regexp_extract_all(lower(coalesce(text, '')),
                '{_TOKEN_REGEX}')) AS BIGINT) AS n
    FROM documents
)
SELECT a.doc_id, a.n AS n_tokens,
       round(coalesce(p.lw, 0.0), 6) AS log_importance
FROM alldocs a LEFT JOIN persum p USING (doc_id)
"""


def q_doc_boilerplate(sf_dir: str):
    """Cross-corpus boilerplate signal (pipelines/text.py
    boilerplate_score): fraction of each document's distinct word
    trigrams whose corpus document frequency is >= 2 — the
    across-documents complement of doc_repetition (CCNet shard-dedup as
    a score, Wenzek et al. 2020 §4.1). DF pass with block-local distinct
    combiner + one gram-keyed groupby; common grams broadcast once; the
    corpus itself never shuffles."""
    from light_curve_feature_ray.pipelines.text import boilerplate_score

    return _finalize(
        boilerplate_score(_docs(sf_dir), n=3, df_threshold=2), skip=()
    )


SQL_DOC_BOILERPLATE = rf"""
WITH w AS (
    SELECT doc_id,
           regexp_extract_all(lower(coalesce(text, '')), '{_TOKEN_REGEX}') AS toks
    FROM documents
), base AS (SELECT doc_id, toks, len(toks) AS n FROM w),
dg AS (
    SELECT DISTINCT doc_id, g FROM (
        SELECT doc_id, unnest(list_transform(range(1, n - 1),
               i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2])) AS g
        FROM base WHERE n >= 3)
), df AS (SELECT g, count(*) AS df FROM dg GROUP BY g),
per AS (
    SELECT dg.doc_id, count(*) AS nd,
           sum(CASE WHEN df.df >= 2 THEN 1 ELSE 0 END) AS nc
    FROM dg JOIN df USING (g) GROUP BY dg.doc_id
)
SELECT b.doc_id,
       CAST(coalesce(p.nd, 0) AS BIGINT) AS n_distinct_grams,
       CAST(coalesce(p.nc, 0) AS BIGINT) AS n_common_grams,
       round(CASE WHEN p.nd > 0
             THEN CAST(p.nc AS DOUBLE) / p.nd END, 6) AS common_gram_frac
FROM base b LEFT JOIN per p USING (doc_id)
"""


BLOOM_K, BLOOM_M_BITS, BLOOM_PRICE = 4, 1 << 15, 400000.0


def q_lineitem_bloom(sf_dir: str):
    """Bloom-filter semi-join (pipelines/sketches.py bloom_sketch /
    bloom_semi_join): build a 2^15-bit, k=4 Bloom over high-value order
    keys (bitwise-OR-mergeable partials, SQL-reproducible poly-hash bit
    positions), broadcast it once, and flag every distinct lineitem
    order key — no false negatives; the handful of false positives is
    deterministic and reproduced exactly by the DuckDB twin."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.sketches import (
        bloom_semi_join,
        bloom_sketch,
    )

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    )

    def high_value(t: pa.Table) -> pa.Table:
        m = t["o_totalprice"].to_numpy(zero_copy_only=False) > BLOOM_PRICE
        return t.filter(pa.array(m)).select(["o_orderkey"])

    hv = orders.map_batches(high_value, batch_format="pyarrow", batch_size=None)
    words = bloom_sketch(hv, "o_orderkey", k=BLOOM_K, m_bits=BLOOM_M_BITS)

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey"])
    keys = (
        li.groupby("l_orderkey")
        .count()
        .map_batches(
            lambda t: t.select(["l_orderkey"]),
            batch_format="pyarrow",
            batch_size=None,
        )
    )
    return bloom_semi_join(keys, "l_orderkey", words, k=BLOOM_K)


def _build_sql_lineitem_bloom() -> str:
    from light_curve_feature_ray.pipelines.sketches import (
        _BLOOM_ROWS,
        _POLY_MOD,
    )

    hv_chain = _poly_chain_sql("hv", "o_orderkey", "bh")
    pk_chain = _poly_chain_sql("pk", "l_orderkey", "ph", carry="l_orderkey")

    def pos(pre: str, j: int) -> str:
        a, b = _BLOOM_ROWS[j]
        return f"(({pre}.h * {a} + {b}) % {_POLY_MOD}) % {BLOOM_M_BITS}"

    bits_list = ", ".join(pos("bh3", j) for j in range(BLOOM_K))
    conds = " AND ".join(
        f"{pos('p', j)} IN (SELECT bit FROM bits)" for j in range(BLOOM_K)
    )
    return f"""
WITH hv AS (SELECT DISTINCT o_orderkey FROM orders
            WHERE o_totalprice > {BLOOM_PRICE}),
pk AS (SELECT DISTINCT l_orderkey FROM lineitem),{hv_chain},{pk_chain},
bits AS (SELECT DISTINCT unnest([{bits_list}]) AS bit FROM bh3)
SELECT p.l_orderkey, ({conds}) AS bloom_hit
FROM ph3 p
"""


SPLITS = {"train": 0.8, "val": 0.1, "test": 0.1}


def q_doc_split(sf_dir: str):
    """Deterministic disjoint train/val/test assignment (pipelines/
    sampling.py hash_split): Lehmer hash of doc_id bucketed by integer
    thresholds — pure map, identical labels at any parallelism/retry."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.sampling import hash_split

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    return hash_split(docs, SPLITS, seed=13)


def _build_sql_doc_split() -> str:
    from light_curve_feature_ray.pipelines.sampling import split_sql_case

    case = split_sql_case(SPLITS, "doc_id", seed=13)
    return f"SELECT doc_id, lang, {case} AS split FROM documents"


PACK_BUDGET = 512


def q_doc_pack(sf_dir: str):
    """GPT-style concat-and-chunk sequence packing (pipelines/scan.py):
    documents laid out in doc_id order and cut into fixed 512-token
    packs via the distributed two-phase prefix scan — pack_id/pack_offset
    are a pure function of the exclusive token prefix sum."""
    from light_curve_feature_ray.pipelines.scan import pack_sequences

    return pack_sequences(_docs(sf_dir), budget=PACK_BUDGET)


SQL_DOC_PACK = f"""
WITH tok AS (
    SELECT doc_id,
           CAST(len(regexp_extract_all(text, '{_TOKEN_REGEX}')) AS BIGINT)
               AS n_tokens
    FROM documents
), pre AS (
    SELECT doc_id, n_tokens,
           COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS p
    FROM tok
)
SELECT doc_id, n_tokens,
       CAST(p // {PACK_BUDGET} AS BIGINT) AS pack_id,
       CAST(p % {PACK_BUDGET} AS BIGINT) AS pack_offset
FROM pre
"""


def q_doc_shuffle(sf_dir: str):
    """Deterministic global training shuffle (pipelines/scan.py
    shuffle_rank): 0-based rank in (lehmer_hash(doc_id), doc_id) order
    via the distributed prefix scan in count mode — the identical
    permutation at any parallelism, reproducible by ROW_NUMBER in SQL."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.scan import shuffle_rank

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return shuffle_rank(docs, seed=7)


def _build_sql_doc_shuffle() -> str:
    from light_curve_feature_ray.pipelines.sampling import lehmer_sql

    return f"""
WITH h AS (
    SELECT doc_id, {lehmer_sql("doc_id", seed=7)} AS shuffle_h FROM documents
)
SELECT doc_id, shuffle_h,
       ROW_NUMBER() OVER (ORDER BY shuffle_h, doc_id) - 1 AS shuffle_rank
FROM h
"""


def q_doc_curation(sf_dir: str):
    """End-to-end corpus-curation FLAGSHIP: a pure composition of six
    engine operators — exact dedup (keep min doc_id per text) -> broadcast
    semi join (apply the keep-list without shuffling the corpus) ->
    lang-id filter (keep 'en') -> deterministic hash sample (60%) ->
    concat-and-chunk sequence packing (prefix scan, 256-token packs) ->
    train/val/test hash split. Every stage is individually oracle-checked
    elsewhere; this query checks their composition end to end."""
    from light_curve_feature_ray.pipelines.joins import broadcast_semi_join
    from light_curve_feature_ray.pipelines.sampling import (
        hash_sample,
        hash_split,
    )
    from light_curve_feature_ray.pipelines.scan import pack_sequences
    from light_curve_feature_ray.pipelines.text import exact_dedup, lang_id

    docs = _docs(sf_dir)
    kept = broadcast_semi_join(docs, exact_dedup(docs), left_on="doc_id")
    lang = lang_id(kept)
    en_ids = lang.map_batches(
        lambda b: b.filter(pc.equal(b["lang_pred"], "en")),
        batch_format="pyarrow",
        batch_size=None,
    )
    en_docs = broadcast_semi_join(kept, en_ids, left_on="doc_id")
    sampled = hash_sample(en_docs, 0.6, seed=21, hash_col=None)
    packed = pack_sequences(sampled, budget=256)
    return hash_split(packed, SPLITS, seed=5)


def _build_sql_doc_curation() -> str:
    from light_curve_feature_ray.pipelines.sampling import (
        lehmer_sql,
        sample_threshold,
        split_sql_case,
    )

    case = split_sql_case(SPLITS, "doc_id", seed=5)
    return rf"""
WITH keep AS (
    SELECT min(doc_id) AS doc_id FROM documents GROUP BY md5(text)
),
d AS (
    SELECT doc_id, text FROM documents
    WHERE doc_id IN (SELECT doc_id FROM keep)
),
w AS (
    SELECT doc_id,
           list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS words
    FROM d
),
en AS (
    SELECT d.doc_id, d.text
    FROM d JOIN w USING (doc_id)
    WHERE len(words) > 0 AND
          CAST(len(list_filter(words, x -> lower(x) IN ({_STOP_LIST})))
               AS DOUBLE)/len(words) >= 0.08
),
samp AS (
    SELECT * FROM en WHERE {lehmer_sql("doc_id", seed=21)}
                           < {sample_threshold(0.6)}
),
tok AS (
    SELECT doc_id,
           CAST(len(regexp_extract_all(text, '{_TOKEN_REGEX}')) AS BIGINT)
               AS n_tokens
    FROM samp
),
pre AS (
    SELECT doc_id, n_tokens,
           COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS p
    FROM tok
)
SELECT doc_id, n_tokens, CAST(p // 256 AS BIGINT) AS pack_id,
       CAST(p % 256 AS BIGINT) AS pack_offset,
       {case} AS split
FROM pre
"""


def q_doc_top_k_per_lang(sf_dir: str):
    """Exact longest-5-documents-per-language curation: block-local top-k
    combiner, one hash shuffle on lang, vectorized per-partition reduce
    emitting a dense 1-based rank (ties by ascending doc_id)."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.sampling import top_k_per_group

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"]
    )
    return top_k_per_group(
        docs, group_col="lang", score_col="n_chars", k=5,
        tiebreak_col="doc_id",
    )


SQL_DOC_TOP_K_PER_LANG = """
SELECT doc_id, lang, n_chars, rk FROM (
    SELECT doc_id, lang, n_chars,
           row_number() OVER (PARTITION BY lang
                              ORDER BY n_chars DESC, doc_id) AS rk
    FROM documents
) WHERE rk <= 5
"""


SQL_DOC_DEDUP_GROUPS = r"""
WITH RECURSIVE w AS (
    SELECT doc_id,
           list_filter(string_split_regex(lower(text), '\s+'), x -> x <> '') AS ws
    FROM documents
),
g0 AS (
    SELECT doc_id,
           CASE WHEN len(ws) >= 5 THEN
               list_distinct([array_to_string(ws[i:i+4], ' ')
                              for i in range(1, len(ws) - 3)])
           WHEN len(ws) > 0 THEN [array_to_string(ws, ' ')]
           ELSE [''] END AS grams
    FROM w
),
g AS (SELECT doc_id, unnest(grams) AS gram, len(grams) AS n_grams FROM g0),
df AS (SELECT gram FROM g GROUP BY gram HAVING count(*) BETWEEN 2 AND 100),
p AS (
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
           a.n_grams AS na, b.n_grams AS nb
    FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id
    JOIN df ON df.gram = a.gram
),
c AS (
    SELECT doc_a, doc_b, any_value(na) AS na, any_value(nb) AS nb,
           count(*) AS co
    FROM p GROUP BY doc_a, doc_b
),
prs AS (
    SELECT doc_a, doc_b FROM c
    WHERE CAST(co AS DOUBLE)/(na + nb - co) >= 0.3
),
edges AS (
    SELECT doc_a AS u, doc_b AS v FROM prs
    UNION ALL SELECT doc_b, doc_a FROM prs
),
reach(u, v) AS (
    SELECT u, u FROM (SELECT DISTINCT u FROM edges)
    UNION
    SELECT e.u, r.v FROM edges e JOIN reach r ON e.v = r.u
)
SELECT u AS doc_id, min(v) AS rep_id, (u = min(v)) AS keep
FROM reach GROUP BY u
"""


# the triangle twin replays the IDENTICAL candidate-pair CTE chain as
# the dedup-groups twin (derived textually so blocking changes stay in
# lockstep — the _minhash_cand_sql rule), then closes wedges with the
# ordered 3-way self-join
_NGRAM_PAIR_CTE = (
    SQL_DOC_DEDUP_GROUPS.split("edges AS (")[0]
    .rstrip()
    .rstrip(",")
    .replace("WITH RECURSIVE", "WITH")
)

SQL_DOC_TRIANGLES = (
    _NGRAM_PAIR_CTE
    + """,
tr AS (
    SELECT e1.doc_a AS a, e1.doc_b AS b, e2.doc_b AS c
    FROM prs e1
    JOIN prs e2 ON e2.doc_a = e1.doc_a AND e2.doc_b > e1.doc_b
    JOIN prs e3 ON e3.doc_a = e1.doc_b AND e3.doc_b = e2.doc_b
),
tri AS (
    SELECT node, CAST(count(*) AS BIGINT) AS n_triangles FROM (
        SELECT a AS node FROM tr
        UNION ALL SELECT b FROM tr
        UNION ALL SELECT c FROM tr
    ) GROUP BY 1
),
deg AS (
    SELECT node, CAST(count(*) AS BIGINT) AS degree FROM (
        SELECT doc_a AS node FROM prs
        UNION ALL SELECT doc_b FROM prs
    ) GROUP BY 1
)
SELECT deg.node, deg.degree,
       coalesce(tri.n_triangles, 0) AS n_triangles
FROM deg LEFT JOIN tri USING (node)
"""
)


def q_doc_triangles(sf_dir: str):
    """Per-node triangle participation + distinct-neighbour degree over
    the exact n-gram Jaccard near-dup graph (pipelines/graph.py
    triangle_counts): the two-round wedge join — edges co-located by
    lower vertex (globally exact local distinct), _segment_pairs wedge
    explosion, dictionary-encoded closure membership, one final node
    groupby-sum. The cohesion signal separating clique-like dup
    families from chains of borderline matches."""
    from light_curve_feature_ray.pipelines.graph import triangle_counts
    from light_curve_feature_ray.pipelines.text import ngram_jaccard_dups

    pairs = ngram_jaccard_dups(_docs(sf_dir), k=5, threshold=0.3, max_df=100)
    return triangle_counts(pairs)


PR_D, PR_ITERS = 0.85, 3


def _pr_rounds_sql(iters: int) -> str:
    rounds = []
    for i in range(1, iters + 1):
        rounds.append(
            f"""r{i} AS (
    SELECT e.v AS node,
           (1 - {PR_D}) / n.n + {PR_D} * sum(r{i - 1}.r / deg.od) AS r
    FROM edges e JOIN r{i - 1} ON r{i - 1}.node = e.u
    JOIN deg USING (u), n
    GROUP BY e.v, n.n
)"""
        )
    return ",\n".join(rounds)


# the pagerank twin shares the SAME textually-derived pair CTE as the
# triangle twin, doubles each pair to two directed edges, and unrolls
# exactly PR_ITERS synchronous power steps — every arithmetic
# expression replayed literally from pipelines/graph.py
# pagerank_undirected (change both or none)
SQL_DOC_PAGERANK = (
    _NGRAM_PAIR_CTE
    + f""",
edges AS (
    SELECT DISTINCT u, v FROM (
        SELECT doc_a AS u, doc_b AS v FROM prs
        UNION ALL SELECT doc_b AS u, doc_a AS v FROM prs
    )
),
deg AS (SELECT u, CAST(count(*) AS DOUBLE) AS od FROM edges GROUP BY 1),
n AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM deg),
r0 AS (SELECT u AS node, 1 / n.n AS r FROM deg, n),
"""
    + _pr_rounds_sql(PR_ITERS)
    + f"""
SELECT node, round(r, 6) AS pagerank FROM r{PR_ITERS}
"""
)


def q_doc_pagerank(sf_dir: str):
    """Fixed-iteration PageRank over the exact n-gram Jaccard near-dup
    graph (pipelines/graph.py pagerank_undirected): directed edges
    co-located by source once (exact local distinct + out-degree), one
    tagged co-partitioning exchange per power step, node-keyed
    groupby-sum, vectorized teleport finish — which document anchors
    its near-dup family."""
    from light_curve_feature_ray.pipelines.graph import pagerank_undirected
    from light_curve_feature_ray.pipelines.text import ngram_jaccard_dups

    pairs = ngram_jaccard_dups(_docs(sf_dir), k=5, threshold=0.3, max_df=100)
    return _finalize(
        pagerank_undirected(pairs, damping=PR_D, iters=PR_ITERS),
        skip=("node",),
    )


def q_doc_redact(sf_dir: str):
    """PII-style scrubbing (emails/URLs/long digit runs -> placeholders);
    compared via md5 of the cleaned text (RE2-compatible patterns, so
    DuckDB applies the identical substitutions)."""
    from light_curve_feature_ray.pipelines.text import redact

    ds = redact(_docs(sf_dir))

    def digest(b: pd.DataFrame) -> pd.DataFrame:
        import hashlib

        return pd.DataFrame(
            {
                "doc_id": b["doc_id"],
                "clean_md5": b["clean_text"].map(
                    lambda t: hashlib.md5(t.encode()).hexdigest()
                ),
                "n_redactions": b["n_redactions"],
            }
        )

    import pandas as pd

    return ds.map_batches(digest, batch_format="pandas", batch_size=None)


SQL_DOC_REDACT = r"""
WITH r AS (
    SELECT doc_id, text,
           regexp_replace(text,
               '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
               '<EMAIL>', 'g') AS s1
    FROM documents
),
r2 AS (
    SELECT doc_id, text, s1,
           regexp_replace(s1, 'https?://[^\s]+', '<URL>', 'g') AS s2
    FROM r
)
SELECT doc_id,
       md5(regexp_replace(s2, '\b[0-9]{6,}\b', '<NUM>', 'g')) AS clean_md5,
       CAST(len(regexp_extract_all(text,
           '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')) AS BIGINT)
       + CAST(len(regexp_extract_all(s1, 'https?://[^\s]+')) AS BIGINT)
       + CAST(len(regexp_extract_all(s2, '\b[0-9]{6,}\b')) AS BIGINT)
       AS n_redactions
FROM r2
"""


def q_doc_ngram_jaccard(sf_dir: str):
    """EXACT word-5-gram Jaccard near-dup pairs (inverted pair counting;
    deterministic complement of the approximate minhash path)."""
    from light_curve_feature_ray.pipelines.text import ngram_jaccard_dups

    return _finalize(
        ngram_jaccard_dups(_docs(sf_dir), k=5, threshold=0.3, max_df=100),
        skip=("doc_a", "doc_b"),
    )


def q_doc_dedup_groups(sf_dir: str):
    """Corpus-dedup decision table: connected components (min-label
    propagation, pipelines/graph.py) over the exact n-gram Jaccard
    near-dup pairs — (doc_id, rep_id, keep) with keep = is-representative.
    Oracled by a DuckDB recursive CTE over the identical pair set."""
    from light_curve_feature_ray.pipelines.graph import dedup_keep_representatives
    from light_curve_feature_ray.pipelines.text import ngram_jaccard_dups

    pairs = ngram_jaccard_dups(_docs(sf_dir), k=5, threshold=0.3, max_df=100)
    ds = dedup_keep_representatives(pairs)

    def cast_cols(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].astype("int64"),
                "rep_id": b["rep_id"].astype("int64"),
                "keep": b["keep"].astype(bool),
            }
        )

    import pandas as pd

    return ds.map_batches(cast_cols, batch_format="pandas", batch_size=None)


def q_doc_canonical(sf_dir: str):
    """Canonical-document selection: dedup clusters (connected components
    over n-gram Jaccard pairs) -> native hash join to each doc's quality
    (n_chars) -> exact top-1 per cluster (top_k_per_group) — keep the
    BEST document per near-dup cluster, not merely the min-id one. Pure
    composition of three existing operators."""
    from light_curve_feature_ray.pipelines.graph import (
        dedup_keep_representatives,
    )
    from light_curve_feature_ray.pipelines.sampling import top_k_per_group
    from light_curve_feature_ray.pipelines.text import ngram_jaccard_dups

    import pandas as pd
    import ray.data as rd

    pairs = ngram_jaccard_dups(_docs(sf_dir), k=5, threshold=0.3, max_df=100)
    comps = dedup_keep_representatives(pairs).map_batches(
        lambda b: pd.DataFrame(
            {
                "doc_id": b["doc_id"].astype("int64"),
                "rep_id": b["rep_id"].astype("int64"),
            }
        ),
        batch_format="pandas",
        batch_size=None,
    )
    quality = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    joined = comps.join(quality, "inner", 8, on=("doc_id",))
    return top_k_per_group(
        joined, group_col="rep_id", score_col="n_chars", k=1,
        tiebreak_col="doc_id",
    )


def _build_sql_doc_canonical() -> str:
    return f"""
SELECT doc_id, rep_id, n_chars, rk FROM (
    SELECT c.doc_id, c.rep_id, d.n_chars,
           row_number() OVER (PARTITION BY c.rep_id
                              ORDER BY d.n_chars DESC, c.doc_id) AS rk
    FROM ({SQL_DOC_DEDUP_GROUPS}) c JOIN documents d USING (doc_id)
) WHERE rk = 1
"""


SQL_DOC_NGRAM_JACCARD = r"""
WITH w AS (
    SELECT doc_id,
           list_filter(string_split_regex(lower(text), '\s+'), x -> x <> '') AS ws
    FROM documents
),
g0 AS (
    SELECT doc_id,
           CASE WHEN len(ws) >= 5 THEN
               list_distinct([array_to_string(ws[i:i+4], ' ')
                              for i in range(1, len(ws) - 3)])
           WHEN len(ws) > 0 THEN [array_to_string(ws, ' ')]
           ELSE [''] END AS grams
    FROM w
),
g AS (SELECT doc_id, unnest(grams) AS gram, len(grams) AS n_grams FROM g0),
df AS (SELECT gram FROM g GROUP BY gram HAVING count(*) BETWEEN 2 AND 100),
p AS (
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
           a.n_grams AS na, b.n_grams AS nb
    FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id
    JOIN df ON df.gram = a.gram
),
c AS (
    SELECT doc_a, doc_b, any_value(na) AS na, any_value(nb) AS nb,
           count(*) AS co
    FROM p GROUP BY doc_a, doc_b
)
SELECT doc_a, doc_b,
       round(CAST(co AS DOUBLE)/(na + nb - co), 6) AS jaccard
FROM c WHERE CAST(co AS DOUBLE)/(na + nb - co) >= 0.3
"""


def q_doc_containment(sf_dir: str):
    """Asymmetric n-gram containment near-dups (pipelines/text.py
    ngram_containment_dups): co / min(na, nb) over the SAME shared
    candidate stage as the Jaccard path — catches a short document
    quoted inside a long one, which Jaccard structurally misses."""
    from light_curve_feature_ray.pipelines.text import (
        ngram_containment_dups,
    )

    return _finalize(
        ngram_containment_dups(_docs(sf_dir), k=5, threshold=0.6, max_df=100),
        skip=("doc_a", "doc_b"),
    )


# same CTE chain as the jaccard twin up to the counted pairs (lockstep
# with _ngram_counted_pairs), asymmetric containment finish
SQL_DOC_CONTAINMENT = (
    SQL_DOC_NGRAM_JACCARD.rsplit("\nSELECT doc_a, doc_b,", 1)[0]
    + """
SELECT doc_a, doc_b,
       round(CAST(co AS DOUBLE)/least(na, nb), 6) AS containment
FROM c WHERE CAST(co AS DOUBLE)/least(na, nb) >= 0.6
"""
)


def q_doc_diff(sf_dir: str):
    """Snapshot diff / CDC (pipelines/joins.py table_diff): two
    deterministic "versions" of the documents table (v1 drops doc_id %
    7 == 0; v2 drops % 5 == 0 and bumps n_chars on % 3 == 0) diffed on
    doc_id — added/removed/changed rows only, one co-partitioning
    exchange, per-partition searchsorted alignment."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.joins import table_diff

    def v1(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["doc_id"] % 7 != 0]
        return b[["doc_id", "n_chars"]]

    def v2(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["doc_id"] % 5 != 0].copy()
        b["n_chars"] = b["n_chars"] + (b["doc_id"] % 3 == 0).astype(
            "int64"
        )
        return b[["doc_id", "n_chars"]]

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    left = docs.map_batches(v1, batch_format="pandas", batch_size=None)
    right = docs.map_batches(v2, batch_format="pandas", batch_size=None)
    diff = table_diff(
        left, right, key_col="doc_id", compare_cols=["n_chars"]
    )

    # the driver's value hash can't carry nullable ints: ship the
    # compared values as DOUBLE, absent side NaN -> Arrow NULL via
    # _finalize (parity with the twin's CAST(... AS DOUBLE) = SQL NULL)
    def as_double(b):
        b = b.copy()
        b["l_n_chars"] = b["l_n_chars"].astype("float64")
        b["r_n_chars"] = b["r_n_chars"].astype("float64")
        return b

    return _finalize(
        diff.map_batches(as_double, batch_format="pandas", batch_size=None),
        skip=("doc_id", "status"),
    )


SQL_DOC_DIFF = """
WITH l AS (
    SELECT doc_id, n_chars FROM documents WHERE doc_id % 7 <> 0
),
r AS (
    SELECT doc_id,
           n_chars + CASE WHEN doc_id % 3 = 0 THEN 1 ELSE 0 END
               AS n_chars
    FROM documents WHERE doc_id % 5 <> 0
)
SELECT coalesce(l.doc_id, r.doc_id) AS doc_id,
       CASE WHEN l.doc_id IS NULL THEN 'added'
            WHEN r.doc_id IS NULL THEN 'removed'
            ELSE 'changed' END AS status,
       CAST(l.n_chars AS DOUBLE) AS l_n_chars,
       CAST(r.n_chars AS DOUBLE) AS r_n_chars
FROM l FULL OUTER JOIN r ON l.doc_id = r.doc_id
WHERE l.doc_id IS NULL OR r.doc_id IS NULL
   OR l.n_chars IS DISTINCT FROM r.n_chars
"""


def q_doc_winnow(sf_dir: str):
    """Winnowing fingerprints (Schleimer et al. 2003), k=5 char grams,
    window 4; rolling hash uses exact sub-2^53 integer arithmetic so the
    SQL oracle reproduces it bit-for-bit."""
    from light_curve_feature_ray.pipelines.text import winnow_fingerprints

    return _finalize(
        winnow_fingerprints(_docs(sf_dir), k=5, w=4),
        skip=("doc_id", "n_fp"),
    )


SQL_DOC_WINNOW = """
WITH c AS (
    SELECT doc_id,
           list_transform(regexp_extract_all(text, '(?s).'),
                          ch -> unicode(ch)) AS cps
    FROM documents
),
h AS (
    SELECT doc_id,
           CASE
               WHEN len(cps) = 0 THEN CAST([] AS BIGINT[])
               WHEN len(cps) < 5 THEN
                   [list_reduce(list_prepend(CAST(0 AS BIGINT), cps),
                                (a, x) -> (a*31 + x) % 281474976710597)]
               ELSE
                   [list_reduce(list_prepend(CAST(0 AS BIGINT), cps[i:i+4]),
                                (a, x) -> (a*31 + x) % 281474976710597)
                    for i in range(1, len(cps) - 3)]
           END AS hs
    FROM c
),
m AS (
    SELECT doc_id,
           CASE WHEN len(hs) = 0 THEN CAST([] AS BIGINT[])
                WHEN len(hs) <= 4 THEN [list_min(hs)]
                ELSE list_distinct([list_min(hs[i:i+3])
                                    for i in range(1, len(hs) - 2)])
           END AS fps
    FROM h
)
SELECT doc_id,
       CAST(len(fps) AS BIGINT) AS n_fp,
       round(CAST(list_min(fps) AS DOUBLE), 6) AS min_fp,
       round(CAST(list_max(fps) AS DOUBLE), 6) AS max_fp
FROM m
"""


def q_emb_cosine_dups(sf_dir: str):
    """Embedding-cosine near-dup pairs (brute-force exact baseline;
    LSH-bucketed candidates are the scale path)."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.similarity import (
        embedding_cosine_dups,
    )

    emb = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return _finalize(
        embedding_cosine_dups(emb, threshold=0.45), skip=("vec_a", "vec_b")
    )


SQL_EMB_COSINE_DUPS = """
WITH n AS (
    SELECT vec_id,
           list_transform(embedding, x -> CAST(x AS DOUBLE)) AS v
    FROM embeddings
),
nn AS (
    SELECT vec_id, v,
           sqrt(list_sum(list_transform(v, x -> x*x))) AS nrm
    FROM n
),
p AS (
    SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
           list_sum(list_transform(range(len(a.v)),
                    i -> a.v[i+1]*b.v[i+1]))/(a.nrm*b.nrm) AS cos
    FROM nn a JOIN nn b ON a.vec_id < b.vec_id
)
SELECT vec_a, vec_b, round(cos, 6) AS cosine
FROM p WHERE cos >= 0.45
"""


def q_emb_semantic_dedup(sf_dir: str):
    """SemDeDup-style semantic dedup (pipelines/similarity.py
    semantic_dedup): k-means cells from a deterministic hash sample,
    one cell-keyed shuffle, within-cell cosine pruning against
    smaller-id members. Rows-only by design (k-means cells are not
    SQL-expressible); determinism + planted-group recall pinned in
    tests/test_text_similarity.py."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.similarity import semantic_dedup

    emb = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return semantic_dedup(emb, threshold=0.8)


def q_emb_kcenter_sample(sf_dir: str):
    """Greedy k-center diversity sample (pipelines/similarity.py
    kcenter_sample): farthest-first selection over cosine distance,
    smallest-id seed, deterministic ties. Rows-only by design (greedy
    iterative selection is not SQL-expressible); driver-path ==
    distributed-rounds parity and planted-cluster coverage pinned in
    tests/test_text_similarity.py."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.similarity import kcenter_sample

    emb = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return _finalize(kcenter_sample(emb, k=16), skip=())


def q_doc_minhash_dups(sf_dir: str):
    """MinHash-LSH near-dup pairs with the SQL-reproducible ``poly``
    hasher: sub-2^48 word/shingle hashes, two chained small-coefficient
    affine permutations, base-31 band fold and the row_number bucket cap
    are all exact integer arithmetic a DuckDB oracle re-derives
    bit-for-bit, and the verification jaccard is an integer-count
    division — so the whole candidate-generation + verification pipeline
    is value-hash-checked."""
    from light_curve_feature_ray.pipelines.text import minhash_lsh_dups

    return _finalize(minhash_lsh_dups(_docs(sf_dir), threshold=0.5, hasher="poly"))


def _minhash_cand_sql(num_perms=64, bands=16, k=3, maxb=64) -> str:
    """Shared candidate-pair CTE chain for the MinHash-LSH twins
    (jaccard + edit-distance verifiers): embeds the engine's own
    permutation coefficients (_poly_perm_coeffs, same seed) so both
    sides evaluate identical integer arithmetic end-to-end. Exposes
    CTEs ``s`` (distinct-able doc shingles) and ``cand`` (unique
    doc_a < doc_b candidate pairs after the row_number bucket cap)."""
    from light_curve_feature_ray.pipelines.text import _poly_perm_coeffs

    mod = 281474976710597
    rows = num_perms // bands
    a1, b1, a2, b2 = _poly_perm_coeffs(num_perms, 1234)
    perm_rows = ",".join(
        f"({j},{a1[j]},{b1[j]},{a2[j]},{b2[j]})" for j in range(num_perms)
    )
    # word hash: codepoint fold + 4 affine finalization rounds (the -1
    # sentinel appended to the codepoint list triggers the finalization
    # inside the same list_reduce); shingle: base-31 window fold; sig:
    # min over shingles of the chained affine perms; band_hash: base-31
    # fold of the band's sigs in j order; bucket cap: row_number over
    # (band, band_hash) by doc_id — mirrors partition_pairs' offsets cap.
    return f"""
WITH perms(j, a1, b1, a2, b2) AS (VALUES {perm_rows}),
w AS (
  SELECT doc_id,
         list_filter(string_split_regex(lower(text), '\\s+'), x -> x <> '') AS ws
  FROM documents),
hw AS (
  SELECT doc_id,
         list_transform(ws, wd ->
           list_reduce(list_prepend(CAST(0 AS BIGINT), list_append(
             list_transform(regexp_extract_all(wd, '(?s).'), ch -> CAST(unicode(ch) AS BIGINT)),
             CAST(-1 AS BIGINT))),
             (a, x) -> CASE WHEN x >= 0 THEN (a*31 + x) % {mod}
                            ELSE ((((a*25781 + 104729) % {mod} * 25781 + 104729) % {mod} * 25781 + 104729) % {mod} * 25781 + 104729) % {mod} END)
         ) AS hs
  FROM w),
shl AS (
  SELECT doc_id,
         CASE WHEN len(hs) = 0 THEN [CAST(0 AS BIGINT)]
              WHEN len(hs) < {k} THEN [list_reduce(list_prepend(CAST(0 AS BIGINT), hs), (a, x) -> (a*31 + x) % {mod})]
              ELSE list_transform(range(1, len(hs) - {k} + 2),
                     i -> ((hs[i]*31 + hs[i+1]) % {mod} * 31 + hs[i+2]) % {mod})
         END AS shs
  FROM hw),
s AS (SELECT doc_id, unnest(shs) AS s FROM shl),
sig AS (
  SELECT doc_id, j, min(((s * a1 + b1) % {mod} * a2 + b2) % {mod}) AS sig
  FROM s CROSS JOIN perms GROUP BY doc_id, j),
band AS (
  SELECT doc_id, CAST(j // {rows} AS INTEGER) AS band,
         list_reduce(list_prepend(CAST(0 AS BIGINT), list(sig ORDER BY j)),
                     (a, x) -> (a*31 + x) % {mod}) AS band_hash
  FROM sig GROUP BY doc_id, j // {rows}),
bucketed AS (
  SELECT band, band_hash, doc_id,
         row_number() OVER (PARTITION BY band, band_hash ORDER BY doc_id) AS rn
  FROM band),
cand AS (
  SELECT DISTINCT x.doc_id AS doc_a, y.doc_id AS doc_b
  FROM bucketed x JOIN bucketed y
    ON x.band = y.band AND x.band_hash = y.band_hash AND x.doc_id < y.doc_id
  WHERE x.rn <= {maxb} AND y.rn <= {maxb})"""


def _build_sql_doc_minhash_dups() -> str:
    """The DuckDB twin of q_doc_minhash_dups: the shared candidate CTE
    (:func:`_minhash_cand_sql`) plus the integer-count Jaccard verify."""
    thr = 0.5
    return f"""{_minhash_cand_sql()},
ss AS (SELECT DISTINCT doc_id, s FROM s),
cnt AS (SELECT doc_id, count(*) AS c FROM ss GROUP BY doc_id),
inter AS (
  SELECT p.doc_a, p.doc_b, count(*) AS co
  FROM cand p JOIN ss x ON x.doc_id = p.doc_a JOIN ss y ON y.doc_id = p.doc_b AND y.s = x.s
  GROUP BY p.doc_a, p.doc_b),
jac AS (
  SELECT p.doc_a, p.doc_b,
         CAST(coalesce(i.co, 0) AS DOUBLE) / (ca.c + cb.c - coalesce(i.co, 0)) AS jaccard
  FROM cand p
  JOIN cnt ca ON ca.doc_id = p.doc_a JOIN cnt cb ON cb.doc_id = p.doc_b
  LEFT JOIN inter i ON i.doc_a = p.doc_a AND i.doc_b = p.doc_b)
SELECT doc_a, doc_b, round(jaccard, 6) AS jaccard FROM jac WHERE jaccard >= {thr}
"""


EDITDIST_PREFIX_CHARS = 64
EDITDIST_MAX = 24


def q_doc_editdist_dups(sf_dir: str):
    """Prefix edit-distance near-dup pairs (pipelines/text.py
    edit_distance_dups): the SAME SQL-reproducible poly MinHash-LSH
    blocking as doc_minhash_dups, then exact byte-level Levenshtein
    between 64-code-point prefixes (DuckDB levenshtein semantics,
    vectorized pair-axis DP), keeping dist <= 24."""
    from light_curve_feature_ray.pipelines.text import edit_distance_dups

    return edit_distance_dups(
        _docs(sf_dir),
        max_dist=EDITDIST_MAX,
        prefix_chars=EDITDIST_PREFIX_CHARS,
        hasher="poly",
    )


def _build_sql_doc_editdist_dups() -> str:
    return f"""{_minhash_cand_sql()},
tt AS (SELECT doc_id, substr(coalesce(text, ''), 1, {EDITDIST_PREFIX_CHARS}) AS t
       FROM documents)
SELECT p.doc_a, p.doc_b,
       CAST(levenshtein(a.t, b.t) AS BIGINT) AS dist
FROM cand p
JOIN tt a ON a.doc_id = p.doc_a
JOIN tt b ON b.doc_id = p.doc_b
WHERE levenshtein(a.t, b.t) <= {EDITDIST_MAX}
"""


def q_doc_simhash_dups(sf_dir: str):
    """SimHash near-dup pairs (exact recall within the Hamming radius via
    pigeonhole banding). The ``poly`` hasher's exact sub-2^48 arithmetic
    makes the signatures SQL-reproducible, so the oracle is the
    brute-force xor-popcount join — which exact-recall banding must
    equal."""
    from light_curve_feature_ray.pipelines.text import simhash_dups

    return _finalize(
        simhash_dups(_docs(sf_dir), max_hamming=6, hasher="poly"),
        skip=("doc_a", "doc_b", "hamming"),
    )


def q_doc_simhash(sf_dir: str):
    """48-bit SimHash signatures with the SQL-reproducible ``poly``
    word hasher (same (acc*31+cp) %% mod arithmetic as the winnowing
    oracle, majority vote per bit in both engines)."""
    from light_curve_feature_ray.pipelines.text import simhash_signatures

    return _finalize(
        simhash_signatures(_docs(sf_dir), hasher="poly"),
        skip=("doc_id", "simhash"),
    )


# Shared signature CTE: 48-bit SimHash with the sub-2^48 polynomial word
# hash (pipelines/text.py _word_poly_hashes_flat) — bit b of the signature
# is the majority vote of bit b across all word-occurrence hashes.
_SQL_SIMHASH_SIG = """
w AS (
    SELECT doc_id,
           unnest(list_filter(string_split_regex(lower(text), '\\s+'),
                              x -> x <> '')) AS w
    FROM documents
),
h0 AS (
    SELECT doc_id,
           list_reduce(list_prepend(CAST(0 AS BIGINT),
               list_transform(regexp_extract_all(w, '(?s).'),
                              ch -> unicode(ch))),
               (a, x) -> (a*31 + x) % 281474976710597) AS h
    FROM w
),
-- 4 affine expansion rounds (exact sub-2^63 arithmetic) mirroring
-- _word_poly_hashes_flat's finalization
h AS (
    SELECT doc_id,
           list_reduce(list_prepend(h, [CAST(0 AS BIGINT), 0, 0, 0]),
               (a, x) -> (a*25781 + 104729) % 281474976710597) AS h
    FROM h0
),
b AS (
    SELECT doc_id, bit,
           sum(CASE WHEN ((h >> bit) & 1) = 1 THEN 1 ELSE -1 END) AS s
    FROM h, (SELECT unnest(range(48)) AS bit) bits
    GROUP BY doc_id, bit
),
sig0 AS (
    SELECT doc_id,
           sum(CASE WHEN s > 0 THEN (CAST(1 AS BIGINT) << bit)
                    ELSE CAST(0 AS BIGINT) END) AS simhash
    FROM b GROUP BY doc_id
),
sig AS (
    SELECT d.doc_id, CAST(coalesce(s.simhash, 0) AS BIGINT) AS simhash
    FROM documents d LEFT JOIN sig0 s ON d.doc_id = s.doc_id
)
"""

SQL_DOC_SIMHASH = f"""
WITH {_SQL_SIMHASH_SIG}
SELECT doc_id, simhash FROM sig
"""

SQL_DOC_SIMHASH_DUPS = f"""
WITH {_SQL_SIMHASH_SIG}
SELECT a.doc_id AS doc_a, b2.doc_id AS doc_b,
       CAST(bit_count(xor(a.simhash, b2.simhash)) AS BIGINT) AS hamming
FROM sig a JOIN sig b2 ON a.doc_id < b2.doc_id
WHERE bit_count(xor(a.simhash, b2.simhash)) <= 6
"""


def q_knn_cosine(sf_dir: str):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.similarity import knn_cosine

    emb = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    ds = knn_cosine(emb, n_queries=5, k=10)
    return _finalize(ds, skip=("query_id", "rank", "vec_id"))


SQL_KNN_COSINE = """
WITH q AS (
    SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS qe
    FROM embeddings WHERE vec_id < 5
),
s AS (
    SELECT q.qid, e.vec_id,
           list_cosine_similarity(q.qe, CAST(e.embedding AS DOUBLE[])) AS cos
    FROM q CROSS JOIN embeddings e
)
SELECT qid AS query_id,
       CAST(row_number() OVER (PARTITION BY qid ORDER BY cos DESC, vec_id) AS BIGINT) AS rank,
       vec_id, round(cos, 6) AS cosine
FROM s
QUALIFY rank <= 10
"""


def q_knn_lsh(sf_dir: str):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.similarity import lsh_knn_cosine

    emb = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return _finalize(
        lsh_knn_cosine(emb, n_queries=5, k=10), skip=("query_id", "rank", "vec_id")
    )


def q_knn_ivf(sf_dir: str):
    """IVF approximate kNN (spherical k-means coarse quantizer, nprobe
    cells per query) — the data-adaptive ANN scale path."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.similarity import ivf_knn_cosine

    emb = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return _finalize(
        ivf_knn_cosine(emb, n_queries=5, k=10, n_centroids=16, nprobe=3),
        skip=("query_id", "rank", "vec_id"),
    )


def q_events_asof_join(sf_dir: str):
    """Backward as-of join (pipelines/joins.py): every event gets the most
    recent click VALUE of the same user at or before its timestamp —
    oracled by DuckDB's native ASOF LEFT JOIN. The right side is
    pre-aggregated to one row per (user, ts) on BOTH sides so the picked
    row is deterministic."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.joins import asof_join

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type", "value"],
    )

    def prep_left(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": b["event_id"],
                "user_id": b["user_id"],
                "ts_us": b["ts"].cast(pa.int64()),
                "value": b["value"],
            }
        )

    def prep_right(b: pa.Table) -> pa.Table:
        mask = pc.equal(b["event_type"], "click")
        sel = b.filter(mask)
        return pa.table(
            {
                "user_id": sel["user_id"],
                "ts_us": sel["ts"].cast(pa.int64()),
                "value": sel["value"],
            }
        )

    left = ev.map_batches(prep_left, batch_format="pyarrow", batch_size=None)
    clicks = ev.map_batches(prep_right, batch_format="pyarrow", batch_size=None)
    right = (
        clicks.groupby(["user_id", "ts_us"])
        .max("value")
        .map_batches(
            lambda t: pa.table(
                {
                    "user_id": t["user_id"],
                    "ts_us": t["ts_us"],
                    "click_value": t["max(value)"],
                }
            ),
            batch_format="pyarrow",
            batch_size=None,
        )
    )
    res = asof_join(
        left,
        right,
        key_col="user_id",
        ts_col="ts_us",
        right_value_cols=["click_value"],
    )
    return _finalize(res, skip=("event_id", "user_id", "ts_us"))


SQL_EVENTS_ASOF_JOIN = """
WITH e AS (
    SELECT event_id, user_id, epoch_us(ts) AS ts_us, value FROM events
),
r AS (
    SELECT user_id, epoch_us(ts) AS ts_us, max(value) AS click_value
    FROM events WHERE event_type = 'click' GROUP BY 1, 2
)
SELECT e.event_id, e.user_id, e.ts_us,
       round(e.value, 6) AS value,
       round(r.click_value, 6) AS click_value
FROM e ASOF LEFT JOIN r
    ON e.user_id = r.user_id AND e.ts_us >= r.ts_us
"""


def q_events_interval_join(sf_dir: str):
    """Range join (pipelines/joins.py interval_join): each event matched to
    the session window CONTAINING its timestamp (non-overlapping intervals
    per user — the operator's documented assumption), carrying the
    session's sum_value. Oracle: sessionization CTE + BETWEEN join."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.joins import interval_join
    from light_curve_feature_ray.pipelines.windows import session_windows

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )

    def prep_left(b: pa.Table) -> pa.Table:
        # floor (not truncate-toward-zero) to match session_windows'
        # _epoch_seconds `// 1_000_000` and the oracle's floor(epoch(ts)):
        # they disagree for negative (pre-1970) timestamps.
        t = pc.floor(
            pc.divide(b["ts"].cast(pa.int64()).cast(pa.float64()), 1e6)
        )
        return pa.table(
            {
                "event_id": b["event_id"],
                "user_id": b["user_id"],
                "t": t.cast(pa.int64()),
                "value": b["value"],
            }
        )

    left = ev.map_batches(prep_left, batch_format="pyarrow", batch_size=None)
    sessions = session_windows(ev, gap_s=1800)
    res = interval_join(
        left,
        sessions,
        key_col="user_id",
        ts_col="t",
        start_col="session_start",
        end_col="session_end",
        right_value_cols=["sum_value"],
    )
    return _finalize(res, skip=("event_id", "user_id", "t"))


SQL_EVENTS_INTERVAL_JOIN = """
WITH e AS (
    SELECT user_id, CAST(floor(epoch(ts)) AS BIGINT) AS t, value, event_id
    FROM events
),
d AS (
    SELECT *, CASE WHEN lag(t) OVER w IS NULL OR t - lag(t) OVER w > 1800
                   THEN 1 ELSE 0 END AS brk
    FROM e WINDOW w AS (PARTITION BY user_id ORDER BY t, event_id)
),
s AS (
    SELECT *, CAST(sum(brk) OVER (PARTITION BY user_id ORDER BY t, event_id
                                  ROWS UNBOUNDED PRECEDING) - 1 AS BIGINT)
              AS session_idx
    FROM d
),
sess AS (
    SELECT user_id, session_idx,
           min(t) AS session_start, max(t) AS session_end,
           sum(value) AS sum_value
    FROM s GROUP BY user_id, session_idx
)
SELECT e.event_id, e.user_id, e.t,
       round(e.value, 6) AS value,
       round(CAST(sess.session_start AS DOUBLE), 6) AS session_start,
       round(CAST(sess.session_end AS DOUBLE), 6) AS session_end,
       round(sess.sum_value, 6) AS sum_value
FROM e JOIN sess
    ON e.user_id = sess.user_id
    AND e.t BETWEEN sess.session_start AND sess.session_end
"""


def q_orders_enriched(sf_dir: str):
    """Broadcast-hash enrichment join (pipelines/joins.py broadcast_join):
    the orders fact stream joined to the small customer and nation
    dimension tables with NO shuffle — each dimension is ray.put once and
    every map task reads it zero-copy (pc.index_in + take per batch).
    Two chained broadcast stages (orders->customer->nation)."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from light_curve_feature_ray.pipelines.joins import broadcast_join

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    )
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_mktsegment", "c_nationkey"],
    )
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    enriched = broadcast_join(
        orders, cust, left_on="o_custkey", right_on="c_custkey"
    )
    enriched = broadcast_join(
        enriched,
        nation,
        left_on="c_nationkey",
        right_on="n_nationkey",
        right_columns=["n_name"],
    )
    res = enriched.map_batches(
        lambda b: b.drop_columns(["c_nationkey"]),
        batch_format="pyarrow",
        batch_size=None,
    )
    return _finalize(res, skip=())


SQL_ORDERS_ENRICHED = """
SELECT o_orderkey, o_custkey, round(o_totalprice, 6) AS o_totalprice,
       c_name, c_mktsegment, n_name
FROM orders
JOIN customer ON o_custkey = c_custkey
JOIN nation ON c_nationkey = n_nationkey
"""


def q_lineitem_orders_join(sf_dir: str):
    """LARGE x LARGE equi-join via Ray Data's native hash-shuffle
    Dataset.join (both sides exchange on the key) — the right tool when
    neither side fits a broadcast; contrast with orders_enriched's
    shuffle-free broadcast_join for small dimensions."""
    import ray.data as rd

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_extendedprice"],
    )
    od = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderstatus", "o_totalprice"],
    )
    j = li.join(od, "inner", 32, on=("l_orderkey",), right_on=("o_orderkey",))
    return _finalize(j, skip=())


SQL_LINEITEM_ORDERS_JOIN = """
SELECT l_orderkey, l_linenumber,
       round(l_extendedprice, 6) AS l_extendedprice,
       o_orderstatus, round(o_totalprice, 6) AS o_totalprice
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
"""


QUANTILE_QS = (0.01, 0.25, 0.5, 0.75, 0.9, 0.99)


def q_events_value_quantiles(sf_dir: str):
    """Corpus-wide EXACT quantiles of events.value without a global sort:
    distributed selection (pipelines/quantiles.py) — streaming histogram
    bisection passes narrow each rank's value bracket, a bounded final
    pass collects only the surviving candidates. Interpolation is
    bit-parity with DuckDB quantile_cont."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.quantiles import quantile_cont

    ev = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])
    out = quantile_cont(ev, "value", QUANTILE_QS, max_candidates=4096)
    return _round6(
        pa.Table.from_pandas(out, preserve_index=False), skip=("q",)
    )


SQL_EVENTS_VALUE_QUANTILES = "\nUNION ALL\n".join(
    f"SELECT {q} AS q, round(quantile_cont(value, {q}), 6) AS value"
    " FROM events"
    for q in QUANTILE_QS
)


def q_events_approx_quantiles(sf_dir: str):
    """ONE-pass approximate quantile sketch (pipelines/quantiles.py
    approx_quantile_hist): fixed-grid mergeable bincount partials +
    in-bucket rank interpolation — the streaming scale path next to the
    exact multi-pass selection; deterministic, so the SQL twin reproduces
    the identical estimate bit-for-bit."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.quantiles import (
        approx_quantile_hist,
    )

    ev = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])
    out = approx_quantile_hist(ev, "value", QUANTILE_QS, bins=1024)
    return _round6(
        pa.Table.from_pandas(out, preserve_index=False), skip=("q",)
    )


def _build_sql_events_approx_quantiles() -> str:
    from light_curve_feature_ray.pipelines.quantiles import (
        approx_quantile_hist_sql,
    )

    return approx_quantile_hist_sql("events", "value", QUANTILE_QS, bins=1024)


def q_events_type_quantiles(sf_dir: str):
    """Exact per-group quantiles (pipelines/quantiles.py
    grouped_quantile_cont): one hash shuffle on event_type, vectorized
    per-partition order statistics — no per-group Python, no global
    sort. Same bit-parity interpolation as events_value_quantiles."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.quantiles import (
        grouped_quantile_cont,
    )

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    out = grouped_quantile_cont(
        ev, "event_type", "value", QUANTILE_QS, num_partitions=8
    )
    return _finalize(out, skip=("q",))


SQL_EVENTS_TYPE_QUANTILES = "\nUNION ALL\n".join(
    f"SELECT event_type, {q} AS q,"
    f" round(quantile_cont(value, {q}), 6) AS value"
    # the kernel drops NULL group keys (grouped_quantile_cont contract)
    " FROM events WHERE event_type IS NOT NULL GROUP BY event_type"
    for q in QUANTILE_QS
)


def q_events_disc_quantiles(sf_dir: str):
    """Exact per-group DISCONTINUOUS quantiles (pipelines/quantiles.py
    grouped_quantile_disc): PERCENTILE_DISC semantics — the selected
    value is an actual group member at 1-based rank max(ceil(q*n), 1),
    pinned against DuckDB quantile_disc by fuzz test; same single
    key-hash shuffle shape as the continuous variant."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.quantiles import (
        grouped_quantile_disc,
    )

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    out = grouped_quantile_disc(
        ev, "event_type", "value", QUANTILE_QS, num_partitions=8
    )
    return _finalize(out, skip=("q",))


SQL_EVENTS_DISC_QUANTILES = "\nUNION ALL\n".join(
    f"SELECT event_type, {q} AS q,"
    f" round(quantile_disc(value, {q}), 6) AS value"
    # the kernel drops NULL group keys (grouped_quantile_cont contract)
    " FROM events WHERE event_type IS NOT NULL GROUP BY event_type"
    for q in QUANTILE_QS
)


def q_events_entropy(sf_dir: str):
    """Per-user categorical Shannon entropy (pipelines/aggregates.py
    group_entropy): block (key, cat) count partials, one pair groupby-
    sum, tiny key-hash repartition + segment reduceat finish — the
    behavioural-diversity signal, -sum((c/n)·ln(c/n)) in nats."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.aggregates import group_entropy

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    return _finalize(
        group_entropy(ev), skip=("user_id", "n", "n_cats")
    )


SQL_EVENTS_ENTROPY = """
WITH pc AS (
    SELECT user_id, event_type, CAST(count(*) AS BIGINT) AS c
    FROM events
    WHERE user_id IS NOT NULL AND event_type IS NOT NULL
    GROUP BY 1, 2
),
tot AS (
    SELECT user_id, CAST(sum(c) AS BIGINT) AS n,
           CAST(count(*) AS BIGINT) AS n_cats
    FROM pc GROUP BY 1
)
SELECT p.user_id, any_value(t.n) AS n, any_value(t.n_cats) AS n_cats,
       round(-sum((CAST(p.c AS DOUBLE) / t.n)
                  * ln(CAST(p.c AS DOUBLE) / t.n)) + 0, 6) AS entropy,
       round(sum((CAST(p.c AS DOUBLE) / t.n)
                 * (CAST(p.c AS DOUBLE) / t.n)), 6) AS hhi
FROM pc p JOIN tot t USING (user_id)
GROUP BY 1
"""


def q_events_windowed_distinct(sf_dir: str):
    """Exact distinct-user cardinality per (event_type, tumbling hour)
    (pipelines/windows.py windowed_count_distinct): block-local distinct
    (key, window, id) triples — the shuffle carries triples, not events
    — triple dedup, tiny cell-keyed count."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.windows import (
        windowed_count_distinct,
    )

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_type", "ts", "user_id"],
    )
    return windowed_count_distinct(ev, window_s=3600)


SQL_EVENTS_WINDOWED_DISTINCT = """
SELECT event_type,
       (CAST(floor(epoch(ts)) AS BIGINT)//3600)*3600 AS window_start,
       CAST(count(DISTINCT user_id) AS BIGINT) AS n_distinct
FROM events
WHERE event_type IS NOT NULL AND ts IS NOT NULL AND user_id IS NOT NULL
GROUP BY 1, 2
"""


GAPPROX_BINS = 512
_GAPPROX_QROWS = ", ".join(f"({float(q)!r})" for q in QUANTILE_QS)


def q_events_grouped_approx(sf_dir: str):
    """Per-group histogram-sketch quantiles (pipelines/quantiles.py
    grouped_approx_quantiles): the SCALE path for grouped order
    statistics — mergeable (group, bin) count partials, group stats
    broadcast once, NOTHING collected on the driver; rank error <
    n_g/bins per group, estimate bit-replayed by the twin."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.quantiles import (
        grouped_approx_quantiles,
    )

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    out = grouped_approx_quantiles(
        ev, "event_type", "value", QUANTILE_QS, bins=GAPPROX_BINS,
        num_partitions=8,
    )
    return _finalize(out, skip=("q",))


SQL_EVENTS_GROUPED_APPROX = f"""
WITH v AS (
    SELECT event_type AS g, value AS x FROM events
    WHERE event_type IS NOT NULL AND value IS NOT NULL
      AND NOT isnan(value)
),
mm AS (SELECT g, min(x) AS lo, max(x) AS hi, count(*) AS n
       FROM v GROUP BY g),
p AS (SELECT g, lo, hi, n, (hi - lo) / {GAPPROX_BINS} AS w FROM mm),
b AS (
    SELECT v.g,
           least(greatest(CAST(floor((x - lo) / w) AS BIGINT), 0),
                 {GAPPROX_BINS} - 1) AS j
    FROM v JOIN p USING (g) WHERE w > 0
),
c AS (SELECT g, j, count(*) AS c FROM b GROUP BY g, j),
cc AS (
    SELECT g, j, c,
           COALESCE(SUM(c) OVER (PARTITION BY g ORDER BY j
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
               AS cum
    FROM c
)
SELECT cc.g AS event_type, q,
       round(lo + j * w + ((q * (n - 1) - cum) / c) * w, 6) AS value
FROM cc JOIN p USING (g), (VALUES {_GAPPROX_QROWS}) qs(q)
WHERE cum <= q * (n - 1) AND q * (n - 1) < cum + c
UNION ALL
SELECT g AS event_type, q, round(lo, 6) AS value
FROM p, (VALUES {_GAPPROX_QROWS}) qs(q) WHERE w = 0
"""


RESAMPLE_STEP_S = 21600  # 6h grid over the ~30-day event span


def q_events_resample(sf_dir: str):
    """Per-user regular-grid resampling with linear interpolation
    (pipelines/windows.py resample_time_grid): grid anchored at each
    series' first timestamp, min-id dedup of duplicate (key, ts),
    composite-band searchsorted prev/next lookup — the user-facing
    generalization of the rollup's gap-fill tier."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.windows import (
        resample_time_grid,
    )

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    return _finalize(
        resample_time_grid(ev, step_s=RESAMPLE_STEP_S, num_partitions=16),
        skip=("user_id", "grid_ts"),
    )


SQL_EVENTS_RESAMPLE = f"""
WITH e0 AS (
    SELECT user_id AS k, ts, value,
           row_number() OVER (PARTITION BY user_id, ts
                              ORDER BY event_id) AS rn
    FROM events
    WHERE user_id IS NOT NULL AND ts IS NOT NULL AND value IS NOT NULL
      AND NOT isnan(value)
),
e AS (SELECT k, ts, epoch_us(ts) AS tu, value FROM e0 WHERE rn = 1),
bounds AS (SELECT k, min(tu) AS lo, max(tu) AS hi FROM e GROUP BY 1),
g AS (
    SELECT k, make_timestamp(unnest(generate_series(
               lo, hi, {RESAMPLE_STEP_S * 1_000_000}))) AS t
    FROM bounds
),
pj AS (
    SELECT g.k, g.t, e.tu AS pt, e.value AS pv
    FROM g ASOF JOIN e ON g.k = e.k AND g.t >= e.ts
),
nj AS (
    SELECT g.k, g.t, e.tu AS nt, e.value AS nv
    FROM g ASOF JOIN e ON g.k = e.k AND g.t <= e.ts
)
SELECT pj.k AS user_id, pj.t AS grid_ts,
       round(CASE WHEN nt = pt THEN pv
             ELSE pv + (nv - pv)
                  * (CAST(epoch_us(pj.t) - pt AS DOUBLE)
                     / CAST(nt - pt AS DOUBLE)) END, 6) AS value
FROM pj JOIN nj ON pj.k = nj.k AND pj.t = nj.t
"""


def q_events_heavy_users(sf_dir: str):
    """EXACT heavy hitters with bounded memory (pipelines/sketches.py
    heavy_hitters): a Misra-Gries candidate pass (O(k) state per block,
    summed MG counts undercount by at most N/(k+1)) followed by an exact
    rescore of only the bounded candidate set — output is exactly
    ``GROUP BY user_id HAVING count(*) >= ceil(0.008 * N)``, independent
    of partitioning/retries, which the SQL twin states directly."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.sketches import heavy_hitters

    ev = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    return heavy_hitters(ev, "user_id", min_frac=0.008)


# the twin IS the spec: ceil(min_frac * N) in the same double arithmetic
# (ceil of an IEEE product) as sketches.heavy_hitters' math.ceil
SQL_EVENTS_HEAVY_USERS = """
SELECT user_id, count(*) AS cnt
FROM events WHERE user_id IS NOT NULL
GROUP BY user_id
HAVING count(*) >= ceil(0.008 * (SELECT count(user_id) FROM events))
"""


def q_events_winsorized(sf_dir: str):
    """Percentile-clip normalization (pipelines/quantiles.py winsorize):
    exact [p01, p99] bounds from the distributed quantile_cont passes
    (bit-parity with DuckDB quantile_cont), then a shuffle-free clamp
    map — min(max(x, lo), hi) in identical double arithmetic to the
    twin's least(greatest(...))."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.quantiles import winsorize

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "value"]
    )
    return _finalize(winsorize(ev, "value"))


SQL_EVENTS_WINSORIZED = """
WITH q AS (SELECT quantile_cont(value, 0.01) AS lo,
                  quantile_cont(value, 0.99) AS hi
           FROM events WHERE value IS NOT NULL AND NOT isnan(value))
SELECT event_id, round(value, 6) AS value,
       -- NaN passes through (numpy min/max propagate; SQL least/greatest
       -- would treat NaN as greatest) — mirror of winsorize()
       CASE WHEN value IS NULL OR isnan(value) THEN value
            ELSE round(least(greatest(value, lo), hi), 6) END AS value_w
FROM events, q
"""


def q_events_mad_outliers(sf_dir: str):
    """Robust per-user outlier flags (pipelines/quantiles.py
    mad_outliers): per-group median + MAD in ONE hash shuffle
    (grouped_mad runs the second order-statistics round over
    |x - med| inside the same co-located partition task), stats
    broadcast once, then a shuffle-free flag map. med/MAD are
    bit-parity with the twin's nested quantile_cont, so the
    ``dev > thresh*mad`` booleans match exactly."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.quantiles import mad_outliers

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "value"]
    )
    return _finalize(mad_outliers(ev, "user_id", "value", thresh=2.5))


SQL_EVENTS_MAD_OUTLIERS = """
WITH v AS (SELECT event_id, user_id, value FROM events
           WHERE user_id IS NOT NULL
             AND value IS NOT NULL AND NOT isnan(value)),
med AS (SELECT user_id, quantile_cont(value, 0.5) AS med
        FROM v GROUP BY user_id),
mad AS (SELECT v.user_id, quantile_cont(abs(v.value - m.med), 0.5) AS mad
        FROM v JOIN med m USING (user_id) GROUP BY v.user_id)
SELECT v.event_id, v.user_id, round(v.value, 6) AS value,
       round(abs(v.value - med), 6) AS dev,
       (abs(v.value - med) > 2.5 * mad) AS is_outlier
FROM v JOIN med USING (user_id) JOIN mad USING (user_id)
"""


def q_events_hll_users(sf_dir: str):
    """Approximate COUNT(DISTINCT user_id) per event_type via the
    HyperLogLog aggregate (pipelines/sketches.py) with the
    SQL-reproducible ``poly`` hasher: the DuckDB oracle re-derives the
    whole sketch (48-bit poly hash -> register index/rank -> exact-integer
    S -> one float division) bit-for-bit, so the approximate estimate is
    hash-checked, not just row-counted."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.sketches import hll_distinct

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    ds = hll_distinct(ev, "user_id", group_col="event_type", hasher="poly")
    return _finalize(ds)


# HLL re-derived in SQL: same poly hash (codepoint fold + 3
# xorshift-multiply rounds, all sub-2^63 exact), register maxima via
# GROUP BY, bit-length via smear+bit_count, and the estimate from the
# exact-integer S with identical float association (sketches.py
# _hll_estimate_exact). p=12, m=4096, R=48-12+1=37.
SQL_EVENTS_HLL_USERS = """
WITH h0 AS (
    SELECT event_type,
           list_reduce(list_prepend(CAST(0 AS BIGINT),
               list_transform(regexp_extract_all(
                   coalesce(CAST(user_id AS VARCHAR), ''), '(?s).'),
                   ch -> unicode(ch))),
               (a, x) -> (a*31 + x) % 281474976710597) AS h
    FROM events),
h1 AS (SELECT event_type, (xor(h, h >> 21) * 25781) % 281474976710597 AS h FROM h0),
h2 AS (SELECT event_type, (xor(h, h >> 21) * 13007) % 281474976710597 AS h FROM h1),
h3 AS (SELECT event_type, (xor(h, h >> 21) * 30011) % 281474976710597 AS h FROM h2),
ranks AS (
    SELECT event_type, h >> 36 AS idx,
           h & ((CAST(1 AS BIGINT) << 36) - 1) AS rest
    FROM h3),
sm1 AS (SELECT event_type, idx, rest, rest | (rest >> 1) AS s FROM ranks),
sm2 AS (SELECT event_type, idx, rest, s | (s >> 2) AS s FROM sm1),
sm3 AS (SELECT event_type, idx, rest, s | (s >> 4) AS s FROM sm2),
sm4 AS (SELECT event_type, idx, rest, s | (s >> 8) AS s FROM sm3),
sm5 AS (SELECT event_type, idx, rest, s | (s >> 16) AS s FROM sm4),
bl AS (
    SELECT event_type, idx,
           CASE WHEN rest = 0 THEN 0
                ELSE bit_count(s | (s >> 32)) END AS bitlen
    FROM sm5),
regs AS (
    SELECT event_type, idx, max(36 - bitlen + 1) AS rank
    FROM bl GROUP BY event_type, idx),
agg AS (
    SELECT event_type,
           sum(CAST(1 AS BIGINT) << (37 - rank)) AS s_present,
           count(*) AS n_present
    FROM regs GROUP BY event_type),
est AS (
    SELECT event_type,
           s_present + (4096 - n_present) * (CAST(1 AS BIGINT) << 37) AS S,
           4096 - n_present AS zeros
    FROM agg)
SELECT event_type,
       round(CASE WHEN 0.7213 / (1.0 + 1.079 / 4096) * 4096 * 4096
                       * 137438953472.0 / S <= 2.5 * 4096 AND zeros > 0
                  THEN 4096.0 * ln(4096.0 / zeros)
                  ELSE 0.7213 / (1.0 + 1.079 / 4096) * 4096 * 4096
                       * 137438953472.0 / S
             END, 6) AS approx_distinct
FROM est
ORDER BY event_type
"""


EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


def q_events_pivot(sf_dir: str):
    """Long->wide pivot (pipelines/pivot.py pivot_agg): per-user count and
    sum of value per event_type as fixed columns — block-local wide
    combiner (one lexsort+scatter per batch), native groupby-sum reduce;
    the exchange carries one wide row per (user, block)."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.pivot import pivot_agg

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type", "value"]
    )
    out = pivot_agg(
        ev,
        key_col="user_id",
        pivot_col="event_type",
        value_col="value",
        categories=EVENT_TYPES,
    )
    return _finalize(out, skip=("user_id",))


def _build_sql_events_pivot() -> str:
    cols = []
    for c in EVENT_TYPES:
        cond = f"CASE WHEN event_type = '{c}' THEN value END"
        cols.append(f"CAST(count({cond}) AS BIGINT) AS n_{c}")
        cols.append(f"round(sum({cond}), 6) AS sum_{c}")
    types = ", ".join(f"'{c}'" for c in EVENT_TYPES)
    other = f"CASE WHEN event_type NOT IN ({types}) THEN value END"
    cols.append(f"CAST(count({other}) AS BIGINT) AS n__other")
    cols.append(f"round(sum({other}), 6) AS sum__other")
    return (
        "SELECT user_id, " + ", ".join(cols) + " FROM events GROUP BY user_id"
    )


def q_events_cms_users(sf_dir: str):
    """Count-Min frequency sketch (pipelines/sketches.py cms_sketch):
    4x4096 mergeable counter matrix over events.user_id — one flattened
    partial per block, tree-reduced — probed at the exact top-20 user
    keys. The poly hash keeps every bucket index in sub-2^63 integer
    arithmetic, so the DuckDB oracle re-derives the whole sketch and the
    estimates bit-for-bit."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.sketches import (
        cms_estimate,
        cms_sketch,
    )

    ev = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    sketch = cms_sketch(ev, "user_id", depth=4, width=4096)
    keys = q_events_top_users(sf_dir).to_pandas()["user_id"].to_numpy()
    est = cms_estimate(sketch, keys)
    return pa.table(
        {
            "user_id": pa.array(keys, pa.int64()),
            "est_events": pa.array(est, pa.int64()),
        }
    )


def _poly_chain_sql(src: str, col: str, prefix: str, carry: str = "") -> str:
    """CTE chain computing the sketches.py poly hash of ``col`` from
    ``src`` as ``{prefix}3(h [, carry])`` — codepoint fold then three
    xorshift-multiply rounds, every intermediate < 2^63 (BIGINT-exact)."""
    from light_curve_feature_ray.pipelines.sketches import (
        _POLY_FINAL_MULTS,
        _POLY_MOD,
    )

    c = f"{carry}, " if carry else ""
    out = f"""
{prefix}0 AS (
    SELECT {c}list_reduce(list_prepend(CAST(0 AS BIGINT),
        list_transform(regexp_extract_all(
            coalesce(CAST({col} AS VARCHAR), ''), '(?s).'),
            ch -> unicode(ch))),
        (a, x) -> (a*31 + x) % {_POLY_MOD}) AS h
    FROM {src})"""
    prev = f"{prefix}0"
    for i, mult in enumerate(_POLY_FINAL_MULTS, start=1):
        out += f""",
{prefix}{i} AS (SELECT {c}(xor(h, h >> 21) * {mult}) % {_POLY_MOD} AS h FROM {prev})"""
        prev = f"{prefix}{i}"
    return out


def _build_sql_events_cms_users() -> str:
    from light_curve_feature_ray.pipelines.sketches import (
        _CMS_ROWS,
        _POLY_MOD,
    )

    width = 4096
    ev_chain = _poly_chain_sql("events", "user_id", "eh")
    key_chain = _poly_chain_sql("keys", "user_id", "kh", carry="user_id")
    counters = ",\n".join(
        f"c{j} AS (SELECT ((h * {a} + {b}) % {_POLY_MOD}) % {width} AS bkt,"
        f" count(*) AS c FROM eh3 GROUP BY bkt)"
        for j, (a, b) in enumerate(_CMS_ROWS)
    )
    joins = "\n".join(
        f"JOIN c{j} ON c{j}.bkt = ((k.h * {a} + {b}) % {_POLY_MOD}) % {width}"
        for j, (a, b) in enumerate(_CMS_ROWS)
    )
    least = ", ".join(f"c{j}.c" for j in range(len(_CMS_ROWS)))
    return f"""
WITH keys AS (
    SELECT user_id FROM events GROUP BY user_id
    ORDER BY count(*) DESC, user_id LIMIT 20
),{ev_chain},{key_chain},
{counters}
SELECT k.user_id, least({least}) AS est_events
FROM kh3 k
{joins}
"""


def q_events_top_users(sf_dir: str):
    """Exact top-20 users by event count — exercises the Dataset
    groupby-count -> sort(desc) -> limit surface with a deterministic
    total order (count desc, user_id asc for ties)."""
    import ray.data as rd

    ev = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    counted = ev.groupby("user_id").count()

    def neg(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": b["user_id"],
                "n_events": b["count()"].cast(pa.int64()),
            }
        )

    counted = counted.map_batches(neg, batch_format="pyarrow", batch_size=None)
    top = counted.sort(["n_events", "user_id"], descending=[True, False]).limit(20)
    return top


SQL_EVENTS_TOP_USERS = """
SELECT user_id, CAST(count(*) AS BIGINT) AS n_events
FROM events
GROUP BY user_id
ORDER BY n_events DESC, user_id
LIMIT 20
"""


def q_events_deciles(sf_dir: str):
    """Global ROW_NUMBER + NTILE(10) over (value, event_id) order
    (pipelines/scan.py global_ntile): distributed rank via the count-mode
    prefix scan on the order-preserving int64 view of the float key; the
    tile is then a pure per-row function of (rank, total) with exact ANSI
    NTILE remainder semantics."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.scan import global_ntile

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "value"]
    )
    out = global_ntile(ev, order_cols=["value"], id_col="event_id", k=10)
    return _finalize(
        out.map_batches(
            lambda b: b.rename_columns(
                [{"rank": "rnk"}.get(c, c) for c in b.column_names]
            ),
            batch_format="pyarrow",
        ),
        skip=("event_id", "rnk", "tile"),
    )


SQL_EVENTS_DECILES = """
SELECT event_id, round(value, 6) AS value,
       ROW_NUMBER() OVER (ORDER BY value, event_id) - 1 AS rnk,
       NTILE(10) OVER (ORDER BY value, event_id) AS tile
FROM events
"""


def q_events_rolling_time(sf_dir: str):
    """Per-key TIME-window rolling aggregates (pipelines/windows.py
    rolling_time_agg): RANGE BETWEEN 1h PRECEDING AND CURRENT ROW with
    exact peer-group semantics, via two structured-searchsorted calls and
    prefix sums per co-partitioned partition."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.windows import rolling_time_agg

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"]
    )
    return _finalize(
        rolling_time_agg(ev, window_s=3600),
        skip=("event_id", "user_id", "t_us", "rolling_n"),
    )


SQL_EVENTS_ROLLING_TIME = """
SELECT event_id, user_id, epoch_us(ts) AS t_us,
       count(value) OVER w AS rolling_n,
       round(sum(value) OVER w, 6) AS rolling_sum,
       round(avg(value) OVER w, 6) AS rolling_mean
FROM events
WHERE ts IS NOT NULL AND user_id IS NOT NULL
WINDOW w AS (PARTITION BY user_id ORDER BY epoch_us(ts)
             RANGE BETWEEN 3600000000 PRECEDING AND CURRENT ROW)
"""


def q_events_semi_join(sf_dir: str):
    """Broadcast semi join (pipelines/joins.py broadcast_semi_join):
    events filtered to a computed keep-list (the exact top-20 users) —
    the key set ships once via ray.put, the event stream never shuffles.
    Composition of two operators: top-k -> membership filter."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.joins import broadcast_semi_join

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "value"]
    )
    top = q_events_top_users(sf_dir)
    return _finalize(
        broadcast_semi_join(ev, top, left_on="user_id"),
        skip=("event_id", "user_id"),
    )


SQL_EVENTS_SEMI_JOIN = """
SELECT event_id, user_id, round(value, 6) AS value
FROM events
WHERE user_id IN (
    SELECT user_id FROM events GROUP BY user_id
    ORDER BY count(*) DESC, user_id LIMIT 20
)
"""


def q_doc_anti_join(sf_dir: str):
    """Broadcast ANTI join: documents with the exact-duplicate drop-list
    removed — keep only each text's canonical doc (min doc_id), i.e. the
    corpus MINUS the rows the dedup stage condemned.  The drop-list is
    computed (exact_dedup survivors), broadcast once, and applied as a
    pure streaming filter."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.joins import broadcast_semi_join
    from light_curve_feature_ray.pipelines.text import exact_dedup

    docs = _docs(sf_dir)
    survivors = exact_dedup(docs)  # (text_md5, doc_id=min per text)
    # keep-list shape: semi join on the surviving doc ids; the ANTI path
    # is exercised by dropping the survivors instead and asserting the
    # complement below — both run so the query covers semi AND anti.
    kept = broadcast_semi_join(
        docs.select_columns(["doc_id"]), survivors, left_on="doc_id"
    )
    dropped = broadcast_semi_join(
        docs.select_columns(["doc_id"]), survivors, left_on="doc_id", anti=True
    )

    def tag(label):
        def f(b: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "doc_id": b["doc_id"],
                    "status": pa.array([label] * b.num_rows, pa.string()),
                }
            )

        return f

    return kept.map_batches(tag("kept"), batch_format="pyarrow").union(
        dropped.map_batches(tag("dropped"), batch_format="pyarrow")
    )


SQL_DOC_ANTI_JOIN = """
WITH keep AS (
    SELECT min(doc_id) AS doc_id FROM documents GROUP BY md5(text)
)
SELECT doc_id,
       CASE WHEN doc_id IN (SELECT doc_id FROM keep)
            THEN 'kept' ELSE 'dropped' END AS status
FROM documents
"""


_SQL_HEXBYTE = (
    "((strpos('0123456789abcdef', substr(hx, {a}, 1)) - 1) * 16"
    " + (strpos('0123456789abcdef', substr(hx, {b}, 1)) - 1))"
)


def q_multimodal_resize(sf_dir: str):
    """Aspect-preserving resize stage (pipelines/multimodal.py
    ResizeImage): actor-pool map_batches over binary payloads; the stub
    codec is integer-only math + sha256 string chains so the oracle is
    exact."""
    from light_curve_feature_ray.pipelines.multimodal import (
        attach_fake_payloads,
        resize_images,
    )

    return resize_images(attach_fake_payloads(_docs(sf_dir)), target=32)


SQL_MULTIMODAL_RESIZE = f"""
WITH h AS (
    SELECT doc_id AS item_id, sha256(text) AS hx FROM documents
),
b AS (
    SELECT item_id, hx,
           1 + {_SQL_HEXBYTE.format(a=1, b=2)} % 64 AS w,
           1 + {_SQL_HEXBYTE.format(a=3, b=4)} % 64 AS h
    FROM h
),
r AS (
    SELECT item_id, hx,
           CASE WHEN greatest(w, h) > 32
                THEN greatest(1, (w * 32) // greatest(w, h)) ELSE w END
               AS width,
           CASE WHEN greatest(w, h) > 32
                THEN greatest(1, (h * 32) // greatest(w, h)) ELSE h END
               AS height
    FROM b
)
SELECT item_id, CAST(width AS INT) AS width, CAST(height AS INT) AS height,
       sha256(hx || '-' || CAST(width AS VARCHAR) || 'x'
              || CAST(height AS VARCHAR)) AS resized_sha
FROM r
"""


def q_multimodal_frames(sf_dir: str):
    """Video frame-sampling stage (pipelines/multimodal.py SampleFrames):
    each payload explodes into <=3 evenly-spaced frame rows — the 1->N
    batch explosion plumbing is real; frame identities are sha256 string
    chains the oracle reproduces."""
    from light_curve_feature_ray.pipelines.multimodal import (
        attach_fake_payloads,
        sample_frames,
    )

    return sample_frames(attach_fake_payloads(_docs(sf_dir)), k=3)


SQL_MULTIMODAL_FRAMES = f"""
WITH h AS (
    SELECT doc_id AS item_id, sha256(text) AS hx FROM documents
),
b AS (
    SELECT item_id, hx,
           1 + {_SQL_HEXBYTE.format(a=5, b=6)} % 16 AS nf
    FROM h
),
f AS (
    SELECT item_id, nf, hx,
           unnest(list_distinct(
               list_transform([0, 1, 2], i -> (i * (nf - 1)) // 2)
           )) AS frame_idx
    FROM b
)
SELECT item_id, CAST(nf AS INT) AS n_frames,
       CAST(frame_idx AS INT) AS frame_idx,
       sha256(hx || '-frame-' || CAST(frame_idx AS VARCHAR)) AS frame_sha
FROM f
"""


def q_multimodal_decode(sf_dir: str):
    """Full decode output, oracle-checked: the 8-dim embedding list is
    flattened to emb_0..emb_7 scalar columns (the driver compare hashes
    scalars), each sha256-derived so DuckDB replicates them exactly."""
    from light_curve_feature_ray.pipelines.multimodal import (
        attach_fake_payloads,
        decode_images,
    )

    ds = decode_images(attach_fake_payloads(_docs(sf_dir)))

    def flatten(b: pa.Table) -> pa.Table:
        cols = {
            "item_id": b["item_id"],
            "width": b["width"].cast(pa.int64()),
            "height": b["height"].cast(pa.int64()),
        }
        for i in range(8):
            cols[f"emb_{i}"] = pc.list_element(b["embedding"], i)
        return pa.table(cols)

    return _finalize(
        ds.map_batches(flatten, batch_format="pyarrow", batch_size=None),
        skip=("item_id", "width", "height"),
    )


def q_multimodal_meta(sf_dir: str):
    """Oracle-checked scalar projection of the deterministic decode stub:
    the stub is sha256-derived, which DuckDB can replicate exactly."""
    from light_curve_feature_ray.pipelines.multimodal import (
        attach_fake_payloads,
        decode_images,
    )

    ds = decode_images(attach_fake_payloads(_docs(sf_dir)))

    def project(b: pa.Table) -> pa.Table:
        emb0 = pc.list_element(b["embedding"], 0)
        return pa.table(
            {
                "item_id": b["item_id"],
                "width": b["width"].cast(pa.int64()),
                "height": b["height"].cast(pa.int64()),
                "emb_0": emb0,
            }
        )

    return _finalize(
        ds.map_batches(project, batch_format="pyarrow"),
        skip=("item_id", "width", "height"),
    )


# stub decode: digest = sha256(payload); width = 1 + digest[0] % 64,
# height = 1 + digest[1] % 64, embedding = unit-normed first 8 digest
# bytes (pipelines/multimodal.py:73-83). Hex digits -> byte values via
# strpos arithmetic.
SQL_MULTIMODAL_META = """
WITH h AS (
    SELECT doc_id AS item_id, sha256(text) AS hx FROM documents
),
d AS (
    SELECT item_id,
           list_transform(range(8), i ->
               CAST((strpos('0123456789abcdef', substr(hx, 2*i+1, 1)) - 1) * 16
               + (strpos('0123456789abcdef', substr(hx, 2*i+2, 1)) - 1)
               AS DOUBLE)) AS bs
    FROM h
),
n AS (
    SELECT item_id, bs,
           sqrt(list_sum(list_transform(bs, b -> b*b))) AS nrm
    FROM d
)
SELECT item_id,
       CAST(1 + CAST(bs[1] AS BIGINT) % 64 AS BIGINT) AS width,
       CAST(1 + CAST(bs[2] AS BIGINT) % 64 AS BIGINT) AS height,
       round(CASE WHEN nrm = 0 THEN bs[1] ELSE bs[1]/nrm END, 6) AS emb_0
FROM n
"""

# same derivation, all 8 embedding components (multimodal_decode oracle)
SQL_MULTIMODAL_DECODE = (
    SQL_MULTIMODAL_META.rsplit("FROM n", 1)[0].rsplit("round(", 1)[0]
    + ",\n".join(
        f"       round(CASE WHEN nrm = 0 THEN bs[{i + 1}] "
        f"ELSE bs[{i + 1}]/nrm END, 6) AS emb_{i}"
        for i in range(8)
    )
    + "\nFROM n\n"
)


def q_events_welch_ab(sf_dir: str):
    """Per-type Welch two-sample t-test between Lehmer-parity A/B arms
    (pipelines/aggregates.py welch_t_ab): block-local per-(key, arm)
    shifted partial sums, one key-cardinality groupby-sum, single-block
    closed-form finish. The t and Welch-Satterthwaite df expressions are
    replayed literally by the twin from avg()/var_samp()."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.aggregates import welch_t_ab

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "value"],
    )
    return _finalize(welch_t_ab(ev), skip=("event_type", "n_a", "n_b"))


def _build_sql_events_welch_ab() -> str:
    from light_curve_feature_ray.pipelines.sampling import lehmer_sql

    return f"""
WITH s AS (
    SELECT event_type, value,
           CASE WHEN ({lehmer_sql("event_id")}) % 2 = 0 THEN 1 ELSE 0 END
               AS ia
    FROM events
    WHERE event_type IS NOT NULL AND event_id IS NOT NULL
      AND value IS NOT NULL AND NOT isnan(value)
), g AS (
    SELECT event_type,
           count(*) FILTER (WHERE ia = 1) AS n_a,
           count(*) FILTER (WHERE ia = 0) AS n_b,
           avg(value) FILTER (WHERE ia = 1) AS m_a,
           avg(value) FILTER (WHERE ia = 0) AS m_b,
           var_samp(value) FILTER (WHERE ia = 1) AS v_a,
           var_samp(value) FILTER (WHERE ia = 0) AS v_b
    FROM s GROUP BY event_type
)
SELECT event_type, n_a, n_b,
       round(m_a, 6) AS mean_a, round(m_b, 6) AS mean_b,
       round((m_a - m_b) / sqrt(v_a / n_a + v_b / n_b), 6) AS t_stat,
       round(pow(v_a / n_a + v_b / n_b, 2)
             / (pow(v_a / n_a, 2) / (n_a - 1)
                + pow(v_b / n_b, 2) / (n_b - 1)), 6) AS welch_df
FROM g
WHERE n_a >= 2 AND n_b >= 2 AND (v_a / n_a + v_b / n_b) > 0
"""


def q_events_rolling_median(sf_dir: str):
    """Per-user rolling 5-row median (pipelines/windows.py
    rolling_median): the order-statistic ROWS window the prefix-sum
    rolling_agg can't express — one key shuffle, one nanmedian over a
    masked sliding_window_view per partition. Even windows average the
    two middles (quantile_cont 0.5, the DuckDB median convention) —
    bit-identical, not just round-6."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.windows import rolling_median

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    return _finalize(
        rolling_median(ev, k=5),
        skip=("event_id", "user_id", "t_us", "rolling_n"),
    )


SQL_EVENTS_ROLLING_MEDIAN = """
SELECT event_id, user_id, epoch_us(ts) AS t_us,
       count(value) OVER w AS rolling_n,
       round(median(value) OVER w, 6) AS rolling_median
FROM events
WHERE ts IS NOT NULL AND user_id IS NOT NULL
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)
"""


def q_events_autocorr(sf_dir: str):
    """Per-user lag-1 autocorrelation (pipelines/windows.py
    lag_autocorr): one key shuffle, adjacency pairs finish locally
    (keys co-located); min-anchored normal-equation closed form vs the
    twin's corr() over the double-lead pair CTE."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.windows import lag_autocorr

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    return _finalize(lag_autocorr(ev, lag=1), skip=("user_id", "n_pairs"))


SQL_EVENTS_AUTOCORR = """
WITH e AS (
    SELECT user_id, ts, event_id, value FROM events
    WHERE user_id IS NOT NULL AND ts IS NOT NULL
      AND value IS NOT NULL AND NOT isnan(value)
), p AS (
    SELECT user_id, value AS a,
           lead(value, 1) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS b
    FROM e
)
SELECT user_id, count(*) AS n_pairs, round(corr(a, b), 6) AS autocorr
FROM p WHERE b IS NOT NULL GROUP BY user_id
HAVING corr(a, b) IS NOT NULL
"""


KEYWORDS = ["spark", "hash join", "window"]


def q_doc_keyword_hits(sf_dir: str):
    """Blocklist/keyword tagging (pipelines/text.py keyword_hits — the
    C4 bad-words filter primitive): one Rust-regex literal counter pass
    per keyword per block, long-form (doc, keyword, hits) out, zero-hit
    pairs absent; no shuffle."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.text import keyword_hits

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return keyword_hits(docs, keywords=KEYWORDS)


SQL_DOC_KEYWORD_HITS = f"""
WITH k(kw) AS (VALUES {", ".join(f"('{k}')" for k in KEYWORDS)}),
h AS (
    SELECT doc_id, kw,
           (len(text) - len(replace(text, kw, ''))) // len(kw) AS hits
    FROM documents, k WHERE text IS NOT NULL
)
SELECT doc_id, kw AS keyword, hits FROM h WHERE hits > 0
"""


def q_events_changepoint(sf_dir: str):
    """Exact single change-point per user (pipelines/windows.py
    changepoint_single — the binary-segmentation base step, Cusum/Otsu
    analog): one key shuffle, closed-form SSE for every candidate split
    from two re-zeroed cumsums, minimum.reduceat argmin; candidate SSEs
    quantized to round-6 before the argmin on BOTH sides so float
    wobble can't flip the chosen split."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.windows import (
        changepoint_single,
    )

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    return _finalize(
        changepoint_single(ev, min_n=4),
        skip=("user_id", "n", "split_idx", "split_t_us"),
    )


SQL_EVENTS_CHANGEPOINT = """
WITH e AS (
    SELECT user_id, ts, event_id, value FROM events
    WHERE user_id IS NOT NULL AND ts IS NOT NULL
      AND value IS NOT NULL AND NOT isnan(value)
), o AS (
    SELECT user_id, epoch_us(ts) AS t_us,
           value - first_value(value) OVER w AS vs,
           row_number() OVER w AS i,
           count(*) OVER (PARTITION BY user_id) AS n
    FROM e WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), c AS (
    SELECT user_id, i, n, t_us,
           sum(vs) OVER w2 AS s_i, sum(vs * vs) OVER w2 AS s2_i,
           sum(vs) OVER (PARTITION BY user_id) AS s_n,
           sum(vs * vs) OVER (PARTITION BY user_id) AS s2_n
    FROM o WINDOW w2 AS (PARTITION BY user_id ORDER BY i
                         ROWS UNBOUNDED PRECEDING)
), s AS (
    SELECT user_id, i, n, t_us,
           (s2_i - s_i * s_i / i)
               + ((s2_n - s2_i)
                  - (s_n - s_i) * (s_n - s_i) / (n - i)) AS sse,
           s2_n - s_n * s_n / n AS sse_total
    FROM c WHERE i < n
), r AS (
    SELECT *, row_number() OVER (PARTITION BY user_id
                                 ORDER BY round(sse, 6) ASC, i ASC) AS rk
    FROM s
)
SELECT user_id, n, i AS split_idx, t_us AS split_t_us,
       round(sse_total, 6) AS sse_total, round(sse, 6) AS sse_split,
       round(sse_total - sse, 6) AS gain
FROM r WHERE rk = 1 AND n >= 4
"""


VALIDATE_RULES = [
    {"name": "user_not_null", "kind": "not_null", "col": "user_id"},
    {
        "name": "value_0_100",
        "kind": "range",
        "col": "value",
        "lo": 0.0,
        "hi": 100.0,
    },
    {
        "name": "type_lower",
        "kind": "regex",
        "col": "event_type",
        "pattern": "^[a-z_]+$",
    },
    {
        "name": "type_known",
        "kind": "in_set",
        "col": "event_type",
        "values": ["click", "view", "purchase"],
    },
    {"name": "id_unique", "kind": "unique", "col": "event_id"},
    {"name": "user_unique", "kind": "unique", "col": "user_id"},
]


def q_events_validate(sf_dir: str):
    """Declarative data-quality scorecard (pipelines/quality.py
    validate_constraints — the dbt-test analog): row-local rules in one
    streaming pass emitting per-(rule, block) partials; unique rules add
    one value-cardinality (value, cnt, min_id) exchange; everything
    reduces through ONE rule-cardinality groupby (Sum, Sum, Min).
    min-id sampling is associative, so the scorecard is
    partition-invariant."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.quality import (
        validate_constraints,
    )

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "event_type", "value"],
    )
    return validate_constraints(ev, rules=VALIDATE_RULES)


SQL_EVENTS_VALIDATE = """
SELECT 'user_not_null' AS rule, count(*) AS n_checked,
       count(*) FILTER (user_id IS NULL) AS n_violations,
       min(event_id) FILTER (user_id IS NULL) AS min_violating_id
FROM events
UNION ALL
SELECT 'value_0_100',
       count(*) FILTER (value IS NOT NULL AND NOT isnan(value)),
       count(*) FILTER (value IS NOT NULL AND NOT isnan(value)
                        AND (value < 0.0 OR value > 100.0)),
       min(event_id) FILTER (value IS NOT NULL AND NOT isnan(value)
                             AND (value < 0.0 OR value > 100.0))
FROM events
UNION ALL
SELECT 'type_lower', count(*) FILTER (event_type IS NOT NULL),
       count(*) FILTER (event_type IS NOT NULL
                        AND NOT regexp_matches(event_type, '^[a-z_]+$')),
       min(event_id) FILTER (event_type IS NOT NULL
                             AND NOT regexp_matches(event_type,
                                                    '^[a-z_]+$'))
FROM events
UNION ALL
SELECT 'type_known', count(*) FILTER (event_type IS NOT NULL),
       count(*) FILTER (event_type IS NOT NULL
                        AND event_type NOT IN ('click', 'view',
                                               'purchase')),
       min(event_id) FILTER (event_type IS NOT NULL
                             AND event_type NOT IN ('click', 'view',
                                                    'purchase'))
FROM events
UNION ALL
SELECT 'id_unique', count(event_id),
       count(event_id) - count(DISTINCT event_id),
       (SELECT min(e2.event_id) FROM events e2 WHERE e2.event_id IN
          (SELECT event_id FROM events WHERE event_id IS NOT NULL
           GROUP BY event_id HAVING count(*) > 1))
FROM events
UNION ALL
SELECT 'user_unique', count(user_id),
       count(user_id) - count(DISTINCT user_id),
       (SELECT min(e2.event_id) FROM events e2 WHERE e2.user_id IN
          (SELECT user_id FROM events WHERE user_id IS NOT NULL
           GROUP BY user_id HAVING count(*) > 1))
FROM events
"""


TE_SMOOTHING = 20.0


def q_events_target_encode(sf_dir: str):
    """Smoothed target encoding of event_type (pipelines/aggregates.py
    target_encode): per-key min-anchored partial sums, one
    key-cardinality groupby-sum, key->te map broadcast once, streaming
    vectorized left-join encode — the data never shuffles. Twin replays
    (n*avg + m*prior)/(n+m) with LEFT JOIN + COALESCE."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.aggregates import target_encode

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "value"],
    )
    return _finalize(
        target_encode(ev, smoothing=TE_SMOOTHING),
        skip=("event_id", "event_type"),
    )


SQL_EVENTS_TARGET_ENCODE = f"""
WITH v AS (
    SELECT event_type, value FROM events
    WHERE event_type IS NOT NULL
      AND value IS NOT NULL AND NOT isnan(value)
), g AS (
    SELECT event_type, count(*) AS n, avg(value) AS m
    FROM v GROUP BY event_type
), p AS (SELECT avg(value) AS prior FROM v)
SELECT e.event_id, e.event_type,
       round(coalesce((g.n * g.m + {TE_SMOOTHING} * p.prior)
                          / (g.n + {TE_SMOOTHING}),
                      p.prior), 6) AS te
FROM events e LEFT JOIN g USING (event_type) CROSS JOIN p
"""


PATHS_N = 3
PATHS_TOP = 40


def q_events_paths(sf_dir: str):
    """Top user-journey trigrams (pipelines/windows.py
    event_path_ngrams): one key shuffle, shifted same-key mask emits
    path-count partials, global path groupby-sum, associative
    block-then-final top-k under the deterministic (cnt DESC, path ASC)
    total order."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.windows import event_path_ngrams

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"],
    )
    return event_path_ngrams(ev, n=PATHS_N, top=PATHS_TOP)


SQL_EVENTS_PATHS = f"""
WITH e AS (
    SELECT user_id, ts, event_id, event_type FROM events
    WHERE user_id IS NOT NULL AND ts IS NOT NULL
      AND event_type IS NOT NULL
), w AS (
    SELECT event_type AS a,
           lead(event_type, 1) OVER win AS b,
           lead(event_type, 2) OVER win AS c
    FROM e WINDOW win AS (PARTITION BY user_id ORDER BY ts, event_id)
), g AS (
    SELECT a || '>' || b || '>' || c AS path, count(*) AS cnt
    FROM w WHERE b IS NOT NULL AND c IS NOT NULL GROUP BY 1
)
SELECT path, cnt FROM g ORDER BY cnt DESC, path ASC LIMIT {PATHS_TOP}
"""


LINE_DEDUP_TOKENS = 10
LINE_DEDUP_MIN_DOCS = 2


def q_doc_line_dedup(sf_dir: str):
    """RefinedWeb-style corpus line dedup (pipelines/text.py
    line_dedup): lines whose corpus document frequency >= min_docs are
    removed from every document; docs reassembled from surviving lines.
    Pseudo-lines of LINE_DEDUP_TOKENS tokens (the synthetic corpus has
    no newlines); df pass is block-local DISTINCT (doc, line) partials
    + one groupby-sum, common lines broadcast once."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.text import line_dedup

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return line_dedup(
        docs, line_tokens=LINE_DEDUP_TOKENS, min_docs=LINE_DEDUP_MIN_DOCS
    )


SQL_DOC_LINE_DEDUP = f"""
WITH w AS (
    SELECT doc_id,
           unnest(string_split(text, ' ')) AS tok,
           unnest(generate_series(1, len(string_split(text, ' ')))) AS i
    FROM documents WHERE text IS NOT NULL
), l AS (
    SELECT doc_id, (i - 1) // {LINE_DEDUP_TOKENS} AS ln,
           string_agg(tok, ' ' ORDER BY i) AS line
    FROM w GROUP BY doc_id, (i - 1) // {LINE_DEDUP_TOKENS}
), f AS (
    SELECT line, count(DISTINCT doc_id) AS df FROM l GROUP BY line
), kept AS (
    SELECT l.doc_id, l.ln, l.line
    FROM l JOIN f USING (line) WHERE f.df < {LINE_DEDUP_MIN_DOCS}
)
SELECT doc_id, string_agg(line, chr(10) ORDER BY ln) AS text_clean,
       count(*) AS n_lines_kept
FROM kept GROUP BY doc_id
"""


# ---------------------------------------------------------------------------
# driver hooks
# ---------------------------------------------------------------------------


def entry() -> Any:
    """Flagship pipeline on sf0.001: derive transcripts from events, run the
    full three-tier rollup with the headline feature suite."""
    return q_rollup_full_tiers(SF0_001)


def queries() -> dict[str, Callable[[str], Any]]:
    # ORDER MATTERS: the external driver materializes only the first
    # ~50 entries per round into CORRECTNESS_r{N}.json.  Positions 1-2
    # are the two r04 FAILs (doc_pack/doc_curation — the oracle twins'
    # HUGEINT->float64 pack_id/pack_offset are CAST AS BIGINT; green in
    # r05).  3-6 are the four queries that sat past the window through
    # r05 (positions 91, 92, 147, 148), so no driver file has recorded
    # them; they pass scripts/check_oracle.py locally.  7-31 are the
    # queries first recorded in r05 (green), code unchanged since; the
    # four of that group recorded green in r05 with unchanged code
    # (events_state_intervals, doc_weighted_sample, doc_quota_sample,
    # events_retention) moved to the end (146-149) to make room.  32-40 are
    # the round-5 re-checks (welch/autocorr constant-arm variance snap;
    # rolling-family null-key drops + twin WHERE filters;
    # validate_constraints zero-row partial), 41-42 and 45-46 headline
    # re-checks.  43-44 are the two rollup queries whose code changed
    # most when every driver rollup moved onto rollup_dataset
    # (rollup_1h_by_band) and run_rollup_job + update_rollup_job
    # (rollup_incremental).  New queries go right after position 46 so
    # they land inside the window; everything past ~50 is green in a
    # driver file (r01-r05) with unchanged code.
    return {
        # -- r04 driver FAILs, twins fixed this round (1-2) ---------------
        "doc_pack": q_doc_pack,
        "doc_curation": q_doc_curation,
        # -- never recorded by the driver: past the window through r05 (3-6)
        "doc_minhash_dups": q_doc_minhash_dups,
        "doc_simhash_dups": q_doc_simhash_dups,
        "doc_simhash": q_doc_simhash,
        "multimodal_decode": q_multimodal_decode,
        # -- first recorded in r05 (green), code unchanged since (7-31) ---
        "events_percent_rank": q_events_percent_rank,
        "events_top_types": q_events_top_types,
        "doc_pmi_bigrams": q_doc_pmi_bigrams,
        "events_transitions": q_events_transitions,
        "doc_char_entropy": q_doc_char_entropy,
        "events_zorder": q_events_zorder,
        "events_ks_drift": q_events_ks_drift,
        "doc_editdist_dups": q_doc_editdist_dups,
        "events_type_histogram": q_events_type_histogram,
        "events_audience_overlap": q_events_audience_overlap,
        "events_conversion_latency": q_events_conversion_latency,
        "events_trimmed_mean": q_events_trimmed_mean,
        "events_twa": q_events_twa,
        "events_lag_deltas": q_events_lag_deltas,
        "doc_bm25": q_doc_bm25,
        "doc_triangles": q_doc_triangles,
        "doc_pagerank": q_doc_pagerank,
        "events_disc_quantiles": q_events_disc_quantiles,
        "events_entropy": q_events_entropy,
        "doc_containment": q_doc_containment,
        "events_windowed_distinct": q_events_windowed_distinct,
        "doc_diff": q_doc_diff,
        "events_grouped_approx": q_events_grouped_approx,
        "events_resample": q_events_resample,
        "doc_bm25_search": q_doc_bm25_search,
        # -- engine/twin changed this round: re-check (32-40) -------------
        "events_welch_ab": q_events_welch_ab,
        "events_autocorr": q_events_autocorr,
        "events_rolling_median": q_events_rolling_median,
        "events_rolling": q_events_rolling,
        "events_rolling_time": q_events_rolling_time,
        "events_zscore": q_events_zscore,
        "events_running": q_events_running,
        "events_ewma": q_events_ewma,
        "events_validate": q_events_validate,
        # -- headline re-checks (41-42) -----------------------------------
        "rollup_full_tiers_sql": q_rollup_full_tiers_sql,
        "rollup_1m_stats": q_rollup_1m_stats,
        # -- moved onto rollup_dataset / the job update: re-check (43-44) -
        "rollup_incremental": q_rollup_incremental,
        "rollup_1h_by_band": q_rollup_1h_by_band,
        # -- headline re-checks (45-46) -----------------------------------
        "emb_semantic_dedup": q_emb_semantic_dedup,
        "emb_kcenter_sample": q_emb_kcenter_sample,
        # -- new round-5 queries go here (47+) ----------------------------
        "turns_assemble": q_turns_assemble,
        "events_gap_report": q_events_gap_report,
        "events_profile": q_events_profile,
        # -- green in r01-r04 driver files, code unchanged ----------------
        "doc_line_dedup": q_doc_line_dedup,
        "events_paths": q_events_paths,
        "events_target_encode": q_events_target_encode,
        "doc_keyword_hits": q_doc_keyword_hits,
        "events_changepoint": q_events_changepoint,
        "events_coverage": q_events_coverage,
        "events_throttle": q_events_throttle,
        "events_new_users": q_events_new_users,
        "events_chi2": q_events_chi2,
        "events_approx_quantiles": q_events_approx_quantiles,
        "events_type_quantiles": q_events_type_quantiles,
        "events_hll_users": q_events_hll_users,
        "events_cms_users": q_events_cms_users,
        "events_pivot": q_events_pivot,
        "events_top_users": q_events_top_users,
        "doc_normalize": q_doc_normalize,
        "doc_top_terms": q_doc_top_terms,
        "doc_tfidf": q_doc_tfidf,
        "doc_hash_sample": q_doc_hash_sample,
        "doc_stratified_sample": q_doc_stratified_sample,
        "doc_split": q_doc_split,
        "doc_shuffle": q_doc_shuffle,
        "doc_top_k_per_lang": q_doc_top_k_per_lang,
        "doc_dedup_groups": q_doc_dedup_groups,
        "doc_canonical": q_doc_canonical,
        "doc_repetition": q_doc_repetition,
        "doc_chunks": q_doc_chunks,
        "doc_decontaminate": q_doc_decontaminate,
        "doc_lm_score": q_doc_lm_score,
        "doc_quality_filter": q_doc_quality_filter,
        "lineitem_bloom": q_lineitem_bloom,
        "emb_group_centroid": q_emb_group_centroid,
        "multimodal_resize": q_multimodal_resize,
        "multimodal_frames": q_multimodal_frames,
        "doc_boilerplate": q_doc_boilerplate,
        "events_heavy_users": q_events_heavy_users,
        "events_winsorized": q_events_winsorized,
        "events_mad_outliers": q_events_mad_outliers,
        "events_mode": q_events_mode,
        "doc_dsir_weights": q_doc_dsir_weights,
        "events_funnel": q_events_funnel,
        "emb_cosine_dups": q_emb_cosine_dups,
        "rollup_1h_cascade": q_rollup_1h_cascade,
        "rollup_1d_cascade": q_rollup_1d_cascade,
        "rollup_1d_gapfill_linear": q_rollup_1d_gapfill_linear,
        "rollup_full_tiers": q_rollup_full_tiers,
        "turns_clean": q_turns_clean,
        "conv_advanced": q_conv_advanced,
        "knn_cosine": q_knn_cosine,
        "knn_lsh": q_knn_lsh,
        "knn_ivf": q_knn_ivf,
        "events_asof_join": q_events_asof_join,
        "events_interval_join": q_events_interval_join,
        "lineitem_orders_join": q_lineitem_orders_join,
        "doc_exact_dedup": q_doc_exact_dedup,
        "events_grouping_sets": q_events_grouping_sets,
        "events_value_quantiles": q_events_value_quantiles,
        "conv_moments": q_conv_moments,
        "rollup_1m_quantiles": q_rollup_1m_quantiles,
        "rollup_1d_gapfill_prev": q_rollup_1d_gapfill_prev,
        "rollup_retention": q_rollup_retention,
        "conv_time": q_conv_time,
        "conv_shape": q_conv_shape,
        "conv_quantiles": q_conv_quantiles,
        "conv_bins": q_conv_bins,
        "conv_transformed": q_conv_transformed,
        "conv_role_features": q_conv_role_features,
        "conv_otsu": q_conv_otsu,
        "conv_biweight": q_conv_biweight,
        "conv_bazin_fit": q_conv_bazin_fit,
        "conv_villar_linexp_fit": q_conv_villar_linexp_fit,
        "conv_colors": q_conv_colors,
        "conv_multicolor_bins": q_conv_multicolor_bins,
        "conv_multicolor_periodogram": q_conv_multicolor_periodogram,
        "events_sliding_window": q_events_sliding_window,
        "events_tumbling_window": q_events_tumbling_window,
        "events_sessions": q_events_sessions,
        "events_user_trend": q_events_user_trend,
        "events_last_state": q_events_last_state,
        "events_value_histogram": q_events_value_histogram,
        "events_json_props": q_events_json_props,
        "events_distinct_users": q_events_distinct_users,
        "lineitem_unpivot": q_lineitem_unpivot,
        "lineitem_corr": q_lineitem_corr,
        "events_semi_join": q_events_semi_join,
        "events_deciles": q_events_deciles,
        "doc_anti_join": q_doc_anti_join,
        "orders_enriched": q_orders_enriched,
        "doc_text_stats": q_doc_text_stats,
        "doc_lang_id": q_doc_lang_id,
        "doc_token_count": q_doc_token_count,
        "doc_fingerprint": q_doc_fingerprint,
        "doc_ngram_jaccard": q_doc_ngram_jaccard,
        "doc_redact": q_doc_redact,
        "doc_winnow": q_doc_winnow,
        "multimodal_meta": q_multimodal_meta,
        # -- first recorded green in r05, moved out of the window ---------
        "events_state_intervals": q_events_state_intervals,
        "doc_weighted_sample": q_doc_weighted_sample,
        "doc_quota_sample": q_doc_quota_sample,
        "events_retention": q_events_retention,
    }


def oracle_sql() -> dict[str, str]:
    return {
        "turns_clean": f"WITH turns AS ({TRANSCRIPTS_SQL}) SELECT * FROM turns",
        "turns_assemble": SQL_TURNS_ASSEMBLE,
        "events_gap_report": SQL_EVENTS_GAP_REPORT,
        "events_profile": SQL_EVENTS_PROFILE,
        "rollup_1m_stats": SQL_ROLLUP_1M_STATS,
        "rollup_1m_quantiles": SQL_ROLLUP_1M_QUANTILES,
        "rollup_1h_cascade": SQL_ROLLUP_1H_CASCADE,
        "rollup_1h_by_band": SQL_ROLLUP_1H_BY_BAND,
        "rollup_1d_cascade": SQL_ROLLUP_1D_CASCADE,
        "rollup_1d_gapfill_prev": SQL_ROLLUP_1D_GAPFILL_PREV,
        "rollup_1d_gapfill_linear": SQL_ROLLUP_1D_GAPFILL_LINEAR,
        "rollup_retention": SQL_ROLLUP_RETENTION,
        "rollup_incremental": SQL_ROLLUP_1H_CASCADE,
        "rollup_full_tiers_sql": SQL_ROLLUP_FULL_TIERS_SQL,
        "conv_moments": SQL_CONV_MOMENTS,
        "conv_time": SQL_CONV_TIME,
        "conv_shape": SQL_CONV_SHAPE,
        "conv_quantiles": SQL_CONV_QUANTILES,
        "conv_bins": SQL_CONV_BINS,
        "conv_transformed": SQL_CONV_TRANSFORMED,
        "conv_role_features": SQL_CONV_ROLE_FEATURES,
        "conv_multicolor_bins": SQL_CONV_MULTICOLOR_BINS,
        "conv_otsu": SQL_CONV_OTSU,
        "conv_biweight": SQL_CONV_BIWEIGHT,
        "multimodal_meta": SQL_MULTIMODAL_META,
        "multimodal_decode": SQL_MULTIMODAL_DECODE,
        "multimodal_resize": SQL_MULTIMODAL_RESIZE,
        "multimodal_frames": SQL_MULTIMODAL_FRAMES,
        "conv_colors": SQL_CONV_COLORS,
        "events_sliding_window": SQL_EVENTS_SLIDING_WINDOW,
        "events_tumbling_window": SQL_EVENTS_TUMBLING_WINDOW,
        "events_sessions": SQL_EVENTS_SESSIONS,
        "events_rolling": SQL_EVENTS_ROLLING,
        "events_rolling_time": SQL_EVENTS_ROLLING_TIME,
        "events_ewma": SQL_EVENTS_EWMA,
        "events_zscore": SQL_EVENTS_ZSCORE,
        "events_user_trend": SQL_EVENTS_USER_TREND,
        "events_last_state": SQL_EVENTS_LAST_STATE,
        "events_grouping_sets": SQL_EVENTS_GROUPING_SETS,
        "events_running": SQL_EVENTS_RUNNING,
        "events_value_histogram": SQL_EVENTS_VALUE_HISTOGRAM,
        "events_json_props": SQL_EVENTS_JSON_PROPS,
        "events_distinct_users": SQL_EVENTS_DISTINCT_USERS,
        "events_mode": SQL_EVENTS_MODE,
        "doc_dsir_weights": SQL_DOC_DSIR_WEIGHTS,
        "events_funnel": SQL_EVENTS_FUNNEL,
        "events_state_intervals": SQL_EVENTS_STATE_INTERVALS,
        "events_coverage": SQL_EVENTS_COVERAGE,
        "events_throttle": SQL_EVENTS_THROTTLE,
        "events_new_users": SQL_EVENTS_NEW_USERS,
        "events_chi2": SQL_EVENTS_CHI2,
        "events_welch_ab": _build_sql_events_welch_ab(),
        "doc_line_dedup": SQL_DOC_LINE_DEDUP,
        "events_rolling_median": SQL_EVENTS_ROLLING_MEDIAN,
        "events_paths": SQL_EVENTS_PATHS,
        "events_autocorr": SQL_EVENTS_AUTOCORR,
        "events_target_encode": SQL_EVENTS_TARGET_ENCODE,
        "events_validate": SQL_EVENTS_VALIDATE,
        "doc_keyword_hits": SQL_DOC_KEYWORD_HITS,
        "events_changepoint": SQL_EVENTS_CHANGEPOINT,
        "events_zorder": _build_sql_events_zorder(),
        "events_ks_drift": _build_sql_events_ks_drift(),
        "doc_editdist_dups": _build_sql_doc_editdist_dups(),
        "events_type_histogram": SQL_EVENTS_TYPE_HISTOGRAM,
        "events_audience_overlap": SQL_EVENTS_AUDIENCE_OVERLAP,
        "events_conversion_latency": SQL_EVENTS_CONVERSION_LATENCY,
        "events_trimmed_mean": SQL_EVENTS_TRIMMED_MEAN,
        "events_twa": SQL_EVENTS_TWA,
        "events_lag_deltas": SQL_EVENTS_LAG_DELTAS,
        "doc_bm25": SQL_DOC_BM25,
        "doc_triangles": SQL_DOC_TRIANGLES,
        "doc_pagerank": SQL_DOC_PAGERANK,
        "events_disc_quantiles": SQL_EVENTS_DISC_QUANTILES,
        "events_entropy": SQL_EVENTS_ENTROPY,
        "doc_containment": SQL_DOC_CONTAINMENT,
        "events_windowed_distinct": SQL_EVENTS_WINDOWED_DISTINCT,
        "doc_diff": SQL_DOC_DIFF,
        "events_grouped_approx": SQL_EVENTS_GROUPED_APPROX,
        "events_resample": SQL_EVENTS_RESAMPLE,
        "doc_bm25_search": SQL_DOC_BM25_SEARCH,
        "doc_weighted_sample": _sql_doc_weighted_sample(),
        "doc_quota_sample": _sql_doc_quota_sample(),
        "lineitem_unpivot": SQL_LINEITEM_UNPIVOT,
        "lineitem_corr": SQL_LINEITEM_CORR,
        "events_semi_join": SQL_EVENTS_SEMI_JOIN,
        "events_deciles": SQL_EVENTS_DECILES,
        "doc_anti_join": SQL_DOC_ANTI_JOIN,
        "events_asof_join": SQL_EVENTS_ASOF_JOIN,
        "events_interval_join": SQL_EVENTS_INTERVAL_JOIN,
        "orders_enriched": SQL_ORDERS_ENRICHED,
        "lineitem_orders_join": SQL_LINEITEM_ORDERS_JOIN,
        "events_value_quantiles": SQL_EVENTS_VALUE_QUANTILES,
        "events_approx_quantiles": _build_sql_events_approx_quantiles(),
        "events_type_quantiles": SQL_EVENTS_TYPE_QUANTILES,
        "events_top_users": SQL_EVENTS_TOP_USERS,
        "events_hll_users": SQL_EVENTS_HLL_USERS,
        "events_heavy_users": SQL_EVENTS_HEAVY_USERS,
        "events_winsorized": SQL_EVENTS_WINSORIZED,
        "events_mad_outliers": SQL_EVENTS_MAD_OUTLIERS,
        "events_cms_users": _build_sql_events_cms_users(),
        "events_pivot": _build_sql_events_pivot(),
        "doc_exact_dedup": SQL_DOC_EXACT_DEDUP,
        "doc_text_stats": SQL_DOC_TEXT_STATS,
        "doc_lang_id": SQL_DOC_LANG_ID,
        "doc_token_count": SQL_DOC_TOKEN_COUNT,
        "doc_fingerprint": SQL_DOC_FINGERPRINT,
        "doc_normalize": SQL_DOC_NORMALIZE,
        "doc_top_terms": SQL_DOC_TOP_TERMS,
        "doc_tfidf": SQL_DOC_TFIDF,
        "doc_hash_sample": _build_sql_doc_hash_sample(),
        "doc_stratified_sample": _build_sql_doc_stratified_sample(),
        "doc_split": _build_sql_doc_split(),
        "doc_pack": SQL_DOC_PACK,
        "doc_shuffle": _build_sql_doc_shuffle(),
        "doc_curation": _build_sql_doc_curation(),
        "doc_top_k_per_lang": SQL_DOC_TOP_K_PER_LANG,
        "doc_ngram_jaccard": SQL_DOC_NGRAM_JACCARD,
        "doc_dedup_groups": SQL_DOC_DEDUP_GROUPS,
        "doc_canonical": _build_sql_doc_canonical(),
        "doc_redact": SQL_DOC_REDACT,
        "doc_winnow": SQL_DOC_WINNOW,
        "doc_repetition": SQL_DOC_REPETITION,
        "doc_chunks": SQL_DOC_CHUNKS,
        "doc_decontaminate": SQL_DOC_DECONTAMINATE,
        "doc_lm_score": SQL_DOC_LM_SCORE,
        "doc_boilerplate": SQL_DOC_BOILERPLATE,
        "doc_quality_filter": _build_sql_doc_quality_filter(),
        "lineitem_bloom": _build_sql_lineitem_bloom(),
        "emb_group_centroid": SQL_EMB_GROUP_CENTROID,
        "doc_simhash": SQL_DOC_SIMHASH,
        "doc_simhash_dups": SQL_DOC_SIMHASH_DUPS,
        "doc_minhash_dups": _build_sql_doc_minhash_dups(),
        "emb_cosine_dups": SQL_EMB_COSINE_DUPS,
        "knn_cosine": SQL_KNN_COSINE,
        "events_retention": SQL_EVENTS_RETENTION,
        "events_percent_rank": SQL_EVENTS_PERCENT_RANK,
        "events_top_types": SQL_EVENTS_TOP_TYPES,
        "doc_pmi_bigrams": SQL_DOC_PMI_BIGRAMS,
        "events_transitions": SQL_EVENTS_TRANSITIONS,
        "doc_char_entropy": SQL_DOC_CHAR_ENTROPY,
    }
