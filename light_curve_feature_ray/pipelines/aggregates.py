"""All-aggregate analytics: operators whose distributed shape is pure
combiner -> groupby-sum -> closed form, with no row co-location at all —
the cheapest possible 100-TB pattern (the shuffle carries one partial row
per (group, block), never data rows).

First resident: per-group ordinary-least-squares trend (slope/intercept
of y over x), the relational ``regr_slope``/``regr_intercept`` pair."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.exchange import reduce_by_key


def _grouped_sums(
    keys, key_field: pa.Field, cols: dict, minmax: dict | None = None
) -> pa.Table:
    """Block-local per-key partial sums (the combiner both aggregates
    share): one stable argsort + ``add.reduceat`` per numeric column,
    plus the per-key row count ``n``.  ``minmax`` adds per-key
    ``{name}_min``/``{name}_max`` partials (minimum/maximum.reduceat over
    the same order) — mergeable downstream via Min/Max aggregates; used
    to snap exactly-constant groups to zero variance (the rolling_zscore
    win min==max rule) where the closed form would leave ±1e-12 noise."""
    minmax = minmax or {}
    if keys.size == 0:
        out = {
            key_field.name: pa.array(keys).cast(key_field.type),
            "n": pa.array(np.empty(0, dtype=np.int64)),
        }
        for name in cols:
            out[name] = pa.array(np.empty(0, dtype=np.float64))
        for name in minmax:
            out[name + "_min"] = pa.array(np.empty(0, dtype=np.float64))
            out[name + "_max"] = pa.array(np.empty(0, dtype=np.float64))
        return pa.table(out)
    uniq, inv = np.unique(keys, return_inverse=True)
    order = np.argsort(inv, kind="stable")
    starts = np.flatnonzero(np.r_[True, np.diff(inv[order]) > 0])
    out = {
        key_field.name: pa.array(uniq).cast(key_field.type),
        "n": pa.array(np.bincount(inv).astype(np.int64)),
    }
    for name, arr in cols.items():
        out[name] = pa.array(np.add.reduceat(arr[order], starts))
    for name, arr in minmax.items():
        out[name + "_min"] = pa.array(np.minimum.reduceat(arr[order], starts))
        out[name + "_max"] = pa.array(np.maximum.reduceat(arr[order], starts))
    return pa.table(out)


def group_linear_trend(
    ds,
    *,
    key_col: str = "user_id",
    x_col: str = "ts",
    y_col: str = "value",
    x_offset_us: int | None = None,
):
    """Per-key OLS line fit of ``y`` over ``x``: returns
    (key, n, slope, intercept) with slope = (n*Sxy - Sx*Sy) /
    (n*Sxx - Sx^2), the regr_slope normal-equation form; slope and
    intercept are NaN for keys with n < 2 or zero x-variance.

    A timestamp ``x`` is converted to SECONDS relative to
    ``x_offset_us`` (microseconds); a plain numeric ``x`` is used as-is
    minus the offset, in its own units. The offset anchors x near zero —
    raw epoch microseconds would put Sxx at ~1e33 and the
    normal-equation cancellation would destroy the slope (the same ulp
    trap the conv_time features hit; see CLAUDE.md). If None, the global
    min of ``x`` is used (one tiny aggregate). Rows where EITHER x or y
    is NaN/null are skipped entirely (mirror with ``WHERE x IS NOT NULL
    AND y IS NOT NULL`` in SQL twins — per-term NULL skipping would
    diverge).

    Scale shape: block-local partial sums (n, Sx, Sy, Sxy, Sxx) per key
    — one lexsort + reduceat per batch — then ONE groupby-sum over
    key-cardinality partials and a vectorized closed form. Sums are
    commutative, so up to float association the result is independent of
    partitioning (the driver oracle pins round-6 equality).
    """
    if x_offset_us is None:
        m = ds.min(x_col)
        if hasattr(m, "timestamp"):  # datetime / pandas Timestamp
            x_offset_us = int(pd.Timestamp(m).value // 1_000)  # exact ns->us
        else:
            x_offset_us = float(m)

    def partial(batch: pa.Table) -> pa.Table:
        # NULL-key rows are DROPPED (mirror with WHERE key IS NOT NULL
        # in SQL twins) — a None key would crash np.unique on object
        # arrays / NaN-promote int keys in the Arrow cast otherwise
        batch = batch.filter(pc.is_valid(batch[key_col]))
        keys = batch[key_col].to_numpy(zero_copy_only=False)
        if pa.types.is_timestamp(batch.schema.field(x_col).type):
            x_us = (
                batch[x_col]
                .cast(pa.timestamp("us"))
                .cast(pa.int64())
                .to_numpy(zero_copy_only=False)
            )
            x = (x_us - x_offset_us) / 1e6
        else:
            # plain numeric x: offset is in x's own units, no rescale
            x = (
                batch[x_col].to_numpy(zero_copy_only=False).astype(np.float64)
                - x_offset_us
            )
        y = batch[y_col].to_numpy(zero_copy_only=False).astype(np.float64)
        # drop rows where EITHER side is missing — a NaN x would
        # otherwise poison every partial sum for its key, where the SQL
        # twin's per-term sum() skips only the null term
        ok = ~(np.isnan(np.asarray(x, dtype=np.float64)) | np.isnan(y))
        keys, x, y = keys[ok], np.asarray(x, dtype=np.float64)[ok], y[ok]
        return _grouped_sums(
            keys,
            batch.schema.field(key_col),
            {"sx": x, "sy": y, "sxy": x * y, "sxx": x * x},
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby(key_col)
        .sum(["n", "sx", "sy", "sxy", "sxx"])
    )

    def finish(t: pa.Table) -> pa.Table:
        n = t["sum(n)"].to_numpy(zero_copy_only=False).astype(np.float64)
        sx = t["sum(sx)"].to_numpy(zero_copy_only=False)
        sy = t["sum(sy)"].to_numpy(zero_copy_only=False)
        sxy = t["sum(sxy)"].to_numpy(zero_copy_only=False)
        sxx = t["sum(sxx)"].to_numpy(zero_copy_only=False)
        denom = n * sxx - sx * sx
        with np.errstate(invalid="ignore", divide="ignore"):
            slope = np.where(
                (n >= 2) & (denom > 0), (n * sxy - sx * sy) / denom, np.nan
            )
            intercept = np.where(
                np.isnan(slope), np.nan, (sy - slope * sx) / n
            )
        return pa.table(
            {
                key_col: t[key_col],
                "n": pa.array(n.astype(np.int64)),
                "slope": pa.array(slope),
                "intercept": pa.array(intercept),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", batch_size=None)


def group_corr(
    ds,
    *,
    key_col: str,
    x_col: str,
    y_col: str,
):
    """Per-key Pearson correlation of two numeric columns — the
    relational ``corr()`` in the same pure all-aggregate shape as
    :func:`group_linear_trend` (partial sums n, Sx, Sy, Sxy, Sxx, Syy
    per key -> one groupby-sum -> closed form
    (n*Sxy - Sx*Sy) / sqrt((n*Sxx - Sx^2) * (n*Syy - Sy^2))).

    Rows where EITHER side is NaN are skipped (SQL corr NULL-pair
    semantics); keys with n < 2 or zero variance on either side give
    NaN. Returns (key, n, corr).
    """

    def partial(batch: pa.Table) -> pa.Table:
        # NULL-key rows are DROPPED (mirror: WHERE key IS NOT NULL)
        batch = batch.filter(pc.is_valid(batch[key_col]))
        keys = batch[key_col].to_numpy(zero_copy_only=False)
        x = batch[x_col].to_numpy(zero_copy_only=False).astype(np.float64)
        y = batch[y_col].to_numpy(zero_copy_only=False).astype(np.float64)
        ok = ~(np.isnan(x) | np.isnan(y))
        keys, x, y = keys[ok], x[ok], y[ok]
        return _grouped_sums(
            keys,
            batch.schema.field(key_col),
            {
                "sx": x,
                "sy": y,
                "sxy": x * y,
                "sxx": x * x,
                "syy": y * y,
            },
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby(key_col)
        .sum(["n", "sx", "sy", "sxy", "sxx", "syy"])
    )

    def finish(t: pa.Table) -> pa.Table:
        n = t["sum(n)"].to_numpy(zero_copy_only=False).astype(np.float64)
        sx = t["sum(sx)"].to_numpy(zero_copy_only=False)
        sy = t["sum(sy)"].to_numpy(zero_copy_only=False)
        sxy = t["sum(sxy)"].to_numpy(zero_copy_only=False)
        sxx = t["sum(sxx)"].to_numpy(zero_copy_only=False)
        syy = t["sum(syy)"].to_numpy(zero_copy_only=False)
        vx = n * sxx - sx * sx
        vy = n * syy - sy * sy
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.where(
                (n >= 2) & (vx > 0) & (vy > 0),
                (n * sxy - sx * sy) / np.sqrt(vx * vy),
                np.nan,
            )
        return pa.table(
            {
                key_col: t[key_col],
                "n": pa.array(n.astype(np.int64)),
                "corr": pa.array(r),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", batch_size=None)


def last_value_per_key(
    ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_cols: tuple = ("value",),
    id_col: str | None = "event_id",
    num_partitions: int | None = None,
):
    """Latest state per key: the row with the maximum (ts, id) per key —
    the standard "current snapshot" materialization of an event stream
    (SQL's row_number() OVER (PARTITION BY key ORDER BY ts DESC, id
    DESC) = 1). ``id_col`` is REQUIRED (it breaks duplicate-max-ts ties
    deterministically — without it the winner would depend on block
    layout, violating the parallelism-invariance contract). Rows with a
    NULL timestamp OR a NULL key are dropped (a null ts can never be
    the latest state; null keys can't ride the hash partitioner —
    pre-filter or fill if you need them; mirror with ``WHERE ts IS NOT
    NULL`` in SQL twins).

    Scale shape: a block-local COMBINER keeps one candidate row per key
    per block (argsort + take-last — associative, so the block winner
    equals the global winner restricted to the block), then one hash
    shuffle of the tiny candidate set and the same vectorized pick per
    partition. Raw rows never shuffle.

    Returns (key, t_us, *value_cols).
    """
    import pyarrow.compute as pc

    if id_col is None:
        raise ValueError(
            "id_col is required: duplicate max timestamps would otherwise "
            "be broken by block arrival order (non-deterministic)"
        )

    def pick(batch: pa.Table) -> pa.Table:
        valid = pc.and_(
            pc.is_valid(batch[ts_col]), pc.is_valid(batch[key_col])
        )
        if not pc.all(valid).as_py():
            batch = batch.filter(valid)
        keys = batch[key_col].to_numpy(zero_copy_only=False)
        if keys.size == 0:
            return batch  # zero rows, schema unchanged
        t_us = (
            batch[ts_col]
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
            if pa.types.is_timestamp(batch.schema.field(ts_col).type)
            else batch[ts_col].to_numpy(zero_copy_only=False)
        )
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, t_us, keys))
        last = np.flatnonzero(
            np.r_[keys[order][1:] != keys[order][:-1], True]
        )
        take = pa.array(order[last])
        return batch.take(take)

    def finish(batch: pa.Table) -> pa.Table:
        batch = pick(batch.drop_columns(["part"]))
        t_us = (
            batch[ts_col]
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            if pa.types.is_timestamp(batch.schema.field(ts_col).type)
            else batch[ts_col]
        )
        cols = {key_col: batch[key_col], "t_us": t_us}
        for c in value_cols:
            cols[c] = batch[c]
        return pa.table(cols)

    picked = ds.map_batches(pick, batch_format="pyarrow", batch_size=None)
    return reduce_by_key(picked, key_col, finish, num_partitions, "pyarrow")


_GS_SENTINEL = "\x00__all__"
_GS_NULLKEY = "\x00__null__"


def grouping_sets_agg(
    ds,
    *,
    sets: list,
    value_col: str = "value",
    keep_grouping_id: bool = True,
):
    """GROUP BY GROUPING SETS (count + sum of ``value_col``) — the
    CUBE/ROLLUP analytics class — in ONE pass over the data: each block
    computes the partials for EVERY set locally (absent key columns
    filled with a sentinel so the rows stay typed), one groupby over
    (grouping_id, *keys) reduces them, and the finish maps sentinels
    back to NULL. Key columns are emitted as strings (the SQL twin casts
    to VARCHAR), NULL where aggregated away.

    ``grouping_id`` follows the SQL convention: bit j (MSB-first over
    the union of key columns) is set when that column is aggregated
    away, disambiguating a grouped-away NULL from a real NULL key.
    NaN/null values count like SQL (count(value)/sum(value) skip them;
    groups whose every value is null still appear with n=0, sum NULL).

    Scale shape: the shuffle carries one partial row per (set, group,
    block) — never data rows; identical to running len(sets) combiner
    groupbys but with a single read pass and a single exchange.
    """
    sets = [tuple(s) for s in sets]
    all_keys: list = []
    for s in sets:
        for c in s:
            if c not in all_keys:
                all_keys.append(c)
    for s in sets:
        if len(set(s)) != len(s):
            raise ValueError(f"duplicate key in grouping set {s}")
    if len({frozenset(s) for s in sets}) != len(sets):
        raise ValueError(
            "duplicate grouping sets would double-count in the one-pass "
            "combiner (SQL repeats the rows instead) — deduplicate `sets`"
        )

    def gid(s: tuple) -> int:
        return sum(
            1 << (len(all_keys) - 1 - j)
            for j, c in enumerate(all_keys)
            if c not in s
        )

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # stringify keys via the ARROW cast (CAST(x AS VARCHAR) parity:
        # an int64 key is always '123', never the pandas float-promoted
        # '123.0' that a null in the same block would cause); real NULL
        # keys become a second sentinel (NOT the string "None") so
        # finish() can map them back to NULL like SQL's grouped null
        # keys — grouping_id disambiguates them from aggregated-away
        # columns
        df = pd.DataFrame(
            {
                c: pc.fill_null(
                    pc.cast(batch[c], pa.string()), _GS_NULLKEY
                ).to_pandas()
                for c in all_keys
            }
        )
        v = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        df["_ok"] = (~np.isnan(v)).astype(np.int64)
        df["_vz"] = np.where(np.isnan(v), 0.0, v)
        outs = []
        for s in sets:
            cols = list(s)
            if cols:
                g = (
                    df.groupby(cols, dropna=False, sort=False)
                    .agg(n=("_ok", "sum"), s=("_vz", "sum"))
                    .reset_index()
                )
            else:
                g = pd.DataFrame(
                    {"n": [int(df["_ok"].sum())], "s": [float(df["_vz"].sum())]}
                )
            for c in all_keys:
                if c not in s:
                    g[c] = _GS_SENTINEL
            g["grouping_id"] = np.int64(gid(s))
            outs.append(g[["grouping_id", *all_keys, "n", "s"]])
        merged = pd.concat(outs, ignore_index=True)
        return pa.Table.from_pandas(merged, preserve_index=False)

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby(["grouping_id", *all_keys])
        .sum(["n", "s"])
    )

    def finish(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        n = t["sum(n)"].to_numpy(zero_copy_only=False).astype(np.int64)
        s = t["sum(s)"].to_numpy(zero_copy_only=False)
        cols = {}
        if keep_grouping_id:
            cols["grouping_id"] = t["grouping_id"]
        for c in all_keys:
            col = t[c]
            mask = pc.or_(
                pc.equal(col, pa.scalar(_GS_SENTINEL)),
                pc.equal(col, pa.scalar(_GS_NULLKEY)),
            )
            cols[c] = pc.if_else(mask, pa.scalar(None, pa.string()), col)
        cols["n"] = pa.array(n)
        cols["sum_value"] = pa.array(np.where(n > 0, s, np.nan))
        return pa.table(cols)

    return agg.map_batches(finish, batch_format="pyarrow", batch_size=None)


def group_count_distinct(ds, *, key_col: str, value_col: str):
    """Exact COUNT(DISTINCT value) per key — the exact complement of the
    HLL sketch (``sketches.hll_distinct``): use this when the
    (key, value) pair cardinality is shuffle-affordable, HLL when it is
    not.

    Scale shape: block-local DISTINCT (key, value) combiner (each block
    contributes each pair at most once — the shuffle carries pairs, not
    rows), one pair-keyed groupby to dedup across blocks, then a
    key-cardinality count. NULL values don't count (SQL COUNT(DISTINCT)
    semantics); keys whose values are ALL null are absent from the
    output, and NULL-key rows are dropped too (null group keys can't
    ride Ray's sort-based shuffle) — mirror with ``WHERE value IS NOT
    NULL AND key IS NOT NULL`` in SQL twins.
    """
    import pyarrow.compute as pc

    def pairs(batch: pa.Table) -> pa.Table:
        t = batch.select([key_col, value_col]).combine_chunks()
        t = t.filter(
            pc.and_(pc.is_valid(t[value_col]), pc.is_valid(t[key_col]))
        )
        return t.group_by([key_col, value_col]).aggregate([])

    deduped = (
        ds.map_batches(pairs, batch_format="pyarrow", batch_size=None)
        .groupby([key_col, value_col])
        .count()
    )

    def ones(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                key_col: t[key_col],
                "one": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            }
        )

    return (
        deduped.map_batches(ones, batch_format="pyarrow", batch_size=None)
        .groupby(key_col)
        .sum("one")
        .map_batches(
            lambda t: pa.table(
                {key_col: t[key_col], "n_distinct": t["sum(one)"]}
            ),
            batch_format="pyarrow",
            batch_size=None,
        )
    )


def retention_cohorts(
    ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    period_us: int = 86_400_000_000,
    num_partitions: int | None = None,
):
    """Cohort retention matrix: bucket each key by its FIRST-seen period
    (the cohort) and count, for every (cohort, offset) cell, how many
    keys were active ``offset`` periods after their cohort period — the
    standard activation/retention triangle. Periods are epoch-floored
    (``t_us // period_us``), matching SQL ``date_trunc`` for the day
    granularity default. NULL keys and NULL timestamps are dropped
    (mirror with ``WHERE key IS NOT NULL AND ts IS NOT NULL``).

    Returns (cohort: timestamp[us], offset_periods, n_users); a key
    active in its cohort period contributes the offset-0 cell, and each
    (key, period) counts ONCE however many events it holds.

    Scale shape: block-local DISTINCT (key, period) pairs (Arrow hash
    group_by — the shuffle carries activity pairs, never events), ONE
    key-hash exchange of the pair table so each key's periods co-locate,
    a vectorized per-partition dedup + cohort-min + local (cohort,
    offset) partial counts, then a cell-cardinality groupby-sum. The
    driver never sees rows.
    """
    import pyarrow.compute as pc

    def pairs(batch: pa.Table) -> pa.Table:
        t = batch.select([key_col, ts_col])
        t = t.filter(
            pc.and_(pc.is_valid(t[key_col]), pc.is_valid(t[ts_col]))
        )
        t_us = (
            t[ts_col].cast(pa.timestamp("us")).cast(pa.int64())
            if pa.types.is_timestamp(t.schema.field(ts_col).type)
            else t[ts_col].cast(pa.int64())
        ).to_numpy(zero_copy_only=False)
        per = (t_us // period_us) * period_us
        pt = pa.table(
            {key_col: t[key_col], "per_us": pa.array(per, pa.int64())}
        ).combine_chunks()
        return pt.group_by([key_col, "per_us"]).aggregate([])

    def cells(t: pa.Table) -> pa.Table:
        t = t.drop_columns(["part"])
        keys = t[key_col].to_numpy(zero_copy_only=False)
        per = t["per_us"].to_numpy(zero_copy_only=False)
        if keys.size == 0:
            return pa.table(
                {
                    "cohort_us": pa.array(np.empty(0, np.int64)),
                    "offset_periods": pa.array(np.empty(0, np.int64)),
                    "n": pa.array(np.empty(0, np.int64)),
                }
            )
        order = np.lexsort((per, keys))
        k_s, p_s = keys[order], per[order]
        # cross-block dedup of (key, period): block-local distinct is
        # exact only within a block
        keep = np.r_[True, (k_s[1:] != k_s[:-1]) | (p_s[1:] != p_s[:-1])]
        k_s, p_s = k_s[keep], p_s[keep]
        first = np.r_[True, k_s[1:] != k_s[:-1]]
        seg_id = np.cumsum(first) - 1
        cohort = p_s[np.flatnonzero(first)][seg_id]
        offset = (p_s - cohort) // period_us
        o2 = np.lexsort((offset, cohort))
        c2, f2 = cohort[o2], offset[o2]
        start = np.r_[True, (c2[1:] != c2[:-1]) | (f2[1:] != f2[:-1])]
        sel = np.flatnonzero(start)
        cnt = np.diff(np.r_[sel, c2.size])
        return pa.table(
            {
                "cohort_us": pa.array(c2[sel]),
                "offset_periods": pa.array(f2[sel]),
                "n": pa.array(cnt.astype(np.int64)),
            }
        )

    pair_rows = ds.map_batches(pairs, batch_format="pyarrow", batch_size=None)
    agg = (
        reduce_by_key(pair_rows, key_col, cells, num_partitions, "pyarrow")
        .groupby(["cohort_us", "offset_periods"])
        .sum("n")
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "cohort": t["cohort_us"].cast(pa.timestamp("us")),
                "offset_periods": t["offset_periods"],
                "n_users": t["sum(n)"],
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", batch_size=None)


def group_top_k(
    ds,
    *,
    key_col: str = "user_id",
    value_col: str = "event_type",
    k: int = 3,
    num_partitions: int | None = None,
):
    """Exact per-key top-k values by frequency — :func:`group_mode`
    generalized from 1 to k rows per key: (key, value, cnt, rk) with
    ``rk`` = 1..k in (cnt DESC, value ASC) order, the deterministic
    ``row_number()`` tie (NOT arrival order). NULL keys/values drop —
    mirror with ``WHERE key IS NOT NULL AND value IS NOT NULL``.

    Scale shape identical to :func:`group_mode`: block-local pair-count
    combiner, one pair-keyed groupby-sum, a key-hash repartition of the
    pair table, and a vectorized per-segment head-k (the k-selection
    must run AFTER the global sum — a block-local head over split
    counts would be wrong).
    """
    import pyarrow.compute as pc

    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")

    def pairs(batch: pa.Table) -> pa.Table:
        t = batch.select([key_col, value_col]).combine_chunks()
        t = t.filter(
            pc.and_(pc.is_valid(t[value_col]), pc.is_valid(t[key_col]))
        )
        g = t.group_by([key_col, value_col]).aggregate([([], "count_all")])
        return g.rename_columns([key_col, value_col, "cnt"])

    counted = (
        ds.map_batches(pairs, batch_format="pyarrow", batch_size=None)
        .groupby([key_col, value_col])
        .sum("cnt")
    )

    def finish(t: pa.Table) -> pa.Table:
        t = t.drop_columns(["part"])
        keys = t[key_col].to_numpy(zero_copy_only=False)
        vals = t[value_col].to_numpy(zero_copy_only=False)
        cnt = t["sum(cnt)"].to_numpy(zero_copy_only=False).astype(np.int64)
        if keys.size == 0:
            return pa.table(
                {
                    key_col: t[key_col],
                    value_col: t[value_col],
                    "cnt": pa.array(cnt),
                    "rk": pa.array(cnt),
                }
            )
        order = np.lexsort((vals, -cnt, keys))
        k_s = keys[order]
        first = np.r_[True, k_s[1:] != k_s[:-1]]
        seg_start = np.flatnonzero(first)
        seg_id = np.cumsum(first) - 1
        rk = np.arange(k_s.size, dtype=np.int64) - seg_start[seg_id] + 1
        sel = rk <= k
        take = pa.array(order[sel])
        return pa.table(
            {
                key_col: t[key_col].take(take),
                value_col: t[value_col].take(take),
                "cnt": pa.array(cnt[order][sel]),
                "rk": pa.array(rk[sel]),
            }
        )

    return reduce_by_key(counted, key_col, finish, num_partitions, "pyarrow")


def group_mode(
    ds,
    *,
    key_col: str = "user_id",
    value_col: str = "event_type",
    num_partitions: int | None = None,
):
    """Exact per-key MODE: the most frequent ``value_col`` per key, ties
    broken by the LEXICOGRAPHICALLY SMALLEST value (deterministic at any
    parallelism — SQL's row_number() OVER (PARTITION BY key ORDER BY
    cnt DESC, value ASC) = 1, NOT DuckDB's arrival-order ``mode()``).
    NULL values and NULL keys are dropped (SQL aggregate semantics /
    the shuffle-key rule of :func:`group_count_distinct`) — mirror with
    ``WHERE key IS NOT NULL AND value IS NOT NULL`` in SQL twins.

    Returns (key, mode_value, mode_count, n_values) where ``n_values``
    is the key's distinct non-null value count (free byproduct of the
    pair table).

    Scale shape: block-local (key, value) pair counts (Arrow hash
    group_by — each block ships one partial row per pair, never data
    rows), ONE pair-keyed groupby-sum for exact global counts, then a
    hash repartition of the tiny pair table by key and a vectorized
    block argmax. The argmax CANNOT be a block-local combiner before
    the sum (a value's count is split across blocks), which is why the
    pair table — not the raw rows — pays the second, key-cardinality
    exchange.
    """
    import pyarrow.compute as pc

    def pairs(batch: pa.Table) -> pa.Table:
        t = batch.select([key_col, value_col]).combine_chunks()
        t = t.filter(
            pc.and_(pc.is_valid(t[value_col]), pc.is_valid(t[key_col]))
        )
        g = t.group_by([key_col, value_col]).aggregate([([], "count_all")])
        return g.rename_columns([key_col, value_col, "cnt"])

    counted = (
        ds.map_batches(pairs, batch_format="pyarrow", batch_size=None)
        .groupby([key_col, value_col])
        .sum("cnt")
    )

    def finish(t: pa.Table) -> pa.Table:
        t = t.drop_columns(["part"])
        keys = t[key_col].to_numpy(zero_copy_only=False)
        vals = t[value_col].to_numpy(zero_copy_only=False)
        cnt = t["sum(cnt)"].to_numpy(zero_copy_only=False).astype(np.int64)
        if keys.size == 0:
            return pa.table(
                {
                    key_col: t[key_col],
                    "mode_value": t[value_col],
                    "mode_count": pa.array(cnt),
                    "n_values": pa.array(cnt),
                }
            )
        # primary key asc, then cnt desc, then value asc -> the first
        # row of each key segment is the mode under the documented tie
        order = np.lexsort((vals, -cnt, keys))
        k_s, v_s, c_s = keys[order], vals[order], cnt[order]
        first = np.r_[True, k_s[1:] != k_s[:-1]]
        seg_id = np.cumsum(first) - 1
        n_values = np.bincount(seg_id)
        sel = np.flatnonzero(first)
        return pa.table(
            {
                key_col: pa.array(k_s[sel]).cast(t.schema.field(key_col).type),
                "mode_value": pa.array(v_s[sel]).cast(
                    t.schema.field(value_col).type
                ),
                "mode_count": pa.array(c_s[sel]),
                "n_values": pa.array(n_values.astype(np.int64)),
            }
        )

    return reduce_by_key(counted, key_col, finish, num_partitions, "pyarrow")


def first_seen_cumulative(
    ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    period_s: int = 86_400,
):
    """New-vs-cumulative distinct keys per period — the growth curve
    "daily new users + running total". A key belongs to the period of
    its globally FIRST event. Returns (period_start: epoch seconds,
    new_keys, cum_keys) with cum_keys the inclusive running sum over
    period order. All integer arithmetic, so the SQL twin is bit-exact.
    NULL key / NULL ts rows drop (mirror ``WHERE ... IS NOT NULL``).

    Scale shape: block-local per-key min-timestamp partials (lexsort +
    ``minimum.reduceat``) -> ONE key-cardinality ``groupby.min`` -> a
    period-cardinality count -> the two-phase
    :func:`~.scan.ordered_prefix_sum` for the running total (driver
    sees only O(num_buckets) partials, never keys). Counts must stay
    below 2**53 (the scan's contract).
    """

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.and_(pc.is_valid(batch[key_col]), pc.is_valid(batch[ts_col]))
        )
        keys = batch[key_col].to_numpy(zero_copy_only=False)
        t_us = (
            batch[ts_col].cast(pa.timestamp("us")).cast(pa.int64())
            if pa.types.is_timestamp(batch.schema.field(ts_col).type)
            else batch[ts_col].cast(pa.int64())
        ).to_numpy(zero_copy_only=False)
        if keys.size == 0:
            return pa.table(
                {
                    key_col: pa.array(keys).cast(
                        batch.schema.field(key_col).type
                    ),
                    "first_us": pa.array(np.empty(0, np.int64)),
                }
            )
        uniq, inv = np.unique(keys, return_inverse=True)
        order = np.argsort(inv, kind="stable")
        starts = np.flatnonzero(np.r_[True, np.diff(inv[order]) > 0])
        firsts = np.minimum.reduceat(t_us[order], starts)
        return pa.table(
            {
                key_col: pa.array(uniq).cast(batch.schema.field(key_col).type),
                "first_us": pa.array(firsts.astype(np.int64)),
            }
        )

    firsts = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby(key_col)
        .min("first_us")
    )
    period_us = period_s * 1_000_000

    def day_counts(t: pa.Table) -> pa.Table:
        f = t["min(first_us)"].to_numpy(zero_copy_only=False)
        per = (f // period_us) * period_s  # period START in seconds
        uniq, cnt = np.unique(per, return_counts=True)
        return pa.table(
            {
                "period_start": pa.array(uniq.astype(np.int64)),
                "new_keys": pa.array(cnt.astype(np.int64)),
            }
        )

    periods = (
        firsts.map_batches(day_counts, batch_format="pyarrow", batch_size=None)
        .groupby("period_start")
        .sum("new_keys")
        .map_batches(
            lambda t: t.rename_columns(["period_start", "new_keys"]),
            batch_format="pyarrow",
            batch_size=None,
        )
    )
    from .scan import ordered_prefix_sum

    scanned = ordered_prefix_sum(
        periods,
        order_cols=["period_start"],
        value_col="new_keys",
        out_col="_excl",
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["cum_keys"] = (b["_excl"] + b["new_keys"]).astype("int64")
        return b[["period_start", "new_keys", "cum_keys"]]

    return scanned.map_batches(finish, batch_format="pandas", batch_size=None)


def chi2_crosstab(
    ds,
    *,
    row_col: str = "event_type",
    key_col: str = "user_id",
    num_buckets: int = 4,
):
    """Pearson chi-square-of-independence cells between ``row_col``
    categories and a modulo bucketing of ``key_col``: one row per
    observed (category, bucket) cell with (obs, expected, chi2_term)
    where expected = row_total * col_total / N and chi2_term =
    (obs - expected)^2 / expected — sum(chi2_term) is the chi-square
    statistic. The bucket is ``((key % k) + k) % k`` (non-negative for
    negative keys, matching numpy's sign-of-divisor ``%``); the double
    expression is replayed LITERALLY by the SQL twin:
    ``(rt*ct)/n`` then ``d*d/exp`` — change both or none. Cells with
    obs = 0 are absent on both sides. NULL row / NULL key rows drop.

    Scale shape: block-local (category, bucket) count partials (Arrow
    hash group_by), a cell-cardinality groupby-sum, then a single-block
    finish — cells are bounded by |categories| * num_buckets (the same
    dimension contract as ``pivot_agg``'s category list), so the
    repartition(1) is O(cells), never O(rows).
    """

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.select([row_col, key_col])
        t = t.filter(
            pc.and_(pc.is_valid(t[row_col]), pc.is_valid(t[key_col]))
        )
        keys = t[key_col].to_numpy(zero_copy_only=False)
        bucket = np.mod(keys, num_buckets).astype(np.int64)
        pt = pa.table(
            {row_col: t[row_col], "bucket": pa.array(bucket)}
        ).combine_chunks()
        return pt.group_by([row_col, "bucket"]).aggregate(
            [("bucket", "count")]
        ).rename_columns([row_col, "bucket", "n"])

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby([row_col, "bucket"])
        .sum("n")
        .repartition(1)
    )

    def finish(t: pa.Table) -> pa.Table:
        rows = t[row_col].to_numpy(zero_copy_only=False)
        bucket = t["bucket"].to_numpy(zero_copy_only=False)
        obs = t["sum(n)"].to_numpy(zero_copy_only=False).astype(np.int64)
        if rows.size == 0:
            return pa.table(
                {
                    row_col: t[row_col],
                    "bucket": t["bucket"],
                    "obs": pa.array(obs),
                    "expected": pa.array(np.empty(0, np.float64)),
                    "chi2_term": pa.array(np.empty(0, np.float64)),
                }
            )
        r_uniq, r_inv = np.unique(rows, return_inverse=True)
        c_uniq, c_inv = np.unique(bucket, return_inverse=True)
        row_tot = np.bincount(r_inv, weights=obs)[r_inv]
        col_tot = np.bincount(c_inv, weights=obs)[c_inv]
        tot = float(obs.sum())
        expected = row_tot * col_tot / tot
        d = obs.astype(np.float64) - expected
        term = d * d / expected
        return pa.table(
            {
                row_col: t[row_col],
                "bucket": t["bucket"],
                "obs": pa.array(obs),
                "expected": pa.array(expected),
                "chi2_term": pa.array(term),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", batch_size=None)


def audience_overlap(
    ds,
    *,
    key_col: str = "user_id",
    cat_col: str = "event_type",
):
    """Pairwise audience overlap between categories — the
    market-basket / co-occurrence matrix over distinct keys: for every
    unordered category pair (a < b, binary/code-point order on both
    sides) with at least one shared key, returns (cat_a, cat_b, n_a,
    n_b, n_ab, jaccard, lift) where n_x = distinct keys seen with x,
    n_ab = distinct keys seen with both, jaccard = n_ab/(n_a+n_b-n_ab)
    and lift = (n_ab·N)/(n_a·n_b) with N = total distinct keys — both
    ratios evaluated in IEEE doubles exactly as the SQL twin spells
    them.  NULL key / NULL category rows drop; zero-overlap pairs are
    absent (GROUP BY semantics).

    Scale shape: block-local DISTINCT (cat, key) partials, ONE
    key-cardinality groupby-distinct, then ONE key-hash exchange whose
    per-partition kernel emits — in a single vectorized pass — pair
    partials (a triangular ``_segment_pairs`` explosion, bounded by
    |cats|² per key), per-cat distinct-key partials and a key-count
    partial, all reduced by one tiny tagged groupby-sum; the O(|cats|²)
    finish runs in a single block.  The corpus shuffles ONLY as the slim
    two-column distinct set."""
    from .text import _segment_pairs

    def distinct_partial(batch: pa.Table) -> pa.Table:
        t = batch.select([cat_col, key_col])
        t = t.filter(
            pc.and_(pc.is_valid(t[cat_col]), pc.is_valid(t[key_col]))
        ).combine_chunks()
        return (
            t.group_by([cat_col, key_col])
            .aggregate([([], "count_all")])
            .select([cat_col, key_col])
        )

    distinct = (
        ds.map_batches(distinct_partial, batch_format="pyarrow", batch_size=None)
        .groupby([cat_col, key_col])
        .count()
        .map_batches(
            lambda b: b.select([cat_col, key_col]),
            batch_format="pyarrow",
            batch_size=None,
        )
    )

    def per_part(part: pd.DataFrame) -> pd.DataFrame:
        k = part[key_col].to_numpy()
        c = part[cat_col].to_numpy()
        empty = pd.DataFrame(
            {
                "kind": pd.Series([], dtype=np.int8),
                "cat_a": pd.Series([], dtype=object),
                "cat_b": pd.Series([], dtype=object),
                "cnt": pd.Series([], dtype=np.int64),
            }
        )
        if k.size == 0:
            return empty
        order = np.lexsort((c, k))
        k, c = k[order], c[order]
        new_key = np.r_[True, k[1:] != k[:-1]]
        starts = np.flatnonzero(new_key)
        sizes = np.diff(np.r_[starts, k.size])
        a_rows, b_rows = _segment_pairs(starts, sizes)
        frames = []
        if a_rows.size:
            # within a key the cats are sorted and distinct -> a < b
            pairs = pd.DataFrame({"cat_a": c[a_rows], "cat_b": c[b_rows]})
            pc_ = (
                pairs.groupby(["cat_a", "cat_b"], sort=False)
                .size()
                .reset_index(name="cnt")
            )
            pc_.insert(0, "kind", np.int8(0))
            frames.append(pc_)
        singles = (
            pd.DataFrame({"cat_a": c})
            .groupby("cat_a", sort=False)
            .size()
            .reset_index(name="cnt")
        )
        singles.insert(0, "kind", np.int8(1))
        singles["cat_b"] = ""
        frames.append(singles[["kind", "cat_a", "cat_b", "cnt"]])
        frames.append(
            pd.DataFrame(
                {
                    "kind": [np.int8(2)],
                    "cat_a": [""],
                    "cat_b": [""],
                    "cnt": [np.int64(starts.size)],
                }
            )
        )
        out = pd.concat(frames, ignore_index=True)
        out["cnt"] = out["cnt"].astype(np.int64)
        return out

    tagged = (
        reduce_by_key(distinct, key_col, per_part, None, "pandas")
        .groupby(["kind", "cat_a", "cat_b"])
        .sum("cnt")
        .repartition(1)
    )

    def finish(t: pa.Table) -> pa.Table:
        kind = t["kind"].to_numpy(zero_copy_only=False)
        ca = np.asarray(t["cat_a"].to_pandas(), dtype=object)
        cb = np.asarray(t["cat_b"].to_pandas(), dtype=object)
        cnt = t["sum(cnt)"].to_numpy(zero_copy_only=False).astype(np.int64)
        pair = kind == 0
        single_cats = ca[kind == 1]
        single_cnt = cnt[kind == 1]
        order = np.argsort(single_cats.astype(str), kind="stable")
        sc, sn = single_cats[order], single_cnt[order]
        total = int(cnt[kind == 2].sum())
        pa_, pb_, nab = ca[pair], cb[pair], cnt[pair]
        ia = np.searchsorted(sc.astype(str), pa_.astype(str))
        ib = np.searchsorted(sc.astype(str), pb_.astype(str))
        n_a = sn[ia] if sc.size else np.empty(0, np.int64)
        n_b = sn[ib] if sc.size else np.empty(0, np.int64)
        with np.errstate(invalid="ignore", divide="ignore"):
            jac = nab.astype(np.float64) / (n_a + n_b - nab)
            lift = (nab.astype(np.float64) * np.float64(total)) / (
                n_a.astype(np.float64) * n_b.astype(np.float64)
            )
        return pa.table(
            {
                "cat_a": pa.array(list(pa_), type=pa.string()),
                "cat_b": pa.array(list(pb_), type=pa.string()),
                "n_a": pa.array(n_a),
                "n_b": pa.array(n_b),
                "n_ab": pa.array(nab),
                "jaccard": pa.array(jac),
                "lift": pa.array(lift),
            }
        )

    return tagged.map_batches(finish, batch_format="pyarrow", batch_size=None)


def first_event_latency(
    ds,
    *,
    key_col: str = "user_id",
    type_col: str = "event_type",
    ts_col: str = "ts",
    from_type: str = "view",
    to_type: str = "purchase",
):
    """Per-key conversion latency: microseconds from the key's FIRST
    ``from_type`` event to its FIRST ``to_type`` event — the
    time-to-convert signal behind funnel dashboards.  Returns (key,
    from_ts, to_ts, latency_us) for keys that have BOTH event types;
    latency is exact integer microseconds (negative when the first
    ``to`` precedes the first ``from`` — kept, the twin keeps it too).
    NULL key / NULL ts rows drop (mirror the WHERE).

    Scale shape: pure all-aggregate — block-local per-key min-ts
    partials for each side (one lexsort + ``minimum.reduceat``), ONE
    key-cardinality groupby-min, vectorized finish.  No row
    co-location, no window."""
    _SENT = np.int64(2**62)

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.select([key_col, type_col, ts_col])
        t = t.filter(
            pc.and_(
                pc.and_(pc.is_valid(t[key_col]), pc.is_valid(t[ts_col])),
                pc.is_in(
                    t[type_col],
                    value_set=pa.array([from_type, to_type]),
                ),
            )
        )
        keys = t[key_col].to_numpy(zero_copy_only=False)
        ts = (
            t[ts_col]
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        is_to = np.asarray(
            pc.equal(t[type_col], to_type).to_numpy(zero_copy_only=False),
            dtype=bool,
        )
        if keys.size == 0:
            return pa.table(
                {
                    key_col: pa.array(keys).cast(
                        batch.schema.field(key_col).type
                    ),
                    "from_us": pa.array(np.empty(0, np.int64)),
                    "to_us": pa.array(np.empty(0, np.int64)),
                }
            )
        uniq, inv = np.unique(keys, return_inverse=True)
        f = np.full(uniq.size, _SENT, dtype=np.int64)
        g = np.full(uniq.size, _SENT, dtype=np.int64)
        np.minimum.at(f, inv[~is_to], ts[~is_to])
        np.minimum.at(g, inv[is_to], ts[is_to])
        return pa.table(
            {
                key_col: pa.array(uniq).cast(
                    batch.schema.field(key_col).type
                ),
                "from_us": pa.array(f),
                "to_us": pa.array(g),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby(key_col)
        .min(["from_us", "to_us"])
    )

    def finish(t: pa.Table) -> pa.Table:
        f = t["min(from_us)"].to_numpy(zero_copy_only=False)
        g = t["min(to_us)"].to_numpy(zero_copy_only=False)
        keep = (f < _SENT) & (g < _SENT)
        tt = t.filter(pa.array(keep))
        f, g = f[keep], g[keep]
        return pa.table(
            {
                key_col: tt[key_col],
                "from_ts": pa.array(f).cast(pa.timestamp("us")),
                "to_ts": pa.array(g).cast(pa.timestamp("us")),
                "latency_us": pa.array(g - f),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", batch_size=None)


def group_entropy(
    ds,
    *,
    key_col: str = "user_id",
    cat_col: str = "event_type",
    num_partitions: int | None = None,
):
    """Shannon entropy (nats) of each key's categorical distribution —
    the behavioural-diversity / concentration signal (0 for a
    single-category key, ln(n_cats) for a uniform one):

        H(key) = -sum_cat (c/n) * ln(c/n)

    plus the Herfindahl concentration index ``hhi = sum (c/n)*(c/n)``
    (1 for a single-category key, 1/n_cats for uniform — the inverse
    lens on the same distribution), both replayed literally by the SQL
    twin (doubles throughout; the final ``+ 0`` on both sides
    normalizes the -0.0 a single-category key's negated zero sum would
    otherwise produce). NULL key / category rows drop on both sides.
    Returns (key, n, n_cats, entropy, hhi) with n and n_cats
    integer-exact.

    Scale shape: block-local (key, cat) Arrow count partials (the
    shuffle carries pairs, not rows), one pair-keyed groupby-sum, then
    a tiny key-hash repartition of the pair table for the per-key
    segment reduction (``add.reduceat`` — no per-key Python)."""
    import pyarrow.compute as pc

    def pairs(batch: pa.Table) -> pa.Table:
        t = batch.select([key_col, cat_col]).combine_chunks()
        t = t.filter(
            pc.and_(pc.is_valid(t[key_col]), pc.is_valid(t[cat_col]))
        )
        out = t.group_by([key_col, cat_col]).aggregate([([], "count_all")])
        return out.rename_columns([key_col, cat_col, "c"])

    counted = (
        ds.map_batches(pairs, batch_format="pyarrow", batch_size=None)
        .groupby([key_col, cat_col])
        .sum("c")
    )

    def finish(t: pa.Table) -> pa.Table:
        t = t.drop_columns(["part"])
        k = t[key_col].to_numpy(zero_copy_only=False)
        c = t["sum(c)"].to_numpy(zero_copy_only=False).astype(np.int64)
        if k.size == 0:
            return pa.table(
                {
                    key_col: t[key_col],
                    "n": pa.array([], pa.int64()),
                    "n_cats": pa.array([], pa.int64()),
                    "entropy": pa.array([], pa.float64()),
                    "hhi": pa.array([], pa.float64()),
                }
            )
        order = np.argsort(k, kind="stable")
        k, c = k[order], c[order]
        first = np.r_[True, k[1:] != k[:-1]]
        starts = np.flatnonzero(first)
        seg = np.cumsum(first) - 1
        n = np.add.reduceat(c, starts)
        n_cats = np.add.reduceat(np.ones_like(c), starts)
        p = c.astype(np.float64) / n[seg].astype(np.float64)
        ent = -np.add.reduceat(p * np.log(p), starts) + 0.0
        hhi = np.add.reduceat(p * p, starts)
        take = pa.array(order[starts])
        return pa.table(
            {
                key_col: t[key_col].take(take),
                "n": pa.array(n),
                "n_cats": pa.array(n_cats),
                "entropy": pa.array(ent),
                "hhi": pa.array(hhi),
            }
        )

    return reduce_by_key(counted, key_col, finish, num_partitions, "pyarrow")


def welch_t_ab(
    ds,
    *,
    key_col: str = "event_type",
    value_col: str = "value",
    id_col: str = "event_id",
    seed: int = 0,
    value_offset: float | None = None,
):
    """Per-key Welch two-sample t-test between Lehmer-parity A/B arms —
    the experiment-analysis primitive: rows split into arms by
    ``lehmer_hash(id) % 2`` (the SQL-reproducible family ``hash_sample``
    / ``ks_drift`` pin), then per key t = (m_a - m_b) /
    sqrt(v_a/n_a + v_b/n_b) and the Welch–Satterthwaite df — both
    evaluated in IEEE doubles exactly as the SQL twin spells them from
    avg()/var_samp().  Returns (key, n_a, n_b, mean_a, mean_b, t_stat,
    welch_df); keys with n < 2 in either arm, or zero pooled variance,
    are dropped (mirror with WHERE in the twin).

    Semantics pinned for the twin: rows with NULL key, NULL id or
    NULL/NaN value drop entirely.  Variances are computed from sums of
    values shifted by ``value_offset`` (default: the global min — one
    tiny extra aggregate, the same anchor trick group_linear_trend uses
    for x): the shift is variance-invariant and keeps the
    (s2 - s1^2/n) closed form from catastrophically cancelling at
    mean >> std, where the twin's var_samp is natively stable.  The t
    numerator is the difference of SHIFTED means (the offset cancels
    algebraically) — reconstructing each mean first would re-quantize
    a tiny difference at the offset's ulp.  Parity domain: round-6
    equality with the twin holds while the twin's own avg() difference
    is round-6 exact (offset/std ratio up to ~1e6 — past that DuckDB's
    avg quantization, not this kernel, is the limit).

    Scale shape: the cheapest possible — block-local per-(key, arm)
    partial sums (n, s1, s2) via one reduceat per arm, ONE
    key-cardinality groupby-sum, and a single-block vectorized finish
    (post-aggregate cardinality = distinct keys x 2).  No row
    co-location, no data shuffle.
    """
    from .sampling import lehmer_hash

    if value_offset is None:
        m = ds.min(value_col)
        value_offset = float(m) if m is not None and np.isfinite(m) else 0.0

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.and_(pc.is_valid(batch[key_col]), pc.is_valid(batch[id_col]))
        )
        keys = batch[key_col].to_numpy(zero_copy_only=False)
        v = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ok = ~np.isnan(v)
        keys, v, ids = keys[ok], v[ok], ids[ok]
        vs = v - value_offset
        ia = lehmer_hash(ids, seed) % 2 == 0
        parts = []
        key_field = batch.schema.field(key_col)
        for arm, mask in ((1, ia), (0, ~ia)):
            t = _grouped_sums(
                keys[mask],
                key_field,
                {"s1": vs[mask], "s2": vs[mask] * vs[mask]},
                minmax={"v": vs[mask]},
            )
            parts.append(
                t.append_column(
                    "ia", pa.array(np.full(t.num_rows, arm, dtype=np.int32))
                )
            )
        return pa.concat_tables(parts)

    from ray.data.aggregate import Max, Min, Sum

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby([key_col, "ia"])
        .aggregate(
            Sum("n"), Sum("s1"), Sum("s2"), Min("v_min"), Max("v_max")
        )
        .repartition(1)
    )

    def finish(t: pa.Table) -> pa.Table:
        keys = t[key_col].to_numpy(zero_copy_only=False)
        empty = pa.table(
            {
                key_col: t[key_col].slice(0, 0),
                "n_a": pa.array(np.empty(0, np.int64)),
                "n_b": pa.array(np.empty(0, np.int64)),
                "mean_a": pa.array(np.empty(0, np.float64)),
                "mean_b": pa.array(np.empty(0, np.float64)),
                "t_stat": pa.array(np.empty(0, np.float64)),
                "welch_df": pa.array(np.empty(0, np.float64)),
            }
        )
        if keys.size == 0:
            return empty
        ia = t["ia"].to_numpy(zero_copy_only=False) == 1
        n = t["sum(n)"].to_numpy(zero_copy_only=False).astype(np.float64)
        s1 = t["sum(s1)"].to_numpy(zero_copy_only=False)
        s2 = t["sum(s2)"].to_numpy(zero_copy_only=False)
        const = t["min(v_min)"].to_numpy(zero_copy_only=False) == t[
            "max(v_max)"
        ].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(keys, return_inverse=True)
        k = uniq.size
        na = np.zeros(k)
        nb = np.zeros(k)
        sa1 = np.zeros(k)
        sb1 = np.zeros(k)
        sa2 = np.zeros(k)
        sb2 = np.zeros(k)
        ca = np.zeros(k, dtype=bool)
        cb = np.zeros(k, dtype=bool)
        na[inv[ia]], sa1[inv[ia]], sa2[inv[ia]] = n[ia], s1[ia], s2[ia]
        nb[inv[~ia]], sb1[inv[~ia]], sb2[inv[~ia]] = n[~ia], s1[~ia], s2[~ia]
        ca[inv[ia]] = const[ia]
        cb[inv[~ia]] = const[~ia]
        with np.errstate(invalid="ignore", divide="ignore"):
            ma = value_offset + sa1 / na
            mb = value_offset + sb1 / nb
            va = (sa2 - sa1 * sa1 / na) / (na - 1.0)
            vb = (sb2 - sb1 * sb1 / nb) / (nb - 1.0)
            # exactly-constant arms snap to variance 0 (arm min == max,
            # the rolling_zscore rule): the closed form leaves ±1e-12
            # epsilon for a constant arm whose value != the global-min
            # anchor, flipping the `pooled > 0` presence filter vs the
            # twin's var_samp (exactly 0) and emitting a garbage t_stat
            va[ca] = 0.0
            vb[cb] = 0.0
            pooled = va / na + vb / nb
            # mean difference from the SHIFTED sums (offset cancels
            # algebraically) — subtracting the two reconstructed means
            # would re-quantize the tiny difference at the offset's ulp
            tstat = (sa1 / na - sb1 / nb) / np.sqrt(pooled)
            df = (pooled * pooled) / (
                (va / na) ** 2 / (na - 1.0) + (vb / nb) ** 2 / (nb - 1.0)
            )
        keep = (na >= 2) & (nb >= 2) & (pooled > 0)
        if not keep.any():
            return empty
        # map each unique key back to its first original row so the
        # output carries the Arrow-typed key values, not numpy copies
        first_pos = np.full(k, inv.size, dtype=np.int64)
        np.minimum.at(first_pos, inv, np.arange(inv.size, dtype=np.int64))
        return pa.table(
            {
                key_col: t[key_col].take(pa.array(first_pos[keep])),
                "n_a": pa.array(na[keep].astype(np.int64)),
                "n_b": pa.array(nb[keep].astype(np.int64)),
                "mean_a": pa.array(ma[keep]),
                "mean_b": pa.array(mb[keep]),
                "t_stat": pa.array(tstat[keep]),
                "welch_df": pa.array(df[keep]),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", batch_size=None)


def target_encode(
    ds,
    *,
    key_col: str = "event_type",
    target_col: str = "value",
    id_cols: tuple = ("event_id",),
    smoothing: float = 20.0,
    value_offset: float | None = None,
    max_key_broadcast: int = 5_000_000,
):
    """Smoothed target (mean) encoding of a categorical column — the
    classic ML-feature-prep operator (micci-barreca 2001): each row gets
    ``te = (n_k * mean_k + m * prior) / (n_k + m)`` where n_k/mean_k are
    its category's count/mean of the target, ``m`` = ``smoothing`` and
    ``prior`` is the corpus mean — categories with few observations
    shrink toward the prior.  EVERY input row emits (rows with a NULL /
    unseen key, or whose own target is null, still get an encoding —
    the prior for NULL keys, mirror with LEFT JOIN + COALESCE).  The
    per-key statistics use only rows with a non-null key AND a
    non-null/non-NaN target, and the prior averages the same row set
    (mirror both filters in the twin's CTEs).

    Returns (*id_cols, key, te).

    Scale shape: pure all-aggregate statistics pass — block-local
    per-key partial sums anchored at the global min (the welch_t_ab
    cancellation guard; te is computed from the de-anchored means in
    the twin's literal doubles), ONE key-cardinality groupby-sum; the
    key->te map is broadcast ONCE via ``ray.put`` (loud
    ``max_key_broadcast`` bound), and the encode pass is one streaming
    vectorized left join per block — the data is never shuffled.
    """
    import polars as pl

    import ray

    if smoothing < 0:
        raise ValueError(f"smoothing must be >= 0, got {smoothing}")
    if value_offset is None:
        mn = ds.min(target_col)
        value_offset = (
            float(mn) if mn is not None and np.isfinite(mn) else 0.0
        )

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.and_(pc.is_valid(batch[key_col]), pc.is_valid(batch[target_col]))
        )
        keys = batch[key_col].to_numpy(zero_copy_only=False)
        v = batch[target_col].to_numpy(zero_copy_only=False).astype(np.float64)
        ok = ~np.isnan(v)
        keys, v = keys[ok], v[ok]
        return _grouped_sums(
            keys, batch.schema.field(key_col), {"s": v - value_offset}
        )

    agg_tbl = pa.concat_tables(
        ray.get(
            ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
            .groupby(key_col)
            .sum(["n", "s"])
            .to_arrow_refs()
        ),
        promote_options="default",
    )
    if agg_tbl.num_rows > max_key_broadcast:
        raise ValueError(
            f"{agg_tbl.num_rows} distinct keys > "
            f"max_key_broadcast={max_key_broadcast}; bucket the long tail "
            "or hash-partition and join instead"
        )
    n = agg_tbl["sum(n)"].to_numpy(zero_copy_only=False).astype(np.float64)
    s = agg_tbl["sum(s)"].to_numpy(zero_copy_only=False)
    total_n = float(n.sum())
    prior = (
        value_offset + float(s.sum()) / total_n if total_n > 0 else np.nan
    )
    mean_k = value_offset + s / np.maximum(n, 1.0)
    te = (n * mean_k + smoothing * prior) / (n + smoothing)
    te_map = pl.DataFrame(
        {
            "__te_key": pl.from_arrow(agg_tbl[key_col].cast(pa.string())),
            "__te": te,
        }
    )
    map_ref = ray.put(te_map)

    def encode(batch: pa.Table) -> pa.Table:
        tm = ray.get(map_ref)
        k = pl.DataFrame(
            {"__te_key": pl.from_arrow(batch[key_col]).cast(pl.String)}
        )
        joined = k.join(tm, on="__te_key", how="left", maintain_order="left")
        out = {c: batch[c] for c in id_cols}
        out[key_col] = batch[key_col]
        out["te"] = joined["__te"].fill_null(prior).to_arrow()
        return pa.table(out)

    return ds.map_batches(encode, batch_format="pyarrow", batch_size=None)


def group_collect(
    ds,
    *,
    key_col: str,
    order_cols: tuple = ("ts",),
    value_col: str = "text",
    sep: str = "\n",
    num_partitions: int | None = None,
):
    """Per-key ORDERED string concatenation — the training-document
    assembly primitive (turn streams -> one document per conversation,
    log lines -> one trace per request): exactly SQL's
    ``string_agg(value, sep ORDER BY order_cols..., value)`` per key.
    Returns (key, n_values, doc) where ``n_values`` counts NON-NULL
    values (string_agg's skip rule) and ``doc`` is NULL when every value
    of the key is NULL.  The reference's per-series layout step is the
    same shape: gather one series' points in time order into a single
    row (cf. light-curve-feature TimeSeries construction) — here the
    payload is text rather than floats.

    Determinism contract: the sort key is (order_cols..., value) with
    nulls LAST (the DuckDB default null order) — appending ``value``
    makes the concat total-order deterministic even when ``order_cols``
    has duplicates, at any parallelism.  NULL keys drop (the
    grouped_quantile_cont rule; twin: ``WHERE key IS NOT NULL``).

    Scale shape: ONE key-hash exchange co-locates each key, then a
    single vectorized polars sort + group_by/str.join pass per
    partition; no driver collection.  Documents the usual skew caveat:
    one key's assembled doc must fit a task's heap (same bound as any
    per-key holistic op here).

    Rows move through the exchange as they are, text included
    (BASELINE.md "One exchange for text too" measures them against
    zstd-compressed parcels).
    """
    import polars as pl

    ocols = list(order_cols)

    def per_partition(t: pa.Table) -> pa.Table:
        cols = [key_col, *ocols, value_col]
        # an all-null block/partition arrives null-typed (the
        # dsir_weights rule) — pin the value column to string so the
        # polars str ops and the output schema stay stable
        if pa.types.is_null(t.schema.field(value_col).type):
            t = t.set_column(
                t.column_names.index(value_col),
                value_col,
                t[value_col].cast(pa.string()),
            )
        d = pl.from_arrow(t.select(cols))
        d = d.filter(pl.col(key_col).is_not_null())
        d = d.sort(
            [*ocols, value_col], nulls_last=True, maintain_order=True
        )
        g = d.group_by(key_col, maintain_order=False).agg(
            pl.col(value_col).count().alias("n_values"),
            pl.col(value_col)
            .drop_nulls()
            .str.join(sep)
            .alias("doc"),
        )
        g = g.with_columns(
            pl.when(pl.col("n_values") > 0)
            .then(pl.col("doc"))
            .otherwise(None)
            .alias("doc")
        ).sort(key_col)
        out = g.to_arrow()
        return pa.table(
            {
                key_col: out[key_col].cast(t.schema.field(key_col).type),
                "n_values": out["n_values"].cast(pa.int64()),
                "doc": out["doc"].cast(pa.string()),
            }
        )

    return reduce_by_key(
        ds,
        key_col,
        lambda t: per_partition(t.drop_columns(["part"])),
        num_partitions,
        "pyarrow",
    )
