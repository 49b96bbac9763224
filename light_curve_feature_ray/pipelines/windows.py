"""Streaming-shaped window operators over an ordered, keyed event log.

Ray Data has no event-time window engine; these express the standard
window shapes as one keyed exchange each: ``stages.exchange.reduce_by_key``
hashes the key into ``part`` and routes every key's rows to one reduce
call, which sorts or groups its partition by key itself and assigns
windows vectorized. Batch semantics per partitioned log —
no watermarks/late data (the engine's tier cascade makes the same
assumption, SURVEY.md §2.7).

All three are SQL-expressible and oracle-checked by the driver:
- tumbling: GROUP BY key, floor(ts/window)
- sliding: each event belongs to ceil(window/slide) windows
- session: gap-based sessionization (lag + running sum of gap breaks)
"""

from __future__ import annotations

import warnings

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.exchange import reduce_by_key


def _epoch_seconds(col: pd.Series) -> np.ndarray:
    """Floor epoch seconds regardless of the stored timestamp precision."""
    return (
        col.astype("datetime64[us]").astype("int64").to_numpy() // 1_000_000
    )


def _drop_null_ts(g: pd.DataFrame, ts_col: str) -> pd.DataFrame:
    """Rows with a NULL timestamp have no position in event time; every
    keyed window operator drops them (pandas would otherwise silently
    convert NaT to iNaT = -2^63, sorting them FIRST while SQL's NULLS
    LAST sorts them last — a layout-dependent divergence). Mirror with
    ``WHERE ts IS NOT NULL`` in SQL twins when the data can hold nulls."""
    if g[ts_col].isna().any():
        g = g[g[ts_col].notna()]
    return g


def sliding_window_agg(
    events_ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    window_s: int = 3600,
    slide_s: int = 900,
    num_partitions: int | None = None,
):
    """Mean/count/sum of ``value`` per (key, sliding window). Window k
    covers [k*slide, k*slide + window); an event at time t belongs to
    windows k in (t - window, t] / slide. Returns
    (key, window_start: epoch seconds, n, sum_value, mean_value)."""
    nw = int(np.ceil(window_s / slide_s))

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = _drop_null_ts(g, ts_col)
        t = _epoch_seconds(g[ts_col])
        v = g[value_col].to_numpy()
        keys = g[key_col].to_numpy()
        # explode: event -> its nw candidate windows
        k_last = t // slide_s  # last window index containing t
        ks = k_last[:, None] - np.arange(nw)[None, :]
        starts = ks * slide_s
        valid = (t[:, None] >= starts) & (t[:, None] < starts + window_s)
        rows = np.repeat(np.arange(t.shape[0]), nw)[valid.ravel()]
        win = starts.ravel()[valid.ravel()]
        df = pd.DataFrame(
            {key_col: keys[rows], "window_start": win, "v": v[rows]}
        )
        out = (
            df.groupby([key_col, "window_start"], sort=True)["v"]
            .agg(n="count", sum_value="sum", mean_value="mean")
            .reset_index()
        )
        out["n"] = out["n"].astype("int64")
        return out

    return reduce_by_key(events_ds, key_col, per_partition, num_partitions, "pandas")


def session_windows(
    events_ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    gap_s: int = 1800,
    num_partitions: int | None = None,
):
    """Gap-based sessionization: a new session starts when the time since
    the previous event of the same key exceeds ``gap_s``. Returns
    (key, session_idx, session_start ts, session_end ts, n, sum_value)."""

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = _drop_null_ts(g, ts_col).sort_values(
            [key_col, ts_col], kind="mergesort"
        )
        t = _epoch_seconds(g[ts_col])
        keys = g[key_col].to_numpy()
        new_key = np.r_[True, keys[1:] != keys[:-1]]
        gap_break = np.r_[True, (t[1:] - t[:-1]) > gap_s]
        new_session = new_key | gap_break
        session_global = np.cumsum(new_session) - 1
        df = pd.DataFrame(
            {
                key_col: keys,
                "_sg": session_global,
                "t": t,
                "v": g[value_col].to_numpy(),
            }
        )
        out = (
            df.groupby([key_col, "_sg"], sort=True)
            .agg(
                session_start=("t", "min"),
                session_end=("t", "max"),
                n=("v", "count"),
                sum_value=("v", "sum"),
            )
            .reset_index()
        )
        # session_idx: 0-based per key in time order
        out["session_idx"] = out.groupby(key_col).cumcount().astype("int64")
        out["n"] = out["n"].astype("int64")
        return out[
            [key_col, "session_idx", "session_start", "session_end", "n", "sum_value"]
        ]

    return reduce_by_key(events_ds, key_col, per_partition, num_partitions, "pandas")


def rolling_agg(
    events_ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    id_col: str = "event_id",
    k: int = 5,
    num_partitions: int | None = None,
):
    """Per-key rolling-last-``k``-rows aggregates + lag/delta — the
    ``ROWS BETWEEN k-1 PRECEDING AND CURRENT ROW`` window over each key's
    event stream, plus ``LAG``-style previous-row deltas.

    Shape: ONE hash shuffle co-locating each key's rows, then a single
    fully-vectorized pass per partition — rows sort by (key, ts, id),
    rolling sum/count come from prefix sums clipped at each key's segment
    start, rolling min/max from ONE ``sliding_window_view`` over the
    front-padded value array with positions before the segment start
    masked out (an n x k matrix; ``k`` is small by contract). No per-key
    or per-row Python. NaN values are skipped exactly like SQL NULLs
    (count/sum/avg/min/max over non-null only).

    Returns (id, key, t_us, rolling_n, rolling_sum, rolling_mean,
    rolling_min, rolling_max, lag_value, delta_value, delta_t_us);
    lag/delta are NaN on each key's first row, microsecond-exact
    ``delta_t_us`` floats elsewhere.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = _drop_null_ts(g, ts_col)
        # NULL keys drop too (twin: WHERE key IS NOT NULL) — a None
        # string key crashes lexsort; a NaN numeric key would become its
        # own segment per NaN vs SQL's single NULL partition
        g = g[g[key_col].notna()]
        t_us = g[ts_col].astype("datetime64[us]").astype("int64").to_numpy()
        keys = g[key_col].to_numpy()
        ids = g[id_col].to_numpy()
        order = np.lexsort((ids, t_us, keys))
        keys, ids, t_us = keys[order], ids[order], t_us[order]
        v = g[value_col].to_numpy(dtype=np.float64)[order]
        n = v.shape[0]
        if n == 0:
            return pd.DataFrame(
                {
                    id_col: ids,
                    key_col: keys,
                    "t_us": t_us,
                    **{
                        c: np.empty(0, dtype=np.float64)
                        for c in (
                            "rolling_sum", "rolling_mean", "rolling_min",
                            "rolling_max", "lag_value", "delta_value",
                            "delta_t_us",
                        )
                    },
                    "rolling_n": np.empty(0, dtype=np.int64),
                }
            )
        new_key = np.r_[True, keys[1:] != keys[:-1]]
        seg_start = np.maximum.accumulate(
            np.where(new_key, np.arange(n), 0)
        )
        w_start = np.maximum(np.arange(n) - k + 1, seg_start)
        ok = ~np.isnan(v)
        cs = np.concatenate(([0.0], np.cumsum(np.where(ok, v, 0.0))))
        cn = np.concatenate(([0], np.cumsum(ok.astype(np.int64))))
        idx = np.arange(n)
        r_sum = cs[idx + 1] - cs[w_start]
        r_n = cn[idx + 1] - cn[w_start]
        r_mean = np.where(r_n > 0, r_sum / np.maximum(r_n, 1), np.nan)
        r_sum = np.where(r_n > 0, r_sum, np.nan)
        # rolling min/max: one (n, k) window view over the padded array;
        # window column j of row i holds index i - k + 1 + j — mask out
        # positions before the row's segment start (and NaN values)
        pad = np.concatenate((np.full(k - 1, np.nan), v))
        win = np.lib.stride_tricks.sliding_window_view(pad, k)
        pos = idx[:, None] - (k - 1) + np.arange(k)[None, :]
        valid = (pos >= seg_start[:, None]) & ~np.isnan(win)
        r_min = np.where(valid, win, np.inf).min(axis=1)
        r_max = np.where(valid, win, -np.inf).max(axis=1)
        r_min = np.where(r_n > 0, r_min, np.nan)
        r_max = np.where(r_n > 0, r_max, np.nan)
        has_prev = idx > seg_start
        lag_v = np.full(n, np.nan)
        lag_v[has_prev] = v[idx[has_prev] - 1]
        dt = np.full(n, np.nan)
        dt[has_prev] = (t_us[has_prev] - t_us[idx[has_prev] - 1]).astype(
            np.float64
        )
        return pd.DataFrame(
            {
                id_col: ids,
                key_col: keys,
                "t_us": t_us,
                "rolling_n": r_n,
                "rolling_sum": r_sum,
                "rolling_mean": r_mean,
                "rolling_min": r_min,
                "rolling_max": r_max,
                "lag_value": lag_v,
                "delta_value": v - lag_v,
                "delta_t_us": dt,
            }
        )

    return reduce_by_key(events_ds, key_col, per_partition, num_partitions, "pandas")


def rolling_time_agg(
    events_ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    id_col: str = "event_id",
    window_s: int = 3600,
    num_partitions: int | None = None,
):
    """Per-key TIME-window rolling aggregates — SQL's ``RANGE BETWEEN
    <interval> PRECEDING AND CURRENT ROW``: for each event, count/sum/mean
    of the key's values with ``ts in [t - window, t]``, INCLUDING
    same-timestamp peers after the current row (exact SQL RANGE
    peer-group semantics, which ``rolling_agg``'s ROWS mode does not do).

    Vectorized like the as-of join: rows sort once by (key, ts), window
    bounds for ALL rows come from two ``np.searchsorted`` calls over a
    structured (key, ts) array — start = first row >= (key, t - window),
    end = first row > (key, t) — and count/sum read off prefix sums.
    Variable-width windows preclude the sliding-window-view min/max of
    the ROWS variant, so this emits n/sum/mean only.  NaN values are
    skipped exactly like SQL NULLs.  Keys must be int64-castable (the
    structured-searchsorted core, same contract as asof_join)."""
    if window_s <= 0:
        raise ValueError(f"window_s must be positive, got {window_s}")
    win_us = int(window_s) * 1_000_000

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = _drop_null_ts(g, ts_col)
        # NULL keys drop (twin: WHERE key IS NOT NULL) — a null would
        # poison the int64 cast below
        g = g[g[key_col].notna()]
        t_us = g[ts_col].astype("datetime64[us]").astype("int64").to_numpy()
        keys = g[key_col].to_numpy(dtype=np.int64)
        ids = g[id_col].to_numpy()
        order = np.lexsort((ids, t_us, keys))
        keys, ids, t_us = keys[order], ids[order], t_us[order]
        v = g[value_col].to_numpy(dtype=np.float64)[order]
        n = v.shape[0]
        if n == 0:
            return pd.DataFrame(
                {
                    id_col: ids,
                    key_col: keys,
                    "t_us": t_us,
                    "rolling_n": np.empty(0, dtype=np.int64),
                    "rolling_sum": np.empty(0, dtype=np.float64),
                    "rolling_mean": np.empty(0, dtype=np.float64),
                }
            )
        dt = np.dtype([("k", keys.dtype), ("t", np.int64)])
        s = np.empty(n, dtype=dt)
        s["k"], s["t"] = keys, t_us
        lo_q = np.empty(n, dtype=dt)
        lo_q["k"], lo_q["t"] = keys, t_us - win_us
        start = np.searchsorted(s, lo_q, side="left")
        hi_q = np.empty(n, dtype=dt)
        hi_q["k"], hi_q["t"] = keys, t_us
        end = np.searchsorted(s, hi_q, side="right")
        ok = ~np.isnan(v)
        cs = np.concatenate(([0.0], np.cumsum(np.where(ok, v, 0.0))))
        cn = np.concatenate(([0], np.cumsum(ok.astype(np.int64))))
        r_sum = cs[end] - cs[start]
        r_n = cn[end] - cn[start]
        r_mean = np.where(r_n > 0, r_sum / np.maximum(r_n, 1), np.nan)
        r_sum = np.where(r_n > 0, r_sum, np.nan)
        return pd.DataFrame(
            {
                id_col: ids,
                key_col: keys,
                "t_us": t_us,
                "rolling_n": r_n,
                "rolling_sum": r_sum,
                "rolling_mean": r_mean,
            }
        )

    return reduce_by_key(events_ds, key_col, per_partition, num_partitions, "pandas")


def tumbling_window_agg(
    events_ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    window_s: int = 3600,
    num_partitions: int | None = None,
):
    """Count/sum/min/max/mean of ``value`` per (key, tumbling window).

    Shuffle-minimal shape: each block is pre-aggregated to one partial row
    per (key, window) BEFORE the exchange (the combiner), so the groupby
    moves partials — orders of magnitude fewer rows than events — and the
    reduce side shuffles partials on ``hash(key) % num_partitions`` (like
    ``sliding_window_agg``) and merges ALL groups of a partition in one
    vectorized pandas groupby-agg: no per-(key, window) Python calls.
    Returns (key, window_start: epoch seconds, n, sum_value, min_value,
    max_value, mean_value)."""

    def partial(g: pd.DataFrame) -> pd.DataFrame:
        g = _drop_null_ts(g, ts_col)
        t = _epoch_seconds(g[ts_col])
        win = (t // window_s) * window_s
        df = pd.DataFrame(
            {key_col: g[key_col].to_numpy(), "window_start": win,
             "v": g[value_col].to_numpy()}
        )
        # n counts NON-NULL values (the SQL oracle uses count(value));
        # sum/min/max skip NaN like SQL aggregates skip NULL
        out = (
            df.groupby([key_col, "window_start"], sort=True)["v"]
            .agg(n="count", sum_value="sum", min_value="min", max_value="max")
            .reset_index()
        )
        out["n"] = out["n"].astype("int64")
        return out

    partials = events_ds.map_batches(
        partial, batch_format="pandas", batch_size=None
    )

    def merge_partition(g: pd.DataFrame) -> pd.DataFrame:
        out = (
            g.groupby([key_col, "window_start"], sort=True)
            .agg(
                n=("n", "sum"),
                sum_value=("sum_value", "sum"),
                min_value=("min_value", "min"),
                max_value=("max_value", "max"),
            )
            .reset_index()
        )
        out["n"] = out["n"].astype("int64")
        n = out["n"].to_numpy()
        s = out["sum_value"].to_numpy()
        out["mean_value"] = np.where(n > 0, s / np.maximum(n, 1), np.nan)
        # an all-NaN window has n == 0: SQL sum/min/max/avg are NULL there
        out.loc[n == 0, ["sum_value", "min_value", "max_value"]] = np.nan
        return out

    return reduce_by_key(partials, key_col, merge_partition, num_partitions, "pandas")


def ewma(
    events_ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    id_col: str = "event_id",
    alpha: float = 0.3,
    num_partitions: int | None = None,
):
    """Per-key exponentially-weighted moving average over each key's
    event stream in (ts, id) order — the classic streaming smoother:
    ``e_0 = x_0``, ``e_t = (1-alpha)*e_{t-1} + alpha*x_t`` (the
    ``adjust=False`` recurrence; equivalently the closed form
    ``(1-a)^t x_0 + sum_j a (1-a)^(t-j) x_j``, which the SQL oracle
    re-derives). Null/NaN rows carry no weight and get a NaN smoothed
    value themselves (polars ``ignore_nulls=True`` null semantics; NaN
    is mapped to null first because polars treats NaN as a poison
    value, not a missing one).

    Shape: ONE hash shuffle co-locating each key's rows (same exchange
    as :func:`rolling_agg`), then a single vectorized polars
    ``ewm_mean().over(key)`` pass per partition — no per-key Python.
    Returns (id, key, t_us, value, ewma).
    """
    import polars as pl

    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = _drop_null_ts(g, ts_col)
        # NULL keys drop too (twin: WHERE key IS NOT NULL) — a None
        # string key crashes lexsort; a NaN numeric key would become its
        # own segment per NaN vs SQL's single NULL partition
        g = g[g[key_col].notna()]
        t_us = g[ts_col].astype("datetime64[us]").astype("int64").to_numpy()
        keys = g[key_col].to_numpy()
        ids = g[id_col].to_numpy()
        order = np.lexsort((ids, t_us, keys))
        keys, ids, t_us = keys[order], ids[order], t_us[order]
        v = g[value_col].to_numpy(dtype=np.float64)[order]
        e = (
            pl.DataFrame({"k": keys, "v": v})
            .with_columns(
                pl.col("v")
                .fill_nan(None)
                .ewm_mean(alpha=alpha, adjust=False, ignore_nulls=True)
                .over("k")
                .alias("e")
            )["e"]
            .to_numpy()
        )
        return pd.DataFrame(
            {
                id_col: ids,
                key_col: keys,
                "t_us": t_us,
                value_col: v,
                "ewma": e,
            }
        )

    return reduce_by_key(events_ds, key_col, per_partition, num_partitions, "pandas")


def rolling_zscore(
    events_ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    id_col: str = "event_id",
    k: int = 5,
    num_partitions: int | None = None,
):
    """Per-key rolling z-score over the last ``k`` rows — the streaming
    anomaly signal: z = (x - mean_w) / std_w with the SAMPLE standard
    deviation of the ROWS BETWEEN k-1 PRECEDING AND CURRENT ROW window.
    NaN where the window has < 2 non-null values, the window variance is
    zero, or the current value is null.

    Same shape as :func:`rolling_agg`: one hash shuffle co-locating each
    key's rows, then a single vectorized pass (prefix sums of x and x^2
    clipped at key segment starts). Returns (id, key, t_us, value, n_w,
    zscore).
    """
    if k <= 1:
        raise ValueError(f"k must be >= 2 for a z-score window, got {k}")

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = _drop_null_ts(g, ts_col)
        # NULL keys drop too (twin: WHERE key IS NOT NULL) — a None
        # string key crashes lexsort; a NaN numeric key would become its
        # own segment per NaN vs SQL's single NULL partition
        g = g[g[key_col].notna()]
        t_us = g[ts_col].astype("datetime64[us]").astype("int64").to_numpy()
        keys = g[key_col].to_numpy()
        ids = g[id_col].to_numpy()
        order = np.lexsort((ids, t_us, keys))
        keys, ids, t_us = keys[order], ids[order], t_us[order]
        v = g[value_col].to_numpy(dtype=np.float64)[order]
        n = v.shape[0]
        if n == 0:
            return pd.DataFrame(
                {
                    id_col: ids,
                    key_col: keys,
                    "t_us": t_us,
                    value_col: v,
                    "n_w": np.empty(0, dtype=np.int64),
                    "zscore": np.empty(0, dtype=np.float64),
                }
            )
        new_key = np.r_[True, keys[1:] != keys[:-1]]
        idx = np.arange(n)
        seg_start = np.maximum.accumulate(np.where(new_key, idx, 0))
        w_start = np.maximum(idx - k + 1, seg_start)
        ok = ~np.isnan(v)
        # Shift each value by a per-key-segment baseline (the segment's
        # first non-null value) BEFORE building the prefix sums: variance
        # is shift-invariant, but the textbook (s2 - n*mean^2) form
        # catastrophically cancels when |mean| >> std (e.g. values
        # 1e8 + N(0, 1e-3)), while the SQL oracle's stddev_samp is
        # numerically stable. Windows never cross segments, so a
        # per-segment constant shift is exact. Same epoch-offset lesson
        # as t - min(t) in group_linear_trend.
        seg_id = np.cumsum(new_key) - 1
        ok_pos = np.where(ok, idx, n)
        starts = np.flatnonzero(new_key)
        first_ok = np.minimum.reduceat(ok_pos, starts)[seg_id]
        baseline = np.where(first_ok < n, v[np.minimum(first_ok, n - 1)], 0.0)
        vs = v - baseline
        cs = np.concatenate(([0.0], np.cumsum(np.where(ok, vs, 0.0))))
        cs2 = np.concatenate(([0.0], np.cumsum(np.where(ok, vs * vs, 0.0))))
        cn = np.concatenate(([0], np.cumsum(ok.astype(np.int64))))
        s1 = cs[idx + 1] - cs[w_start]
        s2 = cs2[idx + 1] - cs2[w_start]
        nw = cn[idx + 1] - cn[w_start]
        # exact constant-window detection (win min == max over non-null):
        # even the shifted prefix-sum form can leave a tiny positive
        # residue on constant windows of non-dyadic values, which would
        # disagree with SQL's numerically-stable stddev about std == 0.
        # Full windows reduce straight over the sliding view (no n*k
        # materialization); the clipped first k-1 rows of each segment
        # see a segment PREFIX, handled by a grouped cummin/cummax.
        pad_lo = np.concatenate((np.full(k - 1, np.inf), np.where(ok, v, np.inf)))
        pad_hi = np.concatenate((np.full(k - 1, -np.inf), np.where(ok, v, -np.inf)))
        wmin = np.lib.stride_tricks.sliding_window_view(pad_lo, k).min(axis=1)
        wmax = np.lib.stride_tricks.sliding_window_view(pad_hi, k).max(axis=1)
        clipped = w_start > idx - k + 1
        if clipped.any():
            pre_min = pd.Series(pad_lo[k - 1 :]).groupby(seg_id).cummin().to_numpy()
            pre_max = pd.Series(pad_hi[k - 1 :]).groupby(seg_id).cummax().to_numpy()
            wmin = np.where(clipped, pre_min, wmin)
            wmax = np.where(clipped, pre_max, wmax)
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = s1 / np.maximum(nw, 1)
            var = (s2 - nw * mean * mean) / np.maximum(nw - 1, 1)
            var = np.where(wmin == wmax, 0.0, var)
            std = np.sqrt(np.maximum(var, 0.0))
            z = np.where(
                (nw >= 2) & (std > 0) & ok, (vs - mean) / std, np.nan
            )
        return pd.DataFrame(
            {
                id_col: ids,
                key_col: keys,
                "t_us": t_us,
                value_col: v,
                "n_w": nw,
                "zscore": z,
            }
        )

    return reduce_by_key(events_ds, key_col, per_partition, num_partitions, "pandas")


def running_agg(
    events_ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    id_col: str = "event_id",
    num_partitions: int | None = None,
):
    """Per-key RUNNING aggregates — the UNBOUNDED PRECEDING frame
    (``SUM/COUNT/MAX(value) OVER (PARTITION BY key ORDER BY ts, id)``):
    cumulative count, sum and max of each key's stream in (ts, id)
    order. NaN values are skipped like SQL NULLs (they don't advance
    count/sum/max; the row still appears with the running values so
    far).

    Same shape as :func:`rolling_agg`: one co-partitioning shuffle, then
    one vectorized pass (cumulative sums/maxima reset at key segment
    starts via a subtract-segment-base trick — no per-key Python).
    Returns (id, key, t_us, value, run_n, run_sum, run_max).
    """

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = _drop_null_ts(g, ts_col)
        # NULL keys drop too (twin: WHERE key IS NOT NULL) — a None
        # string key crashes lexsort; a NaN numeric key would become its
        # own segment per NaN vs SQL's single NULL partition
        g = g[g[key_col].notna()]
        t_us = g[ts_col].astype("datetime64[us]").astype("int64").to_numpy()
        keys = g[key_col].to_numpy()
        ids = g[id_col].to_numpy()
        order = np.lexsort((ids, t_us, keys))
        keys, ids, t_us = keys[order], ids[order], t_us[order]
        v = g[value_col].to_numpy(dtype=np.float64)[order]
        n = v.shape[0]
        if n == 0:
            return pd.DataFrame(
                {
                    id_col: ids,
                    key_col: keys,
                    "t_us": t_us,
                    value_col: v,
                    "run_n": np.empty(0, dtype=np.int64),
                    "run_sum": np.empty(0, dtype=np.float64),
                    "run_max": np.empty(0, dtype=np.float64),
                }
            )
        new_key = np.r_[True, keys[1:] != keys[:-1]]
        seg_start = np.maximum.accumulate(np.where(new_key, np.arange(n), 0))
        ok = ~np.isnan(v)
        cs = np.cumsum(np.where(ok, v, 0.0))
        cn = np.cumsum(ok.astype(np.int64))
        # subtract the prefix just BEFORE each segment start
        base_s = np.where(seg_start > 0, cs[seg_start - 1], 0.0)
        base_n = np.where(seg_start > 0, cn[seg_start - 1], 0)
        run_sum = cs - base_s
        run_n = cn - base_n
        # segmented running max: the subtract-base trick doesn't apply
        # to max, so use pandas' Cython groupby-cummax over the segment
        # ids (vectorized, no per-key Python)
        seg_id = np.cumsum(new_key) - 1
        vm = np.where(ok, v, -np.inf)
        acc = pd.Series(vm).groupby(seg_id).cummax().to_numpy()
        run_max = np.where(run_n > 0, acc, np.nan)
        run_sum = np.where(run_n > 0, run_sum, np.nan)
        return pd.DataFrame(
            {
                id_col: ids,
                key_col: keys,
                "t_us": t_us,
                value_col: v,
                "run_n": run_n,
                "run_sum": run_sum,
                "run_max": run_max,
            }
        )

    return reduce_by_key(events_ds, key_col, per_partition, num_partitions, "pandas")


def funnel_steps(
    events_ds,
    *,
    steps: tuple,
    key_col: str = "user_id",
    ts_col: str = "ts",
    type_col: str = "event_type",
    num_partitions: int | None = None,
):
    """Greedy earliest-completion funnel per key: t_1 = min ts of a
    step-1 event; t_k = min ts of a step-k event STRICTLY after
    t_{k-1} — the standard product-analytics funnel (each step must
    happen after the previous one; the greedy earliest choice is the
    canonical definition and maximizes completion). Returns one row per
    key, (key, t1..tN timestamps — NULL from the first unreached step
    on, steps_completed). Keys whose every row has a NULL timestamp are
    absent; NULL-key rows are dropped (mirror with ``WHERE key IS NOT
    NULL AND ts IS NOT NULL`` in SQL twins).

    Scale shape: ONE hash shuffle co-locating each key's rows, then a
    single vectorized pass per partition — per step one masked
    ``minimum.reduceat`` over the key segments (no per-key Python, no
    joins); an unreached step poisons all later steps via a +inf
    sentinel. N steps = N vector ops, not N self-joins (the SQL twin
    pays N-1 joins instead).
    """
    if len(steps) == 0:
        raise ValueError("steps must be non-empty")
    steps = tuple(steps)
    i_inf = np.iinfo(np.int64).max

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = _drop_null_ts(g, ts_col)
        g = g[g[key_col].notna()]
        n = len(g)
        keys = g[key_col].to_numpy()
        t = g[ts_col].astype("datetime64[us]").astype("int64").to_numpy()
        types = g[type_col].to_numpy()
        order = np.lexsort((t, keys))
        keys, t, types = keys[order], t[order], types[order]
        new_key = (
            np.r_[True, keys[1:] != keys[:-1]] if n else np.empty(0, bool)
        )
        seg_starts = np.flatnonzero(new_key)
        seg_id = np.cumsum(new_key) - 1
        uniq = keys[seg_starts]
        cols = {key_col: uniq}
        # step 1 has no predecessor constraint: int64 min compares
        # strictly below every valid timestamp (incl. pre-1970 epochs)
        tprev = np.full(len(uniq), np.iinfo(np.int64).min, dtype=np.int64)
        reached = np.ones(len(uniq), dtype=bool)
        completed = np.zeros(len(uniq), dtype=np.int64)
        for i, step in enumerate(steps):
            if n:
                mask = (types == step) & (t > tprev[seg_id])
                tm = np.where(mask, t, i_inf)
                tk = np.minimum.reduceat(tm, seg_starts)
            else:
                tk = np.empty(0, dtype=np.int64)
            reached = reached & (tk != i_inf)
            tk = np.where(reached, tk, i_inf)
            completed += reached.astype(np.int64)
            cols[f"t{i + 1}"] = pd.Series(
                np.where(reached, tk, np.int64(0)).view("datetime64[us]")
            ).mask(~reached)
            tprev = tk
        cols["steps_completed"] = completed
        return pd.DataFrame(cols)

    return reduce_by_key(events_ds, key_col, per_partition, num_partitions, "pandas")


def state_intervals(
    events_ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "event_type",
    id_col: str = "event_id",
    num_partitions: int | None = None,
):
    """Validity intervals per key — the SCD-2 / temporal-table
    materialization of an event stream: each row becomes a state valid
    from its own timestamp until the key's NEXT event (SQL's
    ``lead(ts) OVER (PARTITION BY key ORDER BY ts, id)``); each key's
    latest state is OPEN-ENDED, marked ``is_current`` with the
    conventional SCD-2 high date 9999-12-31 as ``valid_to`` (a sentinel
    rather than NULL keeps the column comparable/indexable — mirror
    with ``coalesce(lead(ts) OVER ..., TIMESTAMP '9999-12-31')``).
    ``id_col`` breaks duplicate-timestamp ties deterministically (the
    :func:`~.aggregates.last_value_per_key` rule). NULL-ts and
    NULL-key rows are dropped — mirror with ``WHERE ts IS NOT NULL AND
    key IS NOT NULL`` in SQL twins.

    Scale shape: one hash shuffle co-locating each key's rows, one
    lexsort + shift per partition — no per-row Python, no join.
    """
    high_date_us = (
        np.datetime64("9999-12-31", "us").astype("int64")
    )

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = _drop_null_ts(g, ts_col)
        g = g[g[key_col].notna()]
        n = len(g)
        keys = g[key_col].to_numpy()
        ids = g[id_col].to_numpy()
        t = g[ts_col].astype("datetime64[us]").astype("int64").to_numpy()
        order = np.lexsort((ids, t, keys))
        keys, ids, t = keys[order], ids[order], t[order]
        vals = g[value_col].to_numpy()[order]
        last_of_key = (
            np.r_[keys[1:] != keys[:-1], True] if n else np.empty(0, bool)
        )
        nxt = (
            np.where(last_of_key, high_date_us, np.r_[t[1:], high_date_us])
            if n
            else np.empty(0, dtype=np.int64)
        )
        return pd.DataFrame(
            {
                key_col: keys,
                id_col: ids,
                "state": vals,
                "valid_from": pd.Series(t.view("datetime64[us]")),
                "valid_to": pd.Series(
                    nxt.astype(np.int64).view("datetime64[us]")
                ),
                "is_current": last_of_key,
            }
        )

    return reduce_by_key(events_ds, key_col, per_partition, num_partitions, "pandas")


def event_transitions(
    events_ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    type_col: str = "event_type",
    id_col: str = "event_id",
    num_partitions: int | None = None,
):
    """Global first-order Markov transition matrix of an event log: for
    every ordered state pair, how often state ``to_state`` IMMEDIATELY
    follows ``from_state`` within one key's (ts, id)-ordered sequence,
    plus the row-conditional probability ``p`` = cnt / sum(cnt) over the
    ``from_state`` row — the sequence-bigram statistic behind session
    modeling / next-event prediction. Adjacency is evaluated within a
    key only (no transition across keys); duplicate timestamps order by
    ``id_col`` (the :func:`state_intervals` determinism rule). NULL
    key / ts / type rows are dropped BEFORE adjacency (a dropped middle
    row joins its neighbours — mirror with ``WHERE key IS NOT NULL AND
    ts IS NOT NULL AND type IS NOT NULL`` ahead of the window in SQL
    twins). ``p`` divides in IEEE doubles on both sides.

    Returns (from_state, to_state, cnt, p).

    Scale shape: one key-hash exchange co-locates each key's rows; one
    lexsort + shifted-compare per partition emits (from, to) pair-count
    PARTIALS (Arrow hash group_by — the second shuffle carries state
    pairs, never events); a global pair groupby-sum; then a tiny
    from_state-hash repartition of the pair table for the per-row
    conditional totals (segment ``add.reduceat`` — no driver collection,
    no broadcast; the pair table is at most |states|^2 rows).
    """

    def pair_partials(g: pd.DataFrame) -> pd.DataFrame:
        g = _drop_null_ts(g, ts_col)
        g = g[g[key_col].notna() & g[type_col].notna()]
        n = len(g)
        if n == 0:
            return pd.DataFrame(
                {
                    "from_state": pd.Series(dtype=object),
                    "to_state": pd.Series(dtype=object),
                    "cnt": pd.Series(dtype=np.int64),
                }
            )
        keys = g[key_col].to_numpy()
        ids = g[id_col].to_numpy()
        t = g[ts_col].astype("datetime64[us]").astype("int64").to_numpy()
        order = np.lexsort((ids, t, keys))
        keys = keys[order]
        types = g[type_col].to_numpy()[order]
        same = keys[1:] == keys[:-1]
        pt = pa.table(
            {
                "from_state": pa.array(types[:-1][same]),
                "to_state": pa.array(types[1:][same]),
            }
        )
        out = pt.group_by(["from_state", "to_state"]).aggregate(
            [([], "count_all")]
        )
        return out.rename_columns(
            ["from_state", "to_state", "cnt"]
        ).to_pandas()

    counted = (
        reduce_by_key(events_ds, key_col, pair_partials, num_partitions, "pandas")
        .groupby(["from_state", "to_state"])
        .sum("cnt")
    )

    def probs(t: pa.Table) -> pa.Table:
        t = t.drop_columns(["part"])
        f = t["from_state"].to_numpy(zero_copy_only=False)
        cnt = t["sum(cnt)"].to_numpy(zero_copy_only=False).astype(np.int64)
        if f.size == 0:
            return pa.table(
                {
                    "from_state": t["from_state"],
                    "to_state": t["to_state"],
                    "cnt": pa.array(cnt),
                    "p": pa.array(np.empty(0, np.float64)),
                }
            )
        order = np.argsort(f, kind="stable")
        f_s, c_s = f[order], cnt[order]
        first = np.r_[True, f_s[1:] != f_s[:-1]]
        seg_start = np.flatnonzero(first)
        seg_id = np.cumsum(first) - 1
        totals = np.add.reduceat(c_s, seg_start)
        p = c_s.astype(np.float64) / totals[seg_id].astype(np.float64)
        take = pa.array(order)
        return pa.table(
            {
                "from_state": t["from_state"].take(take),
                "to_state": t["to_state"].take(take),
                "cnt": pa.array(c_s),
                "p": pa.array(p),
            }
        )

    return reduce_by_key(counted, "from_state", probs, num_partitions, "pyarrow")


def interval_coverage(
    events_ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    dur_col: str = "value",
    dur_scale_s: int = 60,
    num_partitions: int | None = None,
):
    """Merged-interval coverage per key (the gaps-and-islands merge):
    each event opens the interval ``[s, s + floor(abs(dur)) * scale)``
    in epoch seconds; intervals of the same key whose start is <= the
    running max end of all earlier intervals merge into one island
    (touching intervals MERGE — the island break is strictly
    ``s > prev_max``, mirrored by the SQL twin's CASE). Returns one row
    per key: (key, n_intervals, covered_s, span_s) where covered_s is
    the summed length of the merged islands and span_s = max end -
    min start. All arithmetic is integer seconds, so the oracle is
    bit-exact.

    NULL key / NULL ts / NULL duration rows drop (mirror with
    ``WHERE key IS NOT NULL AND ts IS NOT NULL AND dur IS NOT NULL``).

    Scale shape: ONE key-hash exchange, then a per-partition lexsort +
    segment-cummax kernel (pandas cython groupby-cummax; no Python per
    key). Variable interval lengths are what make the running max
    genuinely necessary — with fixed lengths this would degenerate to
    :func:`session_windows`.
    """

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = _drop_null_ts(g, ts_col)
        g = g[g[key_col].notna() & g[dur_col].notna()]
        empty = pd.DataFrame(
            {
                key_col: pd.Series([], dtype=g[key_col].dtype),
                "n_intervals": pd.Series([], dtype="int64"),
                "covered_s": pd.Series([], dtype="int64"),
                "span_s": pd.Series([], dtype="int64"),
            }
        )
        if len(g) == 0:
            return empty
        keys = g[key_col].to_numpy()
        s = _epoch_seconds(g[ts_col])
        dur = np.floor(np.abs(g[dur_col].to_numpy(dtype=np.float64)))
        e = s + dur.astype(np.int64) * dur_scale_s
        order = np.lexsort((e, s, keys))
        keys, s, e = keys[order], s[order], e[order]
        new_key = np.r_[True, keys[1:] != keys[:-1]]
        seg_id = np.cumsum(new_key) - 1
        # running max end within each key segment (inclusive), then the
        # exclusive shift: prev[i] = max(e[seg_start..i-1])
        cm = pd.Series(e).groupby(seg_id).cummax().to_numpy()
        prev = np.empty_like(cm)
        prev[1:] = cm[:-1]
        prev[0] = np.iinfo(np.int64).min
        new_island = new_key | (s > prev)
        il_first = np.flatnonzero(new_island)
        il_last = np.r_[il_first[1:] - 1, len(s) - 1]
        ist = s[il_first]
        ien = cm[il_last]  # max end over the island
        ikey = keys[il_first]
        # per-key rollup over islands (islands arrive in key order;
        # island ends strictly increase within a key because each new
        # island starts past the previous island's max end)
        key_first = np.r_[True, ikey[1:] != ikey[:-1]]
        kid = np.cumsum(key_first) - 1
        n_int = np.bincount(kid).astype(np.int64)
        cov = np.bincount(kid, weights=(ien - ist)).astype(np.int64)
        key_last = np.r_[key_first[1:], True]
        span = ien[key_last] - ist[key_first]
        return pd.DataFrame(
            {
                key_col: ikey[key_first],
                "n_intervals": n_int,
                "covered_s": cov,
                "span_s": span.astype(np.int64),
            }
        )

    return reduce_by_key(events_ds, key_col, per_partition, num_partitions, "pandas")


def throttle(
    events_ds,
    *,
    key_col: str = "user_id",
    type_col: str = "event_type",
    ts_col: str = "ts",
    id_col: str = "event_id",
    window_s: int = 3600,
    num_partitions: int | None = None,
):
    """Rate-limit dedup: keep only the FIRST event per (key, type,
    tumbling window) — the standard notification-throttle / at-most-
    once-per-hour filter. "First" is deterministic: (min ts, min id)
    within the cell, the same retry-invariance rule as the rollup's
    duplicate resolution (CLAUDE.md). Output is the surviving rows with
    all their input columns plus ``window_start`` (epoch seconds).

    NULL key / NULL type / NULL ts rows drop (mirror with
    ``WHERE ... IS NOT NULL``); the SQL twin is
    ``row_number() OVER (PARTITION BY key, type, window
    ORDER BY ts, id) = 1``.

    Scale shape: ONE key-hash exchange, per-partition mergesort +
    vectorized pandas ``duplicated`` first-of-group — no Python per
    cell.
    """

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = _drop_null_ts(g, ts_col).drop(columns=["part"])
        g = g[g[key_col].notna() & g[type_col].notna()]
        if len(g) == 0:
            g = g.copy()
            g["window_start"] = pd.Series([], dtype="int64")
            return g
        t = _epoch_seconds(g[ts_col])
        g = g.assign(window_start=(t // window_s) * window_s)
        g = g.sort_values(
            [key_col, type_col, "window_start", ts_col, id_col],
            kind="mergesort",
        )
        return g[~g.duplicated([key_col, type_col, "window_start"])]

    return reduce_by_key(events_ds, key_col, per_partition, num_partitions, "pandas")


def time_weighted_avg(
    events_ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    id_col: str = "event_id",
    num_partitions: int | None = None,
):
    """Time-weighted average per key — the TWAP / state-duration mean:
    each observation's value is weighted by how long it HELD (the gap
    to the key's next event, in integer microseconds), i.e.
    ``sum(v_i * d_i) / sum(d_i)`` with
    ``d_i = epoch_us(lead(ts) OVER (PARTITION BY key ORDER BY ts, id))
    - epoch_us(ts)``. The key's LAST event has no holding time and
    contributes nothing (SQL: ``WHERE t_next IS NOT NULL``); keys whose
    events all share one timestamp have zero total duration and are
    absent (``HAVING sum(d) > 0``). Duplicate timestamps order by
    ``id_col`` (the :func:`state_intervals` determinism rule) and
    contribute d = 0 exactly. NULL key / ts / value rows drop (mirror
    with ``WHERE ... IS NOT NULL``). ``sum(d)`` telescopes to
    last_ts - first_ts per key, so ``duration_us`` is integer-exact;
    the weighted sum divides in IEEE doubles on both sides.

    Returns (key, twa, duration_us, n_holds).

    Scale shape: one key-hash exchange co-locates each key's rows; one
    lexsort + diff + ``add.reduceat`` segment reduction per partition —
    no per-key Python, no join, output is one row per key.
    """

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = _drop_null_ts(g, ts_col)
        g = g[g[key_col].notna() & g[value_col].notna()]
        n = len(g)
        if n == 0:
            return pd.DataFrame(
                {
                    key_col: pd.Series(dtype=g[key_col].dtype),
                    "twa": pd.Series(dtype=np.float64),
                    "duration_us": pd.Series(dtype=np.int64),
                    "n_holds": pd.Series(dtype=np.int64),
                }
            )
        keys = g[key_col].to_numpy()
        ids = g[id_col].to_numpy()
        t = g[ts_col].astype("datetime64[us]").astype("int64").to_numpy()
        v = g[value_col].to_numpy(dtype=np.float64)
        order = np.lexsort((ids, t, keys))
        keys, t, v = keys[order], t[order], v[order]
        last_of_key = np.r_[keys[1:] != keys[:-1], True]
        # gap to the next row; last-of-key rows cross a key boundary and
        # are masked out below (they are the SQL twin's t_next IS NULL)
        d = np.r_[t[1:] - t[:-1], 0]
        hold = ~last_of_key
        wd = np.where(hold, v * d.astype(np.float64), 0.0)
        dd = np.where(hold, d, 0)
        seg_starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        seg_keys = keys[seg_starts]
        sum_wd = np.add.reduceat(wd, seg_starts)
        sum_d = np.add.reduceat(dd, seg_starts)
        n_holds = np.add.reduceat(hold.astype(np.int64), seg_starts)
        ok = sum_d > 0
        return pd.DataFrame(
            {
                key_col: seg_keys[ok],
                "twa": sum_wd[ok] / sum_d[ok].astype(np.float64),
                "duration_us": sum_d[ok].astype(np.int64),
                "n_holds": n_holds[ok],
            }
        )

    return reduce_by_key(events_ds, key_col, per_partition, num_partitions, "pandas")


def key_lag_deltas(
    events_ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    id_col: str = "event_id",
    num_partitions: int | None = None,
):
    """Per-event lag features — the delta-encoding / feature-
    engineering primitive: for every event, the change in value and the
    elapsed time since the SAME key's previous event, in the (ts, id)
    order (``dv = v - lag(v)``, ``dt_us = epoch_us(ts) -
    lag(epoch_us(ts))``, both ``OVER (PARTITION BY key ORDER BY ts,
    id)``). Each key's FIRST event has no predecessor and is absent
    (SQL: filter ``prev_t IS NOT NULL``). NULL key / ts / value rows
    drop BEFORE the window (a dropped middle row joins its neighbours —
    the :func:`event_transitions` rule; mirror with ``WHERE ... IS NOT
    NULL`` ahead of the lag). ``dt_us`` is integer-exact; ``dv``
    subtracts in IEEE doubles on both sides.

    Returns (id, key, dv, dt_us).

    Scale shape: one key-hash exchange, one lexsort + shifted-subtract
    per partition — output is one row per non-first event, no join.
    """

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = _drop_null_ts(g, ts_col)
        g = g[g[key_col].notna() & g[value_col].notna()]
        n = len(g)
        if n == 0:
            return pd.DataFrame(
                {
                    id_col: pd.Series(dtype=g[id_col].dtype),
                    key_col: pd.Series(dtype=g[key_col].dtype),
                    "dv": pd.Series(dtype=np.float64),
                    "dt_us": pd.Series(dtype=np.int64),
                }
            )
        keys = g[key_col].to_numpy()
        ids = g[id_col].to_numpy()
        t = g[ts_col].astype("datetime64[us]").astype("int64").to_numpy()
        v = g[value_col].to_numpy(dtype=np.float64)
        order = np.lexsort((ids, t, keys))
        keys, ids, t, v = keys[order], ids[order], t[order], v[order]
        has_prev = np.r_[False, keys[1:] == keys[:-1]]
        dv = np.empty_like(v)
        dv[1:] = v[1:] - v[:-1]
        dt = np.empty_like(t)
        dt[1:] = t[1:] - t[:-1]
        return pd.DataFrame(
            {
                id_col: ids[has_prev],
                key_col: keys[has_prev],
                "dv": dv[has_prev],
                "dt_us": dt[has_prev],
            }
        )

    return reduce_by_key(events_ds, key_col, per_partition, num_partitions, "pandas")


def windowed_count_distinct(
    events_ds,
    *,
    key_col: str = "event_type",
    ts_col: str = "ts",
    id_col: str = "user_id",
    window_s: int = 3600,
):
    """Exact DISTINCT-id cardinality per (key, tumbling window) — the
    streaming "unique users per hour per surface" signal, the windowed
    complement of :func:`~.aggregates.group_count_distinct`. NULL key /
    ts / id rows drop (mirror with ``WHERE ... IS NOT NULL``); the
    window is ``floor(epoch_s / window_s) * window_s`` like every
    tumbling operator here.

    Scale shape: block-local DISTINCT (key, window, id) combiner (each
    block contributes a triple at most once — the shuffle carries
    triples, not events), one triple-keyed groupby to dedup across
    blocks, then block ``(key, window)`` count partials and a tiny
    cell-keyed groupby-sum. Returns (key, window_start, n_distinct)."""
    import pyarrow.compute as pc

    def triples(batch: pa.Table) -> pa.Table:
        t = batch.select([key_col, ts_col, id_col]).combine_chunks()
        t = t.filter(
            pc.and_(
                pc.and_(pc.is_valid(t[key_col]), pc.is_valid(t[ts_col])),
                pc.is_valid(t[id_col]),
            )
        )
        win = (
            _epoch_seconds(t[ts_col].to_pandas()) // window_s
        ) * window_s
        t = pa.table(
            {
                key_col: t[key_col],
                "window_start": pa.array(win, type=pa.int64()),
                id_col: t[id_col],
            }
        )
        return t.group_by([key_col, "window_start", id_col]).aggregate([])

    deduped = (
        events_ds.map_batches(triples, batch_format="pyarrow", batch_size=None)
        .groupby([key_col, "window_start", id_col])
        .count()
    )

    def ones(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                key_col: t[key_col],
                "window_start": t["window_start"],
                "one": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            }
        )

    return (
        deduped.map_batches(ones, batch_format="pyarrow", batch_size=None)
        .groupby([key_col, "window_start"])
        .sum("one")
        .map_batches(
            lambda t: pa.table(
                {
                    key_col: t[key_col],
                    "window_start": t["window_start"],
                    "n_distinct": t["sum(one)"],
                }
            ),
            batch_format="pyarrow",
            batch_size=None,
        )
    )


def resample_time_grid(
    events_ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    id_col: str = "event_id",
    step_s: int = 3600,
    num_partitions: int | None = None,
    max_points_per_key: int = 1_000_000,
):
    """Regular-grid resampling with linear interpolation per key — the
    user-facing generalization of the rollup's gap-fill: each key's
    irregular series becomes values at ``first_ts, first_ts + step,
    ..., <= last_ts`` (grid ANCHORED at the series start — anchoring
    avoids any floor/ceil division whose negative-operand semantics
    differ between numpy (floors) and SQL (truncates); the count
    ``(last - first) // step`` is non-negative on both sides).

    Interpolation between the nearest events: ``prev`` = latest event
    with ts <= g, ``next`` = earliest event with ts >= g (both exist —
    the grid never leaves [first, last]);
    ``value = pv + (nv - pv) * ((g - pt) / (nt - pt))`` in integer-us
    diffs and IEEE doubles, replayed literally by the twin's double
    ASOF JOIN; a grid point ON an event takes that event's value
    exactly (nt == pt branch). Duplicate (key, ts) rows first collapse
    to the MIN-id row (the throttle survivor rule, twin:
    ``row_number() OVER (PARTITION BY key, ts ORDER BY id) = 1``);
    NULL key / ts / value rows drop. Single-event keys emit exactly
    their one point.

    Returns (key, grid_ts, value). Loud ``max_points_per_key`` bound —
    a decade-span key at 1 s steps is an input error, not a silent
    300M-row explosion.

    Scale shape: ONE key-hash exchange; per partition a lexsort +
    min-id dedup, vectorized grid construction (repeat/cumsum), and
    TWO searchsorted passes over per-key-offset composite coordinates
    (each key's time range shifted into a disjoint int64 band — no
    per-key Python, no join)."""
    step_us = int(step_s) * 1_000_000
    if step_us <= 0:
        raise ValueError("step_s must be positive")

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = _drop_null_ts(g, ts_col)
        g = g[g[key_col].notna() & g[value_col].notna()]
        n = len(g)
        if n == 0:
            return pd.DataFrame(
                {
                    key_col: pd.Series(dtype=g[key_col].dtype),
                    "grid_ts": pd.Series(dtype="datetime64[us]"),
                    "value": pd.Series(dtype=np.float64),
                }
            )
        keys = g[key_col].to_numpy()
        ids = g[id_col].to_numpy()
        t = g[ts_col].astype("datetime64[us]").astype("int64").to_numpy()
        v = g[value_col].to_numpy(dtype=np.float64)
        order = np.lexsort((ids, t, keys))
        keys, t, v = keys[order], t[order], v[order]
        # min-id survivor per (key, ts): lexsort put it first in its run
        keep = np.r_[True, (keys[1:] != keys[:-1]) | (t[1:] != t[:-1])]
        keys, t, v = keys[keep], t[keep], v[keep]
        n = keys.shape[0]
        new_key = np.r_[True, keys[1:] != keys[:-1]]
        starts = np.flatnonzero(new_key)
        ends = np.r_[starts[1:], n] - 1
        first, last = t[starts], t[ends]
        m = (last - first) // step_us + 1
        if (m > max_points_per_key).any():
            bad = int(m.max())
            raise ValueError(
                f"resample_time_grid: a key expands to {bad} grid points"
                f" > max_points_per_key={max_points_per_key}; raise step_s"
                " or the bound"
            )
        total = int(m.sum())
        nk = starts.size
        pg = np.repeat(np.arange(nk), m)
        within = np.arange(total, dtype=np.int64) - np.r_[
            0, np.cumsum(m)[:-1]
        ][pg]
        gt = first[pg] + within * step_us
        # disjoint per-key composite bands for the one-shot searchsorted.
        # The band offsets are a cumsum of per-key microsecond SPANS and
        # can overflow int64 for many wide keys in one partition (the
        # overflow breaks the monotonicity searchsorted requires), so
        # keys chunk wherever the running span total approaches 2^62 —
        # a loop over CHUNKS (almost always one), never over keys.
        span = last - first + 1
        cum_span = np.cumsum(span.astype(np.float64))
        chunk_of_key = (cum_span // float(2**62)).astype(np.int64)
        seg_of_event = np.cumsum(new_key) - 1
        grid_end = np.cumsum(m)
        ev_end = np.r_[starts[1:], n]
        pv = np.empty(total, np.float64)
        pt = np.empty(total, np.int64)
        nv = np.empty(total, np.float64)
        nt = np.empty(total, np.int64)
        for ck in range(int(chunk_of_key[-1]) + 1 if nk else 0):
            kmask = chunk_of_key == ck
            if not kmask.any():
                continue
            k0 = int(np.flatnonzero(kmask)[0])
            k1 = int(np.flatnonzero(kmask)[-1]) + 1
            e0 = int(starts[k0])
            e1 = int(ev_end[k1 - 1])
            g0 = int(grid_end[k0 - 1]) if k0 else 0
            g1 = int(grid_end[k1 - 1])
            off = np.r_[0, np.cumsum(span[k0:k1])[:-1]]
            comp_ev = (t[e0:e1] - first[seg_of_event[e0:e1]]) + off[
                seg_of_event[e0:e1] - k0
            ]
            comp_g = (gt[g0:g1] - first[pg[g0:g1]]) + off[pg[g0:g1] - k0]
            prev = e0 + np.searchsorted(comp_ev, comp_g, side="right") - 1
            nxt = e0 + np.searchsorted(comp_ev, comp_g, side="left")
            pv[g0:g1], pt[g0:g1] = v[prev], t[prev]
            nv[g0:g1], nt[g0:g1] = v[nxt], t[nxt]
        dd = nt - pt
        same = dd == 0
        with np.errstate(invalid="ignore", divide="ignore"):
            frac = (gt - pt).astype(np.float64) / dd.astype(np.float64)
            val = np.where(same, pv, pv + (nv - pv) * frac)
        return pd.DataFrame(
            {
                key_col: keys[starts][pg],
                "grid_ts": pd.Series(gt.view("datetime64[us]")),
                "value": val,
            }
        )

    return reduce_by_key(events_ds, key_col, per_partition, num_partitions, "pandas")


def rolling_median(
    events_ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    id_col: str = "event_id",
    k: int = 5,
    num_partitions: int | None = None,
):
    """Per-key rolling-last-``k``-rows MEDIAN — the order-statistic
    window :func:`rolling_agg`'s algebraic prefix sums cannot express:
    ``median(value) OVER (PARTITION BY key ORDER BY ts, id ROWS BETWEEN
    k-1 PRECEDING AND CURRENT ROW)``.  Even-count windows average the
    two middle values (the quantile_cont 0.5 convention DuckDB's
    ``median`` shares with ``np.nanmedian``).  NaN/NULL values are
    skipped like SQL NULLs (median over the non-null window rows;
    all-null window -> NULL); NULL-ts rows drop (``_drop_null_ts``) and
    NULL-key rows drop too (the lag_autocorr/changepoint rule — a None
    string key crashes lexsort, a NaN numeric key would become its own
    segment per NaN vs SQL's single NULL partition; twin mirrors with
    ``WHERE ts IS NOT NULL AND key IS NOT NULL``).

    Returns (id, key, t_us, rolling_n, rolling_median).

    Scale shape: ONE key-hash exchange, then a single vectorized pass
    per partition — rows sort by (key, ts, id) and ALL window medians
    come from one ``np.nanmedian`` over the front-padded
    ``sliding_window_view`` (n x k) with positions before each key's
    segment start masked to NaN.  O(n·k log k) work, no per-key Python;
    ``k`` is small by contract (use the exact grouped quantiles for
    whole-group order statistics).
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = _drop_null_ts(g, ts_col)
        # NULL keys drop too (twin: WHERE key IS NOT NULL) — a None
        # string key crashes lexsort; a NaN numeric key would become its
        # own segment per NaN vs SQL's single NULL partition
        g = g[g[key_col].notna()]
        t_us = g[ts_col].astype("datetime64[us]").astype("int64").to_numpy()
        keys = g[key_col].to_numpy()
        ids = g[id_col].to_numpy()
        order = np.lexsort((ids, t_us, keys))
        keys, ids, t_us = keys[order], ids[order], t_us[order]
        v = g[value_col].to_numpy(dtype=np.float64)[order]
        n = v.shape[0]
        if n == 0:
            return pd.DataFrame(
                {
                    id_col: ids,
                    key_col: keys,
                    "t_us": t_us,
                    "rolling_n": np.empty(0, dtype=np.int64),
                    "rolling_median": np.empty(0, dtype=np.float64),
                }
            )
        idx = np.arange(n)
        new_key = np.r_[True, keys[1:] != keys[:-1]]
        seg_start = np.maximum.accumulate(np.where(new_key, idx, 0))
        pad = np.concatenate((np.full(k - 1, np.nan), v))
        win = np.lib.stride_tricks.sliding_window_view(pad, k)
        pos = idx[:, None] - (k - 1) + np.arange(k)[None, :]
        masked = np.where(pos >= seg_start[:, None], win, np.nan)
        r_n = np.count_nonzero(~np.isnan(masked), axis=1).astype(np.int64)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            med = np.nanmedian(masked, axis=1)
        med = np.where(r_n > 0, med, np.nan)
        return pd.DataFrame(
            {
                id_col: ids,
                key_col: keys,
                "t_us": t_us,
                "rolling_n": r_n,
                "rolling_median": med,
            }
        )

    return reduce_by_key(events_ds, key_col, per_partition, num_partitions, "pandas")


def event_path_ngrams(
    events_ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    type_col: str = "event_type",
    id_col: str = "event_id",
    n: int = 3,
    top: int = 50,
    sep: str = ">",
    num_partitions: int | None = None,
):
    """Top journey n-grams of an event log — the sequence-mining
    generalization of :func:`event_transitions`' bigrams: every run of
    ``n`` consecutive events within one key's (ts, id)-ordered stream
    becomes the path string ``type1>type2>...>typeN``; returns the
    global ``top`` most frequent paths as (path, cnt), ordered (cnt
    DESC, path ASC) — a deterministic total order, so block-partial
    top-k then a final top-k is EXACT (top-k is associative, the
    weighted_sample rule).  NULL key / ts / type rows drop BEFORE
    adjacency (the event_transitions contract — a dropped middle row
    joins its neighbours, mirrored by filtering ahead of the lead()
    window in SQL twins); duplicate timestamps order by ``id_col``.

    Scale shape: one key-hash exchange co-locates each key's rows; one
    lexsort + shifted same-key mask per partition emits path-count
    PARTIALS (Arrow hash group_by — the second shuffle carries distinct
    paths, never events); a global path groupby-sum; block-local top-k
    partials then ONE single-block finish (at most ``top`` rows per
    upstream block reach it).
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if top < 1:
        raise ValueError(f"top must be >= 1, got {top}")

    def path_partials(g: pd.DataFrame) -> pd.DataFrame:
        g = _drop_null_ts(g, ts_col)
        g = g[g[key_col].notna() & g[type_col].notna()]
        m = len(g)
        empty = pd.DataFrame(
            {
                "path": pd.Series(dtype=object),
                "cnt": pd.Series(dtype=np.int64),
            }
        )
        if m < n:
            return empty
        keys = g[key_col].to_numpy()
        ids = g[id_col].to_numpy()
        t = g[ts_col].astype("datetime64[us]").astype("int64").to_numpy()
        order = np.lexsort((ids, t, keys))
        keys = keys[order]
        types = g[type_col].to_numpy()[order]
        same = keys[1:] == keys[:-1]
        w = m - n + 1
        valid = np.ones(w, dtype=bool)
        for i in range(n - 1):
            valid &= same[i : i + w]
        if not valid.any():
            return empty
        legs = [
            pa.array(types[i : i + w][valid].astype(object))
            for i in range(n)
        ]
        paths = pc.binary_join_element_wise(*legs, sep)
        out = (
            pa.table({"path": paths})
            .group_by("path")
            .aggregate([([], "count_all")])
        )
        return out.rename_columns(["path", "cnt"]).to_pandas()

    counted = (
        reduce_by_key(events_ds, key_col, path_partials, num_partitions, "pandas")
        .groupby("path")
        .sum("cnt")
    )

    def top_k(t: pa.Table) -> pa.Table:
        name = "sum(cnt)" if "sum(cnt)" in t.column_names else "cnt"
        cnt = t[name].to_numpy(zero_copy_only=False).astype(np.int64)
        paths = t["path"].to_numpy(zero_copy_only=False)
        order = np.lexsort((paths, -cnt))[:top]
        take = pa.array(order)
        return pa.table(
            {
                "path": t["path"].take(take),
                "cnt": pa.array(cnt[order]),
            }
        )

    return (
        counted.map_batches(top_k, batch_format="pyarrow", batch_size=None)
        .repartition(1)
        .map_batches(top_k, batch_format="pyarrow", batch_size=None)
    )


def lag_autocorr(
    events_ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    id_col: str = "event_id",
    lag: int = 1,
    num_partitions: int | None = None,
):
    """Per-key lag-``k`` autocorrelation of an event stream — Pearson
    correlation between each value and the value ``lag`` events later in
    the key's (ts, id)-ordered sequence: the serial-dependence signal
    behind periodicity/trend screening (the relational analog of the
    reference's per-series eta/eta_e adjacency statistics).  Returns
    (key, n_pairs, autocorr); keys whose pair count is < 2 or whose
    either side has zero variance are dropped (DuckDB ``corr`` returns
    NULL there — mirror with ``HAVING corr(a, b) IS NOT NULL``).

    Semantics pinned for the twin: rows with NULL key / ts / NaN-or-NULL
    value drop BEFORE adjacency (a dropped middle row joins its
    neighbours — the :func:`event_transitions` rule; filter ahead of the
    lead() window); duplicate timestamps order by ``id_col``.  The
    closed form (n*Sxy - Sx*Sy)/sqrt((n*Sxx - Sx^2)(n*Syy - Sy^2)) runs
    over values shifted PER KEY by the key's first pair value (the
    rolling_zscore segment-anchor rule — a single global anchor fails
    when keys live at different offsets): correlation is shift-invariant
    and the per-key anchor keeps the normal-equation form round-6
    against the twin's natively stable corr() at mean >> std, with no
    extra aggregate pass.

    Scale shape: ONE key-hash exchange, then a single vectorized pass
    per partition — each key's rows are co-located, so adjacency pairs
    never span partitions and the per-key sums finish locally (lexsort +
    masked reduceat; no second shuffle, no driver collection).
    """
    if lag < 1:
        raise ValueError(f"lag must be >= 1, got {lag}")

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = _drop_null_ts(g, ts_col)
        g = g[g[key_col].notna() & g[value_col].notna()]
        v_all = g[value_col].to_numpy(dtype=np.float64)
        g = g[~np.isnan(v_all)]
        empty = pd.DataFrame(
            {
                key_col: pd.Series(dtype=g[key_col].dtype if len(g) else object),
                "n_pairs": pd.Series(dtype=np.int64),
                "autocorr": pd.Series(dtype=np.float64),
            }
        )
        m = len(g)
        if m <= lag:
            return empty
        keys = g[key_col].to_numpy()
        ids = g[id_col].to_numpy()
        t = g[ts_col].astype("datetime64[us]").astype("int64").to_numpy()
        order = np.lexsort((ids, t, keys))
        keys = keys[order]
        v = g[value_col].to_numpy(dtype=np.float64)[order]
        same = keys[lag:] == keys[:-lag]
        if not same.any():
            return empty
        x = v[:-lag][same]
        y = v[lag:][same]
        pk = keys[:-lag][same]
        first = np.r_[True, pk[1:] != pk[:-1]]
        starts = np.flatnonzero(first)
        seg_id = np.cumsum(first) - 1
        # per-key anchor: both sides shift by the segment's first value
        base = x[starts][seg_id]
        x = x - base
        y = y - base
        n = np.diff(np.r_[starts, pk.size]).astype(np.float64)
        sx = np.add.reduceat(x, starts)
        sy = np.add.reduceat(y, starts)
        sxy = np.add.reduceat(x * y, starts)
        sxx = np.add.reduceat(x * x, starts)
        syy = np.add.reduceat(y * y, starts)
        vx = n * sxx - sx * sx
        vy = n * syy - sy * sy
        # exactly-constant sides snap to variance 0 (seg min == max, the
        # rolling_zscore/welch rule): y is anchored at x's first value, so
        # a constant-y segment whose value != the anchor leaves ±eps in
        # the closed form and would flip the `vy > 0` presence filter vs
        # the twin's corr() (NULL on zero variance).  x's anchor is its
        # own first value (constant x is exactly 0), snapped for symmetry.
        vx[np.minimum.reduceat(x, starts) == np.maximum.reduceat(x, starts)] = 0.0
        vy[np.minimum.reduceat(y, starts) == np.maximum.reduceat(y, starts)] = 0.0
        with np.errstate(invalid="ignore", divide="ignore"):
            r = (n * sxy - sx * sy) / np.sqrt(vx * vy)
        keep = (n >= 2) & (vx > 0) & (vy > 0)
        return pd.DataFrame(
            {
                key_col: pk[starts][keep],
                "n_pairs": n[keep].astype(np.int64),
                "autocorr": r[keep],
            }
        )

    return reduce_by_key(events_ds, key_col, per_partition, num_partitions, "pandas")


def changepoint_single(
    events_ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    id_col: str = "event_id",
    min_n: int = 4,
    num_partitions: int | None = None,
):
    """Exact single change-point detection per key — the binary-
    segmentation base step (the relational analog of the reference's
    Cusum/OtsuSplit level-shift features): over each key's (ts, id)-
    ordered values, find the split ``i`` (left = rows 1..i, right =
    i+1..n) minimizing SSE_left + SSE_right, i.e. the maximum-
    between-variance breakpoint.  Returns (key, n, split_idx,
    split_t_us, sse_total, sse_split, gain) — split_t_us is the
    timestamp of the LAST left row, gain = sse_total - sse_split >= 0;
    keys with n < ``min_n`` clean rows are dropped.

    Determinism/parity contract: candidate SSEs are quantized to
    round-6 (DuckDB half-away-from-zero, via pyarrow) BEFORE the
    argmin, ties break to the SMALLEST i — the twin mirrors with
    ``ORDER BY round(sse, 6), i`` — so a sub-round-6 float wobble
    between engines cannot flip the chosen split.  NULL key / ts /
    NaN-or-NULL value rows drop BEFORE ordering.  Values are anchored
    per key at the key's first value (``value - first_value(value)
    OVER w`` in the twin — SSE is shift-invariant, the rolling_zscore
    cancellation rule), and per-key prefix sums come from one global
    cumsum re-zeroed at segment starts (error ~eps x partition prefix
    magnitude; fine at round-6 for anchored values).

    Scale shape: ONE key-hash exchange, then a single vectorized pass
    per partition — lexsort, two cumsums, closed-form SSE for every
    candidate split at once, one ``minimum.reduceat`` argmin per key.
    O(n) per partition, no per-key Python.
    """
    if min_n < 2:
        raise ValueError(f"min_n must be >= 2, got {min_n}")

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = _drop_null_ts(g, ts_col)
        g = g[g[key_col].notna() & g[value_col].notna()]
        v_chk = g[value_col].to_numpy(dtype=np.float64)
        g = g[~np.isnan(v_chk)]
        empty = pd.DataFrame(
            {
                key_col: pd.Series(
                    dtype=g[key_col].dtype if len(g) else object
                ),
                "n": pd.Series(dtype=np.int64),
                "split_idx": pd.Series(dtype=np.int64),
                "split_t_us": pd.Series(dtype=np.int64),
                "sse_total": pd.Series(dtype=np.float64),
                "sse_split": pd.Series(dtype=np.float64),
                "gain": pd.Series(dtype=np.float64),
            }
        )
        m = len(g)
        if m == 0:
            return empty
        keys = g[key_col].to_numpy()
        ids = g[id_col].to_numpy()
        t = g[ts_col].astype("datetime64[us]").astype("int64").to_numpy()
        order = np.lexsort((ids, t, keys))
        keys, t = keys[order], t[order]
        v = g[value_col].to_numpy(dtype=np.float64)[order]
        idx = np.arange(m)
        new_key = np.r_[True, keys[1:] != keys[:-1]]
        seg_start = np.maximum.accumulate(np.where(new_key, idx, 0))
        seg_id = np.cumsum(new_key) - 1
        starts = np.flatnonzero(new_key)
        ends = np.r_[starts[1:], m] - 1
        n_seg = (ends - starts + 1).astype(np.float64)
        vs = v - v[seg_start]
        cs = np.cumsum(vs)
        cs2 = np.cumsum(vs * vs)
        off = np.where(starts > 0, cs[starts - 1], 0.0)
        off2 = np.where(starts > 0, cs2[starts - 1], 0.0)
        s_i = cs - off[seg_id]
        s2_i = cs2 - off2[seg_id]
        i = (idx - seg_start + 1).astype(np.float64)
        n_at = n_seg[seg_id]
        s_n = s_i[ends][seg_id]
        s2_n = s2_i[ends][seg_id]
        valid = i < n_at
        with np.errstate(invalid="ignore", divide="ignore"):
            sse = (s2_i - s_i * s_i / i) + (
                (s2_n - s2_i) - (s_n - s_i) ** 2 / (n_at - i)
            )
        sse_r = pc.round(
            pa.array(np.where(valid, sse, np.inf)),
            ndigits=6,
            round_mode="half_towards_infinity",
        ).to_numpy(zero_copy_only=False)
        seg_min = np.minimum.reduceat(sse_r, starts)
        hit = valid & (sse_r == seg_min[seg_id])
        hit_pos = np.flatnonzero(hit)
        if hit_pos.size == 0:
            return empty
        _, first_of = np.unique(seg_id[hit_pos], return_index=True)
        pos = hit_pos[first_of]  # smallest i per key with the min SSE
        sid = seg_id[pos]
        n_out = n_seg[sid]
        keep = n_out >= min_n
        pos, sid, n_out = pos[keep], sid[keep], n_out[keep]
        if pos.size == 0:
            return empty
        sse_total = s2_n[pos] - s_n[pos] * s_n[pos] / n_at[pos]
        return pd.DataFrame(
            {
                key_col: keys[starts[sid]],
                "n": n_out.astype(np.int64),
                "split_idx": i[pos].astype(np.int64),
                "split_t_us": t[pos],
                "sse_total": sse_total,
                "sse_split": sse[pos],
                "gain": sse_total - sse[pos],
            }
        )

    return reduce_by_key(events_ds, key_col, per_partition, num_partitions, "pandas")


def gap_report(
    events_ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    slot_s: int = 60,
    num_partitions: int | None = None,
):
    """Per-key MISSING-bucket diagnostic — the inverse of the rollup
    engine's gap-fill (stages/rollup.py ``_gap_fill``; reference analog:
    the cadence statistics behind light-curve-feature's
    MaximumTimeInterval / median-cadence Nyquist rules,
    freq.rs:28-77): bucket each key's events into ``slot_s``-second
    slots and report, per key, how complete and how gappy the series is.
    Returns (key, n_present, span_slots, n_missing, longest_gap_slots):
    n_present = DISTINCT occupied slots, span_slots = max-min+1,
    n_missing = span - present, longest_gap_slots = max run of empty
    slots between consecutive occupied slots (0 when none).  ALL
    arithmetic is integer (slot = floor(epoch_s/slot_s), the tumbling
    convention) so the SQL twin is bit-exact.  NULL key / ts rows drop
    (``WHERE ... IS NOT NULL`` twin).

    Scale shape: block-local DISTINCT (key, slot) combiner — the
    exchange carries occupied-slot pairs, not events (the
    windowed_count_distinct rule), then ONE pair-keyed exchange and a
    vectorized per-partition segment kernel (re-distinct after the
    exchange — block-local distinct partials can duplicate a pair
    across blocks, the retention_cohorts rule; then sorted diff +
    maximum.reduceat).  No driver collection.
    """
    import pyarrow.compute as pc

    if slot_s <= 0:
        raise ValueError(f"slot_s must be positive, got {slot_s}")

    def pairs(batch: pa.Table) -> pa.Table:
        t = batch.select([key_col, ts_col]).combine_chunks()
        t = t.filter(
            pc.and_(pc.is_valid(t[key_col]), pc.is_valid(t[ts_col]))
        )
        slot = _epoch_seconds(t[ts_col].to_pandas()) // slot_s
        p = pa.table(
            {key_col: t[key_col], "slot": pa.array(slot, type=pa.int64())}
        )
        return p.group_by([key_col, "slot"]).aggregate([])

    def per_partition(t: pa.Table) -> pa.Table:
        t = t.drop_columns(["part"])
        key_type = t.schema.field(key_col).type
        empty = pa.table(
            {
                key_col: pa.array([], type=key_type),
                "n_present": pa.array([], type=pa.int64()),
                "span_slots": pa.array([], type=pa.int64()),
                "n_missing": pa.array([], type=pa.int64()),
                "longest_gap_slots": pa.array([], type=pa.int64()),
            }
        )
        if t.num_rows == 0:
            return empty
        kd = pc.dictionary_encode(t[key_col].combine_chunks())
        codes = kd.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        slot = t["slot"].to_numpy(zero_copy_only=False)
        # re-distinct across blocks: composite sort then unique mask
        order = np.lexsort((slot, codes))
        codes, slot = codes[order], slot[order]
        first = np.r_[True, (codes[1:] != codes[:-1]) | (slot[1:] != slot[:-1])]
        codes, slot = codes[first], slot[first]
        seg = np.r_[True, codes[1:] != codes[:-1]]
        starts = np.flatnonzero(seg)
        ends = np.r_[starts[1:], codes.size]
        n_present = ends - starts
        span = slot[ends - 1] - slot[starts] + 1
        gap = np.diff(slot) - 1  # empty slots between neighbours
        gap[ends[:-1] - 1] = 0  # cross-key boundaries contribute nothing
        # per-segment max of the WITHIN-key gaps (last position of each
        # segment has no following gap -> mask it to 0 via the boundary
        # trick above; single-slot keys reduce over an empty range -> 0)
        gap_full = np.r_[gap, 0]
        longest = np.maximum.reduceat(gap_full, starts)
        longest[n_present == 1] = 0
        return pa.table(
            {
                key_col: kd.dictionary.take(
                    pa.array(codes[starts].astype(np.int32))
                ).cast(key_type),
                "n_present": pa.array(n_present.astype(np.int64)),
                "span_slots": pa.array(span.astype(np.int64)),
                "n_missing": pa.array((span - n_present).astype(np.int64)),
                "longest_gap_slots": pa.array(longest.astype(np.int64)),
            }
        )

    pair_rows = events_ds.map_batches(pairs, batch_format="pyarrow", batch_size=None)
    return reduce_by_key(pair_rows, key_col, per_partition, num_partitions, "pyarrow")
