"""Distributed EXACT quantiles over a numeric column — multi-round
bisection ("distributed selection"), never a global sort.

A corpus-wide exact percentile at 100-TB scale cannot afford
``ds.sort()`` (an all-to-all shuffle of every byte) or a driver-side
``to_pandas()``.  This operator instead finds the exact k-th order
statistics with a few *streaming, column-pruned scan passes*:

1. one pass for (min, max, count) partials — one tiny row per block;
2. refinement passes: every needed rank holds a half-open value bracket
   ``[lo, hi)`` plus the exact count of values below ``lo``; each pass
   histograms the column over the union of active brackets (vectorized
   ``np.searchsorted`` against a broadcast flat edge array, one
   ``np.bincount`` per batch) and narrows each rank to one sub-bin —
   brackets shrink ``bins``-fold per pass, so 2-3 passes cover the
   full double range;
3. one final pass collects only the values inside the surviving
   brackets (bounded by ``max_candidates``, loud failure beyond) and
   reads the order statistics off exactly.

Histogram partials are LIST columns reduced tree-style (block-local
``np.bincount``, then a small repartition + vectorized sum), so driver
traffic is O(bins), independent of input size.  Pathological
duplication terminates cleanly: a bracket narrowed to two adjacent
float64s contains exactly one representable value — that IS the order
statistic, no collection needed.

``quantile_cont`` parity: interpolation is DuckDB's
``lo*(1-frac) + hi*frac`` with ``h = q*(n-1)`` (verified bit-exact
against quantile_cont; the naive ``lo + frac*(hi-lo)`` differs by one
ulp on real data).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray

from ..stages.exchange import reduce_by_key


def _minmax_count(ds, col: str):
    """One streaming pass -> (min, max, n_non_null). NaN/null excluded
    (quantile_cont semantics)."""

    def part(b: pd.DataFrame) -> pd.DataFrame:
        v = b[col].to_numpy(dtype=np.float64)
        v = v[~np.isnan(v)]
        if v.size == 0:
            return pd.DataFrame({"lo": [], "hi": [], "n": []})
        return pd.DataFrame({"lo": [v.min()], "hi": [v.max()], "n": [v.size]})

    rows = ds.map_batches(part, batch_format="pandas").take_all()
    if not rows:
        return None, None, 0
    return (
        min(r["lo"] for r in rows),
        max(r["hi"] for r in rows),
        int(sum(r["n"] for r in rows)),
    )


def _hist_pass(ds, col: str, edges: np.ndarray, valid_bin: np.ndarray):
    """One streaming pass -> (counts, min, max) per flat sub-bin.

    ``edges`` is the sorted concatenation of every active bracket's
    sub-bin edges; ``valid_bin`` masks the single gap bin between
    consecutive brackets. Brackets are half-open ``[lo, hi)``: a value
    equal to a duplicated boundary edge lands in the LATER bracket
    (searchsorted side='right'), and an adjacent-bracket gap bin has
    zero width, so it can never receive a value. The per-bin min/max
    let the caller snap each new bracket to the exact data range it
    contains — a pure-duplicate bin (the pathological case for pure
    bisection) then collapses to one float in a single round."""
    nbins = len(edges) - 1
    edges_ref = ray.put((edges, valid_bin))

    def hist(b: pd.DataFrame) -> pd.DataFrame:
        e, valid = ray.get(edges_ref)
        v = b[col].to_numpy(dtype=np.float64)
        v = v[~np.isnan(v)]
        idx = np.searchsorted(e, v, side="right") - 1
        ok = (idx >= 0) & (idx < nbins)
        idx, v = idx[ok], v[ok]
        ok = valid[idx]
        idx, v = idx[ok], v[ok]
        mins = np.full(nbins, np.inf)
        maxs = np.full(nbins, -np.inf)
        np.minimum.at(mins, idx, v)
        np.maximum.at(maxs, idx, v)
        return pd.DataFrame(
            {
                "counts": [np.bincount(idx, minlength=nbins)],
                "mins": [mins],
                "maxs": [maxs],
            }
        )

    def merge(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame({"counts": [], "mins": [], "maxs": []})
        return pd.DataFrame(
            {
                "counts": [np.sum(np.stack(list(b["counts"])), axis=0)],
                "mins": [np.min(np.stack(list(b["mins"])), axis=0)],
                "maxs": [np.max(np.stack(list(b["maxs"])), axis=0)],
            }
        )

    rows = (
        ds.map_batches(hist, batch_format="pandas")
        .repartition(4)
        .map_batches(merge, batch_format="pandas", batch_size=None)
        .take_all()
    )
    return (
        np.sum(np.stack([r["counts"] for r in rows]), axis=0),
        np.min(np.stack([r["mins"] for r in rows]), axis=0),
        np.max(np.stack([r["maxs"] for r in rows]), axis=0),
    )


def exact_order_stats(
    ds,
    col: str,
    ranks,
    *,
    bins: int = 4096,
    max_rounds: int = 8,
    max_candidates: int = 65536,
    minmax_count=None,
):
    """Exact 0-indexed ascending order statistics (NaN/null excluded) of
    ``ds[col]`` as ``({rank: value}, n_non_null)``. Ranks outside
    ``[0, n)`` raise. ``minmax_count`` short-circuits the first pass
    when the caller already holds (min, max, n)."""
    lo, hi, n = minmax_count if minmax_count else _minmax_count(ds, col)
    ranks = sorted({int(r) for r in ranks})
    if n == 0:
        raise ValueError(f"no non-null values in {col!r}")
    if ranks and (ranks[0] < 0 or ranks[-1] >= n):
        raise ValueError(f"ranks {ranks} out of range for n={n}")

    resolved: dict[int, float] = {}
    if lo == hi:
        return {r: lo for r in ranks}, n

    # Disjoint, ascending half-open brackets: (lo, hi, n_below, n_inside,
    # ranks_inside). The top bracket's hi is nudged above max so the
    # maximum itself is inside.
    brackets = [(lo, np.nextafter(hi, np.inf), 0, n, list(ranks))]

    for _ in range(max_rounds):
        brackets = [b for b in brackets if b[4]]
        if not brackets or sum(b[3] for b in brackets) <= max_candidates:
            break

        # flat edge array: each bracket contributes its own sub-edges;
        # the concat boundary between brackets forms one gap bin.
        subs = []
        for blo, bhi, _below, _cnt, _rs in brackets:
            sub = np.unique(np.linspace(blo, bhi, bins + 1))
            subs.append(sub)
        edges = np.concatenate(subs)
        if not (np.diff(edges) >= 0).all():
            raise AssertionError("bracket edges out of order")
        valid_arr = np.zeros(len(edges) - 1, dtype=bool)
        spans, pos = [], 0
        for sub in subs:
            valid_arr[pos : pos + len(sub) - 1] = True
            spans.append((pos, len(sub) - 1))
            pos += len(sub)  # leaves the inter-bracket gap bin False
        counts, bmins, bmaxs = _hist_pass(ds, col, edges, valid_arr)

        new_brackets: list[list] = []
        for (blo, bhi, below, _cnt, rs), (p0, nb), sub in zip(
            brackets, spans, subs
        ):
            if nb == 1:
                # [lo, hi) spans two adjacent floats == the single value lo
                for r in rs:
                    resolved[r] = blo
                continue
            c = counts[p0 : p0 + nb]
            cum = np.concatenate(([0], np.cumsum(c)))
            if int(cum[-1]) + below <= rs[0] or below > rs[-1]:
                raise AssertionError("bracket lost its ranks")
            for r in rs:
                j = int(np.searchsorted(cum, r - below, side="right") - 1)
                j = min(max(j, 0), nb - 1)
                if c[j] == 0:
                    raise AssertionError("rank fell in an empty bin")
                # snap to the bin's exact data range: a pure-duplicate
                # bin resolves immediately, anything else converges at
                # data resolution rather than linspace resolution
                vlo, vhi = float(bmins[p0 + j]), float(bmaxs[p0 + j])
                if vlo == vhi:
                    resolved[r] = vlo
                    continue
                nlo, nhi = vlo, np.nextafter(vhi, np.inf)
                if new_brackets and new_brackets[-1][0] == nlo:
                    new_brackets[-1][4].append(r)
                else:
                    new_brackets.append(
                        [nlo, nhi, below + int(cum[j]), int(c[j]), [r]]
                    )
        brackets = [tuple(b) for b in new_brackets]

    pending = [b for b in brackets if b[4]]
    if pending:
        total = sum(b[3] for b in pending)
        if total > max_candidates:
            raise ValueError(
                f"quantile refinement left {total} candidates > "
                f"max_candidates={max_candidates}; raise bins or max_rounds"
            )
        lo_a = np.array([b[0] for b in pending])
        hi_a = np.array([b[1] for b in pending])
        iv_ref = ray.put((lo_a, hi_a))

        def collect(b: pd.DataFrame) -> pd.DataFrame:
            blo, bhi = ray.get(iv_ref)
            v = b[col].to_numpy(dtype=np.float64)
            v = v[~np.isnan(v)]
            keep = ((v[:, None] >= blo) & (v[:, None] < bhi)).any(axis=1)
            return pd.DataFrame({"v": v[keep]})

        chunks = [
            b["v"].to_numpy()
            for b in ds.map_batches(collect, batch_format="pandas").iter_batches(
                batch_format="pandas", batch_size=65536
            )
        ]
        vals = np.sort(np.concatenate(chunks or [np.array([])]))
        for blo, _bhi, below, _cnt, rs in pending:
            base = int(np.searchsorted(vals, blo, side="left"))
            for r in rs:
                resolved[r] = float(vals[base + (r - below)])
    return resolved, n


def quantile_cont(ds, col: str, qs, **kw) -> pd.DataFrame:
    """Exact continuous quantiles (DuckDB ``quantile_cont`` / numpy
    'linear' semantics) of ``ds[col]`` for each q in ``qs``, as a
    (q, value) DataFrame. Bit-parity interpolation:
    ``lo*(1-frac) + hi*frac`` with ``h = q*(n-1)``."""
    qs = [float(q) for q in qs]
    if any(q < 0.0 or q > 1.0 for q in qs):
        raise ValueError("quantiles must be in [0, 1]")
    mmc = _minmax_count(ds, col)
    n = mmc[2]
    if n == 0:
        raise ValueError(f"no non-null values in {col!r}")
    ranks, pos = set(), []
    for q in qs:
        h = q * (n - 1)
        k = int(np.floor(h))
        frac = h - k
        k2 = k if frac == 0.0 else k + 1
        ranks.update((k, k2))
        pos.append((k, k2, frac))
    stats, _ = exact_order_stats(ds, col, ranks, minmax_count=mmc, **kw)
    return pd.DataFrame(
        {
            "q": qs,
            "value": [
                stats[k] * (1.0 - frac) + stats[k2] * frac
                for (k, k2, frac) in pos
            ],
        }
    )


def approx_quantile_hist(
    ds,
    col: str,
    qs,
    *,
    bins: int = 2048,
    with_error: bool = False,
) -> pd.DataFrame:
    """ONE-histogram-pass approximate quantiles — the streaming sketch
    sibling of :func:`quantile_cont` (exact needs ~4 passes; this needs a
    (min, max, n) pass plus a single fixed-grid bincount pass, and the
    partials are plain mergeable count vectors — associative across
    blocks, nodes, and retries).

    Estimate: with ``h = q*(n-1)`` (quantile_cont rank semantics), find
    the equi-width bucket containing rank ``h`` and interpolate the rank
    uniformly inside it: ``lo + j*w + ((h - cum_below)/c_j)*w``.  The
    result is deterministic — a pure function of (min, max, n, counts) —
    so a SQL twin reproduces it bit-for-bit from the same arithmetic
    (bucket = floor((v-lo)/w) clamped, identical double ops).  The true
    rank of the returned value is within the bucket, i.e. rank error
    < ``c_j`` <= n/bins for uniform-ish data; ``with_error=True`` appends
    that per-q bound as ``rank_err_bound``.
    """
    qs = [float(q) for q in qs]
    if any(q < 0.0 or q > 1.0 for q in qs):
        raise ValueError("quantiles must be in [0, 1]")
    lo, hi, n = _minmax_count(ds, col)
    if n == 0:
        raise ValueError(f"no non-null values in {col!r}")
    if lo == hi:
        out = pd.DataFrame({"q": qs, "value": [lo] * len(qs)})
        if with_error:
            out["rank_err_bound"] = 0
        return out
    w = (hi - lo) / bins

    def part(b: pd.DataFrame) -> pd.DataFrame:
        v = b[col].to_numpy(dtype=np.float64)
        v = v[~np.isnan(v)]
        j = np.clip(
            np.floor((v - lo) / w).astype(np.int64), 0, bins - 1
        )
        return pd.DataFrame({"counts": [np.bincount(j, minlength=bins)]})

    def merge(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame({"counts": []})
        return pd.DataFrame(
            {"counts": [np.sum(np.stack(list(b["counts"])), axis=0)]}
        )

    rows = (
        ds.map_batches(part, batch_format="pandas")
        .repartition(4)
        .map_batches(merge, batch_format="pandas", batch_size=None)
        .take_all()
    )
    counts = np.sum(np.stack([r["counts"] for r in rows]), axis=0)
    cum = np.concatenate(([0], np.cumsum(counts)))
    vals, errs = [], []
    for q in qs:
        h = q * (n - 1)
        j = int(np.searchsorted(cum, h, side="right") - 1)
        j = min(j, bins - 1)
        c = int(counts[j])
        vals.append(lo + j * w + ((h - cum[j]) / c) * w)
        errs.append(c)
    out = pd.DataFrame({"q": qs, "value": vals})
    if with_error:
        out["rank_err_bound"] = errs
    return out


def approx_quantile_hist_sql(
    table: str, col: str, qs, *, bins: int = 2048, where: str = "TRUE"
) -> str:
    """DuckDB twin of :func:`approx_quantile_hist` — the identical
    arithmetic (same double ops, same clamps) so the sketch is
    oracle-checkable despite being approximate."""
    q_rows = ", ".join(f"({float(q)!r})" for q in qs)
    return f"""
WITH v AS (
    SELECT {col} AS x FROM {table}
    WHERE {col} IS NOT NULL AND NOT isnan({col}) AND ({where})
),
mm AS (SELECT min(x) AS lo, max(x) AS hi, count(*) AS n FROM v),
p AS (SELECT lo, hi, n, (hi - lo) / {bins} AS w FROM mm),
b AS (
    SELECT least(greatest(CAST(floor((x - lo) / w) AS BIGINT), 0),
                 {bins} - 1) AS j
    FROM v, p
),
c AS (SELECT j, count(*) AS c FROM b GROUP BY j),
cc AS (
    SELECT j, c,
           COALESCE(SUM(c) OVER (ORDER BY j
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS cum
    FROM c
)
SELECT q, round(lo + j * w + ((q * (n - 1) - cum) / c) * w, 6) AS value
FROM cc, p, (VALUES {q_rows}) qs(q)
WHERE cum <= q * (n - 1) AND q * (n - 1) < cum + c
"""


def _grouped_order_stats(ds, group_col, col, qs, num_partitions, select):
    """Shared scaffolding of the exact per-group order statistics
    (:func:`grouped_quantile_cont` / :func:`grouped_quantile_disc`): the
    ONE keyed exchange on the group key (``reduce_by_key``), then per
    part the null-key drop and the lexsort + segment-bounds kernel.
    ``select(v, starts, counts, q)`` returns the per-group value at
    quantile q over the NaN-filtered sorted segments. Both variants share
    the null-key / NaN handling here — change once, both follow."""
    qs = np.array([float(q) for q in qs])
    if ((qs < 0) | (qs > 1)).any():
        raise ValueError("quantiles must be in [0, 1]")

    def per_part(part: pd.DataFrame) -> pd.DataFrame:
        # NULL-key rows are DROPPED (mirror: WHERE key IS NOT NULL in SQL
        # twins) — a None key would crash the lexsort
        part = part[part[group_col].notna()]
        g = part[group_col].to_numpy()
        v = part[col].to_numpy(dtype=np.float64)
        ok = ~np.isnan(v)
        g, v = g[ok], v[ok]
        if g.size == 0:
            return pd.DataFrame({group_col: [], "q": [], "value": []})
        order = np.lexsort((v, g))
        g, v = g[order], v[order]
        new = np.r_[True, g[1:] != g[:-1]]
        starts = np.flatnonzero(new)
        counts = np.diff(np.r_[starts, g.size])
        ngroups = starts.size
        out_g, out_q, out_v = [], [], []
        for q in qs:
            out_g.append(g[starts])
            out_q.append(np.full(ngroups, q))
            out_v.append(select(v, starts, counts, q))
        return pd.DataFrame(
            {
                group_col: np.concatenate(out_g),
                "q": np.concatenate(out_q),
                "value": np.concatenate(out_v),
            }
        )

    return reduce_by_key(ds, group_col, per_part, num_partitions, "pandas")


def grouped_quantile_cont(
    ds,
    group_col: str,
    col: str,
    qs,
    num_partitions: int | None = None,
):
    """Exact per-group continuous quantiles: ONE hash shuffle on the
    group key, then a fully vectorized per-partition kernel (one lexsort
    over (group, value), segment offsets, gather) — no per-group Python,
    no global sort. Same bit-parity interpolation as
    :func:`quantile_cont`.

    Partitioning assumption (documented per the custom-operator
    contract): one group's rows fit in one partition's task memory —
    the same key-locality assumption the rollup makes. NaN values are
    excluded per group; groups with only NaN are dropped."""

    def select(v, starts, counts, q):
        h = q * (counts - 1.0)
        k = np.floor(h).astype(np.int64)
        frac = h - k
        k2 = np.where(frac == 0.0, k, k + 1)
        lo = v[starts + k]
        hi = v[starts + np.minimum(k2, counts - 1)]
        return lo * (1.0 - frac) + hi * frac

    return _grouped_order_stats(ds, group_col, col, qs, num_partitions, select)


def histogram(ds, value_col: str, *, bins: int = 64, lo=None, hi=None):
    """Fixed-bin histogram of a numeric column: bin = clamp(floor((x -
    lo) / w), 0, bins-1) with w = (hi - lo)/bins — identical double
    arithmetic to the SQL twin, so bin assignment matches exactly.
    ``lo``/``hi`` default to the global min/max (two tiny aggregates).
    NaN/null values are excluded; empty bins are omitted (GROUP BY
    semantics). Returns a Dataset of (bin, n).

    Scale shape: block-local bincount partials (one row per occupied bin
    per block through the shuffle), ``groupby(bin).sum`` reduce.
    """
    import pyarrow as pa

    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if lo is None or hi is None:
        from ray.data.aggregate import Max, Min

        # ONE pre-pass for both extremes (not two ds.min/ds.max scans)
        stats = ds.aggregate(Min(value_col), Max(value_col))
        if lo is None:
            lo = stats[f"min({value_col})"]
        if hi is None:
            hi = stats[f"max({value_col})"]
        if lo is None or hi is None:
            raise ValueError(
                f"histogram: column {value_col!r} is empty or all-null"
            )
    lo, hi = float(lo), float(hi)
    w = (hi - lo) / bins

    def partial(batch: pa.Table) -> pa.Table:
        v = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]
        if v.size == 0 :
            return pa.table(
                {
                    "bin": pa.array(np.empty(0, dtype=np.int64)),
                    "n": pa.array(np.empty(0, dtype=np.int64)),
                }
            )
        if w > 0:
            b = np.clip(np.floor((v - lo) / w), 0, bins - 1).astype(np.int64)
        else:  # degenerate range: everything in bin 0
            b = np.zeros(v.size, dtype=np.int64)
        cnt = np.bincount(b, minlength=0)
        occ = np.flatnonzero(cnt)
        return pa.table(
            {
                "bin": pa.array(occ.astype(np.int64)),
                "n": pa.array(cnt[occ].astype(np.int64)),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby("bin")
        .sum("n")
    )
    return agg.map_batches(
        lambda t: pa.table({"bin": t["bin"], "n": t["sum(n)"]}),
        batch_format="pyarrow",
        batch_size=None,
    )


def winsorize(ds, col: str, *, p_lo: float = 0.01, p_hi: float = 0.99, **kw):
    """Winsorize (percentile-clip) a numeric column: append ``{col}_w``
    with values clamped into the exact [quantile(p_lo), quantile(p_hi)]
    range — the standard robust-normalization step before feature
    scaling. The clip bounds come from :func:`quantile_cont` (exact,
    bit-parity with DuckDB ``quantile_cont``), so the clamp —
    ``min(max(x, lo), hi)`` in identical double arithmetic — matches the
    SQL twin's ``least(greatest(x, lo), hi)`` bit-for-bit.

    Null/NaN values pass through unclamped (NaN would compare as GREATEST
    in SQL but propagates in numpy — the twin mirrors the passthrough
    with an ``isnan`` CASE guard). ``ds`` is consumed twice (the bounded
    quantile passes + the clip map): pass a source-backed Dataset or
    materialize first."""
    if not 0.0 <= p_lo <= p_hi <= 1.0:
        raise ValueError(f"need 0 <= p_lo <= p_hi <= 1, got {p_lo}, {p_hi}")
    import pyarrow as pa

    qdf = quantile_cont(ds, col, [p_lo, p_hi], **kw)
    lo, hi = float(qdf["value"].iloc[0]), float(qdf["value"].iloc[1])

    def clip(batch: pa.Table) -> pa.Table:
        v = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
        # NaN propagates through both minimum and maximum (passthrough)
        return batch.append_column(
            f"{col}_w", pa.array(np.minimum(np.maximum(v, lo), hi))
        )

    return ds.map_batches(clip, batch_format="pyarrow", batch_size=None)


def grouped_mad(
    ds,
    group_col: str,
    col: str,
    num_partitions: int | None = None,
):
    """Per-group median and MAD (median absolute deviation) in ONE hash
    shuffle: the :func:`grouped_quantile_cont` kernel extended to a
    second order-statistics round over ``|x - median(group)|`` inside
    the same per-partition task (the group is already co-located and
    sorted — the deviation pass is one more lexsort + gather, no extra
    exchange). Interpolation is the same ``lo*(1-frac) + hi*frac`` form,
    so both outputs are bit-parity with DuckDB ``quantile_cont(..., 0.5)``
    (and ``mad`` with the nested median-of-deviations SQL).

    Null keys and null/NaN values are dropped (grouped-op contract;
    mirrored by the twin's IS NOT NULL / NOT isnan filters). Returns a
    Dataset of (group, med, mad)."""
    import pandas as pd

    def _seg_median(v: np.ndarray, starts: np.ndarray, counts: np.ndarray):
        """Vectorized per-segment median of a segment-sorted value array
        (quantile_cont q=0.5 interpolation)."""
        h = 0.5 * (counts - 1.0)
        k = np.floor(h).astype(np.int64)
        frac = h - k
        k2 = np.where(frac == 0.0, k, k + 1)
        lo = v[starts + k]
        hi = v[starts + np.minimum(k2, counts - 1)]
        return lo * (1.0 - frac) + hi * frac

    def per_part(part: pd.DataFrame) -> pd.DataFrame:
        part = part[part[group_col].notna()]
        g = part[group_col].to_numpy()
        v = part[col].to_numpy(dtype=np.float64)
        ok = ~np.isnan(v)
        g, v = g[ok], v[ok]
        if g.size == 0:
            return pd.DataFrame({group_col: [], "med": [], "mad": []})
        order = np.lexsort((v, g))
        g, v = g[order], v[order]
        new = np.r_[True, g[1:] != g[:-1]]
        starts = np.flatnonzero(new)
        counts = np.diff(np.r_[starts, g.size])
        med = _seg_median(v, starts, counts)
        seg_id = np.cumsum(new) - 1
        dev = np.abs(v - med[seg_id])
        # second order-statistics round over the deviations, same segments
        order2 = np.lexsort((dev, seg_id))
        mad = _seg_median(dev[order2], starts, counts)
        return pd.DataFrame({group_col: g[starts], "med": med, "mad": mad})

    return reduce_by_key(ds, group_col, per_part, num_partitions, "pandas")


def mad_outliers(
    ds,
    group_col: str,
    col: str,
    *,
    thresh: float = 3.0,
    max_groups: int = 8_000_000,
    num_partitions: int | None = None,
):
    """Robust per-group outlier flags: ``is_outlier = |x - med| >
    thresh * mad`` with med/MAD from :func:`grouped_mad`. The per-group
    stats table (one row per group, loudly bounded by ``max_groups``) is
    collected once and broadcast via ``ray.put`` — the flag pass is a
    shuffle-free vectorized map, the 100-TB shape for scoring a huge
    stream against a boundable per-key model. The comparison uses the
    exact same doubles as the SQL twin (bit-parity med/MAD, one multiply,
    one abs), so flags match exactly. Rows with null keys or null/NaN
    values are dropped on both sides.

    ``ds`` is consumed twice (stats shuffle + flag map): pass a
    source-backed Dataset or materialize first."""
    import pyarrow as pa

    import ray

    stats = grouped_mad(ds, group_col, col, num_partitions=num_partitions)
    sdf = stats.to_pandas()
    if len(sdf) > max_groups:
        raise ValueError(
            f"mad_outliers: {len(sdf)} groups exceeds max_groups="
            f"{max_groups}; raise the bound or pre-aggregate"
        )
    lut_ref = ray.put(
        {
            "keys": sdf[group_col].to_numpy(),
            "med": sdf["med"].to_numpy(),
            "mad": sdf["mad"].to_numpy(),
        }
    )

    def flag(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        lut = ray.get(lut_ref)
        keys, med, mad = lut["keys"], lut["med"], lut["mad"]
        order = np.argsort(keys, kind="mergesort")
        g = batch[group_col].to_numpy(zero_copy_only=False)
        v = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
        gv = pa.chunked_array([batch[group_col]]).combine_chunks()
        ok = ~np.isnan(v)
        if gv.null_count:
            ok &= np.asarray(pc.is_valid(gv))
        batch = batch.filter(pa.array(ok))
        g, v = g[ok], v[ok]
        pos = order[np.searchsorted(keys[order], g)]
        dev = np.abs(v - med[pos])
        return batch.append_column(
            "dev", pa.array(dev)
        ).append_column("is_outlier", pa.array(dev > thresh * mad[pos]))

    return ds.map_batches(flag, batch_format="pyarrow", batch_size=None)


def ks_drift(
    ds,
    *,
    key_col: str = "event_type",
    value_col: str = "value",
    id_col: str = "event_id",
    seed: int = 0,
    num_partitions: int | None = None,
):
    """Exact two-sample Kolmogorov-Smirnov drift statistic per key — the
    distribution-shift detector for split/shard validation: rows are
    split into samples A/B by Lehmer-hash parity of ``id_col`` (the same
    SQL-reproducible hash family ``hash_sample`` pins), and per key
    D = max over pooled distinct values v of |F_A(v) - F_B(v)| with
    F(v) = count(x <= v)/n.  Returns (key, n_a, n_b, ks_d); keys where
    either sample is empty are dropped (mirror with HAVING).

    Semantics pinned for the SQL twin: rows with NULL key, NULL id or
    NULL/NaN value drop entirely; -0.0 normalizes to 0.0 before
    grouping (SQL comparison semantics); the ECDF difference is
    ``ca/na - cb/nb`` evaluated per distinct value in IEEE doubles on
    both sides, and D is an exact max over those.

    Scale shape: ONE hash shuffle on the key, then a fully vectorized
    per-partition kernel (one lexsort over (key, value), segment cumsums,
    one ``maximum.reduceat``) — no per-key Python, no global sort.
    Partitioning assumption (custom-operator contract, same as
    ``grouped_quantile_cont``): one key's rows fit in one partition's
    task memory — KS is an exact whole-distribution statistic, so this
    is inherent; use the binned histogram operators for approximate
    drift over unbounded keys.
    """
    from .sampling import lehmer_hash

    def per_part(part: pd.DataFrame) -> pd.DataFrame:
        part = part.dropna(subset=[key_col, id_col])
        g = part[key_col].to_numpy()
        v = part[value_col].to_numpy(dtype=np.float64)
        ia = lehmer_hash(part[id_col].to_numpy(np.int64), seed) % 2 == 0
        ok = ~np.isnan(v)
        g, v, ia = g[ok], v[ok], ia[ok]
        empty = pd.DataFrame(
            {
                key_col: pd.Series([], dtype=part[key_col].dtype),
                "n_a": pd.Series([], dtype=np.int64),
                "n_b": pd.Series([], dtype=np.int64),
                "ks_d": pd.Series([], dtype=np.float64),
            }
        )
        if g.size == 0:
            return empty
        v[v == 0.0] = 0.0  # -0.0 -> 0.0 (SQL comparison semantics)
        order = np.lexsort((v, g))
        g, v, ia = g[order], v[order], ia[order]
        seg_new = np.r_[True, g[1:] != g[:-1]]
        starts = np.flatnonzero(seg_new)
        seg_id = np.cumsum(seg_new) - 1
        ca = np.cumsum(ia).astype(np.int64)
        cb = np.cumsum(~ia).astype(np.int64)
        off_a = np.r_[np.int64(0), ca[starts[1:] - 1]]
        off_b = np.r_[np.int64(0), cb[starts[1:] - 1]]
        ca_in = ca - off_a[seg_id]
        cb_in = cb - off_b[seg_id]
        ends = np.r_[starts[1:], g.size] - 1
        na = ca_in[ends]
        nb = cb_in[ends]
        # evaluation points: the LAST row of each (key, value) tie run —
        # the ECDF is only defined at completed distinct values
        cand = np.r_[(g[1:] != g[:-1]) | (v[1:] != v[:-1]), True]
        with np.errstate(invalid="ignore", divide="ignore"):
            diff = np.abs(
                ca_in / na[seg_id].astype(np.float64)
                - cb_in / nb[seg_id].astype(np.float64)
            )
        diff = np.where(cand, diff, -np.inf)
        d = np.maximum.reduceat(diff, starts)
        keep = (na > 0) & (nb > 0)
        if not keep.any():
            return empty
        return pd.DataFrame(
            {
                key_col: g[starts][keep],
                "n_a": na[keep],
                "n_b": nb[keep],
                "ks_d": d[keep],
            }
        )

    rows = ds.select_columns([key_col, value_col, id_col])
    return reduce_by_key(rows, key_col, per_part, num_partitions, "pandas")


def grouped_histogram(
    ds,
    key_col: str,
    value_col: str,
    *,
    bins: int = 32,
    lo=None,
    hi=None,
):
    """Per-key fixed-bin histogram with SHARED global edges (the faceted
    histogram: one [lo, hi] range across all keys so per-key
    distributions are directly comparable): bin = clamp(floor((x - lo) /
    w), 0, bins-1) with w = (hi - lo)/bins — the identical double
    arithmetic as :func:`histogram`, so bin assignment matches the SQL
    twin exactly.  ``lo``/``hi`` default to the global min/max over ALL
    non-null values (key-null rows included, mirroring the twin's
    unfiltered bounds subquery).  NULL keys and NaN/null values drop;
    empty cells are omitted (GROUP BY semantics).  Returns (key, bin, n).

    Scale shape: block-local (key, bin) count partials (Arrow hash
    group_by — one partial row per occupied cell per block), then ONE
    cell-cardinality groupby-sum; no row co-location ever."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if lo is None or hi is None:
        from ray.data.aggregate import Max, Min

        stats = ds.aggregate(Min(value_col), Max(value_col))
        if lo is None:
            lo = stats[f"min({value_col})"]
        if hi is None:
            hi = stats[f"max({value_col})"]
        if lo is None or hi is None:
            raise ValueError(
                f"grouped_histogram: column {value_col!r} is empty/all-null"
            )
    lo, hi = float(lo), float(hi)
    w = (hi - lo) / bins

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.select([key_col, value_col])
        t = t.filter(pc.is_valid(t[key_col]))
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        ok = ~np.isnan(v)
        t, v = t.filter(pa.array(ok)), v[ok]
        if w > 0:
            b = np.clip(np.floor((v - lo) / w), 0, bins - 1).astype(np.int64)
        else:  # degenerate range: everything in bin 0
            b = np.zeros(v.size, dtype=np.int64)
        pt = pa.table(
            {key_col: t[key_col], "bin": pa.array(b)}
        ).combine_chunks()
        return (
            pt.group_by([key_col, "bin"])
            .aggregate([("bin", "count")])
            .rename_columns([key_col, "bin", "n"])
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby([key_col, "bin"])
        .sum("n")
    )
    return agg.map_batches(
        lambda t: pa.table(
            {key_col: t[key_col], "bin": t["bin"], "n": t["sum(n)"]}
        ),
        batch_format="pyarrow",
        batch_size=None,
    )


def grouped_trimmed_mean(
    ds,
    group_col: str,
    col: str,
    *,
    p_lo: float = 0.05,
    p_hi: float = 0.95,
    num_partitions: int | None = None,
    max_groups: int = 1_000_000,
):
    """Per-group trimmed mean — the robust average after clipping to the
    group's own [p_lo, p_hi] quantile band (values INSIDE the closed
    band are kept; the quantiles themselves come from the bit-parity
    :func:`grouped_quantile_cont` kernel, so the band edges equal
    DuckDB ``quantile_cont`` exactly and the membership test
    ``qlo <= v <= qhi`` agrees bit-for-bit).  Returns (group, n,
    trimmed_mean) with n = kept rows; groups whose band is undefined
    (all-NaN) are absent.  NULL keys drop (grouped_quantile_cont
    contract).

    Scale shape: one grouped-quantile pass (a key exchange), the per-
    group band — O(groups), loudly bounded by ``max_groups`` — broadcast
    once via ``ray.put``, then a pure combiner pass (per-key filtered
    sum/count partials, one groupby-sum).  The corpus never co-locates
    for the mean."""
    import pyarrow as pa

    qdf = grouped_quantile_cont(
        ds, group_col, col, [p_lo, p_hi], num_partitions=num_partitions
    ).to_pandas()
    if len(qdf) > 2 * max_groups:
        raise ValueError(
            f"grouped_trimmed_mean: {len(qdf) // 2} groups exceed "
            f"max_groups={max_groups}; raise the bound explicitly if the "
            "driver can hold the band table"
        )
    piv = qdf.pivot_table(
        index=group_col, columns="q", values="value", aggfunc="first"
    )
    groups = piv.index.to_numpy()
    order = np.argsort(groups.astype(str) if groups.dtype == object else groups,
                       kind="stable")
    groups = groups[order]
    qlo = piv[p_lo].to_numpy()[order]
    qhi = piv[p_hi].to_numpy()[order]
    band_ref = ray.put((groups, qlo, qhi))

    from .aggregates import _grouped_sums

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        g_all, lo_all, hi_all = ray.get(band_ref)
        t = batch.select([group_col, col])
        t = t.filter(pc.is_valid(t[group_col]))
        k = t[group_col].to_numpy(zero_copy_only=False)
        v = t[col].to_numpy(zero_copy_only=False).astype(np.float64)
        if k.size == 0:
            return _grouped_sums(
                k, batch.schema.field(group_col), {"s": v}
            )
        key_sort = g_all.astype(str) if g_all.dtype == object else g_all
        kk = k.astype(str) if g_all.dtype == object else k
        pos = np.searchsorted(key_sort, kk)
        pos_c = np.minimum(pos, max(g_all.size - 1, 0))
        known = (pos < g_all.size) & (key_sort[pos_c] == kk)
        lo = np.where(known, lo_all[pos_c], np.nan)
        hi = np.where(known, hi_all[pos_c], np.nan)
        keep = known & ~np.isnan(v) & (v >= lo) & (v <= hi)
        return _grouped_sums(
            k[keep], batch.schema.field(group_col), {"s": v[keep]}
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby(group_col)
        .sum(["n", "s"])
    )

    def finish(t: pa.Table) -> pa.Table:
        n = t["sum(n)"].to_numpy(zero_copy_only=False).astype(np.int64)
        s = t["sum(s)"].to_numpy(zero_copy_only=False)
        with np.errstate(invalid="ignore", divide="ignore"):
            m = s / n
        return pa.table(
            {
                group_col: t[group_col],
                "n": pa.array(n),
                "trimmed_mean": pa.array(m),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", batch_size=None)


def grouped_quantile_disc(
    ds,
    group_col: str,
    col: str,
    qs,
    num_partitions: int | None = None,
):
    """Exact per-group DISCONTINUOUS quantiles (SQL PERCENTILE_DISC /
    DuckDB ``quantile_disc``): the selected value is an ACTUAL group
    member — the element at 1-based rank ``max(ceil(q * n), 1)`` of the
    group's sorted values (the smallest value whose cumulative share
    reaches q; pinned against DuckDB by fuzz test). Same shuffle shape,
    null-key drop and NaN exclusion as :func:`grouped_quantile_cont`;
    ``ceil(q * n)`` is evaluated in IEEE doubles on both sides.

    Scale shape: ONE hash shuffle on the group key, one lexsort +
    segment gather per partition — no per-group Python (shared
    :func:`_grouped_order_stats` scaffolding)."""

    def select(v, starts, counts, q):
        k = np.maximum(
            np.ceil(q * counts.astype(np.float64)).astype(np.int64), 1
        )
        return v[starts + (k - 1)]

    return _grouped_order_stats(ds, group_col, col, qs, num_partitions, select)


def grouped_approx_quantiles(
    ds,
    group_col: str,
    col: str,
    qs,
    *,
    bins: int = 512,
    max_groups_broadcast: int = 1_000_000,
    num_partitions: int | None = None,
):
    """Per-group histogram-sketch quantiles — the SCALE path for grouped
    order statistics: :func:`grouped_quantile_cont` assumes one group
    fits one partition's memory; this needs only a per-group (min, max,
    n) pass plus per-(group, bin) count partials, all mergeable across
    blocks/nodes/retries, with rank error < n_g/bins per group. The
    estimate replays :func:`approx_quantile_hist` exactly, per group:
    w = (hi-lo)/bins, bucket = clamp(floor((x-lo)/w)), h = q*(n-1),
    value = lo + j*w + ((h - cum)/c)*w — identical double arithmetic to
    the SQL twin. Constant groups (lo == hi, so w == 0) emit ``lo`` for
    every q (the twin's ``WHERE w = 0`` branch); NULL keys and NaN
    values drop on both sides.

    Scale shape: one grouped min/max/count aggregate whose result
    broadcasts ONCE via ``ray.put`` (loud ``max_groups_broadcast``
    bound — group stats are O(groups), not O(rows)); one
    block-bincount pass emitting (group, bin) partials (the shuffle
    carries occupied cells, never rows); a (group, bin) groupby-sum;
    and a group-keyed finish of per-segment cumsums + interpolation.
    Unlike the global sketch, NOTHING is collected on the driver."""
    import ray

    qs = [float(q) for q in qs]
    if any(q < 0.0 or q > 1.0 for q in qs):
        raise ValueError("quantiles must be in [0, 1]")

    def stat_partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna(subset=[group_col])
        v = b[col].to_numpy(dtype=np.float64)
        ok = ~np.isnan(v)
        g = b[group_col].to_numpy()[ok]
        v = v[ok]
        if g.size == 0:
            return pd.DataFrame(
                {group_col: [], "lo": [], "hi": [], "n": []}
            )
        df = pd.DataFrame({group_col: g, "v": v})
        out = df.groupby(group_col, sort=False)["v"].agg(
            lo="min", hi="max", n="count"
        )
        out["n"] = out["n"].astype(np.int64)
        return out.reset_index()

    from ray.data.aggregate import Max, Min, Sum

    stats_ds = (
        ds.map_batches(stat_partial, batch_format="pandas", batch_size=None)
        .groupby(group_col)
        .aggregate(Min("lo"), Max("hi"), Sum("n"))
    )
    stats = stats_ds.to_pandas()
    if len(stats) > max_groups_broadcast:
        raise ValueError(
            f"{len(stats)} groups > max_groups_broadcast="
            f"{max_groups_broadcast}; shuffle rows by group instead"
        )
    stats = stats.rename(
        columns={"min(lo)": "lo", "max(hi)": "hi", "sum(n)": "n"}
    )
    stats["w"] = (stats["hi"].to_numpy() - stats["lo"].to_numpy()) / bins
    # ONE broadcast serves both the bin pass (lo/w) and the finish (+n)
    stats_ref = ray.put(
        {
            "lo": dict(zip(stats[group_col], stats["lo"])),
            "w": dict(zip(stats[group_col], stats["w"])),
            "n": dict(zip(stats[group_col], stats["n"])),
        }
    )

    def bin_partial(b: pd.DataFrame) -> pd.DataFrame:
        st = ray.get(stats_ref)
        b = b.dropna(subset=[group_col])
        v = b[col].to_numpy(dtype=np.float64)
        ok = ~np.isnan(v)
        g = pd.Series(b[group_col].to_numpy()[ok])
        v = v[ok]
        lo = g.map(st["lo"]).to_numpy(dtype=np.float64)
        w = g.map(st["w"]).to_numpy(dtype=np.float64)
        nz = w > 0  # constant groups emit no bin rows (finish handles them)
        if not nz.any():
            return pd.DataFrame({group_col: [], "j": [], "cnt": []})
        j = np.clip(
            np.floor((v[nz] - lo[nz]) / w[nz]).astype(np.int64),
            0,
            bins - 1,
        )
        out = (
            pd.DataFrame({group_col: g.to_numpy()[nz], "j": j})
            .groupby([group_col, "j"], sort=False)
            .size()
            .rename("cnt")
            .reset_index()
        )
        out["cnt"] = out["cnt"].astype(np.int64)
        return out

    cells = (
        ds.map_batches(bin_partial, batch_format="pandas", batch_size=None)
        .groupby([group_col, "j"])
        .sum("cnt")
    )

    qs_arr = np.array(qs)

    def finish(part: pd.DataFrame) -> pd.DataFrame:
        st = ray.get(stats_ref)
        g = part[group_col].to_numpy()
        j = part["j"].to_numpy(dtype=np.int64)
        c = part["sum(cnt)"].to_numpy(dtype=np.int64)
        order = np.lexsort((j, g))
        g, j, c = g[order], j[order], c[order]
        new = np.r_[True, g[1:] != g[:-1]] if g.size else np.empty(0, bool)
        seg = np.cumsum(new) - 1 if g.size else np.empty(0, np.int64)
        cum_all = np.cumsum(c) - c
        base = cum_all[np.flatnonzero(new)][seg] if g.size else cum_all
        cum = cum_all - base
        gs = pd.Series(g)
        lo = gs.map(st["lo"]).to_numpy(dtype=np.float64)
        w = gs.map(st["w"]).to_numpy(dtype=np.float64)
        n = gs.map(st["n"]).to_numpy(dtype=np.float64)
        out_g, out_q, out_v = [], [], []
        for q in qs_arr:
            h = q * (n - 1.0)
            pick = (cum <= h) & (h < cum + c)
            out_g.append(g[pick])
            out_q.append(np.full(int(pick.sum()), q))
            out_v.append(
                lo[pick]
                + j[pick] * w[pick]
                + ((h[pick] - cum[pick]) / c[pick]) * w[pick]
            )
        return pd.DataFrame(
            {
                group_col: np.concatenate(out_g) if out_g else [],
                "q": np.concatenate(out_q) if out_q else [],
                "value": np.concatenate(out_v) if out_v else [],
            }
        )

    binned = reduce_by_key(
        cells,
        group_col,
        lambda p: finish(p.drop(columns=["part"])),
        num_partitions,
        "pandas",
    )

    # constant groups (w == 0): value = lo for every q, emitted once
    const = stats[stats["w"] == 0.0]
    if len(const):
        import ray.data as rd

        rows = pd.DataFrame(
            {
                group_col: np.repeat(const[group_col].to_numpy(), len(qs)),
                "q": np.tile(qs_arr, len(const)),
                "value": np.repeat(
                    const["lo"].to_numpy(dtype=np.float64), len(qs)
                ),
            }
        )
        binned = binned.union(rd.from_pandas(rows))
    return binned

