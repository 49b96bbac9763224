"""Multicolor (cross-band) pipelines over the turns table.

Band = a categorical column of the transcript (role / tool / event type),
the passband analog (/root/reference/src/multicolor/). Two surfaces:

- :func:`conv_color_features` — the four scalar color features
  (color_median/max/min_{a}_{b}, color_spread), computed with ONE hash
  shuffle and a fully vectorized partition-level pivot (no per-conv Python,
  no second exchange);
- :func:`conv_multicolor_features` — the general surface: any configured
  :class:`~light_curve_feature_ray.features.multicolor.MultiColorExtractor`
  (PerBandFeature / MultiColorBins / MultiColorPeriodogram / colors)
  evaluated per conversation inside the partition task. Meta-features like
  the multi-band periodogram are inherently per-series; the scale dimension
  is the partition parallelism (same shape as the rollup worker).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..features.kernel import Series
from ..features.multicolor import (
    GroupedMultiColor,
    MultiColorExtractor,
    _MCSegments,
)
from ..stages.exchange import part_count, reduce_by_part


def _band_aggregates(batch: pa.Table, band_col: str):
    """Per-(conv, band) aggregate arrays from one partition's turns.

    Returns (conv_dict, band_dict, c_seg, b_seg, med, mx, mn, mu) — one
    entry per (conv, band) segment, sorted by (conv code, band code)."""
    conv_dict = batch["conv_id"].combine_chunks().dictionary_encode()
    codes = conv_dict.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    band_dict = batch[band_col].combine_chunks().dictionary_encode()
    bands = band_dict.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    m = pc.cast(
        pc.fill_null(pc.utf8_length(batch["text"].combine_chunks()), 0),
        pa.float64(),
    ).to_numpy(zero_copy_only=False)
    order = np.lexsort((m, bands, codes))
    c, b, mm = codes[order], bands[order], m[order]
    starts = np.flatnonzero(np.r_[True, (c[1:] != c[:-1]) | (b[1:] != b[:-1])])
    ends = np.r_[starts[1:], c.shape[0]]
    n = (ends - starts).astype(np.int64)
    # m sorted within segment (lexsort key): median via mid elements
    lo = starts + (n - 1) // 2
    hi = starts + n // 2
    med = 0.5 * (mm[lo] + mm[hi])
    sums = np.add.reduceat(mm, starts)
    return (
        conv_dict,
        band_dict,
        c[starts],
        b[starts],
        med,
        mm[ends - 1],
        mm[starts],
        sums / n,
    )


def conv_color_features(turns_ds, band_a: str, band_b: str, band_set=None):
    """One row per conv: color_median/max/min_{a}_{b} + color_spread
    (population std of per-band means over ``band_set``; NaN when a
    required band is missing). Vectorized end to end; a conversation's
    pivot is array indexing, not a per-group Python call."""
    band_set = sorted(set(band_set or (band_a, band_b)))
    col_med = f"color_median_{band_a}_{band_b}"
    col_max = f"color_max_{band_a}_{band_b}"
    col_min = f"color_min_{band_a}_{band_b}"

    def eval_partition(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "conv_id": pa.array([], type=pa.string()),
                    col_med: pa.array([], type=pa.float64()),
                    col_max: pa.array([], type=pa.float64()),
                    col_min: pa.array([], type=pa.float64()),
                    "color_spread": pa.array([], type=pa.float64()),
                }
            )
        conv_dict, band_dict, c_seg, b_seg, med, mx, mn, mu = _band_aggregates(
            batch, "role"
        )
        band_names = band_dict.dictionary.to_pylist()
        code_of = {name: i for i, name in enumerate(band_names)}

        conv_starts = np.flatnonzero(np.r_[True, c_seg[1:] != c_seg[:-1]])
        conv_codes = c_seg[conv_starts]
        nconv = conv_codes.shape[0]
        # row index of each segment's conversation in the output
        row_of = np.searchsorted(conv_codes, c_seg)

        def band_cols(stat: np.ndarray, band: str) -> np.ndarray:
            out = np.full(nconv, np.nan)
            code = code_of.get(band)
            if code is not None:
                sel = b_seg == code
                out[row_of[sel]] = stat[sel]
            return out

        med_a, med_b = band_cols(med, band_a), band_cols(med, band_b)
        mx_a, mx_b = band_cols(mx, band_a), band_cols(mx, band_b)
        mn_a, mn_b = band_cols(mn, band_a), band_cols(mn, band_b)

        # color_spread: population std of per-band means over band_set,
        # defined only when every set band is present
        set_codes = np.array(
            [code_of[bb] for bb in band_set if bb in code_of], dtype=np.int64
        )
        in_set = np.isin(b_seg, set_codes)
        mus = np.where(in_set, mu, 0.0)
        cnt = np.add.reduceat(in_set.astype(np.int64), conv_starts)
        s1 = np.add.reduceat(mus, conv_starts)
        s2 = np.add.reduceat(mus * mus, conv_starts)
        with np.errstate(invalid="ignore"):
            var = s2 / cnt - (s1 / cnt) ** 2
        spread = np.where(
            cnt == len(band_set), np.sqrt(np.maximum(var, 0.0)), np.nan
        )

        return pa.table(
            {
                "conv_id": pa.DictionaryArray.from_arrays(
                    pa.array(conv_codes, type=pa.int32()), conv_dict.dictionary
                ).cast(pa.string()),
                col_med: pa.array(med_a - med_b, type=pa.float64()),
                col_max: pa.array(mx_a - mx_b, type=pa.float64()),
                col_min: pa.array(mn_a - mn_b, type=pa.float64()),
                "color_spread": pa.array(spread, type=pa.float64()),
            }
        )

    return reduce_by_part(turns_ds, eval_partition, part_count(turns_ds), "pyarrow")


def conv_multicolor_features(
    turns_ds,
    features,
    *,
    band_col: str = "role",
    nan_to_null: bool = True,
    fill_value: float = np.nan,
):
    """Evaluate a MultiColorExtractor per conversation (one output row per
    conv). ``features`` is an extractor, a list of multicolor features, or
    a JSON-able config list."""
    extractor = (
        features
        if isinstance(features, MultiColorExtractor)
        else MultiColorExtractor(features)
    )
    grouped = GroupedMultiColor(extractor, fill_value)
    names = extractor.names()

    def eval_partition(batch: pa.Table) -> pa.Table:
        def empty():
            cols = {"conv_id": pa.array([], type=pa.string())}
            for n in names:
                cols[n] = pa.array([], type=pa.float64())
            return pa.table(cols)

        if batch.num_rows == 0:
            return empty()
        conv_dict = batch["conv_id"].combine_chunks().dictionary_encode()
        codes = conv_dict.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        band_dict = batch[band_col].combine_chunks().dictionary_encode()
        bands = band_dict.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        band_names = band_dict.dictionary.to_pylist()
        turn = batch["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts_us = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        m = pc.cast(
            pc.fill_null(pc.utf8_length(batch["text"].combine_chunks()), 0),
            pa.float64(),
        ).to_numpy(zero_copy_only=False)
        # sort (conv, band, turn): each (conv, band) run is one time-sorted
        # monochrome series
        order = np.lexsort((turn, bands, codes))
        c, b, tt, mm = codes[order], bands[order], ts_us[order], m[order]
        t = tt.astype(np.float64) / 1e6
        seg = np.flatnonzero(np.r_[True, (c[1:] != c[:-1]) | (b[1:] != b[:-1])])
        c_seg, b_seg = c[seg], b[seg]
        conv_codes = np.unique(c_seg)
        conv_of_seg = np.searchsorted(conv_codes, c_seg)
        ctx = _MCSegments(
            conv_of_seg, b_seg, band_names, t, mm,
            np.ones_like(mm), seg, conv_codes.shape[0],
        )
        # vectorized many-conv evaluation (per-conv Python only for the
        # inherently per-series features, e.g. MultiColorPeriodogram)
        grouped_cols = grouped.eval(ctx)

        cols = {
            "conv_id": pa.DictionaryArray.from_arrays(
                pa.array(conv_codes, type=pa.int32()), conv_dict.dictionary
            ).cast(pa.string())
        }
        for n in names:
            arr = pa.array(grouped_cols[n], type=pa.float64())
            if nan_to_null:
                arr = pc.if_else(
                    pc.is_nan(arr), pa.scalar(None, pa.float64()), arr
                )
            cols[n] = arr
        return pa.table(cols)

    return reduce_by_part(turns_ds, eval_partition, part_count(turns_ds), "pyarrow")
