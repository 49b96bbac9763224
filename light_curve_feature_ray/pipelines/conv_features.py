"""Whole-conversation feature extraction (one row per conv_id).

The distributed analog of the reference's primary API
(``FeatureExtractor::eval`` over one series,
/root/reference/src/extractor.rs:124-143): each conversation's full turn
stream is one light curve; the configured features are evaluated once per
conversation. Uses the engine's standard single hash shuffle + vectorized
multi-segment evaluation.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..features.extractor import FeatureExtractor
from ..features.grouped import GroupedSuite
from ..stages.exchange import part_count, reduce_by_part


def per_conv_features(
    turns_ds,
    features,
    *,
    nan_to_null: bool = True,
    band_col: str | None = None,
    shift_t: bool = False,
):
    """turns_ds: Dataset with (conv_id, turn_idx, text, ts, part) at least.
    Returns a Dataset with one row per conv: conv_id + one column per
    feature output (NaN fills converted to Arrow nulls so SQL oracles
    compare 1:1).

    With ``band_col`` (e.g. "role"), evaluates per (conv, band) sub-stream —
    the multicolor/per-band analog (reference ``PerBandFeature``,
    /root/reference/src/multicolor/per_band_feature.rs:17-26: passband ->
    our role/tool column).

    With ``shift_t``, each group's times are re-expressed relative to the
    group's min(t) before evaluation. Epoch-second t (~1.7e9) has a float64
    ulp of ~2e-7 — the same order as a 6-decimal rounding contract — so
    time-domain features on absolute epochs are numerically ill-conditioned
    against any independent implementation. t - min(t) is an EXACT float64
    subtraction here (Sterbenz: all t within 2x of t_min), so both this
    engine and a SQL oracle computing t - min(t) see bit-identical shifted
    times."""
    extractor = FeatureExtractor.from_config(list(features))
    suite = GroupedSuite(extractor)
    names = extractor.names()

    def eval_partition(batch: pa.Table) -> pa.Table:
        def empty():
            cols = {"conv_id": pa.array([], type=pa.string())}
            if band_col:
                cols[band_col] = pa.array([], type=pa.string())
            for n in names:
                cols[n] = pa.array([], type=pa.float64())
            return pa.table(cols)

        if batch.num_rows == 0:
            return empty()
        conv_dict = batch["conv_id"].combine_chunks().dictionary_encode()
        codes = conv_dict.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        turn = batch["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts_us = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        m = (
            pc.cast(
                pc.fill_null(
                    pc.utf8_length(batch["text"].combine_chunks()), 0
                ),
                pa.float64(),
            ).to_numpy(zero_copy_only=False)
        )
        if band_col:
            band_dict = batch[band_col].combine_chunks().dictionary_encode()
            bands = band_dict.indices.to_numpy(zero_copy_only=False).astype(
                np.int64
            )
            order = np.lexsort((turn, bands, codes))
            codes, bands, ts_us, m = (
                codes[order],
                bands[order],
                ts_us[order],
                m[order],
            )
            change = np.r_[
                True, (codes[1:] != codes[:-1]) | (bands[1:] != bands[:-1])
            ]
        else:
            order = np.lexsort((turn, codes))
            codes, ts_us, m = codes[order], ts_us[order], m[order]
            change = np.r_[True, codes[1:] != codes[:-1]]
        t = ts_us.astype(np.float64) / 1e6
        starts = np.flatnonzero(change).astype(np.int64)
        if shift_t:
            tmin = np.minimum.reduceat(t, starts)
            t = t - np.repeat(tmin, np.diff(np.r_[starts, t.size]))
        feats = suite.eval(t, m, np.ones_like(m), starts)
        cols: dict = {
            "conv_id": pa.DictionaryArray.from_arrays(
                pa.array(codes[starts], type=pa.int32()), conv_dict.dictionary
            ).cast(pa.string())
        }
        if band_col:
            cols[band_col] = pa.DictionaryArray.from_arrays(
                pa.array(bands[starts], type=pa.int32()), band_dict.dictionary
            ).cast(pa.string())
        for n in names:
            arr = pa.array(feats[n], type=pa.float64())
            if nan_to_null:
                arr = pc.if_else(pc.is_nan(arr), pa.scalar(None, pa.float64()), arr)
            cols[n] = arr
        return pa.table(cols)

    return reduce_by_part(turns_ds, eval_partition, part_count(turns_ds), "pyarrow")
