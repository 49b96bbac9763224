"""The batched periodogram kernel (features/periodogram/batched.py) must
match the per-series Periodogram feature segment by segment: same NaN
fills, values within float roundoff, over every segment shape the rollup
feeds it (1–2-point buckets, short buckets, the 1h tier's gap-filled
60 s grids) and every configuration the fast path accepts."""

import warnings

import numpy as np
import pytest

from light_curve_feature_ray.features import FeatureExtractor
from light_curve_feature_ray.features import grouped
from light_curve_feature_ray.features.grouped import GroupedSuite, SegmentContext
from light_curve_feature_ray.features.periodogram.batched import (
    batched_periodogram_peaks,
)
from light_curve_feature_ray.features.periodogram_feature import Periodogram
from light_curve_feature_ray.sources.synth import synth_transcripts_table

NORMALIZATIONS = ("psd", "standard", "model", "log")
# (resolution, max_freq_factor): the default and four others; at R = 1
# short segments get grids of 2 or 3 frequencies, fewer than 3 peaks
GRIDS = ((10.0, 1.0), (8.0, 1.0), (4.5, 2.0), (25.0, 0.5), (1.0, 1.0))


def whole_bin_pairs(resolution):
    """At a power-of-two resolution both points of a 2-point segment fall
    on whole FFT bins. There the reference's exact-zero branches ("double
    the other component") fire or not by roundoff, so two 2-point segments
    that differ only in scale get spectra a factor 2 apart in some bins,
    and no two implementations agree on their peaks (nor, under the model
    and log normalizations, on whether a second peak exists to give a NaN
    s/n); such rows are left out of the comparison."""
    return np.log2(resolution) % 1.0 == 0.0


def make_segments(rng):
    """Segments of every length class, with the degenerate ones mixed in."""
    segs = []

    def add(t, m):
        segs.append((np.asarray(t, dtype=np.float64), np.asarray(m, dtype=np.float64)))

    epoch = 1.7e9
    sizes = [1] * 5 + [2] * 60 + [3] * 20 + [4] * 20
    sizes += rng.integers(5, 9, size=20).tolist() + rng.integers(9, 40, size=15).tolist()
    for size in sizes:
        t = epoch + np.sort(rng.random(size)) * rng.choice([60.0, 3600.0, 86400.0])
        # every scale and sign; the offset stays within 10 spreads, as a
        # larger one cancels digits in m - mean(m) that no two summation
        # orders agree on to 1e-9
        scale = 10.0 ** rng.uniform(-3.0, 6.0)
        add(t, scale * (rng.normal(0.0, 1.0, size) + rng.uniform(-10.0, 10.0)))
    for size in range(52, 61):  # the 1h tier's gap-filled 60 s grids
        start = epoch + 3600.0 * rng.integers(0, 10_000) + 30.0
        add(start + 60.0 * np.arange(size), rng.normal(100.0, 20.0, size))
        add(start + 60.0 * np.arange(size), np.round(rng.normal(100.0, 20.0, size)))
    for size in (2, 5):  # zero span
        add(np.full(size, epoch + 7.0), rng.normal(size=size))
    for size in (2, 6, 60):  # flat values
        add(epoch + 60.0 * np.arange(size), np.full(size, 2.5))
    add([epoch, epoch + 60.0], [1.0, 1.0 + 1e-9])  # barely not flat
    for scale in (1e-60, 1e60):  # 2-point variances outside the shared band
        add([epoch, epoch + 60.0], [0.0, scale])
    order = rng.permutation(len(segs))
    segs = [segs[i] for i in order]
    t = np.concatenate([s[0] for s in segs])
    m = np.concatenate([s[1] for s in segs])
    starts = np.cumsum([0] + [len(s[0]) for s in segs[:-1]]).astype(np.int64)
    return t, m, np.ones_like(m), starts


def _assert_matches(got, want, label):
    nan_g, nan_w = np.isnan(got), np.isnan(want)
    np.testing.assert_array_equal(nan_g, nan_w, err_msg=f"{label} NaN mask")
    np.testing.assert_allclose(
        got[~nan_g], want[~nan_w], rtol=1e-9, atol=1e-10, err_msg=label
    )


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"R{g[0]:g}-F{g[1]:g}")
@pytest.mark.parametrize("normalization", NORMALIZATIONS)
@pytest.mark.parametrize("peaks", (1, 2, 3))
def test_batched_matches_per_series(peaks, normalization, grid):
    resolution, max_freq_factor = grid
    seed = 1000 * peaks + 10 * NORMALIZATIONS.index(normalization) + GRIDS.index(grid)
    rng = np.random.default_rng(seed)
    t, m, w, starts = make_segments(rng)
    feature = Periodogram(
        peaks=peaks,
        resolution=resolution,
        max_freq_factor=max_freq_factor,
        normalization=normalization,
    )
    fast = GroupedSuite(FeatureExtractor([feature])).eval(t, m, w, starts)
    ctx = SegmentContext(t, m, w, starts)
    loop = grouped._loop_eval(ctx, feature, np.nan)
    rows = ~((ctx.n == 2.0) & whole_bin_pairs(resolution))
    for name, want in zip(feature.names, loop):
        _assert_matches(fast[name][rows], want[rows], name)


def test_rollup_never_falls_back_to_loop(monkeypatch):
    """The default rollup suite evaluates every feature, the periodogram
    included, through its vectorized kernel: the per-series loop is about
    100x slower, so a silent fallback would be a large regression."""
    from light_curve_feature_ray.stages.rollup import (
        DeriveAssign,
        RollupConfig,
        RollupWorker,
    )

    def no_loop(*args, **kwargs):
        raise AssertionError("per-series fallback on the rollup path")

    monkeypatch.setattr(grouped, "_loop_eval", no_loop)
    tbl = synth_transcripts_table(n_convs=20, mean_turns=60, hot_convs=0, seed=3)
    cfg = RollupConfig(num_partitions=1, hot_threshold=None)
    out = RollupWorker(cfg)(DeriveAssign(cfg)(tbl))
    assert out.num_rows > 0
    assert "periodogram_period_0" in out.column_names


@pytest.mark.parametrize("normalization", ("model", "log"))
def test_infinite_power_raises_no_warning(normalization):
    """model/log power is +inf where the standard power reaches 1 (every
    2-point segment, some longer ones); the s/n statistics over such a
    spectrum must not leak numpy RuntimeWarnings."""
    rng = np.random.default_rng(0)
    sizes = [2] * 5 + rng.integers(3, 6, size=60).tolist()
    t = np.concatenate([np.sort(rng.random(n)) * 10.0 for n in sizes])
    m = rng.normal(size=t.shape[0])
    starts = np.cumsum([0] + sizes[:-1]).astype(np.int64)
    ctx = SegmentContext(t, m, np.ones_like(m), starts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = batched_periodogram_peaks(
            t, ctx.centered(), starts, ctx.std2(), normalization=normalization
        )
    feature = Periodogram(normalization=normalization)
    with np.errstate(all="ignore"):
        loop = grouped._loop_eval(ctx, feature, np.nan)
    for j, want in enumerate(loop):
        _assert_matches(out[:, j], want, f"column {j}")


@pytest.mark.parametrize("normalization", ("model", "log"))
def test_per_series_infinite_power_raises_no_warning(normalization):
    """The per-series PeriodogramPeaks over the same inf-holding spectra:
    no numpy RuntimeWarning either, and the same values as the batched
    kernel."""
    rng = np.random.default_rng(1)
    sizes = [2] * 5 + rng.integers(3, 6, size=60).tolist()
    t = np.concatenate([np.sort(rng.random(n)) * 10.0 for n in sizes])
    m = rng.normal(size=t.shape[0])
    starts = np.cumsum([0] + sizes[:-1]).astype(np.int64)
    ctx = SegmentContext(t, m, np.ones_like(m), starts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loop = grouped._loop_eval(ctx, Periodogram(normalization=normalization), np.nan)
    out = batched_periodogram_peaks(
        t, ctx.centered(), starts, ctx.std2(), normalization=normalization
    )
    for j, want in enumerate(loop):
        _assert_matches(out[:, j], want, f"column {j}")
