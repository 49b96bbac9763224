"""Vectorized multi-segment feature evaluation.

The rollup hot path: one partition batch holds many (conv, bucket) segments
laid out contiguously (sorted by segment, time ascending inside each).
Instead of looping Python per bucket, :class:`GroupedSuite` computes each
configured feature for ALL segments at once with numpy segmented kernels
(``np.add.reduceat`` / ``np.maximum.reduceat``, one lexsort for
quantile-based features, centered two-pass moments). Features without a
vectorized kernel (Otsu, biweight, chi2_pvar tail, periodogram, nested
meta-features) fall back to the exact per-series kernel in a loop.

Results match the per-series evaluators (features/basic.py) to float
roundoff; error semantics are replicated as NaN fills: short segments, flat
segments for variability-requiring features, and feature-specific zero
divisions produce ``fill_value`` exactly where ``eval_or_fill`` would.

Mirrors the reference's memoized ``DataSample`` stats
(/root/reference/src/data/data_sample.rs:10-22) — but cached per-batch
across segments rather than per series. Two cache rules keep the hot path
lean:

- the centred square ``d²`` is computed once; ``m2`` sums it, ``skew``
  sums ``d²·d`` and ``kurtosis`` ``d²·d²``. Nothing raises to a power
  above 2: numpy has a fast path for ``x**2`` only, and ``x**3`` on 120 k
  float64 costs ~50× ``x*x*x``;
- when every weight is exactly 1.0 (one ``np.all`` per eval; the rollup's
  series have that at every tier), the weighted entries are the
  unweighted ones, bit for bit: ``sum_w`` is ``n``, ``weighted_mean`` is
  ``mean``, ``chi2`` is ``m2``, and the weighted line fit reuses the
  unweighted one's sums (``x·1.0 = x``, and k ones sum to exactly k).
"""

from __future__ import annotations

import math

import numpy as np

from .base import Feature
from .extractor import FeatureExtractor
from .kernel import Series
from .special import gammainc_q, ln_erfc

_SQRT2 = np.sqrt(2.0)


class SegmentContext:
    """Lazy per-segment statistics over (t, m, w) split at ``starts``."""

    def __init__(self, t, m, w, starts):
        self.t = t
        self.m = m
        self.w = w
        self.starts = starts
        self.npts = t.shape[0]
        self.ends = np.r_[starts[1:], t.shape[0]]
        self.n = (self.ends - self.starts).astype(np.float64)
        self.nseg = starts.shape[0]
        self.seg_id = np.repeat(np.arange(self.nseg), self.ends - self.starts)
        #: every weight exactly 1.0: the weighted stats alias the unweighted
        self.unit_w = bool(np.all(w == 1.0))
        self._cache: dict = {}

    def _get(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    # -- sums / moments ------------------------------------------------------

    def seg_sum(self, x):
        return np.add.reduceat(x, self.starts)

    def mean(self, which="m"):
        x = getattr(self, which)
        return self._get(f"mean_{which}", lambda: self.seg_sum(x) / self.n)

    def centered(self, which="m"):
        x = getattr(self, which)
        return self._get(
            f"centered_{which}", lambda: x - self.mean(which)[self.seg_id]
        )

    def centered_sq(self, which="m"):
        d = self.centered(which)
        return self._get(f"centered_sq_{which}", lambda: d * d)

    def m2(self, which="m"):
        return self._get(f"m2_{which}", lambda: self.seg_sum(self.centered_sq(which)))

    def std2(self, which="m"):
        def f():
            with np.errstate(invalid="ignore", divide="ignore"):
                return self.m2(which) / (self.n - 1.0)

        return self._get(f"std2_{which}", f)

    def std(self, which="m"):
        return self._get(f"std_{which}", lambda: np.sqrt(self.std2(which)))

    def minimum(self, which="m"):
        x = getattr(self, which)
        return self._get(f"min_{which}", lambda: np.minimum.reduceat(x, self.starts))

    def maximum(self, which="m"):
        x = getattr(self, which)
        return self._get(f"max_{which}", lambda: np.maximum.reduceat(x, self.starts))

    def flat(self):
        return self._get("flat", lambda: self.minimum() == self.maximum())

    # -- weighted ------------------------------------------------------------

    def sum_w(self):
        if self.unit_w:
            return self.n
        return self._get("sum_w", lambda: self.seg_sum(self.w))

    def weighted_mean(self):
        if self.unit_w:
            return self.mean()
        return self._get(
            "wmean", lambda: self.seg_sum(self.m * self.w) / self.sum_w()
        )

    def chi2(self):
        if self.unit_w:
            return self.m2()

        def f():
            d = self.m - self.weighted_mean()[self.seg_id]
            return self.seg_sum(self.w * d * d)

        return self._get("chi2", f)

    def sqrt_w(self):
        if self.unit_w:
            return 1.0
        return self._get("sqrt_w", lambda: np.sqrt(self.w))

    # -- sorted-by-value layout ---------------------------------------------

    def sorted_m(self):
        """m sorted ascending inside each segment (same segment layout)."""

        def f():
            order = np.lexsort((self.m, self.seg_id))
            return self.m[order]

        return self._get("sorted_m", f)

    def median(self):
        def f():
            sm = self.sorted_m()
            nint = self.ends - self.starts
            lo = self.starts + (nint - 1) // 2
            hi = self.starts + nint // 2
            return 0.5 * (sm[lo] + sm[hi])

        return self._get("median", f)

    def ppf(self, q: float):
        """R-5 per-segment quantile (matches kernel.Series.ppf)."""

        def f():
            sm = self.sorted_m()
            nint = (self.ends - self.starts).astype(np.float64)
            h = nint * q - 0.5
            h = np.clip(h, 0.0, nint - 1.0)
            lo = np.floor(h)
            frac = h - lo
            ilo = self.starts + lo.astype(np.int64)
            ihi = np.minimum(ilo + 1, self.ends - 1)
            return sm[ilo] + frac * (sm[ihi] - sm[ilo])

        return self._get(f"ppf_{q}", f)

    def abs_dev_median_sorted(self):
        """|m - median| sorted ascending inside each segment."""

        def f():
            d = np.abs(self.m - self.median()[self.seg_id])
            order = np.lexsort((d, self.seg_id))
            return d[order]

        return self._get("abs_dev_sorted", f)

    def mad(self):
        def f():
            sd = self.abs_dev_median_sorted()
            nint = self.ends - self.starts
            lo = self.starts + (nint - 1) // 2
            hi = self.starts + nint // 2
            return 0.5 * (sd[lo] + sd[hi])

        return self._get("mad", f)

    # -- consecutive-pair layout ---------------------------------------------

    def pair_valid(self):
        """True where point i and i+1 are in the same segment (length npts,
        last element False)."""

        def f():
            v = np.zeros(self.npts, dtype=bool)
            if self.npts > 1:
                v[:-1] = self.seg_id[1:] == self.seg_id[:-1]
            return v

        return self._get("pair_valid", f)

    def pair_sum(self, pair_values):
        """Per-segment sum over valid consecutive pairs; pair_values has
        length npts with position i describing pair (i, i+1)."""
        x = np.where(self.pair_valid(), pair_values, 0.0)
        return np.add.reduceat(x, self.starts)

    def dm_pairs(self):
        def f():
            d = np.zeros(self.npts)
            if self.npts > 1:
                d[:-1] = self.m[1:] - self.m[:-1]
            return d

        return self._get("dm_pairs", f)

    def dt_pairs(self):
        def f():
            d = np.zeros(self.npts)
            if self.npts > 1:
                d[:-1] = self.t[1:] - self.t[:-1]
            return d

        return self._get("dt_pairs", f)

    # -- straight line fits --------------------------------------------------

    def line_fit(self, weighted: bool):
        """(slope, slope_sigma2, reduced_chi2) per segment; same math as
        kernel.fit_straight_line, segmented and t-centered. With unit
        weights the weighted fit shares the unweighted one's sums."""

        def f():
            slope, stt, rchi2 = self._line_sums(weighted and not self.unit_w)
            with np.errstate(invalid="ignore", divide="ignore"):
                sigma2 = 1.0 / stt
                if not weighted:
                    sigma2 = sigma2 * rchi2
            return slope, sigma2, rchi2

        return self._get(f"line_fit_{weighted}", f)

    def _line_sums(self, weighted: bool):
        """(slope, stt, reduced chi2) of the least-squares line per
        segment, with weights ``w`` or all ones."""

        def f():
            # center t per segment for numerical stability (slope invariant)
            t0 = self.t[self.starts]
            tc = self.t - t0[self.seg_id]
            if weighted:
                w = self.w
                ti = tc - (self.seg_sum(w * tc) / self.sum_w())[self.seg_id]
                stt = self.seg_sum(w * ti * ti)
                sty = self.seg_sum(w * ti * self.m)
                dm = self.m - self.weighted_mean()[self.seg_id]
                smm = self.seg_sum(w * dm**2)
            else:
                ti = tc - (self.seg_sum(tc) / self.n)[self.seg_id]
                stt = self.seg_sum(ti * ti)
                sty = self.seg_sum(ti * self.m)
                smm = self.m2()
            with np.errstate(invalid="ignore", divide="ignore"):
                slope = sty / stt
                chi2 = np.maximum(smm - slope * slope * stt, 0.0)
                rchi2 = chi2 / (self.n - 2.0)
            return slope, stt, rchi2

        return self._get(f"line_sums_{weighted}", f)


def _fill(values, ok, fill_value):
    return np.where(ok, values, fill_value)


class GroupedSuite:
    """Evaluate a FeatureExtractor over many segments at once."""

    def __init__(self, extractor: FeatureExtractor, fill_value: float = np.nan):
        self.extractor = extractor
        self.fill_value = fill_value
        self.names = extractor.names()

    def eval(self, t, m, w, starts) -> dict[str, np.ndarray]:
        """t/m/w: contiguous float64 arrays segment-major (time ascending in
        each segment); starts: int64 segment start offsets (sorted, unique,
        first == 0). Returns {feature_name: per-segment float64 array}."""
        ctx = SegmentContext(
            np.ascontiguousarray(t, dtype=np.float64),
            np.ascontiguousarray(m, dtype=np.float64),
            np.ascontiguousarray(w, dtype=np.float64),
            np.ascontiguousarray(starts, dtype=np.int64),
        )
        out: dict[str, np.ndarray] = {}
        for feature in self.extractor.features:
            impl = _FAST.get(feature.kind)
            if impl is not None:
                cols = impl(ctx, feature, self.fill_value)
            else:
                cols = _loop_eval(ctx, feature, self.fill_value)
            for name, col in zip(feature.names, cols):
                out[name] = col
        return out


def _loop_eval(ctx: SegmentContext, feature: Feature, fill_value):
    """Per-segment fallback using the exact per-series kernel."""
    nseg = ctx.nseg
    res = np.full((nseg, feature.size), fill_value, dtype=np.float64)
    t, m, w = ctx.t, ctx.m, ctx.w
    for i in range(nseg):
        lo, hi = ctx.starts[i], ctx.ends[i]
        s = Series(t[lo:hi], m[lo:hi], w[lo:hi], check=False)
        res[i] = feature.eval_or_fill(s, fill_value)
    return [res[:, j] for j in range(feature.size)]


# ---------------------------------------------------------------------------
# fast per-kind implementations
# registry: kind -> fn(ctx, feature, fill_value) -> list of per-segment arrays
# ---------------------------------------------------------------------------

_FAST = {}


def fast(kind):
    def deco(fn):
        _FAST[kind] = fn
        return fn

    return deco


def _ok_min_n(ctx, feature):
    ok = ctx.n >= max(feature.min_ts_length, 1)
    if feature.variability_required:
        ok = ok & ~ctx.flat()
    return ok


@fast("observation_count")
def _obs_count(ctx, f, fv):
    return [ctx.n.copy()]


@fast("mean")
def _mean(ctx, f, fv):
    return [_fill(ctx.mean(), _ok_min_n(ctx, f), fv)]


@fast("time_mean")
def _time_mean(ctx, f, fv):
    return [_fill(ctx.mean("t"), _ok_min_n(ctx, f), fv)]


@fast("weighted_mean")
def _wmean(ctx, f, fv):
    return [_fill(ctx.weighted_mean(), _ok_min_n(ctx, f), fv)]


@fast("amplitude")
def _amplitude(ctx, f, fv):
    return [_fill(0.5 * (ctx.maximum() - ctx.minimum()), _ok_min_n(ctx, f), fv)]


@fast("duration")
def _duration(ctx, f, fv):
    return [_fill(ctx.t[ctx.ends - 1] - ctx.t[ctx.starts], _ok_min_n(ctx, f), fv)]


@fast("standard_deviation")
def _std(ctx, f, fv):
    return [_fill(ctx.std(), _ok_min_n(ctx, f), fv)]


@fast("time_standard_deviation")
def _tstd(ctx, f, fv):
    return [_fill(ctx.std("t"), _ok_min_n(ctx, f), fv)]


@fast("mean_variance")
def _mean_var(ctx, f, fv):
    with np.errstate(invalid="ignore", divide="ignore"):
        v = ctx.std() / ctx.mean()
    return [_fill(v, _ok_min_n(ctx, f), fv)]


@fast("median")
def _median(ctx, f, fv):
    return [_fill(ctx.median(), _ok_min_n(ctx, f), fv)]


@fast("median_absolute_deviation")
def _mad(ctx, f, fv):
    return [_fill(ctx.mad(), _ok_min_n(ctx, f), fv)]


@fast("percent_amplitude")
def _pamp(ctx, f, fv):
    med = ctx.median()
    v = np.maximum(ctx.maximum() - med, med - ctx.minimum())
    return [_fill(v, _ok_min_n(ctx, f), fv)]


@fast("inter_percentile_range")
def _ipr(ctx, f, fv):
    v = ctx.ppf(1.0 - f.quantile) - ctx.ppf(f.quantile)
    return [_fill(v, _ok_min_n(ctx, f), fv)]


@fast("magnitude_percentage_ratio")
def _mpr(ctx, f, fv):
    den = ctx.ppf(1.0 - f.quantile_denominator) - ctx.ppf(f.quantile_denominator)
    num = ctx.ppf(1.0 - f.quantile_numerator) - ctx.ppf(f.quantile_numerator)
    ok = _ok_min_n(ctx, f) & (den != 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        v = num / den
    return [_fill(v, ok, fv)]


@fast("percent_difference_magnitude_percentile")
def _pdmp(ctx, f, fv):
    med = ctx.median()
    ok = _ok_min_n(ctx, f) & (med != 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        v = (ctx.ppf(1.0 - f.quantile) - ctx.ppf(f.quantile)) / med
    return [_fill(v, ok, fv)]


@fast("median_buffer_range_percentage")
def _mbrp(ctx, f, fv):
    thr = f.quantile * 0.5 * (ctx.maximum() - ctx.minimum())
    inside = (
        np.abs(ctx.m - ctx.median()[ctx.seg_id]) < thr[ctx.seg_id]
    ).astype(np.float64)
    v = ctx.seg_sum(inside) / ctx.n
    return [_fill(v, _ok_min_n(ctx, f), fv)]


@fast("beyond_n_std")
def _beyond(ctx, f, fv):
    thr = f.nstd * ctx.std()
    outside = (np.abs(ctx.centered()) > thr[ctx.seg_id]).astype(np.float64)
    v = ctx.seg_sum(outside) / ctx.n
    return [_fill(v, _ok_min_n(ctx, f), fv)]


@fast("skew")
def _skew(ctx, f, fv):
    m3 = ctx.seg_sum(ctx.centered_sq() * ctx.centered())
    n = ctx.n
    with np.errstate(invalid="ignore", divide="ignore"):
        v = n / ((n - 1.0) * (n - 2.0)) * m3 / (ctx.std2() * ctx.std())
    return [_fill(v, _ok_min_n(ctx, f), fv)]


@fast("kurtosis")
def _kurtosis(ctx, f, fv):
    d2 = ctx.centered_sq()
    m4 = ctx.seg_sum(d2 * d2)
    n = ctx.n
    std2 = ctx.std2()
    with np.errstate(invalid="ignore", divide="ignore"):
        v = n * (n + 1.0) / ((n - 1.0) * (n - 2.0) * (n - 3.0)) * m4 / (
            std2 * std2
        ) - 3.0 * (n - 1.0) ** 2 / ((n - 2.0) * (n - 3.0))
    return [_fill(v, _ok_min_n(ctx, f), fv)]


@fast("eta")
def _eta(ctx, f, fv):
    dm = ctx.dm_pairs()
    num = ctx.pair_sum(dm * dm)
    with np.errstate(invalid="ignore", divide="ignore"):
        v = num / ((ctx.n - 1.0) * ctx.std2())
    return [_fill(v, _ok_min_n(ctx, f), fv)]


@fast("eta_e")
def _eta_e(ctx, f, fv):
    with np.errstate(invalid="ignore", divide="ignore"):
        sl = ctx.dm_pairs() / ctx.dt_pairs()
        sq = sl * sl
    sq = np.where(np.isfinite(sq), sq, 0.0)
    total = ctx.pair_sum(sq)
    span = ctx.t[ctx.ends - 1] - ctx.t[ctx.starts]
    with np.errstate(invalid="ignore", divide="ignore"):
        n1 = ctx.n - 1.0
        v = span * span * total / (ctx.std2() * (n1 * n1 * n1))
    return [_fill(v, _ok_min_n(ctx, f), fv)]


@fast("maximum_slope")
def _max_slope(ctx, f, fv):
    with np.errstate(invalid="ignore", divide="ignore"):
        sl = np.abs(ctx.dm_pairs() / ctx.dt_pairs())
    sl = np.where(np.isfinite(sl) & ctx.pair_valid(), sl, -np.inf)
    v = np.maximum.reduceat(sl, ctx.starts)
    ok = _ok_min_n(ctx, f) & np.isfinite(v)
    return [_fill(v, ok, fv)]


@fast("maximum_time_interval")
def _max_dt(ctx, f, fv):
    dt = np.where(ctx.pair_valid(), ctx.dt_pairs(), -np.inf)
    v = np.maximum.reduceat(dt, ctx.starts)
    ok = _ok_min_n(ctx, f) & np.isfinite(v)
    return [_fill(v, ok, fv)]


@fast("minimum_time_interval")
def _min_dt(ctx, f, fv):
    dt = np.where(ctx.pair_valid(), ctx.dt_pairs(), np.inf)
    v = np.minimum.reduceat(dt, ctx.starts)
    ok = _ok_min_n(ctx, f) & np.isfinite(v)
    return [_fill(v, ok, fv)]


@fast("cusum")
def _cusum(ctx, f, fv):
    d = ctx.centered()
    c = np.cumsum(d)
    base = np.r_[0.0, c[ctx.starts[1:] - 1]]
    local = c - base[ctx.seg_id]
    hi = np.maximum.reduceat(local, ctx.starts)
    lo = np.minimum.reduceat(local, ctx.starts)
    with np.errstate(invalid="ignore", divide="ignore"):
        v = (hi - lo) / (ctx.std() * ctx.n)
    return [_fill(v, _ok_min_n(ctx, f), fv)]


@fast("lafler_kinman_string_length")
def _lafler(ctx, f, fv):
    dm = ctx.dm_pairs()
    num = ctx.pair_sum(dm * dm)
    wrap = ctx.m[ctx.starts] - ctx.m[ctx.ends - 1]
    num = num + wrap * wrap
    with np.errstate(invalid="ignore", divide="ignore"):
        v = num / (2.0 * ctx.std2() * (ctx.n - 1.0))
    return [_fill(v, _ok_min_n(ctx, f), fv)]


@fast("reduced_chi2")
def _rchi2(ctx, f, fv):
    with np.errstate(invalid="ignore", divide="ignore"):
        v = ctx.chi2() / (ctx.n - 1.0)
    return [_fill(v, _ok_min_n(ctx, f), fv)]


@fast("excess_variance")
def _excess_var(ctx, f, fv):
    mean_d2 = ctx.seg_sum(1.0 / ctx.w) / ctx.n
    with np.errstate(invalid="ignore", divide="ignore"):
        v = (ctx.std2() - mean_d2) / ctx.mean() ** 2
    return [_fill(v, _ok_min_n(ctx, f), fv)]


@fast("stetson_k")
def _stetson(ctx, f, fv):
    d = np.abs(ctx.m - ctx.weighted_mean()[ctx.seg_id]) * ctx.sqrt_w()
    num = ctx.seg_sum(d)
    with np.errstate(invalid="ignore", divide="ignore"):
        v = num / np.sqrt(ctx.n * ctx.chi2())
    return [_fill(v, _ok_min_n(ctx, f), fv)]


@fast("roms")
def _roms(ctx, f, fv):
    terms = np.abs(ctx.m - ctx.median()[ctx.seg_id]) * ctx.sqrt_w()
    terms = np.where(np.isfinite(terms), terms, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        v = ctx.seg_sum(terms) / (ctx.n - 1.0)
    return [_fill(v, _ok_min_n(ctx, f), fv)]


@fast("linear_trend")
def _linear_trend(ctx, f, fv):
    slope, sigma2, rchi2 = ctx.line_fit(weighted=False)
    flat_t = ctx.minimum("t") == ctx.maximum("t")
    ok = _ok_min_n(ctx, f) & ~flat_t
    return [
        _fill(slope, ok, fv),
        _fill(np.sqrt(sigma2), ok, fv),
        _fill(np.sqrt(rchi2), ok, fv),
    ]


@fast("linear_fit")
def _linear_fit(ctx, f, fv):
    slope, sigma2, rchi2 = ctx.line_fit(weighted=True)
    flat_t = ctx.minimum("t") == ctx.maximum("t")
    ok = _ok_min_n(ctx, f) & ~flat_t
    return [
        _fill(slope, ok, fv),
        _fill(np.sqrt(sigma2), ok, fv),
        _fill(rchi2, ok, fv),
    ]


@fast("chi2_pvar")
def _chi2_pvar(ctx, f, fv):
    chi2 = ctx.chi2()
    n = ctx.n
    ok = _ok_min_n(ctx, f)
    out = np.full(ctx.nseg, fv, dtype=np.float64)
    for i in np.flatnonzero(ok):
        out[i] = gammainc_q(0.5 * (n[i] - 1.0), 0.5 * chi2[i])
    return [out]


@fast("periodogram")
def _periodogram(ctx, f, fv):
    # batched FFT path: only for the default configuration shape
    # (peaks-only spectrum extractor, FFT power, average Nyquist)
    if (
        not f.fast
        or f.nyquist.strategy != "average"
        or len(f.spectrum_extractor.features) != 1
        or f.phase_extractor.features
    ):
        return _loop_eval(ctx, f, fv)
    from .periodogram.batched import batched_periodogram_peaks

    arr = batched_periodogram_peaks(
        ctx.t,
        ctx.centered(),
        ctx.starts,
        ctx.std2(),
        peaks=f.peaks,
        resolution=f.resolution,
        max_freq_factor=f.max_freq_factor,
        normalization=f.normalization,
        fill_value=fv,
    )
    return [arr[:, j] for j in range(2 * f.peaks)]


@fast("anderson_darling_normal")
def _ad_normal(ctx, f, fv):
    sm = ctx.sorted_m()
    mean = ctx.mean()[ctx.seg_id]
    std = ctx.std()[ctx.seg_id]
    ok = _ok_min_n(ctx, f)
    with np.errstate(invalid="ignore", divide="ignore"):
        y = (sm - mean) / std
    y = np.where(np.isfinite(y), y, 0.0)
    ln_cdf = ln_erfc(-y / _SQRT2) - math.log(2.0)
    ln_sf = ln_erfc(y / _SQRT2) - math.log(2.0)
    idx = np.arange(ctx.npts)
    i_local = idx - ctx.starts[ctx.seg_id]
    n_per = ctx.n[ctx.seg_id]
    mirror = ctx.starts[ctx.seg_id] + (n_per - 1.0 - i_local).astype(np.int64)
    terms = (2.0 * i_local + 1.0) * (ln_cdf + ln_sf[mirror])
    n = ctx.n
    a2 = -n - ctx.seg_sum(terms) / n
    v = a2 * (1.0 + 4.0 / n - 25.0 / (n * n))
    return [_fill(v, ok, fv)]
