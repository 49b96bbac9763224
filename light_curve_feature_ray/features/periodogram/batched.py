"""Batched Lomb-Scargle over many segments at once (the rollup fast path).

Key observation: with the dynamic ZeroBasedPow2 grid (resolution R, max
frequency factor F, AverageNyquist), the grid SIZE class depends only on
the segment length N:

    max_freq / step = (pi*(N-1)*F/dur) / (2*pi*(N-1)/(N*R*dur)) = N*R*F/2
    k = round(log2(N*R*F/2)),   grid size = 2^k + 1,   M = 2^(k+1)

so segments can be grouped by k and processed with ONE batched
``np.fft.rfft`` per class: the spread (extirpolation) step becomes a single
global ``np.bincount`` with row offsets, and the tau/power recovery is 2-D
vectorized. Per-segment math is identical to power.FftPowerEvaluator /
the reference FFT path (/root/reference/src/periodogram/power_fft.rs:91-275);
results match the per-series evaluator to float roundoff.

Both spreads of a class (centred values at x, unit weights at 2x) go into
one ``np.bincount`` over a (2, rows, M) layout and one ``rfft`` call, and
the recovery runs in place on a few buffers. A class is cut into chunks
of at most ``_CHUNK_ELEMS`` spectrum cells, so that a chunk's arrays stay
small: fresh large arrays cost a page fault per 4 KiB page on first touch.

Shared 2-point spectrum. A 2-point segment (t0, t0 + D; centred values
-a, +a) has step = pi/(R*D) and grid spacing dt = R*D/2^k, so its spread
positions are x = [0, 2^k/R] whatever t0 and D are, and its spread arrays
are a times those of any other 2-point segment. Power is quadratic in the
centred values and divided by the sample variance 2*a^2, so each
normalization of it is one vector for every such segment; only the
frequency grid, i.e. ``step``, is the segment's own. The spectrum of one
canonical segment, t = (0, 1) and m = (0, 1), therefore gives every
2-point segment's peak indices and s/n, and each row's period is
2*pi/(idx*step_row). The per-row FFT path reaches the same vector up to
roundoff: over 20,000 random 2-point segments (durations 0.1 to 1e5,
values scaled 1e-3 to 1e6) its s/n spread by 2.7e-11 relative, with the
same peak index in all. The canonical segment does not depend on the
batch, so neither does the output. Segments whose variance lies outside
``_PAIR_STD2`` take the per-row path, so no intermediate of theirs can
overflow or underflow where the canonical one does not. When 2^k/R is a
whole number (a power-of-two resolution) both points sit on whole FFT
bins and the reference's exact-zero branches fire by roundoff, so per-row
spectra of 2-point segments differ by up to a factor 2 in some bins;
there the canonical segment decides for all of them.

Only the (default) spectrum feature set [PeriodogramPeaks(k)] is supported
here; configs with extra spectrum features fall back to the per-series
loop in GroupedSuite.
"""

from __future__ import annotations

import numpy as np

#: spectrum cells (rows x FFT length M) per chunk of a grid class. On the
#: bench input (seed 131, one worker pass, 1 CPU) 2**14 and
#: 2**15 took 0.14 s per pass; 2**16 and 2**17 took 0.21 s with 12x the
#: page faults, and 2**13 took 0.20 s in per-chunk call overhead.
_CHUNK_ELEMS = 1 << 15
#: sample-variance band of the 2-point segments that share one spectrum
_PAIR_STD2 = (1e-100, 1e100)


def batched_periodogram_peaks(
    t: np.ndarray,
    h: np.ndarray,
    starts: np.ndarray,
    std2: np.ndarray,
    *,
    peaks: int = 1,
    resolution: float = 10.0,
    max_freq_factor: float = 1.0,
    normalization: str = "psd",
    fill_value: float = np.nan,
) -> np.ndarray:
    """Returns (nseg, 2*peaks) array of (period_i, s_to_n_i) pairs.

    ``h`` is m minus its segment's mean and ``std2`` the segments' sample
    variances (SegmentContext.centered() and .std2()).

    Segment semantics match Periodogram.eval + PeriodogramPeaks:
    - n < 2  -> fill_value row (ShortTimeSeries)
    - plateau / zero-duration -> all-zero power -> zero-padded peaks row
    """
    # zero spans, plateaus, degenerate frequencies and infinite model/log
    # power follow the reference's rules below; numpy's warnings on the
    # divisions and subtractions that produce them are not errors
    with np.errstate(divide="ignore", invalid="ignore"):
        nseg = starts.shape[0]
        ends = np.r_[starts[1:], t.shape[0]]
        n = ends - starts
        out = np.full((nseg, 2 * peaks), fill_value, dtype=np.float64)
        nn = n.astype(np.float64)
        duration = t[ends - 1] - t[starts]

        valid = (n >= 2) & (duration > 0.0)  # zero span -> NaN (typed error)
        out[valid] = 0.0  # plateau rows stay all-zero (reference fixture)
        live = valid & (std2 > 0.0)
        if not live.any():
            return out

        # grid class by segment length
        k = np.rint(np.log2(np.maximum(n * resolution * max_freq_factor / 2.0, 1.0)))
        k = np.maximum(k.astype(np.int64), 0)

        def write(rows, step, peaks_of_rows):
            idx, has, snr = peaks_of_rows
            out[rows, 0::2] = np.where(has, 2.0 * np.pi / (idx * step[:, None]), 0.0)
            out[rows, 1::2] = snr

        # the grid's frequency step
        step = 2.0 * np.pi * (nn - 1.0) / (nn * resolution * duration)
        pair = live & (n == 2) & (std2 > _PAIR_STD2[0]) & (std2 < _PAIR_STD2[1])
        if pair.any():
            rows = np.flatnonzero(pair)
            shared = _pair_peaks(int(k[rows[0]]), resolution, normalization, peaks)
            write(rows, step[rows], shared)
            live &= ~pair

        for kk in np.unique(k[live]):
            rows = np.flatnonzero(live & (k == kk))
            chunk = max(1, _CHUNK_ELEMS >> (int(kk) + 1))
            for lo in range(0, rows.shape[0], chunk):
                r = rows[lo : lo + chunk]
                peaks_r = _power_class(
                    t, h, starts, ends, r, int(kk), step[r], nn[r], std2[r],
                    normalization, peaks,
                )
                write(r, step[r], peaks_r)
        return out


def _pair_peaks(k, resolution, normalization, npeaks):
    """Peaks of the spectrum that every 2-point segment shares, from the
    canonical segment t = (0, 1), m = (0, 1): the same for every batch, so
    the output does not depend on how segments are batched."""
    n, duration, std2 = np.full(1, 2.0), np.ones(1), np.full(1, 0.5)
    step = 2.0 * np.pi * (n - 1.0) / (n * resolution * duration)
    row = np.zeros(1, dtype=np.int64)  # one segment: points [0, 2)
    return _power_class(
        np.array([0.0, 1.0]), np.array([-0.5, 0.5]), row, row + 2, row, k, step,
        n, std2, normalization, npeaks,
    )


def _power_class(t, h, starts, ends, rows, k, step, n_r, std2_r, normalization, npeaks):
    """Peaks of the normalized power of the segments ``rows``, which all
    have grids of 2^k + 1 frequencies spaced ``step`` (one per row).
    Returns (idx, has, snr), each (nrows, npeaks): the peaks' grid indices,
    whether each peak exists, and their s/n."""
    nw = (1 << k) + 1
    msize = (nw - 1) << 1  # FFT length M
    nrows = rows.shape[0]

    # ---- one spread (linear extirpolation with wraparound) ----
    # layer 0: centred values at x; layer 1: unit weights at 2x
    seg_lo = starts[rows]
    counts = ends[rows] - seg_lo
    point_idx = _ranges(seg_lo, ends[rows])
    dt_grid = np.pi / (step * (nw - 1))  # per-row uniform grid spacing
    x = (t[point_idx] - np.repeat(t[seg_lo], counts)) / np.repeat(dt_grid, counts)
    pos = np.concatenate((x, 2.0 * x))
    weight = np.concatenate((h[point_idx], np.ones_like(x)))
    row_of_point = np.repeat(np.arange(nrows), counts)
    base = np.concatenate((row_of_point, row_of_point + nrows)) * msize
    lo = np.floor(pos)
    frac = pos - lo
    acc = np.bincount(
        np.concatenate(
            (
                base + lo.astype(np.int64) % msize,
                base + np.ceil(pos).astype(np.int64) % msize,
            )
        ),
        weights=np.concatenate((weight * (1.0 - frac), weight * frac)),
        minlength=2 * nrows * msize,
    )
    f = np.fft.rfft(acc.reshape(2, nrows, msize), axis=-1)  # (2, nrows, nw)
    # sums of h*cos, h*sin at w and of cos, sin at 2w: (re, -im) of the bins
    re_h, im_h = f[0].real, f[0].imag
    re_2, im_2 = f[1].real, f[1].imag

    # ---- tau/power recovery, fused in place ----
    cos_2wtau = np.hypot(re_2, im_2)
    both_zero = cos_2wtau == 0.0
    np.divide(re_2, cos_2wtau, out=cos_2wtau)
    cos_2wtau[both_zero] = 1.0
    cos_wtau = cos_2wtau + 1.0
    cos_wtau *= 0.5
    np.sqrt(cos_wtau, out=cos_wtau)
    sin_wtau = np.subtract(1.0, cos_2wtau, out=cos_2wtau)
    sin_wtau *= 0.5
    np.sqrt(sin_wtau, out=sin_wtau)
    # sin(w tau) takes the sign of sum sin 2wt = -im_2; it is kept here as
    # msin = -sin(w tau), so every product below equals the reference's
    # term exactly or up to a sign that its square drops (where im_2 is
    # +-0, cos(2w tau) is +-1 and the products are 0 or change sign only)
    msin = np.copysign(sin_wtau, im_2, out=sin_wtau)
    tmp = np.empty_like(msin)
    h_cos = np.multiply(re_h, cos_wtau)  # sum h cos w(t - tau)
    h_cos += np.multiply(im_h, msin, out=tmp)
    h_sin = np.multiply(im_h, cos_wtau)  # -sum h sin w(t - tau)
    h_sin -= np.multiply(re_h, msin, out=tmp)
    cos2 = np.multiply(re_2, cos_wtau, out=cos_wtau)
    cos2 += np.multiply(im_2, msin, out=tmp)
    cos2 += n_r[:, None]
    cos2 *= 0.5  # sum cos^2 w(t - tau)
    sin2 = np.subtract(n_r[:, None], cos2, out=msin)  # sum sin^2 w(t - tau)
    frac_cos = np.multiply(h_cos, h_cos, out=h_cos)
    frac_cos /= cos2
    frac_cos[cos2 == 0.0] = 0.0
    frac_sin = np.multiply(h_sin, h_sin, out=h_sin)
    frac_sin /= sin2
    frac_sin[sin2 == 0.0] = 0.0
    # the reference doubles the other component where one vanishes
    power = np.add(frac_cos, frac_sin, out=tmp)
    np.multiply(power, 2.0, out=power, where=(frac_cos == 0.0) | (frac_sin == 0.0))
    power *= (0.5 / std2_r)[:, None]

    if normalization != "psd":
        p_std = power * (2.0 / (n_r - 1.0))[:, None]
        if normalization == "standard":
            power = p_std
        elif normalization == "model":
            power = np.where(p_std >= 1.0, np.inf, p_std / (1.0 - p_std))
        elif normalization == "log":
            power = np.where(p_std >= 1.0, np.inf, -np.log1p(-p_std))
        else:
            raise ValueError(f"unknown normalization {normalization!r}")
    return _peaks(power, npeaks)


def _peaks(power, npeaks):
    """Strict local maxima of each row of ``power``, highest first, with
    s/n = (p - mean(p)) / std(p, ddof=1) as in PeriodogramPeaks."""
    nrows, nw = power.shape
    is_peak = np.zeros(power.shape, dtype=bool)
    if nw >= 3:
        rising = power[:, 1:] > power[:, :-1]  # rising[:, i]: p[i+1] > p[i]
        np.greater(rising[:, :-1], rising[:, 1:], out=is_peak[:, 1:-1])
    # numpy's mean and std(ddof=1) steps, sharing the one row sum; an
    # infinite power (model/log) makes them NaN, as in the reference
    mean = np.add.reduce(power, axis=1, keepdims=True) / nw
    dev = power - mean
    dev *= dev
    std = np.sqrt(np.add.reduce(dev, axis=1, keepdims=True) / (nw - 1))
    if npeaks == 1:
        idx = np.argmax(np.where(is_peak, power, -np.inf), axis=1)[:, None]
    else:
        order = np.argsort(np.where(is_peak, -power, np.inf), axis=1, kind="stable")
        # a grid shorter than npeaks pads with index 0, never a peak
        idx = np.zeros((nrows, npeaks), dtype=np.int64)
        idx[:, : min(npeaks, nw)] = order[:, :npeaks]
    has = np.take_along_axis(is_peak, idx, axis=1)
    pk = np.take_along_axis(power, idx, axis=1)
    snr = np.where(has & (std != 0.0), (pk - mean) / std, 0.0)
    return idx, has, snr


def _ranges(starts, ends):
    """Concatenated ranges [s0,e0) [s1,e1) ... without a Python loop."""
    counts = ends - starts
    total = int(counts.sum())
    out = np.ones(total, dtype=np.int64)
    run_starts = np.r_[0, np.cumsum(counts)[:-1]]
    out[run_starts] = starts - np.r_[0, ends[:-1] - 1]
    out[0] = starts[0]
    return np.cumsum(out)
