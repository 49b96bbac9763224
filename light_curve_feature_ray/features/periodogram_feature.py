"""Periodogram meta-feature + peak extraction.

Analog of /root/reference/src/features/periodogram.rs:197-575 and
_periodogram_peaks.rs:121-132:

- compute the Lomb-Scargle power spectrum on a dynamic (or fixed) grid;
- run a spectrum extractor on the (freq, power) pseudo-time-series whose
  first sub-feature is always the peak extractor; names are prefixed
  ``periodogram_``;
- each peak i yields (period = 2*pi/freq_i, s/n = (p_i - mean(p))/std(p)),
  zero-padded to 2*npeaks; peaks are strict local maxima sorted by
  descending power (/root/reference/src/peak_indices.rs:5-32).

The FFT power path holds reusable scratch state; inside the Ray pipeline one
evaluator instance lives per actor (stages/rollup.py), mirroring the
reference's per-thread FFT plan cache.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .base import Feature, register
from .extractor import FeatureExtractor
from .kernel import Series
from .periodogram import (
    DynamicFreqParams,
    FftPowerEvaluator,
    LinearFreqGrid,
    NyquistFreq,
    ZeroBasedPow2FreqGrid,
    power_direct,
)
from .periodogram.freq import ArbitraryFreqGrid, FreqGrid


def freq_grid_from_config(spec):
    """Fixed frequency grid from a JSON-able spec — the reference's
    FreqGridStrategy::Fixed (/root/reference/src/periodogram/freq.rs:424-459):
    {"kind": "linear", start, step, size} | {"kind": "pow2", step, size}
    (size = 2^k + 1) | {"kind": "arbitrary", freqs: [...]}."""
    if spec is None or isinstance(spec, FreqGrid):
        return spec
    kind = spec["kind"]
    if kind == "linear":
        return LinearFreqGrid(spec["start"], spec["step"], spec["size"])
    if kind == "pow2":
        return ZeroBasedPow2FreqGrid.with_size(spec["step"], spec["size"])
    if kind == "arbitrary":
        return ArbitraryFreqGrid(np.asarray(spec["freqs"], dtype=np.float64))
    raise ValueError(f"unknown freq_grid kind {kind!r}")


def freq_grid_to_config(grid):
    if grid is None:
        return None
    if isinstance(grid, ZeroBasedPow2FreqGrid):
        return {"kind": "pow2", "step": grid.step, "size": grid.size}
    if isinstance(grid, LinearFreqGrid):
        return {
            "kind": "linear",
            "start": grid.start,
            "step": grid.step,
            "size": grid.size,
        }
    return {"kind": "arbitrary", "freqs": grid.freqs().tolist()}


def peak_indices_desc(a: np.ndarray) -> np.ndarray:
    """Indices of strict local maxima, sorted by descending value.

    A peak at i requires a[i] > a[i-1] (strict rise into i) and not rising
    out of i (a[i+1] <= a[i]); the first and last points can't be peaks.
    Matches /root/reference/src/peak_indices.rs:5-32 (plateaus excluded).
    """
    if a.shape[0] < 3:
        return np.empty(0, dtype=np.int64)
    rising = a[1:] > a[:-1]  # rising[i]: a[i+1] > a[i]
    peaks = np.flatnonzero(rising[:-1] & ~rising[1:]) + 1
    order = np.argsort(-a[peaks], kind="stable")
    return peaks[order]


@register
class PeriodogramPeaks(Feature):
    """Top-k (period, s/n) pairs of a (freq, power) series."""

    kind = "_periodogram_peaks"
    min_ts_length = 1
    t_required = True
    sorting_required = True

    def __init__(self, peaks: int = 1):
        assert peaks > 0
        self.peaks = int(peaks)

    @property
    def size(self):
        return 2 * self.peaks

    @property
    def names(self):
        out = []
        for i in range(self.peaks):
            out += [f"period_{i}", f"period_s_to_n_{i}"]
        return out

    @property
    def descriptions(self):
        # _periodogram_peaks.rs:49-64 ordinal phrasing via number_ending
        from .base import number_ending

        out = []
        for i in range(self.peaks):
            nth = f"{i + 1}{number_ending(i + 1)}"
            out += [
                f"period of the {nth} highest peak",
                "Spectral density to spectral density standard deviation "
                f"ratio of the {nth} highest peak",
            ]
        return out

    def _params(self):
        return {"peaks": self.peaks}

    def _eval(self, s: Series):
        idx = peak_indices_desc(s.m)
        out = np.zeros(2 * self.peaks, dtype=np.float64)
        k = min(self.peaks, idx.shape[0])
        if k:
            sel = idx[:k]
            out[0 : 2 * k : 2] = 2.0 * np.pi / s.t[sel]
            # model/log power holds inf where the standard power reaches 1;
            # its mean and std are then inf/NaN by the reference's rules,
            # as in the batched kernel, and numpy's warnings are not errors
            with np.errstate(invalid="ignore"):
                std = s.std("m")
                if std != 0.0:
                    out[1 : 2 * k + 1 : 2] = (s.m[sel] - s.mean("m")) / std
        return out


PHASE_DEDUP_WINDOW = 1e-6


def compute_adjusted_phases(
    t: np.ndarray, m: np.ndarray, period: float
) -> np.ndarray:
    """Phases in [0, 1) with phase 0 at the (first) minimum-m observation —
    /root/reference/src/features/periodogram.rs:42-60 (min-by on
    partial_cmp: first minimum wins)."""
    p = np.mod(t / period, 1.0)
    p = np.where(p < 0.0, p + 1.0, p)
    offset = p[int(np.argmin(m))] if m.shape[0] else 0.0
    return np.mod(p - offset + 1.0, 1.0)


@register
class Periodogram(Feature):
    """Lomb-Scargle periodogram meta-feature (spectrum extractor over the
    (freq, power) pseudo-series + optional phase extractor over the light
    curve folded at the best period —
    /root/reference/src/features/periodogram.rs:545-615)."""

    kind = "periodogram"
    min_ts_length = 2
    t_required = True
    sorting_required = True

    def __init__(
        self,
        peaks: int = 1,
        resolution: float = 10.0,
        max_freq_factor: float = 1.0,
        nyquist: str | dict | NyquistFreq = "average",
        fast: bool = True,
        normalization: str = "psd",
        features: list | None = None,
        phase_features: list | None = None,
        freq_grid: dict | None = None,
    ):
        # fixed grid (FreqGridStrategy::Fixed) overrides the dynamic
        # from-t grid when given; the FFT path applies only to pow2 grids
        # (reference periodogram/mod.rs:104-109), others evaluate direct
        self.freq_grid = freq_grid_from_config(freq_grid)
        self.peaks_feature = PeriodogramPeaks(peaks)
        self.resolution = float(resolution)
        self.max_freq_factor = float(max_freq_factor)
        self.nyquist = (
            nyquist if isinstance(nyquist, NyquistFreq) else NyquistFreq.from_dict(nyquist)
        )
        self.fast = bool(fast)
        self.normalization = normalization
        extra = (
            FeatureExtractor.from_config(features).features if features else []
        )
        self.spectrum_extractor = FeatureExtractor(
            [self.peaks_feature] + list(extra)
        )
        self.phase_extractor = FeatureExtractor.from_config(phase_features or [])
        self._fft = FftPowerEvaluator()

    @property
    def peaks(self) -> int:
        return self.peaks_feature.peaks

    @property
    def size(self):
        return self.spectrum_extractor.size + self.phase_extractor.size

    @property
    def names(self):
        # /root/reference/src/features/periodogram.rs:311-356: spectrum
        # names prefixed periodogram_, phase names period_folded_
        return [f"periodogram_{n}" for n in self.spectrum_extractor.names()] + [
            f"period_folded_{n}" for n in self.phase_extractor.names()
        ]

    def _params(self) -> dict[str, Any]:
        extra = self.spectrum_extractor.features[1:]
        return {
            "peaks": self.peaks,
            "resolution": self.resolution,
            "max_freq_factor": self.max_freq_factor,
            "nyquist": self.nyquist.to_dict(),
            "fast": self.fast,
            "normalization": self.normalization,
            "features": [f.to_dict() for f in extra] or None,
            "phase_features": self.phase_extractor.to_config() or None,
            "freq_grid": freq_grid_to_config(self.freq_grid),
        }

    # -- phase folding -------------------------------------------------------

    def _phase_series(self, s: Series, period: float) -> Series | None:
        """Dispatch by the phase extractor's requirements —
        /root/reference/src/features/periodogram.rs:109-122."""
        ext = self.phase_extractor
        if ext.sorting_required:
            phases = compute_adjusted_phases(s.t, s.m, period)
            order = np.argsort(phases, kind="stable")
            return Series(phases[order], s.m[order], s.w[order], check=False)
        if ext.t_required:
            phases = compute_adjusted_phases(s.t, s.m, period)
            return Series(phases, s.m, s.w, check=False)
        return None

    def _eval_phase(self, phase_s: Series, fill_value=None) -> np.ndarray:
        """Near-duplicate phases merged through Bins(1e-6) when the
        extractor needs time — /root/reference/src/features/periodogram.rs:125-171."""
        from .bins import bin_series

        ext = self.phase_extractor
        target = phase_s
        if ext.t_required and phase_s.n >= 2:
            min_step = float(np.min(np.diff(phase_s.t)))
            if min_step < PHASE_DEDUP_WINDOW:
                bt, bm, bw = bin_series(
                    phase_s.t, phase_s.m, phase_s.w, PHASE_DEDUP_WINDOW, 0.0
                )
                target = Series(bt, bm, bw, check=False)
        if fill_value is None:
            return ext.eval(target)
        return ext.eval_or_fill(target, fill_value)

    # -- power ---------------------------------------------------------------

    def _dynamic_params(self) -> DynamicFreqParams:
        return DynamicFreqParams(
            resolution=self.resolution,
            max_freq_factor=self.max_freq_factor,
            nyquist=self.nyquist,
        )

    def freq_power(self, s: Series) -> tuple[np.ndarray, np.ndarray]:
        """(freqs, power) with the configured normalization applied.

        Zero-duration series (all t equal) have no frequency grid — the
        reference's input contract requires increasing t
        (/root/reference/src/data/time_series.rs:69); we make it a typed
        error so eval_or_fill yields NaN."""
        from ..errors import ZeroDivision

        if s.t[-1] - s.t[0] <= 0.0:
            raise ZeroDivision("zero time span: no frequency grid")
        if self.freq_grid is not None:
            grid = self.freq_grid
            if self.fast and isinstance(grid, ZeroBasedPow2FreqGrid):
                power = self._fft.power(s.t, s.m, grid, s.std2())
            else:
                power = power_direct(s.t, s.m, grid.freqs(), s.std2())
        else:
            params = self._dynamic_params()
            if self.fast:
                grid = ZeroBasedPow2FreqGrid.from_t(s.t, params)
                power = self._fft.power(s.t, s.m, grid, s.std2())
            else:
                grid = LinearFreqGrid.from_t(s.t, params)
                power = power_direct(s.t, s.m, grid.freqs(), s.std2())
        power = self._normalize(power, s.n)
        return grid.freqs(), power

    def _normalize(self, power: np.ndarray, n: int) -> np.ndarray:
        """Psd (raw) / standard / model / log —
        /root/reference/src/periodogram/power_trait.rs:26-110."""
        if self.normalization == "psd":
            return power
        factor = 2.0 / (n - 1)
        p_std = power * factor
        if self.normalization == "standard":
            return p_std
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.normalization == "model":
                return np.where(p_std >= 1.0, np.inf, p_std / (1.0 - p_std))
            if self.normalization == "log":
                return np.where(p_std >= 1.0, np.inf, -np.log1p(-p_std))
        raise ValueError(f"unknown normalization {self.normalization!r}")

    def _eval(self, s: Series):
        from ..errors import ZeroDivision

        freqs, power = self.freq_power(s)
        derived = Series(freqs, power, check=False)
        result = self.spectrum_extractor.eval_or_fill(derived)
        if not self.phase_extractor.features:
            return result
        best_period = result[0]
        if not np.isfinite(best_period) or best_period <= 0.0:
            # /root/reference/src/features/periodogram.rs:554-559
            raise ZeroDivision("best period is not positive, cannot phase-fold")
        phase_s = self._phase_series(s, best_period)
        if phase_s is None:
            phase_part = self.phase_extractor.eval(s)
        else:
            phase_part = self._eval_phase(phase_s)
        return np.concatenate([result, phase_part])

    def eval_or_fill(self, s: Series, fill_value: float = np.nan) -> np.ndarray:
        """Per-part fill, mirroring the reference's eval_or_fill
        (/root/reference/src/features/periodogram.rs:590-612): the spectrum
        part fills independently, and the phase part fills when the best
        period is degenerate or its own evaluation fails."""
        try:
            self.check(s)
            freqs, power = self.freq_power(s)
        except Exception:
            return np.full(self.size, fill_value)
        derived = Series(freqs, power, check=False)
        result = self.spectrum_extractor.eval_or_fill(derived, fill_value)
        if not self.phase_extractor.features:
            return result
        best_period = result[0]
        phase_size = self.phase_extractor.size
        if not np.isfinite(best_period) or best_period <= 0.0:
            return np.concatenate([result, np.full(phase_size, fill_value)])
        phase_s = self._phase_series(s, best_period)
        try:
            if phase_s is None:
                phase_part = self.phase_extractor.eval_or_fill(s, fill_value)
            else:
                phase_part = self._eval_phase(phase_s, fill_value)
        except Exception:
            phase_part = np.full(phase_size, fill_value)
        return np.concatenate([result, phase_part])
