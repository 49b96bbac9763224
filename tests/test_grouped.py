"""Vectorized multi-segment evaluation must match the per-series kernel
exactly (same values, same NaN fills) on random and adversarial segments."""

import numpy as np
import pytest

from light_curve_feature_ray.features import REGISTRY, FeatureExtractor
from light_curve_feature_ray.features.grouped import _FAST, GroupedSuite, _loop_eval
from light_curve_feature_ray.features.grouped import SegmentContext

# default-constructible features (meta-features excluded; covered elsewhere)
SIMPLE_KINDS = sorted(
    k
    for k, cls in REGISTRY.items()
    if k not in ("bins", "transformed", "periodogram", "_periodogram_peaks")
)


def _weights(w, which):
    """``make_segments``' uniform(0.5, 2) weights ``w``; all exactly 1.0
    (the rollup's input, where the weighted stats alias the unweighted
    ones); or ones with a single 2.0."""
    if which == "uniform":
        return w
    w = np.ones_like(w)
    if which == "one_two":
        w[w.shape[0] // 2] = 2.0
    return w


# every kind with uniform weights (ids: the kind alone), and every
# vectorized kind on both sides of the unit-weight test
WEIGHT_CASES = [pytest.param(k, "uniform", id=k) for k in SIMPLE_KINDS] + [
    pytest.param(k, which, id=f"{k}-{which}")
    for which in ("ones", "one_two")
    for k in SIMPLE_KINDS
    if k in _FAST
]


def make_segments(rng, nseg=40, with_edge_cases=True):
    ts, ms, ws, starts = [], [], [], []
    pos = 0
    sizes = rng.integers(1, 30, size=nseg).tolist()
    if with_edge_cases:
        sizes[:6] = [1, 2, 3, 4, 2, 5]
    for i, size in enumerate(sizes):
        t = np.sort(rng.random(size) * 60.0)
        if with_edge_cases and i == 4:
            t = np.full(size, 7.0)  # zero time span
        m = rng.normal(10.0, 3.0, size)
        if with_edge_cases and i == 5:
            m = np.full(size, 2.5)  # flat values
        w = rng.uniform(0.5, 2.0, size)
        starts.append(pos)
        pos += size
        ts.append(t)
        ms.append(m)
        ws.append(w)
    return (
        np.concatenate(ts),
        np.concatenate(ms),
        np.concatenate(ws),
        np.array(starts, dtype=np.int64),
    )


@pytest.mark.parametrize("kind,weights", WEIGHT_CASES)
def test_fast_matches_loop(kind, weights):
    rng = np.random.default_rng(hash(kind) % 2**32)
    t, m, w, starts = make_segments(rng)
    w = _weights(w, weights)
    feature = REGISTRY[kind]()
    extractor = FeatureExtractor([feature])
    fast = GroupedSuite(extractor).eval(t, m, w, starts)
    ctx = SegmentContext(t, m, w, starts)
    loop_cols = _loop_eval(ctx, feature, np.nan)
    for name, col_loop in zip(feature.names, loop_cols):
        col_fast = fast[name]
        nan_f, nan_l = np.isnan(col_fast), np.isnan(col_loop)
        np.testing.assert_array_equal(nan_f, nan_l, err_msg=f"{kind}:{name} NaN mask")
        np.testing.assert_allclose(
            col_fast[~nan_f],
            col_loop[~nan_l],
            rtol=1e-9,
            atol=1e-10,
            err_msg=f"{kind}:{name}",
        )


def test_unit_weights_alias_unweighted():
    """With w exactly 1.0 the weighted features are the unweighted ones,
    bit for bit; one weight off 1.0 takes the weighted path."""
    rng = np.random.default_rng(5)
    t, m, w, starts = make_segments(rng, nseg=60)
    extractor = FeatureExtractor(
        [REGISTRY[k]() for k in ("mean", "weighted_mean", "linear_trend", "linear_fit")]
    )
    out = GroupedSuite(extractor).eval(t, m, np.ones_like(m), starts)
    np.testing.assert_array_equal(out["weighted_mean"], out["mean"])
    np.testing.assert_array_equal(out["linear_fit_slope"], out["linear_trend"])
    assert SegmentContext(t, m, np.ones_like(m), starts).unit_w
    assert not SegmentContext(t, m, _weights(w, "one_two"), starts).unit_w


def test_full_suite_together():
    rng = np.random.default_rng(123)
    t, m, w, starts = make_segments(rng, nseg=100)
    extractor = FeatureExtractor([REGISTRY[k]() for k in SIMPLE_KINDS])
    out = GroupedSuite(extractor).eval(t, m, w, starts)
    assert set(out.keys()) == set(extractor.names())
    for name, col in out.items():
        assert col.shape == (100,), name


def test_integer_values_and_ties():
    # text-length-like integer magnitudes with many ties
    rng = np.random.default_rng(7)
    nseg = 30
    sizes = rng.integers(1, 50, nseg)
    m = np.concatenate([rng.integers(0, 5, s).astype(float) for s in sizes])
    t = np.concatenate([np.sort(rng.random(s)) * 60 for s in sizes])
    w = np.ones_like(m)
    starts = np.r_[0, np.cumsum(sizes)[:-1]].astype(np.int64)
    extractor = FeatureExtractor([REGISTRY[k]() for k in SIMPLE_KINDS])
    fast = GroupedSuite(extractor).eval(t, m, w, starts)
    ctx = SegmentContext(t, m, w, starts)
    for feature in extractor.features:
        cols = _loop_eval(ctx, feature, np.nan)
        for name, col_loop in zip(feature.names, cols):
            col_fast = fast[name]
            both = ~(np.isnan(col_fast) | np.isnan(col_loop))
            np.testing.assert_array_equal(
                np.isnan(col_fast), np.isnan(col_loop), err_msg=name
            )
            np.testing.assert_allclose(
                col_fast[both], col_loop[both], rtol=1e-9, atol=1e-10, err_msg=name
            )
