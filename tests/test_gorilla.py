"""Gorilla codec round-trip property tests (FIXTURES.md §E)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from light_curve_feature_ray.codec import decode, encode


def roundtrip(ts, values):
    ts = np.asarray(ts, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    blob = encode(ts, values)
    ts2, v2 = decode(blob)
    np.testing.assert_array_equal(ts, ts2)
    np.testing.assert_array_equal(
        values.view(np.uint64), v2.view(np.uint64)
    )  # bit-exact, incl. NaN payloads
    return blob


def test_empty():
    blob = encode(np.array([], dtype=np.int64), np.array([]))
    ts, v = decode(blob)
    assert ts.size == 0 and v.size == 0


def test_single_point():
    roundtrip([1_700_000_000_000_000], [42.5])


def test_regular_cadence_compresses_well():
    n = 1000
    ts = 1_700_000_000_000_000 + 60_000_000 * np.arange(n, dtype=np.int64)
    values = np.full(n, 17.25)
    blob = roundtrip(ts, values)
    # constant cadence + constant value: ~2 bits/point
    assert len(blob) < 24 + n // 2


def test_irregular_cadence():
    rng = np.random.default_rng(7)
    ts = np.cumsum(rng.integers(1, 10_000_000, size=500)).astype(np.int64)
    values = rng.normal(100.0, 5.0, size=500)
    roundtrip(ts, values)


def test_large_jumps_and_negatives():
    ts = np.array([0, 1, 10**15, 10**15 + 1, 2 * 10**15], dtype=np.int64)
    values = np.array([-1e300, 1e-300, 0.0, -0.0, np.inf])
    roundtrip(ts, values)


def test_nan_payload_preserved():
    ts = np.arange(3, dtype=np.int64)
    values = np.array([1.0, np.nan, 1.0])
    blob = encode(ts, values)
    _, v = decode(blob)
    assert np.isnan(v[1]) and v[0] == v[2] == 1.0


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-(2**40), max_value=2**40),
            st.floats(allow_nan=False, width=64),
        ),
        min_size=1,
        max_size=200,
    )
)
def test_roundtrip_property(pairs):
    ts = np.sort(np.array([p[0] for p in pairs], dtype=np.int64))
    values = np.array([p[1] for p in pairs])
    roundtrip(ts, values)


def test_int64_wrapping_deltas():
    # deltas between these overflow int64; the encoder's wrapping
    # arithmetic must be undone exactly
    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    roundtrip([lo, hi, 0, lo + 1, hi - 1, -1], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    rng = np.random.default_rng(3)
    for _ in range(50):
        ts = rng.integers(lo, hi, size=int(rng.integers(2, 8)), dtype=np.int64)
        roundtrip(ts, rng.normal(size=ts.size))


def test_long_blob_every_token_class():
    # thousands of points cross the decoder's read windows many times and
    # mix every delta-of-delta class with long (>51-bit) XOR windows
    rng = np.random.default_rng(11)
    n = 5000
    steps = rng.choice(
        [0, 1, 40, 200, 1500, 10**9, 10**17], size=n, p=[0.3, 0.2, 0.1, 0.1, 0.1, 0.1, 0.1]
    )
    ts = np.cumsum(steps * rng.choice([1, -1], size=n)).astype(np.int64)
    values = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    values[rng.random(n) < 0.2] = 1.5
    roundtrip(ts, values)


def _reference_decode(blob: bytes):
    """Plain bit-string walk of the format (the test's reference decoder)."""
    bits = "".join(f"{b:08b}" for b in blob)
    pos = 0

    def take(k):
        nonlocal pos
        pos += k
        return int(bits[pos - k : pos], 2)

    n = take(64)
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    ts, vals = [take(64)], [take(64)]
    delta = 0
    for _ in range(1, n):
        ones = 0
        while ones < 5 and take(1):
            ones += 1
        if ones == 5:
            dod = take(64)
        elif ones:
            width = (7, 9, 12, 32)[ones - 1]
            dod = take(width) - (1 << (width - 1))
        else:
            dod = 0
        delta += dod
        ts.append((ts[-1] + delta) % (1 << 64))
    for _ in range(1, n):
        if take(1) == 0:
            vals.append(vals[-1])
            continue
        assert take(1) == 1
        lead, mlen = take(5), take(6) + 1
        vals.append(vals[-1] ^ (take(mlen) << (64 - lead - mlen)))
    return (
        np.array(ts, dtype=np.uint64).view(np.int64),
        np.array(vals, dtype=np.uint64).view(np.float64),
    )


def test_decode_matches_reference_walk():
    rng = np.random.default_rng(5)
    for size in [0, 1, 2, 3, 17, 700]:
        for _ in range(5):
            steps = rng.choice([0, 3, 200, 3000, 10**8, 2**62], size=size)
            ts = np.cumsum(steps).astype(np.int64)
            values = rng.normal(size=size) * 10.0 ** rng.integers(-50, 50, size=size)
            values[rng.random(size) < 0.3] = 2.0
            blob = encode(ts, values)
            got, want = decode(blob), _reference_decode(blob)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1].view(np.uint64), want[1].view(np.uint64))
