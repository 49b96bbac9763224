"""Gorilla codec round-trip property tests (FIXTURES.md §E)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from light_curve_feature_ray.codec import decode, encode
from light_curve_feature_ray.codec.gorilla import encode_segments_arrow


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
    assert blob == b""
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
    """Plain bit-string walk of format version 2 (the test's reference
    decoder): count - 1 as a delta-of-delta token, the first ts and the
    first value as XOR tokens against 0, then the ts tokens, then the
    value tokens, zero-padded to a whole byte."""
    if not blob:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    bits = "".join(f"{b:08b}" for b in blob)
    pos = 0

    def take(k):
        nonlocal pos
        pos += k
        assert pos <= len(bits), "token runs past the blob"
        return int(bits[pos - k : pos], 2)

    def dod_token():
        ones = 0
        while ones < 5 and take(1):
            ones += 1
        if ones == 5:
            return take(64)
        if ones:
            width = (7, 9, 12, 32)[ones - 1]
            return take(width) - (1 << (width - 1))
        return 0

    def xor_token():
        if take(1) == 0:
            return 0
        assert take(1) == 1
        lead, mlen = take(5), take(6) + 1
        return take(mlen) << (64 - lead - mlen)

    n = dod_token() + 1
    ts, vals = [xor_token()], [xor_token()]
    delta = 0
    for _ in range(1, n):
        delta += dod_token()
        ts.append((ts[-1] + delta) % (1 << 64))
    for _ in range(1, n):
        vals.append(vals[-1] ^ xor_token())
    assert len(bits) - pos < 8 and int(bits[pos:] or "0", 2) == 0, "bad padding"
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


def _assert_reference(ts, values):
    blob = roundtrip(ts, values)
    want = _reference_decode(blob)
    np.testing.assert_array_equal(want[0], np.asarray(ts, dtype=np.int64))
    np.testing.assert_array_equal(
        want[1].view(np.uint64), np.asarray(values, dtype=np.float64).view(np.uint64)
    )
    return blob


@pytest.mark.parametrize("n", [1, 2, 64, 65, 256, 257, 2048, 2049])
def test_count_boundaries(n):
    # n - 1 crosses each delta-of-delta class of the count token
    rng = np.random.default_rng(n)
    ts = 1_700_000_000_000_000 + np.cumsum(rng.integers(0, 5_000_000, size=n))
    _assert_reference(ts, rng.normal(size=n))


_NAN_PAYLOAD = np.array([0x7FF0_0000_DEAD_BEEF], dtype=np.uint64).view(np.float64)[0]


@pytest.mark.parametrize(
    "first",
    # 0.0 is the all-zero '0' token; 2**-1000 * (1 + 2**-52) has 57
    # meaningful bits, beyond the 51 that fit one token (the oversize split)
    [0.0, -0.0, np.inf, _NAN_PAYLOAD, 2.0**-1000 * (1 + 2.0**-52), 57.0],
)
def test_first_value_boundaries(first):
    for values in ([first], [first, first, 1.0], [first, 3.25, first]):
        _assert_reference([10, 20, 30][: len(values)], values)


@pytest.mark.parametrize(
    "first", [0, -1, -1_700_000_000_000_000, np.iinfo(np.int64).min, np.iinfo(np.int64).max]
)
def test_first_ts_boundaries(first):
    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    for follow in ([], [first, 7], [lo, hi], [0]):
        _assert_reference(np.array([first] + follow, dtype=np.int64), np.arange(1.0, 2 + len(follow)))


def test_dod_int64_min():
    # a delta-of-delta of exactly int64 min has |dod| == dod < 0: it must
    # take the raw escape, not the 7-bit class
    lo = np.iinfo(np.int64).min
    for ts in ([0, lo], [5, 5 + lo], [lo, 0, lo]):
        _assert_reference(np.array(ts, dtype=np.int64), np.zeros(len(ts)))


def test_encode_is_a_slice_of_the_batched_encoder():
    rng = np.random.default_rng(17)
    for _ in range(20):
        counts = rng.choice([0, 1, 2, 3, 40], size=int(rng.integers(1, 30)))
        npts = int(counts.sum())
        starts = np.cumsum(counts) - counts
        steps = rng.choice([0, 1, 60_000_000, 10**9, 2**62], size=npts)
        ts = 1_700_000_000_000_000 + np.cumsum(steps).astype(np.int64)
        values = rng.normal(size=npts) * 10.0 ** rng.integers(-30, 30, size=npts)
        values[rng.random(npts) < 0.3] = 4.0
        blobs = encode_segments_arrow(ts, values, starts).to_pylist()
        assert len(blobs) == counts.size
        for blob, a, n in zip(blobs, starts, counts):
            assert blob == encode(ts[a : a + n], values[a : a + n])


def test_single_point_size():
    # 1m buckets average < 2 points, so the header is most of the bytes:
    # count '0', a 58-bit ts token and a 29-bit value token
    blob = _assert_reference([1_700_000_000_123_456], [57.0])
    assert len(blob) <= 12


def _assert_batched(blobs, array=None):
    """``decode`` of many blobs equals the reference walk of each blob,
    concatenated; as a binary array and as a buffer with offsets."""
    import pyarrow as pa

    want = [_reference_decode(b) for b in blobs]
    want_ts = np.concatenate([np.empty(0, np.int64)] + [w[0] for w in want])
    want_v = np.concatenate([np.empty(0, np.float64)] + [w[1] for w in want])
    array = pa.array(blobs, type=pa.binary()) if array is None else array
    offsets = np.cumsum([0] + [len(b) for b in blobs])
    for ts, v in (decode(array), decode(b"".join(blobs), offsets)):
        np.testing.assert_array_equal(ts, want_ts)
        np.testing.assert_array_equal(v.view(np.uint64), want_v.view(np.uint64))


def _random_blobs(rng, nblobs, sizes=(0, 1, 2, 2, 3, 5, 17, 60)):
    blobs = []
    for _ in range(nblobs):
        size = int(rng.choice(sizes))
        steps = rng.choice([0, 1, 40, 200, 1500, 10**9, 2**62], size=size)
        ts = 1_700_000_000_000_000 + np.cumsum(steps).astype(np.int64)
        values = rng.normal(size=size) * 10.0 ** rng.integers(-300, 300, size=size)
        values[rng.random(size) < 0.3] = float(rng.integers(1, 400))
        blobs.append(encode(ts, values))
    return blobs


@pytest.mark.parametrize("seed", range(6))
def test_batched_decode_random_mixes(seed):
    # empty blobs among blobs of every length class, enough of them to run
    # lockstep rounds before the longest few finish one at a time
    rng = np.random.default_rng(seed)
    _assert_batched(_random_blobs(rng, int(rng.integers(1, 400))))


def test_batched_decode_every_token_class_and_wrapping():
    rng = np.random.default_rng(23)
    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    blobs = []
    for _ in range(60):
        n = int(rng.integers(1, 40))
        steps = rng.choice([0, 1, 40, 200, 1500, 10**9, 10**17], size=n)
        ts = np.cumsum(steps * rng.choice([1, -1], size=n)).astype(np.int64)
        values = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
        values[rng.random(n) < 0.2] = 1.5
        blobs.append(encode(ts, values))
        # deltas that overflow int64, and dods of exactly int64 min
        wrap = rng.integers(lo, hi, size=int(rng.integers(2, 30)), dtype=np.int64)
        blobs.append(encode(wrap, rng.normal(size=wrap.size)))
        blobs.append(encode(np.array([0, lo, 0, lo], dtype=np.int64), np.zeros(4)))
        blobs.append(encode(np.array([lo, hi, 0, lo + 1, hi - 1, -1]), np.arange(6.0)))
        blobs.append(b"")
    perm = rng.permutation(len(blobs))
    _assert_batched([blobs[i] for i in perm])


def test_batched_decode_sliced_and_chunked_arrays():
    import pyarrow as pa

    rng = np.random.default_rng(29)
    blobs = _random_blobs(rng, 120)
    array = pa.array(blobs, type=pa.binary())
    sliced = array.slice(37, 50)
    assert sliced.offset == 37
    _assert_batched(blobs[37:87], sliced)
    _assert_batched(blobs, pa.chunked_array([array.slice(0, 10), array.slice(10)]))
    _assert_batched([], pa.array([], type=pa.binary()))


def test_batched_decode_one_long_blob_among_short_ones():
    rng = np.random.default_rng(31)
    blobs = _random_blobs(rng, 300, sizes=(2,))
    n = 10_000
    ts = 1_700_000_000_000_000 + np.cumsum(rng.integers(0, 5_000_000, size=n))
    values = rng.normal(size=n) * 10.0 ** rng.integers(-30, 30, size=n)
    blobs.insert(150, encode(ts, values))
    _assert_batched(blobs)


def test_decode_rejects_corrupt_blobs():
    import pyarrow as pa

    def flip(blob: bytes, bit: int) -> bytes:
        return (int.from_bytes(blob, "big") ^ (1 << (8 * len(blob) - 1 - bit))).to_bytes(
            len(blob), "big"
        )

    # one point: count '0', ts 0 as '0', then the value's '11' XOR window
    # from bit 2; clearing bit 3 makes it the invalid '10'
    one = encode(np.array([0]), np.array([1.0]))
    assert flip(one, 3)[0] >> 4 == 0b0010
    # two points: the blob cut after its header, so its tokens run past it
    two = encode(np.array([0, 10**15]), np.array([1.0, 3.0]))
    many = _random_blobs(np.random.default_rng(37), 40)
    for blob, match in ((flip(one, 3), "'11' XOR window"), (two[:3], "past its end")):
        with pytest.raises(ValueError, match=match):
            decode(blob)
        with pytest.raises(ValueError, match=match):
            decode(pa.array(many + [blob], type=pa.binary()))
    # the last value token: its meaningful bits end in the blob's last 1
    values = np.array([1.0, 1.0, 3.0])
    last = encode(np.arange(3), values)
    xor = int(values[1:].view(np.uint64)[1] ^ values[1:].view(np.uint64)[0])
    mlen = xor.bit_length() - (xor & -xor).bit_length() + 1
    end = 8 * len(last) - (int.from_bytes(last, "big") & -int.from_bytes(last, "big")).bit_length()
    bad = flip(last, end + 1 - (13 + mlen) + 1)
    # walked alone, and in a lockstep round among as many of its kind
    for call in (lambda: decode(bad), lambda: decode(pa.array([bad] * 40, type=pa.binary()))):
        with pytest.raises(ValueError, match="'11' XOR window"):
            call()
