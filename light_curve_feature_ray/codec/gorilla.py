"""Gorilla time-series compression (engine-side design; no reference
counterpart — see Pelkonen et al., "Gorilla: A Fast, Scalable, In-Memory
Time Series Database", VLDB 2015, and Chimp (VLDB 2022) in PAPERS.md).

Encodes one bucket's raw (ts, value) points into a compact byte string
stored in an Arrow ``binary`` column. Format version 2
(:data:`FORMAT_VERSION`), built from two token kinds:

- a *delta-of-delta token* holds a signed integer with the classic
  Gorilla control codes {'0': 0, '10': 7-bit, '110': 9-bit, '1110':
  12-bit, '11110': 32-bit, '11111': 64-bit raw} (payloads biased by half
  their range);
- an *XOR token* holds the XOR of two 64-bit words: '0' if it is zero,
  otherwise '11' + 5-bit leading-zero count (capped at 31) + 6-bit
  (length - 1) + the meaningful bits.

A series of ``n`` points is the empty blob ``b""`` for ``n == 0``;
otherwise it is, in order: ``n - 1`` as one delta-of-delta token; the
first timestamp and the first value's bits, each as one XOR token
against 0; one delta-of-delta token per further timestamp (the first
delta counts against an implicit 0); one XOR token per further value
against the previous one. Each blob is zero-padded to a whole byte.

Blobs are self-describing: :func:`decode` needs nothing but the blob —
no count, bucket or row context from outside it. Short series are the
common case (1m buckets hold ~1.8 points), so the header uses the same
variable-length tokens as the body instead of raw 64-bit words.

There is one encoder: :func:`_encode_segments_raw` encodes many series
at once with numpy (every field becomes one token of <= 64 bits, plus a
continuation token for the rare longer ones, and tokens are OR-ed into
big-endian 64-bit words); :func:`encode` is its one-segment call, so the
scalar and the batched blobs are byte-identical by construction. The
decoder reads tokens with shifts of a big-endian Python int over a
window of the blob, one call per blob (decode is off the rollup hot
path: the tier cascade computes holistic features from in-memory raw
points; readers and the incremental update decode).
"""

from __future__ import annotations

import numpy as np

#: recorded in ``RollupConfig.to_dict()`` (checkpoint lineage): a store
#: written with another format version is refused, never decoded
FORMAT_VERSION = 2

_MASK64 = (1 << 64) - 1

#: delta-of-delta classes: (payload bits, prefix, prefix bits, max |value|)
_DOD_RANGES = (
    (7, 0b10, 2, 63),
    (9, 0b110, 3, 255),
    (12, 0b1110, 4, 2047),
    (32, 0b11110, 5, (1 << 31) - 1),
)
# per class index (0: the '0' token, 1-4: _DOD_RANGES, 5: the raw escape,
# whose fields are set separately)
_DOD_LIMS = np.array([0] + [r[3] for r in _DOD_RANGES], dtype=np.uint64)
_DOD_PBITS = np.array([0] + [r[0] for r in _DOD_RANGES] + [0], dtype=np.uint64)
_DOD_PREFIX = np.array([0] + [r[1] << r[0] for r in _DOD_RANGES] + [0], dtype=np.uint64)
_DOD_NBITS = np.array([1] + [r[0] + r[2] for r in _DOD_RANGES] + [64], dtype=np.int64)


def _dod_tokens(dod: np.ndarray):
    """Delta-of-delta tokens of int64 values: ``(payload, nbits, payload2,
    nbits2)``, where the second token is nonempty only for the 64-bit raw
    escape ('11111' + top 59 bits, then the low 5 bits)."""
    # |int64 min| wraps to itself, which reads as 2**63 unsigned
    cls = np.searchsorted(_DOD_LIMS, np.abs(dod).view(np.uint64))
    pbits = _DOD_PBITS[cls]
    # payload = prefix | (value + half range), kept to the payload's bits
    biased = dod.view(np.uint64) + ((np.uint64(1) << pbits) >> np.uint64(1))
    low = (np.uint64(1) << pbits) - np.uint64(1)
    payload = _DOD_PREFIX[cls] | (biased & low)
    nbits = _DOD_NBITS[cls]
    payload2 = np.zeros(dod.shape[0], dtype=np.uint64)
    nbits2 = np.zeros(dod.shape[0], dtype=np.int64)
    raw = cls == len(_DOD_RANGES) + 1
    if raw.any():
        word = dod[raw].view(np.uint64)
        payload[raw] = (np.uint64(0b11111) << np.uint64(59)) | (word >> np.uint64(5))
        payload2[raw] = word & np.uint64(0x1F)
        nbits2[raw] = 5
    return payload, nbits, payload2, nbits2


def _high_bit(x: np.ndarray) -> np.ndarray:
    """Index of the highest set bit of each nonzero uint64. The float64
    cast may round up to the next power of two; the shift check undoes
    that."""
    _, exp = np.frexp(x.astype(np.float64))
    hb = np.minimum(exp - 1, 63).astype(np.uint64)
    return hb - ((x >> hb) == 0)


def _xor_tokens(xor: np.ndarray):
    """XOR tokens of uint64 words (same return shape as
    :func:`_dod_tokens`); a token longer than 64 bits is split into its
    13-bit head and a continuation with the meaningful bits."""
    n = xor.shape[0]
    nz = xor != 0
    safe = np.where(nz, xor, np.uint64(1))
    lead = np.minimum(np.uint64(63) - _high_bit(safe), np.uint64(31))
    trail = _high_bit(safe & (~safe + np.uint64(1)))  # of the lowest set bit
    mlen = np.uint64(64) - lead - trail
    meaningful = safe >> trail
    head = (np.uint64(0b11 << 11)) | (lead << np.uint64(6)) | (mlen - np.uint64(1))
    fits = mlen <= np.uint64(51)  # 13 + mlen <= 64
    payload = np.where(fits, (head << (mlen & np.uint64(63))) | meaningful, head)
    payload[~nz] = 0
    nbits = np.where(fits, 13 + mlen.astype(np.int64), 13)
    nbits[~nz] = 1
    payload2 = np.zeros(n, dtype=np.uint64)
    nbits2 = np.zeros(n, dtype=np.int64)
    split = nz & ~fits
    if split.any():
        payload2[split] = meaningful[split]
        nbits2[split] = mlen[split]
    return payload, nbits, payload2, nbits2


def _or_tokens(words: np.ndarray, start: np.ndarray, payload: np.ndarray, nbits: np.ndarray):
    """OR tokens (each <= 64 bits, ``start`` strictly increasing bit
    offsets) into big-endian 64-bit ``words``. A token lands in one word
    or spills into the next; contributions to one word combine with one
    ``bitwise_or.reduceat`` (no per-bit arrays)."""
    if start.shape[0] == 0:
        return
    w = start >> 6
    end = (start & 63).astype(np.uint64) + nbits.astype(np.uint64)
    fits = end <= np.uint64(64)
    # shift left to the token's place, or right by what spills over
    part = np.where(
        fits,
        payload << ((np.uint64(64) - end) & np.uint64(63)),
        payload >> ((end - np.uint64(64)) & np.uint64(63)),
    )

    def or_runs(idx, vals):
        runs = np.flatnonzero(np.r_[True, idx[1:] != idx[:-1]])
        words[idx[runs]] |= np.bitwise_or.reduceat(vals, runs)

    or_runs(w, part)
    spill = ~fits
    if spill.any():
        or_runs(w[spill] + 1, payload[spill] << ((np.uint64(128) - end[spill]) & np.uint64(63)))


def _encode_segments_raw(ts: np.ndarray, values: np.ndarray, starts: np.ndarray):
    """The encoder: segment ``i`` is points ``starts[i]`` up to the next
    start (or the end).

    Returns ``(data, seg_byte_start, seg_nbytes)`` where segment i's bytes
    are ``data[seg_byte_start[i] : seg_byte_start[i] + seg_nbytes[i]]`` and
    segments are contiguous (``data`` holds exactly ``sum(seg_nbytes)``
    bytes).

    A segment of ``n > 0`` points is ``2n + 1`` slots: count, first ts,
    first value, ``n - 1`` ts and ``n - 1`` value tokens. Slot
    destinations are computed arithmetically, so there is no sort and no
    per-segment Python anywhere.
    """
    ts = np.ascontiguousarray(ts, dtype=np.int64)
    values = np.ascontiguousarray(values, dtype=np.float64)
    starts = np.ascontiguousarray(starts, dtype=np.int64)
    npts = ts.shape[0]
    nseg = starts.shape[0]
    counts = np.diff(np.r_[starts, npts])
    if npts == 0 or nseg == 0:  # no points: every segment is b""
        return np.zeros(0, dtype=np.uint8), np.zeros(nseg, dtype=np.int64), counts

    # ---- pairs (p, p + 1) inside one segment, and their dod / xor ----
    seg_id = np.repeat(np.arange(nseg), counts)
    is_head = np.zeros(npts, dtype=bool)
    is_head[starts[counts > 0]] = True
    pair = np.flatnonzero(~is_head[1:])
    delta = np.diff(ts)
    prev = np.zeros_like(delta)
    prev[1:] = delta[:-1]
    prev[is_head[:-1]] = 0  # a segment's first delta counts against 0
    dod = (delta - prev)[pair]
    bits_v = values.view(np.uint64)
    xor = (bits_v[1:] ^ bits_v[:-1])[pair]

    # ---- slot of every token ----
    full = counts > 0
    nslot = np.where(full, 2 * counts + 1, 0)
    slot0 = np.cumsum(nslot) - nslot
    head_slot = slot0[full]
    pseg = seg_id[pair]
    pair_slot = (slot0 - starts)[pseg] + 3 + pair  # the pair's ts slot
    dod_slot = np.r_[head_slot, pair_slot]
    xor_slot = np.r_[head_slot + 1, head_slot + 2, pair_slot - 1 + counts[pseg]]
    heads = starts[full]
    dp, db, dp2, db2 = _dod_tokens(np.r_[counts[full] - 1, dod])
    xp, xb, xp2, xb2 = _xor_tokens(
        np.r_[ts[heads].view(np.uint64), bits_v[heads], xor]
    )

    total_slots = int(nslot.sum())
    payload = np.empty(total_slots, dtype=np.uint64)
    slot_bits = np.empty(total_slots, dtype=np.int64)
    payload[dod_slot] = dp
    payload[xor_slot] = xp
    slot_bits[dod_slot] = db + db2
    slot_bits[xor_slot] = xb + xb2

    # ---- bit offsets, each segment padded to whole bytes ----
    csum = np.r_[0, np.cumsum(slot_bits)]
    seg_bit_start = csum[slot0]
    seg_nbytes = (csum[slot0 + nslot] - seg_bit_start + 7) >> 3
    seg_byte_start = np.cumsum(seg_nbytes) - seg_nbytes
    pad = np.repeat(seg_byte_start * 8 - seg_bit_start, nslot)
    slot_start = csum[:-1] + pad
    total = int(seg_nbytes.sum())
    words = np.zeros((total + 7) // 8 + 1, dtype=np.uint64)
    nbits = slot_bits.copy()
    nbits[dod_slot] = db
    nbits[xor_slot] = xb
    _or_tokens(words, slot_start, payload, nbits)
    # continuation tokens follow their slot's first token
    cont = np.r_[dod_slot[db2 > 0], xor_slot[xb2 > 0]]
    if cont.size:
        order = np.argsort(cont)
        _or_tokens(
            words,
            (slot_start[cont] + nbits[cont])[order],
            np.r_[dp2[db2 > 0], xp2[xb2 > 0]][order],
            np.r_[db2[db2 > 0], xb2[xb2 > 0]][order],
        )
    data = words.byteswap().view(np.uint8)[:total]
    return data, seg_byte_start, seg_nbytes


def encode(ts: np.ndarray, values: np.ndarray) -> bytes:
    """Encode parallel int64 timestamps + float64 values (one segment of
    :func:`_encode_segments_raw`)."""
    data, _, _ = _encode_segments_raw(ts, values, np.zeros(1, dtype=np.int64))
    return data.tobytes()


def encode_segments_arrow(ts: np.ndarray, values: np.ndarray, starts: np.ndarray):
    """Arrow-native variant: returns a ``pyarrow.BinaryArray`` built
    zero-copy from the packed buffer + offsets (no per-segment Python).
    This is the rollup hot path."""
    import pyarrow as pa

    data, seg_byte_start, seg_nbytes = _encode_segments_raw(ts, values, starts)
    nseg = seg_byte_start.shape[0]
    total = int(data.shape[0])
    if total >= (1 << 31):
        # explicit raise (never an assert: -O would strip it and the int32
        # offset cast below would silently wrap into corrupt slices)
        raise OverflowError(
            f"points payload of {total} bytes exceeds 32-bit binary "
            "offsets; lower num_partitions per worker or store fewer "
            "points per partition"
        )
    offsets = np.empty(nseg + 1, dtype=np.int32)
    offsets[:nseg] = seg_byte_start
    offsets[nseg] = total
    return pa.BinaryArray.from_buffers(
        pa.binary(),
        nseg,
        [None, pa.py_buffer(offsets.tobytes()), pa.py_buffer(data.tobytes())],
    )


#: bytes of the blob held in one Python int while decoding: shifts cost
#: O(window), so a long blob is walked in windows instead of one huge int
_WINDOW_BYTES = 256
#: refill when fewer bits than this are left in the window (the longest
#: delta-of-delta token is 69 bits, the longest XOR token 77)
_REFILL_BITS = 160


def _dod_read_table() -> tuple:
    """Delta-of-delta control (the next 5 bits) -> (token bits, payload
    mask, bias)."""
    table = [(1, 0, 0)] * 16  # '0'
    for pbits, _, plen, _ in _DOD_RANGES:
        table += [(plen + pbits, (1 << pbits) - 1, 1 << (pbits - 1))] * (1 << (5 - plen))
    return tuple(table + [(69, _MASK64, 0)])  # '11111' + raw 64 bits


_DOD_READ = _dod_read_table()


def _read_dod(word: int, end: int, pos: int) -> tuple[int, int]:
    """The delta-of-delta token at bit ``pos`` of ``word`` (whose last bit
    is bit ``end - 1``): (its value, the bit just past it). A raw escape
    reads as its unsigned 64-bit word."""
    step, mask, bias = _DOD_READ[(word >> (end - pos - 5)) & 31]
    pos += step
    return ((word >> (end - pos)) & mask) - bias, pos


def _read_xor(word: int, end: int, pos: int) -> tuple[int, int]:
    """The XOR token at bit ``pos``: (the 64-bit word it holds, the bit
    just past it)."""
    ctl = (word >> (end - pos - 13)) & 0x1FFF
    if not ctl >> 12:  # '0'
        return 0, pos + 1
    if ctl >> 11 != 0b11:
        raise ValueError("corrupt Gorilla blob: expected a '11' XOR window")
    mlen = (ctl & 63) + 1
    pos += 13 + mlen
    return ((word >> (end - pos)) & ((1 << mlen) - 1)) << (64 - ((ctl >> 6) & 31) - mlen), pos


def decode(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Decode back to (int64 timestamps, float64 values).

    Bits are read with shifts of a big-endian Python int over a window of
    the blob (zero-padded so a read never runs past the end). Timestamps
    accumulate modulo 2**64, the inverse of the encoder's wrapping int64
    deltas, so any int64 series round-trips."""
    if not data:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    buf = bytes(data) + bytes(_REFILL_BITS // 8)

    def window(pos: int) -> tuple[int, int]:
        """The window starting at the byte holding bit ``pos``, and the
        bit offset just past it."""
        first = pos // 8
        chunk = buf[first : first + _WINDOW_BYTES]
        return int.from_bytes(chunk, "big"), (first + len(chunk)) * 8

    # the header (<= 223 bits) fits the first window
    word, end = window(0)
    n, pos = _read_dod(word, end, 0)
    n += 1
    t, pos = _read_xor(word, end, pos)
    v, pos = _read_xor(word, end, pos)
    ts, vals = [t] * n, [v] * n
    delta = 0
    # the loops inline _read_dod / _read_xor: a call per point made long
    # blobs ~15 % slower to decode
    for i in range(1, n):
        if end - pos < _REFILL_BITS:
            word, end = window(pos)
        step, mask, bias = _DOD_READ[(word >> (end - pos - 5)) & 31]
        pos += step
        delta += ((word >> (end - pos)) & mask) - bias
        t = (t + delta) & _MASK64
        ts[i] = t
    for i in range(1, n):
        if end - pos < _REFILL_BITS:
            word, end = window(pos)
        ctl = (word >> (end - pos - 13)) & 0x1FFF
        if ctl >> 12:
            if ctl >> 11 != 0b11:
                raise ValueError("corrupt Gorilla blob: expected a '11' XOR window")
            mlen = (ctl & 63) + 1
            pos += 13 + mlen
            v ^= ((word >> (end - pos)) & ((1 << mlen) - 1)) << (64 - ((ctl >> 6) & 31) - mlen)
        else:
            pos += 1
        vals[i] = v
    return (
        np.array(ts, dtype=np.uint64).view(np.int64),
        np.array(vals, dtype=np.uint64).view(np.float64),
    )
