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
scalar and the batched blobs are byte-identical by construction.

There is one decoder, its mirror: :func:`decode` takes one blob or every
blob of a binary array. It reads all headers at once, then one token of
every blob per numpy round (the timestamp tokens, then the value
tokens), and rebuilds timestamps and values with per-blob running sums
and XORs. A round costs the same few numpy calls however few blobs are
still running, so the last few (the longest; a single blob is one) are
walked token by token with shifts of a big-endian Python int over a
window of the buffer. Decode is off the rollup hot path (the tier
cascade computes holistic features from in-memory raw points); the
incremental update decodes a partition's old 1m points in one call.
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




# ---------------------------------------------------------------------------
# decoder
# ---------------------------------------------------------------------------

#: bytes of the buffer held in one Python int by the scalar walk: shifts
#: cost O(window), so a long blob is walked in windows instead of one huge int
_WINDOW_BYTES = 256
#: the scalar walk refills when fewer bits than this are left in its window
#: (the longest delta-of-delta token is 69 bits, the longest XOR token 77)
_REFILL_BITS = 160
#: the lockstep hands the blobs still running to the scalar walk once this
#: few are left: a round costs ~20 numpy calls, however few blobs it reads
_LOCKSTEP_MIN = 8
#: zero bytes after the last blob, so no read of a valid token runs past
#: the buffer (>= _REFILL_BITS / 8, whole 64-bit words)
_PAD_BYTES = 24


def _dod_read_table() -> tuple:
    """Delta-of-delta control (the next 5 bits) -> (token bits, payload
    mask, bias)."""
    table = [(1, 0, 0)] * 16  # '0'
    for pbits, _, plen, _ in _DOD_RANGES:
        table += [(plen + pbits, (1 << pbits) - 1, 1 << (pbits - 1))] * (1 << (5 - plen))
    return tuple(table + [(69, _MASK64, 0)])  # '11111' + raw 64 bits


_DOD_READ = _dod_read_table()
# the same table as arrays for the lockstep; the raw escape's payload does
# not fit the 64-bit read and is read on its own (its step is 69)
_DSTEP = np.array([t[0] for t in _DOD_READ], dtype=np.int64)
_DSHIFT = np.array([max(64 - t[0], 0) for t in _DOD_READ], dtype=np.uint64)
_DMASK = np.array([t[1] for t in _DOD_READ], dtype=np.uint64)
_DBIAS = np.array([t[2] for t in _DOD_READ], dtype=np.uint64)

#: token length that marks a corrupt XOR control ('10', or a window
#: reaching past bit 64)
_CORRUPT = 1 << 20


def _xor_read_tables():
    """XOR control (the next 13 bits) -> (token bits, right shift that
    leaves the meaningful bits of the 64 after the control, left shift
    that puts them back in place)."""
    ctl = np.arange(1 << 13, dtype=np.int64)
    lead, mlen = (ctl >> 6) & 31, (ctl & 63) + 1
    window = ctl >> 11 == 0b11
    step = np.where(window, 13 + mlen, 1)
    step[(ctl >> 11 == 0b10) | (window & (lead + mlen > 64))] = _CORRUPT
    # a '0' token shifts everything out: numpy defines shifts >= 64 as 0
    cut = np.where(window, 64 - mlen, 64).astype(np.uint64)
    put = np.where(window & (step < _CORRUPT), 64 - lead - mlen, 0).astype(np.uint64)
    return step, cut, put


_XSTEP, _XCUT, _XPUT = _xor_read_tables()


def _read64(words: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """The 64 bits starting at each bit offset ``pos`` of the big-endian
    ``words`` (padded with a zero word past the last bit read)."""
    w = pos >> 6
    s = (pos & 63).view(np.uint64)
    return (words[w] << s) | (words[1:][w] >> (np.uint64(64) - s))


def _dod_tokens_at(words: np.ndarray, pos: np.ndarray):
    """The delta-of-delta tokens at bit offsets ``pos``: (their values
    modulo 2**64, their lengths)."""
    word = _read64(words, pos)
    ctl = (word >> np.uint64(59)).view(np.int64)
    step = _DSTEP[ctl]
    val = ((word >> _DSHIFT[ctl]) & _DMASK[ctl]) - _DBIAS[ctl]
    if step.max() > 64:  # raw escapes: 64 bits after '11111'
        raw = np.flatnonzero(step > 64)
        val[raw] = _read64(words, pos[raw] + 5)
    return val, step


def _xor_tokens_at(words: np.ndarray, pos: np.ndarray):
    """The XOR tokens at bit offsets ``pos``: (the 64-bit words they hold,
    their lengths)."""
    word = _read64(words, pos)
    ctl = (word >> np.uint64(51)).view(np.int64)
    step = _XSTEP[ctl]
    val = ((word << np.uint64(13)) >> _XCUT[ctl]) << _XPUT[ctl]
    if step.max() > 64:  # more than 51 meaningful bits, or corrupt
        long = np.flatnonzero(step > 64)
        if step[long].max() >= _CORRUPT:
            raise ValueError("corrupt Gorilla blob: expected a '11' XOR window")
        ctl = ctl[long]
        val[long] = (_read64(words, pos[long] + 13) >> _XCUT[ctl]) << _XPUT[ctl]
    return val, step


def _window(buf: bytes, pos: int) -> tuple[int, int]:
    """The scalar walk's window: the bytes from the one holding bit
    ``pos`` as one big-endian int, and the bit offset just past them."""
    first = pos // 8
    chunk = buf[first : first + _WINDOW_BYTES]
    return int.from_bytes(chunk, "big"), (first + len(chunk)) * 8


def _walk_dods(buf: bytes, pos: int, count: int) -> tuple[np.ndarray, int]:
    """``count`` delta-of-delta tokens from bit ``pos`` of ``buf``, one at
    a time: (their values modulo 2**64, the bit just past them)."""
    out = [0] * count
    word, end = _window(buf, pos)
    for i in range(count):
        if end - pos < _REFILL_BITS:
            word, end = _window(buf, pos)
        step, mask, bias = _DOD_READ[(word >> (end - pos - 5)) & 31]
        pos += step
        out[i] = (((word >> (end - pos)) & mask) - bias) & _MASK64
    return np.array(out, dtype=np.uint64), pos


def _walk_xors(buf: bytes, pos: int, count: int) -> tuple[np.ndarray, int]:
    """``count`` XOR tokens from bit ``pos`` of ``buf``, one at a time:
    (the words they hold, the bit just past them)."""
    out = [0] * count
    word, end = _window(buf, pos)
    for i in range(count):
        if end - pos < _REFILL_BITS:
            word, end = _window(buf, pos)
        ctl = (word >> (end - pos - 13)) & 0x1FFF
        if ctl >> 12:
            if ctl >> 11 != 0b11:
                raise ValueError("corrupt Gorilla blob: expected a '11' XOR window")
            mlen = (ctl & 63) + 1
            pos += 13 + mlen
            out[i] = ((word >> (end - pos)) & ((1 << mlen) - 1)) << (64 - ((ctl >> 6) & 31) - mlen)
        else:
            pos += 1
    return np.array(out, dtype=np.uint64), pos


def _lockstep(words, buf, pos, base, n, out, tokens_at, walk) -> None:
    """Read token ``r = 1 .. n[i] - 1`` of a run of tokens of every blob
    ``i`` into ``out[base[i] + r]``, from bit ``pos[i]`` (advanced in
    place). Blobs are sorted by ``n`` descending, so the blobs still
    running are a prefix; each round reads one token of each with numpy,
    until ``_LOCKSTEP_MIN`` or fewer are left, which finish one at a time."""
    counts = n.tolist()
    k, r = len(counts), 1
    while True:
        while k and counts[k - 1] <= r:
            k -= 1
        if k <= _LOCKSTEP_MIN:
            break
        val, step = tokens_at(words, pos[:k])
        out[base[:k] + r] = val
        pos[:k] += step
        r += 1
    for i in range(k):
        if counts[i] > r:
            out[base[i] + r : base[i] + counts[i]], pos[i] = walk(buf, int(pos[i]), counts[i] - r)


def _arrow_blobs(arr) -> tuple[np.ndarray, np.ndarray]:
    """A pyarrow binary array's (or chunked array's) data buffer and
    offsets."""
    import pyarrow as pa

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if not pa.types.is_binary(arr.type):
        raise TypeError(f"Gorilla blobs are binary, got {arr.type}")
    if arr.null_count:
        raise ValueError("a Gorilla blob is null")
    _, obuf, dbuf = arr.buffers()
    offsets = np.frombuffer(obuf, dtype=np.int32)[arr.offset : arr.offset + len(arr) + 1]
    data = np.zeros(0, np.uint8) if dbuf is None else np.frombuffer(dbuf, dtype=np.uint8)
    return data, offsets


def decode(data, offsets=None) -> tuple[np.ndarray, np.ndarray]:
    """Decode blobs back to (int64 timestamps, float64 values).

    ``decode(blob)`` decodes one blob (bytes-like). ``decode(array)``
    decodes every blob of a pyarrow binary array, and ``decode(buffer,
    offsets)`` every ``buffer[offsets[i]:offsets[i + 1]]``; both return
    the points of all blobs, concatenated in blob order (a blob's count
    is the 1m tier's ``n_points``).

    Every blob's header is read at once; then the blobs read their
    timestamp tokens, and then their value tokens, in numpy lockstep
    (one token of each blob per round), and the longest few finish with
    a scalar walk over a Python int window. Timestamps accumulate modulo
    2**64, the inverse of the encoder's wrapping int64 deltas, so any
    int64 series round-trips. A corrupt XOR control, or tokens that run
    past their blob's end, raise ``ValueError``."""
    if offsets is not None:
        buf = np.frombuffer(data, dtype=np.uint8)
    elif isinstance(data, (bytes, bytearray, memoryview)):
        buf = np.frombuffer(data, dtype=np.uint8)
        offsets = [0, buf.size]
    else:
        buf, offsets = _arrow_blobs(data)
    offsets = np.asarray(offsets, dtype=np.int64)
    lo = int(offsets[0]) if offsets.size else 0
    starts, ends = offsets[:-1] - lo, offsets[1:] - lo
    full = np.flatnonzero(ends > starts)
    if full.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    size = int(ends[-1])
    padded = np.zeros((size + 7) // 8 * 8 + _PAD_BYTES, dtype=np.uint8)
    padded[:size] = buf[lo : lo + size]
    words = padded.view(">u8").astype(np.uint64)
    start_bit, end_bit = starts[full] * 8, ends[full] * 8

    # ---- headers: count - 1, first ts, first value bits ----
    count, step = _dod_tokens_at(words, start_bit)
    pos = start_bit + step
    t0, step = _xor_tokens_at(words, pos)
    pos += step
    v0, step = _xor_tokens_at(words, pos)
    pos += step
    # each further point takes >= 2 bits: a larger count is corrupt, and
    # would otherwise allocate its points before anything else fails
    room = np.maximum(end_bit - start_bit - 3, 0) // 2
    if np.any(count > room.astype(np.uint64)):
        raise ValueError("corrupt Gorilla blob: point count exceeds the blob")
    n = count.astype(np.int64) + 1
    base = np.cumsum(n) - n
    dods = np.empty(int(n.sum()), dtype=np.uint64)
    xors = np.empty_like(dods)
    dods[base] = 0
    xors[base] = v0

    # ---- the timestamp tokens, then the value tokens ----
    order = np.argsort(-n, kind="stable")
    pos, s_base, s_n = pos[order], base[order], n[order]
    raw = padded.tobytes()
    try:
        _lockstep(words, raw, pos, s_base, s_n, dods, _dod_tokens_at, _walk_dods)
        _lockstep(words, raw, pos, s_base, s_n, xors, _xor_tokens_at, _walk_xors)
    except IndexError as err:  # a corrupt blob read past the buffer
        raise ValueError("corrupt Gorilla blob: tokens run past its end") from err
    if np.any(pos > end_bit[order]):
        raise ValueError("corrupt Gorilla blob: tokens run past its end")

    # ---- per-blob running sums: delta = sum of dods, ts = t0 + sum of
    # deltas (modulo 2**64), value = running XOR from the first value ----
    sums = np.cumsum(dods)
    delta = sums - np.repeat(sums[base], n)
    sums = np.cumsum(delta)
    ts = sums + np.repeat(t0 - sums[base], n)
    acc = np.bitwise_xor.accumulate(xors)
    vals = acc ^ np.repeat(acc[base] ^ v0, n)
    return ts.view(np.int64), vals.view(np.float64)
