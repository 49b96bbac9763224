"""Gorilla time-series compression (engine-side design; no reference
counterpart — see Pelkonen et al., "Gorilla: A Fast, Scalable, In-Memory
Time Series Database", VLDB 2015, and Chimp (VLDB 2022) in PAPERS.md).

Encodes one bucket's raw (ts, value) points into a compact byte string
stored in an Arrow ``binary`` column:

- timestamps: first value as raw int64 (units decided by caller, typically
  microseconds), then delta-of-delta with the classic Gorilla control codes
  {'0': dod=0, '10': 7-bit, '110': 9-bit, '1110': 12-bit, '11110': 32-bit,
  '11111': 64-bit raw} (signed offsets, zigzag-free bias encoding).
- values: first float64 as raw 64 bits, then XOR with the previous value:
  '0' if identical; '10' + meaningful bits if the leading/trailing-zero
  window of the previous XOR still fits; '11' + 5-bit leading-zero count +
  6-bit length + bits otherwise.

The encoder is vectorized: each point maps to a (payload, bit-length) token
pair computed with numpy; tokens are materialized through a bit matrix and
``np.packbits``. The decoder reads tokens with shifts of a big-endian Python
int over a window of the blob, one call per blob (decode is off the rollup
hot path: the tier cascade computes holistic features from in-memory raw
points; readers and the incremental update decode).
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

_DOD_RANGES = (
    (7, 0b10, 2, 63),  # 7-bit payload, prefix '10'
    (9, 0b110, 3, 255),  # 9-bit payload, prefix '110'
    (12, 0b1110, 4, 2047),  # 12-bit payload, prefix '1110'
    (32, 0b11110, 5, (1 << 31) - 1),  # 32-bit payload, prefix '11110'
)


def _pack_tokens(payloads: np.ndarray, nbits: np.ndarray) -> np.ndarray:
    """Concatenate variable-length big-endian bitfields into a byte array.

    payloads: uint64 array (values < 2**nbits), nbits: int array (0..64).
    Vectorized via a (n_tokens x 64) bit matrix + mask + packbits.
    """
    n = payloads.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.uint8)
    max_bits = int(nbits.max())
    shifts = np.arange(max_bits - 1, -1, -1, dtype=np.uint64)
    # bit j of token i (MSB first within the token's nbits[i] window)
    mat = (payloads[:, None] >> np.minimum(shifts[None, :], 63)) & 1
    # For tokens with nbits < max_bits the leading columns must be dropped:
    # column j belongs to token i iff j >= max_bits - nbits[i]
    keep = np.arange(max_bits)[None, :] >= (max_bits - nbits[:, None])
    bits = mat[keep].astype(np.uint8)  # flattened in token order
    return np.packbits(bits)


def _bias_encode(dod: np.ndarray, bits: int) -> np.ndarray:
    """Map signed delta-of-delta into an unsigned payload of `bits` bits
    (value + 2^(bits-1), classic Gorilla bias)."""
    return (dod + (1 << (bits - 1))).astype(np.uint64)


def encode(ts: np.ndarray, values: np.ndarray) -> bytes:
    """Encode parallel int64 timestamps + float64 values."""
    ts = np.ascontiguousarray(ts, dtype=np.int64)
    values = np.ascontiguousarray(values, dtype=np.float64)
    n = ts.shape[0]
    header = np.empty(2, dtype=np.uint64)
    header[0] = np.uint64(n)
    if n == 0:
        return header[:1].byteswap().tobytes()

    tokens_payload: list[np.ndarray] = []
    tokens_bits: list[np.ndarray] = []

    def emit(payload: np.ndarray, nbits: np.ndarray):
        tokens_payload.append(payload.astype(np.uint64))
        tokens_bits.append(nbits.astype(np.int64))

    # ---- header: count, first ts, first value (raw 64-bit) ----
    emit(np.array([n], dtype=np.uint64), np.array([64]))
    emit(ts[:1].view(np.uint64), np.array([64]))
    emit(values[:1].view(np.uint64), np.array([64]))

    # ---- timestamps: delta-of-delta tokens ----
    if n > 1:
        deltas = np.diff(ts)
        dod = np.empty(n - 1, dtype=np.int64)
        dod[0] = deltas[0]  # first delta encoded as dod against implicit 0
        dod[1:] = deltas[1:] - deltas[:-1]
        t_payload = np.zeros(n - 1, dtype=np.uint64)
        t_bits = np.zeros(n - 1, dtype=np.int64)
        done = dod == 0
        t_bits[done] = 1  # single '0' bit, payload 0
        for pbits, prefix, plen, lim in _DOD_RANGES:
            sel = (~done) & (np.abs(dod) <= lim)
            if sel.any():
                t_payload[sel] = (np.uint64(prefix) << np.uint64(pbits)) | _bias_encode(
                    dod[sel], pbits
                )
                t_bits[sel] = plen + pbits
                done |= sel
        rest = ~done
        if rest.any():
            t_payload[rest] = (np.uint64(0b11111) << np.uint64(59)) | (
                dod[rest].view(np.uint64) >> np.uint64(5)
            )
            # 64-bit raw doesn't fit prefix+payload in one uint64 token;
            # split: token A = prefix(5) + top 59 bits, token B = low 5 bits
            emitted_low = dod[rest].view(np.uint64) & np.uint64(0x1F)
            t_bits[rest] = 64
            # interleave requires order preservation: build combined arrays
            # by expanding below instead
            idx = np.flatnonzero(rest)
            payload2 = np.zeros(n - 1, dtype=np.uint64)
            bits2 = np.zeros(n - 1, dtype=np.int64)
            payload2[idx] = emitted_low
            bits2[idx] = 5
            # stack (token, extra-token) pairs in point order
            t_payload = np.column_stack([t_payload, payload2]).reshape(-1)
            t_bits = np.column_stack([t_bits, bits2]).reshape(-1)
        emit(t_payload, t_bits)

    # ---- values: XOR tokens ----
    if n > 1:
        bits_v = values.view(np.uint64)
        xor = bits_v[1:] ^ bits_v[:-1]
        # leading/trailing zero counts of each xor
        lead = np.zeros(n - 1, dtype=np.int64)
        trail = np.zeros(n - 1, dtype=np.int64)
        nz = xor != 0
        if nz.any():
            x = xor[nz]
            # exact leading zeros via binary bit scan on uint64
            hb = np.zeros(x.shape[0], dtype=np.int64)
            v = x.copy()
            for shift in (32, 16, 8, 4, 2, 1):
                m = v >= (np.uint64(1) << np.uint64(shift))
                hb[m] += shift
                v[m] >>= np.uint64(shift)
            lead[nz] = 63 - hb
            # trailing zeros
            low = (x & (~x + np.uint64(1))).astype(np.uint64)  # lowest set bit
            tb = np.zeros(x.shape[0], dtype=np.int64)
            v = low.copy()
            for shift in (32, 16, 8, 4, 2, 1):
                m = v >= (np.uint64(1) << np.uint64(shift))
                tb[m] += shift
                v[m] >>= np.uint64(shift)
            trail[nz] = tb
        # clamp leading to 31 (5-bit field)
        lead = np.minimum(lead, 31)

        # sequential window-reuse decision is inherently serial; emulate the
        # simpler variant: always emit control '11' with explicit window for
        # non-zero xor, '0' for zero xor. This stays within the Gorilla
        # format family (it is the encoder's choice of when to reuse) and
        # keeps encode fully vectorized.
        v_payload = np.zeros(n - 1, dtype=np.uint64)
        v_bits = np.ones(n - 1, dtype=np.int64)  # '0' for identical
        if nz.any():
            mlen = 64 - lead[nz] - trail[nz]  # meaningful bits, >= 1
            meaningful = xor[nz] >> trail[nz].astype(np.uint64)
            # token: '11' + 5-bit lead + 6-bit (mlen-1) + meaningful bits
            head = (
                (np.uint64(0b11) << np.uint64(11))
                | (lead[nz].astype(np.uint64) << np.uint64(6))
                | (mlen - 1).astype(np.uint64)
            )
            total_bits = 13 + mlen
            fits = total_bits <= 64
            payload = np.zeros(nz.sum(), dtype=np.uint64)
            payload[fits] = (head[fits] << mlen[fits].astype(np.uint64)) | meaningful[
                fits
            ]
            v_payload_nz_bits = np.where(fits, total_bits, 13)
            idx = np.flatnonzero(nz)
            v_payload[idx[fits]] = payload[fits]
            v_bits[idx] = v_payload_nz_bits
            # oversized tokens (13 + mlen > 64): emit head and meaningful
            # bits as a second token
            if (~fits).any():
                v_payload[idx[~fits]] = head[~fits]
                payload2 = np.zeros(n - 1, dtype=np.uint64)
                bits2 = np.zeros(n - 1, dtype=np.int64)
                payload2[idx[~fits]] = meaningful[~fits]
                bits2[idx[~fits]] = mlen[~fits]
                v_payload = np.column_stack([v_payload, payload2]).reshape(-1)
                v_bits = np.column_stack([v_bits, bits2]).reshape(-1)
        emit(v_payload, v_bits)

    payloads = np.concatenate(tokens_payload)
    nbits = np.concatenate(tokens_bits)
    keep = nbits > 0
    return _pack_tokens(payloads[keep], nbits[keep]).tobytes()


def _dod_tokens(dod: np.ndarray):
    """Delta-of-delta tokens: returns (payload, nbits, payload2, nbits2)
    where the second token is nonempty only for 64-bit raw escapes."""
    n = dod.shape[0]
    payload = np.zeros(n, dtype=np.uint64)
    nbits = np.zeros(n, dtype=np.int64)
    payload2 = np.zeros(n, dtype=np.uint64)
    nbits2 = np.zeros(n, dtype=np.int64)
    done = dod == 0
    nbits[done] = 1
    for pbits, prefix, plen, lim in _DOD_RANGES:
        sel = (~done) & (np.abs(dod) <= lim)
        if sel.any():
            payload[sel] = (np.uint64(prefix) << np.uint64(pbits)) | _bias_encode(
                dod[sel], pbits
            )
            nbits[sel] = plen + pbits
            done |= sel
    rest = ~done
    if rest.any():
        payload[rest] = (np.uint64(0b11111) << np.uint64(59)) | (
            dod[rest].view(np.uint64) >> np.uint64(5)
        )
        nbits[rest] = 64
        payload2[rest] = dod[rest].view(np.uint64) & np.uint64(0x1F)
        nbits2[rest] = 5
    return payload, nbits, payload2, nbits2


def _xor_tokens(xor: np.ndarray):
    """XOR value tokens (same return shape as _dod_tokens)."""
    n = xor.shape[0]
    payload = np.zeros(n, dtype=np.uint64)
    nbits = np.ones(n, dtype=np.int64)  # '0' for identical
    payload2 = np.zeros(n, dtype=np.uint64)
    nbits2 = np.zeros(n, dtype=np.int64)
    nz = xor != 0
    if not nz.any():
        return payload, nbits, payload2, nbits2
    x = xor[nz]
    hb = np.zeros(x.shape[0], dtype=np.int64)
    v = x.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        msk = v >= (np.uint64(1) << np.uint64(shift))
        hb[msk] += shift
        v[msk] >>= np.uint64(shift)
    lead = np.minimum(63 - hb, 31)
    low = (x & (~x + np.uint64(1))).astype(np.uint64)
    tb = np.zeros(x.shape[0], dtype=np.int64)
    v = low.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        msk = v >= (np.uint64(1) << np.uint64(shift))
        tb[msk] += shift
        v[msk] >>= np.uint64(shift)
    trail = tb
    mlen = 64 - lead - trail
    meaningful = x >> trail.astype(np.uint64)
    head = (
        (np.uint64(0b11) << np.uint64(11))
        | (lead.astype(np.uint64) << np.uint64(6))
        | (mlen - 1).astype(np.uint64)
    )
    total_bits = 13 + mlen
    fits = total_bits <= 64
    idx = np.flatnonzero(nz)
    p = np.zeros(x.shape[0], dtype=np.uint64)
    p[fits] = (head[fits] << mlen[fits].astype(np.uint64)) | meaningful[fits]
    payload[idx[fits]] = p[fits]
    nbits[idx] = np.where(fits, total_bits, 13)
    if (~fits).any():
        payload[idx[~fits]] = head[~fits]
        payload2[idx[~fits]] = meaningful[~fits]
        nbits2[idx[~fits]] = mlen[~fits]
    return payload, nbits, payload2, nbits2


def _encode_segments_raw(ts: np.ndarray, values: np.ndarray, starts: np.ndarray):
    """Vectorized multi-segment encode core.

    Returns ``(data, seg_byte_start, seg_nbytes)`` where segment i's bytes
    are ``data[seg_byte_start[i] : seg_byte_start[i] + seg_nbytes[i]]`` and
    segments are contiguous (``data`` holds exactly ``sum(seg_nbytes)``
    bytes). Byte-identical to calling :func:`encode` per segment.

    Token destinations are computed arithmetically (header(3) + 2 tokens
    per ts pair + 2 per value pair, zero-length tokens are bit-layout
    no-ops), so there is no sort and no per-segment Python anywhere.
    """
    ts = np.ascontiguousarray(ts, dtype=np.int64)
    values = np.ascontiguousarray(values, dtype=np.float64)
    starts = np.ascontiguousarray(starts, dtype=np.int64)
    npts = ts.shape[0]
    nseg = starts.shape[0]
    if nseg == 0:
        return (
            np.zeros(0, dtype=np.uint8),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )
    ends = np.r_[starts[1:], npts]
    counts = ends - starts
    seg_id = np.repeat(np.arange(nseg), counts)

    # ---- pair-level tokens (position p describes pair (p, p+1)) ----
    valid = np.zeros(npts, dtype=bool)
    valid[:-1] = seg_id[1:] == seg_id[:-1] if npts > 1 else False
    pair_idx = np.flatnonzero(valid)  # positions of valid pairs, seg order
    deltas = np.zeros(npts, dtype=np.int64)
    if npts > 1:
        deltas[:-1] = ts[1:] - ts[:-1]
    # dod: first pair of each segment is delta vs implicit 0
    prev_valid = np.zeros(npts, dtype=bool)
    prev_valid[1:] = valid[:-1]
    dod_all = np.where(prev_valid, deltas - np.r_[0, deltas[:-1]], deltas)
    dod = dod_all[pair_idx]
    bits_v = values.view(np.uint64)
    xor = np.zeros(npts, dtype=np.uint64)
    if npts > 1:
        xor[:-1] = bits_v[1:] ^ bits_v[:-1]
    xor = xor[pair_idx]

    tp1, tb1, tp2, tb2 = _dod_tokens(dod)
    vp1, vb1, vp2, vb2 = _xor_tokens(xor)
    pair_seg = seg_id[pair_idx]
    npairs = pair_seg.shape[0]

    # ---- token layout per segment:
    # [count, first_ts, first_val] + [tsA, tsB]*pairs + [valA, valB]*pairs
    # (B tokens are the 64-bit escape continuations; nbits=0 when unused —
    # a zero-length token occupies no bits and needs no filtering)
    pairs_per_seg = np.bincount(pair_seg, minlength=nseg)
    tok_per_seg = 3 + 4 * pairs_per_seg
    seg_tok_start = np.r_[0, np.cumsum(tok_per_seg)[:-1]]
    total_tokens = int(tok_per_seg.sum())

    payloads = np.zeros(total_tokens, dtype=np.uint64)
    nbits = np.zeros(total_tokens, dtype=np.int64)
    hdr = (seg_tok_start[:, None] + np.arange(3)[None, :]).reshape(-1)
    hdr_payload = np.empty(3 * nseg, dtype=np.uint64)
    hdr_payload[0::3] = counts.astype(np.uint64)
    hdr_payload[1::3] = ts[starts].view(np.uint64)
    hdr_payload[2::3] = values[starts].view(np.uint64)
    payloads[hdr] = hdr_payload
    nbits[hdr] = 64
    if npairs:
        pair_seg_start = np.r_[0, np.cumsum(pairs_per_seg)[:-1]]
        local = np.arange(npairs) - pair_seg_start[pair_seg]
        base = seg_tok_start[pair_seg]
        ts_dest = base + 3 + 2 * local
        payloads[ts_dest] = tp1
        nbits[ts_dest] = tb1
        payloads[ts_dest + 1] = tp2
        nbits[ts_dest + 1] = tb2
        v_dest = base + 3 + 2 * pairs_per_seg[pair_seg] + 2 * local
        payloads[v_dest] = vp1
        nbits[v_dest] = vb1
        payloads[v_dest + 1] = vp2
        nbits[v_dest + 1] = vb2

    # ---- global bit materialization with per-segment byte alignment ----
    token_bit_start = np.r_[0, np.cumsum(nbits)[:-1]]
    seg_bit_start = token_bit_start[seg_tok_start]
    seg_bits = np.r_[seg_bit_start[1:], int(nbits.sum())] - seg_bit_start
    seg_nbytes = (seg_bits + 7) // 8
    seg_byte_start = np.r_[0, np.cumsum(seg_nbytes)[:-1]]
    segs = np.repeat(np.arange(nseg), tok_per_seg)

    # padded start bit of every token (segment byte alignment applied)
    token_padded_start = (
        seg_byte_start[segs] * 8 + token_bit_start - seg_bit_start[segs]
    )
    # word-level materialization: each <=64-bit token lands in 1-2 big-endian
    # uint64 words; tokens are position-sorted, so contributions per word
    # combine with one bitwise_or.reduceat (no per-bit arrays)
    total_words = (int(seg_nbytes.sum()) + 7) // 8 + 1
    words = np.zeros(total_words, dtype=np.uint64)
    w = token_padded_start >> 6
    o = (token_padded_start & 63).astype(np.uint64)
    end = o + nbits.astype(np.uint64)
    first_fits = end <= 64
    sh1 = np.where(first_fits, (64 - end) & np.uint64(63), (end - 64) & np.uint64(63))
    part1 = np.where(
        first_fits,
        payloads << sh1,
        payloads >> sh1,
    )
    # edge: end == 64 exactly -> shift 0 (covered by & 63 since 64-end == 0)

    def or_scatter(dst, idx, vals):
        # idx is non-decreasing; OR equal-index runs via reduceat
        runs = np.flatnonzero(np.r_[True, idx[1:] != idx[:-1]])
        combined = np.bitwise_or.reduceat(vals, runs)
        dst[idx[runs]] |= combined

    or_scatter(words, w, part1)
    spill = ~first_fits
    if spill.any():
        sh2 = (np.uint64(128) - end[spill]) & np.uint64(63)
        part2 = payloads[spill] << sh2
        or_scatter(words, w[spill] + 1, part2)
    out_bytes = words.view(np.uint8).reshape(-1, 8)[:, ::-1].reshape(-1)
    total = int(seg_nbytes.sum())
    return out_bytes[:total], seg_byte_start, seg_nbytes


def encode_segments(ts: np.ndarray, values: np.ndarray, starts: np.ndarray):
    """Encode many contiguous segments at once; byte-identical to calling
    :func:`encode` per segment (list-of-bytes convenience wrapper around
    :func:`_encode_segments_raw`)."""
    data, seg_byte_start, seg_nbytes = _encode_segments_raw(ts, values, starts)
    return [
        data[seg_byte_start[i] : seg_byte_start[i] + seg_nbytes[i]].tobytes()
        for i in range(seg_byte_start.shape[0])
    ]


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
#: refill when fewer bits than this are left in the window (one point's
#: longest timestamp token is 69 bits, its longest value token 77)
_REFILL_BITS = 160


def decode(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Decode back to (int64 timestamps, float64 values).

    Bits are read with shifts of a big-endian Python int over a window of
    the blob (zero-padded so a read never runs past the end). Timestamps
    accumulate modulo 2**64, the inverse of the encoder's wrapping int64
    deltas, so any int64 series round-trips."""
    buf = bytes(data) + bytes(_REFILL_BITS // 8)

    def window(pos: int) -> tuple[int, int]:
        """The window starting at the byte holding bit ``pos``, and the
        bit offset just past it."""
        first = pos // 8
        chunk = buf[first : first + _WINDOW_BYTES]
        return int.from_bytes(chunk, "big"), (first + len(chunk)) * 8

    word, end = window(0)
    n = word >> (end - 64)
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    pos = 192
    head = (word >> (end - pos)) & ((1 << 128) - 1)
    t, v = head >> 64, head & _MASK64
    ts, vals = [t] * n, [v] * n
    delta = 0
    for i in range(1, n):
        if end - pos < _REFILL_BITS:
            word, end = window(pos)
        ctl = (word >> (end - pos - 5)) & 31
        if ctl < 16:  # '0': delta unchanged
            pos += 1
        elif ctl < 24:  # '10' + 7 bits
            pos += 9
            delta += ((word >> (end - pos)) & 0x7F) - (1 << 6)
        elif ctl < 28:  # '110' + 9 bits
            pos += 12
            delta += ((word >> (end - pos)) & 0x1FF) - (1 << 8)
        elif ctl < 30:  # '1110' + 12 bits
            pos += 16
            delta += ((word >> (end - pos)) & 0xFFF) - (1 << 11)
        elif ctl == 30:  # '11110' + 32 bits
            pos += 37
            delta += ((word >> (end - pos)) & 0xFFFFFFFF) - (1 << 31)
        else:  # '11111' + raw 64 bits (two's complement: mod 2**64 as is)
            pos += 69
            delta += (word >> (end - pos)) & _MASK64
        t = (t + delta) & _MASK64
        ts[i] = t
    for i in range(1, n):
        if end - pos < _REFILL_BITS:
            word, end = window(pos)
        ctl = (word >> (end - pos - 13)) & 0x1FFF
        if ctl >> 12:  # '11' + 5-bit lead + 6-bit (length - 1) + bits
            if ctl >> 11 != 0b11:
                raise ValueError("corrupt Gorilla blob: expected a '11' XOR window")
            mlen = (ctl & 63) + 1
            pos += 13 + mlen
            v ^= ((word >> (end - pos)) & ((1 << mlen) - 1)) << (
                64 - ((ctl >> 6) & 31) - mlen
            )
        else:  # '0': same value
            pos += 1
        vals[i] = v
    return (
        np.array(ts, dtype=np.uint64).view(np.int64),
        np.array(vals, dtype=np.uint64).view(np.float64),
    )
