"""Mergeable sketches as Ray-Data aggregates.

HyperLogLog (Flajolet et al. 2007, with the standard small-range
correction) as a distributed distinct-count: each block computes partial
REGISTER MAXIMA vectorized (one polars hash + one ``np.maximum.reduceat``
class of scatter per batch), partials merge by element-wise max through
one keyed exchange (``stages.exchange.reduce_by_key`` on the group) whose
input is tiny (one register row per (group, block)), and the estimate is
evaluated once per group. The
register-max lattice is commutative/associative/idempotent, so the result
is EXACTLY independent of partitioning, block order and retries — the
property the tests pin.

With the default ``ahash`` hasher the result is not SQL-oracle-able
(DuckDB's approx_count_distinct is a different HLL with a different
hash); the ``poly`` hasher re-derives the whole sketch — hash, register
index, rank, and estimate — in exact sub-2^63 integer arithmetic that a
DuckDB SQL oracle reproduces bit-for-bit (the driver's
``events_hll_users`` query). Accuracy is pinned by pytest against exact
counts (rel. error << 3 * 1.04/sqrt(m)) and by an exact-merge
associativity test.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..stages.exchange import reduce_by_key

_HLL_SEED = 77
# Same sub-2^48 prime as the winnow / simhash oracles (2^48 - 59): every
# intermediate of the poly hash stays < 2^63, so DuckDB BIGINT reproduces
# it bit-for-bit (see __ray_entry__.SQL_EVENTS_HLL_USERS).
_POLY_MOD = 281474976710597
_POLY_BITS = 48
# xorshift-multiply finalization rounds: the raw codepoint fold is affine
# (an arithmetic progression of ids maps to an arithmetic progression of
# hashes), which would bias the register index / rank distributions; the
# xor step makes each round nonlinear while multipliers < 2^15 keep every
# product < 2^63 (exact in both int64 and BIGINT).
_POLY_FINAL_MULTS = (25781, 13007, 30011)


def _poly_value_hashes(values) -> np.ndarray:
    """Sub-2^48 polynomial codepoint hashes of ``str(value)`` —
    deterministic AND SQL-reproducible (exact ``(acc*31 + cp) % mod``
    integer arithmetic plus xorshift-multiply finalization). Vectorized:
    one string join + utf-32 decode for the whole batch, then at most
    max-string-length folding rounds."""
    import polars as pl

    s = pl.Series("v", values).cast(pl.String).fill_null("")
    wl = s.str.len_chars().to_numpy().astype(np.int64)
    joined = "".join(s.to_list())
    cps = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32).astype(
        np.int64
    )
    starts = np.r_[0, np.cumsum(wl)[:-1]]
    acc = np.zeros(wl.shape[0], dtype=np.int64)
    for j in range(int(wl.max(initial=0))):
        has = wl > j
        acc[has] = (acc[has] * 31 + cps[starts[has] + j]) % _POLY_MOD
    for mult in _POLY_FINAL_MULTS:
        acc = ((acc ^ (acc >> 21)) * mult) % _POLY_MOD
    return acc


def _alpha(m: int) -> float:
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


def _hll_partial(values, p: int) -> np.ndarray:
    """Register maxima (length 2**p, uint8) of one batch of values."""
    import polars as pl

    m = 1 << p
    s = pl.Series("v", values).cast(pl.String).fill_null("")
    h = s.hash(seed=_HLL_SEED).to_numpy().astype(np.uint64)
    if h.shape[0] == 0:
        return np.zeros(m, dtype=np.uint8)
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = h << np.uint64(p)  # remaining 64-p bits, top-aligned
    # rank = leading zeros of the remaining bits + 1 (capped at 64-p+1)
    # vectorized leading-zero count via float64 exponent is unsafe at the
    # tails; use a log2-free loop over the 8 byte positions instead
    lz = np.full(h.shape[0], 64 - p, dtype=np.int64)
    found = np.zeros(h.shape[0], dtype=bool)
    for byte_i in range(8):
        b = ((rest >> np.uint64(56 - 8 * byte_i)) & np.uint64(0xFF)).astype(
            np.int64
        )
        nz = (~found) & (b > 0)
        if nz.any():
            # leading zeros within this byte: 8 - bit_length(b)
            bl = np.zeros(b.shape[0], dtype=np.int64)
            bb = b[nz]
            for shift in (4, 2, 1):
                hi = bb >> shift
                bl[nz] = np.where(hi > 0, bl[nz] + shift, bl[nz])
                bb = np.where(hi > 0, hi, bb)
            bl[nz] += 1  # bit_length
            lz[nz] = 8 * byte_i + (8 - bl[nz])
            found |= nz
    rank = np.minimum(lz, 64 - p) + 1
    regs = np.zeros(m, dtype=np.int64)
    np.maximum.at(regs, idx, rank)
    return regs.astype(np.uint8)


def _hll_partial_poly(values, p: int) -> np.ndarray:
    """Register maxima over the SQL-reproducible 48-bit poly hash: top
    ``p`` bits index the register, rank = leading zeros of the remaining
    ``48-p`` bits + 1 (via ``np.frexp`` — the float64 exponent is EXACT
    for integers < 2^53, and 48-p < 53)."""
    m = 1 << p
    h = _poly_value_hashes(values)
    if h.shape[0] == 0:
        return np.zeros(m, dtype=np.uint8)
    idx = h >> (_POLY_BITS - p)
    rest = h & ((np.int64(1) << (_POLY_BITS - p)) - 1)
    bitlen = np.where(rest > 0, np.frexp(rest.astype(np.float64))[1], 0)
    rank = (_POLY_BITS - p) - bitlen + 1
    regs = np.zeros(m, dtype=np.int64)
    np.maximum.at(regs, idx, rank)
    return regs.astype(np.uint8)


def _hll_estimate(regs: np.ndarray) -> float:
    m = regs.shape[0]
    est = _alpha(m) * m * m / np.sum(2.0 ** -regs.astype(np.float64))
    zeros = int(np.sum(regs == 0))
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)  # small-range (linear counting)
    return float(est)


def _hll_estimate_exact(regs: np.ndarray, p: int) -> float:
    """Estimate via exact-integer register arithmetic, bit-identical to
    the DuckDB oracle: S = sum over all m registers of 2^(R - rank)
    (R = 48-p+1, empty register rank 0) is an exact int64 on both sides
    (max m * 2^R = 2^49 < 2^53), so the single float division — and the
    libm ``log`` in the linear-counting branch — are the only float ops,
    evaluated with identical association in both engines."""
    import math

    m = regs.shape[0]
    r_max = _POLY_BITS - p + 1
    s_int = int(np.sum(np.int64(1) << (r_max - regs.astype(np.int64))))
    zeros = int(np.sum(regs == 0))
    est = 0.7213 / (1.0 + 1.079 / m) * m * m * float(2**r_max) / s_int
    if est <= 2.5 * m and zeros:
        est = float(m) * math.log(m / zeros)
    return est


# Count-Min rows: bucket_j = ((h * A_j + B_j) mod P) mod width, with the
# 48-bit poly hash h and multipliers < 2^15 so every product stays < 2^63
# — exact in int64 AND DuckDB BIGINT (the oracle re-derives the sketch).
_CMS_ROWS = ((12853, 1299721), (17291, 7919), (20201, 104729), (28087, 611953))


def _cms_buckets(h: np.ndarray, j: int, width: int) -> np.ndarray:
    a, b = _CMS_ROWS[j]
    return ((h * a + b) % _POLY_MOD) % width


def cms_sketch(ds, value_col: str, *, depth: int = 4, width: int = 4096):
    """Count-Min sketch (Cormode & Muthukrishnan 2005) of a column's value
    frequencies: a ``depth x width`` counter matrix where row ``j`` counts
    values by bucket ``((poly_hash(v) * A_j + B_j) mod P) mod width``.

    Mergeable by plain addition: each block contributes one flattened
    partial (d*w int64, ~128 KB at the defaults), tree-reduced — the
    classic sketch trade of O(depth*width) exchange regardless of row
    count, next to :func:`hll_distinct`'s register-max lattice.  Counter
    sums are commutative, so the sketch is EXACTLY independent of
    partitioning / block order / retries, and the poly hash makes every
    bucket index SQL-reproducible.

    Returns the counter matrix as a driver-side ``np.ndarray`` (it is a
    small summary, like a quantile frame — not a Dataset)."""
    if not 1 <= depth <= len(_CMS_ROWS):
        raise ValueError(f"depth must be in [1, {len(_CMS_ROWS)}]")
    dw = depth * width

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        v = batch[value_col].to_numpy()
        h = _poly_value_hashes(v)
        mat = np.zeros((depth, width), dtype=np.int64)
        for j in range(depth):
            np.add.at(mat[j], _cms_buckets(h, j, width), 1)
        return pd.DataFrame({"counts": [mat.reshape(dw)]})

    def merge(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame({"counts": []})
        return pd.DataFrame(
            {"counts": [np.sum(np.stack(list(b["counts"])), axis=0)]}
        )

    rows = (
        ds.map_batches(partial, batch_format="pandas", batch_size=None)
        .repartition(4)
        .map_batches(merge, batch_format="pandas", batch_size=None)
        .take_all()
    )
    if not rows:
        return np.zeros((depth, width), dtype=np.int64)
    return np.sum(np.stack([r["counts"] for r in rows]), axis=0).reshape(
        depth, width
    )


def cms_estimate(sketch: np.ndarray, values) -> np.ndarray:
    """Point-frequency estimates for ``values`` from a :func:`cms_sketch`
    matrix: ``min_j sketch[j][bucket_j(v)]``.  Never underestimates; the
    overestimate is bounded by ``e/width * N`` with high probability."""
    depth, width = sketch.shape
    h = _poly_value_hashes(np.asarray(values))
    ests = np.stack(
        [sketch[j][_cms_buckets(h, j, width)] for j in range(depth)]
    )
    return ests.min(axis=0)


def hll_distinct(
    ds,
    value_col: str,
    group_col: str | None = None,
    p: int = 12,
    hasher: str = "ahash",
):
    """Approximate COUNT(DISTINCT value) [per ``group_col``] via a
    2**p-register HyperLogLog. Returns (group?, approx_distinct: float).
    Only one register row per (group, block) crosses the shuffle —
    the classic sketch trade: O(groups * 2**p) exchange regardless of
    row count.

    ``hasher="ahash"`` (default): polars 64-bit hash — fast, not
    reproducible outside this process family. ``hasher="poly"``: exact
    sub-2^48 polynomial codepoint hash of ``str(value)`` with
    xorshift-multiply finalization — bit-for-bit reproducible by a DuckDB
    SQL oracle (requires ``p >= 7`` so the alpha constant is the closed
    formula on both sides)."""
    if hasher not in ("ahash", "poly"):
        raise ValueError(f"unknown hll hasher {hasher!r}")
    if hasher == "poly" and p < 7:
        raise ValueError("poly hasher requires p >= 7 (closed-form alpha)")
    _partial = _hll_partial if hasher == "ahash" else _hll_partial_poly
    _estimate = (
        _hll_estimate
        if hasher == "ahash"
        else lambda regs: _hll_estimate_exact(regs, p)
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:
            # flatnonzero(r_[True]) below would index g[0] of an empty run
            return pd.DataFrame(
                {
                    "g": pd.Series([], dtype=object),
                    "regs": pd.Series([], dtype=object),
                }
            )
        if group_col is None:
            regs = _partial(batch[value_col].to_numpy(), p)
            return pd.DataFrame({"g": ["_all"], "regs": [regs.tobytes()]})
        out_g, out_r = [], []
        # vectorized per-group partials: sort once, slice group runs
        order = np.argsort(batch[group_col].to_numpy(), kind="stable")
        g = batch[group_col].to_numpy()[order]
        v = batch[value_col].to_numpy()[order]
        bounds = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
        ends = np.r_[bounds[1:], g.shape[0]]
        for s0, s1 in zip(bounds, ends):
            out_g.append(g[s0])
            out_r.append(_partial(v[s0:s1], p).tobytes())
        return pd.DataFrame({"g": out_g, "regs": out_r})

    partials = ds.map_batches(partial, batch_format="pandas", batch_size=None)

    def merge(part: pd.DataFrame) -> pd.DataFrame:
        # every group of the part at once: one sort, one max per run
        g = part["g"].to_numpy()
        order = np.argsort(g, kind="stable")
        g = g[order]
        mat = np.stack(
            [np.frombuffer(b, dtype=np.uint8) for b in part["regs"].to_numpy()[order]]
        )
        starts = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
        regs = np.maximum.reduceat(mat, starts, axis=0)
        return pd.DataFrame(
            {"g": g[starts], "approx_distinct": [_estimate(r) for r in regs]}
        )

    out = reduce_by_key(partials, "g", merge, None, "pandas")
    if group_col is None:
        return out.map_batches(
            lambda b: b[["approx_distinct"]],
            batch_format="pandas",
            batch_size=None,
        )
    return out.map_batches(
        lambda b: b.rename(columns={"g": group_col}),
        batch_format="pandas",
        batch_size=None,
    )


# ---------------------------------------------------------------------------
# Bloom filter (Bloom 1970) — compact set membership for semi-joins whose
# key set is too large to broadcast raw but fits as bits
# ---------------------------------------------------------------------------

_BLOOM_ROWS = _CMS_ROWS  # same pairwise-independent (a, b) family


def _bloom_positions(h: np.ndarray, j: int, m_bits: int) -> np.ndarray:
    a, b = _BLOOM_ROWS[j]
    return ((h * a + b) % _POLY_MOD) % m_bits


def bloom_sketch(ds, value_col: str, *, k: int = 4, m_bits: int = 1 << 16):
    """Build a Bloom filter over a column: ``m_bits`` bits, ``k`` hash
    rows (the CMS (a, b) family over the SQL-reproducible 48-bit poly
    hash, so every bit position is BIGINT-derivable by a DuckDB twin).

    Mergeable by bitwise OR (commutative/associative/idempotent — the
    sketch is EXACTLY independent of partitioning, block order and
    retries): each block contributes one packed ``m_bits/64`` uint64
    partial (8 KB at the default), tree-reduced. Returns the packed word
    array driver-side (a small summary, like :func:`cms_sketch`)."""
    if not 1 <= k <= len(_BLOOM_ROWS):
        raise ValueError(f"k must be in [1, {len(_BLOOM_ROWS)}]")
    if m_bits < 64 or m_bits % 64:
        raise ValueError(f"m_bits must be a positive multiple of 64, got {m_bits}")
    n_words = m_bits // 64

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        v = batch[value_col].to_numpy()
        words = np.zeros(n_words, dtype=np.uint64)
        if len(v):
            h = _poly_value_hashes(v)
            for j in range(k):
                pos = _bloom_positions(h, j, m_bits)
                np.bitwise_or.at(
                    words, pos >> 6, np.uint64(1) << (pos & 63).astype(np.uint64)
                )
        return pd.DataFrame({"words": [words]})

    def merge(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame({"words": []})
        return pd.DataFrame(
            {
                "words": [
                    np.bitwise_or.reduce(np.stack(list(b["words"])), axis=0)
                ]
            }
        )

    rows = (
        ds.map_batches(partial, batch_format="pandas", batch_size=None)
        .repartition(4)
        .map_batches(merge, batch_format="pandas", batch_size=None)
        .take_all()
    )
    if not rows:
        return np.zeros(n_words, dtype=np.uint64)
    return np.bitwise_or.reduce(np.stack([r["words"] for r in rows]), axis=0)


def bloom_probe(words: np.ndarray, values, *, k: int = 4) -> np.ndarray:
    """Vectorized membership test against a :func:`bloom_sketch` word
    array: True iff all ``k`` bits are set. No false negatives; the
    false-positive rate is ~(1 - e^(-k*n/m))^k."""
    m_bits = words.size * 64
    h = _poly_value_hashes(np.asarray(values))
    hit = np.ones(h.shape[0], dtype=bool)
    for j in range(k):
        pos = _bloom_positions(h, j, m_bits)
        hit &= (
            (words[pos >> 6] >> (pos & 63).astype(np.uint64))
            & np.uint64(1)
        ).astype(bool)
    return hit


def bloom_semi_join(ds, col: str, words: np.ndarray, *, k: int = 4):
    """Shuffle-free approximate semi-join: append ``bloom_hit`` to every
    row of ``ds`` by probing the broadcast Bloom words (``ray.put``
    once, read per task — never re-shipped per batch). Downstream can
    filter on the flag; survivors are a superset of the exact semi-join
    (no false negatives), so an exact verify pass only ever touches the
    bloom-positive subset — the 100-TB pattern for joining a huge stream
    against a large-but-boundable key set."""
    import pyarrow as pa

    import ray

    words_ref = ray.put(words)

    def flag(batch: pa.Table) -> pa.Table:
        w = ray.get(words_ref)
        hit = bloom_probe(w, batch[col].to_numpy(zero_copy_only=False), k=k)
        return batch.append_column("bloom_hit", pa.array(hit))

    return ds.map_batches(flag, batch_format="pyarrow", batch_size=None)

def heavy_hitters(
    ds,
    value_col: str,
    *,
    min_frac: float,
    total_rows: int | None = None,
    k: int | None = None,
    max_candidates: int = 4_000_000,
):
    """EXACT frequent items above a frequency threshold, computed with
    bounded memory via a Misra-Gries candidate pass (Misra & Gries 1982;
    mergeable-summary form per Agarwal et al. 2013) + an exact rescore of
    only the surviving candidates.

    Pass 1 (candidates): each block reduces to its exact value counts and
    then MG-truncates to at most ``k`` survivors by subtracting the
    (k+1)-th largest count ``d_b`` (so the per-block state is O(k)
    regardless of the block's distinct count). Because
    ``sum_b d_b <= sum_b n_b/(k+1) = N/(k+1)``, the summed truncated
    counts undercount any item's true frequency by at most ``N/(k+1)``;
    with ``k >= 2/min_frac`` every item whose true count reaches
    ``threshold = ceil(min_frac*N)`` therefore keeps a summed MG count of
    at least ``threshold - N/(k+1) >= threshold/2 > 0`` and survives the
    distributed candidate filter. At most ``N/(threshold/2) <= 2/min_frac``
    items can pass that filter, so the collected candidate set is small
    and BOUNDED (loudly checked against ``max_candidates``).

    Pass 2 (exact rescore): the candidate set is broadcast once
    (``ray.put``), every block counts ONLY candidate rows, and a
    vocabulary-sized ``groupby().sum`` produces exact counts filtered at
    ``threshold`` — the output is exactly ``GROUP BY value_col HAVING
    count(*) >= ceil(min_frac * N)`` (the SQL twin), independent of
    partitioning, block order and retries. Null values are excluded
    (mirrored by the twin's ``IS NOT NULL``).

    ``ds`` is consumed twice (MG pass + rescore pass), plus an initial
    single-column count pass when ``total_rows`` is not given: pass a
    source-backed Dataset (e.g. the ``read_parquet`` output) or
    materialize the input first, otherwise upstream transforms re-execute
    per pass. ``total_rows`` (non-null rows of ``value_col``) skips the
    count pass when the caller already knows it."""
    import math

    import pyarrow as pa
    import pyarrow.compute as pc
    import polars as pl

    import ray

    if not 0.0 < min_frac < 1.0:
        raise ValueError(f"min_frac must be in (0, 1), got {min_frac}")

    def _value_counts(col) -> tuple[pa.Array, np.ndarray]:
        vc = pl.from_arrow(col).drop_nulls().value_counts()
        cnt = vc["count"].to_numpy().astype(np.int64)
        items = vc.to_arrow()[vc.columns[0]].combine_chunks()
        return items, cnt

    if total_rows is None:
        # non-null row count of the target column (pruned single-column agg)
        total_rows = int(
            ds.map_batches(
                lambda b: pa.table(
                    {"n": pa.array([len(b[value_col].combine_chunks().drop_null())], pa.int64())}
                ),
                batch_format="pyarrow",
                batch_size=None,
            ).sum("n")
        )
    n = int(total_rows)
    if n == 0:
        raise ValueError(f"no non-null values in {value_col!r}")
    threshold = int(math.ceil(min_frac * n))
    if k is None:
        k = max(64, int(math.ceil(2.0 / min_frac)))
    slack = n // (k + 1)
    cand_min = threshold - slack
    if cand_min <= 0:
        raise ValueError(
            f"k={k} too small for min_frac={min_frac}: the MG undercount "
            f"bound N/(k+1)={slack} reaches the threshold {threshold}; "
            f"use k >= {int(math.ceil(2.0 / min_frac))}"
        )

    def mg_partial(batch: pa.Table) -> pa.Table:
        items, cnt = _value_counts(batch[value_col])
        if cnt.size > k:
            d = np.partition(cnt, cnt.size - (k + 1))[cnt.size - (k + 1)]
            keep = cnt - d > 0
            items = items.filter(pa.array(keep))
            cnt = cnt[keep] - d
        return pa.table({value_col: items, "mg": pa.array(cnt, pa.int64())})

    cand_rows = (
        ds.map_batches(mg_partial, batch_format="pyarrow", batch_size=None)
        .groupby(value_col)
        .sum("mg")
        .map_batches(
            lambda t: t.filter(pc.greater_equal(t["sum(mg)"], cand_min))
            .select([value_col]),
            batch_format="pyarrow",
            batch_size=None,
        )
        .take_all()
    )
    if len(cand_rows) > max_candidates:
        raise ValueError(
            f"heavy_hitters candidate set {len(cand_rows)} exceeds "
            f"max_candidates={max_candidates} (theoretical bound "
            f"{int(2.0 / min_frac)}) — raise k or max_candidates"
        )
    cands = pa.array([r[value_col] for r in cand_rows])
    cands_ref = ray.put(cands)

    def rescore(batch: pa.Table) -> pa.Table:
        cand = ray.get(cands_ref)
        col = batch[value_col].combine_chunks().drop_null()
        if len(cand) == 0:
            col = col.slice(0, 0)
        else:
            col = col.filter(pc.is_in(col, value_set=cand))
        items, cnt = _value_counts(col)
        return pa.table({value_col: items, "cnt": pa.array(cnt, pa.int64())})

    return (
        ds.map_batches(rescore, batch_format="pyarrow", batch_size=None)
        .groupby(value_col)
        .sum("cnt")
        .map_batches(
            lambda t: pa.table(
                {value_col: t[value_col], "cnt": t["sum(cnt)"]}
            ).filter(pc.greater_equal(t["sum(cnt)"], threshold)),
            batch_format="pyarrow",
            batch_size=None,
        )
    )
