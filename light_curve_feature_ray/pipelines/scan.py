"""Distributed ordered prefix scan + the curation operators built on it.

Ray Data has no running-total / window-function primitive; a global
``SUM(x) OVER (ORDER BY key ROWS UNBOUNDED PRECEDING)`` looks inherently
sequential, but it is the classic two-phase parallel scan (Blelloch 1990):

1. **Partial pass** — every block bins its rows into contiguous key-range
   buckets (a range partition of the order key) and emits one partial sum
   per bucket it touches.  A vocabulary-sized ``groupby(bucket).sum``
   reduces those to ONE row per bucket; only that tiny table (``<=
   num_buckets`` rows) is collected on the driver, where the exclusive
   scan over bucket totals is a numpy one-liner.
2. **Scan pass** — rows shuffle ONCE on their bucket (a range exchange:
   ``stages.exchange.reduce_by_part`` with the bucket as ``part``,
   balanced whenever the order key is dense or a uniform hash), each
   bucket sorts locally by the full order key and adds its in-bucket
   exclusive cumsum to the driver-computed bucket offset.

The result is exactly the sequential prefix sum, independent of block
layout / parallelism / retries (pytest asserts this), with one small
aggregate pass + one range shuffle — the same cost class as a sort.

Built on it:

- :func:`pack_sequences` — GPT-style training-sequence packing: documents
  are concatenated in ``doc_id`` order and chunked into fixed
  ``budget``-token packs (documents may straddle pack boundaries — the
  concat-and-chunk layout used for LM pretraining). ``pack_id`` /
  ``pack_offset`` for every document follow directly from the exclusive
  prefix sum of token counts.
- :func:`shuffle_rank` — deterministic global training shuffle: rank in
  ``(lehmer_hash(id), id)`` order.  Unlike ``ds.random_shuffle()`` the
  permutation is a pure function of the ids — reproducible across
  clusters, resumable, and SQL-checkable (``ROW_NUMBER() OVER (ORDER BY
  hash, id)``).

Scale notes: the driver only ever holds ``num_buckets`` partial rows
(default ``auto_shuffle_partitions()``); everything else is
``map_batches`` + one ``groupby`` + one routed exchange.  Buckets are
contiguous key ranges, so skew follows the key distribution — dense ids
and Lehmer hashes are uniform; pass a larger ``num_buckets`` for lumpy
keys.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..stages.exchange import auto_shuffle_partitions, reduce_by_part
from .sampling import LEHMER_MOD, lehmer_hash


def _bucket_of(key: np.ndarray, lo: int, hi: int, num_buckets: int) -> np.ndarray:
    """Fixed-width range bucket of an int64 order key in [lo, hi].
    Offsets are computed in wraparound uint64 arithmetic so a span wider
    than int64 (e.g. float keys mapped over the full bit space) stays
    exact."""
    span = max(int(hi) - int(lo) + 1, 1)
    width = -(-span // num_buckets)  # ceil; fits uint64
    off = key.astype(np.int64).view(np.uint64) - np.uint64(
        int(lo) & 0xFFFFFFFFFFFFFFFF
    )
    b = (off // np.uint64(width)).astype(np.int64)
    return np.clip(b, 0, num_buckets - 1)


def ordered_prefix_sum(
    ds,
    *,
    order_cols: list[str],
    value_col: str | None = None,
    key_lo: int | None = None,
    key_hi: int | None = None,
    num_buckets: int | None = None,
    out_col: str = "prefix",
):
    """Append the EXCLUSIVE running sum of ``value_col`` (or the 0-based
    row rank when ``value_col`` is None) in ``order_cols`` lexicographic
    order.  ``order_cols[0]`` must be an int64 column; ``key_lo``/``key_hi``
    bound it (discovered with a cheap min/max aggregate when omitted —
    pass them to skip that pass).  Output row order is not significant
    (the prefix travels as a column); sums must stay below 2**53.
    """
    key_col = order_cols[0]
    num_buckets = num_buckets or auto_shuffle_partitions()
    if key_lo is None:
        key_lo = int(ds.min(key_col))
    if key_hi is None:
        key_hi = int(ds.max(key_col))

    def partials(batch: pa.Table) -> pa.Table:
        key = batch.column(key_col).to_numpy(zero_copy_only=False)
        b = _bucket_of(key, key_lo, key_hi, num_buckets)
        if value_col is None:
            v = np.ones(batch.num_rows, dtype=np.int64)
        else:
            v = batch.column(value_col).to_numpy(zero_copy_only=False).astype(np.int64)
        sums = np.zeros(num_buckets, dtype=np.int64)
        np.add.at(sums, b, v)
        touched = np.flatnonzero(sums)
        return pa.table(
            {
                "bucket": pa.array(touched.astype(np.int64)),
                "psum": pa.array(sums[touched]),
            }
        )

    bucket_rows = (
        ds.map_batches(partials, batch_format="pyarrow", batch_size=None)
        .groupby("bucket")
        .sum("psum")
        .take_all()
    )  # <= num_buckets rows — the only driver-side collection
    totals = np.zeros(num_buckets, dtype=np.int64)
    for r in bucket_rows:
        totals[int(r["bucket"])] = int(r["sum(psum)"])
    offsets = np.concatenate(([0], np.cumsum(totals)[:-1]))

    def tag(batch: pa.Table) -> pa.Table:
        key = batch.column(key_col).to_numpy(zero_copy_only=False)
        b = _bucket_of(key, key_lo, key_hi, num_buckets)
        return batch.append_column("part", pa.array(b.astype(np.int32)))

    def scan_bucket(grp: pd.DataFrame) -> pd.DataFrame:
        cols = [grp[c].to_numpy() for c in order_cols]
        order = np.lexsort(tuple(reversed(cols)))
        grp = grp.iloc[order].reset_index(drop=True)
        if value_col is None:
            v = np.ones(len(grp), dtype=np.int64)
        else:
            v = grp[value_col].to_numpy().astype(np.int64)
        excl = np.concatenate(([0], np.cumsum(v)[:-1]))
        grp[out_col] = int(offsets[int(grp["part"].iloc[0])]) + excl
        return grp.drop(columns=["part"])

    tagged = ds.map_batches(tag, batch_format="pyarrow", batch_size=None)
    return reduce_by_part(tagged, scan_bucket, num_buckets, "pandas")


def pack_sequences(
    docs_ds,
    *,
    budget: int,
    id_col: str = "doc_id",
    num_buckets: int | None = None,
    key_lo: int | None = None,
    key_hi: int | None = None,
):
    """Concat-and-chunk sequence packing: documents are laid out in
    ``id_col`` order and cut into fixed ``budget``-token packs.  Emits
    ``(doc_id, n_tokens, pack_id, pack_offset)`` where ``pack_id`` is the
    pack containing the document's FIRST token and ``pack_offset`` its
    position inside that pack.  Tokenization is :func:`..text.token_count`
    (SQL-oracle parity).  A document longer than ``budget`` simply spans
    ``>1`` packs — concat-and-chunk semantics, no greedy repacking."""
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    from .text import token_count

    toks = token_count(docs_ds)
    with_prefix = ordered_prefix_sum(
        toks,
        order_cols=[id_col],
        value_col="n_tokens",
        key_lo=key_lo,
        key_hi=key_hi,
        num_buckets=num_buckets,
    )

    def finish(batch: pa.Table) -> pa.Table:
        pre = batch.column("prefix").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                id_col: batch.column(id_col),
                "n_tokens": batch.column("n_tokens"),
                "pack_id": pa.array((pre // budget).astype(np.int64)),
                "pack_offset": pa.array((pre % budget).astype(np.int64)),
            }
        )

    return with_prefix.map_batches(finish, batch_format="pyarrow", batch_size=None)


def _monotone_int64(arr: np.ndarray) -> np.ndarray:
    """Order-preserving int64 view of a numeric column, for range
    bucketing and lexsort: int64 passes through; float64 maps via the
    IEEE-754 bit trick (flip all bits of negatives, set the sign bit of
    non-negatives — total order identical to numeric order).  NaN maps to
    the maximum key, i.e. sorts LAST — matching SQL NULLS LAST once NaN
    and NULL are identified (the engine-wide convention)."""
    if arr.dtype == np.int64:
        return arr
    if arr.dtype != np.float64:
        return arr.astype(np.int64)
    v = np.where(np.isnan(arr), np.nan, arr)  # canonicalize -NaN -> +NaN
    v = np.where(v == 0.0, 0.0, v)  # -0.0 == 0.0 must be a TIE, as in SQL
    u = v.view(np.uint64)
    neg = (u >> np.uint64(63)).astype(bool)
    m = np.where(neg, ~np.uint64(0), np.uint64(1) << np.uint64(63))
    return ((u ^ m) ^ (np.uint64(1) << np.uint64(63))).view(np.int64)


def rank_rows(
    ds,
    *,
    order_cols: list[str],
    id_col: str,
    num_buckets: int | None = None,
    out_col: str = "rank",
):
    """Append the 0-based GLOBAL row rank in ``(order_cols, id_col)``
    order — the distributed ``ROW_NUMBER() OVER (ORDER BY ...) - 1``.
    ``order_cols`` may be float64 (NaN ranks last) or integer; ``id_col``
    must be a unique integer so the rank is a total order at any
    parallelism.  One count-mode prefix scan over the order-preserving
    int64 view of the leading key.

    Scale note: range buckets are fixed-width in the leading key's BIT
    space, so heavily clustered float keys can skew bucket sizes — raise
    ``num_buckets`` (each bucket is only a sort unit, correctness is
    unaffected), or pre-bucket by sampled boundaries for adversarial
    distributions."""
    keyed_cols = [f"_ok{i}" for i in range(len(order_cols))]

    def add_keys(batch: pa.Table) -> pa.Table:
        for name, col in zip(keyed_cols, order_cols):
            v = batch.column(col).to_numpy(zero_copy_only=False)
            batch = batch.append_column(
                name, pa.array(_monotone_int64(np.asarray(v)), pa.int64())
            )
        return batch

    keyed = ds.map_batches(add_keys, batch_format="pyarrow", batch_size=None)
    ranked = ordered_prefix_sum(
        keyed,
        order_cols=keyed_cols + [id_col],
        value_col=None,
        num_buckets=num_buckets,
        out_col=out_col,
    )
    return ranked.map_batches(
        lambda b: b.drop_columns(keyed_cols),
        batch_format="pyarrow",
        batch_size=None,
    )


def percent_rank_rows(
    ds,
    *,
    order_cols: list[str],
    id_col: str,
    num_buckets: int | None = None,
):
    """Append the global RANK-family window columns in ``order_cols``
    order: ``rnk`` (1-based ``RANK()`` — ties share the minimum row
    number), ``percent_rank`` = (rnk - 1) / (n - 1) (0 when n == 1) and
    ``cume_dist`` = peers-through-current / n — exactly the ANSI
    ``percent_rank()`` / ``cume_dist()`` definitions DuckDB implements,
    evaluated in the same IEEE doubles. ``order_cols`` may be float64
    (NaN ranks LAST, all NaNs are peers — SQL NULLS LAST once NaN and
    NULL are identified) or integer; ``id_col`` is only a sort
    stabilizer for the output layout, not a tie-breaker — ties are
    decided by ``order_cols`` alone.

    Scale shape: the same two-phase scan as :func:`rank_rows` — a
    bucket-count partial pass (driver holds <= num_buckets rows), one
    range exchange, then a per-bucket sort with run-boundary rank
    assignment. Tie runs NEVER straddle buckets because ``_bucket_of``
    maps equal leading keys to the same bucket, so per-bucket run
    detection is globally exact.
    """
    keyed_cols = [f"_ok{i}" for i in range(len(order_cols))]
    n_total = ds.count()
    num_buckets = num_buckets or auto_shuffle_partitions()

    def add_keys(batch: pa.Table) -> pa.Table:
        for name, col in zip(keyed_cols, order_cols):
            v = batch.column(col).to_numpy(zero_copy_only=False)
            batch = batch.append_column(
                name, pa.array(_monotone_int64(np.asarray(v)), pa.int64())
            )
        return batch

    keyed = ds.map_batches(add_keys, batch_format="pyarrow", batch_size=None)
    key_lo = int(keyed.min(keyed_cols[0]))
    key_hi = int(keyed.max(keyed_cols[0]))

    def partials(batch: pa.Table) -> pa.Table:
        key = batch.column(keyed_cols[0]).to_numpy(zero_copy_only=False)
        b = _bucket_of(key, key_lo, key_hi, num_buckets)
        sums = np.bincount(b, minlength=num_buckets).astype(np.int64)
        touched = np.flatnonzero(sums)
        return pa.table(
            {
                "bucket": pa.array(touched.astype(np.int64)),
                "psum": pa.array(sums[touched]),
            }
        )

    bucket_rows = (
        keyed.map_batches(partials, batch_format="pyarrow", batch_size=None)
        .groupby("bucket")
        .sum("psum")
        .take_all()
    )  # <= num_buckets rows — the only driver-side collection
    totals = np.zeros(num_buckets, dtype=np.int64)
    for r in bucket_rows:
        totals[int(r["bucket"])] = int(r["sum(psum)"])
    offsets = np.concatenate(([0], np.cumsum(totals)[:-1]))

    def tag(batch: pa.Table) -> pa.Table:
        key = batch.column(keyed_cols[0]).to_numpy(zero_copy_only=False)
        b = _bucket_of(key, key_lo, key_hi, num_buckets)
        return batch.append_column("part", pa.array(b.astype(np.int32)))

    denom = float(max(n_total - 1, 1))

    def scan_bucket(grp: pd.DataFrame) -> pd.DataFrame:
        cols = [grp[c].to_numpy() for c in keyed_cols]
        order = np.lexsort(tuple(reversed(cols + [grp[id_col].to_numpy()])))
        grp = grp.iloc[order].reset_index(drop=True)
        kc = np.column_stack([grp[c].to_numpy() for c in keyed_cols])
        new_run = np.r_[True, (kc[1:] != kc[:-1]).any(axis=1)]
        run_start = np.flatnonzero(new_run)
        run_id = np.cumsum(new_run) - 1
        run_end = np.r_[run_start[1:], len(grp)]  # exclusive
        base = int(offsets[int(grp["part"].iloc[0])])
        rnk = base + run_start[run_id] + 1
        grp["rnk"] = rnk
        grp["percent_rank"] = (rnk - 1).astype(np.float64) / denom
        grp["cume_dist"] = (base + run_end[run_id]).astype(np.float64) / float(
            n_total
        )
        return grp.drop(columns=["part", *keyed_cols])

    tagged = keyed.map_batches(tag, batch_format="pyarrow", batch_size=None)
    return reduce_by_part(tagged, scan_bucket, num_buckets, "pandas")


def ntile_of_rank(rank0: np.ndarray, n: int, k: int) -> np.ndarray:
    """SQL NTILE(k) from 0-based ranks over ``n`` rows: the first
    ``n % k`` tiles get ``n // k + 1`` rows, the rest ``n // k`` —
    exactly DuckDB/ANSI semantics, shared with any SQL twin."""
    size, rem = n // k, n % k
    boundary = rem * (size + 1)
    small = np.maximum(size, 1)  # n < k: every row is its own tile
    return np.where(
        rank0 < boundary,
        rank0 // (size + 1) + 1,
        rem + (rank0 - boundary) // small + 1,
    ).astype(np.int64)


def global_ntile(
    ds,
    *,
    order_cols: list[str],
    id_col: str,
    k: int,
    num_buckets: int | None = None,
    rank_col: str = "rank",
    tile_col: str = "tile",
):
    """``NTILE(k) OVER (ORDER BY order_cols, id_col)`` plus the 0-based
    global rank — distributed via :func:`rank_rows`; the tile is then a
    pure per-row function of (rank, total)."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    n = ds.count()
    ranked = rank_rows(
        ds, order_cols=order_cols, id_col=id_col,
        num_buckets=num_buckets, out_col=rank_col,
    )

    def add_tile(batch: pa.Table) -> pa.Table:
        r = batch.column(rank_col).to_numpy(zero_copy_only=False)
        return batch.append_column(
            tile_col, pa.array(ntile_of_rank(r, n, k))
        )

    return ranked.map_batches(add_tile, batch_format="pyarrow", batch_size=None)


def shuffle_rank(
    ds,
    *,
    id_col: str = "doc_id",
    seed: int = 0,
    num_buckets: int | None = None,
    out_col: str = "shuffle_rank",
    hash_col: str | None = "shuffle_h",
):
    """Deterministic global shuffle order: 0-based rank of each row in
    ``(lehmer_hash(id, seed), id)`` order.  A pure function of the ids —
    the identical permutation at any parallelism, on any cluster, after
    any retry — which is what a resumable 100-TB training-data pipeline
    needs from its shuffle (``ds.random_shuffle`` gives none of that).
    Consumers sort/range-read by the rank column."""

    def add_hash(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        h = lehmer_hash(ids.astype(np.int64), seed)
        return batch.append_column("_h", pa.array(h, type=pa.int64()))

    hashed = ds.map_batches(add_hash, batch_format="pyarrow", batch_size=None)
    ranked = ordered_prefix_sum(
        hashed,
        order_cols=["_h", id_col],
        value_col=None,
        key_lo=0,
        key_hi=LEHMER_MOD - 1,
        num_buckets=num_buckets,
        out_col=out_col,
    )

    def finish(batch: pa.Table) -> pa.Table:
        if hash_col:
            batch = batch.append_column(hash_col, batch.column("_h"))
        return batch.drop_columns(["_h"])

    return ranked.map_batches(finish, batch_format="pyarrow", batch_size=None)


def _spread_bits16(x: np.ndarray) -> np.ndarray:
    """Spread the low 16 bits of each element over the even bit positions
    of a 32-bit lane (0b...XYZ -> 0b...0X0Y0Z) — the classic Morton
    magic-mask cascade. uint64 throughout, integer-exact, vectorized."""
    v = x.astype(np.uint64)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x33333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x55555555)
    return v


def zorder_sql(xb: str, yb: str, bits: int = 16) -> str:
    """DuckDB twin of the Morton interleave: ``x`` bit i lands at
    position 2i+1, ``y`` bit i at 2i (x is the major axis, matching
    ``(spread(xb) << 1) | spread(yb)``).  Disjoint bit positions, so the
    OR is a plain integer ``+`` — BIGINT-exact."""
    terms = []
    for i in range(bits):
        terms.append(f"((({xb} >> {i}) & 1) << {2 * i + 1})")
        terms.append(f"((({yb} >> {i}) & 1) << {2 * i})")
    return " + ".join(terms)


def zorder_key(
    ds,
    *,
    id_col: str = "event_id",
    x_col: str = "user_id",
    y_col: str = "value",
    bits: int = 16,
    x_range: tuple[float, float] | None = None,
    y_range: tuple[float, float] | None = None,
):
    """Morton / Z-order layout key over two numeric columns: returns
    (id, xb, yb, zkey) where xb/yb are equi-width ``2**bits``-bucket
    indices of each column over its [min, max] range and zkey is their
    bit interleave (x major).  Sorting / range-partitioning 100-TB
    Parquet by zkey co-locates rows that are close in BOTH dimensions —
    the standard multi-dimensional clustering key for scan pruning
    (Delta/Iceberg Z-ORDER); this operator only computes the key, the
    existing sort / ordered_prefix_sum machinery does the layout.

    Semantics pinned for the SQL twin: rows with a NULL id, NULL/NaN x
    or NULL/NaN y are dropped entirely (mirror the WHERE); bounds are
    min/max of CAST(col AS DOUBLE) over those same surviving rows (cast
    is monotone, so cast-then-min == min-then-cast); the bucket is
    ``least(greatest(floor((v - mn) * 2^bits / (mx - mn)), 0), 2^bits-1)``
    evaluated in IEEE doubles on both sides (same expression family as
    ``quantiles.histogram``), with bucket 0 when mx == mn; the interleave
    is :func:`zorder_sql`.  Pure row-level map after one tiny bounds
    aggregate — no shuffle, trivially partition-invariant.

    ``x_range`` / ``y_range`` skip the bounds pass (values outside clamp
    into the edge buckets — that is what the greatest/least guards do).
    """
    if bits < 1 or bits > 16:
        raise ValueError(f"bits must be in [1, 16], got {bits}")
    scale = float(1 << bits)

    def _valid_xy(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        m = pc.and_(
            pc.is_valid(batch[id_col]),
            pc.and_(pc.is_valid(batch[x_col]), pc.is_valid(batch[y_col])),
        )
        t = batch.filter(m)
        x = t[x_col].to_numpy(zero_copy_only=False).astype(np.float64)
        y = t[y_col].to_numpy(zero_copy_only=False).astype(np.float64)
        ok = ~(np.isnan(x) | np.isnan(y))
        return t.filter(pa.array(ok))

    if x_range is None or y_range is None:

        def mm(batch: pa.Table) -> pa.Table:
            t = _valid_xy(batch)
            x = t[x_col].to_numpy(zero_copy_only=False).astype(np.float64)
            y = t[y_col].to_numpy(zero_copy_only=False).astype(np.float64)
            if x.size == 0:
                return pa.table(
                    {
                        "xmn": pa.array([], pa.float64()),
                        "xmx": pa.array([], pa.float64()),
                        "ymn": pa.array([], pa.float64()),
                        "ymx": pa.array([], pa.float64()),
                    }
                )
            return pa.table(
                {
                    "xmn": [float(x.min())],
                    "xmx": [float(x.max())],
                    "ymn": [float(y.min())],
                    "ymx": [float(y.max())],
                }
            )

        parts = ds.map_batches(
            mm, batch_format="pyarrow", batch_size=None
        ).take_all()
        if not parts:
            raise ValueError("zorder_key: no valid rows to derive bounds")
        if x_range is None:
            x_range = (
                min(p["xmn"] for p in parts),
                max(p["xmx"] for p in parts),
            )
        if y_range is None:
            y_range = (
                min(p["ymn"] for p in parts),
                max(p["ymx"] for p in parts),
            )
    xmn, xmx = float(x_range[0]), float(x_range[1])
    ymn, ymx = float(y_range[0]), float(y_range[1])

    def _bucket(v: np.ndarray, mn: float, mx: float) -> np.ndarray:
        if mx == mn:
            return np.zeros(v.size, dtype=np.int64)
        b = np.floor((v - mn) * scale / (mx - mn))
        return np.minimum(np.maximum(b, 0.0), scale - 1.0).astype(np.int64)

    def keys(batch: pa.Table) -> pa.Table:
        t = _valid_xy(batch)
        x = t[x_col].to_numpy(zero_copy_only=False).astype(np.float64)
        y = t[y_col].to_numpy(zero_copy_only=False).astype(np.float64)
        xb = _bucket(x, xmn, xmx)
        yb = _bucket(y, ymn, ymx)
        z = (
            (_spread_bits16(xb) << np.uint64(1)) | _spread_bits16(yb)
        ).astype(np.int64)
        return pa.table(
            {
                id_col: t[id_col],
                "xb": pa.array(xb),
                "yb": pa.array(yb),
                "zkey": pa.array(z),
            }
        )

    return ds.map_batches(keys, batch_format="pyarrow", batch_size=None)
