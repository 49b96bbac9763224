"""Turn-level pipelines: idempotent re-ingest dedup + ordered passthrough.

The per-row invariant (BASELINE.json input_hint): per-turn ``text`` byte
equality under stable turn ordering must survive the engine. ``text`` never
passes through any float path — this pipeline carries the raw columns
untouched, deduplicates (conv_id, turn_idx) first-wins, and orders turns
within each conversation by turn_idx. One hash shuffle (same partitioner as
the rollup).

Exchange shape: this stage is byte-bandwidth-bound (it must move every
text byte through the shuffle), so the map side packs each block's
per-partition slice into ONE zstd-compressed Arrow-IPC parcel row
(``part``, ``payload``). The all-to-all then moves a few thousand
compressed parcels instead of millions of raw rows (~3x fewer exchanged
bytes on natural-language text); the reduce side unpacks, settles
cross-block duplicates and orders turns. Output is byte-identical to the
uncompressed path.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.exchange import auto_shuffle_partitions, reduce_by_part
from ..stages.rollup import hash_strings

_IPC_OPTS = pa.ipc.IpcWriteOptions(compression="zstd")


_DEDUP_SORT_KEYS = [
    ("conv_id", "ascending"),
    ("turn_idx", "ascending"),
    ("ts", "ascending"),
    ("text", "ascending"),
    ("role", "ascending"),
    ("tool", "ascending"),
]


def _key_arrays(batch: pa.Table):
    conv_dict = batch["conv_id"].combine_chunks().dictionary_encode()
    codes = conv_dict.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    turn = batch["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
    return codes, turn


def _settle_order(batch: pa.Table, codes, turn):
    """Deterministic-duplicate settlement: full sort order over
    ``_DEDUP_SORT_KEYS`` (min ts, then lexicographically smallest
    text/role/tool — the same rule RollupWorker applies, so retries and
    block layouts cannot change which duplicate survives) plus the
    keep-first-of-key mask in that order. The single source of truth for
    both the block-local combiner and the reduce-side settle."""
    full_order = pc.sort_indices(
        batch, sort_keys=_DEDUP_SORT_KEYS
    ).to_numpy(zero_copy_only=False)
    c2, t2 = codes[full_order], turn[full_order]
    keep_sorted = np.ones(full_order.shape[0], dtype=bool)
    keep_sorted[1:] = (c2[1:] != c2[:-1]) | (t2[1:] != t2[:-1])
    return full_order, keep_sorted


def _has_duplicates(codes, turn) -> tuple[np.ndarray, bool]:
    order = np.argsort((codes << np.int64(32)) | turn, kind="stable")
    c, t = codes[order], turn[order]
    dup = np.zeros(order.shape[0], dtype=bool)
    dup[1:] = (c[1:] == c[:-1]) & (t[1:] == t[:-1])
    return order, bool(dup.any())


def _dedup_sort_partition(batch: pa.Table) -> pa.Table:
    codes, turn = _key_arrays(batch)
    order, dups = _has_duplicates(codes, turn)
    if dups:
        full_order, keep_sorted = _settle_order(batch, codes, turn)
        taken = batch.take(pa.array(full_order[keep_sorted]))
    else:
        taken = batch.take(pa.array(order))
    return taken.drop_columns(["part"]) if "part" in batch.column_names else taken


def _pack_parcels(batch: pa.Table, num_partitions: int) -> pa.Table:
    """Map side: block-local dedup (combiner), group rows by destination
    partition, emit one compressed IPC parcel per (block, part)."""
    if batch.num_rows == 0:
        return pa.table(
            {
                "part": pa.array([], type=pa.int32()),
                "payload": pa.array([], type=pa.large_binary()),
            }
        )
    codes, turn = _key_arrays(batch)
    # local dedup (combiner) WITHOUT reordering the block in the common
    # no-dup case; when duplicates exist, keep the row _settle_order
    # selects so the block-local winner always equals the global winner
    # restricted to this block — min is associative, so the reduce-side
    # settle is layout-independent
    _, dups = _has_duplicates(codes, turn)
    if dups:
        full_order, keep_sorted = _settle_order(batch, codes, turn)
        keep = np.zeros(full_order.shape[0], dtype=bool)
        keep[full_order[keep_sorted]] = True
        batch = batch.filter(pa.array(keep))

    part = (
        hash_strings(batch["conv_id"]) % np.uint64(num_partitions)
    ).astype(np.int64)
    by_part = np.argsort(part, kind="stable")
    sorted_part = part[by_part]
    starts = np.flatnonzero(np.r_[True, sorted_part[1:] != sorted_part[:-1]])
    ends = np.r_[starts[1:], sorted_part.shape[0]]
    gathered = batch.take(pa.array(by_part))

    parts_out, payloads = [], []
    for s, e in zip(starts, ends):
        sub = gathered.slice(s, e - s)
        sink = pa.BufferOutputStream()
        with pa.ipc.new_stream(sink, sub.schema, options=_IPC_OPTS) as w:
            w.write_table(sub)
        parts_out.append(int(sorted_part[s]))
        payloads.append(sink.getvalue().to_pybytes())
    return pa.table(
        {
            "part": pa.array(parts_out, type=pa.int32()),
            "payload": pa.array(payloads, type=pa.large_binary()),
        }
    )


def _unpack_settle(batch: pa.Table) -> pa.Table:
    """Reduce side: decompress this partition's parcels, settle cross-block
    duplicates, order turns within each conversation."""
    tables = [
        pa.ipc.open_stream(payload.as_py()).read_all()
        for payload in batch["payload"]
    ]
    merged = pa.concat_tables(tables) if tables else None
    if merged is None or merged.num_rows == 0:
        return pa.table(
            {
                "conv_id": pa.array([], type=pa.string()),
                "turn_idx": pa.array([], type=pa.int32()),
                "role": pa.array([], type=pa.string()),
                "text": pa.array([], type=pa.string()),
                "tool": pa.array([], type=pa.string()),
                "ts": pa.array([], type=pa.timestamp("us")),
            }
        )
    return _dedup_sort_partition(merged)


def clean_turns(ds, num_partitions: int | None = None):
    """Dedup (conv_id, turn_idx) first-wins; turns ordered by turn_idx
    within each conversation. All six input columns pass through untouched
    (byte equality verified by tests and the driver oracle).
    ``num_partitions=None`` auto-sizes to the cluster
    (``auto_shuffle_partitions`` — 2 per CPU, floored at 32); outputs are
    invariant to the value."""
    num_partitions = num_partitions or auto_shuffle_partitions()

    parcels = ds.map_batches(
        lambda b: _pack_parcels(b, num_partitions),
        batch_format="pyarrow",
        batch_size=None,
        zero_copy_batch=True,
    )
    return reduce_by_part(parcels, _unpack_settle, num_partitions, "pyarrow")
