"""Output checks: an in-process reference per invocation, an
order-independent digest of tier rows, and a decode check of sampled
1m buckets against the input turns.

The reference runs the package's own kernel (``DeriveAssign`` then
``RollupWorker``) on the whole input in one partition, with the same hot
set the pipeline uses; the rollup's contract is that its output does not
depend on partitioning, block layout, arrival order or re-delivered turns.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import replace

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

US_PER_MIN = 60_000_000
SORT_KEYS = [("tier", "ascending"), ("conv_id", "ascending"), ("bucket_ts", "ascending")]


def hot_set(table: pa.Table, threshold: int | None) -> list[str]:
    """Conversations with at least ``threshold`` rows, counted the way
    ``detect_hot_convs`` counts them (re-delivered rows included)."""
    if threshold is None:
        return []
    counts = table.group_by("conv_id").aggregate([("conv_id", "count")])
    hot = counts.filter(pc.greater_equal(counts["conv_id_count"], threshold))
    return sorted(hot["conv_id"].to_pylist())


def reference(table: pa.Table, config, hot: list[str]) -> pa.Table:
    """Tier rows of ``table`` from the in-process kernel, one partition."""
    from light_curve_feature_ray.stages.rollup import DeriveAssign, RollupWorker

    cfg = replace(config, num_partitions=1)
    derived = DeriveAssign(cfg, hot_list=hot)(table)
    return canonical(RollupWorker(cfg, hot_list=hot)(derived))


def canonical(table: pa.Table) -> pa.Table:
    """Row order, column order and string encodings made canonical."""
    cols = {}
    for name in sorted(table.column_names):
        col = table[name]
        if pa.types.is_dictionary(col.type):
            col = col.cast(col.type.value_type)
        if pa.types.is_large_string(col.type):
            col = col.cast(pa.string())
        if pa.types.is_large_binary(col.type):
            col = col.cast(pa.binary())
        cols[name] = col
    return pa.table(cols).sort_by(SORT_KEYS).combine_chunks()


def _array_bytes(arr: pa.Array):
    """The value bytes of one array, independent of its slicing."""
    if pa.types.is_binary(arr.type) or pa.types.is_string(arr.type):
        buffers = arr.buffers()
        offsets = np.frombuffer(buffers[1], dtype=np.int32)[
            arr.offset : arr.offset + len(arr) + 1
        ]
        data = buffers[2] or pa.py_buffer(b"")
        yield (offsets - offsets[0]).tobytes()
        yield memoryview(data)[offsets[0] : offsets[-1]]
    else:
        yield np.ascontiguousarray(arr.to_numpy(zero_copy_only=False)).tobytes()
    yield str(arr.null_count).encode()


def digest(table: pa.Table) -> str:
    """Digest of a canonical tier table: schema, then every value."""
    h = hashlib.blake2b(digest_size=16)
    h.update(str(table.schema).encode())
    h.update(str(table.num_rows).encode())
    for name in table.column_names:
        for chunk in table[name].chunks:
            for part in _array_bytes(chunk):
                h.update(part)
    return h.hexdigest()


def read_store(out_dir: str) -> pa.Table:
    """All partition files of a checkpointed store, read without Ray."""
    tables = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("part="):
            tables.append(pq.read_table(os.path.join(out_dir, name, "data.parquet")))
    return canonical(pa.concat_tables(tables))


def points_bytes(tiers: pa.Table) -> int:
    return int(pc.sum(pc.binary_length(tiers["points"])).as_py() or 0)


def n_points_1m(tiers: pa.Table) -> int:
    one = tiers.filter(pc.equal(tiers["tier"], "1m"))
    return int(pc.sum(one["n_points"]).as_py() or 0)


def distinct_turns(table: pa.Table) -> int:
    return table.group_by(["conv_id", "turn_idx"]).aggregate([]).num_rows


class DecodeSample:
    """A seeded sample of the input's (conv_id, minute) buckets; a tier
    table passes when each sampled 1m bucket decodes to exactly the
    input's (ts, utf8 length of text) in turn order."""

    def __init__(self, table: pa.Table, seed: int, size: int = 200):
        conv = pc.dictionary_encode(table["conv_id"].combine_chunks())
        self.names = conv.dictionary.to_pylist()
        code = conv.indices.to_numpy().astype(np.int64)
        ts = table["ts"].cast(pa.int64()).to_numpy()
        turn = table["turn_idx"].to_numpy().astype(np.int64)
        m = pc.utf8_length(table["text"]).to_numpy(zero_copy_only=False)
        key = (code << np.int64(32)) | (ts // US_PER_MIN)
        order = np.lexsort((turn, key))
        key, turn, ts, m = key[order], turn[order], ts[order], m[order]
        first = np.r_[True, (key[1:] != key[:-1]) | (turn[1:] != turn[:-1])]
        self.key, self.ts, self.m = key[first], ts[first], m[first].astype(np.float64)
        buckets = np.unique(self.key)
        rng = np.random.default_rng([seed, 7])
        self.sample = rng.choice(buckets, size=min(size, buckets.size), replace=False)

    def check(self, tiers: pa.Table) -> bool:
        from light_curve_feature_ray.codec import gorilla

        want = {}
        for key in self.sample.tolist():
            name = self.names[key >> 32]
            want[(name, (key & 0xFFFFFFFF) * US_PER_MIN)] = key
        one = tiers.filter(
            pc.and_(
                pc.equal(tiers["tier"], "1m"),
                pc.is_in(tiers["conv_id"], value_set=pa.array(sorted({n for n, _ in want}))),
            )
        )
        found = 0
        convs = one["conv_id"].to_pylist()
        buckets = one["bucket_ts"].cast(pa.int64()).to_pylist()
        points = one["points"]
        for i, (name, bucket) in enumerate(zip(convs, buckets)):
            key = want.get((name, bucket))
            if key is None:
                continue
            found += 1
            lo, hi = np.searchsorted(self.key, [key, key + 1])
            ts, m = gorilla.decode(points[i].as_py())
            if not (np.array_equal(ts, self.ts[lo:hi]) and np.array_equal(m, self.m[lo:hi])):
                return False
        return found == len(want)


def read_store_part(out_dir: str, part: int) -> pa.Table:
    return pq.read_table(os.path.join(out_dir, f"part={part}", "data.parquet"))
