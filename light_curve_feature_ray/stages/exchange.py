"""The one exchange: route table rows to reduce tasks by an int32 ``part``
column, with plain Ray tasks and no sort.

Every map-side step runs one plain Ray task per **map input**: an input
unit (consecutive row groups of the input's parquet files, possibly
spanning files, ``stages.rollup.InputUnit``) or a non-empty block of a
Dataset (:func:`dataset_blocks`, each task
launched as its block is produced). The task turns its input into an Arrow
table, runs the step's body, and ends in :func:`split_by_part`, which it
returns with ``num_returns=P + 1``: P tables, the rows of each part, and
last the list of their row counts. No Ray Data operator runs between the
input and the reduce. The driver fetches only the counts (:func:`route`)
and hands each part's non-empty pieces, in input order, to a reduce task
that concatenates them. A partition's output depends only on the rows
that carry its ``part`` (the rollup worker sorts and dedups them), never on
block boundaries or arrival order, so no sort or merge is needed; this is
the key-group routing Flink's keyed state uses
(PAPERS.md, *State Management in Apache Flink*). Rows of the ``skip`` parts
(a resume's completed partitions) are dropped in the split, so they are
neither moved nor reduced.

The rollup, its job and update, and ``write_dataset_partitioned`` run one
reduce task per part. Every other keyed step goes through
:func:`reduce_by_part` (or :func:`reduce_by_key`, which hashes a key
column into ``part`` first): the contract of Ray Data's ``map_groups``
over ``part``, on the same map tasks and ``route``, with contiguous parts
packed into as few reduce tasks as the cluster's CPUs and
:data:`PART_ROWS` allow. :func:`cluster_cpus` is the one reader of the
cluster's size.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

#: rows one reduce task holds: the rollup's rows per partition
#: (``stages.rollup.auto_num_partitions``) and the most rows
#: :func:`reduce_by_part` packs into one task, unless one part alone holds
#: more.
PART_ROWS = 100_000


def split_by_part(table: pa.Table, num_parts: int, skip: Iterable[int] = ()) -> list:
    """``[rows of part 0, ..., rows of part P-1, row counts]``; a part in
    ``skip`` gets no rows and a count of 0."""
    part = table["part"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(part, kind="stable")
    counts = np.bincount(part, minlength=num_parts)
    ends = np.cumsum(counts)
    counts[[p for p in skip if 0 <= p < num_parts]] = 0
    empty = table.slice(0, 0)
    pieces = [
        table.take(order[end - n : end]) if n else empty
        for n, end in zip(counts, ends)
    ]
    return pieces + [counts.tolist()]


def route(outputs: Sequence[Sequence]) -> dict[int, list]:
    """Per part with rows, the refs of its non-empty pieces in input
    order, from the ``P + 1`` return refs of each map-side task."""
    counts = ray.get([out[-1] for out in outputs])
    routed: dict[int, list] = {}
    for out, block_counts in zip(outputs, counts):
        for p in np.flatnonzero(block_counts):
            routed.setdefault(int(p), []).append(out[p])
    return dict(sorted(routed.items()))


def dataset_blocks(ds) -> Iterator:
    """The refs of ``ds``'s non-empty blocks, each yielded as soon as it
    is produced: the map inputs of a Dataset. Executes ``ds``."""
    for bundle in ds.iter_internal_ref_bundles():
        for block, meta in bundle.blocks:
            if meta.num_rows != 0:
                yield block


def cluster_cpus() -> int:
    """CPUs of the Ray cluster: what sizes input units, partition counts
    and reduce packing. Starts Ray first, as its first task would, when no
    session exists: a guessed count would size a store's partitions for a
    cluster that is not there."""
    if not ray.is_initialized():
        ray.init()
    return int(ray.cluster_resources()["CPU"])


def auto_shuffle_partitions() -> int:
    """Default ``num_partitions`` of the keyed shuffles outside the
    rollup: 2 per cluster CPU, floored at 32, so the reduce parallelism
    grows with the cluster. Outputs do not depend on the value
    (tests/test_parallelism_invariance.py); only task granularity and
    per-task memory change."""
    return max(32, 2 * cluster_cpus())


def with_part(table: pa.Table, key_col: str, num_parts: int) -> pa.Table:
    """``table`` with an int32 ``part`` column: the rollup's string hash
    (``stages.rollup.hash_strings``) of ``key_col`` cast to string, modulo
    ``num_parts``. A floating-point key holding NaN raises ``ValueError``:
    ``str(NaN)`` would group every NaN as one key, which no SQL twin's
    ``IS NOT NULL`` filter mirrors."""
    from .rollup import hash_strings

    key = table[key_col]
    if pa.types.is_floating(key.type) and pc.any(pc.is_nan(key)).as_py():
        raise ValueError(f"key column {key_col!r} holds NaN")
    if not pa.types.is_string(key.type):
        key = pc.cast(key, pa.string())
    part = (hash_strings(key) % np.uint64(num_parts)).astype(np.int32)
    return table.append_column("part", pa.array(part, type=pa.int32()))


def reduce_by_key(ds, key_col: str, fn, num_parts: int | None, batch_format: str):
    """:func:`reduce_by_part` on the parts :func:`with_part` hashes
    ``key_col`` into, in the map tasks; ``num_parts=None`` is
    :func:`auto_shuffle_partitions`."""
    num_parts = num_parts or auto_shuffle_partitions()
    return _reduce(ds, key_col, fn, num_parts, batch_format)


def part_count(ds) -> int:
    """The ``num_parts`` of a Dataset that arrives with its ``part``
    column: its largest ``part`` + 1. Executes ``ds`` once to find it, so
    pass a materialized Dataset (``reduce_by_part`` returns one)."""
    return int(ds.max("part") or 0) + 1


def reduce_by_part(ds, fn, num_parts: int, batch_format: str):
    """Ray Data's ``map_groups(fn, batch_format=batch_format)`` over the
    groups of ``ds``'s int ``part`` column, values in ``[0, num_parts)``,
    on the routed exchange.

    ``fn`` is called once per non-empty part, in ascending part order, on
    that part's rows in input order, as a ``"pandas"`` or ``"pyarrow"``
    batch (``part`` included). One map task per block of ``ds`` ends in
    :func:`split_by_part`; once :func:`route` has run, the driver packs
    contiguous parts into reduce tasks by their row counts
    (:func:`_pack`), and each task builds its parts' outputs into one
    block of ``batch_format``, as ``map_groups`` builds a block's groups.
    Batches convert with ``BlockAccessor`` both ways, as in Ray Data. Runs
    when called, like ``rollup_dataset``, and returns a Dataset over the
    reduce outputs (empty for an empty ``ds``)."""
    return _reduce(ds, None, fn, num_parts, batch_format)


def _reduce(ds, key_col: str | None, fn, num_parts: int, batch_format: str):
    import ray.data as rd

    split = _split_block.options(num_returns=num_parts + 1)
    outputs = [split.remote(b, key_col, num_parts) for b in dataset_blocks(ds)]
    rows = np.sum(ray.get([out[-1] for out in outputs]), axis=0)
    routed = route(outputs)
    pieces = list(routed.values())
    tasks = min(cluster_cpus(), len(pieces))
    runs = _pack([rows[p] for p in routed], tasks, PART_ROWS)
    fn = ray.put(fn)
    refs = [
        _reduce_parts.remote(
            fn, batch_format, [len(p) for p in pieces[a:b]], *chain(*pieces[a:b])
        )
        for a, b in runs
    ]
    to_dataset = rd.from_pandas_refs if batch_format == "pandas" else rd.from_arrow_refs
    return to_dataset(refs)


def _pack(rows: Sequence[int], min_runs: int, max_rows: int) -> list[tuple[int, int]]:
    """Cut consecutive parts with ``rows`` rows each into contiguous runs,
    as ``[start, stop)`` index pairs: at least ``min_runs`` of them, none
    over ``max_rows`` rows unless it is one part, and greedily few."""
    if not rows:
        return []
    budget = min(max_rows, sum(rows) // min_runs)
    cuts, run = [0], 0
    for i, n in enumerate(rows):
        must = len(cuts) - 1 + len(rows) - i < min_runs
        if i > cuts[-1] and (run + n > budget or must):
            cuts.append(i)
            run = 0
        run += n
    return list(zip(cuts, cuts[1:] + [len(rows)]))


@ray.remote
def _split_block(block, key_col: str | None, num_parts: int) -> list:
    """A Dataset block as an Arrow table, given its ``part`` by
    :func:`with_part` on ``key_col`` unless None, split by ``part``."""
    from ray.data.block import BlockAccessor

    table = BlockAccessor.for_block(block).to_arrow()
    if key_col is not None:
        table = with_part(table, key_col, num_parts)
    return split_by_part(table, num_parts)


@ray.remote
def _reduce_parts(fn, batch_format: str, sizes: list, *pieces):
    """``fn`` on each part's rows (``sizes``: its number of ``pieces``),
    the outputs built into one block of ``batch_format``."""
    from ray.data._internal.delegating_block_builder import DelegatingBlockBuilder
    from ray.data.block import BlockAccessor

    out = DelegatingBlockBuilder()
    for end, n in zip(np.cumsum(sizes), sizes):
        rows = pa.concat_tables(pieces[end - n : end], promote_options="permissive")
        out.add_batch(fn(BlockAccessor.for_block(rows).to_batch_format(batch_format)))
    block = BlockAccessor.for_block(out.build())
    return block.to_pandas() if batch_format == "pandas" else block.to_arrow()
