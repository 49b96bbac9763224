"""The one exchange: route table rows to reduce tasks by an int32 ``part``
column, with plain Ray tasks and no sort.

Every map-side step runs one plain Ray task per **map input**: an input
unit (a row-group range of a parquet file, ``stages.rollup.InputUnit``)
or a non-empty block of a Dataset (:func:`dataset_blocks`, each task
launched as its block is produced). The task turns its input into an Arrow
table, runs the step's body, and ends in :func:`split_by_part`, which it
returns with ``num_returns=P + 1``: P tables, the rows of each part, and
last the list of their row counts. No Ray Data operator runs between the
input and the reduce. The driver fetches only the counts (:func:`route`)
and hands each part's non-empty pieces, in input order, to one reduce task
that concatenates them. A partition's output depends only on the rows
that carry its ``part`` (the rollup worker sorts and dedups them), never on
block boundaries or arrival order, so no sort or merge is needed; this is
the key-group routing Flink's keyed state uses
(PAPERS.md, *State Management in Apache Flink*). Rows of the ``skip`` parts
(a resume's completed partitions) are dropped in the split, so they are
neither moved nor reduced.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np
import pyarrow as pa
import ray


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
