"""Turn-level pipelines: idempotent re-ingest dedup + ordered passthrough.

The per-row invariant (BASELINE.json input_hint): per-turn ``text`` byte
equality under stable turn ordering must survive the engine. ``text`` never
passes through any float path — this pipeline carries the raw columns
untouched, deduplicates (conv_id, turn_idx) first-wins, and orders turns
within each conversation by turn_idx.

Exchange shape: one :func:`~..stages.exchange.reduce_by_key` on
``conv_id`` (the rollup's string hash, ``stages.exchange.with_part``).
The map tasks route plain rows; each reduce settles every duplicate of
its part by the full ``_DEDUP_SORT_KEYS`` rule and orders the turns, so
the output depends only on the input rows, never on block layout.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.exchange import reduce_by_key

_DEDUP_SORT_KEYS = [
    ("conv_id", "ascending"),
    ("turn_idx", "ascending"),
    ("ts", "ascending"),
    ("text", "ascending"),
    ("role", "ascending"),
    ("tool", "ascending"),
]


def _dedup_sort_partition(batch: pa.Table) -> pa.Table:
    """One part's rows, ``part`` dropped, one per (conv_id, turn_idx),
    turns ascending within each conversation. A duplicated key keeps the
    first row in ``_DEDUP_SORT_KEYS`` order (min ts, then the
    lexicographically smallest text/role/tool — the rule RollupWorker
    applies), so retries and block layouts cannot change which survives."""
    batch = batch.drop_columns(["part"])
    conv_dict = batch["conv_id"].combine_chunks().dictionary_encode()
    codes = conv_dict.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    turn = batch["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort((codes << np.int64(32)) | turn, kind="stable")
    c, t = codes[order], turn[order]
    if not ((c[1:] == c[:-1]) & (t[1:] == t[:-1])).any():
        return batch.take(pa.array(order))
    order = pc.sort_indices(batch, sort_keys=_DEDUP_SORT_KEYS).to_numpy(
        zero_copy_only=False
    )
    c, t = codes[order], turn[order]
    keep = np.ones(order.shape[0], dtype=bool)
    keep[1:] = (c[1:] != c[:-1]) | (t[1:] != t[:-1])
    return batch.take(pa.array(order[keep]))


def clean_turns(ds, num_partitions: int | None = None):
    """Dedup (conv_id, turn_idx) first-wins; turns ordered by turn_idx
    within each conversation. All six input columns pass through untouched
    (byte equality verified by tests and the driver oracle).
    ``num_partitions=None`` auto-sizes to the cluster
    (``auto_shuffle_partitions`` — 2 per CPU, floored at 32); outputs are
    invariant to the value."""
    return reduce_by_key(
        ds, "conv_id", _dedup_sort_partition, num_partitions, "pyarrow"
    )
