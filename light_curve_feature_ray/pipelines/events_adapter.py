"""Adapter: the driver's ``events`` table viewed as conversation transcripts.

The sandbox testdata has no transcript table, so driver-facing queries
derive one deterministically from ``events`` — a transformation that is
also expressible in ANSI SQL (oracle side):

    conv_id  = 'c' || user_id
    turn_idx = row_number() over (partition by user_id order by ts, event_id) - 1
    role     = event_type
    text     = props
    tool     = event_type
    ts       = ts

so Ray results and DuckDB oracles compare 1:1 at the driver.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..stages.exchange import reduce_by_key

#: SQL CTE body producing the transcript view from `events` (oracle side).
TRANSCRIPTS_SQL = """
    SELECT 'c' || CAST(user_id AS VARCHAR) AS conv_id,
           CAST(row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) - 1 AS INTEGER) AS turn_idx,
           event_type AS role,
           props AS text,
           event_type AS tool,
           ts
    FROM events
"""


def events_turns_dataset(sf_dir: str, num_partitions: int | None = None):
    """Ray Dataset of derived turn rows:
    (conv_id, turn_idx, role, text, tool, ts, part).

    turn_idx needs per-conversation ordering, so this performs the engine's
    usual single hash shuffle (``reduce_by_key`` on ``conv_id``) and a
    per-partition lexsort + cumcount. ``num_partitions=None`` uses the
    cluster-aware default (driver queries pin 16 for the fixed small
    inputs).
    """
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type", "props"],
    )

    def derive(batch: pa.Table) -> pa.Table:
        conv = pc.binary_join_element_wise(
            "c", pc.cast(batch["user_id"], pa.string()), ""
        )
        return pa.table(
            {
                "conv_id": conv,
                "event_id": batch["event_id"],
                "ts": batch["ts"],
                "role": batch["event_type"],
                "text": batch["props"],
                "tool": batch["event_type"],
            }
        )

    def number_turns(batch: pa.Table) -> pa.Table:
        conv_dict = batch["conv_id"].combine_chunks().dictionary_encode()
        codes = conv_dict.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        ts_us = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        eid = batch["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts_us, codes))
        c = codes[order]
        starts = np.flatnonzero(np.r_[True, c[1:] != c[:-1]])
        run_starts = np.zeros(c.shape[0], dtype=np.int64)
        run_starts[starts] = starts
        run_starts = np.maximum.accumulate(run_starts)
        turn_idx = (np.arange(c.shape[0]) - run_starts).astype(np.int32)
        out = batch.take(pa.array(order))
        out = out.append_column("turn_idx", pa.array(turn_idx, type=pa.int32()))
        return out.select(
            ["conv_id", "turn_idx", "role", "text", "tool", "ts", "part"]
        )

    turns = ds.map_batches(
        derive, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )
    return reduce_by_key(turns, "conv_id", number_turns, num_partitions, "pyarrow")
