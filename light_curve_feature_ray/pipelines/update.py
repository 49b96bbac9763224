"""Incremental continuous-aggregate update: fold a DELTA of new turns
into a ``run_rollup_job`` tier store on disk without recomputing
untouched conversations.

The tier cascade derives 1h/1d from the per-minute series, and the 1m
tier stores each bucket's raw (ts, m) points Gorilla-compressed — so the
1m tier IS the engine's state store. ``update_rollup_job`` derives the
delta exactly like the full pipeline (``DeriveAssign``: text -> m,
salted partition assignment), decodes the affected conversations' old
1m points back into (ts, m) rows (:func:`_old_points`) and re-runs the
unmodified ``RollupWorker`` kernel over old points + delta
(:func:`_recompute_partition`), so every invariant (dedup settle rule,
salt-window gap-fill truncation, partition invariance) holds by
construction and recomputed bytes — including the Gorilla points column
— are identical to a full run.

It uses no Dataset at all. It ROUTES instead of scanning: a partition's
tier rows for a conversation depend only on that conversation's rows
routed to the partition (``hash % P`` for normal conversations, the
salted (conv, day-window) key for hot ones, and gap-fill truncates at
salt windows), so the partitions a delta touches are exactly the
``part`` values of the derived delta. In the rollup's routed shape
(stages/exchange.py), one ``_derive`` task per delta input unit derives
and splits its rows by ``part``, and one ``_fold_part`` task per touched
partition gets only that partition's pieces, decodes its old points of
the delta's conversations, recomputes them and rewrites the file.

Update contract (documented, tested):

- ``config.store_points`` must be True (the 1m points are the state);
- append semantics: delta ``turn_idx`` must be NEW turns in [0, 2**31)
  (``DeriveAssign`` refuses others before any write), strictly
  greater than every already-ingested turn_idx of that conversation
  (late *timestamps* are fine — the kernel re-sorts by time bucket; and
  duplicate turn_idx WITHIN the delta settles by the normal
  (min ts, min m) rule). Old points are replayed with synthesized
  turn_idx ranks below 2**31; delta turn_idx is offset by 2**31 so the
  two ranges can never collide in the kernel's dedup;
- the whole update must happen within the 1m retention horizon: upper
  tiers of an affected conversation are recomputed from its SURVIVING
  1m buckets.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray

from ..codec import gorilla
from ..stages.exchange import route, split_by_part
from ..stages.rollup import (
    MAX_TURN_IDX,
    US_PER_MIN,
    DeriveAssign,
    RollupConfig,
    RollupWorker,
    assign_parts,
    hash_strings,
)
from ..state.checkpoint import (
    _file_manifest,
    _manifest_path,
    _restore_manifest,
    _write_partition,
    completed_partitions,
)
from .rollup import (
    INPUT_COLUMNS,
    InputUnit,
    _broadcast_hot,
    _cached_worker,
    _resolve_hot,
    _worker_key,
    input_units,
)

_DELTA_OFFSET = np.int64(MAX_TURN_IDX)
_POS_BITS = 21  # max 2**21 points per (conv, minute) bucket in okey


def _delta_prep(batch: pa.Table) -> pa.Table:
    """DeriveAssign output -> routed delta rows (src=1, okey=turn_idx)."""
    turn = batch["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table(
        {
            "conv_id": batch["conv_id"],
            "ts_us": batch["ts_us"],
            "m": batch["m"],
            "part": batch["part"],
            "src": pa.array(np.ones(len(turn), dtype=np.int8)),
            "okey": pa.array(turn),
        }
    )


def _old_points(sel: pa.Table, config: RollupConfig, hot: set) -> pa.Table:
    """Old 1m tier rows -> decoded point rows (src=0, okey =
    minute_slot * 2**21 + in-bucket position: unique per conv and ordered
    exactly like the original turn order, since points are encoded in
    turn order within each slot-sorted bucket), routed like the delta."""
    if sel.num_rows == 0:
        return pa.table(
            {
                "conv_id": pc.dictionary_encode(pa.array([], pa.string())),
                "ts_us": pa.array([], pa.int64()),
                "m": pa.array([], pa.float64()),
                "part": pa.array([], pa.int32()),
                "src": pa.array([], pa.int8()),
                "okey": pa.array([], pa.int64()),
            }
        )
    conv = pc.dictionary_encode(sel["conv_id"].cast(pa.string()).combine_chunks())
    sizes = sel["n_points"].to_numpy().astype(np.int64)
    if sizes.max() >= (1 << _POS_BITS):
        raise ValueError(
            f"bucket with {sizes.max()} points exceeds the okey "
            f"position budget (2**{_POS_BITS})"
        )
    # every blob in one call, split by the rows' n_points
    ts_all, m_all = gorilla.decode(sel["points"])
    if ts_all.size != sizes.sum():
        raise ValueError(
            f"1m rows count {sizes.sum()} points in n_points but their "
            f"blobs decode to {ts_all.size}"
        )
    slot = sel["bucket_ts"].cast(pa.int64()).to_numpy() // US_PER_MIN
    idx = np.repeat(np.arange(sizes.size), sizes)
    # position within the bucket = running index - the bucket's first index
    pos = np.arange(ts_all.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    # each distinct conversation is hashed once; its points repeat the hash
    codes = conv.indices.to_numpy().astype(np.int64)[idx]
    part = assign_parts(
        conv.dictionary.to_numpy(zero_copy_only=False)[codes] if hot else np.empty(0),
        hash_strings(conv.dictionary)[codes],
        ts_all,
        config,
        hot,
    )
    return pa.table(
        {
            # dictionary-encoded to match DeriveAssign's delta schema:
            # _fold_part joins both with pa.concat_tables, which requires
            # identical types
            "conv_id": pa.DictionaryArray.from_arrays(
                pa.array(codes, type=pa.int32()), conv.dictionary
            ),
            "ts_us": pa.array(ts_all),
            "m": pa.array(m_all),
            "part": pa.array(part, type=pa.int32()),
            "src": pa.array(np.zeros(ts_all.size, dtype=np.int8)),
            "okey": pa.array((slot[idx] << _POS_BITS) + pos),
        }
    )


def _recompute_partition(batch: pa.Table, worker: RollupWorker) -> pa.Table:
    """One partition's merged (old-point + delta) rows:
    synthesize turn_idx (old rows ranked per conv by okey below 2**31,
    delta rows offset above it), then delegate to the UNMODIFIED
    RollupWorker kernel."""
    conv_dict = pc.dictionary_encode(
        batch["conv_id"].cast(pa.string()).combine_chunks()
    )
    codes = conv_dict.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    src = batch["src"].to_numpy(zero_copy_only=False)
    okey = batch["okey"].to_numpy(zero_copy_only=False)
    turn = np.empty(len(codes), dtype=np.int64)
    old = src == 0
    if old.any():
        oi = np.flatnonzero(old)
        order = np.lexsort((okey[oi], codes[oi]))
        oc = codes[oi][order]
        starts = np.r_[0, np.flatnonzero(oc[1:] != oc[:-1]) + 1]
        seg_id = np.cumsum(np.r_[False, oc[1:] != oc[:-1]])
        rank = np.arange(oc.size) - starts[seg_id]
        turn[oi[order]] = rank
    turn[~old] = _DELTA_OFFSET + okey[~old]
    merged = pa.table(
        {
            "conv_id": batch["conv_id"],
            "turn_idx": pa.array(turn),
            "ts_us": batch["ts_us"],
            "m": batch["m"],
        }
    )
    return worker(merged)


def _stage(prev: dict, batch: pa.Table, worker: RollupWorker) -> dict:
    """Stage record of a rewritten partition: the previous manifest's
    (``prev``) plus this fold's. ``rows_in`` adds the delta's turns only
    (the replayed old points were counted when they were ingested);
    ``dups_dropped`` adds the delta's duplicates (old points never collide
    with delta turn_idx); ``gap_filled``, the ``nan_cells_<tier>`` and the
    worker and eval seconds add this recompute's work, so a recomputed
    conversation's fills and NaN cells count once per write."""
    stage = dict(worker.last_stats)
    stage["rows_in"] = int(pc.sum(pc.equal(batch["src"], 1)).as_py() or 0)
    return {k: prev.get(k, 0) + v for k, v in stage.items()}


@ray.remote
def _derive(unit: InputUnit, config: RollupConfig, hot, max_convs: int) -> list:
    """One delta unit -> :func:`split_by_part` of its derived delta rows
    (P pieces, then their row counts), then at most ``max_convs + 1`` of
    its distinct conv_ids for the driver's bound check. Run with
    ``num_returns=P + 2``; the driver fetches the last two only."""
    table = unit.read(INPUT_COLUMNS)
    derived = _delta_prep(DeriveAssign(config, hot_list=_resolve_hot(hot))(table))
    convs = pc.unique(table["conv_id"].cast(pa.string())).slice(0, max_convs + 1)
    return split_by_part(derived, config.num_partitions) + [convs]


@ray.remote
def _fold_part(
    out_dir: str,
    part: int,
    delta_path: str,
    lineage: dict,
    config: RollupConfig,
    hot,
    *pieces: pa.Table,
):
    """Fold the delta rows routed to ``part`` (the ``pieces`` of the delta
    units that route rows here) into ``part=<part>``: replay
    the old 1m points of the delta's conversations in this file, recompute
    them with the cached worker and rewrite the file. Returns
    ``(part, rows written)``, or ``(part, None)`` when the partition's
    data file already holds ``delta_path`` (idempotent rerun).

    The delta chain is read from the data file's footer, not from the
    manifest: after a crash between the two writes the file holds the
    delta and the manifest does not, and then the manifest is restored
    from the file instead of folding the delta in twice."""
    manifest = None
    if os.path.exists(_manifest_path(out_dir, part)):
        with open(_manifest_path(out_dir, part)) as f:
            manifest = json.load(f)
    path = os.path.join(out_dir, f"part={part}", "data.parquet")
    held = _file_manifest(path) if os.path.exists(path) else None
    chain = held["lineage"].get("deltas", []) if held else []
    if delta_path in chain:
        if manifest is None or delta_path not in manifest["lineage"].get("deltas", []):
            _restore_manifest(out_dir, part, manifest)
        return part, None
    rows = pa.concat_tables(pieces)
    hot_set = set(_resolve_hot(hot) or ())
    kept, sel = None, pa.table({})
    if os.path.exists(path):
        old = pq.read_table(path)
        convs = pc.unique(rows["conv_id"].cast(pa.string()))
        mine = pc.is_in(old["conv_id"], value_set=convs)
        kept = old.filter(pc.invert(mine))
        sel = old.filter(pc.and_(mine, pc.equal(old["tier"], "1m")))
    points = _old_points(sel, config, hot_set)
    if pc.any(pc.not_equal(points["part"], part)).as_py():
        raise RuntimeError(
            f"partition {part} holds points that now route elsewhere: the "
            "store's partition assignment differs from this process's"
        )
    batch = pa.concat_tables([rows, points])
    worker = _cached_worker(_worker_key(config, hot), config, hot)
    rec = _recompute_partition(batch, worker)
    prev = manifest.get("stage", {}) if manifest else {}
    written = _write_partition(
        rec if kept is None else pa.concat_tables([kept, rec]),
        out_dir,
        part,
        dict(lineage, deltas=chain + [delta_path]),
        _stage(prev, batch, worker),
    )
    return part, written["rows"]


def update_rollup_job(
    out_dir: str,
    delta_path: str,
    *,
    max_update_convs: int = 2_000_000,
):
    """Fold a delta of new turns (a parquet file or a directory of them)
    into a CHECKPOINTED tier store on disk (the ``run_rollup_job`` output
    layout), rewriting ONLY the partitions the delta routes rows to —
    every other partition file is neither read nor rewritten.

    Plain Ray tasks in the rollup's routed shape, no Dataset: one
    ``_derive`` task per delta unit derives and splits its rows with the
    store's config and recorded hot set (from ``_job.json``); the driver
    holds only conv_ids and piece row counts, and checks the distinct
    conversations against ``max_update_convs`` before anything is
    written, as a ``turn_idx`` outside [0, 2**31) fails the derive. Then
    one ``_fold_part`` task per touched partition folds its pieces in
    (see the module docs for why routing finds every affected row).

    Resumable + idempotent per partition: each rewritten partition's
    lineage (in its data file's footer and in its manifest) records the
    applied delta chain; re-running the same delta skips partitions whose
    data file already carries it, so a rerun after a crash between two
    partitions finishes the rest, and one after a crash between a
    partition's data write and its manifest write restores that manifest
    from the file. ``_job.json`` records the delta once every partition
    has it; an empty delta changes nothing. A store written with another
    points codec version is refused before any task runs (its
    ``_job.json`` config fails ``RollupConfig.from_dict``)."""
    job_path = os.path.join(out_dir, "_job.json")
    with open(job_path) as f:
        prior = json.load(f)
    config = RollupConfig.from_dict(prior["config"])
    if not config.store_points:
        raise ValueError(
            "update_rollup_job needs a store built with store_points=True"
        )
    hot = _broadcast_hot(prior.get("hot") or [])
    derive = _derive.options(num_returns=config.num_partitions + 2)
    derived = [
        derive.remote(unit, config, hot, max_update_convs)
        for unit in input_units(delta_path)
    ]
    convs: set = set()
    for out in derived:
        convs.update(ray.get(out[-1]).to_pylist())
        if len(convs) > max_update_convs:
            raise ValueError(
                f"delta touches more than max_update_convs={max_update_convs} "
                "conversations; split the delta or raise the bound"
            )
    routed = route([out[:-1] for out in derived])
    done = sorted(completed_partitions(out_dir))
    if not routed:
        return {
            "partitions_rewritten": [],
            "partitions_skipped_applied": [],
            "partitions_untouched": done,
            "rows_written": 0,
        }
    lineage = {"input": prior["input"], "config": prior["config"]}
    folded = ray.get(
        [
            _fold_part.remote(out_dir, p, delta_path, lineage, config, hot, *pieces)
            for p, pieces in routed.items()
        ]
    )
    chain = prior.get("deltas", [])
    if delta_path not in chain:
        prior["deltas"] = chain + [delta_path]
        tmp = job_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(prior, f)
        os.replace(tmp, job_path)
    written = sorted(p for p, rows in folded if rows is not None)
    applied = sorted(p for p, rows in folded if rows is None)
    return {
        "partitions_rewritten": written,
        "partitions_skipped_applied": applied,
        "partitions_untouched": sorted(set(done) - set(routed)),
        "rows_written": sum(rows for _, rows in folded if rows is not None),
    }
