"""Incremental continuous-aggregate update: fold a DELTA of new turns
into an existing tier store without recomputing untouched conversations.

The tier cascade derives 1h/1d from the per-minute series, and the 1m
tier stores each bucket's raw (ts, m) points Gorilla-compressed — so the
1m tier IS the engine's state store.  ``rollup_update`` therefore:

1. derives the delta exactly like the full pipeline (``DeriveAssign``:
   text -> m, salted partition assignment);
2. computes the affected conversation set (distinct delta conv_ids,
   broadcast once via ``ray.put`` under a loud ``max_update_convs``
   bound);
3. streams the old tier rows once as pure PASSTHROUGH for unaffected
   conversations (no decode, no recompute — at 100 TB this is the vast
   majority of rows, moving straight from read to write);
4. streams the old 1m rows of affected conversations a second time,
   decoding their Gorilla points back into (ts, m) rows that join the
   delta in the SAME salted hash exchange the full pipeline uses;
5. re-runs the unmodified ``RollupWorker`` kernel per partition, so
   every invariant (dedup settle rule, salt-window gap-fill truncation,
   partition invariance) holds by construction, and recomputed bytes —
   including the Gorilla points column — are identical to a full run.

Update contract (documented, tested):

- ``config.store_points`` must be True (the 1m points are the state);
- append semantics: delta ``turn_idx`` must be NEW turns, strictly
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

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from ..codec import gorilla
from ..stages.rollup import (
    DeriveAssign,
    RollupConfig,
    RollupWorker,
    assign_parts,
    hash_strings,
)

US_PER_MIN = 60 * 1_000_000
_DELTA_OFFSET = np.int64(2) ** 31
_POS_BITS = 21  # max 2**21 points per (conv, minute) bucket in okey


def _exchange_schema(batch_like: dict) -> pa.Table:
    return pa.table(batch_like)


def _delta_prep(batch: pa.Table) -> pa.Table:
    """DeriveAssign output -> exchange rows (src=1, okey=turn_idx)."""
    turn = batch["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
    if turn.size and (turn.min() < 0 or turn.max() >= _DELTA_OFFSET):
        raise ValueError("delta turn_idx must be in [0, 2**31)")
    return _exchange_schema(
        {
            "conv_id": batch["conv_id"],
            "ts_us": batch["ts_us"],
            "m": batch["m"],
            "part": batch["part"],
            "src": pa.array(np.ones(len(turn), dtype=np.int8)),
            "okey": pa.array(turn),
        }
    )


def _passthrough_fn(conv_ref):
    def fn(batch: pa.Table) -> pa.Table:
        convs = ray.get(conv_ref)
        keep = pc.invert(pc.is_in(batch["conv_id"], value_set=convs))
        return batch.filter(keep)

    return fn


def _extract_points_fn(conv_ref, config: RollupConfig, hot_ref):
    """Old 1m rows of affected convs -> decoded exchange rows (src=0,
    okey = minute_slot * 2**21 + in-bucket position: unique per conv and
    ordered exactly like the original turn order, since points are
    encoded in turn order within each slot-sorted bucket)."""

    def fn(batch: pa.Table) -> pa.Table:
        convs = ray.get(conv_ref)
        hot = set(ray.get(hot_ref)) if hot_ref is not None else set()
        mask = pc.and_(
            pc.equal(batch["tier"], "1m"),
            pc.is_in(batch["conv_id"], value_set=convs),
        )
        sel = batch.filter(mask)
        empty = {
            "conv_id": pc.dictionary_encode(pa.array([], pa.string())),
            "ts_us": pa.array([], pa.int64()),
            "m": pa.array([], pa.float64()),
            "part": pa.array([], pa.int32()),
            "src": pa.array([], pa.int8()),
            "okey": pa.array([], pa.int64()),
        }
        if sel.num_rows == 0:
            return _exchange_schema(empty)
        conv_col = sel["conv_id"].cast(pa.string())
        bucket_us = sel["bucket_ts"].cast(pa.int64()).to_numpy()
        blobs = sel["points"].to_pylist()
        ts_parts, m_parts, conv_idx, okeys = [], [], [], []
        for i, blob in enumerate(blobs):
            ts, m = gorilla.decode(blob)
            if ts.size >= (1 << _POS_BITS):
                raise ValueError(
                    f"bucket with {ts.size} points exceeds the okey "
                    f"position budget (2**{_POS_BITS})"
                )
            slot = bucket_us[i] // US_PER_MIN
            ts_parts.append(ts)
            m_parts.append(m)
            conv_idx.append(np.full(ts.size, i, dtype=np.int64))
            okeys.append(
                (slot << _POS_BITS) + np.arange(ts.size, dtype=np.int64)
            )
        ts_all = np.concatenate(ts_parts)
        m_all = np.concatenate(m_parts)
        idx = np.concatenate(conv_idx)
        conv_out = conv_col.combine_chunks().take(pa.array(idx))
        h = hash_strings(conv_out)
        part = assign_parts(
            conv_out.to_numpy(zero_copy_only=False) if hot else np.empty(0),
            h,
            ts_all,
            config,
            hot,
        )
        return _exchange_schema(
            {
                # dictionary-encoded to match DeriveAssign's delta schema
                # (union requires identical types) and to shrink the
                # exchange payload the same way
                "conv_id": pc.dictionary_encode(conv_out),
                "ts_us": pa.array(ts_all.astype(np.int64)),
                "m": pa.array(m_all.astype(np.float64)),
                "part": pa.array(part, type=pa.int32()),
                "src": pa.array(np.zeros(ts_all.size, dtype=np.int8)),
                "okey": pa.array(np.concatenate(okeys)),
            }
        )

    return fn


def _recompute_partition(batch: pa.Table, worker: RollupWorker) -> pa.Table:
    """One exchange partition of merged (old-point + delta) rows:
    synthesize turn_idx (old rows ranked per conv by okey below 2**31,
    delta rows offset above it), then delegate to the UNMODIFIED
    RollupWorker kernel."""
    if batch.num_rows == 0:
        return worker(
            pa.table(
                {
                    "conv_id": pa.array([], pa.string()),
                    "turn_idx": pa.array([], pa.int64()),
                    "ts_us": pa.array([], pa.int64()),
                    "m": pa.array([], pa.float64()),
                }
            )
        )
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


def _update_worker_fn(config: RollupConfig, hot_ref):
    def fn(batch: pa.Table) -> pa.Table:
        hot = list(ray.get(hot_ref)) if hot_ref is not None else None
        return _recompute_partition(batch, RollupWorker(config, hot_list=hot))

    return fn


def rollup_update(
    old_tiers_ds,
    delta_ds,
    config: RollupConfig,
    *,
    hot_list=None,
    max_update_convs: int = 2_000_000,
    exchange_partitions: int | None = None,
):
    """Fold a delta of new turns into an existing tier-row Dataset.

    Returns the UPDATED full tier Dataset: unaffected conversations pass
    through untouched (streamed, never decoded); affected conversations
    are recomputed bit-identically to a full rollup over
    (old turns + delta) under the append contract in the module docs.
    ``config`` must match the one that produced ``old_tiers_ds``
    (``num_partitions`` resolved, ``store_points=True``).

    ``exchange_partitions`` sizes the update's OWN exchange — the output
    is partition-invariant (tested), so a small delta should use far
    fewer partitions than the store was built with; the store modulus
    only matters at the job level (update_rollup_job), where rewritten
    files must align with existing ones."""
    if not config.store_points:
        raise ValueError(
            "rollup_update needs store_points=True: the 1m Gorilla points "
            "are the state the update replays"
        )
    if config.num_partitions is None:
        raise ValueError("pass the resolved config (num_partitions set)")

    convs = delta_ds.unique("conv_id")
    if len(convs) > max_update_convs:
        raise ValueError(
            f"delta touches {len(convs)} conversations > max_update_convs="
            f"{max_update_convs}; split the delta or raise the bound"
        )
    conv_ref = ray.put(pa.array(sorted(convs), type=pa.string()))
    hot_ref = ray.put(list(hot_list)) if hot_list else None

    ex_cfg = config
    if exchange_partitions is not None:
        from dataclasses import replace

        ex_cfg = replace(config, num_partitions=int(exchange_partitions))

    derived = delta_ds.map_batches(
        DeriveAssign(ex_cfg, hot_list=hot_list),
        batch_format="pyarrow",
        batch_size=None,
        zero_copy_batch=True,
    ).map_batches(_delta_prep, batch_format="pyarrow", batch_size=None)

    old_points = old_tiers_ds.map_batches(
        _extract_points_fn(conv_ref, ex_cfg, hot_ref),
        batch_format="pyarrow",
        batch_size=None,
    )

    recomputed = (
        derived.union(old_points)
        .groupby("part")
        .map_groups(_update_worker_fn(ex_cfg, hot_ref), batch_format="pyarrow")
    )

    passthrough = old_tiers_ds.map_batches(
        _passthrough_fn(conv_ref), batch_format="pyarrow", batch_size=None
    )
    return passthrough.union(recomputed)


def _stage(out_dir: str, part: int, batch: pa.Table, worker: RollupWorker):
    """Stage record of a rewritten partition: the previous manifest's plus
    this fold's. ``rows_in`` adds the delta's turns only (the replayed old
    points were counted when they were ingested); ``dups_dropped`` adds the
    delta's duplicates (old points never collide with delta turn_idx);
    ``gap_filled`` and the worker seconds add this recompute's work, so a
    recomputed conversation's fills count once per write."""
    import json
    import os

    from ..state.checkpoint import _manifest_path

    stage = dict(worker.last_stats)
    stage["rows_in"] = int(pc.sum(pc.equal(batch["src"], 1)).as_py() or 0)
    path = _manifest_path(out_dir, part)
    if os.path.exists(path):
        with open(path) as f:
            prev = json.load(f).get("stage", {})
        stage = {k: prev.get(k, 0) + v for k, v in stage.items()}
    return stage


def update_rollup_job(
    out_dir: str,
    delta_path: str,
    *,
    max_update_convs: int = 2_000_000,
):
    """Fold a delta of new turns into a CHECKPOINTED tier store on disk
    (the ``run_rollup_job`` output layout), rewriting ONLY the partitions
    that contain affected conversations plus any partitions the delta
    newly creates — unaffected partition files are never read beyond
    their conv_id column, never rewritten.

    Resumable + idempotent per partition: each rewritten partition's
    manifest lineage records the applied delta chain; re-running the same
    delta skips partitions that already carry it (atomic temp+rename
    writes, manifest last — a crash mid-update leaves a store where every
    partition is either fully old or fully updated, and a rerun finishes
    the rest).

    The stored ``_job.json`` lineage supplies the original config and hot
    set, so partition assignment replays identically."""
    import json
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    from ..pipelines.rollup import drop_parts, read_transcripts
    from ..state.checkpoint import (
        _manifest_path,
        _summary_row,
        _write_partition,
        completed_partitions,
    )

    job_path = os.path.join(out_dir, "_job.json")
    with open(job_path) as f:
        prior = json.load(f)
    config = RollupConfig.from_dict(prior["config"])
    if not config.store_points:
        raise ValueError(
            "update_rollup_job needs a store built with store_points=True"
        )
    hot = prior.get("hot") or []
    delta = read_transcripts(delta_path)
    # Dataset.unique returns None (not []) on an empty dataset; an empty
    # delta is a valid no-op update — every partition stays untouched.
    convs = delta.unique("conv_id") or []
    if not convs:
        return {
            "partitions_rewritten": [],
            "partitions_skipped_applied": [],
            "partitions_untouched": sorted(completed_partitions(out_dir)),
            "rows_written": 0,
        }
    if len(convs) > max_update_convs:
        raise ValueError(
            f"delta touches {len(convs)} conversations > max_update_convs="
            f"{max_update_convs}"
        )
    conv_ref = ray.put(pa.array(sorted(convs), type=pa.string()))
    hot_ref = ray.put(list(hot)) if hot else None

    def _file(p: int) -> str:
        return os.path.join(out_dir, f"part={p}", "data.parquet")

    done = sorted(completed_partitions(out_dir))

    # which existing partitions contain affected conversations? One
    # column-pruned conv_id scan per partition file, fanned out as tasks.
    @ray.remote
    def _scan(part: int, path: str, conv_set):
        # conv_set arrives deref'd: Ray resolves ObjectRef args in tasks
        import pyarrow.compute as pcc
        import pyarrow.parquet as pqq

        col = pqq.read_table(path, columns=["conv_id"])["conv_id"]
        hit = pcc.any(pcc.is_in(col, value_set=conv_set)).as_py()
        return part if hit else None

    hits = ray.get([_scan.remote(p, _file(p), conv_ref) for p in done])
    affected_old = {p for p in hits if p is not None}

    # idempotency: skip partitions whose manifest already carries this delta
    applied, prior_deltas = set(), {}
    for p in affected_old:
        with open(_manifest_path(out_dir, p)) as f:
            mf = json.load(f)
        chain = mf.get("lineage", {}).get("deltas", [])
        prior_deltas[p] = chain
        if delta_path in chain:
            applied.add(p)
    pending_old = sorted(affected_old - applied)

    derived = delta.map_batches(
        DeriveAssign(config, hot_list=hot or None),
        batch_format="pyarrow",
        batch_size=None,
        zero_copy_batch=True,
    ).map_batches(_delta_prep, batch_format="pyarrow", batch_size=None)
    if applied:
        derived = drop_parts(derived, applied)
    merged = derived
    if pending_old:
        old_points = rd.read_parquet(
            [_file(p) for p in pending_old]
        ).map_batches(
            _extract_points_fn(conv_ref, config, hot_ref),
            batch_format="pyarrow",
            batch_size=None,
        )
        merged = derived.union(old_points)

    lineage_base = {"input": prior["input"], "config": prior["config"]}
    deltas_ref = ray.put(prior_deltas)

    def write_part(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _summary_row(None)
        part = int(batch["part"][0].as_py())
        hot_l = list(ray.get(hot_ref)) if hot_ref is not None else None
        worker = RollupWorker(config, hot_list=hot_l)
        rec = _recompute_partition(batch, worker)
        path = _file(part)
        if os.path.exists(path):
            oldt = pq.read_table(path)
            keep = pc.invert(
                pc.is_in(oldt["conv_id"], value_set=ray.get(conv_ref))
            )
            combined = pa.concat_tables([oldt.filter(keep), rec])
        else:
            combined = rec
        lineage = dict(lineage_base)
        lineage["deltas"] = ray.get(deltas_ref).get(part, []) + [delta_path]
        manifest = _write_partition(
            combined, out_dir, part, lineage, _stage(out_dir, part, batch, worker)
        )
        return _summary_row(part, manifest["rows"])

    manifests = merged.groupby("part").map_groups(
        write_part, batch_format="pyarrow"
    ).to_pandas()
    chain = prior.get("deltas", [])
    if delta_path not in chain:
        prior["deltas"] = chain + [delta_path]
        tmp = job_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(prior, f)
        os.replace(tmp, job_path)
    written = (
        sorted(manifests["partition"].tolist()) if len(manifests) else []
    )
    return {
        "partitions_rewritten": written,
        "partitions_skipped_applied": sorted(applied),
        "partitions_untouched": sorted(set(done) - set(written) - applied),
        "rows_written": int(manifests["rows"].sum()) if len(manifests) else 0,
    }
