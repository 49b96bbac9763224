"""End-to-end rollup pipelines over ray.data Datasets.

``rollup_dataset`` is the one production path: derive (``DeriveAssign``)
→ pack (``pack_derived``) → ONE ``groupby("part")`` exchange →
:class:`RollupWorker` per partition, streaming, lazy. Its ``sink`` hook
hands each partition's tier rows to a writer inside the reduce task:
``run_rollup_job`` (state/checkpoint.py) is this pipeline at sized read
blocks plus the job's bookkeeping (lineage, resume filter, recorded hot
set) and the shared partition writer. ``rollup_table`` is the in-process
reference (no Ray) that the parity tests compare against.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Iterable, Sequence

import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from ..stages.rollup import (
    DeriveAssign,
    RollupConfig,
    RollupWorker,
    detect_hot_convs,
    pack_derived,
    unpack_packed,
)

INPUT_COLUMNS = ["conv_id", "turn_idx", "text", "ts"]

# Per-worker-process caches: a RollupWorker (suite construction, FFT
# scratch) and the broadcast hot set survive across tasks in the same Ray
# worker process. Keys are content, not object refs — the config dict and
# a digest of the sorted hot set — so repeated runs with the same hot set
# share one entry. The helpers that touch them are module-level so that a
# pickled task closure reaches the worker's module dicts, not copies.
_WORKER_CACHE: dict = {}
_HOT_CACHE: dict = {}
#: entries kept per cache and process; the oldest is evicted first
_CACHE_MAX = 8


def read_transcripts(
    path: str | Sequence[str],
    for_rollup: bool = True,
    num_blocks: int | None = None,
):
    """Prune at the read: the rollup needs only 4 of the 6 input columns.

    ``num_blocks`` sets the block count — Ray otherwise makes one or more
    blocks per file, and the exchange's cost grows with blocks x reduce
    partitions; ``stages.rollup.auto_num_blocks`` is the library's rule
    (4 per CPU, more only for very large inputs)."""
    columns = INPUT_COLUMNS if for_rollup else None
    kwargs = {}
    if num_blocks is not None:
        kwargs["override_num_blocks"] = num_blocks
    return rd.read_parquet(path, columns=columns, **kwargs)


def _cache_put(cache: dict, key: str, value):
    if len(cache) >= _CACHE_MAX:
        cache.pop(next(iter(cache)))
    cache[key] = value
    return value


def _broadcast_hot(hot_list) -> tuple[str, object] | None:
    """(content digest, object ref) of the sorted hot set, or None."""
    if not hot_list:
        return None
    hot = sorted(hot_list)
    key = hashlib.blake2b(json.dumps(hot).encode(), digest_size=16).hexdigest()
    return key, ray.put(hot)


def _resolve_hot(hot) -> list | None:
    if hot is None:
        return None
    key, ref = hot
    got = _HOT_CACHE.get(key)
    return got if got is not None else _cache_put(_HOT_CACHE, key, ray.get(ref))


def _worker_key(config: RollupConfig, hot) -> str:
    """Cache key of a worker: the config dict plus the hot-set digest."""
    return json.dumps(config.to_dict(), sort_keys=True) + ":" + (hot[0] if hot else "")


def _cached_worker(key: str, config: RollupConfig, hot) -> RollupWorker:
    worker = _WORKER_CACHE.get(key)
    if worker is None:
        worker = RollupWorker(config, hot_list=_resolve_hot(hot))
        _cache_put(_WORKER_CACHE, key, worker)
    return worker


def _derive_fn(config: RollupConfig, hot):
    def fn(batch: pa.Table) -> pa.Table:
        return DeriveAssign(config, hot_list=_resolve_hot(hot))(batch)

    return fn


def _worker_fn(config: RollupConfig, hot, sink):
    key = _worker_key(config, hot)

    def fn(batch: pa.Table) -> pa.Table:
        worker = _cached_worker(key, config, hot)
        out = worker(unpack_packed(batch))
        if sink is None:
            return out
        part = int(batch["part"][0].as_py()) if batch.num_rows else -1
        return sink(out, part, worker.last_stats)

    return fn


def drop_parts(ds, parts: Iterable[int]):
    """Drop rows whose ``part`` is in ``parts`` (a resume filter: applied
    before the exchange, so finished partitions cost no shuffle)."""
    done = pa.array(sorted(parts), type=pa.int32())

    def fn(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.invert(pc.is_in(batch["part"], value_set=done)))

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=None)


def rollup_dataset(
    ds,
    config: RollupConfig | None = None,
    *,
    hot_list=None,
    skip_parts: Iterable[int] = (),
    sink: Callable[[pa.Table, int, dict], pa.Table] | None = None,
):
    """Build the streaming rollup pipeline (lazy Dataset of tier rows).

    One hash exchange total: ``groupby("part")``, fed by the
    :func:`pack_derived` combiner, which moves one list-packed row per
    (block, part, conv-run) instead of one row per turn (the sort
    barrier's cost follows row count; BASELINE.md round 4). The worker
    unpacks, then sorts and dedups, so output is bit-identical to the
    in-process :func:`rollup_table` (tests/test_parallelism_invariance.py).

    The hot set is ``hot_list`` when given, else detected on ``ds`` when
    ``config.hot_threshold`` is set.

    ``skip_parts`` drops those partitions before the exchange. ``sink``,
    a picklable ``(tier_rows, part, stage_record) -> pa.Table``, runs in
    each reduce task after the worker; the Dataset then holds what it
    returns instead of tier rows (``run_rollup_job`` writes the partition
    and returns its one-row manifest summary).
    """
    config = config or RollupConfig()
    # auto partition count resolves BEFORE any worker state keys on
    # config.to_dict(). ds.count() is metadata-only for a fresh parquet
    # read; for an already-transformed dataset it executes the upstream
    # lineage once just to count — pass an explicit num_partitions (or a
    # pre-materialized dataset) in that case.
    config = config.resolved(ds.count()) if config.num_partitions is None else config
    if hot_list is None and config.hot_threshold is not None:
        hot_list = detect_hot_convs(ds, config.hot_threshold)
    hot = _broadcast_hot(hot_list)
    derived = ds.map_batches(
        _derive_fn(config, hot),
        batch_format="pyarrow",
        batch_size=None,  # whole blocks; the default 1024-row batches add
        zero_copy_batch=True,  # ~100x task overhead on wide scans
    ).map_batches(
        pack_derived,
        batch_format="pyarrow",
        batch_size=None,
        zero_copy_batch=True,
    )
    skip_parts = list(skip_parts)
    if skip_parts:
        derived = drop_parts(derived, skip_parts)
    return derived.groupby("part").map_groups(
        _worker_fn(config, hot, sink), batch_format="pyarrow"
    )


def rollup_table(
    table: pa.Table, config: RollupConfig | None = None, hot_list=None
) -> pa.Table:
    """In-process reference path (no Ray): derive + single-partition worker.

    Used by tests as the naive oracle and by tiny inputs; produces the same
    rows as ``rollup_dataset`` given the same ``hot_list``, modulo row
    order (no hot set is detected here).
    """
    config = (config or RollupConfig()).resolved(table.num_rows, num_cpus=1)
    derived = DeriveAssign(config, hot_list=hot_list)(table)
    return RollupWorker(config, hot_list=hot_list)(derived)


#: per-tier TTL in seconds; None = keep forever. The retention half of the
#: "rollup + downsample + retention" contract: fine tiers age out first,
#: coarse tiers persist (classic continuous-aggregate retention policy).
DEFAULT_RETENTION = {"1m": 7 * 86400, "1h": 90 * 86400, "1d": None}


def apply_retention(tiers_ds, now_us: int, policy: dict | None = None):
    """Filter tier rows by per-tier TTL: keep a row iff its tier's policy
    is None or ``bucket_ts >= now - ttl``. A stateless vectorized
    ``map_batches`` filter — at scale this prunes entire partitions when
    the tier parquet is partitioned by (tier, date), so retention is a
    metadata operation for expired partitions and a filter at the edge.
    ``now_us`` must be supplied by the caller (epoch microseconds) so the
    operation is deterministic and retry-safe."""
    policy = DEFAULT_RETENTION if policy is None else policy

    def f(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        import numpy as np
        import pyarrow.compute as pc

        bucket_us = batch["bucket_ts"].cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        tiers = batch["tier"].to_numpy(zero_copy_only=False)
        keep = np.ones(batch.num_rows, dtype=bool)
        for tier, ttl in policy.items():
            if ttl is None:
                continue
            cutoff = now_us - int(ttl) * 1_000_000
            keep &= (tiers != tier) | (bucket_us >= cutoff)
        return batch.filter(pa.array(keep))

    return tiers_ds.map_batches(f, batch_format="pyarrow", batch_size=None)
