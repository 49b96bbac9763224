"""End-to-end rollup pipelines.

Both production entry points run one derive + pack body
(:func:`_derive_pack`: ``DeriveAssign`` then ``pack_derived``) → ONE
routed exchange (stages/exchange.py) → :class:`RollupWorker` per
partition, and both end in the same reduce task (:func:`_rollup_part`):

- ``rollup_dataset(ds)`` runs that body as its one Ray Data map after
  the read, so the wide ``text`` column never enters the object store;
  each packed block goes to a split task. It executes when called and
  returns a Dataset over the reduce outputs. It has no hooks.
- ``run_rollup_job`` (state/checkpoint.py) runs on plain Ray tasks over
  :func:`input_units` (row-group ranges of the input files, from parquet
  metadata): one map task per unit reads, derives, packs and splits
  (:func:`rollup_units`); the job adds its bookkeeping (lineage, the
  resume's ``skip_parts``, recorded hot set) and the partition writer
  as the reduce task's ``sink``.

``rollup_table`` is the in-process reference (no Ray) that the parity
tests compare against.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data as rd

from ..stages.exchange import exchange, route, split_by_part
from ..stages.rollup import (
    ROWS_PER_BLOCK,
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

    ``num_blocks`` sets the block count; Ray otherwise makes one or more
    blocks per file. Every block is one split task of the exchange."""
    columns = INPUT_COLUMNS if for_rollup else None
    kwargs = {}
    if num_blocks is not None:
        kwargs["override_num_blocks"] = num_blocks
    return rd.read_parquet(path, columns=columns, **kwargs)


def parquet_files(path: str) -> list[str]:
    """The parquet files at ``path``: the file itself, or every data file
    under a directory (names starting with ``.`` or ``_`` are skipped)."""
    import pyarrow.dataset as pads

    return sorted(pads.dataset(path, format="parquet").files)


@dataclass(frozen=True)
class InputUnit:
    """A range of one parquet file's row groups: the input of one map
    task of ``run_rollup_job``."""

    path: str
    row_groups: tuple[int, ...]
    rows: int

    def read(self, columns: list[str]) -> pa.Table:
        with pq.ParquetFile(self.path) as f:
            return f.read_row_groups(list(self.row_groups), columns=columns)


def input_units(path: str) -> list[InputUnit]:
    """Split the input into units from parquet metadata alone: runs of
    consecutive row groups of one file, at most ``ROWS_PER_BLOCK`` rows
    each unless one row group alone holds more. Empty files give none."""
    units = []
    for file in parquet_files(path):
        meta = pq.read_metadata(file)
        groups: list[int] = []
        rows = 0
        for g in range(meta.num_row_groups):
            n = meta.row_group(g).num_rows
            if groups and rows + n > ROWS_PER_BLOCK:
                units.append(InputUnit(file, tuple(groups), rows))
                groups, rows = [], 0
            groups.append(g)
            rows += n
        if rows:
            units.append(InputUnit(file, tuple(groups), rows))
    return units


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


def _derive_pack(batch: pa.Table, config: RollupConfig, hot) -> pa.Table:
    """Input rows → derived, packed rows: the map side of both entry
    points (:func:`rollup_dataset`'s Ray Data map and :func:`_map_unit`)."""
    return pack_derived(DeriveAssign(config, hot_list=_resolve_hot(hot))(batch))


@ray.remote
def _map_unit(unit: InputUnit, config: RollupConfig, hot, skip: list) -> list:
    """One input unit → its derived, packed rows split by ``part``."""
    packed = _derive_pack(unit.read(INPUT_COLUMNS), config, hot)
    return split_by_part(packed, config.num_partitions, skip)


def _rollup_pieces(config: RollupConfig, hot, sink, part: int, *pieces: pa.Table):
    """The reduce task's body: one partition's packed pieces → tier rows,
    or whatever ``sink`` returns for them."""
    worker = _cached_worker(_worker_key(config, hot), config, hot)
    out = worker(unpack_packed(pa.concat_tables(pieces)))
    return out if sink is None else sink(out, part, worker.last_stats)


_rollup_part = ray.remote(_rollup_pieces)


def _reduce(routed: dict[int, list], config: RollupConfig, hot, sink) -> list:
    return [
        _rollup_part.remote(config, hot, sink, part, *pieces)
        for part, pieces in routed.items()
    ]


def rollup_units(
    units: Sequence[InputUnit],
    config: RollupConfig,
    *,
    hot_list=(),
    skip_parts: Iterable[int] = (),
    sink: Callable[[pa.Table, int, dict], pa.Table] | None = None,
) -> list:
    """The rollup over input units on plain Ray tasks, for a config with
    ``num_partitions`` set: one map task per unit, one reduce task per
    partition that receives rows and is not in ``skip_parts`` (a
    resume's completed partitions: their rows are dropped in the split).
    Returns the refs of the reduce outputs: tier rows, or, with ``sink``
    (a picklable ``(tier_rows, part, stage_record) -> pa.Table`` run in
    each reduce task after the worker), what it returns
    (``state.checkpoint.PartitionWriter`` writes the partition and
    returns its one-row summary)."""
    hot = _broadcast_hot(hot_list)
    skip = sorted(skip_parts)
    map_unit = _map_unit.options(num_returns=config.num_partitions + 1)
    routed = route([map_unit.remote(unit, config, hot, skip) for unit in units])
    return _reduce(routed, config, hot, sink)


def rollup_dataset(
    ds,
    config: RollupConfig | None = None,
    *,
    hot_list=None,
):
    """Run the rollup over ``ds`` and return a Dataset of tier rows. The
    pipeline executes when this is called; it is not lazy.

    Ray Data runs the read and one map, :func:`_derive_pack` (the body
    :func:`_map_unit` runs too), so only packed rows (one list-packed row
    per (block, part, conv run)) enter the object store. Each packed
    block then goes to a split task of the one routed exchange
    (stages/exchange.py), and one reduce task per partition unpacks its
    pieces and runs the worker, which sorts and dedups: output is
    bit-identical to the in-process :func:`rollup_table`
    (tests/test_parallelism_invariance.py).

    The hot set is ``hot_list`` when given, else detected on ``ds`` when
    ``config.hot_threshold`` is set.
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
    packed = ds.map_batches(
        _derive_pack,
        fn_kwargs={"config": config, "hot": hot},
        batch_format="pyarrow",
        batch_size=None,  # whole blocks; the default 1024-row batches add
        zero_copy_batch=True,  # ~100x task overhead on wide scans
    )
    routed = exchange(packed, config.num_partitions)
    return rd.from_arrow_refs(_reduce(routed, config, hot, None))


def rollup_table(
    table: pa.Table, config: RollupConfig | None = None, hot_list=None
) -> pa.Table:
    """In-process reference path (no Ray): derive + single-partition worker.

    The tests' reference; no production caller uses it. It produces the
    same rows as ``rollup_dataset`` given the same ``hot_list``, modulo
    row order (no hot set is detected here).
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
