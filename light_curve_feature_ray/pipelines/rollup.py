"""End-to-end rollup pipelines.

Both production entry points run one shape on plain Ray tasks: one map
task per map input — an input unit (:func:`input_units`: consecutive
row groups packed across the input files, one unit per cluster CPU
unless the input is large, from parquet metadata) or a non-empty block
of a Dataset — reads or converts its rows, derives and packs them
(:func:`_derive_pack`: ``DeriveAssign`` then ``pack_derived``) and splits
them by partition; ONE routed exchange (stages/exchange.py) then hands
each partition's pieces to one reduce task (:func:`_rollup_part`) that
runs :class:`RollupWorker`. No Ray Data operator runs between the input
and the reduce (:func:`rollup_units`).

- ``rollup_dataset(source)`` takes a parquet path (its input units) or a
  Dataset (its blocks). It executes when called and returns a Dataset
  over the reduce outputs. It has no hooks.
- ``run_rollup_job`` (state/checkpoint.py) runs on the input units of a
  path and adds its bookkeeping (lineage, the resume's ``skip_parts``,
  recorded hot set) and the partition writer as the reduce task's
  ``sink``.

``rollup_table`` is the in-process reference (no Ray) that the parity
tests compare against.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Iterable, Sequence

import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data as rd

from ..stages.exchange import cluster_cpus, dataset_blocks, route, split_by_part
from ..stages.rollup import (
    DeriveAssign,
    InputUnit,
    RollupConfig,
    RollupWorker,
    detect_hot_convs,
    input_rows,
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
    blocks per file. Every block is one map task of the rollup."""
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


#: the row target of ``input_units``: an input of R rows gets at least
#: ceil(R / ROWS_PER_BLOCK) units, so one map task holds at most about
#: this many rows; below CPUs * ROWS_PER_BLOCK rows (the benchmark's
#: 120 k-turn inputs) the CPU count sets the units instead. Unmeasured
#: above that size.
ROWS_PER_BLOCK = 250_000


def input_units(path: str) -> list[InputUnit]:
    """Split the input into map inputs from parquet metadata alone: the
    row groups of every file under ``path``, in sorted file order, packed
    consecutively into units that may span files.

    The number of units is ``max(ceil(rows / ROWS_PER_BLOCK), cluster
    CPUs)``, at most one per row group, so the map task count follows the
    cluster, not the file count. Cut the rows into that many equal
    shares: a row group joins the unit of the share its middle row falls
    in, so a row group is never split, and one larger than a share is a
    unit of its own. Empty row groups are skipped."""
    groups = []
    for file in parquet_files(path):
        meta = pq.read_metadata(file)
        for g in range(meta.num_row_groups):
            n = meta.row_group(g).num_rows
            if n:
                groups.append((file, g, n))
    total = sum(n for _, _, n in groups)
    target = min(max(-(-total // ROWS_PER_BLOCK), cluster_cpus()), len(groups))
    units: list[list] = []  # each unit's (file, row group, rows) triples
    start, share, last_big = 0, None, False
    for file, g, n in groups:
        big = n * target > total
        # the share of the middle row, start + n / 2, in integers
        mid_share = (2 * start + n) * target // (2 * total)
        if mid_share != share or big or last_big:
            units.append([])
        units[-1].append((file, g, n))
        start, share, last_big = start + n, mid_share, big
    return [_unit(unit) for unit in units]


def _unit(groups: list[tuple[str, int, int]]) -> InputUnit:
    """The input unit of consecutive ``(file, row group, rows)`` triples."""
    runs: dict[str, list[int]] = {}
    for file, g, _ in groups:
        runs.setdefault(file, []).append(g)
    return InputUnit(
        tuple((file, tuple(gs)) for file, gs in runs.items()),
        sum(n for _, _, n in groups),
    )


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
    """Input rows → derived, packed rows: the body of :func:`_map_unit`."""
    return pack_derived(DeriveAssign(config, hot_list=_resolve_hot(hot))(batch))


@ray.remote
def _map_unit(source, config: RollupConfig, hot, skip: list) -> list:
    """One map input (an input unit, or a Dataset block) → its derived,
    packed rows split by ``part``."""
    packed = _derive_pack(input_rows(source, INPUT_COLUMNS), config, hot)
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
    inputs: Iterable,
    config: RollupConfig,
    *,
    hot_list=(),
    skip_parts: Iterable[int] = (),
    sink: Callable[[pa.Table, int, dict], pa.Table] | None = None,
) -> list:
    """The rollup over map inputs on plain Ray tasks, for a config with
    ``num_partitions`` set. ``inputs`` holds input units and/or Dataset
    block refs (``stages.exchange.dataset_blocks``); one map task
    is launched per input as the iterable yields it. One reduce task runs
    per partition that receives rows and is not in ``skip_parts`` (a
    resume's completed partitions: their rows are dropped in the split).
    Returns the refs of the reduce outputs: tier rows, or, with ``sink``
    (a picklable ``(tier_rows, part, stage_record) -> pa.Table`` run in
    each reduce task after the worker), what it returns
    (``state.checkpoint.PartitionWriter`` writes the partition and
    returns its one-row summary)."""
    hot = _broadcast_hot(hot_list)
    skip = sorted(skip_parts)
    map_unit = _map_unit.options(num_returns=config.num_partitions + 1)
    routed = route([map_unit.remote(x, config, hot, skip) for x in inputs])
    return _reduce(routed, config, hot, sink)


def rollup_dataset(
    source,
    config: RollupConfig | None = None,
    *,
    hot_list=None,
):
    """Run the rollup over ``source`` and return a Dataset of tier rows.
    The pipeline executes when this is called; it is not lazy.

    ``source`` is a parquet path (a file or a directory) or a Dataset.
    A path runs one map task per input unit, which reads its 4 columns
    itself, so no input row enters the object store. A Dataset runs one
    map task per non-empty block, as the block is produced; its blocks
    do enter the object store (on a 4-column read, ``text`` is most of
    their bytes). Either way the map task derives, packs and splits its
    rows (:func:`rollup_units`), and one reduce task per partition
    unpacks its pieces and runs the worker, which sorts and dedups:
    output is bit-identical to the in-process :func:`rollup_table`
    (tests/test_parallelism_invariance.py).

    An unset ``config.num_partitions`` resolves from the units' row
    counts (parquet metadata) for a path, and from ``ds.count()`` for a
    Dataset: that executes a transformed Dataset's lineage once just to
    count, so pass an explicit ``num_partitions`` (or a materialized
    Dataset) in that case. The hot set is ``hot_list`` when given, else
    detected on ``source`` when ``config.hot_threshold`` is set.
    """
    config = config or RollupConfig()
    is_path = isinstance(source, str)
    if is_path:
        source = input_units(source)
    # auto partition count resolves BEFORE any worker state keys on
    # config.to_dict()
    if config.num_partitions is None:
        rows = sum(unit.rows for unit in source) if is_path else source.count()
        config = config.resolved(rows)
    if hot_list is None and config.hot_threshold is not None:
        hot_list = detect_hot_convs(source, config.hot_threshold)
    inputs = source if is_path else dataset_blocks(source)
    return rd.from_arrow_refs(rollup_units(inputs, config, hot_list=hot_list))


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
