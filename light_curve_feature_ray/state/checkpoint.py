"""Resumable job execution: per-partition parquet output + lineage manifests.

Output layout (resumable-output contract; no reference counterpart —
engine-side design):

    out_dir/
      _job.json                     # config + input lineage + hot set
      part=<p>/
        data.parquet                # tier rows of partition p; its footer
                                    # repeats the manifest's lineage
        _manifest.json              # completion marker + stage record

``run_rollup_job`` runs the rollup on plain Ray tasks, with no Dataset:
parquet metadata splits the input into units (consecutive row groups
packed across files, one per cluster CPU unless the input is large, see
``pipelines.rollup.input_units``); one count task per unit feeds the hot
pre-pass, one map task per unit reads, derives, packs and splits its rows
by partition, and one reduce task per partition runs the worker with
:class:`PartitionWriter` as its sink (the routed exchange,
stages/exchange.py). The job itself only keeps the books: lineage in
``_job.json``, the resume filter, and the hot set (detected once,
recorded, and replayed on resume and by ``update_rollup_job``).

Every writer — the job, :func:`write_dataset_partitioned` and
``update_rollup_job`` — goes through :func:`_write_partition`: the data
file is written atomically (temp file + rename) and the manifest last,
so a partition is complete iff its manifest exists. Each manifest holds
a stage record (rows in, duplicates dropped, gap-filled points, points
bytes per tier, worker wall and CPU seconds; per-operator snapshot
metadata in the manner of Flink's state backends); :func:`job_report`
sums them. The data file's parquet schema metadata carries the same
record less its timings, so an update can tell which deltas a file
holds even when a crash left an older manifest beside it. On resume,
completed partitions are dropped in the exchange's split and get no
reduce task, so a rerun only pays for the missing ones. Every stage is
deterministic (fixed hashes, no RNG), so retries and resumes produce
identical bytes.
"""

from __future__ import annotations

import json
import os
import time
from statistics import median
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..stages.exchange import dataset_blocks, route, split_by_part
from ..stages.rollup import (
    TIERS,
    RollupConfig,
    detect_hot_convs,
    hash_strings,
    input_rows,
)


def _manifest_path(out_dir: str, part: int) -> str:
    return os.path.join(out_dir, f"part={part}", "_manifest.json")


def completed_partitions(out_dir: str) -> set[int]:
    done = set()
    if not os.path.isdir(out_dir):
        return done
    for name in os.listdir(out_dir):
        if name.startswith("part="):
            p = int(name.split("=", 1)[1])
            if os.path.exists(_manifest_path(out_dir, p)):
                done.add(p)
    return done


#: parquet schema-metadata key of the manifest body a data file carries
_FOOTER_KEY = b"rollup_manifest"
#: stage-record fields that differ between two writes of the same rows;
#: they stay out of the data file so a retry writes identical bytes
_TIMINGS = ("worker_s", "worker_cpu_s") + tuple(f"eval_s_{tier}" for tier in TIERS)


def _column_options(schema: pa.Schema) -> dict[str, list[str]]:
    """The writer's fixed rule, keyed on column type: dictionary encoding
    on string columns only, statistics on string, integer and timestamp
    columns only. The float features and the points blobs are nearly
    unique per row: hashing them into dictionaries took half the write
    and saved 1 % of the bytes, and nothing filters on their min/max."""
    strings, ordered = [], []
    for field in schema:
        kind = field.type.value_type if pa.types.is_dictionary(field.type) else field.type
        if pa.types.is_string(kind) or pa.types.is_large_string(kind):
            strings.append(field.name)
        elif pa.types.is_integer(kind) or pa.types.is_timestamp(kind):
            ordered.append(field.name)
    return {"use_dictionary": strings, "write_statistics": strings + ordered}


def _write_partition(
    table: pa.Table,
    out_dir: str,
    part: int,
    lineage: dict[str, Any],
    stage: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """The one partition writer: ``part=<p>/data.parquet`` atomically,
    then its manifest. A tier table adds rows and points bytes per tier;
    ``stage`` (the worker's stage record) is stored with the latter. After
    ``update_rollup_job`` rewrites a partition, its stage record is
    cumulative over the job and every fold applied to it (see
    ``pipelines.update._stage``).

    The data file's schema metadata carries the manifest too, lineage
    included, less the file size, write time and worker seconds: a
    crash between the two writes leaves a file that says which deltas
    it holds (:func:`_file_manifest`, :func:`_restore_manifest`). Column
    encodings and statistics follow :func:`_column_options`."""
    manifest: dict[str, Any] = {"partition": part, "rows": table.num_rows, "lineage": lineage}
    names = table.column_names
    if "tier" in names:
        counts = pc.value_counts(table["tier"]).to_pylist()
        manifest["tiers"] = {d["values"]: d["counts"] for d in counts}
        if "points" in names:
            sizes = pa.table(
                {
                    "tier": table["tier"],
                    "b": pc.binary_length(table["points"]).cast(pa.int64()),
                }
            ).group_by("tier").aggregate([("b", "sum")])
            stage = dict(stage or {})
            stage["points_bytes"] = dict(
                zip(sizes["tier"].to_pylist(), sizes["b_sum"].to_pylist())
            )
    if stage is not None:
        manifest["stage"] = stage
    footer = dict(manifest)
    if stage is not None:
        footer["stage"] = {k: v for k, v in stage.items() if k not in _TIMINGS}
    metadata = dict(table.schema.metadata or {})
    metadata[_FOOTER_KEY] = json.dumps(footer, sort_keys=True).encode()
    part_dir = os.path.join(out_dir, f"part={part}")
    os.makedirs(part_dir, exist_ok=True)
    tmp = os.path.join(part_dir, ".data.parquet.tmp")
    pq.write_table(
        table.replace_schema_metadata(metadata), tmp, **_column_options(table.schema)
    )
    os.replace(tmp, os.path.join(part_dir, "data.parquet"))
    return _commit_manifest(out_dir, manifest)


def _commit_manifest(out_dir: str, body: dict[str, Any]) -> dict[str, Any]:
    """Write a partition's manifest (``body`` plus the data file's size
    and the write time) atomically: the partition's completion marker."""
    part = body["partition"]
    data = os.path.join(out_dir, f"part={part}", "data.parquet")
    manifest = dict(body, bytes=os.path.getsize(data), written_at=time.time())
    tmp_m = _manifest_path(out_dir, part) + ".tmp"
    with open(tmp_m, "w") as f:
        json.dump(manifest, f)
    os.replace(tmp_m, _manifest_path(out_dir, part))
    return manifest


def _file_manifest(path: str) -> dict[str, Any] | None:
    """The manifest body a data file was written with, read from its
    footer alone (None for a file written without one)."""
    body = (pq.read_schema(path).metadata or {}).get(_FOOTER_KEY)
    return None if body is None else json.loads(body)


def _restore_manifest(out_dir: str, part: int, stale: dict | None) -> dict[str, Any]:
    """Rewrite ``part``'s manifest from its data file after a crash
    between the data write and the manifest write. Only the worker
    seconds of the torn write are lost; ``stale`` (the manifest the crash
    left behind, if any) keeps its own."""
    body = _file_manifest(os.path.join(out_dir, f"part={part}", "data.parquet"))
    old = (stale or {}).get("stage", {})
    if "stage" in body:
        body["stage"].update({k: old[k] for k in _TIMINGS if k in old})
    return _commit_manifest(out_dir, body)


def _summary_row(part: int, rows: int) -> pa.Table:
    """One-row per-partition summary."""
    return pa.table(
        {
            "partition": pa.array([part], type=pa.int32()),
            "rows": pa.array([rows], type=pa.int64()),
        }
    )


class PartitionWriter:
    """Rollup sink: write one partition with its stage record and emit
    its one-row summary."""

    def __init__(self, out_dir: str, lineage: dict[str, Any]):
        self.out_dir = out_dir
        self.lineage = lineage

    def __call__(self, table: pa.Table, part: int, stage: dict) -> pa.Table:
        manifest = _write_partition(table, self.out_dir, part, self.lineage, stage)
        return _summary_row(part, manifest["rows"])


def _load_job(out_dir: str) -> dict | None:
    path = os.path.join(out_dir, "_job.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def run_rollup_job(
    input_path: str,
    out_dir: str,
    config: RollupConfig | None = None,
) -> dict[str, Any]:
    """Run (or resume) the rollup over transcript parquet at ``input_path``,
    writing per-partition tier parquet + manifests under ``out_dir``.
    Returns a job summary dict, with the task shape: ``map_tasks`` (one
    per input unit) and ``reduce_tasks`` (one per partition written).
    This is the ``ray job submit`` entrypoint body (see
    scripts/rollup_job.py)."""
    from dataclasses import replace

    from ..pipelines.rollup import input_units, rollup_units

    config = config or RollupConfig()
    # parquet metadata: no data is read to split or count
    units = input_units(input_path)
    n_rows = sum(unit.rows for unit in units)
    os.makedirs(out_dir, exist_ok=True)
    done = completed_partitions(out_dir)
    prior = _load_job(out_dir)
    resume = prior is not None and prior.get("input") == input_path
    if config.num_partitions is None:
        # a RESUME must reuse the original partition modulus: the auto
        # rule depends on cluster size, and mixing two moduli across
        # one output directory silently drops/duplicates conversations
        config = (
            replace(config, num_partitions=int(prior["config"]["num_partitions"]))
            if resume
            else config.resolved(n_rows)
        )
    # the config dict holds the points codec version, so a store in an
    # older format fails here too
    same_lineage = resume and prior.get("config") == config.to_dict()
    if done and not same_lineage:
        raise ValueError(
            "refusing to resume: existing _job.json lineage in "
            f"{out_dir!r} records a different input, config or points codec "
            "than this run; use a fresh out_dir (rebuild the store) or pass "
            "the original config"
        )
    if same_lineage:
        # the recorded hot set is part of the partition-assignment
        # identity: replaying it keeps a resumed partition's rows exact
        hot = list(prior.get("hot", []))
    else:
        hot = []
        if config.hot_threshold is not None:
            hot = sorted(detect_hot_convs(units, config.hot_threshold))
        # the incremental update job (pipelines/update.py) replays it too
        job = {"input": input_path, "config": config.to_dict(), "hot": hot}
        tmp = os.path.join(out_dir, "_job.json.tmp")
        with open(tmp, "w") as f:
            json.dump(job, f)
        os.replace(tmp, os.path.join(out_dir, "_job.json"))
    lineage = {"input": input_path, "config": config.to_dict(), "hot": hot}
    summaries = ray.get(
        rollup_units(
            units,
            config,
            hot_list=hot,
            skip_parts=done,
            sink=PartitionWriter(out_dir, lineage),
        )
    )
    written = [t["partition"][0].as_py() for t in summaries]
    return {
        "partitions_completed_previously": sorted(done),
        "partitions_written": sorted(written),
        "rows_written": sum(t["rows"][0].as_py() for t in summaries),
        "map_tasks": len(units),
        "reduce_tasks": len(summaries),
    }


def job_report(out_dir: str) -> dict[str, Any]:
    """Totals over the manifests of every completed partition — rows,
    bytes, tier rows and the summed stage records — plus partition skew:
    max / median of the tier rows written per non-empty partition.

    The stage totals stay cumulative across incremental updates:
    ``rows_in`` counts every turn ingested (job input plus deltas) and
    ``rows_in - dups_dropped`` equals the 1m tier's summed ``n_points``."""
    manifests = []
    for p in sorted(completed_partitions(out_dir)):
        with open(_manifest_path(out_dir, p)) as f:
            manifests.append(json.load(f))
    report: dict[str, Any] = {
        "partitions": len(manifests),
        "rows": sum(m["rows"] for m in manifests),
        "bytes": sum(m["bytes"] for m in manifests),
        "tiers": {},
        "stage": {},
    }

    def add(into: dict, record: dict) -> None:
        for key, value in record.items():
            if isinstance(value, dict):
                add(into.setdefault(key, {}), value)
            else:
                into[key] = into.get(key, 0) + value

    for m in manifests:
        add(report["tiers"], m.get("tiers", {}))
        add(report["stage"], m.get("stage", {}))
    rows = [m["rows"] for m in manifests if m["rows"]]
    report["part_rows_max"] = max(rows, default=0)
    report["part_rows_median"] = median(rows) if rows else 0
    report["part_rows_skew"] = max(rows) / median(rows) if rows else 0.0
    return report


def read_rollup_output(out_dir: str):
    """Dataset over all completed partitions' rows — a torn partition
    without its manifest is invisible (the resume contract). Reads both
    the job's and :func:`write_dataset_partitioned`'s layout."""
    import ray.data as rd

    paths = [
        os.path.join(out_dir, f"part={p}", "data.parquet")
        for p in sorted(completed_partitions(out_dir))
    ]
    if not paths:
        raise ValueError(f"no completed partitions in {out_dir!r}")
    # the written schema without its footer (each file's describes that
    # partition alone), and no "part" column inferred from the part=<p>
    # directory names
    return rd.read_parquet(
        paths, schema=pq.read_schema(paths[0]).remove_metadata(), partitioning=None
    )


@ray.remote
def _assign_split(block, key_col: str, num_parts: int, skip: list) -> list:
    """Map task of :func:`write_dataset_partitioned`: one block → its rows
    with ``part = hash(key_col) % num_parts``, split by part (the rows of
    ``skip`` parts dropped)."""
    table = input_rows(block)
    key = table[key_col]
    if not pa.types.is_string(key.type):
        key = pc.cast(key, pa.string())
    part = (hash_strings(key) % np.uint64(num_parts)).astype(np.int32)
    return split_by_part(table.append_column("part", pa.array(part)), num_parts, skip)


@ray.remote
def _write_routed(out_dir: str, part: int, lineage: dict, *pieces: pa.Table) -> int:
    """Reduce task of :func:`write_dataset_partitioned`: one partition's
    pieces → its data file and manifest; returns the rows written."""
    # blocks of one Dataset may differ in schema (a null-typed column in
    # a block of nulls), as Ray Data's own concatenation allows
    table = pa.concat_tables(pieces, promote_options="permissive")
    return _write_partition(table.drop_columns(["part"]), out_dir, part, lineage)["rows"]


def write_dataset_partitioned(
    ds,
    out_dir: str,
    *,
    key_col: str,
    num_partitions: int = 64,
    lineage: dict | None = None,
):
    """Generic resumable partitioned-parquet sink for ANY Dataset — the
    rollup job's checkpoint contract (one ``part=<p>/`` directory per
    hash partition, atomic data.parquet + ``_manifest.json`` written
    LAST, so a partition is complete iff its manifest exists) applied
    to arbitrary pipelines: dedup decision tables, curation outputs,
    resampled series. On rerun over the same ``out_dir``, completed
    partitions are dropped in the exchange's split — their bytes are never
    rewritten — and only the missing ones recompute, which is what makes
    a 100-TB write restartable after a mid-job failure. Partition assignment hashes
    ``key_col`` with the engine's fixed deterministic hash, so the
    row→partition map is identical across retries and cluster sizes
    (same rule as the rollup; ``num_partitions`` is part of the output
    identity and is recorded in every manifest).

    Returns a summary dict: partitions written, partitions skipped (the
    ones already complete), rows written.

    Scale shape: the rollup's one routed exchange (stages/exchange.py):
    one plain map task per non-empty block of ``ds`` hashes and splits
    it, and a reduce task per partition writes its own partition
    directory — no driver bottleneck, no single giant file. The Dataset
    executes when this is called.
    """
    done = completed_partitions(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    base_lineage = dict(lineage or {})
    base_lineage.setdefault("key_col", key_col)
    base_lineage.setdefault("num_partitions", num_partitions)
    split = _assign_split.options(num_returns=num_partitions + 1)
    skip = sorted(done)
    routed = route(
        [split.remote(b, key_col, num_partitions, skip) for b in dataset_blocks(ds)]
    )
    rows = ray.get(
        [
            _write_routed.remote(out_dir, part, base_lineage, *pieces)
            for part, pieces in routed.items()
        ]
    )
    return {
        "out_dir": out_dir,
        "partitions_written": len(rows),
        "partitions_skipped": len(done),
        "rows_written": sum(rows),
    }
