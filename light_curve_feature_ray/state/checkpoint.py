"""Resumable job execution: per-partition parquet output + lineage manifests.

Output layout (resumable-output contract; no reference counterpart —
engine-side design):

    out_dir/
      _job.json                     # config + input lineage + hot set
      part=<p>/
        data.parquet                # tier rows of partition p; its footer
                                    # repeats the manifest's lineage
        _manifest.json              # completion marker + stage record

``run_rollup_job`` is ``rollup_dataset`` (pipelines/rollup.py) over a
read sized by ``auto_num_blocks``, with :class:`PartitionWriter` as its
per-partition sink; the job itself only keeps the books: lineage in
``_job.json``, the resume filter, and the hot set (detected once on a
conv_id-only read, recorded, and replayed on resume and by
``update_rollup_job``).

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
completed partitions are dropped before the exchange, so a rerun only
pays for the missing ones. Every stage is deterministic (fixed hashes,
no RNG), so retries and resumes produce identical bytes.
"""

from __future__ import annotations

import json
import os
import time
from statistics import median
from typing import Any

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..stages.rollup import RollupConfig, auto_num_blocks, detect_hot_convs


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
_TIMINGS = ("worker_s", "worker_cpu_s")


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
    it holds (:func:`_file_manifest`, :func:`_restore_manifest`)."""
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
    pq.write_table(table.replace_schema_metadata(metadata), tmp)
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


def _summary_row(part: int | None, rows: int = 0) -> pa.Table:
    """One-row (or, for ``part=None``, empty) per-partition summary."""
    parts, counts = ([], []) if part is None else ([part], [rows])
    return pa.table(
        {
            "partition": pa.array(parts, type=pa.int32()),
            "rows": pa.array(counts, type=pa.int64()),
        }
    )


class PartitionWriter:
    """``rollup_dataset`` sink: write one partition with its stage record
    and emit its one-row summary (the job's Dataset output)."""

    def __init__(self, out_dir: str, lineage: dict[str, Any]):
        self.out_dir = out_dir
        self.lineage = lineage

    def __call__(self, table: pa.Table, part: int, stage: dict) -> pa.Table:
        if part < 0:  # an empty reduce group: nothing to write
            return _summary_row(None)
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
    Returns a job summary dict. This is the ``ray job submit`` entrypoint
    body (see scripts/rollup_job.py)."""
    from dataclasses import replace

    import ray.data as rd

    from ..pipelines.rollup import read_transcripts, rollup_dataset

    config = config or RollupConfig()
    # parquet metadata: no data is read to count
    n_rows = read_transcripts(input_path).count()
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
    num_blocks = auto_num_blocks(n_rows)
    if same_lineage:
        # the recorded hot set is part of the partition-assignment
        # identity: replaying it keeps a resumed partition's rows exact
        hot = list(prior.get("hot", []))
    else:
        hot = []
        if config.hot_threshold is not None:
            ids = rd.read_parquet(
                input_path, columns=["conv_id"], override_num_blocks=num_blocks
            )
            hot = sorted(detect_hot_convs(ids, config.hot_threshold))
        # the incremental update job (pipelines/update.py) replays it too
        job = {"input": input_path, "config": config.to_dict(), "hot": hot}
        tmp = os.path.join(out_dir, "_job.json.tmp")
        with open(tmp, "w") as f:
            json.dump(job, f)
        os.replace(tmp, os.path.join(out_dir, "_job.json"))
    lineage = {"input": input_path, "config": config.to_dict(), "hot": hot}
    new_parts = rollup_dataset(
        read_transcripts(input_path, num_blocks=num_blocks),
        config,
        hot_list=hot,
        skip_parts=done,
        sink=PartitionWriter(out_dir, lineage),
    ).to_pandas()
    # a finished job leaves nothing to exchange: an empty, column-less frame
    written = new_parts["partition"].tolist() if len(new_parts) else []
    return {
        "partitions_completed_previously": sorted(done),
        "partitions_written": sorted(written),
        "rows_written": int(new_parts["rows"].sum()) if written else 0,
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
    partitions are dropped before the exchange — their bytes are never
    rewritten — and only the missing ones recompute, which is what makes
    a 100-TB write restartable after a mid-job failure. Partition assignment hashes
    ``key_col`` with the engine's fixed deterministic hash, so the
    row→partition map is identical across retries and cluster sizes
    (same rule as the rollup; ``num_partitions`` is part of the output
    identity and is recorded in every manifest).

    Returns a summary dict: partitions written, partitions skipped (the
    ones already complete), rows written.

    Scale shape: ONE key-hash exchange; each reduce task writes its own
    partition directory and emits a one-row manifest summary — no
    driver bottleneck, no single giant file.
    """
    import numpy as np

    from ..pipelines.rollup import drop_parts
    from ..stages.rollup import hash_strings

    done = completed_partitions(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    base_lineage = dict(lineage or {})
    base_lineage.setdefault("key_col", key_col)
    base_lineage.setdefault("num_partitions", num_partitions)

    def assign(batch: pa.Table) -> pa.Table:
        key = batch[key_col]
        if not pa.types.is_string(key.type):
            key = pc.cast(key, pa.string())
        part = (
            hash_strings(key) % np.uint64(num_partitions)
        ).astype(np.int32)
        return batch.append_column(
            "part", pa.array(part, type=pa.int32())
        )

    def write_part(grp: pa.Table) -> pa.Table:
        if grp.num_rows == 0:
            return _summary_row(None)
        part = int(grp["part"][0].as_py())
        manifest = _write_partition(
            grp.drop_columns(["part"]), out_dir, part, base_lineage
        )
        return _summary_row(part, manifest["rows"])

    assigned = ds.map_batches(assign, batch_format="pyarrow", batch_size=None)
    if done:
        assigned = drop_parts(assigned, done)
    results = (
        assigned.groupby("part")
        .map_groups(write_part, batch_format="pyarrow")
        .to_pandas()
    )
    return {
        "out_dir": out_dir,
        "partitions_written": len(results),
        "partitions_skipped": len(done),
        "rows_written": int(results["rows"].sum()) if len(results) else 0,
    }
