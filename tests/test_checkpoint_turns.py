"""Checkpointed job (resume skips finished partitions) and turn-level
invariants (byte-exact text, stable order, dedup)."""

import json
import os
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from light_curve_feature_ray.sources.synth import (
    synth_transcripts_parquet,
    synth_transcripts_table,
)
from light_curve_feature_ray.stages.rollup import RollupConfig

CFG = dict(n_convs=20, mean_turns=30, hot_convs=0, seed=21)


@pytest.fixture()
def synth_dir(tmp_path):
    return synth_transcripts_parquet(str(tmp_path / "in"), shards=3, **CFG)


def test_job_writes_manifests_and_resumes(ray_session, synth_dir, tmp_path):
    from light_curve_feature_ray.state.checkpoint import (
        completed_partitions,
        read_rollup_output,
        run_rollup_job,
    )

    out = str(tmp_path / "out")
    cfg = RollupConfig(
        features=("observation_count", "mean"),
        num_partitions=6,
        store_points=False,
        hot_threshold=None,
    )
    summary = run_rollup_job(synth_dir, out, cfg)
    parts = completed_partitions(out)
    assert parts == set(summary["partitions_written"])
    assert summary["rows_written"] > 0
    # one map task per input unit (4 CPUs, capped by the 3 files' one row
    # group each), one reduce task per partition written
    assert summary["map_tasks"] == 3
    assert summary["reduce_tasks"] == len(parts)
    # manifests carry lineage + metrics
    p = sorted(parts)[0]
    with open(os.path.join(out, f"part={p}", "_manifest.json")) as f:
        man = json.load(f)
    assert man["rows"] > 0 and man["bytes"] > 0
    assert man["lineage"]["input"] == synth_dir
    assert "1m" in man["tiers"]

    total_rows = read_rollup_output(out).count()

    # simulate a partial failure: delete one partition's manifest, resume
    victim = sorted(parts)[0]
    os.remove(os.path.join(out, f"part={victim}", "_manifest.json"))
    summary2 = run_rollup_job(synth_dir, out, cfg)
    assert summary2["partitions_written"] == [victim]
    assert set(summary2["partitions_completed_previously"]) == parts - {victim}
    assert (summary2["map_tasks"], summary2["reduce_tasks"]) == (3, 1)
    assert read_rollup_output(out).count() == total_rows

    # fully-complete job: nothing to do
    summary3 = run_rollup_job(synth_dir, out, cfg)
    assert summary3["partitions_written"] == []
    assert summary3["reduce_tasks"] == 0


def _interleaved_redelivered(tmp_path, shards=4):
    """Synthetic turns ordered by time across conversations, 3 % of them
    delivered twice, written as ``shards`` files."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    tbl = synth_transcripts_table(
        n_convs=12, mean_turns=30, hot_convs=1, hot_turns=800, seed=5
    )
    rng = np.random.default_rng(5)
    again = tbl.take(pa.array(rng.choice(tbl.num_rows, tbl.num_rows // 33, replace=False)))
    both = pa.concat_tables([tbl, again])
    both = both.take(pc.sort_indices(both, [("ts", "ascending")]))
    d = tmp_path / "interleaved"
    d.mkdir()
    step = -(-both.num_rows // shards)
    for i in range(shards):
        pq.write_table(both.slice(i * step, step), str(d / f"part-{i}.parquet"))
    return str(d), both, again.num_rows


def test_job_matches_rollup_table(ray_session, tmp_path):
    """The job over time-interleaved input with re-delivered turns and a
    hot conv writes exactly the in-process reference's rows; _job.json
    records the hot set, and the manifests' stage records add up."""
    import pyarrow.compute as pc

    from light_curve_feature_ray.pipelines.rollup import rollup_table
    from light_curve_feature_ray.state.checkpoint import (
        job_report,
        read_rollup_output,
        run_rollup_job,
    )

    path, table, redelivered = _interleaved_redelivered(tmp_path)
    cfg = RollupConfig(
        features=("observation_count", "mean", "eta"), hot_threshold=400
    )
    out = str(tmp_path / "out")
    summary = run_rollup_job(path, out, cfg)
    with open(os.path.join(out, "_job.json")) as f:
        job = json.load(f)
    counts = table.group_by("conv_id").aggregate([("conv_id", "count")])
    hot = counts.filter(pc.greater_equal(counts["conv_id_count"], 400))
    assert job["hot"] == sorted(hot["conv_id"].to_pylist()) and job["hot"]

    keys = ["conv_id", "tier", "bucket_ts"]
    got = read_rollup_output(out).to_pandas().sort_values(keys).reset_index(drop=True)
    want = (
        rollup_table(table, cfg, hot_list=job["hot"])
        .to_pandas()
        .sort_values(keys)
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[want.columns], want)

    report = job_report(out)
    assert report["partitions"] == len(summary["partitions_written"])
    assert report["rows"] == summary["rows_written"] == len(want)
    assert report["tiers"] == want["tier"].value_counts().to_dict()
    stage = report["stage"]
    assert stage["rows_in"] == table.num_rows
    assert stage["dups_dropped"] == redelivered
    assert stage["gap_filled"] > 0
    assert stage["worker_s"] > 0 and stage["worker_cpu_s"] > 0
    points = want.groupby("tier")["points"].apply(lambda b: sum(map(len, b)))
    assert stage["points_bytes"] == points.to_dict()
    assert report["part_rows_skew"] >= 1.0


def test_job_report_counts_nan_cells_per_tier(ray_session, tmp_path):
    """``job_report`` gives, per tier, the NaN feature cells the store
    holds and the feature-eval seconds; the seconds stay out of the data
    files, so a rerun into a new directory writes identical bytes."""
    from light_curve_feature_ray.state.checkpoint import (
        job_report,
        read_rollup_output,
        run_rollup_job,
    )

    path, _, _ = _interleaved_redelivered(tmp_path)
    cfg = RollupConfig(
        features=("observation_count", "skew", "linear_fit"),
        num_partitions=3,
        hot_threshold=400,
    )
    first, second = str(tmp_path / "a"), str(tmp_path / "b")
    run_rollup_job(path, first, cfg)
    run_rollup_job(path, second, cfg)
    stage = job_report(first)["stage"]
    store = read_rollup_output(first).to_pandas()
    feats = store[[c for c in store.columns if c.startswith(("skew", "linear_fit"))]]
    for tier in cfg.tiers:
        nan = int(feats[store["tier"] == tier].isna().to_numpy().sum())
        assert stage[f"nan_cells_{tier}"] == nan > 0, tier
        assert stage[f"eval_s_{tier}"] > 0, tier
    for p in range(3):
        data = Path("part=%d" % p) / "data.parquet"
        assert (Path(first) / data).read_bytes() == (Path(second) / data).read_bytes()


def test_job_resume_rewrites_only_missing_partition(ray_session, tmp_path):
    """Deleting one manifest makes a rerun rewrite exactly that partition,
    byte-identical, and leave every other file untouched."""
    from light_curve_feature_ray.state.checkpoint import run_rollup_job

    path, _, _ = _interleaved_redelivered(tmp_path)
    cfg = RollupConfig(
        features=("observation_count", "mean"), num_partitions=5, hot_threshold=400
    )
    out = str(tmp_path / "out")
    first = run_rollup_job(path, out, cfg)
    assert first["partitions_written"] == [0, 1, 2, 3, 4]
    assert (first["map_tasks"], first["reduce_tasks"]) == (4, 5)

    def data(p):
        return Path(out) / f"part={p}" / "data.parquet"

    before = {p: data(p).read_bytes() for p in range(5)}
    mtimes = {p: data(p).stat().st_mtime for p in range(5)}
    job = (Path(out) / "_job.json").read_text()
    victim = 3
    os.remove(os.path.join(out, f"part={victim}", "_manifest.json"))
    again = run_rollup_job(path, out, cfg)
    assert again["partitions_written"] == [victim]
    assert (again["map_tasks"], again["reduce_tasks"]) == (4, 1)
    assert again["partitions_completed_previously"] == [0, 1, 2, 4]
    assert data(victim).read_bytes() == before[victim]
    for p in (0, 1, 2, 4):
        assert data(p).stat().st_mtime == mtimes[p], p
    assert (Path(out) / "_job.json").read_text() == job


def _assert_writer_rule(path: str) -> None:
    """The partition writer's rule, keyed on column type: dictionary
    encoding on string columns only, statistics on string, integer and
    timestamp columns only."""
    import pyarrow.parquet as pq

    meta = pq.read_metadata(path)
    schema = meta.schema.to_arrow_schema()
    assert meta.num_row_groups > 0
    for g in range(meta.num_row_groups):
        for i in range(meta.num_columns):
            col = meta.row_group(g).column(i)
            kind = schema.field(col.path_in_schema).type
            if pa.types.is_dictionary(kind):
                kind = kind.value_type
            string = pa.types.is_string(kind)
            ordered = pa.types.is_integer(kind) or pa.types.is_timestamp(kind)
            assert ("RLE_DICTIONARY" in col.encodings) == string, col.path_in_schema
            assert col.is_stats_set == (string or ordered), col.path_in_schema


def test_partition_writer_encoding_rule(ray_session, synth_dir, tmp_path):
    """Job partitions and write_dataset_partitioned partitions follow the
    writer's rule; a rerun into a fresh directory and a resume write
    byte-identical files, and the generic sink reads back equal."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from light_curve_feature_ray.state.checkpoint import (
        read_rollup_output,
        run_rollup_job,
        write_dataset_partitioned,
    )

    cfg = RollupConfig(features=("observation_count", "mean", "eta"), num_partitions=3)
    first, second = str(tmp_path / "a"), str(tmp_path / "b")
    run_rollup_job(synth_dir, first, cfg)
    run_rollup_job(synth_dir, second, cfg)

    def data(out, p):
        return Path(out) / f"part={p}" / "data.parquet"

    for p in range(3):
        _assert_writer_rule(str(data(first, p)))
        assert data(first, p).read_bytes() == data(second, p).read_bytes()
    kinds = {str(t) for t in pq.read_schema(data(first, 0)).types}
    assert {"string", "timestamp[us]", "int64", "binary", "double"} <= kinds
    before = data(first, 1).read_bytes()
    os.remove(os.path.join(first, "part=1", "_manifest.json"))
    assert run_rollup_job(synth_dir, first, cfg)["partitions_written"] == [1]
    assert data(first, 1).read_bytes() == before

    df = pd.DataFrame(
        {
            "key": np.arange(300, dtype=np.int64),
            "name": [f"doc-{i % 37}" for i in range(300)],
            "score": np.linspace(0.0, 1.0, 300),
            "blob": [bytes([i % 251]) * (i % 5) for i in range(300)],
            "ts": pd.to_datetime(np.arange(300) * 1_000_000, unit="us"),
            "flag": np.arange(300) % 3 == 0,
        }
    )
    sink = str(tmp_path / "sink")
    write_dataset_partitioned(
        rd.from_pandas(df).repartition(3), sink, key_col="key", num_partitions=4
    )
    for p in range(4):
        _assert_writer_rule(str(data(sink, p)))
    back = read_rollup_output(sink).to_pandas().sort_values("key").reset_index(drop=True)
    pd.testing.assert_frame_equal(back, df, check_dtype=False)


def test_dataset_sink_pandas_and_arrow_blocks(ray_session, tmp_path):
    """write_dataset_partitioned turns each block into Arrow in its map
    task: the same rows in pandas blocks and in Arrow blocks write the
    same data.parquet bytes, and a rerun over a torn store rewrites only
    the missing partition, with the same bytes."""
    import pyarrow.parquet as pq
    import ray

    from light_curve_feature_ray.stages.exchange import dataset_blocks
    from light_curve_feature_ray.state.checkpoint import write_dataset_partitioned

    df = pd.DataFrame(
        {
            "key": np.arange(300, dtype=np.int64),
            "name": [f"doc-{i % 37}" for i in range(300)],
            "score": np.linspace(0.0, 1.0, 300),
        }
    )
    chunks = [df.iloc[i : i + 100] for i in range(0, 300, 100)]

    def pandas_ds():
        return rd.from_pandas(chunks)

    assert isinstance(ray.get(next(dataset_blocks(pandas_ds()))), pd.DataFrame)
    arrow = rd.from_arrow(
        [pa.Table.from_pandas(c, preserve_index=False) for c in chunks]
    )
    a, b = str(tmp_path / "arrow"), str(tmp_path / "pandas")
    write_dataset_partitioned(arrow, a, key_col="key", num_partitions=4)
    write_dataset_partitioned(pandas_ds(), b, key_col="key", num_partitions=4)

    def data(out, p):
        return (Path(out) / f"part={p}" / "data.parquet").read_bytes()

    want = [data(a, p) for p in range(4)]
    assert [data(b, p) for p in range(4)] == want
    os.remove(os.path.join(b, "part=2", "_manifest.json"))
    again = write_dataset_partitioned(pandas_ds(), b, key_col="key", num_partitions=4)
    assert again["partitions_written"] == 1 and again["partitions_skipped"] == 3
    part2 = pq.read_metadata(os.path.join(a, "part=2", "data.parquet")).num_rows
    assert 0 < again["rows_written"] == part2
    assert [data(b, p) for p in range(4)] == want


def test_dataset_sink_bytes_ignore_block_finish_order(ray_session, tmp_path):
    """write_dataset_partitioned routes each partition's pieces in block
    order: an input whose first block finishes last writes the same
    data.parquet bytes as the same blocks finishing in order."""
    import time

    from light_curve_feature_ray.state.checkpoint import write_dataset_partitioned

    blocks = [
        pa.table(
            {
                "block": np.full(50, b, dtype=np.int64),
                "key": [f"k{i % 13}" for i in range(50)],
                "v": np.arange(b * 50, b * 50 + 50, dtype=np.int64),
            }
        )
        for b in range(4)
    ]

    def slow_first(batch: pa.Table) -> pa.Table:
        if batch["block"][0].as_py() == 0:
            time.sleep(2.0)
        return batch

    def data(out, p):
        return (Path(out) / f"part={p}" / "data.parquet").read_bytes()

    outs = {}
    for name, udf in (("in_order", lambda b: b), ("first_last", slow_first)):
        ds = rd.from_arrow(blocks).map_batches(udf, batch_format="pyarrow", batch_size=None)
        outs[name] = str(tmp_path / name)
        write_dataset_partitioned(ds, outs[name], key_col="key", num_partitions=3)
    for p in range(3):
        assert data(outs["first_last"], p) == data(outs["in_order"], p)


def _canonical(table: pa.Table) -> pd.DataFrame:
    keys = ["conv_id", "tier", "bucket_ts"]
    return table.to_pandas().sort_values(keys).reset_index(drop=True)


def _store(out: str, parts) -> pd.DataFrame:
    """The canonical rows of a job's partition files, read without Ray."""
    import pyarrow.parquet as pq

    return _canonical(
        pa.concat_tables(
            [pq.read_table(os.path.join(out, f"part={p}", "data.parquet")) for p in parts]
        )
    )


def test_job_units_pack_row_groups_across_files(ray_session, tmp_path, monkeypatch):
    """Input units pack consecutive row groups across files, in sorted
    file order: max(ceil(rows / ROWS_PER_BLOCK), cluster CPUs) units, at
    most one per row group, none splitting a row group, and a row group
    over a unit's share of the rows is a unit of its own. The job writes
    the in-process reference's rows with one map task per unit."""
    import pyarrow.parquet as pq

    from light_curve_feature_ray.pipelines import rollup as rp
    from light_curve_feature_ray.state.checkpoint import run_rollup_job

    def groups(units):
        return [(f, g) for u in units for f, gs in u.runs for g in gs]

    # the 4-CPU session: 8 one-row-group files give 4 units of 2 files
    path, table, _ = _interleaved_redelivered(tmp_path, shards=8)
    files = rp.parquet_files(path)
    units = rp.input_units(path)
    assert [u.runs for u in units] == [
        ((files[i], (0,)), (files[i + 1], (0,))) for i in range(0, 8, 2)
    ]
    assert sum(u.rows for u in units) == table.num_rows

    one = str(tmp_path / "one.parquet")
    pq.write_table(table, one, row_group_size=100)
    meta = pq.read_metadata(one)
    n_groups = meta.num_row_groups
    sizes = [meta.row_group(g).num_rows for g in range(n_groups)]
    for rows_per_block, n_units in ((250_000, 4), (250, 6), (50, n_groups)):
        monkeypatch.setattr(rp, "ROWS_PER_BLOCK", rows_per_block)
        units = rp.input_units(one)
        rule = max(-(-table.num_rows // rows_per_block), 4)
        assert len(units) == min(rule, n_groups) == n_units
        assert groups(units) == [(one, g) for g in range(n_groups)]
        assert [u.rows for u in units] == [
            sum(sizes[g] for _, g in groups([u])) for u in units
        ]
    # a row group over a share (800 / 4 rows) is a unit of its own
    sizes = [50, 50, 600, 50, 50]
    with pq.ParquetWriter(str(tmp_path / "big.parquet"), table.schema) as w:
        for a, n in zip(np.cumsum([0] + sizes), sizes):
            w.write_table(table.slice(a, n))
    big = rp.input_units(str(tmp_path / "big.parquet"))
    assert [u.rows for u in big] == [100, 600, 100]

    cfg = RollupConfig(
        features=("observation_count", "mean"), num_partitions=3, hot_threshold=400
    )
    want = None
    for src, rows_per_block, n_units in ((one, 250, 6), (path, 250_000, 4)):
        monkeypatch.setattr(rp, "ROWS_PER_BLOCK", rows_per_block)
        assert len(rp.input_units(src)) == n_units
        out = str(tmp_path / f"out-{n_units}")
        summary = run_rollup_job(src, out, cfg)
        assert summary["map_tasks"] == n_units
        assert summary["reduce_tasks"] == len(summary["partitions_written"])
        with open(os.path.join(out, "_job.json")) as f:
            hot = json.load(f)["hot"]
        if want is None:
            want = _canonical(rp.rollup_table(table, cfg, hot_list=hot))
        got = _store(out, summary["partitions_written"])
        pd.testing.assert_frame_equal(got[want.columns], want)


def test_job_bytes_do_not_depend_on_units(ray_session, tmp_path, monkeypatch):
    """The same rows as 8 files, as 1 file of 8 row groups, and as 1 file
    of small row groups split into many units give byte-identical
    partition files: a partition's bytes depend on its rows, not on how
    the input is cut into map tasks."""
    import shutil

    import pyarrow.parquet as pq

    from light_curve_feature_ray.pipelines import rollup as rp
    from light_curve_feature_ray.state.checkpoint import run_rollup_job

    files, table, _ = _interleaved_redelivered(tmp_path, shards=8)
    step = pq.read_metadata(rp.parquet_files(files)[0]).num_rows
    cfg = RollupConfig(
        features=("observation_count", "mean"), num_partitions=3, hot_threshold=400
    )
    src = str(tmp_path / "in")  # one input path: the lineage in the footer names it
    layouts = {"files": 4, "row_groups": 4, "many_units": 13}
    stores = {}
    for name, n_units in layouts.items():
        shutil.rmtree(src, ignore_errors=True)
        if name == "files":
            shutil.copytree(files, src)
        else:
            os.makedirs(src)
            size = step if name == "row_groups" else 100
            pq.write_table(table, os.path.join(src, "all.parquet"), row_group_size=size)
        monkeypatch.setattr(rp, "ROWS_PER_BLOCK", 100 if name == "many_units" else 250_000)
        out = str(tmp_path / f"out-{name}")
        assert run_rollup_job(src, out, cfg)["map_tasks"] == n_units
        stores[name] = [
            Path(out, f"part={p}", "data.parquet").read_bytes()
            for p in range(cfg.num_partitions)
        ]
    assert stores["files"] == stores["row_groups"] == stores["many_units"]


def test_job_runs_without_ray_data(ray_session, tmp_path, monkeypatch):
    """run_rollup_job reads, counts and exchanges with plain Ray tasks:
    it passes with the Ray Data parquet reader disabled."""
    import ray.data

    from light_curve_feature_ray.pipelines.rollup import rollup_table
    from light_curve_feature_ray.state.checkpoint import run_rollup_job

    def no_dataset(*args, **kwargs):
        raise AssertionError("run_rollup_job built a Dataset")

    monkeypatch.setattr(ray.data, "read_parquet", no_dataset)
    path, table, _ = _interleaved_redelivered(tmp_path)
    cfg = RollupConfig(features=("observation_count",), hot_threshold=400)
    out = str(tmp_path / "out")
    summary = run_rollup_job(path, out, cfg)
    assert summary["partitions_written"]
    with open(os.path.join(out, "_job.json")) as f:
        hot = json.load(f)["hot"]
    assert hot
    got = _store(out, summary["partitions_written"])
    want = _canonical(rollup_table(table, cfg, hot_list=hot))
    pd.testing.assert_frame_equal(got[want.columns], want)


def test_package_has_one_exchange():
    """Every keyed exchange goes through stages/exchange.py: no module of
    the package runs Ray Data's sort-based ``groupby(...).map_groups`` (on
    ``part`` or any other key), packs rows into Arrow IPC streams of its
    own, or hashes a key with pandas' ``hash_array``. The string hash is
    called only by the rollup's salted assignment (stages/rollup.py),
    ``with_part`` (stages/exchange.py) and the update's routing of a
    dictionary (pipelines/update.py): every other string key takes its
    part from ``with_part``."""
    import light_curve_feature_ray

    root = Path(light_curve_feature_ray.__file__).parent
    hashers = {"stages/rollup.py", "stages/exchange.py", "pipelines/update.py"}
    hits = [
        f"{path.relative_to(root)}:{n}"
        for path in sorted(root.rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if 'groupby("part")' in line
        or ".map_groups(" in line
        or "hash_array(" in line
        or "ipc.new_stream" in line
        or ("hash_strings(" in line and path.relative_to(root).as_posix() not in hashers)
    ]
    assert not hits


def test_string_key_parts_follow_with_part(ray_session, tmp_path, monkeypatch):
    """events_turns_dataset, write_dataset_partitioned and clean_turns
    route each row to the part ``with_part`` gives its key."""
    import pyarrow.parquet as pq

    from light_curve_feature_ray.pipelines import turns
    from light_curve_feature_ray.pipelines.events_adapter import events_turns_dataset
    from light_curve_feature_ray.stages.exchange import with_part
    from light_curve_feature_ray.state.checkpoint import write_dataset_partitioned

    def expect(table: pa.Table, key: str, num_parts: int) -> list:
        return with_part(table.select([key]), key, num_parts)["part"].to_pylist()

    n = 400
    events = pa.table(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "ts": pa.array(np.arange(n) * 1_000_000 % 7_000_000, pa.timestamp("us")),
            "user_id": np.arange(n, dtype=np.int64) * 7919 % 53,
            "event_type": [f"e{i % 3}" for i in range(n)],
            "props": [f"p{i}" for i in range(n)],
        }
    )
    (tmp_path / "sf").mkdir()
    pq.write_table(events, str(tmp_path / "sf" / "events.parquet"), row_group_size=90)
    got = pa.Table.from_pandas(events_turns_dataset(str(tmp_path / "sf"), 7).to_pandas())
    assert got.num_rows == n
    assert got["part"].to_pylist() == expect(got, "conv_id", 7)

    sink = str(tmp_path / "sink")
    src = pa.table({"name": [f"doc-{i % 61}" for i in range(n)], "v": np.arange(n)})
    write_dataset_partitioned(rd.from_arrow(src).repartition(3), sink, key_col="name", num_partitions=5)
    for p in range(5):
        rows = pq.read_table(os.path.join(sink, f"part={p}", "data.parquet"))
        assert expect(rows, "name", 5) == [p] * rows.num_rows

    dedup = turns._dedup_sort_partition

    def tagged(batch: pa.Table) -> pa.Table:
        # one call per part: tag its output rows with the part it ran on
        out = dedup(batch)
        return out.append_column("part", pa.array([batch["part"][0].as_py()] * out.num_rows, pa.int32()))

    monkeypatch.setattr(turns, "_dedup_sort_partition", tagged)
    table = synth_transcripts_table(**CFG)
    got = pa.Table.from_pandas(
        turns.clean_turns(rd.from_arrow(table).repartition(4), num_partitions=6).to_pandas()
    )
    assert got.num_rows == table.num_rows
    assert got["part"].to_pylist() == expect(got, "conv_id", 6)


def test_turns_passthrough_invariants(ray_session, synth_dir):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.turns import clean_turns

    ds = rd.read_parquet(synth_dir)
    out = clean_turns(ds, num_partitions=5).to_pandas()
    src = synth_transcripts_table(**CFG).to_pandas()

    assert len(out) == len(src)
    out_s = out.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    src_s = src.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    # byte-exact text and identical multiset of turns
    for col in ("conv_id", "turn_idx", "role", "text", "tool"):
        assert (out_s[col].values == src_s[col].values).all(), col
    assert (out_s["ts"].values == src_s["ts"].values).all()
    # stable order within each partition group: turn_idx ascending per conv
    grp = out.groupby("conv_id")["turn_idx"]
    assert (grp.apply(lambda s: (np.diff(s.values) > 0).all())).all()


def test_turns_dedup_idempotent_reingest(ray_session, synth_dir):
    # re-ingesting the same shard twice collapses to the original table
    import ray.data as rd

    from light_curve_feature_ray.pipelines.turns import clean_turns

    ds = rd.read_parquet(synth_dir)
    both = ds.union(rd.read_parquet(synth_dir))
    out = clean_turns(both, num_partitions=5).to_pandas()
    src = synth_transcripts_table(**CFG).to_pandas()
    assert len(out) == len(src)
    out_s = out.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    src_s = src.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    assert (out_s["text"].values == src_s["text"].values).all()


def test_turns_conflicting_duplicates_deterministic(ray_session, tmp_path):
    """Duplicate (conv_id, turn_idx) rows with DIFFERENT payloads must
    settle by the deterministic (min ts, then smallest text) rule, not by
    block arrival order — identical output for opposite block layouts."""
    import pyarrow.parquet as pq

    from light_curve_feature_ray.pipelines.turns import clean_turns
    from light_curve_feature_ray.sources.synth import synth_transcripts_table

    tbl = synth_transcripts_table(n_convs=6, mean_turns=30, hot_convs=0, seed=17)
    dup = tbl.slice(5, 12)
    # same keys and ts, lexicographically LARGER text -> must always lose
    dup = dup.set_column(
        dup.schema.get_field_index("text"), "text",
        pa.array(["zzz-conflict"] * dup.num_rows),
    )
    for name, parts in (("ab", [tbl, dup]), ("ba", [dup, tbl])):
        d = tmp_path / name
        d.mkdir()
        for i, p in enumerate(parts):
            pq.write_table(p, str(d / f"part-{i}.parquet"))

    def run(name):
        return (
            clean_turns(rd.read_parquet(str(tmp_path / name)), num_partitions=5)
            .to_pandas()
            .sort_values(["conv_id", "turn_idx"])
            .reset_index(drop=True)
        )

    a, b = run("ab"), run("ba")
    pd.testing.assert_frame_equal(a, b)
    assert not (a["text"] == "zzz-conflict").any()


def test_jsonl_source_matches_parquet(ray_session, tmp_path):
    """read_transcripts_jsonl normalizes epoch-seconds JSONL to the
    canonical schema; the rollup over it equals the parquet-path rollup."""
    import json as _json
    from datetime import timezone

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from light_curve_feature_ray.pipelines.rollup import rollup_dataset, rollup_table
    from light_curve_feature_ray.sources.jsonl import read_transcripts_jsonl
    from light_curve_feature_ray.sources.synth import synth_transcripts_table
    from light_curve_feature_ray.stages.rollup import RollupConfig

    tbl = synth_transcripts_table(n_convs=20, seed=9)
    jl = tmp_path / "turns.jsonl"
    with open(jl, "w") as f:
        for row in tbl.to_pylist():
            # epoch SECONDS float; pin UTC — naive .timestamp() would
            # shift by the local UTC offset under e.g. TZ=America/New_York
            row["ts"] = row["ts"].replace(tzinfo=timezone.utc).timestamp()
            row["extra_key"] = "ignored"      # extra keys are dropped
            f.write(_json.dumps(row) + "\n")

    cfg = RollupConfig(
        features=("observation_count", "mean", "amplitude"),
        tiers=("1h",), gap_fill="none", hot_threshold=None,
        store_points=False, num_partitions=8,
    )
    expect = (
        pa.Table.to_pandas(rollup_table(tbl, cfg))
        .sort_values(["conv_id", "bucket_ts"])
        .reset_index(drop=True)
    )
    ds = read_transcripts_jsonl(str(jl))
    got = (
        rollup_dataset(ds, cfg)
        .to_pandas()
        .sort_values(["conv_id", "bucket_ts"])
        .reset_index(drop=True)
    )
    import pandas as pd

    pd.testing.assert_frame_equal(got[expect.columns], expect)


def test_jsonl_ts_rounds_and_keeps_nulls():
    """Float epoch-seconds must ROUND to microseconds (truncation shifts
    ~1.5% of values by 1us) and null ts stays null, not INT64_MIN."""
    import numpy as np
    import pyarrow as pa

    from light_curve_feature_ray.sources.jsonl import _normalize

    us = np.arange(123_456_780, 123_458_780, dtype=np.int64)
    tbl = pa.table(
        {
            "conv_id": pa.array(["c"] * len(us)),
            "turn_idx": pa.array(np.arange(len(us), dtype=np.int32)),
            "text": pa.array(["t"] * len(us)),
            "ts": pa.array(us / 1e6),  # epoch seconds, float
        }
    )
    out = _normalize(tbl, for_rollup=True)
    got = out["ts"].cast(pa.int64()).to_numpy()
    np.testing.assert_array_equal(got, us)

    tbl2 = pa.table(
        {
            "conv_id": pa.array(["c", "c"]),
            "turn_idx": pa.array([0, 1], type=pa.int32()),
            "text": pa.array(["a", "b"]),
            "ts": pa.array([1.5, None]),
        }
    )
    out2 = _normalize(tbl2, for_rollup=True)
    assert out2["ts"].null_count == 1
    assert out2["ts"].cast(pa.int64()).to_pylist() == [1_500_000, None]


def test_csv_source_matches_parquet(ray_session, tmp_path):
    """read_transcripts_csv funnels through the same normalization as the
    JSONL source; the rollup over a CSV dump equals the in-memory path."""
    import csv as _csv
    from datetime import timezone

    import pandas as pd
    import pyarrow as pa

    from light_curve_feature_ray.pipelines.rollup import (
        rollup_dataset,
        rollup_table,
    )
    from light_curve_feature_ray.sources.csv_src import read_transcripts_csv
    from light_curve_feature_ray.sources.synth import synth_transcripts_table
    from light_curve_feature_ray.stages.rollup import RollupConfig

    tbl = synth_transcripts_table(n_convs=15, seed=31)
    path = tmp_path / "turns.csv"
    with open(path, "w", newline="") as f:
        w = _csv.writer(f)
        w.writerow(["conv_id", "turn_idx", "role", "text", "tool", "ts",
                    "extra"])
        for row in tbl.to_pylist():
            w.writerow(
                [
                    row["conv_id"], row["turn_idx"], row["role"],
                    row["text"], row["tool"] or "",
                    # ISO-8601 string ts exercises the string branch
                    row["ts"].replace(tzinfo=timezone.utc).isoformat(),
                    "dropped",
                ]
            )

    cfg = RollupConfig(
        features=("observation_count", "mean", "amplitude"),
        tiers=("1h",), gap_fill="none", hot_threshold=None,
        store_points=False, num_partitions=8,
    )
    expect = (
        pa.Table.to_pandas(rollup_table(tbl, cfg))
        .sort_values(["conv_id", "bucket_ts"])
        .reset_index(drop=True)
    )
    got = (
        rollup_dataset(read_transcripts_csv(str(path)), cfg)
        .to_pandas()
        .sort_values(["conv_id", "bucket_ts"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[expect.columns], expect)
