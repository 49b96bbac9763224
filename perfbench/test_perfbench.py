"""Tests of the benchmark itself (``python3 -m pytest perfbench``).

They start Ray sessions and take about a minute."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from dataclasses import replace

import pyarrow as pa
import pyarrow.compute as pc
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import check, load, run, trace  # noqa: E402

SMALL = load.LoadParams(
    turns=15_000, n_convs=150, hot_convs=1, hot_turns=10_500, folds=2, fold_turns=100
)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_benchmark_json_follows_its_format():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= spec["run_seconds"] <= 60
    assert spec["paths"] == ["perfbench"]
    assert {w["name"] for w in spec["workloads"]} == {"rollup_full", "rollup_job", "job_update"}
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower")
        names.append(m["name"])
    assert len(names) == len(set(names))
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_layer_metrics_cover_benchmark_json():
    per_layer = run.metric_units()[1]
    computed = trace.layer_metrics({}, {}, 1.0, 1)
    computed["trace_overhead_frac"] = 0.0
    assert set(computed) == set(per_layer)


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    return load.ensure_inputs(str(tmp_path_factory.mktemp("cache")), 5, SMALL)


def test_inputs_are_cached_and_seeded(small_inputs, tmp_path):
    again = load.ensure_inputs(os.path.dirname(small_inputs.root), 5, SMALL)
    assert again.root == small_inputs.root
    other = load.ensure_inputs(str(tmp_path), 5, SMALL)
    assert other.table("interleaved").equals(small_inputs.table("interleaved"))
    meta = small_inputs.meta()
    assert meta["rows"]["interleaved"] > meta["rows"]["full"]
    assert meta["rows"]["full"] == SMALL.turns
    assert meta["rows"]["deltas"] == [SMALL.fold_turns] * SMALL.folds
    assert meta["rows"]["old"] + sum(meta["rows"]["deltas"]) == meta["rows"]["full"]


def test_corrupted_tier_output_fails_its_checks(small_inputs):
    from perfbench.workloads import Op, _Checks, _finish
    from light_curve_feature_ray.stages.rollup import RollupConfig

    table = small_inputs.table("full")
    config = RollupConfig()
    ref = check.reference(table, config, check.hot_set(table, config.hot_threshold))
    checks = _Checks(ref, table, seed=5)
    assert checks.problems(ref) == []
    # one feature value off by one ulp
    mean = ref["mean"].to_numpy().copy()
    mean[len(mean) // 2] = mean[len(mean) // 2] * (1 + 2**-52)
    bad = ref.set_column(ref.schema.get_field_index("mean"), "mean", pa.array(mean))
    op = _finish(Op(1.0, 1, 1.0, False), bad, checks.problems(bad))
    assert not op.ok and op.problems


def test_run_from_outside_the_repo_counts_a_corrupted_output(tmp_path):
    """A short traced-off run from another working directory succeeds, and
    the same run with one output value corrupted reports a failed
    operation."""
    script = os.path.join(ROOT, "perfbench", "run.py")
    cmd = [sys.executable, script, "--workload", "rollup_full", "--seed", "3", "--seconds", "1"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.metric_units()[0])
    assert all(m["value"] > 0 for m in result["metrics"].values())

    corrupt = tmp_path / "corrupt.py"
    corrupt.write_text(
        "import runpy, sys\n"
        "import light_curve_feature_ray.pipelines.rollup as rollup\n"
        "from perfbench.test_perfbench import corrupting\n"
        "rollup.rollup_dataset = corrupting(rollup.rollup_dataset)\n"
        f"sys.argv = {[script] + cmd[2:]!r}\n"
        f"runpy.run_path({script!r}, run_name='__main__')\n"
    )
    env = dict(os.environ, PYTHONPATH=ROOT)
    out = subprocess.run(
        [sys.executable, str(corrupt)], cwd=tmp_path, capture_output=True, text=True, timeout=170, env=env
    )
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] == result["attempted"] >= 1


def _bump_first_mean(batch: pa.Table) -> pa.Table:
    if batch.num_rows == 0:
        return batch
    mean = batch["mean"].to_numpy(zero_copy_only=False).copy()
    mean[0] += 1.0
    return batch.set_column(batch.schema.get_field_index("mean"), "mean", pa.array(mean))


def corrupting(rollup_dataset):
    """``rollup_dataset`` whose output has one feature value per block
    changed, for the failure-counting test above."""

    def wrapped(*args, **kwargs):
        return rollup_dataset(*args, **kwargs).map_batches(
            _bump_first_mean, batch_format="pyarrow", batch_size=None
        )

    return wrapped


def test_conservation_counts_balance_on_a_small_store(small_inputs):
    """The per-layer sums the traced run checks are consistent with the
    reference: rows in = kept + duplicates dropped."""
    from light_curve_feature_ray.stages.rollup import DeriveAssign, RollupConfig, RollupWorker

    table = small_inputs.table("interleaved")
    config = replace(RollupConfig(), num_partitions=1)
    hot = check.hot_set(table, config.hot_threshold)
    tracer = trace.Tracer()
    undo = trace._install(tracer, trace.WORKER_LAYERS)
    try:
        tiers = RollupWorker(config, hot_list=hot)(DeriveAssign(config, hot_list=hot)(table))
    finally:
        trace._uninstall(undo)
    sums, lists = tracer.take()
    kept = check.n_points_1m(tiers)
    assert sums["read.rows"] == table.num_rows == kept + sums["worker.dups_dropped"]
    assert sums["worker.dups_dropped"] == table.num_rows - check.distinct_turns(table) > 0
    assert sums["worker.rows_out"] == tiers.num_rows
    for tier in trace.TIER_ORDER:
        n = pc.sum(pc.equal(tiers["tier"], tier)).as_py()
        assert sums[f"worker.rows.{tier}"] == n
    assert sums["feature_eval.s.1m"] > 0 and sums["encode.points.1d"] > 0
    assert lists["part_rows"] == [table.num_rows]


def test_layer_map_names_every_per_layer_metric_once():
    with open(os.path.join(ROOT, "perfbench", "layers.json")) as f:
        layers = json.load(f)["layers"]
    named = [m for layer in layers for m in layer["metrics"]]
    assert sorted(named) == sorted(run.metric_units()[1])
    workloads = {w["name"] for w in _spec()["workloads"]}
    end_to_end = set(run.metric_units()[0])
    for layer in layers:
        assert set(layer["moves"]) <= end_to_end
        assert all(set(ws) <= workloads for ws in layer["moves"].values())
