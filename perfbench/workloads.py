"""The three workloads. Each reaches the package only through its public
entry points (``read_transcripts``, ``detect_hot_convs``, ``rollup_dataset``,
``run_rollup_job``, ``update_rollup_job``) and checks every operation's
output against an in-process reference built once per invocation."""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc

from . import check
from .load import Inputs


@dataclass
class Op:
    """One measured operation: a pass, or one delta fold."""

    wall_s: float
    turns: int
    rss_mib: float
    ok: bool
    #: Σ len(points) / turns covered, of the output this operation left
    points_bytes_per_turn: float | None = None
    #: the output is the workload's final tier output (not a middle fold)
    final: bool = True
    problems: list = field(default_factory=list)
    #: traced runs: per-layer sums of this operation
    sums: dict | None = None
    lists: dict | None = None
    #: traced runs: conservation checks that must hold exactly
    conservation: dict = field(default_factory=dict)


@dataclass
class Ctx:
    inputs: Inputs
    seed: int
    num_cpus: int
    tmp_root: str


def _config():
    from light_curve_feature_ray.stages.rollup import RollupConfig

    return RollupConfig()


def warm_up(ctx: Ctx) -> None:
    """Start worker processes and import the package in them."""
    from light_curve_feature_ray.pipelines.rollup import read_transcripts, rollup_dataset

    rollup_dataset(read_transcripts(ctx.inputs.warm), _config()).materialize()


class _Checks:
    """Expected digest, distinct turn count and decode sample of one output."""

    def __init__(self, expected: pa.Table, source: pa.Table, seed: int):
        self.digest = check.digest(expected)
        self.distinct = check.distinct_turns(source)
        self.sample = check.DecodeSample(source, seed)

    def problems(self, tiers: pa.Table) -> list[str]:
        out = []
        if check.digest(tiers) != self.digest:
            out.append("tier rows differ from the in-process reference")
        if check.n_points_1m(tiers) != self.distinct:
            out.append("sum of 1m n_points != distinct (conv_id, turn_idx)")
        if not self.sample.check(tiers):
            out.append("sampled 1m buckets do not decode to the input turns")
        return out


def _finish(op: Op, tiers: pa.Table, problems: list[str]) -> Op:
    op.problems = problems
    op.ok = not problems
    kept = check.n_points_1m(tiers)
    op.points_bytes_per_turn = check.points_bytes(tiers) / kept if kept else None
    return op


def _conserve(op: Op, tiers: pa.Table, sink: bool) -> None:
    """The traced counts that must balance exactly on a full rollup."""
    s = op.sums
    kept = check.n_points_1m(tiers)
    op.conservation = {
        "read.rows == kept + worker.dups_dropped": s["read.rows"]
        == kept + s["worker.dups_dropped"],
        "worker kept == sum of 1m n_points": s["worker.kept"] == kept,
        "sum of worker rows out == tier rows": s["worker.rows_out"] == tiers.num_rows,
    }
    if sink:
        op.conservation["sum of partition rows == tier rows"] = (
            s["sink.rows"] == tiers.num_rows
        )


class RollupFull:
    """``rollup_dataset`` over conversation-contiguous shards, the full
    default feature suite, with the library's documented settings: 4 blocks
    per CPU and the hot set computed during set-up."""

    name = "rollup_full"

    def __init__(self, ctx: Ctx):
        table = ctx.inputs.table("full")
        self.config = _config()
        self.hot = check.hot_set(table, self.config.hot_threshold)
        self.checks = _Checks(
            check.reference(table, self.config, self.hot), table, ctx.seed
        )
        self.turns = table.num_rows
        self.hot_lib: list[str] = []

    def _read(self, ctx: Ctx):
        from light_curve_feature_ray.pipelines.rollup import read_transcripts

        return read_transcripts(ctx.inputs.full, num_blocks=4 * ctx.num_cpus)

    def setup(self, ctx: Ctx, session) -> float:
        from light_curve_feature_ray.stages.rollup import detect_hot_convs

        self.hot_lib = sorted(
            detect_hot_convs(self._read(ctx), self.config.hot_threshold)
        )
        return 0.0

    def run_pass(self, ctx: Ctx, session, trace=None):
        import ray

        from light_curve_feature_ray.pipelines.rollup import rollup_dataset

        session.reset_peak_rss()
        t0 = time.perf_counter()
        out = rollup_dataset(
            self._read(ctx), self.config, hot_list=self.hot_lib
        ).materialize()
        wall = time.perf_counter() - t0
        op = Op(wall, self.turns, session.peak_rss_mib(), False)
        blocks = [b for b in ray.get(out.to_arrow_refs()) if b.num_rows]
        tiers = check.canonical(pa.concat_tables(blocks))
        problems = self.checks.problems(tiers)
        if self.hot_lib != self.hot:
            problems.append("detect_hot_convs disagrees with the input's hot set")
        if trace is not None:
            trace.finish_op(op, [out])
            _conserve(op, tiers, sink=False)
        yield _finish(op, tiers, problems)


class RollupJob:
    """``run_rollup_job`` into a fresh directory with the job's own
    defaults, on time-ordered input with re-delivered turns."""

    name = "rollup_job"

    def __init__(self, ctx: Ctx):
        table = ctx.inputs.table("interleaved")
        full = ctx.inputs.table("full")
        config = _config()
        ref = check.reference(table, config, check.hot_set(table, config.hot_threshold))
        ref_full = check.reference(full, config, check.hot_set(full, config.hot_threshold))
        # interleaving and re-delivery must not change a byte
        self.same_as_full = check.digest(ref) == check.digest(ref_full)
        self.checks = _Checks(ref, table, ctx.seed)
        self.turns = table.num_rows
        self.passes = 0

    def setup(self, ctx: Ctx, session) -> float:
        return 0.0

    def run_pass(self, ctx: Ctx, session, trace=None):
        from light_curve_feature_ray.state.checkpoint import run_rollup_job

        out_dir = os.path.join(ctx.tmp_root, f"job-{self.passes}")
        self.passes += 1
        session.reset_peak_rss()
        t0 = time.perf_counter()
        summary = run_rollup_job(ctx.inputs.interleaved, out_dir)
        wall = time.perf_counter() - t0
        op = Op(wall, self.turns, session.peak_rss_mib(), False)
        tiers = check.read_store(out_dir)
        problems = self.checks.problems(tiers)
        if not self.same_as_full:
            problems.append("reference over interleaved input != over contiguous input")
        if summary["rows_written"] != tiers.num_rows:
            problems.append("job summary rows != rows in the store")
        if trace is not None:
            trace.finish_op(op)
            _conserve(op, tiers, sink=True)
        shutil.rmtree(out_dir)
        yield _finish(op, tiers, problems)


class JobUpdate:
    """K sequential ``update_rollup_job`` folds into a fresh copy of a
    store that ``run_rollup_job`` builds once per invocation."""

    name = "job_update"

    def __init__(self, ctx: Ctx):
        inputs = ctx.inputs
        meta = inputs.meta()
        old = inputs.table("old")
        full = inputs.table("full")
        deltas = [inputs.table(f"delta-{k}") for k in range(inputs.params.folds)]
        self.config = _config()
        self.hot = check.hot_set(old, self.config.hot_threshold)
        ref_old = check.reference(old, self.config, self.hot)
        # update_rollup_job replays the hot set recorded in _job.json
        ref_full = check.reference(full, self.config, self.hot)
        self.store_digest = check.digest(ref_old)
        self.fold_convs = meta["fold_convs"]
        self.delta_turns = [d.num_rows for d in deltas]
        self.checks, self.affected_kept = [], []
        for k in range(len(deltas)):
            later = pa.array(
                sorted(c for f in self.fold_convs[k + 1 :] for c in f), type=pa.string()
            )
            in_later = pc.is_in(ref_full["conv_id"], value_set=later)
            expected = check.canonical(
                pa.concat_tables(
                    [
                        ref_full.filter(pc.invert(in_later)),
                        ref_old.filter(pc.is_in(ref_old["conv_id"], value_set=later)),
                    ]
                )
            )
            source = pa.concat_tables([old] + deltas[: k + 1])
            self.checks.append(_Checks(expected, source, ctx.seed + k))
            mine = pa.array(self.fold_convs[k], type=pa.string())
            self.affected_kept.append(
                check.n_points_1m(
                    expected.filter(pc.is_in(expected["conv_id"], value_set=mine))
                )
            )
        self.store = os.path.join(ctx.tmp_root, "store")
        self.store_ok: list[str] = []
        self.work: str | None = None
        self.copies = 0

    def _copy(self, ctx: Ctx) -> None:
        if self.work is not None:
            shutil.rmtree(self.work)
        self.work = os.path.join(ctx.tmp_root, f"work-{self.copies}")
        self.copies += 1
        shutil.copytree(self.store, self.work)

    def setup(self, ctx: Ctx, session) -> float:
        excluded = 0.0
        if not os.path.isdir(self.store):
            from light_curve_feature_ray.state.checkpoint import run_rollup_job

            t0 = time.perf_counter()
            run_rollup_job(ctx.inputs.old, self.store)
            excluded = time.perf_counter() - t0
            if check.digest(check.read_store(self.store)) != self.store_digest:
                self.store_ok.append("the built store differs from the reference")
            with open(os.path.join(self.store, "_job.json")) as f:
                if sorted(json.load(f)["hot"]) != self.hot:
                    self.store_ok.append("_job.json hot set != the input's hot set")
        self._copy(ctx)
        return excluded

    def run_pass(self, ctx: Ctx, session, trace=None):
        from light_curve_feature_ray.pipelines.update import update_rollup_job

        if self.work is None:
            self._copy(ctx)
        work, self.work = self.work, None
        try:
            for k, turns in enumerate(self.delta_turns):
                session.reset_peak_rss()
                t0 = time.perf_counter()
                summary = update_rollup_job(work, ctx.inputs.delta(k))
                wall = time.perf_counter() - t0
                op = Op(wall, turns, session.peak_rss_mib(), False)
                op.final = k == len(self.delta_turns) - 1
                tiers = check.read_store(work)
                problems = self.store_ok + self.checks[k].problems(tiers)
                if trace is not None:
                    trace.finish_op(op)
                    self._conserve(op, work, summary, k)
                yield _finish(op, tiers, problems)
        finally:
            shutil.rmtree(work)

    def _conserve(self, op: Op, work: str, summary: dict, k: int) -> None:
        s = op.sums
        rewritten = [
            check.read_store_part(work, p) for p in summary["partitions_rewritten"]
        ]
        s["update.parts_rewritten"] = len(summary["partitions_rewritten"])
        op.conservation = {
            "read.rows == delta turns": s["read.rows"] == self.delta_turns[k],
            "read.rows + decode.points == worker rows in": s["read.rows"]
            + s["decode.points"]
            == s["worker.rows_in"],
            "worker kept == 1m n_points of the affected convs": s["worker.kept"]
            == self.affected_kept[k],
            "sum of partition rows == rows of rewritten partitions": s["sink.rows"]
            == sum(t.num_rows for t in rewritten),
        }


WORKLOADS = {w.name: w for w in (RollupFull, RollupJob, JobUpdate)}
