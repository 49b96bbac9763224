"""Per-layer tracing from outside the package.

A traced run wraps the package's module-level callables (functions and
methods) with timing spans and counters. The same wrappers are installed in
the driver (``DriverTrace``) and, through
``runtime_env={"worker_process_setup_hook": "perfbench.trace.worker_setup"}``,
in every Ray worker process. No file of the package changes and untraced runs
install nothing.

Each span adds its duration to ``<layer>.s`` and its self time (duration
minus the time of spans nested in it) to ``self_s``. A worker keeps its sums
in memory while a task runs and appends them as one JSON line to
``$PERFBENCH_TRACE_DIR/spans-<pid>.jsonl`` when a once-per-task call
(``Layer.flush``) returns outermost; the driver reads and removes those
files after each operation.

Read and exchange time are not Python calls of the package; they come from
``Dataset.stats()`` (see ``dataset_layers``).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import re
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

PKG = "light_curve_feature_ray"
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
TIER_ORDER = ("1m", "1h", "1d")


class Tracer:
    """Span stack plus summed counters of one process."""

    def __init__(self, out_path: str | None = None):
        self.out_path = out_path
        self.stack: list[list] = []  # [start, child seconds]
        self.sums: dict[str, float] = defaultdict(float)
        self.lists: dict[str, list] = defaultdict(list)
        # tiers of the RollupWorker call in progress, in evaluation order,
        # and how many feature evals / encodes it has made so far
        self.tiers: tuple = ()
        self.calls: dict[str, int] = defaultdict(int)

    def next_tier(self, kind: str) -> str:
        i = self.calls[kind]
        self.calls[kind] += 1
        return self.tiers[i] if i < len(self.tiers) else "other"

    def enter(self) -> list:
        frame = [time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list, metric: str) -> None:
        dur = time.perf_counter() - frame[0]
        self.stack.pop()
        if self.stack:
            self.stack[-1][1] += dur
        self.sums[metric] += dur
        self.sums["self_s"] += dur - frame[1]

    def flush(self) -> None:
        if self.out_path is None or self.stack:
            return
        line = json.dumps({"sums": self.sums, "lists": self.lists})
        with open(self.out_path, "a") as f:
            f.write(line + "\n")
        self.sums = defaultdict(float)
        self.lists = defaultdict(list)

    def take(self) -> tuple[dict, dict]:
        sums, lists = self.sums, self.lists
        self.sums = defaultdict(float)
        self.lists = defaultdict(list)
        return sums, lists


# --------------------------------------------------------------------------
# counters, read from a wrapped call's arguments and result
# --------------------------------------------------------------------------


def _count_derive(tr, args, out, tier):
    tr.sums["read.rows"] += args[1].num_rows


def _count_pack(tr, args, out, tier):
    tr.sums["pack.rows_in"] += args[0].num_rows
    tr.sums["pack.rows_out"] += out.num_rows


def _count_worker(tr, args, out, tier):
    import pyarrow.compute as pc

    rows_in = args[1].num_rows
    tr.lists["part_rows"].append(rows_in)
    for entry in pc.value_counts(out["tier"]).to_pylist():
        tr.sums[f"worker.rows.{entry['values']}"] += entry["counts"]
    one = out.filter(pc.equal(out["tier"], "1m"))
    kept = int(pc.sum(one["n_points"]).as_py() or 0)
    tr.sums["worker.rows_in"] += rows_in
    tr.sums["worker.kept"] += kept
    tr.sums["worker.dups_dropped"] += rows_in - kept
    tr.sums["worker.rows_out"] += out.num_rows


def _count_periodogram(tr, args, out, tier):
    tr.sums["periodogram.series"] += len(args[2])


def _count_gap_fill(tr, args, out, tier):
    tr.sums["gap_fill.points_added"] += len(out[0]) - len(args[0])


def _count_encode(tr, args, out, tier):
    import pyarrow.compute as pc

    tr.sums[f"encode.bytes.{tier}"] += pc.sum(pc.binary_length(out)).as_py() or 0
    tr.sums[f"encode.points.{tier}"] += len(args[0])


def _count_decode(tr, args, out, tier):
    tr.sums["decode.points"] += len(out[0])


def _count_sink(tr, args, out, tier):
    tr.sums["sink.bytes"] += out["bytes"]
    tr.sums["sink.rows"] += args[0].num_rows
    tr.sums["sink.parts"] += 1


def _count_hot(tr, args, out, tier):
    tr.sums["hot_detect.convs"] += len(out)


def _start_worker(tr, args):
    tiers = args[0].config.tiers
    tr.tiers = tuple(t for t in TIER_ORDER if t in tiers)
    tr.calls.clear()


@dataclass(frozen=True)
class Layer:
    """One wrapped callable of the package."""

    module: str
    attr: str  # "function" or "Class.method"
    #: summed span duration; None = no span, the call is only a flush point
    metric: str | None
    #: "eval" / "encode": the metric takes the tier of the call
    tier_kind: str | None = None
    before: Callable | None = None
    after: Callable | None = None
    #: write the process's sums out when this call returns outermost; set
    #: on calls made once per task, not on per-segment or per-blob calls
    flush: bool = False


WORKER_LAYERS = [
    Layer("stages.rollup", "DeriveAssign.__call__", "derive.s", after=_count_derive, flush=True),
    Layer("stages.rollup", "pack_derived", "pack.s", after=_count_pack, flush=True),
    Layer("stages.rollup", "unpack_packed", "unpack.s", flush=True),
    Layer(
        "stages.rollup",
        "RollupWorker.__call__",
        "worker.s",
        before=_start_worker,
        after=_count_worker,
        flush=True,
    ),
    Layer("features.grouped", "GroupedSuite.eval", "feature_eval.s.{tier}", tier_kind="eval"),
    Layer(
        "features.periodogram.batched",
        "batched_periodogram_peaks",
        "periodogram.s",
        after=_count_periodogram,
    ),
    Layer("stages.rollup", "_gap_fill", "gap_fill.s", after=_count_gap_fill),
    Layer(
        "codec.gorilla",
        "encode_segments_arrow",
        "encode.s",
        tier_kind="encode",
        after=_count_encode,
    ),
    Layer("codec.gorilla", "decode", "decode.s", after=_count_decode),
    # update's point extraction calls it once per batch, after its decodes
    Layer("stages.rollup", "assign_parts", None, flush=True),
    Layer("state.checkpoint", "_write_partition", "sink.s", after=_count_sink, flush=True),
    Layer("pipelines.update", "_recompute_partition", "update.recompute_s", flush=True),
]
DRIVER_LAYERS = [
    Layer("stages.rollup", "detect_hot_convs", "hot_detect.s", after=_count_hot),
]


def _wrap(tracer: Tracer, fn, layer: Layer):
    if layer.metric is None:

        @functools.wraps(fn)
        def flushing(*args, **kwargs):
            out = fn(*args, **kwargs)
            tracer.flush()
            return out

        return flushing

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if layer.before is not None:
            layer.before(tracer, args)
        tier = tracer.next_tier(layer.tier_kind) if layer.tier_kind else None
        frame = tracer.enter()
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.exit(frame, layer.metric.format(tier=tier))
        if layer.after is not None:
            layer.after(tracer, args, out, tier)
        if layer.flush:
            tracer.flush()
        return out

    return traced


def _install(tracer: Tracer, layers) -> list:
    """Replace each callable everywhere the package binds it; return what
    is needed to undo that."""
    undo = []
    for layer in layers:
        module = importlib.import_module(f"{PKG}.{layer.module}")
        owner_name, _, attr = layer.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            orig = owner.__dict__[attr]
            setattr(owner, attr, _wrap(tracer, orig, layer))
            undo.append((owner, attr, orig))
            continue
        orig = getattr(module, attr)
        wrapped = _wrap(tracer, orig, layer)
        for name, mod in list(sys.modules.items()):
            if name.startswith(PKG) and mod is not None:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        undo.append((mod, key, orig))
    return undo


def _uninstall(undo: list) -> None:
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)


def _import_package() -> None:
    for layer in WORKER_LAYERS + DRIVER_LAYERS:
        importlib.import_module(f"{PKG}.{layer.module}")
    importlib.import_module(f"{PKG}.pipelines.rollup")


def worker_setup() -> None:
    """``worker_process_setup_hook``: trace this Ray worker process."""
    _import_package()
    out = os.path.join(os.environ[TRACE_DIR_ENV], f"spans-{os.getpid()}.jsonl")
    _install(Tracer(out), WORKER_LAYERS)


class DriverTrace:
    """Driver-side wrappers for one traced session, plus the datasets
    whose ``to_pandas`` ran (their stats hold the exchange)."""

    def __init__(self):
        self.tracer = Tracer()
        self.datasets: list = []
        self._undo: list = []

    def __enter__(self) -> "DriverTrace":
        import ray.data

        _import_package()
        self._undo = _install(self.tracer, DRIVER_LAYERS)
        cls = ray.data.Dataset
        orig = cls.__dict__["to_pandas"]
        datasets = self.datasets

        @functools.wraps(orig)
        def to_pandas(ds, *args, **kwargs):
            datasets.append(ds)
            return orig(ds, *args, **kwargs)

        cls.to_pandas = to_pandas
        self._undo.append((cls, "to_pandas", orig))
        return self

    def __exit__(self, *exc) -> None:
        _uninstall(self._undo)


def collect(trace_dir: str, driver: DriverTrace) -> tuple[dict, dict]:
    """Sum and clear everything recorded since the last call."""
    sums, lists = driver.tracer.take()
    sums = defaultdict(float, sums)
    lists = defaultdict(list, lists)
    for name in sorted(os.listdir(trace_dir)):
        path = os.path.join(trace_dir, name)
        with open(path) as f:
            for line in f:
                rec = json.loads(line)
                for key, value in rec["sums"].items():
                    sums[key] += value
                for key, value in rec["lists"].items():
                    lists[key].extend(value)
        os.remove(path)
    return sums, lists


# --------------------------------------------------------------------------
# read and exchange, from Dataset.stats()
# --------------------------------------------------------------------------


def _nodes(summary):
    yield summary
    for parent in summary.parents:
        yield from _nodes(parent)


def _wall_sum(node) -> float:
    return sum((op.wall_time or {}).get("sum", 0.0) for op in node.operators_stats)


def dataset_layers(datasets) -> dict[str, float]:
    """From the stats of executed datasets: ``map_side.task_s`` (task time
    of every operator before the groupby's sort exchange), ``exchange.s``
    (task time of the exchange) and ``exchange.blocks_in`` (blocks that
    entered it)."""
    out = defaultdict(float)
    seen = set()
    for ds in datasets:
        for node in _nodes(ds._get_stats_summary()):
            names = [op.operator_name for op in node.operators_stats]
            if "SortMap" not in names or (node.dataset_uuid, node.number) in seen:
                continue
            seen.add((node.dataset_uuid, node.number))
            out["exchange.s"] += _wall_sum(node)
            for op in node.operators_stats:
                found = re.search(r"(\d+) blocks produced", op.block_execution_summary_str)
                if op.operator_name == "SortMap" and found:
                    out["exchange.blocks_in"] += int(found.group(1))
            for parent in node.parents:
                for up in _nodes(parent):
                    if (up.dataset_uuid, up.number) not in seen:
                        seen.add((up.dataset_uuid, up.number))
                        out["map_side.task_s"] += _wall_sum(up)
    return out


class PassTrace:
    """Attributes everything traced since the previous call to one
    operation; ``datasets`` adds executed datasets the driver wrapper did
    not see (``rollup_dataset`` output is materialized, not converted)."""

    def __init__(self, trace_dir: str, driver: DriverTrace):
        self.trace_dir = trace_dir
        self.driver = driver

    def discard(self) -> tuple[dict, dict]:
        self.driver.datasets.clear()
        return collect(self.trace_dir, self.driver)

    def finish_op(self, op, datasets=()) -> None:
        sums, lists = collect(self.trace_dir, self.driver)
        sums.update(dataset_layers(list(datasets) + self.driver.datasets))
        self.driver.datasets.clear()
        op.sums, op.lists = sums, lists


def layer_metrics(sums: dict, lists: dict, wall_s: float, num_cpus: int) -> dict:
    """Per-layer metrics of one traced operation."""
    s = defaultdict(float, sums)
    m = {}
    # operators before the exchange read, then derive, pack or decode
    m["read.s"] = max(0.0, s["map_side.task_s"] - s["derive.s"] - s["pack.s"] - s["decode.s"])
    m["read.rows"] = s["read.rows"]
    for key in ("hot_detect.s", "hot_detect.convs", "derive.s", "pack.s", "unpack.s"):
        m[key] = s[key]
    m["pack.rows_out_per_in"] = s["pack.rows_out"] / s["pack.rows_in"] if s["pack.rows_in"] else 0.0
    m["exchange.s"] = s["exchange.s"]
    m["exchange.blocks_in"] = s["exchange.blocks_in"]
    rows = [r for r in lists.get("part_rows", []) if r > 0]
    m["exchange.part_rows_skew"] = max(rows) / float(np.median(rows)) if rows else 0.0
    for key in ("worker.s", "worker.dups_dropped"):
        m[key] = s[key]
    for tier in TIER_ORDER:
        m[f"worker.rows.{tier}"] = s[f"worker.rows.{tier}"]
    for tier in TIER_ORDER:
        m[f"feature_eval.s.{tier}"] = s[f"feature_eval.s.{tier}"]
    for key in ("periodogram.s", "periodogram.series", "gap_fill.s", "gap_fill.points_added", "encode.s"):
        m[key] = s[key]
    for tier in TIER_ORDER:
        points = s[f"encode.points.{tier}"]
        m[f"encode.bytes_per_point.{tier}"] = s[f"encode.bytes.{tier}"] / points if points else 0.0
    for key in ("decode.s", "decode.points", "sink.s", "sink.bytes", "update.parts_rewritten", "update.recompute_s"):
        m[key] = s[key]
    busy = s["self_s"] + m["read.s"] + m["exchange.s"]
    m["overhead_s"] = wall_s - busy / num_cpus
    m["pass_s"] = wall_s
    return m
