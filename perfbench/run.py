"""Benchmark of the rollup engine: seeded workloads, end-to-end metrics,
and a traced run for per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rollup_full --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json and ``workloads.py``): ``rollup_full``,
``rollup_job`` and ``job_update``. Each invocation generates (or reuses
from ``.perfbench/cache``) the inputs for ``--seed``, computes the
in-process reference, then sets up a local Ray session sized to ``nproc``
three times (``setup_s`` is their median) and measures passes for
``--seconds`` seconds of pass time. Every operation's output is checked.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` measures
untraced passes, then traced passes in a second session whose workers
install ``trace.worker_setup``, and prints the per-layer metrics. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import tempfile
import time
import traceback
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import trace  # noqa: E402
from perfbench.load import LoadParams, ensure_inputs  # noqa: E402
from perfbench.session import RaySession, cpu_ticks, nproc  # noqa: E402
from perfbench.workloads import WORKLOADS, Ctx, Op, warm_up  # noqa: E402

#: set-ups per invocation; setup_s is their median
SETUPS = 3
#: no new pass starts after this many seconds of an invocation
PASS_DEADLINE_S = 120.0


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """End-to-end and per-layer metric units, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _log(started: float, msg: str) -> None:
    print(f"[{time.monotonic() - started:7.2f}s] {msg}", file=sys.stderr, flush=True)


class Invocation:
    """One workload, one seed: references, sessions, passes, metrics."""

    def __init__(self, name: str, seed: int, seconds: float, tmp_root: str):
        self.started = time.monotonic()
        self.seconds = seconds
        inputs = ensure_inputs(os.path.join(ROOT, ".perfbench", "cache"), seed, LoadParams())
        self.log("inputs ready")
        self.ctx = Ctx(inputs, seed, nproc(), tmp_root)
        self.workload = WORKLOADS[name](self.ctx)
        self.log("in-process reference ready")
        self.ops: list = []

    def log(self, msg: str) -> None:
        _log(self.started, msg)

    def session(self, **kwargs):
        ray_root = os.path.join(ROOT, ".perfbench", "ray")
        return RaySession(self.ctx.num_cpus, ROOT, ray_root, **kwargs)

    def set_up(self, stack: contextlib.ExitStack, **kwargs):
        """Enter a session, warm it up and run the workload's set-up;
        returns the session and the set-up seconds."""
        t0 = time.perf_counter()
        session = stack.enter_context(self.session(**kwargs))
        warm_up(self.ctx)
        excluded = self.workload.setup(self.ctx, session)
        setup_s = time.perf_counter() - t0 - excluded
        self.log(f"set up in {setup_s:.3f}s")
        return session, setup_s

    def measure(self, session, seconds: float, trace=None) -> list:
        """Run operations until ``seconds`` of operation time have been
        measured (stopping between two folds of a pass, if need be)."""
        ops, measured = [], 0.0
        while measured < seconds and (
            not ops or time.monotonic() - self.started < PASS_DEADLINE_S
        ):
            t0 = time.perf_counter()
            passes = self.workload.run_pass(self.ctx, session, trace)
            try:
                for op in passes:
                    self.log(f"operation took {op.wall_s:.3f}s, ok={op.ok}")
                    ops.append(op)
                    measured += op.wall_s
                    if measured >= seconds:
                        break
                    t0 = time.perf_counter()
            except Exception:
                traceback.print_exc(file=sys.stderr)
                wall = time.perf_counter() - t0
                ops.append(Op(wall, 0, 0.0, False, problems=["raised"]))
                measured += max(wall, seconds / 4)
            finally:
                passes.close()
        self.ops.extend(ops)
        return ops

    def end_to_end(self) -> dict:
        setups = []
        for _ in range(SETUPS - 1):
            with contextlib.ExitStack() as stack:
                setups.append(self.set_up(stack)[1])
        with contextlib.ExitStack() as stack:
            session, setup_s = self.set_up(stack)
            setups.append(setup_s)
            steal = cpu_ticks()
            ops = self.measure(session, self.seconds)
            steal = [after - before for after, before in zip(cpu_ticks(), steal)]
        timed = [op for op in ops if op.turns]
        bytes_per_turn = [
            op.points_bytes_per_turn for op in ops if op.final and op.points_bytes_per_turn
        ]
        return {
            "turns_per_s": median([op.turns / op.wall_s for op in timed]) if timed else 0.0,
            "setup_s": median(setups),
            "peak_rss_mib": median([op.rss_mib for op in timed]) if timed else 0.0,
            "points_bytes_per_turn": bytes_per_turn[-1] if bytes_per_turn else 0.0,
            "_samples": len(timed),
            "_setups": setups,
            "_steal": steal[0] / steal[1] if steal[1] else 0.0,
        }

    def per_layer(self) -> dict:
        with contextlib.ExitStack() as stack:
            session, _ = self.set_up(stack)
            plain = self.measure(session, self.seconds / 2)
        trace_dir = os.path.join(self.ctx.tmp_root, "trace")
        os.makedirs(trace_dir)
        with contextlib.ExitStack() as stack:
            session = stack.enter_context(
                self.session(
                    setup_hook="perfbench.trace.worker_setup",
                    env={trace.TRACE_DIR_ENV: trace_dir},
                )
            )
            driver = stack.enter_context(trace.DriverTrace())
            tracer = trace.PassTrace(trace_dir, driver)
            warm_up(self.ctx)
            tracer.discard()
            self.workload.setup(self.ctx, session)
            setup_sums, _ = tracer.discard()
            traced = self.measure(session, self.seconds / 2, tracer)
        per_op, m = [], {}
        for op in traced:
            if op.sums is None:
                continue
            m = trace.layer_metrics(op.sums, op.lists, op.wall_s, self.ctx.num_cpus)
            if not m["hot_detect.s"]:
                # rollup_full detects hot conversations during set-up
                m["hot_detect.s"] = setup_sums.get("hot_detect.s", 0.0)
                m["hot_detect.convs"] = setup_sums.get("hot_detect.convs", 0.0)
            per_op.append(m)
            bad = [k for k, ok in op.conservation.items() if not ok]
            if bad:
                op.ok = False
                op.problems.extend(f"conservation: {k}" for k in bad)
        out = {k: median([m[k] for m in per_op]) if per_op else 0.0 for k in m}
        plain_walls = [op.wall_s for op in plain if op.turns]
        traced_walls = [op.wall_s for op in traced if op.turns]
        out["trace_overhead_frac"] = (
            median(traced_walls) / median(plain_walls) - 1.0
            if plain_walls and traced_walls
            else 0.0
        )
        out["_samples"] = len(per_op)
        return out


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    tmp_parent = os.path.join(ROOT, ".perfbench", "tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    tmp_root = tempfile.mkdtemp(prefix="r", dir=tmp_parent)
    try:
        inv = Invocation(name, seed, seconds, tmp_root)
        values = inv.per_layer() if traced else inv.end_to_end()
        units = metric_units()[1 if traced else 0]
        ops = inv.ops
        failed = [op for op in ops if not op.ok]
        for op in failed:
            print(f"{name}: failed operation: {'; '.join(op.problems)}", file=sys.stderr)
        return {
            "workload": name,
            "num_cpus": inv.ctx.num_cpus,
            "seed": seed,
            "samples": values.pop("_samples"),
            "setups": values.pop("_setups", None),
            "steal": values.pop("_steal", None),
            "correct": not failed and bool(ops),
            "attempted": len(ops),
            "failed": len(failed),
            "metrics": {
                k: {"value": float(values.get(k, 0.0)), "unit": u} for k, u in units.items()
            },
        }
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)


def _report(result: dict) -> None:
    name = result["workload"]
    print(
        f"{name}: num_cpus={result['num_cpus']} (nproc) seed={result['seed']} "
        f"operations={result['attempted']} medians over {result['samples']} samples"
        + (f", setup_s over {len(result['setups'])} set-ups" if result["setups"] else "")
        + (f", cpu steal {100 * result['steal']:.1f}%" if result["steal"] is not None else "")
    )
    for key, metric in result["metrics"].items():
        print(f"  {name}.{key:28s} {metric['value']:>16.6g} {metric['unit']}")
    frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"  {name}.{'failed_frac':28s} {frac:>16.6g} 1")


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        import light_curve_feature_ray  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the package under test from {ROOT}: {exc}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or all", file=sys.stderr)
        return 2
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for result in results:
        _report(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()
        }
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
