"""Seeded load generator: every input of every workload, built by one
process from ``sources.synth.synth_transcripts_table`` plus benchmark-side
transforms (time-order interleave, re-delivered duplicates, old/delta
split).

The program under test only ever receives the Parquet directories. Inputs
are cached by (seed, parameters) under the checkout and written atomically
(temporary directory + rename), so generation never counts toward a run's
set-up time and two concurrent invocations cannot see a half-written set.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import asdict, dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

#: bump when the transforms below change, so stale caches are not reused
GENERATOR_VERSION = 3


@dataclass(frozen=True)
class LoadParams:
    #: exact turn count of the full input, so that every seed measures
    #: the same amount of work; the generated table is cut to it
    turns: int = 120_000
    n_convs: int = 3000
    mean_turns: float = 30.0
    #: hot conversations sit above RollupConfig's default hot_threshold
    #: (10 000 turns), so the salted-partition path runs
    hot_convs: int = 2
    hot_turns: int = 11_000
    shards: int = 8
    #: share of turns delivered a second time, later in the log
    dup_frac: float = 0.01
    #: longest re-delivery delay after the original turn
    dup_delay_s: float = 600.0
    folds: int = 3
    #: exact turn count of each delta
    fold_turns: int = 500
    #: share of a conversation's turns that arrive in its delta
    tail_frac: float = 0.1
    warm_convs: int = 40


@dataclass(frozen=True)
class Inputs:
    root: str
    params: LoadParams

    def path(self, name: str) -> str:
        return os.path.join(self.root, name)

    @property
    def full(self) -> str:
        """Conversation-contiguous shards: how batch exports land."""
        return self.path("full")

    @property
    def interleaved(self) -> str:
        """Time-ordered across conversations, with re-delivered turns."""
        return self.path("interleaved")

    @property
    def old(self) -> str:
        """Everything except the delta tails: the store's history."""
        return self.path("old")

    def delta(self, k: int) -> str:
        return self.path(f"delta-{k}")

    @property
    def warm(self) -> str:
        """A tiny input for warming worker processes during set-up."""
        return self.path("warm")

    def table(self, name: str) -> pa.Table:
        return pq.read_table(self.path(name))

    def meta(self) -> dict:
        with open(self.path("meta.json")) as f:
            return json.load(f)


def _write_shards(table: pa.Table, out_dir: str, shards: int) -> None:
    os.makedirs(out_dir)
    bounds = np.linspace(0, table.num_rows, shards + 1).astype(np.int64)
    for i in range(shards):
        pq.write_table(
            table.slice(bounds[i], bounds[i + 1] - bounds[i]),
            os.path.join(out_dir, f"part-{i:05d}.parquet"),
        )


def _interleave(table: pa.Table, p: LoadParams, rng) -> pa.Table:
    """Order turns by arrival time across conversations and re-deliver
    ``dup_frac`` of them unchanged a little later, as live logs land."""
    n = table.num_rows
    ts = table["ts"].cast(pa.int64()).to_numpy()
    dup = np.sort(rng.choice(n, size=int(round(n * p.dup_frac)), replace=False))
    delay = rng.uniform(0, p.dup_delay_s * 1e6, dup.size).astype(np.int64)
    idx = np.concatenate([np.arange(n), dup])
    arrival = np.concatenate([ts, ts[dup] + delay])
    order = np.lexsort((np.arange(idx.size), arrival))
    return table.take(pa.array(idx[order]))


def _delta_split(table: pa.Table, p: LoadParams, rng):
    """Mark, per fold, the last ``tail_frac`` turns of randomly chosen
    non-hot conversations until the fold holds exactly ``fold_turns``
    turns. Each conversation is in at most one delta, so each delta only
    appends turns (update_rollup_job's contract). Returns a per-row fold
    index (-1 = old) and the per-fold conv ids."""
    conv = table["conv_id"].to_numpy(zero_copy_only=False)
    turn = table["turn_idx"].to_numpy()
    names, codes = np.unique(conv, return_inverse=True)
    sizes = np.bincount(codes)
    # at least 10 turns, so each picked conversation keeps 90 % history
    candidates = rng.permutation(np.flatnonzero((sizes >= 10) & (sizes < p.hot_turns)))
    cut = sizes.copy()
    fold_of_conv = np.full(names.size, -1)
    fold_convs, pos = [], 0
    for k in range(p.folds):
        need, mine = p.fold_turns, []
        while need > 0:
            if pos == candidates.size:
                raise ValueError("not enough conversations for the deltas")
            c = candidates[pos]
            pos += 1
            take = min(int(np.ceil(sizes[c] * p.tail_frac)), need)
            cut[c] = sizes[c] - take
            fold_of_conv[c] = k
            mine.append(names[c])
            need -= take
        fold_convs.append(sorted(mine))
    fold = np.where(turn >= cut[codes], fold_of_conv[codes], -1)
    return fold, fold_convs


def _build(out_dir: str, seed: int, p: LoadParams) -> None:
    from light_curve_feature_ray.sources.synth import synth_transcripts_table

    rng = np.random.default_rng([seed, GENERATOR_VERSION])
    table = synth_transcripts_table(
        n_convs=p.n_convs,
        mean_turns=p.mean_turns,
        hot_convs=p.hot_convs,
        hot_turns=p.hot_turns,
        seed=seed,
    )
    if table.num_rows < p.turns:
        raise ValueError(f"synthetic table has {table.num_rows} < {p.turns} turns")
    # conversations are contiguous and hot ones come first: the cut keeps
    # whole conversations plus the leading turns of the last one
    table = table.slice(0, p.turns)
    _write_shards(table, os.path.join(out_dir, "full"), p.shards)
    interleaved = _interleave(table, p, rng)
    _write_shards(interleaved, os.path.join(out_dir, "interleaved"), p.shards)
    fold, fold_convs = _delta_split(table, p, rng)
    _write_shards(
        table.filter(pa.array(fold < 0)), os.path.join(out_dir, "old"), p.shards
    )
    delta_rows = []
    for k in range(p.folds):
        delta = table.filter(pa.array(fold == k))
        delta_rows.append(delta.num_rows)
        _write_shards(delta, os.path.join(out_dir, f"delta-{k}"), 1)
    warm = synth_transcripts_table(
        n_convs=p.warm_convs, hot_convs=0, seed=seed + 1
    )
    _write_shards(warm, os.path.join(out_dir, "warm"), 2)
    meta = {
        "seed": seed,
        "params": asdict(p),
        "generator_version": GENERATOR_VERSION,
        "rows": {
            "full": table.num_rows,
            "interleaved": interleaved.num_rows,
            "old": int((fold < 0).sum()),
            "deltas": delta_rows,
        },
        "fold_convs": fold_convs,
    }
    with open(os.path.join(out_dir, "meta.json"), "w") as f:
        json.dump(meta, f)


def ensure_inputs(cache_root: str, seed: int, params: LoadParams) -> Inputs:
    """Return the cached inputs for (seed, params), building them first
    if needed. The directory appears only once complete."""
    key = json.dumps(
        {"seed": seed, "params": asdict(params), "v": GENERATOR_VERSION},
        sort_keys=True,
    )
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    final = os.path.join(cache_root, f"s{seed}-{digest}")
    if not os.path.isdir(final):
        os.makedirs(cache_root, exist_ok=True)
        tmp = f"{final}.tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        try:
            _build(tmp, seed, params)
            os.rename(tmp, final)
        except OSError:
            # another invocation finished the same inputs first
            if not os.path.isdir(final):
                raise
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    return Inputs(final, params)
