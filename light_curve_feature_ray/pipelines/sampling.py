"""Deterministic sampling / curation operators for training-data pipelines.

Two operators a corpus-curation pipeline needs before anything touches a
trainer:

- ``hash_sample`` — deterministic Bernoulli sampling keyed on an integer id
  column: a Lehmer (MINSTD) hash of the id is compared against an integer
  threshold.  Pure ``map_batches`` — no shuffle, no state, embarrassingly
  parallel, and the SAME rows are kept regardless of partitioning, block
  layout, cluster size, or retry (unlike ``ds.random_sample``).  All
  arithmetic stays below 2**53 so a SQL oracle reproduces it bit-for-bit
  (numpy int64 == DuckDB BIGINT).  ``stratified_hash_sample`` applies a
  per-group rate with the same hash.

- ``top_k_per_group`` — exact per-group top-k (e.g. "longest 5 documents
  per language"): a block-local combiner keeps at most k rows per group
  per block, then ONE hash shuffle on the group key and a vectorized
  per-partition reduce emit the exact top-k with a dense ``rk`` rank.
  The shuffle carries at most ``k * num_groups * num_blocks`` rows — not
  the corpus — so it scales with groups, not data.

Determinism contract: ties in ``score_col`` resolve by ascending
``tiebreak_col`` (a unique id), so output is independent of parallelism.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np
import pandas as pd
import pyarrow as pa

from ..stages.exchange import reduce_by_key, reduce_by_part

# Lehmer / MINSTD constants (Park & Miller 1988): modulus 2**31 - 1,
# multiplier 48271.  state < 2**31 and 48271 < 2**16 keep every product
# under 2**47 — exact in int64 on both engines.
LEHMER_MOD = 2_147_483_647
LEHMER_MUL = 48_271
_SEED_MIX = 2_246_822_519  # xxhash PRIME32_2 — just a fixed odd mixer


def sample_threshold(rate: float) -> int:
    """Integer keep-threshold for ``hash_sample``: keep rows whose hash is
    strictly below ``floor(rate * (2**31 - 1))``.  Computed once in Python
    so the engine and any SQL oracle compare against the identical integer.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    return int(rate * LEHMER_MOD)


def lehmer_hash(ids: np.ndarray, seed: int = 0, rounds: int = 3) -> np.ndarray:
    """Vectorized Lehmer hash of an integer id array -> int64 in [0, M).

    ``h0 = (id mod M + s0) mod M`` with ``s0 = (1 + seed * PRIME) mod M``,
    then ``rounds`` multiplicative steps ``h = h * 48271 mod M``.  Every
    intermediate is < 2**47, so the identical expression evaluates exactly
    in DuckDB BIGINT arithmetic (see ``lehmer_sql``).
    """
    s0 = (1 + seed * _SEED_MIX) % LEHMER_MOD
    h = (ids.astype(np.int64) % LEHMER_MOD + s0) % LEHMER_MOD
    for _ in range(rounds):
        h = (h * LEHMER_MUL) % LEHMER_MOD
    return h


def lehmer_sql(col: str, seed: int = 0, rounds: int = 3) -> str:
    """The DuckDB twin of :func:`lehmer_hash` as a SQL expression string."""
    s0 = (1 + seed * _SEED_MIX) % LEHMER_MOD
    expr = f"(({col} % {LEHMER_MOD}) + {s0}) % {LEHMER_MOD}"
    for _ in range(rounds):
        expr = f"(({expr}) * {LEHMER_MUL}) % {LEHMER_MOD}"
    return expr


def hash_sample(
    ds,
    rate: float,
    seed: int = 0,
    id_col: str = "doc_id",
    hash_col: str | None = "sample_h",
):
    """Keep rows where ``lehmer_hash(id) < floor(rate * M)``.

    Deterministic in the id alone — re-running on a different cluster,
    block layout, or subset of the data keeps exactly the same rows, which
    is what makes it usable for resumable corpus curation at 100 TB.
    When ``hash_col`` is set the hash is emitted so downstream stages (or
    an oracle) can audit the decision.
    """
    thr = sample_threshold(rate)

    def _keep(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            out = batch
            if hash_col:
                out = out.append_column(
                    hash_col, pa.array([], type=pa.int64())
                )
            return out
        h = lehmer_hash(batch.column(id_col).to_numpy(), seed)
        out = batch
        if hash_col:
            out = out.append_column(hash_col, pa.array(h, type=pa.int64()))
        return out.filter(pa.array(h < thr))

    return ds.map_batches(_keep, batch_format="pyarrow", batch_size=None)


def stratified_hash_sample(
    ds,
    rates: Mapping[str, float],
    group_col: str,
    default_rate: float = 0.0,
    seed: int = 0,
    id_col: str = "doc_id",
):
    """Per-group Bernoulli rates with the same Lehmer hash: e.g. keep 50%
    of ``lang='en'`` docs and 10% of everything else.  ``rates`` is a small
    driver-side dict (group value -> rate) captured by the closure — it
    ships once per task with the serialized function, not per batch.
    """
    keys = list(rates)
    # thresholds indexed by key position; the last slot is the default
    # (index_in yields null -> fill with len(keys))
    tvals = np.array(
        [sample_threshold(rates[k]) for k in keys]
        + [sample_threshold(default_rate)],
        dtype=np.int64,
    )
    key_set = pa.array(keys)

    def _keep(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        import pyarrow.compute as pc

        h = lehmer_hash(batch.column(id_col).to_numpy(), seed)
        idx = pc.fill_null(
            pc.index_in(batch.column(group_col), value_set=key_set), len(keys)
        ).to_numpy(zero_copy_only=False)
        t = tvals[idx.astype(np.int64)]
        return batch.filter(pa.array(h < t))

    return ds.map_batches(_keep, batch_format="pyarrow", batch_size=None)


def _topk_frame(
    df: pd.DataFrame,
    group_col: str,
    score_col: str,
    tiebreak_col: str,
    k: int,
    with_rank: bool,
) -> pd.DataFrame:
    """Vectorized top-k-per-group over one in-memory frame: one lexsort
    (group asc, score desc, tiebreak asc), run boundaries, offset < k."""
    n = len(df)
    if n == 0:
        out = df
        if with_rank:
            out = out.copy()
            out["rk"] = np.empty(0, dtype=np.int64)
        return out
    g = df[group_col].to_numpy()
    s = df[score_col].to_numpy()
    t = df[tiebreak_col].to_numpy()
    # np.lexsort: last key is primary.  Descending score via argsort of
    # the negated values (numeric scores only — documented contract).
    order = np.lexsort((t, -s, g))
    gs = g[order]
    new = np.r_[True, gs[1:] != gs[:-1]] if n else np.empty(0, dtype=bool)
    run_starts = np.flatnonzero(new)
    gid = np.cumsum(new) - 1
    offset = np.arange(n) - run_starts[gid]
    keep = offset < k
    out = df.iloc[order[keep]].reset_index(drop=True)
    if with_rank:
        out["rk"] = offset[keep] + 1
    return out


def top_k_per_group(
    ds,
    group_col: str,
    score_col: str,
    k: int,
    tiebreak_col: str = "doc_id",
    num_partitions: int | None = None,
    with_rank: bool = True,
):
    """Exact top-k rows per group by a numeric score, ties broken by
    ascending ``tiebreak_col``; emits a dense 1-based ``rk`` per group.
    NULL-group rows are dropped (mirror: ``WHERE group IS NOT NULL``).

    Block-local combiner first (each block contributes <= k rows per
    group), so the one keyed exchange (``reduce_by_key`` on
    ``group_col``) moves a k-bounded slice of the corpus.  The reduce
    re-runs the identical kernel per part — associativity of top-k makes
    combiner+reduce exact.
    """

    def _combine(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df[group_col].notna()]
        return _topk_frame(df, group_col, score_col, tiebreak_col, k, False)

    def _reduce(part: pd.DataFrame) -> pd.DataFrame:
        out = _topk_frame(part, group_col, score_col, tiebreak_col, k, with_rank)
        return out.drop(columns=["part"])

    combined = ds.map_batches(_combine, batch_format="pandas", batch_size=None)
    return reduce_by_key(combined, group_col, _reduce, num_partitions, "pandas")


def hash_split(
    ds,
    splits: Mapping[str, float],
    seed: int = 0,
    id_col: str = "doc_id",
    split_col: str = "split",
):
    """Deterministic disjoint train/val/test assignment: the Lehmer hash
    of the id is bucketed into consecutive integer ranges sized by the
    ``splits`` fractions (must sum to 1).  Every row gets exactly one
    split label; the assignment is a pure map — independent of
    partitioning, cluster size, and retries, and reproducible by a SQL
    CASE over the same integer thresholds (:func:`split_sql_case`).
    Fractions are cumulated in dict order, so the same dict always
    yields the same ranges."""
    bounds, names = split_bounds(splits)

    def _assign(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column(split_col, pa.array([], pa.string()))
        h = lehmer_hash(batch.column(id_col).to_numpy(), seed)
        idx = np.searchsorted(bounds, h, side="right")
        return batch.append_column(
            split_col, pa.array(np.array(names)[idx])
        )

    return ds.map_batches(_assign, batch_format="pyarrow", batch_size=None)


def split_bounds(splits: Mapping[str, float]):
    """(upper-bound thresholds[:-1], names) for ``hash_split`` — shared
    with the SQL twin so both compare the identical integers."""
    names = list(splits)
    fracs = [float(splits[n]) for n in names]
    if any(f < 0 for f in fracs) or abs(sum(fracs) - 1.0) > 1e-9:
        raise ValueError(f"split fractions must be >=0 and sum to 1: {splits}")
    cum = 0.0
    bounds = []
    for f in fracs[:-1]:
        cum += f
        bounds.append(sample_threshold(min(cum, 1.0)))
    return np.array(bounds, dtype=np.int64), names


def split_sql_case(
    splits: Mapping[str, float], col: str, seed: int = 0
) -> str:
    """DuckDB CASE expression assigning the identical split labels."""
    bounds, names = split_bounds(splits)
    h = lehmer_sql(col, seed=seed)
    parts = [
        f"WHEN ({h}) < {int(b)} THEN '{n}'"
        for b, n in zip(bounds, names[:-1])
    ]
    return "CASE " + " ".join(parts) + f" ELSE '{names[-1]}' END"


def weighted_sample(
    ds,
    k: int,
    *,
    weight_col: str,
    id_col: str = "doc_id",
    seed: int = 0,
):
    """Deterministic weighted sampling WITHOUT replacement, exactly k
    rows, via Efraimidis–Spirakis A-ES keys (Efraimidis & Spirakis
    2006): key_i = ln(u_i) / w_i with u_i = (lehmer_hash(id)+1)/(M+1)
    in (0, 1]; the k LARGEST keys are the sample — equivalent to
    drawing without replacement with probability proportional to
    weight, but reproducible from the ids alone (same rows on any
    cluster / layout / retry — the :func:`hash_sample` property, with
    weights). Ties break by ascending id. Rows with NULL or
    non-positive weight are excluded (A-ES is undefined there) —
    mirror with ``WHERE w > 0`` in SQL twins.

    Returns (id, weight, es_key) for the k selected rows.

    Scale shape: block-local key computation + block top-k combiner
    (each block ships <= k candidate rows — top-k is associative), one
    single-partition reduce re-running the identical kernel over
    <= k * num_blocks candidates. The corpus never shuffles.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")

    def _score_topk(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        w = batch.column(weight_col).to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        ok = np.isfinite(w) & (w > 0)
        ids, w = ids[ok], w[ok]
        h = lehmer_hash(ids.astype(np.int64), seed)
        key = np.log((h + 1.0) / float(LEHMER_MOD + 1)) / w
        order = np.lexsort((ids, -key))[:k]
        return pa.table(
            {
                id_col: pa.array(ids[order]).cast(
                    batch.schema.field(id_col).type
                ),
                weight_col: pa.array(w[order]),
                "es_key": pa.array(key[order]),
            }
        )

    def _reduce(t: pa.Table) -> pa.Table:
        t = t.drop_columns(["part"])
        ids = t[id_col].to_numpy(zero_copy_only=False)
        key = t["es_key"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -key))[:k]
        return t.take(pa.array(order))

    candidates = ds.map_batches(
        _score_topk, batch_format="pyarrow", batch_size=None
    ).map_batches(
        lambda t: t.append_column(
            "part", pa.array(np.zeros(t.num_rows, dtype=np.int32))
        ),
        batch_format="pyarrow",
        batch_size=None,
    )
    return reduce_by_part(candidates, _reduce, 1, "pyarrow")


def quota_sample(
    ds,
    quotas: Mapping,
    *,
    group_col: str,
    id_col: str = "doc_id",
    seed: int = 0,
    num_partitions: int | None = None,
):
    """EXACT per-group quotas — the data-mixing primitive: keep exactly
    ``quotas[g]`` rows of group ``g`` (fewer only if the group is
    smaller), chosen as the rows with the SMALLEST Lehmer hash of their
    id (ties by ascending id). Where :func:`stratified_hash_sample` is
    Bernoulli (a RATE per group, binomial count noise),
    ``quota_sample`` hits the mixture counts exactly — the knob a
    training-mix spec ("100k of lang=de, 30k of lang=zh") actually
    sets. Groups absent from ``quotas`` are dropped. Deterministic in
    the ids alone, so resumable and layout-invariant like the other
    samplers.

    Returns the selected rows with a ``sample_h`` audit column.

    Scale shape: block-local per-group top-quota combiner (smallest-
    hash-k is associative, each block ships <= quota_g rows per group),
    one hash shuffle of the quota-bounded candidate set, and the
    identical kernel per partition. ``quotas`` is a small driver-side
    dict broadcast with the task closure; the corpus never shuffles.
    """
    quotas = dict(quotas)
    for g, q in quotas.items():
        if q < 0:
            raise ValueError(f"quota for {g!r} must be >= 0, got {q}")
    keys = list(quotas)
    qvals = np.array([quotas[k] for k in keys] + [0], dtype=np.int64)
    key_set = pa.array(keys)

    def _keep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if "sample_h" not in batch.column_names:
            h = lehmer_hash(batch.column(id_col).to_numpy(), seed)
            batch = batch.append_column(
                "sample_h", pa.array(h, type=pa.int64())
            )
        idx = pc.fill_null(
            pc.index_in(batch.column(group_col), value_set=key_set),
            len(keys),
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        q = qvals[idx]
        h = batch.column("sample_h").to_numpy(zero_copy_only=False)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        n = batch.num_rows
        if n == 0:
            return batch
        order = np.lexsort((ids, h, idx))
        gs = idx[order]
        new = np.r_[True, gs[1:] != gs[:-1]]
        run_starts = np.flatnonzero(new)
        gid = np.cumsum(new) - 1
        offset = np.arange(n) - run_starts[gid]
        keep = offset < q[order]
        return batch.take(pa.array(np.sort(order[keep])))

    def _reduce(t: pa.Table) -> pa.Table:
        return _keep(t.drop_columns(["part"]))

    kept = ds.map_batches(_keep, batch_format="pyarrow", batch_size=None)
    return reduce_by_key(kept, group_col, _reduce, num_partitions, "pyarrow")
