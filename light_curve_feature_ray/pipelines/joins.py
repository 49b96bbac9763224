"""Join operators, sized to the data:

- plain equi-join, LARGE x LARGE: use Ray Data's native hash-shuffle
  ``Dataset.join`` (both sides exchange on the key) — nothing to build;
- plain equi-join, LARGE x SMALL dimension: :func:`broadcast_join`
  below — the small side ships once via ``ray.put`` and the fact table
  never shuffles;
- as-of / interval (range) joins: custom operators Ray Data lacks,
  expressed Ray-Data-first below.

``asof_join`` attaches, to every LEFT row, the latest RIGHT row of the
same key with ``right.ts <= left.ts`` (backward as-of — the standard
"most recent state at event time" join of time-series stores; DuckDB's
native ``ASOF JOIN`` is the SQL oracle). ``interval_join`` attaches the
NON-OVERLAPPING interval of the same key containing the left timestamp
(``start <= ts <= end``) — with non-overlap, "the containing interval"
is exactly "the latest interval starting at or before ts, if its end
still covers ts", so both joins share one merge core.

Shape: ONE hash shuffle co-locating both sides by ``hash(key) %
num_partitions``, then a partition-level vectorized merge: the right
side sorts by (key, ts) once per partition, and the match for ALL left
rows at once is ``np.searchsorted`` over a structured (key, ts) array —
lexicographic "last right row <= (key, ts)" with a key-equality mask for
misses. No per-key or per-row Python.

Partitioning assumption (documented per the custom-operator contract):
all rows of one key fit in one partition's task memory — the same
conv-locality assumption the rollup makes; salt hot keys upstream if a
single key outgrows that.

Determinism: the right side must be unique per (key, ts) (as-of) or
non-overlapping per key (interval) or the picked row is arbitrary —
pre-aggregate duplicates (e.g. ``groupby(key, ts).max()``) exactly as
the SQL oracle must.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..stages.exchange import (
    auto_shuffle_partitions,
    hash_mod_part,
    reduce_by_key,
    reduce_by_part,
)


def _nullable_dtype(arrow_type) -> str | None:
    """Pandas NULLABLE dtype matching an arrow type, so left-only columns
    can carry NA on right-side rows without changing the Arrow schema."""
    if pa.types.is_integer(arrow_type):
        return "Int64"
    if pa.types.is_floating(arrow_type):
        return "Float64"
    if pa.types.is_boolean(arrow_type):
        return "boolean"
    if pa.types.is_string(arrow_type) or pa.types.is_large_string(arrow_type):
        return "string"
    return None


def _merge_join(
    left_ds,
    right_ds,
    *,
    key_col: str,
    ts_col: str,
    right_ts_col: str,
    end_col: str | None,
    right_value_cols: list[str],
    num_partitions: int | None,
    op_name: str,
):
    """Shared tagged-union merge core of asof_join / interval_join.
    ``end_col=None`` means no containment check (pure backward as-of);
    otherwise the matched interval must still cover the left timestamp,
    and the matched start/end bounds are emitted as float columns."""
    num_partitions = num_partitions or auto_shuffle_partitions()
    schema = left_ds.schema()
    left_payload = [n for n in schema.names if n not in (key_col, ts_col)]
    payload_dtypes = {}
    for n, t in zip(schema.names, schema.types):
        if n in (key_col, ts_col):
            continue
        d = _nullable_dtype(t)
        if d is None:
            raise TypeError(
                f"{op_name} left column {n!r} has unsupported type {t} — "
                "int/float/bool/string payloads only"
            )
        payload_dtypes[n] = d
    carried = [c for c in right_value_cols if c != end_col]
    cols = [key_col, ts_col, "_side", "_end"] + left_payload + carried

    def tag_left(batch: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                key_col: batch[key_col].to_numpy(dtype=np.int64),
                ts_col: batch[ts_col].to_numpy(dtype=np.int64),
                "_side": np.zeros(len(batch), dtype=np.int8),
                "_end": np.zeros(len(batch), dtype=np.int64),
            }
        )
        for c in left_payload:
            out[c] = batch[c].astype(payload_dtypes[c])
        for c in carried:
            out[c] = np.full(len(batch), np.nan)
        return out[cols]

    def tag_right(batch: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                key_col: batch[key_col].to_numpy(dtype=np.int64),
                ts_col: batch[right_ts_col].to_numpy(dtype=np.int64),
                "_side": np.ones(len(batch), dtype=np.int8),
                "_end": (
                    batch[end_col].to_numpy(dtype=np.int64)
                    if end_col is not None
                    else np.zeros(len(batch), dtype=np.int64)
                ),
            }
        )
        for c in left_payload:
            out[c] = pd.array([pd.NA] * len(batch), dtype=payload_dtypes[c])
        for c in carried:
            out[c] = batch[c].to_numpy(dtype=np.float64)
        return out[cols]

    left_t = left_ds.map_batches(tag_left, batch_format="pandas", batch_size=None)
    right_t = right_ds.map_batches(
        tag_right, batch_format="pandas", batch_size=None
    )

    def merge_partition(grp: pd.DataFrame) -> pd.DataFrame:
        side = grp["_side"].to_numpy()
        k = grp[key_col].to_numpy(dtype=np.int64)
        t = grp[ts_col].to_numpy(dtype=np.int64)
        ends = grp["_end"].to_numpy(dtype=np.int64)
        is_r = side == 1
        dt = np.dtype([("k", np.int64), ("t", np.int64)])
        rs = np.empty(int(is_r.sum()), dtype=dt)
        rs["k"], rs["t"] = k[is_r], t[is_r]
        order_r = np.argsort(rs, kind="stable")
        rs = rs[order_r]
        r_end = ends[is_r][order_r]
        ls = np.empty(int((~is_r).sum()), dtype=dt)
        ls["k"], ls["t"] = k[~is_r], t[~is_r]
        # last right row with (k, t) <= left (k, t) lexicographically; a
        # hit on a smaller key means "no right row for this key yet".
        # A partition can hold zero right rows (keys with no right side).
        if rs.shape[0]:
            pos = np.searchsorted(rs, ls, side="right") - 1
            ok = pos >= 0
            safe = np.maximum(pos, 0)
            ok &= np.where(ok, rs["k"][safe] == ls["k"], False)
            if end_col is not None:
                # containment: the candidate interval must still cover ts
                ok &= np.where(ok, r_end[safe] >= ls["t"], False)
        else:
            pos = np.full(ls.shape[0], -1, dtype=np.int64)
            ok = np.zeros(ls.shape[0], dtype=bool)
        out = grp.loc[~is_r, [key_col, ts_col] + left_payload].copy()
        for c in carried:
            rv = grp[c].to_numpy(dtype=np.float64)[is_r][order_r]
            vals = np.full(ls.shape[0], np.nan)
            vals[ok] = rv[pos[ok]]
            out[c] = vals
        if end_col is not None:
            st = np.full(ls.shape[0], np.nan)
            en = np.full(ls.shape[0], np.nan)
            st[ok] = rs["t"][pos[ok]].astype(np.float64)
            en[ok] = r_end[pos[ok]].astype(np.float64)
            out[right_ts_col] = st
            out[end_col] = en
        return out

    tagged = left_t.union(right_t).map_batches(
        lambda b: hash_mod_part(b, [key_col], num_partitions),
        batch_format="pandas",
        batch_size=None,
    )
    return reduce_by_part(tagged, merge_partition, num_partitions, "pandas")


def asof_join(
    left_ds,
    right_ds,
    *,
    key_col: str,
    ts_col: str,
    right_value_cols: list[str],
    num_partitions: int | None = None,
):
    """Backward as-of join of two Datasets on ``key_col`` ordered by
    ``ts_col`` (both int64-comparable; cast timestamps to epoch integers
    upstream). Returns the left rows with ``right_value_cols`` attached
    (NA where the key has no right row at or before the left timestamp).
    Left payload columns must be int/float/bool/string (they travel as
    pandas nullable columns through the co-partitioning union)."""
    return _merge_join(
        left_ds,
        right_ds,
        key_col=key_col,
        ts_col=ts_col,
        right_ts_col=ts_col,
        end_col=None,
        right_value_cols=right_value_cols,
        num_partitions=num_partitions,
        op_name="asof_join",
    )


def interval_join(
    left_ds,
    intervals_ds,
    *,
    key_col: str,
    ts_col: str,
    start_col: str,
    end_col: str,
    right_value_cols: list[str],
    num_partitions: int | None = None,
):
    """Range join: attach to each left row the interval of the same key
    that CONTAINS its timestamp (``start <= ts <= end``, both int64),
    plus the matched interval's start/end bounds (float, NA when
    unmatched). Intervals must be NON-OVERLAPPING per key (session
    windows, retention tiers, validity ranges)."""
    return _merge_join(
        left_ds,
        intervals_ds,
        key_col=key_col,
        ts_col=ts_col,
        right_ts_col=start_col,
        end_col=end_col,
        right_value_cols=right_value_cols,
        num_partitions=num_partitions,
        op_name="interval_join",
    )


class _BroadcastMember:
    """Actor-pool stage for ``broadcast_semi_join``: fetches the key set
    once per actor, filters every batch with vectorized ``pc.is_in``."""

    def __init__(self, ref, left_on: str, anti: bool):
        import ray

        self._keys = ray.get(ref)
        self._left_on = left_on
        self._anti = anti

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keys = batch.column(self._left_on)
        if keys.type != self._keys.type:
            keys = pc.cast(keys, self._keys.type)
        mask = pc.is_in(keys, value_set=self._keys)
        if self._anti:
            # anti keeps non-members; a NULL key is "not in" any set
            mask = pc.if_else(pc.is_valid(mask), pc.invert(mask), True)
        else:
            mask = pc.fill_null(mask, False)
        return batch.filter(mask)


def broadcast_semi_join(
    left_ds,
    right,
    *,
    left_on: str,
    right_on: str | None = None,
    anti: bool = False,
    max_broadcast: int = 50_000_000,
    concurrency=(1, 8),
):
    """Semi join (``anti=False``: keep left rows whose key IS in the right
    key set) / anti join (``anti=True``: keep rows whose key is NOT) — the
    filter the dedup/curation pipelines need to apply a computed keep- or
    drop-list to the corpus WITHOUT a shuffle: only the key column of the
    right side ships (``ray.put`` once, read zero-copy per actor), the
    corpus streams through a pure ``map_batches`` filter.  Unlike
    :func:`broadcast_join`, duplicate right keys are fine (membership
    only).  ``right`` is a Dataset / pyarrow Table / pandas DataFrame.
    NULL left keys are dropped by semi (SQL ``IN`` semantics) and KEPT by
    anti — relational left-anti ("no match"), which is what a drop-list
    filter wants; note SQL ``NOT IN`` would instead drop them (oracle
    queries use ``key IS NULL OR key NOT IN (...)`` when keys can be
    null)."""
    import ray

    right_on = right_on or left_on
    if hasattr(right, "count") and hasattr(right, "take_all"):  # Dataset
        n = right.count()
        if n > max_broadcast:
            raise ValueError(
                f"broadcast key set has {n} rows > max_broadcast="
                f"{max_broadcast}; use a co-partitioned join instead"
            )
        right = pa.concat_tables(
            ray.get(right.select_columns([right_on]).to_arrow_refs()),
            promote_options="default",
        )
    elif isinstance(right, pd.DataFrame):
        right = pa.Table.from_pandas(right, preserve_index=False)
    if right.num_rows > max_broadcast:
        raise ValueError(
            f"broadcast key set has {right.num_rows} rows > max_broadcast="
            f"{max_broadcast}"
        )
    keys = right.column(right_on).combine_chunks().drop_null().unique()
    ref = ray.put(keys)
    return left_ds.map_batches(
        _BroadcastMember,
        fn_constructor_args=(ref, left_on, anti),
        batch_format="pyarrow",
        batch_size=None,
        concurrency=concurrency,
    )


class _BroadcastLookup:
    """Actor-pool stage for ``broadcast_join``: fetches the broadcast
    lookup table from the object store ONCE per actor (zero-copy Arrow),
    then joins every batch with vectorized ``pc.index_in`` + ``take``."""

    def __init__(self, ref, left_on: str, how: str):
        import ray

        self._keys, self._payload = ray.get(ref)
        self._left_on = left_on
        self._how = how

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keys = batch.column(self._left_on)
        if keys.type != self._keys.type:
            keys = pc.cast(keys, self._keys.type)
        idx = pc.index_in(keys, value_set=self._keys)
        if self._how == "inner":
            mask = idx.is_valid()
            batch = batch.filter(mask)
            idx = idx.filter(mask)
        # pc.take propagates null indices -> null payload rows (left join)
        cols = dict(zip(batch.column_names, batch.columns))
        for name in self._payload.column_names:
            cols[name] = self._payload.column(name).take(idx)
        return pa.table(cols)


def broadcast_join(
    left_ds,
    right,
    *,
    left_on: str,
    right_on: str | None = None,
    right_columns: list[str] | None = None,
    how: str = "inner",
    max_broadcast: int = 5_000_000,
    concurrency=(1, 8),
):
    """Equi-join a large Dataset against a SMALL dimension table without
    any shuffle: the right side is placed in the object store once
    (``ray.put``) and every map task reads it zero-copy — the canonical
    broadcast-hash-join shape for enrichment joins at 100-TB scale, where
    shuffling the fact table on the join key would be an all-to-all
    exchange for no reason.

    ``right`` is a pyarrow Table / pandas DataFrame, or a Dataset that is
    materialized on the driver under an explicit ``max_broadcast`` row
    bound (loud failure beyond it — at that size use a co-partitioned
    join instead). Right keys MUST be unique (dimension-table contract;
    checked) so the output is deterministic at any parallelism. ``how``
    is ``"inner"`` or ``"left"`` (missing keys -> null payload columns).
    The right key column itself is not emitted (it equals ``left_on`` on
    every matched row)."""
    import ray

    if how not in ("inner", "left"):
        raise ValueError(f"how must be 'inner' or 'left', got {how!r}")
    right_on = right_on or left_on
    if hasattr(right, "count") and hasattr(right, "take_all"):  # Dataset
        n = right.count()
        if n > max_broadcast:
            raise ValueError(
                f"broadcast side has {n} rows > max_broadcast="
                f"{max_broadcast}; use a co-partitioned join for large "
                "right sides"
            )
        right = pa.concat_tables(
            ray.get(right.to_arrow_refs()), promote_options="default"
        )
    elif isinstance(right, pd.DataFrame):
        right = pa.Table.from_pandas(right, preserve_index=False)
    if right.num_rows > max_broadcast:
        raise ValueError(
            f"broadcast side has {right.num_rows} rows > max_broadcast="
            f"{max_broadcast}"
        )
    right = right.combine_chunks()
    keys = right.column(right_on)
    if keys.null_count or len(keys.unique()) != right.num_rows:
        raise ValueError(
            f"broadcast_join right side must have unique non-null "
            f"{right_on!r} keys (dimension-table contract)"
        )
    payload_names = right_columns or [
        c for c in right.column_names if c != right_on
    ]
    overlap = set(payload_names) & set(left_ds.schema().names)
    if overlap:
        raise ValueError(f"column collision with left side: {sorted(overlap)}")
    ref = ray.put((keys, right.select(payload_names)))
    return left_ds.map_batches(
        _BroadcastLookup,
        fn_constructor_args=(ref, left_on, how),
        batch_format="pyarrow",
        batch_size=None,
        concurrency=concurrency,
    )


def table_diff(
    left_ds,
    right_ds,
    *,
    key_col: str,
    compare_cols,
    num_partitions: int | None = None,
    include_unchanged: bool = False,
):
    """Snapshot diff (CDC): compare two keyed table versions and emit
    what changed — ``status`` ∈ {'added', 'removed', 'changed'} (plus
    'unchanged' when ``include_unchanged``), with each compared column
    carried as ``l_<col>`` / ``r_<col>`` (NULL on the absent side).
    'changed' means ANY compare column differs under null-safe equality
    (SQL ``IS DISTINCT FROM``; NaN compares equal to NaN — pandas NA
    semantics, a documented divergence from SQL NaN-is-a-value).

    Keys must be UNIQUE and non-null per side — checked loudly per
    partition (the :func:`broadcast_join` determinism rule: duplicate
    keys would make the diff depend on arrival order). NULL-key rows
    are dropped before the check.

    Scale shape: ONE co-partitioning hash exchange of both sides
    (tagged union — neither table broadcasts or materializes), then a
    per-partition sort + searchsorted alignment over the key union; no
    driver traffic. The natural consumer is an incremental pipeline:
    feed the diff forward instead of reprocessing the full snapshot.
    """
    compare_cols = list(compare_cols)

    def tag(side: int):
        def f(b: pd.DataFrame) -> pd.DataFrame:
            b = b[[key_col, *compare_cols]].copy()
            b = b[b[key_col].notna()]
            b["_side"] = np.int8(side)
            return b

        return f

    tagged = left_ds.map_batches(
        tag(0), batch_format="pandas", batch_size=None
    ).union(
        right_ds.map_batches(tag(1), batch_format="pandas", batch_size=None)
    )

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        sides = []
        for s in (0, 1):
            part = g[g["_side"] == s]
            k = part[key_col].to_numpy()
            order = np.argsort(k, kind="stable")
            k = k[order]
            if k.size and (k[1:] == k[:-1]).any():
                raise ValueError(
                    f"table_diff: duplicate {key_col} on side "
                    f"{'left' if s == 0 else 'right'} — keys must be "
                    "unique per side for a deterministic diff"
                )
            sides.append((k, part, order))
        (lk, lpart, lo), (rk, rpart, ro) = sides
        all_k = np.union1d(lk, rk)
        m = all_k.size

        def locate(k_sorted, keys):
            pos = np.searchsorted(k_sorted, keys)
            safe = np.minimum(pos, max(k_sorted.size - 1, 0))
            present = (
                (pos < k_sorted.size) & (k_sorted[safe] == keys)
                if k_sorted.size
                else np.zeros(keys.size, dtype=bool)
            )
            return safe, present

        li, in_l = locate(lk, all_k)
        ri, in_r = locate(rk, all_k)
        changed = np.zeros(m, dtype=bool)
        out = {key_col: all_k}
        for c in compare_cols:
            lvals = lpart[c].to_numpy()[lo] if lk.size else lpart[c].to_numpy()
            rvals = rpart[c].to_numpy()[ro] if rk.size else rpart[c].to_numpy()
            lcol = np.empty(m, dtype=object)
            rcol = np.empty(m, dtype=object)
            lcol[:] = None
            rcol[:] = None
            if lk.size:
                lcol[in_l] = lvals[li[in_l]]
            if rk.size:
                rcol[in_r] = rvals[ri[in_r]]
            lna = pd.isna(lcol)
            rna = pd.isna(rcol)
            both = in_l & in_r
            neq = both & (
                (lna != rna) | (~lna & ~rna & (lcol != rcol))
            )
            changed |= neq
            # preserve the source dtype through the nullable columns
            for name, colv, src in (
                (f"l_{c}", lcol, lpart[c]),
                (f"r_{c}", rcol, rpart[c]),
            ):
                kind = src.dtype.kind
                if kind in "iu":
                    out[name] = pd.array(colv, dtype="Int64")
                elif kind == "f":
                    out[name] = pd.array(colv, dtype="Float64")
                elif kind == "b":
                    out[name] = pd.array(colv, dtype="boolean")
                else:
                    out[name] = colv
        status = np.where(
            ~in_l,
            "added",
            np.where(~in_r, "removed", np.where(changed, "changed", "unchanged")),
        )
        df = pd.DataFrame(out)
        df.insert(1, "status", status)
        if not include_unchanged:
            df = df[df["status"] != "unchanged"]
        return df

    return reduce_by_key(tagged, key_col, per_partition, num_partitions, "pandas")
