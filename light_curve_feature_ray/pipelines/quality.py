"""Data-quality constraint validation — the dbt-test / Great-Expectations
analog for Ray Data pipelines: declarative rules over a Dataset, one
streaming pass, a tiny per-rule scorecard out.

Rule kinds (each a dict; ``name`` labels the output row):

- ``{"name", "kind": "not_null", "col"}`` — violation when col IS NULL
  (strictly NULL; float NaN is range-checkable, not a null).
- ``{"name", "kind": "range", "col", "lo", "hi"}`` — checked rows are
  non-null/non-NaN values; violation outside the CLOSED [lo, hi].
- ``{"name", "kind": "regex", "col", "pattern"}`` — checked rows are
  non-null strings; violation when the pattern does NOT match.  The
  pattern goes through :func:`..pipelines.text._polars_pattern` so the
  polars (Rust regex) evaluation stays byte-identical to DuckDB's RE2
  ``regexp_matches`` (the redact/token_count rule).
- ``{"name", "kind": "in_set", "col", "values"}`` — checked rows are
  non-null; violation when the value is not in ``values``.
- ``{"name", "kind": "unique", "col"}`` — checked rows are non-null;
  n_violations = n_checked - count(DISTINCT col) (all-but-first per
  duplicated value); min_violating_id is the min id over ALL rows whose
  value is duplicated (the SQL ``HAVING count(*) > 1`` semi-join —
  cheaper to mirror than "all but first" and equally deterministic).

Output: one row per rule — (rule, n_checked, n_violations,
min_violating_id) with min_violating_id NULL when there are none.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.exchange import auto_shuffle_partitions, reduce_by_part, with_part

_NO_ID = np.int64(2**62)  # the first_event_latency absent-side sentinel

_ROW_KINDS = ("not_null", "range", "regex", "in_set")


def _stats_table(names, checked, viol, min_ids) -> pa.Table:
    return pa.table(
        {
            "rule": pa.array(names, type=pa.string()),
            "n_checked": pa.array(
                np.asarray(checked, dtype=np.int64)
            ),
            "n_violations": pa.array(np.asarray(viol, dtype=np.int64)),
            "min_id": pa.array(np.asarray(min_ids, dtype=np.int64)),
        }
    )


def _min_id(ids: np.ndarray, mask: np.ndarray) -> np.int64:
    """Min id over masked rows, NaN-id rows ignored (SQL min skips
    NULLs); sentinel when none."""
    sel = ids[mask]
    sel = sel[~np.isnan(sel)]
    return np.int64(sel.min()) if sel.size else _NO_ID


def validate_constraints(
    ds,
    *,
    rules: list,
    id_col: str = "event_id",
):
    """Validate declarative quality ``rules`` over ``ds`` (module doc
    for the rule schema) and return the per-rule scorecard Dataset
    (rule, n_checked, n_violations, min_violating_id).

    Scale shape: row-local rules are ONE streaming vectorized pass
    emitting a 4-column partial row per (rule, block) — the combine is
    a rule-cardinality groupby (Sum, Sum, Min), nothing else moves.
    Each ``unique`` rule adds one value-cardinality exchange of
    (value, cnt, min_id) partials — the exact_dedup shape, pairs only,
    never data rows — whose grouped output reduces to the same 4-column
    partials and rides the SAME final groupby.  No driver collection at
    any size; min-id sampling is associative (min lattice), so the
    scorecard is partition-invariant.
    """
    import polars as pl

    from ray.data.aggregate import Min, Sum

    from .text import _polars_pattern

    if not rules:
        raise ValueError("rules must be a non-empty list")
    seen = set()
    for r in rules:
        kind = r.get("kind")
        if kind not in _ROW_KINDS + ("unique",):
            raise ValueError(f"unknown rule kind {kind!r} in {r}")
        name = r.get("name")
        if not name or name in seen:
            raise ValueError(f"rules need unique non-empty names: {r}")
        seen.add(name)
        if "col" not in r:
            raise ValueError(f"rule {name!r} needs a 'col'")
        if kind == "range" and not ("lo" in r and "hi" in r):
            raise ValueError(f"range rule {name!r} needs lo and hi")
        if kind == "regex" and "pattern" not in r:
            raise ValueError(f"regex rule {name!r} needs a pattern")
        if kind == "in_set" and not r.get("values"):
            raise ValueError(f"in_set rule {name!r} needs values")
    row_rules = [r for r in rules if r["kind"] != "unique"]
    uniq_rules = [r for r in rules if r["kind"] == "unique"]

    def row_partial(batch: pa.Table) -> pa.Table:
        ids = (
            batch[id_col]
            .cast(pa.float64())
            .to_numpy(zero_copy_only=False)
        )
        names, ncs, nvs, mids = [], [], [], []
        for r in row_rules:
            col = batch[r["col"]]
            kind = r["kind"]
            if kind == "not_null":
                checked = np.ones(batch.num_rows, dtype=bool)
                viol = pc.is_null(col).to_numpy(zero_copy_only=False)
            elif kind == "range":
                v = col.cast(pa.float64()).to_numpy(zero_copy_only=False)
                checked = ~np.isnan(v)
                with np.errstate(invalid="ignore"):
                    viol = checked & ((v < r["lo"]) | (v > r["hi"]))
            elif kind == "regex":
                s = pl.from_arrow(col).cast(pl.String)
                checked = s.is_not_null().to_numpy()
                m = s.str.contains(_polars_pattern(r["pattern"]))
                viol = checked & ~m.fill_null(True).to_numpy()
            else:  # in_set
                checked = pc.is_valid(col).to_numpy(zero_copy_only=False)
                hit = pc.is_in(
                    col, value_set=pa.array(list(r["values"]))
                ).to_numpy(zero_copy_only=False)
                viol = checked & ~hit
            names.append(r["name"])
            ncs.append(int(checked.sum()))
            nvs.append(int(viol.sum()))
            mids.append(_min_id(ids, viol))
        return _stats_table(names, ncs, nvs, mids)

    partials = []
    if row_rules:
        partials.append(
            ds.map_batches(
                row_partial, batch_format="pyarrow", batch_size=None
            )
        )

    for r in uniq_rules:
        col_name, rname = r["col"], r["name"]

        def uval_partial(
            batch: pa.Table, _c=col_name
        ) -> pa.Table:
            t = pa.table(
                {"val": batch[_c], "mid": batch[id_col].cast(pa.float64())}
            ).filter(pc.is_valid(batch[_c]))
            g = (
                pl.from_arrow(t)
                .group_by("val")
                .agg(
                    pl.len().alias("cnt"),
                    pl.col("mid").min().alias("mid"),
                )
            )
            return pa.table(
                {
                    "val": g["val"].to_arrow(),
                    "cnt": pa.array(g["cnt"].to_numpy().astype(np.int64)),
                    "mid": pa.array(
                        np.nan_to_num(
                            g["mid"].to_numpy(), nan=float(_NO_ID)
                        )
                    ),
                }
            )

        grouped = (
            ds.map_batches(
                uval_partial, batch_format="pyarrow", batch_size=None
            )
            .groupby("val")
            .aggregate(Sum("cnt"), Min("mid"))
        )

        def ustat(batch: pa.Table, _n=rname) -> pa.Table:
            cnt = (
                batch["sum(cnt)"]
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)
            )
            mid = batch["min(mid)"].to_numpy(zero_copy_only=False)
            dup = cnt > 1
            n_checked = int(cnt.sum())
            n_viol = int(cnt[dup].sum() - dup.sum())
            m = np.int64(mid[dup].min()) if dup.any() else _NO_ID
            return _stats_table([_n], [n_checked], [n_viol], [m])

        partials.append(
            grouped.map_batches(
                lambda b, _f=ustat: _f(b.drop_columns([c for c in ("part",) if c in b.column_names])),
                batch_format="pyarrow",
                batch_size=None,
            )
        )

    # one constant zero-row partial per rule (n_checked=0, n_violations=0,
    # min_id=_NO_ID): a `unique` rule over an all-NULL column (or an empty
    # dataset) yields an EMPTY grouped dataset, so no ustat partial is
    # emitted and the rule would silently vanish from the scorecard —
    # reading as "passed" rather than "checked nothing".  The twin's
    # UNION ALL arm always emits (rule, 0, 0, NULL); mirror it.  Zeros
    # are identities of the (Sum, Sum, Min) reduce, so this never changes
    # a non-empty rule's row.
    from ray.data import from_arrow

    n_rules = len(rules)
    partials.append(
        from_arrow(
            _stats_table(
                [r["name"] for r in rules],
                [0] * n_rules,
                [0] * n_rules,
                [_NO_ID] * n_rules,
            )
        )
    )

    combined = partials[0]
    for p in partials[1:]:
        combined = combined.union(p)

    agg = combined.groupby("rule").aggregate(
        Sum("n_checked"), Sum("n_violations"), Min("min_id")
    )

    def finish(t: pa.Table) -> pa.Table:
        mid = t["min(min_id)"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        return pa.table(
            {
                "rule": t["rule"],
                "n_checked": t["sum(n_checked)"],
                "n_violations": t["sum(n_violations)"],
                "min_violating_id": pa.array(
                    [None if v >= _NO_ID else int(v) for v in mid],
                    type=pa.int64(),
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", batch_size=None)


def profile_table(
    ds,
    *,
    columns: list[str],
    num_partitions: int | None = None,
):
    """Column-profile scorecard — the dbt-docs / Great-Expectations
    "profile" complement of :func:`validate_constraints`: one row per
    profiled column with (col, n_rows, n_nonnull, n_distinct, min_value,
    max_value, avg_value).  ``n_nonnull`` counts SQL-style non-NULL
    (float NaN IS a value); ``n_distinct`` is the EXACT distinct count
    of non-null values (count(DISTINCT col)); min/max/avg are DOUBLE
    stats over non-null non-NaN values of NUMERIC columns (the twin's
    ``CASE WHEN NOT isnan(...)`` guard — SQL min/max would otherwise
    sort NaN greatest) and NULL for non-numeric columns.

    Scale shape: two partial families ride ONE final col-cardinality
    groupby (the audience_overlap kind-tagged-partials pattern, no join,
    no materialization): (a) per-(col, block) numeric partials (n,
    nonnull, sum/min/max over clean values), and (b) distinct-count
    partials — block-local DISTINCT (col, value-as-string) pairs
    (Arrow's float->string cast is shortest-round-trip, hence injective)
    routed by hash(val) into an int32-keyed exchange (a (col, val)
    sorted groupby of a near-unique id column would shuffle-sort one
    pair per ROW), re-distincted per partition (exact: equal values
    co-locate), counted, and padded with the numeric identities (0 sums,
    ±inf min/max) so they sum into the same reduce.  No driver
    collection at any size.
    """
    from ray.data.aggregate import Max, Min, Sum

    if not columns:
        raise ValueError("columns must be a non-empty list")

    def num_partial(batch: pa.Table) -> pa.Table:
        names, ns, nn, s1, mins, maxs, cleans, isnum = (
            [], [], [], [], [], [], [], [],
        )
        for c in columns:
            col = batch[c]
            names.append(c)
            ns.append(batch.num_rows)
            nn.append(batch.num_rows - col.null_count)
            numeric = pa.types.is_integer(col.type) or pa.types.is_floating(
                col.type
            )
            isnum.append(numeric)
            if numeric:
                v = col.cast(pa.float64()).to_numpy(zero_copy_only=False)
                v = v[~np.isnan(v)]
                cleans.append(v.size)
                s1.append(float(v.sum()) if v.size else 0.0)
                mins.append(float(v.min()) if v.size else np.inf)
                maxs.append(float(v.max()) if v.size else -np.inf)
            else:
                cleans.append(0)
                s1.append(0.0)
                mins.append(np.inf)
                maxs.append(-np.inf)
        return pa.table(
            {
                "col": pa.array(names, type=pa.string()),
                "n": pa.array(np.asarray(ns, dtype=np.int64)),
                "nonnull": pa.array(np.asarray(nn, dtype=np.int64)),
                "clean": pa.array(np.asarray(cleans, dtype=np.int64)),
                "s1": pa.array(np.asarray(s1, dtype=np.float64)),
                "vmin": pa.array(np.asarray(mins, dtype=np.float64)),
                "vmax": pa.array(np.asarray(maxs, dtype=np.float64)),
                "isnum": pa.array(
                    np.asarray(isnum, dtype=np.int64)
                ),
                "nd": pa.array(np.zeros(len(names), dtype=np.int64)),
            }
        )

    nums = ds.map_batches(
        num_partial, batch_format="pyarrow", batch_size=None
    )

    dist_parts = num_partitions or auto_shuffle_partitions()

    def dist_pairs(batch: pa.Table) -> pa.Table:
        # a (col, val)-sorted groupby of near-unique columns (ids) would
        # shuffle-sort one pair per ROW; instead route pairs by
        # hash(val) so the exchange key is a small int32 — the same val
        # always lands in the same partition, so a per-partition unique
        # is globally exact
        parts = []
        for ci, c in enumerate(columns):
            col = batch[c].combine_chunks()
            col = col.filter(pc.is_valid(col))
            if pa.types.is_floating(col.type):
                # -0.0 + 0.0 == +0.0: SQL DISTINCT treats -0.0 = 0.0 but
                # the string cast would split them ("-0" vs "0"); NaNs
                # all cast to one "nan" token, matching SQL's
                # NaN-equals-NaN DISTINCT rule
                col = pc.add(col, 0.0)
            sv = pc.cast(col, pa.string())
            t = pa.table(
                {
                    "ci": pa.array(
                        np.full(len(sv), ci, dtype=np.int32),
                        type=pa.int32(),
                    ),
                    "val": sv,
                }
            ).group_by(["ci", "val"]).aggregate([])
            parts.append(with_part(t, "val", dist_parts))
        return pa.concat_tables(parts)

    def dist_count(t: pa.Table) -> pa.Table:
        # one partition group: re-distinct (ci, val) across blocks, then
        # count per column
        g = (
            t.select(["ci", "val"])
            .group_by(["ci", "val"])
            .aggregate([])
            .select(["ci"])
            .group_by("ci")
            .aggregate([([], "count_all")])
        )
        ci = g["ci"].to_numpy(zero_copy_only=False)
        k = len(ci)
        # padded to the numeric-partial schema with reduce identities so
        # both families sum through the SAME final groupby
        return pa.table(
            {
                "col": pa.array(
                    np.asarray(columns, dtype=object)[ci], type=pa.string()
                ),
                "n": pa.array(np.zeros(k, dtype=np.int64)),
                "nonnull": pa.array(np.zeros(k, dtype=np.int64)),
                "clean": pa.array(np.zeros(k, dtype=np.int64)),
                "s1": pa.array(np.zeros(k, dtype=np.float64)),
                "vmin": pa.array(np.full(k, np.inf)),
                "vmax": pa.array(np.full(k, -np.inf)),
                "isnum": pa.array(np.zeros(k, dtype=np.int64)),
                "nd": g["count_all"].cast(pa.int64()),
            }
        )

    dists = reduce_by_part(
        ds.map_batches(dist_pairs, batch_format="pyarrow", batch_size=None),
        dist_count,
        dist_parts,
        "pyarrow",
    )

    agg = nums.union(dists).groupby("col").aggregate(
        Sum("n"), Sum("nonnull"), Sum("clean"), Sum("s1"),
        Min("vmin"), Max("vmax"), Max("isnum"), Sum("nd"),
    )

    def finish(t: pa.Table) -> pa.Table:
        isnum = t["max(isnum)"].to_numpy(zero_copy_only=False) > 0
        clean = t["sum(clean)"].to_numpy(zero_copy_only=False)
        s1 = t["sum(s1)"].to_numpy(zero_copy_only=False)
        vmin = t["min(vmin)"].to_numpy(zero_copy_only=False)
        vmax = t["max(vmax)"].to_numpy(zero_copy_only=False)
        ok = isnum & (clean > 0)
        with np.errstate(invalid="ignore", divide="ignore"):
            avg = np.where(ok, s1 / clean, np.nan)
        nd = pc.fill_null(t["sum(nd)"], 0)
        return pa.table(
            {
                "col": t["col"],
                "n_rows": t["sum(n)"],
                "n_nonnull": t["sum(nonnull)"],
                "n_distinct": nd.cast(pa.int64()),
                "min_value": pa.array(np.where(ok, vmin, np.nan)),
                "max_value": pa.array(np.where(ok, vmax, np.nan)),
                "avg_value": pa.array(avg),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", batch_size=None)
