"""Round-5 fixes: constant-arm variance snapping (welch/autocorr), the
rolling-family NULL-key drops, and the validate_constraints always-emit
contract — each pinned against the actual oracle semantics the driver
testdata (null-free, variance-rich) can never exercise."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from light_curve_feature_ray.pipelines.aggregates import welch_t_ab
from light_curve_feature_ray.pipelines.quality import validate_constraints
from light_curve_feature_ray.pipelines.sampling import lehmer_hash
from light_curve_feature_ray.pipelines.windows import (
    lag_autocorr,
    rolling_agg,
    rolling_median,
)


def _parity_ids(n: int, want_even: bool, start: int = 100000) -> np.ndarray:
    ids = np.arange(start, start + 80 * n, dtype=np.int64)
    mask = lehmer_hash(ids) % 2 == (0 if want_even else 1)
    sel = ids[mask]
    assert sel.size >= n
    return sel[:n]


def test_welch_constant_arm_snaps_to_zero_variance(ray_session):
    # Arm values constant at 5.0 while the GLOBAL min anchor is 0.0:
    # the closed form (s2 - s1^2/n) over shifted values leaves ±1e-12
    # epsilon, which must snap to exactly 0 (arm min == max) so the
    # `pooled > 0` presence filter agrees with var_samp = 0.
    ia = _parity_ids(3, True)
    ib = _parity_ids(3, False)
    rows = []
    # key "anchor" pins the global min at 0.0 (both arms varying)
    rows += [
        ("anchor", int(i), float(v))
        for i, v in zip(_parity_ids(3, True, 500000), (0.0, 1.0, 2.0))
    ]
    rows += [
        ("anchor", int(i), float(v))
        for i, v in zip(_parity_ids(3, False, 900000), (0.5, 1.5, 2.5))
    ]
    # key "bothconst": BOTH arms constant at 5.0 -> pooled == 0 -> absent
    rows += [("bothconst", int(i), 5.0) for i in ia]
    rows += [("bothconst", int(i), 5.0) for i in ib]
    # key "oneconst": arm a constant 5.0, arm b varying -> present, and
    # t/df must match the var_samp twin where v_a is exactly 0
    rows += [("oneconst", int(i), 5.0) for i in _parity_ids(3, True, 1300000)]
    rows += [
        ("oneconst", int(i), float(v))
        for i, v in zip(_parity_ids(3, False, 1700000), (4.0, 5.0, 6.0))
    ]
    df = pd.DataFrame(rows, columns=["key", "id", "value"])

    out = (
        welch_t_ab(
            rd.from_pandas(df).repartition(4),
            key_col="key",
            value_col="value",
            id_col="id",
        )
        .to_pandas()
        .sort_values("key")
        .reset_index(drop=True)
    )
    assert "bothconst" not in set(out["key"])
    assert "oneconst" in set(out["key"])

    from light_curve_feature_ray.pipelines.sampling import lehmer_sql

    con = duckdb.connect()
    con.register("t", df)
    ref = con.execute(
        f"""
WITH s AS (
    SELECT key, value,
           CASE WHEN ({lehmer_sql("id")}) % 2 = 0 THEN 1 ELSE 0 END AS ia
    FROM t
), g AS (
    SELECT key,
           count(*) FILTER (WHERE ia = 1) AS n_a,
           count(*) FILTER (WHERE ia = 0) AS n_b,
           avg(value) FILTER (WHERE ia = 1) AS m_a,
           avg(value) FILTER (WHERE ia = 0) AS m_b,
           var_samp(value) FILTER (WHERE ia = 1) AS v_a,
           var_samp(value) FILTER (WHERE ia = 0) AS v_b
    FROM s GROUP BY key
)
SELECT key, n_a, n_b,
       (m_a - m_b) / sqrt(v_a / n_a + v_b / n_b) AS t_stat
FROM g
WHERE n_a >= 2 AND n_b >= 2 AND (v_a / n_a + v_b / n_b) > 0
ORDER BY key
"""
    ).df()
    assert list(out["key"]) == list(ref["key"])
    np.testing.assert_allclose(
        np.round(out["t_stat"].to_numpy(), 6),
        np.round(ref["t_stat"].to_numpy(), 6),
        atol=1.5e-6,
        rtol=0,
    )


def test_lag_autocorr_constant_y_side_dropped(ray_session):
    # key "cy": x varies (first pair value 7 anchors both sides) but the
    # y side is constant at 3 -> vy must snap to exactly 0 and the key
    # drop, matching DuckDB corr() = NULL on a zero-variance side.
    df = pd.DataFrame(
        {
            "event_id": np.arange(10, dtype=np.int64),
            "user_id": ["cy"] * 5 + ["ok"] * 5,
            "ts": pd.to_datetime(np.arange(10), unit="s"),
            "value": [7.0, 3.0, 3.0, 3.0, 3.0] + [1.0, 4.0, 2.0, 8.0, 5.0],
        }
    )
    out = (
        lag_autocorr(rd.from_pandas(df).repartition(3), lag=1)
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    assert "cy" not in set(out["user_id"])
    con = duckdb.connect()
    con.register("events", df)
    ref = con.execute(
        """
WITH p AS (
    SELECT user_id, value AS x,
           lead(value) OVER (PARTITION BY user_id
                             ORDER BY ts, event_id) AS y
    FROM events
)
SELECT user_id, corr(x, y) AS autocorr
FROM p WHERE y IS NOT NULL
GROUP BY user_id
HAVING corr(x, y) IS NOT NULL
ORDER BY user_id
"""
    ).df()
    assert list(out["user_id"]) == list(ref["user_id"]) == ["ok"]
    np.testing.assert_allclose(
        np.round(out["autocorr"].to_numpy(), 6),
        np.round(ref["autocorr"].to_numpy(), 6),
        atol=1.5e-6,
        rtol=0,
    )


def test_rolling_family_drops_null_keys(ray_session):
    # a None STRING key used to crash np.lexsort ('<' unsupported vs
    # NoneType); now the row drops, mirroring the twins' new
    # WHERE key IS NOT NULL filter
    df = pd.DataFrame(
        {
            "event_id": np.arange(6, dtype=np.int64),
            "user_id": ["a", None, "a", "b", None, "b"],
            "ts": pd.to_datetime(np.arange(6), unit="s"),
            "value": [1.0, 99.0, 2.0, 3.0, 88.0, 4.0],
        }
    )
    ds = rd.from_pandas(df).repartition(2)
    med = rolling_median(ds, k=3, num_partitions=4).to_pandas()
    assert len(med) == 4 and med["user_id"].notna().all()
    rag = rolling_agg(ds, k=3, num_partitions=4).to_pandas()
    assert len(rag) == 4 and rag["user_id"].notna().all()
    # NaN NUMERIC keys drop too (each NaN would otherwise become its own
    # segment vs SQL's single NULL partition)
    dfn = df.assign(user_id=[1.0, np.nan, 1.0, 2.0, np.nan, 2.0])
    medn = rolling_median(
        rd.from_pandas(dfn).repartition(2), k=3, num_partitions=4
    ).to_pandas()
    assert len(medn) == 4

    con = duckdb.connect()
    con.register("events", df)
    ref = con.execute(
        """
SELECT event_id, median(value) OVER w AS rolling_median
FROM events
WHERE ts IS NOT NULL AND user_id IS NOT NULL
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
ORDER BY event_id
"""
    ).df()
    got = med.sort_values("event_id").reset_index(drop=True)
    np.testing.assert_array_equal(
        got["event_id"].to_numpy(), ref["event_id"].to_numpy()
    )
    np.testing.assert_array_equal(
        got["rolling_median"].to_numpy(), ref["rolling_median"].to_numpy()
    )


def test_validate_constraints_unique_all_null_still_emits(ray_session):
    # a `unique` rule over an all-NULL column yields an EMPTY grouped
    # dataset — the rule must still appear as (0, 0, NULL), not vanish
    # (vanishing reads as "passed" rather than "checked nothing")
    df = pd.DataFrame(
        {
            "event_id": np.arange(4, dtype=np.int64),
            "allnull": pd.array([None] * 4, dtype="Int64"),
            "v": [1.0, 2.0, 2.0, 3.0],
        }
    )
    out = validate_constraints(
        rd.from_pandas(df).repartition(2),
        rules=[
            {"name": "u_allnull", "kind": "unique", "col": "allnull"},
            {"name": "u_v", "kind": "unique", "col": "v"},
            {"name": "nn", "kind": "not_null", "col": "allnull"},
        ],
        id_col="event_id",
    ).to_pandas()
    out = out.set_index("rule")
    assert set(out.index) == {"u_allnull", "u_v", "nn"}
    assert out.loc["u_allnull", "n_checked"] == 0
    assert out.loc["u_allnull", "n_violations"] == 0
    assert pd.isna(out.loc["u_allnull", "min_violating_id"])
    assert out.loc["u_v", "n_checked"] == 4
    assert out.loc["u_v", "n_violations"] == 1
    assert out.loc["u_v", "min_violating_id"] == 1
    assert out.loc["nn", "n_violations"] == 4


def test_validate_constraints_empty_dataset_emits_all_rules(ray_session):
    df = pd.DataFrame(
        {
            "event_id": pd.array([], dtype="int64"),
            "v": pd.array([], dtype="float64"),
        }
    )
    out = validate_constraints(
        rd.from_pandas(df),
        rules=[
            {"name": "r1", "kind": "range", "col": "v", "lo": 0, "hi": 1},
            {"name": "u1", "kind": "unique", "col": "v"},
        ],
        id_col="event_id",
    ).to_pandas()
    assert set(out["rule"]) == {"r1", "u1"}
    assert (out["n_checked"] == 0).all()
    assert (out["n_violations"] == 0).all()
    assert out["min_violating_id"].isna().all()


def test_semantic_dedup_within_cell_bruteforce_parity(ray_session):
    # the within-cell prune must be EXACTLY the naive all-pairs rule
    # over the same cells: mark i a duplicate of the smallest-id j < i
    # in its cell with cosine >= threshold (the kcenter driver-vs-rounds
    # parity pattern, applied to semantic_dedup's non-SQL core)
    from light_curve_feature_ray.pipelines.similarity import semantic_dedup

    rng = np.random.default_rng(23)
    # moderate dimension + a LOW threshold so random vectors produce a
    # healthy mix of dups and keepers inside cells
    vecs = rng.normal(size=(300, 8))
    df = pd.DataFrame(
        {
            "vec_id": np.arange(len(vecs), dtype=np.int64),
            "embedding": [v.astype(np.float32) for v in vecs],
        }
    )
    threshold = 0.6
    out = (
        semantic_dedup(
            rd.from_pandas(df).repartition(5),
            threshold=threshold,
            n_centroids=6,
            seed=9,
        )
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    assert len(out) == len(vecs)
    # some dups and some keepers, or the test proves nothing
    assert 0 < int(out["keep"].sum()) < len(vecs)

    # naive recomputation over the SAME cell assignment (float32-rounded
    # vectors normalized in float64, matching the kernel's _normalize)
    mat = np.stack([v.astype(np.float32).astype(np.float64) for v in vecs])
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    for cell, grp in out.groupby("cell"):
        ids = grp["vec_id"].to_numpy()
        assert list(ids) == sorted(ids)
        sub = mat[ids]
        cos = sub @ sub.T
        for i in range(len(ids)):
            below = np.flatnonzero(cos[i, :i] >= threshold)
            if below.size:
                assert not bool(grp["keep"].iloc[i]), (cell, ids[i])
                assert int(grp["rep_id"].iloc[i]) == int(ids[below[0]])
            else:
                assert bool(grp["keep"].iloc[i]), (cell, ids[i])
                assert int(grp["rep_id"].iloc[i]) == int(ids[i])


def test_group_collect_matches_string_agg(ray_session):
    from light_curve_feature_ray.pipelines.aggregates import group_collect

    rng = np.random.default_rng(31)
    n = 400
    df = pd.DataFrame(
        {
            "conv_id": rng.choice(["a", "b", "c", "dup"], n),
            "turn_idx": rng.integers(0, 50, n),  # deliberate duplicates
            "text": rng.choice(["x", "yy", "zzz", None], n),
        }
    )
    df.loc[3, "conv_id"] = None
    # one key whose every value is NULL -> doc NULL, n_values 0
    allnull = pd.DataFrame(
        {"conv_id": ["nul"] * 3, "turn_idx": [0, 1, 2], "text": [None] * 3}
    )
    df = pd.concat([df, allnull], ignore_index=True)

    outs = []
    for parts, nparts in ((2, 4), (7, 11)):
        o = (
            group_collect(
                rd.from_pandas(df).repartition(parts),
                key_col="conv_id",
                order_cols=("turn_idx",),
                value_col="text",
                sep="\n",
                num_partitions=nparts,
            )
            .to_pandas()
            .sort_values("conv_id")
            .reset_index(drop=True)
        )
        outs.append(o)
    pd.testing.assert_frame_equal(outs[0], outs[1])  # layout-invariant

    con = duckdb.connect()
    con.register("t", df)
    ref = con.execute(
        """
SELECT conv_id, count(text) AS n_values,
       string_agg(text, chr(10) ORDER BY turn_idx, text) AS doc
FROM t WHERE conv_id IS NOT NULL GROUP BY conv_id ORDER BY conv_id
"""
    ).df()
    got = outs[0]
    assert got["conv_id"].tolist() == ref["conv_id"].tolist()
    assert got["n_values"].tolist() == ref["n_values"].tolist()
    assert [x if isinstance(x, str) else None for x in got["doc"]] == [
        x if isinstance(x, str) else None for x in ref["doc"]
    ]
    assert got.loc[got["conv_id"] == "nul", "doc"].isna().all()


def test_gap_report_matches_sql_and_is_layout_invariant(ray_session):
    from light_curve_feature_ray.pipelines.windows import gap_report

    rng = np.random.default_rng(41)
    n = 500
    df = pd.DataFrame(
        {
            "user_id": rng.integers(1, 20, n),
            "ts": pd.to_datetime(
                rng.integers(0, 3600 * 6, n) * 1_000_000, unit="us"
            ),
        }
    )
    # single-slot key, null key, null ts
    extra = pd.DataFrame(
        {
            "user_id": pd.array([99, None, 5], dtype="Int64"),
            "ts": pd.to_datetime([7_000_000_000, 1, None], unit="us"),
        }
    )
    df = pd.concat([df, extra], ignore_index=True)

    outs = []
    for parts, nparts in ((2, 4), (9, 13)):
        o = (
            gap_report(
                rd.from_pandas(df).repartition(parts),
                slot_s=60,
                num_partitions=nparts,
            )
            .to_pandas()
            .sort_values("user_id")
            .reset_index(drop=True)
        )
        outs.append(o)
    pd.testing.assert_frame_equal(
        outs[0].astype({"user_id": "int64"}),
        outs[1].astype({"user_id": "int64"}),
    )

    con = duckdb.connect()
    con.register("events", df)
    ref = con.execute(
        """
WITH v AS (
    SELECT user_id, CAST(floor(epoch(ts)/60) AS BIGINT) AS slot
    FROM events WHERE ts IS NOT NULL AND user_id IS NOT NULL
), d AS (SELECT DISTINCT user_id, slot FROM v),
g AS (
    SELECT user_id, slot,
           slot - lag(slot) OVER (PARTITION BY user_id ORDER BY slot) - 1
               AS gap
    FROM d
)
SELECT user_id, count(*) AS n_present,
       max(slot) - min(slot) + 1 AS span_slots,
       max(slot) - min(slot) + 1 - count(*) AS n_missing,
       coalesce(max(gap), 0) AS longest_gap_slots
FROM g GROUP BY user_id ORDER BY user_id
"""
    ).df()
    got = outs[0]
    for c in ref.columns:
        np.testing.assert_array_equal(
            got[c].to_numpy().astype(np.int64),
            ref[c].to_numpy().astype(np.int64),
            err_msg=c,
        )
    # the single-slot key reports span 1, no gaps
    row = got[got["user_id"] == 99].iloc[0]
    assert (
        row["n_present"],
        row["span_slots"],
        row["n_missing"],
        row["longest_gap_slots"],
    ) == (1, 1, 0, 0)


def test_profile_table_matches_sql(ray_session):
    from light_curve_feature_ray.pipelines.quality import profile_table

    df = pd.DataFrame(
        {
            "i": pd.array([1, 2, 2, None, 5], dtype="Int64"),
            "f": [1.5, np.nan, -0.0, 0.0, 2.5],
            "s": ["x", "y", None, "x", "z"],
            "allnull": pd.array([None] * 5, dtype="Int64"),
        }
    )
    out = (
        profile_table(
            rd.from_pandas(df).repartition(3),
            columns=["i", "f", "s", "allnull"],
        )
        .to_pandas()
        .sort_values("col")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)

    def arm(c, numeric):
        if numeric:
            stats = f"""
           min(CASE WHEN NOT isnan(CAST({c} AS DOUBLE))
               THEN CAST({c} AS DOUBLE) END) AS min_value,
           max(CASE WHEN NOT isnan(CAST({c} AS DOUBLE))
               THEN CAST({c} AS DOUBLE) END) AS max_value,
           avg(CASE WHEN NOT isnan(CAST({c} AS DOUBLE))
               THEN CAST({c} AS DOUBLE) END) AS avg_value"""
        else:
            stats = """
           CAST(NULL AS DOUBLE) AS min_value,
           CAST(NULL AS DOUBLE) AS max_value,
           CAST(NULL AS DOUBLE) AS avg_value"""
        return f"""
    SELECT '{c}' AS col, count(*) AS n_rows, count({c}) AS n_nonnull,
           count(DISTINCT {c}) AS n_distinct,{stats}
    FROM t"""

    ref = (
        con.execute(
            " UNION ALL ".join(
                arm(c, n)
                for c, n in (
                    ("i", True),
                    ("f", True),
                    ("s", False),
                    ("allnull", True),
                )
            )
            + " ORDER BY col"
        )
        .df()
        .sort_values("col")
        .reset_index(drop=True)
    )
    assert out["col"].tolist() == ref["col"].tolist()
    for c in ("n_rows", "n_nonnull", "n_distinct"):
        np.testing.assert_array_equal(
            out[c].to_numpy().astype(np.int64),
            ref[c].to_numpy().astype(np.int64),
            err_msg=c,
        )
    for c in ("min_value", "max_value", "avg_value"):
        a = out[c].to_numpy()
        b = ref[c].to_numpy()
        both = np.isnan(a) & np.isnan(b)
        np.testing.assert_allclose(a[~both], b[~both], atol=1e-9, err_msg=c)
        assert np.isnan(a).sum() == np.isnan(b).sum(), c
    # the -0.0==0.0 DISTINCT rule: f arrives as {1.5, NULL, -0.0, 0.0,
    # 2.5} (the pandas->Arrow path maps NaN to NULL on BOTH sides) and
    # -0.0 collapses into 0.0 -> 3 distinct, matching SQL
    assert int(out.set_index("col").loc["f", "n_distinct"]) == 3
    # all-null column still appears with zero distinct
    assert int(out.set_index("col").loc["allnull", "n_distinct"]) == 0


def test_profile_table_parquet_nan_path(ray_session, tmp_path):
    # via parquet, NaN survives as a real DOUBLE value on BOTH sides:
    # it is non-null (counted), all NaNs are ONE distinct value (the
    # SQL NaN-equals-NaN rule), and min/max/avg exclude it (the isnan
    # guard on both sides)
    import pyarrow.parquet as pq

    from light_curve_feature_ray.pipelines.quality import profile_table

    t = pa.table(
        {
            "f": pa.array(
                [1.0, float("nan"), float("nan"), 3.0, None],
                type=pa.float64(),
            )
        }
    )
    path = str(tmp_path / "nan.parquet")
    pq.write_table(t, path)
    out = (
        profile_table(rd.read_parquet(path), columns=["f"])
        .to_pandas()
        .set_index("col")
    )
    con = duckdb.connect()
    ref = con.execute(
        f"""
SELECT count(*) AS n_rows, count(f) AS n_nonnull,
       count(DISTINCT f) AS n_distinct,
       min(CASE WHEN NOT isnan(f) THEN f END) AS min_value,
       max(CASE WHEN NOT isnan(f) THEN f END) AS max_value,
       avg(CASE WHEN NOT isnan(f) THEN f END) AS avg_value
FROM '{path}'
"""
    ).df().iloc[0]
    row = out.loc["f"]
    assert (row["n_rows"], row["n_nonnull"], row["n_distinct"]) == (
        ref["n_rows"],
        ref["n_nonnull"],
        ref["n_distinct"],
    ) == (5, 4, 3)
    for c in ("min_value", "max_value", "avg_value"):
        np.testing.assert_allclose(row[c], ref[c], atol=1e-12)


def test_profile_table_layout_invariance(ray_session):
    from light_curve_feature_ray.pipelines.quality import profile_table

    rng = np.random.default_rng(53)
    df = pd.DataFrame(
        {
            "a": rng.integers(0, 40, 300),
            "b": rng.normal(size=300).round(2),
        }
    )
    outs = []
    for parts, nparts in ((1, 4), (8, 11)):
        o = (
            profile_table(
                rd.from_pandas(df).repartition(parts),
                columns=["a", "b"],
                num_partitions=nparts,
            )
            .to_pandas()
            .sort_values("col")
            .reset_index(drop=True)
        )
        outs.append(o)
    pd.testing.assert_frame_equal(outs[0], outs[1])


def _string_agg(rows: list, sep: str) -> pd.DataFrame:
    """In-process ``string_agg(v, sep ORDER BY o, v)`` and ``count(v)``
    per non-NULL ``k`` over ``(k, o, v)`` rows, NULL values skipped and a
    key with no value given a NULL doc."""
    keys = sorted({k for k, _, _ in rows if k is not None})
    out = []
    for key in keys:
        vals = sorted((o, v) for k, o, v in rows if k == key and v is not None)
        out.append((key, len(vals), sep.join(v for _, v in vals) if vals else None))
    return pd.DataFrame(out, columns=["k", "n_values", "doc"])


def test_group_collect_matches_python_string_agg(ray_session):
    """group_collect equals an in-process string_agg at two block layouts
    and two part counts, with a block whose value column is null-typed
    (its key "b" also has values elsewhere, its key "n" none at all)."""
    from light_curve_feature_ray.pipelines.aggregates import group_collect

    rng = np.random.default_rng(61)
    n = 300
    typed = pa.table(
        {
            "k": rng.choice(["a", "b", "c", None], n).tolist(),
            "o": rng.integers(0, 40, n),
            "v": rng.choice(["xx", "yyy", None, "zzzz"], n).tolist(),
        }
    )
    nulls = pa.table(
        {
            "k": ["b", "n", "n", None],
            "o": np.array([3, 1, 2, 5], dtype=np.int64),
            "v": pa.nulls(4),
        }
    )
    assert pa.types.is_null(nulls.schema.field("v").type)
    rows = list(zip(*(typed[c].to_pylist() + nulls[c].to_pylist() for c in "kov")))
    want = _string_agg(rows, "\n")
    layouts = {
        "nulls_first": [nulls, typed],
        "nulls_between": [typed.slice(0, 100), nulls, typed.slice(100, 120), typed.slice(220)],
    }
    for name, blocks in layouts.items():
        for nparts in (3, 16):
            got = (
                group_collect(
                    rd.from_arrow(blocks),
                    key_col="k",
                    order_cols=("o",),
                    value_col="v",
                    sep="\n",
                    num_partitions=nparts,
                )
                .to_pandas()
                .sort_values("k")
                .reset_index(drop=True)
            )
            got["doc"] = [x if isinstance(x, str) else None for x in got["doc"]]
            pd.testing.assert_frame_equal(got, want, check_dtype=False, obj=f"{name} P={nparts}")


def test_gap_report_fuzz_vs_duckdb(ray_session):
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from light_curve_feature_ray.pipelines.windows import gap_report

    @settings(max_examples=6, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=5),  # key
                st.integers(min_value=0, max_value=900),  # seconds
            ),
            min_size=1,
            max_size=60,
        )
    )
    def run(rows):
        df = pd.DataFrame(
            {
                "user_id": [k for k, _ in rows],
                "ts": pd.to_datetime([s * 1_000_000 for _, s in rows], unit="us"),
            }
        )
        got = (
            gap_report(
                rd.from_pandas(df).repartition(2), slot_s=60, num_partitions=3
            )
            .to_pandas()
            .sort_values("user_id")
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("events", df)
        ref = con.execute(
            """
WITH v AS (
    SELECT user_id, CAST(floor(epoch(ts)/60) AS BIGINT) AS slot
    FROM events WHERE ts IS NOT NULL AND user_id IS NOT NULL
), d AS (SELECT DISTINCT user_id, slot FROM v),
g AS (
    SELECT user_id, slot,
           slot - lag(slot) OVER (PARTITION BY user_id ORDER BY slot) - 1
               AS gap
    FROM d
)
SELECT user_id, count(*) AS n_present,
       max(slot) - min(slot) + 1 AS span_slots,
       max(slot) - min(slot) + 1 - count(*) AS n_missing,
       coalesce(max(gap), 0) AS longest_gap_slots
FROM g GROUP BY user_id ORDER BY user_id
"""
        ).df()
        for c in ref.columns:
            np.testing.assert_array_equal(
                got[c].to_numpy().astype(np.int64),
                ref[c].to_numpy().astype(np.int64),
                err_msg=c,
            )

    run()


def test_group_collect_fuzz_vs_duckdb(ray_session):
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from light_curve_feature_ray.pipelines.aggregates import group_collect

    @settings(max_examples=6, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),  # key
                st.integers(min_value=0, max_value=8),  # order (dups likely)
                st.one_of(
                    st.none(), st.text(alphabet="xyz|", max_size=4)
                ),  # value
            ),
            min_size=1,
            max_size=50,
        )
    )
    def run(rows):
        df = pd.DataFrame(rows, columns=["k", "o", "v"])
        got = (
            group_collect(
                rd.from_pandas(df).repartition(3),
                key_col="k",
                order_cols=("o",),
                value_col="v",
                sep="\n",
                num_partitions=4,
            )
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", df)
        ref = con.execute(
            """
SELECT k, count(v) AS n_values,
       string_agg(v, chr(10) ORDER BY o, v) AS doc
FROM t WHERE k IS NOT NULL GROUP BY k ORDER BY k
"""
        ).df()
        assert got["k"].tolist() == ref["k"].tolist()
        assert got["n_values"].tolist() == ref["n_values"].tolist()
        assert [x if isinstance(x, str) else None for x in got["doc"]] == [
            x if isinstance(x, str) else None for x in ref["doc"]
        ]

    run()
