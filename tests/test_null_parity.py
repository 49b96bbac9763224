"""Null-input parity between operators and their driver SQL oracles.

The shipped testdata has no NULL values in events.value / lineitem /
embeddings, so the driver's oracle gate can't exercise null semantics.
These tests re-run the ACTUAL oracle SQL from __ray_entry__ over
synthetic null-bearing tables in DuckDB and compare against the
operators — pinning the ignore-nulls / drop-pair / skip-row contracts
the round-3 review flagged as latent divergences."""

import importlib.util

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def entry_mod():
    spec = importlib.util.spec_from_file_location(
        "entry_under_test", "__ray_entry__.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _round6(v):
    v = np.asarray(v, dtype=np.float64)
    out = np.copysign(np.floor(np.abs(v) * 1e6 + 0.5) / 1e6, v)
    return np.where(np.isnan(v), np.nan, out)


def _cmp_float(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    na, nb = np.isnan(a), np.isnan(b)
    assert (na == nb).all()
    np.testing.assert_allclose(a[~na], b[~nb], rtol=1e-9, atol=1e-9)


@pytest.fixture(scope="module")
def null_events():
    rng = np.random.default_rng(5)
    n = 200
    df = pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "user_id": rng.integers(0, 5, size=n).astype(np.int64),
            "value": rng.normal(scale=30, size=n),
        }
    )
    df.loc[df.index % 7 == 0, "value"] = np.nan  # ~14% nulls
    df.loc[df.user_id == 4, "value"] = np.nan  # one all-null user
    # the FIRST row of user 3 is null (poisons a naive recursion)
    first3 = df.index[df.user_id == 3][0]
    df.loc[first3, "value"] = np.nan
    df["ts"] = pd.to_datetime(
        np.sort(rng.integers(0, 10**9, size=n)) * 1000, unit="us"
    )
    return df[["event_id", "user_id", "ts", "value"]]


def test_ewma_oracle_null_parity(ray_session, entry_mod, null_events):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.windows import ewma

    got = (
        ewma(rd.from_pandas(null_events), alpha=entry_mod.EWMA_ALPHA)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("events", null_events)
    want = (
        con.execute(entry_mod.SQL_EVENTS_EWMA)
        .df()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    assert len(got) == len(want) == len(null_events)
    _cmp_float(_round6(got["ewma"]), want["ewma"])
    _cmp_float(_round6(got["value"]), want["value"])


def test_trend_oracle_null_parity(ray_session, entry_mod, null_events):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.aggregates import (
        group_linear_trend,
    )

    got = (
        group_linear_trend(
            rd.from_pandas(null_events[["user_id", "ts", "value"]])
        )
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("events", null_events)
    want = (
        con.execute(entry_mod.SQL_EVENTS_USER_TREND)
        .df()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    # the all-null user is absent on BOTH sides
    assert list(got["user_id"]) == list(want["user_id"])
    assert 4 not in set(got["user_id"])
    assert list(got["n"]) == list(want["n"])
    _cmp_float(_round6(got["slope"]), want["slope"])
    _cmp_float(_round6(got["intercept"]), want["intercept"])


def test_corr_oracle_null_parity(ray_session, entry_mod):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.aggregates import group_corr

    rng = np.random.default_rng(8)
    n = 150
    df = pd.DataFrame(
        {
            "l_returnflag": rng.choice(["A", "N", "R"], size=n),
            "l_quantity": rng.integers(1, 50, size=n).astype(np.float64),
        }
    )
    df["l_extendedprice"] = df["l_quantity"] * 1000 + rng.normal(
        scale=500, size=n
    )
    df.loc[df.index % 6 == 0, "l_extendedprice"] = np.nan
    df.loc[df.index % 11 == 0, "l_quantity"] = np.nan
    got = (
        group_corr(
            rd.from_pandas(df),
            key_col="l_returnflag",
            x_col="l_quantity",
            y_col="l_extendedprice",
        )
        .to_pandas()
        .sort_values("l_returnflag")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("lineitem", df)
    want = (
        con.execute(entry_mod.SQL_LINEITEM_CORR)
        .df()
        .sort_values("l_returnflag")
        .reset_index(drop=True)
    )
    assert list(got["l_returnflag"]) == list(want["l_returnflag"])
    assert list(got["n"]) == list(want["n"])
    _cmp_float(_round6(got["corr"]), want["corr"])


def test_group_centroid_null_and_fixed_size_list(ray_session):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.similarity import group_centroid

    rng = np.random.default_rng(4)
    emb = rng.normal(size=(40, 8)).astype(np.float32)
    labels = np.repeat(np.arange(4, dtype=np.int32), 10)
    lists = [None if i % 9 == 0 else list(row) for i, row in enumerate(emb)]
    for typ in (
        pa.list_(pa.float32()),
        pa.list_(pa.float32(), 8),  # fixed_size_list
    ):
        tbl = pa.table(
            {"label": pa.array(labels), "embedding": pa.array(lists, type=typ)}
        )
        got = (
            group_centroid(rd.from_arrow(tbl).repartition(3))
            .to_pandas()
            .sort_values(["label", "dim"])
            .reset_index(drop=True)
        )
        mask = np.array([v is not None for v in lists])
        for lab in range(4):
            sel = mask & (labels == lab)
            want = emb[sel].astype(np.float64).mean(axis=0)
            rows = got[got.label == lab]
            assert list(rows.n_vectors) == [int(sel.sum())] * 8
            np.testing.assert_allclose(
                rows.centroid.to_numpy(), want, rtol=1e-12
            )


def test_grouping_sets_null_keys(ray_session):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.aggregates import (
        grouping_sets_agg,
    )

    df = pd.DataFrame(
        {
            "a": ["x", None, "x", None, "None"],  # real nulls + the
            "value": [1.0, 2.0, 3.0, 4.0, 8.0],  # adversarial "None" str
        }
    )
    got = (
        grouping_sets_agg(rd.from_pandas(df), sets=[("a",), ()])
        .to_pandas()
        .sort_values(["grouping_id", "a"], na_position="last")
        .reset_index(drop=True)
    )
    sub = got[got.grouping_id == 0]
    # three groups at detail level: 'None' (the string), 'x', NULL
    assert len(sub) == 3
    bynull = sub[sub.a.isna()]
    assert len(bynull) == 1 and bynull.n.iloc[0] == 2
    assert bynull.sum_value.iloc[0] == pytest.approx(6.0)
    lit = sub[sub.a == "None"]
    assert len(lit) == 1 and lit.n.iloc[0] == 1  # NOT merged with nulls
    with pytest.raises(ValueError, match="duplicate grouping sets"):
        grouping_sets_agg(rd.from_pandas(df), sets=[("a",), ("a",)])


def test_trend_and_last_state_null_ts(ray_session, entry_mod):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.aggregates import (
        group_linear_trend,
        last_value_per_key,
    )

    df = pd.DataFrame(
        {
            "event_id": np.arange(6, dtype=np.int64),
            "user_id": [1, 1, 1, 2, 2, 2],
            "ts": pd.to_datetime(
                [1_000_000, 2_000_000, None, 5_000_000, None, 3_000_000],
                unit="us",
            ),
            "value": [1.0, 2.0, 99.0, 4.0, 88.0, 5.0],
        }
    )
    ds = rd.from_pandas(df)
    con = duckdb.connect()
    con.register("events", df)
    # trend: null-ts rows dropped from every sum on BOTH sides
    got = (
        group_linear_trend(ds.map_batches(lambda t: t.select(
            ["user_id", "ts", "value"]), batch_format="pyarrow",
            batch_size=None))
        .to_pandas().sort_values("user_id").reset_index(drop=True)
    )
    want = (
        con.execute(entry_mod.SQL_EVENTS_USER_TREND).df()
        .sort_values("user_id").reset_index(drop=True)
    )
    assert list(got["n"]) == list(want["n"])
    _cmp_float(_round6(got["slope"]), want["slope"])
    # last state: the null-ts row never wins
    got2 = (
        last_value_per_key(ds).to_pandas()
        .sort_values("user_id").reset_index(drop=True)
    )
    want2 = (
        con.execute(entry_mod.SQL_EVENTS_LAST_STATE).df()
        .sort_values("user_id").reset_index(drop=True)
    )
    assert list(got2["value"]) == list(want2["value"]) == [2.0, 4.0]


def test_null_key_rows_dropped_both_sides(ray_session, entry_mod):
    """NULL-KEY rows: the operators drop them (null keys can't ride the
    hash partitioner / crash np.unique), and the SQL twins carry the
    mirroring `key IS NOT NULL` — a null user_id/event_type must not
    produce an extra NULL-key group on the oracle side."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.aggregates import (
        group_corr,
        group_count_distinct,
        group_linear_trend,
        last_value_per_key,
    )

    df = pd.DataFrame(
        {
            "event_id": np.arange(8, dtype=np.int64),
            "user_id": pd.array(
                [1, 1, None, 2, 2, None, 1, 2], dtype="Int64"
            ),
            "event_type": ["a", "a", "a", None, "b", "b", "b", "b"],
            "ts": pd.to_datetime(
                np.arange(8, dtype=np.int64) * 1_000_000, unit="us"
            ),
            "value": [1.0, 2.0, 99.0, 4.0, 5.0, 88.0, 3.0, 6.0],
        }
    )
    ds = rd.from_pandas(df)
    con = duckdb.connect()
    con.register("events", df)

    # last_value_per_key: no NULL-key snapshot row on either side
    got = (
        last_value_per_key(ds)
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    want = (
        con.execute(entry_mod.SQL_EVENTS_LAST_STATE)
        .df()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    assert len(got) == len(want) == 2
    assert list(got["value"]) == list(want["value"])

    # count distinct: NULL event_type group absent on both sides
    got2 = (
        group_count_distinct(
            ds.select_columns(["event_type", "user_id"]),
            key_col="event_type",
            value_col="user_id",
        )
        .to_pandas()
        .sort_values("event_type")
        .reset_index(drop=True)
    )
    want2 = (
        con.execute(entry_mod.SQL_EVENTS_DISTINCT_USERS)
        .df()
        .sort_values("event_type")
        .reset_index(drop=True)
    )
    assert list(got2["event_type"]) == list(want2["event_type"]) == ["a", "b"]
    assert list(got2["n_distinct"]) == list(want2["n_distinct"])

    # trend: NULL-key rows dropped on BOTH sides (operator vs actual twin)
    t = (
        group_linear_trend(ds.select_columns(["user_id", "ts", "value"]))
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    want3 = (
        con.execute(entry_mod.SQL_EVENTS_USER_TREND)
        .df()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    assert list(t["user_id"]) == list(want3["user_id"]) == [1, 2]
    assert list(t["n"]) == list(want3["n"])
    _cmp_float(_round6(t["slope"]), want3["slope"])

    # corr: NULL-key rows dropped on BOTH sides (lineitem-shaped twin)
    li = pd.DataFrame(
        {
            "l_returnflag": ["A", "A", "A", None, "B", "B", "B"],
            "l_quantity": [1.0, 2.0, 3.0, 9.0, 4.0, 5.0, 7.0],
            "l_extendedprice": [10.0, 19.0, 31.0, 99.0, 42.0, 50.0, 71.0],
        }
    )
    con.register("lineitem", li)
    c = (
        group_corr(
            rd.from_pandas(li),
            key_col="l_returnflag",
            x_col="l_quantity",
            y_col="l_extendedprice",
        )
        .to_pandas()
        .sort_values("l_returnflag")
        .reset_index(drop=True)
    )
    want4 = (
        con.execute(entry_mod.SQL_LINEITEM_CORR)
        .df()
        .sort_values("l_returnflag")
        .reset_index(drop=True)
    )
    assert list(c["l_returnflag"]) == list(want4["l_returnflag"]) == ["A", "B"]
    _cmp_float(_round6(c["corr"]), want4["corr"])


def test_null_key_rows_dropped_by_keyed_exchange_ops(ray_session, entry_mod):
    """NULL-KEY rows drop in the operators whose drop runs inside their
    keyed exchange (top_k_per_group, grouped_quantile_cont/_disc,
    grouped_mad, table_diff), as the twins' ``key IS NOT NULL`` does."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.joins import table_diff
    from light_curve_feature_ray.pipelines.quantiles import (
        grouped_mad,
        grouped_quantile_cont,
        grouped_quantile_disc,
        mad_outliers,
    )
    from light_curve_feature_ray.pipelines.sampling import top_k_per_group

    df = pd.DataFrame(
        {
            "event_id": np.arange(8, dtype=np.int64),
            "user_id": pd.array([1, 1, None, 2, 2, None, 1, 2], dtype="Int64"),
            "event_type": ["a", "a", "a", None, "b", "b", "b", None],
            "value": [1.0, 2.0, 99.0, 4.0, 5.0, 88.0, 3.0, 6.0],
        }
    )
    ds = rd.from_pandas(df).repartition(3)
    con = duckdb.connect()
    con.register("events", df)

    got = top_k_per_group(
        ds, group_col="event_type", score_col="value", k=2, tiebreak_col="event_id"
    ).to_pandas()
    want = con.execute(
        """SELECT event_type, rk, event_id FROM (
               SELECT event_type, event_id, row_number() OVER (
                   PARTITION BY event_type ORDER BY value DESC, event_id) AS rk
               FROM events WHERE event_type IS NOT NULL) WHERE rk <= 2"""
    ).df()
    cols = ["event_type", "rk", "event_id"]
    assert sorted(map(tuple, got[cols].values.tolist())) == sorted(
        map(tuple, want[cols].values.tolist())
    )
    assert len(got) == 4

    qs = entry_mod.QUANTILE_QS
    for op, sql in (
        (grouped_quantile_cont, entry_mod.SQL_EVENTS_TYPE_QUANTILES),
        (grouped_quantile_disc, entry_mod.SQL_EVENTS_DISC_QUANTILES),
    ):
        got = op(ds, "event_type", "value", qs).to_pandas()
        got = got.sort_values(["event_type", "q"]).reset_index(drop=True)
        want = con.execute(sql).df().sort_values(["event_type", "q"])
        assert sorted(got["event_type"].unique()) == ["a", "b"]
        assert list(got["event_type"]) == list(want["event_type"])
        _cmp_float(_round6(got["value"]), want["value"].to_numpy())

    stats = grouped_mad(ds, "user_id", "value").to_pandas().sort_values("user_id")
    assert list(stats["user_id"]) == [1, 2]
    got = mad_outliers(ds, "user_id", "value", thresh=2.5).to_pandas()
    got = got.sort_values("event_id").reset_index(drop=True)
    want = con.execute(entry_mod.SQL_EVENTS_MAD_OUTLIERS).df().sort_values("event_id")
    assert list(got["event_id"]) == list(want["event_id"]) == [0, 1, 3, 4, 6, 7]
    assert list(got["is_outlier"]) == list(want["is_outlier"])
    _cmp_float(_round6(got["dev"]), want["dev"].to_numpy())

    left = pd.DataFrame(
        {"k": pd.array([1, None, 2, 3, None], dtype="Int64"), "x": [1.0, 5.0, 2.0, 3.0, 6.0]}
    )
    right = pd.DataFrame(
        {"k": pd.array([1, None, 3, 4], dtype="Int64"), "x": [1.0, 7.0, 30.0, 4.0]}
    )
    con.register("lt", left)
    con.register("rt", right)
    got = table_diff(
        rd.from_pandas(left), rd.from_pandas(right), key_col="k", compare_cols=["x"]
    ).to_pandas()
    want = con.execute(
        """WITH l AS (SELECT k, x FROM lt WHERE k IS NOT NULL),
                r AS (SELECT k, x FROM rt WHERE k IS NOT NULL)
           SELECT coalesce(l.k, r.k) AS k,
                  CASE WHEN l.k IS NULL THEN 'added'
                       WHEN r.k IS NULL THEN 'removed'
                       ELSE 'changed' END AS status
           FROM l FULL OUTER JOIN r ON l.k = r.k
           WHERE l.k IS NULL OR r.k IS NULL OR l.x IS DISTINCT FROM r.x"""
    ).df()
    pairs = sorted(zip(got["k"].astype(int), got["status"]))
    assert pairs == sorted(zip(want["k"].astype(int), want["status"]))
    assert pairs == [(2, "removed"), (3, "changed"), (4, "added")]


def test_rolling_zscore_constant_window(ray_session):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.windows import rolling_zscore

    # constant non-dyadic values: textbook variance leaves a residue;
    # the operator must still report std == 0 -> NaN like stddev_samp
    df = pd.DataFrame(
        {
            "event_id": np.arange(8, dtype=np.int64),
            "user_id": [1] * 8,
            "ts": pd.to_datetime(np.arange(8) * 1_000_000, unit="us"),
            "value": [0.1] * 8,
        }
    )
    got = rolling_zscore(rd.from_pandas(df), k=4).to_pandas()
    assert np.isnan(got["zscore"]).all()


def test_json_extract_oracle_null_parity(ray_session, entry_mod):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.text import json_extract_fields

    df = pd.DataFrame(
        {
            "event_id": np.arange(5, dtype=np.int64),
            "props": [
                '{"k": 7}',
                '{"k": "abc"}',  # failed cast
                "garbage",  # malformed
                None,
                '{"x": 1}',  # missing path
            ],
        }
    )
    got = (
        json_extract_fields(
            rd.from_pandas(df), json_col="props",
            fields={"k": ("$.k", "int64")},
        )
        .to_pandas().sort_values("event_id").reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("events", df)
    want = (
        con.execute(entry_mod.SQL_EVENTS_JSON_PROPS).df()
        .sort_values("event_id").reset_index(drop=True)
    )
    assert got["k"].isna().tolist() == want["k"].isna().tolist()
    assert got["k"].iloc[0] == want["k"].iloc[0] == 7


def test_grouping_sets_int_key_block_invariance(ray_session):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.aggregates import (
        grouping_sets_agg,
    )

    # an int64 key column where ONE block holds the null row: the key
    # must stringify as '123' in every block (never the float-promoted
    # '123.0'), or groups split by block layout
    df = pd.DataFrame(
        {"k": pd.array([123, 123, None, 123], dtype="Int64"),
         "value": [1.0, 2.0, 4.0, 8.0]}
    )
    for parts in (1, 4):
        got = (
            grouping_sets_agg(
                rd.from_pandas(df).repartition(parts), sets=[("k",)]
            )
            .to_pandas()
            .sort_values("k", na_position="last")
            .reset_index(drop=True)
        )
        assert list(got["k"].fillna("<null>")) == ["123", "<null>"]
        assert list(got["n"]) == [3, 1]
        assert got["sum_value"].iloc[0] == pytest.approx(11.0)


def test_json_int64_strict_parse_oracle_parity(ray_session, entry_mod):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.text import json_extract_fields

    df = pd.DataFrame(
        {
            "event_id": np.arange(4, dtype=np.int64),
            "props": ['{"k": 1.5}', '{"k": 7}', '{"k": "007"}',
                      '{"k": "1e3"}'],
        }
    )
    got = (
        json_extract_fields(rd.from_pandas(df), json_col="props",
                            fields={"k": ("$.k", "int64")})
        .to_pandas().sort_values("event_id").reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("events", df)
    want = (
        con.execute(entry_mod.SQL_EVENTS_JSON_PROPS).df()
        .sort_values("event_id").reset_index(drop=True)
    )
    # 1.5 and 1e3 are NULL on BOTH sides (strict integer parse); 7 and
    # '007' parse to 7
    assert got["k"].isna().tolist() == want["k"].isna().tolist() == [
        True, False, False, True
    ]
    assert list(got["k"].dropna()) == list(want["k"].dropna()) == [7, 7]


def test_window_family_drops_null_ts(ray_session, entry_mod):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.windows import (
        ewma,
        rolling_agg,
        running_agg,
        session_windows,
        sliding_window_agg,
        tumbling_window_agg,
    )

    df = pd.DataFrame(
        {
            "event_id": np.arange(6, dtype=np.int64),
            "user_id": [1, 1, 1, 2, 2, 2],
            "ts": pd.to_datetime(
                [1_000_000, None, 3_000_000, 5_000_000, None, 7_000_000],
                unit="us",
            ),
            "value": [1.0, 99.0, 2.0, 3.0, 88.0, 4.0],
        }
    )
    ds = rd.from_pandas(df)
    # null-ts rows vanish from every keyed window operator
    assert len(running_agg(ds).to_pandas()) == 4
    assert len(rolling_agg(ds, k=2).to_pandas()) == 4
    assert len(ewma(ds).to_pandas()) == 4
    assert tumbling_window_agg(ds).to_pandas()["n"].sum() == 4
    assert sliding_window_agg(ds).to_pandas()["n"].max() <= 2
    assert session_windows(ds).to_pandas()["n"].sum() == 4
    # running values are computed over the surviving rows only, matching
    # the SQL twin restricted to ts IS NOT NULL
    got = (
        running_agg(ds).to_pandas()
        .sort_values(["user_id", "t_us"]).reset_index(drop=True)
    )
    assert list(got["run_sum"]) == [1.0, 3.0, 3.0, 7.0]


def test_histogram_all_null_guard(ray_session):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.quantiles import histogram

    df = pd.DataFrame({"value": [np.nan, np.nan, np.nan]})
    with pytest.raises(ValueError, match="all-null"):
        histogram(rd.from_pandas(df), "value", bins=4)


def test_group_mode_oracle_null_parity(ray_session, entry_mod):
    """group_mode vs the ACTUAL SQL_EVENTS_MODE twin over a table with
    null keys, null values, and a genuine count tie (the tie must break
    to the lexicographically smallest value on both sides)."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.aggregates import group_mode

    df = pd.DataFrame(
        {
            "user_id": pd.array(
                [1, 1, 1, 2, 2, None, 3, 3, 2, 2], dtype="Int64"
            ),
            # user 2: 'a' x2 vs 'c' x2 -> tie, mode must be 'a'
            # user 3: only null values -> absent from output
            "event_type": [
                "b", "b", "a", "c", "a", "b", None, None, "a", "c",
            ],
        }
    )
    ds = rd.from_pandas(df)
    got = (
        group_mode(ds, key_col="user_id", value_col="event_type")
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("events", df)
    want = (
        con.execute(entry_mod.SQL_EVENTS_MODE)
        .df()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    assert list(got["user_id"]) == list(want["user_id"]) == [1, 2]
    assert list(got["mode_value"]) == list(want["mode_value"]) == ["b", "a"]
    assert list(got["mode_count"]) == list(want["mode_count"]) == [2, 2]
    assert list(got["n_values"]) == list(want["n_values"]) == [2, 2]


def test_dsir_weights_oracle_null_parity(ray_session, entry_mod):
    """dsir_weights vs the ACTUAL SQL_DOC_DSIR_WEIGHTS twin over a
    table with null text (counts as empty, weight 0.0) and null lang
    (not target). Also pins the naive-numpy value on a tiny corpus."""
    import math

    import ray.data as rd

    from light_curve_feature_ray.pipelines.text import dsir_weights

    df = pd.DataFrame(
        {
            "doc_id": np.arange(6, dtype=np.int64),
            "text": [
                "cat dog cat",
                "dog dog fish",
                None,
                "",
                "cat fish fish cat",
                "bird",
            ],
            "lang": ["en", "de", "en", None, "en", "de"],
        }
    )
    ds = rd.from_pandas(df)
    got = (
        dsir_weights(ds, target_col="lang", target_value="en")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", df)
    want = (
        con.execute(entry_mod.SQL_DOC_DSIR_WEIGHTS)
        .df()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(got["doc_id"]) == list(want["doc_id"])
    assert list(got["n_tokens"]) == list(want["n_tokens"])
    _cmp_float(_round6(got["log_importance"]), want["log_importance"])
    # null text weighs exactly 0.0 on both sides
    assert got.loc[2, "log_importance"] == 0.0
    assert got.loc[3, "log_importance"] == 0.0
    # naive check for doc 5 ("bird", non-target):
    # corpus: cat x4, dog x3, fish x3, bird x1 -> T_raw=11, V=4
    # target (en docs 0,2,4): cat x4, dog x1, fish x2 -> T_tgt=7
    lw_bird = math.log((0 + 1) / (7 + 4)) - math.log((1 + 1) / (11 + 4))
    assert abs(got.loc[5, "log_importance"] - lw_bird) < 1e-12
    # partition invariance
    again = (
        dsir_weights(
            rd.from_pandas(df).repartition(4),
            target_col="lang",
            target_value="en",
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    _cmp_float(got["log_importance"], again["log_importance"])


def test_funnel_and_state_intervals_null_parity(ray_session, entry_mod):
    """funnel_steps / state_intervals vs their ACTUAL SQL twins over a
    table with NULL ts and NULL user_id rows (both dropped on both
    sides), including an equal-timestamp step that must NOT count."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.windows import (
        funnel_steps,
        state_intervals,
    )

    t0 = pd.Timestamp("2024-03-01")
    df = pd.DataFrame(
        {
            "event_id": np.arange(10, dtype=np.int64),
            "user_id": pd.array(
                [1, 1, 1, None, 2, 2, 2, 3, 3, 1], dtype="Int64"
            ),
            "ts": [
                t0,
                t0 + pd.Timedelta(seconds=1),
                None,  # null ts dropped
                t0,
                t0 + pd.Timedelta(seconds=2),
                t0 + pd.Timedelta(seconds=2),  # same-instant tie
                t0 + pd.Timedelta(seconds=9),
                None,  # user 3 has ONLY null-ts rows -> absent
                None,
                t0 + pd.Timedelta(seconds=4),
            ],
            "event_type": [
                "view", "click", "purchase", "view", "view", "click",
                "purchase", "view", "click", "purchase",
            ],
        }
    )
    # us resolution like the parquet testdata (an ns-typed ts column
    # would make the twin's 9999-12-31 coalesce overflow TIMESTAMP_NS)
    df["ts"] = df["ts"].astype("datetime64[us]")
    ds = rd.from_pandas(df)
    con = duckdb.connect()
    con.register("events", df)

    got_f = (
        funnel_steps(
            ds.map_batches(
                lambda b: b.select(["user_id", "ts", "event_type"]),
                batch_format="pyarrow",
            ),
            steps=("view", "click", "purchase"),
        )
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    want_f = (
        con.execute(entry_mod.SQL_EVENTS_FUNNEL)
        .df()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    assert list(got_f["user_id"]) == list(want_f["user_id"]) == [1, 2]
    for c in ("t1", "t2", "t3"):
        a, b = got_f[c], want_f[c]
        assert list(a.isna()) == list(b.isna())
        assert (a.dropna() == b.dropna()).all()
    # user 2: click at the SAME instant as view must not count -> 1 step
    assert list(got_f["steps_completed"]) == list(
        want_f["steps_completed"]
    ) == [3, 1]

    got_s = (
        state_intervals(ds)
        .to_pandas()
        .sort_values(["user_id", "valid_from", "event_id"])
        .reset_index(drop=True)
    )
    want_s = (
        con.execute(entry_mod.SQL_EVENTS_STATE_INTERVALS)
        .df()
        .sort_values(["user_id", "valid_from", "event_id"])
        .reset_index(drop=True)
    )
    assert len(got_s) == len(want_s) == 6
    assert list(got_s["event_id"]) == list(want_s["event_id"])
    assert list(got_s["state"]) == list(want_s["state"])
    assert list(got_s["is_current"]) == list(want_s["is_current"])
    assert (
        got_s["valid_to"].astype("datetime64[us]")
        == want_s["valid_to"].astype("datetime64[us]")
    ).all()
    # open intervals carry the SCD-2 high date on both sides
    assert (
        got_s.loc[got_s["is_current"], "valid_to"]
        == pd.Timestamp("9999-12-31")
    ).all()
