"""Round-4 batch-5 operators: time-weighted average and per-event lag
deltas.

Contracts pinned here (the driver testdata can't exercise them):
- NULL key / ts / value rows drop on both sides, verified against the
  ACTUAL oracle SQL from __ray_entry__ over a synthetic null-bearing
  table;
- the TWA weighting matches a per-key brute force (holding time to the
  key's next event; the last event contributes nothing);
- keys whose events all share one timestamp are absent from TWA
  (zero total duration), single-event keys are absent from both;
- duplicate timestamps order by event_id and contribute d = 0;
- output is invariant to the shuffle partition count.
"""

import importlib.util

import duckdb
import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="module")
def entry_mod():
    spec = importlib.util.spec_from_file_location(
        "entry_under_test_r4b5", "__ray_entry__.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _round6(v):
    v = np.asarray(v, dtype=np.float64)
    out = np.copysign(np.floor(np.abs(v) * 1e6 + 0.5) / 1e6, v)
    return np.where(np.isnan(v), np.nan, out)


@pytest.fixture(scope="module")
def twa_events():
    rng = np.random.default_rng(31)
    n = 300
    df = pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "user_id": rng.integers(0, 8, size=n).astype(np.int64),
            "value": rng.normal(scale=30, size=n),
        }
    )
    ts = np.sort(rng.integers(0, 10**9, size=n)).astype(np.int64)
    df["ts"] = pd.to_datetime(ts * 1_000_000, unit="us")
    # duplicate timestamp within a key (event_id tie-break, d = 0)
    df.loc[5, "user_id"] = df.loc[4, "user_id"]
    df.loc[5, "ts"] = df.loc[4, "ts"]
    # user 6: every event at ONE timestamp -> zero duration, absent
    df.loc[df.user_id == 6, "ts"] = pd.Timestamp("2001-01-01")
    # user 7 reduced to a single event -> absent from both operators
    df = df.drop(df.index[df.user_id == 7][1:])
    # nulls: key / value / ts
    df["user_id"] = df["user_id"].astype("Int64")
    df.loc[df.index[::23], "user_id"] = pd.NA
    df.loc[df.index[::29], "value"] = np.nan
    df.loc[df.index[::31], "ts"] = pd.NaT
    return df.reset_index(drop=True)


def test_twa_null_parity_vs_twin(ray_session, entry_mod, twa_events):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.windows import time_weighted_avg

    got = (
        time_weighted_avg(rd.from_pandas(twa_events), num_partitions=5)
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("events", twa_events)
    want = (
        con.execute(entry_mod.SQL_EVENTS_TWA)
        .df()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    assert (
        got["user_id"].astype(np.int64).tolist()
        == want["user_id"].astype(np.int64).tolist()
    )
    np.testing.assert_allclose(
        _round6(got["twa"]), want["twa"].to_numpy(), atol=1e-9
    )
    assert (
        got["duration_us"].astype(np.int64).tolist()
        == want["duration_us"].astype(np.int64).tolist()
    )
    assert (
        got["n_holds"].astype(np.int64).tolist()
        == want["n_holds"].astype(np.int64).tolist()
    )
    # the all-one-timestamp key and the single-event key are absent
    assert 6 not in set(got["user_id"].astype(np.int64))
    assert 7 not in set(got["user_id"].astype(np.int64))


def test_twa_brute_force(ray_session):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.windows import time_weighted_avg

    rng = np.random.default_rng(7)
    n = 120
    df = pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "user_id": rng.integers(0, 4, size=n).astype(np.int64),
            "value": rng.normal(scale=30, size=n),
            "ts": pd.to_datetime(
                np.sort(rng.integers(0, 10**8, size=n)) * 1_000_000,
                unit="us",
            ),
        }
    )
    got = (
        time_weighted_avg(rd.from_pandas(df), num_partitions=3)
        .to_pandas()
        .set_index("user_id")
        .sort_index()
    )
    for uid, g in df.groupby("user_id"):
        g = g.sort_values(["ts", "event_id"])
        t = g["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        v = g["value"].to_numpy()
        d = np.diff(t)
        if d.sum() == 0:
            assert uid not in got.index
            continue
        want = float((v[:-1] * d).sum() / d.sum())
        assert got.loc[uid, "twa"] == pytest.approx(want, rel=1e-12)
        assert int(got.loc[uid, "duration_us"]) == int(t[-1] - t[0])
        assert int(got.loc[uid, "n_holds"]) == len(g) - 1


def test_lag_deltas_null_parity_vs_twin(ray_session, entry_mod, twa_events):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.windows import key_lag_deltas

    got = (
        key_lag_deltas(rd.from_pandas(twa_events), num_partitions=5)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("events", twa_events)
    want = (
        con.execute(entry_mod.SQL_EVENTS_LAG_DELTAS)
        .df()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    assert (
        got["event_id"].astype(np.int64).tolist()
        == want["event_id"].astype(np.int64).tolist()
    )
    assert (
        got["user_id"].astype(np.int64).tolist()
        == want["user_id"].astype(np.int64).tolist()
    )
    np.testing.assert_allclose(
        _round6(got["dv"]), want["dv"].to_numpy(), atol=1e-9
    )
    assert (
        got["dt_us"].astype(np.int64).tolist()
        == want["dt_us"].astype(np.int64).tolist()
    )


def test_lag_deltas_brute_force_and_first_absent(ray_session):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.windows import key_lag_deltas

    df = pd.DataFrame(
        {
            "event_id": np.array([0, 1, 2, 3, 4, 5], dtype=np.int64),
            "user_id": np.array([1, 1, 1, 2, 2, 3], dtype=np.int64),
            "value": np.array([10.0, 13.0, 11.5, 2.0, 7.0, 9.0]),
            "ts": pd.to_datetime(
                [100, 100, 250, 40, 90, 5], unit="s"
            ),
        }
    )
    got = (
        key_lag_deltas(rd.from_pandas(df), num_partitions=4)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    # events 0, 3, 5 are each key's first -> absent; duplicate-ts pair
    # (0, 1) orders by event_id so event 1 has dt 0 vs event 0
    assert got["event_id"].tolist() == [1, 2, 4]
    np.testing.assert_allclose(got["dv"].to_numpy(), [3.0, -1.5, 5.0])
    assert got["dt_us"].astype(np.int64).tolist() == [
        0,
        150_000_000,
        50_000_000,
    ]


def test_twa_lag_partition_invariance(ray_session, twa_events):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.windows import (
        key_lag_deltas,
        time_weighted_avg,
    )

    for op, sort_col in [
        (time_weighted_avg, "user_id"),
        (key_lag_deltas, "event_id"),
    ]:
        a = (
            op(rd.from_pandas(twa_events), num_partitions=3)
            .to_pandas()
            .sort_values(sort_col)
            .reset_index(drop=True)
        )
        b = (
            op(rd.from_pandas(twa_events), num_partitions=13)
            .to_pandas()
            .sort_values(sort_col)
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(a, b)


def _tri_df(pairs):
    a = np.array([p[0] for p in pairs], dtype=np.int64)
    b = np.array([p[1] for p in pairs], dtype=np.int64)
    return pd.DataFrame({"doc_a": a, "doc_b": b})


def test_triangle_counts_shapes(ray_session):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.graph import triangle_counts

    # K4 clique on {0,1,2,3}: every node degree 3, in C(3,2)=3 triangles;
    # chain 10-11-12: degrees 1,2,1, no triangles; one dangling edge
    k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    chain = [(10, 11), (11, 12)]
    extra = [(2, 20)]
    got = (
        triangle_counts(rd.from_pandas(_tri_df(k4 + chain + extra)))
        .to_pandas()
        .set_index("node")
        .sort_index()
    )
    assert got.loc[0:3, "n_triangles"].tolist() == [3, 3, 3, 3]
    assert got.loc[0:1, "degree"].tolist() == [3, 3]
    assert got.loc[2, "degree"] == 4  # + the dangling edge
    assert got.loc[[10, 11, 12], "n_triangles"].tolist() == [0, 0, 0]
    assert got.loc[[10, 11, 12], "degree"].tolist() == [1, 2, 1]
    assert got.loc[20, "degree"] == 1 and got.loc[20, "n_triangles"] == 0


def test_triangle_counts_dups_reversed_selfloops(ray_session):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.graph import triangle_counts

    # triangle {5,6,7} given with duplicates, reversed orientation and a
    # self-loop: must collapse to the simple graph
    pairs = [(5, 6), (6, 5), (6, 7), (5, 7), (7, 5), (6, 6), (5, 6)]
    got = (
        triangle_counts(rd.from_pandas(_tri_df(pairs)))
        .to_pandas()
        .set_index("node")
        .sort_index()
    )
    assert got["degree"].tolist() == [2, 2, 2]
    assert got["n_triangles"].tolist() == [1, 1, 1]


def test_triangle_counts_partition_invariance(ray_session):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.graph import triangle_counts

    rng = np.random.default_rng(11)
    a = rng.integers(0, 60, size=400).astype(np.int64)
    b = rng.integers(0, 60, size=400).astype(np.int64)
    df = pd.DataFrame({"doc_a": a, "doc_b": b})
    outs = []
    for p in (3, 17):
        outs.append(
            triangle_counts(rd.from_pandas(df), num_partitions=p)
            .to_pandas()
            .sort_values("node")
            .reset_index(drop=True)
        )
    pd.testing.assert_frame_equal(outs[0], outs[1])
    # cross-check against a brute-force O(n^3) count on the dense graph
    import itertools

    edges = {
        (min(x, y), max(x, y)) for x, y in zip(a, b) if x != y
    }
    nodes = sorted({n for e in edges for n in e})
    tri = {n: 0 for n in nodes}
    deg = {n: 0 for n in nodes}
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    for x, y, z in itertools.combinations(nodes, 3):
        if (
            (x, y) in edges
            and (y, z) in edges
            and (x, z) in edges
        ):
            tri[x] += 1
            tri[y] += 1
            tri[z] += 1
    got = outs[0].set_index("node")
    assert got["degree"].to_dict() == deg
    assert got["n_triangles"].to_dict() == tri


def _pr_brute(pairs, d=0.85, iters=3):
    edges = {(min(a, b), max(a, b)) for a, b in pairs if a != b}
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    nodes = sorted(adj)
    n = float(len(nodes))
    r = {x: 1.0 / n for x in nodes}
    for _ in range(iters):
        nr = {}
        for v in nodes:
            s = sum(r[u] / len(adj[u]) for u in adj[v])
            nr[v] = (1.0 - d) / n + d * s
        r = nr
    return r


def test_pagerank_brute_force_and_mass(ray_session):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.graph import pagerank_undirected

    rng = np.random.default_rng(3)
    a = rng.integers(0, 30, size=120).astype(np.int64)
    b = rng.integers(0, 30, size=120).astype(np.int64)
    df = pd.DataFrame({"doc_a": a, "doc_b": b})
    got = (
        pagerank_undirected(rd.from_pandas(df), iters=3)
        .to_pandas()
        .set_index("node")["pagerank"]
        .sort_index()
    )
    want = _pr_brute(zip(a, b))
    assert sorted(got.index) == sorted(want)
    for node, r in want.items():
        assert got[node] == pytest.approx(r, rel=1e-12), node
    # no dangling mass on the undirected doubling: total rank stays 1
    assert got.sum() == pytest.approx(1.0, abs=1e-9)


def test_pagerank_dups_selfloops_and_invariance(ray_session):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.graph import pagerank_undirected

    pairs = [(5, 6), (6, 5), (5, 6), (6, 7), (7, 7)]
    outs = []
    for p in (2, 9):
        outs.append(
            pagerank_undirected(
                rd.from_pandas(
                    pd.DataFrame(
                        {
                            "doc_a": [x for x, _ in pairs],
                            "doc_b": [y for _, y in pairs],
                        }
                    )
                ),
                num_partitions=p,
            )
            .to_pandas()
            .sort_values("node")
            .reset_index(drop=True)
        )
    pd.testing.assert_frame_equal(outs[0], outs[1])
    want = _pr_brute(pairs)
    got = outs[0].set_index("node")["pagerank"]
    for node, r in want.items():
        assert got[node] == pytest.approx(r, rel=1e-12)
    # path graph 5-6-7: the middle node dominates
    assert got[6] > got[5] == got[7]


def test_pagerank_empty_and_bad_iters(ray_session):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.graph import pagerank_undirected

    empty = pd.DataFrame(
        {
            "doc_a": pd.Series(dtype=np.int64),
            "doc_b": pd.Series(dtype=np.int64),
        }
    )
    assert pagerank_undirected(rd.from_pandas(empty)).count() == 0
    with pytest.raises(ValueError, match="iters"):
        pagerank_undirected(rd.from_pandas(empty), iters=0)


def test_grouped_quantile_disc_fuzz_vs_duckdb(ray_session):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.quantiles import (
        grouped_quantile_disc,
    )

    rng = np.random.default_rng(17)
    n = 600
    df = pd.DataFrame(
        {
            "event_type": rng.choice(["a", "b", "c", "d"], size=n),
            # heavy ties + NaN to stress the rank selection
            "value": np.round(rng.normal(scale=3, size=n), 1),
        }
    )
    df.loc[df.index[::19], "value"] = np.nan
    qs = [0.0, 0.1, 0.25, 0.5, 0.733, 0.9, 0.999, 1.0]
    got = (
        grouped_quantile_disc(
            rd.from_pandas(df), "event_type", "value", qs, num_partitions=5
        )
        .to_pandas()
        .sort_values(["event_type", "q"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("events", df)
    want = (
        con.execute(
            "\nUNION ALL\n".join(
                f"SELECT event_type, {q} AS q, quantile_disc(value, {q})"
                " AS value FROM events GROUP BY event_type"
                for q in qs
            )
        )
        .df()
        .sort_values(["event_type", "q"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want)
    # discontinuous: every selected value is an actual group member
    vals = {
        t: set(df.loc[df.event_type == t, "value"].dropna())
        for t in "abcd"
    }
    for _, r in got.iterrows():
        assert r["value"] in vals[r["event_type"]]


def test_group_entropy_hand_and_null_parity(ray_session, entry_mod):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.aggregates import group_entropy

    df = pd.DataFrame(
        {
            "user_id": pd.Series(
                [1, 1, 1, 1, 2, 2, 3, None, 4], dtype="Int64"
            ),
            "event_type": [
                "a", "b", "c", "d",  # uniform over 4 -> ln 4
                "x", "x",  # single cat -> exactly 0.0 (not -0.0)
                "y",
                "z",  # null key drops
                None,  # null cat drops -> user 4 absent
            ],
        }
    )
    got = (
        group_entropy(rd.from_pandas(df), num_partitions=3)
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    assert got["user_id"].astype(np.int64).tolist() == [1, 2, 3]
    assert got["n"].tolist() == [4, 2, 1]
    assert got["n_cats"].tolist() == [4, 1, 1]
    assert got.loc[0, "entropy"] == pytest.approx(np.log(4), rel=1e-12)
    assert got.loc[0, "hhi"] == pytest.approx(0.25, rel=1e-12)
    assert got.loc[1, "entropy"] == 0.0
    assert got.loc[1, "hhi"] == 1.0
    assert not np.signbit(got.loc[1, "entropy"])  # -0.0 normalized
    con = duckdb.connect()
    con.register("events", df)
    want = (
        con.execute(entry_mod.SQL_EVENTS_ENTROPY)
        .df()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    assert want["user_id"].astype(np.int64).tolist() == [1, 2, 3]
    np.testing.assert_allclose(
        _round6(got["entropy"]), want["entropy"].to_numpy(), atol=1e-9
    )
    np.testing.assert_allclose(
        _round6(got["hhi"]), want["hhi"].to_numpy(), atol=1e-9
    )


def test_group_entropy_partition_invariance(ray_session):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.aggregates import group_entropy

    rng = np.random.default_rng(29)
    df = pd.DataFrame(
        {
            "user_id": rng.integers(0, 40, size=500).astype(np.int64),
            "event_type": rng.choice(list("abcdefg"), size=500),
        }
    )
    outs = [
        group_entropy(rd.from_pandas(df), num_partitions=p)
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
        for p in (3, 11)
    ]
    pd.testing.assert_frame_equal(outs[0], outs[1])


def test_ngram_containment_planted_subset(ray_session):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.text import (
        ngram_containment_dups,
        ngram_jaccard_dups,
    )

    short = "the quick brown fox jumps over the lazy dog tonight"
    filler = " ".join(f"word{i} token{i*7%13} path{i%5}" for i in range(80))
    long_doc = filler + " " + short + " " + filler.replace("word", "item")
    other = "completely different content about ray data pipelines " * 6
    df = pd.DataFrame(
        {
            "doc_id": np.arange(3, dtype=np.int64),
            "text": [short, long_doc, other],
        }
    )
    cont = ngram_containment_dups(
        rd.from_pandas(df), k=5, threshold=0.9, max_df=100
    ).to_pandas()
    # the short doc's grams are fully inside the long one
    assert len(cont) == 1
    assert (cont.loc[0, "doc_a"], cont.loc[0, "doc_b"]) == (0, 1)
    assert cont.loc[0, "containment"] == pytest.approx(1.0)
    # ...which Jaccard at the same bar structurally misses
    jac = ngram_jaccard_dups(
        rd.from_pandas(df), k=5, threshold=0.9, max_df=100
    ).to_pandas()
    assert len(jac) == 0


def test_ngram_containment_partition_invariance(ray_session):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.text import (
        ngram_containment_dups,
    )

    rng = np.random.default_rng(41)
    vocab = [f"w{i}" for i in range(30)]
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(8, 40)))
        for _ in range(60)
    ]
    # plant a contained pair
    texts[7] = texts[3] + " " + " ".join(rng.choice(vocab, size=25))
    df = pd.DataFrame(
        {"doc_id": np.arange(len(texts), dtype=np.int64), "text": texts}
    )
    outs = [
        ngram_containment_dups(
            rd.from_pandas(df).repartition(p), k=5, threshold=0.5
        )
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
        for p in (1, 7)
    ]
    pd.testing.assert_frame_equal(outs[0], outs[1])
    assert ((outs[0]["doc_a"] == 3) & (outs[0]["doc_b"] == 7)).any()


def test_windowed_count_distinct_null_parity_and_invariance(
    ray_session, entry_mod, twa_events
):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.windows import (
        windowed_count_distinct,
    )

    # reuse the null-bearing fixture: event_type := a 3-way category,
    # user_id/ts nulls already planted
    df = twa_events.copy()
    df["event_type"] = np.where(
        np.arange(len(df)) % 3 == 0, "a",
        np.where(np.arange(len(df)) % 3 == 1, "b", None),
    )
    outs = []
    for p in (1, 6):
        outs.append(
            windowed_count_distinct(
                rd.from_pandas(df).repartition(p), window_s=3600
            )
            .to_pandas()
            .sort_values(["event_type", "window_start"])
            .reset_index(drop=True)
        )
    pd.testing.assert_frame_equal(outs[0], outs[1])
    con = duckdb.connect()
    con.register("events", df)
    want = (
        con.execute(entry_mod.SQL_EVENTS_WINDOWED_DISTINCT)
        .df()
        .sort_values(["event_type", "window_start"])
        .reset_index(drop=True)
    )
    got = outs[0]
    assert got["event_type"].tolist() == want["event_type"].tolist()
    assert (
        got["window_start"].astype(np.int64).tolist()
        == want["window_start"].astype(np.int64).tolist()
    )
    assert (
        got["n_distinct"].astype(np.int64).tolist()
        == want["n_distinct"].astype(np.int64).tolist()
    )


def test_table_diff_hand_example(ray_session):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.joins import table_diff

    left = pd.DataFrame(
        {
            "k": [1, 2, 3, 4, 6],
            "v": [10.0, 20.0, np.nan, 40.0, 60.0],
            "s": ["a", "b", "c", "d", "f"],
        }
    )
    right = pd.DataFrame(
        {
            "k": [2, 3, 4, 5, 6],
            "v": [20.0, np.nan, 41.0, 50.0, 60.0],
            "s": ["b", "c", "x", "e", "f"],
        }
    )
    got = (
        table_diff(
            rd.from_pandas(left),
            rd.from_pandas(right),
            key_col="k",
            compare_cols=["v", "s"],
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    # 1 removed; 2 unchanged (absent); 3 unchanged (NaN == NaN);
    # 4 changed (both cols); 5 added; 6 unchanged (absent)
    assert got["k"].tolist() == [1, 4, 5]
    assert got["status"].tolist() == ["removed", "changed", "added"]
    assert got.loc[1, "l_v"] == 40.0 and got.loc[1, "r_v"] == 41.0
    assert pd.isna(got.loc[2, "l_v"]) and got.loc[2, "r_v"] == 50.0
    # include_unchanged surfaces the other three
    all_rows = (
        table_diff(
            rd.from_pandas(left),
            rd.from_pandas(right),
            key_col="k",
            compare_cols=["v", "s"],
            include_unchanged=True,
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert all_rows["status"].tolist() == [
        "removed", "unchanged", "unchanged", "changed", "added",
        "unchanged",
    ]


def test_table_diff_duplicate_keys_raise(ray_session):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.joins import table_diff

    left = pd.DataFrame({"k": [1, 1], "v": [1.0, 2.0]})
    right = pd.DataFrame({"k": [1], "v": [1.0]})
    with pytest.raises(Exception, match="unique"):
        table_diff(
            rd.from_pandas(left),
            rd.from_pandas(right),
            key_col="k",
            compare_cols=["v"],
        ).to_pandas()


def test_table_diff_partition_invariance(ray_session):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.joins import table_diff

    rng = np.random.default_rng(13)
    lk = rng.permutation(400)[:300]
    rk = rng.permutation(400)[:300]
    left = pd.DataFrame(
        {"k": lk, "v": (lk % 17).astype("int64")}
    )
    right = pd.DataFrame(
        {"k": rk, "v": (rk % 19).astype("int64")}
    )
    outs = [
        table_diff(
            rd.from_pandas(left).repartition(rp),
            rd.from_pandas(right),
            key_col="k",
            compare_cols=["v"],
            num_partitions=p,
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
        for p, rp in ((3, 1), (13, 5))
    ]
    pd.testing.assert_frame_equal(outs[0], outs[1])
    # statuses reconcile with set arithmetic
    s = outs[0].set_index("k")["status"]
    assert (s == "added").sum() == len(set(rk) - set(lk))
    assert (s == "removed").sum() == len(set(lk) - set(rk))


def test_pagerank_driver_vs_distributed_parity(ray_session):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.graph import pagerank_undirected

    rng = np.random.default_rng(53)
    a = rng.integers(0, 80, size=300).astype(np.int64)
    b = rng.integers(0, 80, size=300).astype(np.int64)
    df = pd.DataFrame({"doc_a": a, "doc_b": b})
    outs = {}
    for method in ("driver", "distributed"):
        outs[method] = (
            pagerank_undirected(rd.from_pandas(df), method=method)
            .to_pandas()
            .sort_values("node")
            .reset_index(drop=True)
        )
    assert (
        outs["driver"]["node"].tolist()
        == outs["distributed"]["node"].tolist()
    )
    np.testing.assert_allclose(
        outs["driver"]["pagerank"].to_numpy(),
        outs["distributed"]["pagerank"].to_numpy(),
        rtol=1e-12,
    )


def test_table_diff_fuzz_vs_duckdb_full_outer(ray_session):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.joins import table_diff

    rng = np.random.default_rng(97)
    for trial in range(4):
        lk = rng.permutation(200)[: rng.integers(50, 150)]
        rk = rng.permutation(200)[: rng.integers(50, 150)]
        left = pd.DataFrame(
            {
                "k": lk,
                "v": np.where(
                    rng.random(lk.size) < 0.15,
                    np.nan,
                    (lk % 11).astype(np.float64),
                ),
                "s": np.array([f"s{x % 9}" for x in lk], dtype=object),
            }
        )
        right = pd.DataFrame(
            {
                "k": rk,
                "v": np.where(
                    rng.random(rk.size) < 0.15,
                    np.nan,
                    (rk % 13).astype(np.float64),
                ),
                "s": np.array([f"s{x % 7}" for x in rk], dtype=object),
            }
        )
        got = (
            table_diff(
                rd.from_pandas(left),
                rd.from_pandas(right),
                key_col="k",
                compare_cols=["v", "s"],
            )
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("l", left)
        con.register("r", right)
        # NaN==NaN on the operator side -> compare the twin under the
        # same convention by mapping NaN to a sentinel before the join
        want = (
            con.execute(
                """
            WITH lf AS (SELECT k, coalesce(v, 1e308) AS v, s FROM l),
                 rf AS (SELECT k, coalesce(v, 1e308) AS v, s FROM r)
            SELECT coalesce(lf.k, rf.k) AS k,
                   CASE WHEN lf.k IS NULL THEN 'added'
                        WHEN rf.k IS NULL THEN 'removed'
                        ELSE 'changed' END AS status
            FROM lf FULL OUTER JOIN rf ON lf.k = rf.k
            WHERE lf.k IS NULL OR rf.k IS NULL
               OR lf.v IS DISTINCT FROM rf.v
               OR lf.s IS DISTINCT FROM rf.s
            ORDER BY k
            """
            )
            .df()
            .reset_index(drop=True)
        )
        assert got["k"].astype(np.int64).tolist() == want["k"].tolist(), trial
        assert got["status"].tolist() == want["status"].tolist(), trial


def test_grouped_approx_quantiles_accuracy_and_twin(ray_session, entry_mod):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.quantiles import (
        grouped_approx_quantiles,
        grouped_quantile_cont,
    )

    rng = np.random.default_rng(61)
    n = 4000
    df = pd.DataFrame(
        {
            "event_type": rng.choice(["a", "b", "c"], size=n),
            "value": rng.normal(scale=30, size=n),
        }
    )
    # a constant group and null/NaN noise
    df.loc[df.index[:25], "event_type"] = "const"
    df.loc[df.index[:25], "value"] = 7.5
    df.loc[df.index[::31], "value"] = np.nan
    df.loc[df.index[::37], "event_type"] = None
    qs = (0.1, 0.5, 0.9)
    bins = 256
    got = (
        grouped_approx_quantiles(
            rd.from_pandas(df), "event_type", "value", qs, bins=bins
        )
        .to_pandas()
        .sort_values(["event_type", "q"])
        .reset_index(drop=True)
    )
    # twin parity over the null-bearing frame
    con = duckdb.connect()
    con.register("events", df)
    sql = entry_mod.SQL_EVENTS_GROUPED_APPROX.replace("512", str(bins))
    sql = sql.replace(
        entry_mod._GAPPROX_QROWS, ", ".join(f"({float(q)!r})" for q in qs)
    )
    want = (
        con.execute(sql)
        .df()
        .sort_values(["event_type", "q"])
        .reset_index(drop=True)
    )
    assert got["event_type"].tolist() == want["event_type"].tolist()
    np.testing.assert_allclose(
        _round6(got["value"]), want["value"].to_numpy(), atol=1e-9
    )
    # constant group emits lo for every q
    cg = got[got.event_type == "const"]
    assert cg["value"].tolist() == [7.5] * len(qs)
    # rank error bound vs exact: within (max-min)/bins per group
    exact = (
        grouped_quantile_cont(
            rd.from_pandas(df), "event_type", "value", qs
        )
        .to_pandas()
        .sort_values(["event_type", "q"])
        .reset_index(drop=True)
    )
    for t in ("a", "b", "c"):
        sub = df[(df.event_type == t) & df.value.notna()]["value"]
        width = (sub.max() - sub.min()) / bins
        ga = got[got.event_type == t]["value"].to_numpy()
        ex = exact[exact.event_type == t]["value"].to_numpy()
        assert (np.abs(ga - ex) <= 2 * width + 1e-9).all(), t


def test_grouped_approx_quantiles_partition_invariance(ray_session):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.quantiles import (
        grouped_approx_quantiles,
    )

    rng = np.random.default_rng(67)
    df = pd.DataFrame(
        {
            "event_type": rng.choice(list("pqrs"), size=900),
            "value": rng.normal(size=900),
        }
    )
    outs = [
        grouped_approx_quantiles(
            rd.from_pandas(df).repartition(rp),
            "event_type",
            "value",
            (0.25, 0.75),
            bins=128,
            num_partitions=p,
        )
        .to_pandas()
        .sort_values(["event_type", "q"])
        .reset_index(drop=True)
        for rp, p in ((1, 3), (6, 11))
    ]
    pd.testing.assert_frame_equal(outs[0], outs[1])


def test_resample_hand_example(ray_session):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.windows import resample_time_grid

    df = pd.DataFrame(
        {
            "event_id": np.arange(6, dtype=np.int64),
            "user_id": np.array([1, 1, 1, 1, 2, 3], dtype=np.int64),
            "value": [10.0, 99.0, 20.0, 40.0, 5.0, 8.0],
            "ts": pd.to_datetime([0, 0, 100, 200, 50, 75], unit="s"),
        }
    )
    got = (
        resample_time_grid(rd.from_pandas(df), step_s=50, num_partitions=3)
        .to_pandas()
        .sort_values(["user_id", "grid_ts"])
        .reset_index(drop=True)
    )
    u1 = got[got.user_id == 1]
    # grid anchored at first ts: 0, 50, 100, 150, 200
    assert (
        u1["grid_ts"].astype("datetime64[s]").astype("int64").tolist()
        == [0, 50, 100, 150, 200]
    )
    # duplicate (key, ts=0): min event_id (value 10.0) survives, 99 drops
    np.testing.assert_allclose(
        u1["value"].to_numpy(), [10.0, 15.0, 20.0, 30.0, 40.0]
    )
    # single-event keys emit exactly their one point
    assert got[got.user_id == 2]["value"].tolist() == [5.0]
    assert got[got.user_id == 3]["value"].tolist() == [8.0]


def test_resample_null_parity_and_invariance(
    ray_session, entry_mod, twa_events
):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.windows import resample_time_grid

    step = entry_mod.RESAMPLE_STEP_S
    outs = [
        resample_time_grid(
            rd.from_pandas(twa_events), step_s=step, num_partitions=p
        )
        .to_pandas()
        .sort_values(["user_id", "grid_ts"])
        .reset_index(drop=True)
        for p in (3, 13)
    ]
    pd.testing.assert_frame_equal(outs[0], outs[1])
    con = duckdb.connect()
    con.register("events", twa_events)
    want = (
        con.execute(entry_mod.SQL_EVENTS_RESAMPLE)
        .df()
        .sort_values(["user_id", "grid_ts"])
        .reset_index(drop=True)
    )
    got = outs[0]
    assert (
        got["user_id"].astype(np.int64).tolist()
        == want["user_id"].astype(np.int64).tolist()
    )
    assert (
        got["grid_ts"].astype("datetime64[us]").tolist()
        == want["grid_ts"].astype("datetime64[us]").tolist()
    )
    np.testing.assert_allclose(
        _round6(got["value"]), want["value"].to_numpy(), atol=1e-9
    )


def test_resample_points_bound(ray_session):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.windows import resample_time_grid

    df = pd.DataFrame(
        {
            "event_id": np.array([0, 1], dtype=np.int64),
            "user_id": np.array([1, 1], dtype=np.int64),
            "value": [1.0, 2.0],
            "ts": pd.to_datetime([0, 10**6], unit="s"),
        }
    )
    with pytest.raises(Exception, match="max_points_per_key"):
        resample_time_grid(
            rd.from_pandas(df), step_s=1, max_points_per_key=1000
        ).to_pandas()


def test_resample_wide_span_chunked_bands(ray_session):
    """Many maximal-span keys in ONE partition force the composite-band
    cumsum past 2^62 — the chunked searchsorted path must agree with a
    per-key brute force (the unchunked form would overflow int64)."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.windows import resample_time_grid

    nk = 40
    lo = np.datetime64("1970-01-03", "us").astype("int64")
    hi = np.datetime64("9999-01-01", "us").astype("int64")
    ts = np.empty(2 * nk, dtype=np.int64)
    ts[0::2] = lo + np.arange(nk)  # distinct firsts
    ts[1::2] = hi
    df = pd.DataFrame(
        {
            "event_id": np.arange(2 * nk, dtype=np.int64),
            "user_id": np.repeat(np.arange(nk, dtype=np.int64), 2),
            "value": np.tile([0.0, 100.0], nk),
            "ts": ts.view("datetime64[us]"),
        }
    )
    assert float(hi - lo) * nk > 2.0**63  # the int64-overflow regime
    step_s = (hi - lo) // 3 // 1_000_000
    got = (
        resample_time_grid(
            rd.from_pandas(df),
            step_s=int(step_s),
            num_partitions=1,
            max_points_per_key=10,
        )
        .to_pandas()
        .sort_values(["user_id", "grid_ts"])
        .reset_index(drop=True)
    )
    step_us = int(step_s) * 1_000_000
    for k in range(nk):
        sub = got[got.user_id == k]
        t0 = lo + k
        m = (hi - t0) // step_us + 1
        assert len(sub) == m, k
        g = sub["grid_ts"].astype("datetime64[us]").astype("int64").to_numpy()
        assert (g == t0 + np.arange(m) * step_us).all()
        want = (g - t0) / float(hi - t0) * 100.0
        np.testing.assert_allclose(sub["value"].to_numpy(), want, rtol=1e-12)


def test_write_dataset_partitioned_resume(ray_session, tmp_path):
    import os
    import ray.data as rd

    from light_curve_feature_ray.state.checkpoint import (
        completed_partitions,
        read_rollup_output,
        write_dataset_partitioned,
    )

    out = str(tmp_path / "sink")
    df = pd.DataFrame(
        {
            "doc_id": np.arange(500, dtype=np.int64),
            "v": np.arange(500, dtype=np.float64) * 0.5,
        }
    )
    r1 = write_dataset_partitioned(
        rd.from_pandas(df).repartition(4), out,
        key_col="doc_id", num_partitions=8,
    )
    assert r1["partitions_written"] == 8 and r1["partitions_skipped"] == 0
    assert r1["rows_written"] == 500
    back = (
        read_rollup_output(out)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(back, df)
    # simulate a torn run: remove two partitions' manifests + data
    import shutil

    for p in (1, 5):
        shutil.rmtree(os.path.join(out, f"part={p}"))
    assert len(completed_partitions(out)) == 6
    # record the surviving partitions' mtimes — a resume must not touch
    mtimes = {
        p: os.path.getmtime(os.path.join(out, f"part={p}", "data.parquet"))
        for p in completed_partitions(out)
    }
    r2 = write_dataset_partitioned(
        rd.from_pandas(df).repartition(3), out,
        key_col="doc_id", num_partitions=8,
    )
    assert r2["partitions_written"] == 2 and r2["partitions_skipped"] == 6
    for p, m in mtimes.items():
        assert (
            os.path.getmtime(os.path.join(out, f"part={p}", "data.parquet"))
            == m
        ), p
    back2 = (
        read_rollup_output(out)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(back2, df)
