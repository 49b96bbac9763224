"""``stages.exchange.reduce_by_part``: Ray Data's ``map_groups`` contract
over ``part`` on the routed exchange, with parts packed into reduce
tasks; ``with_part``'s input check; and ``hash_mod_part``'s spelling."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from light_curve_feature_ray.stages.exchange import (
    PART_ROWS,
    _pack,
    hash_mod_part,
    reduce_by_part,
    with_part,
)


def _blocks(n_rows: int, n_parts: int, n_blocks: int, seed: int = 0):
    """Arrow blocks of (part, seq, k, x); ``seq`` numbers the rows in
    input order."""
    rng = np.random.default_rng(seed)
    table = pa.table(
        {
            "part": pa.array(rng.integers(0, n_parts, n_rows), pa.int32()),
            "seq": np.arange(n_rows, dtype=np.int64),
            "k": rng.integers(0, 50, n_rows),
            "x": rng.normal(size=n_rows),
        }
    )
    step = -(-n_rows // n_blocks)
    return [table.slice(i, step) for i in range(0, n_rows, step)]


def _calls():
    """A ``fn`` that returns one row per call: its part, the number of
    parts it saw and its rows' ``seq``. Built in a function so that Ray
    pickles it by value."""

    def calls(batch):
        df = batch if isinstance(batch, pd.DataFrame) else batch.to_pandas()
        parts = df["part"].unique()
        return pd.DataFrame(
            {
                "part": [int(parts[0])],
                "n_parts": [len(parts)],
                "seq": [" ".join(map(str, df["seq"]))],
            }
        )

    return calls


@pytest.mark.parametrize("batch_format", ["pandas", "pyarrow"])
def test_fn_sees_each_part_once_in_input_order(ray_session, batch_format):
    blocks = _blocks(3000, 12, 7)
    out = reduce_by_part(rd.from_arrow(blocks), _calls(), 12, batch_format)
    got = out.to_pandas()
    table = pa.concat_tables(blocks).to_pandas()
    want = sorted(table["part"].unique())
    # once per non-empty part, in ascending part order, whole parts only
    assert got["part"].tolist() == want
    assert (got["n_parts"] == 1).all()
    for part, seq in zip(got["part"], got["seq"]):
        rows = table.loc[table["part"] == part, "seq"]
        assert seq == " ".join(map(str, rows))


def test_empty_input_gives_empty_dataset(ray_session):
    empty = rd.from_arrow(_blocks(100, 4, 1)[0].slice(0, 0))
    for batch_format in ("pandas", "pyarrow"):
        out = reduce_by_part(empty, _calls(), 4, batch_format)
        assert out.count() == 0
    assert empty.groupby("part").map_groups(_calls()).count() == 0


def _sums(batch_format: str):
    """A per-(part, k) count and sum ``fn``, pickled by value."""
    if batch_format == "pandas":
        return lambda b: b.groupby(["part", "k"], as_index=False).agg(
            n=("x", "size"), s=("x", "sum")
        )
    return lambda b: b.group_by(["part", "k"]).aggregate(
        [("x", "count"), ("x", "sum")]
    )


@pytest.mark.parametrize("batch_format", ["pandas", "pyarrow"])
def test_packed_tasks_match_map_groups(ray_session, batch_format):
    """4 CPUs and 16 parts over 4000 rows: several parts share a reduce
    task and several tasks run; the output equals Ray Data's
    ``map_groups`` on the same input (the reference, kept here only)."""
    ds = rd.from_arrow(_blocks(4000, 16, 5, seed=3))
    fn = _sums(batch_format)
    out = reduce_by_part(ds, fn, 16, batch_format)
    assert 1 < out.num_blocks() < 16
    ref = ds.groupby("part").map_groups(fn, batch_format=batch_format)
    keys = ["part", "k"]
    got = out.to_pandas().sort_values(keys).reset_index(drop=True)
    want = ref.to_pandas().sort_values(keys).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)


def test_pack_bounds():
    rows = [5] * 32
    assert _pack(rows, 1, PART_ROWS) == [(0, 32)]
    assert _pack(rows, 4, PART_ROWS) == [(0, 8), (8, 16), (16, 24), (24, 32)]
    # no run over the row target unless it is one part
    assert _pack([60_000] * 3, 1, PART_ROWS) == [(0, 1), (1, 2), (2, 3)]
    assert _pack([150_000, 1, 1], 1, PART_ROWS) == [(0, 1), (1, 3)]
    # one run per CPU, capped at the number of parts, even when skewed
    assert _pack([100, 1, 1], 3, PART_ROWS) == [(0, 1), (1, 2), (2, 3)]
    assert _pack([], 0, PART_ROWS) == []


def test_with_part_refuses_nan_float_key():
    ok = pa.table({"k": pa.array([1.0, None, 2.5]), "v": [1, 2, 3]})
    parts = with_part(ok, "k", 4)["part"].to_numpy(zero_copy_only=False)
    assert ((parts >= 0) & (parts < 4)).all()
    bad = pa.table({"k": [1.0, float("nan"), 2.5], "v": [1, 2, 3]})
    with pytest.raises(ValueError, match="key column 'k' holds NaN"):
        with_part(bad, "k", 4)


def test_keyed_operator_refuses_nan_float_key(ray_session):
    from light_curve_feature_ray.pipelines.windows import rolling_agg

    df = pd.DataFrame(
        {
            "user_id": [1.0, np.nan, 1.0],
            "ts": pd.to_datetime([1, 2, 3], unit="s"),
            "value": [1.0, 2.0, 3.0],
            "event_id": [1, 2, 3],
        }
    )
    # pandas NaN becomes an Arrow null on the way in and drops like one;
    # only a true NaN in an Arrow float key column is refused
    assert rolling_agg(rd.from_pandas(df), k=2).count() == 2
    bad = pa.table(
        {
            "user_id": [1.0, float("nan"), 1.0],
            "ts": pa.array([1, 2, 3], pa.timestamp("s")),
            "value": [1.0, 2.0, 3.0],
            "event_id": [1, 2, 3],
        }
    )
    with pytest.raises(ValueError, match="key column 'user_id' holds NaN"):
        rolling_agg(rd.from_arrow(bad), k=2)


def test_integer_parts_keep_the_view_mod_spelling(ray_session, monkeypatch):
    """On one int64 column ``hash_mod_part`` is ``key.view(uint64) % P``,
    the spelling graph.py wrote inline before it called the shared
    partitioner: pinned on negative keys, for both batch types and on the
    edges triangle_counts routes."""
    from light_curve_feature_ray.pipelines import graph

    key = np.array([-(2**63), -7, -1, 0, 1, 5, 2**62 + 3, 2**63 - 1], np.int64)
    old = (key.view(np.uint64) % np.uint64(7)).astype(np.int32)
    for batch in (pd.DataFrame({"key": key}), pa.table({"key": key})):
        got = np.asarray(hash_mod_part(batch, ["key"], 7)["part"])
        np.testing.assert_array_equal(got, old)

    routed, real = [], graph.reduce_by_part

    def spy(ds, fn, num_parts, batch_format):
        routed.append((ds.to_pandas(), num_parts))
        return real(ds, fn, num_parts, batch_format)

    monkeypatch.setattr(graph, "reduce_by_part", spy)
    pairs = pd.DataFrame({"doc_a": [-3, -3, 2, -9, 4], "doc_b": [2, 5, 5, -3, -9]})
    graph.triangle_counts(rd.from_pandas(pairs), num_partitions=5)
    edges, num_parts = routed[0]
    assert num_parts == 5 and len(edges) == 5
    u = edges["u"].to_numpy(np.int64)
    assert (u < 0).any()
    np.testing.assert_array_equal(
        edges["part"].to_numpy(), (u.view(np.uint64) % np.uint64(5)).astype(np.int32)
    )
