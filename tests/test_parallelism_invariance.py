"""Outputs must be independent of partitioning/parallelism choices —
the property that makes retries, resumes and cluster-size changes safe."""

from dataclasses import replace

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from light_curve_feature_ray.sources.synth import synth_transcripts_parquet
from light_curve_feature_ray.stages.rollup import RollupConfig

CFG = dict(n_convs=15, mean_turns=35, hot_convs=1, hot_turns=200, seed=77)


def hot_convs(table: pa.Table, threshold: int) -> list:
    """Conversations with at least ``threshold`` rows (detect_hot_convs's
    rule, computed in-process)."""
    counts = table.group_by("conv_id").aggregate([("conv_id", "count")])
    hot = counts.filter(pc.greater_equal(counts["conv_id_count"], threshold))
    return sorted(hot["conv_id"].to_pylist())


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    return synth_transcripts_parquet(
        str(tmp_path_factory.mktemp("pinv") / "in"), shards=3, **CFG
    )


def run(synth_dir, num_partitions):
    from light_curve_feature_ray.pipelines.rollup import (
        read_transcripts,
        rollup_dataset,
    )

    cfg = RollupConfig(
        features=("observation_count", "mean", "standard_deviation", "eta"),
        num_partitions=num_partitions,
        hot_threshold=None,
        store_points=True,
    )
    df = rollup_dataset(read_transcripts(synth_dir), cfg).to_pandas()
    return df.sort_values(["conv_id", "tier", "bucket_ts"]).reset_index(drop=True)


def test_partition_count_invariance(ray_session, synth_dir):
    a = run(synth_dir, 3)
    b = run(synth_dir, 16)
    assert len(a) == len(b)
    for col in a.columns:
        if a[col].dtype == object and col == "points":
            assert (a[col].values == b[col].values).all(), "points bytes differ"
        elif a[col].dtype.kind == "f":
            np.testing.assert_allclose(
                a[col].to_numpy(), b[col].to_numpy(), equal_nan=True, rtol=0
            )
        else:
            assert (a[col].values == b[col].values).all(), col


def test_rerun_bit_identical(ray_session, synth_dir):
    a = run(synth_dir, 8)
    b = run(synth_dir, 8)
    pd.testing.assert_frame_equal(a, b)


def _sorted(df, keys=("conv_id", "tier", "bucket_ts")):
    return df.sort_values(list(keys)).reset_index(drop=True)


def test_packed_exchange_bit_identical(ray_session, synth_dir):
    """The one exchange (each map task's pack_derived -> split_by_part,
    route, unpack_packed in the reduce task) must yield byte-identical
    output to the in-process reference — including Gorilla points bytes —
    at any partition count, whether the map inputs are a path's input
    units, a parquet read's blocks or pandas blocks."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from light_curve_feature_ray.pipelines.rollup import (
        read_transcripts,
        rollup_dataset,
        rollup_table,
    )

    cfg = RollupConfig(
        features=("observation_count", "mean", "standard_deviation", "eta"),
        hot_threshold=None,
        store_points=True,
    )
    table = pq.read_table(synth_dir)
    want = _sorted(rollup_table(table, cfg).to_pandas())
    frame = table.to_pandas()
    sources = {
        "path": lambda: synth_dir,
        "read": lambda: read_transcripts(synth_dir),
        "pandas": lambda: rd.from_pandas(
            [frame.iloc[i : i + 150] for i in range(0, len(frame), 150)]
        ),
    }
    for parts in (2, 5):
        for name, source in sources.items():
            got = rollup_dataset(source(), replace(cfg, num_partitions=parts))
            pd.testing.assert_frame_equal(
                _sorted(got.to_pandas()), want, obj=f"{name} P={parts}"
            )


def test_packed_exchange_salted_and_dups(ray_session, salted_dir):
    """The exchange under hot-conv salting AND cross-block duplicate
    rows: dedup happens at the worker after unpack, so the (min ts,
    min m) duplicate rule must survive packing."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from light_curve_feature_ray.pipelines.rollup import (
        read_transcripts,
        rollup_dataset,
        rollup_table,
    )

    cfg = RollupConfig(
        features=("observation_count", "mean"),
        hot_threshold=500,
        store_points=True,
    )
    table = pq.read_table(salted_dir)
    hot = hot_convs(table, 500)
    assert len(hot) == 2
    want = _sorted(rollup_table(table, cfg, hot_list=hot).to_pandas())
    for parts in (3, 4):
        got = rollup_dataset(
            read_transcripts(salted_dir), replace(cfg, num_partitions=parts)
        ).to_pandas()
        pd.testing.assert_frame_equal(_sorted(got), want)

    # duplicates in different blocks (retry shape): same (conv, turn)
    # twice with different (ts, m) — packed must resolve identically
    df = pd.DataFrame(
        {
            "conv_id": ["x"] * 4 + ["y"] * 2,
            "turn_idx": [0, 1, 1, 2, 0, 0],
            "text": ["aa", "bbb", "c", "dddd", "ee", "fff"],
            "ts": pd.to_datetime(
                [1_000_000, 61_000_000, 60_500_000, 121_000_000, 5_000_000, 4_000_000],
                unit="us",
            ),
        }
    )
    cfg2 = RollupConfig(
        features=("observation_count", "mean"),
        tiers=("1m",),
        hot_threshold=None,
        store_points=True,
    )
    keys = ("conv_id", "bucket_ts")
    want2 = _sorted(
        rollup_table(pa.Table.from_pandas(df, preserve_index=False), cfg2).to_pandas(),
        keys,
    )
    assert want2["n_points"].sum() == 4
    for parts in (1, 2):
        ds = rd.from_pandas(df).repartition(3)
        got = rollup_dataset(ds, replace(cfg2, num_partitions=parts)).to_pandas()
        pd.testing.assert_frame_equal(_sorted(got, keys), want2)


@pytest.mark.parametrize("parts, skip", [(1, ()), (1, (0,)), (2, (1,)), (7, (0, 3, 6))])
def test_routed_exchange_skip_parts(ray_session, synth_dir, parts, skip):
    """At any partition count, including 1 (one piece per unit) and
    with ``skip_parts`` (the job's resume path), rollup_units yields the
    in-process reference's rows — points bytes included — less exactly
    the skipped partitions'."""
    import pyarrow.parquet as pq
    import ray

    from light_curve_feature_ray.pipelines.rollup import (
        input_units,
        rollup_table,
        rollup_units,
    )
    from light_curve_feature_ray.stages.rollup import DeriveAssign

    cfg = RollupConfig(
        features=("observation_count", "mean", "eta"),
        num_partitions=parts,
        hot_threshold=None,
        store_points=True,
    )
    table = pq.read_table(synth_dir)
    derived = DeriveAssign(cfg)(table)
    skipped = derived.filter(pc.is_in(derived["part"], pa.array(skip, pa.int32())))
    convs = pc.unique(skipped["conv_id"].cast(pa.string()))
    ref = rollup_table(table, cfg)
    want = _sorted(ref.filter(pc.invert(pc.is_in(ref["conv_id"], convs))).to_pandas())
    got = ray.get(rollup_units(input_units(synth_dir), cfg, skip_parts=skip))
    if want.empty:
        assert got == []
    else:
        got = pa.concat_tables(got).to_pandas()
        pd.testing.assert_frame_equal(_sorted(got)[want.columns], want)


# --- salted path: hot convs spread across partitions by salt window ------

SALT_CFG = dict(n_convs=12, mean_turns=30, hot_convs=2, hot_turns=3000, seed=99)


@pytest.fixture(scope="module")
def salted_dir(tmp_path_factory):
    # hot convs span multiple days (3000 turns x ~45 s + injected gaps), so
    # they cover several 1-day salt windows
    return synth_transcripts_parquet(
        str(tmp_path_factory.mktemp("pinv_salt") / "in"), shards=3, **SALT_CFG
    )


def run_salted(salted_dir, num_partitions):
    from light_curve_feature_ray.pipelines.rollup import (
        read_transcripts,
        rollup_dataset,
    )

    cfg = RollupConfig(
        features=("observation_count", "mean", "standard_deviation", "eta"),
        num_partitions=num_partitions,
        hot_threshold=500,  # the 2 hot convs (3000 turns) get salted
        gap_fill="linear",
        store_points=True,
    )
    df = rollup_dataset(read_transcripts(salted_dir), cfg).to_pandas()
    return df.sort_values(["conv_id", "tier", "bucket_ts"]).reset_index(drop=True)


def test_salted_partition_count_invariance(ray_session, salted_dir):
    """Gap-fill truncates at salt-window boundaries for hot convs, so the
    output must not depend on which salt windows co-hash into a partition
    (i.e. on num_partitions)."""
    a = run_salted(salted_dir, 3)
    b = run_salted(salted_dir, 16)
    assert len(a) == len(b)
    for col in a.columns:
        if a[col].dtype == object and col == "points":
            assert (a[col].values == b[col].values).all(), "points bytes differ"
        elif a[col].dtype.kind == "f":
            np.testing.assert_allclose(
                a[col].to_numpy(), b[col].to_numpy(), equal_nan=True, rtol=0
            )
        else:
            assert (a[col].values == b[col].values).all(), col
