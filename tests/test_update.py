"""Incremental continuous-aggregate update (pipelines/update.py):
rollup_update(old_tiers, delta) must equal a full rollup over the
combined turns — bit-identically, including the Gorilla points column —
under the append contract, across gap-fill modes, salted hot convs,
passthrough convs, brand-new convs, intra-delta duplicates and late
timestamps."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from light_curve_feature_ray.sources.synth import synth_transcripts_table
from light_curve_feature_ray.stages.rollup import RollupConfig

FEATURES = (
    "observation_count",
    "mean",
    "standard_deviation",
    "amplitude",
    "eta",
    "linear_trend",
)


def _cfg(**kw):
    base = dict(
        features=FEATURES,
        num_partitions=8,
        hot_threshold=None,
        gap_fill="linear",
        store_points=True,
    )
    base.update(kw)
    return RollupConfig(**base)


def _suffix_mask(df: pd.DataFrame, frac: float, only_even_convs: bool):
    """Delta = last ``frac`` of each conv's turns (by turn_idx), optionally
    only for every second conv so the rest exercises pure passthrough."""
    cut = df.groupby("conv_id")["turn_idx"].transform(
        lambda s: s.max() - max(1, int(len(s) * frac))
    )
    mask = df["turn_idx"].to_numpy() > cut.to_numpy()
    if only_even_convs:
        order = {c: i for i, c in enumerate(sorted(df["conv_id"].unique()))}
        even = df["conv_id"].map(order).to_numpy() % 2 == 0
        mask &= even
    return mask


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(
        ["conv_id", "tier", "bucket_ts"], kind="mergesort"
    ).reset_index(drop=True)


def _assert_same(full: pd.DataFrame, upd: pd.DataFrame):
    full, upd = _norm(full), _norm(upd)
    assert list(full.columns) == list(upd.columns)
    assert len(full) == len(upd)
    for c in full.columns:
        a, b = full[c].to_numpy(), upd[c].to_numpy()
        if a.dtype.kind == "f":
            assert np.array_equal(a, b, equal_nan=True), c
        else:
            assert (a == b).all(), c


def _run_pair(ray_session, tbl: pa.Table, delta_mask, cfg, hot_list=None):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.rollup import rollup_dataset
    from light_curve_feature_ray.pipelines.update import rollup_update

    df = tbl.to_pandas()
    old_tbl = pa.Table.from_pandas(df[~delta_mask], preserve_index=False)
    delta_tbl = pa.Table.from_pandas(df[delta_mask], preserve_index=False)
    full = rollup_dataset(
        rd.from_arrow(tbl).repartition(4), cfg, hot_list=hot_list
    ).to_pandas()
    old = rollup_dataset(
        rd.from_arrow(old_tbl).repartition(3), cfg, hot_list=hot_list
    )
    upd = rollup_update(
        old,
        rd.from_arrow(delta_tbl).repartition(2),
        cfg,
        hot_list=hot_list,
    ).to_pandas()
    return full, upd


@pytest.mark.parametrize("gap_fill", ["none", "prev", "linear"])
def test_update_equals_full(ray_session, gap_fill):
    tbl = synth_transcripts_table(
        n_convs=16, mean_turns=40, hot_convs=0, seed=21
    )
    mask = _suffix_mask(tbl.to_pandas(), 0.3, only_even_convs=True)
    assert mask.any() and not mask.all()
    full, upd = _run_pair(ray_session, tbl, mask, _cfg(gap_fill=gap_fill))
    _assert_same(full, upd)


def test_update_salted_hot_conv(ray_session):
    tbl = synth_transcripts_table(
        n_convs=10, mean_turns=30, hot_convs=1, hot_turns=400, seed=5
    )
    df = tbl.to_pandas()
    hot = [df.groupby("conv_id").size().idxmax()]
    mask = _suffix_mask(df, 0.25, only_even_convs=False)
    full, upd = _run_pair(
        ray_session, tbl, mask, _cfg(salt_window_days=2), hot_list=hot
    )
    _assert_same(full, upd)


def test_update_new_conv_dups_and_late_ts(ray_session):
    tbl = synth_transcripts_table(
        n_convs=8, mean_turns=25, hot_convs=0, seed=13
    )
    df = tbl.to_pandas()
    mask = _suffix_mask(df, 0.3, only_even_convs=False)
    # brand-new conversation that exists only in the delta
    first = df["conv_id"].iloc[0]
    new = df[df["conv_id"] == first].copy()
    new["conv_id"] = "conv_brand_new"
    # intra-delta duplicate turn_idx (settles by min ts, then min m)
    dup = df[mask].head(2).copy()
    dup["ts"] = dup["ts"] - pd.Timedelta(seconds=1)
    # late timestamp: a delta turn whose ts precedes the old history
    late = df[mask].tail(1).copy()
    late["ts"] = df["ts"].min() - pd.Timedelta(minutes=3)
    extra = pd.concat([new, dup, late], ignore_index=True)
    combined = pd.concat([df, extra], ignore_index=True)
    full_mask = np.r_[mask, np.ones(len(extra), dtype=bool)]
    tbl2 = pa.Table.from_pandas(combined, preserve_index=False)
    full, upd = _run_pair(ray_session, tbl2, full_mask, _cfg())
    _assert_same(full, upd)


def test_update_guards(ray_session):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.update import rollup_update

    tbl = synth_transcripts_table(n_convs=3, mean_turns=5, hot_convs=0, seed=1)
    ds = rd.from_arrow(tbl)
    with pytest.raises(ValueError, match="store_points"):
        rollup_update(ds, ds, _cfg(store_points=False))
    with pytest.raises(ValueError, match="max_update_convs"):
        rollup_update(ds, ds, _cfg(), max_update_convs=1)


def test_update_rollup_job(ray_session, tmp_path):
    """Job-level incremental update: only affected partitions rewritten
    (byte-untouched otherwise), result equals a full recompute, rerunning
    the same delta is a no-op (idempotent via manifest delta chains)."""
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    from light_curve_feature_ray.pipelines.rollup import rollup_dataset
    from light_curve_feature_ray.pipelines.update import update_rollup_job
    from light_curve_feature_ray.state.checkpoint import (
        job_report,
        read_rollup_output,
        run_rollup_job,
    )

    tbl = synth_transcripts_table(
        n_convs=12, mean_turns=30, hot_convs=0, seed=33
    )
    df = tbl.to_pandas()
    mask = _suffix_mask(df, 0.3, only_even_convs=True)
    old_path = str(tmp_path / "old.parquet")
    delta_path = str(tmp_path / "delta.parquet")
    pq.write_table(
        pa.Table.from_pandas(df[~mask], preserve_index=False), old_path
    )
    pq.write_table(
        pa.Table.from_pandas(df[mask], preserve_index=False), delta_path
    )
    out_dir = str(tmp_path / "store")
    cfg = _cfg()
    run_rollup_job(old_path, out_dir, cfg)

    before = {
        p: open(f"{out_dir}/part={p}/data.parquet", "rb").read()
        for p in range(cfg.num_partitions)
        if os.path.exists(f"{out_dir}/part={p}/data.parquet")
    }
    res = update_rollup_job(out_dir, delta_path)
    assert res["partitions_rewritten"]
    assert not res["partitions_skipped_applied"]
    for p in res["partitions_untouched"]:
        after = open(f"{out_dir}/part={p}/data.parquet", "rb").read()
        assert after == before[p], f"partition {p} should be byte-untouched"

    # read_rollup_output drops the hive-inferred `part` path column itself
    updated = read_rollup_output(out_dir).to_pandas()
    full = rollup_dataset(rd.from_arrow(tbl).repartition(4), cfg).to_pandas()
    _assert_same(full, updated)
    # manifest stage records stay cumulative: every turn ingested (job
    # input + delta) is counted once, and the distinct ones are the 1m points
    stage = job_report(out_dir)["stage"]
    assert stage["rows_in"] == tbl.num_rows
    n_1m = int(updated.loc[updated["tier"] == "1m", "n_points"].sum())
    assert stage["rows_in"] - stage["dups_dropped"] == n_1m

    # idempotent rerun: same delta -> nothing rewritten
    res2 = update_rollup_job(out_dir, delta_path)
    assert res2["partitions_rewritten"] == []
    assert sorted(res2["partitions_skipped_applied"]) == sorted(
        res["partitions_rewritten"]
    )
    again = read_rollup_output(out_dir).to_pandas()
    _assert_same(full, again)


def test_update_exchange_partitions_invariant(ray_session):
    """A small exchange modulus for the update produces identical rows."""
    tbl = synth_transcripts_table(n_convs=10, mean_turns=30, hot_convs=0, seed=7)
    import ray.data as rd

    from light_curve_feature_ray.pipelines.rollup import rollup_dataset
    from light_curve_feature_ray.pipelines.update import rollup_update

    df = tbl.to_pandas()
    mask = _suffix_mask(df, 0.3, only_even_convs=True)
    old = rollup_dataset(
        rd.from_arrow(pa.Table.from_pandas(df[~mask], preserve_index=False)),
        _cfg(),
    ).materialize()
    delta = rd.from_arrow(pa.Table.from_pandas(df[mask], preserve_index=False))
    a = rollup_update(old, delta, _cfg()).to_pandas()
    b = rollup_update(old, delta, _cfg(), exchange_partitions=3).to_pandas()
    _assert_same(a, b)
