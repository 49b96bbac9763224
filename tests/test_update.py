"""Incremental continuous-aggregate update (pipelines/update.py):
folding a delta into a ``run_rollup_job`` store with
``update_rollup_job`` must equal the in-process ``rollup_table`` over the
combined turns — bit-identically, including the Gorilla points column —
under the append contract, across gap-fill modes, salted hot convs,
untouched convs, brand-new convs, intra-delta duplicates and late
timestamps; it must rewrite only the partitions the delta routes to,
skip an already-applied delta, and refuse a store it cannot replay."""

import os

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


def _run_pair(tmp_path, tbl: pa.Table, delta_mask, cfg):
    """Build a job store from the turns outside ``delta_mask``, fold the
    rest in with ``update_rollup_job``, and return (the in-process
    reference over all turns with the store's recorded hot set, the
    updated store's rows, that hot set)."""
    import json

    from light_curve_feature_ray.pipelines.rollup import rollup_table
    from light_curve_feature_ray.pipelines.update import update_rollup_job
    from light_curve_feature_ray.state.checkpoint import read_rollup_output

    out_dir, delta_path = _job_store(tmp_path, tbl.to_pandas(), delta_mask, cfg)
    update_rollup_job(out_dir, delta_path)
    with open(os.path.join(out_dir, "_job.json")) as f:
        hot = json.load(f)["hot"]
    full = rollup_table(tbl, cfg, hot_list=hot).to_pandas()
    return full, read_rollup_output(out_dir).to_pandas(), hot


@pytest.mark.parametrize("gap_fill", ["none", "prev", "linear"])
def test_update_equals_full(ray_session, tmp_path, gap_fill):
    tbl = synth_transcripts_table(
        n_convs=16, mean_turns=40, hot_convs=0, seed=21
    )
    mask = _suffix_mask(tbl.to_pandas(), 0.3, only_even_convs=True)
    assert mask.any() and not mask.all()
    full, upd, _ = _run_pair(tmp_path, tbl, mask, _cfg(gap_fill=gap_fill))
    _assert_same(full, upd)


def test_update_salted_hot_conv(ray_session, tmp_path):
    tbl = synth_transcripts_table(
        n_convs=10, mean_turns=30, hot_convs=1, hot_turns=400, seed=5
    )
    df = tbl.to_pandas()
    mask = _suffix_mask(df, 0.25, only_even_convs=False)
    full, upd, hot = _run_pair(
        tmp_path, tbl, mask, _cfg(hot_threshold=200, salt_window_days=2)
    )
    assert hot == [df.groupby("conv_id").size().idxmax()]
    _assert_same(full, upd)


def test_update_new_conv_dups_and_late_ts(ray_session, tmp_path):
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
    full, upd, _ = _run_pair(tmp_path, tbl2, full_mask, _cfg())
    _assert_same(full, upd)


def _job_store(tmp_path, df: pd.DataFrame, delta_mask, cfg, delta_files=1):
    """Write the old turns, build a job store from them, and write the
    delta as one file or as a directory of ``delta_files`` files."""
    import pyarrow.parquet as pq

    from light_curve_feature_ray.state.checkpoint import run_rollup_job

    old_path = str(tmp_path / "old.parquet")
    pq.write_table(
        pa.Table.from_pandas(df[~delta_mask], preserve_index=False), old_path
    )
    delta = pa.Table.from_pandas(df[delta_mask], preserve_index=False)
    if delta_files == 1:
        delta_path = str(tmp_path / "delta.parquet")
        pq.write_table(delta, delta_path)
    else:
        delta_path = str(tmp_path / "delta")
        os.makedirs(delta_path)
        bounds = np.linspace(0, delta.num_rows, delta_files + 1).astype(int)
        for i in range(delta_files):
            pq.write_table(
                delta.slice(bounds[i], bounds[i + 1] - bounds[i]),
                os.path.join(delta_path, f"part-{i}.parquet"),
            )
    out_dir = str(tmp_path / "store")
    run_rollup_job(old_path, out_dir, cfg)
    return out_dir, delta_path


def _files(out_dir: str) -> dict:
    """Every file under the store: path -> (bytes, mtime_ns)."""
    out = {}
    for root, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as f:
                out[path] = (f.read(), os.stat(path).st_mtime_ns)
    return out


def _data_file(out_dir: str, p: int) -> str:
    return os.path.join(out_dir, f"part={p}", "data.parquet")


def test_update_guards(ray_session, tmp_path):
    """A store without 1m points has no state to replay: the update
    refuses it before anything is written (``max_update_convs`` is pinned
    by test_update_rollup_job_conv_bound)."""
    from light_curve_feature_ray.pipelines.update import update_rollup_job

    tbl = synth_transcripts_table(n_convs=3, mean_turns=5, hot_convs=0, seed=1)
    df = tbl.to_pandas()
    mask = _suffix_mask(df, 0.3, only_even_convs=False)
    out_dir, delta_path = _job_store(
        tmp_path, df, mask, _cfg(store_points=False)
    )
    before = _files(out_dir)
    with pytest.raises(ValueError, match="store_points"):
        update_rollup_job(out_dir, delta_path)
    assert _files(out_dir) == before


def test_turn_idx_out_of_range_refused(ray_session, tmp_path):
    """A turn_idx outside [0, 2**31) breaks the worker's composite sort
    key (two convs' turns at -1 came out as one conv's bucket).
    ``DeriveAssign`` refuses it, so ``rollup_table``, ``run_rollup_job``
    and ``update_rollup_job`` all raise, and no store file changes."""
    import pyarrow.parquet as pq

    from light_curve_feature_ray.pipelines.rollup import rollup_table
    from light_curve_feature_ray.pipelines.update import update_rollup_job
    from light_curve_feature_ray.state.checkpoint import run_rollup_job

    def with_turns(table: pa.Table, turns) -> pa.Table:
        i = table.schema.get_field_index("turn_idx")
        return table.set_column(i, "turn_idx", pa.array(turns, pa.int64()))

    two = pa.table(
        {
            "conv_id": ["a", "b"],
            "turn_idx": [0, 0],
            "text": ["x", "yy"],
            "ts": pa.array([60_000_000, 60_000_000], pa.timestamp("us")),
        }
    )
    for turns in ([-1, -1], [0, 2**31]):
        with pytest.raises(ValueError, match="turn_idx must be in"):
            rollup_table(with_turns(two, turns), _cfg())
    bad_path = str(tmp_path / "bad.parquet")
    pq.write_table(with_turns(two, [-1, -1]), bad_path)
    job_dir = str(tmp_path / "bad_job")
    with pytest.raises(ValueError, match="turn_idx must be in"):
        run_rollup_job(bad_path, job_dir, _cfg())
    assert not [p for p in os.listdir(job_dir) if p.startswith("part=")]

    tbl = synth_transcripts_table(n_convs=4, mean_turns=10, hot_convs=0, seed=5)
    df = tbl.to_pandas()
    mask = _suffix_mask(df, 0.3, only_even_convs=False)
    out_dir, delta_path = _job_store(tmp_path, df, mask, _cfg())
    delta = pq.read_table(delta_path)
    turns = delta["turn_idx"].to_numpy().astype(np.int64)
    turns[0] = -1
    pq.write_table(with_turns(delta, turns), delta_path)
    before = _files(out_dir)
    with pytest.raises(ValueError, match="turn_idx must be in"):
        update_rollup_job(out_dir, delta_path)
    assert _files(out_dir) == before


def test_update_rollup_job(ray_session, tmp_path):
    """Job-level incremental update: only affected partitions rewritten
    (byte-untouched otherwise), result equals a full recompute, rerunning
    the same delta is a no-op (idempotent via manifest delta chains)."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.rollup import rollup_dataset
    from light_curve_feature_ray.pipelines.update import update_rollup_job
    from light_curve_feature_ray.state.checkpoint import (
        job_report,
        read_rollup_output,
    )

    tbl = synth_transcripts_table(
        n_convs=12, mean_turns=30, hot_convs=0, seed=33
    )
    df = tbl.to_pandas()
    mask = _suffix_mask(df, 0.3, only_even_convs=True)
    cfg = _cfg()
    out_dir, delta_path = _job_store(tmp_path, df, mask, cfg)

    before = {
        p: open(_data_file(out_dir, p), "rb").read()
        for p in range(cfg.num_partitions)
        if os.path.exists(_data_file(out_dir, p))
    }
    res = update_rollup_job(out_dir, delta_path)
    assert res["partitions_rewritten"]
    assert not res["partitions_skipped_applied"]
    for p in res["partitions_untouched"]:
        after = open(_data_file(out_dir, p), "rb").read()
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


def test_update_rollup_job_salted_hot_conv(ray_session, tmp_path):
    """Routing, not scanning: a delta that touches one day window of a
    salted hot conv rewrites exactly the partitions its derived rows route
    to. The hot conv's other windows live in partitions that stay
    byte-identical with their mtimes, and the store equals a full rebuild
    with the recorded hot set."""
    import json

    import pyarrow.parquet as pq

    from light_curve_feature_ray.pipelines.rollup import rollup_table
    from light_curve_feature_ray.pipelines.update import update_rollup_job
    from light_curve_feature_ray.stages.rollup import DeriveAssign
    from light_curve_feature_ray.state.checkpoint import read_rollup_output

    tbl = synth_transcripts_table(
        n_convs=12, mean_turns=30, hot_convs=1, hot_turns=3000, seed=5
    )
    df = tbl.to_pandas()
    hot_id = df.groupby("conv_id").size().idxmax()
    is_hot = (df["conv_id"] == hot_id).to_numpy()
    turn = df["turn_idx"].to_numpy()
    day = df["ts"].to_numpy().astype("datetime64[D]")
    # the hot conv's last turns that fall on its last day: one salt window
    hot_delta = (
        is_hot
        & (turn > turn[is_hot].max() - 40)
        & (day == day[is_hot].max())
    )
    mask = (_suffix_mask(df, 0.3, only_even_convs=True) & ~is_hot) | hot_delta
    assert hot_delta.sum() > 5 and (mask & ~is_hot).any()
    cfg = _cfg(hot_threshold=1000, salt_window_days=1)
    out_dir, delta_path = _job_store(tmp_path, df, mask, cfg)
    with open(os.path.join(out_dir, "_job.json")) as f:
        hot = json.load(f)["hot"]
    assert hot == [hot_id]

    delta = pa.Table.from_pandas(df[mask], preserve_index=False)
    routed = set(
        DeriveAssign(cfg, hot_list=hot)(delta)["part"].to_pylist()
    )
    holds_hot = {
        p
        for p in range(cfg.num_partitions)
        if os.path.exists(_data_file(out_dir, p))
        and hot_id in pq.read_table(_data_file(out_dir, p))["conv_id"].to_pylist()
    }
    # the hot conv's other day windows sit in partitions the delta skips
    assert holds_hot - routed

    before = _files(out_dir)
    res = update_rollup_job(out_dir, delta_path)
    assert res["partitions_rewritten"] == sorted(routed)
    for p in range(cfg.num_partitions):
        path = _data_file(out_dir, p)
        if p not in routed and path in before:
            with open(path, "rb") as f:
                assert f.read() == before[path][0], p
            assert os.stat(path).st_mtime_ns == before[path][1], p

    full = rollup_table(tbl, cfg, hot_list=hot).to_pandas()
    _assert_same(full, read_rollup_output(out_dir).to_pandas())


def test_update_rollup_job_partial_application(ray_session, tmp_path):
    """A store where one rewritten partition went back to its pre-update
    data and manifest (the others carry the delta) finishes on rerun:
    only that partition is rewritten and the store equals a full
    rebuild. The delta is a directory of three files."""
    import shutil

    from light_curve_feature_ray.pipelines.rollup import rollup_table
    from light_curve_feature_ray.pipelines.update import update_rollup_job
    from light_curve_feature_ray.state.checkpoint import (
        job_report,
        read_rollup_output,
    )

    tbl = synth_transcripts_table(
        n_convs=16, mean_turns=30, hot_convs=0, seed=41
    )
    df = tbl.to_pandas()
    mask = _suffix_mask(df, 0.3, only_even_convs=False)
    cfg = _cfg()
    out_dir, delta_path = _job_store(tmp_path, df, mask, cfg, delta_files=3)
    backup = str(tmp_path / "backup")
    shutil.copytree(out_dir, backup)

    res = update_rollup_job(out_dir, delta_path)
    assert len(res["partitions_rewritten"]) >= 2
    p0 = res["partitions_rewritten"][0]
    for name in ("data.parquet", "_manifest.json"):
        shutil.copy2(
            os.path.join(backup, f"part={p0}", name),
            os.path.join(out_dir, f"part={p0}", name),
        )
    res2 = update_rollup_job(out_dir, delta_path)
    assert res2["partitions_rewritten"] == [p0]
    assert res2["partitions_skipped_applied"] == res["partitions_rewritten"][1:]

    updated = read_rollup_output(out_dir).to_pandas()
    _assert_same(rollup_table(tbl, cfg).to_pandas(), updated)
    assert job_report(out_dir)["stage"]["rows_in"] == tbl.num_rows


def test_update_rollup_job_empty_delta(ray_session, tmp_path):
    """A 0-row delta file writes nothing, _job.json included."""
    from light_curve_feature_ray.pipelines.update import update_rollup_job

    tbl = synth_transcripts_table(n_convs=6, mean_turns=20, hot_convs=0, seed=3)
    df = tbl.to_pandas()
    mask = np.zeros(len(df), dtype=bool)
    out_dir, delta_path = _job_store(tmp_path, df, mask, _cfg())
    before = _files(out_dir)
    res = update_rollup_job(out_dir, delta_path)
    assert res["partitions_rewritten"] == []
    assert res["partitions_skipped_applied"] == []
    assert res["rows_written"] == 0
    assert len(res["partitions_untouched"]) == len(
        [p for p in before if p.endswith("_manifest.json")]
    )
    assert _files(out_dir) == before


def test_update_rollup_job_conv_bound(ray_session, tmp_path):
    """max_update_convs raises before any file is written; each derive
    task hands the driver at most max_update_convs + 1 conv ids and its
    piece row counts, never delta rows, and piece ``p`` holds only the
    rows of partition ``p``."""
    import ray

    from light_curve_feature_ray.pipelines.rollup import input_units
    from light_curve_feature_ray.pipelines.update import (
        _derive,
        update_rollup_job,
    )

    tbl = synth_transcripts_table(n_convs=8, mean_turns=20, hot_convs=0, seed=9)
    df = tbl.to_pandas()
    mask = _suffix_mask(df, 0.3, only_even_convs=False)
    cfg = _cfg()
    out_dir, delta_path = _job_store(tmp_path, df, mask, cfg)
    before = _files(out_dir)
    with pytest.raises(ValueError, match="max_update_convs=1 "):
        update_rollup_job(out_dir, delta_path, max_update_convs=1)
    assert _files(out_dir) == before

    (unit,) = input_units(delta_path)
    out = _derive.options(num_returns=cfg.num_partitions + 2).remote(unit, cfg, None, 1)
    convs = ray.get(out[-1])
    assert isinstance(convs, pa.Array) and len(convs) == 2
    counts = ray.get(out[-2])
    assert sum(counts) == mask.sum()
    for p, piece in enumerate(ray.get(out[:-2])):
        assert piece.num_rows == counts[p]
        assert set(piece["part"].to_pylist()) <= {p}
    assert sum(n > 0 for n in counts) > 1


def test_update_rollup_job_torn_partition(ray_session, tmp_path):
    """A crash between a partition's data write and its manifest write
    leaves the updated data under the pre-update manifest. The data
    file's footer lists the delta, so a rerun restores the manifest from
    the file instead of folding the delta in a second time."""
    import json
    import shutil

    from light_curve_feature_ray.pipelines.rollup import rollup_table
    from light_curve_feature_ray.pipelines.update import update_rollup_job
    from light_curve_feature_ray.state.checkpoint import (
        job_report,
        read_rollup_output,
    )

    tbl = synth_transcripts_table(n_convs=12, mean_turns=30, hot_convs=0, seed=33)
    df = tbl.to_pandas()
    mask = _suffix_mask(df, 0.3, only_even_convs=True)
    cfg = _cfg()
    out_dir, delta_path = _job_store(tmp_path, df, mask, cfg)
    backup = str(tmp_path / "backup")
    shutil.copytree(out_dir, backup)

    res = update_rollup_job(out_dir, delta_path)
    p0 = res["partitions_rewritten"][0]
    manifest = os.path.join(out_dir, f"part={p0}", "_manifest.json")
    shutil.copy2(os.path.join(backup, f"part={p0}", "_manifest.json"), manifest)
    data = _files(out_dir)[_data_file(out_dir, p0)]

    res2 = update_rollup_job(out_dir, delta_path)
    assert res2["partitions_rewritten"] == []
    assert res2["partitions_skipped_applied"] == res["partitions_rewritten"]
    assert _files(out_dir)[_data_file(out_dir, p0)] == data
    with open(manifest) as f:
        assert json.load(f)["lineage"]["deltas"] == [delta_path]

    full = rollup_table(tbl, cfg).to_pandas()
    updated = read_rollup_output(out_dir).to_pandas()
    n_1m = int(updated.loc[updated["tier"] == "1m", "n_points"].sum())
    assert n_1m == int(full.loc[full["tier"] == "1m", "n_points"].sum()) == 485
    _assert_same(full, updated)
    stage = job_report(out_dir)["stage"]
    assert stage["rows_in"] == tbl.num_rows
    assert stage["rows_in"] - stage["dups_dropped"] == n_1m


def test_unversioned_store_refused(ray_session, tmp_path):
    """A store written before the points codec was versioned (no
    ``points_codec`` in its ``_job.json`` config) holds blobs this engine
    does not decode: the update and a resume both refuse it, and no file
    changes."""
    import json

    from light_curve_feature_ray.pipelines.update import update_rollup_job
    from light_curve_feature_ray.state.checkpoint import run_rollup_job

    tbl = synth_transcripts_table(n_convs=6, mean_turns=20, hot_convs=0, seed=3)
    df = tbl.to_pandas()
    mask = _suffix_mask(df, 0.3, only_even_convs=False)
    cfg = _cfg()
    out_dir, delta_path = _job_store(tmp_path, df, mask, cfg)
    job_path = os.path.join(out_dir, "_job.json")
    with open(job_path) as f:
        job = json.load(f)
    del job["config"]["points_codec"]
    with open(job_path, "w") as f:
        json.dump(job, f)

    before = _files(out_dir)
    with pytest.raises(ValueError, match="rebuild the store"):
        update_rollup_job(out_dir, delta_path)
    assert _files(out_dir) == before
    # the same input and config: only the missing codec version differs
    with pytest.raises(ValueError, match="refusing to resume"):
        run_rollup_job(str(tmp_path / "old.parquet"), out_dir, cfg)
    assert _files(out_dir) == before


def test_fold_decode_keeps_the_tracer_shape(monkeypatch):
    """perfbench's tracer rebinds ``codec.gorilla.decode`` by name and counts
    ``len(out[0])`` of each call as decoded points, for its check
    ``read.rows + decode.points == worker rows in``. A fold's replay of old
    points must call it through the module attribute, once, and get every
    replayed point back in ``out[0]``; a row whose ``n_points`` disagrees
    with its blob raises."""
    import functools

    import pyarrow.compute as pc

    from light_curve_feature_ray.codec import gorilla
    from light_curve_feature_ray.pipelines import update
    from light_curve_feature_ray.pipelines.rollup import rollup_table

    tbl = synth_transcripts_table(
        n_convs=12, mean_turns=30, hot_convs=1, hot_turns=300, seed=41
    )
    hot = [tbl.to_pandas().groupby("conv_id").size().idxmax()]
    cfg = _cfg(hot_threshold=200, num_partitions=1)
    tiers = rollup_table(tbl, cfg, hot_list=hot)
    convs = pc.unique(tiers["conv_id"]).to_pylist()[::2] + hot
    sel = tiers.filter(
        pc.and_(
            pc.is_in(tiers["conv_id"], value_set=pa.array(convs)),
            pc.equal(tiers["tier"], "1m"),
        )
    )
    calls = []
    inner = gorilla.decode

    @functools.wraps(inner)
    def traced(*args, **kwargs):
        out = inner(*args, **kwargs)
        calls.append(len(out[0]))
        return out

    monkeypatch.setattr(gorilla, "decode", traced)
    points = update._old_points(sel, cfg, set(hot))
    assert len(calls) == 1
    assert calls[0] == points.num_rows == pc.sum(sel["n_points"]).as_py() > 0

    sizes = sel["n_points"].to_numpy().copy()
    sizes[0] += 1
    off = sel.set_column(
        sel.schema.get_field_index("n_points"), "n_points", pa.array(sizes)
    )
    with pytest.raises(ValueError, match="n_points"):
        update._old_points(off, cfg, set(hot))
