"""Rollup engine correctness: the vectorized Ray cascade must match a naive
per-conversation composition of the pure per-series kernel (Series + Bins +
gap-fill), per FIXTURES.md §E."""

import itertools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from light_curve_feature_ray.codec import gorilla
from light_curve_feature_ray.features import FeatureExtractor, Series
from light_curve_feature_ray.pipelines.rollup import rollup_table
from light_curve_feature_ray.sources.synth import synth_transcripts_table
from light_curve_feature_ray.stages.rollup import RollupConfig, _gap_fill

US_PER_MIN = 60_000_000

SIMPLE_FEATURES = (
    "observation_count",
    "mean",
    "weighted_mean",
    "standard_deviation",
    "amplitude",
    "duration",
    "skew",
    "kurtosis",
    "eta",
    "eta_e",
    "stetson_k",
    "linear_trend",
    "median",
    "median_absolute_deviation",
    "cusum",
)


def naive_rollup(table: pa.Table, cfg: RollupConfig) -> pd.DataFrame:
    """Slow, obviously-correct per-conv implementation used as the oracle.

    Honours ``cfg.tiers`` (rows of other tiers are dropped),
    ``cfg.fill_levels`` (which bin series are gap-filled) and
    ``cfg.max_fill_gap`` (the 1m bins fill gaps of at most that many
    minutes, 0 = none; the 1h bins at most ``max(max_fill_gap // 60, 1)``
    hours)."""
    extractor = FeatureExtractor.from_config(list(cfg.features))
    names = extractor.names()
    df = table.to_pandas()
    df["ts_us"] = df["ts"].astype("int64")
    df["m"] = df["text"].str.len().astype(float)
    rows = []
    for conv_id, g in df.groupby("conv_id", sort=True):
        g = g.sort_values("turn_idx", kind="stable").drop_duplicates(
            "turn_idx", keep="first"
        )
        ts_us = g["ts_us"].to_numpy()
        m = g["m"].to_numpy()
        w = np.ones_like(m)
        t = ts_us / 1e6
        minute = ts_us // US_PER_MIN

        # --- 1m from raw points
        for j in np.unique(minute):
            sel = minute == j
            s = Series(t[sel], m[sel], w[sel])
            vals = extractor.eval_or_fill(s)
            rows.append(
                {"conv_id": conv_id, "tier": "1m", "bucket_us": j * US_PER_MIN}
                | dict(zip(names, vals))
            )

        # --- 1m bin series (Bins semantics)
        uj, inv = np.unique(minute, return_inverse=True)
        sw = np.bincount(inv, weights=w)
        smw = np.bincount(inv, weights=m * w)
        cnt = np.bincount(inv)
        bm = smw / sw
        bw = sw / cnt
        # gap-fill
        mode_1m = cfg.gap_fill if "1m" in cfg.fill_levels else "none"
        fj, fm, fw = naive_gap_fill(uj, bm, bw, mode_1m, cfg.max_fill_gap)

        # --- 1h from filled 1m bins
        hour = fj // 60
        bt = fj * 60.0 + 30.0
        for h in np.unique(hour):
            sel = hour == h
            s = Series(bt[sel], fm[sel], fw[sel])
            vals = extractor.eval_or_fill(s)
            rows.append(
                {
                    "conv_id": conv_id,
                    "tier": "1h",
                    "bucket_us": int(h) * 60 * US_PER_MIN,
                }
                | dict(zip(names, vals))
            )

        # --- 1h bin series, gap-fill, 1d
        uh, invh = np.unique(hour, return_inverse=True)
        swh = np.bincount(invh, weights=fw)
        smwh = np.bincount(invh, weights=fm * fw)
        cnth = np.bincount(invh)
        hm = smwh / swh
        hw = swh / cnth
        max_gap_h = (
            None if cfg.max_fill_gap is None else max(cfg.max_fill_gap // 60, 1)
        )
        mode_1h = cfg.gap_fill if "1h" in cfg.fill_levels else "none"
        fh, fhm, fhw = naive_gap_fill(uh, hm, hw, mode_1h, max_gap_h)
        day = fh // 24
        ht = fh * 3600.0 + 1800.0
        for d in np.unique(day):
            sel = day == d
            s = Series(ht[sel], fhm[sel], fhw[sel])
            vals = extractor.eval_or_fill(s)
            rows.append(
                {
                    "conv_id": conv_id,
                    "tier": "1d",
                    "bucket_us": int(d) * 1440 * US_PER_MIN,
                }
                | dict(zip(names, vals))
            )
    want = pd.DataFrame(rows)
    return want[want["tier"].isin(cfg.tiers)]


def naive_gap_fill(slots, m, w, mode, max_gap):
    if mode == "none":
        return slots, m, w
    out_j, out_m, out_w = [], [], []
    for i in range(len(slots)):
        out_j.append(slots[i])
        out_m.append(m[i])
        out_w.append(w[i])
        if i + 1 < len(slots):
            gap = slots[i + 1] - slots[i] - 1
            if gap <= 0 or (max_gap is not None and gap > max_gap):
                continue
            for k in range(1, gap + 1):
                out_j.append(slots[i] + k)
                if mode == "prev":
                    out_m.append(m[i])
                    out_w.append(w[i])
                else:
                    frac = k / (gap + 1)
                    out_m.append(m[i] + frac * (m[i + 1] - m[i]))
                    out_w.append(w[i] + frac * (w[i + 1] - w[i]))
    return np.array(out_j), np.array(out_m), np.array(out_w)


def compare_frames(got: pd.DataFrame, want: pd.DataFrame, names):
    key = ["conv_id", "tier", "bucket_us"]
    got = got.sort_values(key).reset_index(drop=True)
    want = want.sort_values(key).reset_index(drop=True)
    assert len(got) == len(want)
    for k in key:
        assert (got[k].values == want[k].values).all(), k
    for name in names:
        a, b = got[name].to_numpy(), want[name].to_numpy()
        na, nb = np.isnan(a), np.isnan(b)
        np.testing.assert_array_equal(na, nb, err_msg=f"{name} NaN mask")
        np.testing.assert_allclose(
            a[~na], b[~nb], rtol=1e-9, atol=1e-9, err_msg=name
        )


ALL_TIERS = ("1m", "1h", "1d")
BOTH_LEVELS = ("1m", "1h")


def _naive_cases():
    """The defaults per gap_fill mode (ids ``none``/``prev``/``linear``),
    then every (tiers, fill_levels, max_fill_gap) of the grid below for
    the two modes that fill (fill levels and caps are moot under none)."""
    for gap_fill in ("none", "prev", "linear"):
        yield pytest.param(gap_fill, ALL_TIERS, BOTH_LEVELS, 2880, id=gap_fill)
    grid = itertools.product(
        ("prev", "linear"),
        (ALL_TIERS, ("1h",), ("1m", "1d")),
        (BOTH_LEVELS, ("1h",), ()),
        (0, 3, None),
    )
    for gap_fill, tiers, levels, max_gap in grid:
        case = f"{gap_fill}-{'+'.join(tiers)}-fill{'+'.join(levels)}-gap{max_gap}"
        yield pytest.param(gap_fill, tiers, levels, max_gap, id=case)


@pytest.mark.parametrize(
    "gap_fill,tiers,fill_levels,max_fill_gap", list(_naive_cases())
)
def test_cascade_matches_naive(gap_fill, tiers, fill_levels, max_fill_gap):
    cfg = RollupConfig(
        features=SIMPLE_FEATURES,
        tiers=tiers,
        gap_fill=gap_fill,
        fill_levels=fill_levels,
        max_fill_gap=max_fill_gap,
        store_points=False,
        hot_threshold=None,
    )
    tbl = synth_transcripts_table(
        n_convs=12, mean_turns=60, hot_convs=1, hot_turns=400, seed=5
    )
    out = rollup_table(tbl, cfg).to_pandas()
    out["bucket_us"] = out["bucket_ts"].astype("int64")
    want = naive_rollup(tbl, cfg)
    names = FeatureExtractor.from_config(list(cfg.features)).names()
    compare_frames(out, want, names)


def test_dedup_deterministic_min_key():
    """Duplicate (conv_id, turn_idx) rows resolve by (min ts, then min m),
    NOT by arrival order — Ray does not guarantee block arrival order across
    retries, and checkpoint resume promises identical bytes."""
    tbl = synth_transcripts_table(n_convs=5, mean_turns=30, hot_convs=0, seed=9)
    # duplicates with a longer text (larger m, same ts) must LOSE the tie
    dup = tbl.slice(3, 10)
    dup = dup.set_column(
        dup.schema.get_field_index("text"),
        "text",
        pa.array(["Z" * 600 for _ in range(dup.num_rows)]),
    )
    cfg = RollupConfig(
        features=("observation_count", "mean"),
        store_points=False,
        hot_threshold=None,
    )

    def run(t):
        return (
            rollup_table(t, cfg)
            .to_pandas()
            .sort_values(["conv_id", "tier", "bucket_ts"])
            .reset_index(drop=True)
        )

    a = run(tbl)
    b = run(pa.concat_tables([tbl, dup]))  # dup arrives after
    c = run(pa.concat_tables([dup, tbl]))  # dup arrives first
    pd.testing.assert_frame_equal(a, b)
    pd.testing.assert_frame_equal(a, c)


def test_points_roundtrip_1m():
    tbl = synth_transcripts_table(n_convs=4, mean_turns=50, hot_convs=0, seed=3)
    cfg = RollupConfig(
        features=("observation_count",), store_points=True, hot_threshold=None
    )
    out = rollup_table(tbl, cfg)
    m1 = out.filter(pc.equal(out["tier"], "1m")).to_pandas()
    df = tbl.to_pandas()
    df["ts_us"] = df["ts"].astype("int64")
    df["m"] = df["text"].str.len().astype(float)
    for _, row in m1.head(50).iterrows():
        ts_dec, m_dec = gorilla.decode(row["points"])
        j = (row["bucket_ts"].value // 1000) // US_PER_MIN  # Timestamp.value is ns
        sel = df[
            (df["conv_id"] == row["conv_id"]) & (df["ts_us"] // US_PER_MIN == j)
        ].sort_values("turn_idx")
        np.testing.assert_array_equal(ts_dec, sel["ts_us"].to_numpy())
        np.testing.assert_array_equal(m_dec, sel["m"].to_numpy())
        assert row["n_points"] == len(sel)


def test_config_dict_records_points_codec():
    """The lineage dict records the points codec version (a constant, not
    a field); reading a dict back refuses a missing or other version."""
    cfg = RollupConfig(num_partitions=3, fill_value=0.0)
    d = cfg.to_dict()
    assert d["points_codec"] == gorilla.FORMAT_VERSION == 2
    assert RollupConfig.from_dict(d) == cfg
    for version in (None, 1, 3):
        bad = dict(d, points_codec=version)
        if version is None:
            del bad["points_codec"]
        with pytest.raises(ValueError, match="rebuild the store"):
            RollupConfig.from_dict(bad)


@pytest.mark.parametrize(
    "bad,match",
    [
        ({"tiers": ("5m",)}, "unknown tiers"),
        ({"tiers": ("1m", "1w")}, "unknown tiers"),
        ({"fill_levels": ("1d",)}, "fill_levels"),
        ({"gap_fill": "linaer"}, "gap_fill"),
        ({"salt_window_days": 0}, "salt_window_days"),
    ],
)
def test_config_rejects_bad_values(bad, match):
    """A config the cascade cannot run fails at construction, not with 0
    rows or inside a reduce task; valid configs round-trip unchanged."""
    with pytest.raises(ValueError, match=match):
        RollupConfig(**bad)
    good = RollupConfig(
        tiers=("1d", "1m"),
        gap_fill="prev",
        fill_levels=(),
        salt_window_days=3,
        fill_value=0.0,
    )
    assert RollupConfig.from_dict(good.to_dict()) == good
    with pytest.raises(ValueError, match=match):
        RollupConfig.from_dict(dict(good.to_dict(), **bad))


def test_gap_filled_counts_only_fills_a_tier_reads():
    """The stage record's ``gap_filled`` counts the fills of the bin
    series that feed a requested tier: none when 1m is the last tier, and
    for (1m, 1h) exactly the 1h tier's points beyond the 1m buckets."""
    from light_curve_feature_ray.stages.rollup import DeriveAssign, RollupWorker

    tbl = synth_transcripts_table(n_convs=10, mean_turns=80, hot_convs=0, seed=4)

    def run(tiers):
        cfg = RollupConfig(
            features=("observation_count",),
            tiers=tiers,
            gap_fill="prev",
            num_partitions=1,
            hot_threshold=None,
            store_points=False,
        )
        worker = RollupWorker(cfg)
        out = worker(DeriveAssign(cfg)(tbl))
        return out, worker.last_stats["gap_filled"]

    out_1m, filled_1m = run(("1m",))
    assert filled_1m == 0
    out, filled = run(("1m", "1h"))
    hour = out.filter(pc.equal(out["tier"], "1h"))
    assert filled == pc.sum(hour["n_points"]).as_py() - out_1m.num_rows > 0
    assert out.filter(pc.equal(out["tier"], "1m")).equals(out_1m)


@pytest.mark.parametrize("gap_fill", ["linear", "prev"])
def test_feature_eval_sees_unit_weights_once_per_tier(monkeypatch, gap_fill):
    """Every tier's series reaches ``GroupedSuite.eval`` with weights
    exactly 1.0 (the raw points, the Bins-semantics bins and their
    gap-fills), which lets the suite alias its weighted stats; and the
    suite runs once per requested tier. The stage record counts each
    tier's NaN feature cells and eval seconds."""
    from light_curve_feature_ray.features.grouped import GroupedSuite
    from light_curve_feature_ray.stages.rollup import DeriveAssign, RollupWorker

    tbl = synth_transcripts_table(
        n_convs=12, mean_turns=60, hot_convs=1, hot_turns=400, seed=21
    )
    cfg = RollupConfig(
        features=("observation_count", "weighted_mean", "skew", "linear_fit"),
        gap_fill=gap_fill,
        num_partitions=1,
        hot_threshold=300,
        store_points=False,
    )
    counts = tbl.group_by("conv_id").aggregate([("conv_id", "count")])
    hot = counts.filter(pc.greater_equal(counts["conv_id_count"], 300))["conv_id"]
    assert len(hot) == 1
    calls = []
    inner = GroupedSuite.eval

    def spy(self, t, m, w, starts):
        calls.append((np.asarray(w).copy(), len(starts)))
        return inner(self, t, m, w, starts)

    monkeypatch.setattr(GroupedSuite, "eval", spy)
    worker = RollupWorker(cfg, hot_list=hot.to_pylist())
    out = worker(DeriveAssign(cfg, hot_list=hot.to_pylist())(tbl))
    tier_rows = [out.filter(pc.equal(out["tier"], tier)) for tier in cfg.tiers]
    assert [n for _, n in calls] == [t.num_rows for t in tier_rows]
    for w, _ in calls:
        assert w.dtype == np.float64 and np.all(w == 1.0)
    stats = worker.last_stats
    assert stats["gap_filled"] > 0
    for tier, rows in zip(cfg.tiers, tier_rows):
        feats = rows.select(worker.feature_names).to_pandas().to_numpy()
        assert stats[f"nan_cells_{tier}"] == np.isnan(feats).sum() > 0
        assert stats[f"eval_s_{tier}"] > 0


def test_gap_fill_exact_values():
    codes = np.zeros(3, dtype=np.int64)
    slots = np.array([10, 11, 15], dtype=np.int64)
    m = np.array([1.0, 2.0, 10.0])
    w = np.array([1.0, 1.0, 2.0])
    c, s, m2, w2 = _gap_fill(codes, slots, m, w, "linear", None)
    np.testing.assert_array_equal(s, [10, 11, 12, 13, 14, 15])
    np.testing.assert_allclose(m2, [1.0, 2.0, 4.0, 6.0, 8.0, 10.0])
    np.testing.assert_allclose(w2, [1.0, 1.0, 1.25, 1.5, 1.75, 2.0])
    c, s, m2, w2 = _gap_fill(codes, slots, m, w, "prev", None)
    np.testing.assert_allclose(m2, [1.0, 2.0, 2.0, 2.0, 2.0, 10.0])
    np.testing.assert_allclose(w2, [1.0, 1.0, 1.0, 1.0, 1.0, 2.0])
    # max_gap: gap of 3 not filled when cap is 2
    c, s, m2, w2 = _gap_fill(codes, slots, m, w, "linear", 2)
    np.testing.assert_array_equal(s, [10, 11, 15])
    # gaps never cross conversations
    codes = np.array([0, 1], dtype=np.int64)
    slots = np.array([0, 5], dtype=np.int64)
    c, s, m2, w2 = _gap_fill(
        codes, slots, np.array([1.0, 2.0]), np.array([1.0, 1.0]), "linear", None
    )
    np.testing.assert_array_equal(s, [0, 5])


@pytest.mark.parametrize(
    "salted,gap_fill",
    [
        (True, "none"),  # salting is value-preserving when no state crosses days
        (False, "linear"),
    ],
)
def test_ray_pipeline_matches_inprocess(ray_session, tmp_path, salted, gap_fill):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.rollup import (
        read_transcripts,
        rollup_dataset,
    )
    from light_curve_feature_ray.sources.synth import synth_transcripts_parquet

    path = synth_transcripts_parquet(
        str(tmp_path / "synth"),
        shards=4,
        n_convs=30,
        mean_turns=40,
        hot_convs=2,
        hot_turns=300,
        seed=11,
    )
    cfg = RollupConfig(
        features=SIMPLE_FEATURES,
        num_partitions=8,
        hot_threshold=250 if salted else None,  # the two hot convs exceed 250
        gap_fill=gap_fill,
        store_points=False,
    )
    ds = read_transcripts(path)
    got = rollup_dataset(ds, cfg).to_pandas()
    got["bucket_us"] = got["bucket_ts"].astype("int64")

    tbl = synth_transcripts_table(
        n_convs=30, mean_turns=40, hot_convs=2, hot_turns=300, seed=11
    )
    cfg_local = RollupConfig(
        features=SIMPLE_FEATURES,
        gap_fill=gap_fill,
        store_points=False,
        hot_threshold=None,
    )
    want = rollup_table(tbl, cfg_local).to_pandas()
    want["bucket_us"] = want["bucket_ts"].astype("int64")
    names = FeatureExtractor.from_config(list(SIMPLE_FEATURES)).names()
    compare_frames(got, want, names)


def test_apply_retention(ray_session):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.rollup import apply_retention

    now_us = 1_700_000_000 * 1_000_000
    day = 86_400 * 1_000_000
    tbl = pa.table(
        {
            "tier": pa.array(["1m", "1m", "1h", "1h", "1d", "1d"]),
            "bucket_ts": pa.array(
                [now_us - 3 * day, now_us - day,        # 1m: old, fresh
                 now_us - 9 * day, now_us - 2 * day,    # 1h: old, fresh
                 now_us - 400 * day, now_us - day],     # 1d: kept forever
                type=pa.timestamp("us"),
            ),
            "v": pa.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        }
    )
    out = apply_retention(
        rd.from_arrow(tbl), now_us,
        {"1m": 2 * 86400, "1h": 7 * 86400, "1d": None},
    ).to_pandas()
    assert sorted(out["v"]) == [2.0, 4.0, 5.0, 6.0]


def test_rollup_dataset_detected_hot_set_matches_reference(ray_session, tmp_path):
    """rollup_dataset detecting the hot set itself salts exactly like the
    in-process reference given that set, at several partition counts."""
    from dataclasses import replace

    import pyarrow.parquet as pq

    from light_curve_feature_ray.pipelines.rollup import (
        read_transcripts,
        rollup_dataset,
    )
    from light_curve_feature_ray.sources.synth import synth_transcripts_parquet

    d = synth_transcripts_parquet(
        str(tmp_path / "in"), shards=2,
        n_convs=10, mean_turns=40, hot_convs=1, hot_turns=600, seed=31,
    )
    cfg = RollupConfig(
        features=("observation_count", "mean", "eta"),
        hot_threshold=300,
        store_points=True,
    )
    table = pq.read_table(d)
    counts = table.group_by("conv_id").aggregate([("conv_id", "count")])
    hot = counts.filter(pc.greater_equal(counts["conv_id_count"], 300))
    hot = hot["conv_id"].to_pylist()
    assert len(hot) == 1

    def srt(df):
        return df.sort_values(["conv_id", "tier", "bucket_ts"]).reset_index(drop=True)

    want = srt(rollup_table(table, cfg, hot_list=hot).to_pandas())
    for parts in (2, 6):
        got = rollup_dataset(
            read_transcripts(d), replace(cfg, num_partitions=parts)
        ).to_pandas()
        pd.testing.assert_frame_equal(srt(got), want)


def test_worker_cache_keys_on_hot_set_content(ray_session):
    """Every rollup_dataset call broadcasts its hot set under a fresh
    object ref; the per-process worker and hot-set caches key on the
    set's content, so repeated calls leave one entry each, and distinct
    sets never grow a cache past its bound."""
    import functools

    import ray

    from light_curve_feature_ray.pipelines import rollup as rp
    from light_curve_feature_ray.stages.rollup import DeriveAssign, pack_derived

    cfg = RollupConfig(
        features=("observation_count", "mean"), num_partitions=1, hot_threshold=None
    )
    tbl = synth_transcripts_table(n_convs=4, mean_turns=10, hot_convs=0, seed=5)
    convs = sorted(set(tbl["conv_id"].to_pylist()))
    hot = convs[:2]
    packed = pack_derived(DeriveAssign(cfg, hot_list=hot)(tbl))

    @ray.remote(num_cpus=0)
    class Worker:
        """One long-lived worker process running shipped task closures."""

        def run(self, fn, batch):
            from light_curve_feature_ray.pipelines import rollup

            out = fn(batch)
            return out, len(rollup._WORKER_CACHE), len(rollup._HOT_CACHE)

    worker = Worker.remote()
    outs = []
    for order in (hot, hot[::-1], hot):
        fn = functools.partial(rp._rollup_pieces, cfg, rp._broadcast_hot(order), None, 0)
        out, n_workers, n_hot = ray.get(worker.run.remote(fn, packed))
        assert (n_workers, n_hot) == (1, 1)
        outs.append(out)
    assert outs[0].equals(outs[1]) and outs[0].equals(outs[2])
    ray.kill(worker)

    rp._WORKER_CACHE.clear()
    rp._HOT_CACHE.clear()
    for i in range(rp._CACHE_MAX + 3):
        rp._rollup_pieces(cfg, rp._broadcast_hot([f"other-{i}"]), None, 0, packed)
    assert len(rp._WORKER_CACHE) == rp._CACHE_MAX
    assert len(rp._HOT_CACHE) == rp._CACHE_MAX
    rp._WORKER_CACHE.clear()
    rp._HOT_CACHE.clear()


def test_auto_num_partitions_rule():
    from light_curve_feature_ray.stages.rollup import auto_num_partitions

    # rows-per-partition band: 9.5M rows -> the measured-optimal ~96
    assert auto_num_partitions(9_534_677, num_cpus=32) == 96
    # small inputs floor at 2 tasks/cpu but never shatter below 1k rows/part
    assert auto_num_partitions(953_000, num_cpus=32) == 64
    assert auto_num_partitions(5_000, num_cpus=32) == 5
    assert auto_num_partitions(0, num_cpus=8) == 1
    # scales linearly with input at fixed cpus (100-TB posture)
    assert auto_num_partitions(953_000_000, num_cpus=32) == 9530


def test_detect_hot_convs_exact(ray_session, tmp_path):
    """The routed hot pre-pass is exact: a conv spread evenly over
    every block at exactly the threshold is hot, one row fewer is not.
    Input units, an Arrow-block Dataset and a pandas-block Dataset of the
    same rows give the same set."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from light_curve_feature_ray.pipelines.rollup import input_units
    from light_curve_feature_ray.stages.rollup import detect_hot_convs

    counts = {"spread": 40, "near": 39, "a": 7, "b": 1}
    pool = {c: n for c, n in counts.items()}
    convs = []
    while any(pool.values()):  # round-robin: every block holds each conv
        for c in counts:
            if pool[c]:
                convs.append(c)
                pool[c] -= 1
    table = pa.table({"conv_id": convs})
    for i in range(4):
        pq.write_table(table.slice(i * 22, 22), str(tmp_path / f"{i}.parquet"))
    units = input_units(str(tmp_path))
    assert len(units) == 4
    frame = table.to_pandas()
    sources = {
        "units": units,
        "arrow": rd.from_arrow(table).repartition(8),
        "pandas": rd.from_pandas(
            [frame.iloc[i : i + 11] for i in range(0, len(frame), 11)]
        ),
    }
    for name, source in sources.items():
        assert sorted(detect_hot_convs(source, 40)) == ["spread"], name
        assert sorted(detect_hot_convs(source, 7)) == ["a", "near", "spread"], name
        assert sorted(detect_hot_convs(source, 1)) == sorted(counts), name
        assert detect_hot_convs(source, 41) == [], name


def test_detect_hot_convs_many_blocks(ray_session, monkeypatch):
    """Many blocks put nearly every conv's count in several partials; the
    routed sum gives the exact hot set with one summing task and with
    more than one (forced through HOT_ROWS_PER_TASK)."""
    from collections import Counter

    import ray.data as rd

    from light_curve_feature_ray.stages import rollup as stages

    rng = np.random.default_rng(7)
    convs = [f"c{i}" for i in rng.zipf(1.6, 3000) % 200]
    ds = rd.from_arrow(pa.table({"conv_id": convs})).repartition(40).materialize()
    counts = Counter(convs)
    summing_tasks = []
    hot_of_part = stages._hot_of_part

    class Counted:
        def remote(self, *args):
            summing_tasks[-1] += 1
            return hot_of_part.remote(*args)

    monkeypatch.setattr(stages, "_hot_of_part", Counted())
    for rows_per_task in (stages.HOT_ROWS_PER_TASK, 100):
        monkeypatch.setattr(stages, "HOT_ROWS_PER_TASK", rows_per_task)
        for threshold in (20, 60):
            want = sorted(c for c, n in counts.items() if n >= threshold)
            assert len(want) > 1
            summing_tasks.append(0)
            assert sorted(stages.detect_hot_convs(ds, threshold)) == want
    assert summing_tasks[:2] == [1, 1]
    assert min(summing_tasks[2:]) > 1


def test_auto_num_partitions_never_guesses_cpus(monkeypatch):
    """Without a CPU count the rule asks the Ray cluster, starting Ray
    first when no session exists; it never assumes a cluster size (a
    guess of 8 CPUs made 16 partitions of 121 200 rows on one CPU)."""
    import ray

    from light_curve_feature_ray.stages.rollup import auto_num_partitions

    def unreachable():
        raise RuntimeError("no cluster")

    monkeypatch.setattr(ray, "is_initialized", lambda: True)
    monkeypatch.setattr(ray, "cluster_resources", unreachable)
    with pytest.raises(RuntimeError, match="no cluster"):
        auto_num_partitions(121_200)

    started = []
    monkeypatch.setattr(ray, "is_initialized", lambda: bool(started))
    monkeypatch.setattr(ray, "init", lambda *a, **k: started.append(True))
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 1.0})
    assert auto_num_partitions(121_200) == 2
    assert started == [True]


def test_auto_partitions_resolution(ray_session):
    """RollupConfig(num_partitions=None) resolves deterministically and
    produces the same rows as an explicit partition count (partition-count
    invariance extends to the auto rule)."""
    from dataclasses import replace

    import ray.data as rd

    from light_curve_feature_ray.pipelines.rollup import rollup_dataset, rollup_table
    from light_curve_feature_ray.stages.rollup import RollupConfig

    turns_table = synth_transcripts_table(n_convs=40, seed=3)
    cfg_auto = RollupConfig(
        features=("observation_count", "mean"), tiers=("1h",),
        gap_fill="none", hot_threshold=None, store_points=False,
    )
    assert cfg_auto.num_partitions is None
    out_auto = rollup_table(turns_table, cfg_auto)
    out_16 = rollup_table(turns_table, replace(cfg_auto, num_partitions=16))
    a = out_auto.to_pandas().sort_values(["conv_id", "tier", "bucket_ts"]).reset_index(drop=True)
    b = out_16.to_pandas().sort_values(["conv_id", "tier", "bucket_ts"]).reset_index(drop=True)
    import pandas as pd

    pd.testing.assert_frame_equal(a, b)

    ds = rd.from_arrow(turns_table)
    out_ds = (
        rollup_dataset(ds, cfg_auto)
        .to_pandas()
        .sort_values(["conv_id", "tier", "bucket_ts"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out_ds[a.columns], a)


def test_transformed_dataset_runs_once_per_block(ray_session, tmp_path):
    """With num_partitions set and no hot pre-pass, rollup_dataset
    executes a transformed Dataset's lineage once: its map_batches UDF
    runs exactly once per block (the driver's ``band_key`` shape), and
    the rows equal the in-process reference's."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.rollup import rollup_dataset, rollup_table

    calls = tmp_path / "calls"
    calls.touch()

    def tag(batch: pa.Table) -> pa.Table:
        with open(calls, "a") as f:
            f.write("x\n")
        return batch

    table = synth_transcripts_table(n_convs=12, mean_turns=20, hot_convs=0, seed=9)
    blocks = [table.slice(i, 80) for i in range(0, table.num_rows, 80)]
    assert len(blocks) > 2
    cfg = RollupConfig(
        features=("observation_count", "mean"), num_partitions=3,
        hot_threshold=None, store_points=True,
    )
    ds = rd.from_arrow(blocks).map_batches(tag, batch_format="pyarrow", batch_size=None)
    got = rollup_dataset(ds, cfg).to_pandas()
    assert len(calls.read_text().splitlines()) == len(blocks)
    keys = ["conv_id", "tier", "bucket_ts"]
    want = rollup_table(table, cfg).to_pandas().sort_values(keys).reset_index(drop=True)
    got = got.sort_values(keys).reset_index(drop=True)
    pd.testing.assert_frame_equal(got[want.columns], want)
