"""The driver's rollup queries (__ray_entry__.py) on a small synthetic
``events`` table whose conversations cross hour and day boundaries:
``rollup_incremental`` (job store + ``update_rollup_job``),
``rollup_1h_by_band`` and ``rollup_1h_cascade`` must match their
``oracle_sql()`` twins in DuckDB under the driver's comparison
(scripts/check_oracle.py), and the flagship ``rollup_full_tiers`` —
which the driver checks by row count only — must equal the in-process
``rollup_table`` over the adapter's turns, Gorilla points included."""

import importlib.util
from pathlib import Path

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def entry_mod():
    return _load("entry_under_test", ROOT / "__ray_entry__.py")


@pytest.fixture(scope="module")
def check_oracle():
    return _load("check_oracle_under_test", ROOT / "scripts" / "check_oracle.py")


@pytest.fixture(scope="module")
def sf_dir(tmp_path_factory):
    """events.parquet with 8 users starting near 22:40 on one day: bursts
    of events within a minute, gaps of minutes and of hours, so each
    conversation spans several minutes, hours and (mostly) days, and every
    user has more than 12 events (the incremental query's split)."""
    rng = np.random.default_rng(7)
    base = np.datetime64("2024-01-01T22:40:00", "us")
    frames = []
    for user in range(8):
        n = int(rng.integers(16, 60))
        kind = rng.choice(3, size=n, p=[0.6, 0.3, 0.1])
        gap_s = np.where(
            kind == 0,
            rng.integers(0, 50, size=n),
            np.where(
                kind == 1,
                rng.integers(60, 1800, size=n),
                rng.integers(3600, 36000, size=n),
            ),
        )
        start = base + np.timedelta64(int(rng.integers(0, 7200)), "s")
        ts = start + (np.cumsum(gap_s) * 1_000_000).astype("timedelta64[us]")
        props = [
            None if rng.random() < 0.05 else "x" * int(rng.integers(0, 40))
            for _ in range(n)
        ]
        frames.append(
            pd.DataFrame(
                {
                    "ts": ts,
                    "user_id": np.int64(user),
                    "event_type": rng.choice(["click", "view", "error"], size=n),
                    "value": rng.normal(size=n),
                    "props": props,
                }
            )
        )
    df = pd.concat(frames, ignore_index=True).sort_values("ts", kind="mergesort")
    df.insert(0, "event_id", np.arange(len(df), dtype=np.int64))
    days = df.groupby("user_id")["ts"].agg(lambda s: s.dt.floor("D").nunique())
    assert (days > 1).sum() >= 4
    out = tmp_path_factory.mktemp("sf")
    pq.write_table(
        pa.Table.from_pandas(df, preserve_index=False).cast(
            pa.schema(
                [
                    ("event_id", pa.int64()),
                    ("ts", pa.timestamp("us")),
                    ("user_id", pa.int64()),
                    ("event_type", pa.string()),
                    ("value", pa.float64()),
                    ("props", pa.string()),
                ]
            )
        ),
        out / "events.parquet",
    )
    return str(out)


@pytest.mark.parametrize(
    "name", ["rollup_incremental", "rollup_1h_by_band", "rollup_1h_cascade"]
)
def test_rollup_query_matches_oracle(
    ray_session, entry_mod, check_oracle, sf_dir, name
):
    got = entry_mod.queries()[name](sf_dir).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf_dir}/events.parquet'")
    want = con.execute(entry_mod.oracle_sql()[name]).df()
    assert len(got) > 0
    assert check_oracle.compare(name, got, want) == []


def test_rollup_full_tiers_equals_rollup_table(ray_session, entry_mod, sf_dir):
    import ray

    from light_curve_feature_ray.pipelines.rollup import rollup_table
    from light_curve_feature_ray.stages.rollup import (
        DEFAULT_FEATURES,
        RollupConfig,
    )

    def arrow(ds) -> pa.Table:
        return pa.concat_tables(
            [b for b in ray.get(ds.to_arrow_refs()) if b.num_rows]
        )

    cfg = RollupConfig(
        features=DEFAULT_FEATURES,
        tiers=("1m", "1h", "1d"),
        gap_fill="linear",
        store_points=True,
        num_partitions=16,
        hot_threshold=None,
    )
    want = entry_mod._round6(rollup_table(arrow(entry_mod._turns(sf_dir)), cfg))
    got = arrow(entry_mod.queries()["rollup_full_tiers"](sf_dir))
    assert set(want["tier"].to_pylist()) == {"1m", "1h", "1d"}
    keys = [(k, "ascending") for k in ("conv_id", "tier", "bucket_ts")]
    got, want = got.sort_by(keys), want.sort_by(keys)
    assert got.schema == want.schema
    for name in want.column_names:
        assert got[name].equals(want[name]), name
