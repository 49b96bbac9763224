"""The rollup engine: derive → one routed exchange → per-partition tier cascade.

Pipeline shape (SURVEY.md §3, §7):

1. ``derive``: stateless, over zero-copy Arrow — project each turn to
   (conv_id, turn_idx, ts_us, m=len(text), w=1.0) and assign a partition
   id ``part = hash64(conv_id) % P``. Hot conversations (detected by an
   exact count pass whose partial counts are summed by one task, or in
   the same routed shape when there are many, :func:`detect_hot_convs`,
   and broadcast via ``ray.put``) are
   salted: their part key also mixes ``day // salt_window_days``, spreading
   a huge conversation across partitions by time range. Tier buckets are at
   most 1 day and salt ranges are whole days, so no bucket ever spans two
   salt ranges; gap-fill for hot convs is bounded to the salt window
   (documented skew/correctness trade-off). ``pack_derived`` then folds
   each block to one list-packed row per (part, conv run).
2. The routed exchange (stages/exchange.py): the one all-to-all shape.
   Each map-side task splits its packed block by ``part`` into P pieces
   (no sort, no merge: a partition's tier rows depend only on the rows
   routed to it), and one reduce task per partition concatenates its
   pieces and runs :class:`RollupWorker` over the whole partition:
   lexsort by (conv, turn_idx), first-wins dedup of (conv_id, turn_idx),
   then the tier cascade, one step per ``TIERS`` entry:

   - the 1m tier reads the raw points; each later tier reads the
     previous tier's *bin series* (Bins semantics, reference
     /root/reference/src/features/bins.rs:171-201: t* = center, m* =
     weighted mean, w* = sum(w)/N), gap-filled (prev/linear) when the
     previous tier is in ``fill_levels``;
   - a step buckets its series by the tier width, evaluates the features
     of every (conv, bucket) at once (features/grouped.py) when the tier
     is requested, and the cascade stops after the last requested tier;
   - per bucket, the points that fed the tier are stored Gorilla-compressed
     (codec/gorilla.py) in a binary column.

   The worker is a callable class: its state (the configured feature
   suite, incl. the periodogram FFT scratch cache) is built once in
   ``__init__`` and cached per Ray worker process (pipelines/rollup.py).

No other shuffle exists: the hot pre-pass and the incremental update
(pipelines/update.py) route the same way, and the cascade is conv-local
once partitioned.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..codec import gorilla
from ..features.extractor import FeatureExtractor
from ..features.grouped import GroupedSuite
from .exchange import PART_ROWS, cluster_cpus, dataset_blocks, route, split_by_part

US_PER_MIN = 60_000_000
MIN_PER_DAY = 1440  # salt windows are whole days

#: tier name -> bucket width in minutes, in cascade order: the first tier
#: reads the raw points, each later one the previous tier's gap-filled bins
TIERS = {"1m": 1, "1h": 60, "1d": 1440}
#: tiers whose bin series may be gap-filled (the last tier's bins feed none)
FILL_LEVELS = ("1m", "1h")
GAP_FILL_MODES = ("none", "prev", "linear")

DEFAULT_FEATURES: tuple = (
    "observation_count",
    "mean",
    "weighted_mean",
    "standard_deviation",
    "amplitude",
    "duration",
    "skew",
    "kurtosis",
    {"name": "beyond_n_std", "nstd": 1.0},
    "eta",
    "eta_e",
    "stetson_k",
    "linear_trend",
    "linear_fit",
    {"name": "periodogram", "peaks": 1},
)


@dataclass
class RollupConfig:
    features: tuple = DEFAULT_FEATURES
    tiers: tuple = ("1m", "1h", "1d")
    gap_fill: str = "linear"  # one of GAP_FILL_MODES
    fill_levels: tuple = FILL_LEVELS  # which bin series get gap-filled
    max_fill_gap: int = 2880  # max missing slots filled per gap (None = all)
    #: None = auto-size at pipeline entry (``auto_num_partitions``:
    #: a rows-per-partition target band instead of a fixed constant, so the
    #: one-partition-per-reduce-task memory bound holds at any input scale)
    num_partitions: int | None = None
    hot_threshold: int | None = 10_000  # turns; None disables salting
    salt_window_days: int = 1
    store_points: bool = True
    fill_value: float = float("nan")

    def __post_init__(self):
        unknown = [t for t in self.tiers if t not in TIERS]
        if unknown:
            raise ValueError(f"unknown tiers {unknown}; tiers are {list(TIERS)}")
        unknown = [t for t in self.fill_levels if t not in FILL_LEVELS]
        if unknown:
            raise ValueError(
                f"fill_levels {unknown} not in {list(FILL_LEVELS)}"
            )
        if self.gap_fill not in GAP_FILL_MODES:
            raise ValueError(
                f"gap_fill {self.gap_fill!r} not in {list(GAP_FILL_MODES)}"
            )
        if self.salt_window_days < 1:
            raise ValueError(
                f"salt_window_days must be >= 1, got {self.salt_window_days}"
            )

    def extractor(self) -> FeatureExtractor:
        return FeatureExtractor.from_config(list(self.features))

    def resolved(self, n_rows: int, num_cpus: int | None = None) -> "RollupConfig":
        """Copy with ``num_partitions`` resolved by the auto rule if unset.
        The single place the resolution rule lives — it is part of the
        worker-cache and checkpoint-lineage identity."""
        if self.num_partitions is not None:
            return self
        from dataclasses import replace

        return replace(
            self,
            num_partitions=auto_num_partitions(n_rows, num_cpus=num_cpus),
        )

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "RollupConfig":
        """Inverse of :meth:`to_dict` (checkpoint-lineage round-trip).
        Raises ``ValueError`` for a config recorded with another points
        codec version (or none: stores from before versioning): its
        blobs are not decoded, the store is rebuilt."""
        d = dict(d)
        version = d.pop("points_codec", None)
        if version != gorilla.FORMAT_VERSION:
            raise ValueError(
                f"the store's points codec is version {version}, this engine "
                f"writes version {gorilla.FORMAT_VERSION}; rebuild the store "
                "with run_rollup_job"
            )
        for k in ("features", "tiers", "fill_levels"):
            if k in d:
                d[k] = tuple(d[k])
        if d.get("fill_value") == "nan":
            d["fill_value"] = float("nan")
        return cls(**d)

    def to_dict(self) -> dict[str, Any]:
        # fill_value must be part of the identity: worker caches and
        # checkpoint lineage key on this dict (NaN isn't portable JSON,
        # so serialize it as a string token)
        fv = self.fill_value
        fv_ser = "nan" if isinstance(fv, float) and np.isnan(fv) else fv
        return {
            "features": list(self.features),
            "tiers": list(self.tiers),
            "gap_fill": self.gap_fill,
            "fill_levels": list(self.fill_levels),
            "max_fill_gap": self.max_fill_gap,
            "num_partitions": self.num_partitions,
            "hot_threshold": self.hot_threshold,
            "salt_window_days": self.salt_window_days,
            "store_points": self.store_points,
            "fill_value": fv_ser,
            # not a field: the format of the points column, so a store in
            # another format fails the lineage checks instead of decoding
            "points_codec": gorilla.FORMAT_VERSION,
        }


def auto_num_partitions(
    n_rows: int,
    num_cpus: int | None = None,
    target_rows: int = PART_ROWS,
    max_parts: int = 65_536,
) -> int:
    """Partition count from a rows-per-partition target band.

    ~``target_rows`` rows per reduce partition (one partition = one reduce
    task holding its partition in memory — the band keeps that bounded at
    any input size), floored at 2 tasks per CPU slot for wave smoothing and
    capped so tiny inputs don't shatter into empty partitions. 100k rows/
    partition reproduces the measured-optimal P=96 for the 9.5M-turn bench
    (BASELINE.md) while scaling linearly with the input."""
    if num_cpus is None:
        num_cpus = cluster_cpus()
    by_rows = -(-int(n_rows) // target_rows) if n_rows > 0 else 1
    parts = max(by_rows, 2 * num_cpus)
    parts = min(parts, max(-(-int(n_rows) // 1_000), 1), max_parts)
    return max(parts, 1)


@dataclass(frozen=True)
class InputUnit:
    """Consecutive row groups of the input, in sorted file order, possibly
    spanning files: the input of one map task of the rollup or its hot
    pre-pass (``pipelines.rollup.input_units`` makes them from parquet
    metadata). ``runs`` holds one ``(path, row_groups)`` pair per file."""

    runs: tuple[tuple[str, tuple[int, ...]], ...]
    rows: int

    def read(self, columns: list[str] | None) -> pa.Table:
        """The unit's rows, its runs read and concatenated in order."""
        tables = []
        for path, row_groups in self.runs:
            with pq.ParquetFile(path) as f:
                tables.append(f.read_row_groups(list(row_groups), columns=columns))
        return pa.concat_tables(tables, promote_options="permissive")


# ---------------------------------------------------------------------------
# hashing (deterministic across processes; vectorized)
# ---------------------------------------------------------------------------


def hash_strings(arr: pa.Array | pa.ChunkedArray, seed: int = 0) -> np.ndarray:
    """Deterministic vectorized 64-bit hash of a string column via polars
    (ahash with fixed seeds; stable across processes for a given polars
    version). A job store outlives the job: ``update_rollup_job`` routes a
    delta with this hash against partitions written earlier, so the store
    is tied to the polars version that wrote it (ROADMAP direction 6)."""
    import polars as pl

    s = pl.from_arrow(arr)
    return s.hash(seed=seed).to_numpy().astype(np.uint64)


# ---------------------------------------------------------------------------
# derive + partition assignment stage
# ---------------------------------------------------------------------------


def assign_parts(
    h: np.ndarray,
    ts_us: np.ndarray,
    config: "RollupConfig",
    is_hot: np.ndarray | None,
) -> np.ndarray:
    """Partition assignment shared by DeriveAssign and the incremental
    update path (pipelines/update.py): plain ``hash % P`` for normal
    conversations, day-window-salted mixing for hot ones (``is_hot``, a
    boolean mask over the rows, or None when no conv is hot) — rows of a
    hot conv spread over partitions by time window, and the worker's
    salt-window-truncated gap-fill keeps results partition-invariant."""
    part = (h % np.uint64(config.num_partitions)).astype(np.int32)
    if is_hot is not None and is_hot.any():
        days = (ts_us // (86_400 * 1_000_000)).astype(np.uint64)
        salt = days // np.uint64(config.salt_window_days)
        mixed = (h ^ (salt * np.uint64(0x9E3779B97F4A7C15))) % np.uint64(
            config.num_partitions
        )
        part = np.where(is_hot, mixed.astype(np.int32), part)
    return part


def hot_mask(conv: pa.Array | pa.ChunkedArray, hot) -> np.ndarray | None:
    """Which values of the string column ``conv`` are in ``hot``, as a
    boolean array for :func:`assign_parts`; None for an empty ``hot``."""
    if not hot:
        return None
    value_set = pa.array(list(hot), type=pa.string())
    return pc.is_in(conv, value_set=value_set).to_numpy(zero_copy_only=False)


#: bound of ``turn_idx``: the worker sorts on ``(code << 32) | turn_idx``
#: and the update offsets delta turns by it
MAX_TURN_IDX = 2**31


class DeriveAssign:
    """Stateless per-table callable: derive (t, m, w) and assign
    the (salted) partition key. The hot-conv list is broadcast once via
    ``ray.put`` and resolved per worker (pipelines/rollup.py). Raises
    ``ValueError`` for a ``turn_idx`` outside [0, 2**31): every rollup,
    job and update derives through here, before anything is written."""

    def __init__(self, config: RollupConfig, hot_list=None):
        self.config = config
        self.hot = set(hot_list) if hot_list else set()

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.config
        lo, hi = pc.min_max(batch["turn_idx"]).values()
        if lo.is_valid and (lo.as_py() < 0 or hi.as_py() >= MAX_TURN_IDX):
            raise ValueError(
                f"turn_idx must be in [0, 2**31), got [{lo.as_py()}, {hi.as_py()}]"
            )
        ts_us = batch["ts"].cast(pa.int64())
        # null text counts as zero-length (deterministic total rule)
        m = pc.cast(
            pc.fill_null(pc.utf8_length(batch["text"]), 0), pa.float64()
        )
        h = hash_strings(batch["conv_id"])
        part = assign_parts(
            h,
            ts_us.to_numpy(zero_copy_only=False),
            cfg,
            hot_mask(batch["conv_id"], self.hot),
        )
        return pa.table(
            {
                # dictionary-encoded: the conv_id strings dominate the
                # exchanged bytes; indices + per-block dictionaries cut the
                # shuffle payload ~30% (chunk dictionaries are unified by
                # combine_chunks on the reduce side)
                "conv_id": pc.dictionary_encode(
                    batch["conv_id"].combine_chunks()
                ),
                "turn_idx": batch["turn_idx"],
                "ts_us": ts_us,
                "m": m,
                "part": pa.array(part, type=pa.int32()),
            }
        )


def pack_derived(batch: pa.Table) -> pa.Table:
    """Exchange combiner: collapse this block's derived rows to ONE row
    per (part, conv) with the (turn_idx, ts_us, m) triples packed as
    Arrow list columns. The exchange's split (an argsort and one take
    per partition) works per ROW — packing gives it rows/(turns-per-run)
    times fewer rows, while the list values ride as one contiguous
    buffer per column (no per-run Python: one composite argsort +
    ListArray.from_arrays wraps). The reduce side unpacks with
    :func:`unpack_packed` before the unchanged worker — dedup and all
    ordering happen in the worker exactly as with the row exchange, so
    output (including retry/duplicate resolution) is bit-identical.
    """
    n = batch.num_rows
    if n == 0:
        return pa.table(
            {
                "part": pa.array([], type=pa.int32()),
                "conv_id": pa.array([], type=pa.string()),
                "ti": pa.array([], type=pa.list_(pa.int64())),
                "ts": pa.array([], type=pa.list_(pa.int64())),
                "m": pa.array([], type=pa.list_(pa.float64())),
            }
        )
    conv = batch["conv_id"].combine_chunks()
    if not pa.types.is_dictionary(conv.type):
        conv = pc.dictionary_encode(conv)
    codes = conv.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    part = batch["part"].to_numpy(zero_copy_only=False).astype(np.int64)
    key = (part << np.int64(32)) | codes
    # A packed row per RUN of equal (part, conv), not per unique value:
    # ingest layouts keep a conv's turns contiguous, so runs ~ convs and
    # the list arrays wrap the ORIGINAL buffers zero-copy (no sort, no
    # gather). A conv split across several runs just yields several
    # packed rows — the reduce side merges them anyway. Only when the
    # block is badly interleaved (runs > n/4) is a sort worth its cost.
    new_run = np.r_[True, key[1:] != key[:-1]]
    n_runs = int(new_run.sum())
    if n_runs > n // 4:
        order = np.argsort(key)
        key = key[order]
        part_s = part[order]
        codes_s = codes[order]
        ti = (
            batch["turn_idx"]
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)[order]
        )
        ts = batch["ts_us"].to_numpy(zero_copy_only=False)[order]
        m = batch["m"].to_numpy(zero_copy_only=False)[order]
        new_run = np.r_[True, key[1:] != key[:-1]]
    else:
        part_s = part
        codes_s = codes
        ti = batch["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = batch["ts_us"].to_numpy(zero_copy_only=False)
        m = batch["m"].to_numpy(zero_copy_only=False)
    starts = np.flatnonzero(new_run)
    offsets = pa.array(
        np.append(starts, n).astype(np.int32), type=pa.int32()
    )
    return pa.table(
        {
            "part": pa.array(part_s[starts].astype(np.int32), type=pa.int32()),
            # dictionary-encoded conv ids: per-run codes over this
            # block's dictionary (same shuffle-byte trick as DeriveAssign)
            "conv_id": pa.DictionaryArray.from_arrays(
                pa.array(codes_s[starts].astype(np.int32), type=pa.int32()),
                conv.dictionary,
            ),
            "ti": pa.ListArray.from_arrays(offsets, pa.array(ti)),
            "ts": pa.ListArray.from_arrays(offsets, pa.array(ts)),
            "m": pa.ListArray.from_arrays(offsets, pa.array(m)),
        }
    )


def unpack_packed(batch: pa.Table) -> pa.Table:
    """Inverse of :func:`pack_derived` for one co-located partition group:
    flatten the list columns back to derived rows (row order is
    irrelevant — the worker sorts and dedups internally)."""
    if batch.num_rows == 0:
        return pa.table(
            {
                "conv_id": pa.array([], type=pa.string()),
                "turn_idx": pa.array([], type=pa.int64()),
                "ts_us": pa.array([], type=pa.int64()),
                "m": pa.array([], type=pa.float64()),
            }
        )
    b = batch.combine_chunks()
    ti = b["ti"].combine_chunks()
    counts = pc.list_value_length(ti).to_numpy(zero_copy_only=False)
    row_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    return pa.table(
        {
            "conv_id": b["conv_id"].take(pa.array(row_idx)),
            "turn_idx": ti.flatten(),
            "ts_us": b["ts"].combine_chunks().flatten(),
            "m": b["m"].combine_chunks().flatten(),
        }
    )


def _partial_counts(batch: pa.Table) -> pa.Table:
    counts = batch.group_by("conv_id").aggregate([("conv_id", "count")])
    return pa.table(
        {
            "conv_id": counts["conv_id"],
            "cnt": counts["conv_id_count"].cast(pa.int64()),
        }
    )


def input_rows(source, columns: list[str] | None = None) -> pa.Table:
    """A map input as one Arrow table of ``columns`` (all when None): an
    :class:`InputUnit` reads them from its row groups, a Dataset block
    (Arrow or pandas) converts."""
    if isinstance(source, InputUnit):
        return source.read(columns)
    from ray.data.block import BlockAccessor  # only a block's task needs Ray Data

    table = BlockAccessor.for_block(source).to_arrow()
    return table if columns is None else table.select(columns)


@ray.remote(num_returns=2)
def _count_unit(source) -> tuple[pa.Table, int]:
    """A map input's (conv_id, cnt) partial rows and their number; an
    input unit reads the ``conv_id`` column only."""
    partials = _partial_counts(input_rows(source, ["conv_id"]))
    return partials, partials.num_rows


@ray.remote
def _route_partials(block: pa.Table, num_parts: int) -> list:
    """Split partial rows by ``hash(conv_id) % num_parts``."""
    part = hash_strings(block["conv_id"].cast(pa.string())) % np.uint64(num_parts)
    return split_by_part(
        block.append_column("part", pa.array(part.astype(np.int32))), num_parts
    )


@ray.remote
def _hot_of_part(threshold: int, *pieces: pa.Table) -> list:
    total = pa.concat_tables(pieces).group_by("conv_id").aggregate([("cnt", "sum")])
    return total.filter(pc.greater_equal(total["cnt_sum"], threshold))["conv_id"].to_pylist()


#: most (block, conv) partial rows one summing task of
#: :func:`detect_hot_convs` receives
HOT_ROWS_PER_TASK = 1_000_000


def detect_hot_convs(source, threshold: int):
    """Pre-pass: the exact set of conversations with at least
    ``threshold`` rows. ``source`` is a Dataset or an iterable of
    :class:`InputUnit` (``pipelines.rollup.input_units``).

    One plain task per map input (a unit, or a non-empty block of the
    Dataset, stages/exchange.py) yields one (conv_id, cnt) partial row
    per conv it holds. The partials are summed in
    ``ceil(partial rows / HOT_ROWS_PER_TASK)`` parts (at most one per
    input), one summing task per part returning its convs that reach
    ``threshold``. One part takes every partial as it is; more take the
    rollup's routed shape, one task per input splitting its partials by
    conv_id hash. Nothing is summed on the driver.
    """
    from ray.data import Dataset

    inputs = dataset_blocks(source) if isinstance(source, Dataset) else source
    counted = [_count_unit.remote(x) for x in inputs]
    refs = [partials for partials, _ in counted]
    n_partials = sum(ray.get([n for _, n in counted]))
    if not n_partials:
        return []
    num_parts = min(len(refs), -(-n_partials // HOT_ROWS_PER_TASK))
    if num_parts == 1:
        parts = [refs]
    else:
        split = _route_partials.options(num_returns=num_parts + 1)
        parts = route([split.remote(r, num_parts) for r in refs]).values()
    found = ray.get([_hot_of_part.remote(threshold, *p) for p in parts])
    return [conv for convs in found for conv in convs]


# ---------------------------------------------------------------------------
# per-partition tier cascade
# ---------------------------------------------------------------------------


def _segment_starts(*keys: np.ndarray) -> np.ndarray:
    """Start offsets of runs of equal key tuples (arrays already sorted)."""
    n = keys[0].shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    change = np.zeros(n, dtype=bool)
    change[0] = True
    for k in keys:
        change[1:] |= k[1:] != k[:-1]
    return np.flatnonzero(change).astype(np.int64)


def _bin_series(
    codes: np.ndarray,
    slot: np.ndarray,
    m: np.ndarray,
    w: np.ndarray,
    starts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Collapse each (conv, slot) segment to its Bins-semantics bin:
    returns (codes_b, slot_b, m_b, w_b)."""
    ends = np.r_[starts[1:], codes.shape[0]]
    n = (ends - starts).astype(np.float64)
    sum_w = np.add.reduceat(w, starts)
    sum_mw = np.add.reduceat(m * w, starts)
    return codes[starts], slot[starts], sum_mw / sum_w, sum_w / n


def _gap_fill(
    codes: np.ndarray,
    slot: np.ndarray,
    m: np.ndarray,
    w: np.ndarray,
    mode: str,
    max_gap: int | None,
    seg: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fill missing integer slots between consecutive bins of each conv.

    mode 'prev': copy previous bin's (m, w); 'linear': linear interpolation
    of both towards the next bin. Gaps longer than ``max_gap`` slots are
    left unfilled. Input sorted by (codes, slot); output likewise.

    ``seg`` (same length as codes) is an extra segmentation key: fills never
    cross a seg boundary. Used to truncate gap-fill at salt-window edges for
    hot conversations, so a hot conv's output is identical whether or not
    two of its salt windows happen to hash into the same partition (output
    must be independent of num_partitions).
    """
    if mode == "none" or codes.shape[0] == 0:
        return codes, slot, m, w
    same = codes[1:] == codes[:-1]
    if seg is not None:
        same = same & (seg[1:] == seg[:-1])
    gap = np.where(same, slot[1:] - slot[:-1] - 1, 0)
    if max_gap is not None:
        gap = np.where(gap > max_gap, 0, gap)
    fill_after = np.r_[gap, 0]
    counts = 1 + fill_after
    total = int(counts.sum())
    if total == codes.shape[0]:
        return codes, slot, m, w
    idx = np.repeat(np.arange(codes.shape[0]), counts)
    out_codes = codes[idx]
    # offset within each run: 0 for the real bin, 1..gap for fills
    run_starts = np.r_[0, np.cumsum(counts)[:-1]]
    offsets = np.arange(total) - run_starts[idx]
    out_slot = slot[idx] + offsets
    if mode == "prev":
        out_m = m[idx]
        out_w = w[idx]
    elif mode == "linear":
        nxt = np.minimum(idx + 1, codes.shape[0] - 1)
        denom = (fill_after[idx] + 1).astype(np.float64)
        frac = offsets / denom
        out_m = m[idx] + frac * (m[nxt] - m[idx])
        out_w = w[idx] + frac * (w[nxt] - w[idx])
    else:
        raise ValueError(f"unknown gap_fill mode {mode!r}")
    return out_codes, out_slot, out_m, out_w


class RollupWorker:
    """Reduce-side callable: processes one partition table into tier rows.

    ``hot_list`` must be the same hot-conversation set given to
    :class:`DeriveAssign`: gap-fill for those convs is truncated at
    salt-window boundaries (see ``_gap_fill``) so results do not depend on
    which salt windows co-hash into this partition.

    After each call ``last_stats`` holds that call's stage record: rows
    in, duplicates dropped, gap-filled points (of the bin series that
    feed a requested tier), per requested tier the NaN feature cells
    (``nan_cells_<tier>``) and the feature-eval seconds (``eval_s_<tier>``),
    and the call's wall and CPU seconds. The keys are flat, so a fold's
    record adds onto the previous one (``pipelines.update._stage``).
    Partition writers put it in the manifest (state/checkpoint.py).
    """

    def __init__(self, config: RollupConfig, hot_list: Iterable[str] | None = None):
        self.config = config
        self.suite = GroupedSuite(config.extractor(), config.fill_value)
        self.feature_names = self.suite.names
        self.hot = frozenset(hot_list) if hot_list else frozenset()
        self.last_stats: dict[str, Any] = {}

    def _hot_codes(self, dictionary: pa.Array) -> np.ndarray | None:
        """Boolean mask over dictionary codes: which convs are hot."""
        mask = hot_mask(dictionary, self.hot)
        return mask if mask is not None and mask.any() else None

    def _tier_table(
        self,
        dictionary: pa.Array,
        codes: np.ndarray,
        bucket_us: np.ndarray,
        feats: dict[str, np.ndarray],
        points: pa.Array | None,
        tier: str,
        n_pts: np.ndarray,
    ) -> pa.Table:
        cols: dict[str, Any] = {
            "conv_id": pa.DictionaryArray.from_arrays(
                pa.array(codes, type=pa.int32()), dictionary
            ).cast(pa.string()),
            "tier": pa.repeat(pa.scalar(tier, pa.string()), codes.shape[0]),
            "bucket_ts": pa.array(bucket_us, type=pa.timestamp("us")),
            "n_points": pa.array(n_pts, type=pa.int64()),
        }
        if points is not None:
            cols["points"] = points
        for name in self.feature_names:
            cols[name] = pa.array(feats[name], type=pa.float64())
        return pa.table(cols)

    def __call__(self, batch: pa.Table) -> pa.Table:
        wall, cpu = time.perf_counter(), time.process_time()
        stats = {"rows_in": batch.num_rows, "dups_dropped": 0, "gap_filled": 0}
        out = self._cascade(batch, stats) if batch.num_rows else self._empty()
        stats["worker_s"] = time.perf_counter() - wall
        stats["worker_cpu_s"] = time.process_time() - cpu
        self.last_stats = stats
        return out

    def _cascade(self, batch: pa.Table, stats: dict[str, Any]) -> pa.Table:
        cfg = self.config
        conv_dict = pc.dictionary_encode(batch["conv_id"].combine_chunks())
        codes = conv_dict.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        dictionary = conv_dict.dictionary
        turn = batch["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts_us = batch["ts_us"].to_numpy(zero_copy_only=False)
        m = batch["m"].to_numpy(zero_copy_only=False)

        # single argsort on a composite key beats a 2-key lexsort (turn_idx
        # is below 2**32 — DeriveAssign bounds the input's, the update's
        # synthesized ones stay under 2 * MAX_TURN_IDX — so
        # (code << 32) | turn is collision-free)
        order = np.argsort((codes << np.int64(32)) | turn)
        codes, turn, ts_us, m = codes[order], turn[order], ts_us[order], m[order]
        keep = np.ones(codes.shape[0], dtype=bool)
        keep[1:] = (codes[1:] != codes[:-1]) | (turn[1:] != turn[:-1])
        if not keep.all():
            # duplicates present: arrival order is not deterministic across
            # Ray retries/runs, so break ties on (min ts_us, then min m) —
            # resume/retry must produce identical bytes (state/checkpoint.py)
            order = np.lexsort((m, ts_us, turn, codes))
            codes, turn, ts_us, m = (x[order] for x in (codes, turn, ts_us, m))
            keep[1:] = (codes[1:] != codes[:-1]) | (turn[1:] != turn[:-1])
            codes, turn, ts_us, m = codes[keep], turn[keep], ts_us[keep], m[keep]
            stats["dups_dropped"] = batch.num_rows - codes.shape[0]
        w = np.ones_like(m)

        # the series a tier reads: (codes, slot) sorted, ``unit`` minutes
        # per slot, times t (s) and ts_us; first the raw points
        slot, unit = ts_us // US_PER_MIN, 1
        # within conv, turn order is normally time order already — verify
        # with one cheap pass and only re-sort when a conv's ts regresses
        if not np.all((codes[1:] != codes[:-1]) | (slot[1:] >= slot[:-1])):
            order = np.lexsort((turn, slot, codes))
            codes, ts_us, m, slot = (x[order] for x in (codes, ts_us, m, slot))
        t = ts_us / 1e6
        hot_codes = self._hot_codes(dictionary)
        todo = set(cfg.tiers)
        tables = []
        for level, (tier, width) in enumerate(TIERS.items()):
            bucket = slot // (width // unit)
            starts = _segment_starts(codes, bucket)
            if tier in todo:
                todo.discard(tier)
                points = None
                t_eval = time.perf_counter()
                feats = self.suite.eval(t, m, w, starts)
                stats[f"eval_s_{tier}"] = time.perf_counter() - t_eval
                stats[f"nan_cells_{tier}"] = sum(
                    int(np.count_nonzero(np.isnan(col))) for col in feats.values()
                )
                if cfg.store_points:
                    points = gorilla.encode_segments_arrow(ts_us, m, starts)
                tables.append(
                    self._tier_table(
                        dictionary,
                        codes[starts],
                        bucket[starts] * (width * US_PER_MIN),
                        feats,
                        points,
                        tier,
                        np.diff(np.r_[starts, codes.shape[0]]),
                    )
                )
            if not todo:
                break
            # this tier's bin series, gap-filled, is the next tier's input
            n_bins = starts.shape[0]
            codes, slot, m, w = _bin_series(codes, bucket, m, w, starts)
            unit = width
            cap = cfg.max_fill_gap
            if cap is not None and level:
                # coarser bins fill at least one slot; at the finest level
                # 0 keeps meaning no fill
                cap = max(cap // unit, 1)
            seg = None
            if hot_codes is not None:
                window = slot // (MIN_PER_DAY * cfg.salt_window_days // unit)
                seg = np.where(hot_codes[codes], window, 0)
            mode = cfg.gap_fill if tier in cfg.fill_levels else "none"
            codes, slot, m, w = _gap_fill(codes, slot, m, w, mode, cap, seg)
            stats["gap_filled"] += codes.shape[0] - n_bins
            ts_us = slot * (unit * US_PER_MIN) + unit * US_PER_MIN // 2
            t = ts_us / 1e6  # bin centres

        return pa.concat_tables(tables) if tables else self._empty()

    def _empty(self) -> pa.Table:
        empty = np.empty(0, dtype=np.int64)
        return self._tier_table(
            pa.array([], type=pa.string()),
            empty,
            empty,
            {name: np.empty(0) for name in self.feature_names},
            pa.array([], type=pa.binary()) if self.config.store_points else None,
            "",
            empty,
        )
