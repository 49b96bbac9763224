"""Similarity search over an embedding column (list<float>).

- ``knn_cosine``: exact brute-force cosine top-k — the query matrix is
  broadcast once via ``ray.put``; each batch computes a numpy matmul
  partial top-k, and a tiny exchange merges partials into the final top-k
  (no all-to-all of the embedding table itself).
- ``lsh_knn_cosine``: the scale path — random-hyperplane LSH buckets
  (seeded, deterministic); only same-bucket candidates are scored.
  Approximate; recall is tested against the exact path.

Every exchange is ``stages.exchange``'s: ``reduce_by_part`` where the key
is a small dense integer used as ``part`` itself (a query's position in
the sorted query ids, an IVF / semantic-dedup cell, a block pair), and
``reduce_by_key`` on LSH bucket keys.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray

from ..stages.exchange import cluster_cpus, reduce_by_key, reduce_by_part


def _to_matrix(col) -> np.ndarray:
    # np.stack raises on an empty list; empty Ray blocks are routine
    vs = [np.asarray(v, dtype=np.float64) for v in col]
    if not vs:
        return np.empty((0, 0), dtype=np.float64)
    return np.stack(vs)


def _arrow_matrix(col) -> np.ndarray:
    """(n, d) float64 matrix from an Arrow list/fixed_size_list column —
    one flatten + reshape over the contiguous values buffer, no per-row
    Python objects (the Arrow-native twin of :func:`_to_matrix`)."""
    import pyarrow as pa

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.empty((0, 0), dtype=np.float64)
    if pa.types.is_fixed_size_list(col.type):
        d = int(col.type.list_size)
    elif not (
        pa.types.is_list(col.type) or pa.types.is_large_list(col.type)
    ):
        # Ray's ArrowTensorArray extension (from_pandas of ndarray rows)
        vals = col.to_numpy(zero_copy_only=False)
        if getattr(vals, "ndim", 1) == 2:
            return np.ascontiguousarray(vals, dtype=np.float64)
        return np.stack([np.asarray(v, dtype=np.float64) for v in vals])
    else:
        widths = np.diff(col.offsets.to_numpy(zero_copy_only=False))
        d = int(widths[0])
        if not (widths == d).all():
            raise ValueError("embeddings must be fixed-length")
    vals = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    return vals.reshape(n, d)


def _normalize(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return mat / norms


class _BatchTopK:
    """map_batches actor: scores one batch against the broadcast queries.
    Arrow-native: the corpus embeddings reach the matmul via one
    flatten/reshape per block, never as per-row Python objects."""

    def __init__(self, query_ref, k: int):
        queries = ray.get(query_ref) if query_ref is not None else None
        self.q_ids = queries[0]
        self.q_part = _query_parts(self.q_ids, self.q_ids)
        self.q_mat = _normalize(queries[1])  # (Q, d)
        self.k = k
        self._empty = _empty_candidates()

    def __call__(self, batch):
        import pyarrow as pa

        if batch.num_rows == 0:
            return self._empty
        mat = _normalize(_arrow_matrix(batch["embedding"]))  # (n, d)
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        cos = self.q_mat @ mat.T  # (Q, n)
        k = min(self.k, cos.shape[1])
        # partial top-k per query within this batch
        idx = np.argpartition(-cos, k - 1, axis=1)[:, :k]
        cols = idx.ravel()
        return pa.table(
            {
                "query_id": pa.array(np.repeat(self.q_ids, k)),
                "vec_id": pa.array(ids[cols]),
                "cosine": pa.array(
                    cos[np.repeat(np.arange(len(self.q_ids)), k), cols]
                ),
                "part": pa.array(np.repeat(self.q_part, k)),
            }
        )


def _query_parts(q_ids: np.ndarray, query_id: np.ndarray) -> np.ndarray:
    """The int32 ``part`` of a candidate row: its query's position in the
    sorted query ids ``q_ids`` (equal ids share one), so the merge's
    exchange gives every query a part of its own."""
    return np.searchsorted(q_ids, query_id).astype(np.int32)


def _final_topk(k: int):
    def f(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["cosine", "vec_id"], ascending=[False, True], kind="mergesort"
        ).head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[["query_id", "rank", "vec_id", "cosine"]]

    return f


def knn_cosine(emb_ds, n_queries: int = 5, k: int = 10):
    """Exact top-k cosine neighbors of the first ``n_queries`` vectors
    (query set = rows with vec_id < n_queries; self-matches included).
    Ties broken by ascending vec_id."""
    q_rows = emb_ds.filter(
        expr=f"vec_id < {n_queries}"
    ).to_pandas()
    q_rows = q_rows.sort_values("vec_id")
    query_ref = ray.put(
        (q_rows["vec_id"].to_numpy(), _to_matrix(q_rows["embedding"]))
    )
    partials = emb_ds.map_batches(
        _BatchTopK,
        fn_constructor_args=(query_ref, k),
        batch_format="pyarrow",
        concurrency=(1, 8),
    )
    return reduce_by_part(partials, _final_topk(k), len(q_rows), "pandas")


def _empty_candidates():
    import pyarrow as pa

    return pa.table(
        {
            "query_id": pa.array([], type=pa.int64()),
            "vec_id": pa.array([], type=pa.int64()),
            "cosine": pa.array([], type=pa.float64()),
            "part": pa.array([], type=pa.int32()),
        }
    )


def _norm_list_array(mat: np.ndarray):
    """Arrow large_list<float64> column over a (n, d) matrix — one wrap,
    the values buffer is the matrix itself. int64 offsets: n*d exceeds
    2^31 for a few million rows of wide embeddings, and int32 offsets
    would SILENTLY wrap (pa.ListArray.from_arrays does not validate)."""
    import pyarrow as pa

    n, d = mat.shape
    return pa.LargeListArray.from_arrays(
        pa.array(np.arange(n + 1, dtype=np.int64) * d, type=pa.int64()),
        pa.array(mat.ravel()),
    )


def _cand_empty():
    import pyarrow as pa

    return pa.table(
        {
            "vec_id": pa.array([], type=pa.int64()),
            "bucket": pa.array([], type=pa.int64()),
            "embedding": pa.array([], type=pa.large_list(pa.float64())),
        }
    )


def _score_candidates_fn(ref, key_col: str):
    """Shared LSH/IVF bucket scorer: for each bucket key in its input, one
    matmul of the bucket's members against the queries mapped to that
    key (Arrow-native); ``part`` is the query's (:func:`_query_parts`)."""
    import pyarrow as pa

    def score(t: pa.Table) -> pa.Table:
        q_by_key, q_ids, q_mat = ray.get(ref)[:3]
        keys = t[key_col].to_numpy(zero_copy_only=False)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        mat = _arrow_matrix(t["embedding"])[order]
        ids = t["vec_id"].to_numpy(zero_copy_only=False)[order]
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        out = [_empty_candidates()]
        for a, b in zip(starts, np.r_[starts[1:], keys.size]):
            qs = np.asarray(q_by_key.get(int(keys[a]), []), dtype=np.int64)
            if not qs.size:
                continue
            cos = q_mat[qs] @ mat[a:b].T
            out.append(
                pa.table(
                    {
                        "query_id": pa.array(np.repeat(q_ids[qs], b - a)),
                        "vec_id": pa.array(np.tile(ids[a:b], qs.size)),
                        "cosine": pa.array(cos.ravel()),
                        "part": pa.array(
                            np.repeat(_query_parts(q_ids, q_ids[qs]), b - a)
                        ),
                    }
                )
            )
        return pa.concat_tables(out)

    return score


def _merge_topk_dedup(k: int):
    """Per-query final top-k after cross-bucket/table dedup — the single
    place the tie rule lives for every approximate path."""

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates("vec_id")
        return _final_topk(k)(g)

    return merge


class _LshBucketer:
    def __init__(self, dim: int, n_planes: int = 8, seed: int = 77):
        rng = np.random.default_rng(seed)
        self.planes = rng.normal(size=(dim, n_planes))

    def bucket_of(self, mat: np.ndarray) -> np.ndarray:
        signs = (mat @ self.planes) > 0
        return (signs.astype(np.uint32) << np.arange(signs.shape[1], dtype=np.uint32)).sum(
            axis=1
        )

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        mat = _normalize(_to_matrix(batch["embedding"]))
        out = pd.DataFrame(
            {
                "vec_id": batch["vec_id"],
                "bucket": self.bucket_of(mat).astype(np.int64),
            }
        )
        out["embedding"] = list(mat)
        return out

    @staticmethod
    def for_dataset(emb_ds, n_planes=8, seed=77):
        first = emb_ds.take(1)[0]
        dim = len(first["embedding"])
        return _LshBucketer(dim, n_planes, seed)


def lsh_knn_cosine(
    emb_ds,
    n_queries: int = 5,
    k: int = 10,
    n_planes: int = 6,
    n_tables: int = 1,
    seed: int = 77,
):
    """Approximate top-k: score only vectors in the query's LSH bucket(s).

    Scale shape: the query buckets are computed FIRST and broadcast; the
    bucket+filter stage drops every non-candidate vector before the
    exchange on the bucket key — it moves only vectors sharing a bucket with
    some query (for Q queries and T tables, an expected T*Q/2^n_planes
    fraction of the table), not the whole embedding table. ``n_planes``
    should grow with the corpus (bucket occupancy ~ N/2^n_planes);
    ``n_tables`` > 1 unions independent hyperplane sets — the standard
    recall knob at high n_planes. Candidates from all tables are merged
    and deduped in a per-query top-k reduce."""
    bucketers = [
        _LshBucketer.for_dataset(emb_ds, n_planes, seed=seed + 1000 * t)
        for t in range(n_tables)
    ]
    q_rows = emb_ds.filter(expr=f"vec_id < {n_queries}").to_pandas()
    q_rows = q_rows.sort_values("vec_id")
    q_mat = _normalize(_to_matrix(q_rows["embedding"]))
    q_ids = q_rows["vec_id"].to_numpy()
    # key = table * 2^n_planes + bucket (tables are disjoint key spaces)
    q_by_key: dict[int, list[int]] = {}
    wanted_keys = []
    for t, b in enumerate(bucketers):
        for qi, bucket in enumerate(b.bucket_of(q_mat)):
            key = (t << n_planes) | int(bucket)
            q_by_key.setdefault(key, []).append(qi)
            wanted_keys.append(key)
    ref = ray.put((q_by_key, q_ids, q_mat))
    wanted_ref = ray.put(np.unique(np.array(wanted_keys, dtype=np.int64)))

    def bucket_and_filter(batch):
        import pyarrow as pa

        if batch.num_rows == 0:
            return _cand_empty()
        wanted = ray.get(wanted_ref)
        mat = _normalize(_arrow_matrix(batch["embedding"]))
        emb = _norm_list_array(mat)
        ids = (
            batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        )
        frames = []
        for t, b in enumerate(bucketers):
            keys = (t << n_planes) | b.bucket_of(mat).astype(np.int64)
            sel = np.isin(keys, wanted)
            if sel.any():
                m = pa.array(sel)
                frames.append(
                    pa.table(
                        {
                            "vec_id": pa.array(ids[sel]),
                            "bucket": pa.array(keys[sel]),
                            "embedding": emb.filter(m),
                        }
                    )
                )
        if not frames:
            return _cand_empty()
        return pa.concat_tables(frames)

    bucketed = emb_ds.map_batches(
        bucket_and_filter, batch_format="pyarrow", batch_size=None
    )

    candidates = reduce_by_key(
        bucketed, "bucket", _score_candidates_fn(ref, "bucket"), None, "pyarrow"
    )
    return reduce_by_part(candidates, _merge_topk_dedup(k), len(q_ids), "pandas")


def _pairs_empty() -> pd.DataFrame:
    return pd.DataFrame(
        {
            "vec_a": pd.Series([], dtype=np.int64),
            "vec_b": pd.Series([], dtype=np.int64),
            "cosine": pd.Series([], dtype=np.float64),
        }
    )


def _auto_pair_blocks(n_rows: int, target_rows: int = 131_072) -> int:
    """Block count for the exact pair grid: enough pair-groups to feed
    every cluster CPU (B*(B+1)/2 >= 2*CPU) AND each block side bounded
    to ``target_rows`` vectors so a pair-group's two matrices fit one
    worker's heap at any corpus size."""
    b_cpu = int(np.ceil((np.sqrt(16 * cluster_cpus() + 1) - 1) / 2))  # B(B+1)/2>=2cpu
    b_mem = int(np.ceil(n_rows / target_rows))
    return max(4, b_cpu, b_mem)


def embedding_cosine_dups(
    emb_ds,
    threshold: float = 0.9,
    *,
    num_blocks: int | None = None,
    method: str = "blockpair",
    max_broadcast: int = 1_000_000,
):
    """Embedding-cosine near-duplicate pairs: (vec_a, vec_b, cosine) for
    all pairs with cosine >= threshold, vec_a < vec_b. EXACT.

    Default ``method='blockpair'`` — the distributed exact all-pairs
    grid (classic block-nested theta-join): vectors are normalized once
    and hashed into B blocks by id; each row is replicated to the B
    pair-groups (i, j) containing its block, one shuffle co-locates each
    pair-group, and one matmul per group scores its cross (or upper
    triangle for i == j) — every unordered pair is scored EXACTLY once,
    in the group keyed by its two blocks. Nothing materializes on the
    driver and no whole-table broadcast exists; per-task memory is
    bounded by 2 * target block rows regardless of corpus size, and the
    replicated shuffle volume (N*B rows) is the data movement inherent
    to exact all-pairs at scale. The approximate tier for corpora where
    O(N^2) compute itself is unaffordable is LSH (:func:`lsh_knn_cosine`
    buckets) or IVF (:func:`ivf_knn_cosine` cells) candidate generation
    + exact verification of candidates only.

    ``method='broadcast'`` keeps the single-broadcast brute-force
    baseline (whole normalized matrix via one ``ray.put``, one matmul
    block-row per batch) — the pytest cross-check oracle, loudly bounded
    by ``max_broadcast``.
    """
    if method == "broadcast":
        return _embedding_cosine_dups_broadcast(
            emb_ds, threshold, max_broadcast
        )
    if method != "blockpair":
        raise ValueError(f"unknown method {method!r}")
    import pyarrow as pa

    n_total = emb_ds.count()
    B = num_blocks or _auto_pair_blocks(n_total)

    def _rep_empty() -> pa.Table:
        return pa.table(
            {
                "part": pa.array([], type=pa.int32()),
                "blk": pa.array([], type=pa.int64()),
                "vec_id": pa.array([], type=pa.int64()),
                "embedding": pa.array([], type=pa.large_list(pa.float64())),
            }
        )

    def replicate(batch: pa.Table) -> pa.Table:
        # Arrow-native full-table stage: normalize once via one
        # flatten/reshape, then the B pair-group copies SHARE the
        # normalized values buffer (concat of zero-copy references —
        # only the tiny part column, the pair id, differs per copy)
        n = batch.num_rows
        if n == 0:
            return _rep_empty()
        mat = _normalize(_arrow_matrix(batch["embedding"]))
        emb = _norm_list_array(mat)
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        blk = ids % B
        blk_a = pa.array(blk)
        ids_a = pa.array(ids)
        tables = []
        for o in range(B):
            i = np.minimum(blk, o)
            j = np.maximum(blk, o)
            tables.append(
                pa.table(
                    {
                        "part": pa.array((i * B + j).astype(np.int32)),
                        "blk": blk_a,
                        "vec_id": ids_a,
                        "embedding": emb,
                    }
                )
            )
        return pa.concat_tables(tables)

    def _score_empty() -> pa.Table:
        return pa.table(
            {
                "vec_a": pa.array([], type=pa.int64()),
                "vec_b": pa.array([], type=pa.int64()),
                "cosine": pa.array([], type=pa.float64()),
            }
        )

    def score(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return _score_empty()
        i, j = divmod(int(g["part"][0].as_py()), B)
        mat = _arrow_matrix(g["embedding"])
        ids = g["vec_id"].to_numpy(zero_copy_only=False)
        if i == j:
            cos = mat @ mat.T
            mask = (cos >= threshold) & (ids[:, None] < ids[None, :])
            r, c = np.nonzero(mask)
            return pa.table(
                {
                    "vec_a": pa.array(ids[r]),
                    "vec_b": pa.array(ids[c]),
                    "cosine": pa.array(cos[r, c]),
                }
            )
        left = g["blk"].to_numpy(zero_copy_only=False) == i
        ml, mr = mat[left], mat[~left]
        il, ir = ids[left], ids[~left]
        if ml.shape[0] == 0 or mr.shape[0] == 0:
            return _score_empty()
        cos = ml @ mr.T
        r, c = np.nonzero(cos >= threshold)
        return pa.table(
            {
                "vec_a": pa.array(np.minimum(il[r], ir[c])),
                "vec_b": pa.array(np.maximum(il[r], ir[c])),
                "cosine": pa.array(cos[r, c]),
            }
        )

    replicated = emb_ds.map_batches(replicate, batch_format="pyarrow", batch_size=None)
    return reduce_by_part(replicated, score, B * B, "pyarrow")


def _embedding_cosine_dups_broadcast(
    emb_ds, threshold: float, max_broadcast: int
):
    """Single-broadcast brute-force baseline (the pytest cross-check
    oracle for the blockpair grid). Materializes the WHOLE normalized
    matrix once via ``ray.put`` — loudly bounded by ``max_broadcast``."""
    n_total = emb_ds.count()
    if n_total > max_broadcast:
        raise ValueError(
            f"broadcast method is the bounded baseline; {n_total} rows > "
            f"max_broadcast={max_broadcast}. Use method='blockpair'."
        )
    rows = emb_ds.to_pandas()
    rows = rows.sort_values("vec_id")
    ids = rows["vec_id"].to_numpy()
    mat = _normalize(_to_matrix(rows["embedding"]))
    ref = ray.put((ids, mat))

    def block(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:
            return _pairs_empty()
        all_ids, all_mat = ray.get(ref)
        bmat = _normalize(_to_matrix(batch["embedding"]))
        bids = batch["vec_id"].to_numpy()
        cos = bmat @ all_mat.T  # (n_batch, N)
        # upper triangle only: partner id must be > this row's id
        mask = (cos >= threshold) & (bids[:, None] < all_ids[None, :])
        r, c = np.nonzero(mask)
        return pd.DataFrame(
            {
                "vec_a": bids[r],
                "vec_b": all_ids[c],
                "cosine": cos[r, c],
            }
        )

    return emb_ds.map_batches(block, batch_format="pandas", batch_size=None)


def _kmeans_cosine(sample: np.ndarray, n_centroids: int, n_iter: int = 10,
                   seed: int = 5):
    """Deterministic spherical k-means (fixed seed/iterations) for the IVF
    coarse quantizer. Centroids are unit-normalized."""
    rng = np.random.default_rng(seed)
    idx = rng.choice(sample.shape[0], size=min(n_centroids, sample.shape[0]),
                     replace=False)
    cents = _normalize(sample[idx].copy())
    for _ in range(n_iter):
        assign = np.argmax(sample @ cents.T, axis=1)
        for c in range(cents.shape[0]):
            members = sample[assign == c]
            if members.shape[0]:
                cents[c] = members.sum(axis=0)
        cents = _normalize(cents)
    return cents


def _train_rows(emb_ds, train_sample: int, seed: int) -> pd.DataFrame:
    """Deterministic bounded training sample for coarse quantizers: a
    lehmer-hash sample of the WHOLE corpus (not ``limit(n)`` — first-
    parquet-fragment bias), sorted by vec_id so the k-means result is
    independent of block arrival order."""
    n_total = emb_ds.count()
    if n_total > train_sample:
        from .sampling import hash_sample

        train = hash_sample(
            emb_ds,
            rate=train_sample / n_total,
            seed=seed,
            id_col="vec_id",
            hash_col=None,
        ).to_pandas()
        if len(train) == 0:  # pathological tiny-rate corner
            train = emb_ds.limit(train_sample).to_pandas()
    else:
        train = emb_ds.to_pandas()
    return train.sort_values("vec_id").reset_index(drop=True)


def semantic_dedup(
    emb_ds,
    *,
    threshold: float = 0.95,
    n_centroids: int | None = None,
    train_sample: int = 2048,
    max_cell: int = 4096,
    seed: int = 5,
):
    """SemDeDup-style semantic deduplication (Abbas et al. 2023): a
    spherical k-means coarse quantizer partitions the corpus into cells;
    within each cell, documents whose embedding cosine to a SMALLER-id
    cell member reaches ``threshold`` are marked duplicates of that
    member. The approximate scale tier of the embedding-dedup family —
    near-dups straddling a cell boundary are not compared (the standard
    SemDeDup trade); :func:`embedding_cosine_dups` is the exact tier.

    Scale shape: centroids train on a deterministic lehmer-hash sample
    and broadcast once; assignment is a pure vectorized map; ONE
    cell-keyed shuffle co-locates each cell and one matmul per cell
    prunes it. Cells larger than ``max_cell`` are pruned only among
    their ``max_cell`` smallest ids (overflow rows pass through as
    keepers, loudly logged) so the in-task cosine matrix stays bounded.
    Output is independent of block layout (assignment is per-row; the
    in-cell rule sorts by id). Returns (vec_id, cell, rep_id, keep):
    ``rep_id`` is the smallest same-cell id within threshold (self when
    kept).
    """
    import logging

    import pyarrow as pa

    logger = logging.getLogger(__name__)
    n_total = emb_ds.count()
    if n_total == 0:
        import ray.data as rd

        return rd.from_arrow(
            pa.table(
                {
                    "vec_id": pa.array([], type=pa.int64()),
                    "cell": pa.array([], type=pa.int64()),
                    "rep_id": pa.array([], type=pa.int64()),
                    "keep": pa.array([], type=pa.bool_()),
                }
            )
        )
    if n_centroids is None:
        n_centroids = max(8, min(256, n_total // 1024))
    train = _train_rows(emb_ds, train_sample, seed)
    cents = _kmeans_cosine(
        _normalize(_to_matrix(train["embedding"])), n_centroids, seed=seed
    )
    cents_ref = ray.put(cents)

    def assign(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], type=pa.int64()),
                    "part": pa.array([], type=pa.int32()),
                    "embedding": pa.array([], type=pa.large_list(pa.float64())),
                }
            )
        c = ray.get(cents_ref)
        mat = _normalize(_arrow_matrix(batch["embedding"]))
        cell = np.argmax(mat @ c.T, axis=1).astype(np.int32)
        return pa.table(
            {
                "vec_id": pa.array(
                    batch["vec_id"]
                    .to_numpy(zero_copy_only=False)
                    .astype(np.int64)
                ),
                "part": pa.array(cell),  # the cell
                "embedding": _norm_list_array(mat),
            }
        )

    def prune(g: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "vec_id": pa.array([], type=pa.int64()),
                "cell": pa.array([], type=pa.int64()),
                "rep_id": pa.array([], type=pa.int64()),
                "keep": pa.array([], type=pa.bool_()),
            }
        )
        if g.num_rows == 0:
            return empty
        ids = g["vec_id"].to_numpy(zero_copy_only=False)
        cell = int(g["part"][0].as_py())
        order = np.argsort(ids)
        ids = ids[order]
        mat = _arrow_matrix(g["embedding"])[order]
        n = ids.shape[0]
        checked = min(n, max_cell)
        if n > max_cell:
            logger.warning(
                "semantic_dedup: cell %d has %d members > max_cell=%d; "
                "the %d largest ids pass through unpruned",
                cell, n, max_cell, n - max_cell,
            )
        keep = np.ones(n, dtype=bool)
        rep = ids.copy()
        if checked >= 2:
            m = mat[:checked]
            cos = m @ m.T
            dup = cos >= threshold
            dup[np.triu_indices(checked)] = False  # only j < i counts
            has = dup.any(axis=1)
            first = dup.argmax(axis=1)  # smallest j (ids sorted asc)
            keep[:checked] = ~has
            rep[:checked] = np.where(has, ids[first], ids[:checked])
        return pa.table(
            {
                "vec_id": pa.array(ids),
                "cell": pa.array(np.full(n, cell, dtype=np.int64)),
                "rep_id": pa.array(rep),
                "keep": pa.array(keep),
            }
        )

    assigned = emb_ds.map_batches(assign, batch_format="pyarrow", batch_size=None)
    return reduce_by_part(assigned, prune, len(cents), "pyarrow")


def ivf_knn_cosine(
    emb_ds,
    n_queries: int = 5,
    k: int = 10,
    n_centroids: int = 16,
    nprobe: int = 2,
    train_sample: int = 2048,
    seed: int = 5,
):
    """IVF (inverted-file) approximate top-k: a spherical k-means coarse
    quantizer partitions the corpus into centroid cells; each query scans
    only its ``nprobe`` nearest cells.

    Scale shape mirrors the LSH path: the tiny centroid matrix is trained
    on a bounded sample and broadcast; the assign stage drops every vector
    outside the queries' probed cells BEFORE the exchange on the cell, so it
    moves an expected nprobe/n_centroids fraction of the table. Cells are
    data-adaptive (unlike LSH hyperplanes), which is the standard recall
    advantage of IVF on clustered embeddings. The training sample is a
    deterministic lehmer-hash sample of the WHOLE corpus (not
    ``limit(n)``, which would train only on the first parquet fragments
    — a first-files bias on sorted/sharded corpora)."""
    train = _train_rows(emb_ds, train_sample, seed)
    cents = _kmeans_cosine(
        _normalize(_to_matrix(train["embedding"])), n_centroids, seed=seed
    )
    q_rows = emb_ds.filter(expr=f"vec_id < {n_queries}").to_pandas()
    q_rows = q_rows.sort_values("vec_id")
    q_mat = _normalize(_to_matrix(q_rows["embedding"]))
    q_ids = q_rows["vec_id"].to_numpy()
    # nprobe nearest cells per query
    sim = q_mat @ cents.T
    probe = np.argsort(-sim, axis=1)[:, :nprobe]  # (Q, nprobe)
    q_by_cell: dict[int, list[int]] = {}
    for qi in range(probe.shape[0]):
        for c in probe[qi]:
            q_by_cell.setdefault(int(c), []).append(qi)
    wanted = np.unique(probe.ravel()).astype(np.int64)
    ref = ray.put((q_by_cell, q_ids, q_mat, cents))
    wanted_ref = ray.put(wanted)

    def assign_and_filter(batch):
        import pyarrow as pa

        if batch.num_rows == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], type=pa.int64()),
                    "part": pa.array([], type=pa.int32()),
                    "embedding": pa.array([], type=pa.large_list(pa.float64())),
                }
            )
        _, _, _, cents_w = ray.get(ref)
        want = ray.get(wanted_ref)
        mat = _normalize(_arrow_matrix(batch["embedding"]))
        cell = np.argmax(mat @ cents_w.T, axis=1).astype(np.int32)
        sel = np.isin(cell, want)
        m = pa.array(sel)
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "vec_id": pa.array(ids[sel]),
                "part": pa.array(cell[sel]),  # the cell
                "embedding": _norm_list_array(mat).filter(m),
            }
        )

    assigned = emb_ds.map_batches(
        assign_and_filter, batch_format="pyarrow", batch_size=None
    )

    candidates = reduce_by_part(
        assigned, _score_candidates_fn(ref, "part"), len(cents), "pyarrow"
    )
    return reduce_by_part(candidates, _merge_topk_dedup(k), len(q_ids), "pandas")


def group_centroid(emb_ds, *, key: str = "label", emb_col: str = "embedding"):
    """Per-group mean-pooled embedding centroid in long format
    (key, dim, centroid, n_vectors) — the class-prototype / cluster-seed
    step of embedding-space curation (e.g. SemDeDup-style pruning seeds).

    Scale shape: block-local partial sums (one stable argsort +
    ``add.reduceat`` per batch over the zero-copy Arrow list values — the
    shuffle carries num_groups x dim partial rows per block, never one
    row per vector), a (key, dim)-keyed groupby-sum reduce, and a final
    vectorized divide. Nothing materializes on the driver.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    def partial(batch: pa.Table) -> pa.Table:
        col = batch[emb_col].combine_chunks()
        keys = batch[key].to_numpy(zero_copy_only=False)
        # null embedding rows are skipped, like SQL unnest (the oracle's
        # semantics), rather than crashing the width check
        valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
        if not valid.all():
            col = col.filter(pa.array(valid))
            keys = keys[valid]
        if len(col) == 0:
            return pa.table(
                {
                    key: keys[:0],
                    "dim": np.empty(0, dtype=np.int64),
                    "s": np.empty(0, dtype=np.float64),
                    "cnt": np.empty(0, dtype=np.int64),
                }
            )
        if pa.types.is_fixed_size_list(col.type):
            d = int(col.type.list_size)
        else:
            widths = np.diff(col.offsets.to_numpy(zero_copy_only=False))
            d = int(widths[0])
            if not (widths == d).all():
                raise ValueError(
                    "group_centroid requires fixed-length embeddings"
                )
        # per-element float64 cast BEFORE summing (parity with the SQL
        # oracle's CAST(v AS DOUBLE) inside sum())
        # flatten() yields exactly the listed values even for sliced arrays
        vals = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        emb = vals.reshape(len(col), d)
        uniq, inv = np.unique(keys, return_inverse=True)
        order = np.argsort(inv, kind="stable")
        starts = np.flatnonzero(np.r_[True, np.diff(inv[order]) > 0])
        sums = np.add.reduceat(emb[order], starts, axis=0)
        cnt = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        g = len(uniq)
        return pa.table(
            {
                key: pa.array(np.repeat(uniq, d)).cast(batch.schema.field(key).type),
                "dim": pa.array(np.tile(np.arange(d, dtype=np.int64), g)),
                "s": pa.array(sums.ravel()),
                "cnt": pa.array(np.repeat(cnt, d)),
            }
        )

    agg = (
        emb_ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby([key, "dim"])
        .sum(["s", "cnt"])
    )

    def finish(t: pa.Table) -> pa.Table:
        s = t["sum(s)"].to_numpy(zero_copy_only=False)
        c = t["sum(cnt)"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                key: t[key],
                "dim": t["dim"],
                "centroid": pa.array(s / c),
                "n_vectors": pa.array(c),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", batch_size=None)


def kcenter_sample(
    emb_ds,
    *,
    k: int = 32,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    method: str = "auto",
    max_driver_rows: int = 2_000_000,
):
    """Greedy k-center (farthest-first / Gonzalez) diversity sample over
    cosine distance — the coreset-selection step of diversity-aware
    data curation (k-Center coresets, Sener & Savarese 2018): seed with
    the smallest id, then repeatedly add the point farthest from the
    chosen set (distance = 1 - cosine; ties -> smallest id, so the
    output is deterministic at any parallelism). Returns one row per
    selected point, (sel_rank, id, min_dist) where ``min_dist`` is the
    point's distance to the previously chosen centers at selection time
    (NaN for the rank-0 seed); min_dist is non-increasing and the last
    value bounds the corpus covering radius.

    Sized-to-data routing (the ``connected_components_min_label``
    precedent): corpora up to ``max_driver_rows`` pull the normalized
    matrix to the driver and run the k numpy rounds in-process — greedy
    selection is inherently sequential, and at this size k tiny gemms
    beat k distributed barriers. Above the bound (``method='rounds'``
    forces it) the input normalizes and materializes ONCE (object
    store, spillable); each round broadcasts the center matrix chosen
    so far, one streaming map_batches computes per-point min distance
    and a block-local top-1 candidate, and the driver reduces
    num_blocks candidate rows — per-round driver traffic is O(blocks *
    d), never O(N). Both paths must stay selection-identical (the
    parity test runs both).
    """
    import pyarrow as pa
    import ray.data as rd

    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if method not in ("auto", "driver", "rounds"):
        raise ValueError(f"unknown method {method!r}")

    def _result(ids_sel, dists_sel, id_type):
        n = len(ids_sel)
        return rd.from_arrow(
            pa.table(
                {
                    "sel_rank": pa.array(np.arange(n, dtype=np.int64)),
                    id_col: pa.array(np.asarray(ids_sel)).cast(id_type),
                    "min_dist": pa.array(np.asarray(dists_sel, dtype=np.float64)),
                }
            )
        )

    def prep(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        mat = _normalize(_arrow_matrix(batch[emb_col]))
        return pa.table(
            {
                id_col: batch[id_col],
                "_e": _norm_list_array(mat) if ids.size else pa.array(
                    [], type=pa.large_list(pa.float64())
                ),
            }
        )

    norm = emb_ds.map_batches(
        prep, batch_format="pyarrow", batch_size=None
    ).materialize()
    id_type = norm.schema().base_schema.field(id_col).type
    n_total = norm.count()
    if n_total == 0:
        return _result([], [], id_type)
    k = min(k, n_total)

    if method == "driver" or (method == "auto" and n_total <= max_driver_rows):
        import ray

        t = pa.concat_tables(
            ray.get(norm.to_arrow_refs()), promote_options="default"
        )
        ids = t[id_col].to_numpy(zero_copy_only=False)
        mat = _arrow_matrix(t["_e"])
        order = np.argsort(ids)  # seed + tie rule need id order
        ids, mat = ids[order], mat[order]
        sel = [0]
        dists = [np.nan]
        mind = np.full(ids.shape[0], np.inf)
        for _ in range(k - 1):
            mind = np.minimum(mind, 1.0 - mat @ mat[sel[-1]])
            nxt = int(np.argmax(mind))  # argmax takes FIRST max = min id
            sel.append(nxt)
            dists.append(float(mind[nxt]))
        return _result(ids[sel], dists, id_type)

    # distributed rounds: one streaming pass per selection
    import ray

    def block_min_id(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        return batch.take(pa.array([int(np.argmin(ids))]))

    seed_t = pa.concat_tables(
        ray.get(
            norm.map_batches(
                block_min_id, batch_format="pyarrow", batch_size=None
            ).to_arrow_refs()
        ),
        promote_options="default",
    )
    s_ids = seed_t[id_col].to_numpy(zero_copy_only=False)
    pick = int(np.argmin(s_ids))
    sel_ids = [s_ids[pick]]
    dists = [np.nan]
    centers = _arrow_matrix(seed_t["_e"])[pick][None, :]

    def far_candidate(cents_ref):
        def f(batch: pa.Table) -> pa.Table:
            empty = pa.table(
                {
                    id_col: pa.array([], type=id_type),
                    "_e": pa.array([], type=pa.large_list(pa.float64())),
                    "_d": pa.array([], type=pa.float64()),
                }
            )
            if batch.num_rows == 0:
                return empty
            c = ray.get(cents_ref)
            ids = batch[id_col].to_numpy(zero_copy_only=False)
            mat = _arrow_matrix(batch["_e"])
            mind = (1.0 - mat @ c.T).min(axis=1)
            # block top-1 under (max dist, min id): among rows at the
            # max, argmin id — associative, so block winners reduce to
            # the global winner
            at_max = np.flatnonzero(mind == mind.max())
            j = int(at_max[np.argmin(ids[at_max])])
            return pa.table(
                {
                    id_col: batch[id_col].take(pa.array([j])),
                    "_e": batch["_e"].take(pa.array([j])),
                    "_d": pa.array([float(mind[j])]),
                }
            )

        return f

    for _ in range(k - 1):
        cents_ref = ray.put(centers)
        cand = pa.concat_tables(
            ray.get(
                norm.map_batches(
                    far_candidate(cents_ref),
                    batch_format="pyarrow",
                    batch_size=None,
                ).to_arrow_refs()
            ),
            promote_options="default",
        )
        d = cand["_d"].to_numpy(zero_copy_only=False)
        c_ids = cand[id_col].to_numpy(zero_copy_only=False)
        at_max = np.flatnonzero(d == d.max())
        j = int(at_max[np.argmin(c_ids[at_max])])
        sel_ids.append(c_ids[j])
        dists.append(float(d[j]))
        centers = np.vstack([centers, _arrow_matrix(cand["_e"])[j][None, :]])
    return _result(sel_ids, dists, id_type)
