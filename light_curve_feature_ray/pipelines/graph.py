"""Connected components over a pair/edge Dataset — the "dedup groups"
operator: given near-duplicate PAIRS (from exact n-gram Jaccard, MinHash,
SimHash or embedding-cosine), assign every involved document the MINIMUM
doc id of its connected component, so a corpus-level dedup keeps exactly
one representative per duplicate cluster.

Algorithm: iterative min-label propagation over the original edges
("hash-to-min" style; cf. Rastogi et al., "Finding Connected Components
in Map-Reduce", ICDE 2013 — the simple variant, because dedup clusters
are near-cliques with diameter 2-3 so O(diameter) rounds beats the
log-rounds constructions in practice). Each round is Ray-Data-native:

1. attach: one hash shuffle co-locating each node's current label with
   the edges that reference it (partition-level vectorized searchsorted —
   no per-node Python), emitting (neighbor, my_label) messages plus a
   self-retain message;
2. combine: ``groupby(node).min(label)`` — Ray pre-combines per block,
   so only per-block minima cross the second shuffle.

Rounds stop when the labels reach a fixpoint, detected by an O(1)
aggregate: labels only ever decrease, so an unchanged ``sum(label)``
means converged. Each round's labels are materialized (iterative
algorithms must pin their frontier or lineage re-executes every round).
Deterministic: pure min-lattice, independent of partitioning and
arrival order.

Sized-to-data routing (same philosophy as the join family): near-dup
edge lists are output of already-bounded candidate generation and are
typically orders of magnitude smaller than the corpus, while each
distributed round pays two shuffle barriers on a tiny label table. So
``method='auto'`` collects the normalized edge list to the driver when
it fits under a loud bound (``max_driver_edges``, 5M edges ~ 80 MB) and
runs the SAME min-label propagation vectorized in numpy with pointer
jumping (O(E) per round, O(log diameter) rounds) — identical output,
none of the per-round barrier constants. Above the bound it runs the
distributed rounds. Either way the edge list is normalized and
materialized ONCE, so the upstream pair-generation pipeline (minhash /
simhash / cosine) executes once, not once per consumer.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd

from ..stages.exchange import auto_shuffle_partitions, hash_mod_part, reduce_by_part

logger = logging.getLogger(__name__)


def _cc_driver_numpy(a: np.ndarray, b: np.ndarray, max_rounds: int, strict: bool):
    """Min-label propagation with pointer jumping over in-memory edge
    arrays — the small-side fast path; same min-lattice fixpoint as the
    distributed rounds (identical output)."""
    nodes = np.unique(np.concatenate([a, b]))
    ia = np.searchsorted(nodes, a)
    ib = np.searchsorted(nodes, b)
    # index-space labels: nodes is sorted, so index order == value order
    lab = np.arange(nodes.size, dtype=np.int64)
    for _ in range(max_rounds):
        prev = lab
        lab = lab.copy()
        np.minimum.at(lab, ia, prev[ib])
        np.minimum.at(lab, ib, prev[ia])
        # full pointer-jump contraction (lab[i] <= i throughout, so the
        # chase strictly shortens and terminates)
        while True:
            nxt = lab[lab]
            if np.array_equal(nxt, lab):
                break
            lab = nxt
        if np.array_equal(lab, prev):
            break
    else:
        msg = (
            f"connected_components: no fixpoint after {max_rounds} rounds"
        )
        if strict:
            raise RuntimeError(msg + " — raise max_rounds")
        logger.warning(msg)
    return nodes, nodes[lab]


def connected_components_min_label(
    pairs_ds,
    *,
    id_a: str = "doc_a",
    id_b: str = "doc_b",
    num_partitions: int | None = None,
    max_rounds: int = 64,
    strict: bool = True,
    method: str = "auto",
    max_driver_edges: int = 5_000_000,
):
    """(node, rep) for every node appearing in ``pairs_ds``; ``rep`` is the
    minimum node id of its connected component. Node ids must be
    non-negative integers (doc ids).

    ``strict=True`` (default) raises if no fixpoint is reached within
    ``max_rounds`` — a non-contracted label table would let a downstream
    keep-representative dedup drop every document of a sub-cluster, so
    failing loudly is the only safe default. Dedup clusters are
    near-cliques (diameter 2-3); 64 rounds is far beyond any real corpus.
    ``num_partitions`` defaults to 2 tasks per cluster CPU (each reduce
    task holds one partition of the edge list in memory).

    ``method``: 'auto' (default) routes by edge count — the driver
    numpy fast path under ``max_driver_edges``, distributed rounds
    above; 'driver' forces the fast path (raises loudly over the
    bound); 'distributed' forces the shuffle rounds."""
    if method not in ("auto", "driver", "distributed"):
        raise ValueError(f"unknown method {method!r}")
    num_partitions = num_partitions or auto_shuffle_partitions()

    def norm_edges(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "a": batch[id_a].to_numpy(dtype=np.int64),
                "b": batch[id_b].to_numpy(dtype=np.int64),
            }
        )

    # ONE materialization of the normalized edge list: the upstream pair
    # generation (minhash/simhash/cosine verify) executes exactly once,
    # and the count for routing comes free
    edges_ab = pairs_ds.map_batches(
        norm_edges, batch_format="pandas", batch_size=None
    ).materialize()
    n_edges = edges_ab.count()

    if method == "driver" and n_edges > max_driver_edges:
        raise ValueError(
            f"method='driver' but {n_edges} edges > max_driver_edges="
            f"{max_driver_edges}; use method='auto'/'distributed'"
        )
    if method != "distributed" and n_edges <= max_driver_edges:
        import pyarrow as pa
        import ray
        import ray.data as rd

        if n_edges == 0:
            empty = pa.table(
                {
                    "node": pa.array([], pa.int64()),
                    "lab": pa.array([], pa.int64()),
                }
            )
            return rd.from_arrow(empty)
        tbl = pa.concat_tables(
            ray.get(edges_ab.to_arrow_refs()), promote_options="default"
        )
        nodes, rep = _cc_driver_numpy(
            tbl["a"].to_numpy(zero_copy_only=False).astype(np.int64),
            tbl["b"].to_numpy(zero_copy_only=False).astype(np.int64),
            max_rounds,
            strict,
        )
        return rd.from_arrow(
            pa.table({"node": pa.array(nodes), "lab": pa.array(rep)})
        )

    def first_msgs(batch: pd.DataFrame) -> pd.DataFrame:
        a = batch["a"].to_numpy(dtype=np.int64)
        b = batch["b"].to_numpy(dtype=np.int64)
        m = np.minimum(a, b)
        return pd.DataFrame(
            {
                "node": np.concatenate([a, b]),
                "lab": np.concatenate([m, m]),
            }
        )

    def min_combine(ds):
        agg = ds.groupby("node").min("lab")
        return agg.map_batches(
            lambda t: pd.DataFrame(
                {
                    "node": t["node"].astype("int64"),
                    "lab": t["min(lab)"].astype("int64"),
                }
            ),
            batch_format="pandas",
            batch_size=None,
        )

    # round 1 directly from the edges (labels start as node ids; the first
    # propagation folds in, saving one attach shuffle)
    labels = min_combine(
        edges_ab.map_batches(first_msgs, batch_format="pandas", batch_size=None)
    ).materialize()
    prev_sum = labels.sum("lab")

    def edge_rows(batch: pd.DataFrame) -> pd.DataFrame:
        a = batch["a"].to_numpy(dtype=np.int64)
        b = batch["b"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "key": np.concatenate([a, b]),
                "other": np.concatenate([b, a]),
                "lab": np.full(2 * a.shape[0], -1, dtype=np.int64),
            }
        )

    def label_rows(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "key": batch["node"].to_numpy(dtype=np.int64),
                "other": np.full(len(batch), -1, dtype=np.int64),
                "lab": batch["lab"].to_numpy(dtype=np.int64),
            }
        )

    def add_part(batch: pd.DataFrame) -> pd.DataFrame:
        return hash_mod_part(batch, ["key"], num_partitions)

    def attach(grp: pd.DataFrame) -> pd.DataFrame:
        """ALL nodes of a hash partition at once: scatter each node's label
        onto its incident edge rows via searchsorted, emit propagation +
        self-retain messages. No per-node Python."""
        key = grp["key"].to_numpy()
        other = grp["other"].to_numpy()
        lab = grp["lab"].to_numpy()
        is_lab = lab >= 0
        lk, lv = key[is_lab], lab[is_lab]
        order = np.argsort(lk, kind="stable")
        lk, lv = lk[order], lv[order]
        ek, eo = key[~is_lab], other[~is_lab]
        pos = np.searchsorted(lk, ek)
        # every edge endpoint has a label row by construction (round 1
        # seeded labels from the same edge set)
        el = lv[pos]
        return pd.DataFrame(
            {
                "node": np.concatenate([eo, lk]),
                "lab": np.concatenate([el, lv]),
            }
        )

    edges = edges_ab.map_batches(
        edge_rows, batch_format="pandas", batch_size=None
    ).materialize()

    for round_i in range(max_rounds):
        tagged = (
            edges.union(
                labels.map_batches(
                    label_rows, batch_format="pandas", batch_size=None
                )
            )
            .map_batches(add_part, batch_format="pandas", batch_size=None)
        )
        msgs = reduce_by_part(tagged, attach, num_partitions, "pandas")
        labels = min_combine(msgs).materialize()
        new_sum = labels.sum("lab")
        if new_sum == prev_sum:
            break
        prev_sum = new_sum
    else:
        msg = (
            f"connected_components: no fixpoint after {max_rounds} rounds "
            "(component diameter exceeds the cap); labels are NOT fully "
            "contracted and a keep-representative dedup on them would be "
            "wrong"
        )
        if strict:
            raise RuntimeError(msg + " — raise max_rounds")
        logger.warning(msg)
    return labels


def dedup_keep_representatives(pairs_ds, **kwargs):
    """Corpus-dedup decision table from near-dup pairs: one row per
    clustered document, (doc_id, rep_id, keep). ``keep`` is true iff the
    document IS its cluster's representative (minimum id); dropping rows
    with ``keep = false`` removes every duplicate while keeping exactly
    one document per cluster."""
    comps = connected_components_min_label(pairs_ds, **kwargs)

    def decide(batch: pd.DataFrame) -> pd.DataFrame:
        node = batch["node"].to_numpy(dtype=np.int64)
        lab = batch["lab"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {"doc_id": node, "rep_id": lab, "keep": node == lab}
        )

    return comps.map_batches(decide, batch_format="pandas", batch_size=None)


def triangle_counts(
    pairs_ds,
    *,
    id_a: str = "doc_a",
    id_b: str = "doc_b",
    num_partitions: int | None = None,
):
    """Per-node triangle participation over the undirected simple graph
    of candidate pairs — the clustering-cohesion signal for near-dup
    families (a dup cluster that is a clique triangulates fully; a
    chain of borderline matches doesn't). Returns one row per node that
    appears in the pair set: ``(node, degree, n_triangles)`` where
    ``degree`` counts DISTINCT neighbours and ``n_triangles`` counts
    the triangles the node belongs to (0 kept — cohesion is meaningful
    precisely when absent). Self-loops drop; duplicate input pairs
    collapse (both sides: the twin's edge CTE is DISTINCT).

    Scale shape (the classic two-round wedge join, partition-level
    vectorized): edges normalize to u < v and materialize ONCE (the
    upstream candidate generation executes exactly once — the
    ``connected_components_min_label`` rule). Round 1 co-locates edges
    by their LOWER vertex; each partition dedups its own (u, v) pairs
    — globally exact, all copies of an edge share u — emits degree
    partials and the wedge list (all neighbour pairs of each u via the
    `_segment_pairs` triangular inverse; wedge count is bounded by the
    near-dup generator's candidate cap, sum-of-deg² worst case
    documented). Round 2 co-locates wedges (keyed by their smaller leg)
    with the edge partition that could close them; closure tests are a
    partition-local dictionary-encode + sorted-membership — no Python
    per wedge. One final (node)-keyed groupby-sum merges degree and
    triangle partials. Assumes non-negative int node ids (doc ids).
    """
    from .text import _segment_pairs

    num_partitions = num_partitions or auto_shuffle_partitions()

    def norm(batch: pd.DataFrame) -> pd.DataFrame:
        a = batch[id_a].to_numpy(dtype=np.int64)
        b = batch[id_b].to_numpy(dtype=np.int64)
        u, v = np.minimum(a, b), np.maximum(a, b)
        keep = u != v
        u, v = u[keep], v[keep]
        return hash_mod_part(pd.DataFrame({"u": u, "v": v}), ["u"], num_partitions)

    edges = pairs_ds.map_batches(
        norm, batch_format="pandas", batch_size=None
    ).materialize()

    def wedges_and_deg(grp: pd.DataFrame) -> pd.DataFrame:
        # all edges sharing a lower vertex are in this partition, so the
        # local distinct is globally exact
        u = grp["u"].to_numpy()
        v = grp["v"].to_numpy()
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        keep = np.r_[True, (u[1:] != u[:-1]) | (v[1:] != v[:-1])]
        u, v = u[keep], v[keep]
        n = u.shape[0]
        # degree partials, pre-counted so the second exchange moves one
        # row per (partition, node) instead of two rows per edge
        deg_node, deg_cnt = (
            np.unique(np.concatenate([u, v]), return_counts=True)
            if n
            else (np.empty(0, np.int64), np.empty(0, np.int64))
        )
        # wedges: neighbour pairs (w1 < w2 in sorted v order) per u
        first = np.r_[True, u[1:] != u[:-1]] if n else np.empty(0, bool)
        starts = np.flatnonzero(first)
        sizes = np.diff(np.r_[starts, n])
        ii, jj = _segment_pairs(starts, sizes)
        return pd.DataFrame(
            {
                # kind 0 = deduped edge (closure set), 1 = wedge,
                # 2 = degree partial (w2 carries the count)
                "kind": np.concatenate(
                    [
                        np.zeros(n, np.int8),
                        np.ones(ii.shape[0], np.int8),
                        np.full(deg_node.shape[0], 2, np.int8),
                    ]
                ),
                "w1": np.concatenate([u, v[ii], deg_node]),
                "w2": np.concatenate(
                    [v, v[jj], deg_cnt.astype(np.int64)]
                ),
                "origin": np.concatenate(
                    [
                        np.full(n, -1, np.int64),
                        u[ii],
                        np.full(deg_node.shape[0], -1, np.int64),
                    ]
                ),
            }
        )

    def repart(batch: pd.DataFrame) -> pd.DataFrame:
        return hash_mod_part(batch, ["w1"], num_partitions)

    def close_and_count(grp: pd.DataFrame) -> pd.DataFrame:
        kind = grp["kind"].to_numpy()
        w1 = grp["w1"].to_numpy()
        w2 = grp["w2"].to_numpy()
        origin = grp["origin"].to_numpy()
        is_deg = kind == 2
        dn = w1[is_deg]
        dc = w2[is_deg]
        is_edge = kind == 0
        is_wedge = kind == 1
        eu, ev = w1[is_edge], w2[is_edge]
        qu, qv, qo = w1[is_wedge], w2[is_wedge], origin[is_wedge]
        tri_nodes = np.empty(0, np.int64)
        if eu.shape[0] and qu.shape[0]:
            # partition-local dictionary-encode BOTH pair columns (raw
            # ids * base would overflow int64 for large doc ids) so the
            # membership test is a single sorted int64 searchsorted
            all_u = np.unique(np.concatenate([eu, qu]))
            all_v = np.unique(np.concatenate([ev, qv]))
            base = np.int64(all_v.shape[0] + 1)
            ek = np.searchsorted(all_u, eu) * base + np.searchsorted(all_v, ev)
            qk = np.searchsorted(all_u, qu) * base + np.searchsorted(all_v, qv)
            ek_sorted = np.sort(ek)
            pos = np.searchsorted(ek_sorted, qk)
            pos[pos >= ek_sorted.shape[0]] = 0
            hit = ek_sorted[pos] == qk
            tri_nodes = np.concatenate([qo[hit], qu[hit], qv[hit]])
        tn, tc = (
            np.unique(tri_nodes, return_counts=True)
            if tri_nodes.shape[0]
            else (np.empty(0, np.int64), np.empty(0, np.int64))
        )
        return pd.DataFrame(
            {
                "node": np.concatenate([dn, tn]),
                "degree": np.concatenate([dc.astype(np.int64), np.zeros(tn.shape[0], np.int64)]),
                "n_triangles": np.concatenate([np.zeros(dn.shape[0], np.int64), tc.astype(np.int64)]),
            }
        )

    wedges = reduce_by_part(edges, wedges_and_deg, num_partitions, "pandas")
    partials = reduce_by_part(
        wedges.map_batches(repart, batch_format="pandas", batch_size=None),
        close_and_count,
        num_partitions,
        "pandas",
    )
    agg = partials.groupby("node").sum(["degree", "n_triangles"])
    return agg.map_batches(
        lambda t: pd.DataFrame(
            {
                "node": t["node"].astype("int64"),
                "degree": t["sum(degree)"].astype("int64"),
                "n_triangles": t["sum(n_triangles)"].astype("int64"),
            }
        ),
        batch_format="pandas",
        batch_size=None,
    )


def _pagerank_driver_numpy(
    a: np.ndarray, b: np.ndarray, d: float, iters: int
):
    """In-memory power iteration over the normalized directed edge
    arrays — the small-side fast path; the SAME formula as the
    distributed rounds (rank-identical to round-6; sums may differ in
    the last ulp from reassociation, like any two shuffle layouts)."""
    keep = a != b
    a, b = a[keep], b[keep]
    u = np.concatenate([a, b])
    v = np.concatenate([b, a])
    # dedup directed edges
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    kp = np.r_[True, (u[1:] != u[:-1]) | (v[1:] != v[:-1])]
    u, v = u[kp], v[kp]
    if u.size == 0:  # e.g. all input pairs were self-loops
        return np.empty(0, np.int64), np.empty(0, np.float64)
    nodes = np.unique(u)
    iu = np.searchsorted(nodes, u)
    iv = np.searchsorted(nodes, v)
    od = np.bincount(iu, minlength=nodes.size).astype(np.float64)
    n = nodes.size
    r = np.full(n, 1.0 / float(n))
    teleport = (1.0 - d) / float(n)
    for _ in range(iters):
        contrib = r[iu] / od[iu]
        s = np.zeros(n)
        np.add.at(s, iv, contrib)
        r = teleport + d * s
    return nodes, r


def pagerank_undirected(
    pairs_ds,
    *,
    id_a: str = "doc_a",
    id_b: str = "doc_b",
    damping: float = 0.85,
    iters: int = 3,
    num_partitions: int | None = None,
    method: str = "auto",
    max_driver_edges: int = 5_000_000,
):
    """Fixed-iteration PageRank over the undirected simple graph of
    candidate pairs (each pair doubled to two directed edges) — the
    centrality signal ranking which document anchors its near-dup
    family. Deterministic and SQL-replayable by construction: uniform
    init r0 = 1/N, exactly ``iters`` synchronous power steps of

        r_{k+1}(v) = (1 - d) / N + d * sum_{u->v} r_k(u) / outdeg(u)

    with every expression replayed literally by the unrolled-CTE twin
    (change both or none). The undirected doubling means every node
    has in- and out-degree >= 1, so there is no dangling mass and the
    node set is invariant across rounds. Duplicate input pairs
    collapse; self-loops drop (both sides).

    Returns (node, pagerank) after ``iters`` steps (unnormalized by
    convention — the (1-d)/N teleport keeps the total at 1).

    Scale shape: directed edges co-locate by source ONCE (local
    distinct is globally exact per source; out-degree falls out of the
    same pass) and the edge list + degree table materialize once; each
    round is ONE tagged co-partitioning exchange (edges ∪ degrees ∪
    ranks, the connected-components attach pattern: sorted searchsorted
    scatter, no per-node Python) emitting per-edge contributions, a
    (node)-keyed groupby-sum, and a vectorized teleport finish. Rank
    tables are node-sized; only the static edge list rides every round.

    Sized-to-data routing (the :func:`connected_components_min_label`
    rule — same-session A/B at sf0.1: 47.9 s distributed vs 14.3 s via
    the driver path, where the remainder is the shared upstream pair
    generation; each of the 3 distributed rounds pays two shuffle
    barriers on a node-sized table):
    ``method='auto'`` collects the pair list to the driver under a loud
    ``max_driver_edges`` bound and runs the SAME power iteration in
    numpy; 'driver' / 'distributed' force a path. Ranks agree to well
    past round-6 (last-ulp reassociation only, like any two shuffle
    layouts).
    """
    if method not in ("auto", "driver", "distributed"):
        raise ValueError(f"unknown method {method!r}")
    num_partitions = num_partitions or auto_shuffle_partitions()
    if iters < 1:
        raise ValueError("iters must be >= 1")
    d = float(damping)

    if method != "distributed":
        import pyarrow as pa
        import ray
        import ray.data as rd

        pairs_ab = pairs_ds.map_batches(
            lambda b: pd.DataFrame(
                {
                    "a": b[id_a].to_numpy(dtype=np.int64),
                    "b": b[id_b].to_numpy(dtype=np.int64),
                }
            ),
            batch_format="pandas",
            batch_size=None,
        ).materialize()
        n_pairs = pairs_ab.count()
        if method == "driver" and n_pairs > max_driver_edges:
            raise ValueError(
                f"method='driver' but {n_pairs} pairs > max_driver_edges="
                f"{max_driver_edges}; use method='auto'/'distributed'"
            )
        if n_pairs <= max_driver_edges:
            if n_pairs == 0:
                return rd.from_arrow(
                    pa.table(
                        {
                            "node": pa.array([], pa.int64()),
                            "pagerank": pa.array([], pa.float64()),
                        }
                    )
                )
            tbl = pa.concat_tables(
                ray.get(pairs_ab.to_arrow_refs()), promote_options="default"
            )
            nodes, r = _pagerank_driver_numpy(
                tbl["a"].to_numpy(zero_copy_only=False).astype(np.int64),
                tbl["b"].to_numpy(zero_copy_only=False).astype(np.int64),
                d,
                iters,
            )
            return rd.from_arrow(
                pa.table({"node": pa.array(nodes), "pagerank": pa.array(r)})
            )
        pairs_ds = pairs_ab  # fall through: reuse the materialization
        id_a, id_b = "a", "b"

    def norm_directed(batch: pd.DataFrame) -> pd.DataFrame:
        a = batch[id_a].to_numpy(dtype=np.int64)
        b = batch[id_b].to_numpy(dtype=np.int64)
        keep = a != b
        a, b = a[keep], b[keep]
        u = np.concatenate([a, b])
        v = np.concatenate([b, a])
        return hash_mod_part(pd.DataFrame({"u": u, "v": v}), ["u"], num_partitions)

    def dedup_and_deg(grp: pd.DataFrame) -> pd.DataFrame:
        # all out-edges of a source are in this partition -> the local
        # distinct and the out-degree are globally exact
        u = grp["u"].to_numpy()
        v = grp["v"].to_numpy()
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        keep = np.r_[True, (u[1:] != u[:-1]) | (v[1:] != v[:-1])]
        u, v = u[keep], v[keep]
        n = u.shape[0]
        first = np.r_[True, u[1:] != u[:-1]] if n else np.empty(0, bool)
        starts = np.flatnonzero(first)
        sizes = np.diff(np.r_[starts, n])
        # kind 0 = directed edge, 1 = out-degree row (v carries od)
        return pd.DataFrame(
            {
                "kind": np.concatenate(
                    [np.zeros(n, np.int8), np.ones(starts.shape[0], np.int8)]
                ),
                "u": np.concatenate([u, u[starts]]),
                "v": np.concatenate([v, sizes.astype(np.int64)]),
            }
        )

    base = reduce_by_part(
        pairs_ds.map_batches(norm_directed, batch_format="pandas", batch_size=None),
        dedup_and_deg,
        num_partitions,
        "pandas",
    )
    def _split(kind_val):
        def f(b: pd.DataFrame) -> pd.DataFrame:
            return b[b["kind"] == kind_val].drop(columns=["kind"])

        return f

    edges = base.map_batches(
        _split(0), batch_format="pandas", batch_size=None
    ).materialize()
    degs = base.map_batches(
        _split(1), batch_format="pandas", batch_size=None
    ).materialize()
    n_nodes = degs.count()
    if n_nodes == 0:
        import pyarrow as pa
        import ray.data as rd

        return rd.from_arrow(
            pa.table(
                {
                    "node": pa.array([], pa.int64()),
                    "pagerank": pa.array([], pa.float64()),
                }
            )
        )
    r0 = 1.0 / float(n_nodes)
    teleport = (1.0 - d) / float(n_nodes)

    # tagged rows through the per-round exchange:
    # kind 0 edge (key=u, other=v), 1 degree (key=node, val=od),
    # 2 rank (key=node, val=r)
    def edge_rows(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "kind": np.zeros(len(batch), np.int8),
                "key": batch["u"].to_numpy(dtype=np.int64),
                "other": batch["v"].to_numpy(dtype=np.int64),
                "val": np.zeros(len(batch), np.float64),
            }
        )

    def deg_rows(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "kind": np.ones(len(batch), np.int8),
                "key": batch["u"].to_numpy(dtype=np.int64),
                "other": np.full(len(batch), -1, np.int64),
                "val": batch["v"].to_numpy(dtype=np.int64).astype(np.float64),
            }
        )

    def rank_rows(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "kind": np.full(len(batch), 2, np.int8),
                "key": batch["node"].to_numpy(dtype=np.int64),
                "other": np.full(len(batch), -1, np.int64),
                "val": batch["r"].to_numpy(dtype=np.float64),
            }
        )

    def add_part(batch: pd.DataFrame) -> pd.DataFrame:
        return hash_mod_part(batch, ["key"], num_partitions)

    def contribute(grp: pd.DataFrame) -> pd.DataFrame:
        kind = grp["kind"].to_numpy()
        key = grp["key"].to_numpy()
        other = grp["other"].to_numpy()
        val = grp["val"].to_numpy()
        is_e = kind == 0
        ek, ev = key[is_e], other[is_e]
        dk = key[kind == 1]
        dv = val[kind == 1]
        rk = key[kind == 2]
        rv = val[kind == 2]
        do = np.argsort(dk, kind="stable")
        dk, dv = dk[do], dv[do]
        ro = np.argsort(rk, kind="stable")
        rk, rv = rk[ro], rv[ro]
        # every edge source has a degree row and a rank row by
        # construction (all three derive from the same edge set)
        od = dv[np.searchsorted(dk, ek)]
        r = rv[np.searchsorted(rk, ek)]
        return pd.DataFrame({"node": ev, "contrib": r / od})

    edge_tagged = edges.map_batches(
        edge_rows, batch_format="pandas", batch_size=None
    ).materialize()
    deg_tagged = degs.map_batches(
        deg_rows, batch_format="pandas", batch_size=None
    ).materialize()

    ranks = degs.map_batches(
        lambda b: pd.DataFrame(
            {
                "node": b["u"].to_numpy(dtype=np.int64),
                "r": np.full(len(b), r0, np.float64),
            }
        ),
        batch_format="pandas",
        batch_size=None,
    ).materialize()

    for _ in range(iters):
        tagged = edge_tagged.union(
            deg_tagged,
            ranks.map_batches(rank_rows, batch_format="pandas", batch_size=None),
        ).map_batches(add_part, batch_format="pandas", batch_size=None)
        sums = (
            reduce_by_part(tagged, contribute, num_partitions, "pandas")
            .groupby("node")
            .sum("contrib")
        )
        ranks = sums.map_batches(
            lambda t: pd.DataFrame(
                {
                    "node": t["node"].astype("int64"),
                    "r": teleport
                    + d * t["sum(contrib)"].to_numpy(dtype=np.float64),
                }
            ),
            batch_format="pandas",
            batch_size=None,
        ).materialize()

    return ranks.map_batches(
        lambda b: pd.DataFrame(
            {
                "node": b["node"].to_numpy(dtype=np.int64),
                "pagerank": b["r"].to_numpy(dtype=np.float64),
            }
        ),
        batch_format="pandas",
        batch_size=None,
    )
