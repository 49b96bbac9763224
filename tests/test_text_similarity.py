"""Text-analysis, dedup and similarity-search operators (documents /
embeddings pipelines): planted near-duplicates must be found, exact paths
must agree with brute force."""

import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(33)
    vocab = (
        "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu "
        "nu xi omicron pi rho sigma tau upsilon"
    ).split()
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(20, 60)))
        for _ in range(80)
    ]
    # planted near-duplicates: copy with a tiny edit
    texts.append(texts[0] + " tail")
    texts.append(texts[1].replace("alpha", "beta", 1))
    # exact duplicate
    texts.append(texts[2])
    df = pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts})
    return rd.from_pandas(df)


def test_exact_dedup_keeps_min_id(docs_ds):
    from light_curve_feature_ray.pipelines.text import exact_dedup

    out = exact_dedup(docs_ds).to_pandas()
    # 83 docs, one exact dup (doc 82 == doc 2) -> 82 rows, id 2 kept
    assert len(out) == 82
    assert 82 not in set(out["doc_id"])
    assert 2 in set(out["doc_id"])


def test_minhash_finds_planted_dups(docs_ds):
    from light_curve_feature_ray.pipelines.text import (
        jaccard_words,
        minhash_lsh_dups,
    )

    out = (
        minhash_lsh_dups(docs_ds, threshold=0.5)
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    pairs = set(zip(out["doc_a"], out["doc_b"]))
    assert (0, 80) in pairs  # copy with appended word
    assert (1, 81) in pairs  # one-word substitution
    assert (2, 82) in pairs  # exact duplicate (jaccard 1.0)
    row = out[(out["doc_a"] == 2) & (out["doc_b"] == 82)].iloc[0]
    assert row["jaccard"] == 1.0
    # reported jaccard equals the exact shingle jaccard
    docs = docs_ds.to_pandas().set_index("doc_id")["text"]
    for _, r in out.iterrows():
        assert abs(r["jaccard"] - jaccard_words(docs[r["doc_a"]], docs[r["doc_b"]])) < 1e-12


def test_minhash_poly_hasher_planted_dups_and_scalar_parity(docs_ds):
    """The SQL-reproducible poly minhash finds the same planted dups, and
    its signatures equal a scalar re-derivation of the oracle's exact
    integer arithmetic (word fold -> shingle fold -> chained affine
    permutations, all mod 2^48-59)."""
    import numpy as np

    from light_curve_feature_ray.pipelines.text import (
        MinHasher,
        _WINNOW_MOD,
        _poly_perm_coeffs,
        minhash_lsh_dups,
    )

    out = minhash_lsh_dups(docs_ds, threshold=0.5, hasher="poly").to_pandas()
    pairs = set(zip(out["doc_a"], out["doc_b"]))
    assert (0, 80) in pairs and (1, 81) in pairs and (2, 82) in pairs
    row = out[(out["doc_a"] == 2) & (out["doc_b"] == 82)].iloc[0]
    assert row["jaccard"] == 1.0

    texts = ["alpha beta gamma delta", "xy", ""]
    mh = MinHasher(num_perms=8, shingle_k=3, hasher="poly")
    sigs = mh.signatures(np.array(texts, dtype=object))
    assert sigs.dtype == np.int64

    def word_hash(w: str) -> int:
        acc = 0
        for ch in w:
            acc = (acc * 31 + ord(ch)) % _WINNOW_MOD
        for _ in range(4):
            acc = (acc * 25781 + 104729) % _WINNOW_MOD
        return acc

    def shingle_hashes(t: str, k: int = 3) -> list[int]:
        hs = [word_hash(w) for w in t.lower().split()]
        if not hs:
            return [0]
        if len(hs) < k:
            acc = 0
            for h in hs:
                acc = (acc * 31 + h) % _WINNOW_MOD
            return [acc]
        out_h = []
        for i in range(len(hs) - k + 1):
            acc = 0
            for h in hs[i : i + k]:
                acc = (acc * 31 + h) % _WINNOW_MOD
            out_h.append(acc)
        return out_h

    a1, b1, a2, b2 = _poly_perm_coeffs(8, 1234)
    for di, t in enumerate(texts):
        sh = shingle_hashes(t)
        for j in range(8):
            expect = min(
                ((s * int(a1[j]) + int(b1[j])) % _WINNOW_MOD * int(a2[j]) + int(b2[j]))
                % _WINNOW_MOD
                for s in sh
            )
            assert sigs[di, j] == expect


def test_simhash_near_dups_close(docs_ds):
    from light_curve_feature_ray.pipelines.text import simhash_signatures

    sigs = simhash_signatures(docs_ds).to_pandas().set_index("doc_id")["simhash"]
    ham = lambda a, b: bin(int(a) ^ int(b)).count("1")
    assert ham(sigs[2], sigs[82]) == 0  # exact dup
    assert ham(sigs[0], sigs[80]) <= 6  # near dup
    # random pair should be far
    assert ham(sigs[5], sigs[40]) > 10


def test_text_stats_and_lang(docs_ds, ray_session):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.text import lang_id, text_stats

    df = pd.DataFrame(
        {
            "doc_id": [0, 1, 2],
            "text": [
                "the cat sat on the mat and it was a good mat",
                "zzz qqq www",
                "",
            ],
        }
    )
    ds = rd.from_pandas(df)
    st = text_stats(ds).to_pandas().set_index("doc_id")
    assert st.loc[0, "n_words"] == 12
    assert st.loc[0, "stop_ratio"] > 0.3
    assert st.loc[1, "stop_ratio"] == 0.0
    assert st.loc[2, "n_words"] == 0 and np.isnan(st.loc[2, "avg_word_len"])
    lang = lang_id(ds).to_pandas().set_index("doc_id")["lang_pred"]
    assert lang[0] == "en" and lang[1] == "other" and lang[2] == "other"


@pytest.fixture(scope="module")
def emb_ds(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(44)
    vecs = rng.normal(size=(200, 16)).astype(np.float32)
    df = pd.DataFrame(
        {"vec_id": np.arange(200), "embedding": list(vecs), "label": 0}
    )
    return rd.from_pandas(df), vecs


def test_knn_exact_matches_numpy(emb_ds):
    from light_curve_feature_ray.pipelines.similarity import knn_cosine

    ds, vecs = emb_ds
    out = knn_cosine(ds, n_queries=3, k=5).to_pandas()
    v = vecs.astype(np.float64)
    v = v / np.linalg.norm(v, axis=1, keepdims=True)
    for q in range(3):
        cos = v[q] @ v.T
        order = np.lexsort((np.arange(200), -cos))[:5]
        got = out[out["query_id"] == q].sort_values("rank")
        np.testing.assert_array_equal(got["vec_id"].to_numpy(), order)
        np.testing.assert_allclose(
            got["cosine"].to_numpy(), cos[order], rtol=1e-12
        )


def test_knn_lsh_recall(emb_ds):
    from light_curve_feature_ray.pipelines.similarity import (
        knn_cosine,
        lsh_knn_cosine,
    )

    ds, _ = emb_ds
    exact = knn_cosine(ds, n_queries=5, k=5).to_pandas()
    approx = lsh_knn_cosine(ds, n_queries=5, k=5, n_planes=4).to_pandas()
    # every query's top-1 exact neighbor is itself (cos=1) and must be found
    hits = 0
    for q in range(5):
        e = set(exact[exact["query_id"] == q]["vec_id"])
        a = set(approx[approx["query_id"] == q]["vec_id"])
        hits += len(e & a)
    recall = hits / (5 * 5)
    assert recall >= 0.2, recall  # bucketed search trades recall for speed
    # self-match always lands in the query's own bucket
    for q in range(5):
        a = approx[approx["query_id"] == q]
        assert q in set(a["vec_id"])


def test_multimodal_decode_stub(ray_session):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.multimodal import (
        DecodeImage,
        attach_fake_payloads,
        decode_images,
    )

    df = pd.DataFrame({"doc_id": [1, 2], "text": ["hello", "world"]})
    items = attach_fake_payloads(rd.from_pandas(df))
    out = decode_images(items).to_pandas().sort_values("item_id")
    assert list(out["item_id"]) == [1, 2]
    assert (out["width"] >= 1).all() and (out["height"] <= 64).all()
    emb = np.stack(out["embedding"].to_numpy())
    assert emb.shape == (2, 8)
    np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0, rtol=1e-9)
    # deterministic: same payload -> same decode
    d = DecodeImage()
    assert d.decode(b"xyz")[0] == d.decode(b"xyz")[0]
    with pytest.raises(NotImplementedError):
        DecodeImage(decoder="pil")


def test_ngram_jaccard_exact(docs_ds):
    from light_curve_feature_ray.pipelines.text import (
        _shingle_hashes_flat,
        _word_hashes_flat,
        ngram_jaccard_dups,
    )

    out = (
        ngram_jaccard_dups(docs_ds, k=5, threshold=0.3)
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    pairs = set(zip(out["doc_a"], out["doc_b"]))
    assert (0, 80) in pairs and (2, 82) in pairs
    row = out[(out["doc_a"] == 2) & (out["doc_b"] == 82)].iloc[0]
    assert row["jaccard"] == 1.0
    # exactness: recompute jaccard from the distinct 5-gram sets
    docs = docs_ds.to_pandas().set_index("doc_id")["text"]
    for _, r in out.iterrows():
        sets = []
        for d in (r["doc_a"], r["doc_b"]):
            h, lens = _word_hashes_flat([docs[d]])
            sh, _ = _shingle_hashes_flat(h, lens, 5)
            sets.append(set(sh.tolist()))
        expect = len(sets[0] & sets[1]) / len(sets[0] | sets[1])
        assert abs(r["jaccard"] - expect) < 1e-12


def test_winnow_properties(ray_session):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.text import (
        _winnow_doc,
        winnow_fingerprints,
    )

    # identical docs -> identical summaries; appended tail shares most
    # selected fingerprints (winnowing locality)
    a = "the quick brown fox jumps over the lazy dog " * 5
    b = a + "extra tail words here"
    fa, fb = set(_winnow_doc(a, 5, 4)), set(_winnow_doc(b, 5, 4))
    assert fa and len(fa & fb) / len(fa) > 0.9
    # short/empty edges
    assert _winnow_doc("", 5, 4).size == 0
    assert _winnow_doc("ab", 5, 4).size == 1
    df = pd.DataFrame({"doc_id": [0, 1, 2], "text": [a, a, ""]})
    out = (
        winnow_fingerprints(rd.from_pandas(df))
        .to_pandas()
        .set_index("doc_id")
    )
    assert out.loc[0, "n_fp"] == out.loc[1, "n_fp"]
    assert out.loc[0, "min_fp"] == out.loc[1, "min_fp"]
    assert out.loc[2, "n_fp"] == 0 and np.isnan(out.loc[2, "min_fp"])


def test_embedding_cosine_dups_exact(emb_ds):
    from light_curve_feature_ray.pipelines.similarity import (
        embedding_cosine_dups,
    )

    ds, vecs = emb_ds
    thr = 0.3
    out = (
        embedding_cosine_dups(ds, threshold=thr)
        .to_pandas()
        .sort_values(["vec_a", "vec_b"])
        .reset_index(drop=True)
    )
    v = vecs.astype(np.float64)
    v = v / np.linalg.norm(v, axis=1, keepdims=True)
    cos = v @ v.T
    iu = np.triu_indices(len(v), k=1)
    want = {
        (int(a), int(b)): cos[a, b]
        for a, b in zip(*iu)
        if cos[a, b] >= thr
    }
    got = {(int(r["vec_a"]), int(r["vec_b"])): r["cosine"] for _, r in out.iterrows()}
    assert set(got) == set(want)
    for key in want:
        assert abs(got[key] - want[key]) < 1e-9


def test_embedding_cosine_dups_blockpair_matches_broadcast(emb_ds):
    """The default exact pair grid must emit EXACTLY the broadcast
    baseline's pairs (same set, same cosines) at any block count —
    each unordered pair is scored once, in the group of its two blocks."""
    from light_curve_feature_ray.pipelines.similarity import (
        embedding_cosine_dups,
    )

    ds, _ = emb_ds
    thr = 0.3

    def as_dict(out):
        return {
            (int(r["vec_a"]), int(r["vec_b"])): r["cosine"]
            for _, r in out.iterrows()
        }

    base = as_dict(
        embedding_cosine_dups(ds, threshold=thr, method="broadcast")
        .to_pandas()
    )
    for nb in (3, 7):
        got = as_dict(
            embedding_cosine_dups(
                ds.repartition(5), threshold=thr, num_blocks=nb
            ).to_pandas()
        )
        assert set(got) == set(base)
        for key in base:
            assert abs(got[key] - base[key]) < 1e-12


def test_embedding_cosine_dups_planted_recall(ray_session):
    """Planted near-duplicates (tiny perturbations of shared base
    vectors) must all surface as pairs — exact path, recall 1.0."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.similarity import (
        embedding_cosine_dups,
    )

    rng = np.random.default_rng(9)
    base = rng.normal(size=(10, 16))
    vecs, planted = [], set()
    vid = 0
    for b in range(10):
        for _ in range(3):  # 3 near-copies of each base -> 3 pairs each
            vecs.append(base[b] + rng.normal(scale=1e-3, size=16))
            vid += 1
    ids = np.arange(vid)
    for b in range(10):
        trio = ids[3 * b : 3 * b + 3]
        for x in range(3):
            for y in range(x + 1, 3):
                planted.add((int(trio[x]), int(trio[y])))
    # background noise vectors (orthogonal-ish, below threshold w.h.p.)
    noise = rng.normal(size=(50, 16))
    all_vecs = np.vstack([np.stack(vecs), noise])
    df = pd.DataFrame(
        {
            "vec_id": np.arange(len(all_vecs), dtype=np.int64),
            "embedding": list(all_vecs.astype(np.float32)),
        }
    )
    out = embedding_cosine_dups(
        rd.from_pandas(df).repartition(4), threshold=0.999
    ).to_pandas()
    got = {(int(a), int(b)) for a, b in zip(out["vec_a"], out["vec_b"])}
    assert planted <= got  # every planted pair recovered


def test_semantic_dedup_planted_groups(ray_session):
    """Planted near-identical groups: identical/near-identical vectors
    land in the same k-means cell, so every group member except its
    smallest id must be dropped with rep_id = that smallest id; isolated
    noise vectors are all kept. Output independent of block layout."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.similarity import semantic_dedup

    rng = np.random.default_rng(11)
    base = rng.normal(size=(6, 16))
    vecs = []
    groups = []
    for b in range(6):
        trio = []
        for _ in range(3):
            trio.append(len(vecs))
            vecs.append(base[b] + rng.normal(scale=1e-4, size=16))
        groups.append(trio)
    noise_start = len(vecs)
    vecs.extend(rng.normal(size=(40, 16)))
    df = pd.DataFrame(
        {
            "vec_id": np.arange(len(vecs), dtype=np.int64),
            "embedding": [v.astype(np.float32) for v in vecs],
        }
    )
    out = (
        semantic_dedup(
            rd.from_pandas(df).repartition(4),
            threshold=0.999,
            n_centroids=8,
            seed=3,
        )
        .to_pandas()
        .set_index("vec_id")
        .sort_index()
    )
    assert len(out) == len(vecs)
    for trio in groups:
        lead = min(trio)
        assert bool(out.loc[lead, "keep"])
        for v in trio:
            if v != lead:
                assert not bool(out.loc[v, "keep"])
                assert int(out.loc[v, "rep_id"]) == lead
    for v in range(noise_start, len(vecs)):
        assert bool(out.loc[v, "keep"])
        assert int(out.loc[v, "rep_id"]) == v
    # block-layout invariance
    again = (
        semantic_dedup(
            rd.from_pandas(df).repartition(9),
            threshold=0.999,
            n_centroids=8,
            seed=3,
        )
        .to_pandas()
        .set_index("vec_id")
        .sort_index()
    )
    pd.testing.assert_frame_equal(out, again)


def test_knn_lsh_multi_table_recall_improves(emb_ds):
    from light_curve_feature_ray.pipelines.similarity import (
        knn_cosine,
        lsh_knn_cosine,
    )

    ds, _ = emb_ds
    exact = knn_cosine(ds, n_queries=5, k=5).to_pandas()

    def recall(n_tables):
        approx = lsh_knn_cosine(
            ds, n_queries=5, k=5, n_planes=4, n_tables=n_tables
        ).to_pandas()
        hits = 0
        for q in range(5):
            e = set(exact[exact["query_id"] == q]["vec_id"])
            a = set(approx[approx["query_id"] == q]["vec_id"])
            hits += len(e & a)
        return hits / 25

    r1, r4 = recall(1), recall(4)
    assert r4 >= r1, (r1, r4)  # more tables never hurt recall
    assert r4 >= 0.5, (r1, r4)  # 4 tables at 4 planes finds most of top-5


def test_simhash_dups_pairs(docs_ds):
    from light_curve_feature_ray.pipelines.text import (
        simhash_dups,
        simhash_signatures,
    )

    out = (
        simhash_dups(docs_ds, max_hamming=6)
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    pairs = set(zip(out["doc_a"], out["doc_b"]))
    assert (2, 82) in pairs  # exact duplicate, hamming 0
    assert (0, 80) in pairs  # near duplicate, hamming <= 6
    # reported hamming equals the true signature hamming
    sigs = simhash_signatures(docs_ds).to_pandas().set_index("doc_id")["simhash"]
    for _, r in out.iterrows():
        true = bin(int(sigs[r["doc_a"]]) ^ int(sigs[r["doc_b"]])).count("1")
        assert r["hamming"] == true
        assert true <= 6


def test_simhash_poly_hasher_deterministic_and_exact_recall(docs_ds):
    """The SQL-reproducible ``poly`` hasher: signatures fit in 48 bits,
    match a scalar mod-arithmetic reference, and banding still has exact
    recall (pairs == brute force over signatures)."""
    from light_curve_feature_ray.pipelines.text import (
        _WINNOW_MOD,
        simhash_dups,
        simhash_signatures,
    )

    sigs = (
        simhash_signatures(docs_ds, hasher="poly")
        .to_pandas()
        .set_index("doc_id")["simhash"]
        .sort_index()
    )
    assert (sigs >= 0).all() and (sigs < (1 << 48)).all()

    # scalar reference for one doc
    docs = docs_ds.to_pandas().set_index("doc_id")["text"]
    did = sigs.index[0]
    words = docs[did].lower().split()
    votes = [0] * 48
    for w in words:
        h = 0
        for ch in w:
            h = (h * 31 + ord(ch)) % _WINNOW_MOD
        for _ in range(4):
            h = (h * 25781 + 104729) % _WINNOW_MOD
        for b in range(48):
            votes[b] += 1 if (h >> b) & 1 else -1
    expect = sum(1 << b for b in range(48) if votes[b] > 0)
    assert int(sigs[did]) == expect

    # exact recall: banded pairs == brute force xor-popcount
    out = simhash_dups(docs_ds, max_hamming=6, hasher="poly").to_pandas()
    got = set(zip(out["doc_a"], out["doc_b"]))
    ids = sigs.index.to_numpy()
    sv = sigs.to_numpy().astype(np.int64)
    brute = set()
    for i in range(len(ids)):
        x = sv[i] ^ sv[i + 1 :]
        ham = np.zeros(x.shape[0], dtype=np.int64)
        for b in range(48):
            ham += (x >> b) & 1
        for j in np.flatnonzero(ham <= 6):
            brute.add((min(ids[i], ids[i + 1 + j]), max(ids[i], ids[i + 1 + j])))
    assert got == brute


def test_knn_ivf_recall(emb_ds):
    from light_curve_feature_ray.pipelines.similarity import (
        ivf_knn_cosine,
        knn_cosine,
    )

    ds, _ = emb_ds
    exact = knn_cosine(ds, n_queries=5, k=5).to_pandas()
    approx = ivf_knn_cosine(
        ds, n_queries=5, k=5, n_centroids=8, nprobe=3
    ).to_pandas()
    hits = 0
    for q in range(5):
        e = set(exact[exact["query_id"] == q]["vec_id"])
        a = set(approx[approx["query_id"] == q]["vec_id"])
        hits += len(e & a)
    assert hits / 25 >= 0.3, hits / 25
    # the query's own cell is always probed -> self-match at rank 1
    for q in range(5):
        g = approx[approx["query_id"] == q].sort_values("rank")
        assert g.iloc[0]["vec_id"] == q and abs(g.iloc[0]["cosine"] - 1) < 1e-9


def _canonical(ds) -> pd.DataFrame:
    """Rows sorted by their non-float columns (a cosine may move by an ulp
    with the rows beside it in a matmul, so it must not order rows)."""
    df = ds.to_pandas()
    keys = sorted(c for c in df.columns if df[c].dtype.kind != "f")
    df = df[keys + sorted(set(df.columns) - set(keys))]
    return df.sort_values(keys).reset_index(drop=True)


def test_approximate_paths_identical_on_one_and_many_blocks(emb_ds):
    """The LSH, IVF and semantic-dedup exchanges drop or duplicate no
    candidate: the output on one block equals the output on many blocks
    holding the rows in another order (ids, ranks and flags exactly;
    cosines to an ulp, as a matmul over the rows in another order gives)."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.similarity import (
        ivf_knn_cosine,
        lsh_knn_cosine,
        semantic_dedup,
    )

    ds, _ = emb_ds
    df = ds.to_pandas()
    one = rd.from_pandas(df).repartition(1)
    many = rd.from_pandas(df.sample(frac=1.0, random_state=7)).repartition(9)
    ops = {
        "lsh": lambda d: lsh_knn_cosine(d, n_queries=7, k=5, n_planes=4, n_tables=3),
        "ivf": lambda d: ivf_knn_cosine(d, n_queries=7, k=5, n_centroids=8, nprobe=3),
        "semantic": lambda d: semantic_dedup(d, threshold=0.5, n_centroids=8),
    }
    for name, op in ops.items():
        got, want = _canonical(op(many)), _canonical(op(one))
        assert len(want), name
        pd.testing.assert_frame_equal(got, want, rtol=1e-12, obj=name)


def test_ivf_knn_equals_numpy_over_probed_cells(emb_ds):
    """ivf_knn_cosine is an exact top-k over the members of each query's
    ``nprobe`` nearest cells, with the centroids the operator trains
    (``_train_rows`` + ``_kmeans_cosine``)."""
    from light_curve_feature_ray.pipelines.similarity import (
        _kmeans_cosine,
        _normalize,
        _to_matrix,
        _train_rows,
        ivf_knn_cosine,
    )

    ds, vecs = emb_ds
    n_queries, k, n_centroids, nprobe, seed = 6, 7, 8, 3, 5
    out = ivf_knn_cosine(
        ds, n_queries=n_queries, k=k, n_centroids=n_centroids, nprobe=nprobe,
        seed=seed,
    ).to_pandas()
    train = _train_rows(ds, 2048, seed)
    cents = _kmeans_cosine(
        _normalize(_to_matrix(train["embedding"])), n_centroids, seed=seed
    )
    v = _normalize(vecs.astype(np.float64))
    cell = np.argmax(v @ cents.T, axis=1)
    probe = np.argsort(-(v[:n_queries] @ cents.T), axis=1)[:, :nprobe]
    assert sorted(out["query_id"].unique()) == list(range(n_queries))
    for q in range(n_queries):
        members = np.flatnonzero(np.isin(cell, probe[q]))
        cos = v[members] @ v[q]
        order = np.lexsort((members, -cos))[:k]
        got = out[out["query_id"] == q].sort_values("rank")
        np.testing.assert_array_equal(got["rank"], np.arange(1, order.size + 1))
        np.testing.assert_array_equal(got["vec_id"], members[order])
        np.testing.assert_allclose(got["cosine"], cos[order], rtol=1e-12)


def test_redact(ray_session):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.text import redact

    df = pd.DataFrame(
        {
            "doc_id": [0, 1, 2],
            "text": [
                "mail a.b+c@ex-ample.co.uk or https://x.y/z?id=1234567 now",
                "short 12345 stays, 123456 goes",
                "clean text",
            ],
        }
    )
    out = redact(rd.from_pandas(df)).to_pandas().set_index("doc_id")
    assert out.loc[0, "clean_text"] == "mail <EMAIL> or <URL> now"
    assert out.loc[0, "n_redactions"] == 2
    assert out.loc[1, "clean_text"] == "short 12345 stays, <NUM> goes"
    assert out.loc[1, "n_redactions"] == 1
    assert out.loc[2, "clean_text"] == "clean text"
    assert out.loc[2, "n_redactions"] == 0


def test_dedup_block_layout_invariance(docs_ds, ray_session):
    """Dedup-family outputs must not depend on how the corpus is split
    into blocks (the per-operator analog of the rollup's
    parallelism-invariance invariant)."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.text import (
        minhash_lsh_dups,
        ngram_jaccard_dups,
        simhash_dups,
    )

    df = docs_ds.to_pandas()
    one = rd.from_pandas(df)  # single block
    many = rd.from_pandas([df.iloc[i::7].reset_index(drop=True) for i in range(7)])

    def norm(ds, cols):
        return (
            ds.to_pandas()
            .sort_values(["doc_a", "doc_b"])
            .reset_index(drop=True)[cols]
        )

    for fn, cols in (
        (lambda d: minhash_lsh_dups(d, threshold=0.5), ["doc_a", "doc_b", "jaccard"]),
        (lambda d: ngram_jaccard_dups(d, k=5, threshold=0.3), ["doc_a", "doc_b", "jaccard"]),
        (lambda d: simhash_dups(d, max_hamming=6), ["doc_a", "doc_b", "hamming"]),
    ):
        a, b = norm(fn(one), cols), norm(fn(many), cols)
        pd.testing.assert_frame_equal(a, b)


def test_winnow_batch_matches_per_doc():
    """The flat-offset batch winnower is bit-identical to the per-doc
    reference implementation across edge shapes (empty, short, exactly-k,
    m==w boundary, long, unicode)."""
    import numpy as np

    from light_curve_feature_ray.pipelines.text import _winnow_batch, _winnow_doc

    texts = [
        "",
        "ab",
        "abcde",          # n == k: one window
        "abcdefgh",       # m == w boundary
        "the quick brown fox jumps over the lazy dog " * 5,
        "café déjà vu — ünïcödé text with 123 numbers",
        "aaaaaaaaaaaaaaa",  # degenerate repeats
        None,
    ]
    k, w = 5, 4
    n_fp, min_fp, max_fp = _winnow_batch(texts, k, w)
    for i, t in enumerate(texts):
        fps = _winnow_doc(t or "", k, w)
        assert n_fp[i] == fps.shape[0], (i, t)
        if fps.size:
            assert min_fp[i] == fps[0] and max_fp[i] == fps[-1], (i, t)
        else:
            assert np.isnan(min_fp[i]) and np.isnan(max_fp[i])


def test_segment_pairs_matches_triu():
    import numpy as np

    from light_curve_feature_ray.pipelines.text import _segment_pairs

    rng = np.random.default_rng(5)
    sizes = rng.integers(1, 12, 40).astype(np.int64)
    sizes[3] = 1
    sizes[7] = 0 + 1  # size-1 groups produce no pairs
    starts = np.r_[0, np.cumsum(sizes)[:-1]]
    a, b = _segment_pairs(starts, sizes)
    expect_a, expect_b = [], []
    for s0, sz in zip(starts, sizes):
        i, j = np.triu_indices(sz, k=1)
        expect_a.extend((s0 + i).tolist())
        expect_b.extend((s0 + j).tolist())
    assert sorted(zip(a.tolist(), b.tolist())) == sorted(
        zip(expect_a, expect_b)
    )
    # big-group guard for the float inverse (max_bucket-scale sizes)
    sizes = np.array([257], dtype=np.int64)
    starts = np.array([0], dtype=np.int64)
    a, b = _segment_pairs(starts, sizes)
    i, j = np.triu_indices(257, k=1)
    assert sorted(zip(a.tolist(), b.tolist())) == sorted(zip(i.tolist(), j.tolist()))


def test_connected_components_min_label(ray_session):
    """Min-label propagation matches a union-find reference on a graph
    with chains (diameter > 2), cliques, and singleton pairs — and is
    invariant to the partition count."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from light_curve_feature_ray.pipelines.graph import (
        connected_components_min_label,
        dedup_keep_representatives,
    )

    rng = np.random.default_rng(7)
    edges = []
    # chain 10-11-...-19 (diameter 9 — exercises multi-round convergence)
    edges += [(i, i + 1) for i in range(10, 19)]
    # clique on {30, 31, 32, 33}
    edges += [(a, b) for a in (30, 31, 32, 33) for b in (30, 31, 32, 33) if a < b]
    # isolated pair + random small blobs
    edges += [(50, 51)]
    for base in (100, 200, 300):
        ids = base + rng.permutation(6)[:4]
        edges += [(int(min(x, y)), int(max(x, y))) for x, y in zip(ids[:-1], ids[1:])]
    df = pd.DataFrame(edges, columns=["doc_a", "doc_b"])

    # union-find reference
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    expect = {n: find(n) for n in parent}

    # both routing paths must produce the identical min-label fixpoint
    for method in ("driver", "distributed"):
        for nparts in (4, 32):
            out = (
                connected_components_min_label(
                    rd.from_pandas(df), num_partitions=nparts, method=method
                )
                .to_pandas()
                .sort_values("node")
            )
            got = dict(zip(out["node"], out["lab"]))
            assert got == expect, (method, nparts)

    # auto routes small edge lists to the driver path; loud over the bound
    import pytest as _pytest

    with _pytest.raises(ValueError, match="max_driver_edges"):
        connected_components_min_label(
            rd.from_pandas(df), method="driver", max_driver_edges=2
        )
    with _pytest.raises(ValueError, match="unknown method"):
        connected_components_min_label(rd.from_pandas(df), method="bogus")

    keep = dedup_keep_representatives(rd.from_pandas(df)).to_pandas()
    reps = set(keep.loc[keep["keep"], "doc_id"])
    assert reps == set(expect.values())
    assert (keep["rep_id"] == keep["doc_id"].map(expect)).all()


def test_multimodal_resize_stub(ray_session):
    import hashlib

    import ray.data as rd

    from light_curve_feature_ray.pipelines.multimodal import (
        attach_fake_payloads,
        resize_images,
    )

    df = pd.DataFrame(
        {"doc_id": [1, 2, 3], "text": ["hello", "world", "a longer text"]}
    )
    out = (
        resize_images(attach_fake_payloads(rd.from_pandas(df)), target=32)
        .to_pandas()
        .sort_values("item_id")
        .reset_index(drop=True)
    )
    assert len(out) == 3
    for _, row in out.iterrows():
        text = df.loc[df.doc_id == row.item_id, "text"].iloc[0]
        hx = hashlib.sha256(text.encode()).hexdigest()
        d = bytes.fromhex(hx)
        w, h = 1 + d[0] % 64, 1 + d[1] % 64
        m = max(w, h)
        ew = max(1, w * 32 // m) if m > 32 else w
        eh = max(1, h * 32 // m) if m > 32 else h
        assert (row.width, row.height) == (ew, eh)
        assert max(row.width, row.height) <= 32
        assert (
            row.resized_sha
            == hashlib.sha256(f"{hx}-{ew}x{eh}".encode()).hexdigest()
        )


def test_multimodal_frame_sampling(ray_session):
    import hashlib

    import ray.data as rd

    from light_curve_feature_ray.pipelines.multimodal import (
        attach_fake_payloads,
        sample_frames,
    )

    df = pd.DataFrame(
        {"doc_id": list(range(10)), "text": [f"doc {i}" for i in range(10)]}
    )
    out = (
        sample_frames(attach_fake_payloads(rd.from_pandas(df)), k=3)
        .to_pandas()
    )
    for item_id, g in out.groupby("item_id"):
        text = f"doc {item_id}"
        hx = hashlib.sha256(text.encode()).hexdigest()
        n = 1 + bytes.fromhex(hx)[2] % 16
        exp_idx = sorted({i * (n - 1) // 2 for i in range(3)})
        assert sorted(g["frame_idx"]) == exp_idx
        assert set(g["n_frames"]) == {n}
        for _, row in g.iterrows():
            assert (
                row.frame_sha
                == hashlib.sha256(
                    f"{hx}-frame-{row.frame_idx}".encode()
                ).hexdigest()
            )


def test_normalize_text_unicode_and_nulls(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from light_curve_feature_ray.pipelines.text import normalize_text

    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
            "text": pa.array(
                ["Café  Du \t Monde", "  A\nB  ", None, "xyz"]
            ),
        }
    )
    out = (
        normalize_text(rd.from_arrow(t))
        .to_pandas()
        .sort_values("doc_id")["norm_text"]
        .tolist()
    )
    # NFC composes e + combining acute into é; runs collapse; trim; null passes
    assert out == ["café du monde", "a b", None, "xyz"]


def test_json_extract_fields(ray_session):
    import pandas as pd
    import ray.data as rd

    from light_curve_feature_ray.pipelines.text import json_extract_fields

    df = pd.DataFrame(
        {
            "event_id": [0, 1, 2, 3, 4],
            "props": [
                '{"k": 69, "s": "hi", "f": 1.5}',
                '{"k": "not a number"}',
                "garbage",
                None,
                '{"other": 1}',
            ],
        }
    )
    got = (
        json_extract_fields(
            rd.from_pandas(df),
            json_col="props",
            fields={
                "k": ("$.k", "int64"),
                "s": ("$.s", "string"),
                "f": ("$.f", "float64"),
            },
        )
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    assert got["k"].tolist()[0] == 69
    assert pd.isna(got["k"][1:]).all()  # bad cast, garbage, null, missing
    assert got["s"][0] == "hi" and pd.isna(got["s"][1:]).all()
    assert got["f"][0] == 1.5

    import pytest as _pytest

    with _pytest.raises(ValueError):
        json_extract_fields(
            rd.from_pandas(df), json_col="props", fields={"k": ("$.k", "int32")}
        )


def test_kcenter_sample_paths_agree_and_cover(ray_session):
    """Greedy k-center: the driver numpy fast path and the distributed
    rounds path select IDENTICAL points; with k = number of planted
    clusters every cluster contributes exactly one center; min_dist is
    non-increasing; selection is partition-invariant."""
    import ray.data as rd

    from light_curve_feature_ray.pipelines.similarity import kcenter_sample

    rng = np.random.default_rng(41)
    n_clusters, per = 6, 40
    cents = rng.normal(size=(n_clusters, 12))
    X = np.vstack(
        [c + 0.03 * rng.normal(size=(per, 12)) for c in cents]
    ).astype(np.float32)
    df = pd.DataFrame(
        {
            "vec_id": np.arange(n_clusters * per, dtype=np.int64),
            "embedding": list(X),
        }
    )
    ds = rd.from_pandas(df).repartition(7)
    a = kcenter_sample(ds, k=n_clusters, method="driver").to_pandas()
    b = kcenter_sample(ds, k=n_clusters, method="rounds").to_pandas()
    assert list(a["vec_id"]) == list(b["vec_id"])
    np.testing.assert_allclose(
        a["min_dist"][1:], b["min_dist"][1:], rtol=1e-9
    )
    # farthest-first covers every planted cluster exactly once
    assert sorted(set(a["vec_id"] // per)) == list(range(n_clusters))
    # coverage radius is non-increasing
    d = a["min_dist"].to_numpy()[1:]
    assert (np.diff(d) <= 1e-12).all()
    assert np.isnan(a["min_dist"][0])
    # partition invariance (different layout, same selection)
    c = kcenter_sample(
        rd.from_pandas(df).repartition(13), k=n_clusters, method="rounds"
    ).to_pandas()
    assert list(a["vec_id"]) == list(c["vec_id"])


def test_kcenter_sample_edges(ray_session):
    import ray.data as rd

    from light_curve_feature_ray.pipelines.similarity import kcenter_sample

    df = pd.DataFrame(
        {
            "vec_id": np.array([7, 3, 11], dtype=np.int64),
            "embedding": [
                np.array([1.0, 0.0], dtype=np.float32),
                np.array([0.0, 1.0], dtype=np.float32),
                np.array([-1.0, 0.0], dtype=np.float32),
            ],
        }
    )
    ds = rd.from_pandas(df)
    # k > n clamps to n; seed is the SMALLEST id (3), then farthest
    got = kcenter_sample(ds, k=10, method="driver").to_pandas()
    assert list(got["vec_id"]) == [3, 7, 11] or list(got["vec_id"]) == [
        3, 11, 7,
    ]
    assert len(got) == 3
    # both orthogonal points are at distance 1.0 from the seed: the tie
    # must break to the smaller id (7) on both paths
    assert got["vec_id"][1] == 7
    r = kcenter_sample(ds, k=10, method="rounds").to_pandas()
    assert list(got["vec_id"]) == list(r["vec_id"])
    with pytest.raises(ValueError):
        kcenter_sample(ds, k=0)
    with pytest.raises(ValueError):
        kcenter_sample(ds, k=2, method="nope")
