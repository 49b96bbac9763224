"""Text-analysis + deduplication operators over a ``documents`` table
(doc_id, text, ...). Engine-side additions for large-scale training-data
pipelines (no reference counterpart; patterns follow the Ray Data guide:
vectorized map_batches + pre-aggregated groupbys; MinHash/LSH per Broder
1997 / Leskovec et al., "Mining of Massive Datasets" ch.3).

All deterministic: fixed hash seeds, no RNG at eval time. Hot paths are
vectorized end to end: tokenization + word hashing via polars (ahash),
shingle hashes via a polynomial combine of word hashes (numpy uint64
wraparound), minhash via per-permutation ``minimum.reduceat`` over the
flat shingle array — no per-row Python in any per-document loop.

Scale notes (100-TB posture):
- exact dedup is a pure ``groupby().min()`` aggregate (partial per-block
  combine, one shuffle of (hash, id) pairs only);
- MinHash-LSH candidate generation caps band-bucket membership
  (``max_bucket``) so one degenerate band hash cannot go quadratic; drops
  are logged;
- candidate *verification* stays distributed: only candidate doc ids are
  broadcast (``ray.put``); texts ship through a keyed shuffle of candidate
  docs only, never via a driver-side corpus scan — and both the
  text-attach and the exact-Jaccard verify are partition-level vectorized
  (searchsorted scatter; per-pair intersection = adjacent-duplicate count
  in the (pair, shingle)-sorted flat array). No per-doc or per-pair
  Python anywhere in the dedup family.
"""

from __future__ import annotations

import hashlib
import logging
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.exchange import auto_shuffle_partitions, hash_mod_part, reduce_by_part

logger = logging.getLogger(__name__)

_WORD_RE = re.compile(r"\S+")
_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.ASCII)

# small English stopword list shared with the SQL oracle (__ray_entry__.py)
EN_STOPWORDS = (
    "the of and to in a is that for it as with on be by this are or at from".split()
)
_EN_STOP = frozenset(EN_STOPWORDS)

_HASH_SEED = 7  # polars ahash seed for word hashing (fixed => deterministic)
_POLY = np.uint64(0x100000001B3)  # FNV-ish odd multiplier for combines
_EMPTY_SHINGLE = np.uint64(0x9E3779B97F4A7C15)  # hash of the empty doc


def _poly_perm_coeffs(num_perms: int, seed: int):
    """Coefficients for SQL-reproducible minhash permutations: each
    permutation is TWO chained affine maps x -> (a*x + b) % mod with
    a < 2^15 (so a*x + b < 2^63 stays exact in int64 AND DuckDB BIGINT).
    The composition has effective multiplier a1*a2 % mod — full-range
    mixing despite the small per-round coefficients. Returns
    (a1, b1, a2, b2) int64 arrays; __ray_entry__ embeds the same values
    in the SQL oracle."""
    rng = np.random.default_rng(seed)
    a1 = rng.integers(1, 1 << 15, num_perms).astype(np.int64)
    b1 = rng.integers(0, _WINNOW_MOD, num_perms).astype(np.int64)
    a2 = rng.integers(1, 1 << 15, num_perms).astype(np.int64)
    b2 = rng.integers(0, _WINNOW_MOD, num_perms).astype(np.int64)
    return a1, b1, a2, b2


def _md5_hex_arrow(texts) -> pa.Array:
    """md5 hex of an Arrow string column (digesting is per-row by necessity
    — no batch md5 kernel exists; the surrounding stage stays zero-copy
    Arrow with no pandas hop)."""
    return pa.array(
        [hashlib.md5(t.encode("utf-8")).hexdigest() for t in texts.to_pylist()],
        type=pa.string(),
    )


# ---------------------------------------------------------------------------
# vectorized tokenization / shingling (shared by minhash, simhash, stats)
# ---------------------------------------------------------------------------


def _texts_as_polars(texts):
    """Polars String series from numpy-object/list OR Arrow input —
    Arrow arrays convert zero-copy (no object-dtype hop), which is what
    lets the full-corpus minhash/simhash stages stay Arrow-native."""
    import polars as pl

    if isinstance(texts, (pa.Array, pa.ChunkedArray)):
        s = pl.from_arrow(texts)
        if isinstance(s, pl.DataFrame):
            s = s.to_series()
        return s.cast(pl.String).fill_null("")
    return pl.Series("t", texts, dtype=pl.String).fill_null("")


def _word_hashes_flat(texts) -> tuple[np.ndarray, np.ndarray]:
    """Lowercased whitespace tokens of each text, hashed. Returns
    (flat uint64 word hashes, per-doc word counts)."""
    s = _texts_as_polars(texts)
    words = s.str.to_lowercase().str.extract_all(r"\S+")
    lens = words.list.len().to_numpy().astype(np.int64)
    flat = words.explode(empty_as_null=True).drop_nulls()
    h = flat.hash(seed=_HASH_SEED).to_numpy().astype(np.uint64)
    return h, lens


def _shingle_hashes_flat(
    h: np.ndarray, lens: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Hashes of word k-gram shingles per document, from the flat word-hash
    array. Docs with 0 < n < k words get ONE shingle combining all their
    words; empty docs get the constant empty-shingle hash (mirrors the
    one-shingle semantics of joining the words of a short doc).
    Returns (flat shingle hashes, per-doc shingle counts)."""
    n = h.shape[0]
    ndocs = lens.shape[0]
    starts = np.r_[0, np.cumsum(lens)[:-1]]
    counts = np.where(lens >= k, lens - k + 1, 1).astype(np.int64)
    total = int(counts.sum())
    doc_of = np.repeat(np.arange(ndocs), counts)
    run_starts = np.r_[0, np.cumsum(counts)[:-1]]
    offset = np.arange(total) - run_starts[doc_of]
    pos = starts[doc_of] + offset

    # polynomial rolling hash over every stride-1 window of the flat array
    if n >= k:
        r = h[: n - k + 1].copy()
        for i in range(1, k):
            r = r * _POLY + h[i : n - k + 1 + i]
    else:
        r = np.empty(0, dtype=np.uint64)
    sh = np.empty(total, dtype=np.uint64)
    full = lens[doc_of] >= k
    if full.any():
        sh[full] = r[np.minimum(pos[full], max(n - k, 0))]
    short = ~full
    if short.any():
        # docs with < k words: one shingle = polynomial over all their
        # words — vectorized as at most k-1 rounds over ALL short docs at
        # once (round j folds word j into every short doc that has one)
        sj = np.flatnonzero(short)
        docs_s = doc_of[sj]
        lens_s = lens[docs_s]
        starts_s = starts[docs_s]
        acc = np.zeros(sj.shape[0], dtype=np.uint64)
        for j in range(int(lens_s.max(initial=0))):
            has = lens_s > j
            acc[has] = acc[has] * _POLY + h[starts_s[has] + j]
        acc[lens_s == 0] = _EMPTY_SHINGLE
        sh[sj] = acc
    return sh, counts


def _shingle_poly_hashes_flat(
    h: np.ndarray, lens: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """SQL-reproducible twin of ``_shingle_hashes_flat``: the window
    combine is ``(acc*31 + h) % mod`` on sub-2^48 int64 word hashes
    (every product < 2^53 — exact in int64 and BIGINT), short docs fold
    all their words, empty docs hash to 0. Same return contract."""
    n = h.shape[0]
    ndocs = lens.shape[0]
    starts = np.r_[0, np.cumsum(lens)[:-1]]
    counts = np.where(lens >= k, lens - k + 1, 1).astype(np.int64)
    total = int(counts.sum())
    doc_of = np.repeat(np.arange(ndocs), counts)
    run_starts = np.r_[0, np.cumsum(counts)[:-1]]
    offset = np.arange(total) - run_starts[doc_of]
    pos = starts[doc_of] + offset

    if n >= k:
        r = h[: n - k + 1].copy()
        for i in range(1, k):
            r = (r * 31 + h[i : n - k + 1 + i]) % _WINNOW_MOD
    else:
        r = np.empty(0, dtype=np.int64)
    sh = np.empty(total, dtype=np.int64)
    full = lens[doc_of] >= k
    if full.any():
        sh[full] = r[np.minimum(pos[full], max(n - k, 0))]
    short = ~full
    if short.any():
        sj = np.flatnonzero(short)
        docs_s = doc_of[sj]
        lens_s = lens[docs_s]
        starts_s = starts[docs_s]
        acc = np.zeros(sj.shape[0], dtype=np.int64)
        for j in range(int(lens_s.max(initial=0))):
            has = lens_s > j
            acc[has] = (acc[has] * 31 + h[starts_s[has] + j]) % _WINNOW_MOD
        sh[sj] = acc  # empty docs keep the 0 fold
    return sh, counts


def _shingle_set(text: str, k: int = 3) -> np.ndarray:
    """Shingle hashes of one text (same definition as the batched path)."""
    h, lens = _word_hashes_flat([text])
    sh, _ = _shingle_hashes_flat(h, lens, k)
    return np.unique(sh)


def jaccard_words(a: str, b: str, k: int = 3) -> float:
    sa, sb = _shingle_set(a, k), _shingle_set(b, k)
    if sa.size == 0 and sb.size == 0:
        return 1.0
    inter = np.intersect1d(sa, sb, assume_unique=True).size
    return inter / (sa.size + sb.size - inter)


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def exact_dedup(docs_ds):
    """Hash-partition + min aggregate: one row per distinct text, keeping
    the smallest doc_id (deterministic across any shuffle order).
    A pure ``groupby().min()`` — Ray Data pre-combines per block, so only
    (text_md5, doc_id) partials cross the exchange. Returns
    (doc_id, text_md5)."""

    def add_hash(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": batch["doc_id"], "text_md5": _md5_hex_arrow(batch["text"])}
        )

    hashed = docs_ds.map_batches(add_hash, batch_format="pyarrow", batch_size=None)
    agg = hashed.groupby("text_md5").min("doc_id")
    return agg.map_batches(
        lambda b: pa.table(
            {"doc_id": b["min(doc_id)"], "text_md5": b["text_md5"]}
        ),
        batch_format="pyarrow",
        batch_size=None,
    )


def fingerprint(docs_ds):
    """Content fingerprint per document (md5 hex)."""
    return docs_ds.map_batches(
        lambda b: pa.table(
            {"doc_id": b["doc_id"], "fp": _md5_hex_arrow(b["text"])}
        ),
        batch_format="pyarrow",
        batch_size=None,
    )


def _nfc_array(col) -> pa.Array:
    """True Unicode NFC of a string column.  pyarrow's ``utf8_normalize``
    does NOT compose combining sequences (pyarrow 16: 'e'+U+0301 stays
    decomposed — silently wrong NFC), so composition runs through
    ``unicodedata.normalize`` — but as ONE C-level call over the
    NUL-joined column, not a per-row loop: NUL has no composition
    behavior, so normalization never acts across the join boundaries.
    Strings that themselves contain NUL (vanishingly rare in text) take
    a per-string fallback.  An ``is_normalized`` pre-check makes the
    common already-NFC (e.g. pure-ASCII) batch a no-op."""
    import unicodedata

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    strs = col.to_pylist()
    safe = [s if s is not None and "\x00" not in s else "" for s in strs]
    joined = "\x00".join(safe)
    if not unicodedata.is_normalized("NFC", joined):
        safe = unicodedata.normalize("NFC", joined).split("\x00")
    out = [
        (
            None
            if s is None
            else (
                safe[i]
                if "\x00" not in s
                else unicodedata.normalize("NFC", s)
            )
        )
        for i, s in enumerate(strs)
    ]
    return pa.array(out, type=pa.string())


def normalize_text(docs_ds, *, text_col: str = "text", out_col: str = "norm_text"):
    """Canonical text normalization for dedup/training prep: Unicode NFC,
    lowercase, ASCII-whitespace runs collapsed to one space, trimmed.
    NFC composition is one C-level ``unicodedata`` call per batch (see
    :func:`_nfc_array`); everything after runs on zero-copy Arrow kernels
    (``utf8_lower`` / RE2 ``replace_substring_regex``), byte-identical to
    the DuckDB spelling
    ``trim(regexp_replace(lower(nfc_normalize(x)), '\\s+', ' ', 'g'))``
    (both engines run RE2, where ``\\s`` is the ASCII class).  Nulls pass
    through as nulls."""
    import pyarrow.compute as pc

    def f(batch: pa.Table) -> pa.Table:
        s = _nfc_array(batch[text_col])
        s = pc.utf8_lower(s)
        s = pc.replace_substring_regex(s, pattern=r"\s+", replacement=" ")
        s = pc.utf8_trim_whitespace(s)
        return pa.table({"doc_id": batch["doc_id"], out_col: s})

    return docs_ds.map_batches(f, batch_format="pyarrow", batch_size=None)


# ---------------------------------------------------------------------------
# text statistics / quality / language id
# ---------------------------------------------------------------------------


def _stats_frame(batch: pa.Table) -> pa.Table:
    """Arrow in, Arrow out: the text column goes straight into polars
    (zero-copy from Arrow) — no pandas hop anywhere in the stats family."""
    import polars as pl

    s = pl.from_arrow(batch["text"]).fill_null("")
    n_chars = s.str.len_chars().to_numpy().astype("int64")
    non_space = s.str.replace_all(r"\s", "").str.len_chars().to_numpy().astype("int64")
    words = s.str.to_lowercase().str.extract_all(r"\S+")
    n_words = words.list.len().to_numpy().astype("int64")
    stop_hits = (
        words.list.eval(pl.element().is_in(list(_EN_STOP)))
        .list.sum()
        .fill_null(0)
        .to_numpy()
        .astype("int64")
    )
    # explicit ASCII class (same as the token-count oracle) so the SQL
    # side's RE2 counts the identical characters
    punct = (
        s.str.count_matches(r"[^0-9A-Za-z_ \t\n\r\f\v]")
        .fill_null(0)
        .to_numpy()
        .astype("int64")
    )
    with np.errstate(invalid="ignore"):
        avg_word_len = np.where(n_words > 0, non_space / n_words, np.nan)
        stop_ratio = np.where(n_words > 0, stop_hits / n_words, np.nan)
        punct_ratio = np.where(n_chars > 0, punct / n_chars, np.nan)
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_chars": pa.array(n_chars),
            "n_words": pa.array(n_words),
            "avg_word_len": pa.array(avg_word_len),
            "stop_ratio": pa.array(stop_ratio),
            "punct_ratio": pa.array(punct_ratio),
        }
    )


def text_stats(docs_ds):
    """Per-document length / word-count / quality-signal columns."""
    return docs_ds.map_batches(
        _stats_frame, batch_format="pyarrow", batch_size=None
    )


def lang_id(docs_ds, threshold: float = 0.08):
    """Stopword-ratio language heuristic: 'en' iff the fraction of words in
    the English stop list reaches ``threshold``."""

    def f(batch: pa.Table) -> pa.Table:
        st = _stats_frame(batch)
        sr = st["stop_ratio"].to_numpy(zero_copy_only=False)
        pred = np.where(np.nan_to_num(sr, nan=0.0) >= threshold, "en", "other")
        return pa.table(
            {"doc_id": batch["doc_id"], "lang_pred": pa.array(pred)}
        )

    return docs_ds.map_batches(f, batch_format="pyarrow", batch_size=None)


# the Rust-regex (polars) spelling of _TOKEN_RE with Python-ASCII classes
# expanded literally, so counts are identical to re.ASCII and to the SQL
# oracle's RE2 regexp_extract_all
_TOKEN_RE_POLARS = r"[0-9A-Za-z_]+|[^0-9A-Za-z_ \t\n\r\f\v]"


def token_count(docs_ds):
    """BPE-ish token counting: \\w+ runs and single punctuation marks
    (ASCII classes, mirrored by the SQL oracle's regexp_extract_all).
    Vectorized via polars count_matches over the Arrow column."""
    import polars as pl

    def f(batch: pa.Table) -> pa.Table:
        s = pl.from_arrow(batch["text"]).fill_null("")
        n = s.str.count_matches(_TOKEN_RE_POLARS).fill_null(0)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(n.to_numpy().astype(np.int64)),
            }
        )

    return docs_ds.map_batches(f, batch_format="pyarrow", batch_size=None)


def top_terms(docs_ds, k: int = 20):
    """Exact corpus-wide top-k vocabulary terms (lowercased, same token
    regex as ``token_count``), ties broken by ascending term.

    Scale shape: block-local tokenize + value_counts COMBINER (the
    shuffle carries one row per distinct term per block, not one per
    token), ``groupby(term).sum`` over the vocabulary-sized partials,
    then block-local top-k partials merged by a single final task
    (``repartition(1)`` over at most k rows per vocab block) — no
    driver-side work, no global sort of the corpus."""
    import polars as pl

    def partial_counts(batch: pa.Table) -> pa.Table:
        s = pl.from_arrow(batch["text"]).fill_null("")
        toks = (
            s.str.to_lowercase()
            .str.extract_all(_TOKEN_RE_POLARS)
            .explode(empty_as_null=True)
            .drop_nulls()  # empty token lists explode to one null
            .alias("term")
        )
        vc = toks.value_counts()
        return pa.table(
            {
                "term": vc["term"].to_arrow().cast(pa.string()),
                "cnt": pa.array(vc["count"].to_numpy().astype(np.int64)),
            }
        )

    def local_topk(b: pd.DataFrame) -> pd.DataFrame:
        return b.sort_values(
            ["cnt", "term"], ascending=[False, True], kind="mergesort"
        ).head(k)

    totals = (
        docs_ds.map_batches(
            partial_counts, batch_format="pyarrow", batch_size=None
        )
        .groupby("term")
        .sum("cnt")
        .map_batches(
            lambda t: pa.table({"term": t["term"], "cnt": t["sum(cnt)"]}),
            batch_format="pyarrow",
            batch_size=None,
        )
    )
    return (
        totals.map_batches(local_topk, batch_format="pandas", batch_size=None)
        .repartition(1)
        .map_batches(local_topk, batch_format="pandas", batch_size=None)
    )


def tfidf_top_terms(docs_ds, k: int = 3, max_vocab_broadcast: int = 5_000_000):
    """Per-document top-k TF-IDF terms (score = tf * ln(N/df), ties by
    ascending term), emitted as (doc_id, term, score, rk).

    Scale shape: one pass builds the document-frequency table (block-
    local per-doc DISTINCT terms — each doc lives in one row, so the
    block-local distinct is globally exact — then a vocabulary-sized
    ``groupby(term).sum``); the vocab/df table is broadcast ONCE via
    ``ray.put`` (loud ``max_vocab_broadcast`` bound — beyond that,
    shuffle docs by term instead); a second pass computes per-doc term
    counts and scores fully vectorized (polars group_by + join against
    the broadcast vocab) and keeps the exact per-doc top-k."""
    import polars as pl
    import ray

    from .sampling import _topk_frame

    n_docs = docs_ds.count()

    def _doc_terms(batch: pa.Table) -> pl.DataFrame:
        s = pl.from_arrow(batch["text"]).fill_null("").alias("text")
        ids = pl.from_arrow(batch["doc_id"]).alias("doc_id")
        return (
            pl.DataFrame([ids, s])
            .with_columns(
                pl.col("text")
                .str.to_lowercase()
                .str.extract_all(_TOKEN_RE_POLARS)
                .alias("term")
            )
            .drop("text")
            .explode("term", empty_as_null=True)
            .drop_nulls("term")
        )

    def df_partial(batch: pa.Table) -> pa.Table:
        t = _doc_terms(batch)
        vc = t.unique().group_by("term").len()
        return pa.table(
            {
                "term": vc["term"].to_arrow().cast(pa.string()),
                "df": pa.array(vc["len"].to_numpy().astype(np.int64)),
            }
        )

    df_tbl = (
        docs_ds.map_batches(df_partial, batch_format="pyarrow", batch_size=None)
        .groupby("term")
        .sum("df")
    )
    vocab = pa.concat_tables(
        ray.get(df_tbl.to_arrow_refs()), promote_options="default"
    )
    if vocab.num_rows > max_vocab_broadcast:
        raise ValueError(
            f"vocabulary has {vocab.num_rows} terms > max_vocab_broadcast="
            f"{max_vocab_broadcast}; shuffle by term instead of broadcasting"
        )
    vocab_pl = pl.DataFrame(
        {
            "term": pl.from_arrow(vocab["term"].cast(pa.string())),
            "idf": np.log(
                float(n_docs)
                / vocab["sum(df)"].to_numpy(zero_copy_only=False).astype(np.float64)
            ),
        }
    )
    vocab_ref = ray.put(vocab_pl)

    def score(batch: pa.Table) -> pd.DataFrame:
        voc = ray.get(vocab_ref)
        tf = _doc_terms(batch).group_by(["doc_id", "term"]).len()
        scored = tf.join(voc, on="term", how="inner").with_columns(
            (pl.col("len").cast(pl.Float64) * pl.col("idf")).alias("score")
        )
        out = scored.select(["doc_id", "term", "score"]).to_pandas()
        return _topk_frame(out, "doc_id", "score", "term", k, True)

    return docs_ds.map_batches(score, batch_format="pyarrow", batch_size=None)


def bm25_top_terms(
    docs_ds,
    k: int = 3,
    *,
    k1: float = 1.2,
    b: float = 0.75,
    max_vocab_broadcast: int = 5_000_000,
):
    """Per-document top-k BM25 terms — the Okapi/Lucene ranking function
    with the document itself as the "query" side, i.e. the terms that
    best CHARACTERIZE each document under length normalization (the
    retrieval-native upgrade of :func:`tfidf_top_terms`):

        idf   = ln((N - df + 0.5) / (df + 0.5) + 1)      [Lucene form]
        score = idf * (tf * (k1 + 1))
                    / (tf + k1 * (1 - b + b * (dl / avgdl)))

    with dl = the document's token count and avgdl = total corpus
    tokens / N (all documents count, empty/null text as 0 tokens).
    Every expression above is replayed LITERALLY by the SQL twin
    (same parenthesization, doubles throughout — change both or
    none); ties break (score DESC, term ASC). Tokens are the shared
    ``_TOKEN_RE_POLARS`` lowercased stream (identical to the twin's
    ``regexp_extract_all(lower(text), ...)``).

    Scale shape: the :func:`tfidf_top_terms` pattern — one pass builds
    the document-frequency table (block-local per-doc DISTINCT is
    globally exact because each doc is one row) plus the corpus token
    total (a scalar); the vocab/idf table broadcasts ONCE via
    ``ray.put`` (loud ``max_vocab_broadcast`` bound); a second pass
    scores fully vectorized (polars group_by + join) and keeps the
    exact per-doc top-k. The corpus itself is never shuffled."""
    import polars as pl
    import ray

    from .sampling import _topk_frame

    n_docs = docs_ds.count()

    def _doc_terms(batch: pa.Table) -> "pl.DataFrame":
        s = pl.from_arrow(batch["text"]).fill_null("").alias("text")
        ids = pl.from_arrow(batch["doc_id"]).alias("doc_id")
        return (
            pl.DataFrame([ids, s])
            .with_columns(
                pl.col("text")
                .str.to_lowercase()
                .str.extract_all(_TOKEN_RE_POLARS)
                .alias("term")
            )
            .drop("text")
            .explode("term", empty_as_null=True)
            .drop_nulls("term")
        )

    def df_partial(batch: pa.Table) -> pa.Table:
        t = _doc_terms(batch)
        vc = t.unique().group_by("term").len()
        # one sentinel row rides along with the block's token total so
        # df and avgdl come out of a single corpus pass ("" can never be
        # a real term: the token regex has no empty match)
        return pa.table(
            {
                "term": pa.concat_arrays(
                    [
                        vc["term"].to_arrow().cast(pa.string()),
                        pa.array([""], type=pa.string()),
                    ]
                ),
                "df": pa.array(
                    np.r_[
                        vc["len"].to_numpy().astype(np.int64), len(t)
                    ]
                ),
            }
        )

    df_tbl = (
        docs_ds.map_batches(df_partial, batch_format="pyarrow", batch_size=None)
        .groupby("term")
        .sum("df")
    )
    vocab = pa.concat_tables(
        ray.get(df_tbl.to_arrow_refs()), promote_options="default"
    )
    if vocab.num_rows > max_vocab_broadcast:
        raise ValueError(
            f"vocabulary has {vocab.num_rows} terms > max_vocab_broadcast="
            f"{max_vocab_broadcast}; shuffle docs by term instead"
        )
    terms = vocab["term"].to_pandas()
    dfs = vocab["sum(df)"].to_numpy(zero_copy_only=False).astype(np.float64)
    sentinel = terms == ""
    total_tokens = float(dfs[sentinel.to_numpy()].sum())
    avgdl = total_tokens / float(n_docs)
    keep = ~sentinel.to_numpy()
    idf = np.log(
        (float(n_docs) - dfs[keep] + 0.5) / (dfs[keep] + 0.5) + 1.0
    )
    vocab_pl = pl.DataFrame({"term": terms[keep], "idf": idf})
    vocab_ref = ray.put(vocab_pl)

    def score(batch: pa.Table) -> pd.DataFrame:
        voc = ray.get(vocab_ref)
        tf = _doc_terms(batch).group_by(["doc_id", "term"]).len()
        dl = tf.group_by("doc_id").agg(pl.col("len").sum().alias("dl"))
        tfd = pl.col("len").cast(pl.Float64)
        dld = pl.col("dl").cast(pl.Float64)
        scored = (
            tf.join(dl, on="doc_id", how="inner")
            .join(voc, on="term", how="inner")
            .with_columns(
                (
                    (pl.col("idf") * (tfd * (k1 + 1)))
                    / (tfd + k1 * (1 - b + b * (dld / avgdl)))
                ).alias("score")
            )
        )
        out = scored.select(["doc_id", "term", "score"]).to_pandas()
        return _topk_frame(out, "doc_id", "score", "term", k, True)

    return docs_ds.map_batches(score, batch_format="pyarrow", batch_size=None)


def bm25_search(
    docs_ds,
    query: str,
    *,
    top_n: int = 20,
    k1: float = 1.2,
    b: float = 0.75,
    max_vocab_broadcast: int = 5_000_000,
):
    """Rank documents against a QUERY string with Okapi BM25 — the
    text-retrieval complement of the vector knn family: per document,
    ``score = sum over query terms of idf(t) * (tf * (k1+1)) /
    (tf + k1 * (1 - b + b * (dl / avgdl)))`` with the exact
    :func:`bm25_top_terms` idf / length-normalization expressions
    (replayed literally by the twin — change both or none; duplicate
    query terms count once). Returns the global top ``top_n`` scored
    documents as (rank, doc_id, score), ties (score DESC, doc_id ASC).

    Scale shape: the same ONE df+token-total corpus pass as
    :func:`bm25_top_terms` (sentinel-row combiner), but the broadcast
    carries ONLY the query terms' idf (O(|query|), not O(vocab));
    per-block scoring emits one row per matching document, and the
    exact global top-n reduces associatively (block top-n partials,
    single-block finish — the quota/weighted-sample rule)."""
    import polars as pl
    import ray

    q_terms = sorted(
        {t.lower() for t in _TOKEN_RE.findall(query.lower())}
    )
    if not q_terms:
        raise ValueError("query has no tokens")
    n_docs = docs_ds.count()

    def _doc_terms(batch: pa.Table) -> "pl.DataFrame":
        s = pl.from_arrow(batch["text"]).fill_null("").alias("text")
        ids = pl.from_arrow(batch["doc_id"]).alias("doc_id")
        return (
            pl.DataFrame([ids, s])
            .with_columns(
                pl.col("text")
                .str.to_lowercase()
                .str.extract_all(_TOKEN_RE_POLARS)
                .alias("term")
            )
            .drop("text")
            .explode("term", empty_as_null=True)
            .drop_nulls("term")
        )

    def df_partial(batch: pa.Table) -> pa.Table:
        t = _doc_terms(batch)
        vc = (
            t.unique()
            .filter(pl.col("term").is_in(q_terms))
            .group_by("term")
            .len()
        )
        return pa.table(
            {
                "term": pa.concat_arrays(
                    [
                        vc["term"].to_arrow().cast(pa.string()),
                        pa.array([""], type=pa.string()),
                    ]
                ),
                "df": pa.array(
                    np.r_[vc["len"].to_numpy().astype(np.int64), len(t)]
                ),
            }
        )

    df_tbl = (
        docs_ds.map_batches(df_partial, batch_format="pyarrow", batch_size=None)
        .groupby("term")
        .sum("df")
    )
    vocab = pa.concat_tables(
        ray.get(df_tbl.to_arrow_refs()), promote_options="default"
    )
    if vocab.num_rows > max_vocab_broadcast:
        raise ValueError("query df table exceeded max_vocab_broadcast")
    terms = vocab["term"].to_pandas()
    dfs = vocab["sum(df)"].to_numpy(zero_copy_only=False).astype(np.float64)
    sentinel = (terms == "").to_numpy()
    total_tokens = float(dfs[sentinel].sum())
    avgdl = total_tokens / float(n_docs)
    keep = ~sentinel
    idf = np.log(
        (float(n_docs) - dfs[keep] + 0.5) / (dfs[keep] + 0.5) + 1.0
    )
    voc_ref = ray.put(pl.DataFrame({"term": terms[keep], "idf": idf}))

    def block_topn(batch: pa.Table) -> pd.DataFrame:
        voc = ray.get(voc_ref)
        tf = _doc_terms(batch).group_by(["doc_id", "term"]).len()
        dl = tf.group_by("doc_id").agg(pl.col("len").sum().alias("dl"))
        tfd = pl.col("len").cast(pl.Float64)
        dld = pl.col("dl").cast(pl.Float64)
        scored = (
            tf.join(voc, on="term", how="inner")
            .join(dl, on="doc_id", how="inner")
            .with_columns(
                (
                    (pl.col("idf") * (tfd * (k1 + 1)))
                    / (tfd + k1 * (1 - b + b * (dld / avgdl)))
                ).alias("s")
            )
            .group_by("doc_id")
            .agg(pl.col("s").sum().alias("score"))
        )
        out = scored.to_pandas()
        # block-local top-n partial: exact because top-n is associative
        out = out.sort_values(
            ["score", "doc_id"], ascending=[False, True], kind="mergesort"
        ).head(top_n)
        return out

    def final_topn(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values(
            ["score", "doc_id"], ascending=[False, True], kind="mergesort"
        ).head(top_n)
        part = part.reset_index(drop=True)
        part.insert(0, "rank", np.arange(1, len(part) + 1, dtype=np.int64))
        return part[["rank", "doc_id", "score"]]

    return (
        docs_ds.map_batches(block_topn, batch_format="pyarrow", batch_size=None)
        .repartition(1)
        .map_batches(final_topn, batch_format="pandas", batch_size=None)
    )


def pmi_bigrams(
    docs_ds,
    *,
    k: int = 100,
    min_count: int = 5,
    max_vocab_broadcast: int = 5_000_000,
):
    """Top-k collocations: adjacent-token bigrams ranked by pointwise
    mutual information pmi = ln(((c_ab * Tu) * Tu) / ((c_a * c_b) * Tb))
    — c_ab the bigram count, c_a/c_b the unigram counts, Tu/Tb the
    corpus unigram/bigram totals — evaluated in EXACTLY that
    double-precision association order on both sides (the SQL twin
    spells the identical expression), tokens lowercased by the shared
    ``_TOKEN_RE_POLARS`` regex, bigrams spanning only WITHIN a document.
    Ties break (pmi DESC, term_a ASC, term_b ASC); only bigrams with
    ``c_ab >= min_count`` rank. Returns (term_a, term_b, cnt, pmi).

    Scale shape: ONE tokenize pass emits block-local unigram AND bigram
    partial counts into one gram table (tokens never contain a space,
    so "a" and "a b" cannot collide); a gram-keyed groupby-sum reduces
    it and is MATERIALIZED once (bounded by the bigram vocabulary — far
    smaller than the corpus; the reuse below would otherwise re-run the
    tokenize per consumer). From it: Tu/Tb via one tiny aggregate, the
    unigram side broadcast once via ``ray.put`` (loud
    ``max_vocab_broadcast`` bound — beyond that, shuffle bigrams by
    term instead), and the scoring stage streams over the bigram rows
    (min_count filter first, two vectorized polars joins, local top-k
    partials merged by one final task). The corpus is read once; the
    driver never holds grams."""
    import polars as pl
    import ray

    def partial_counts(batch: pa.Table) -> pa.Table:
        s = pl.from_arrow(batch["text"]).fill_null("")
        d = (
            pl.DataFrame(
                {"toks": s.str.to_lowercase().str.extract_all(_TOKEN_RE_POLARS)}
            )
            .with_row_index("i")
            .explode("toks", empty_as_null=True)
            .drop_nulls("toks")  # empty token lists explode to one null
        )
        uni = d["toks"].value_counts()
        d = d.with_columns(
            pl.col("toks").shift(-1).alias("nxt"),
            pl.col("i").shift(-1).alias("ni"),
        )
        big = (
            d.filter(pl.col("ni") == pl.col("i"))
            .select((pl.col("toks") + " " + pl.col("nxt")).alias("toks"))[
                "toks"
            ]
            .value_counts()
        )
        return pa.table(
            {
                "gram": pa.chunked_array(
                    [
                        uni["toks"].to_arrow().cast(pa.string()),
                        big["toks"].to_arrow().cast(pa.string()),
                    ]
                ),
                "cnt": pa.array(
                    np.concatenate(
                        [
                            uni["count"].to_numpy().astype(np.int64),
                            big["count"].to_numpy().astype(np.int64),
                        ]
                    )
                ),
            }
        )

    grams = (
        docs_ds.map_batches(
            partial_counts, batch_format="pyarrow", batch_size=None
        )
        .groupby("gram")
        .sum("cnt")
        .map_batches(
            lambda t: pa.table(
                {
                    "gram": t["gram"],
                    "cnt": t["sum(cnt)"],
                    "is_big": pc.match_substring(
                        t["gram"].combine_chunks(), " "
                    ),
                }
            ),
            batch_format="pyarrow",
            batch_size=None,
        )
        .materialize()
    )

    def side_sums(t: pa.Table) -> pa.Table:
        cnt = t["cnt"].to_numpy(zero_copy_only=False)
        big = t["is_big"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "tu": pa.array([int(cnt[~big].sum())]),
                "tb": pa.array([int(cnt[big].sum())]),
            }
        )

    tots = grams.map_batches(
        side_sums, batch_format="pyarrow", batch_size=None
    ).sum(["tu", "tb"])
    tu, tb = float(tots["sum(tu)"]), float(tots["sum(tb)"])

    uni_tbl = pa.concat_tables(
        ray.get(
            grams.map_batches(
                lambda t: t.filter(
                    pc.invert(t["is_big"].combine_chunks())
                ).select(["gram", "cnt"]),
                batch_format="pyarrow",
                batch_size=None,
            ).to_arrow_refs()
        ),
        promote_options="default",
    )
    if uni_tbl.num_rows > max_vocab_broadcast:
        raise ValueError(
            f"vocabulary has {uni_tbl.num_rows} terms > max_vocab_broadcast="
            f"{max_vocab_broadcast}; shuffle bigrams by term instead"
        )
    vocab_ref = ray.put(
        pl.DataFrame(
            {
                "term": pl.from_arrow(uni_tbl["gram"].cast(pa.string())),
                "ucnt": pl.from_arrow(uni_tbl["cnt"]),
            }
        )
    )

    def score(batch: pa.Table) -> pd.DataFrame:
        voc = ray.get(vocab_ref)
        t = pl.from_arrow(batch)
        t = t.filter(pl.col("is_big") & (pl.col("cnt") >= min_count))
        if t.height == 0:
            return pd.DataFrame(
                {
                    "term_a": pd.Series(dtype=object),
                    "term_b": pd.Series(dtype=object),
                    "cnt": pd.Series(dtype=np.int64),
                    "pmi": pd.Series(dtype=np.float64),
                }
            )
        parts = t["gram"].str.split_exact(" ", 1).struct.unnest()
        t = t.with_columns(
            parts["field_0"].alias("term_a"), parts["field_1"].alias("term_b")
        )
        t = t.join(
            voc.rename({"term": "term_a", "ucnt": "ca"}), on="term_a"
        ).join(voc.rename({"term": "term_b", "ucnt": "cb"}), on="term_b")
        c_ab = t["cnt"].to_numpy().astype(np.float64)
        ca = t["ca"].to_numpy().astype(np.float64)
        cb = t["cb"].to_numpy().astype(np.float64)
        pmi = np.log(((c_ab * tu) * tu) / ((ca * cb) * tb))
        return pd.DataFrame(
            {
                "term_a": t["term_a"].to_numpy(),
                "term_b": t["term_b"].to_numpy(),
                "cnt": t["cnt"].to_numpy().astype(np.int64),
                "pmi": pmi,
            }
        )

    def local_topk(b: pd.DataFrame) -> pd.DataFrame:
        return b.sort_values(
            ["pmi", "term_a", "term_b"],
            ascending=[False, True, True],
            kind="mergesort",
        ).head(k)

    return (
        grams.map_batches(score, batch_format="pyarrow", batch_size=None)
        .map_batches(local_topk, batch_format="pandas", batch_size=None)
        .repartition(1)
        .map_batches(local_topk, batch_format="pandas", batch_size=None)
    )


# ---------------------------------------------------------------------------
# near-duplicate detection
# ---------------------------------------------------------------------------

_MERSENNE = (1 << 61) - 1


def _segment_pairs(starts: np.ndarray, sizes: np.ndarray):
    """Row-index pairs (a, b), a < b, within each contiguous segment of a
    sorted array — for ALL segments at once in one vectorized pass (no
    per-group Python). The k-th pair of a segment maps to (i, j) via the
    triangular-number inverse j = floor((1+sqrt(1+8k))/2), with an integer
    guard against float rounding. Returns global row indices."""
    p = sizes * (sizes - 1) // 2
    total = int(p.sum())
    if total == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    pg = np.repeat(np.arange(sizes.shape[0]), p)
    pstarts = np.r_[0, np.cumsum(p)[:-1]]
    within = np.arange(total, dtype=np.int64) - pstarts[pg]
    jj = np.floor(0.5 * (1.0 + np.sqrt(1.0 + 8.0 * within))).astype(np.int64)
    jj -= (jj * (jj - 1) // 2 > within).astype(np.int64)
    jj += (jj * (jj + 1) // 2 <= within).astype(np.int64)
    ii = within - jj * (jj - 1) // 2
    return starts[pg] + ii, starts[pg] + jj


def _segment_bounds(*keys: np.ndarray):
    """Group ids / sizes / starts / within-group offsets for rows already
    sorted by ``keys`` (lexicographic). All vectorized."""
    n = keys[0].shape[0]
    new = np.zeros(n, dtype=bool)
    if n:
        new[0] = True
        for k in keys:
            new[1:] |= k[1:] != k[:-1]
    gid = np.cumsum(new) - 1
    sizes = np.bincount(gid) if n else np.empty(0, dtype=np.int64)
    starts = np.r_[0, np.cumsum(sizes)[:-1]] if n else np.empty(0, dtype=np.int64)
    offsets = np.arange(n, dtype=np.int64) - starts[gid] if n else np.empty(0, dtype=np.int64)
    return gid, sizes.astype(np.int64), starts.astype(np.int64), offsets


class MinHasher:
    """num_perms universal-hash minhash signatures over shingle hashes.
    Stateful (permutation coefficients) => actor-pool stage. Fully
    vectorized: one ``minimum.reduceat`` pass per permutation chunk over
    the batch's flat shingle array.

    ``hasher="ahash"`` (default): polars word hashes + uint64-wraparound
    permutations — fast, not reproducible outside this process family.
    ``hasher="poly"``: sub-2^48 poly word/shingle hashes + two chained
    small-coefficient affine permutations (``_poly_perm_coeffs``) — every
    intermediate exact in int64 AND BIGINT, so a DuckDB oracle re-derives
    the signatures bit-for-bit."""

    def __init__(
        self,
        num_perms: int = 64,
        seed: int = 1234,
        shingle_k: int = 3,
        hasher: str = "ahash",
    ):
        if hasher not in ("ahash", "poly"):
            raise ValueError(f"unknown minhash hasher {hasher!r}")
        self.hasher = hasher
        if hasher == "ahash":
            rng = np.random.default_rng(seed)
            self.a = rng.integers(1, _MERSENNE, num_perms, dtype=np.uint64)
            self.b = rng.integers(0, _MERSENNE, num_perms, dtype=np.uint64)
        else:
            self.a1, self.b1, self.a2, self.b2 = _poly_perm_coeffs(
                num_perms, seed
            )
        self.num_perms = num_perms
        self.shingle_k = shingle_k

    def signatures(self, texts) -> np.ndarray:
        """(n_docs, num_perms) signature matrix (uint64 for ahash, sub-2^48
        int64 for poly)."""
        poly = self.hasher == "poly"
        dtype = np.int64 if poly else np.uint64
        h, lens = (
            _word_poly_hashes_flat(texts) if poly else _word_hashes_flat(texts)
        )
        if lens.shape[0] == 0:
            # empty Ray blocks are routine; reduceat([0]) on a zero-width
            # matrix raises
            return np.empty((0, self.num_perms), dtype=dtype)
        sh, counts = (
            _shingle_poly_hashes_flat(h, lens, self.shingle_k)
            if poly
            else _shingle_hashes_flat(h, lens, self.shingle_k)
        )
        starts = np.r_[0, np.cumsum(counts)[:-1]]
        ndocs = lens.shape[0]
        out = np.empty((ndocs, self.num_perms), dtype=dtype)
        # chunk permutations to bound the (chunk, n_shingles) temp matrix
        chunk = max(1, min(self.num_perms, (1 << 22) // max(sh.size, 1)))
        for p0 in range(0, self.num_perms, chunk):
            if poly:
                a1 = self.a1[p0 : p0 + chunk, None]
                b1 = self.b1[p0 : p0 + chunk, None]
                a2 = self.a2[p0 : p0 + chunk, None]
                b2 = self.b2[p0 : p0 + chunk, None]
                vals = (sh[None, :] * a1 + b1) % _WINNOW_MOD
                vals = (vals * a2 + b2) % _WINNOW_MOD
            else:
                a = self.a[p0 : p0 + chunk, None]
                b = self.b[p0 : p0 + chunk, None]
                vals = sh[None, :] * a + b  # uint64 wraparound is the mod
            out[:, p0 : p0 + chunk] = np.minimum.reduceat(
                vals, starts, axis=1
            ).T
        return out

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        sigs = self.signatures(batch["text"].to_numpy())
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(),
                "sig": list(sigs),
            }
        )


def _band_hashes(sigs: np.ndarray, bands: int) -> np.ndarray:
    """(n_docs, bands) uint64: polynomial combine of each band's rows."""
    n, num_perms = sigs.shape
    rows = num_perms // bands
    banded = sigs[:, : bands * rows].reshape(n, bands, rows)
    bh = np.zeros((n, bands), dtype=np.uint64)
    for r in range(rows):
        bh = bh * _POLY + banded[:, :, r]
    return bh


def _band_hashes_poly(sigs: np.ndarray, bands: int) -> np.ndarray:
    """SQL-reproducible band combine: ``(acc*31 + sig) % mod`` over each
    band's rows (acc < 2^48 so acc*31 + sig < 2^54 — exact in both
    engines). Input/output int64."""
    n, num_perms = sigs.shape
    rows = num_perms // bands
    banded = sigs[:, : bands * rows].reshape(n, bands, rows)
    bh = np.zeros((n, bands), dtype=np.int64)
    for r in range(rows):
        bh = (bh * 31 + banded[:, :, r]) % _WINNOW_MOD
    return bh


def _lsh_candidate_pairs(
    docs_ds,
    *,
    num_perms: int,
    bands: int,
    shingle_k: int,
    max_bucket: int,
    id_col: str,
    hasher: str,
    num_partitions: int,
):
    """MinHash-LSH candidate-pair generation — the blocking stage shared
    by the Jaccard (:func:`minhash_lsh_dups`) and edit-distance
    (:func:`edit_distance_dups`) verifiers: shingle -> minhash (one
    vectorized pass per block) -> (band, band_hash, doc) rows -> ONE
    hash exchange -> partition-vectorized bucket explosion capped at the
    ``max_bucket`` smallest ids (overflow logged) -> pair distinct.

    Returns a MATERIALIZED Dataset of unique (doc_a, doc_b) with
    doc_a < doc_b — bounded by the bucket cap, safe to consume twice."""
    rows_per_band = num_perms // bands
    assert rows_per_band * bands == num_perms

    hasher_kwargs = {
        "num_perms": num_perms,
        "shingle_k": shingle_k,
        "hasher": hasher,
    }
    poly = hasher == "poly"

    def explode_bands(batch: pa.Table) -> pa.Table:
        # Arrow-native full-corpus stage: text flows zero-copy into the
        # polars hashers (no object-dtype hop for the corpus bytes)
        mh = MinHasher(**hasher_kwargs)
        sigs = mh.signatures(batch["text"])
        bh = (
            _band_hashes_poly(sigs, bands)
            if poly
            else _band_hashes(sigs, bands).view(np.int64)
        )  # (n, bands)
        n = bh.shape[0]
        return pa.table(
            {
                "band": pa.array(np.tile(np.arange(bands, dtype=np.int32), n)),
                "band_hash": pa.array(bh.reshape(-1)),
                "doc_id": pa.array(
                    np.repeat(
                        batch[id_col].to_numpy(zero_copy_only=False), bands
                    )
                ),
            }
        )

    buckets = docs_ds.map_batches(
        explode_bands, batch_format="pyarrow", batch_size=None
    ).map_batches(
        lambda b: hash_mod_part(
            b, ["band_hash", "band"], num_partitions
        ),
        batch_format="pyarrow",
        batch_size=None,
    )

    def partition_pairs(grp: pd.DataFrame) -> pd.DataFrame:
        """ALL band buckets of a hash partition in one vectorized pass:
        sort by (band, band_hash, doc), segment bounds, per-bucket cap at
        the ``max_bucket`` smallest ids (overflow logged in aggregate),
        then one ``_segment_pairs`` explosion — no per-bucket Python."""
        band = grp["band"].to_numpy()
        bh = grp["band_hash"].to_numpy()
        d = grp["doc_id"].to_numpy()
        order = np.lexsort((d, bh, band))
        band, bh, d = band[order], bh[order], d[order]
        gid, sizes, starts, offsets = _segment_bounds(band, bh)
        # dedup same doc within a bucket (defensive), then cap
        dup = np.zeros(d.shape[0], dtype=bool)
        dup[1:] = (gid[1:] == gid[:-1]) & (d[1:] == d[:-1])
        keep = ~dup & (offsets < max_bucket)
        over = int((sizes > max_bucket).sum())
        if over:
            logger.warning(
                "minhash_lsh: %d band buckets exceeded max_bucket=%d and "
                "were capped to their smallest ids — near-dups among the "
                "dropped tails are not candidates this run",
                over, max_bucket,
            )
        band, bh, d = band[keep], bh[keep], d[keep]
        gid, sizes, starts, offsets = _segment_bounds(band, bh)
        a_rows, b_rows = _segment_pairs(starts, sizes)
        return pd.DataFrame(
            {"doc_a": d[a_rows], "doc_b": d[b_rows]}
        )

    pairs = reduce_by_part(buckets, partition_pairs, num_partitions, "pandas")
    # a pair surfacing in several bands is still one candidate:
    # count() aggregate + column drop = distinct, no per-pair Python
    pairs = pairs.groupby(["doc_a", "doc_b"]).count().map_batches(
        lambda b: b.drop_columns(["count()"]),
        batch_format="pyarrow",
        batch_size=None,
    )
    # consumed twice below (id broadcast + side explosion); the pair set is
    # small (bucket-capped) so pin it rather than re-running the LSH stages
    return pairs.materialize()


def _attach_pair_texts(
    docs_ds,
    pairs,
    *,
    id_col: str,
    num_partitions: int,
    text_map=None,
):
    """Distributed pair-text attachment shared by the near-dup verifiers:
    candidate ids (bounded by the bucket cap) are the ONLY thing
    materialized on the driver, broadcast once via ``ray.put``; candidate
    docs' texts ship through ONE keyed shuffle and scatter onto their
    incident pair-side rows with a partition-level searchsorted.

    ``text_map`` (optional) is an Arrow-level transform applied to the
    text column while it is still zero-copy in the corpus scan — e.g. a
    code-point prefix slice for the edit-distance verifier.

    Returns a Dataset of (doc_a, doc_b, side_id, text) with two rows per
    surviving pair, or None when there are no candidates."""
    import ray

    cand_ids = set()
    for b in pairs.iter_batches(batch_size=None, batch_format="pandas"):
        cand_ids.update(b["doc_a"])
        cand_ids.update(b["doc_b"])
    if not cand_ids:
        return None
    ids_ref = ray.put(np.array(sorted(cand_ids), dtype=np.int64))

    def filter_cands(batch: pa.Table) -> pa.Table:
        # Arrow-native full-corpus scan: pc.is_in + filter keep the text
        # column as Arrow buffers (the non-candidate 99% never leaves
        # the block; candidates slice zero-copy)
        ids = ray.get(ids_ref)
        sel = batch.filter(
            pc.is_in(batch[id_col], value_set=pa.array(ids))
        )
        n = sel.num_rows
        text = sel["text"]
        if text_map is not None:
            text = text_map(text)
        return pa.table(
            {
                "doc_id": sel[id_col],
                "doc_a": pa.array(np.zeros(n, dtype=np.int64)),
                "doc_b": pa.array(np.zeros(n, dtype=np.int64)),
                "is_text": pa.array(np.ones(n, dtype=np.int8)),
                "text": text,
            }
        )

    cand_texts = docs_ds.map_batches(
        filter_cands, batch_format="pyarrow", batch_size=None
    )

    def pair_sides(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        a = batch["doc_a"].to_numpy(zero_copy_only=False)
        b = batch["doc_b"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate([a, b])),
                "doc_a": pa.array(np.concatenate([a, a])),
                "doc_b": pa.array(np.concatenate([b, b])),
                "is_text": pa.array(np.zeros(2 * n, dtype=np.int8)),
                "text": pa.array(
                    np.full(2 * n, "", dtype=object), type=pa.string()
                ),
            }
        )

    sides = pairs.map_batches(
        pair_sides, batch_format="pyarrow", batch_size=None
    )

    def attach_partition(grp: pd.DataFrame) -> pd.DataFrame:
        """ALL candidate docs of a hash partition at once: scatter each
        doc's text onto its incident pair-side rows via searchsorted (the
        text rows and side rows of a doc hash to the same partition).
        No per-doc Python."""
        is_text = grp["is_text"].to_numpy() == 1
        tk = grp["doc_id"].to_numpy()[is_text]
        tv = grp["text"].to_numpy()[is_text]
        order = np.argsort(tk, kind="stable")
        tk, tv = tk[order], tv[order]
        sides_g = grp[~is_text]
        sk = sides_g["doc_id"].to_numpy()
        pos = np.searchsorted(tk, sk)
        # pairs derive from docs_ds, so every endpoint SHOULD have a text
        # row in this partition — but guard the lookup (bounds + exact id
        # match) so an absent doc drops its side rows, as the pre-
        # vectorization per-doc attach did, instead of silently attaching
        # a neighbouring doc's text or raising IndexError.
        ok = pos < tk.shape[0]
        ok &= tk[np.minimum(pos, max(tk.shape[0] - 1, 0))] == sk
        if not ok.all():
            sides_g = sides_g[ok]
            sk = sk[ok]
            pos = pos[ok]
        return pd.DataFrame(
            {
                "doc_a": sides_g["doc_a"].to_numpy(),
                "doc_b": sides_g["doc_b"].to_numpy(),
                "side_id": sk,
                "text": tv[pos],
            }
        )

    tagged = cand_texts.union(sides).map_batches(
        lambda b: hash_mod_part(b, ["doc_id"], num_partitions),
        batch_format="pyarrow",
        batch_size=None,
    )
    return reduce_by_part(tagged, attach_partition, num_partitions, "pandas")


def minhash_lsh_dups(
    docs_ds,
    num_perms: int = 64,
    bands: int = 16,
    threshold: float = 0.6,
    shingle_k: int = 3,
    max_bucket: int = 64,
    id_col: str = "doc_id",
    hasher: str = "ahash",
):
    """MinHash + LSH near-duplicate pairs, fully distributed.

    shingle → minhash → (band, band_hash, doc) rows → groupby band
    bucket → candidate pairs (bucket capped at ``max_bucket`` smallest
    ids; overflow logged) → pair dedup (groupby) → verification:
    candidate ids broadcast via ``ray.put``, candidate docs' texts
    shipped through a keyed shuffle, exact shingle-Jaccard computed in a
    distributed reduce (:func:`_lsh_candidate_pairs` +
    :func:`_attach_pair_texts` do the blocking / attachment). No
    driver-side corpus scan at any point.

    Returns a Dataset of (doc_a, doc_b, jaccard), doc_a < doc_b,
    jaccard >= threshold.
    """
    import ray

    poly = hasher == "poly"
    num_partitions = auto_shuffle_partitions()
    pairs = _lsh_candidate_pairs(
        docs_ds,
        num_perms=num_perms,
        bands=bands,
        shingle_k=shingle_k,
        max_bucket=max_bucket,
        id_col=id_col,
        hasher=hasher,
        num_partitions=num_partitions,
    )
    attached = _attach_pair_texts(
        docs_ds, pairs, id_col=id_col, num_partitions=num_partitions
    )
    if attached is None:
        return ray.data.from_pandas(
            pd.DataFrame({"doc_a": [], "doc_b": [], "jaccard": []})
        )

    def verify_pair_partition(grp: pd.DataFrame) -> pd.DataFrame:
        da = grp["doc_a"].to_numpy()
        db = grp["doc_b"].to_numpy()
        texts = grp["text"].to_numpy()
        # pair id per side row (both sides of a pair share the partition)
        order0 = np.lexsort((grp["side_id"].to_numpy(), db, da))
        da, db, texts = da[order0], db[order0], texts[order0]
        new_pair = np.r_[True, (da[1:] != da[:-1]) | (db[1:] != db[:-1])]
        pair_id = np.cumsum(new_pair) - 1
        h, lens = (
            _word_poly_hashes_flat(texts) if poly else _word_hashes_flat(texts)
        )
        if lens.shape[0] == 0:
            return pd.DataFrame(
                {
                    "doc_a": pd.Series([], dtype=np.int64),
                    "doc_b": pd.Series([], dtype=np.int64),
                    "jaccard": pd.Series([], dtype=np.float64),
                }
            )
        sh, counts = (
            _shingle_poly_hashes_flat(h, lens, shingle_k)
            if poly
            else _shingle_hashes_flat(h, lens, shingle_k)
        )
        row_of = np.repeat(np.arange(len(grp)), counts)
        # dedup shingles per SIDE row
        order = np.lexsort((sh, row_of))
        r, s = row_of[order], sh[order]
        keep = np.r_[True, (r[1:] != r[:-1]) | (s[1:] != s[:-1])]
        r, s = r[keep], s[keep]
        p = pair_id[r]
        # sort by (pair, shingle): a shingle shared by both sides becomes
        # one adjacent duplicate within the pair run
        order2 = np.lexsort((s, p))
        p2, s2 = p[order2], s[order2]
        dup = np.zeros(p2.shape[0], dtype=np.int64)
        dup[1:] = ((p2[1:] == p2[:-1]) & (s2[1:] == s2[:-1])).astype(np.int64)
        npairs = int(pair_id[-1]) + 1 if pair_id.size else 0
        inter = np.bincount(p2, weights=dup, minlength=npairs)
        total = np.bincount(p2, minlength=npairs).astype(np.float64)
        union = total - inter
        with np.errstate(invalid="ignore"):
            j = inter / union
        first = np.flatnonzero(new_pair)
        out_a, out_b = da[first], db[first]
        sel = j >= threshold
        return pd.DataFrame(
            {
                "doc_a": out_a[sel],
                "doc_b": out_b[sel],
                "jaccard": j[sel],
            }
        )

    tagged = attached.map_batches(
        lambda b: hash_mod_part(b, ["doc_a", "doc_b"], num_partitions),
        batch_format="pandas",
        batch_size=None,
    )
    return (
        reduce_by_part(tagged, verify_pair_partition, num_partitions, "pandas")
        .map_batches(
            lambda b: b[["doc_a", "doc_b", "jaccard"]],
            batch_format="pandas",
            batch_size=None,
        )
    )


def _levenshtein_bytes_batch(
    ta: np.ndarray, tb: np.ndarray
) -> np.ndarray:
    """Vectorized byte-level Levenshtein across a batch of string pairs
    (DuckDB ``levenshtein`` operates on UTF-8 BYTES — pinned by test).
    Classic row DP, vectorized over the PAIR axis; the in-row left-to-
    right dependency collapses via the prefix-min identity
    ``out[j] = j + min.accumulate(c[j] - j)``.  O(max_len_a) Python
    iterations of (pairs x len_b) numpy work — max_len is the bounded
    code-point prefix, so the cost is flat per pair."""
    n = len(ta)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    ab = [s.encode("utf-8") for s in ta]
    bb = [s.encode("utf-8") for s in tb]
    la = np.array([len(s) for s in ab], dtype=np.int64)
    lb = np.array([len(s) for s in bb], dtype=np.int64)
    max_a, max_b = int(la.max(initial=0)), int(lb.max(initial=0))
    # pad with sentinel 256 (never equals a real byte)
    A = np.full((n, max(max_a, 1)), 256, dtype=np.int16)
    B = np.full((n, max(max_b, 1)), 256, dtype=np.int16)
    for i, s in enumerate(ab):
        if s:
            A[i, : len(s)] = np.frombuffer(s, dtype=np.uint8)
    for i, s in enumerate(bb):
        if s:
            B[i, : len(s)] = np.frombuffer(s, dtype=np.uint8)
    res = np.where(la == 0, lb, np.int64(-1))
    cols = np.arange(max_b + 1, dtype=np.int64)
    dp = np.broadcast_to(cols, (n, max_b + 1)).copy()
    for i in range(1, max_a + 1):
        cost = (A[:, i - 1 : i] != B).astype(np.int64)  # (n, max_b)
        c = np.minimum(dp[:, 1:] + 1, dp[:, :-1] + cost)
        c = np.concatenate(
            [np.full((n, 1), i, dtype=np.int64), c], axis=1
        )
        dp = np.minimum.accumulate(c - cols, axis=1) + cols
        done = la == i
        if done.any():
            res[done] = dp[done, lb[done]]
    return res


def edit_distance_dups(
    docs_ds,
    *,
    max_dist: int = 8,
    prefix_chars: int = 64,
    num_perms: int = 64,
    bands: int = 16,
    shingle_k: int = 3,
    max_bucket: int = 64,
    id_col: str = "doc_id",
    hasher: str = "ahash",
):
    """Near-duplicate pairs by exact PREFIX edit distance: MinHash-LSH
    blocking (the same :func:`_lsh_candidate_pairs` stage as
    :func:`minhash_lsh_dups`), then byte-level Levenshtein between the
    first ``prefix_chars`` code points of each candidate pair, keeping
    pairs with distance <= ``max_dist``.

    Semantics pinned for the SQL twin: the prefix is a CODE-POINT slice
    (``substr(text, 1, P)``; Arrow ``utf8_slice_codeunits`` is the same
    slice) but the distance counts UTF-8 BYTE edits (DuckDB
    ``levenshtein`` semantics); NULL texts become empty strings on both
    sides (distance = other side's byte length).

    Scale shape: blocking is bucket-capped like minhash; the quadratic
    DP runs only on candidate pairs over a BOUNDED prefix — full-text
    edit distance is O(L^2) per pair and is deliberately not offered.
    Returns (doc_a, doc_b, dist), doc_a < doc_b."""
    import ray

    num_partitions = auto_shuffle_partitions()
    pairs = _lsh_candidate_pairs(
        docs_ds,
        num_perms=num_perms,
        bands=bands,
        shingle_k=shingle_k,
        max_bucket=max_bucket,
        id_col=id_col,
        hasher=hasher,
        num_partitions=num_partitions,
    )
    attached = _attach_pair_texts(
        docs_ds,
        pairs,
        id_col=id_col,
        num_partitions=num_partitions,
        text_map=lambda col: pc.utf8_slice_codeunits(
            pc.fill_null(col, ""), 0, prefix_chars
        ),
    )
    empty = pd.DataFrame(
        {
            "doc_a": pd.Series([], dtype=np.int64),
            "doc_b": pd.Series([], dtype=np.int64),
            "dist": pd.Series([], dtype=np.int64),
        }
    )
    if attached is None:
        return ray.data.from_pandas(empty)

    def score_pair_partition(grp: pd.DataFrame) -> pd.DataFrame:
        da = grp["doc_a"].to_numpy()
        db = grp["doc_b"].to_numpy()
        texts = grp["text"].to_numpy()
        sid = grp["side_id"].to_numpy()
        order0 = np.lexsort((sid, db, da))
        da, db, texts, sid = (
            da[order0], db[order0], texts[order0], sid[order0],
        )
        new_pair = np.r_[True, (da[1:] != da[:-1]) | (db[1:] != db[:-1])]
        if new_pair.size == 0:
            return empty
        first = np.flatnonzero(new_pair)
        # both sides present (attach guard may drop one): keep complete
        # pairs only — side rows sort (a-side, b-side) within a pair
        # because doc_a < doc_b and side_id is the tie-break
        counts = np.diff(np.r_[first, da.size])
        full = counts == 2
        fa = first[full]
        d = _levenshtein_bytes_batch(texts[fa], texts[fa + 1])
        sel = d <= max_dist
        return pd.DataFrame(
            {
                "doc_a": da[fa][sel],
                "doc_b": db[fa][sel],
                "dist": d[sel].astype(np.int64),
            }
        )

    tagged = attached.map_batches(
        lambda b: hash_mod_part(b, ["doc_a", "doc_b"], num_partitions),
        batch_format="pandas",
        batch_size=None,
    )
    return (
        reduce_by_part(tagged, score_pair_partition, num_partitions, "pandas")
        .map_batches(
            lambda b: b[["doc_a", "doc_b", "dist"]],
            batch_format="pandas",
            batch_size=None,
        )
    )


def _word_poly_hashes_flat(texts) -> tuple[np.ndarray, np.ndarray]:
    """Sub-2^48 polynomial codepoint hashes of lowercased whitespace
    tokens — deterministic AND SQL-reproducible (the same exact
    ``(acc*31 + cp) % mod`` integer arithmetic as the winnowing oracle,
    see ``_WINNOW_MOD``). Returns (flat int64 word hashes, per-doc word
    counts). Vectorized: one string join + utf-32 decode for the whole
    batch, then at most max-word-length folding rounds across ALL words."""
    s = _texts_as_polars(texts)
    words = s.str.to_lowercase().str.extract_all(r"\S+")
    lens = words.list.len().to_numpy().astype(np.int64)
    flat = words.explode(empty_as_null=True).drop_nulls()
    wl = flat.str.len_chars().to_numpy().astype(np.int64)
    joined = "".join(flat.to_list())
    cps = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32).astype(
        np.int64
    )
    starts = np.r_[0, np.cumsum(wl)[:-1]]
    acc = np.zeros(wl.shape[0], dtype=np.int64)
    for j in range(int(wl.max(initial=0))):
        has = wl > j
        acc[has] = (acc[has] * 31 + cps[starts[has] + j]) % _WINNOW_MOD
    # finalization: the raw fold leaves short words in the low bits only
    # (a 5-char word never reaches bit ~32), which would zero the high
    # SimHash bits for every doc. Four affine expansion rounds (multiplier
    # < 2^15 keeps every product < 2^63 — exact in int64 AND BIGINT)
    # spread the vocabulary across all 48 bits.
    for _ in range(4):
        acc = (acc * 25781 + 104729) % _WINNOW_MOD
    return acc, lens


class SimHasher:
    """SimHash over word unigrams, vectorized: explode + hash words
    once per batch, unpack bits to a (n_words, 64) sign matrix, per-doc
    ``add.reduceat``, re-pack the positive-sum bits.

    ``hasher="ahash"`` (default): polars 64-bit hash — fast, but not
    reproducible outside this process family. ``hasher="poly"``: exact
    sub-2^48 polynomial codepoint hash (48 effective signature bits,
    emitted as int64) — bit-for-bit reproducible by the DuckDB SQL
    oracle, trading some bit mixing for verifiability."""

    def __init__(self, hasher: str = "ahash"):
        if hasher not in ("ahash", "poly"):
            raise ValueError(f"unknown simhash hasher {hasher!r}")
        self.hasher = hasher
        self.bits = 48 if hasher == "poly" else 64

    def __call__(self, batch: pa.Table) -> pa.Table:
        # Arrow-native: text reaches the polars hashers zero-copy
        if self.hasher == "poly":
            hp, lens = _word_poly_hashes_flat(batch["text"])
            h = hp.astype(np.uint64)  # < 2^48: bits 48..63 are 0
        else:
            h, lens = _word_hashes_flat(batch["text"])
        ndocs = lens.shape[0]
        out = np.zeros(ndocs, dtype=np.uint64)
        nz = np.flatnonzero(lens > 0)
        if nz.size:
            starts_all = np.r_[0, np.cumsum(lens)[:-1]]
            starts = starts_all[nz]
            bits = np.unpackbits(
                h[:, None].view(np.uint8), axis=1, bitorder="little"
            ).astype(np.int32)  # (n_words, 64), bit i of each word hash
            signs = 2 * bits - 1
            acc = np.add.reduceat(signs, starts, axis=0)  # (n_nz, 64)
            packed = np.packbits(
                (acc > 0).astype(np.uint8), axis=1, bitorder="little"
            )
            out[nz] = packed.view(np.uint64).ravel()
        sig = out.view(np.int64) if self.hasher == "poly" else out
        return pa.table({"doc_id": batch["doc_id"], "simhash": pa.array(sig)})


def simhash_signatures(docs_ds, hasher: str = "ahash"):
    return docs_ds.map_batches(
        SimHasher,
        fn_constructor_kwargs={"hasher": hasher},
        batch_format="pyarrow",
        concurrency=(1, 8),
        batch_size=None,
    )


# ---------------------------------------------------------------------------
# exact n-gram Jaccard near-dup (rare-shingle inverted pair counting)
# ---------------------------------------------------------------------------


def _ngram_counted_pairs(docs_ds, k: int, max_df: int):
    """Shared candidate stage of the exact n-gram dup family
    (:func:`ngram_jaccard_dups` / :func:`ngram_containment_dups`):
    distinct word-k-gram hashes per doc -> gram-keyed pair explosion ->
    pair-keyed co-occurrence count. Returns the counted-pair Dataset
    with columns (doc_a, doc_b, na, nb, ``count()`` = co). Any blocking
    change here changes BOTH consumers and their SQL twins (the shared
    w/g0/g/df/p/c CTE chain) — keep all in lockstep.
    """
    import pyarrow as pa

    def explode_grams(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return pa.table(
                {
                    "gram": pa.array([], type=pa.int64()),
                    "doc_id": pa.array([], type=pa.int64()),
                    "n_grams": pa.array([], type=pa.int64()),
                }
            )
        h, lens = _word_hashes_flat(batch["text"])
        sh, counts = _shingle_hashes_flat(h, lens, k)
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        # distinct grams per doc: sort within doc segments and dedup
        doc_of = np.repeat(np.arange(n), counts)
        order = np.lexsort((sh, doc_of))
        d, g = doc_of[order], sh[order]
        keep = np.r_[True, (d[1:] != d[:-1]) | (g[1:] != g[:-1])]
        d, g = d[keep], g[keep]
        n_grams = np.bincount(d, minlength=n).astype(np.int64)
        return pa.table(
            {
                "gram": pa.array(g.view(np.int64)),
                "doc_id": pa.array(doc_ids[d]),
                "n_grams": pa.array(n_grams[d]),
            }
        )

    num_partitions = auto_shuffle_partitions()

    grams = docs_ds.map_batches(
        explode_grams, batch_format="pyarrow", batch_size=None
    ).map_batches(
        lambda b: hash_mod_part(b, ["gram"], num_partitions),
        batch_format="pyarrow",
        batch_size=None,
    )

    def partition_pairs(grp: pd.DataFrame) -> pd.DataFrame:
        """ALL grams of a hash partition in one vectorized pass: sort by
        (gram, doc), segment bounds, drop df<2 and df>max_df grams
        (boilerplate; logged in aggregate), one ``_segment_pairs``
        explosion — no per-gram Python."""
        g = grp["gram"].to_numpy()
        d = grp["doc_id"].to_numpy()
        ng = grp["n_grams"].to_numpy()
        order = np.lexsort((d, g))
        g, d, ng = g[order], d[order], ng[order]
        gid, sizes, starts, offsets = _segment_bounds(g)
        # (gram, doc) rows are globally distinct (explode_grams dedups per
        # doc and each doc lives in one block), so sizes ARE the dfs
        over = int((sizes > max_df).sum())
        if over:
            logger.warning(
                "ngram_jaccard: %d grams with df > max_df=%d dropped "
                "(boilerplate bound)", over, max_df,
            )
        keep = (sizes[gid] >= 2) & (sizes[gid] <= max_df)
        g, d, ng = g[keep], d[keep], ng[keep]
        gid, sizes, starts, offsets = _segment_bounds(g)
        a_rows, b_rows = _segment_pairs(starts, sizes)
        return pd.DataFrame(
            {
                "doc_a": d[a_rows],
                "doc_b": d[b_rows],
                "na": ng[a_rows],
                "nb": ng[b_rows],
            }
        )

    pairs = reduce_by_part(grams, partition_pairs, num_partitions, "pandas")

    # co-occurrence = COUNT aggregate over the pair key (na/nb are
    # functionally dependent on the doc ids, so they ride in the key);
    # the similarity expression + threshold are then one vectorized
    # map_batches in the consumer — no per-pair Python anywhere
    return pairs.groupby(["doc_a", "doc_b", "na", "nb"]).count()


def ngram_jaccard_dups(
    docs_ds,
    k: int = 5,
    threshold: float = 0.4,
    max_df: int = 100,
):
    """EXACT word-k-gram Jaccard near-duplicate pairs via inverted pair
    counting — the deterministic complement to the approximate MinHash
    path. Word k-grams (k>=5) are rare by construction (df ~ 1-2 for
    non-duplicated text), so the pair explosion Sum(df^2) stays linear in
    the corpus; grams with df > ``max_df`` (boilerplate) are dropped on
    both sides of the driver oracle, bounding the worst case.

    Pipeline: distinct shingle hashes per doc (vectorized, with the
    per-doc gram count carried on every row) -> groupby(gram) -> pairs
    (doc_a, doc_b, na, nb) -> groupby(pair) -> co-occurrence count ->
    jaccard = co / (na + nb - co) >= threshold. Every stage is a
    pre-aggregated groupby; nothing materializes on the driver.
    """
    counted = _ngram_counted_pairs(docs_ds, k, max_df)

    def jaccard_filter(b: pd.DataFrame) -> pd.DataFrame:
        co = b["count()"].to_numpy(dtype=np.float64)
        na = b["na"].to_numpy(dtype=np.float64)
        nb = b["nb"].to_numpy(dtype=np.float64)
        j = co / (na + nb - co)
        keep = j >= threshold
        return pd.DataFrame(
            {
                "doc_a": b["doc_a"].to_numpy()[keep],
                "doc_b": b["doc_b"].to_numpy()[keep],
                "jaccard": j[keep],
            }
        )

    return counted.map_batches(
        jaccard_filter, batch_format="pandas", batch_size=None
    )


def ngram_containment_dups(
    docs_ds,
    k: int = 5,
    threshold: float = 0.6,
    max_df: int = 100,
):
    """EXACT word-k-gram CONTAINMENT near-duplicate pairs — the
    asymmetric complement of :func:`ngram_jaccard_dups`:
    ``containment = co / min(na, nb)``, i.e. how much of the SMALLER
    document's gram set lives inside the larger one. This is the dedup
    signal Jaccard structurally misses: a short document fully quoted
    inside a much longer one has containment 1.0 but Jaccard ≈
    small/large. Same candidate stage (shared
    :func:`_ngram_counted_pairs` — gram-keyed pair explosion with the
    df ∈ [2, max_df] boilerplate bound), so blocking changes stay in
    lockstep with the Jaccard path and the twin's shared CTE chain;
    the division is IEEE doubles on both sides (twin:
    ``co / least(na, nb)``). Returns (doc_a, doc_b, containment).
    """
    counted = _ngram_counted_pairs(docs_ds, k, max_df)

    def containment_filter(b: pd.DataFrame) -> pd.DataFrame:
        co = b["count()"].to_numpy(dtype=np.float64)
        na = b["na"].to_numpy(dtype=np.float64)
        nb = b["nb"].to_numpy(dtype=np.float64)
        c = co / np.minimum(na, nb)
        keep = c >= threshold
        return pd.DataFrame(
            {
                "doc_a": b["doc_a"].to_numpy()[keep],
                "doc_b": b["doc_b"].to_numpy()[keep],
                "containment": c[keep],
            }
        )

    return counted.map_batches(
        containment_filter, batch_format="pandas", batch_size=None
    )


# ---------------------------------------------------------------------------
# winnowing fingerprints (Schleimer et al., SIGMOD 2003)
# ---------------------------------------------------------------------------

_WINNOW_MOD = 281474976710597  # < 2^48: (acc*31 + c) stays < 2^53 — exact
# in BOTH int64 numpy and DuckDB BIGINT arithmetic, so the SQL oracle
# reproduces the hashes bit-for-bit


def _winnow_doc(text: str, k: int, w: int):
    """Selected fingerprints of one document: polynomial rolling hashes of
    char k-grams (mod 2^48-ish), minimum of each w-window."""
    cps = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32).astype(
        np.int64
    )
    n = cps.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if n < k:
        h = 0
        for c in cps:
            h = (h * 31 + int(c)) % _WINNOW_MOD
        return np.array([h], dtype=np.int64)
    # rolling polynomial over all k-windows (vectorized across positions)
    m = n - k + 1
    acc = np.zeros(m, dtype=np.int64)
    for j in range(k):
        acc = (acc * 31 + cps[j : j + m]) % _WINNOW_MOD
    if m <= w:
        mins = np.array([acc.min()])
    else:
        from numpy.lib.stride_tricks import sliding_window_view

        mins = sliding_window_view(acc, w).min(axis=1)
    return np.unique(mins)


def _winnow_batch(texts, k: int, w: int):
    """Winnow ALL documents of a batch in one flat-offset pass (no
    per-document Python): concatenate codepoints, compute the k-char
    rolling hash over every global position, select the per-doc valid
    window ranges (doc-boundary masking), take w-window minima with ONE
    ``sliding_window_view`` over the compact array plus ``minimum.reduceat``
    for short ranges, then per-doc distinct counts via a lexsort run-length.
    Bit-identical to ``_winnow_doc`` (same (acc*31 + c) % mod arithmetic).
    Returns (n_fp, min_fp, max_fp) arrays of len(texts)."""
    from numpy.lib.stride_tricks import sliding_window_view

    ndocs = len(texts)
    n_fp = np.zeros(ndocs, dtype=np.int64)
    min_fp = np.full(ndocs, np.nan)
    max_fp = np.full(ndocs, np.nan)
    if ndocs == 0:
        return n_fp, min_fp, max_fp
    texts = ["" if t is None else t for t in texts]
    lens = np.array([len(t) for t in texts], dtype=np.int64)
    joined = "".join(texts)
    cps = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32).astype(
        np.int64
    )
    total = cps.shape[0]
    starts = np.r_[0, np.cumsum(lens)[:-1]]

    # --- k-gram rolling hashes at every global position (garbage at
    # cross-doc positions; masked out by the per-doc ranges below)
    m_global = max(total - k + 1, 0)
    acc = np.zeros(m_global, dtype=np.int64)
    for j in range(k):
        acc = (acc * 31 + cps[j : j + m_global]) % _WINNOW_MOD

    # --- docs with n >= k: valid hash range [start_d, start_d + m_d)
    full = lens >= k
    m_d = np.where(full, lens - k + 1, 0)
    # compact array of valid hashes, doc segments contiguous
    fi = np.flatnonzero(full)
    if fi.size:
        seg_counts = m_d[fi]
        seg_starts = np.r_[0, np.cumsum(seg_counts)[:-1]]
        doc_of = np.repeat(np.arange(fi.size), seg_counts)
        pos = (
            starts[fi][doc_of]
            + np.arange(int(seg_counts.sum()), dtype=np.int64)
            - seg_starts[doc_of]
        )
        compact = acc[pos]
        # w-window minima: docs with m > w get sliding minima (windows that
        # would cross doc boundaries are simply not selected); m <= w docs
        # get one min over the whole segment
        mins_counts = np.where(seg_counts > w, seg_counts - w + 1, 1)
        mins_starts = np.r_[0, np.cumsum(mins_counts)[:-1]]
        mins = np.empty(int(mins_counts.sum()), dtype=np.int64)
        long = seg_counts > w
        if long.any():
            swv = sliding_window_view(compact, w).min(axis=1)
            li = np.flatnonzero(long)
            lc = mins_counts[li]
            ld = np.repeat(li, lc)
            off = np.arange(int(lc.sum()), dtype=np.int64) - np.repeat(
                np.r_[0, np.cumsum(lc)[:-1]], lc
            )
            sel = seg_starts[ld] + off
            dst = np.repeat(mins_starts[li], lc) + off
            mins[dst] = swv[sel]
        short_seg = ~long
        if short_seg.any():
            ssi = np.flatnonzero(short_seg)
            mins[mins_starts[ssi]] = np.minimum.reduceat(compact, seg_starts)[ssi]
        # distinct mins per doc: sort within doc runs, run-length count
        mdoc = np.repeat(np.arange(fi.size), mins_counts)
        order = np.lexsort((mins, mdoc))
        md, mv = mdoc[order], mins[order]
        first = np.r_[True, (md[1:] != md[:-1]) | (mv[1:] != mv[:-1])]
        md_u, mv_u = md[first], mv[first]
        n_fp[fi] = np.bincount(md_u, minlength=fi.size)
        doc_first = np.r_[True, md_u[1:] != md_u[:-1]]
        doc_last = np.r_[md_u[1:] != md_u[:-1], True]
        min_fp[fi[md_u[doc_first]]] = mv_u[doc_first]
        max_fp[fi[md_u[doc_last]]] = mv_u[doc_last]

    # --- short docs (0 < n < k): ONE hash over all their chars, at most
    # k-1 vectorized rounds across all short docs at once
    sm = (lens > 0) & ~full
    si = np.flatnonzero(sm)
    if si.size:
        acc_s = np.zeros(si.size, dtype=np.int64)
        lens_s = lens[si]
        starts_s = starts[si]
        for j in range(int(lens_s.max(initial=0))):
            has = lens_s > j
            acc_s[has] = (acc_s[has] * 31 + cps[starts_s[has] + j]) % _WINNOW_MOD
        n_fp[si] = 1
        min_fp[si] = acc_s
        max_fp[si] = acc_s
    return n_fp, min_fp, max_fp


def winnow_fingerprints(docs_ds, k: int = 5, w: int = 4):
    """Per-document winnowing fingerprint summary:
    (doc_id, n_fp, min_fp, max_fp). Deterministic and SQL-reproducible
    (the rolling hash uses exact sub-2^53 integer arithmetic); the whole
    batch is winnowed in one flat-offset vectorized pass
    (``_winnow_batch``), with ``_winnow_doc`` kept as the per-doc
    reference implementation for parity tests."""

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        out_n, out_min, out_max = _winnow_batch(
            batch["text"].tolist(), k, w
        )
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(),
                "n_fp": out_n,
                "min_fp": out_min,
                "max_fp": out_max,
            }
        )

    return docs_ds.map_batches(f, batch_format="pandas", batch_size=None)


def simhash_dups(
    docs_ds,
    max_hamming: int = 6,
    max_bucket: int = 256,
    hasher: str = "ahash",
):
    """SimHash near-duplicate pairs with EXACT recall for the given radius:
    the 64-bit signature is sliced into ``max_hamming + 1`` bit-bands, so
    any pair within the Hamming radius shares at least one identical band
    (pigeonhole); same-band candidates are verified by popcount. Returns
    (doc_a, doc_b, hamming), doc_a < doc_b.

    Everything is groupby-shaped: signatures -> (band, band_value, doc,
    sig) rows -> per-bucket pair verification (bucket capped + logged) ->
    pair dedup. Hamming is verified inside the bucket task (signatures
    travel with the rows), so no second lookup pass exists."""
    nbands = max_hamming + 1
    # band bit boundaries: the EFFECTIVE signature bits (48 for the poly
    # hasher — its top 16 bits are constant-zero and would collapse high
    # bands into one giant bucket) split as evenly as possible
    sig_bits = SimHasher(hasher).bits
    edges = np.linspace(0, sig_bits, nbands + 1).astype(np.int64)

    def explode(batch: pa.Table) -> pa.Table:
        sig_t = SimHasher(hasher)(batch)
        sigs = (
            sig_t["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        )
        n = sigs.shape[0]
        doc = sig_t["doc_id"]
        sig_col = pa.array(sigs.view(np.int64))
        tables = []
        for b in range(nbands):
            lo, hi = edges[b], edges[b + 1]
            width = np.uint64(hi - lo)
            vals = (sigs >> np.uint64(lo)) & ((np.uint64(1) << width) - np.uint64(1))
            tables.append(
                pa.table(
                    {
                        "band": pa.array(np.full(n, b, dtype=np.int32)),
                        "band_val": pa.array(vals.view(np.int64)),
                        "doc_id": doc,
                        "sig": sig_col,
                    }
                )
            )
        return pa.concat_tables(tables)

    num_partitions = auto_shuffle_partitions()

    rows = docs_ds.map_batches(
        explode, batch_format="pyarrow", batch_size=None
    ).map_batches(
        lambda b: hash_mod_part(
            b, ["band_val", "band"], num_partitions
        ),
        batch_format="pyarrow",
        batch_size=None,
    )

    def partition_pairs(grp: pd.DataFrame) -> pd.DataFrame:
        """ALL bit-band buckets of a hash partition at once: sort by
        (band, band_val, doc), dedup + cap per bucket, one
        ``_segment_pairs`` explosion, vectorized xor-popcount verify."""
        band = grp["band"].to_numpy()
        bv = grp["band_val"].to_numpy()
        d = grp["doc_id"].to_numpy()
        sigs = grp["sig"].to_numpy()
        order = np.lexsort((d, bv, band))
        band, bv, d, sigs = band[order], bv[order], d[order], sigs[order]
        gid, sizes, starts, offsets = _segment_bounds(band, bv)
        dup = np.zeros(d.shape[0], dtype=bool)
        dup[1:] = (gid[1:] == gid[:-1]) & (d[1:] == d[:-1])
        keep = ~dup & (offsets < max_bucket)
        over = int((sizes > max_bucket).sum())
        if over:
            logger.warning(
                "simhash_dups: %d band buckets exceeded max_bucket=%d and "
                "were capped", over, max_bucket,
            )
        band, bv, d, sigs = band[keep], bv[keep], d[keep], sigs[keep]
        gid, sizes, starts, offsets = _segment_bounds(band, bv)
        a_rows, b_rows = _segment_pairs(starts, sizes)
        usigs = np.ascontiguousarray(sigs).view(np.uint64)
        x = usigs[a_rows] ^ usigs[b_rows]
        if x.size:
            ham = np.unpackbits(x[:, None].view(np.uint8), axis=1).sum(axis=1)
        else:
            ham = np.empty(0, dtype=np.int64)
        kp = ham <= max_hamming
        return pd.DataFrame(
            {
                "doc_a": d[a_rows[kp]],
                "doc_b": d[b_rows[kp]],
                "hamming": ham[kp].astype(np.int64),
            }
        )

    pairs = reduce_by_part(rows, partition_pairs, num_partitions, "pandas")
    # a pair found in several bands has the same hamming everywhere:
    # min() is a pure dedup aggregate (no per-pair Python)
    agg = pairs.groupby(["doc_a", "doc_b"]).min("hamming")
    return agg.map_batches(
        lambda b: pd.DataFrame(
            {
                "doc_a": b["doc_a"],
                "doc_b": b["doc_b"],
                "hamming": b["min(hamming)"].astype("int64"),
            }
        ),
        batch_format="pandas",
        batch_size=None,
    )


# RE2-compatible patterns (no backreferences/lookaround) so the DuckDB
# oracle's regexp_replace applies the IDENTICAL substitution
REDACT_PATTERNS = (
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("url", r"https?://[^\s]+", "<URL>"),
    ("number", r"\b[0-9]{6,}\b", "<NUM>"),
)


def _polars_pattern(pat: str) -> str:
    """Translate an RE2-compatible pattern to the exactly-equivalent Rust
    ``regex`` (polars) pattern: RE2's ``\\b`` and ``\\s`` are ASCII while
    Rust's are Unicode, so pin them — ``(?-u:\\b)`` is the ASCII word
    boundary and RE2's ``\\s`` is exactly ``[\\t\\n\\f\\r ]``."""
    return pat.replace("\\b", "(?-u:\\b)").replace("[^\\s]", "[^\t\n\f\r ]")


def redact(docs_ds):
    """PII-style scrubbing: replace emails / URLs / long digit runs with
    typed placeholders. Returns (doc_id, clean_text, n_redactions) — the
    standard pre-training hygiene pass, applied in pattern order.

    Vectorized via polars ``str.count_matches`` + ``str.replace_all``
    (Rust regex engine, one pass per pattern over the whole batch — no
    per-document Python). Patterns are translated by ``_polars_pattern``
    so the substitutions stay byte-identical to DuckDB/RE2's (the SQL
    oracle pins this with an md5 of the cleaned text; Unicode-aware
    ``\\b`` would disagree on e.g. 'caf\u00e9123456')."""
    import polars as pl

    pats = [(_polars_pattern(p), rep) for _, p, rep in REDACT_PATTERNS]

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        s = pl.Series("t", batch["text"].to_numpy(), dtype=pl.String).fill_null("")
        counts = np.zeros(len(batch), dtype=np.int64)
        for pat, rep in pats:
            counts += (
                s.str.count_matches(pat).fill_null(0).to_numpy().astype(np.int64)
            )
            s = s.str.replace_all(pat, rep)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(),
                "clean_text": s.to_numpy(),
                "n_redactions": counts,
            }
        )

    return docs_ds.map_batches(f, batch_format="pandas", batch_size=None)


# ---------------------------------------------------------------------------
# repetition / chunking / decontamination (training-data curation family)
# ---------------------------------------------------------------------------


def _tokens_long(texts):
    """Exploded (i, w) polars frame of the lowercased
    ``_TOKEN_RE_POLARS`` tokens of each text — the shared tokenize step
    of the repetition / n-gram / LM-score family (ONE site to keep in
    byte-parity with the SQL oracles' regexp_extract_all)."""
    import polars as pl

    s = pl.from_arrow(texts).fill_null("")
    return (
        pl.DataFrame(
            {
                "i": np.arange(len(s), dtype=np.int64),
                "w": s.str.to_lowercase().str.extract_all(_TOKEN_RE_POLARS),
            }
        )
        .explode("w", empty_as_null=True)
        .drop_nulls("w")
    )


def repetition_stats(docs_ds):
    """Gopher-style repetition quality signals per document (Rae et al.
    2021 "Scaling Language Models", table A1 — adapted to flat word
    streams): most-frequent-token fraction, most-frequent-bigram
    fraction, duplicate-trigram fraction. High values flag boilerplate /
    degenerate documents in a pre-training corpus.

    Output (doc_id, n_tokens, top_token_frac, top_bigram_frac,
    dup_trigram_frac); fractions are NaN when the denominator is zero
    (documents shorter than the n-gram order).

    Scale shape: pure per-block map — each doc lives in one row, so the
    long token frame + three group_by aggregates (all polars, no per-doc
    Python) are block-local and nothing shuffles.
    """
    import polars as pl

    def f(batch: pa.Table) -> pa.Table:
        n_rows = batch.num_rows
        long = _tokens_long(batch["text"]).with_columns(
            pl.col("w").shift(-1).over("i").alias("w1"),
            pl.col("w").shift(-2).over("i").alias("w2"),
        )
        n_tok = np.bincount(
            long["i"].to_numpy(), minlength=n_rows
        ).astype(np.int64)
        top_tok = np.zeros(n_rows, dtype=np.float64)
        tt = long.group_by("i", "w").len().group_by("i").agg(pl.col("len").max())
        top_tok[tt["i"].to_numpy()] = tt["len"].to_numpy()

        bi = long.drop_nulls("w1").with_columns(
            (pl.col("w") + "\x1f" + pl.col("w1")).alias("g")
        )
        top_bi = np.zeros(n_rows, dtype=np.float64)
        tb = bi.group_by("i", "g").len().group_by("i").agg(pl.col("len").max())
        top_bi[tb["i"].to_numpy()] = tb["len"].to_numpy()

        tri = long.drop_nulls("w2").with_columns(
            (pl.col("w") + "\x1f" + pl.col("w1") + "\x1f" + pl.col("w2")).alias("g")
        )
        dt = tri.group_by("i").agg(pl.col("g").n_unique().alias("d"))
        distinct_tri = np.zeros(n_rows, dtype=np.float64)
        distinct_tri[dt["i"].to_numpy()] = dt["d"].to_numpy()

        with np.errstate(invalid="ignore", divide="ignore"):
            f_tok = np.where(n_tok > 0, top_tok / np.maximum(n_tok, 1), np.nan)
            f_bi = np.where(
                n_tok >= 2, top_bi / np.maximum(n_tok - 1, 1), np.nan
            )
            f_tri = np.where(
                n_tok >= 3,
                1.0 - distinct_tri / np.maximum(n_tok - 2, 1),
                np.nan,
            )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(n_tok),
                "top_token_frac": pa.array(f_tok),
                "top_bigram_frac": pa.array(f_bi),
                "dup_trigram_frac": pa.array(f_tri),
            }
        )

    return docs_ds.map_batches(f, batch_format="pyarrow", batch_size=None)


def chunk_text(docs_ds, *, size: int = 120, overlap: int = 30):
    """Fixed-size character chunking with overlap — the RAG / context-
    window prep step: each document explodes into
    max(ceil((n_chars - overlap)/stride), 1) chunks (stride = size -
    overlap) starting at 0, stride, 2*stride, …, each ``size`` characters
    long (the last one shorter, but never fully contained in the previous
    chunk — the standard chunker count). Empty documents yield one empty
    chunk so every doc_id survives the explode.

    Pure per-block 1->N map, no shuffle. Boundaries are codepoint-based
    (polars str.slice), matching SQL ``substring`` semantics exactly.
    Output (doc_id, chunk_idx, chunk).
    """
    import polars as pl

    if not (0 <= overlap < size):
        raise ValueError(f"need 0 <= overlap < size, got {overlap=} {size=}")
    stride = size - overlap

    def f(batch: pa.Table) -> pa.Table:
        s = pl.from_arrow(batch["text"]).fill_null("").alias("t")
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        n = s.str.len_chars().to_numpy().astype(np.int64)
        # ceil((n - overlap)/stride), min 1: the last chunk always adds
        # at least one new character beyond the previous chunk's end
        k = np.maximum(1, -(-(n - overlap) // stride))
        rep = np.repeat(np.arange(len(s), dtype=np.int64), k)
        chunk_idx = np.arange(rep.size, dtype=np.int64) - np.repeat(
            np.cumsum(k) - k, k
        )
        long = pl.DataFrame(
            {"t": s.gather(rep), "o": chunk_idx * stride}
        ).with_columns(pl.col("t").str.slice(pl.col("o"), size).alias("chunk"))
        return pa.table(
            {
                "doc_id": pa.array(ids[rep]),
                "chunk_idx": pa.array(chunk_idx),
                "chunk": long["chunk"].to_arrow().cast(pa.string()),
            }
        )

    return docs_ds.map_batches(f, batch_format="pyarrow", batch_size=None)


def _word_ngrams_long(texts, n: int):
    """Long polars frame (i, g) of the word n-grams of each text: tokens
    are lowercased ``_TOKEN_RE_POLARS`` matches, grams joined with ' '.
    Fully vectorized (explode + shift-over + concat_str)."""
    import polars as pl

    long = _tokens_long(texts)
    if n > 1:
        long = long.with_columns(
            pl.col("w").shift(-j).over("i").alias(f"w{j}") for j in range(1, n)
        )
    gram = pl.concat_str(
        [pl.col("w")] + [pl.col(f"w{j}") for j in range(1, n)], separator=" "
    ).alias("g")
    # concat_str is null if ANY component is null => trailing partial
    # windows drop out here, exactly the len(words)-n+1 gram count
    return long.with_columns(gram).drop_nulls("g").select("i", "g")


def ngram_decontaminate(
    docs_ds,
    bench_ds,
    *,
    n: int = 8,
    max_bench_broadcast: int = 20_000_000,
):
    """Benchmark decontamination: flag every corpus document sharing at
    least one word n-gram with ANY benchmark document — the standard
    exact n-gram-overlap contamination rule (GPT-3 appendix C; Dodge et
    al. 2021 on C4). Output (doc_id, contaminated bool); compose with
    ``broadcast_semi_join``/filter to actually drop flagged docs.

    Scale shape: the benchmark side (small by contract — a test set, not
    a corpus) reduces to a DISTINCT-gram table with a block-local
    distinct combiner + one vocabulary-sized groupby, broadcast ONCE via
    ``ray.put`` (loud ``max_bench_broadcast`` bound); the corpus then
    streams through a single map_batches that builds its n-grams
    vectorized and checks membership with ``is_in`` — the 100-TB side is
    never shuffled.
    """
    import polars as pl
    import ray

    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")

    def bench_partial(batch: pa.Table) -> pa.Table:
        g = _word_ngrams_long(batch["text"], n)["g"].unique()
        return pa.table({"g": g.to_arrow().cast(pa.string())})

    bench_tbl = (
        bench_ds.map_batches(
            bench_partial, batch_format="pyarrow", batch_size=None
        )
        .groupby("g")
        .count()
    )
    grams = pa.concat_tables(
        ray.get(bench_tbl.to_arrow_refs()), promote_options="default"
    )
    if grams.num_rows > max_bench_broadcast:
        raise ValueError(
            f"benchmark n-gram set has {grams.num_rows} grams > "
            f"max_bench_broadcast={max_bench_broadcast}; partition the "
            "corpus by gram hash and join instead of broadcasting"
        )
    bench_ref = ray.put(pl.from_arrow(grams["g"].cast(pa.string())))

    def flag(batch: pa.Table) -> pa.Table:
        bench = ray.get(bench_ref)
        hit = np.zeros(batch.num_rows, dtype=bool)
        g = _word_ngrams_long(batch["text"], n)
        if g.height:
            h = (
                g.with_columns(pl.col("g").is_in(bench).alias("hit"))
                .group_by("i")
                .agg(pl.col("hit").any())
            )
            hit[h["i"].to_numpy()] = h["hit"].to_numpy()
        return pa.table(
            {"doc_id": batch["doc_id"], "contaminated": pa.array(hit)}
        )

    return docs_ds.map_batches(flag, batch_format="pyarrow", batch_size=None)


def lm_score(docs_ds, *, max_vocab_broadcast: int = 5_000_000):
    """Corpus unigram language-model score per document: average negative
    log-probability of the document's tokens under the add-one-smoothed
    corpus unigram distribution, p(w) = (count(w)+1) / (T+V) — the
    perplexity-style quality signal of CCNet-class curation pipelines
    (Wenzek et al. 2020), with the unigram LM standing in for the
    external KenLM. Low = typical text, high = rare-token noise.
    Output (doc_id, n_tokens, avg_neg_logprob); NaN for empty docs.

    Scale shape: one counts pass (block-local value_counts combiner, one
    vocabulary-sized groupby-sum — identical to :func:`top_terms`); the
    (term, logprob) table is broadcast ONCE via ``ray.put`` (loud
    ``max_vocab_broadcast`` bound); the scoring pass is one map_batches
    with a vectorized polars join + group sum. Unseen tokens (scoring a
    different corpus than the one the LM was fit on) get the smoothing
    floor ln(1/(T+V)) — no row is ever dropped."""
    import polars as pl

    import ray

    def count_partial(batch: pa.Table) -> pa.Table:
        vc = _tokens_long(batch["text"])["w"].rename("term").value_counts()
        return pa.table(
            {
                "term": vc["term"].to_arrow().cast(pa.string()),
                "cnt": pa.array(vc["count"].to_numpy().astype(np.int64)),
            }
        )

    counts_ds = (
        docs_ds.map_batches(count_partial, batch_format="pyarrow", batch_size=None)
        .groupby("term")
        .sum("cnt")
    )
    vocab = pa.concat_tables(
        ray.get(counts_ds.to_arrow_refs()), promote_options="default"
    )
    if vocab.num_rows > max_vocab_broadcast:
        raise ValueError(
            f"vocabulary has {vocab.num_rows} terms > max_vocab_broadcast="
            f"{max_vocab_broadcast}; shuffle docs by term instead"
        )
    cnt = vocab["sum(cnt)"].to_numpy(zero_copy_only=False).astype(np.float64)
    total, v_size = float(cnt.sum()), float(vocab.num_rows)
    lm = pl.DataFrame(
        {
            "term": pl.from_arrow(vocab["term"].cast(pa.string())),
            "lp": np.log((cnt + 1.0) / (total + v_size)),
        }
    )
    lm_ref = ray.put(lm)
    floor_lp = float(np.log(1.0 / (total + v_size))) if total + v_size > 0 else 0.0

    def score(batch: pa.Table) -> pa.Table:
        model = ray.get(lm_ref)
        toks = _tokens_long(batch["text"]).rename({"w": "term"})
        n_tok = np.bincount(
            toks["i"].to_numpy(), minlength=batch.num_rows
        ).astype(np.int64)
        long = (
            toks.join(model, on="term", how="left")
            .with_columns(pl.col("lp").fill_null(floor_lp))
            .group_by("i")
            .agg(pl.col("lp").sum())
        )
        lp_sum = np.zeros(batch.num_rows, dtype=np.float64)
        lp_sum[long["i"].to_numpy()] = long["lp"].to_numpy()
        with np.errstate(invalid="ignore"):
            score_v = np.where(n_tok > 0, -lp_sum / np.maximum(n_tok, 1), np.nan)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(n_tok),
                "avg_neg_logprob": pa.array(score_v),
            }
        )

    return docs_ds.map_batches(score, batch_format="pyarrow", batch_size=None)


def boilerplate_score(
    docs_ds,
    *,
    n: int = 3,
    df_threshold: int = 2,
    max_gram_broadcast: int = 20_000_000,
):
    """Cross-corpus boilerplate signal per document: the fraction of a
    document's DISTINCT word n-grams whose corpus document frequency is
    >= ``df_threshold`` — the across-documents complement of the
    within-document :func:`repetition_stats` (CCNet drops paragraphs
    duplicated across shards, Wenzek et al. 2020 §4.1; here surfaced as
    a per-doc score to threshold instead of a destructive rewrite).
    High = headers/footers/licence blocks shared verbatim by many pages.
    Output (doc_id, n_distinct_grams, n_common_grams, common_gram_frac);
    the fraction is NaN for documents shorter than ``n`` tokens.

    Scale shape: document-frequency pass = block-local distinct
    (doc, gram) -> per-block partial counts (docs live whole in one row,
    so block-local distinct is exact) -> ONE vocabulary-sized
    groupby-sum; only the grams with df >= threshold are broadcast ONCE
    via ``ray.put`` (loud ``max_gram_broadcast`` bound — at 100 TB raise
    the threshold or partition docs by gram hash and join instead); the
    scoring pass is one streaming map_batches with a vectorized ``is_in``
    — the corpus itself is never shuffled."""
    import polars as pl

    import ray

    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if df_threshold < 1:
        raise ValueError(f"df_threshold must be >= 1, got {df_threshold}")

    def df_partial(batch: pa.Table) -> pa.Table:
        dg = _word_ngrams_long(batch["text"], n).unique(subset=["i", "g"])
        c = dg.group_by("g").len()
        return pa.table(
            {
                "g": c["g"].to_arrow().cast(pa.string()),
                "c": pa.array(c["len"].to_numpy().astype(np.int64)),
            }
        )

    df_ds = (
        docs_ds.map_batches(df_partial, batch_format="pyarrow", batch_size=None)
        .groupby("g")
        .sum("c")
    )

    def keep_common(batch: pa.Table) -> pa.Table:
        mask = pc.greater_equal(batch["sum(c)"], df_threshold)
        return pa.table({"g": batch.filter(mask)["g"].cast(pa.string())})

    common_tbl = pa.concat_tables(
        ray.get(
            df_ds.map_batches(
                keep_common, batch_format="pyarrow", batch_size=None
            ).to_arrow_refs()
        ),
        promote_options="default",
    )
    if common_tbl.num_rows > max_gram_broadcast:
        raise ValueError(
            f"{common_tbl.num_rows} corpus-common grams > "
            f"max_gram_broadcast={max_gram_broadcast}; raise df_threshold "
            "or partition docs by gram hash and join instead"
        )
    common_ref = ray.put(pl.from_arrow(common_tbl["g"].cast(pa.string())))

    def score(batch: pa.Table) -> pa.Table:
        common = ray.get(common_ref)
        n_rows = batch.num_rows
        nd = np.zeros(n_rows, dtype=np.int64)
        nc = np.zeros(n_rows, dtype=np.int64)
        dg = _word_ngrams_long(batch["text"], n).unique(subset=["i", "g"])
        if dg.height:
            agg = (
                dg.with_columns(pl.col("g").is_in(common).alias("hit"))
                .group_by("i")
                .agg(pl.len().alias("d"), pl.col("hit").sum().alias("c"))
            )
            nd[agg["i"].to_numpy()] = agg["d"].to_numpy()
            nc[agg["i"].to_numpy()] = agg["c"].to_numpy()
        with np.errstate(invalid="ignore"):
            frac = np.where(nd > 0, nc / np.maximum(nd, 1), np.nan)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_distinct_grams": pa.array(nd),
                "n_common_grams": pa.array(nc),
                "common_gram_frac": pa.array(frac),
            }
        )

    return docs_ds.map_batches(score, batch_format="pyarrow", batch_size=None)


def json_extract_fields(
    ds,
    *,
    json_col: str,
    fields: dict,
    id_cols: tuple = ("event_id",),
):
    """Vectorized JSON field extraction from a string column — the
    semi-structured ETL step: ``fields`` maps output column name ->
    (JSONPath, dtype) with dtype in {'int64', 'float64', 'string'}.
    Malformed JSON, missing paths and failed casts all yield NULL.
    int64 uses polars' STRICT integer parse (``^[+-]?[0-9]+$``; '1.5'
    is NULL, not rounded) — SQL twins must guard TRY_CAST with that
    regex or DuckDB rounds instead.

    Pure per-block map via polars ``str.json_path_match`` (Rust JSON
    parser, one pass per field over the batch) — no shuffle, no per-row
    Python.
    """
    import polars as pl

    _CASTS = {"int64": pl.Int64, "float64": pl.Float64, "string": pl.String}
    for name, (_path, dt) in fields.items():
        if dt not in _CASTS:
            raise ValueError(
                f"field {name!r}: dtype must be one of {sorted(_CASTS)}, "
                f"got {dt!r}"
            )

    def f(batch: pa.Table) -> pa.Table:
        s = pl.from_arrow(batch[json_col]).cast(pl.String)
        out = {c: batch[c] for c in id_cols}
        for name, (path, dt) in fields.items():
            col = s.str.json_path_match(path)
            if dt != "string":
                col = col.cast(_CASTS[dt], strict=False)
            out[name] = col.to_arrow()
        return pa.table(out)

    return ds.map_batches(f, batch_format="pyarrow", batch_size=None)


def dsir_weights(
    docs_ds,
    *,
    target_col: str = "lang",
    target_value: str = "en",
    max_vocab_broadcast: int = 5_000_000,
):
    """DSIR-style importance weight per document (Xie et al. 2023,
    "Data Selection for Language Models via Importance Resampling"):
    log w(doc) = sum over tokens of ln p_target(t) - ln p_raw(t), where
    p_target is the add-one-smoothed unigram LM fit on the documents
    whose ``target_col`` equals ``target_value`` and p_raw is the same
    LM fit on the whole corpus, both smoothed over the SHARED corpus
    vocabulary (V = corpus distinct terms). Positive = the document
    looks more like the target domain than the raw corpus; feeding
    exp(log_importance) into a Gumbel top-k gives the paper's sampler.
    DSIR hashes n-grams into buckets to bound the feature space; with a
    broadcast-bounded exact unigram vocabulary the hashing step is
    unnecessary and exact counts are used (the same trade
    :func:`lm_score` makes vs. KenLM).

    Output (doc_id, n_tokens, log_importance); empty documents weigh
    0.0 (an empty product of ratios — mirror with ``coalesce(lw, 0.0)``
    in SQL twins).

    Scale shape: ONE counts pass produces both LMs (block-local
    value_counts combiner carrying a raw and a target partial per term,
    one vocabulary-sized groupby-sum); the (term, log-ratio) table is
    broadcast ONCE via ``ray.put`` (loud ``max_vocab_broadcast``
    bound); scoring is one map_batches with a vectorized polars join +
    group sum — identical shape to :func:`lm_score`."""
    import polars as pl

    import ray

    def count_partial(batch: pa.Table) -> pa.Table:
        # cast before fill_null: an all-null block arrives null-typed
        is_tgt = pc.equal(
            pc.fill_null(pc.cast(batch[target_col], pa.string()), ""),
            pa.scalar(target_value),
        )
        toks = _tokens_long(batch["text"]).rename({"w": "term"})
        tgt_rows = np.flatnonzero(
            is_tgt.to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        flagged = toks.with_columns(
            pl.col("i").is_in(tgt_rows).cast(pl.Int64).alias("t")
        )
        agg = flagged.group_by("term").agg(
            pl.len().cast(pl.Int64).alias("cnt_raw"),
            pl.col("t").sum().alias("cnt_tgt"),
        )
        return agg.to_arrow().cast(
            pa.schema(
                [("term", pa.string()), ("cnt_raw", pa.int64()),
                 ("cnt_tgt", pa.int64())]
            )
        )

    counts_ds = (
        docs_ds.map_batches(
            count_partial, batch_format="pyarrow", batch_size=None
        )
        .groupby("term")
        .sum(["cnt_raw", "cnt_tgt"])
    )
    vocab = pa.concat_tables(
        ray.get(counts_ds.to_arrow_refs()), promote_options="default"
    )
    if vocab.num_rows > max_vocab_broadcast:
        raise ValueError(
            f"vocabulary has {vocab.num_rows} terms > max_vocab_broadcast="
            f"{max_vocab_broadcast}; shuffle docs by term instead"
        )
    c_raw = vocab["sum(cnt_raw)"].to_numpy(zero_copy_only=False).astype(
        np.float64
    )
    c_tgt = vocab["sum(cnt_tgt)"].to_numpy(zero_copy_only=False).astype(
        np.float64
    )
    t_raw, t_tgt = float(c_raw.sum()), float(c_tgt.sum())
    v_size = float(vocab.num_rows)
    # per-term addend, computed EXACTLY as the SQL twin's per-token
    # expression: ln((c_tgt+1)/(T_tgt+V)) - ln((c_raw+1)/(T_raw+V))
    lw_v = np.log((c_tgt + 1.0) / (t_tgt + v_size)) - np.log(
        (c_raw + 1.0) / (t_raw + v_size)
    )
    lm = pl.DataFrame(
        {
            "term": pl.from_arrow(vocab["term"].cast(pa.string())),
            "lw": lw_v,
        }
    )
    lm_ref = ray.put(lm)
    floor_lw = (
        float(np.log(1.0 / (t_tgt + v_size)) - np.log(1.0 / (t_raw + v_size)))
        if v_size > 0
        else 0.0
    )

    def score(batch: pa.Table) -> pa.Table:
        model = ray.get(lm_ref)
        toks = _tokens_long(batch["text"]).rename({"w": "term"})
        n_tok = np.bincount(
            toks["i"].to_numpy(), minlength=batch.num_rows
        ).astype(np.int64)
        long = (
            toks.join(model, on="term", how="left")
            .with_columns(pl.col("lw").fill_null(floor_lw))
            .group_by("i")
            .agg(pl.col("lw").sum())
        )
        lw_sum = np.zeros(batch.num_rows, dtype=np.float64)
        lw_sum[long["i"].to_numpy()] = long["lw"].to_numpy()
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(n_tok),
                "log_importance": pa.array(lw_sum),
            }
        )

    return docs_ds.map_batches(score, batch_format="pyarrow", batch_size=None)


def char_entropy(docs_ds, *, id_col: str = "doc_id", text_col: str = "text"):
    """Per-document character-level Shannon entropy — the classic
    low-cost quality/compressibility signal (near-zero for padding /
    repeated-character spam, high for natural prose): with ``c`` the
    count of each distinct code point and ``n`` the document length in
    code points, ``char_entropy`` = -sum((c/n) * ln(c/n)) evaluated in
    EXACTLY that double-precision form on both sides (the SQL twin
    spells the identical expression per (doc, char) group). Also emits
    ``n_chars`` (= SQL ``length(text)``, code points) and
    ``distinct_chars``. NULL and empty documents are absent — mirror
    with ``WHERE text IS NOT NULL AND length(text) > 0``.

    Scale shape: embarrassingly parallel block-local map (each document
    is one row), no shuffle, no driver state. The kernel is one
    UTF-32 decode of the whole block + one lexsort over (doc, code
    point) + run-length ``add.reduceat`` — no per-row Python, no
    per-char explode through Arrow (the SQL twin's unnest pays that)."""
    import polars as pl

    def kernel(batch: pa.Table) -> pa.Table:
        t = batch.select([id_col, text_col])
        t = t.filter(
            pc.and_(
                pc.is_valid(t[text_col]),
                pc.greater(pc.utf8_length(t[text_col]), 0),
            )
        )
        if t.num_rows == 0:
            return pa.table(
                {
                    id_col: t[id_col],
                    "n_chars": pa.array(np.empty(0, np.int64)),
                    "distinct_chars": pa.array(np.empty(0, np.int64)),
                    "char_entropy": pa.array(np.empty(0, np.float64)),
                }
            )
        s = pl.from_arrow(t[text_col].combine_chunks())
        lens = s.str.len_chars().to_numpy().astype(np.int64)
        cp = np.frombuffer(
            s.str.join("").item().encode("utf-32-le"), dtype=np.uint32
        )
        docrep = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
        order = np.lexsort((cp, docrep))
        d_s, c_s = docrep[order], cp[order]
        run = np.r_[True, (d_s[1:] != d_s[:-1]) | (c_s[1:] != c_s[:-1])]
        run_start = np.flatnonzero(run)
        run_cnt = np.diff(np.r_[run_start, d_s.size]).astype(np.int64)
        run_doc = d_s[run_start]
        # every filtered doc has >= 1 char, so run_doc segments are the
        # docs in original (filtered) row order
        doc_first = np.r_[True, run_doc[1:] != run_doc[:-1]]
        doc_start = np.flatnonzero(doc_first)
        p = run_cnt.astype(np.float64) / lens[run_doc].astype(np.float64)
        ent = -np.add.reduceat(p * np.log(p), doc_start)
        distinct = np.diff(np.r_[doc_start, run_doc.size]).astype(np.int64)
        return pa.table(
            {
                id_col: t[id_col],
                "n_chars": pa.array(lens),
                "distinct_chars": pa.array(distinct),
                "char_entropy": pa.array(ent),
            }
        )

    return docs_ds.map_batches(
        kernel, batch_format="pyarrow", batch_size=None
    )


def _lines_long(batch: pa.Table, text_col: str, line_tokens: int | None):
    """Long frame (i=row index, ln=line ordinal, line=text) of each
    document's lines: physical ``\\n`` lines by default, or — for
    corpora without newlines — fixed runs of ``line_tokens``
    whitespace-separated tokens (the pseudo-line mode whose SQL twin is
    the zipped unnest + ``(i-1)//k`` regroup).  NULL texts drop."""
    import polars as pl

    d = pl.DataFrame(
        {
            "i": np.arange(batch.num_rows, dtype=np.int64),
            "t": pl.from_arrow(batch[text_col]).cast(pl.String),
        }
    ).filter(pl.col("t").is_not_null())
    if line_tokens is None:
        e = d.with_columns(pl.col("t").str.split("\n").alias("line"))
        e = e.drop("t").explode("line", empty_as_null=True)
        return e.with_columns(
            ln=pl.int_range(pl.len(), dtype=pl.Int64).over("i")
        )
    e = d.with_columns(pl.col("t").str.split(" ").alias("w"))
    e = e.drop("t").explode("w", empty_as_null=True)
    e = e.with_columns(j=pl.int_range(pl.len(), dtype=pl.Int64).over("i"))
    e = e.with_columns(ln=pl.col("j") // line_tokens)
    return (
        e.group_by(["i", "ln"], maintain_order=True)
        .agg(pl.col("w"))
        .with_columns(line=pl.col("w").list.join(" "))
        .drop("w")
    )


def line_dedup(
    docs_ds,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    min_docs: int = 2,
    line_tokens: int | None = None,
    max_common_broadcast: int = 20_000_000,
):
    """Corpus-level common-line removal — the RefinedWeb/CCNet line
    dedup step (Penedo et al. 2023 §3.4: drop lines duplicated across
    many pages; headers, nav bars, licence boilerplate): a line whose
    corpus document frequency is >= ``min_docs`` is removed from EVERY
    document; documents are reassembled from their surviving lines in
    original order.  Output (id, text_clean, n_lines_kept); documents
    whose every line is common (e.g. exact duplicates of a popular
    page) drop from the output entirely (GROUP-BY semantics — mirror,
    don't LEFT JOIN, in SQL twins).

    ``line_tokens`` switches to pseudo-lines of that many
    whitespace-separated tokens for corpora without newlines (the
    driver's synthetic documents) — the split, regroup and reassembly
    are all replayed by the twin's zipped-unnest CTE chain.

    Scale shape (same contract as :func:`boilerplate_score`): the
    document-frequency pass is block-local DISTINCT (doc, line) — exact
    because each doc is one row — into per-block partial counts, then
    ONE line-cardinality groupby-sum; only lines with df >= min_docs
    are broadcast ONCE via ``ray.put`` (loud ``max_common_broadcast``
    bound — boilerplate lines are the corpus's heavy tail, orders of
    magnitude smaller than the line universe); the rewrite pass is one
    streaming map_batches with a vectorized ``is_in``.  The corpus text
    itself is never shuffled."""
    import polars as pl

    import ray

    if min_docs < 1:
        raise ValueError(f"min_docs must be >= 1, got {min_docs}")
    if line_tokens is not None and line_tokens < 1:
        raise ValueError(f"line_tokens must be >= 1, got {line_tokens}")

    def df_partial(batch: pa.Table) -> pa.Table:
        u = _lines_long(batch, text_col, line_tokens).unique(
            subset=["i", "line"]
        )
        c = u.group_by("line").len()
        return pa.table(
            {
                "line": c["line"].to_arrow().cast(pa.string()),
                "c": pa.array(c["len"].to_numpy().astype(np.int64)),
            }
        )

    df_ds = (
        docs_ds.map_batches(
            df_partial, batch_format="pyarrow", batch_size=None
        )
        .groupby("line")
        .sum("c")
    )

    def keep_common(batch: pa.Table) -> pa.Table:
        mask = pc.greater_equal(batch["sum(c)"], min_docs)
        return pa.table({"line": batch.filter(mask)["line"].cast(pa.string())})

    common_tbl = pa.concat_tables(
        ray.get(
            df_ds.map_batches(
                keep_common, batch_format="pyarrow", batch_size=None
            ).to_arrow_refs()
        ),
        promote_options="default",
    )
    if common_tbl.num_rows > max_common_broadcast:
        raise ValueError(
            f"{common_tbl.num_rows} corpus-common lines > "
            f"max_common_broadcast={max_common_broadcast}; raise min_docs "
            "or partition docs by line hash and join instead"
        )
    common_ref = ray.put(pl.from_arrow(common_tbl["line"].cast(pa.string())))

    def rewrite(batch: pa.Table) -> pa.Table:
        common = ray.get(common_ref)
        lines = _lines_long(batch, text_col, line_tokens)
        kept = lines.filter(~pl.col("line").is_in(common))
        agg = (
            kept.sort(["i", "ln"])
            .group_by("i", maintain_order=True)
            .agg(
                pl.col("line").alias("ls"),
                pl.len().alias("n_lines_kept"),
            )
            .with_columns(text_clean=pl.col("ls").list.join("\n"))
        )
        idx = pa.array(agg["i"].to_numpy())
        return pa.table(
            {
                id_col: batch[id_col].take(idx),
                "text_clean": agg["text_clean"].to_arrow().cast(pa.string()),
                "n_lines_kept": pa.array(
                    agg["n_lines_kept"].to_numpy().astype(np.int64)
                ),
            }
        )

    return docs_ds.map_batches(
        rewrite, batch_format="pyarrow", batch_size=None
    )


def keyword_hits(
    docs_ds,
    *,
    keywords: list,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """Multi-keyword occurrence tagging — the blocklist/allowlist
    filter primitive of web-corpus curation (C4 dropped pages on a
    "bad words" list, Raffel et al. 2020 §2.2): for every (document,
    keyword) pair with at least one LITERAL occurrence, returns
    (id, keyword, hits) where hits counts NON-OVERLAPPING matches
    left-to-right — exactly DuckDB's ``(len(text) -
    len(replace(text, kw, ''))) // len(kw)`` and polars
    ``count_matches(literal=True)`` agree on that convention.
    Zero-hit pairs are absent (mirror with ``WHERE hits > 0``);
    NULL texts drop.

    Scale shape: pure per-block map — one Rust-regex literal counter
    pass per keyword over the batch (keywords are a small broadcast
    list by contract), output long-form; no shuffle, no per-row
    Python.  Compose with a groupby or semi-join for doc-level
    drop decisions."""
    import polars as pl

    if not keywords:
        raise ValueError("keywords must be a non-empty list")
    if any(not k for k in keywords):
        raise ValueError("keywords must be non-empty strings")
    kws = list(dict.fromkeys(keywords))  # stable-dedup

    def f(batch: pa.Table) -> pa.Table:
        s = pl.from_arrow(batch[text_col]).cast(pl.String)
        ids_out, kw_out, hits_out = [], [], []
        valid = s.is_not_null().to_numpy()
        for kw in kws:
            cnt = (
                s.str.count_matches(kw, literal=True)
                .fill_null(0)
                .to_numpy()
                .astype(np.int64)
            )
            hit = valid & (cnt > 0)
            if not hit.any():
                continue
            idx = np.flatnonzero(hit)
            ids_out.append(idx)
            kw_out.extend([kw] * idx.size)
            hits_out.append(cnt[idx])
        if not ids_out:
            return pa.table(
                {
                    id_col: batch[id_col].slice(0, 0),
                    "keyword": pa.array([], type=pa.string()),
                    "hits": pa.array(np.empty(0, dtype=np.int64)),
                }
            )
        take = pa.array(np.concatenate(ids_out))
        return pa.table(
            {
                id_col: batch[id_col].take(take),
                "keyword": pa.array(kw_out, type=pa.string()),
                "hits": pa.array(np.concatenate(hits_out)),
            }
        )

    return docs_ds.map_batches(f, batch_format="pyarrow", batch_size=None)
