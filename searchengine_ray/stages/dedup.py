"""Deduplication operators (exact, MinHash+LSH, SimHash, n-gram
Jaccard, phash, embedding-cosine, benchmark 8-gram decontamination) —
Ray-Data-first.

The reference's only dedup is exact URL identity (J1,
``SearchEngine.h:814-835``); these are the payload/content-level
operators a 100 TB training-data pipeline needs (build charter), each
expressed as map_batches (vectorized sketching) + a keyed shuffle
(groupby on hash/band/bucket) + per-group resolution — the partial/
combiner-first pattern, never a driver-side loop over rows.

The text operators (shingles for MinHash, q18's Jaccard and
decontamination; SimHash) tokenize through ``text.tokenize`` and hash
k-gram shingles with ``text.kgram_window_hashes``, the package's one
tokenizer and one k-gram hash.

MinHash LSH yields candidate DOCS, not pairs: ``lsh_candidate_docs``
returns every doc that shares a band bucket with another doc id, in
time linear in the docs whatever the bucket sizes, and q16 verifies
exact Jaccard among those docs.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.hashing import fnv1a64_batch, fnv1a64_fixed
from .keyed import collect, combine, keyed_map
from .similarity import matrix
from . import text as tx
from .text import in_sorted

# ------------------------------------------------------------- exact dedup


def add_text_hash(batch: pa.Table, text_col: str = "text") -> pa.Table:
    h = fnv1a64_batch(batch[text_col].combine_chunks())
    return batch.append_column("text_hash", pa.array(h, type=pa.uint64()))


def exact_dedup(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    keep_cols: list[str] | None = None,
):
    """Exact content dedup, combiner-first: per-batch partial (min-id
    survivor + count per content hash) → hash-partition by content hash
    → per-partition vectorized final.  Never a per-group Python call —
    the shuffle carries one row per distinct hash per batch and the
    final is one pandas pass per partition.

    ``keep_cols`` projects the shuffle payload: only (text_hash, id,
    count) + the listed columns ride the hash partition — pass [] so
    the raw ``text`` (or any binary payload) never transits the
    shuffle at 100-TB scale; None (default) carries every column.

    Returns the survivors dataset with ``dup_count`` per kept row."""
    hashed = ds.map_batches(
        lambda t: add_text_hash(t, text_col), batch_format="pyarrow"
    )
    return _hash_dedup(hashed, "text_hash", id_col, keep_cols)


def _hash_dedup(ds, hash_col: str, id_col: str, keep_cols: list[str] | None):
    """Keep the min-``id_col`` row per ``hash_col`` value, with its
    ``dup_count``: per-batch partial (one row + count per hash) →
    ``keyed_map`` on the hash → one pandas pass per partition."""
    proj = (
        None
        if keep_cols is None
        else list(dict.fromkeys([id_col, *keep_cols, hash_col]))
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.sort_values(id_col)
        if proj is not None:
            b = b[proj]
        keep = b.drop_duplicates(hash_col).copy()
        cnt = b.groupby(hash_col).size()
        keep["partial_count"] = keep[hash_col].map(cnt).astype("int64")
        return keep

    def finalize(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_col)
        cnt = g.groupby(hash_col)["partial_count"].sum()
        keep = g.drop_duplicates(hash_col).copy()
        keep["dup_count"] = keep[hash_col].map(cnt).astype("int64")
        return keep.drop(columns=["partial_count"])

    partials = ds.map_batches(partial, batch_format="pandas")
    return keyed_map(partials, [hash_col], finalize)


# ------------------------------------------------- shingles, exact Jaccard


def _distinct_shingles(
    texts, shingle_k: int, short_fallback: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """→ (doc_idx, shingle_hash, n_tokens_per_doc) — each doc's DISTINCT
    k-token shingle hashes: ``text.kgram_window_hashes`` over one
    ``text.tokenize`` stream, then a per-doc distinct.  With
    ``short_fallback`` a doc shorter than k contributes one all-tokens
    shingle (the same Horner fold over its whole stream,
    ``text.doc_hashes``); without it such docs emit nothing (SQL
    ``range(len-k+1)`` semantics, q18's oracle)."""
    tok = tx.tokenize(texts)
    didx, _pos, sh = tx.kgram_window_hashes(tok, shingle_k)
    if short_fallback:
        short = np.flatnonzero((tok.counts > 0) & (tok.counts < shingle_k))
        fold = tx.doc_hashes(tok.hashes(), tok.starts[short], tok.counts[short])
        didx, sh = np.concatenate([didx, short]), np.concatenate([sh, fold])
    # per-doc distinct: lexsort by (doc, shingle), keep group firsts
    order = np.lexsort((sh, didx))
    didx, sh = didx[order], sh[order]
    keep = np.ones(len(sh), bool)
    keep[1:] = (didx[1:] != didx[:-1]) | (sh[1:] != sh[:-1])
    return didx[keep], sh[keep], tok.counts


def jaccard_pairs_from(ds, K: int = 5, threshold: float = 0.5):
    """Exact ``K``-token shingle-set Jaccard pairs ``(ia, ib, jaccard)``,
    ia < ib, jaccard ≥ ``threshold``, of a ``(doc_id, text)`` Dataset:
    shingle explode (each row carrying its doc's distinct-shingle
    count) → ``keyed_map`` by shingle, one self-merge per partition →
    partitioned ``combine`` by pair → ratio filter.  q18 runs it on the
    corpus, q16 on its LSH candidate docs, the curation funnel on its
    exact-dedup survivors."""

    def shingles(b: pa.Table) -> pa.Table:
        # pyarrow hop: the wide (doc_id, text) read never converts to
        # pandas; only 8-byte shingle rows ride the shuffle
        didx, sh, _lens = _distinct_shingles(b["text"], K, short_fallback=False)
        counts = (
            np.bincount(didx, minlength=len(b)) if len(b) else np.zeros(0)
        )
        doc_ids = b["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids[didx], pa.int64()),
                "shingle": pa.array(sh.view(np.int64)),
                "n": pa.array(counts[didx].astype(np.int64)),
            }
        )

    def partition_pairs(g: pd.DataFrame) -> pd.DataFrame:
        # all rows of any given shingle are in this partition, so the
        # self-merge is complete for these shingles; one vectorized
        # pandas merge per partition, never per group — one row per
        # shared shingle of a doc pair
        pr = g.merge(g, on="shingle", suffixes=("_a", "_b"))
        pr = pr[pr["doc_id_a"] < pr["doc_id_b"]]
        return pd.DataFrame(
            {"ia": pr["doc_id_a"], "ib": pr["doc_id_b"],
             "na": pr["n_a"], "nb": pr["n_b"]}
        )

    partials = keyed_map(
        ds.map_batches(shingles, batch_format="pyarrow"), ["shingle"], partition_pairs
    )
    agg = combine(
        partials,
        ["ia", "ib"],
        {"inter": ("ia", "count"), "na": ("na", "max"), "nb": ("nb", "max")},
        partitioned=True,
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        inter = b["inter"].to_numpy(np.int64)
        na = b["na"].to_numpy(np.int64)
        nb = b["nb"].to_numpy(np.int64)
        j = inter * 1.0 / (na + nb - inter)
        out = pd.DataFrame(
            {"ia": b["ia"], "ib": b["ib"], "jaccard": np.round(j, 6)}
        )
        return out[out["jaccard"] >= threshold]

    out = collect(agg, finish)
    return out.sort_values(["ia", "ib"]).reset_index(drop=True)


# ---------------------------------------------- benchmark decontamination

DECON_K = 8  # shared-n-gram order of the decontamination test
BENCH_MOD = 7  # doc_id % 7 == 0 → the held-out benchmark set


def is_bench(ids) -> np.ndarray:
    """Which ``doc_id``s are in the benchmark holdout."""
    return np.asarray(ids, np.int64) % BENCH_MOD == 0


def bench_ngram_hashes(ds) -> np.ndarray:
    """Distinct ``DECON_K``-gram hashes of the benchmark holdout docs
    of a ``(doc_id, text)`` Dataset, as one sorted uint64 array — the
    broadcast side (eval suites are the small side at any scale).
    Shingles travel as 64-bit hashes; hash equality stands in for
    string equality (collision odds ~2^-64 per pair, as q18)."""

    def bench(t: pa.Table) -> pa.Table:
        held = is_bench(t["doc_id"].to_numpy(zero_copy_only=False))
        texts = t["text"].filter(pa.array(held))
        _d, sh, _l = _distinct_shingles(texts, DECON_K, short_fallback=False)
        return pa.table({"h": pa.array(np.unique(sh), pa.uint64())})

    parts = [
        b["h"]
        for b in ds.map_batches(bench, batch_format="pyarrow").iter_batches(
            batch_size=None, batch_format="numpy"
        )
    ]
    return np.unique(np.concatenate(parts)) if parts else np.zeros(0, np.uint64)


def shared_ngrams(texts, bench: np.ndarray) -> np.ndarray:
    """Per doc of ``texts``: how many of its distinct ``DECON_K``-gram
    hashes are in the sorted ``bench`` array (0 = clean)."""
    didx, sh, _l = _distinct_shingles(texts, DECON_K, short_fallback=False)
    return np.bincount(didx[in_sorted(sh, bench)], minlength=len(texts))


# --------------------------------------------------------------- minhash LSH

NUM_PERM = 64  # MinHash permutations per signature
LSH_BANDS = 32  # LSH bands of NUM_PERM // LSH_BANDS = 2 rows each
SHINGLE_K = 3  # tokens per MinHash shingle
MINHASH_SEED = 7
_MERSENNE = (1 << 61) - 1
_rng = np.random.default_rng(MINHASH_SEED)
_PERM_A = _rng.integers(1, _MERSENNE, size=NUM_PERM, dtype=np.int64).astype(np.uint64)
_PERM_B = _rng.integers(0, _MERSENNE, size=NUM_PERM, dtype=np.int64).astype(np.uint64)


def minhash_signatures(texts) -> np.ndarray:
    """(len(texts), ``NUM_PERM``) uint64 MinHash signatures of ``texts``
    (a list, pandas Series or Arrow column), vectorized across the
    batch: one flat distinct-shingle array (``SHINGLE_K``-token
    shingles; a shorter doc is one all-tokens shingle) +
    ``np.minimum.reduceat`` over doc segments, perm-chunked to bound
    the (n_shingles × perms) temp.  A doc without tokens (empty or
    null text) keeps the all-``_MERSENNE`` row."""
    didx, sh, counts = _distinct_shingles(texts, SHINGLE_K)
    sig = np.full((len(counts), NUM_PERM), np.uint64(_MERSENNE))
    if len(sh):
        present, starts = np.unique(didx, return_index=True)
        step = max(1, (8 << 20) // len(sh))  # ≤8M u64 temp per slab
        with np.errstate(over="ignore"):
            for p0 in range(0, NUM_PERM, step):
                p1 = min(NUM_PERM, p0 + step)
                m = (sh[:, None] * _PERM_A[p0:p1] + _PERM_B[p0:p1]) % np.uint64(_MERSENNE)
                sig[present, p0:p1] = np.minimum.reduceat(m, starts, axis=0)
    return sig


def _band_rows(t: pa.Table) -> pa.Table:
    """One ``(band_id, band_hash, doc_id)`` row per LSH band of each
    doc: ``fnv1a64_fixed`` over the bytes of the band's signature
    values, one vectorized pass for the batch."""
    sig = minhash_signatures(t["text"])
    n = len(sig)
    bands = sig.reshape(n * LSH_BANDS, NUM_PERM // LSH_BANDS).view(np.uint8)
    ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table(
        {
            "band_id": np.tile(np.arange(LSH_BANDS, dtype=np.int64), n),
            "band_hash": fnv1a64_fixed(bands),
            "doc_id": np.repeat(ids, LSH_BANDS),
        }
    )


def _shared_bucket_docs(g: pd.DataFrame) -> pd.DataFrame:
    """The doc ids of every ``(band_id, band_hash)`` bucket of ``g``
    (which holds whole buckets) that holds two distinct ids."""
    ids = g.groupby(["band_id", "band_hash"], sort=False)["doc_id"]
    shared = ids.transform("min") != ids.transform("max")
    return g.loc[shared, ["doc_id"]].drop_duplicates()


def lsh_candidate_docs(ds) -> np.ndarray:
    """MinHash LSH candidate docs of a ``(doc_id, text)`` Dataset, as a
    sorted unique int64 array: every doc that shares a band bucket with
    a different doc id.  These are exactly the endpoints of the
    candidate pairs a < b of every bucket, found without building a
    pair, so a bucket of any size costs time linear in its docs.

    One ``map_batches`` signs and bands each batch, one ``keyed_map`` by
    bucket keeps the docs of shared buckets, and the driver collects
    them.  With r = 2 rows per band a J = 0.5 pair escapes all 32 bands
    with probability (1−J²)^32 ≈ 1e-4, so candidate recall at q16's
    verify threshold is effectively total; q16's exact verify removes
    the false positives r = 2 lets through."""
    rows = ds.map_batches(_band_rows, batch_format="pyarrow")
    docs = collect(keyed_map(rows, ["band_id", "band_hash"], _shared_bucket_docs))
    return np.unique(docs["doc_id"].to_numpy(np.int64))


# ------------------------------------------------------------------ simhash


def simhash_batch(
    batch: pd.DataFrame, text_col: str = "text", id_col: str = "doc_id"
) -> pd.DataFrame:
    """64-bit SimHash over token hashes (weight = term frequency).

    Fully vectorized over one ``text.tokenize`` stream: token hashes
    are the 61-bit-masked FNV values of ``hash_word``, and the per-doc
    bit-vote sums come from ``np.add.reduceat`` over the flat
    token-bit matrix — no per-token Python hashing.  A doc without
    tokens (empty or null text) hashes to 0."""
    tok = tx.tokenize(batch[text_col])
    counts = tok.counts
    out_hash = np.zeros(len(counts), np.uint64)
    if len(tok.idx):
        hs = tok.hashes() & np.uint64(tx._FP_MASK)
        # bit matrix via unpackbits (little-endian bytes → bit j of h)
        bits = np.unpackbits(
            hs.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
        )
        nz = counts > 0
        ones = np.add.reduceat(bits.astype(np.int32), tok.starts[nz], axis=0)
        # majority vote: Σ(2b−1) > 0  ⟺  2·ones > n_tokens
        pos = (2 * ones) > counts[nz, None]
        out_hash[nz] = np.packbits(pos, axis=1, bitorder="little").view(
            np.uint64
        ).ravel()
    return pd.DataFrame(
        {id_col: batch[id_col].to_numpy(), "simhash": out_hash.view(np.int64)}
    )


# ---------------------------------------------------------------- phash dedup


def phash_dedup(
    ds,
    phash_col: str = "phash",
    id_col: str = "image_id",
    keep_cols: list[str] | None = None,
):
    """Exact perceptual-hash dedup: keep min(id) per phash + count
    suppressed (SURVEY.md §2.7 payload-level analog of J1).

    Combiner-first: per-batch partial (one min-id row + count per
    phash per batch) → hash-partition by phash → per-partition
    vectorized final (SURVEY §7.4 partition key).  ``keep_cols``
    projects the shuffle payload like ``exact_dedup`` — image bytes
    must never ride the dedup shuffle (callers also pre-select)."""
    return _hash_dedup(ds, phash_col, id_col, keep_cols)


def phash_near_pairs(
    ds,
    phash_col: str = "phash",
    id_col: str = "image_id",
    max_hamming: int = 6,
):
    """Hamming-near perceptual-hash pairs (SURVEY §2.7 extension).

    Band-bucket candidate generation: a 64-bit phash splits into 4
    16-bit bands.  By pigeonhole, any pair with Hamming distance ≤ 3
    agrees exactly on at least one band (guaranteed recall); pairs
    with 4 ≤ d ≤ max_hamming are found when their differing bits don't
    touch all four bands (high but not guaranteed recall — the
    standard LSH trade; more/narrower bands raise recall at higher
    candidate cost).  Explode to (band, key, id) rows → bucket join →
    verify exact Hamming ≤ max_hamming.

    ``ds`` must hold one row per ``id_col`` (every caller does: q33 and
    q72 read ``gen_images``' distinct image ids, the image funnel the
    ``phash_dedup`` survivors).  A pair then meets in every band its
    keys agree on, and is kept only in the lowest of them, so each
    pair comes out once with no pair-keyed shuffle.
    """
    from ..sources.codec import hamming64

    def bands(b: pd.DataFrame) -> pd.DataFrame:
        ph = b[phash_col].to_numpy(np.int64).astype(np.uint64)
        out = []
        for band in range(4):
            key = ((ph >> np.uint64(16 * band)) & np.uint64(0xFFFF)).astype(
                np.int64
            )
            out.append(
                pd.DataFrame(
                    {
                        "band": band,
                        "key": key,
                        id_col: b[id_col].to_numpy(),
                        phash_col: b[phash_col].to_numpy(np.int64),
                    }
                )
            )
        return pd.concat(out, ignore_index=True)

    shifts = np.uint64(16) * np.arange(4, dtype=np.uint64)

    def partition_pairs(g: pd.DataFrame) -> pd.DataFrame:
        # every (band, key) bucket is whole within this partition:
        # vectorized self-merge, each pair kept in the lowest band whose
        # 16-bit keys agree, then exact Hamming verify
        pr = g.merge(g, on=["band", "key"], suffixes=("_a", "_b"))
        pr = pr[pr[f"{id_col}_a"] < pr[f"{id_col}_b"]]
        ha = pr[f"{phash_col}_a"].to_numpy(np.int64)
        hb = pr[f"{phash_col}_b"].to_numpy(np.int64)
        lanes = ((ha ^ hb).view(np.uint64)[:, None] >> shifts) & np.uint64(0xFFFF)
        d = hamming64(ha, hb).astype(np.int64)
        keep = ((lanes == 0).argmax(axis=1) == pr["band"].to_numpy()) & (
            d <= max_hamming
        )
        return pd.DataFrame(
            {
                "id_a": pr[f"{id_col}_a"].to_numpy()[keep],
                "id_b": pr[f"{id_col}_b"].to_numpy()[keep],
                "hamming": d[keep],
            }
        )

    pairs = keyed_map(
        ds.map_batches(bands, batch_format="pandas"), ["band", "key"], partition_pairs
    )
    return collect(pairs).sort_values(["id_a", "id_b"]).reset_index(drop=True)


# ----------------------------------------------------- embedding near-dup


def embedding_neardup_pairs(
    ds,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    threshold: float = 0.95,
    n_planes: int = 12,
    seed: int = 5,
):
    """Embedding-cosine near-dup via random-hyperplane LSH buckets +
    in-bucket exact verify.  Pairs may be missed across buckets (LSH
    recall < 1); the exact variant is a full O(n²) matmul — see
    stages/similarity.py for the brute-force path."""

    def bucketize(batch: pd.DataFrame) -> pd.DataFrame:
        emb = matrix(batch[emb_col])
        rng = np.random.default_rng(seed)
        planes = rng.standard_normal((emb.shape[1], n_planes))
        signs = (emb @ planes) > 0
        bucket = np.zeros(len(batch), np.int64)
        for k in range(n_planes):
            bucket = bucket * 2 + signs[:, k]
        return pd.DataFrame(
            {id_col: batch[id_col], "bucket": bucket, emb_col: batch[emb_col]}
        )

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized in-bucket verify: upper-triangle similarity mask,
        # no per-pair Python loop (buckets hold k rows → one k×k matmul)
        emb = matrix(g[emb_col]).astype(np.float64)
        norm = np.linalg.norm(emb, axis=1, keepdims=True)
        norm[norm == 0] = 1
        sims = (emb / norm) @ (emb / norm).T
        ids = g[id_col].to_numpy()
        iu, ju = np.triu_indices(len(g), k=1)
        hit = sims[iu, ju] >= threshold
        iu, ju = iu[hit], ju[hit]
        lo = np.minimum(ids[iu], ids[ju])
        hi = np.maximum(ids[iu], ids[ju])
        return pd.DataFrame(
            {
                "id_a": lo,
                "id_b": hi,
                "cos_sim": np.round(sims[iu, ju], 6),
            }
        )

    def verify_part(g: pd.DataFrame) -> pd.DataFrame:
        # one bucket-complete partition: one k×k matmul per bucket
        ids = g[id_col].iloc[:0]
        empty = pd.DataFrame({"id_a": ids, "id_b": ids, "cos_sim": np.zeros(0)})
        parts = [verify(b) for _, b in g.groupby("bucket", sort=False)]
        return pd.concat(parts or [empty], ignore_index=True)

    return keyed_map(
        ds.map_batches(bucketize, batch_format="pandas"), ["bucket"], verify_part
    )
