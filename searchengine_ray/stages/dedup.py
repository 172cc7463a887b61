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
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.hashing import fnv1a64_batch
from .keyed import collect, hash_join, keyed_map, materialize
from .similarity import matrix
from . import text as tx
from .text import in_sorted

logger = logging.getLogger(__name__)

# Default per-(band_id, band_hash) bucket membership cap for the LSH
# self-merge (the ``cap=`` argument of the LSH entry points).  A
# bucket of size m emits m(m−1)/2 pairs; at 100 TB a boilerplate
# template repeated 100k times would otherwise produce 5e9 pairs from
# ONE bucket.  Over the cap we emit m−1 star pairs against the
# bucket's min-id representative instead — connected components
# recovers the same clusters transitively.
_LSH_BUCKET_CAP = 256

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


# --------------------------------------------------------------- minhash LSH

_MERSENNE = (1 << 61) - 1


def _minhash_params(num_perm: int, seed: int = 7):
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.int64).astype(np.uint64)
    b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.int64).astype(np.uint64)
    return a, b


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


def minhash_signatures(
    batch: pd.DataFrame,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 64,
    shingle_k: int = 3,
    seed: int = 7,
) -> pd.DataFrame:
    """Per-doc MinHash signatures, vectorized across the whole batch:
    one flat distinct-shingle array + ``np.minimum.reduceat`` over doc
    segments (perm-chunked to bound the (n_shingles × perms) temp).
    Signatures travel as packed fixed-width bytes (``sigb``) — the
    layout every downstream stage (banding, verify joins) consumes
    directly; acero joins can't carry list columns anyway.

    Accepts a pandas OR pyarrow batch (the pipeline feeds pyarrow so
    the wide text read never converts to pandas); returns pandas."""
    if isinstance(batch, pa.Table):
        ids = batch[id_col].to_numpy(zero_copy_only=False)
    else:
        ids = batch[id_col].to_numpy()
    didx, sh, _lens = _distinct_shingles(batch[text_col], shingle_k)
    n = len(batch)
    a, b = _minhash_params(num_perm, seed)
    sig = np.full((n, num_perm), np.uint64(_MERSENNE))
    if len(sh):
        present, starts = np.unique(didx, return_index=True)
        step = max(1, (8 << 20) // max(len(sh), 1))  # ≤8M u64 temp per slab
        with np.errstate(over="ignore"):
            for p0 in range(0, num_perm, step):
                p1 = min(num_perm, p0 + step)
                m = (sh[:, None] * a[None, p0:p1] + b[None, p0:p1]) % np.uint64(
                    _MERSENNE
                )
                sig[present, p0:p1] = np.minimum.reduceat(m, starts, axis=0)
    return pd.DataFrame(
        {
            id_col: ids,
            "sigb": [r.tobytes() for r in sig],
        }
    )


def _sig_matrix(sigb: pd.Series) -> np.ndarray:
    """(n, num_perm) uint64 from the packed signature column."""
    if len(sigb) == 0:
        return np.zeros((0, 0), np.uint64)
    return np.frombuffer(b"".join(sigb), np.uint64).reshape(len(sigb), -1)


def lsh_bands(
    sig_df: pd.DataFrame, id_col: str = "doc_id", bands: int = 16
) -> pd.DataFrame:
    """Explode packed signatures to (band_id, band_hash, id) rows for
    the bucket groupby — one vectorized ``fnv1a64_fixed`` over the
    (n·bands, r·8) bytes view of the signature matrix (the SimHash
    pattern; no per-doc / per-band Python hashing)."""
    from ..functions.hashing import fnv1a64_fixed

    mat = _sig_matrix(sig_df["sigb"])
    n, num_perm = mat.shape if mat.size else (0, bands)
    r = max(1, num_perm // bands)
    if n == 0:
        return pd.DataFrame(
            {
                "band_id": pd.Series([], dtype="int64"),
                "band_hash": pd.Series([], dtype="uint64"),
                id_col: pd.Series([], dtype="int64"),
            }
        )
    chunks = mat[:, : bands * r].reshape(n * bands, r)
    bh = fnv1a64_fixed(chunks.view(np.uint8).reshape(n * bands, r * 8))
    return pd.DataFrame(
        {
            "band_id": np.tile(np.arange(bands, dtype=np.int64), n),
            "band_hash": bh,
            id_col: np.repeat(sig_df[id_col].to_numpy(), bands),
        }
    )


def _lsh_candidate_stages(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 3,
    seed: int = 7,
    cap: int | None = _LSH_BUCKET_CAP,
):
    """Shared LSH front half: shingle → minhash → band buckets →
    per-bucket self-merge.  Returns (cand, sig_pack) datasets —
    ``cand`` is the candidate pair list (id_a < id_b; may repeat
    across band partitions), ``sig_pack`` the packed signatures.
    Buckets over ``cap`` members emit star pairs (``None``: no cap)."""

    def sign(b: pa.Table) -> pa.Table:
        sig = minhash_signatures(b, text_col, id_col, num_perm, shingle_k, seed)
        return pa.table({id_col: b[id_col], "sigb": pa.array(sig["sigb"], pa.binary())})

    sig_pack = ds.map_batches(sign, batch_format="pyarrow")

    def partition_pairs(g: pd.DataFrame) -> pd.DataFrame:
        # all rows of any (band_id, band_hash) bucket land in this
        # partition; one vectorized self-merge covers every bucket
        # here.  Buckets larger than ``cap`` (mass-duplicated
        # content: boilerplate pages, a template repeated 10k times)
        # would make the self-merge quadratic — for those, emit only
        # star pairs against the bucket's min-id representative.
        # CONTRACT CHANGE over the cap: the candidate DOC set is
        # unchanged (every member appears in some star pair), but the
        # candidate PAIR list is not — (x, y) with x,y both non-rep is
        # no longer emitted.  Consumers that re-verify among candidate
        # DOCS (q16's exact pass over the doc-id set) are unaffected;
        # a consumer that verifies candidate PAIRS directly
        # (minhash_lsh_pairs) can miss an (x, y) pair whose members
        # both sit below the verify threshold against the rep — see
        # that function's docstring.
        sizes = g.groupby(["band_id", "band_hash"])[id_col].transform(
            "size"
        )
        capped = sizes > cap if cap is not None else np.zeros(len(g), bool)
        frames = []
        small = g[~capped]
        if len(small):
            pr = small.merge(
                small, on=["band_id", "band_hash"], suffixes=("_a", "_b")
            )
            pr = pr[pr[f"{id_col}_a"] < pr[f"{id_col}_b"]]
            frames.append(pr[[f"{id_col}_a", f"{id_col}_b"]])
        big = g[capped]
        if len(big):
            n_big = big.groupby(["band_id", "band_hash"]).ngroups
            logger.warning(
                "LSH: %d bucket(s) over cap %d (max size %d) — "
                "emitting star pairs vs min-id representative",
                n_big,
                cap,
                int(sizes[capped].max()),
            )
            rep = big.groupby(["band_id", "band_hash"])[id_col].transform(
                "min"
            )
            ids = big[id_col].to_numpy(np.int64)
            reps = rep.to_numpy(np.int64)
            m = ids != reps  # rep is the bucket min → rep < id holds
            frames.append(
                pd.DataFrame(
                    {f"{id_col}_a": reps[m], f"{id_col}_b": ids[m]}
                )
            )
        if not frames:
            return pd.DataFrame(
                {
                    "id_a": pd.Series([], dtype="int64"),
                    "id_b": pd.Series([], dtype="int64"),
                }
            )
        out = pd.concat(frames, ignore_index=True).drop_duplicates()
        out.columns = ["id_a", "id_b"]
        return out

    # candidate pairs may repeat across band partitions (a pair can
    # match in several bands); each consumer dedups them
    rows = sig_pack.map_batches(lambda b: lsh_bands(b, id_col, bands), batch_format="pandas")
    cand = keyed_map(rows, ["band_id", "band_hash"], partition_pairs)
    return cand, sig_pack


def minhash_lsh_candidates(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 64,
    bands: int = 32,
    shingle_k: int = 3,
    seed: int = 7,
    cap: int | None = _LSH_BUCKET_CAP,
) -> pd.DataFrame:
    """Deduplicated LSH candidate pairs as a (small) pandas frame —
    the result-sized side an exact-verify pass broadcasts against.
    Default bands=32 (r=2): a J=0.5 pair escapes all bands with
    probability (1−J²)^32 ≈ 1e-4, so candidate recall at the q16
    verify threshold is effectively total; the exact-Jaccard verify
    removes the extra false positives r=2 lets through.  ``cap``
    bounds a bucket's pairs (see ``_LSH_BUCKET_CAP``); ``None`` emits
    every pair of every bucket."""
    cand, _sig = _lsh_candidate_stages(
        ds, text_col, id_col, num_perm, bands, shingle_k, seed, cap
    )
    return (
        collect(cand)
        .drop_duplicates(["id_a", "id_b"])
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )


def minhash_lsh_pairs(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 3,
    threshold: float = 0.7,
    seed: int = 7,
    cap: int | None = _LSH_BUCKET_CAP,
):
    """shingle → minhash → band buckets → candidate pairs → verify
    estimated Jaccard ≥ threshold.  Returns dataset of
    (id_a, id_b, jaccard_est) with id_a < id_b.

    Cap caveat: buckets over ``cap`` members (default
    ``_LSH_BUCKET_CAP``) emit only star pairs vs their min-id member,
    so inside a mass-duplicated family this PAIR-verifying path can
    miss an (x, y) pair whose members both estimate below
    ``threshold`` against the representative.  Pass ``cap=None`` to
    verify every pair of every bucket (quadratic in the bucket size),
    or for cluster-faithful dedup over such content use the q16 shape:
    ``minhash_lsh_candidates`` (doc set is cap-invariant) + exact
    verify among candidate docs + connected components."""
    cand, sig_pack = _lsh_candidate_stages(
        ds, text_col, id_col, num_perm, bands, shingle_k, seed, cap
    )
    sig_pack = materialize(sig_pack)  # both joins below read it

    # distributed verify: one row per candidate pair (a pair repeats
    # across the bands it matched in), then two hash joins attach the
    # signature of id_a, then of id_b
    pairs = keyed_map(cand, ["id_a", "id_b"], lambda g: g.drop_duplicates())
    with_a = hash_join(pairs, sig_pack, "id_a", id_col).map_batches(
        lambda t: t.drop_columns([id_col]).rename_columns(["id_a", "id_b", "sig_a"]),
        batch_format="pyarrow",
    )
    with_both = hash_join(with_a, sig_pack, "id_b", id_col)

    def verify(b: pd.DataFrame) -> pd.DataFrame:
        est = (_sig_matrix(b["sig_a"]) == _sig_matrix(b["sigb"])).mean(axis=1)
        out = pd.DataFrame(
            {"id_a": b["id_a"], "id_b": b["id_b"], "jaccard_est": est}
        )
        return out[out["jaccard_est"] >= threshold]

    out = collect(with_both, verify)
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


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

    def partition_pairs(g: pd.DataFrame) -> pd.DataFrame:
        # every (band, key) bucket is whole within this partition:
        # vectorized self-merge + exact Hamming verify, per partition
        pr = g.merge(g, on=["band", "key"], suffixes=("_a", "_b"))
        pr = pr[pr[f"{id_col}_a"] < pr[f"{id_col}_b"]]
        pr = pr.drop_duplicates([f"{id_col}_a", f"{id_col}_b"])
        d = hamming64(
            pr[f"{phash_col}_a"].to_numpy(np.int64),
            pr[f"{phash_col}_b"].to_numpy(np.int64),
        )
        out = pd.DataFrame(
            {
                "id_a": pr[f"{id_col}_a"].to_numpy(),
                "id_b": pr[f"{id_col}_b"].to_numpy(),
                "hamming": d.astype(np.int64),
            }
        )
        return out[out["hamming"] <= max_hamming]

    # partition merge emits each surviving pair once per matching
    # band-bucket partition; a second hash-partition keyed on the PAIR
    # dedups with one vectorized drop_duplicates per partition (Ray's
    # string-keyed Aggregate operator is ~10x slower here)
    def pair_dedup(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["id_a", "id_b"])

    pairs = keyed_map(
        ds.map_batches(bands, batch_format="pandas"), ["band", "key"], partition_pairs
    )
    out = collect(keyed_map(pairs, ["id_a", "id_b"], pair_dedup))
    out["hamming"] = out["hamming"].astype("int64")
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


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
