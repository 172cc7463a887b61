"""Deduplication operators (exact, MinHash+LSH, SimHash, n-gram
Jaccard, phash, embedding-cosine) — Ray-Data-first.

The reference's only dedup is exact URL identity (J1,
``SearchEngine.h:814-835``); these are the payload/content-level
operators a 100 TB training-data pipeline needs (build charter), each
expressed as map_batches (vectorized sketching) + a keyed shuffle
(groupby on hash/band/bucket) + per-group resolution — the partial/
combiner-first pattern, never a driver-side loop over rows.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.hashing import fnv1a64_batch
from .keyed import hash_join, keyed_map, ncpus, with_hash_part
from .text import TOKEN_RE

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
    npart = ncpus()
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
        h = keep[hash_col].to_numpy().astype(np.uint64)
        keep["part"] = (h % np.uint64(npart)).astype(np.int64)
        return keep

    def finalize(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_col)
        cnt = g.groupby(hash_col)["partial_count"].sum()
        keep = g.drop_duplicates(hash_col).copy()
        keep["dup_count"] = keep[hash_col].map(cnt).astype("int64")
        return keep.drop(columns=["partial_count", "part"])

    return keyed_map(
        ds.map_batches(partial, batch_format="pandas"), "part", npart, finalize
    )


# --------------------------------------------------------------- minhash LSH

_MERSENNE = (1 << 61) - 1
_SHINGLE_BASE = np.uint64(1000003)


def _minhash_params(num_perm: int, seed: int = 7):
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.int64).astype(np.uint64)
    b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.int64).astype(np.uint64)
    return a, b


def _distinct_shingles(
    texts, shingle_k: int, short_fallback: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """→ (doc_idx, shingle_hash, n_tokens_per_doc) — each doc's DISTINCT
    k-token shingle hashes, fully vectorized past tokenization.

    Token hashes come from one ``fnv1a64_batch`` over the batch's flat
    token stream; a shingle hash is the polynomial combine of its k
    token hashes, computed with k−1 shifted-slice ops over the flat
    array (windows crossing a doc boundary are masked out).  With
    ``short_fallback`` docs shorter than k contribute one all-tokens
    shingle (matching ``text.shingle_set``); without it they emit
    nothing (SQL ``range(len-k+1)`` semantics, q18's oracle)."""
    tok_lists = [TOKEN_RE.findall(str(t).lower()) for t in texts]
    lens = np.array([len(t) for t in tok_lists], np.int64)
    flat = [w for ts in tok_lists for w in ts]
    if not flat:
        return np.zeros(0, np.int64), np.zeros(0, np.uint64), lens
    H = fnv1a64_batch(pa.array(flat, type=pa.string()))
    off = np.concatenate([[0], np.cumsum(lens)])
    nw = len(H) - shingle_k + 1
    parts_d, parts_s = [], []
    if nw > 0:
        with np.errstate(over="ignore"):
            acc = H[:nw].copy()
            for j in range(1, shingle_k):
                acc = acc * _SHINGLE_BASE + H[j : j + nw]
        # a window starting at i is valid iff it fits inside i's doc
        doc_of = np.searchsorted(off, np.arange(nw), side="right") - 1
        ok = np.arange(nw) + shingle_k <= off[doc_of + 1]
        parts_d.append(doc_of[ok])
        parts_s.append(acc[ok])
    short = (
        np.nonzero((lens > 0) & (lens < shingle_k))[0]
        if short_fallback
        else np.zeros(0, np.int64)
    )
    for d in short:  # rare: docs shorter than one shingle
        hs = H[off[d] : off[d + 1]]
        with np.errstate(over="ignore"):
            acc = hs[0]
            for v in hs[1:]:
                acc = acc * _SHINGLE_BASE + v
        parts_d.append(np.array([d], np.int64))
        parts_s.append(np.array([acc], np.uint64))
    didx = np.concatenate(parts_d) if parts_d else np.zeros(0, np.int64)
    sh = np.concatenate(parts_s) if parts_s else np.zeros(0, np.uint64)
    # per-doc distinct: lexsort by (doc, shingle), keep group firsts
    order = np.lexsort((sh, didx))
    didx, sh = didx[order], sh[order]
    keep = np.r_[True, (didx[1:] != didx[:-1]) | (sh[1:] != sh[:-1])]
    return didx[keep], sh[keep], lens


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
        texts = batch[text_col].to_pylist()
    else:
        ids = batch[id_col].to_numpy()
        texts = batch[text_col]
    didx, sh, _lens = _distinct_shingles(texts, shingle_k)
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
    npart = ncpus()

    sig_pack = ds.map_batches(
        lambda b: pa.Table.from_pandas(
            minhash_signatures(b, text_col, id_col, num_perm, shingle_k, seed),
            preserve_index=False,
        ),
        batch_format="pyarrow",
    ).materialize()

    def bands_part(b: pd.DataFrame) -> pd.DataFrame:
        out = lsh_bands(b, id_col, bands)
        part = (
            out["band_hash"].to_numpy(np.uint64)
            + (out["band_id"].to_numpy(np.uint64) << np.uint64(56))
        ) % np.uint64(npart)
        out["part"] = part.astype(np.int64)
        return out

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
    # match in several bands); no pre-dedup shuffle is needed — after
    # tag_pairs_a every copy of (a, b) lands in partition a % npart, so
    # attach("a")'s per-partition drop_duplicates dedups exactly
    cand = keyed_map(
        sig_pack.map_batches(bands_part, batch_format="pandas"),
        "part",
        npart,
        partition_pairs,
    )
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
    out = cand.to_pandas()
    if out.empty:
        return pd.DataFrame(
            {
                "id_a": pd.Series([], dtype="int64"),
                "id_b": pd.Series([], dtype="int64"),
            }
        )
    return (
        out.drop_duplicates(["id_a", "id_b"])
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
    npart = ncpus()
    empty = pd.DataFrame(
        {
            "id_a": pd.Series([], dtype="int64"),
            "id_b": pd.Series([], dtype="int64"),
            "jaccard_est": pd.Series([], dtype="float64"),
        }
    )
    cand, sig_pack = _lsh_candidate_stages(
        ds, text_col, id_col, num_perm, bands, shingle_k, seed, cap
    )

    # distributed verify: one row per candidate pair (a pair repeats
    # across the bands it matched in), then two hash joins attach the
    # signature of id_a, then of id_b; every side is result-sized or
    # already materialized, so hash_join reads each schema for free
    pairs = keyed_map(
        with_hash_part(cand, ["id_a", "id_b"], npart),
        "part",
        npart,
        lambda g: g[["id_a", "id_b"]].drop_duplicates(),
    ).materialize()
    with_a = (
        hash_join(pairs, sig_pack, "id_a", id_col, npart=npart)
        .map_batches(
            lambda t: t.drop_columns([id_col]).rename_columns(["id_a", "id_b", "sig_a"]),
            batch_format="pyarrow",
        )
        .materialize()
    )
    with_both = hash_join(with_a, sig_pack, "id_b", id_col, npart=npart)

    def verify(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame(
                {
                    "id_a": pd.Series([], dtype="int64"),
                    "id_b": pd.Series([], dtype="int64"),
                    "jaccard_est": pd.Series([], dtype="float64"),
                }
            )
        a = _sig_matrix(b["sig_a"])
        bb = _sig_matrix(b["sigb"])
        est = (a == bb).mean(axis=1)
        out = pd.DataFrame(
            {"id_a": b["id_a"], "id_b": b["id_b"], "jaccard_est": est}
        )
        return out[out["jaccard_est"] >= threshold]

    out = with_both.map_batches(verify, batch_format="pandas").to_pandas()
    if out.empty:
        return empty
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


# ------------------------------------------------------------------ simhash


def simhash_batch(
    batch: pd.DataFrame, text_col: str = "text", id_col: str = "doc_id"
) -> pd.DataFrame:
    """64-bit SimHash over token hashes (weight = term frequency).

    Fully vectorized: every token in the batch is hashed in one
    ``fnv1a64_batch`` call (same 61-bit-masked values as ``hash_word``)
    and the per-doc bit-vote sums come from ``np.add.reduceat`` over
    the flat token-bit matrix — no per-token Python hashing."""
    from .text import _FP_MASK

    tok_lists = [TOKEN_RE.findall(str(t).lower()) for t in batch[text_col]]
    counts = np.array([len(t) for t in tok_lists], np.int64)
    n = len(batch)
    out_hash = np.zeros(n, np.uint64)
    flat = [w for ts in tok_lists for w in ts]
    if flat:
        hs = fnv1a64_batch(pa.array(flat, type=pa.string())) & np.uint64(_FP_MASK)
        # bit matrix via unpackbits (little-endian bytes → bit j of h)
        bits = np.unpackbits(
            hs.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
        )
        nz = counts > 0
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])[nz]
        ones = np.add.reduceat(bits.astype(np.int32), starts, axis=0)
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

    npart = ncpus()
    empty = pd.DataFrame(
        {
            "id_a": pd.Series([], dtype="int64"),
            "id_b": pd.Series([], dtype="int64"),
            "hamming": pd.Series([], dtype="int64"),
        }
    )

    def bands_part(b: pd.DataFrame) -> pd.DataFrame:
        out = bands(b)
        part = (
            out["key"].to_numpy(np.int64) + (out["band"].to_numpy(np.int64) << 16)
        ) % npart
        out["part"] = part
        return out

    def partition_pairs(g: pd.DataFrame) -> pd.DataFrame:
        # every (band, key) bucket is whole within this partition:
        # vectorized self-merge + exact Hamming verify, per partition
        pr = g.merge(g, on=["band", "key"], suffixes=("_a", "_b"))
        pr = pr[pr[f"{id_col}_a"] < pr[f"{id_col}_b"]]
        if len(pr) == 0:
            return empty
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
        return g.drop_duplicates(["id_a", "id_b"]).drop(columns=["part"])

    pairs = keyed_map(
        ds.map_batches(bands_part, batch_format="pandas"),
        "part",
        npart,
        partition_pairs,
    )
    out = keyed_map(
        with_hash_part(pairs, ["id_a", "id_b"], npart), "part", npart, pair_dedup
    ).to_pandas()
    if out.empty:
        return empty
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
    npart = ncpus()

    def bucketize(batch: pd.DataFrame) -> pd.DataFrame:
        emb = np.stack(batch[emb_col].to_numpy())
        rng = np.random.default_rng(seed)
        planes = rng.standard_normal((emb.shape[1], n_planes))
        signs = (emb @ planes) > 0
        bucket = np.zeros(len(batch), np.int64)
        for k in range(n_planes):
            bucket = bucket * 2 + signs[:, k]
        return pd.DataFrame(
            {id_col: batch[id_col], "bucket": bucket, emb_col: batch[emb_col],
             "part": bucket % npart}
        )

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized in-bucket verify: upper-triangle similarity mask,
        # no per-pair Python loop (buckets hold k rows → one k×k matmul)
        emb = np.stack(g[emb_col].to_numpy()).astype(np.float64)
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
        ds.map_batches(bucketize, batch_format="pandas"), "part", npart, verify_part
    )
