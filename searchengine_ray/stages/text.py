"""Text-analysis batch kernels for the documents table.

The reference's word pipeline (``getWords``, ``SearchEngine.cpp:282-490``)
tokenizes pages, weights words, and filters stopwords
(``SearchEngine.h:560-611``).  These kernels re-express that per-batch
plus the large-scale training-data operators the engine adds:
language-ID heuristic, quality scoring, token counting, and
rolling-hash document fingerprinting.

Everything past tokenization is vectorized over the batch's FLAT token
stream (the ``dedup._distinct_shingles`` pattern): one
``fnv1a64_batch`` hash of every token in the batch, membership tests
as ``searchsorted`` against pre-hashed stopword/profile sets, per-doc
sums as ``np.bincount`` over the doc-index array — no per-token Python
work in any hot kernel.

Tokenization contract (shared with the DuckDB oracle SQL):
``regexp_extract_all(lower(text), '[a-z0-9]+')`` — keep the two sides
byte-identical.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.hashing import fnv1a64_batch

TOKEN_RE = re.compile(r"[a-z0-9]+")

# reference stopword set (SearchEngine.h:560-570) — www/com + articles
STOPWORDS = frozenset({"www", "com", "a", "of", "the", "for"})

# tiny per-language stopword profiles for the n-gram/stopword heuristic
LANG_PROFILES = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "it"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein"},
    "fr": {"le", "la", "les", "et", "est", "un", "une", "des"},
    "es": {"el", "la", "los", "las", "y", "es", "un", "una"},
    "zh": {"de", "shi", "le", "wo", "ni", "ta"},
}

LANGS = sorted(LANG_PROFILES)


def _hashset(words) -> np.ndarray:
    """Sorted uint64 FNV hashes of a small word set (the broadcast/
    lookup side of every membership test below)."""
    return np.unique(fnv1a64_batch(pa.array(sorted(words), type=pa.string())))


# pre-hashed once per process at import — never per batch
_STOP_H = _hashset(STOPWORDS)
_LANG_H = {lang: _hashset(p) for lang, p in LANG_PROFILES.items()}


def _in_sorted(h: np.ndarray, sset: np.ndarray) -> np.ndarray:
    """Vectorized membership of uint64 hashes in a sorted uint64 set."""
    if len(sset) == 0 or len(h) == 0:
        return np.zeros(len(h), bool)
    pos = np.searchsorted(sset, h)
    return (pos < len(sset)) & (sset[np.minimum(pos, len(sset) - 1)] == h)


def tokenize_series(text: pd.Series) -> pd.Series:
    return text.str.lower().str.findall(TOKEN_RE)


def _token_dict(texts) -> tuple[np.ndarray, np.ndarray, pa.Array | None]:
    """Tokenize each doc ONCE and dictionary-encode the batch's flat
    token stream (C++): → (per-doc token counts, flat dictionary
    indices, dictionary of DISTINCT tokens).

    Token streams are Zipfian, so every downstream per-token kernel
    (hashing, length, set membership) runs over the small dictionary
    and gathers by index — never over the raw stream."""
    tok_lists = [TOKEN_RE.findall(str(t).lower()) for t in texts]
    counts = np.array([len(t) for t in tok_lists], np.int64)
    flat = [w for ts in tok_lists for w in ts]
    if not flat:
        return counts, np.zeros(0, np.int64), None
    try:
        denc = pa.array(flat, type=pa.string()).dictionary_encode()
    except pa.lib.ArrowCapacityError:
        # >2 GiB of token text in one call (a whole doc-keyed
        # partition rather than a block-sized batch): 32-bit string
        # offsets overflow — retry with 64-bit offsets.  Partition
        # sizing (npart scales with the cluster) is the primary
        # guard; this keeps the kernel correct past it.
        denc = pa.array(flat, type=pa.large_string()).dictionary_encode()
    return counts, denc.indices.to_numpy().astype(np.int64), denc.dictionary


def _dict_lens(dic: pa.Array) -> np.ndarray:
    import pyarrow.compute as pc

    # tokens are [a-z0-9]+ → bytes == chars
    return pc.binary_length(dic).to_numpy().astype(np.int64)


def flat_token_hashes(texts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tokenize each doc ONCE → (per-doc token counts, flat per-token
    byte lengths, flat per-token FNV-1a/64 hashes)."""
    counts, idx, dic = _token_dict(texts)
    if dic is None:
        return counts, np.zeros(0, np.int64), np.zeros(0, np.uint64)
    return counts, _dict_lens(dic)[idx], fnv1a64_batch(dic)[idx]


def text_profile(
    texts,
    with_distinct: bool = True,
    with_lang: bool = True,
) -> dict[str, np.ndarray]:
    """One tokenize+hash pass → every per-doc stat the clean gates and
    analysis kernels need: ``n_tokens``, ``n_distinct``, ``stop_cnt``,
    ``tok_chars``, ``lang_pred``, ``lang_score``.

    Shared by token_stats / quality_score / langid and the q37 /
    curation-funnel / corpus-ETL clean gates so the flagship pipeline
    tokenizes each document exactly once per pass.  All membership
    tests run on the token DICTIONARY (distinct tokens) and gather by
    index; per-doc sums are ``np.bincount`` over the doc-index array."""
    counts, idx, dic = _token_dict(texts)
    n = len(counts)
    # dic is None ⇒ zero tokens everywhere ⇒ didx/idx empty ⇒ every
    # bincount below degenerates to zeros(n); empty per-dict arrays
    # keep the gathers well-typed
    didx = np.repeat(np.arange(n), counts)
    if dic is None:
        dlens = np.zeros(0, np.int64)
        stopf = np.zeros(0)
        flags = np.zeros((0, len(LANGS)))
    else:
        dh = fnv1a64_batch(dic)
        dlens = _dict_lens(dic)
        stopf = _in_sorted(dh, _STOP_H).astype(np.float64)
        if with_lang:
            flags = np.stack(
                [_in_sorted(dh, _LANG_H[lang]).astype(np.float64) for lang in LANGS],
                axis=1,
            )
    stop_cnt = np.bincount(didx, weights=stopf[idx], minlength=n)
    tok_chars = np.bincount(didx, weights=dlens[idx].astype(np.float64), minlength=n)
    out = {
        "n_tokens": counts,
        "stop_cnt": stop_cnt.astype(np.int64),
        "tok_chars": tok_chars.astype(np.int64),
    }
    if with_distinct:
        # distinct tokens per doc: sort (doc, dict index), count firsts
        ndic = len(dic) if dic is not None else 1
        key = np.sort(didx * ndic + idx)
        first = np.r_[np.ones(min(len(key), 1), bool), key[1:] != key[:-1]]
        out["n_distinct"] = np.bincount(
            (key[first] // ndic), minlength=n
        ).astype(np.int64)
    if with_lang:
        mat = np.stack(
            [
                np.bincount(didx, weights=flags[idx, j], minlength=n)
                for j in range(len(LANGS))
            ],
            axis=1,
        ).astype(np.int64)
        best = np.argmax(mat, axis=1)  # argmax keeps first (sorted) on ties
        out["lang_pred"] = np.array(LANGS, dtype=object)[best]
        out["lang_score"] = mat[np.arange(n), best].astype(np.int64)
    return out


def token_stats(batch: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    """Per-doc token counts — flat-hash vectorized."""
    p = text_profile(batch[text_col], with_lang=False)
    return pd.DataFrame(
        {
            "doc_id": batch["doc_id"],
            "n_tokens": p["n_tokens"],
            "n_distinct": p["n_distinct"],
            "n_chars_obs": batch[text_col].str.len().astype("int64"),
        }
    )


def quality_score(batch: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    """Quality heuristics: length, stopword ratio, type-token ratio,
    mean token length (the 'junk detector' of a training-data pipeline)."""
    p = text_profile(batch[text_col], with_lang=False)
    n = np.maximum(p["n_tokens"], 1)
    return pd.DataFrame(
        {
            "doc_id": batch["doc_id"],
            "n_tokens": p["n_tokens"],
            "stopword_ratio": np.round(p["stop_cnt"] / n, 6),
            "type_token_ratio": np.round(p["n_distinct"] / n, 6),
            "mean_token_len": np.round(p["tok_chars"] / n, 6),
        }
    )


def langid(batch: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    """Stopword-profile language ID: argmax of profile hits
    (tie → lexicographically smallest language code)."""
    p = text_profile(batch[text_col], with_distinct=False)
    return pd.DataFrame(
        {
            "doc_id": batch["doc_id"],
            "lang_pred": p["lang_pred"],
            "lang_score": p["lang_score"],
        }
    )


_FP_BASE = 1000003
_FP_MASK = (1 << 61) - 1


def fingerprint(batch: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    """Rolling polynomial hash over the token stream (order-sensitive
    document fingerprint; exact-dup docs collide, any reorder doesn't).

    Vectorized across docs by iterating token POSITIONS (the
    ``fnv1a64_batch`` pattern): position j updates every doc with more
    than j tokens in one numpy op.  uint64 wraparound is exact here
    because 2^61 divides 2^64, so ``(x mod 2^64) & _FP_MASK`` equals
    ``x & _FP_MASK`` — identical values to the scalar reference."""
    counts, _tlens, H = flat_token_hashes(batch[text_col])
    n = len(counts)
    fp = np.zeros(n, np.uint64)
    if len(H):
        hw = H & np.uint64(_FP_MASK)
        starts = np.concatenate([[0], np.cumsum(counts)])[:-1]
        base = np.uint64(_FP_BASE)
        mask = np.uint64(_FP_MASK)
        with np.errstate(over="ignore"):
            for j in range(int(counts.max())):
                m = counts > j
                fp[m] = (fp[m] * base + hw[starts[m] + j]) & mask
    return pd.DataFrame(
        {"doc_id": batch["doc_id"], "fingerprint": fp.view(np.int64)}
    )


def hash_word(w: str) -> int:
    """Scalar token hash (tests / tiny inputs; batch kernels use
    ``fnv1a64_batch`` + the 61-bit mask instead)."""
    h = 14695981039346656037
    for b in w.encode():
        h = ((h ^ b) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return h & _FP_MASK


def word_count_partial(batch, text_col: str = "text") -> pa.Table:
    """Per-batch partial word counts of a pandas frame or pyarrow Table
    (the combiner before the groupby — the pre-aggregation pattern that
    keeps the shuffle small): one row per distinct word of the batch."""
    texts = batch[text_col]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.to_pylist()
    _counts, idx, dic = _token_dict(texts)
    if dic is None:
        return pa.table(
            {"word": pa.array([], pa.string()), "cnt": pa.array([], pa.int64())}
        )
    return pa.table({"word": dic, "cnt": np.bincount(idx, minlength=len(dic))})


def shingle_set(tokens: list[str], k: int) -> set[int]:
    """Hashed k-token shingles (for Jaccard / MinHash) — one batch hash
    over the joined shingle strings instead of per-byte Python FNV."""
    if not tokens:
        return set()
    if len(tokens) < k:
        joined = [" ".join(tokens)]
    else:
        joined = [" ".join(tokens[i : i + k]) for i in range(len(tokens) - k + 1)]
    h = fnv1a64_batch(pa.array(joined, type=pa.string())) & np.uint64(_FP_MASK)
    return set(int(x) for x in h)
