"""Text-analysis batch kernels for the documents table.

The reference's word pipeline (``getWords``, ``SearchEngine.cpp:282-490``)
tokenizes pages, weights words, and filters stopwords
(``SearchEngine.h:560-611``).  These kernels re-express that per-batch
plus the large-scale training-data operators the engine adds:
language-ID heuristic, quality scoring, token counting, and
rolling-hash document fingerprinting.

This module is the package's one tokenizer and one k-gram hash.
``tokenize`` turns a batch of texts into a ``Tokens`` stream (per-doc
counts, flat dictionary indices, the dictionary, the flat doc index);
every text kernel of the package — here, in ``dedup`` (shingles,
SimHash), ``spans`` and the query catalog — starts from it, and none
rebuilds the doc index.  ``kgram_window_hashes`` is the one k-gram
kernel: the Horner fold ``acc·_FP_BASE + h`` of FNV-1a/64 token hashes
(mod 2^64), which feeds MinHash, q18's Jaccard, decontamination and
span dedup; ``doc_hashes`` is the same fold over a whole doc.

Everything past tokenization is vectorized over the batch's FLAT token
stream: one ``fnv1a64_batch`` hash per distinct token, membership
tests as ``searchsorted`` against pre-hashed stopword/profile sets,
per-doc sums as ``np.bincount`` over the doc-index array — no
per-token Python work in any hot kernel.

Tokenization contract (shared with the DuckDB oracle SQL):
``regexp_extract_all(lower(text), '[a-z0-9]+')`` — keep the two sides
byte-identical; a null text has no tokens on both sides.
"""

from __future__ import annotations

import re
from typing import NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.hashing import fnv1a64_batch

TOKEN_RE = re.compile(r"[a-z0-9]+")

# odd Horner base of every token-hash fold (k-grams, document hashes);
# the document fingerprint keeps the low 61 bits
_FP_BASE = 1000003
_FP_MASK = (1 << 61) - 1

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


def in_sorted(h: np.ndarray, sset: np.ndarray) -> np.ndarray:
    """Vectorized membership of ``h`` in the sorted array ``sset`` (the
    package's one sorted-set membership test: hashes, ids, strings)."""
    if len(sset) == 0 or len(h) == 0:
        return np.zeros(len(h), bool)
    pos = np.searchsorted(sset, h)
    return (pos < len(sset)) & (sset[np.minimum(pos, len(sset) - 1)] == h)


class Tokens(NamedTuple):
    """A batch's token stream, tokenized once and dictionary-encoded:
    ``counts`` (tokens per doc), ``idx`` (flat dictionary index per
    token, docs in order), ``dic`` (the distinct tokens) and ``doc_of``
    (flat doc index per token)."""

    counts: np.ndarray
    idx: np.ndarray
    dic: pa.Array
    doc_of: np.ndarray

    @property
    def starts(self) -> np.ndarray:
        """Flat position of each doc's first token."""
        return np.cumsum(self.counts) - self.counts

    def hashes(self) -> np.ndarray:
        """FNV-1a/64 of every token, hashed once per distinct token."""
        return fnv1a64_batch(self.dic)[self.idx]


def tokenize(texts) -> Tokens:
    """The package's one tokenizer: each doc's ``TOKEN_RE`` tokens of
    its lowercased text (a null text has none), with the batch's flat
    token stream dictionary-encoded in C++.

    Token streams are Zipfian, so every downstream per-token kernel
    (hashing, length, set membership) runs over the small dictionary
    and gathers by index — never over the raw stream."""
    if isinstance(texts, (pa.Array, pa.ChunkedArray)):
        texts = texts.to_pylist()
    tok_lists = [
        TOKEN_RE.findall(t.lower()) if isinstance(t, str) else [] for t in texts
    ]
    counts = np.array([len(t) for t in tok_lists], np.int64)
    flat = [w for ts in tok_lists for w in ts]
    try:
        denc = pa.array(flat, type=pa.string()).dictionary_encode()
    except pa.lib.ArrowCapacityError:
        # >2 GiB of token text in one call (a whole doc-keyed
        # partition rather than a block-sized batch): 32-bit string
        # offsets overflow — retry with 64-bit offsets.  Partition
        # sizing (partitions scale with the cluster) is the primary
        # guard; this keeps the kernel correct past it.
        denc = pa.array(flat, type=pa.large_string()).dictionary_encode()
    return Tokens(
        counts,
        denc.indices.to_numpy().astype(np.int64),
        denc.dictionary,
        np.repeat(np.arange(len(counts)), counts),
    )


def _dict_lens(dic: pa.Array) -> np.ndarray:
    import pyarrow.compute as pc

    # tokens are [a-z0-9]+ → bytes == chars
    return pc.binary_length(dic).to_numpy().astype(np.int64)


def kgram_window_hashes(tokens, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(doc_idx, pos, gram_hash) for every k-token window that fits
    inside one doc; ``tokens`` is a ``tokenize`` result or the texts.

    gram_hash is the Horner fold ``acc·_FP_BASE + h`` (mod 2^64) of the
    window's FNV-1a/64 token hashes, computed position-parallel over
    the flat stream: k−1 vector multiply-adds, windows that cross a doc
    boundary masked out.  The base is odd, so equal hash sequences are
    the only non-colliding way to equal gram hashes."""
    tok = tokens if isinstance(tokens, Tokens) else tokenize(tokens)
    nw = len(tok.idx) - k + 1
    if nw <= 0:
        z = np.zeros(0, np.int64)
        return z, z, np.zeros(0, np.uint64)
    h = tok.hashes()
    with np.errstate(over="ignore"):
        acc = h[:nw].copy()
        for j in range(1, k):
            acc = acc * np.uint64(_FP_BASE) + h[j : j + nw]
    doc = tok.doc_of[:nw]
    pos = np.arange(nw) - tok.starts[doc]
    ok = pos + k <= tok.counts[doc]
    return doc[ok], pos[ok], acc[ok]


def doc_hashes(h: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The same Horner fold over each whole run ``h[starts[i] :
    starts[i] + counts[i]]`` (0 for an empty run), vectorized across
    runs by iterating token POSITIONS: position j updates every run
    longer than j in one numpy op."""
    acc = np.zeros(len(counts), np.uint64)
    base = np.uint64(_FP_BASE)
    with np.errstate(over="ignore"):
        for j in range(int(counts.max(initial=0))):
            m = counts > j
            acc[m] = acc[m] * base + h[starts[m] + j]
    return acc


def text_profile(
    texts,
    with_distinct: bool = True,
    with_lang: bool = True,
) -> dict[str, np.ndarray]:
    """One tokenize+hash pass → every per-doc stat the clean gates and
    analysis kernels need: ``n_tokens``, ``n_distinct``, ``stop_cnt``,
    ``tok_chars``, ``lang_pred``, ``lang_score``.

    Shared by token_stats / quality_score / langid and ``clean_gate``
    (q37, the curation funnel, the corpus ETL) so the flagship pipeline
    tokenizes each document exactly once per pass.  All membership
    tests run on the token DICTIONARY (distinct tokens) and gather by
    index; per-doc sums are ``np.bincount`` over the doc-index array."""
    counts, idx, dic, didx = tokenize(texts)
    n = len(counts)
    dh = fnv1a64_batch(dic)
    dlens = _dict_lens(dic)
    stopf = in_sorted(dh, _STOP_H).astype(np.float64)
    stop_cnt = np.bincount(didx, weights=stopf[idx], minlength=n)
    tok_chars = np.bincount(didx, weights=dlens[idx].astype(np.float64), minlength=n)
    out = {
        "n_tokens": counts,
        "stop_cnt": stop_cnt.astype(np.int64),
        "tok_chars": tok_chars.astype(np.int64),
    }
    if with_distinct:
        # distinct tokens per doc: sort (doc, dict index), count firsts
        ndic = max(len(dic), 1)
        key = np.sort(didx * ndic + idx)
        first = np.r_[np.ones(min(len(key), 1), bool), key[1:] != key[:-1]]
        out["n_distinct"] = np.bincount(
            (key[first] // ndic), minlength=n
        ).astype(np.int64)
    if with_lang:
        mat = np.stack(
            [
                np.bincount(
                    didx,
                    weights=in_sorted(dh, _LANG_H[lang]).astype(np.float64)[idx],
                    minlength=n,
                )
                for lang in LANGS
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


def clean_gate(b: pd.DataFrame) -> pd.DataFrame:
    """The corpus clean gate (q37, the curation funnel, the corpus ETL):
    the rows of ``b`` whose ``text`` is English by stopword-profile
    langid, has ≥ 5 tokens, a stopword share ≤ 0.5 and a mean token
    length ≥ 2.0 — both integer ppm, floor-divided, so the DuckDB
    oracle compares exactly — plus ``n_tokens``, ``stopword_ppm`` and
    ``mean_token_len_ppm``."""
    p = text_profile(b["text"], with_distinct=False)
    n = p["n_tokens"]
    nc = np.maximum(n, 1)
    stop_ppm = p["stop_cnt"] * 1_000_000 // nc
    mean_len_ppm = p["tok_chars"] * 1_000_000 // nc
    keep = (
        (p["lang_pred"] == "en")
        & (n >= 5)
        & (stop_ppm <= 500_000)
        & (mean_len_ppm >= 2_000_000)
    )
    out = b.assign(
        n_tokens=n, stopword_ppm=stop_ppm, mean_token_len_ppm=mean_len_ppm
    )
    return out[keep]


def fingerprint(batch: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    """Rolling polynomial hash over the token stream (order-sensitive
    document fingerprint; exact-dup docs collide, any reorder doesn't):
    ``doc_hashes`` over the 61-bit-masked token hashes.  uint64
    wraparound is exact here because 2^61 divides 2^64, so ``(x mod
    2^64) & _FP_MASK`` equals ``x & _FP_MASK`` — identical values to
    the scalar reference."""
    tok = tokenize(batch[text_col])
    mask = np.uint64(_FP_MASK)
    fp = doc_hashes(tok.hashes() & mask, tok.starts, tok.counts) & mask
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
    tok = tokenize(batch[text_col])
    cnt = np.bincount(tok.idx, minlength=len(tok.dic))
    return pa.table({"word": tok.dic, "cnt": cnt})

