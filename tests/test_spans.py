"""Kernel + pipeline tests for stages/spans.py (duplicated-substring
spans, Lee et al. 2021 style) and the Gopher repetition stats."""

import re
from collections import Counter

import numpy as np
import pandas as pd
import pytest

from searchengine_ray.functions.hashing import fnv1a64
from searchengine_ray.stages.dedup import _distinct_shingles
from searchengine_ray.stages.spans import (
    duplicate_spans,
    merge_positions_to_spans,
    repetition_stats,
)
from searchengine_ray.stages.text import kgram_window_hashes

TEXTS = [
    "the cat sat on the mat the cat sat",
    "a b a b a b c",
    "",
    "one two",
    "x " * 50,
    "The CAT sat, on the mat!",  # case/punct-normalized overlap with doc 0
]


def _toks(t):
    return re.findall(r"[a-z0-9]+", t.lower())


def _horner(toks):
    """Scalar gram hash: fnv1a64 per token, acc·1000003 + h mod 2^64."""
    acc = 0
    for w in toks:
        acc = (acc * 1000003 + fnv1a64(w)) % (1 << 64)
    return acc


def test_kgram_window_hashes_positions_and_equality():
    K = 3
    didx, pos, gh = kgram_window_hashes(TEXTS, K)
    ref = []
    for i, t in enumerate(TEXTS):
        toks = _toks(t)
        for p in range(max(0, len(toks) - K + 1)):
            ref.append((i, p, tuple(toks[p : p + K])))
    assert [(d, p) for d, p in zip(didx, pos)] == [(i, p) for i, p, _ in ref]
    # equal grams -> equal hashes; distinct grams -> distinct hashes
    by_gram = {}
    for (_, _, g), h in zip(ref, gh):
        by_gram.setdefault(g, set()).add(int(h))
    assert all(len(s) == 1 for s in by_gram.values())
    hashes = [next(iter(s)) for s in by_gram.values()]
    assert len(set(hashes)) == len(by_gram)
    # every gram hash is the scalar Horner fold of its tokens
    assert [int(h) for h in gh] == [_horner(g) for _, _, g in ref]
    # a doc shorter than K contributes one all-tokens shingle only with
    # the short-doc fallback (q16's MinHash input)
    didx, sh, lens = _distinct_shingles(["one two", "x y z w"], K)
    assert list(lens) == [2, 4]
    assert list(zip(didx.tolist(), sh.tolist())) == sorted(
        [(0, _horner(["one", "two"])), (1, _horner(["x", "y", "z"])),
         (1, _horner(["y", "z", "w"]))]
    )
    didx, _sh, _lens = _distinct_shingles(["one two"], K, short_fallback=False)
    assert len(didx) == 0


def test_kgram_windows_never_cross_doc_boundary():
    didx, pos, _ = kgram_window_hashes(["a b", "c d e"], 2)
    assert list(zip(didx, pos)) == [(0, 0), (1, 0), (1, 1)]


def test_repetition_stats_matches_scalar_reference():
    rs = repetition_stats(TEXTS)
    for i, t in enumerate(TEXTS):
        toks = _toks(t)
        uc = Counter(toks)
        bc = Counter(zip(toks, toks[1:]))
        assert rs["n_tokens"][i] == len(toks)
        assert rs["top_unigram_n"][i] == (max(uc.values()) if uc else 0)
        assert rs["n_bigrams"][i] == max(0, len(toks) - 1)
        assert rs["top_bigram_n"][i] == (max(bc.values()) if bc else 0)
        assert rs["dup_bigram_n"][i] == sum(c for c in bc.values() if c > 1)


def test_merge_positions_to_spans():
    # doc 0: windows at 0,2 overlap (K=3) -> [0,5); 10 alone -> [10,13)
    out = merge_positions_to_spans(
        np.array([0, 0, 0, 1]), np.array([0, 2, 10, 5]), 3
    )
    assert out.to_dict("list") == {
        "doc_id": [0, 1],
        "n_spans": [2, 1],
        "dup_tokens": [8, 3],
    }
    # adjacent (gap == K) windows merge into one span
    out = merge_positions_to_spans(np.array([7, 7]), np.array([0, 3]), 3)
    assert out.to_dict("list") == {
        "doc_id": [7],
        "n_spans": [1],
        "dup_tokens": [6],
    }
    assert len(merge_positions_to_spans(np.array([]), np.array([]), 3)) == 0


def test_duplicate_spans_pipeline_planted(ray_session):
    import ray

    # two docs share an 8-token run; a third repeats its own 8-gram
    shared = "alpha beta gamma delta epsilon zeta eta theta"
    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(50)]
    filler = lambda n: " ".join(rng.choice(vocab, n))
    docs = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4],
            "text": [
                filler(20) + " " + shared + " " + filler(20),
                shared + " " + filler(30),
                (shared.replace("alpha", "selfrep") + " ") * 2 + filler(10),
                filler(25),
            ],
        }
    )
    ds = ray.data.from_pandas(docs)
    out = duplicate_spans(ds, K=8)
    got = {r.doc_id: (r.n_spans, r.dup_tokens) for r in out.itertuples()}
    # docs 1 and 2 carry the shared 8-gram span (exactly 8 tokens,
    # assuming the random filler creates no extra duplicate windows)
    assert 1 in got and 2 in got
    assert got[1][1] >= 8 and got[2][1] >= 8
    # doc 3's self-repetition counts too (count>1 within one doc)
    assert 3 in got and got[3][1] >= 8
    assert 4 not in got


def test_duplicate_spans_pipeline_planted_three_partitions(ray_session, three_partitions):
    """The planted check above with both span shuffles (by gram, then
    by document) at 3 partitions instead of one."""
    test_duplicate_spans_pipeline_planted(ray_session)
