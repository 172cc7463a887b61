"""Substring-dedup transform (stages/spans.remove_duplicate_spans):
the cleaned corpus keeps each duplicated K-gram run EXACTLY once (the
globally-first occurrence) and the per-doc token accounting balances.
"""

import numpy as np
import pandas as pd


def _mk_docs():
    """20 docs of unique filler; a 12-token run R planted verbatim in
    docs 3, 11 and 17 (distinct surrounding context).  Every 8-gram of
    R occurs exactly 3× in the corpus; canonical = doc 3 (min doc_id).
    Filler tokens are globally unique so no other gram duplicates."""
    rng = np.random.default_rng(73)
    run = " ".join(f"run{i}" for i in range(12))
    docs = []
    w = 0
    for d in range(20):
        toks = [f"u{w + i}" for i in range(30)]
        w += 30
        if d in (3, 11, 17):
            text = " ".join(toks[:10]) + " " + run + " " + " ".join(toks[10:])
        else:
            text = " ".join(toks)
        docs.append({"doc_id": d, "source": f"s{d % 2}", "text": text})
    return pd.DataFrame(docs), run


def test_planted_run_kept_exactly_once(ray_session):
    import ray

    from searchengine_ray.stages.spans import remove_duplicate_spans

    df, run = _mk_docs()
    out = (
        remove_duplicate_spans(
            ray.data.from_pandas(df), K=8, meta_cols=("source",)
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert len(out) == 20
    # the run survives exactly once, in the min-doc_id holder (doc 3)
    holders = out.loc[out["text_clean"].str.contains(run, regex=False)]
    assert list(holders["doc_id"]) == [3]
    # docs 11 and 17 lost exactly the 12 run tokens
    cut = out.set_index("doc_id")["cut_tokens"]
    assert cut[11] == 12 and cut[17] == 12 and cut[3] == 0
    assert int(out["cut_tokens"].sum()) == 24
    # no 8-gram is duplicated in the CLEANED corpus: rerun detection
    from searchengine_ray.stages.spans import duplicate_spans

    clean_ds = ray.data.from_pandas(
        out[["doc_id", "text_clean"]].rename(columns={"text_clean": "text"})
    )
    assert duplicate_spans(clean_ds, K=8).empty


def test_accounting_balances_and_untouched_docs(ray_session):
    import ray

    from searchengine_ray.stages.spans import remove_duplicate_spans

    df, _run = _mk_docs()
    out = (
        remove_duplicate_spans(
            ray.data.from_pandas(df), K=8, meta_cols=("source",)
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert (out["kept_tokens"] + out["cut_tokens"] == out["n_tokens"]).all()
    # meta column rides through
    assert (out["source"] == [f"s{d % 2}" for d in range(20)]).all()
    # untouched docs re-serialize to their space-joined token stream
    for d in (0, 5, 19):
        row = out.loc[out["doc_id"] == d].iloc[0]
        assert row["cut_tokens"] == 0
        assert row["text_clean"] == df.loc[d, "text"].lower()
    # kept token count equals the cleaned text's token count
    assert (
        out["text_clean"].str.split().str.len().fillna(0).astype(int)
        == out["kept_tokens"]
    ).all()


def test_short_and_empty_docs_pass_through(ray_session):
    import ray

    from searchengine_ray.stages.spans import remove_duplicate_spans

    df = pd.DataFrame(
        {
            "doc_id": [0, 1, 2],
            "text": ["", "a b c", "x y z q w e r t"],  # all < or == K
        }
    )
    out = (
        remove_duplicate_spans(ray.data.from_pandas(df), K=8)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert (out["cut_tokens"] == 0).all()
    assert list(out["n_tokens"]) == [0, 3, 8]
    assert out.loc[1, "text_clean"] == "a b c"


def _brute_span_removal(texts, K=8):
    """Pure-Python reference of the removal rule: per duplicated gram,
    min (doc, pos) survives; other occurrences' windows union into
    per-doc coverage; covered tokens cut."""
    import re

    TOKEN_RE = re.compile(r"[a-z0-9]+")
    toks = [TOKEN_RE.findall(t.lower()) for t in texts]
    grams = {}
    for d, ts in enumerate(toks):
        for p in range(len(ts) - K + 1):
            grams.setdefault(tuple(ts[p : p + K]), []).append((d, p))
    cover = [set() for _ in toks]
    for occ in grams.values():
        if len(occ) > 1:
            for d, p in sorted(occ)[1:]:
                cover[d].update(range(p, p + K))
    out = []
    for d, ts in enumerate(toks):
        kept = [w for i, w in enumerate(ts) if i not in cover[d]]
        out.append(
            {
                "n_tokens": len(ts),
                "cut_tokens": len(cover[d]),
                "kept_tokens": len(ts) - len(cover[d]),
                "text_clean": " ".join(kept),
            }
        )
    return out


def test_span_removal_matches_bruteforce_randomized(ray_session):
    """Randomized corpora (shared runs planted at random offsets,
    repeated phrases inside one doc, tiny vocab → accidental gram
    collisions) must match the pure-Python reference exactly —
    accounting AND re-serialized text."""
    import ray

    from searchengine_ray.stages.spans import remove_duplicate_spans

    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(40)]  # small vocab → real collisions
    for trial in range(5):
        docs = []
        run = " ".join(rng.choice(vocab, 10))
        for d in range(15):
            words = list(rng.choice(vocab, int(rng.integers(5, 40))))
            if d % 4 == 0:  # plant the shared run at a random offset
                at = int(rng.integers(0, len(words)))
                words[at:at] = run.split()
            docs.append(" ".join(words))
        df = pd.DataFrame({"doc_id": range(len(docs)), "text": docs})
        got = (
            remove_duplicate_spans(ray.data.from_pandas(df), K=8)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        want = _brute_span_removal(docs, K=8)
        for d, w in enumerate(want):
            row = got.iloc[d]
            assert int(row["n_tokens"]) == w["n_tokens"], (trial, d)
            assert int(row["cut_tokens"]) == w["cut_tokens"], (trial, d)
            assert row["text_clean"] == w["text_clean"], (trial, d)


def test_span_removal_at_three_partitions(ray_session, three_partitions):
    """The checks above with both span-removal shuffles at 3 partitions
    (the pad / sort path) instead of one."""
    test_planted_run_kept_exactly_once(ray_session)
    test_accounting_balances_and_untouched_docs(ray_session)
    test_short_and_empty_docs_pass_through(ray_session)
    test_span_removal_matches_bruteforce_randomized(ray_session)
