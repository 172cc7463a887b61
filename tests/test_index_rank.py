"""Reverse-index build/search + PageRank semantics tests."""

import numpy as np
import pandas as pd
import pytest

from searchengine_ray.pipelines.index import (
    MAX_TERMS,
    SearchIndex,
    build_index,
    doc_hosts,
    microfloat,
    split_sentence,
    word_rows,
)


def test_microfloat_truncation():
    # bf16 truncation (not round-to-nearest): mantissa low bits dropped
    x = np.array([1.0, 1.00390625, 3.14159265, 100.7], np.float32)
    q = microfloat(x)
    assert (q <= x).all()  # truncation never rounds up for positives
    assert q[0] == 1.0
    # idempotent
    assert (microfloat(q) == q).all()


def test_split_sentence():
    assert split_sentence('hello world') == ["hello", "world"]
    assert split_sentence('"new york" pizza') == ["new york", "pizza"]
    assert split_sentence('"unterminated phrase') == ["unterminated phrase"]
    assert len(split_sentence(" ".join("w%d" % i for i in range(20)))) == MAX_TERMS


def test_word_rows_semantics():
    batch = pd.DataFrame(
        {"doc_id": [1], "text": ["alpha beta alpha the gamma"]}
    )
    rows = word_rows(batch)
    # stopword 'the' dropped; positions count non-stop tokens only
    assert set(rows["word"]) == {"alpha", "beta", "gamma"}
    by_word = rows.set_index("word")
    assert by_word.loc["alpha", "position"] == 0   # first occurrence kept (max decay)
    assert by_word.loc["beta", "position"] == 1
    assert by_word.loc["gamma", "position"] == 3
    # ranks normalized: sum == page rank (1.0) up to bf16 quantization
    assert abs(rows["rank"].sum() - 1.0) < 0.01


def test_word_rows_null_text_has_no_tokens():
    """A null body or title indexes nothing, as ``text.tokenize``
    gives it no tokens: never the word ``none``."""
    rows = word_rows(pd.DataFrame({"doc_id": [0, 1], "text": [None, "a cat"]}))
    assert "none" not in set(rows["word"])
    assert set(rows["page_index"]) == {1}
    titled = word_rows(
        pd.DataFrame({"doc_id": [0], "title": [None], "text": ["cat"]}),
        title_col="title",
    )
    assert titled["word"].tolist() == ["cat"]


def test_build_and_search(ray_session, tmp_path):
    import ray

    docs = pd.DataFrame(
        {
            "doc_id": [0, 1, 2, 3],
            "text": [
                "apple banana cherry",
                "apple apple banana",
                "cherry date elderberry",
                "banana apple nearby words",
            ],
            "source": ["s0", "s0", "s1", "s2"],
        }
    )
    dict_ds = build_index(ray.data.from_pandas(docs)).materialize()
    path = str(tmp_path / "documents.parquet")
    docs.to_parquet(path)
    idx = SearchIndex(dict_ds, doc_host=doc_hosts(path))
    # single term
    r = idx.search("cherry")
    assert set(r["page_index"]) == {0, 2}
    # AND intersection
    r = idx.search("apple banana")
    assert set(r["page_index"]) <= {0, 1, 3}
    assert len(r) >= 1
    # term not present with AND → empty
    assert len(idx.search("apple zzz")) == 0
    # host-merge: docs 0,1 share host s0 → one row with suppressed count
    r = idx.search("apple")
    hosts = list(r["host"])
    assert hosts.count("s0") == 1


def test_multiword_phrase_search(ray_session):
    """A quoted 3+-word query must prefix-match a stored phrase entry
    (DictWord stores any space-containing phrase up to 24 bytes,
    SearchEngine.h:424-425 / PageSearcher.cpp:47-66) — a bigram-only
    index can never satisfy this."""
    import ray

    docs = pd.DataFrame(
        {
            "doc_id": [0, 1, 2],
            "text": [
                "red brick wall stands tall",
                "red wall brick unrelated order",
                "green brick wall here",
            ],
        }
    )
    idx = SearchIndex(build_index(ray.data.from_pandas(docs)).materialize())
    # trigram phrase: only doc 0 has the exact adjacent sequence
    r = idx.search('"red brick wall"')
    assert set(r["page_index"]) == {0}
    # 4-gram too
    r = idx.search('"red brick wall stands"')
    assert set(r["page_index"]) == {0}
    # a query longer than 24 chars matches via its 24-char prefix key
    assert len('"red brick wall stands tall"') - 2 > 24
    r = idx.search('"red brick wall stands tall"')
    assert set(r["page_index"]) == {0}
    # phrases with a different word order do NOT match
    assert len(idx.search('"brick red wall"')) == 0


def test_block_pruned_search_matches_full_scan(ray_session):
    """Postings from the block-pruned lookup equal a pandas scan of the
    whole sorted dictionary, for a word, a 2-word phrase, a phrase over
    24 chars, an absent word and a word whose postings straddle a block
    boundary; and the lookup fetches only the blocks that can hold the
    term."""
    import ray

    rng = np.random.default_rng(17)
    vocab = [f"w{i:03d}" for i in range(300)]
    texts = [" ".join(rng.choice(vocab, 30)) for _ in range(120)]
    docs = pd.DataFrame({"doc_id": range(120), "text": texts})
    full = build_index(ray.data.from_pandas(docs)).to_pandas()
    # three blocks of the sorted dictionary, the first cut inside the
    # postings of w150
    rows = np.flatnonzero(full["word"] == "w150")
    assert len(rows) >= 2
    cuts = [0, rows[len(rows) // 2], 2 * len(full) // 3, len(full)]
    dict_ds = ray.data.from_pandas(
        [full.iloc[a:b].reset_index(drop=True) for a, b in zip(cuts, cuts[1:])]
    ).materialize()

    def scan(term, max_search):
        if " " in term:
            hit = full["word"].str.startswith(term[:24])
        else:
            hit = full["word"] == term
        cols = full.loc[hit, ["page_index", "rank", "position"]]
        return cols.tail(max_search).reset_index(drop=True)

    words = texts[7].split()
    terms = ["w042", " ".join(words[:2]), " ".join(words[3:9]), "nosuchword", "w150"]
    assert len(terms[2]) > 24
    for max_search in (100_000, 3):
        idx = SearchIndex(dict_ds, max_search=max_search)
        assert len(idx._refs) == 3 and idx._hi[0] == idx._lo[1] == "w150"
        for t in terms:
            got = idx._term_postings(t).reset_index(drop=True)
            want = scan(t, max_search)
            if t == "nosuchword":
                assert len(got) == 0 and len(want) == 0
            else:
                assert len(want) > 0, t
                pd.testing.assert_frame_equal(got, want)
        assert idx.blocks_fetched < 3 * len(terms)
    assert len(idx.search(f'"{terms[2]}"')) >= 1


def _score_reference(postings, max_show):
    """The per-page scoring loop: each AND-surviving page filters every
    term's top-2 postings once (PageSearcher.cpp:155-190, 273-287)."""
    per_term = [
        p.sort_values("rank", ascending=False).groupby("page_index").head(2)
        for p in postings
    ]
    pages = set(per_term[0]["page_index"])
    for p in per_term[1:]:
        pages &= set(p["page_index"])
    rows = []
    for pg in pages:
        term_ranks, term_pos = [], []
        for p in per_term:
            sub = p[p["page_index"] == pg]
            term_ranks.append(float(sub["rank"].sum()))
            term_pos.append(sub["position"].to_numpy())
        score = sum(term_ranks)
        prox = 1.0
        for a, b in zip(term_pos[:-1], term_pos[1:]):
            dmin = min(abs(int(x) - int(y)) for x in a for y in b)
            prox *= 0.9 ** max(dmin - 1, 0)
        rows.append((pg, max(score * prox, 1e-6)))
    out = pd.DataFrame(rows, columns=["page_index", "final_rank"])
    out = out.sort_values(["final_rank", "page_index"], ascending=[False, True])
    return out.head(max_show).reset_index(drop=True)


@pytest.mark.parametrize("n_terms", [1, 2, 4])
def test_score_matches_per_page_loop(n_terms):
    """The grouped scoring equals the per-page loop bit for bit on
    seeded postings: hundreds of AND-matching pages, 1-6 postings per
    page and term (so the top-2 cut and rank ties bite), adjacent and
    distant positions, and a rank of 0 that the 1e-6 floor lifts."""
    rng = np.random.default_rng(n_terms)
    postings = []
    for _ in range(n_terms):
        pages = rng.choice(400, 320, replace=False)
        per = rng.integers(1, 7, len(pages))
        n = int(per.sum())
        ranks = rng.choice([0.0, 0.5, 1.0, 3.7, 12.25, 40.0], n) * rng.random(n).round(1)
        postings.append(pd.DataFrame({
            "page_index": np.repeat(pages, per).astype(np.int64),
            "rank": microfloat(ranks),
            "position": rng.integers(0, 60, n).astype(np.int32),
        }))
    idx = SearchIndex.__new__(SearchIndex)
    idx.doc_host = None
    want = _score_reference(postings, 10_000)
    assert len(want) >= 50
    got = idx._score(postings, 10_000)
    pd.testing.assert_frame_equal(got, want, check_exact=True)
    pd.testing.assert_frame_equal(idx._score(postings, 7), want.head(7))


def _pagerank_reference(edges, nodes, n_iters, damping=0.85):
    """The reference accumulator, one edge at a time
    (SearchEngine.cpp:1200-1281)."""
    prev = {int(n): 1.0 for n in nodes}
    for _ in range(n_iters):
        cur = dict.fromkeys(prev, 0.0)
        for s, d, k in edges[["src", "dst", "out_degree"]].itertuples(index=False):
            cur[int(d)] += (damping * prev[int(s)] + (1 - damping)) / k
        prev = cur
    return {n: min(damping * r + (1 - damping), 100.0) for n, r in prev.items()}


def test_pagerank_matches_scalar_reference():
    """A seeded graph with duplicate edges, self-loops, a hub past the
    100 clamp, nodes with no in-links and nodes with no out-links."""
    from searchengine_ray.pipelines.rank import pagerank

    rng = np.random.default_rng(23)
    hashes = rng.integers(0, np.iinfo(np.uint64).max, 1000, dtype=np.uint64)
    nodes = rng.permutation(np.unique(hashes))[:900]
    # 800 leaves feed the hub nodes[0]: 800 × 0.15 passes the clamp
    src = np.concatenate([rng.choice(nodes[:60], 400), nodes[100:]])
    dst = np.concatenate([rng.choice(nodes[20:100], 400), np.repeat(nodes[0], 800)])
    dst[:10] = src[:10]  # self-loops
    src, dst = np.concatenate([src, src[:30]]), np.concatenate([dst, dst[:30]])
    deg = pd.Series(src).map(pd.Series(src).value_counts()).to_numpy(np.int64)
    edges = pd.DataFrame({"src": src, "dst": dst, "out_degree": deg})
    assert not np.isin(nodes[100:], dst).any()  # no in-links
    assert not np.isin(nodes[60:100], src).any()  # no out-links

    out = pagerank(edges, nodes, n_iters=5)
    want = _pagerank_reference(edges, nodes, n_iters=5)
    assert out["node"].tolist() == sorted(want)
    np.testing.assert_allclose(
        out["rank"].to_numpy(), [want[n] for n in sorted(want)], rtol=1e-12
    )
    assert out["rank"].max() == 100.0


def test_pagerank_zero_edges():
    """A crawl with no surviving link: every page ranks 0.85·0 + 0.15."""
    import pyarrow as pa

    from searchengine_ray.pipelines.rank import edges_from_content, pagerank

    hashes = np.arange(1, 61, dtype=np.uint64) * np.uint64(2**58)
    content = pa.table(
        {
            "url_hash": pa.array(hashes, pa.uint64()),
            "links": pa.array([[]] * 60, pa.list_(pa.string())),
        }
    )
    edges = edges_from_content(content)
    assert len(edges) == 0
    out = pagerank(edges, hashes, n_iters=5)
    assert len(out) == 60
    assert out.dtypes.tolist() == [np.uint64, np.float64]
    assert np.allclose(out["rank"], 0.15, rtol=0, atol=1e-15)


def test_pagerank():
    from searchengine_ray.pipelines.rank import pagerank

    # 3-node cycle → uniform rank; refine → 0.85*1+0.15 = 1.0
    edges = pd.DataFrame(
        {"src": [1, 2, 3], "dst": [2, 3, 1], "out_degree": [1, 1, 1]}
    )
    out = pagerank(edges, np.array([1, 2, 3], np.uint64), n_iters=5)
    assert np.allclose(out["rank"], 1.0, atol=1e-6)

    # star: 2,3 → 1; 1 → 2: node 1 collects more
    edges = pd.DataFrame(
        {"src": [2, 3, 1], "dst": [1, 1, 2], "out_degree": [1, 1, 1]}
    )
    out = pagerank(edges, np.array([1, 2, 3], np.uint64), n_iters=5).set_index("node")
    assert out.loc[1, "rank"] > out.loc[3, "rank"]
    assert out.loc[3, "rank"] == pytest.approx(0.15, abs=1e-6)  # no inlinks

    with pytest.raises(ValueError):  # an edge to a node outside ``nodes``
        pagerank(edges, np.array([1, 2], np.uint64))
