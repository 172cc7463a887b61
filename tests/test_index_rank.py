"""Reverse-index build/search + PageRank semantics tests."""

import numpy as np
import pandas as pd
import pytest

from searchengine_ray.pipelines.index import (
    MAX_TERMS,
    SearchIndex,
    build_index,
    microfloat,
    small_word_rows,
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


def test_small_word_rollup():
    words = pd.DataFrame(
        {
            "word": ["abcdefghij", "abcdefghXY", "short"],
            "rank": np.array([0.5, 0.9, 0.3], np.float32),
            "page_index": [1, 1, 1],
            "position": [0, 1, 2],
        }
    )
    out = small_word_rows(words)
    # both 10-char words truncate to the same 8-char key → max rank kept
    assert len(out) == 2
    eight = out[out["word"] == "abcdefgh"]
    assert len(eight) == 1 and float(eight["rank"].iloc[0]) == np.float32(0.9)


def test_build_and_search(ray_session):
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
    ds = ray.data.from_pandas(docs)
    dict_ds = build_index(ds)
    import pyarrow as pa

    tbl = pa.Table.from_pandas(dict_ds.to_pandas(), preserve_index=False)
    idx = SearchIndex(tbl, doc_host={0: "s0", 1: "s0", 2: "s1", 3: "s2"})
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
    import pyarrow as pa
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
    ds = ray.data.from_pandas(docs)
    tbl = pa.Table.from_pandas(build_index(ds).to_pandas(), preserve_index=False)
    idx = SearchIndex(tbl)
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


def test_pagerank(ray_session):
    import ray

    from searchengine_ray.pipelines.rank import pagerank

    # 3-node cycle → uniform rank; refine → 0.85*1+0.15 = 1.0
    edges = pd.DataFrame(
        {"src": [1, 2, 3], "dst": [2, 3, 1], "out_degree": [1, 1, 1]}
    )
    eds = ray.data.from_pandas(edges)
    out = pagerank(eds, np.array([1, 2, 3], np.uint64), n_iters=5)
    assert np.allclose(out["rank"], 1.0, atol=1e-6)

    # star: 2,3 → 1; 1 → 2: node 1 collects more
    edges = pd.DataFrame(
        {"src": [2, 3, 1], "dst": [1, 1, 2], "out_degree": [1, 1, 1]}
    )
    eds = ray.data.from_pandas(edges)
    out = pagerank(eds, np.array([1, 2, 3], np.uint64), n_iters=5).set_index("node")
    assert out.loc[1, "rank"] > out.loc[3, "rank"]
    assert out.loc[3, "rank"] == pytest.approx(0.15, abs=1e-6)  # no inlinks


def test_pagerank_paths_agree(ray_session):
    import ray

    from searchengine_ray.pipelines.rank import pagerank

    rng = np.random.default_rng(11)
    n = 40
    src = rng.integers(1, n + 1, 200)
    dst = rng.integers(1, n + 1, 200)
    deg = pd.Series(src).map(pd.Series(src).value_counts()).to_numpy()
    edges = pd.DataFrame({"src": src, "dst": dst, "out_degree": deg})
    nodes = np.arange(1, n + 1, dtype=np.uint64)
    eds = ray.data.from_pandas(edges)
    fast = pagerank(eds, nodes, n_iters=3)
    dist = pagerank(eds, nodes, n_iters=3, small_graph_threshold=0)
    merged = fast.merge(dist, on="node", suffixes=("_f", "_d"))
    assert np.allclose(merged["rank_f"], merged["rank_d"], atol=1e-9)


def test_partitioned_search_matches_driver_index(ray_session):
    """PartitionedSearchIndex (sorted-block pruning, postings-only
    fetches) returns exactly what the driver-side SearchIndex returns,
    while touching only the blocks whose word range can match."""
    import pyarrow as pa
    import ray

    from searchengine_ray.pipelines.index import PartitionedSearchIndex

    rng = np.random.default_rng(17)
    vocab = [f"w{i:03d}" for i in range(300)]
    docs = pd.DataFrame(
        {
            "doc_id": range(120),
            "text": [" ".join(rng.choice(vocab, 30)) for _ in range(120)],
        }
    )
    ds = ray.data.from_pandas(docs)
    dict_ds = build_index(ds).materialize()
    tbl = pa.Table.from_pandas(dict_ds.to_pandas(), preserve_index=False)
    driver_idx = SearchIndex(tbl)
    part_idx = PartitionedSearchIndex(dict_ds)
    n_blocks = len(part_idx._refs)
    for q in ["w001", "w050 w100", '"w001 w002"', "w299", "nosuchword"]:
        a = driver_idx.search(q).reset_index(drop=True)
        b = part_idx.search(q).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)
    # pruning: single-term queries must not have fetched every block
    # every time (the sparse bounds index prunes)
    if n_blocks > 1:
        assert part_idx.blocks_fetched < 5 * n_blocks


def test_pagerank_paths_agree_three_partitions(ray_session, three_partitions):
    """The check above with the distributed iteration's joins and sums
    at 3 partitions (the pad / sort path) instead of one."""
    test_pagerank_paths_agree(ray_session)
