"""Resumable partitioned-output ETL (pipelines/export.py): parts match
the oracle-checked q37 gate, committed parts are skipped on resume,
torn .tmp writes are ignored."""

import os

import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def multi_frag_input(tmp_path_factory):
    """documents table re-written with small row groups → 5 fragments."""
    d = tmp_path_factory.mktemp("etl_in")
    src = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    pq.write_table(src, str(d / "documents.parquet"), row_group_size=100)
    return str(d)


def test_etl_matches_q37_and_resumes(ray_session, multi_frag_input, tmp_path):
    from searchengine_ray.pipelines.export import corpus_etl
    from searchengine_ray.pipelines.queries import q37_clean_corpus

    out = str(tmp_path / "corpus")
    r1 = corpus_etl(multi_frag_input, out)
    assert r1["parts"] == 5 and r1["skipped"] == 0
    parts = sorted(p for p in os.listdir(out) if p.endswith(".parquet"))
    assert len(parts) == 5

    # content parity with the oracle-checked q37 gate (plus text col)
    got = pq.read_table(out).to_pandas().sort_values("doc_id")
    want = q37_clean_corpus(multi_frag_input).sort_values("doc_id")
    assert list(got["doc_id"]) == list(want["doc_id"])
    assert list(got["n_tokens"]) == list(want["n_tokens"])
    assert "text" in got.columns
    assert r1["rows_total"] == len(want)

    # resume: delete one part, leave a torn tmp for another — only the
    # missing part is re-done, committed parts untouched
    victim = os.path.join(out, parts[2])
    os.remove(victim)
    with open(os.path.join(out, parts[3]) + ".tmp", "w") as f:
        f.write("torn")
    mtimes = {
        p: os.path.getmtime(os.path.join(out, p))
        for p in parts
        if p != parts[2]
    }
    r2 = corpus_etl(multi_frag_input, out)
    assert r2["skipped"] == 4
    assert r2["rows_total"] == r1["rows_total"]
    for p, m in mtimes.items():
        assert os.path.getmtime(os.path.join(out, p)) == m, p
    got2 = pq.read_table(out).to_pandas().sort_values("doc_id")
    assert list(got2["doc_id"]) == list(got["doc_id"])


# --------------------------------------------------------------- ingest

def _write_inputs(d):
    import json as _json

    os.makedirs(d, exist_ok=True)
    # CSV with doc_id + text
    with open(os.path.join(d, "a.csv"), "w") as f:
        f.write("doc_id,text\n1,\"the quick brown fox\"\n2,\"hello world\"\n")
    # JSONL with content alias + source, no doc_id
    with open(os.path.join(d, "b.jsonl"), "w") as f:
        for i, t in enumerate(["jumps over the lazy dog", "good day"]):
            f.write(_json.dumps({"content": t, "source": "web"}) + "\n")
    # parquet with body alias only
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    pq.write_table(
        pa.Table.from_pandas(
            pd.DataFrame({"body": ["third file text row"]}),
            preserve_index=False,
        ),
        os.path.join(d, "c.parquet"),
    )


def test_ingest_normalizes_and_resumes(ray_session, tmp_path):
    import pandas as pd
    import pyarrow.parquet as pq

    from searchengine_ray.pipelines.ingest import ingest_documents

    src = str(tmp_path / "in")
    out = str(tmp_path / "out")
    _write_inputs(src)

    r1 = ingest_documents(src, out)
    assert r1["files"] == 3 and r1["skipped"] == 0
    assert r1["rows_written"] == r1["rows_total"] == 5

    parts = sorted(p for p in os.listdir(out) if p.endswith(".parquet"))
    assert len(parts) == 3
    tbl = pq.read_table(out)
    assert tbl.column_names == ["doc_id", "source", "text"]
    assert tbl["doc_id"].type == "int64"
    df = tbl.to_pandas()
    # explicit ids kept; derived ids deterministic and distinct
    assert set(df[df["source"] == "a"]["doc_id"]) == {1, 2}
    assert df["doc_id"].is_unique
    # source: file stem when absent, column value when present
    assert set(df["source"]) == {"a", "web", "c"}

    # resume: drop one part, re-run — only that part is rebuilt,
    # derived doc_ids are identical to the first run
    before = df.sort_values("doc_id").reset_index(drop=True)
    os.remove(os.path.join(out, parts[1]))
    r2 = ingest_documents(src, out)
    assert r2["skipped"] == 2 and r2["rows_total"] == 5
    after = pq.read_table(out).to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(before, after)


def test_ingest_output_is_queryable(ray_session, tmp_path):
    import ray

    from searchengine_ray.pipelines.ingest import ingest_documents
    from searchengine_ray.stages import text as tx

    src = str(tmp_path / "in")
    out = str(tmp_path / "out")
    _write_inputs(src)
    ingest_documents(src, out)
    ds = ray.data.read_parquet(out)
    words = (
        ds.map_batches(tx.word_count_partial, batch_format="pandas")
        .to_pandas()
        .groupby("word")["cnt"]
        .sum()
    )
    assert int(words["the"]) == 2  # "the quick..." + "the lazy dog"


def test_ingest_rejects_textless_file(tmp_path):
    import pyarrow as pa
    import pytest as _pytest

    from searchengine_ray.pipelines.ingest import normalize_documents

    with _pytest.raises(ValueError, match="no text column"):
        normalize_documents(pa.table({"x": [1]}), "bad.csv")


def test_resume_refuses_diverged_worklist(ray_session, tmp_path):
    """ADVICE round-3: positional part ids must not silently remap when
    the input set changes between runs — resume must fail loudly."""
    import pyarrow as pa
    import pyarrow.parquet as pq_
    import pytest as _pytest

    from searchengine_ray.pipelines.export import corpus_etl

    sf = str(tmp_path / "in")
    doc_dir = os.path.join(sf, "documents.parquet")
    os.makedirs(doc_dir)
    src = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    pq_.write_table(src.slice(0, 200), os.path.join(doc_dir, "a.parquet"))
    pq_.write_table(src.slice(200, 200), os.path.join(doc_dir, "b.parquet"))
    out = str(tmp_path / "out")
    corpus_etl(sf, out)
    # same inputs: resume succeeds and skips everything
    r = corpus_etl(sf, out)
    assert r["skipped"] == r["parts"] and r["rows_written"] == 0
    # diverged inputs: a third file appears → refuse, don't remap
    pq_.write_table(
        pa.table({"doc_id": [999999], "text": ["the new doc"]}),
        os.path.join(doc_dir, "aa-early.parquet"),
    )
    with _pytest.raises(ValueError, match="resume refused"):
        corpus_etl(sf, out)


def test_span_dedup_etl_phase2(ray_session, multi_frag_input, tmp_path):
    """Phase-2 global substring dedup: output matches the
    remove_duplicate_spans stage run directly on the phase-1 corpus,
    a completed publish is skipped on re-run (_SUCCESS), and a torn
    publish (no _SUCCESS) is redone."""
    import pandas as pd
    import ray

    from searchengine_ray.pipelines.export import corpus_etl, span_dedup_etl
    from searchengine_ray.stages.spans import remove_duplicate_spans

    clean_dir = str(tmp_path / "corpus")
    corpus_etl(multi_frag_input, clean_dir)
    out = str(tmp_path / "corpus_sd")
    r1 = span_dedup_etl(clean_dir, out)
    assert r1["skipped"] is False
    assert os.path.exists(os.path.join(out, "_SUCCESS"))
    got = (
        pq.ParquetDataset(
            [os.path.join(out, p) for p in os.listdir(out)
             if p.endswith(".parquet")]
        )
        .read()
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert (got["kept_tokens"] + got["cut_tokens"] == got["n_tokens"]).all()
    assert r1["rows_total"] == len(got)

    # direct-stage parity on the same input
    parts = [
        os.path.join(clean_dir, p)
        for p in sorted(os.listdir(clean_dir))
        if p.startswith("part-") and p.endswith(".parquet")
    ]
    want = (
        remove_duplicate_spans(
            ray.data.read_parquet(parts, columns=["doc_id", "text"]), K=8
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[["doc_id", "n_tokens", "cut_tokens", "kept_tokens"]],
        want[["doc_id", "n_tokens", "cut_tokens", "kept_tokens"]],
        check_dtype=False,
    )
    assert (got["text"] == want["text_clean"]).all()

    # completed publish skips
    r2 = span_dedup_etl(clean_dir, out)
    assert r2["skipped"] is True and r2["rows_total"] == r1["rows_total"]

    # torn publish (no _SUCCESS) is redone
    os.remove(os.path.join(out, "_SUCCESS"))
    r3 = span_dedup_etl(clean_dir, out)
    assert r3["skipped"] is False
    assert os.path.exists(os.path.join(out, "_SUCCESS"))


def test_span_dedup_etl_empty_corpus(ray_session, tmp_path):
    """A zero-row cleaned corpus publishes ``_SUCCESS`` with zero
    token stats, and a rerun is skipped with the same stats."""
    import pyarrow as pa

    from searchengine_ray.pipelines.export import _span_stats, span_dedup_etl

    clean_dir = tmp_path / "corpus"
    clean_dir.mkdir()
    src = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    pq.write_table(
        src.select(["doc_id", "text"]).slice(0, 0),
        str(clean_dir / "part-00000.parquet"),
    )
    out = str(tmp_path / "corpus_sd")
    zeros = {"rows_total": 0, "cut_tokens": 0, "kept_tokens": 0}
    assert span_dedup_etl(str(clean_dir), out) == {"skipped": False, **zeros}
    assert os.path.exists(os.path.join(out, "_SUCCESS"))
    assert span_dedup_etl(str(clean_dir), out) == {"skipped": True, **zeros}
    # a published part with no rows: the fold's NULL sums count as 0
    pq.write_table(
        pa.table({"cut_tokens": pa.array([], pa.int64()),
                  "kept_tokens": pa.array([], pa.int64())}),
        os.path.join(out, "part-0.parquet"),
    )
    assert _span_stats(out) == zeros


def _mk_warc_record(url: str, html: str, wtype: str = "response") -> bytes:
    http = (
        b"HTTP/1.1 200 OK\r\nContent-Type: text/html; charset=utf-8\r\n"
        b"\r\n" + html.encode()
    )
    head = (
        f"WARC/1.0\r\nWARC-Type: {wtype}\r\n"
        f"WARC-Target-URI: {url}\r\n"
        f"Content-Length: {len(http)}\r\n"
    ).encode()
    return head + b"\r\n" + http + b"\r\n\r\n"


def test_warc_and_gzip_ingest(ray_session, tmp_path):
    """WARC (plain + .gz multi-member) and .jsonl.gz land as canonical
    documents parts; non-response and non-HTML records are skipped;
    HTML is tag-stripped with script/style dropped."""
    import gzip
    import json as json_mod

    import pandas as pd

    from searchengine_ray.pipelines.ingest import ingest_documents, read_warc

    d = tmp_path / "in"
    d.mkdir()
    recs = [
        _mk_warc_record(
            "http://a.example.org/p1",
            "<html><head><title>T1</title><script>no()</script></head>"
            "<body><p>Hello &amp; welcome</p></body></html>",
        ),
        _mk_warc_record("http://a.example.org/meta", "x", wtype="request"),
        _mk_warc_record(
            "http://b.example.org/p2",
            "<html><body>Second <b>page</b></body></html>",
        ),
    ]
    (d / "crawl.warc").write_bytes(b"".join(recs))
    # .warc.gz: per-record gzip members, the Common Crawl layout
    gz = b"".join(gzip.compress(r) for r in recs)
    (d / "crawl2.warc.gz").write_bytes(gz)
    with gzip.open(d / "docs.jsonl.gz", "wt") as f:
        for i in range(3):
            f.write(json_mod.dumps({"text": f"json doc {i}"}) + "\n")

    t = read_warc(str(d / "crawl.warc"))
    assert t.num_rows == 2  # request record skipped
    texts = t["text"].to_pylist()
    assert "Hello & welcome" in texts[0] and "no()" not in texts[0]
    assert "T1" in texts[0]  # title text survives the tag strip
    assert texts[1] == "Second page"
    assert t["source"].to_pylist() == ["a.example.org", "b.example.org"]

    out = str(tmp_path / "docs")
    r = ingest_documents(str(d), out)
    assert r["files"] == 3 and r["rows_total"] == 2 + 2 + 3
    parts = [
        os.path.join(out, p) for p in sorted(os.listdir(out))
        if p.endswith(".parquet")
    ]
    got = pd.concat([pq.read_table(p).to_pandas() for p in parts])
    assert set(got.columns) == {"doc_id", "source", "text"}
    assert got["doc_id"].is_unique
    # resume skips everything
    r2 = ingest_documents(str(d), out)
    assert r2["skipped"] == 3 and r2["rows_written"] == 0


def test_truncated_warc_is_reported_and_not_committed(ray_session, tmp_path):
    """A .warc cut off mid-record reports the unreadable record's byte
    offset instead of dropping it silently; the file is not committed,
    so a re-ingest of the completed file picks it up."""
    from searchengine_ray.pipelines.ingest import (
        ingest_documents,
        read_warc,
        warc_skipped,
    )

    recs = [
        _mk_warc_record(f"http://h{i}.example.org/p", f"<p>page {i}</p>")
        for i in range(3)
    ]
    whole = b"".join(recs)
    cut_at = len(recs[0]) + len(recs[1])  # the third record starts here
    d = tmp_path / "in"
    d.mkdir()
    warc = d / "crawl.warc"
    warc.write_bytes(whole[: cut_at + 60])

    t = read_warc(str(warc))
    assert t["text"].to_pylist() == ["page 0", "page 1"]
    assert warc_skipped(t) == [cut_at]

    out = str(tmp_path / "docs")
    r = ingest_documents(str(d), out)
    assert r["incomplete"] == {str(warc): [cut_at]}
    assert r["rows_written"] == 0 and r["rows_total"] == 0
    assert not [p for p in os.listdir(out) if p.endswith(".parquet")]

    # the writer finishes the file: the re-ingest commits all 3 records
    warc.write_bytes(whole)
    assert warc_skipped(read_warc(str(warc))) == []
    r2 = ingest_documents(str(d), out)
    assert r2["skipped"] == 0 and r2["incomplete"] == {}
    assert r2["rows_written"] == r2["rows_total"] == 3


def test_warc_bad_boundary_and_missing_length_are_counted(tmp_path):
    """Each unreadable record is counted at its own offset, and the
    walk resumes at the next record."""
    from searchengine_ray.pipelines.ingest import read_warc, warc_skipped

    good = [
        _mk_warc_record(f"http://h{i}.example.org/p", f"<p>page {i}</p>")
        for i in range(3)
    ]
    garbage = b"not a warc header\r\nstill not\r\n\r\n"
    no_len = good[1].replace(b"Content-Length", b"X-Length")
    body = good[0] + garbage + no_len + good[2]
    (tmp_path / "bad.warc").write_bytes(body)
    t = read_warc(str(tmp_path / "bad.warc"))
    assert t["text"].to_pylist() == ["page 0", "page 2"]
    assert warc_skipped(t) == [len(good[0]), len(good[0]) + len(garbage)]


def test_span_dedup_etl_at_three_partitions(
    ray_session, three_partitions, multi_frag_input, tmp_path
):
    """Both span-dedup checks above with every keyed shuffle at 3
    partitions (the pad / sort path) instead of one."""
    (tmp_path / "phase2").mkdir()
    (tmp_path / "empty").mkdir()
    test_span_dedup_etl_phase2(ray_session, multi_frag_input, tmp_path / "phase2")
    test_span_dedup_etl_empty_corpus(ray_session, tmp_path / "empty")
