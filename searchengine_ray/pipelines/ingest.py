"""External-source ingest: CSV / JSONL / parquet / WARC files (plus
gzip variants) → the canonical ``documents`` table shape, resumable
per input file.

The reference engine only ever reads its own KV store; a user moving a
pipeline onto this engine needs a way to LAND external corpora first.
This is that on-ramp: each input file becomes one committed output
part (tmp + atomic rename, exactly the ``export.corpus_etl`` sink
rule), so a failed 100 TB ingest resumes by skipping committed parts —
never one giant file, never a whole-job restart.

Schema normalization (the canonical documents contract —
``TESTDATA.md``: doc_id:int64, source:string, text:string):

* ``text``       — required; any of text/content/body is accepted.
* ``source``     — taken from the file if present, else the file stem.
* ``doc_id``     — taken from the file if present (cast to int64),
                   else derived deterministically as
                   ``fnv1a64(relative_file_name) XOR row_index``
                   (stable across re-runs and cluster sizes — ingest
                   twice, get identical ids).

Per-file tasks are raw ``ray.remote`` calls — the same documented
Dataset-API exception as ``export.py``: the unit of COMMIT is the
file, and Ray Data sinks have no per-input-file commit hook.  Reads
are pyarrow-native (``pyarrow.csv`` / ``pyarrow.json`` block readers),
so a worker never holds more than one file's columns.
"""

from __future__ import annotations

import json
import logging
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

logger = logging.getLogger(__name__)

_TEXT_ALIASES = ("text", "content", "body")

DOC_SCHEMA = pa.schema(
    [("doc_id", pa.int64()), ("source", pa.string()), ("text", pa.string())]
)


_INGEST_EXTS = (
    ".csv", ".tsv", ".json", ".jsonl", ".ndjson", ".parquet", ".pq",
    ".csv.gz", ".tsv.gz", ".json.gz", ".jsonl.gz", ".ndjson.gz",
    ".warc", ".warc.gz",
)


def _ingest_ext(path: str) -> str:
    """Extension including a trailing .gz (``os.path.splitext`` alone
    would report just ``.gz`` for ``corpus.jsonl.gz``)."""
    low = path.lower()
    for e in sorted(_INGEST_EXTS, key=len, reverse=True):
        if low.endswith(e):
            return e
    return os.path.splitext(low)[1]


def _read_any(path: str) -> pa.Table:
    ext = _ingest_ext(path)
    base = ext[:-3] if ext.endswith(".gz") else ext
    if base == ".warc":
        return read_warc(path)
    if base in (".csv", ".tsv"):
        import pyarrow.csv as pc_csv

        opts = pc_csv.ParseOptions(delimiter="\t" if base == ".tsv" else ",")
        # pa.input_stream decompresses gzip natively (compression
        # detected from the file name), so .csv.gz streams without a
        # temp file
        with pa.input_stream(path, compression="detect") as f:
            return pc_csv.read_csv(f, parse_options=opts)
    if base in (".json", ".jsonl", ".ndjson"):
        import pyarrow.json as pc_json

        with pa.input_stream(path, compression="detect") as f:
            return pc_json.read_json(f)
    if base in (".parquet", ".pq"):
        return pq.read_table(path)
    raise ValueError(f"unsupported ingest format: {path}")


_TAG_RE = None  # compiled lazily (module import stays light)


def _html_to_text(html: str) -> str:
    """Crude but deterministic HTML → text: drop comments/script/style
    (``stages.extract.shorten_html``), strip tags, unescape the common
    entities, collapse whitespace.  Good enough for a training-corpus
    on-ramp; NOT a layout-aware extractor."""
    import html as html_mod
    import re

    from ..stages.extract import shorten_html

    global _TAG_RE
    if _TAG_RE is None:
        _TAG_RE = re.compile(r"<[^>]*>")
    txt = _TAG_RE.sub(" ", shorten_html(html))
    return " ".join(html_mod.unescape(txt).split())


def read_warc(path: str) -> pa.Table:
    """Minimal WARC (ISO 28500) reader — the Common Crawl shape: parse
    ``WARC-Type: response`` records, peel the HTTP head off the block,
    keep ``text/html`` bodies, and emit (url, source=host, text) rows
    with text from the tag-stripping extractor above.

    Stdlib-only by design (no warcio in the runtime): records are
    ``headers CRLF CRLF block`` with the block length in
    ``Content-Length``; ``.warc.gz`` files are multi-member gzip
    streams, which ``gzip.open`` reads transparently.  One file is one
    ingest commit unit, same as every other format here.

    A record that cannot be read — a bad record boundary, no valid
    ``Content-Length``, or a block cut short by the end of the file — is
    never dropped silently: its byte offset (in the decompressed
    stream) is logged as a warning and listed in the result's schema
    metadata (read it with ``warc_skipped``), and the walk resumes at
    the next line that opens a WARC record."""
    import gzip
    import zlib

    from ..functions.urlkernel import split_host

    blank = (b"\r\n", b"\n")

    def _next_line(f, resync: bool = False) -> tuple[int, bytes]:
        """(offset, line) of the next record's first line: the next
        non-blank line, or (``resync``, after an unreadable record) the
        next line that opens a WARC record; b"" at EOF."""
        while True:
            at, ln = f.tell(), f.readline()
            if not ln or (ln.startswith(b"WARC/") if resync else ln not in blank):
                return at, ln

    # STREAMING record walk — one Content-Length-bounded block resident
    # at a time, never the whole (multi-GB decompressed) archive;
    # gzip.open reads .warc.gz's concatenated per-record members
    # transparently
    opener = gzip.open if path.lower().endswith(".gz") else open
    urls, sources, texts = [], [], []
    skipped: list[int] = []  # offsets of the records that could not be read
    at = 0
    try:
        with opener(path, "rb") as f:
            at, first = _next_line(f)
            while first:
                lines = [first]  # header lines, up to the blank line
                while (ln := f.readline()) and ln not in blank:
                    lines.append(ln)
                head = b"".join(lines).decode("utf-8", errors="replace")
                fields = {}
                for line in head.split("\r\n")[1:]:
                    k, _, v = line.partition(":")
                    fields[k.strip().lower()] = v.strip()
                try:
                    clen = int(fields["content-length"])
                except (KeyError, ValueError):
                    clen = -1
                ok = head.startswith("WARC/") and clen >= 0
                block = f.read(clen) if ok else b""
                if not ok or len(block) < clen:
                    skipped.append(at)
                    at, first = _next_line(f, resync=True)
                    continue
                at, first = _next_line(f)
                if fields.get("warc-type") != "response":
                    continue
                url = fields.get("warc-target-uri", "")
                http_end = block.find(b"\r\n\r\n")
                if http_end < 0:
                    continue
                http_head = block[:http_end].decode("utf-8", errors="replace")
                ctype = ""
                for line in http_head.split("\r\n")[1:]:
                    k, _, v = line.partition(":")
                    if k.strip().lower() == "content-type":
                        ctype = v.split(";")[0].strip().lower()
                if ctype not in ("text/html", "application/xhtml+xml"):
                    continue
                body = block[http_end + 4 :].decode("utf-8", errors="replace")
                urls.append(url)
                sources.append(split_host(url))
                texts.append(_html_to_text(body))
    except (EOFError, gzip.BadGzipFile, zlib.error):
        skipped.append(at)  # a .warc.gz cut off mid-member
    if skipped:
        logger.warning(
            "%s: skipped %d unreadable WARC record(s) at byte offset(s) %s",
            path, len(skipped), skipped,
        )
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "source": pa.array(sources, pa.string()),
            "text": pa.array(texts, pa.string()),
        }
    ).replace_schema_metadata({"warc_skipped": json.dumps(skipped)})


def warc_skipped(tbl: pa.Table) -> list[int]:
    """Byte offsets of the records ``read_warc`` could not read."""
    meta = tbl.schema.metadata or {}
    return json.loads(meta.get(b"warc_skipped", b"[]"))


def normalize_documents(tbl: pa.Table, file_name: str) -> pa.Table:
    """Normalize an arbitrary table to the canonical documents schema
    (vectorized; deterministic doc_id derivation when absent)."""
    from ..functions.hashing import fnv1a64

    cols = {c.lower(): c for c in tbl.column_names}
    text_col = next((cols[a] for a in _TEXT_ALIASES if a in cols), None)
    if text_col is None:
        raise ValueError(
            f"{file_name}: no text column (accepted: {_TEXT_ALIASES})"
        )
    n = len(tbl)
    text = tbl[text_col].cast(pa.string())

    if "source" in cols:
        source = tbl[cols["source"]].cast(pa.string())
    else:
        stem = os.path.splitext(os.path.basename(file_name))[0]
        source = pa.array(np.repeat(stem, n), pa.string())

    if "doc_id" in cols:
        doc_id = tbl[cols["doc_id"]].cast(pa.int64())
    else:
        base = np.uint64(fnv1a64(os.path.basename(file_name)))
        ids = (base ^ np.arange(n, dtype=np.uint64)).astype(np.int64)
        doc_id = pa.array(ids, pa.int64())

    return pa.table(
        {"doc_id": doc_id, "source": source, "text": text}, schema=DOC_SCHEMA
    )


def _ingest_file(path: str, out_dir: str, k: int) -> tuple[int, list[int]]:
    """→ (rows written, offsets of unreadable WARC records).  A file
    with unreadable records is NOT committed, so a re-ingest retries it
    (e.g. once a WARC still being written is complete)."""
    raw = _read_any(path)
    skipped = warc_skipped(raw)
    if skipped:
        return 0, skipped
    tbl = normalize_documents(raw, path)
    part = os.path.join(out_dir, f"part-{k:05d}.parquet")
    tmp = part + ".tmp"
    pq.write_table(tbl, tmp)
    os.replace(tmp, part)  # commit point
    return len(tbl), []


def ingest_documents(inputs: list[str] | str, out_dir: str) -> dict:
    """Run (or resume) an ingest of ``inputs`` (a directory or an
    explicit file list) into ``out_dir`` as canonical documents
    parts.  Returns {files, skipped, rows_written, rows_total,
    incomplete}: ``skipped`` counts files committed by an earlier run,
    ``incomplete`` maps each file left uncommitted because of unreadable
    WARC records to those records' byte offsets."""
    import ray

    if isinstance(inputs, str):
        inputs = sorted(
            os.path.join(inputs, f)
            for f in os.listdir(inputs)
            if _ingest_ext(f) in _INGEST_EXTS
        )
    os.makedirs(out_dir, exist_ok=True)
    for p in os.listdir(out_dir):
        if p.endswith(".tmp"):  # torn writes from a crashed run
            os.remove(os.path.join(out_dir, p))
    from .export import check_worklist

    check_worklist(out_dir, list(inputs))
    task = ray.remote(num_cpus=1)(_ingest_file)
    futs, skipped = [], 0
    for k, f in enumerate(inputs):
        if os.path.exists(os.path.join(out_dir, f"part-{k:05d}.parquet")):
            skipped += 1
            continue
        futs.append((f, task.remote(f, out_dir, k)))
    done = ray.get([fut for _f, fut in futs])
    written = sum(n for n, _s in done)
    incomplete = {f: s for (f, _fut), (_n, s) in zip(futs, done) if s}
    total = sum(
        pq.ParquetFile(os.path.join(out_dir, p)).metadata.num_rows
        for p in sorted(os.listdir(out_dir))
        if p.startswith("part-") and p.endswith(".parquet")
    )
    return {
        "files": len(inputs),
        "skipped": skipped,
        "rows_written": written,
        "rows_total": total,
        "incomplete": incomplete,
    }
