"""Resumable partitioned-output ETL: documents → cleaned corpus.

The charter's sink rule: write partitioned output (one part per input
fragment) with a per-part commit, so a failed run re-does only the
uncommitted parts — never one giant file, never a whole-job restart.
The crawl engine already follows it for payload/log writes
(``pipelines/crawl.py`` epoch dirs, atomic rename = commit); this is
the Ray Data-side equivalent for the corpus pipelines.

Unit of work and of commit: one input parquet *fragment* (file ×
row-group) — the shape that holds at 100 TB, where the input is many
thousands of files and a resume must skip finished fragments without
re-reading them.  Each fragment task: read ONLY its row group (column-
pruned) → clean (``text.clean_gate``) → write ``part-K.parquet`` via
tmp + atomic rename (the commit point).  Fragments run as parallel Ray
tasks (the Dataset API has no per-fragment commit; this is the
documented raw-task exception).

``text.clean_gate`` is the gate the oracle-checked ``q37_clean_corpus``
calls; the ETL output additionally keeps the text column — it IS the
cleaned corpus, not just its ids.
"""

from __future__ import annotations

import os

import pandas as pd
import pyarrow.parquet as pq

from ..sources.storage import read_parquet
from ..stages.text import clean_gate


def _fragments(sf_dir: str) -> list[tuple[str, int]]:
    """(file, row_group) units over the documents table — the
    resumable work list.  Deterministic order → stable part ids."""
    path = os.path.join(sf_dir, "documents.parquet")
    out = []
    for f in sorted([path] if os.path.isfile(path) else [
        os.path.join(path, x) for x in os.listdir(path) if x.endswith(".parquet")
    ]):
        for rg in range(pq.ParquetFile(f).num_row_groups):
            out.append((f, rg))
    return out


def _etl_fragment(file: str, rg: int, out_dir: str, k: int) -> int:
    """One fragment: row-group read (column-pruned) → clean → atomic
    part write.  Runs as a Ray task; returns kept-row count."""
    tbl = pq.ParquetFile(file).read_row_group(rg, columns=["doc_id", "text"])
    kept = clean_gate(tbl.to_pandas())
    part = os.path.join(out_dir, f"part-{k:05d}.parquet")
    tmp = part + ".tmp"
    import pyarrow as pa

    pq.write_table(pa.Table.from_pandas(kept, preserve_index=False), tmp)
    os.replace(tmp, part)  # commit point
    return len(kept)


def check_worklist(out_dir: str, units: list[str]) -> None:
    """Pin the resumable work list to the output directory.

    Part numbers are positional over the unit list, so a resume
    against a CHANGED input set (file added/removed, row-group count
    moved) would silently map committed part numbers onto different
    fragments — data loss with no error.  First run writes
    ``_WORKLIST.json`` (atomic rename); a resume compares the current
    unit list against it and refuses to proceed on any divergence."""
    import json

    wl = os.path.join(out_dir, "_WORKLIST.json")
    if os.path.exists(wl):
        with open(wl) as f:
            prev = json.load(f)
        if prev != units:
            raise ValueError(
                f"resume refused: input work list diverged from {wl} "
                f"({len(prev)} recorded vs {len(units)} current units); "
                "the committed part numbers would map onto different "
                "fragments — use a fresh out_dir or restore the inputs"
            )
        return
    tmp = wl + ".tmp"
    with open(tmp, "w") as f:
        json.dump(units, f)
    os.replace(tmp, wl)


def span_dedup_etl(in_dir: str, out_dir: str, K: int = 8) -> dict:
    """Phase-2 ETL: GLOBAL substring dedup over a cleaned corpus
    directory (Lee et al. 2021 semantics via
    ``stages.spans.remove_duplicate_spans`` — every duplicated K-gram
    span cut except the corpus-wide first occurrence).  NOTE: the
    output ``text`` is token-NORMALIZED (lowercased ``[a-z0-9]+``
    runs, space-joined) for EVERY doc, including ones with no cut —
    the span stage re-serializes from its tokenizer's stream; treat
    the phase-2 corpus as training text, not archival text.

    Commit semantics differ from phase 1 BY NECESSITY: the transform
    is global (any doc's output depends on every other doc), so there
    is no per-fragment unit a resume could skip.  Instead the phase is
    idempotent with an all-or-nothing commit: the Dataset streams
    through ``write_parquet`` into ``<out>.tmp`` (many parts, Ray-
    managed), a ``_SUCCESS`` marker is written, and the directory is
    published by one atomic rename.  A crashed run leaves only a
    ``.tmp`` dir that the next run clears; a completed run is detected
    by ``_SUCCESS`` and skipped entirely."""
    import shutil

    from ..stages.spans import remove_duplicate_spans

    if os.path.exists(os.path.join(out_dir, "_SUCCESS")):
        return {"skipped": True, **_span_stats(out_dir)}
    if os.path.exists(out_dir):  # torn publish (no _SUCCESS): redo
        shutil.rmtree(out_dir)
    tmp = out_dir.rstrip("/") + ".tmp"
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    parts = [
        os.path.join(in_dir, p)
        for p in sorted(os.listdir(in_dir))
        if p.startswith("part-") and p.endswith(".parquet")
    ]
    ds = read_parquet(parts, columns=["doc_id", "text"])
    clean = remove_duplicate_spans(ds, K=K)

    def finalize(b: pd.DataFrame) -> pd.DataFrame:
        out = b[["doc_id", "text_clean", "n_tokens", "cut_tokens",
                 "kept_tokens"]].copy()
        return out.rename(columns={"text_clean": "text"})

    clean.map_batches(finalize, batch_format="pandas").write_parquet(tmp)
    os.makedirs(tmp, exist_ok=True)  # an empty Dataset writes no directory
    with open(os.path.join(tmp, "_SUCCESS"), "w") as f:
        f.write("")
    os.replace(tmp, out_dir)  # commit point
    return {"skipped": False, **_span_stats(out_dir)}


def _span_stats(out_dir: str) -> dict:
    """Token accounting of a published span-dedup directory — one
    global ``keyed.combine`` fold over just the two int columns (never
    a driver-side materialization of corpus-length arrays); an empty
    corpus (no parts, or parts with no rows) counts zeros."""
    from ..stages.keyed import combine

    parts = [
        os.path.join(out_dir, p)
        for p in os.listdir(out_dir)
        if p.endswith(".parquet")
    ]
    stats = {"rows_total": 0, "cut_tokens": 0, "kept_tokens": 0}
    if not parts:
        return stats
    ds = read_parquet(parts, columns=["cut_tokens", "kept_tokens"])
    row = combine(ds, [], {
        "rows_total": ("cut_tokens", "count"),
        "cut_tokens": ("cut_tokens", "sum"),
        "kept_tokens": ("kept_tokens", "sum"),
    }).iloc[0]
    return {k: 0 if pd.isna(row[k]) else int(row[k]) for k in stats}


def corpus_etl(sf_dir: str, out_dir: str) -> dict:
    """Run (or resume) the corpus ETL.  Returns {parts, skipped, rows}.

    A part-K parquet that already exists is a committed fragment —
    skipped on resume (the atomic rename guarantees no torn parts;
    a crash mid-write leaves only a ``.tmp`` that is ignored and
    overwritten).  The fragment list is pinned via ``check_worklist``
    so a resume against changed inputs fails loudly."""
    import ray

    os.makedirs(out_dir, exist_ok=True)
    # clear uncommitted garbage from a crashed run: a .tmp is by
    # definition a torn write (the atomic rename never published it),
    # and a directory-globbing consumer must never see it
    for p in os.listdir(out_dir):
        if p.endswith(".tmp"):
            os.remove(os.path.join(out_dir, p))
    frags = _fragments(sf_dir)
    check_worklist(out_dir, [f"{f}::rg{rg}" for f, rg in frags])
    task = ray.remote(num_cpus=1)(_etl_fragment)
    futs, skipped = [], 0
    for k, (f, rg) in enumerate(frags):
        if os.path.exists(os.path.join(out_dir, f"part-{k:05d}.parquet")):
            skipped += 1
            continue
        futs.append(task.remote(f, rg, out_dir, k))
    written = sum(ray.get(futs)) if futs else 0
    total = sum(
        pq.ParquetFile(os.path.join(out_dir, p)).metadata.num_rows
        for p in sorted(os.listdir(out_dir))
        if p.startswith("part-") and p.endswith(".parquet")
    )
    return {"parts": len(frags), "skipped": skipped,
            "rows_written": written, "rows_total": total}
