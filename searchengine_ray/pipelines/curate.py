"""End-to-end training-corpus curation funnel (the flagship
composition a 100-TB pretraining pipeline runs daily):

    benchmark holdout → quality/langid clean gate → exact dedup →
    near-dup removal (Jaccard pairs + connected components) →
    benchmark decontamination (shared 8-grams) → deterministic
    train/val/test split → partitioned corpus write + manifest.

Every stage calls the one implementation its oracle-checked query
calls too: ``text.clean_gate`` (q37), ``dedup.exact_dedup`` (q10/q38),
``dedup.jaccard_pairs_from`` + ``cluster.neardup_drop`` (q18/q48),
``dedup.bench_ngram_hashes`` + ``shared_ngrams`` (q55) and
``sampling.split_of`` (q46) — composed here into ONE streaming
pipeline; the funnel itself is oracle-checked end-to-end as
``q63_curation_funnel`` (one DuckDB CTE chain restates all six
stages).

Scale shape:
* The cleaned working set is materialized ONCE (at 100 TB this is the
  persisted intermediate every multi-pass funnel checkpoints anyway);
  downstream passes stream over it.
* Exact dedup is the combiner-first keyed shuffle from
  ``stages/dedup.exact_dedup`` (only (hash, id, count)+projection ride
  the shuffle).
* Near-dup pairs use q18's distributed shingle-shuffle engine over the
  survivor set; the resulting DROP set (cluster members minus
  canonicals) is a tiny fraction of the corpus, so it broadcasts into
  a sorted-set membership filter (``text.in_sorted``, the q48
  pattern) — swap for the bloom semi-join (q51 machinery) if a corpus
  ever has a near-dup majority.
* Decontamination broadcasts the benchmark's sorted 8-gram hash array
  (eval suites are the SMALL side at any scale) and streams the corpus
  through one membership pass (q55).
* The final corpus is written as partitioned parquet via
  ``Dataset.write_parquet`` with a JSON manifest of per-stage counts
  (the funnel audit trail).

Reference analog: the reference has no curation tier (its only dedup
is URL identity, ``SearchEngine.h:814-835``); this module is charter
scope ("the operations a large-scale training-data pipeline needs").
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd

from ..sources.storage import read_parquet
from ..stages.cluster import neardup_drop
from ..stages.dedup import (
    bench_ngram_hashes,
    exact_dedup,
    is_bench,
    jaccard_pairs_from,
    phash_dedup,
    phash_near_pairs,
    shared_ngrams,
)
from ..stages.keyed import combine, materialize
from ..stages.sampling import split_of
from ..stages.text import clean_gate, in_sorted


def _clean_gate(b: pd.DataFrame) -> pd.DataFrame:
    """The benchmark holdout out, then the shared clean gate; keeps the
    corpus payload columns."""
    b = b[~is_bench(b["doc_id"])]
    return clean_gate(b)[["doc_id", "text", "source", "n_tokens"]]


def image_curation_funnel(
    images,
    out_dir: str | None = None,
    min_side: int = 8,
    max_aspect: int = 4,
    max_hamming: int = 6,
):
    """Image-corpus analog of the text funnel, over the input_hint
    table ``(image_id, bytes, w, h, fmt, caption, phash)``:

        decode-validate (bytes must decode; recomputed phash must
        match the stored column — a data-integrity gate) →
        size/aspect gate → phash exact dedup → Hamming-near-dup
        cluster removal (band LSH + connected components) →
        deterministic split.

    ``images`` is a ``pyarrow.Table`` or ``ray.data.Dataset``.
    Returns per-(split, fmt) survivor counts; with ``out_dir`` writes
    the curated image metadata (WITHOUT bytes — the payload stays in
    its store, the curated set is an id list + metadata, exactly how
    a 100-TB image corpus is curated) plus ``MANIFEST.json``.

    Scale notes: decode runs as streamed ``map_batches`` over Arrow
    (bytes never transit pandas); the dedup shuffles carry only
    (phash, id, metadata) — ``bytes`` is dropped before the first
    shuffle; near-dup drop ids broadcast (tiny side)."""
    import pyarrow as pa
    import ray
    import ray.data

    from ..sources.codec import decode_image, phash64

    ds = (
        ray.data.from_arrow(images)
        if isinstance(images, pa.Table)
        else images
    )
    n_raw = ds.count()

    def validate(b: pa.Table) -> pa.Table:
        ok = np.zeros(len(b), bool)
        for i in range(len(b)):  # decode is inherently per-payload
            try:
                px, _ = decode_image(b["bytes"][i].as_py())
                ok[i] = (
                    phash64(px) == b["phash"][i].as_py()
                    and px.shape[0] == b["h"][i].as_py()
                    and px.shape[1] == b["w"][i].as_py()
                )
            except Exception:
                ok[i] = False
        w = b["w"].to_numpy().astype(np.int64)
        h = b["h"].to_numpy().astype(np.int64)
        side_ok = (np.minimum(w, h) >= min_side) & (
            np.maximum(w, h) <= max_aspect * np.minimum(w, h)
        )
        keep = ok & side_ok
        # bytes are dropped HERE — nothing downstream ships payloads
        out = b.select(
            ["image_id", "w", "h", "fmt", "caption", "phash"]
        ).filter(pa.array(keep))
        iid = pa.array(
            [int(s[3:]) for s in out["image_id"].to_pylist()], pa.int64()
        )
        return out.append_column("iid", iid)

    valid = materialize(ds.map_batches(validate, batch_format="pyarrow"))
    n_valid = valid.count()

    survivors = materialize(phash_dedup(valid, keep_cols=["iid", "w", "h", "fmt", "caption"]))
    n_exact = survivors.count()

    pairs = phash_near_pairs(
        survivors, id_col="iid", max_hamming=max_hamming
    )
    nd_drop = neardup_drop(pairs, "id_a", "id_b")
    drop_ref = ray.put(nd_drop)

    def finalize(b: pd.DataFrame) -> pd.DataFrame:
        b = b[~in_sorted(b["iid"].to_numpy(np.int64), ray.get(drop_ref))]
        return b.assign(split=split_of(b["iid"]))

    final_ds = survivors.map_batches(finalize, batch_format="pandas")
    if out_dir is not None:
        final_ds = materialize(final_ds)

    counts = combine(final_ds, ["split", "fmt"], {"n_images": ("iid", "count")})
    counts = counts.sort_values(["split", "fmt"]).reset_index(drop=True)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        final_ds.select_columns(
            ["image_id", "w", "h", "fmt", "caption", "phash", "split"]
        ).write_parquet(out_dir)
        manifest = {
            "stages": {
                "raw": int(n_raw),
                "decoded_and_sized": int(n_valid),
                "phash_exact_dedup": int(n_exact),
                "neardup_dropped": int(len(nd_drop)),
                "final": int(counts["n_images"].sum()),
            },
            "splits": {
                s: int(n)
                for s, n in counts.groupby("split")["n_images"].sum().items()
            },
        }
        with open(os.path.join(out_dir, "MANIFEST.json"), "w") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)

    return counts


def curation_funnel(sf_dir: str, out_dir: str | None = None):
    """Run the funnel; returns the per-(split, source) survivor table
    ``(split, source, n_docs, n_tokens)``.  With ``out_dir``, also
    writes the final corpus as parquet plus ``MANIFEST.json`` with the
    per-stage funnel counts."""
    import ray

    ds = read_parquet(
        os.path.join(sf_dir, "documents.parquet"), ["doc_id", "text", "source"]
    )

    # stages 0-1: benchmark holdout + clean gate (one pass), kept as
    # the funnel's working set
    cleaned = materialize(ds.map_batches(_clean_gate, batch_format="pandas"))
    n_cleaned = cleaned.count()

    # stage 2: exact dedup (min-doc_id survivor per content hash)
    survivors = materialize(exact_dedup(cleaned, keep_cols=["text", "source", "n_tokens"]))
    n_exact = survivors.count()

    # stage 3: near-dup clusters among the exact survivors; drop every
    # cluster member except the canonical (min doc_id)
    nd_drop = neardup_drop(jaccard_pairs_from(survivors))

    # stage 4 small side: benchmark 8-gram hash set (raw holdout docs)
    bench_arr = bench_ngram_hashes(ds)

    drop_ref = ray.put(nd_drop)
    bench_ref = ray.put(bench_arr)

    def finalize(b: pd.DataFrame) -> pd.DataFrame:
        b = b[~in_sorted(b["doc_id"].to_numpy(np.int64), ray.get(drop_ref))]
        b = b[shared_ngrams(b["text"], ray.get(bench_ref)) == 0]
        return b.assign(split=split_of(b["doc_id"]))

    final_ds = survivors.map_batches(finalize, batch_format="pandas")
    if out_dir is not None:
        final_ds = materialize(final_ds)

    counts = combine(
        final_ds,
        ["split", "source"],
        {"n_docs": ("doc_id", "count"), "n_tokens": ("n_tokens", "sum")},
    )
    counts = counts.sort_values(["split", "source"]).reset_index(drop=True)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        final_ds.select_columns(
            ["doc_id", "text", "source", "n_tokens", "split"]
        ).write_parquet(out_dir)
        manifest = {
            "sf_dir": sf_dir,
            "stages": {
                "cleaned": int(n_cleaned),
                "exact_dedup": int(n_exact),
                "neardup_dropped": int(len(nd_drop)),
                "final": int(counts["n_docs"].sum()),
            },
            "bench_ngrams": int(len(bench_arr)),
            "splits": {
                s: int(n)
                for s, n in counts.groupby("split")["n_docs"].sum().items()
            },
        }
        with open(os.path.join(out_dir, "MANIFEST.json"), "w") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)

    return counts
