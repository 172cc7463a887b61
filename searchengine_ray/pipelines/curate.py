"""End-to-end training-corpus curation funnel (the flagship
composition a 100-TB pretraining pipeline runs daily):

    benchmark holdout → quality/langid clean gate → exact dedup →
    near-dup removal (Jaccard pairs + connected components) →
    benchmark decontamination (shared 8-grams) → deterministic
    train/val/test split → partitioned corpus write + manifest.

Every stage is an already-oracle-checked operator (q37 clean, q10/q38
exact dedup, q18/q47/q48 near-dup clusters, q55 decontamination, q46
split), composed here into ONE streaming pipeline; the funnel itself
is oracle-checked end-to-end as ``q63_curation_funnel`` (one DuckDB
CTE chain restates all six stages).

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
  a vectorized ``isin`` filter (the q48 pattern) — swap for the bloom
  semi-join (q51 machinery) if a corpus ever has a near-dup majority.
* Decontamination broadcasts the benchmark's sorted 8-gram hash array
  (eval suites are the SMALL side at any scale) and streams the corpus
  through one ``searchsorted`` membership pass (q55).
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

BENCH_MOD = 7  # doc_id % 7 == 0 → held-out benchmark set (q55 stand-in)
DECON_K = 8  # shared-n-gram order for decontamination
NEARDUP_K = 5  # shingle order for near-dup pairs
NEARDUP_THRESHOLD = 0.5
SPLIT_TRAIN = int(0.8 * (1 << 32))
SPLIT_VAL = int(0.9 * (1 << 32))


def _clean_gate(b: pd.DataFrame) -> pd.DataFrame:
    """q37's oracle-checked clean gate (integer-ppm thresholds), minus
    the benchmark holdout; keeps the corpus payload columns."""
    from ..stages import text as tx

    b = b[b["doc_id"].to_numpy(np.int64) % BENCH_MOD != 0]
    if not len(b):
        return pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype="int64"),
                "text": pd.Series([], dtype="object"),
                "source": pd.Series([], dtype="object"),
                "n_tokens": pd.Series([], dtype="int64"),
            }
        )
    p = tx.text_profile(b["text"], with_distinct=False)
    n = pd.Series(p["n_tokens"], index=b.index)
    nc = np.maximum(p["n_tokens"], 1)
    stop_ppm = p["stop_cnt"] * 1_000_000 // nc
    mean_len_ppm = p["tok_chars"] * 1_000_000 // nc
    keep = (
        (p["lang_pred"] == "en")
        & (p["n_tokens"] >= 5)
        & (stop_ppm <= 500_000)
        & (mean_len_ppm >= 2_000_000)
    )
    out = pd.DataFrame(
        {
            "doc_id": b["doc_id"].astype("int64"),
            "text": b["text"],
            "source": b["source"],
            "n_tokens": n,
        }
    )
    return out[keep]


def _bench_ngram_hashes(ds) -> np.ndarray:
    """Distinct DECON_K-gram hashes of the RAW benchmark holdout docs,
    as one sorted uint64 array (the broadcast side)."""
    from ..stages.dedup import _distinct_shingles

    def bench(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["doc_id"].to_numpy(np.int64) % BENCH_MOD == 0]
        _d, sh, _l = _distinct_shingles(b["text"], DECON_K, short_fallback=False)
        return pd.DataFrame({"h": np.unique(sh).view(np.int64)})

    pdf = ds.map_batches(bench, batch_format="pandas").to_pandas()
    return np.unique(pdf["h"].to_numpy(np.int64).view(np.uint64))


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
    from ..stages.cluster import connected_components
    from ..stages.dedup import phash_dedup, phash_near_pairs
    from ..stages.keyed import combine

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

    valid = ds.map_batches(validate, batch_format="pyarrow").materialize()
    n_valid = valid.count()

    survivors = phash_dedup(
        valid, keep_cols=["iid", "w", "h", "fmt", "caption"]
    ).materialize()
    n_exact = survivors.count()

    pairs = phash_near_pairs(
        survivors, id_col="iid", max_hamming=max_hamming
    )
    if isinstance(pairs, ray.data.Dataset):
        pairs = pairs.to_pandas()
    if len(pairs):
        cl = connected_components(
            ray.data.from_pandas(
                pairs[["id_a", "id_b"]].rename(
                    columns={"id_a": "ia", "id_b": "ib"}
                )
            )
        ).to_pandas()
        nd_drop = np.sort(
            cl.loc[cl["doc_id"] != cl["cluster_id"], "doc_id"].to_numpy(
                np.int64
            )
        )
    else:
        nd_drop = np.zeros(0, np.int64)
    drop_ref = ray.put(nd_drop)

    def finalize(b: pd.DataFrame) -> pd.DataFrame:
        drop = ray.get(drop_ref)
        ids = b["iid"].to_numpy(np.int64)
        if len(drop):
            pos = np.searchsorted(drop, ids)
            keep = ~(
                (pos < len(drop))
                & (drop[np.minimum(pos, len(drop) - 1)] == ids)
            )
            b = b[keep]
            ids = ids[keep]
        h = (ids.astype(np.uint64) * np.uint64(2654435761)) % np.uint64(
            1 << 32
        )
        split = np.where(
            h < np.uint64(SPLIT_TRAIN),
            "train",
            np.where(h < np.uint64(SPLIT_VAL), "val", "test"),
        )
        return b.assign(split=split)

    final_ds = survivors.map_batches(finalize, batch_format="pandas")
    if out_dir is not None:
        final_ds = final_ds.materialize()

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

    from ..stages.cluster import connected_components
    from ..stages.dedup import _distinct_shingles, exact_dedup
    from ..stages.keyed import combine
    from .queries import _read, jaccard_pairs_from

    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])

    # stages 0-1: benchmark holdout + clean gate (one pass), kept as
    # the funnel's working set
    cleaned = ds.map_batches(_clean_gate, batch_format="pandas").materialize()
    n_cleaned = cleaned.count()

    # stage 2: exact dedup (min-doc_id survivor per content hash)
    survivors = exact_dedup(
        cleaned, keep_cols=["text", "source", "n_tokens"]
    ).materialize()
    n_exact = survivors.count()

    # stage 3: near-dup clusters among the exact survivors; drop every
    # cluster member except the canonical (min doc_id)
    pairs = jaccard_pairs_from(
        survivors, K=NEARDUP_K, threshold=NEARDUP_THRESHOLD
    )
    if len(pairs):
        import ray.data

        cl = connected_components(
            ray.data.from_pandas(pairs[["ia", "ib"]])
        ).to_pandas()
        nd_drop = cl.loc[cl["doc_id"] != cl["cluster_id"], "doc_id"].to_numpy(
            np.int64
        )
    else:
        nd_drop = np.zeros(0, np.int64)

    # stage 4 small side: benchmark 8-gram hash set (raw holdout docs)
    bench_arr = _bench_ngram_hashes(ds)

    drop_ref = ray.put(np.sort(nd_drop))
    bench_ref = ray.put(bench_arr)

    def finalize(b: pd.DataFrame) -> pd.DataFrame:
        drop = ray.get(drop_ref)
        bench = ray.get(bench_ref)
        ids = b["doc_id"].to_numpy(np.int64)
        keep = np.ones(len(b), bool)
        if len(drop):
            pos = np.searchsorted(drop, ids)
            keep &= ~(
                (pos < len(drop)) & (drop[np.minimum(pos, len(drop) - 1)] == ids)
            )
        b = b[keep]
        if len(bench) and len(b):
            didx, sh, _l = _distinct_shingles(
                b["text"], DECON_K, short_fallback=False
            )
            if len(sh):
                pos = np.searchsorted(bench, sh)
                hit = (pos < len(bench)) & (
                    bench[np.minimum(pos, len(bench) - 1)] == sh
                )
                bad = np.unique(didx[hit])
                mask = np.ones(len(b), bool)
                mask[bad] = False
                b = b[mask]
        if not len(b):
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    "text": pd.Series([], dtype="object"),
                    "source": pd.Series([], dtype="object"),
                    "n_tokens": pd.Series([], dtype="int64"),
                    "split": pd.Series([], dtype="object"),
                }
            )
        h = (
            b["doc_id"].to_numpy(np.int64).astype(np.uint64)
            * np.uint64(2654435761)
        ) % np.uint64(1 << 32)
        split = np.where(
            h < np.uint64(SPLIT_TRAIN),
            "train",
            np.where(h < np.uint64(SPLIT_VAL), "val", "test"),
        )
        return b.assign(split=split)

    final_ds = survivors.map_batches(finalize, batch_format="pandas")
    if out_dir is not None:
        final_ds = final_ds.materialize()

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
