"""Exact duplicated-substring-span detection (training-data dedup).

The missing member of the dedup family: where ``stages/dedup.py``
removes whole near-duplicate DOCUMENTS, this operator finds duplicated
token SPANS — every maximal run of tokens whose K-gram windows occur
more than once anywhere in the corpus (the "Deduplicating Training
Data Makes Language Models Better" substring-dedup workload, Lee et
al. 2021, which the reference engine's whole-page MD5 dedup
(``SearchEngine.cpp:282-354`` buildContentMD5) cannot express).

Shape, 100-TB-first:

1. one ``map_batches`` pass tokenizes each doc ONCE and emits every
   K-gram window with its (doc_id, pos) through the package's one
   k-gram kernel, ``text.kgram_window_hashes``: an 8-byte Horner fold
   of the window's FNV-1a/64 token hashes (the shingle hash of q16 and
   q18), with windows that would cross a doc boundary masked out;
2. the K-gram rows hash-partition by gram hash, so each partition
   holds EVERY occurrence of its grams: one vectorized per-partition
   ``transform('size') > 1`` marks duplicated occurrences (global
   count, no second pass);
3. the surviving (doc_id, pos) rows — result-scale, not corpus-scale —
   re-partition by doc_id and one vectorized island pass merges
   overlapping/adjacent windows (pos_i - pos_{i-1} <= K) into maximal
   spans, reduced per doc to (n_spans, dup_tokens).

Only 24-byte (gram, doc, pos) rows ride the first shuffle — never
text; the second shuffle carries only duplicated positions.  Gram
equality is 64-bit-hash equality (collision odds ~2^-64 per gram
pair, the same trade documented for q18's shingle shuffle).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from . import text as tx
from .keyed import collect, keyed_map


def _gram_windows(ds, K: int):
    """(doc_id, pos, gram) row per K-gram window of ``ds``'s texts:
    24-byte rows, shuffled by ``gram``."""

    def windows(b: pa.Table) -> pa.Table:
        didx, pos, gh = tx.kgram_window_hashes(b["text"], K)
        doc_ids = b["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids[didx], pa.int64()),
                "pos": pa.array(pos, pa.int64()),
                "gram": pa.array(gh.view(np.int64)),
            }
        )

    return ds.map_batches(windows, batch_format="pyarrow")


def merge_positions_to_spans(
    doc: np.ndarray, pos: np.ndarray, K: int
) -> pd.DataFrame:
    """Merge duplicated window start positions into maximal spans:
    windows [p, p+K) and [q, q+K) coalesce when q - p <= K (overlap or
    touch).  Returns per-doc (doc_id, n_spans, dup_tokens) — one
    vectorized island pass, no per-doc loop."""
    if len(doc) == 0:
        return pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype="int64"),
                "n_spans": pd.Series([], dtype="int64"),
                "dup_tokens": pd.Series([], dtype="int64"),
            }
        )
    order = np.lexsort((pos, doc))
    d, p = doc[order], pos[order]
    new = np.ones(len(d), bool)
    new[1:] = (d[1:] != d[:-1]) | (p[1:] - p[:-1] > K)
    isl = np.cumsum(new) - 1
    start = p[new]
    end = np.maximum.reduceat(p, np.flatnonzero(new)) + K
    span_doc = d[new]
    out = pd.DataFrame(
        {"doc_id": span_doc, "len": (end - start).astype(np.int64)}
    )
    return out.groupby("doc_id", as_index=False).agg(
        n_spans=("len", "size"), dup_tokens=("len", "sum")
    )


def repetition_stats(texts) -> pd.DataFrame:
    """Gopher-style per-doc repetition signals (Rae et al. 2021 §A1.1
    quality rules), the repetition half of the clean gate that
    ``text.quality_score`` (length/stopword half) doesn't cover:

    - ``n_tokens``, ``top_unigram_n`` (count of the most frequent
      token — "fraction of most common word" rule),
    - ``n_bigrams``, ``top_bigram_n`` (most frequent bigram),
    - ``dup_bigram_n`` (occurrences of bigrams appearing >1 time in
      the doc — "fraction of duplicated n-grams" rule).

    Purely per-doc -> embarrassingly parallel; one tokenize pass per
    batch, then lexsort + run-length counting over the flat
    (doc, token-dictionary-index) stream — exact (no hashing), no
    per-doc Python loop.  Fractions are left to the caller so the
    output stays integer-exact for oracle comparison."""
    counts, idx, _dic, doc_of = tx.tokenize(texts)
    n = len(counts)
    top_uni = np.zeros(n, np.int64)
    n_bi = np.zeros(n, np.int64)
    top_bi = np.zeros(n, np.int64)
    dup_bi = np.zeros(n, np.int64)
    if len(idx):

        def _runs(same: np.ndarray, total: int):
            """run starts + lengths for a sorted stream."""
            new = np.ones(total, bool)
            new[1:] = ~same
            starts = np.flatnonzero(new)
            lens = np.diff(np.concatenate([starts, [total]]))
            return starts, lens

        # unigrams: runs of equal (doc, token)
        o = np.lexsort((idx, doc_of))
        d, t = doc_of[o], idx[o]
        starts, lens = _runs((d[1:] == d[:-1]) & (t[1:] == t[:-1]), len(o))
        np.maximum.at(top_uni, d[starts], lens)

        # bigrams: adjacent token pairs inside one doc
        if len(idx) >= 2:
            valid = doc_of[:-1] == doc_of[1:]
            if valid.any():
                bd = doc_of[:-1][valid]
                a, b = idx[:-1][valid], idx[1:][valid]
                o = np.lexsort((b, a, bd))
                d2, a2, b2 = bd[o], a[o], b[o]
                same = (
                    (d2[1:] == d2[:-1])
                    & (a2[1:] == a2[:-1])
                    & (b2[1:] == b2[:-1])
                )
                starts, lens = _runs(same, len(o))
                rd = d2[starts]
                np.add.at(n_bi, rd, lens)
                np.maximum.at(top_bi, rd, lens)
                dup = lens > 1
                np.add.at(dup_bi, rd[dup], lens[dup])
    return pd.DataFrame(
        {
            "n_tokens": counts,
            "top_unigram_n": top_uni,
            "n_bigrams": n_bi,
            "top_bigram_n": top_bi,
            "dup_bigram_n": dup_bi,
        }
    )


def remove_duplicate_spans(ds, K: int = 8, meta_cols: tuple = ()):
    """Substring DEDUP (the transform half of ``duplicate_spans``):
    rewrite the corpus with every duplicated token span cut except a
    globally-chosen first occurrence (Lee et al. 2021 semantics).

    Rule, deterministic on both the Ray and SQL sides: for each
    K-gram occurring >1 time in the corpus, the canonical occurrence
    is the lexicographic min (doc_id, pos); every OTHER occurrence is
    a cut window [pos, pos+K).  Cut windows union into covered token
    ranges per doc (overlap/touching windows coalesce, exactly the
    island rule of ``merge_positions_to_spans``); covered tokens are
    removed and the survivors re-serialized space-joined.  The output
    is a NORMALIZED training-corpus text, not a byte-identical
    document: tokens come from the lowercasing ``text.tokenize``
    kernel (the same normalization the SQL oracle's ``_TOKS`` uses),
    so casing, inter-token whitespace and punctuation outside
    ``[a-z0-9]+`` runs are all dropped — even for docs with zero
    duplicated spans.  Edge
    effect, shared with the reference algorithm: a cut window may
    overlap a canonical window of a DIFFERENT gram, so a canonical
    copy can lose tokens when its doc also holds cut windows nearby.

    100-TB shape: two shuffles.  (1) 24-byte (gram, doc, pos) rows
    hash-partition by gram — each partition sees every occurrence of
    its grams, so "non-first occurrence" is one sorted-adjacency test;
    (2) the cut rows (duplication-scale, not corpus-scale) and the
    doc rows co-partition by doc_id via a tagged union — the text
    rides this shuffle ONCE, and re-serialization is a vectorized
    coverage-mask + ``pc.binary_join`` per partition.

    Returns a Dataset of (doc_id, *meta_cols, n_tokens, cut_tokens,
    kept_tokens, text_clean) — corpus-sized; aggregate or write it,
    don't ``to_pandas`` it at scale."""
    meta_cols = tuple(meta_cols)

    _UN = pa.schema(
        [("role", pa.int8()), ("doc_id", pa.int64())]
        + [(c, pa.string()) for c in meta_cols]
        + [("text", pa.string()), ("pos", pa.int64())]
    )

    def cut_rows(g: pd.DataFrame) -> pa.Table:
        # partition is gram-complete; after a (gram, doc, pos) sort an
        # occurrence is CUT iff its gram equals the previous row's
        # (i.e. it is a non-first occurrence of a duplicated gram)
        o = g.sort_values(["gram", "doc_id", "pos"])
        grams = o["gram"].to_numpy()
        cut = np.zeros(len(o), bool)
        if len(o) > 1:
            cut[1:] = grams[1:] == grams[:-1]
        out = o[cut]
        doc = out["doc_id"].to_numpy(np.int64)
        cols = {
            "role": pa.array(np.ones(len(out), np.int8)),
            "doc_id": pa.array(doc, pa.int64()),
        }
        for c in meta_cols:
            cols[c] = pa.array([""] * len(out), pa.string())
        cols["text"] = pa.array([""] * len(out), pa.string())
        cols["pos"] = pa.array(out["pos"].to_numpy(np.int64), pa.int64())
        return pa.table(cols, schema=_UN)

    def doc_rows(b: pa.Table) -> pa.Table:
        doc = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        cols = {
            "role": pa.array(np.zeros(len(doc), np.int8)),
            "doc_id": pa.array(doc, pa.int64()),
        }
        for c in meta_cols:
            cols[c] = b[c].cast(pa.string())
        cols["text"] = b["text"].cast(pa.string())
        cols["pos"] = pa.array(np.full(len(doc), -1), pa.int64())
        return pa.table(cols, schema=_UN)

    def reserialize(g: pd.DataFrame) -> pa.Table:
        import pyarrow.compute as pc

        docs = g[g["role"] == 0]
        cuts = g[g["role"] == 1]
        nd = len(docs)
        tok = tx.tokenize(docs["text"])
        counts, idx, dic, doc_of = tok
        total = len(idx)
        covered = np.zeros(total, bool)
        if len(cuts) and total:
            pos_of = pd.Series(
                np.arange(nd), index=docs["doc_id"].to_numpy()
            )
            di = pos_of[cuts["doc_id"].to_numpy()].to_numpy()
            s = tok.starts[di] + cuts["pos"].to_numpy(np.int64)
            e = np.minimum(s + K, tok.starts[di] + counts[di])
            delta = np.zeros(total + 1, np.int64)
            np.add.at(delta, s, 1)
            np.add.at(delta, e, -1)
            covered = np.cumsum(delta[:-1]) > 0
        if total:
            cutc = np.bincount(
                doc_of[covered], minlength=nd
            ).astype(np.int64)
            keep = ~covered
            kept_per_doc = np.bincount(
                doc_of[keep], minlength=nd
            ).astype(np.int64)
            # large_string values: the gathered token stream (unlike
            # the small Zipfian dictionary) can exceed 2 GiB per
            # partition — 32-bit value offsets would overflow in take
            vals = dic.cast(pa.large_string()).take(
                pa.array(idx[keep], pa.int64())
            )
            # int64 offsets + LargeList: a doc-keyed partition can
            # hold >2^31 kept tokens at corpus scale, which would
            # overflow int32 ListArray offsets
            lst = pa.LargeListArray.from_arrays(
                pa.array(
                    np.concatenate([[0], np.cumsum(kept_per_doc)]),
                    pa.int64(),
                ),
                vals,
            )
            clean = pc.binary_join(
                lst, pa.scalar(" ", pa.large_string())
            ).to_pylist()
        else:
            cutc = np.zeros(nd, np.int64)
            clean = [""] * nd
        out = {"doc_id": docs["doc_id"].to_numpy(np.int64)}
        for c in meta_cols:
            out[c] = pa.array(docs[c].to_numpy(), pa.string())
        out["n_tokens"] = counts
        out["cut_tokens"] = cutc
        out["kept_tokens"] = counts - cutc
        out["text_clean"] = pa.array(clean, pa.string())
        return pa.table(out)

    cut_ds = keyed_map(_gram_windows(ds, K), ["gram"], cut_rows)
    docs_ds = ds.map_batches(doc_rows, batch_format="pyarrow")
    return keyed_map(docs_ds.union(cut_ds), ["doc_id"], reserialize)


def duplicate_spans(ds, K: int = 8) -> pd.DataFrame:
    """Corpus-wide duplicated-span report over a (doc_id, text)
    dataset: per doc, the count and total token coverage of maximal
    spans whose every K-gram occurs >1 time in the corpus (any doc,
    including the same one).  Docs with no duplicated span are absent
    from the output (result-sized)."""

    def dup_positions(g: pd.DataFrame) -> pd.DataFrame:
        # partition is gram-complete -> transform('size') is the
        # GLOBAL occurrence count of each gram
        keep = g.groupby("gram")["gram"].transform("size") > 1
        return g.loc[keep, ["doc_id", "pos"]]

    def doc_spans(g: pd.DataFrame) -> pd.DataFrame:
        return merge_positions_to_spans(
            g["doc_id"].to_numpy(np.int64), g["pos"].to_numpy(np.int64), K
        )

    dups = keyed_map(_gram_windows(ds, K), ["gram"], dup_positions)
    per_doc = keyed_map(dups, ["doc_id"], doc_spans)
    # every doc lands in exactly one partition, so per-doc rows are final
    # after the doc-keyed pass; the driver holds only the result-sized
    # report
    out = collect(per_doc)[["doc_id", "n_spans", "dup_tokens"]].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)
