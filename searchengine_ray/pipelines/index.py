"""Reverse index build + multi-term search (reference menu 3/4 tiers).

Build (A1-A3, O1-O2): per-doc word aggregation with positional decay
(``getWords``, ``SearchEngine.cpp:282-490``), weight constants from
A2 (``SearchEngine.cpp:306-309,451-459``), rank normalization to the
page rank (A3, ``:479-488``), bfloat16 rank quantization
(``MicroFloat``, ``SearchEngine.h:78-114`` — truncation, not
round-to-nearest) — then one ``ds.sort(word, rank, page_index)``
replaces the external merge sorter (``ExternalSorter.hpp``).  The
reference's 8-char small-word dictionary (A4, ``:516-528``) is not
built: search reads the main dictionary only.

Search (O3-O8, J4-J6): ``SearchIndex`` keeps the sorted dictionary's
blocks in the object store and holds each block's word bounds; term
postings come from binary search inside the blocks whose bounds can
hold the term (``PageSearcher.cpp:40-67``), tail-limit keeps the
top-rank suffix (``:425``), hash-join AND across ≤8 terms on doc id
(``joinThread``, ``:229-299``), per-page top-2 positions per term
(``PosRanks``, ``:155-174``), proximity score
``Σ termRank × Π 0.9^(minPosDiff−1)`` floored at 1e-6
(``:273-287,180-190``), top-k by final rank (``:269-298``), host-merge
display — best page per host + suppressed count (``:481-538``), with
each hit's host read from the documents file for the hit rows only
(``doc_hosts``).
"""

from __future__ import annotations

import bisect
import operator

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..stages.text import TOKEN_RE, STOPWORDS

WEIGHT_URL = 40.0     # SearchEngine.cpp:306-309
WEIGHT_TITLE = 100.0
WEIGHT_BODY = 1.0
POSITION_DECAY = 0.999
MAX_WORDS_PER_PAGE = 2000  # MAXWORDPERPAGE, SearchEngine.h:26
MAX_TERMS = 8              # MaxTerms, PageSearcher.cpp:221


def microfloat(x: np.ndarray) -> np.ndarray:
    """bfloat16 quantization by mantissa truncation (MicroFloat,
    SearchEngine.h:109-112 — truncate, NOT round-to-nearest)."""
    f = np.asarray(x, np.float32)
    return (f.view(np.uint32) & np.uint32(0xFFFF0000)).view(np.float32)


MAIN_WORD_SIZE = 24  # MAINWORDSIZE, SearchEngine.h:29 — phrase entries cap


def word_rows(
    batch: pd.DataFrame,
    id_col: str = "doc_id",
    body_col: str = "text",
    title_col: str | None = None,
    rank_col: str | None = None,
    phrases: bool = False,
) -> pd.DataFrame:
    """Per-doc word aggregation → (word, rank, page_index, position).

    Per word keep the max weighted rank + its position (A1); position
    counter caps at 65535; total words per page cap 2000; ranks
    normalized so Σ = page rank (A3); bf16-quantized.  With
    ``phrases=True`` every n-gram of adjacent tokens whose joined text
    fits 24 chars is also emitted (plus the first 24-char truncation
    once a chain overflows) — the reference's main dict stores words
    AND arbitrary space-containing phrases in its 24-byte rows
    (``DictWord``, ``SearchEngine.h:424-425``), so a quoted 3+-word
    query can prefix-match a stored phrase entry
    (``PageSearcher.cpp:47-66``).
    """
    # ≥1 char + separator per token → at most 12 tokens can contribute
    # distinct prefixes of a 24-char phrase entry
    max_chain = MAIN_WORD_SIZE // 2
    out_w, out_r, out_p, out_pos = [], [], [], []
    for i in range(len(batch)):
        doc_id = int(batch[id_col].iloc[i])
        page_rank = float(batch[rank_col].iloc[i]) if rank_col else 1.0
        best: dict[str, tuple[float, int]] = {}
        pos = 0
        streams = []
        if title_col:
            streams.append((WEIGHT_TITLE, batch[title_col].iloc[i]))
        streams.append((WEIGHT_BODY, batch[body_col].iloc[i]))
        for weight, text in streams:
            text = "" if pd.isna(text) else str(text)  # a null has no tokens
            chain: list[tuple[str, int]] = []  # phrases don't span streams
            for tok in TOKEN_RE.findall(text.lower()):
                if tok in STOPWORDS:
                    chain = []  # a stopword breaks the phrase chain
                    continue
                if pos >= 65535:
                    break
                w = weight * (POSITION_DECAY ** pos)
                cur = best.get(tok)
                if cur is None or w > cur[0]:
                    best[tok] = (w, pos)
                if phrases and chain:
                    # extend backwards: emit every n-gram ending at tok,
                    # anchored at the position of its first token; stop
                    # once the joined phrase overflows 24 chars (longer
                    # chains share the same truncated key)
                    ph = tok
                    for ptok, ppos in reversed(chain):
                        ph = ptok + " " + ph
                        key = ph[:MAIN_WORD_SIZE]
                        curp = best.get(key)
                        if curp is None or w > curp[0]:
                            best[key] = (w, ppos)
                        if len(ph) >= MAIN_WORD_SIZE:
                            break
                chain.append((tok, pos))
                if len(chain) > max_chain:
                    chain.pop(0)
                pos += 1
        if not best:
            continue
        items = sorted(best.items(), key=lambda kv: (-kv[1][0], kv[0]))
        items = items[:MAX_WORDS_PER_PAGE]
        total = sum(w for _, (w, _) in items)
        scale = page_rank / total if total > 0 else 0.0
        for word, (w, p) in items:
            out_w.append(word)
            out_r.append(w * scale)
            out_p.append(doc_id)
            out_pos.append(p)
    return pd.DataFrame(
        {
            "word": out_w,
            "rank": microfloat(np.array(out_r, np.float32)),
            "page_index": np.array(out_p, np.int64),
            "position": np.array(out_pos, np.int32),
        }
    )


def build_index(
    docs_ds,
    id_col="doc_id",
    body_col="text",
    title_col=None,
    rank_col=None,
):
    """→ sorted dictionary Dataset (word, rank, page_index, position).

    The ds.sort is the O1/O2 external-merge-sort replacement."""
    rows = docs_ds.map_batches(
        lambda b: word_rows(b, id_col, body_col, title_col, rank_col,
                            phrases=True),
        batch_format="pandas",
    )
    return rows.sort(["word", "rank", "page_index"])


# ------------------------------------------------------------------ search


def split_sentence(query: str, max_terms: int = MAX_TERMS) -> list[str]:
    """splitSentence (PageSearcher.cpp:69-108): whitespace split +
    double-quoted phrases."""
    terms, i, n = [], 0, len(query)
    while i < n and len(terms) < max_terms:
        while i < n and query[i].isspace():
            i += 1
        if i >= n:
            break
        if query[i] == '"':
            j = query.find('"', i + 1)
            if j < 0:
                j = n
            term = query[i + 1 : j].strip()
            i = j + 1
        else:
            j = i
            while j < n and not query[j].isspace():
                j += 1
            term = query[i:j]
            i = j
        if term:
            terms.append(term.lower())
    return terms


def doc_hosts(docs_path: str):
    """A ``SearchIndex`` ``doc_host`` resolver over a documents parquet
    file: ids → {doc_id: source} by a row-filtered two-column read of
    the ≤ max_show hit pages only, never a corpus-wide dict (J6 display
    merge; ``PageSearcher.cpp:301-346`` keeps its sidecar
    file-resident)."""

    def host_of(ids: list[int]) -> dict[int, str]:
        t = pq.read_table(
            docs_path,
            columns=["doc_id", "source"],
            filters=[("doc_id", "in", [int(i) for i in ids])],
        )
        return dict(zip(t["doc_id"].to_pylist(), t["source"].to_pylist()))

    return host_of


def _block_bounds(tbl: pa.Table):
    if len(tbl) == 0:
        return None
    w = tbl["word"]
    return str(w[0].as_py()), str(w[-1].as_py())


class SearchIndex:
    """Search over the sorted dictionary Dataset (``build_index(...)
    .materialize()``), whose blocks stay in the object store — the
    reference's disk-resident binary-searched dict
    (``PageSearcher.cpp:40-67``: the file IS the index; only O(log N)
    pages are touched per keyword).

    The driver holds only each block's (first_word, last_word) bounds,
    a sparse index like the reference's file-page binary search.  A
    query term prunes to the blocks whose word range can contain it,
    fetches ONLY those (zero-copy plasma reads) and binary-searches
    inside, so the driver's footprint is 2 strings per block plus the
    touched postings ranges.  ``doc_host`` (a callable ids → {id: host},
    such as ``doc_hosts``) adds the host-merge display columns.
    """

    def __init__(self, dict_ds, doc_host=None, max_search: int = 100_000):
        import ray

        refs = dict_ds.to_arrow_refs()
        bounds_fn = ray.remote(num_cpus=0)(_block_bounds)
        bounds = ray.get([bounds_fn.remote(r) for r in refs])
        self._refs = [r for r, b in zip(refs, bounds) if b is not None]
        self._lo = [b[0] for b in bounds if b is not None]
        self._hi = [b[1] for b in bounds if b is not None]
        self.doc_host = doc_host
        self.max_search = max_search
        self.blocks_fetched = 0  # instrumentation (asserted in tests)
        self._ray = ray

    def _term_postings(self, term: str) -> pd.DataFrame:
        phrase = " " in term
        # stored phrase entries are truncated to 24 chars, so a longer
        # quoted query prefix-matches on its 24-char key
        # (PageSearcher.cpp:47-66; DictWord SearchEngine.h:424-425)
        key = term[:MAIN_WORD_SIZE] if phrase else term
        # upper bound of the matching word range: prefix matches for
        # phrases, exact word otherwise
        upper = key + "￿" if phrase else key
        py = operator.methodcaller("as_py")
        parts = []
        for i, ref in enumerate(self._refs):
            if self._hi[i] < key or self._lo[i] > upper:
                continue  # pruned — block cannot contain the term
            tbl = self._ray.get(ref)  # zero-copy plasma read
            self.blocks_fetched += 1
            # binary search by scalar reads of the sorted word column:
            # O(log rows) strings per term, not the whole block
            words = tbl["word"]
            lo = bisect.bisect_left(words, key, key=py)
            if phrase:  # the words prefixed by key run on from lo
                hi = bisect.bisect_left(
                    words, True, lo, key=lambda w: not w.as_py().startswith(key)
                )
            else:
                hi = bisect.bisect_right(words, key, lo, key=py)
            if hi > lo:
                cols = tbl.slice(lo, hi - lo).select(["page_index", "rank", "position"])
                parts.append(cols.to_pandas())
        if not parts:
            return pd.DataFrame(
                {"page_index": [], "rank": [], "position": []}
            )
        out = pd.concat(parts, ignore_index=True)
        if len(out) > self.max_search:
            out = out.tail(self.max_search)  # top-rank suffix (O4)
        return out

    def search(self, query: str, max_show: int = 200) -> pd.DataFrame:
        terms = split_sentence(query)
        if not terms:
            return pd.DataFrame(columns=["page_index", "final_rank"])
        postings = [self._term_postings(t) for t in terms]
        return self._score(postings, max_show)

    def _score(self, postings: list[pd.DataFrame], max_show: int) -> pd.DataFrame:
        # AND-join on page_index, keep top-2 (rank, pos) per page per term
        per_term = [
            p.sort_values("rank", ascending=False).groupby("page_index").head(2)
            for p in postings
        ]
        pages = per_term[0]["page_index"].drop_duplicates()
        for p in per_term[1:]:
            pages = pages[pages.isin(p["page_index"])]
        if pages.empty:
            return pd.DataFrame(columns=["page_index", "final_rank"])
        out = pd.DataFrame({"page_index": pages.to_numpy()})
        # score: Σ over terms of each term's kept ranks, in term order
        score = np.zeros(len(out))
        for p in per_term:
            ranks = p.groupby("page_index")["rank"].sum().astype(np.float64)
            score = score + out["page_index"].map(ranks).to_numpy()
        # proximity: Π over adjacent terms of 0.9^(min |pos diff| − 1),
        # the min over the ≤ 2 × 2 kept positions of each page
        prox = np.ones(len(out))
        for a, b in zip(per_term[:-1], per_term[1:]):
            pair = a[["page_index", "position"]].merge(
                b[["page_index", "position"]], on="page_index")
            diff = (pair["position_x"].astype(np.int64)
                    - pair["position_y"].astype(np.int64)).abs()
            dmin = diff.groupby(pair["page_index"]).min()
            steps = np.maximum(out["page_index"].map(dmin).to_numpy() - 1, 0)
            uniq, at = np.unique(steps, return_inverse=True)
            prox = prox * np.array([0.9 ** int(k) for k in uniq])[at]
        out["final_rank"] = np.maximum(score * prox, 1e-6)
        out = out.sort_values(["final_rank", "page_index"], ascending=[False, True])
        out = out.head(max_show).reset_index(drop=True)
        if self.doc_host is not None:
            # hosts of the ≤ max_show result rows only
            out["host"] = out["page_index"].map(
                self.doc_host(out["page_index"].tolist())
            )
            merged = []
            for host, g in out.groupby("host", sort=False):
                top = g.iloc[0]
                merged.append(
                    (int(top["page_index"]), float(top["final_rank"]), host, len(g) - 1)
                )
            out = pd.DataFrame(
                merged, columns=["page_index", "final_rank", "host", "suppressed"]
            ).sort_values(["final_rank", "page_index"], ascending=[False, True]).reset_index(drop=True)
        return out
