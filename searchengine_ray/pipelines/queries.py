"""The driver-facing query catalog: Ray Data pipelines + DuckDB oracle
SQL over the testdata tables (TESTDATA.md), one entry per operator
family from SURVEY.md §2 plus the training-data operators (dedup /
similarity / text analysis / multimodal) the build charter adds.

Conventions for hash-stable results vs the SQL oracle:
* money/quantity aggregates are integer cents (``*100`` before the
  sum) so float-summation order can never flip a value hash;
* ratios are integer ppm via floor division;
* timestamps are compared as BIGINT epoch seconds;
* every computed column carries the same name in Ray and SQL.

Ray side rules: column-pruned ``read_parquet`` through
``sources.storage.read_parquet``, which sizes each read by bytes on
disk (one block per 32 MiB, no floor at the CPU count: a test-scale
table is one block, not Ray's 2× CPUs of near-empty ones), vectorized
``map_batches`` (pyarrow/pandas kernels), pre-aggregation before
shuffles, broadcast small sides (dimension tables) captured by the
UDF that looks them up (Ray Data puts a map operator's UDF in the
object store once), with SQL ``JOIN`` semantics (``_dim_names``: a key
missing from the dimension drops its row).  Every query result reaches
the driver through ``keyed.collect`` (or ``combine`` / ``top_k``, which
use it), typed from the plan by ``keyed.empty_like`` when it has no
rows, so every UDF accepts a zero-row batch and no query ever calls
``Dataset.schema``; a Dataset read more than once is
``keyed.materialize``d.  Every grouped aggregate is ``keyed.combine``:
a per-batch projection plus pyarrow ``group_by`` partial, folded on
the driver or in a partitioned ``keyed_map``.  Every grouped top-k
(``row_number() <= k`` per group) is ``keyed.top_k``: per-batch top-k
partials, one key-hash ``keyed_map`` for the final top-k.  Every
shuffle — the partitioned fold, per-partition finisher
(``keyed_map``) and join (``hash_join``) — is the one task-based range
partition of ``stages/keyed.py``, which a query calls with the key
columns it shuffles by and which sizes every shuffle by the bytes it
reads; no query uses ``Dataset.join``,
``groupby().map_groups`` or a Ray aggregate (``Dataset.aggregate``,
``sum``, ``min``, ``max``, ``mean``, ``std``, ``unique``).  The
curation decisions live once in ``stages/``: the clean gate
(``text.clean_gate``), sorted-set membership (``text.in_sorted``),
the near-dup drop set (``cluster.neardup_drop``), the benchmark
8-gram test (``dedup.bench_ngram_hashes`` / ``shared_ngrams``) and
the Knuth hash and split (``sampling.knuth_hash`` / ``split_of``).
Every text query tokenizes through ``text.tokenize`` (per-doc counts,
dictionary indices, the dictionary and the flat doc index, so no
query rebuilds a doc index from token counts; a null text has no
tokens, as in the SQL) and hashes k-grams with
``text.kgram_window_hashes``.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..sources.storage import read_parquet
from ..stages import dedup as dd
from ..stages import text as tx
from ..stages.cluster import neardup_drop
from ..stages.keyed import (
    collect,
    combine,
    hash_join,
    keyed_map,
    materialize,
    top_k,
)
from ..stages.sampling import knuth_hash, split_of
from ..stages.similarity import matrix
from ..stages.text import LANG_PROFILES, STOPWORDS, in_sorted

_STOP_SQL = ",".join(f"'{w}'" for w in sorted(STOPWORDS))
_TOKS = "regexp_extract_all(lower(text), '[a-z0-9]+')"
_TOKS_NS = f"list_filter({_TOKS}, x -> x NOT IN ({_STOP_SQL}))"


def _read(sf_dir: str, table: str, columns=None):
    return read_parquet(os.path.join(sf_dir, f"{table}.parquet"), columns)


def _cents(x) -> np.ndarray:
    return np.round(np.asarray(x, np.float64) * 100).astype(np.int64)


def _dim_names(keys: np.ndarray, names: dict) -> tuple[np.ndarray, pa.Array]:
    """A broadcast dimension lookup with SQL ``JOIN`` semantics: the
    mask of rows whose key ``names`` holds, and those rows' names.  A
    key missing from the dimension drops its row, as the join does."""
    got = pd.Series(keys).map(names)
    hit = got.notna().to_numpy()
    return hit, pa.array(got[hit].tolist(), pa.string())


# the revenue rollups of q03/q05/q34 over their ``cents`` projection
_REVENUE = {"revenue_cents": ("cents", "sum"), "n_orders": ("cents", "count")}


# ------------------------------------------------------------------ queries


def q01_pricing_summary(sf_dir: str):
    """TPC-H Q1 analog: filtered grouped aggregate with per-batch
    integer-cents computation (A1/A7 partial-agg pattern: only ~6
    partial rows per batch leave the task)."""
    ds = _read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
         "l_discount", "l_shipdate"],
    )

    def prep(t: pa.Table) -> pa.Table:
        ship = t["l_shipdate"].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(ship < np.datetime64("1998-09-01")))
        base = _cents(t["l_extendedprice"].to_numpy(zero_copy_only=False))
        disc = _cents(t["l_discount"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "l_linestatus": t["l_linestatus"],
                "qty": _cents(t["l_quantity"].to_numpy(zero_copy_only=False)),
                "base": base,
                "disc_c4": base * (100 - disc),
            }
        )

    return combine(
        ds,
        ["l_returnflag", "l_linestatus"],
        {
            "sum_qty_cents": ("qty", "sum"),
            "sum_base_cents": ("base", "sum"),
            "sum_disc_c4": ("disc_c4", "sum"),
            "count_order": ("qty", "count"),
        },
        prep,
    )


SQL_Q01 = """
SELECT l_returnflag, l_linestatus,
       CAST(SUM(CAST(ROUND(l_quantity*100) AS BIGINT)) AS BIGINT) AS sum_qty_cents,
       CAST(SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT)) AS BIGINT) AS sum_base_cents,
       CAST(SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT)
           * (100 - CAST(ROUND(l_discount*100) AS BIGINT))) AS BIGINT) AS sum_disc_c4,
       COUNT(*) AS count_order
FROM lineitem
WHERE l_shipdate < TIMESTAMP '1998-09-01'
GROUP BY l_returnflag, l_linestatus
"""


def q02_top_orders(sf_dir: str):
    """Global top-k by sort (O4/O5): ds.sort(desc).limit."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "o_custkey": t["o_custkey"],
                "total_cents": pa.array(
                    _cents(t["o_totalprice"].to_numpy(zero_copy_only=False))
                ),
            }
        )

    return collect(
        ds.map_batches(prep, batch_format="pyarrow")
        .sort(["total_cents", "o_orderkey"], descending=[True, False])
        .limit(10)
    )


SQL_Q02 = """
SELECT o_orderkey, o_custkey, CAST(ROUND(o_totalprice*100) AS BIGINT) AS total_cents
FROM orders ORDER BY total_cents DESC, o_orderkey LIMIT 10
"""


def q03_revenue_by_segment(sf_dir: str):
    """Hash shuffle join (J2 pattern): customer is SF-proportional, so
    it is joined by ``hash_join`` (co-partitioned pandas merges) rather
    than broadcast (broadcast is reserved for the genuinely tiny
    nation/region dims).
    The joined stream pre-aggregates per batch; only ~5 segment rows
    per batch reach the driver final."""

    def prep(t: pa.Table) -> pa.Table:
        cents = _cents(t["o_totalprice"].to_numpy(zero_copy_only=False))
        return pa.table({"c_mktsegment": t["c_mktsegment"], "cents": cents})

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    joined = hash_join(orders, cust, "o_custkey", "c_custkey")
    return combine(joined, ["c_mktsegment"], _REVENUE, prep)


SQL_Q03 = """
SELECT c.c_mktsegment,
       CAST(SUM(CAST(ROUND(o.o_totalprice*100) AS BIGINT)) AS BIGINT) AS revenue_cents,
       COUNT(*) AS n_orders
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
GROUP BY c.c_mktsegment
"""


def q04_customers_without_orders(sf_dir: str):
    """Distributed anti-join (J1 frontier-dedup pattern): orders is
    SF-proportional, so the anti side is hash-partitioned, not a
    broadcast key set.  ``hash_join``'s anti mode shuffles only the
    order keys and dedups them per partition."""
    return collect(hash_join(
        _read(sf_dir, "customer", ["c_custkey", "c_name"]),
        _read(sf_dir, "orders", ["o_custkey"]),
        "c_custkey",
        "o_custkey",
        how="left_anti",
    ))


SQL_Q04 = """
SELECT c_custkey, c_name FROM customer c
WHERE NOT EXISTS (SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey)
"""


def q05_nation_orders(sf_dir: str):
    """orders ⋈ customer is a ``hash_join`` (customer scales with
    SF); the nation name lookup stays a broadcast — nation is a fixed
    25-row dim, the legitimate broadcast case."""
    nat = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_name"]
    )
    nname = dict(zip(nat["n_nationkey"].to_pylist(), nat["n_name"].to_pylist()))

    def add_nation(t: pa.Table) -> pa.Table:
        hit, name = _dim_names(t["c_nationkey"].to_numpy(zero_copy_only=False), nname)
        cents = _cents(t["o_totalprice"].to_numpy(zero_copy_only=False))[hit]
        return pa.table({"n_name": name, "cents": cents})

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    joined = hash_join(orders, cust, "o_custkey", "c_custkey")
    return combine(joined, ["n_name"], _REVENUE, add_nation)


SQL_Q05 = """
SELECT n.n_name,
       CAST(SUM(CAST(ROUND(o.o_totalprice*100) AS BIGINT)) AS BIGINT) AS revenue_cents,
       COUNT(*) AS n_orders
FROM orders o
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
GROUP BY n.n_name
"""


def q06_revenue_filter(sf_dir: str):
    """TPC-H Q6 analog: pure filter + single aggregate (M5/A7)."""
    ds = _read(sf_dir, "lineitem", ["l_quantity", "l_extendedprice", "l_discount",
                                    "l_shipdate"])

    def prep(t: pa.Table) -> pa.Table:
        qty = t["l_quantity"].to_numpy(zero_copy_only=False)
        disc = _cents(t["l_discount"].to_numpy(zero_copy_only=False))
        ship = t["l_shipdate"].to_numpy(zero_copy_only=False)
        mask = (
            (ship >= np.datetime64("1995-01-01"))
            & (ship < np.datetime64("1997-01-01"))
            & (qty < 24)
            & (disc >= 3)
            & (disc <= 8)
        )
        base = _cents(t["l_extendedprice"].to_numpy(zero_copy_only=False))[mask]
        return pa.table({"revenue_c4": pa.array(base * disc[mask])})

    return combine(
        ds,
        [],
        {"revenue_c4": ("revenue_c4", "sum"), "n_rows": ("revenue_c4", "count")},
        prep,
    )


SQL_Q06 = """
SELECT CAST(SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT)
           * CAST(ROUND(l_discount*100) AS BIGINT)) AS BIGINT) AS revenue_c4,
       COUNT(*) AS n_rows
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1995-01-01' AND l_shipdate < TIMESTAMP '1997-01-01'
  AND l_quantity < 24
  AND CAST(ROUND(l_discount*100) AS BIGINT) BETWEEN 3 AND 8
"""


def q07_distinct_flags(sf_dir: str):
    """DISTINCT as a ``combine`` with no aggregates (SURVEY §2.7 set
    ops).  The raw rows never leave their task — each batch reduces to
    its unique key pairs first, so the fold sees distinct-cardinality
    x nbatches rows; the result is distinct-cardinality sized, so it
    folds on the driver."""
    keys = ["l_returnflag", "l_linestatus"]
    out = combine(_read(sf_dir, "lineitem", keys), keys, {})
    return out.sort_values(keys).reset_index(drop=True)


SQL_Q07 = "SELECT DISTINCT l_returnflag, l_linestatus FROM lineitem"


def q08_events_hourly(sf_dir: str):
    """Tumbling-window aggregate over the event stream (§2.8 analog):
    hour bucket as BIGINT epoch seconds."""
    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "event_type": t["event_type"],
                "hour_epoch": us // 3_600_000_000 * 3600,
                "cents": _cents(t["value"].to_numpy(zero_copy_only=False)),
            }
        )

    return combine(
        ds,
        ["event_type", "hour_epoch"],
        {"value_cents": ("cents", "sum"), "n_events": ("cents", "count")},
        prep,
    )


SQL_Q08 = """
SELECT event_type, CAST(epoch(date_trunc('hour', ts)) AS BIGINT) AS hour_epoch,
       CAST(SUM(CAST(ROUND(value*100) AS BIGINT)) AS BIGINT) AS value_cents,
       COUNT(*) AS n_events
FROM events GROUP BY 1, 2
"""


def q09_top_users(sf_dir: str):
    """Aggregate + top-k (O5/O6 heavy-hitter pattern)."""
    ds = _read(sf_dir, "events", ["user_id", "value"])

    def prep(t: pa.Table) -> pa.Table:
        cents = _cents(t["value"].to_numpy(zero_copy_only=False))
        return pa.table({"user_id": t["user_id"], "cents": cents})

    # user_id cardinality scales with SF, so the fold is partitioned;
    # the top-20 is then per-block partial top-k + a driver merge of
    # <=20*nblocks candidate rows — after the fold each user is
    # unique, so block-local top-20s are a superset of the global
    # top-20 and the all-to-all ds.sort is unnecessary
    agg = combine(
        ds,
        ["user_id"],
        {"value_cents": ("cents", "sum"), "n_events": ("cents", "count")},
        prep,
        partitioned=True,
    )

    def topk(b: pd.DataFrame) -> pd.DataFrame:
        return b.sort_values(
            ["value_cents", "user_id"], ascending=[False, True]
        ).head(20)

    out = collect(agg, topk)
    return topk(out).reset_index(drop=True)


SQL_Q09 = """
SELECT user_id, CAST(SUM(CAST(ROUND(value*100) AS BIGINT)) AS BIGINT) AS value_cents,
       COUNT(*) AS n_events
FROM events GROUP BY user_id ORDER BY value_cents DESC, user_id LIMIT 20
"""


def q10_doc_dedup_exact(sf_dir: str):
    """Exact dedup: hash-partition by content hash, keep min id."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = dd.exact_dedup(ds, "text", "doc_id", keep_cols=[])
    return collect(out.select_columns(["doc_id", "dup_count"]))


SQL_Q10 = """
SELECT MIN(doc_id) AS doc_id, COUNT(*) AS dup_count
FROM documents GROUP BY text
"""


def q11_token_stats(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return collect(ds, lambda b: tx.token_stats(b)[["doc_id", "n_tokens", "n_distinct"]])


SQL_Q11 = f"""
SELECT doc_id,
       CAST(len({_TOKS}) AS BIGINT) AS n_tokens,
       CAST(len(list_distinct({_TOKS})) AS BIGINT) AS n_distinct
FROM documents
"""


def q12_word_counts(sf_dir: str):
    """Word count with per-batch combiner before the shuffle; the
    fold is partitioned — the vocabulary itself scales with the
    corpus, so it never lands on the driver unaggregated."""
    return collect(_word_counts(sf_dir))


def _word_counts(sf_dir: str):
    """(word, cnt) over the documents, as a partitioned Dataset."""
    ds = _read(sf_dir, "documents", ["text"])
    return combine(
        ds, ["word"], {"cnt": ("cnt", "sum")}, tx.word_count_partial, partitioned=True
    )


SQL_Q12 = f"""
SELECT word, COUNT(*) AS cnt FROM
  (SELECT unnest({_TOKS}) AS word FROM documents)
GROUP BY word
"""


def q13_quality(sf_dir: str):
    """Quality scoring as integer ppm ratios (training-data op)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        p = tx.text_profile(b["text"])
        n = p["n_tokens"]
        nc = np.maximum(n, 1)
        out = pd.DataFrame(
            {
                "doc_id": b["doc_id"],
                "n_tokens": n,
                "stopword_ppm": p["stop_cnt"] * 1_000_000 // nc,
                "type_token_ppm": p["n_distinct"] * 1_000_000 // nc,
                "mean_token_len_ppm": p["tok_chars"] * 1_000_000 // nc,
            }
        )
        return out[n > 0]

    return collect(ds, prep)


SQL_Q13 = f"""
WITH t AS (SELECT doc_id, {_TOKS} AS toks, text FROM documents)
SELECT doc_id,
       CAST(len(toks) AS BIGINT) AS n_tokens,
       len(list_filter(toks, x -> x IN ({_STOP_SQL}))) * 1000000 // len(toks)
         AS stopword_ppm,
       len(list_distinct(toks)) * 1000000 // len(toks) AS type_token_ppm,
       CAST(list_aggregate(list_transform(toks, x -> len(x)), 'sum') * 1000000
         // len(toks) AS BIGINT) AS mean_token_len_ppm
FROM t WHERE len(toks) > 0
"""


def q14_langid(sf_dir: str):
    """Stopword-profile language ID (argmax, lexicographic ties)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return collect(ds, tx.langid)


def _langid_sql() -> str:
    langs = sorted(LANG_PROFILES)
    score_cols = ",\n       ".join(
        "len(list_filter(toks, x -> x IN ({}))) AS {}".format(
            ",".join(f"'{w}'" for w in sorted(LANG_PROFILES[lang])), lang
        )
        for lang in langs
    )
    case = " ".join(
        "WHEN {} THEN '{}'".format(
            " AND ".join(f"{lang} >= {o}" for o in langs[i + 1 :]) or "TRUE", lang
        )
        for i, lang in enumerate(langs)
    )
    greatest = ", ".join(langs)
    return f"""
WITH t AS (SELECT doc_id, {_TOKS} AS toks FROM documents),
s AS (SELECT doc_id, {score_cols} FROM t)
SELECT doc_id, CASE {case} END AS lang_pred,
       CAST(GREATEST({greatest}) AS BIGINT) AS lang_score
FROM s
"""


def q15_embedding_topk(sf_dir: str):
    """Brute-force cosine top-k vs broadcast query (similarity search
    baseline)."""
    from ..stages.similarity import cosine_topk

    emb = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"))
    qrow = emb.filter(pc.equal(emb["vec_id"], 0))["embedding"].to_pylist()
    if not qrow:
        # no query vector: the oracle's cross join with it is empty
        return pd.DataFrame(
            {
                "vec_id": pd.Series([], dtype="int64"),
                "cos_sim": pd.Series([], dtype="float64"),
            }
        )
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = cosine_topk(ds, np.asarray(qrow[0])[None, :], k=10)
    out = out.drop(columns=["query_id"])
    out["cos_sim"] = np.round(out["cos_sim"].astype(np.float64), 3)
    return out


SQL_Q15 = """
SELECT e.vec_id, ROUND(CAST(list_cosine_similarity(e.embedding, q.embedding)
                            AS DOUBLE), 3) AS cos_sim
FROM embeddings e, (SELECT embedding FROM embeddings WHERE vec_id = 0) q
ORDER BY list_cosine_similarity(e.embedding, q.embedding) DESC, e.vec_id
LIMIT 10
"""


def q16_minhash_pairs(sf_dir: str):
    """MinHash+LSH near-dup pairs, EXACT-verified: LSH (64 perms × 32
    bands over 3-token shingles, ``dedup.lsh_candidate_docs``) picks
    the candidate docs, those that share a band bucket with another
    doc; the verify step computes exact shingle-set Jaccard among just
    those docs with q18's distributed pair engine and keeps pairs ≥
    0.5.  Every verified pair among candidate docs is kept, so the
    result equals the full exact 3-gram Jaccard pair list whenever
    every ≥ 0.5 pair's docs are candidates — with r=2 a J=0.5 pair
    escapes all 32 bands with probability (1−J²)^32 ≈ 1e-4 — which the
    DuckDB oracle checks directly.  Scale shape: the corpus streams
    through the LSH sketch; only the candidate doc-id set
    (result-sized) broadcasts into the verify filter."""
    import ray

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    ids_ref = ray.put(dd.lsh_candidate_docs(ds))

    def filt(b: pd.DataFrame) -> pd.DataFrame:
        return b[in_sorted(b["doc_id"].to_numpy(np.int64), ray.get(ids_ref))]

    sub = ds.map_batches(filt, batch_format="pandas")
    pairs = dd.jaccard_pairs_from(sub, K=3, threshold=0.5)
    out = pairs.rename(columns={"ia": "id_a", "ib": "id_b"})
    return out.reset_index(drop=True)


SQL_Q16 = """
WITH t AS (SELECT doc_id, {_TOKS} AS toks FROM documents),
sh AS (SELECT doc_id, list_distinct([toks[i+1]||' '||toks[i+2]||' '||toks[i+3]
        for i in range(len(toks)-2)]) AS s FROM t),
e AS (SELECT doc_id, unnest(s) AS g, len(s) AS n FROM sh),
p AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b, COUNT(*) AS inter,
             ANY_VALUE(a.n) AS na, ANY_VALUE(b.n) AS nb
      FROM e a JOIN e b ON a.g = b.g AND a.doc_id < b.doc_id GROUP BY 1, 2)
SELECT id_a, id_b, ROUND(inter*1.0/(na+nb-inter), 6) AS jaccard
FROM p WHERE inter*1.0/(na+nb-inter) >= 0.5
""".replace("{_TOKS}", _TOKS)


def q17_simhash(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return collect(ds, dd.simhash_batch)


def q18_jaccard_pairs(sf_dir: str):
    """Exact n-gram Jaccard near-dup pairs, fully distributed
    (``dedup.jaccard_pairs_from``): no full-dataset driver
    materialization; the driver only holds the final thresholded pair
    list.  Shingles travel as 64-bit hashes, which also slims the
    shuffle from strings to 8-byte keys; hash equality stands in for
    string equality (collision odds ~2^-64 per pair)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return dd.jaccard_pairs_from(ds)


SQL_Q18 = f"""
WITH t AS (SELECT doc_id, {_TOKS} AS toks FROM documents),
sh AS (SELECT doc_id, list_distinct([toks[i+1]||' '||toks[i+2]||' '||toks[i+3]
        ||' '||toks[i+4]||' '||toks[i+5] for i in range(len(toks)-4)]) AS s FROM t),
e AS (SELECT doc_id, unnest(s) AS g, len(s) AS n FROM sh),
p AS (SELECT a.doc_id AS ia, b.doc_id AS ib, COUNT(*) AS inter,
             ANY_VALUE(a.n) AS na, ANY_VALUE(b.n) AS nb
      FROM e a JOIN e b ON a.g = b.g AND a.doc_id < b.doc_id GROUP BY 1, 2)
SELECT ia, ib, ROUND(inter*1.0/(na+nb-inter), 6) AS jaccard
FROM p WHERE inter*1.0/(na+nb-inter) >= 0.5
"""


def q19_sessionize(sf_dir: str):
    """Session windows (30-min gap) per user: user-hash partition,
    then one ordered scan per user-complete partition (streaming-shaped
    workload pattern)."""
    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts"])

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        uid = g["user_id"].to_numpy()
        # normalize to microseconds BEFORE int64 (an ns-typed block
        # would make every gap 1000x the 30-min constant)
        us = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        first = np.r_[np.ones(min(len(g), 1), bool), uid[1:] != uid[:-1]]
        brk = np.r_[first[:1], np.diff(us) > 1_800_000_000] & ~first
        run = np.cumsum(first) - 1  # user run of each row
        return pd.DataFrame(
            {
                "user_id": uid[first],
                "n_events": np.bincount(run, minlength=first.sum()),
                "n_sessions": np.bincount(run[brk], minlength=first.sum()) + 1,
            }
        )

    return collect(keyed_map(ds, ["user_id"], sessions))


SQL_Q19 = """
WITH e AS (
  SELECT user_id,
         CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id)
                   > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS brk
  FROM events)
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(SUM(brk) + 1 AS BIGINT) AS n_sessions
FROM e GROUP BY user_id
"""


def q22_inverted_index(sf_dir: str):
    """Reverse-index word rows (A1 positions; integer columns only
    so the oracle compare is exact — rank weighting is covered by
    pipelines/index.py unit tests)."""
    from .index import word_rows

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return collect(ds, lambda b: word_rows(b)[["word", "page_index", "position"]])


SQL_Q22 = f"""
WITH t AS (SELECT doc_id, {_TOKS_NS} AS toks FROM documents),
x AS (SELECT doc_id, unnest(toks) AS word,
             generate_subscripts(toks, 1) - 1 AS position FROM t)
SELECT word, doc_id AS page_index, CAST(MIN(position) AS INT) AS position
FROM x GROUP BY word, doc_id
"""


def q26_brand_volume(sf_dir: str):
    """lineitem ⋈ part ``hash_join`` + grouped aggregate (part is
    SF-proportional — 200k×SF rows — so no broadcast)."""

    def prep(t: pa.Table) -> pa.Table:
        cents = _cents(t["l_quantity"].to_numpy(zero_copy_only=False))
        return pa.table({"p_brand": t["p_brand"], "cents": cents})

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_quantity"])
    part = _read(sf_dir, "part", ["p_partkey", "p_brand"])
    joined = hash_join(li, part, "l_partkey", "p_partkey")
    return combine(
        joined,
        ["p_brand"],
        {"qty_cents": ("cents", "sum"), "n_items": ("cents", "count")},
        prep,
    )


SQL_Q26 = """
SELECT p.p_brand, CAST(SUM(CAST(ROUND(l.l_quantity*100) AS BIGINT)) AS BIGINT) AS qty_cents,
       COUNT(*) AS n_items
FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
GROUP BY p.p_brand
"""


# the per-customer order ranking of q27/q56: price desc, then order key
_BY_PRICE = [("total_cents", "descending"), ("o_orderkey", "ascending")]


def _order_cents(t: pa.Table) -> pa.Table:
    cents = _cents(t["o_totalprice"].to_numpy(zero_copy_only=False))
    return pa.table(
        {"o_custkey": t["o_custkey"], "o_orderkey": t["o_orderkey"],
         "total_cents": cents}
    )


def q27_best_order_per_customer(sf_dir: str):
    """Windowed argmax per group: ``keyed.top_k`` with k=1."""
    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"])
    return top_k(ds, ["o_custkey"], _BY_PRICE, 1, _order_cents)


SQL_Q27 = """
SELECT o_custkey, o_orderkey, total_cents FROM (
  SELECT o_custkey, o_orderkey,
         CAST(ROUND(o_totalprice*100) AS BIGINT) AS total_cents,
         row_number() OVER (PARTITION BY o_custkey
                            ORDER BY CAST(ROUND(o_totalprice*100) AS BIGINT) DESC,
                                     o_orderkey) AS rn
  FROM orders) WHERE rn = 1
"""


# ------------------------------------------------- rows-only (non-SQL) ops


def q20_phash_dedup(sf_dir: str):
    """phash-exact image dedup over the synthetic images table (north
    rule §2.7 payload analog; table synthesized deterministically)."""
    import ray

    from ..sources.synth import gen_images

    images, _ = gen_images(400, seed=42)
    ds = ray.data.from_arrow(images.select(["image_id", "phash", "w", "h"]))
    return collect(dd.phash_dedup(ds).select_columns(["image_id", "phash", "dup_count"]))


def q21_crawl_order(sf_dir: str):
    """Flagship: deterministic crawl over the synthetic web — returns
    the crawl-order table (conformance vs the oracle is asserted in
    tests; here the driver checks stability/rows)."""
    _store, res = _small_crawl()
    return res.crawl_order


def q23_search(sf_dir: str):
    """Multi-term AND search with proximity scoring over the built
    reverse index (reference menu 4; O3-O8/J4).  The sorted
    dictionary's blocks stay in the object store; the driver holds
    only per-block word bounds and the touched postings (the
    reference's disk-resident binary-searched dict,
    PageSearcher.cpp:40-67)."""
    from .index import SearchIndex, build_index, doc_hosts

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    dict_ds = build_index(docs).materialize()
    idx = SearchIndex(
        dict_ds, doc_host=doc_hosts(os.path.join(sf_dir, "documents.parquet"))
    )
    out = idx.search("query filter", max_show=50)
    out["final_rank"] = np.round(out["final_rank"].astype(np.float64), 6)
    return out


def q24_multimodal(sf_dir: str):
    """Image decode/resize actor-pool stage over binary payloads."""
    import ray

    from ..sources.synth import gen_images
    from ..stages.multimodal import ImageDecodeResize

    images, _ = gen_images(200, seed=42)
    ds = ray.data.from_arrow(images.select(["image_id", "bytes"]))
    return collect(ds.map_batches(
        ImageDecodeResize, batch_format="pyarrow", concurrency=2, batch_size=64
    ).select_columns(["image_id", "mean_pixel", "phash", "decode_ok"]))


def q25_pagerank(sf_dir: str):
    """PageRank over the crawl's link graph (J3/A5)."""
    from .rank import edges_from_content, pagerank

    _store, res = _small_crawl()
    crawled = set(res.content["url_hash"].to_pylist())
    edges = edges_from_content(res.content, crawled)
    out = pagerank(edges, np.array(sorted(crawled), np.uint64), n_iters=5)
    out["rank"] = np.round(out["rank"], 6)
    return out


def q28_ivf_topk(sf_dir: str):
    """IVF-bucketed approximate nearest neighbors (scale path)."""
    from ..stages.similarity import ivf_build_centroids, ivf_topk

    emb = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"))
    qrow = emb.filter(pc.equal(emb["vec_id"], 0))["embedding"].to_pylist()
    if not qrow:  # no query vector: no neighbors, as in q15
        return pd.DataFrame({"vec_id": pd.Series([], dtype="int64"),
                             "cos_sim": pd.Series([], dtype="float64")})
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    cent = ivf_build_centroids(ds, n_centroids=8)
    out = ivf_topk(ds, np.asarray(qrow[0])[None, :], cent, k=10, n_probe=3)
    out = out.drop(columns=["query_id"])
    out["cos_sim"] = np.round(out["cos_sim"].astype(np.float64), 3)
    return out


def q29_embedding_neardup(sf_dir: str):
    """Embedding-cosine near-dup RECALL HARNESS via hyperplane LSH.

    The synthetic embeddings table has no natural near-dups at the
    0.99 threshold, so this query runs the pipeline over the table
    UNION a declared fixture of planted perturbed copies
    (``synth.gen_planted_neardups`` — vec_id + 1_000_000, noise 1e-4);
    recovering all 20 planted pairs proves LSH bucket + in-bucket
    verify recall (asserted in tests/test_dedup_similarity.py).  The
    output describes dataset ∪ fixture, not the stored table alone."""
    import ray

    from ..sources.synth import gen_planted_neardups

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    base = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    ).to_pandas()
    base = base.sort_values("vec_id").head(20)
    ids, noisy = gen_planted_neardups(
        matrix(base["embedding"]), base["vec_id"].to_numpy()
    )
    planted = pd.DataFrame({"vec_id": ids, "embedding": list(noisy)})
    full = ds.union(ray.data.from_pandas(planted))
    return collect(dd.embedding_neardup_pairs(full, threshold=0.99))


def q30_fingerprint(sf_dir: str):
    """Rolling-hash document fingerprints (order-sensitive identity)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return collect(ds, tx.fingerprint)


_SMALL_CRAWL_CACHE: dict = {}


def _small_crawl(tag: str = "shared"):
    """The small deterministic crawl shared by q21/q25/q31/q32
    (identical seed/config → identical result; memoized per process so
    the driver's sequential catalog sweep runs it once)."""
    if tag in _SMALL_CRAWL_CACHE:
        return _SMALL_CRAWL_CACHE[tag]
    from ..sources import synth
    from .crawl import run_crawl
    from .oracle import CrawlConfig

    images, truth = synth.gen_images(80, seed=42)
    store = synth.gen_web(500, 80, seed=42)
    synth.attach_captions(store, images)
    seeds = synth.gen_seeds(store, 8, seed=42)
    cfg = CrawlConfig(shard_count=4, per_shard_batch=100, seen_shards=2)
    res = run_crawl(
        seeds, store, images, truth, cfg=cfg,
        out_dir=f"/tmp/raycrawl_{tag}", n_host_actors=2, n_fetch_actors=2,
    )
    _SMALL_CRAWL_CACHE[tag] = (store, res)
    return store, res


def q34_region_revenue(sf_dir: str):
    """orders ⋈ customer ``hash_join`` (SF-scaling side), then the
    nation→region hops stay broadcasts — both dims are fixed-size (25
    and 5 rows)."""
    nat = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_regionkey"]
    )
    reg = pq.read_table(
        os.path.join(sf_dir, "region.parquet"), columns=["r_regionkey", "r_name"]
    )
    rk = dict(zip(nat["n_nationkey"].to_pylist(), nat["n_regionkey"].to_pylist()))
    rname = dict(zip(reg["r_regionkey"].to_pylist(), reg["r_name"].to_pylist()))
    rname_of_nation = {n: rname[r] for n, r in rk.items() if r in rname}

    def add_region(t: pa.Table) -> pa.Table:
        hit, name = _dim_names(
            t["c_nationkey"].to_numpy(zero_copy_only=False), rname_of_nation
        )
        cents = _cents(t["o_totalprice"].to_numpy(zero_copy_only=False))[hit]
        return pa.table({"r_name": name, "cents": cents})

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    joined = hash_join(orders, cust, "o_custkey", "c_custkey")
    return combine(joined, ["r_name"], _REVENUE, add_region)


SQL_Q34 = """
SELECT r.r_name,
       CAST(SUM(CAST(ROUND(o.o_totalprice*100) AS BIGINT)) AS BIGINT) AS revenue_cents,
       COUNT(*) AS n_orders
FROM orders o
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
JOIN region r ON n.n_regionkey = r.r_regionkey
GROUP BY r.r_name
"""


def q35_props_extract(sf_dir: str):
    """Semi-structured column extraction: parse the JSON props payload
    and bucket-aggregate (the 'props' table column is the reference's
    only schemaless payload analog)."""
    ds = _read(sf_dir, "events", ["event_type", "props"])

    def prep(t: pa.Table) -> pd.DataFrame:
        k = (
            t["props"]
            .to_pandas()
            .str.extract(r'"k":\s*(\d+)', expand=False)
            .fillna(-1)
            .astype("int64")
        )
        return pd.DataFrame(
            {"event_type": t["event_type"].to_pandas(), "k_bucket": k % 10}
        )

    return combine(ds, ["event_type", "k_bucket"], {"n": ("k_bucket", "count")}, prep)


SQL_Q35 = """
SELECT event_type,
       CAST(json_extract(props, '$.k') AS BIGINT) % 10 AS k_bucket,
       COUNT(*) AS n
FROM events GROUP BY 1, 2
"""


def q36_supplier_balance(sf_dir: str):
    """supplier ⋈ nation grouped stats (acctbal as integer cents)."""
    nat = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_name"]
    )
    nname = dict(zip(nat["n_nationkey"].to_pylist(), nat["n_name"].to_pylist()))

    def add_nat(t: pa.Table) -> pa.Table:
        hit, name = _dim_names(t["s_nationkey"].to_numpy(zero_copy_only=False), nname)
        cents = _cents(t["s_acctbal"].to_numpy(zero_copy_only=False))[hit]
        return pa.table({"n_name": name, "cents": cents})

    return combine(
        _read(sf_dir, "supplier", ["s_nationkey", "s_acctbal"]),
        ["n_name"],
        {"acctbal_cents": ("cents", "sum"), "n_suppliers": ("cents", "count")},
        add_nat,
    )


SQL_Q36 = """
SELECT n.n_name,
       CAST(SUM(CAST(ROUND(s.s_acctbal*100) AS BIGINT)) AS BIGINT) AS acctbal_cents,
       COUNT(*) AS n_suppliers
FROM supplier s JOIN nation n ON s.s_nationkey = n.n_nationkey
GROUP BY n.n_name
"""


def q33_phash_near_dedup(sf_dir: str):
    """Hamming-near perceptual-hash duplicate pairs (band-bucket LSH
    + exact verify) over the synthetic images table."""
    import ray

    from ..sources.synth import gen_images

    images, _ = gen_images(400, seed=42, dup_rate=0.05)
    ds = ray.data.from_arrow(images.select(["image_id", "phash"]))
    return dd.phash_near_pairs(ds, max_hamming=6)


def q31_top_hosts(sf_dir: str):
    """Heavy-hitter host tracker (T5: m_topHosts top-100 with ≥20
    downloads — SearchEngine.h:763-778) over a crawl's fetch log."""
    import ray

    from ..functions import urlkernel as uk

    _store, res = _small_crawl()

    def add_host(t: pa.Table) -> pa.Table:
        hosts = uk.split_host_batch(t["url"].combine_chunks())
        return pa.table({"host": hosts})

    ds = ray.data.from_arrow(res.crawl_order.select(["url"]))
    pdf = combine(ds, ["host"], {"downloads": ("host", "count")}, add_host)
    pdf = pdf.sort_values(["downloads", "host"], ascending=[False, True]).head(100)
    return pdf[pdf["downloads"] >= 3].reset_index(drop=True)


def q32_crawl_rank_index_search(sf_dir: str):
    """The full reference lifecycle in one pipeline (menus 1→3→4):
    crawl → link graph → PageRank → reverse index over page
    titles+captions weighted by rank → multi-term proximity search.
    Returns the top results table (rows-only check)."""
    import ray

    from .index import SearchIndex, build_index
    from .rank import edges_from_content, pagerank

    _store, res = _small_crawl()
    crawled = set(res.content["url_hash"].to_pylist())
    edges = edges_from_content(res.content, crawled)
    ranks = pagerank(edges, np.array(sorted(crawled), np.uint64), n_iters=5)
    rank_of = dict(zip(ranks["node"], ranks["rank"]))
    docs = pd.DataFrame(
        {
            "doc_id": np.arange(len(res.content)),
            "text": res.content["caption"].to_pylist(),
            "title": res.content["title"].to_pylist(),
            "page_rank": [
                rank_of.get(int(h), 0.15)
                for h in res.content["url_hash"].to_pylist()
            ],
        }
    )
    dict_ds = build_index(
        ray.data.from_pandas(docs),
        body_col="text",
        title_col="title",
        rank_col="page_rank",
    ).materialize()
    from ..functions.urlkernel import split_host

    urls = res.content["url"].to_pylist()
    idx = SearchIndex(
        dict_ds, doc_host=lambda ids: {i: split_host(urls[i]) for i in ids}
    )
    out = idx.search("sunset harbor", max_show=20)
    out["final_rank"] = np.round(out["final_rank"].astype(np.float64), 6)
    return out


def q37_clean_corpus(sf_dir: str):
    """Training-corpus cleanup composition (the classic pretraining
    filter): keep documents that are English by the stopword-profile
    langid AND pass quality gates (length + stopword-ratio + mean
    token length), all as integer-ppm thresholds so the oracle compare
    is exact."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def clean(b: pd.DataFrame) -> pd.DataFrame:
        return tx.clean_gate(b).drop(columns=["text"])

    return collect(ds, clean)


def _q37_sql() -> str:
    langs = sorted(LANG_PROFILES)
    score_cols = ",\n       ".join(
        "len(list_filter(toks, x -> x IN ({}))) AS {}".format(
            ",".join(f"'{w}'" for w in sorted(LANG_PROFILES[lang])), lang
        )
        for lang in langs
    )
    # argmax with lexicographic ties → 'en' wins only if every lang
    # lexicographically before it scores strictly less and every lang
    # after scores less-or-equal
    before = [la for la in langs if la < "en"]
    after = [la for la in langs if la > "en"]
    cond = " AND ".join(
        [f"{la} < en" for la in before] + [f"{la} <= en" for la in after]
    ) or "TRUE"
    return f"""
WITH t AS (SELECT doc_id, {_TOKS} AS toks FROM documents),
s AS (SELECT doc_id, toks, {score_cols} FROM t),
q AS (SELECT doc_id,
             CAST(len(toks) AS BIGINT) AS n_tokens,
             len(list_filter(toks, x -> x IN ({_STOP_SQL}))) * 1000000
               // len(toks) AS stopword_ppm,
             CAST(list_aggregate(list_transform(toks, x -> len(x)), 'sum')
               * 1000000 // len(toks) AS BIGINT) AS mean_token_len_ppm,
             ({cond}) AS is_en
      FROM s WHERE len(toks) > 0)
SELECT doc_id, n_tokens, stopword_ppm, mean_token_len_ppm
FROM q
WHERE is_en AND n_tokens >= 5 AND stopword_ppm <= 500000
  AND mean_token_len_ppm >= 2000000
"""


def q38_dedup_survivors(sf_dir: str):
    """Dedup-then-project composition: the exact-dedup survivors table
    joined back to its documents (the 'write the cleaned corpus' step
    of a dedup pipeline) — reuses the distributed exact_dedup stage."""
    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    out = dd.exact_dedup(ds, "text", "doc_id", keep_cols=["source"])
    return collect(out.select_columns(["doc_id", "source", "dup_count"]))


SQL_Q38 = """
SELECT d.doc_id, ANY_VALUE(d.source) AS source, dc.dup_count
FROM documents d
JOIN (SELECT MIN(doc_id) AS keep_id, COUNT(*) AS dup_count
      FROM documents GROUP BY text) dc
  ON d.doc_id = dc.keep_id
GROUP BY d.doc_id, dc.dup_count
"""


def q39_token_histogram(sf_dir: str):
    """Token-count distribution (corpus length histogram, bucket=10):
    per-batch combiner → tiny driver final."""
    ds = _read(sf_dir, "documents", ["text"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"bucket": tx.tokenize(t["text"]).counts // 10 * 10})

    return combine(ds, ["bucket"], {"n_docs": ("bucket", "count")}, prep)


SQL_Q39 = f"""
SELECT CAST(len({_TOKS}) // 10 * 10 AS BIGINT) AS bucket,
       COUNT(*) AS n_docs
FROM documents GROUP BY 1
"""


def q40_asof_join(sf_dir: str):
    """As-of join: each purchase matched to the same user's most
    recent strictly-prior view (stages/temporal.py — hash-partition by
    user, one vectorized merge_asof per partition)."""
    from ..stages.temporal import asof_join

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])
    out = collect(asof_join(ds, "purchase", "view"))
    return out.sort_values("left_id").reset_index(drop=True)


SQL_Q40 = """
WITH v AS (SELECT event_id, user_id, CAST(epoch_us(ts) AS BIGINT) AS ts_us
           FROM events WHERE event_type = 'view'),
     p AS (SELECT event_id, user_id, CAST(epoch_us(ts) AS BIGINT) AS ts_us
           FROM events WHERE event_type = 'purchase')
SELECT p.event_id AS left_id, p.user_id, p.ts_us AS left_ts_us,
       m.right_id, m.right_ts_us,
       p.ts_us - m.right_ts_us AS gap_us
FROM p, LATERAL (
    SELECT v.event_id AS right_id, v.ts_us AS right_ts_us
    FROM v WHERE v.user_id = p.user_id AND v.ts_us < p.ts_us
    ORDER BY v.ts_us DESC, v.event_id DESC LIMIT 1
) m
ORDER BY left_id
"""


def q41_value_percentiles(sf_dir: str):
    """Exact per-group discrete percentiles (p50/p90/p99) of event
    value-cents (stages/temporal.py — projected 2-column shuffle +
    per-partition searchsorted; the exact path behind any t-digest
    swap-in)."""
    from ..stages.temporal import group_percentiles

    ds = _read(sf_dir, "events", ["event_type", "value"])
    out = collect(group_percentiles(
        ds, "event_type", "value", ps=(0.5, 0.9, 0.99), scale=100
    ))
    return out.sort_values("event_type").reset_index(drop=True)


SQL_Q41 = """
SELECT event_type,
       CAST(quantile_disc(CAST(ROUND(value*100) AS BIGINT), 0.5)  AS BIGINT) AS p50,
       CAST(quantile_disc(CAST(ROUND(value*100) AS BIGINT), 0.9)  AS BIGINT) AS p90,
       CAST(quantile_disc(CAST(ROUND(value*100) AS BIGINT), 0.99) AS BIGINT) AS p99
FROM events GROUP BY event_type ORDER BY event_type
"""


def q42_sliding_window(sf_dir: str):
    """Sliding event-time window: per event, count of the same user's
    events in the preceding hour (RANGE window semantics;
    stages/temporal.py composite-key searchsorted)."""
    from ..stages.temporal import preceding_window_count

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id"])
    out = collect(preceding_window_count(ds, window_us=3_600_000_000))
    return out.sort_values("event_id").reset_index(drop=True)


SQL_Q42 = """
SELECT event_id, user_id,
       CAST(COUNT(*) OVER (
           PARTITION BY user_id ORDER BY ts
           RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW
       ) AS BIGINT) AS n_window
FROM events ORDER BY event_id
"""


def q47_dup_clusters(sf_dir: str):
    """Near-dup CLUSTERS: q18's exact-Jaccard pairs closed into
    connected components (stages/cluster.py min-label propagation —
    pairs alone don't dedup; {A~B, B~C} is ONE cluster).  cluster_id
    = min doc_id of the component; SQL oracle = recursive-CTE closure
    over the identical pair set."""
    from ..stages.cluster import connected_components

    return connected_components(q18_jaccard_pairs(sf_dir))


SQL_Q47 = f"""
WITH RECURSIVE
t AS (SELECT doc_id, {_TOKS} AS toks FROM documents),
sh AS (SELECT doc_id, list_distinct([toks[i+1]||' '||toks[i+2]||' '||toks[i+3]
        ||' '||toks[i+4]||' '||toks[i+5] for i in range(len(toks)-4)]) AS s FROM t),
e AS (SELECT doc_id, unnest(s) AS g, len(s) AS n FROM sh),
p AS (SELECT a.doc_id AS ia, b.doc_id AS ib, COUNT(*) AS inter,
             ANY_VALUE(a.n) AS na, ANY_VALUE(b.n) AS nb
      FROM e a JOIN e b ON a.g = b.g AND a.doc_id < b.doc_id GROUP BY 1, 2),
pairs AS (SELECT ia, ib FROM p WHERE inter*1.0/(na+nb-inter) >= 0.5),
edges AS (SELECT ia AS a, ib AS b FROM pairs
          UNION SELECT ib, ia FROM pairs
          UNION SELECT ia, ia FROM pairs
          UNION SELECT ib, ib FROM pairs),
reach(src, dst) AS (
    SELECT a, b FROM edges
    UNION
    SELECT r.src, e2.b FROM reach r JOIN edges e2 ON r.dst = e2.a
)
SELECT src AS doc_id, CAST(MIN(dst) AS BIGINT) AS cluster_id,
       CAST(COUNT(*) OVER (PARTITION BY MIN(dst)) AS BIGINT) AS cluster_size
FROM reach GROUP BY src ORDER BY doc_id
"""


def q48_neardup_survivors(sf_dir: str):
    """End-to-end NEAR-dup dedup: q47's clusters pick one canonical
    doc per component (min doc_id); every other cluster member is
    dropped, singletons pass through.  The per-source survivor count
    is the result (the whole-corpus version of 'write the cleaned
    corpus', near-dup edition — q38 is the exact-dup analog).

    Shape: the drop set (``cluster.neardup_drop`` of q18's pairs) is
    tiny relative to the corpus, so it broadcasts into a sorted-set
    membership filter per batch — no corpus-wide shuffle."""
    import ray

    drop_ref = ray.put(neardup_drop(q18_jaccard_pairs(sf_dir)))
    ds = _read(sf_dir, "documents", ["doc_id", "source"])

    def keep(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        kept = ~in_sorted(ids, ray.get(drop_ref))
        return t.select(["source"]).filter(pa.array(kept))

    return combine(ds, ["source"], {"n_docs": ("source", "count")}, keep)


SQL_Q48 = (
    SQL_Q47.replace(
        """SELECT src AS doc_id, CAST(MIN(dst) AS BIGINT) AS cluster_id,
       CAST(COUNT(*) OVER (PARTITION BY MIN(dst)) AS BIGINT) AS cluster_size
FROM reach GROUP BY src ORDER BY doc_id""",
        """, cl AS (SELECT src AS doc_id, MIN(dst) AS cluster_id
         FROM reach GROUP BY src)
SELECT d.source, CAST(COUNT(*) AS BIGINT) AS n_docs
FROM documents d
LEFT JOIN cl ON d.doc_id = cl.doc_id
WHERE cl.doc_id IS NULL OR cl.doc_id = cl.cluster_id
GROUP BY d.source ORDER BY d.source""",
    )
)


def q49_heavy_tokens(sf_dir: str):
    """EXACT heavy-hitter tokens via 2-pass Count-Min (no
    vocabulary-sized shuffle): pass 1 folds every batch into a 2 MB
    CMS partial, pass 2 keeps only tokens whose merged-CMS estimate
    clears the threshold (a guaranteed superset — CMS never
    underestimates), so the final exact combine sees candidate rows
    only.  Threshold = 0.5 % of total token occurrences.  The
    bounded-memory scale path for q12-style word counts at 100 TB."""
    from ..stages import sketch as sk

    ds = _read(sf_dir, "documents", ["text"])

    def vals(b: pd.DataFrame) -> np.ndarray:
        # convert the small dictionary, then gather the stream
        tok = tx.tokenize(b["text"])
        return tok.dic.to_numpy(zero_copy_only=False).astype("U")[tok.idx]

    out = sk.heavy_hitters(ds, vals, threshold_frac=0.005, value_col="token")
    return out.sort_values("token").reset_index(drop=True)


SQL_Q49 = f"""
WITH e AS (SELECT unnest({_TOKS}) AS token FROM documents)
SELECT token, CAST(COUNT(*) AS BIGINT) AS cnt
FROM e GROUP BY token
HAVING COUNT(*) >= GREATEST(1, CAST(FLOOR((SELECT COUNT(*) FROM e) * 0.005) AS BIGINT))
ORDER BY token
"""


def q50_price_quantiles(sf_dir: str):
    """Exact global price quantiles WITHOUT a global sort: one
    min/max pass, one 64 Ki-bin histogram pass (8 KB partials summed
    on the driver), then a collect of only the target bins (~n/bins
    rows each) to resolve the exact rank element; skewed bins refine
    recursively instead of OOMing the driver.  Replaces the
    all-to-all ``ds.sort`` a naive quantile would need."""
    from ..stages import sketch as sk

    ds = _read(sf_dir, "lineitem", ["l_extendedprice"]).map_batches(
        lambda b: pd.DataFrame({"cents": _cents(b["l_extendedprice"])}),
        batch_format="pandas",
    )
    return sk.global_quantiles(
        ds, "cents", [0.25, 0.5, 0.75, 0.9, 0.99]
    )


SQL_Q50 = """
WITH v AS (SELECT CAST(ROUND(l_extendedprice*100) AS BIGINT) AS c FROM lineitem)
SELECT CAST(q_ppm AS BIGINT) AS q_ppm, CAST(value AS BIGINT) AS value FROM (
  SELECT 250000 AS q_ppm, quantile_disc(c, 0.25) AS value FROM v
  UNION ALL SELECT 500000, quantile_disc(c, 0.50) FROM v
  UNION ALL SELECT 750000, quantile_disc(c, 0.75) FROM v
  UNION ALL SELECT 900000, quantile_disc(c, 0.90) FROM v
  UNION ALL SELECT 990000, quantile_disc(c, 0.99) FROM v
) ORDER BY q_ppm
"""


def q51_bloom_semijoin(sf_dir: str):
    """Order stats for customers in debt (semi-join), bloom-style:
    the small side's keys become a broadcast bit-packed bloom filter
    (10 bits/key — broadcastable where the exact key set is not);
    the big side probes it per batch, and only the tiny surviving
    fraction gets the exact-verify membership check.  At 100 TB this
    keeps the big-side scan shuffle-free: no hash repartition of
    orders, no join exchange — false positives are removed by the
    exact check on survivors only."""
    import ray

    from ..stages import sketch as sk

    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"]).map_batches(
        lambda b: b.loc[b["c_acctbal"] < 0, ["c_custkey"]],
        batch_format="pandas",
    )
    bloom = sk.bloom_build(cust, "c_custkey", m_bits=1 << 20, k=7)
    # exact verify side: sorted key array (at 10^9 keys this becomes a
    # shuffle join of the bloom survivors instead — documented scale path)
    keys = np.sort(collect(cust)["c_custkey"].to_numpy(np.int64))
    bloom_ref = ray.put(bloom)
    keys_ref = ray.put(keys)

    def probe(t: pa.Table) -> pa.Table:
        ck = t["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        hit = sk.bloom_might_contain(ray.get(bloom_ref), ck, 7)
        if hit.any():
            hit[hit] = in_sorted(ck[hit], ray.get(keys_ref))
        t = t.filter(pa.array(hit))
        cents = _cents(t["o_totalprice"].to_numpy(zero_copy_only=False))
        return pa.table({"o_orderstatus": t["o_orderstatus"], "cents": cents})

    orders = _read(
        sf_dir, "orders", ["o_custkey", "o_orderstatus", "o_totalprice"]
    )
    return combine(
        orders,
        ["o_orderstatus"],
        {"n_orders": ("cents", "count"), "revenue_cents": ("cents", "sum")},
        probe,
    )


SQL_Q51 = """
SELECT o_orderstatus, CAST(COUNT(*) AS BIGINT) AS n_orders,
       CAST(SUM(CAST(ROUND(o_totalprice*100) AS BIGINT)) AS BIGINT) AS revenue_cents
FROM orders
WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_acctbal < 0)
GROUP BY o_orderstatus ORDER BY o_orderstatus
"""


def q52_length_band_filter(sf_dir: str):
    """Quantile-band outlier filter — the curation step that drops
    too-short/too-long documents by PERCENTILE rather than a magic
    constant: compute the exact p10/p90 of tokens-per-doc with the
    histogram quantile operator (no global sort), then one broadcast
    filter pass counts surviving docs per source.  Composition of
    q50's operator with the corpus tables."""
    from ..stages import sketch as sk

    ds = _read(sf_dir, "documents", ["source", "text"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "source": b["source"],
                "n_tokens": tx.tokenize(b["text"]).counts,
            }
        ),
        batch_format="pandas",
    )
    qv = sk.global_quantiles(ds, "n_tokens", [0.10, 0.90])
    # NULL bounds over no rows (NaN) keep nothing, as SQL's BETWEEN
    lo, hi = qv["value"].tolist()

    def keep(t: pa.Table) -> pa.Table:
        n = t["n_tokens"]
        m = pc.and_(pc.greater_equal(n, lo), pc.less_equal(n, hi))
        return t.select(["source"]).filter(m)

    return combine(ds, ["source"], {"n_docs": ("source", "count")}, keep)


SQL_Q52 = f"""
WITH t AS (SELECT source, CAST(len({_TOKS}) AS BIGINT) AS n_tokens
           FROM documents),
b AS (SELECT quantile_disc(n_tokens, 0.10) AS lo,
             quantile_disc(n_tokens, 0.90) AS hi FROM t)
SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs
FROM t, b WHERE n_tokens BETWEEN lo AND hi
GROUP BY source ORDER BY source
"""


def q53_kmeans_clusters(sf_dir: str):
    """Distributed Lloyd k-means over the embeddings table (iterative
    algorithm: broadcast k x d centroids per round, per-batch
    (sum, count) partials, driver fold — the table is never shuffled
    or materialized), then one labeling pass and per-cluster counts.
    Rows-only (iterative float algorithm; not SQL-expressible)."""
    from ..stages import similarity as sim

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    cent, _ = sim.kmeans(ds, k=8, iters=10)
    labeled = sim.kmeans_assign(ds, cent)
    return combine(labeled, ["cluster_id"], {"n_vecs": ("cluster_id", "count")})


def q54_weighted_sample(sf_dir: str):
    """Deterministic weighted sample without replacement (50 docs,
    weight = tokens-per-doc): Efraimidis-Spirakis keys from
    hash-derived uniforms — the same docs are chosen at any
    partitioning or cluster size, no RNG state to checkpoint.
    Per-batch partial top-k, driver merges <= k*nblocks candidates.
    Rows-only (hash-uniform keys are not expressible in the SQL
    oracle)."""
    from ..stages import sampling as smp

    ds = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "doc_id": b["doc_id"].astype("int64"),
                "n_tokens": tx.tokenize(b["text"]).counts,
            }
        ),
        batch_format="pandas",
    )
    return smp.weighted_sample(ds, k=50, weight_col="n_tokens")


def q55_decontaminate(sf_dir: str):
    """Benchmark decontamination (training-data op): flag corpus
    documents sharing any 8-token n-gram with a held-out benchmark
    set (docs with ``doc_id % 7 == 0`` — a deterministic stand-in for
    an eval suite).  Two passes (``stages/dedup``): (1)
    ``bench_ngram_hashes`` — benchmark docs → one sorted uint64 array
    of distinct shingle hashes, broadcast with ``ray.put`` (the
    benchmark side is the small side at 100 TB: eval suites are
    ~1e6–1e8 n-grams, a few hundred MB); (2) the corpus streams
    through ``shared_ngrams`` per batch, emitting ``(doc_id,
    n_shared)`` for hit docs only — the driver sees just the
    contaminated list."""
    import ray

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    ref = ray.put(dd.bench_ngram_hashes(ds))

    def corpus(b: pd.DataFrame) -> pd.DataFrame:
        b = b[~dd.is_bench(b["doc_id"])]
        cnt = dd.shared_ngrams(b["text"], ray.get(ref))
        hit = cnt > 0
        return pd.DataFrame(
            {"doc_id": b["doc_id"].to_numpy(np.int64)[hit], "n_shared": cnt[hit]}
        )

    out = collect(ds, corpus)
    return out.sort_values("doc_id").reset_index(drop=True)


_NG8 = "||' '||".join(f"toks[i+{j}]" for j in range(1, 9))
SQL_Q55 = f"""
WITH t AS (SELECT doc_id, {_TOKS} AS toks FROM documents),
sh AS (SELECT doc_id,
         list_distinct([{_NG8} for i in range(len(toks)-7)]) AS s FROM t),
e AS (SELECT doc_id, unnest(s) AS g FROM sh),
bench AS (SELECT DISTINCT g FROM e WHERE doc_id % 7 = 0)
SELECT e.doc_id, COUNT(*) AS n_shared
FROM e JOIN bench USING (g)
WHERE e.doc_id % 7 <> 0
GROUP BY e.doc_id
"""


def q56_top3_orders_per_customer(sf_dir: str):
    """Grouped top-N (window ``row_number() <= 3`` semantics) without
    a global sort: ``keyed.top_k`` — per-batch per-group top-3
    partials, hash-partitioned by customer, final top-3 per partition —
    then the rank by cumcount over the ≤3·ngroups result rows."""
    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"])
    out = top_k(ds, ["o_custkey"], _BY_PRICE, 3, _order_cents)
    rn = out.groupby("o_custkey", sort=False).cumcount() + 1
    return out.assign(rn=rn.astype(np.int64))


SQL_Q56 = """
SELECT o_custkey, o_orderkey, total_cents, rn FROM (
  SELECT o_custkey, o_orderkey,
         CAST(ROUND(o_totalprice*100) AS BIGINT) AS total_cents,
         row_number() OVER (PARTITION BY o_custkey
                            ORDER BY CAST(ROUND(o_totalprice*100) AS BIGINT) DESC,
                                     o_orderkey) AS rn
  FROM orders) WHERE rn <= 3
"""


def q57_distinct_users(sf_dir: str):
    """Exact COUNT(DISTINCT) per group, distributed: a partitioned
    DISTINCT ``combine`` over (event_type, user_id) lands each distinct
    pair exactly once cluster-wide, then a driver ``combine`` counts
    them per type (#types rows per block).  The distinct-pair set
    never converges on one node; only per-type partial counts do."""
    keys = ["event_type", "user_id"]
    dedup = combine(_read(sf_dir, "events", keys), keys, {}, partitioned=True)
    out = combine(dedup, ["event_type"], {"n_users": ("user_id", "count")})
    return out.sort_values("event_type").reset_index(drop=True)


SQL_Q57 = """
SELECT event_type, COUNT(DISTINCT user_id) AS n_users
FROM events GROUP BY event_type
"""


def q58_running_totals(sf_dir: str):
    """Per-entity running totals (window ``SUM() OVER (PARTITION BY
    user ORDER BY ts)`` semantics) without a global sort: hash-
    partition by user so each user's history lands whole, then ONE
    vectorized sort + grouped cumsum per partition.  Output size =
    input size, but it streams out of the partitions — nothing beyond
    one user-complete partition is ever resident, and cents-integer
    math keeps the running sum exact at any prefix length."""
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_id": b["event_id"].to_numpy(np.int64),
                "ts": b["ts"],
                "user_id": b["user_id"].to_numpy(np.int64),
                "cents": _cents(b["value"]),
            }
        )

    def run(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        g = g.assign(
            run_cents=g.groupby("user_id", sort=False)["cents"]
            .cumsum()
            .astype(np.int64)
        )
        return g[["event_id", "user_id", "run_cents"]]

    out = collect(keyed_map(ds.map_batches(prep, batch_format="pandas"), ["user_id"], run))
    return out.sort_values("event_id").reset_index(drop=True)


SQL_Q58 = """
SELECT event_id, user_id,
       CAST(SUM(CAST(ROUND(value*100) AS BIGINT))
         OVER (PARTITION BY user_id ORDER BY ts, event_id) AS BIGINT)
         AS run_cents
FROM events
"""


def q59_source_quota(sf_dir: str):
    """Per-(lang, source) quota cap — the training-mixture primitive
    that bounds any one source's contribution: keep the first K docs
    per group in a deterministic pseudo-random order (``knuth_hash`` of
    doc_id — stable across runs and cluster sizes, no RNG state to
    coordinate), as one ``keyed.top_k``: only ≤K·ngroups candidate
    rows per batch ride the shuffle."""
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "source"])

    def okey(t: pa.Table) -> pa.Table:
        return t.append_column("okey", pa.array(knuth_hash(t["doc_id"])))

    order = [("okey", "ascending"), ("doc_id", "ascending")]
    kept = top_k(ds, ["lang", "source"], order, 5, okey)
    kept = kept[["doc_id", "lang", "source"]]
    return kept.sort_values("doc_id").reset_index(drop=True)


SQL_Q59 = """
SELECT doc_id, lang, source FROM (
  SELECT doc_id, lang, source,
         row_number() OVER (PARTITION BY lang, source
                            ORDER BY (doc_id*2654435761)%4294967296, doc_id)
           AS rn
  FROM documents) WHERE rn <= 5
"""


def q60_zscore(sf_dir: str):
    """Group-normalized values (per-type z-score) — feature
    normalization as a two-pass broadcast pattern: pass 1 reduces each
    batch to per-type (Σ, Σ², n) integer partials (exact — cents
    math), the driver folds the handful of partial rows and broadcasts
    the tiny moments table; pass 2 streams the events once more,
    normalizing each batch vectorized.  The big side never shuffles.
    The float formula is written identically here and in the oracle
    SQL so both sides round the same IEEE value."""
    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def moments(t: pa.Table) -> pa.Table:
        c = _cents(t["value"].to_numpy(zero_copy_only=False))
        return pa.table({"event_type": t["event_type"], "c": c, "cc": c * c})

    mom = combine(
        ds,
        ["event_type"],
        {"s": ("c", "sum"), "ss": ("cc", "sum"), "n": ("c", "count")},
        moments,
    ).set_index("event_type")
    lut = {
        t: (
            float(r["s"]) / r["n"],
            float(np.sqrt((r["ss"] - float(r["s"]) * r["s"] / r["n"]) / r["n"])),
        )
        for t, r in mom.iterrows()
    }

    def normalize(b: pd.DataFrame) -> pd.DataFrame:
        # dict-valued .map dispatches through a pandas hashtable (one
        # vectorized lookup pass), not a Python call per row
        mean = b["event_type"].map({t: v[0] for t, v in lut.items()})
        std = b["event_type"].map({t: v[1] for t, v in lut.items()})
        z = (_cents(b["value"]) - mean.to_numpy(np.float64)) / std.to_numpy(
            np.float64
        )
        return pd.DataFrame(
            {
                "event_id": b["event_id"].to_numpy(np.int64),
                "z": np.round(z, 6),
            }
        )

    out = collect(ds, normalize)
    return out.sort_values("event_id").reset_index(drop=True)


SQL_Q60 = """
WITH c AS (SELECT event_id, event_type,
                  CAST(ROUND(value*100) AS BIGINT) AS cents FROM events),
s AS (SELECT event_type, SUM(cents) AS s, SUM(cents*cents) AS ss,
             COUNT(*) AS n FROM c GROUP BY 1)
SELECT event_id,
       ROUND((cents - s*1.0/n) / sqrt((ss - s*1.0*s/n)/n), 6) AS z
FROM c JOIN s USING (event_type)
"""


def q61_bigram_counts(sf_dir: str):
    """Corpus n-gram language-model counts: top-40 token bigrams by
    total occurrence (ALL occurrences, not per-doc distinct — the LM
    phrase-table workload, vs q18/q55's set semantics).  Per-batch
    flat vectorized bigram construction (one tokenize pass, doc
    boundaries masked) → partitioned ``combine`` count →
    per-partition top-40 partial → tiny driver merge.  Bigrams travel
    as strings because the final answer needs them; counts combine
    associatively so no partition sees more than its share of the
    vocabulary."""
    N = 40
    ds = _read(sf_dir, "documents", ["text"])

    def bigrams(t: pa.Table) -> pa.Table:
        _counts, idx, dic, doc_of = tx.tokenize(t["text"])
        ok = doc_of[:-1] == doc_of[1:]
        first = dic.take(pa.array(idx[:-1][ok]))
        second = dic.take(pa.array(idx[1:][ok]))
        return pa.table({"bigram": pc.binary_join_element_wise(first, second, " ")})

    agg = combine(ds, ["bigram"], {"n": ("bigram", "count")}, bigrams, partitioned=True)

    def topn(b: pd.DataFrame) -> pd.DataFrame:
        return b.sort_values(["n", "bigram"], ascending=[False, True]).head(N)

    out = collect(agg, topn)
    out = out.sort_values(["n", "bigram"], ascending=[False, True]).head(N)
    return out.reset_index(drop=True)


_NG2 = "[toks[i+1]||' '||toks[i+2] for i in range(len(toks)-1)]"
SQL_Q61 = f"""
WITH t AS (SELECT {_TOKS} AS toks FROM documents),
e AS (SELECT unnest({_NG2}) AS bigram FROM t)
SELECT bigram, COUNT(*) AS n FROM e GROUP BY bigram
ORDER BY n DESC, bigram LIMIT 40
"""


_PACK_RANGE = 1 << 16  # doc ids per q62 prefix-sum range


def q62_sequence_packing(sf_dir: str):
    """Sequence packing (context-window assembly): lay the corpus out
    as one token stream in doc_id order and assign each doc its
    context-window chunk + offset (``chunk = prefix_tokens // B``).
    The core primitive is a DISTRIBUTED PREFIX SUM over doc_id ranges
    (``rng`` = doc_id // ``_PACK_RANGE``): pass 1 reduces each range to
    one token-count subtotal, the driver exclusive-scans the range
    subtotals (tiny), and pass 2 shuffles by ``rng`` and, per range,
    adds its base offset to a local cumsum (a partition may hold
    several ranges).  Two linear passes, O(ranges) driver state (dense
    ids: one range per 65,536 docs) — the scan never materializes the
    corpus anywhere."""
    B = 512
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def counted(b: pd.DataFrame) -> pd.DataFrame:
        did = b["doc_id"].to_numpy(np.int64)
        return pd.DataFrame(
            {"doc_id": did, "nt": tx.tokenize(b["text"]).counts,
             "rng": did // _PACK_RANGE}
        )

    counts = materialize(ds.map_batches(counted, batch_format="pandas"))

    sub = combine(counts, ["rng"], {"tot": ("nt", "sum")}).sort_values("rng")
    tot = sub["tot"].to_numpy(np.int64)
    base = dict(zip(sub["rng"].tolist(), (np.cumsum(tot) - tot).tolist()))

    def assign(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id")
        nt = g["nt"].to_numpy(np.int64)
        run = g.groupby("rng", sort=False)["nt"].cumsum().to_numpy(np.int64)
        prev = g["rng"].map(base).to_numpy(np.int64) + run - nt
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(np.int64),
                "n_tokens": nt,
                "chunk_id": prev // B,
                "tok_offset": prev % B,
            }
        )

    out = collect(keyed_map(counts, ["rng"], assign))
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_Q62 = f"""
WITH t AS (SELECT doc_id, len({_TOKS}) AS n_tokens FROM documents),
c AS (SELECT doc_id, n_tokens,
        COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id
          ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS prev
      FROM t)
SELECT doc_id, n_tokens, CAST(prev // 512 AS BIGINT) AS chunk_id,
       CAST(prev % 512 AS BIGINT) AS tok_offset
FROM c
"""


def q63_curation_funnel(sf_dir: str):
    """Flagship end-to-end curation funnel (``pipelines/curate.py``):
    benchmark holdout → q37 clean gate → exact dedup → near-dup
    removal (q18 pairs + q47 connected components) → 8-gram
    decontamination (q55) → q46 deterministic split → per-(split,
    source) survivor doc/token counts.  Six oracle-checked operators
    composed into one pipeline, oracle-checked END-TO-END: the SQL
    restates all six stages as a single CTE chain."""
    from .curate import curation_funnel

    return curation_funnel(sf_dir)


def _q63_sql() -> str:
    langs = sorted(LANG_PROFILES)
    score_cols = ",\n       ".join(
        "len(list_filter(toks, x -> x IN ({}))) AS {}".format(
            ",".join(f"'{w}'" for w in sorted(LANG_PROFILES[lang])), lang
        )
        for lang in langs
    )
    before = [la for la in langs if la < "en"]
    after = [la for la in langs if la > "en"]
    cond = " AND ".join(
        [f"{la} < en" for la in before] + [f"{la} <= en" for la in after]
    ) or "TRUE"
    ng5 = (
        "toks[i+1]||' '||toks[i+2]||' '||toks[i+3]"
        "||' '||toks[i+4]||' '||toks[i+5]"
    )
    return f"""
WITH RECURSIVE
corpus AS (SELECT doc_id, text, source FROM documents
           WHERE doc_id % 7 <> 0),
t AS (SELECT doc_id, source, text, {_TOKS} AS toks FROM corpus),
s AS (SELECT doc_id, source, text, toks, {score_cols} FROM t),
q AS (SELECT doc_id, source, text, toks,
             CAST(len(toks) AS BIGINT) AS n_tokens,
             len(list_filter(toks, x -> x IN ({_STOP_SQL}))) * 1000000
               // len(toks) AS stopword_ppm,
             CAST(list_aggregate(list_transform(toks, x -> len(x)), 'sum')
               * 1000000 // len(toks) AS BIGINT) AS mean_token_len_ppm,
             ({cond}) AS is_en
      FROM s WHERE len(toks) > 0),
cleaned AS (SELECT doc_id, source, text, toks, n_tokens FROM q
            WHERE is_en AND n_tokens >= 5 AND stopword_ppm <= 500000
              AND mean_token_len_ppm >= 2000000),
ex AS (SELECT MIN(doc_id) AS doc_id FROM cleaned GROUP BY text),
ce AS (SELECT c.* FROM cleaned c JOIN ex USING (doc_id)),
sh AS (SELECT doc_id,
         list_distinct([{ng5} for i in range(len(toks)-4)]) AS s5 FROM ce),
e AS (SELECT doc_id, unnest(s5) AS g, len(s5) AS n FROM sh),
p AS (SELECT a.doc_id AS ia, b.doc_id AS ib, COUNT(*) AS inter,
             ANY_VALUE(a.n) AS na, ANY_VALUE(b.n) AS nb
      FROM e a JOIN e b ON a.g = b.g AND a.doc_id < b.doc_id GROUP BY 1, 2),
prs AS (SELECT ia, ib FROM p WHERE inter*1.0/(na+nb-inter) >= 0.5),
edges AS (SELECT ia AS a, ib AS b FROM prs
          UNION SELECT ib, ia FROM prs
          UNION SELECT ia, ia FROM prs
          UNION SELECT ib, ib FROM prs),
reach(na_, nb_) AS (
    SELECT a, b FROM edges
    UNION
    SELECT r.na_, e2.b FROM reach r JOIN edges e2 ON r.nb_ = e2.a
),
cl AS (SELECT na_ AS doc_id, MIN(nb_) AS cluster_id FROM reach GROUP BY na_),
nd AS (SELECT ce.* FROM ce LEFT JOIN cl ON ce.doc_id = cl.doc_id
       WHERE cl.doc_id IS NULL OR cl.doc_id = cl.cluster_id),
bt AS (SELECT doc_id, {_TOKS} AS toks FROM documents WHERE doc_id % 7 = 0),
bsh AS (SELECT list_distinct([{_NG8} for i in range(len(toks)-7)]) AS s8
        FROM bt),
bge AS (SELECT unnest(s8) AS g FROM bsh),
bg AS (SELECT DISTINCT g FROM bge),
nsh AS (SELECT doc_id,
          list_distinct([{_NG8} for i in range(len(toks)-7)]) AS s8 FROM nd),
ne AS (SELECT doc_id, unnest(s8) AS g FROM nsh),
cont AS (SELECT DISTINCT ne.doc_id FROM ne JOIN bg USING (g)),
dc AS (SELECT * FROM nd
       WHERE doc_id NOT IN (SELECT doc_id FROM cont)),
sp AS (SELECT source, n_tokens,
         CASE WHEN (CAST(doc_id AS UBIGINT)*2654435761) % 4294967296
                   < {int(0.8 * (1 << 32))} THEN 'train'
              WHEN (CAST(doc_id AS UBIGINT)*2654435761) % 4294967296
                   < {int(0.9 * (1 << 32))} THEN 'val'
              ELSE 'test' END AS split
       FROM dc)
SELECT split, source, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(n_tokens) AS BIGINT) AS n_tokens
FROM sp GROUP BY split, source ORDER BY split, source
"""


def q64_image_funnel(sf_dir: str):
    """Image-corpus curation funnel (rows-only — binary image payloads
    live in the deterministic synthetic store, not the sf parquet):
    decode-validate → size/aspect gate → phash exact dedup →
    Hamming-near-dup cluster removal → split, over a fixed
    ``synth.gen_images`` fixture (seeded; includes planted exact
    dups).  See ``pipelines/curate.image_curation_funnel``."""
    from ..sources.synth import gen_images
    from .curate import image_curation_funnel

    images, _truth = gen_images(400, seed=99, dup_rate=0.05)
    # max_hamming=2 for the synthetic fixture: its gradient tiles are
    # all perceptually similar, so the real-corpus default (6) yields a
    # near-complete similarity graph — a fixture artifact, not a
    # workload property (pigeonhole still guarantees recall at d<=3)
    return image_curation_funnel(images, max_hamming=2)


def q65_incremental_dedup(sf_dir: str):
    """Incremental (snapshot-vs-batch) dedup — the daily-ingest
    primitive, distinct from whole-corpus dedup: the existing corpus
    snapshot is docs with ``doc_id < N/2``; the incoming batch is the
    rest.  New docs whose text already exists in the snapshot are
    flagged (per-source kept/dup counts).  Shape: snapshot text
    hashes fold into a broadcast bloom (q51 machinery — broadcastable
    where the exact 10^10-key set is not); the batch probes it per
    streaming pass, and only bloom survivors get the exact sorted-
    array verify.  Neither side is shuffled.  Hash equality stands in
    for text equality (64-bit FNV, as q10)."""
    import ray

    from ..functions.hashing import fnv1a64_batch
    from ..stages import sketch as sk

    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    ndocs = ds.count()
    cut = ndocs // 2

    def snap_hashes(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["doc_id"].to_numpy(np.int64) < cut]
        h = fnv1a64_batch(pa.array(b["text"], type=pa.string()))
        return pd.DataFrame({"h": np.unique(h).view(np.int64)})

    snap = ds.map_batches(snap_hashes, batch_format="pandas")
    bloom = sk.bloom_build(snap, "h", m_bits=1 << 20, k=7)
    exact = np.unique(collect(snap)["h"].to_numpy(np.int64).view(np.uint64))
    bloom_ref, exact_ref = ray.put(bloom), ray.put(exact)

    def probe(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater_equal(t["doc_id"], cut))
        h = fnv1a64_batch(t["text"]).view(np.int64)
        dup = sk.bloom_might_contain(ray.get(bloom_ref), h, 7)
        if dup.any():
            dup[dup] = in_sorted(h[dup].view(np.uint64), ray.get(exact_ref))
        return pa.table({"source": t["source"], "new": ~dup, "dup": dup})

    out = combine(
        ds, ["source"], {"n_new": ("new", "sum"), "n_dup": ("dup", "sum")}, probe
    )
    return out.sort_values("source").reset_index(drop=True)


def _q65_sql() -> str:
    return """
WITH n AS (SELECT COUNT(*) // 2 AS cut FROM documents),
snap AS (SELECT DISTINCT text FROM documents, n WHERE doc_id < cut),
batch AS (SELECT doc_id, text, source FROM documents, n
          WHERE doc_id >= cut)
SELECT source,
       CAST(SUM(CASE WHEN snap.text IS NULL THEN 1 ELSE 0 END)
            AS BIGINT) AS n_new,
       CAST(SUM(CASE WHEN snap.text IS NULL THEN 0 ELSE 1 END)
            AS BIGINT) AS n_dup
FROM batch LEFT JOIN snap USING (text)
GROUP BY source ORDER BY source
"""


def q66_rolling_window(sf_dir: str):
    """Per-user 5-row rolling sums (window ``ROWS BETWEEN 4 PRECEDING
    AND CURRENT ROW``) — completes the window-function family
    (cumulative q58, event-time RANGE q42, rank q56): hash-partition
    by user so each history lands whole, then ONE vectorized pass per
    partition — rolling sum = cumsum minus its own 5-lagged shift,
    reset at user boundaries (no per-row loop, no global sort).
    Cents-int math keeps every window exact."""
    W = 5
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_id": b["event_id"].to_numpy(np.int64),
                "ts": b["ts"],
                "user_id": b["user_id"].to_numpy(np.int64),
                "cents": _cents(b["value"]),
            }
        )

    def roll(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        c = g["cents"].to_numpy(np.int64)
        uid = g["user_id"].to_numpy(np.int64)
        cum = np.cumsum(c)
        # start index of each row's user run
        run_start = np.zeros(len(g), np.int64)
        new = np.r_[np.ones(min(len(uid), 1), bool), uid[1:] != uid[:-1]]
        run_start[new] = np.arange(len(g))[new]
        run_start = np.maximum.accumulate(run_start)
        lo = np.maximum(np.arange(len(g)) - (W - 1), run_start)
        roll_sum = cum - np.where(lo > 0, cum[lo - 1], 0)
        # rows whose window would cross a user boundary clamp at the
        # run start — matching SQL's per-partition ROWS frame
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(np.int64),
                "user_id": uid,
                "roll_cents": roll_sum.astype(np.int64),
            }
        )

    rows = ds.map_batches(prep, batch_format="pandas")
    out = collect(keyed_map(rows, ["user_id"], roll))
    return out.sort_values("event_id").reset_index(drop=True)


SQL_Q66 = """
SELECT event_id, user_id,
       CAST(SUM(CAST(ROUND(value*100) AS BIGINT))
         OVER (PARTITION BY user_id ORDER BY ts, event_id
               ROWS BETWEEN 4 PRECEDING AND CURRENT ROW) AS BIGINT)
         AS roll_cents
FROM events
"""


def q67_salted_groupby(sf_dir: str):
    """Hot-key salting, demonstrated end-to-end: ``event_type`` has
    only 5 values, so a plain hash-partitioned groupby would land 20 %
    of ALL events in one partition (the hot-key worst case at 100 TB).
    Stage 1 groups by (key, salt) with salt = event_id % NSALT — every
    partition receives ~1/(5·NSALT) of the data; stage 2 folds the
    5·NSALT partial rows by key (tiny).  Exact for associative
    aggregates (two ``combine`` calls: partitioned by (key, salt), then
    a driver fold by key); for the catalog's non-associative finishers
    the same salting applies to the PARTIAL stage only.  Oracle = the
    plain GROUP BY."""
    NSALT = 8
    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def salt(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "event_type": t["event_type"],
                "salt": eid % NSALT,
                "cents": _cents(t["value"].to_numpy(zero_copy_only=False)),
            }
        )

    salted = combine(
        ds,
        ["event_type", "salt"],
        {"n": ("cents", "count"), "sum_cents": ("cents", "sum"),
         "max_cents": ("cents", "max")},
        salt,
        partitioned=True,
    )
    out = combine(
        salted,
        ["event_type"],
        {"n": ("n", "sum"), "sum_cents": ("sum_cents", "sum"),
         "max_cents": ("max_cents", "max")},
    )
    return out.sort_values("event_type").reset_index(drop=True)


SQL_Q67 = """
SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CAST(ROUND(value*100) AS BIGINT)) AS BIGINT) AS sum_cents,
       MAX(CAST(ROUND(value*100) AS BIGINT)) AS max_cents
FROM events GROUP BY event_type
"""


def q68_windowed_event_dedup(sf_dir: str):
    """Windowed event dedup (telemetry semantics): an event is a
    duplicate if the same (user, type) fired within the previous
    hour — the streaming-dedup rule every event pipeline applies at
    ingest.  Hash-partition by (user, type) so each stream lands
    whole, then ONE vectorized pass per partition: sort, per-group
    timestamp diff, keep gaps > 1 h (group firsts always kept).
    Output: per-type kept/dropped counts (int-exact)."""
    GAP_US = 3_600_000_000  # 1 h in microseconds
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])

    def dedup(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "event_type", "ts", "event_id"])
        # microsecond-normalized (temporal.py convention) so GAP_US
        # compares in the right unit even for ns-typed blocks
        us = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        uid = g["user_id"].to_numpy(np.int64)
        et = g["event_type"].to_numpy()
        first = np.zeros(min(len(uid), 1), bool)  # empty partition: none
        same = np.r_[first, (uid[1:] == uid[:-1]) & (et[1:] == et[:-1])]
        gap = np.r_[first.astype(np.int64), us[1:] - us[:-1]]
        keep = ~same | (gap > GAP_US)
        return pd.DataFrame({"event_type": et, "kept": keep, "dropped": ~keep})

    out = combine(
        keyed_map(ds, ["user_id", "event_type"], dedup),
        ["event_type"],
        {"n_kept": ("kept", "sum"), "n_dropped": ("dropped", "sum")},
    )
    return out.sort_values("event_type").reset_index(drop=True)


SQL_Q68 = """
WITH g AS (
  SELECT event_type,
         ts - lag(ts) OVER (PARTITION BY user_id, event_type
                            ORDER BY ts, event_id) AS gap
  FROM events)
SELECT event_type,
       CAST(SUM(CASE WHEN gap IS NULL OR gap > INTERVAL 1 HOUR
                THEN 1 ELSE 0 END) AS BIGINT) AS n_kept,
       CAST(SUM(CASE WHEN gap IS NULL OR gap > INTERVAL 1 HOUR
                THEN 0 ELSE 1 END) AS BIGINT) AS n_dropped
FROM g GROUP BY event_type ORDER BY event_type
"""


def q46_split_sample(sf_dir: str):
    """Deterministic train/val/test assignment + stratified sampling —
    the dataset-curation primitives: split by a Knuth multiplicative
    hash of doc_id (stable across runs/cluster sizes, no RNG state to
    coordinate), report per-(source, split) counts and the count of a
    10 % stratified sample drawn from train by a second hash.  Pure
    per-batch arithmetic (embarrassingly parallel) + a tiny groupby —
    the 100 TB shape is exactly this: no shuffle until the count
    rollup.  SQL-parity via the same integer arithmetic."""
    ds = _read(sf_dir, "documents", ["doc_id", "source"])

    def assign(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        split = split_of(ids)
        # constants kept < 2^32 so doc_id * K stays under 2^63 —
        # DuckDB UBIGINT arithmetic raises on overflow (numpy wraps),
        # and oracle parity needs identical integer behavior
        h2 = (ids * np.uint64(0x85EBCA6B) + np.uint64(1)) % np.uint64(1 << 32)
        sampled = (split == "train") & (h2 < np.uint64(int(0.1 * (1 << 32))))
        return pa.table({"source": t["source"], "split": split, "sampled": sampled})

    out = combine(
        ds,
        ["source", "split"],
        {"n": ("sampled", "count"), "n_sampled": ("sampled", "sum")},
        assign,
    )
    return out.sort_values(["source", "split"]).reset_index(drop=True)


SQL_Q46 = f"""
WITH h AS (
  SELECT source,
         (CAST(doc_id AS UBIGINT) * 2654435761) % 4294967296 AS h1,
         (CAST(doc_id AS UBIGINT) * 2246822507 + 1) % 4294967296 AS h2
  FROM documents
), s AS (
  SELECT source,
         CASE WHEN h1 < {int(0.8 * (1 << 32))} THEN 'train'
              WHEN h1 < {int(0.9 * (1 << 32))} THEN 'val'
              ELSE 'test' END AS split,
         h2
  FROM h
)
SELECT source, split, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CASE WHEN split = 'train' AND h2 < {int(0.1 * (1 << 32))}
                THEN 1 ELSE 0 END) AS BIGINT) AS n_sampled
FROM s GROUP BY source, split ORDER BY source, split
"""


def q45_tfidf_terms(sf_dir: str):
    """Distinctive terms per source: integer-exact tf/df scoring
    (score = tf * 1e9 // df, a monotone idf transform that is
    hash-stable vs SQL — no float log), top-5 words per source.

    Shape: one ``combine`` over per-batch token rows — (source, word,
    tf=1) per occurrence plus (source="", word, df=1) per distinct
    (doc, word) — folds exact tf and df (a doc lives in one batch, so
    batch-local distinct docs sum to the global df); a word-keyed
    ``keyed_map`` attaches each word's df to its (source, word) rows
    and keeps a per-source top-5 per partition (each (source, word)
    row is unique after the fold, so these are a superset of the
    global top-5), and the driver merges ≤5 rows per source per
    partition.  The vocabulary-sized tables never land on the
    driver."""
    ds = _read(sf_dir, "documents", ["source", "text"])

    def rows(t: pa.Table) -> pa.Table:
        _counts, idx, dic, doc = tx.tokenize(t["text"])
        # one (doc, word) row per distinct word of each doc
        udoc, uword = np.unique(np.stack([doc, idx]), axis=1)
        n = len(idx)
        src = t["source"].take(pa.array(np.concatenate([doc, udoc]), pa.int64()))
        return pa.table(
            {
                "source": pc.if_else(
                    pa.array(np.arange(n + len(udoc)) < n), src, ""
                ),
                "word": dic.take(pa.array(np.concatenate([idx, uword]), pa.int64())),
                "tf": np.repeat([1, 0], [n, len(udoc)]),
                "df": np.repeat([0, 1], [n, len(udoc)]),
            }
        )

    agg = combine(
        ds,
        ["source", "word"],
        {"tf": ("tf", "sum"), "df": ("df", "sum")},
        rows,
        partitioned=True,
    )
    by_score = (["source", "score", "word"], [True, False, True])

    def attach_df(g: pd.DataFrame) -> pd.DataFrame:
        # the source == "" row of a word carries its df total; attach
        # it to every real (source, word, tf) row of that word
        is_df = (g["source"] == "").to_numpy()
        dftot = g[is_df].set_index("word")["df"]
        g = g[~is_df]
        df = dftot.reindex(g["word"]).to_numpy(np.int64)
        g = g.assign(df=df, score=g["tf"].to_numpy(np.int64) * 1_000_000_000 // df)
        g = g.sort_values(by_score[0], ascending=by_score[1])
        return g.groupby("source", sort=False).head(5)[
            ["source", "word", "tf", "df", "score"]
        ]

    out = keyed_map(agg, ["word"], attach_df)
    out = collect(out).sort_values(by_score[0], ascending=by_score[1])
    out = out.groupby("source", sort=False).head(5)
    return out.sort_values(["source", "word"]).reset_index(drop=True)


SQL_Q45 = f"""
WITH docs AS (
  SELECT doc_id, source, unnest({_TOKS}) AS word FROM documents
), tf AS (
  SELECT source, word, COUNT(*) AS tf FROM docs GROUP BY source, word
), df AS (
  SELECT word, COUNT(DISTINCT doc_id) AS df FROM docs GROUP BY word
), scored AS (
  SELECT tf.source, tf.word, CAST(tf.tf AS BIGINT) AS tf,
         CAST(df.df AS BIGINT) AS df,
         CAST(tf.tf AS BIGINT) * 1000000000 // CAST(df.df AS BIGINT) AS score,
         row_number() OVER (PARTITION BY tf.source
                            ORDER BY CAST(tf.tf AS BIGINT) * 1000000000
                                     // CAST(df.df AS BIGINT) DESC,
                                     tf.word ASC) AS rk
  FROM tf JOIN df USING (word)
)
SELECT source, word, tf, df, score FROM scored WHERE rk <= 5
ORDER BY source, word
"""


def q44_range_join(sf_dir: str):
    """Interval (range) join: every (purchase, view) pair of the same
    user with the view in the hour preceding the purchase
    (stages/temporal.py range_join — equi-key + range-predicate
    decomposition; Ray Data has no non-equi join)."""
    from ..stages.temporal import range_join

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])
    out = collect(range_join(ds, "purchase", "view", window_us=3_600_000_000))
    return out.sort_values(["left_id", "right_id"]).reset_index(drop=True)


SQL_Q44 = """
SELECT p.event_id AS left_id, v.event_id AS right_id, p.user_id,
       CAST(epoch_us(p.ts) AS BIGINT) AS left_ts_us,
       CAST(epoch_us(v.ts) AS BIGINT) AS right_ts_us,
       CAST(epoch_us(p.ts) - epoch_us(v.ts) AS BIGINT) AS gap_us
FROM events p JOIN events v
  ON v.user_id = p.user_id
 AND p.event_type = 'purchase' AND v.event_type = 'view'
 AND v.ts >= p.ts - INTERVAL 1 HOUR AND v.ts < p.ts
ORDER BY left_id, right_id
"""


def q43_hll_distinct(sf_dir: str):
    """Approximate distinct counts via HyperLogLog partials (p=12,
    ~1.6 % s.e.) for users, documents sources, and event props —
    fixed 4 KB per batch leaves the workers, nothing shuffles
    (stages/sketch.py).  Approximation ⇒ rows-only (no SQL oracle);
    the error bound vs exact is asserted in tests."""
    from ..stages.sketch import approx_distinct

    ev = _read(sf_dir, "events", ["user_id"])
    docs = _read(sf_dir, "documents", ["source"])
    rows = [
        {"column": "events.user_id", **approx_distinct(ev, "user_id")},
        {"column": "documents.source", **approx_distinct(docs, "source")},
    ]
    return pd.DataFrame(rows)


def q69_duplicate_spans(sf_dir: str):
    """Exact duplicated-substring-span detection (Lee et al. 2021
    substring dedup — the span-level member of the dedup family, vs
    q10's whole-doc and q16/q18's whole-doc-near semantics): per doc,
    the count and token coverage of maximal spans whose every 8-gram
    occurs more than once in the corpus.  Three-hop distributed shape
    (``stages/spans.py``): K-gram window hashes → gram-keyed shuffle
    (global occurrence counts) → doc-keyed shuffle (vectorized
    interval merge).  Only 8-byte gram hashes ride the wide shuffle."""
    from ..stages.spans import duplicate_spans

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return duplicate_spans(ds, K=8)


_Q69_K = 8
SQL_Q69 = f"""
WITH t AS (SELECT doc_id, {_TOKS} AS toks FROM documents),
p AS (SELECT doc_id, unnest(range(len(toks)-{_Q69_K}+1)) AS pos, toks
      FROM t WHERE len(toks) >= {_Q69_K}),
g AS (SELECT doc_id, pos,
             array_to_string(toks[pos+1:pos+{_Q69_K}], ' ') AS gram FROM p),
d AS (SELECT gram FROM g GROUP BY gram HAVING COUNT(*) > 1),
hits AS (SELECT g.doc_id, g.pos FROM g JOIN d USING (gram)),
m AS (SELECT doc_id, pos,
             CASE WHEN pos - lag(pos) OVER (PARTITION BY doc_id
                                            ORDER BY pos) <= {_Q69_K}
                  THEN 0 ELSE 1 END AS brk
      FROM hits),
isl AS (SELECT doc_id, pos,
               SUM(brk) OVER (PARTITION BY doc_id ORDER BY pos) AS island
        FROM m),
sp AS (SELECT doc_id, island, MIN(pos) AS s, MAX(pos) + {_Q69_K} AS e
       FROM isl GROUP BY doc_id, island)
SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_spans,
       CAST(SUM(e - s) AS BIGINT) AS dup_tokens
FROM sp GROUP BY doc_id ORDER BY doc_id
"""


def q70_repetition_stats(sf_dir: str):
    """Gopher-style repetition quality signals (Rae et al. 2021
    §A1.1) per doc: most-frequent-unigram count, most-frequent-bigram
    count, duplicated-bigram occurrences — the repetition half of the
    clean gate q13's length/stopword signals don't cover.  Purely
    per-doc, so the 100-TB shape is one embarrassingly-parallel
    ``map_batches`` pass (``stages/spans.repetition_stats``: lexsort +
    run-length over the flat token-dictionary stream); integer outputs
    for oracle-exact comparison.  Returns the corpus rollup grouped by
    the doc's repetition verdict so the result is driver-sized."""
    from ..stages.spans import repetition_stats

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def stats(b: pa.Table) -> pa.Table:
        rs = repetition_stats(b["text"])
        # Gopher-ish keep rule on integer arithmetic: top unigram
        # <= 20% of tokens AND duplicated bigrams <= 30% of bigrams
        keep = (rs["top_unigram_n"] * 5 <= rs["n_tokens"]) & (
            rs["dup_bigram_n"] * 10 <= rs["n_bigrams"] * 3
        )
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "keep": pa.array(keep.to_numpy(bool)),
                "n_tokens": pa.array(rs["n_tokens"].to_numpy(np.int64)),
                "top_unigram_n": pa.array(
                    rs["top_unigram_n"].to_numpy(np.int64)
                ),
                "top_bigram_n": pa.array(
                    rs["top_bigram_n"].to_numpy(np.int64)
                ),
                "dup_bigram_n": pa.array(
                    rs["dup_bigram_n"].to_numpy(np.int64)
                ),
            }
        )

    out = combine(
        ds,
        ["keep"],
        {
            "n_docs": ("doc_id", "count"),
            "sum_tokens": ("n_tokens", "sum"),
            "sum_top_unigram": ("top_unigram_n", "sum"),
            "sum_top_bigram": ("top_bigram_n", "sum"),
            "sum_dup_bigram": ("dup_bigram_n", "sum"),
        },
        stats,
    )
    return out.sort_values("keep").reset_index(drop=True)


SQL_Q70 = f"""
WITH t AS (SELECT doc_id, {_TOKS} AS toks FROM documents),
u AS (SELECT doc_id, unnest(toks) AS tok FROM t),
uc AS (SELECT doc_id, tok, COUNT(*) AS c FROM u GROUP BY doc_id, tok),
topu AS (SELECT doc_id, MAX(c) AS top_unigram_n, SUM(c) AS n_tokens
         FROM uc GROUP BY doc_id),
b AS (SELECT doc_id,
             unnest([toks[i+1] || ' ' || toks[i+2]
                     for i in range(len(toks)-1)]) AS bg
      FROM t),
bc AS (SELECT doc_id, bg, COUNT(*) AS c FROM b GROUP BY doc_id, bg),
topb AS (SELECT doc_id, MAX(c) AS top_bigram_n, SUM(c) AS n_bigrams,
                SUM(CASE WHEN c > 1 THEN c ELSE 0 END) AS dup_bigram_n
         FROM bc GROUP BY doc_id),
per AS (SELECT d.doc_id,
               COALESCE(n_tokens, 0) AS n_tokens,
               COALESCE(top_unigram_n, 0) AS top_unigram_n,
               COALESCE(n_bigrams, 0) AS n_bigrams,
               COALESCE(top_bigram_n, 0) AS top_bigram_n,
               COALESCE(dup_bigram_n, 0) AS dup_bigram_n
        FROM documents d
        LEFT JOIN topu ON d.doc_id = topu.doc_id
        LEFT JOIN topb ON d.doc_id = topb.doc_id),
v AS (SELECT *,
             (top_unigram_n * 5 <= n_tokens
              AND dup_bigram_n * 10 <= n_bigrams * 3) AS keep
      FROM per)
SELECT keep, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(n_tokens) AS BIGINT) AS sum_tokens,
       CAST(SUM(top_unigram_n) AS BIGINT) AS sum_top_unigram,
       CAST(SUM(top_bigram_n) AS BIGINT) AS sum_top_bigram,
       CAST(SUM(dup_bigram_n) AS BIGINT) AS sum_dup_bigram
FROM v GROUP BY keep ORDER BY keep
"""


def q71_stratified_sample(sf_dir: str):
    """Per-group stratified exact-k sampling: the k docs per source
    with the smallest ``knuth_hash`` of doc_id — the deterministic
    "take k per domain" curation primitive (stable across runs and
    cluster sizes, no RNG state; complements q46's rate-based split
    and q54's weight-based sampler).  One ``keyed.top_k``: only
    k-bounded per-batch partials cross the shuffle."""
    ds = _read(sf_dir, "documents", ["doc_id", "source"])

    def hashed(t: pa.Table) -> pa.Table:
        h = knuth_hash(t["doc_id"]).astype(np.int64)
        return pa.table({"source": t["source"], "doc_id": t["doc_id"], "h": h})

    order = [("h", "ascending"), ("doc_id", "ascending")]
    return top_k(ds, ["source"], order, 5, hashed)


SQL_Q71 = """
WITH h AS (
  SELECT source, doc_id,
         CAST((CAST(doc_id AS UBIGINT) * 2654435761) % 4294967296
              AS BIGINT) AS h
  FROM documents),
r AS (SELECT *, row_number() OVER (PARTITION BY source
                                   ORDER BY h, doc_id) AS rn
      FROM h)
SELECT source, doc_id, h FROM r WHERE rn <= 5
ORDER BY source, h, doc_id
"""


def q72_image_neardup_survivors(sf_dir: str):
    """Image near-dup dedup end-to-end (the image-axis analog of
    q48): phash band-LSH pairs (q33's engine) → connected components
    (q47's engine) → one canonical image per cluster (min image_id) →
    per-format survivor counts.  ``cluster.neardup_drop`` takes the
    string image_ids as they are; the drop set is result-sized and
    broadcasts into a sorted-set membership filter — image bytes never
    ride a shuffle.  Rows-only: runs on the synthesized image fixture
    (no driver table; pinned by the planted-duplicate test).

    Uses the ``speckle`` fixture style: distinct images are
    phash-separable (Hamming ≈ 32), so the near-dup clusters are
    exactly the planted duplicate chains — the drop count is
    assertable, not just bounded."""
    import ray

    from ..sources.synth import gen_images

    images, _ = gen_images(
        400, seed=42, dup_rate=0.05, base_style="speckle"
    )
    ds = ray.data.from_arrow(images.select(["image_id", "phash"]))
    pairs = dd.phash_near_pairs(ds, max_hamming=6)
    drop = neardup_drop(pairs, "id_a", "id_b")
    meta = ray.data.from_arrow(images.select(["image_id", "fmt"]))

    def keep(t: pa.Table) -> pa.Table:
        ids = t["image_id"].to_numpy(zero_copy_only=False)
        return t.select(["fmt"]).filter(pa.array(~in_sorted(ids, drop)))

    out = combine(meta, ["fmt"], {"n_images": ("fmt", "count")}, keep)
    return out.sort_values("fmt").reset_index(drop=True)


def q73_span_removal(sf_dir: str):
    """Substring-dedup TRANSFORM (Lee et al. 2021) — the removal half
    of q69's detection: every duplicated 8-gram span is cut from the
    corpus except the globally-first occurrence (canonical = min
    (doc_id, pos) per gram), text re-serialized from the surviving
    tokens (``stages/spans.remove_duplicate_spans``; two shuffles:
    gram-keyed for global first-occurrence, doc-keyed tagged union for
    the rewrite — text rides a shuffle exactly once).  Result is the
    per-source token accounting of the cleaned corpus; the cleaned
    text itself stays distributed (write_parquet it at scale)."""
    from ..stages.spans import remove_duplicate_spans

    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])
    clean = remove_duplicate_spans(ds, K=8, meta_cols=("source",))
    out = combine(
        clean,
        ["source"],
        {
            "n_docs": ("doc_id", "count"),
            "sum_tokens": ("n_tokens", "sum"),
            "cut_tokens": ("cut_tokens", "sum"),
            "kept_tokens": ("kept_tokens", "sum"),
        },
    )
    return out.sort_values("source").reset_index(drop=True)


SQL_Q73 = f"""
WITH t AS (SELECT doc_id, source, {_TOKS} AS toks FROM documents),
p AS (SELECT doc_id, unnest(range(len(toks)-{_Q69_K}+1)) AS pos, toks
      FROM t WHERE len(toks) >= {_Q69_K}),
g AS (SELECT doc_id, pos,
             array_to_string(toks[pos+1:pos+{_Q69_K}], ' ') AS gram FROM p),
r AS (SELECT doc_id, pos,
             COUNT(*) OVER (PARTITION BY gram) AS cnt,
             ROW_NUMBER() OVER (PARTITION BY gram
                                ORDER BY doc_id, pos) AS rn
      FROM g),
hits AS (SELECT doc_id, pos FROM r WHERE cnt > 1 AND rn > 1),
m AS (SELECT doc_id, pos,
             CASE WHEN pos - lag(pos) OVER (PARTITION BY doc_id
                                            ORDER BY pos) <= {_Q69_K}
                  THEN 0 ELSE 1 END AS brk
      FROM hits),
isl AS (SELECT doc_id, pos,
               SUM(brk) OVER (PARTITION BY doc_id ORDER BY pos) AS island
        FROM m),
sp AS (SELECT doc_id, island, MIN(pos) AS s, MAX(pos) + {_Q69_K} AS e
       FROM isl GROUP BY doc_id, island),
cut AS (SELECT doc_id, SUM(e - s) AS c FROM sp GROUP BY doc_id)
SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(len(toks)) AS BIGINT) AS sum_tokens,
       CAST(SUM(COALESCE(c, 0)) AS BIGINT) AS cut_tokens,
       CAST(SUM(len(toks)) - SUM(COALESCE(c, 0)) AS BIGINT) AS kept_tokens
FROM t LEFT JOIN cut USING (doc_id) GROUP BY source ORDER BY source
"""


def q74_cosine_simjoin(sf_dir: str):
    """EXACT embedding cosine similarity self-join (all pairs with
    cos ≥ 0.4) — the oracle-checked exact baseline of the embedding
    near-dup family (q29 is the hyperplane-LSH recall path, q28 the
    IVF ANN path; this is the charter's 'brute-force cosine against a
    broadcast matrix' baseline made a first-class verified operator).

    Shape: the normalized matrix broadcasts once via ``ray.put``
    (zero-copy plasma reads in every task); each batch computes ONE
    k×n matmul and keeps its upper-triangle hits, so compute is
    O(n²/CPUs) per task with no shuffle at all.  At corpus scale the
    broadcast side outgrows plasma — that regime belongs to the
    blocked/LSH paths (q28/q29); this operator is the exact-verify
    primitive they calibrate against."""
    import ray

    tbl = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
    )
    ids = tbl["vec_id"].to_numpy()
    emb = matrix(tbl["embedding"].to_pandas()).astype(np.float64)
    nrm = np.linalg.norm(emb, axis=1, keepdims=True)
    nrm[nrm == 0] = 1
    mat_ref = ray.put(emb / nrm)
    ids_ref = ray.put(ids)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def pairs(b: pd.DataFrame) -> pd.DataFrame:
        mat = ray.get(mat_ref)
        all_ids = ray.get(ids_ref)
        e = matrix(b["embedding"], mat.shape[1]).astype(np.float64)
        n = np.linalg.norm(e, axis=1, keepdims=True)
        n[n == 0] = 1
        sims = (e / n) @ mat.T
        my_ids = b["vec_id"].to_numpy(np.int64)
        bi, bj = np.nonzero(sims >= 0.4)
        ia, ib = my_ids[bi], all_ids[bj]
        keep = ia < ib  # upper triangle by id — each pair emitted once
        return pd.DataFrame(
            {
                "id_a": ia[keep],
                "id_b": ib[keep],
                "cos_sim": np.round(sims[bi, bj][keep], 3),
            }
        )

    return collect(ds, pairs).sort_values(["id_a", "id_b"]).reset_index(drop=True)


SQL_Q74 = """
SELECT a.vec_id AS id_a, b.vec_id AS id_b,
       ROUND(CAST(list_cosine_similarity(a.embedding, b.embedding)
                  AS DOUBLE), 3) AS cos_sim
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.4
ORDER BY id_a, id_b
"""


def q76_embedding_neardup_survivors(sf_dir: str):
    """Embedding near-dup SURVIVORS (SemDeDup-style corpus pruning,
    exact edition): q74's exact cosine pair set closed into connected
    components; one canonical vector (min vec_id) survives per
    component, every other member is dropped; result = per-label
    survivor counts.  The embedding analog of q48's text-near-dup
    survivors — same shape: result-sized pair list →
    ``cluster.neardup_drop`` → broadcast drop set → sorted-set
    membership filter, the corpus never re-shuffles.
    Oracle: DuckDB recursive-CTE closure over the identical
    list_cosine_similarity pair set."""
    import ray

    drop_ref = ray.put(neardup_drop(q74_cosine_simjoin(sf_dir), "id_a", "id_b"))
    ds = _read(sf_dir, "embeddings", ["vec_id", "label"])

    def keep(t: pa.Table) -> pa.Table:
        got = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        kept = ~in_sorted(got, ray.get(drop_ref))
        return pa.table({"label": t["label"].cast(pa.int64())}).filter(pa.array(kept))

    out = combine(ds, ["label"], {"n_vecs": ("label", "count")}, keep)
    return out.sort_values("label").reset_index(drop=True)


SQL_Q76 = """
WITH RECURSIVE
p AS (SELECT a.vec_id AS ia, b.vec_id AS ib
      FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
      WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.4),
edges AS (SELECT ia AS a, ib AS b FROM p
          UNION SELECT ib, ia FROM p
          UNION SELECT ia, ia FROM p
          UNION SELECT ib, ib FROM p),
reach(src, dst) AS (
    SELECT a, b FROM edges
    UNION
    SELECT r.src, e2.b FROM reach r JOIN edges e2 ON r.dst = e2.a
),
cl AS (SELECT src AS vec_id, MIN(dst) AS cluster_id FROM reach GROUP BY src),
dropped AS (SELECT vec_id FROM cl WHERE vec_id != cluster_id)
SELECT CAST(label AS BIGINT) AS label, CAST(COUNT(*) AS BIGINT) AS n_vecs
FROM embeddings
WHERE vec_id NOT IN (SELECT vec_id FROM dropped)
GROUP BY label ORDER BY label
"""


def _moments(sf_dir: str) -> pd.DataFrame:
    """Per-return-flag float moments of x = l_quantity and
    y = l_extendedprice (n, Σx, Σy, Σxx, Σyy, Σxy) plus each column's
    min and max (a column is constant exactly when they are equal):
    one projection, one driver ``combine`` — the handful of partial
    rows per batch are all that leave the tasks."""
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_quantity", "l_extendedprice"])

    def project(t: pa.Table) -> pa.Table:
        x = t["l_quantity"].to_numpy(zero_copy_only=False).astype(np.float64)
        y = t["l_extendedprice"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({"l_returnflag": t["l_returnflag"], "x": x, "y": y,
                         "xx": x * x, "yy": y * y, "xy": x * y})

    return combine(
        ds,
        ["l_returnflag"],
        {"n": ("x", "count"), "sx": ("x", "sum"), "sy": ("y", "sum"),
         "sxx": ("xx", "sum"), "syy": ("yy", "sum"), "sxy": ("xy", "sum"),
         "x_min": ("x", "min"), "x_max": ("x", "max"),
         "y_min": ("y", "min"), "y_max": ("y", "max")},
        project,
    )


def _constant(pdf: pd.DataFrame, col: str) -> np.ndarray:
    """Which groups of a ``_moments`` frame hold one distinct ``col``
    value: an exact test, where a float variance may round off zero."""
    return (pdf[f"{col}_min"] == pdf[f"{col}_max"]).to_numpy()


def q84_group_regression(sf_dir: str):
    """Grouped least-squares regression (slope + intercept of
    l_extendedprice on l_quantity per return flag) — the regression
    member of the moments family (q80 = correlation, q60 = z-score),
    same zero-shuffle shape: per-(group, batch) moment partials, the
    driver folds a handful of rows and applies the closed form
    slope = (nΣxy−ΣxΣy)/(nΣxx−Σx²), intercept = (Σy−slope·Σx)/n; a
    group with constant x gets NaN for both (SQL NULL)."""
    pdf = _moments(sf_dir)
    n = pdf["n"].to_numpy(np.float64)
    sx, sy = pdf["sx"].to_numpy(), pdf["sy"].to_numpy()
    sxx, sxy = pdf["sxx"].to_numpy(), pdf["sxy"].to_numpy()
    # constant x (one distinct l_quantity in a group): no regression
    # line — NaN, as REGR_SLOPE / REGR_INTERCEPT return NULL
    flat = _constant(pdf, "x")
    den = n * sxx - sx * sx
    slope = np.where(flat, np.nan, n * sxy - sx * sy) / np.where(flat, 1, den)
    intercept = (sy - slope * sx) / n
    out = pd.DataFrame(
        {
            "l_returnflag": pdf["l_returnflag"],
            "n_rows": pdf["n"],
            "slope": np.round(slope, 6),
            "intercept": np.round(intercept, 6),
        }
    )
    return out.sort_values("l_returnflag").reset_index(drop=True)


SQL_Q84 = """
SELECT l_returnflag, CAST(COUNT(*) AS BIGINT) AS n_rows,
       ROUND(REGR_SLOPE(l_extendedprice, l_quantity), 6) AS slope,
       ROUND(REGR_INTERCEPT(l_extendedprice, l_quantity), 6) AS intercept
FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag
"""


def q83_interarrival(sf_dir: str):
    """Inter-arrival gap statistics (the LAG-diff window member:
    sessionize q19 thresholds gaps, this AGGREGATES them): per event
    type, the count / total / max of gaps between a user's
    consecutive events of that type.  All-integer partials
    (microsecond gaps as int64) so the fold is exact; the mean is one
    final division.

    Shape: user-hash partition (a user's events co-locate) → one
    vectorized sort + diff per partition with (user, type) run
    boundaries masked → one gap row per consecutive pair → a fused
    driver ``combine`` per type."""
    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    def project(b: pa.Table) -> pa.Table:
        ts_us = b["ts"].cast(pa.timestamp("us")).cast(pa.int64())
        return pa.table(
            {"user_id": b["user_id"], "event_type": b["event_type"], "ts_us": ts_us}
        )

    def gaps_part(g: pd.DataFrame) -> pd.DataFrame:
        o = g.sort_values(["user_id", "event_type", "ts_us"])
        u = o["user_id"].to_numpy(np.int64)
        et = o["event_type"].to_numpy()
        ts = o["ts_us"].to_numpy(np.int64)
        same = np.zeros(len(o), bool)
        if len(o) > 1:
            same[1:] = (u[1:] == u[:-1]) & (et[1:] == et[:-1])
        gap = np.diff(ts, prepend=ts[0] if len(ts) else 0)
        return pd.DataFrame({"event_type": et[same], "gap": gap[same]})

    out = combine(
        keyed_map(ds.map_batches(project, batch_format="pyarrow"), ["user_id"], gaps_part),
        ["event_type"],
        {"n_gaps": ("gap", "count"), "sum_gap_us": ("gap", "sum"),
         "max_gap_us": ("gap", "max")},
    )
    out["mean_gap_us"] = np.round(
        out["sum_gap_us"].to_numpy(np.float64)
        / out["n_gaps"].to_numpy(np.float64),
        6,
    )
    return out.sort_values("event_type").reset_index(drop=True)


SQL_Q83 = """
WITH g AS (SELECT event_type,
                  CAST(epoch_us(ts) - epoch_us(lag(ts) OVER
                       (PARTITION BY user_id, event_type ORDER BY ts))
                       AS BIGINT) AS gap
           FROM events)
SELECT event_type, CAST(COUNT(gap) AS BIGINT) AS n_gaps,
       CAST(SUM(gap) AS BIGINT) AS sum_gap_us,
       CAST(MAX(gap) AS BIGINT) AS max_gap_us,
       ROUND(SUM(gap) * 1.0 / COUNT(gap), 6) AS mean_gap_us
FROM g WHERE gap IS NOT NULL GROUP BY event_type ORDER BY event_type
"""


def q82_source_overlap(sf_dir: str):
    """Cross-source vocabulary overlap: pairwise Jaccard between the
    DISTINCT-token sets of every source pair — set similarity at the
    GROUP level (q18 does it at the doc level), the corpus-mixture
    diagnostic ("how much does source A's vocabulary overlap B's?").

    Shape: per-batch distinct (source, word-hash) partials →
    word-hash-keyed shuffle (each partition word-complete) → one
    vectorized self-merge per partition emits source-pair
    co-occurrence rows plus per-source distinct-word rows, which one
    fused driver ``combine`` counts to |sources|² pair rows before
    the Jaccard finish.  Words travel as 8-byte hashes (the q18
    collision trade, ~2⁻⁶⁴/pair); the vocabulary itself never lands
    anywhere whole."""
    from ..functions.hashing import fnv1a64_batch

    ds = _read(sf_dir, "documents", ["source", "text"])

    def distinct_partial(b: pa.Table) -> pa.Table:
        _counts, idx, dic, doc_of = tx.tokenize(b["text"])
        srcs = pd.Series(b["source"].to_pylist())
        codes, uniq_src = pd.factorize(srcs)
        wh = fnv1a64_batch(dic)
        pair = codes[doc_of].astype(np.uint64) * np.uint64(
            len(dic)
        ) + idx.astype(np.uint64)
        keep = np.zeros(len(pair), bool)
        keep[np.unique(pair, return_index=True)[1]] = True
        s_out = uniq_src[codes[doc_of][keep]]
        w_out = wh[idx[keep]].view(np.int64)
        return pa.table(
            {
                "source": pa.array(s_out, pa.string()),
                "wh": pa.array(w_out, pa.int64()),
            }
        )

    def pair_rows(g: pd.DataFrame) -> pd.DataFrame:
        # one (source_a, source_b) row per word two sources share, plus
        # one (source, "") row per distinct (source, word): the size row
        d = g[["source", "wh"]].drop_duplicates()
        pr = d.merge(d, on="wh", suffixes=("_a", "_b"))
        pr = pr[pr["source_a"] < pr["source_b"]]
        return pd.DataFrame(
            {
                "source_a": np.concatenate([pr["source_a"], d["source"]]),
                "source_b": np.concatenate(
                    [pr["source_b"], np.full(len(d), "", object)]
                ),
            }
        )

    pdf = combine(
        keyed_map(
            ds.map_batches(distinct_partial, batch_format="pyarrow"), ["wh"], pair_rows
        ),
        ["source_a", "source_b"],
        {"inter": ("source_a", "count")},
    )
    sizes = pdf[pdf["source_b"] == ""].set_index("source_a")["inter"]
    pairs = pdf[pdf["source_b"] != ""].copy()
    na = sizes[pairs["source_a"]].to_numpy(np.float64)
    nb = sizes[pairs["source_b"]].to_numpy(np.float64)
    inter = pairs["inter"].to_numpy(np.float64)
    pairs["jaccard"] = np.round(inter / (na + nb - inter), 6)
    return (
        pairs[["source_a", "source_b", "inter", "jaccard"]]
        .sort_values(["source_a", "source_b"])
        .reset_index(drop=True)
    )


SQL_Q82 = """
WITH sw AS (SELECT DISTINCT source, unnest({_TOKS}) AS w FROM documents),
sz AS (SELECT source, COUNT(*) AS n FROM sw GROUP BY source),
p AS (SELECT a.source AS source_a, b.source AS source_b,
             CAST(COUNT(*) AS BIGINT) AS inter
      FROM sw a JOIN sw b ON a.w = b.w AND a.source < b.source
      GROUP BY 1, 2)
SELECT p.source_a, p.source_b, p.inter,
       ROUND(p.inter * 1.0 / (x.n + y.n - p.inter), 6) AS jaccard
FROM p JOIN sz x ON x.source = p.source_a
       JOIN sz y ON y.source = p.source_b
ORDER BY source_a, source_b
""".replace("{_TOKS}", _TOKS)


def q81_freq_spectrum(sf_dir: str):
    """Word-frequency SPECTRUM (count-of-counts — the Zipf diagnostic
    behind Good-Turing smoothing and vocabulary-size estimates; q39
    is the DOC-length histogram, this is the WORD-frequency one):
    how many distinct words occur exactly c times, for each c.

    Shape: q12's partitioned word counts (vocabulary stays
    distributed, each partition key-complete) → a driver ``combine``
    of count-of-counts over them, spectrum-sized (≈ hundreds of
    rows).  The vocabulary never lands on the driver."""

    def freq(t: pa.Table) -> pa.Table:
        return pa.table({"freq": t["cnt"]})

    out = combine(_word_counts(sf_dir), ["freq"], {"n_words": ("freq", "count")}, freq)
    return out.sort_values("freq").reset_index(drop=True)


SQL_Q81 = """
WITH w AS (SELECT word, COUNT(*) AS c FROM
             (SELECT unnest({_TOKS}) AS word FROM documents)
           GROUP BY word)
SELECT CAST(c AS BIGINT) AS freq, CAST(COUNT(*) AS BIGINT) AS n_words
FROM w GROUP BY c ORDER BY freq
""".replace("{_TOKS}", _TOKS)


def q80_group_corr(sf_dir: str):
    """Grouped statistical aggregate (Pearson CORR per group) via
    MOMENT PARTIALS — the two-variable member of the moments family
    (q60 does single-variable z-scores the same way): each batch
    contributes one (n, Σx, Σy, Σxx, Σyy, Σxy) row per group, the
    driver folds #groups×#batches tiny rows and finishes
    corr = (nΣxy−ΣxΣy)/√((nΣxx−Σx²)(nΣyy−Σy²)).  The corpus never
    shuffles — only 6 doubles per (group, batch) cross the wire.
    Rounded to 6 decimals so the reduction-order float difference vs
    DuckDB's streaming corr() vanishes.  A group whose x or y never
    varies gets NaN (SQL NULL), as CORR."""
    pdf = _moments(sf_dir)
    n = pdf["n"].to_numpy(np.float64)
    sx, sy = pdf["sx"].to_numpy(), pdf["sy"].to_numpy()
    sxx, syy, sxy = (
        pdf["sxx"].to_numpy(),
        pdf["syy"].to_numpy(),
        pdf["sxy"].to_numpy(),
    )
    flat = _constant(pdf, "x") | _constant(pdf, "y")
    den = np.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))
    corr = np.where(flat, np.nan, n * sxy - sx * sy) / np.where(flat, 1, den)
    out = pd.DataFrame(
        {
            "l_returnflag": pdf["l_returnflag"],
            "n_rows": pdf["n"],
            "corr_qty_price": np.round(corr, 6),
        }
    )
    return out.sort_values("l_returnflag").reset_index(drop=True)


SQL_Q80 = """
SELECT l_returnflag, CAST(COUNT(*) AS BIGINT) AS n_rows,
       ROUND(CORR(l_quantity, l_extendedprice), 6) AS corr_qty_price
FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag
"""


def q79_event_funnel(sf_dir: str):
    """Event FUNNEL (telemetry/product-analytics workload): how many
    'view' events convert to a 'click' by the same user within 30
    minutes — the FORWARD as-of member of the temporal family (q40 is
    the backward one).  Shape: one zero-copy Arrow filter/project
    pass → user-hash partition (both event types of a user co-locate)
    → per-partition ``pd.merge_asof(direction='forward',
    allow_exact_matches=False, tolerance=30min)`` — one vectorized
    call, no per-event Python; each partition emits ONE partial row
    (views, conversions, distinct converting users — exact because
    partitions are user-complete), the driver folds one row per
    partition."""
    W_US = 30 * 60 * 1_000_000
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])

    def project(b: pa.Table) -> pa.Table:
        m = pc.is_in(b["event_type"], pa.array(["view", "click"]))
        b = b.filter(m)
        ts_us = b["ts"].cast(pa.timestamp("us")).cast(pa.int64())
        return pa.table(
            {
                "event_id": b["event_id"],
                "user_id": b["user_id"],
                "event_type": b["event_type"],
                "ts_us": ts_us,
            }
        )

    def funnel_part(g: pd.DataFrame) -> pd.DataFrame:
        v = g[g["event_type"] == "view"].sort_values("ts_us")
        c = g[g["event_type"] == "click"].sort_values("ts_us")
        m = pd.merge_asof(
            v[["event_id", "user_id", "ts_us"]],
            c[["user_id", "ts_us"]].assign(click_ts=c["ts_us"]),
            on="ts_us",
            by="user_id",
            direction="forward",
            allow_exact_matches=False,
            tolerance=W_US,
        )
        conv = m["click_ts"].notna()
        return pd.DataFrame(
            {
                "n_views": [len(v)],
                "n_converted_views": [int(conv.sum())],
                "n_users_converted": [
                    int(m.loc[conv, "user_id"].nunique())
                ],
            }
        )

    pdf = collect(keyed_map(
        ds.map_batches(project, batch_format="pyarrow"), ["user_id"], funnel_part
    ))
    # no partition rows at all: SQL's COUNT over an empty set is 0
    return pd.DataFrame({c: [int(pdf[c].sum())] for c in pdf.columns})


SQL_Q79 = """
WITH v AS (SELECT event_id, user_id, ts FROM events
           WHERE event_type = 'view'),
c AS (SELECT user_id, ts FROM events WHERE event_type = 'click'),
j AS (SELECT v.event_id, v.user_id,
             EXISTS(SELECT 1 FROM c
                    WHERE c.user_id = v.user_id AND c.ts > v.ts
                      AND c.ts <= v.ts + INTERVAL 30 MINUTE) AS conv
      FROM v)
SELECT CAST(COUNT(*) AS BIGINT) AS n_views,
       CAST(COUNT(*) FILTER (WHERE conv) AS BIGINT) AS n_converted_views,
       CAST(COUNT(DISTINCT user_id) FILTER (WHERE conv) AS BIGINT)
           AS n_users_converted
FROM j
"""


def q78_top_decile(sf_dir: str):
    """PERCENT_RANK window family (the rank member missing from the
    window coverage: row_number=q56, running sum=q58/q66, lag
    sessionize=q19, percentiles=q41): per return flag, how many
    lineitems sit in the top price decile (percent_rank ≥ 0.9).

    Two passes, no global sort: pass 1 folds per-(group, value)
    counts (a partitioned ``combine``); the per-group
    cumulative gives rank_lt (count strictly smaller — PERCENT_RANK's
    numerator, ties sharing) for every DISTINCT value, which
    broadcasts (value-domain-sized: prices live on a bounded cents
    grid, ≪ rows at 100 TB).  Pass 2 streams rows once, looks ranks
    up by searchsorted, and tests the decile with INTEGER arithmetic
    (10·rank_lt ≥ 9·(n−1) ⇔ rank_lt/(n−1) ≥ 0.9 — IEEE division is
    correctly rounded, so the float comparison in SQL agrees
    exactly); only per-group counters cross to the driver."""
    keys = ["l_returnflag", "l_extendedprice"]
    ds = _read(sf_dir, "lineitem", keys)
    vc = collect(combine(ds, keys, {"cnt": ("l_extendedprice", "count")}, partitioned=True))
    vc = vc.sort_values(["l_returnflag", "l_extendedprice"])
    vc["lt"] = (
        vc.groupby("l_returnflag")["cnt"].cumsum() - vc["cnt"]
    ).astype(np.int64)
    tables = {
        rf: (
            g["l_extendedprice"].to_numpy(np.float64),
            g["lt"].to_numpy(np.int64),
            int(g["cnt"].sum()),
        )
        for rf, g in vc.groupby("l_returnflag")
    }

    def flag(t: pa.Table) -> pa.Table:
        rf = t["l_returnflag"].to_numpy(zero_copy_only=False)
        price = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        top = np.zeros(len(t), bool)
        for r in np.unique(rf):  # a handful of flags per batch
            vals, lt, n = tables[r]
            at = rf == r
            rank_lt = lt[np.searchsorted(vals, price[at])]
            top[at] = (10 * rank_lt >= 9 * (n - 1)) & (n > 1)
        return pa.table({"l_returnflag": t["l_returnflag"], "top": top})

    out = combine(
        ds,
        ["l_returnflag"],
        {"n_top_decile": ("top", "sum"), "n_rows": ("top", "count")},
        flag,
    )
    return out.sort_values("l_returnflag").reset_index(drop=True)


SQL_Q78 = """
WITH r AS (SELECT l_returnflag,
                  PERCENT_RANK() OVER (PARTITION BY l_returnflag
                                       ORDER BY l_extendedprice) AS pr
           FROM lineitem)
SELECT l_returnflag,
       CAST(COUNT(*) FILTER (WHERE pr >= 0.9) AS BIGINT) AS n_top_decile,
       CAST(COUNT(*) AS BIGINT) AS n_rows
FROM r GROUP BY l_returnflag ORDER BY l_returnflag
"""


def q77_unigram_logprob(sf_dir: str):
    """Perplexity-style quality scoring with a corpus unigram LM
    (the CCNet-family 'score each doc by LM likelihood' op, with the
    LM trained ON the corpus in the same pipeline): pass 1 builds the
    global unigram distribution (q12's partitioned word counts, the
    vocabulary never lands on the driver unaggregated); the folded
    vocab broadcasts via ``ray.put`` (Zipf:
    vocab ≪ corpus); pass 2 streams the corpus once more and computes
    each doc's mean token negative-log-likelihood by dictionary-encode
    + sorted-vocab searchsorted — no per-token Python.  Returns
    per-doc (doc_id, n_tokens, nll) with nll rounded to 6 decimals so
    the float reduction-order difference vs the SQL oracle vanishes."""
    import ray

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    vocab = collect(_word_counts(sf_dir))
    order = np.argsort(vocab["word"].to_numpy())
    words = vocab["word"].to_numpy()[order]
    counts = vocab["cnt"].to_numpy(np.float64)[order]
    logp = np.log(counts / counts.sum())
    vocab_ref = ray.put((words, logp))

    def score(b: pd.DataFrame) -> pd.DataFrame:
        wv, lp = ray.get(vocab_ref)
        cnts, idx, dic, doc_of = tx.tokenize(b["text"])
        n = len(b)
        nll = np.zeros(n, np.float64)
        if len(idx):
            # per-dictionary-token logp gathered once, then summed per
            # doc over the flat index stream
            dtoks = np.asarray(dic.to_pylist(), dtype=object)
            pos = np.searchsorted(wv, dtoks)
            dlp = lp[np.minimum(pos, len(wv) - 1)]
            sums = np.bincount(doc_of, weights=dlp[idx], minlength=n)
            nz = cnts > 0
            nll[nz] = -sums[nz] / cnts[nz]
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].to_numpy(np.int64),
                "n_tokens": cnts.astype(np.int64),
                "nll": np.round(nll, 6),
            }
        )

    return collect(ds, score).sort_values("doc_id").reset_index(drop=True)


SQL_Q77 = """
WITH t AS (SELECT doc_id, {_TOKS} AS toks FROM documents),
e AS (SELECT doc_id, unnest(toks) AS w FROM t),
v AS (SELECT w, COUNT(*) AS c FROM e GROUP BY w),
n AS (SELECT SUM(c) AS total FROM v),
s AS (SELECT e.doc_id, COUNT(*) AS n_tokens,
             AVG(-ln(v.c * 1.0 / n.total)) AS nll
      FROM e JOIN v USING (w) CROSS JOIN n GROUP BY e.doc_id)
SELECT t.doc_id, CAST(COALESCE(s.n_tokens, 0) AS BIGINT) AS n_tokens,
       ROUND(COALESCE(s.nll, 0.0), 6) AS nll
FROM t LEFT JOIN s USING (doc_id) ORDER BY doc_id
""".replace("{_TOKS}", _TOKS)


# GPT-2-style pretokenizer, lookahead-free so RE2 (pyarrow AND DuckDB)
# can run it: optional leading space + letter run / digit run /
# punct run.  Both engines are RE2 → exact count parity by
# construction.
_BPE_PAT = r" ?[a-z]+| ?[0-9]+| ?[^a-z0-9\s]+"


def q75_pretokenize(sf_dir: str):
    """Token counting, tokenizer-family edition (charter: 'whitespace
    + a BPE-ish regex'): per doc, the whitespace token count and the
    GPT-2-style pretoken count (the unit a BPE tokenizer would merge
    from).  Fully per-doc → one zero-copy pyarrow pass; counts come
    from ``pc.count_substring_regex`` (RE2), the SAME regex engine
    DuckDB's ``regexp_extract_all`` uses, so the oracle comparison is
    engine-exact, not merely dialect-similar."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def counts(b: pa.Table) -> pa.Table:
        txt = b["text"]
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "n_ws_tokens": pc.cast(
                    pc.count_substring_regex(txt, r"\S+"), pa.int64()
                ),
                "n_bpe_tokens": pc.cast(
                    pc.count_substring_regex(
                        pc.utf8_lower(txt), _BPE_PAT
                    ),
                    pa.int64(),
                ),
            }
        )

    return collect(ds.map_batches(counts, batch_format="pyarrow"))


SQL_Q75 = f"""
SELECT doc_id,
       CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT)
           AS n_ws_tokens,
       CAST(len(regexp_extract_all(lower(text), '{_BPE_PAT}')) AS BIGINT)
           AS n_bpe_tokens
FROM documents
"""


# ------------------------------------------------------------------ catalog


def queries():
    """Catalog of every implemented pipeline/operator.

    Ordering contract: the driver's correctness gate records at most
    50 entries in catalog order.  There are more than 50
    SQL-oracle-checked queries, so the window is ROTATED each round:
    queries that have been driver-green for multiple rounds are moved
    past the window to make room for never-driver-graded ones (round
    5 rotation: q02/q03/q04/q05/q06/q07/q08/q09/q19/q26/q27/q34/q35/
    q36/q38/q39/q42 out — each driver-green r1–r4 — q67–q71 +
    q73–q84 in).  Rotated-out
    queries keep their oracles and stay
    covered by the local replica gate (tests/test_queries_oracle.py,
    all oracle-checked queries vs DuckDB at sf0.001).  Rows-only
    queries come last — see COVERAGE.md §"rows-only adjudication"
    for WHY each has no oracle."""
    return {
        "q01_pricing_summary": q01_pricing_summary,
        "q10_doc_dedup_exact": q10_doc_dedup_exact,
        "q11_token_stats": q11_token_stats,
        "q12_word_counts": q12_word_counts,
        "q13_quality": q13_quality,
        "q14_langid": q14_langid,
        "q15_embedding_topk": q15_embedding_topk,
        "q16_minhash_pairs": q16_minhash_pairs,
        "q18_jaccard_pairs": q18_jaccard_pairs,
        "q22_inverted_index": q22_inverted_index,
        "q37_clean_corpus": q37_clean_corpus,
        "q40_asof_join": q40_asof_join,
        "q41_value_percentiles": q41_value_percentiles,
        "q44_range_join": q44_range_join,
        "q45_tfidf_terms": q45_tfidf_terms,
        "q46_split_sample": q46_split_sample,
        "q47_dup_clusters": q47_dup_clusters,
        "q48_neardup_survivors": q48_neardup_survivors,
        "q49_heavy_tokens": q49_heavy_tokens,
        "q50_price_quantiles": q50_price_quantiles,
        "q51_bloom_semijoin": q51_bloom_semijoin,
        "q52_length_band_filter": q52_length_band_filter,
        "q55_decontaminate": q55_decontaminate,
        "q56_top3_orders_per_customer": q56_top3_orders_per_customer,
        "q57_distinct_users": q57_distinct_users,
        "q58_running_totals": q58_running_totals,
        "q59_source_quota": q59_source_quota,
        "q60_zscore": q60_zscore,
        "q61_bigram_counts": q61_bigram_counts,
        "q62_sequence_packing": q62_sequence_packing,
        "q63_curation_funnel": q63_curation_funnel,
        "q65_incremental_dedup": q65_incremental_dedup,
        "q66_rolling_window": q66_rolling_window,
        "q67_salted_groupby": q67_salted_groupby,
        "q68_windowed_event_dedup": q68_windowed_event_dedup,
        "q69_duplicate_spans": q69_duplicate_spans,
        "q70_repetition_stats": q70_repetition_stats,
        "q71_stratified_sample": q71_stratified_sample,
        "q73_span_removal": q73_span_removal,
        "q74_cosine_simjoin": q74_cosine_simjoin,
        "q75_pretokenize": q75_pretokenize,
        "q76_embedding_neardup_survivors": q76_embedding_neardup_survivors,
        "q77_unigram_logprob": q77_unigram_logprob,
        "q78_top_decile": q78_top_decile,
        "q79_event_funnel": q79_event_funnel,
        "q80_group_corr": q80_group_corr,
        "q81_freq_spectrum": q81_freq_spectrum,
        "q82_source_overlap": q82_source_overlap,
        "q83_interarrival": q83_interarrival,
        "q84_group_regression": q84_group_regression,
        # ---- oracle-checked but rotated OUT of the driver's 50-slot
        # window (driver-green r1–r4; still run vs DuckDB in the
        # local replica gate every round) ----
        "q02_top_orders": q02_top_orders,
        "q03_revenue_by_segment": q03_revenue_by_segment,
        "q05_nation_orders": q05_nation_orders,
        "q06_revenue_filter": q06_revenue_filter,
        "q04_customers_without_orders": q04_customers_without_orders,
        "q07_distinct_flags": q07_distinct_flags,
        "q08_events_hourly": q08_events_hourly,
        "q09_top_users": q09_top_users,
        "q19_sessionize": q19_sessionize,
        "q26_brand_volume": q26_brand_volume,
        "q27_best_order_per_customer": q27_best_order_per_customer,
        "q34_region_revenue": q34_region_revenue,
        "q35_props_extract": q35_props_extract,
        "q36_supplier_balance": q36_supplier_balance,
        "q38_dedup_survivors": q38_dedup_survivors,
        "q39_token_histogram": q39_token_histogram,
        "q42_sliding_window": q42_sliding_window,
        # ---- rows-only (no SQL oracle possible; see COVERAGE.md) ----
        "q17_simhash": q17_simhash,
        "q20_phash_dedup": q20_phash_dedup,
        "q21_crawl_order": q21_crawl_order,
        "q23_search": q23_search,
        "q24_multimodal": q24_multimodal,
        "q25_pagerank": q25_pagerank,
        "q28_ivf_topk": q28_ivf_topk,
        "q29_embedding_neardup": q29_embedding_neardup,
        "q30_fingerprint": q30_fingerprint,
        "q31_top_hosts": q31_top_hosts,
        "q32_crawl_rank_index_search": q32_crawl_rank_index_search,
        "q33_phash_near_dedup": q33_phash_near_dedup,
        "q43_hll_distinct": q43_hll_distinct,
        "q53_kmeans_clusters": q53_kmeans_clusters,
        "q54_weighted_sample": q54_weighted_sample,
        "q64_image_funnel": q64_image_funnel,
        "q72_image_neardup_survivors": q72_image_neardup_survivors,
    }

def oracle_sql():
    return {
        "q01_pricing_summary": SQL_Q01,
        "q02_top_orders": SQL_Q02,
        "q03_revenue_by_segment": SQL_Q03,
        "q04_customers_without_orders": SQL_Q04,
        "q05_nation_orders": SQL_Q05,
        "q06_revenue_filter": SQL_Q06,
        "q07_distinct_flags": SQL_Q07,
        "q08_events_hourly": SQL_Q08,
        "q09_top_users": SQL_Q09,
        "q10_doc_dedup_exact": SQL_Q10,
        "q11_token_stats": SQL_Q11,
        "q12_word_counts": SQL_Q12,
        "q13_quality": SQL_Q13,
        "q14_langid": _langid_sql(),
        "q15_embedding_topk": SQL_Q15,
        "q16_minhash_pairs": SQL_Q16,
        "q18_jaccard_pairs": SQL_Q18,
        "q19_sessionize": SQL_Q19,
        "q22_inverted_index": SQL_Q22,
        "q26_brand_volume": SQL_Q26,
        "q27_best_order_per_customer": SQL_Q27,
        "q34_region_revenue": SQL_Q34,
        "q35_props_extract": SQL_Q35,
        "q36_supplier_balance": SQL_Q36,
        "q37_clean_corpus": _q37_sql(),
        "q38_dedup_survivors": SQL_Q38,
        "q39_token_histogram": SQL_Q39,
        "q40_asof_join": SQL_Q40,
        "q41_value_percentiles": SQL_Q41,
        "q42_sliding_window": SQL_Q42,
        "q44_range_join": SQL_Q44,
        "q45_tfidf_terms": SQL_Q45,
        "q46_split_sample": SQL_Q46,
        "q47_dup_clusters": SQL_Q47,
        "q48_neardup_survivors": SQL_Q48,
        "q49_heavy_tokens": SQL_Q49,
        "q50_price_quantiles": SQL_Q50,
        "q51_bloom_semijoin": SQL_Q51,
        "q52_length_band_filter": SQL_Q52,
        "q55_decontaminate": SQL_Q55,
        "q56_top3_orders_per_customer": SQL_Q56,
        "q57_distinct_users": SQL_Q57,
        "q58_running_totals": SQL_Q58,
        "q59_source_quota": SQL_Q59,
        "q60_zscore": SQL_Q60,
        "q61_bigram_counts": SQL_Q61,
        "q62_sequence_packing": SQL_Q62,
        "q63_curation_funnel": _q63_sql(),
        "q65_incremental_dedup": _q65_sql(),
        "q66_rolling_window": SQL_Q66,
        "q67_salted_groupby": SQL_Q67,
        "q68_windowed_event_dedup": SQL_Q68,
        "q69_duplicate_spans": SQL_Q69,
        "q70_repetition_stats": SQL_Q70,
        "q71_stratified_sample": SQL_Q71,
        "q73_span_removal": SQL_Q73,
        "q74_cosine_simjoin": SQL_Q74,
        "q75_pretokenize": SQL_Q75,
        "q76_embedding_neardup_survivors": SQL_Q76,
        "q77_unigram_logprob": SQL_Q77,
        "q78_top_decile": SQL_Q78,
        "q79_event_funnel": SQL_Q79,
        "q80_group_corr": SQL_Q80,
        "q81_freq_spectrum": SQL_Q81,
        "q82_source_overlap": SQL_Q82,
        "q83_interarrival": SQL_Q83,
        "q84_group_regression": SQL_Q84,
    }
