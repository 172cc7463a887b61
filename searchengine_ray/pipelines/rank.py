"""PageRank over a link-edge Dataset (reference J3/A5 semantics).

The reference streams a flat edge file single-threaded, accumulating
``cur[dst] += (0.85·prev[src] + 0.15) / out_degree`` per edge, then
refines ``r = 0.85·r + 0.15`` clamped to ≤ 100
(``SearchEngine.cpp:1200-1281``).  Here each iteration is:

    map_batches(contribution, prev-ranks broadcast)   # map side
      → per-batch partial sums per dst (combiner)
      → groupby(dst).sum()                            # the shuffle

Above the small-graph threshold each iteration is fully distributed:
the ranks Dataset hash-joins edges on ``src`` (``keyed.hash_join``; no
broadcast of a node-proportional dict), contributions pre-aggregate
per batch, and a partitioned ``combine`` sum by ``dst`` + left join back onto
the node set closes the iteration — partition keys ``src``/``dst`` per
SURVEY.md §7.4.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..stages.keyed import collect, combine, hash_join, materialize

EDGE_COLS = ("src", "dst", "out_degree")


def edges_from_content(content, seen_hashes: set[int] | None = None):
    """Build (src, dst, out_degree) edge rows from crawled content
    (link liveness semi-join J2: keep edges whose dst was crawled —
    ``SearchEngine.cpp:1034-1043``).

    Fully vectorized: Arrow list-flatten explodes the links column,
    the batch URL kernels (``truncate_batch``/``url_hash_batch``)
    canonicalize+hash every link in one pass, and liveness is an
    ``np.isin`` against the sorted crawled-hash array — no per-link
    Python.  Works as a driver helper on a table or as the body of a
    ``map_batches`` stage over a content Dataset (the reference
    parallelizes exactly this phase, ``SearchEngine.cpp:1158-1189``);
    per-batch out_degree is exact because links are per-row."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..functions import urlkernel as uk

    urls = content["url_hash"]
    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    urls_np = urls.to_numpy(zero_copy_only=False).astype(np.uint64)
    links = content["links"]
    if isinstance(links, pa.ChunkedArray):
        links = links.combine_chunks()
    flat = pc.list_flatten(links)
    parent = pc.list_parent_indices(links).to_numpy(zero_copy_only=False)
    if len(flat) == 0:
        return pd.DataFrame(
            {
                "src": pd.Series([], dtype="uint64"),
                "dst": pd.Series([], dtype="uint64"),
                "out_degree": pd.Series([], dtype="int64"),
            }
        )
    canon, valid = uk.truncate_batch(flat)
    h = uk.url_hash_batch(canon)
    crawled = np.fromiter(
        set(urls_np.tolist()) if seen_hashes is None else seen_hashes,
        np.uint64,
    )
    crawled.sort()
    keep = valid & np.isin(h, crawled)
    parent, h = parent[keep], h[keep]
    deg = np.bincount(parent, minlength=len(urls_np))
    return pd.DataFrame(
        {
            "src": urls_np[parent],
            "dst": h,
            "out_degree": deg[parent].astype(np.int64),
        }
    )


def pagerank(
    edges_ds,
    nodes: np.ndarray,
    n_iters: int = 5,
    damping: float = 0.85,
    small_graph_threshold: int = 200_000,
):
    """→ pandas (node, rank) after n_iters + final refine/clamp.

    Small graphs (≤ threshold edges) iterate with driver-side numpy
    scatter-adds — a per-iteration Ray Data pipeline costs ~2s of
    fixed overhead, which dwarfs tiny graphs.  Above the threshold the
    distributed path runs (map-side combiner → groupby(dst).sum)."""
    import ray

    nodes = np.asarray(nodes, np.uint64)
    n_edges = edges_ds.count()
    if n_edges <= small_graph_threshold:
        pdf = collect(edges_ds)
        node_ids = np.sort(nodes)
        idx_of = {int(n): i for i, n in enumerate(node_ids)}
        src = np.array([idx_of[int(s)] for s in pdf["src"]], np.int64)
        dst = np.array([idx_of[int(d)] for d in pdf["dst"]], np.int64)
        deg = pdf["out_degree"].to_numpy(np.float64)
        r = np.ones(len(node_ids))
        for _ in range(n_iters):
            contrib = (damping * r[src] + (1 - damping)) / deg
            nxt = np.zeros(len(node_ids))
            np.add.at(nxt, dst, contrib)
            r = nxt
        r = np.minimum(damping * r + (1 - damping), 100.0)
        return pd.DataFrame({"node": node_ids.astype(np.uint64), "rank": r})

    # distributed path: ranks live in a Dataset and meet the edges via
    # a hash-partitioned join on src each iteration — nothing
    # node-proportional is ever broadcast or held on the driver
    # join keys ride as int64 bit-views of the uint64 node hashes
    node_ids = np.sort(nodes)
    node_i64 = node_ids.view(np.int64)
    nodes_ds = ray.data.from_pandas(
        pd.DataFrame({"node": node_i64})
    ).materialize()
    ranks_ds = ray.data.from_pandas(
        pd.DataFrame({"node": node_i64, "rank": 1.0})
    ).materialize()

    def cast_edges(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "src": b["src"].to_numpy().astype(np.uint64).view(np.int64),
                "dst": b["dst"].to_numpy().astype(np.uint64).view(np.int64),
                "out_degree": b["out_degree"].to_numpy(np.int64),
            }
        )

    edges_mat = edges_ds.map_batches(cast_edges, batch_format="pandas").materialize()

    def contrib(t: pa.Table) -> pa.Table:
        rank = t["rank"].to_numpy(zero_copy_only=False).astype(np.float64)
        deg = t["out_degree"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({"dst": t["dst"], "c": (damping * rank + (1 - damping)) / deg})

    def fill_zero(b: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {"node": b["node"], "rank": b["c"].fillna(0.0).astype(np.float64)}
        )
        return out

    for _ in range(n_iters):
        joined = hash_join(edges_mat, ranks_ds, "src", "node")
        sums = combine(joined, ["dst"], {"c": ("c", "sum")}, contrib, partitioned=True)
        # nodes with no in-links this round keep rank 0 (left join back)
        ranks_ds = materialize(
            hash_join(nodes_ds, sums, "node", "dst", "left_outer")
            .map_batches(fill_zero, batch_format="pandas")
        )
    out = collect(ranks_ds)
    out["rank"] = np.minimum(damping * out["rank"] + (1 - damping), 100.0)
    out["node"] = out["node"].to_numpy(np.int64).view(np.uint64)
    return out.sort_values("node").reset_index(drop=True)
