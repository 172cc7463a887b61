"""PageRank over a crawl's link graph (reference J2/J3/A5 semantics).

``edges_from_content`` builds the (src, dst, out_degree) edge frame
from crawled content.  ``pagerank`` runs the reference's accumulator:
the reference streams a flat edge file single-threaded, accumulating
``cur[dst] += (0.85·prev[src] + 0.15) / out_degree`` per edge, then
refines ``r = 0.85·r + 0.15`` clamped to ≤ 100
(``SearchEngine.cpp:1200-1281``).  Here node hashes map to indices of
the sorted node array by ``np.searchsorted`` and each iteration is one
``np.add.at`` scatter over every edge, on the driver.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


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
    edges: pd.DataFrame,
    nodes: np.ndarray,
    n_iters: int = 5,
    damping: float = 0.85,
) -> pd.DataFrame:
    """(src, dst, out_degree) edges over ``nodes`` → (node uint64,
    rank float64), one row per node sorted by node, after ``n_iters``
    iterations of ``cur[dst] += (damping·prev[src] + 1 − damping) /
    out_degree`` from rank 1 and the final refine/clamp.  A node with
    no in-links ends at 1 − damping.  Every edge endpoint must be in
    ``nodes``."""
    node_ids = np.sort(np.asarray(nodes, np.uint64))
    ends = [edges[c].to_numpy(np.uint64) for c in ("src", "dst")]
    if not all(np.isin(h, node_ids).all() for h in ends):
        raise ValueError("pagerank: an edge endpoint is not in nodes")
    src, dst = (np.searchsorted(node_ids, h) for h in ends)
    deg = edges["out_degree"].to_numpy(np.float64)
    r = np.ones(len(node_ids))
    for _ in range(n_iters):
        contrib = (damping * r[src] + (1 - damping)) / deg
        r = np.zeros(len(node_ids))
        np.add.at(r, dst, contrib)
    r = np.minimum(damping * r + (1 - damping), 100.0)
    return pd.DataFrame({"node": node_ids, "rank": r})
