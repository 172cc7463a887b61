"""Similarity search over an embedding column (list<float>).

Brute-force cosine top-k as the exact baseline: the query matrix is
broadcast once (``ray.put``) and each batch does one numpy matmul —
the map-side is embarrassingly parallel, the reduce is a tiny global
top-k merge (partial top-k per batch first, so only k rows per batch
reach the sort).  The scale path is the IVF-style variant: cluster
centroids broadcast, batches route vectors to nearest centroids,
probe only n_probe partitions.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .keyed import collect, materialize


def matrix(col, dim: int = 0) -> np.ndarray:
    """The (n, d) matrix of an embedding column; (0, ``dim``) when it
    has no rows, where ``np.stack`` needs at least one array."""
    return np.stack(col) if len(col) else np.zeros((0, dim))


def _normalize(m: np.ndarray) -> np.ndarray:
    m = m.astype(np.float64)
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1
    return m / n


class CosineTopK:
    """map_batches callable: per-batch partial top-k vs broadcast query."""

    def __init__(self, query_ref, k: int, id_col="vec_id", emb_col="embedding"):
        try:
            import ray

            q = ray.get(query_ref) if isinstance(query_ref, ray.ObjectRef) else query_ref
        except Exception:
            q = query_ref
        self.q = _normalize(np.atleast_2d(np.asarray(q)))
        self.k = k
        self.id_col = id_col
        self.emb_col = emb_col

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        emb = _normalize(matrix(batch[self.emb_col], self.q.shape[1]))
        sims = emb @ self.q.T  # (n, nq)
        out = []
        for qi in range(self.q.shape[0]):
            s = sims[:, qi]
            k = min(self.k, len(s))
            idx = np.argpartition(-s, k - 1)[:k] if k else np.zeros(0, np.int64)
            out.append(
                pd.DataFrame(
                    {
                        "query_id": qi,
                        self.id_col: batch[self.id_col].to_numpy()[idx],
                        "cos_sim": np.round(s[idx], 6),
                    }
                )
            )
        return pd.concat(out, ignore_index=True)


def cosine_topk(ds, query_vecs, k: int = 10, id_col="vec_id", emb_col="embedding"):
    """Exact global top-k by cosine: partial top-k per batch → final
    sort+limit on ≤ k·num_batches rows (never the full table)."""
    try:
        import ray

        qref = ray.put(np.asarray(query_vecs))
    except Exception:
        qref = np.asarray(query_vecs)
    partial = ds.map_batches(
        CosineTopK(qref, k, id_col, emb_col), batch_format="pandas"
    )
    pdf = collect(partial)
    out = (
        pdf.sort_values(["query_id", "cos_sim", id_col], ascending=[True, False, True])
        .groupby("query_id", as_index=False)
        .head(k)
        .reset_index(drop=True)
    )
    return out


def ivf_build_centroids(ds, n_centroids: int, emb_col="embedding",
                        seed: int = 11, sample: int = 4096, iters: int = 8):
    """Spherical-k-means IVF centroids via the distributed Lloyd
    engine (the q53 ``kmeans`` machinery): L2-normalize the column,
    run full-table k-means (farthest-first init over a sample, then
    streaming (sum, count) partials — the table is never shuffled),
    re-normalize the centroids onto the sphere.  Round 4: replaces
    the old driver-side row-sample Lloyd, whose centroids could miss
    whole modes the sample under-represented (lower recall)."""

    def norm_batch(b: pd.DataFrame) -> pd.DataFrame:
        m = _normalize(matrix(b[emb_col]))
        return pd.DataFrame({emb_col: list(m)})

    normed = ds.map_batches(norm_batch, batch_format="pandas")
    cent, _iters = kmeans(
        normed, n_centroids, emb_col=emb_col, iters=iters, seed=seed,
        sample=sample,
    )
    return _normalize(cent)


def ivf_topk(ds, query_vecs, centroids, k: int = 10, n_probe: int = 4,
             id_col="vec_id", emb_col="embedding"):
    """IVF-style ANN: batches keep only vectors whose nearest centroid
    is among the query's n_probe closest — the scale path (probes a
    fraction of the table; recall < 1 by design)."""
    q = _normalize(np.atleast_2d(np.asarray(query_vecs)))
    cent = np.asarray(centroids)
    probe = set(
        np.argsort(-(q @ cent.T), axis=1)[:, :n_probe].ravel().tolist()
    )

    def filter_probe(batch: pd.DataFrame) -> pd.DataFrame:
        emb = _normalize(matrix(batch[emb_col], cent.shape[1]))
        assign = np.argmax(emb @ cent.T, axis=1)
        mask = np.isin(assign, list(probe))
        return batch[mask]

    pruned = ds.map_batches(filter_probe, batch_format="pandas")
    return cosine_topk(pruned, query_vecs, k=k, id_col=id_col, emb_col=emb_col)


def _nearest(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Each row's nearest centroid: argmin ||x-c||^2 == argmax
    (x.c - |c|^2/2).  No rows need no centroids (k-means over no rows
    has none)."""
    if not len(x):
        return np.zeros(0, np.int64)
    return np.argmax(x @ c.T - 0.5 * (c * c).sum(axis=1), axis=1)


def kmeans(
    ds,
    k: int,
    emb_col: str = "embedding",
    iters: int = 10,
    seed: int = 13,
    sample: int = 4096,
    tol: float = 1e-4,
):
    """Distributed Lloyd k-means over an embedding column.

    The iterative-algorithm pattern at 100 TB: centroids are the ONLY
    state (k x d floats, broadcast via ray.put each round); every
    batch reduces to per-centroid (sum vector, count) partials —
    np.add.at over the assignment — and the driver folds the tiny
    partials into new centroids.  The table itself is never shuffled,
    never materialized; cost per iteration is one streaming pass.
    Empty clusters keep their previous centroid.  Early-stops when the
    max centroid shift drops below ``tol``.

    Returns (centroids ndarray (k, d), n_iters_run); an input with no
    rows has no centroids and runs no iteration.
    """
    import ray

    # iterate over a column-pruned object-store cache: every Lloyd
    # round is a full pass, so re-reading parquet per round pays the
    # scan k*iters times; materialized blocks live in plasma and
    # spill to disk if oversized — strictly cheaper than re-decoding
    ds = materialize(ds.select_columns([emb_col]))
    init = collect(ds.limit(sample))
    x0 = matrix(init[emb_col]).astype(np.float64)
    if not len(x0):  # no rows: no centroids
        return x0, 0
    rng = np.random.default_rng(seed)
    # farthest-first init over the sample (deterministic k-means++
    # flavor): random seeds can land two centroids in one cluster and
    # split it; greedy max-min-distance picks separate the modes
    k = min(k, len(x0))
    chosen = [int(rng.integers(len(x0)))]
    d2 = ((x0 - x0[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(k - 1):
        nxt = int(np.argmax(d2))
        chosen.append(nxt)
        d2 = np.minimum(d2, ((x0 - x0[nxt]) ** 2).sum(axis=1))
    cent = x0[chosen].copy()
    d = cent.shape[1]

    for it in range(iters):
        ref = ray.put(cent)

        def partial(b: pd.DataFrame) -> pd.DataFrame:
            c = ray.get(ref)
            x = matrix(b[emb_col], d).astype(np.float64)
            assign = _nearest(x, c)
            sums = np.zeros((len(c), x.shape[1]), np.float64)
            np.add.at(sums, assign, x)
            cnt = np.bincount(assign, minlength=len(c)).astype(np.int64)
            return pd.DataFrame(
                {"sums": [sums.tobytes()], "cnt": [cnt.tobytes()]}
            )

        parts = collect(ds, partial)
        sums = np.zeros((k, d), np.float64)
        cnt = np.zeros(k, np.int64)
        for srow, crow in zip(parts["sums"], parts["cnt"]):
            sums += np.frombuffer(srow, np.float64).reshape(k, d)
            cnt += np.frombuffer(crow, np.int64)
        new = cent.copy()
        nz = cnt > 0
        new[nz] = sums[nz] / cnt[nz, None]
        shift = float(np.abs(new - cent).max())
        cent = new
        if shift < tol:
            return cent, it + 1
    return cent, iters


def kmeans_assign(ds, centroids, emb_col: str = "embedding"):
    """Label a Dataset with the nearest-centroid cluster id (one
    broadcast, one streaming pass)."""
    import ray

    ref = ray.put(np.asarray(centroids, np.float64))

    def assign(b: pd.DataFrame) -> pd.DataFrame:
        c = ray.get(ref)
        x = matrix(b[emb_col], c.shape[1]).astype(np.float64)
        b = b.copy()
        b["cluster_id"] = _nearest(x, c).astype(np.int64)
        return b

    return ds.map_batches(assign, batch_format="pandas")
