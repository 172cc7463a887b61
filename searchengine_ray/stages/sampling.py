"""Deterministic sampling: the Knuth hash and 80/10/10 split, and
distributed weighted sampling without replacement.

Knuth multiplicative hash ``doc_id × 2654435761 mod 2^32``: a stable
pseudo-random order of ids (q59's quota order, q71's per-source
sample) and, cut at 80 % and 90 % of 2^32, the train/val/test split of
q46 and both curation funnels — no RNG state, the same answer on any
partitioning.  The SQL oracles restate it in integer arithmetic.

Efraimidis & Spirakis ("Weighted random sampling with a reservoir",
IPL 2006): assign every row the key ``-ln(u_i) / w_i`` with u_i ~
Uniform(0,1); the k smallest keys are an exact weighted sample
without replacement.  Here u_i is derived from a HASH of the row id
(splitmix-finalized), so the sample is a pure function of
(ids, weights, seed): the same rows are chosen regardless of
partitioning, batch boundaries, or cluster size — reproducible
dataset curation with no RNG state to checkpoint.

Distributed shape: keys are per-row arithmetic inside ``map_batches``;
each batch keeps only its k smallest (partial top-k), the driver
merges <= k * nblocks candidate rows.  No shuffle, no sort of the full
table.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..functions.hashing import fnv1a64_fixed
from .keyed import collect

SPLIT_TRAIN = int(0.8 * (1 << 32))
SPLIT_VAL = int(0.9 * (1 << 32))


def knuth_hash(ids) -> np.ndarray:
    """uint64 ``id × 2654435761 mod 2^32`` of integer ids (negative
    ids wrap as two's complement, as the modulus of the exact
    product)."""
    ids = np.asarray(ids).astype(np.uint64)
    return (ids * np.uint64(2654435761)) % np.uint64(1 << 32)


def split_of(ids) -> np.ndarray:
    """Deterministic 80/10/10 ``train`` / ``val`` / ``test`` split by
    ``knuth_hash``."""
    h = knuth_hash(ids)
    return np.where(
        h < np.uint64(SPLIT_TRAIN),
        "train",
        np.where(h < np.uint64(SPLIT_VAL), "val", "test"),
    )


def _hash_uniform(ids: np.ndarray, seed: int) -> np.ndarray:
    """Deterministic u_i in (0, 1): FNV over (id, seed) bytes, mapped
    to the open unit interval ((h + 1) / (2^64 + 1))."""
    n = len(ids)
    mat = np.empty((n, 16), np.uint8)
    mat[:, :8] = np.ascontiguousarray(
        ids.astype("<i8").view("<u8")
    ).view(np.uint8).reshape(n, 8)
    mat[:, 8:] = np.frombuffer(
        np.uint64(seed).tobytes(), np.uint8
    )
    h = fnv1a64_fixed(mat)
    return (h.astype(np.float64) + 1.0) / (2.0**64 + 1.0)


def sample_keys(
    ids: np.ndarray, weights: np.ndarray, seed: int
) -> np.ndarray:
    """E-S keys (-ln(u)/w); rows with weight <= 0 get +inf (excluded)."""
    u = _hash_uniform(np.asarray(ids, np.int64), seed)
    w = np.asarray(weights, np.float64)
    keys = np.full(len(u), np.inf)
    ok = w > 0
    keys[ok] = -np.log(u[ok]) / w[ok]
    return keys


def weighted_sample(
    ds,
    k: int,
    weight_col: str,
    id_col: str = "doc_id",
    seed: int = 29,
) -> pd.DataFrame:
    """Exact weighted sample WITHOUT replacement of size k (smaller if
    fewer positive-weight rows exist).  Returns the sampled rows
    (all input columns) sorted by id."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            out = b.copy()
            out["_es_key"] = pd.Series([], dtype=np.float64)
            return out
        keys = sample_keys(
            b[id_col].to_numpy(np.int64), b[weight_col].to_numpy(), seed
        )
        b = b.assign(_es_key=keys)
        b = b[np.isfinite(b["_es_key"])]
        return b.nsmallest(min(k, len(b)), "_es_key")

    cand = collect(ds, partial)
    out = cand.nsmallest(min(k, len(cand)), "_es_key").drop(
        columns=["_es_key"]
    )
    return out.sort_values(id_col).reset_index(drop=True)
