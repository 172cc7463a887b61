"""Vectorized 64-bit hashing kernels.

The reference identifies URLs/hosts by 128-bit MD5 keys
(``SearchEngine/SearchEngine/SearchEngine.h:213-223``,
``KeyValueDB.hpp:25-56``).  The north rule asks for 64-bit canonical
hashes instead; we use FNV-1a/64 — deterministic across processes and
Python versions (unlike ``hash()``), and vectorizable with numpy so a
whole Arrow batch hashes without a Python-per-row loop.

All kernels take a ``pyarrow`` string array (or a Python list of str)
and return ``np.ndarray`` of ``uint64``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

FNV_OFFSET = np.uint64(14695981039346656037)
FNV_PRIME = np.uint64(1099511628211)

_U64_MASK = (1 << 64) - 1


def fnv1a64(s: bytes | str) -> int:
    """Scalar FNV-1a/64 (reference implementation for tests & oracle)."""
    if isinstance(s, str):
        s = s.encode("utf-8")
    h = 14695981039346656037
    for b in s:
        h = ((h ^ b) * 1099511628211) & _U64_MASK
    return h


def _as_string_array(strs) -> pa.Array:
    if isinstance(strs, pa.ChunkedArray):
        strs = strs.combine_chunks()
    if not isinstance(strs, pa.Array):
        strs = pa.array(strs, type=pa.string())
    if pa.types.is_large_string(strs.type):
        return strs
    return strs.cast(pa.string()) if not pa.types.is_string(strs.type) else strs


def fnv1a64_batch(strs) -> np.ndarray:
    """Vectorized FNV-1a/64 over a batch of strings.

    Iterates over byte *positions* (≤ max string length in the batch)
    — O(maxlen) numpy ops for the whole batch instead of a Python loop
    per string.  Rows are visited longest-first, so byte position ``j``
    updates the contiguous prefix of rows longer than ``j``; each step
    gathers its bytes straight from the zero-copy Arrow data buffer.
    """
    arr = _as_string_array(strs)
    n = len(arr)
    h = np.full(n, FNV_OFFSET, dtype=np.uint64)
    if n == 0:
        return h
    off_buf, data_buf = arr.buffers()[1], arr.buffers()[2]
    off_dtype = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    offsets = np.frombuffer(off_buf, dtype=off_dtype, count=n + 1 + arr.offset)[
        arr.offset :
    ].astype(np.int64)
    lens = offsets[1:] - offsets[:-1]
    order = np.argsort(-lens, kind="stable")
    slens = lens[order]
    if slens[0] == 0:
        return h
    starts = offsets[:-1][order]
    data = np.frombuffer(data_buf, dtype=np.uint8)
    # rows longer than j = a prefix of the length-descending order
    ks = np.searchsorted(-slens, -np.arange(slens[0]), side="left")
    hs = h.copy()
    with np.errstate(over="ignore"):
        for j, k in enumerate(ks.tolist()):
            hs[:k] = (hs[:k] ^ data[starts[:k] + j]) * FNV_PRIME
    h[order] = hs
    return h


def fnv1a64_fixed(mat: np.ndarray) -> np.ndarray:
    """Vectorized FNV-1a/64 over fixed-width byte rows.

    ``mat`` is an (n, w) uint8 matrix; every row hashes its full w
    bytes — w numpy ops total for the batch (the fixed-width analog of
    ``fnv1a64_batch``, used e.g. to band-hash MinHash signature
    chunks viewed as bytes)."""
    mat = np.ascontiguousarray(mat, dtype=np.uint8)
    n = mat.shape[0]
    h = np.full(n, FNV_OFFSET, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(mat.shape[1]):
            h = (h ^ mat[:, j].astype(np.uint64)) * FNV_PRIME
    return h


def hash_combine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mix two uint64 hash columns (for (band, value) composite keys)."""
    with np.errstate(over="ignore"):
        return (a ^ (b * FNV_PRIME + np.uint64(0x9E3779B97F4A7C15))).astype(np.uint64)
