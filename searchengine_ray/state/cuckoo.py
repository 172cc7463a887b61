"""Sharded-able cuckoo filter over 64-bit canonical URL hashes.

Replaces the reference's in-RAM exact URL-seen hash sets
(``SearchEngine.h:517-522`` — ``m_pendingURLs``/``m_processingUrls``
plus the content-DB index, ~40 B/URL).  The north rule asks for a
cuckoo filter: 16-bit fingerprints × 4-way buckets ≈ 2.1 B/URL at 95%
load, i.e. ~21 GB for a 10^10-URL frontier spread across seen-shard
actors.

Correctness note (SURVEY.md §7.5#7): a filter positive may be a false
positive (~2^-13 per probe).  ``SeenShard`` therefore pairs the filter
with an exact store and resolves filter-positives against it, so the
engine's seen-set is *exact* (golden-oracle-equal) while the filter
serves the fast vectorized negative path.  Here the exact store is an
in-RAM uint64 set, checkpointed alongside the filter; at 10^10 scale it
belongs in the sorted on-disk runs of ROADMAP item 7 step 3.

Deterministic: no wall-clock, eviction choice driven by an internal
LCG that serializes with the filter, so checkpoint/restore round-trips
bit-identically.
"""

from __future__ import annotations

import numpy as np

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_FP_MIX = np.uint64(0x5BD1E9955BD1E995)
MAX_KICKS = 500


class CuckooFilter:
    BUCKET = 4

    def __init__(self, capacity: int, seed: int = 0x9E3779B9):
        nb = 1
        while nb * self.BUCKET * 0.95 < capacity:
            nb <<= 1
        self.nbuckets = nb
        self._mask = np.uint64(nb - 1)
        self.table = np.zeros((nb, self.BUCKET), np.uint16)
        self.count = 0
        self._evict_state = np.uint64(seed)

    # -- hashing ---------------------------------------------------------
    def _fingerprint(self, h: np.ndarray) -> np.ndarray:
        fp = (h >> np.uint64(48)).astype(np.uint16)
        fp = np.where(fp == 0, np.uint16(1), fp)
        return fp

    def _index1(self, h: np.ndarray) -> np.ndarray:
        return (h & self._mask).astype(np.uint64)

    def _alt_index(self, i: np.ndarray, fp: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return ((i ^ (fp.astype(np.uint64) * _FP_MIX)) & self._mask).astype(
                np.uint64
            )

    def _next_rand(self) -> int:
        # 64-bit LCG (MMIX constants) — deterministic, serialized with state
        with np.errstate(over="ignore"):
            self._evict_state = (
                self._evict_state * np.uint64(6364136223846793005)
                + np.uint64(1442695040888963407)
            ) & _MASK64
        return int(self._evict_state >> np.uint64(33))

    # -- queries ---------------------------------------------------------
    def contains_batch(self, hashes: np.ndarray) -> np.ndarray:
        h = hashes.astype(np.uint64, copy=False)
        fp = self._fingerprint(h)
        i1 = self._index1(h)
        i2 = self._alt_index(i1, fp)
        fpc = fp[:, None]
        return ((self.table[i1] == fpc) | (self.table[i2] == fpc)).any(axis=1)

    def add_batch(self, hashes: np.ndarray) -> None:
        """Insert all (assumed not present; caller dedups).

        Vectorized placement: values are rank-assigned to the k-th free
        slot of their bucket per round (i1 round, then i2), so
        within-batch same-bucket collisions resolve without a Python
        loop; only values whose both buckets are full fall back to the
        per-value evict loop (rare below the load limit)."""
        h = hashes.astype(np.uint64, copy=False)
        fps = self._fingerprint(h)
        i1s = self._index1(h)
        i2s = self._alt_index(i1s, fps)
        table = self.table
        pending = np.arange(len(h))
        for tgt in (i1s, i2s):
            if len(pending) == 0:
                break
            b = tgt[pending].astype(np.int64)
            order = np.argsort(b, kind="stable")
            bs = b[order]
            newgrp = np.r_[True, bs[1:] != bs[:-1]] if len(bs) else np.zeros(0, bool)
            grp_start = np.nonzero(newgrp)[0]
            grp_id = np.cumsum(newgrp) - 1
            rank = np.arange(len(bs)) - grp_start[grp_id]
            free = (table[bs] == 0).sum(axis=1)
            can = rank < free
            if can.any():
                place = order[can]              # positions within pending
                pb = bs[can]
                pr = rank[can]
                # k-th empty slot per row (empties sort first, stable)
                slot_order = np.argsort(table[pb] != 0, axis=1, kind="stable")
                slots = slot_order[np.arange(len(pb)), pr]
                table[pb, slots] = fps[pending[place]]
                self.count += len(pb)
                keep = np.ones(len(pending), bool)
                keep[place] = False
                pending = pending[keep]
        for k in pending:  # both buckets full → evict loop (rare)
            fp = fps[k]
            cur_fp = fp
            cur_i = int(i2s[k])
            ok = False
            for _ in range(MAX_KICKS):
                slot = self._next_rand() % self.BUCKET
                cur_fp, table[cur_i, slot] = table[cur_i, slot], cur_fp
                cur_i = int(
                    self._alt_index(
                        np.uint64(cur_i), np.array([cur_fp], np.uint16)
                    )[0]
                )
                row = table[cur_i]
                empty = np.nonzero(row == 0)[0]
                if len(empty):
                    row[empty[0]] = cur_fp
                    ok = True
                    break
            if not ok:
                raise RuntimeError(
                    f"cuckoo filter over capacity (count={self.count}, "
                    f"nbuckets={self.nbuckets})"
                )
            self.count += 1

    # -- serialization ---------------------------------------------------
    def to_state(self) -> dict:
        return {
            "nbuckets": self.nbuckets,
            "count": self.count,
            "evict_state": int(self._evict_state),
            "table": self.table.tobytes(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "CuckooFilter":
        obj = cls.__new__(cls)
        obj.nbuckets = int(state["nbuckets"])
        obj._mask = np.uint64(obj.nbuckets - 1)
        obj.table = (
            np.frombuffer(state["table"], dtype=np.uint16)
            .reshape(obj.nbuckets, cls.BUCKET)
            .copy()
        )
        obj.count = int(state["count"])
        obj._evict_state = np.uint64(state["evict_state"])
        return obj


class SeenShard:
    """Exact seen-set for one shard: cuckoo fast path + exact store.

    The set only grows: ``test`` returns the NEW mask (True = not a
    member; within-batch duplicates resolve to one True, the first
    occurrence) without mutating, and ``add`` is the only mutation.

    The exact store is a sorted uint64 array (~8 B/URL — beats the
    reference's ~40 B/URL hash-set triple, ``README.md:9`` 48 MB/1M
    pages) plus a small recent-insert set that merges into the array
    when it outgrows its bound.  Membership = one vectorized
    ``np.searchsorted`` + a set probe for the unmerged tail.
    """

    def __init__(self, capacity: int = 1 << 16, seed: int = 0):
        self._seed = seed
        self.filter = CuckooFilter(capacity, seed=seed ^ 0x9E3779B9)
        self._sorted = np.zeros(0, np.uint64)  # merged exact store
        self._buf: set[int] = set()  # recent inserts awaiting merge

    def __len__(self) -> int:
        return len(self._sorted) + len(self._buf)

    # -- exact store -----------------------------------------------------
    def _merge_buf(self) -> None:
        if self._buf:
            add = np.fromiter(self._buf, np.uint64, len(self._buf))
            self._sorted = np.sort(np.concatenate([self._sorted, add]))
            self._buf = set()

    def _maybe_merge(self) -> None:
        # amortized: merge cost O(n log n) paid every O(n/8) inserts
        if len(self._buf) > max(4096, len(self._sorted) >> 3):
            self._merge_buf()

    def _in_sorted(self, vals: np.ndarray) -> np.ndarray:
        s = self._sorted
        if len(s) == 0:
            return np.zeros(len(vals), bool)
        idx = np.searchsorted(s, vals)
        idx[idx == len(s)] = len(s) - 1
        return s[idx] == vals

    def _in_exact(self, vals: np.ndarray) -> np.ndarray:
        out = self._in_sorted(vals)
        if self._buf:
            miss = np.nonzero(~out)[0]
            buf = self._buf
            for k in miss:
                if int(vals[k]) in buf:
                    out[k] = True
        return out

    def dump_hashes(self) -> np.ndarray:
        """All member hashes, sorted (conformance tests / result())."""
        self._merge_buf()
        return self._sorted.copy()

    def _rebuild(self, min_capacity: int) -> None:
        """Grow the filter (×2+) and re-insert from the exact store, in
        sorted order so the rebuild is deterministic.  Makes shard
        capacity a soft startup hint rather than a hard crash at the
        README's 10^10-frontier claim."""
        cap = max(min_capacity, self.filter.nbuckets * self.filter.BUCKET * 2)
        self.filter = CuckooFilter(cap, seed=self._seed ^ 0x9E3779B9)
        self._merge_buf()
        if len(self._sorted):
            self.filter.add_batch(self._sorted)

    def test(self, hashes: np.ndarray) -> np.ndarray:
        """The NEW mask (True = not a member), with within-batch
        duplicates resolved to their first occurrence; no mutation."""
        h = hashes.astype(np.uint64, copy=False)
        new_mask = np.zeros(len(h), bool)
        if len(h) == 0:
            return new_mask
        # np.unique's return_index gives the first occurrence per value
        uniq, first_idx = np.unique(h, return_index=True)
        maybe_seen = self.filter.contains_batch(uniq)
        # filter negative → definitely new; filter positive → resolve
        # against the exact store (false positives stay exact-correct)
        is_new = ~maybe_seen
        pos = np.nonzero(maybe_seen)[0]
        if len(pos):
            is_new[pos[~self._in_exact(uniq[pos])]] = True
        new_mask[first_idx[is_new]] = True
        return new_mask

    def add(self, hashes: np.ndarray) -> None:
        """Insert ``hashes``, distinct non-members (what ``test`` marked
        new, or part of it), into the exact store and the filter."""
        new_vals = hashes.astype(np.uint64, copy=False)
        if len(new_vals) == 0:
            return
        self._buf.update(new_vals.tolist())
        self._maybe_merge()
        f = self.filter
        if f.count + len(new_vals) > f.nbuckets * f.BUCKET * 0.90:
            self._rebuild(f.count + len(new_vals) * 2)  # includes new_vals
        else:
            try:
                f.add_batch(new_vals)
            except RuntimeError:
                # kick-failure below the load limit (rare): the exact
                # store is authoritative, rebuild larger from it
                self._rebuild(len(self) * 2)

    def test_and_add(self, hashes: np.ndarray) -> np.ndarray:
        """``test``, then ``add`` what it marked new."""
        new_mask = self.test(hashes)
        self.add(hashes[new_mask])
        return new_mask

    def nbytes(self) -> int:
        """Resident bytes of the exact store (bench probe).  Merges the
        transient insert buffer first — semantically transparent, and
        the merged sorted array IS the steady-state structure (the
        buffer is bounded scratch that any checkpoint folds away)."""
        self._merge_buf()
        return int(self._sorted.nbytes)

    # -- serialization ---------------------------------------------------
    def to_state(self) -> dict:
        self._merge_buf()
        st = self.filter.to_state()
        st["exact"] = self._sorted.tobytes()
        st["seed"] = self._seed
        return st

    @classmethod
    def from_state(cls, state: dict) -> "SeenShard":
        obj = cls.__new__(cls)
        obj._seed = int(state.get("seed", 0))
        obj.filter = CuckooFilter.from_state(state)
        obj._sorted = np.frombuffer(state["exact"], np.uint64).copy()
        obj._buf = set()
        return obj
