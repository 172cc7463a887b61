"""Distributed cardinality sketching: HyperLogLog over Ray Data.

The 100-TB shape: each ``map_batches`` task reduces its batch to one
fixed-size register array (2^p bytes); the driver merges the tiny
partials with an elementwise max — the full column never leaves the
workers and nothing is shuffled.  (Flajolet et al., "HyperLogLog: the
analysis of a near-optimal cardinality estimation algorithm", 2007;
bias correction per the original paper's small/large-range rules.)

The reference engine has no sketches (its distinct counts are exact
hash sets, SearchEngine.h:517-522); HLL is the bounded-memory analog
for 10^10-URL frontiers.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.hashing import fnv1a64_batch, fnv1a64_fixed
from .keyed import collect, combine


def _hash_values(values: np.ndarray) -> np.ndarray:
    if values.dtype.kind in "iu":
        mat = np.ascontiguousarray(values.astype("<u8")).view(np.uint8)
        return fnv1a64_fixed(mat.reshape(len(values), 8))
    return fnv1a64_batch(values)


def hll_partial(values: np.ndarray, p: int = 12) -> np.ndarray:
    """One batch → one uint8 register array of size 2^p (vectorized)."""
    m = 1 << p
    h = _hash_values(values)
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = h << np.uint64(p)  # remaining 64-p bits, left-aligned
    # rank = leading zeros of `rest` + 1, capped at 64-p+1 when the
    # suffix is (effectively) all zeros.  log2 runs on the top 53 bits
    # so the float64 conversion is exact; suffixes with >=53 leading
    # zeros (prob 2^-53) take the cap.
    rank = np.full(len(h), 64 - p + 1, np.uint8)
    top = (rest >> np.uint64(11)).astype(np.int64)
    good = top > 0
    if good.any():
        lz = 52 - np.floor(np.log2(top[good].astype(np.float64))).astype(np.int64)
        rank[good] = (lz + 1).astype(np.uint8)
    regs = np.zeros(m, np.uint8)
    np.maximum.at(regs, idx, rank)
    return regs


def hll_merge(partials: list[np.ndarray], p: int = 12) -> np.ndarray:
    """Elementwise max of the partials, folded from 2^p zero registers
    (no partials: every register 0, which estimates 0)."""
    out = np.zeros(1 << p, np.uint8)
    for r in partials:
        np.maximum(out, r, out=out)
    return out


def hll_estimate(regs: np.ndarray) -> float:
    m = len(regs)
    alpha = {16: 0.673, 32: 0.697, 64: 0.709}.get(m, 0.7213 / (1 + 1.079 / m))
    est = alpha * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int(np.count_nonzero(regs == 0))
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)  # linear counting, small range
    elif est > (1 << 32) / 30:
        est = -(1 << 32) * np.log1p(-est / (1 << 32))
    return float(est)


def approx_distinct(ds, column: str, p: int = 12) -> dict:
    """Approximate COUNT(DISTINCT column) over a Dataset: per-batch
    registers → driver merge (list of 4 KB arrays).  Returns
    ``{"approx": int, "registers": m}``; standard error ≈ 1.04/√m
    (~1.6 % at p=12)."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        v = b[column].to_numpy()
        if v.dtype.kind not in "iu":
            v = v.astype("U")
        return pd.DataFrame({"regs": [hll_partial(v, p).tobytes()]})

    parts = [np.frombuffer(x, np.uint8) for x in collect(ds, partial)["regs"]]
    regs = hll_merge(parts, p)
    return {"approx": int(round(hll_estimate(regs))), "registers": len(regs)}


# ------------------------------------------------------------- count-min

def _double_hash(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two independent-ish 64-bit hash streams via Kirsch-Mitzenmacher
    (g_i(x) = h1(x) + i*h2(x)); h2 derived with a splitmix64 finalizer
    so one string hash per value suffices."""
    h1 = _hash_values(values)
    with np.errstate(over="ignore"):
        z = (h1 + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
        z = ((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)).astype(
            np.uint64
        )
        z = ((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)).astype(
            np.uint64
        )
        h2 = (z ^ (z >> np.uint64(31))) | np.uint64(1)  # odd, never 0
    return h1, h2


def cms_partial(values: np.ndarray, width: int, depth: int) -> np.ndarray:
    """One batch → one (depth, width) int64 Count-Min partial.  Merge
    is elementwise sum, so per-batch partials compose exactly (Cormode
    & Muthukrishnan, "An improved data stream summary: the count-min
    sketch and its applications", 2005)."""
    cms = np.zeros((depth, width), np.int64)
    if len(values) == 0:
        return cms
    h1, h2 = _double_hash(values)
    w = np.uint64(width)
    for i in range(depth):
        with np.errstate(over="ignore"):
            idx = ((h1 + np.uint64(i) * h2) % w).astype(np.int64)
        np.add.at(cms[i], idx, 1)
    return cms


def cms_query(cms: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Point-estimate counts: min over rows.  est(x) >= true(x) always
    (every increment of x lands on all d of its counters), which is
    what makes the 2-pass exact heavy-hitter protocol sound."""
    depth, width = cms.shape
    if len(values) == 0:
        return np.zeros(0, np.int64)
    h1, h2 = _double_hash(values)
    w = np.uint64(width)
    est = np.full(len(values), np.iinfo(np.int64).max, np.int64)
    for i in range(depth):
        with np.errstate(over="ignore"):
            idx = ((h1 + np.uint64(i) * h2) % w).astype(np.int64)
        np.minimum(est, cms[i, idx], out=est)
    return est


def heavy_hitters(
    ds,
    values_fn,
    threshold: int | None = None,
    threshold_frac: float | None = None,
    width: int = 1 << 16,
    depth: int = 4,
    value_col: str = "token",
):
    """EXACT heavy hitters in two streaming passes, bounded memory.

    Pass 1 folds every batch into a (depth × width) Count-Min partial
    (merged by summation on the driver — ~2 MB total, nothing
    shuffled).  Pass 2 streams the data again: each batch counts its
    values exactly (np.unique) and keeps only values whose merged-CMS
    estimate >= threshold.  Because CMS never underestimates, every
    true heavy hitter survives pass 2 in every batch it occurs in, so
    summing the surviving partials gives exact global counts for a
    small candidate superset; the final >= threshold filter makes the
    result EXACT (oracle: GROUP BY ... HAVING count >= T) while the
    full key universe never lands on any single node.

    The vocabulary-sized groupby this replaces is the scale tax of
    q12-style word counts; here the shuffle input is only candidate
    rows.  ``threshold_frac`` resolves the threshold as
    ``total_values * frac`` using pass 1's exact total."""
    import ray

    def p1(b: pd.DataFrame) -> pd.DataFrame:
        v = values_fn(b)
        return pd.DataFrame(
            {"cms": [cms_partial(v, width, depth).tobytes()], "n": [len(v)]}
        )

    # fold from the zero sketch: an empty input yields no partials
    parts = collect(ds, p1)
    cms = np.zeros((depth, width), np.int64)
    total = 0
    for buf, n in parts[["cms", "n"]].itertuples(index=False):
        cms += np.frombuffer(buf, np.int64).reshape(depth, width)
        total += int(n)
    if threshold is None:
        threshold = max(1, int(total * threshold_frac))
    ref = ray.put(cms)

    def p2(t: pa.Table) -> pa.Table:
        sk = ray.get(ref)
        uniq, cnt = np.unique(values_fn(t.to_pandas()), return_counts=True)
        keep = cms_query(sk, uniq) >= threshold
        return pa.table({value_col: uniq[keep], "cnt": cnt[keep]})

    out = combine(ds, [value_col], {"cnt": ("cnt", "sum")}, p2)
    return out[out["cnt"] >= threshold].reset_index(drop=True)


# ---------------------------------------------------------------- bloom

def bloom_partial(values: np.ndarray, m_bits: int, k: int) -> np.ndarray:
    """One batch of keys → bit-packed uint64 bloom words; merge = OR."""
    words = np.zeros(m_bits // 64, np.uint64)
    if len(values) == 0:
        return words
    h1, h2 = _double_hash(values)
    m = np.uint64(m_bits)
    for i in range(k):
        with np.errstate(over="ignore"):
            idx = ((h1 + np.uint64(i) * h2) % m).astype(np.int64)
        np.bitwise_or.at(
            words, idx >> 6, np.uint64(1) << (idx.astype(np.uint64) & np.uint64(63))
        )
    return words


def bloom_might_contain(words: np.ndarray, values: np.ndarray, k: int) -> np.ndarray:
    """Vectorized membership probe: True iff all k bits set (no false
    negatives; false-positive rate ~(1-e^{-kn/m})^k)."""
    if len(values) == 0:
        return np.zeros(0, bool)
    m_bits = len(words) * 64
    h1, h2 = _double_hash(values)
    m = np.uint64(m_bits)
    ok = np.ones(len(values), bool)
    for i in range(k):
        with np.errstate(over="ignore"):
            idx = ((h1 + np.uint64(i) * h2) % m).astype(np.int64)
        bit = (words[idx >> 6] >> (idx.astype(np.uint64) & np.uint64(63))) & np.uint64(1)
        ok &= bit.astype(bool)
        if not ok.any():
            break
    return ok


def bloom_build(ds, key_col: str, m_bits: int = 1 << 20, k: int = 7) -> np.ndarray:
    """Distributed bloom construction: per-batch partials OR-merged on
    the driver (m_bits/8 bytes each — at 10^9 keys and 10 bits/key the
    filter is ~1.25 GB where the exact key set would be 8+ GB and a
    shuffle join would move the whole big side).  The returned words
    array is `ray.put` once and probed inside map_batches — the
    semi-join prefilter that keeps 100-TB scans local."""

    def p(b: pd.DataFrame) -> pd.DataFrame:
        v = b[key_col].to_numpy()
        if v.dtype.kind not in "iu":
            v = v.astype("U")
        return pd.DataFrame({"bloom": [bloom_partial(v, m_bits, k).tobytes()]})

    words = np.zeros(m_bits // 64, np.uint64)
    for buf in collect(ds, p)["bloom"]:
        words |= np.frombuffer(buf, np.uint64)
    return words


# ---------------------------------------------- exact global quantiles

def _minmax_count(ds, column: str):
    def p(b: pd.DataFrame) -> pd.DataFrame:
        v = b[column].to_numpy()
        if len(v) == 0:
            return pd.DataFrame({"lo": [], "hi": [], "n": []})
        return pd.DataFrame(
            {"lo": [int(v.min())], "hi": [int(v.max())], "n": [len(v)]}
        )

    agg = collect(ds, p)
    if not len(agg):
        return 0, 0, 0
    return int(agg["lo"].min()), int(agg["hi"].max()), int(agg["n"].sum())


def global_quantiles(
    ds, column: str, qs: list[float], bins: int = 1 << 16,
    max_collect: int = 4_000_000,
) -> pd.DataFrame:
    """EXACT discrete quantiles of an integer column without a global
    sort: (1) min/max/count pass, (2) one histogram pass (np.bincount
    partials summed on the driver — bins*8 bytes each), (3) locate
    each target rank's bin in the cumulative histogram and collect
    ONLY those bins' values (expected n/bins rows per bin) to resolve
    the exact rank element.  Refines the histogram recursively if a
    target bin is over ``max_collect`` and still spans >1 value, so
    worst-case skew degrades to extra passes, never to driver OOM.

    Rank rule matches DuckDB ``quantile_disc``: element at 1-indexed
    position ceil(q*n); over no rows every value is NULL (NaN), as
    ``quantile_disc``'s.  Replaces an O(n log n) all-to-all ``ds.sort``
    with O(passes) streaming scans + an O(bins) driver merge."""
    import math

    lo, hi, n = _minmax_count(ds, column)
    if n == 0:
        return pd.DataFrame({"q_ppm": [int(round(q * 1_000_000)) for q in qs],
                             "value": np.full(len(qs), np.nan)})
    targets = [(int(round(q * 1_000_000)), max(1, math.ceil(q * n))) for q in qs]

    def hist_pass(rlo: int, rhi: int, nb: int, shift: int) -> np.ndarray:
        # power-of-two bin widths: binidx = (v - rlo) >> shift computed
        # in uint64, so ANY int64 value range is exact — the former
        # (v - rlo) * nb // width int64 product overflowed once
        # width * nb reached 2^63 (e.g. microsecond-timestamp columns)
        off = np.uint64(rlo & 0xFFFFFFFFFFFFFFFF)
        sh = np.uint64(shift)

        def p(b: pd.DataFrame) -> pd.DataFrame:
            v = b[column].to_numpy().astype(np.int64)
            v = v[(v >= rlo) & (v <= rhi)]
            with np.errstate(over="ignore"):
                binidx = ((v.view(np.uint64) - off) >> sh).astype(np.int64)
            return pd.DataFrame({"h": [np.bincount(binidx, minlength=nb)
                                       .astype(np.int64).tobytes()]})

        h = np.zeros(nb, np.int64)
        for buf in collect(ds, p)["h"]:
            h += np.frombuffer(buf, np.int64)
        return h

    # resolve every target to a (bin value-range, rank-within-range)
    pend = [(rank, lo, hi) for _, rank in targets]  # rank is global 1-indexed
    resolved: dict[int, int] = {}  # rank -> value

    def bin_bounds(rlo, rhi, shift, i):
        # bin i covers [rlo + i*2^shift, rlo + (i+1)*2^shift - 1]
        blo = rlo + (i << shift)
        return blo, min(rlo + ((i + 1) << shift) - 1, rhi)

    while pend:
        # group pending targets by identical range so one pass serves all
        (rank0, rlo, rhi) = pend[0]
        group = [t for t in pend if t[1] == rlo and t[2] == rhi]
        pend = [t for t in pend if not (t[1] == rlo and t[2] == rhi)]
        width = rhi - rlo + 1  # Python int: exact for any int64 range
        shift = max(0, (width - 1).bit_length() - max(1, bins.bit_length() - 1))
        nb = -(-width >> shift) if shift else width  # ceil(width / 2^shift)
        h = hist_pass(rlo, rhi, nb, shift)
        csum = np.cumsum(h)
        collect_bins = []
        for rank, _, _ in group:
            i = int(np.searchsorted(csum, rank))
            blo, bhi = bin_bounds(rlo, rhi, shift, i)
            below = int(csum[i - 1]) if i > 0 else 0
            inbin = int(h[i])
            if blo == bhi:
                resolved[(rank, rlo, rhi)] = blo
            elif inbin > max_collect:
                pend.append((rank - below, blo, bhi))
                resolved[(rank, rlo, rhi)] = ("defer", rank - below, blo, bhi)
            else:
                collect_bins.append((rank, below, blo, bhi))
        if collect_bins:
            ranges = [(blo, bhi) for _, _, blo, bhi in collect_bins]

            def pc_(b: pd.DataFrame) -> pd.DataFrame:
                v = b[column].to_numpy().astype(np.int64)
                keep = np.zeros(len(v), bool)
                for blo, bhi in ranges:
                    keep |= (v >= blo) & (v <= bhi)
                return pd.DataFrame({"v": v[keep]})

            vals = np.sort(collect(ds, pc_)["v"].to_numpy(np.int64))
            for rank, below, blo, bhi in collect_bins:
                sub = vals[(vals >= blo) & (vals <= bhi)]
                resolved[(rank, rlo, rhi)] = int(sub[rank - below - 1])

    # walk each original target through any deferred chains
    out_rows = []
    for q_ppm, rank in targets:
        key = (rank, lo, hi)
        val = resolved[key]
        while isinstance(val, tuple) and val and val[0] == "defer":
            _, r2, blo, bhi = val
            val = resolved[(r2, blo, bhi)]
        out_rows.append((q_ppm, int(val)))
    return pd.DataFrame(out_rows, columns=["q_ppm", "value"]).astype(
        {"q_ppm": "int64", "value": "int64"}
    )
