"""Temporal / ordered operators Ray Data lacks natively: as-of join,
preceding-window aggregate, exact per-group percentiles.

Each is built as hash-partition-by-key → ONE vectorized pandas/numpy
call per partition (``keyed.keyed_map`` on the entity or group key
column — the cheap distributed "apply": per-partition, not
per-group).
Partitioning assumption: all rows of one entity
(user_id / group key) land in one partition, so ordered scans never
cross partition boundaries.  At 100 TB the partial projections keep
only (key, ts, value)-width columns in the shuffle.

The reference engine has no event-time operators (its only ordered
scan is the politeness schedule, SearchEngine.cpp:731-766); these
cover the streaming/windowed-aggregate tier a training-data pipeline
needs (build charter: custom operators — as-of join, windowed
aggregate).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .keyed import keyed_map


def asof_join(
    events_ds,
    left_type: str,
    right_type: str,
    by: str = "user_id",
):
    """For each ``left_type`` event, the most recent strictly-prior
    ``right_type`` event of the same ``by`` entity (inner as-of join).

    Shape: filter → project → hash-partition by entity → per-partition
    ``pd.merge_asof`` (one vectorized call; both sides of an entity are
    co-located by the partitioner).  Ties on ts resolve to the highest
    event_id (right side sorted by (ts, event_id), merge_asof keeps the
    last match).

    Returns a Dataset with columns
    (left_id, user_id, left_ts_us, right_id, right_ts_us, gap_us).
    """

    def project(b: pa.Table) -> pa.Table:
        # zero-copy Arrow projection of the wide input read: filter
        # and us-normalize in ONE pyarrow hop (the pandas conversion
        # tax is paid only by the narrow per-partition kernels
        # downstream)
        m = pc.is_in(b["event_type"], pa.array([left_type, right_type]))
        b = b.filter(m)
        ts_us = b["ts"].cast(pa.timestamp("us")).cast(pa.int64())
        return pa.table(
            {
                "event_id": b["event_id"],
                by: b[by],
                "event_type": b["event_type"],
                "ts_us": ts_us,
            }
        )

    def join_part(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["event_type"] == left_type].sort_values(
            ["ts_us", "event_id"]
        )
        right = g[g["event_type"] == right_type].sort_values(
            ["ts_us", "event_id"]
        )
        if left.empty or right.empty:
            return pd.DataFrame(
                {
                    "left_id": pd.Series([], dtype="int64"),
                    by: pd.Series([], dtype="int64"),
                    "left_ts_us": pd.Series([], dtype="int64"),
                    "right_id": pd.Series([], dtype="int64"),
                    "right_ts_us": pd.Series([], dtype="int64"),
                    "gap_us": pd.Series([], dtype="int64"),
                }
            )
        out = pd.merge_asof(
            left.rename(columns={"event_id": "left_id", "ts_us": "left_ts_us"})[
                ["left_id", by, "left_ts_us"]
            ],
            right.rename(
                columns={"event_id": "right_id", "ts_us": "right_ts_us"}
            )[["right_id", by, "right_ts_us"]],
            left_on="left_ts_us",
            right_on="right_ts_us",
            by=by,
            direction="backward",
            allow_exact_matches=False,
        )
        out = out.dropna(subset=["right_id"])
        out["right_id"] = out["right_id"].astype("int64")
        out["right_ts_us"] = out["right_ts_us"].astype("int64")
        out["gap_us"] = out["left_ts_us"] - out["right_ts_us"]
        return out

    return keyed_map(
        events_ds.map_batches(project, batch_format="pyarrow"), [by], join_part
    )


def preceding_window_count(events_ds, window_us: int, by: str = "user_id"):
    """Sliding windowed aggregate: for every event, the count of the
    same entity's events with ts in ``[t - window_us, t]`` (inclusive,
    self and equal-ts peers included) — exactly SQL's
    ``COUNT(*) OVER (PARTITION BY entity ORDER BY ts
    RANGE BETWEEN <w> PRECEDING AND CURRENT ROW)``.

    Per partition: sort by (entity, ts), then build a composite key
    ``run_index * stride + (ts - run_base)`` that is globally sorted
    (stride > any run's span + window), so ONE ``np.searchsorted``
    answers every event's window bound — no per-event or per-entity
    Python.  Falls back to a per-run loop if the composite key would
    overflow int64 (stride × runs ≥ 2^62)."""

    def project(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": b["event_id"],
                by: b[by],
                "ts_us": b["ts"].cast(pa.timestamp("us")).cast(pa.int64()),
            }
        )

    def count_part(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:  # no entity hashed to this partition
            return pd.DataFrame(
                {"event_id": g["event_id"], by: g[by], "n_window": g["ts_us"]}
            )
        g = g.sort_values([by, "ts_us"], kind="mergesort")
        ts = g["ts_us"].to_numpy(np.int64)
        ent = g[by].to_numpy(np.int64)
        n = len(ts)
        starts = np.r_[0, np.nonzero(np.diff(ent))[0] + 1]
        ends = np.r_[starts[1:], n]
        run_of = np.repeat(np.arange(len(starts)), ends - starts)
        run_base = ts[starts][run_of]
        d = ts - run_base  # per-run-normalized, >= 0, sorted in-run
        span = int(d.max()) if n else 0
        stride = span + window_us + 2
        if len(starts) * stride < 2**62:
            key = run_of * stride + d
            lo = np.searchsorted(key, key - window_us, side="left")
            hi = np.searchsorted(key, key, side="right")
        else:  # huge-span fallback: vectorized per run
            lo = np.empty(n, np.int64)
            hi = np.empty(n, np.int64)
            for s, e in zip(starts, ends):
                lo[s:e] = s + np.searchsorted(
                    ts[s:e], ts[s:e] - window_us, side="left"
                )
                hi[s:e] = s + np.searchsorted(ts[s:e], ts[s:e], side="right")
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(np.int64),
                by: ent,
                "n_window": (hi - lo).astype(np.int64),
            }
        )

    return keyed_map(
        events_ds.map_batches(project, batch_format="pyarrow"), [by], count_part
    )


def group_percentiles(
    ds,
    key: str,
    col: str,
    ps: tuple[float, ...] = (0.5, 0.9, 0.99),
    scale: int = 100,
):
    """Exact discrete percentiles (percentile_disc semantics: the
    smallest element with cumulative fraction ≥ p) of ``col`` per
    ``key`` group, values scaled to integers (``round(x*scale)``) so
    results are hash-stable vs a SQL oracle.

    Shape: project to (key, int value) → hash-partition by key →
    per-partition sort + ``np.searchsorted`` on each group's run.
    Exact (not sketched): at 100 TB the shuffle carries only the
    2-column int projection; for heavier tails swap in a t-digest
    partial without changing the surface.
    """

    def project(b: pa.Table) -> pa.Table:
        v = np.round(
            b[col].to_numpy(zero_copy_only=False).astype(np.float64) * scale
        ).astype(np.int64)
        return pa.table({key: b[key], "v": pa.array(v)})

    def finalize(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:  # no group hashed to this partition
            return pd.DataFrame(
                {key: g[key], **{f"p{int(p * 100):02d}": g["v"] for p in ps}}
            )
        g = g.sort_values([key, "v"], kind="mergesort")
        v = g["v"].to_numpy(np.int64)
        keys = g[key].to_numpy()
        starts = np.r_[0, np.nonzero(keys[1:] != keys[:-1])[0] + 1]
        ends = np.r_[starts[1:], len(keys)]
        rows = {key: keys[starts]}
        for p in ps:
            # percentile_disc: index ceil(p*n) - 1 (0-based), p in (0,1]
            n = ends - starts
            idx = starts + np.maximum(np.ceil(p * n).astype(np.int64) - 1, 0)
            rows[f"p{int(p * 100):02d}"] = v[idx]
        return pd.DataFrame(rows)

    return keyed_map(ds.map_batches(project, batch_format="pyarrow"), [key], finalize)


def range_join(
    events_ds,
    left_type: str,
    right_type: str,
    window_us: int,
    by: str = "user_id",
):
    """Interval (range) join: every (left, right) event pair of the
    same ``by`` entity with ``right.ts in [left.ts - window_us,
    left.ts)`` — e.g. each purchase joined to ALL of the user's views
    in the preceding hour.  Ray Data has no non-equi join; this is the
    equi-key + range-predicate decomposition:

    hash-partition both sides by entity → per partition sort the right
    side by (entity, ts), normalize each entity run to a composite key
    ``run_index * stride + (ts - run_base)`` (stride > run span +
    window, so runs cannot bleed), then TWO ``np.searchsorted`` calls
    give every left row's matching right slice and one
    ``np.repeat``/``arange`` expansion emits the pairs — no per-row or
    per-entity Python.  Output size is data-dependent (pairs), which
    is why the window must be bounded; the partitioning assumption is
    the module's usual one (an entity's rows co-locate).

    Returns (left_id, right_id, user_id, left_ts_us, right_ts_us,
    gap_us), one row per qualifying pair.
    """

    def project(b: pa.Table) -> pa.Table:
        m = pc.is_in(b["event_type"], pa.array([left_type, right_type]))
        b = b.filter(m)
        return pa.table(
            {
                "event_id": b["event_id"],
                by: b[by],
                "ts_us": b["ts"].cast(pa.timestamp("us")).cast(pa.int64()),
                "is_left": pc.equal(b["event_type"], left_type).cast(pa.int8()),
            }
        )

    def join_part(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["is_left"] == 1]
        right = g[g["is_left"] == 0].sort_values(
            [by, "ts_us", "event_id"], kind="mergesort"
        )
        empty = pd.DataFrame(
            {
                "left_id": np.array([], np.int64),
                "right_id": np.array([], np.int64),
                by: np.array([], np.int64),
                "left_ts_us": np.array([], np.int64),
                "right_ts_us": np.array([], np.int64),
                "gap_us": np.array([], np.int64),
            }
        )
        if not len(left) or not len(right):
            return empty
        ent_r = right[by].to_numpy(np.int64)
        ts_r = right["ts_us"].to_numpy(np.int64)
        id_r = right["event_id"].to_numpy(np.int64)
        starts = np.r_[0, np.nonzero(np.diff(ent_r))[0] + 1]
        run_of = np.repeat(np.arange(len(starts)), np.diff(np.r_[starts, len(ent_r)]))
        run_base = ts_r[starts]
        d = ts_r - run_base[run_of]
        span = int(d.max())
        stride = span + window_us + 2
        key_r = run_of * stride + d

        ent_l = left[by].to_numpy(np.int64)
        ts_l = left["ts_us"].to_numpy(np.int64)
        id_l = left["event_id"].to_numpy(np.int64)
        run_users = ent_r[starts]
        j = np.searchsorted(run_users, ent_l)
        ok = (j < len(run_users)) & (run_users[np.minimum(j, len(run_users) - 1)] == ent_l)
        j, ts_l, id_l, ent_l = j[ok], ts_l[ok], id_l[ok], ent_l[ok]
        if not len(j):
            return empty
        cap = span + 1  # clamp so out-of-run windows can't bleed runs
        d_hi = np.clip(ts_l - run_base[j], 0, cap)
        d_lo = np.clip(ts_l - window_us - run_base[j], 0, cap)
        lo = np.searchsorted(key_r, j * stride + d_lo, side="left")
        hi = np.searchsorted(key_r, j * stride + d_hi, side="left")  # strict < left.ts
        cnt = hi - lo
        total = int(cnt.sum())
        if total == 0:
            return empty
        lrep = np.repeat(np.arange(len(j)), cnt)
        offs = np.arange(total) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        ridx = np.repeat(lo, cnt) + offs
        return pd.DataFrame(
            {
                "left_id": id_l[lrep],
                "right_id": id_r[ridx],
                by: ent_l[lrep],
                "left_ts_us": ts_l[lrep],
                "right_ts_us": ts_r[ridx],
                "gap_us": ts_l[lrep] - ts_r[ridx],
            }
        )

    return keyed_map(
        events_ds.map_batches(project, batch_format="pyarrow"), [by], join_part
    )
