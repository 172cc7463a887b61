"""Unit tests for the temporal operators (as-of join, sliding window,
percentiles) and the HLL sketch — kernels vs brute-force/pandas truth,
plus the HLL error bound vs exact distinct counts."""

import numpy as np
import pandas as pd
import pytest


def _events(n=4000, users=37, seed=3):
    rng = np.random.default_rng(seed)
    ts = np.sort(rng.integers(0, 90 * 86400 * 1_000_000, n))
    return pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "ts": pd.to_datetime(ts, unit="us"),
            "user_id": rng.integers(0, users, n).astype(np.int64),
            "event_type": rng.choice(
                ["view", "click", "purchase", "error"], n, p=[0.5, 0.3, 0.1, 0.1]
            ),
            "value": np.round(rng.uniform(0, 50, n), 2),
        }
    )


def test_asof_join_matches_bruteforce(ray_session):
    import ray

    from searchengine_ray.stages.temporal import asof_join

    df = _events()
    out = (
        asof_join(ray.data.from_pandas(df), "purchase", "view")
        .to_pandas()
        .sort_values("left_id")
        .reset_index(drop=True)
    )
    # brute force per purchase
    want = []
    for _, p in df[df.event_type == "purchase"].iterrows():
        v = df[
            (df.event_type == "view")
            & (df.user_id == p.user_id)
            & (df.ts < p.ts)
        ].sort_values(["ts", "event_id"])
        if len(v):
            last = v.iloc[-1]
            want.append(
                (
                    p.event_id,
                    p.user_id,
                    last.event_id,
                    int((p.ts - last.ts) / pd.Timedelta(microseconds=1)),
                )
            )
    got = list(
        zip(out.left_id, out.user_id, out.right_id, out.gap_us)
    )
    assert got == want


def test_range_join_matches_bruteforce(ray_session):
    import ray

    from searchengine_ray.stages.temporal import range_join

    df = _events()
    w = 3 * 86400 * 1_000_000  # 3 days: dense enough for many pairs
    out = (
        range_join(ray.data.from_pandas(df), "purchase", "view", w)
        .to_pandas()
        .sort_values(["left_id", "right_id"])
        .reset_index(drop=True)
    )
    want = []
    for _, p_ in df[df.event_type == "purchase"].iterrows():
        v = df[
            (df.event_type == "view")
            & (df.user_id == p_.user_id)
            & (df.ts < p_.ts)
            & (df.ts >= p_.ts - pd.Timedelta(microseconds=w))
        ].sort_values("event_id")
        for _, r_ in v.iterrows():
            want.append(
                (p_.event_id, r_.event_id, p_.user_id,
                 int((p_.ts - r_.ts) / pd.Timedelta(microseconds=1)))
            )
    want.sort()
    got = list(zip(out.left_id, out.right_id, out.user_id, out.gap_us))
    assert len(got) > 100  # fixture sanity: the window must bind densely
    assert got == want


def test_preceding_window_matches_bruteforce(ray_session):
    import ray

    from searchengine_ray.stages.temporal import preceding_window_count

    df = _events(n=2500, users=11)
    w = 3_600_000_000
    out = (
        preceding_window_count(ray.data.from_pandas(df), w)
        .to_pandas()
        .set_index("event_id")["n_window"]
    )
    us = df["ts"].astype("datetime64[us]").astype("int64")
    for _, r in df.sample(200, random_state=0).iterrows():
        t = int(us.loc[r.name])
        n = (
            (df.user_id == r.user_id) & (us >= t - w) & (us <= t)
        ).sum()
        assert out[r.event_id] == n, r.event_id


def test_preceding_window_fallback_path():
    """Huge-span fallback (per-run searchsorted) must agree with the
    composite-key fast path."""
    from searchengine_ray.stages.temporal import preceding_window_count  # noqa: F401
    # exercise the kernel directly: craft spans that force the fallback
    import searchengine_ray.stages.temporal as T

    df = _events(n=800, users=7, seed=9)
    w = 3_600_000_000

    # fast path result via the internal kernel
    def run(force_fallback):
        g = df.copy()
        g["ts_us"] = g["ts"].astype("int64")
        g = g[["event_id", "user_id", "ts_us"]]
        gg = g.sort_values(["user_id", "ts_us"], kind="mergesort")
        ts = gg["ts_us"].to_numpy(np.int64)
        ent = gg["user_id"].to_numpy(np.int64)
        n = len(ts)
        starts = np.r_[0, np.nonzero(np.diff(ent))[0] + 1]
        ends = np.r_[starts[1:], n]
        if force_fallback:
            lo = np.empty(n, np.int64)
            hi = np.empty(n, np.int64)
            for s, e in zip(starts, ends):
                lo[s:e] = s + np.searchsorted(ts[s:e], ts[s:e] - w, "left")
                hi[s:e] = s + np.searchsorted(ts[s:e], ts[s:e], "right")
        else:
            run_of = np.repeat(np.arange(len(starts)), ends - starts)
            run_base = ts[starts][run_of]
            d = ts - run_base
            stride = int(d.max()) + w + 2
            key = run_of * stride + d
            lo = np.searchsorted(key, key - w, "left")
            hi = np.searchsorted(key, key, "right")
        return dict(zip(gg["event_id"], (hi - lo)))

    assert run(True) == run(False)


def test_group_percentiles_matches_duckdb(ray_session):
    import duckdb
    import ray

    from searchengine_ray.stages.temporal import group_percentiles

    df = _events(n=3000)
    out = (
        group_percentiles(
            ray.data.from_pandas(df), "event_type", "value", (0.5, 0.9, 0.99)
        )
        .to_pandas()
        .sort_values("event_type")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("ev", df)
    want = con.execute(
        """
        SELECT event_type,
               quantile_disc(CAST(ROUND(value*100) AS BIGINT), 0.5)  AS p50,
               quantile_disc(CAST(ROUND(value*100) AS BIGINT), 0.9)  AS p90,
               quantile_disc(CAST(ROUND(value*100) AS BIGINT), 0.99) AS p99
        FROM ev GROUP BY event_type ORDER BY event_type
        """
    ).df()
    for c in ("p50", "p90", "p99"):
        assert list(out[c].astype(np.int64)) == list(want[c].astype(np.int64))
    assert list(out["event_type"]) == list(want["event_type"])


@pytest.mark.parametrize("n_true", [300, 20_000])
def test_hll_error_bound(n_true):
    from searchengine_ray.stages.sketch import (
        hll_estimate,
        hll_merge,
        hll_partial,
    )

    rng = np.random.default_rng(1)
    vals = rng.integers(0, 2**62, n_true).astype(np.int64)
    # duplicate heavily and split across "batches"
    allv = np.concatenate([vals, vals, vals[: n_true // 2]])
    rng.shuffle(allv)
    parts = [
        hll_partial(chunk) for chunk in np.array_split(allv, 7)
    ]
    est = hll_estimate(hll_merge(parts))
    true = len(np.unique(vals))
    assert abs(est - true) / true < 0.05  # 3 sigma at p=12 is ~4.9%


def test_hll_merge_equals_single_pass():
    from searchengine_ray.stages.sketch import hll_merge, hll_partial

    rng = np.random.default_rng(2)
    v = rng.integers(0, 10_000, 5000).astype(np.int64)
    merged = hll_merge([hll_partial(c) for c in np.array_split(v, 5)])
    single = hll_partial(v)
    assert np.array_equal(merged, single)


def test_approx_distinct_on_strings(ray_session):
    import ray

    from searchengine_ray.stages.sketch import approx_distinct

    df = pd.DataFrame({"s": [f"host-{i % 500}.example.com" for i in range(8000)]})
    got = approx_distinct(ray.data.from_pandas(df), "s")
    assert abs(got["approx"] - 500) / 500 < 0.1


# ------------------------------------------------------- count-min / bloom

def test_cms_never_underestimates():
    from searchengine_ray.stages.sketch import cms_partial, cms_query

    rng = np.random.default_rng(5)
    vals = np.array([f"k{int(x)}" for x in rng.zipf(1.3, 30000)])
    # tiny sketch so collisions are common — the >= guarantee must hold anyway
    cms = cms_partial(vals, width=64, depth=3)
    uniq, cnt = np.unique(vals, return_counts=True)
    est = cms_query(cms, uniq)
    assert (est >= cnt).all()


def test_heavy_hitters_exact_on_zipf(ray_session):
    import ray

    from searchengine_ray.stages.sketch import heavy_hitters

    rng = np.random.default_rng(7)
    toks = np.array([f"w{int(x)}" for x in rng.zipf(1.5, 20000)])
    ds = ray.data.from_pandas(pd.DataFrame({"tok": toks})).repartition(8)
    got = heavy_hitters(
        ds, lambda b: b["tok"].to_numpy().astype("U"), threshold=250,
        width=1 << 12, value_col="tok",
    )
    truth = pd.Series(toks).value_counts()
    want = truth[truth >= 250].sort_index()
    assert list(got.sort_values("tok")["tok"]) == list(want.index)
    assert list(got.sort_values("tok")["cnt"]) == list(want.to_numpy())


def test_bloom_no_false_negatives_and_fp_bound():
    from searchengine_ray.stages.sketch import bloom_might_contain, bloom_partial

    rng = np.random.default_rng(11)
    keys = rng.choice(10**9, 5000, replace=False).astype(np.int64)
    words = bloom_partial(keys, 1 << 17, 7)
    assert bloom_might_contain(words, keys, 7).all()  # no false negatives
    probe = rng.choice(10**9, 20000, replace=False).astype(np.int64)
    fresh = probe[~np.isin(probe, keys)]
    # theoretical fp at n=5000, m=2^17, k=7 is ~0.03%; allow 1%
    assert bloom_might_contain(words, fresh, 7).mean() < 0.01


def test_bloom_partials_merge_like_single_build():
    from searchengine_ray.stages.sketch import bloom_partial

    rng = np.random.default_rng(13)
    v = rng.integers(0, 10**8, 4000).astype(np.int64)
    merged = np.zeros((1 << 14) // 64, np.uint64)
    for c in np.array_split(v, 5):
        merged |= bloom_partial(c, 1 << 14, 5)
    assert np.array_equal(merged, bloom_partial(v, 1 << 14, 5))


# -------------------------------------------------- exact global quantiles

def test_global_quantiles_matches_duckdb(ray_session):
    import duckdb
    import ray

    from searchengine_ray.stages.sketch import global_quantiles

    rng = np.random.default_rng(17)
    vals = np.concatenate(
        [
            rng.integers(-1000, 10**7, 30000),
            np.full(8000, 4242),  # fat duplicated value: single-value bin
        ]
    )
    ds = ray.data.from_pandas(pd.DataFrame({"v": vals})).repartition(8)
    qs = [0.01, 0.25, 0.5, 0.75, 0.9, 0.99]
    # small bins + tiny max_collect to force the recursive-refine path
    got = global_quantiles(ds, "v", qs, bins=1 << 8, max_collect=300)
    con = duckdb.connect()
    con.register("t", pd.DataFrame({"v": vals}))
    for (q_ppm, v), q in zip(got.itertuples(index=False), qs):
        want = con.execute(f"SELECT quantile_disc(v, {q}) FROM t").fetchone()[0]
        assert v == want, (q, v, want)


def test_global_quantiles_constant_column(ray_session):
    import ray

    from searchengine_ray.stages.sketch import global_quantiles

    ds = ray.data.from_pandas(pd.DataFrame({"v": np.full(1000, 7)}))
    got = global_quantiles(ds, "v", [0.5])
    assert got["value"].tolist() == [7]


# ---------------------------------------------------- weighted sampling

def test_weighted_sample_matches_local_reference(ray_session):
    import ray

    from searchengine_ray.stages.sampling import sample_keys, weighted_sample

    rng = np.random.default_rng(31)
    df = pd.DataFrame(
        {
            "doc_id": np.arange(1000, dtype=np.int64),
            "w": rng.uniform(0.1, 5.0, 1000),
        }
    )
    ds = ray.data.from_pandas(df).repartition(7)
    got = weighted_sample(ds, k=40, weight_col="w", seed=29)
    # exact local reference: global k-smallest E-S keys
    keys = sample_keys(df["doc_id"].to_numpy(), df["w"].to_numpy(), 29)
    want = set(df["doc_id"].to_numpy()[np.argsort(keys)[:40]])
    assert set(got["doc_id"]) == want


def test_weighted_sample_partition_invariant(ray_session):
    import ray

    from searchengine_ray.stages.sampling import weighted_sample

    rng = np.random.default_rng(37)
    df = pd.DataFrame(
        {
            "doc_id": np.arange(500, dtype=np.int64),
            "w": rng.uniform(0.5, 2.0, 500),
        }
    )
    a = weighted_sample(ray.data.from_pandas(df).repartition(3), 25, "w")
    b = weighted_sample(ray.data.from_pandas(df).repartition(13), 25, "w")
    pd.testing.assert_frame_equal(a, b)


def test_weighted_sample_favors_heavy_and_skips_zero(ray_session):
    import ray

    from searchengine_ray.stages.sampling import weighted_sample

    df = pd.DataFrame(
        {
            "doc_id": np.arange(200, dtype=np.int64),
            "w": np.concatenate([[1e6], np.ones(198), [0.0]]),
        }
    )
    got = weighted_sample(ray.data.from_pandas(df).repartition(4), 10, "w")
    assert 0 in set(got["doc_id"])      # overwhelming weight always sampled
    assert 199 not in set(got["doc_id"])  # zero weight never sampled


def test_global_quantiles_huge_range_no_overflow(ray_session):
    """ADVICE round-3 regression: value ranges wider than ~2^47 used to
    overflow the int64 (v-lo)*nb product and silently misplace bins.
    Decade-spanning microsecond timestamps + int64-extreme values."""
    import ray.data

    from searchengine_ray.stages.sketch import global_quantiles

    rng = np.random.default_rng(5)
    # ~10 years of microseconds (~3.2e14 range) plus extreme outliers
    vals = rng.integers(1_500_000_000_000_000, 1_800_000_000_000_000,
                        size=4000, dtype=np.int64)
    vals = np.concatenate([vals, np.array(
        [-(1 << 62), (1 << 62), 0], dtype=np.int64)])
    ds = ray.data.from_pandas(pd.DataFrame({"v": vals})).repartition(8)
    qs = [0.01, 0.25, 0.5, 0.75, 0.99]
    got = global_quantiles(ds, "v", qs, bins=1 << 10, max_collect=500)
    import duckdb

    con = duckdb.connect()
    con.register("t", pd.DataFrame({"v": vals}))
    for q, row in zip(qs, got.itertuples()):
        want = con.execute(
            f"SELECT quantile_disc(v, {q}) FROM t").fetchone()[0]
        assert row.value == want, (q, row.value, want)


def test_temporal_joins_at_three_partitions(ray_session, three_partitions):
    """The keyed temporal checks above with every shuffle at 3
    partitions (the pad / sort path) instead of one."""
    test_asof_join_matches_bruteforce(ray_session)
    test_range_join_matches_bruteforce(ray_session)
    test_preceding_window_matches_bruteforce(ray_session)
    test_group_percentiles_matches_duckdb(ray_session)
