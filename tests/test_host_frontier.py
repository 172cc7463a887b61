"""``HostShards``' columnar frontier without Ray: the closed-form dequeue
equals the oracle's greedy scan (``_OracleState.dequeue_epoch``, the
independent spec) on random frontiers, also across a snapshot → restore
round trip, and the frontier holds no Python object per URL."""

import gc
import random
import tracemalloc

import numpy as np
import pyarrow as pa

from searchengine_ray.pipelines.oracle import CrawlConfig, _OracleState
from searchengine_ray.state.host import FRONTIER_SCHEMA, HostShards

N_OWNERS = 2  # shard s belongs to instance s % N_OWNERS


ENTRY_COLS = ("enqueue_seq", "url", "url_hash", "host_hash", "host", "shard")


def _entries(rng, hosts, seq0, n):
    """n frontier entries, tuples in ``ENTRY_COLS`` order."""
    out = []
    for seq in range(seq0, seq0 + n):
        host, hh, shard = rng.choice(hosts)
        url = f"http://{host}/{seq}"
        out.append((seq, url, rng.getrandbits(64), hh, host, shard))
    return out


def _table(entries):
    cols = dict(zip(ENTRY_COLS, zip(*entries))) if entries else {}
    return pa.table(
        {f.name: pa.array(cols.get(f.name, ()), f.type) for f in FRONTIER_SCHEMA}
    )


def _append(oracle, owners, entries, rng):
    for seq, url, h, hh, host, shard in entries:
        oracle.frontier[shard].append((seq, url, h, hh, host))
    # split into slices so the merge sees several queued appends
    cut = rng.randint(0, len(entries))
    for part in (entries[:cut], entries[cut:]):
        for hs in owners:
            hs.append_many(_table(part))


def _dequeue_both(oracle, owners, epoch):
    want = [p[:5] for p in oracle.dequeue_epoch(epoch)]
    got = []
    for hs in owners:
        sel = hs.dequeue_select(epoch)
        rows = list(zip(*(sel[c].to_pylist() for c in
                          ("t_sched", "enqueue_seq", "url", "url_hash", "host_hash"))))
        assert rows == sorted(rows, key=lambda r: (r[0], r[1]))  # epoch order
        got.extend(rows)
    got.sort(key=lambda r: (r[0], r[1]))
    assert got == want
    host_next = {}
    for hs in owners:
        host_next.update(hs.host_next)

    def nonzero(d):
        return {k: v for k, v in d.items() if v}

    assert nonzero(host_next) == nonzero(oracle.host_next)


def _restored(cfg, owners):
    fresh = []
    for hs in owners:
        fr, hstate = hs.snapshot()
        h2 = HostShards(cfg, hs.shard_ids, None)
        h2.restore(fr, hstate)
        fresh.append(h2)
    return fresh


def test_dequeue_matches_oracle_scan():
    for case in range(240):
        rng = random.Random(case)
        cfg = CrawlConfig(
            politeness_ms=rng.choice([0, 1, 700, 1000, 15000]),
            epoch_ms=rng.choice([1000, 5000, 15000]),
            shard_count=rng.randint(1, 5),
            per_shard_batch=rng.randint(1, 30),
            per_host_epoch_cap=rng.randint(1, 6),
        )
        hosts = []
        for i in range(rng.randint(1, 12)):
            # a host maps to one shard, as with the collision hash
            hosts.append(
                (f"h{i}.jp", rng.getrandbits(64), rng.randrange(cfg.shard_count))
            )
        epoch = rng.randint(0, 4)
        t0 = epoch * cfg.epoch_ms
        span = 3 * max(cfg.politeness_ms, cfg.epoch_ms)
        prior = {
            hh: max(1, t0 + rng.randint(-span, span))  # cooling or already free
            for _, hh, _ in hosts
            if rng.random() < 0.6
        }
        oracle = _OracleState(cfg)
        oracle.host_next = dict(prior)
        shard_of = {hh: sh for _, hh, sh in hosts}
        owners = []
        for a in range(N_OWNERS):
            hs = HostShards(cfg, range(a, cfg.shard_count, N_OWNERS), None)
            hs.host_next = {
                hh: t for hh, t in prior.items() if shard_of[hh] % N_OWNERS == a
            }
            owners.append(hs)
        first = _entries(rng, hosts, 0, rng.randint(0, 90))
        _append(oracle, owners, first, rng)
        _dequeue_both(oracle, owners, epoch)

        # appends queued behind the picks survive snapshot → restore
        more = _entries(rng, hosts, len(first), rng.randint(0, 40))
        _append(oracle, owners, more, rng)
        owners = _restored(cfg, owners)
        _dequeue_both(oracle, owners, epoch + rng.randint(1, 3))
        left = sorted(e[0] for q in oracle.frontier.values() for e in q)
        assert sorted(
            s for hs in owners for s in hs.snapshot()[0]["enqueue_seq"].to_pylist()
        ) == left


def test_frontier_python_heap_per_url():
    n, n_hosts = 50_000, 500
    host_id = np.arange(n) % n_hosts
    hosts = [f"h{h:03d}.jp" for h in range(n_hosts)]
    seq = np.arange(n, dtype=np.int64)
    urls = [f"http://{hosts[h]}/{i:05d}" for i, h in enumerate(host_id)]
    tbl = pa.table(
        {
            "shard": pa.array((host_id % 8).astype(np.int32)),
            "enqueue_seq": pa.array(seq),
            # 20-char URLs
            "url": pa.array(urls),
            "url_hash": pa.array(seq.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)),
            "host_hash": pa.array(host_id.astype(np.uint64) << np.uint64(40)),
            "host": pa.array([hosts[h] for h in host_id]),
        },
        schema=FRONTIER_SCHEMA,
    )
    assert {len(u) for u in urls} == {20}
    del urls
    hs = HostShards(CrawlConfig(shard_count=8), range(8), None)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        hs.append_many(tbl)
        for epoch in range(3):
            hs.dequeue_select(epoch)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(hs.snapshot()[0]) == n - 3 * 8 * CrawlConfig().per_shard_batch
    assert grown / n < 16, f"{grown / n:.1f} B/URL on the Python heap"
