"""``HostShards``' columnar frontier without Ray: the closed-form dequeue
equals the oracle's greedy scan (``_OracleState.dequeue_epoch``, the
independent spec) on random frontiers, also across a snapshot → restore
round trip, the frontier holds no Python object per URL and the host
table no Python object per host.  The
admission phases (host robots + quota, then the seen shards' ``test``,
then each host actor's shard cap + budget and append, adding only the
admitted URLs to the seen shards) equal a plain Python set walk."""

import gc
import random
import tracemalloc

import numpy as np
import pyarrow as pa

from searchengine_ray.pipelines.oracle import CrawlConfig, _OracleState
from searchengine_ray.state.host import FRONTIER_SCHEMA, HOSTSTATE_SCHEMA, HostShards

N_OWNERS = 2  # shard s belongs to instance s % N_OWNERS


ENTRY_COLS = ("enqueue_seq", "url", "url_hash", "host_hash", "shard")


def _entries(rng, hosts, seq0, n):
    """n frontier entries, tuples in ``ENTRY_COLS`` order followed by
    the host string the oracle's entries keep."""
    out = []
    for seq in range(seq0, seq0 + n):
        host, hh, shard = rng.choice(hosts)
        url = f"http://{host}/{seq}"
        out.append((seq, url, rng.getrandbits(64), hh, shard, host))
    return out


def _table(entries):
    cols = dict(zip(ENTRY_COLS, zip(*entries))) if entries else {}
    return pa.table(
        {f.name: pa.array(cols.get(f.name, ()), f.type) for f in FRONTIER_SCHEMA}
    )


def _append(oracle, owners, entries, rng):
    for seq, url, h, hh, shard, host in entries:
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
        hstate = hs.snapshot()[1]
        host_next.update(
            zip(hstate["host_hash"].to_pylist(), hstate["next_time"].to_pylist())
        )

    def nonzero(d):
        return {k: v for k, v in d.items() if v}

    assert nonzero(host_next) == nonzero(oracle.host_next)


def _clocks(host_next: dict) -> pa.Table:
    """A host table holding politeness clocks only."""
    hh = sorted(host_next)
    zeros = [0] * len(hh)
    return pa.table(
        [hh, [host_next[h] for h in hh], zeros, zeros], schema=HOSTSTATE_SCHEMA
    )


def _restored(cfg, owners, dns_addr=False):
    """Fresh instances restored from the owners' snapshots; with
    ``dns_addr``, from host tables that still carry that column, as a
    checkpoint written by an engine that kept a DNS cache does."""
    fresh = []
    for hs in owners:
        fr, hstate = hs.snapshot()
        if dns_addr:
            addr = hstate["host_hash"].to_numpy() & np.uint64(0xFFFFFFFF)
            hstate = hstate.append_column("dns_addr", pa.array(addr.astype(np.int64)))
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
            hs.restore(FRONTIER_SCHEMA.empty_table(), _clocks(
                {hh: t for hh, t in prior.items() if shard_of[hh] % N_OWNERS == a}
            ))
            owners.append(hs)
        first = _entries(rng, hosts, 0, rng.randint(0, 90))
        _append(oracle, owners, first, rng)
        _dequeue_both(oracle, owners, epoch)

        # appends queued behind the picks survive snapshot → restore
        more = _entries(rng, hosts, len(first), rng.randint(0, 40))
        _append(oracle, owners, more, rng)
        owners = _restored(cfg, owners, dns_addr=case % 2 == 1)
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


class _NoRobots:
    """A web store that knows no URL: every candidate passes robots."""

    robots_blocked = np.zeros(0, bool)

    def lookup(self, uh):
        return np.full(len(uh), -1, np.int64)


def test_host_state_heap_per_host():
    """~100k distinct hosts through phase 1 (robots + quota) and one
    dequeue that picks every host: the host state (clock and quota set
    for each) grows the Python heap by at most 64 B per host."""
    n = 100_000
    seq = np.arange(n, dtype=np.int64)
    hh = (seq.astype(np.uint64) + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
    text = pa.array(["h.jp"] * n)
    cand = pa.table(
        {
            "fetch_seq": pa.array(seq),
            "pos": pa.array(np.zeros(n, np.int32)),
            "url_hash": pa.array(~hh),
            "host_hash": pa.array(hh),
            "shard": pa.array((seq % 8).astype(np.int32)),
            "enqueue_seq": pa.array(seq),
            "url": text,
        }
    )
    hs = HostShards(CrawlConfig(shard_count=8, per_shard_batch=n), range(8), _NoRobots())
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        chain, _ = hs.admit_phase1_chunks(cand)
        hs.append_many(cand)
        picked = len(hs.dequeue_select(0))
        del chain
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert picked == n
    assert grown / n <= 64, f"{grown / n:.1f} B/host on the Python heap"


class _Store:
    """The two fields of ``synth.WebStore`` that admission reads."""

    def __init__(self, url_hash, robots_blocked):
        self._row = {int(h): i for i, h in enumerate(url_hash)}
        self.robots_blocked = robots_blocked

    def lookup(self, uh):
        return np.array([self._row.get(int(h), -1) for h in uh], np.int64)


def _wave(rng, pool, fseq0, n_pages):
    """One wave's candidate chunks: ``n_pages`` fetched pages, each
    linking to a few pool URLs (repeats within and across waves)."""
    rows = []
    for f in range(fseq0, fseq0 + n_pages):
        for pos in range(rng.randint(0, 12)):
            rows.append((f, pos, *rng.choice(pool)))
    cols = ("fetch_seq", "pos", "url_hash", "host_hash", "shard", "url")
    types = (pa.int64(), pa.int32(), pa.uint64(), pa.uint64(), pa.int32(),
             pa.string())
    cut = rng.randint(0, len(rows))  # a chunk boundary between two pages
    while 0 < cut < len(rows) and rows[cut][0] == rows[cut - 1][0]:
        cut += 1
    return [
        pa.table({c: pa.array([r[i] for r in part], t)
                  for i, (c, t) in enumerate(zip(cols, types))})
        for part in (rows[:cut], rows[cut:])
    ]


def test_admission_matches_set_reference():
    """Robots + quota per wave on the host actors, the seen shards'
    test, then every host actor's ``append_wave`` (shard cap + budget,
    appending its own admitted rows) and the seen shards'
    ``add_admitted`` of the host actors' outputs, before the next wave's
    phases, equals a plain Python set walk in global (fetch_seq, pos)
    order; phase 1 reports the live shard sizes, appends included —
    with 1 host actor owning every shard and 1 seen shard, and with 3
    host actors and 2 seen shards, across a checkpoint round trip.  The
    cap and the budget each bind in some cases."""
    from searchengine_ray.pipelines.crawl import _SeenActor
    from searchengine_ray.state.host import _order_keys

    no_limit = CrawlConfig()
    cap_bound = budget_bound = False
    for case in range(20):
        rng = random.Random(case)
        cfg = CrawlConfig(
            shard_count=6, max_urls_per_host=rng.randint(3, 30),
            max_frontier_per_shard=rng.choice(
                [rng.randint(0, 12), no_limit.max_frontier_per_shard]),
            max_crawl_urls=rng.choice([rng.randint(0, 50), no_limit.max_crawl_urls]),
        )
        hosts = [(f"h{i}.jp", rng.getrandbits(64), rng.randrange(6))
                 for i in range(rng.randint(2, 10))]
        pool = []
        for i in range(rng.randint(10, 120)):
            host, hh, shard = rng.choice(hosts)
            pool.append((rng.getrandbits(64), hh, shard, f"http://{host}/{i}"))
        known = [u for u in pool if rng.random() < 0.8]
        store = _Store([u[0] for u in known],
                       np.array([rng.random() < 0.2 for _ in known], bool))
        blocked = {u[0] for u, b in zip(known, store.robots_blocked) if b}
        waves = []
        fseq = -1  # seeds come first, as fetch_seq -1
        for _ in range(6):
            n = rng.randint(1, 8)
            waves.append(_wave(rng, pool, fseq, n))
            fseq += n

        for n_hosts, n_seen in ((1, 1), (3, 2)):
            owners = [HostShards(cfg, range(a, 6, n_hosts), store)
                      for a in range(n_hosts)]
            shards = [_SeenActor(1 << 4, k, n_seen) for k in range(n_seen)]
            seen, quota, seqs = set(), {}, []
            sizes = np.zeros(cfg.shard_count, np.int64)
            for w, chunks in enumerate(waves):
                if w == 3:  # checkpoint round trip mid-crawl
                    fresh = []
                    for hs in owners:
                        h2 = HostShards(cfg, hs.shard_ids, store)
                        h2.restore(*hs.snapshot())
                        fresh.append(h2)
                    owners = fresh
                    fresh = []
                    for sa in shards:
                        s2 = _SeenActor(1 << 4, sa.k, n_seen)
                        s2.restore(sa.to_state())
                        fresh.append(s2)
                    shards = fresh
                cand = pa.concat_tables(chunks)
                want_ok, want_new, tested = [], [], set(seen)
                for uh, hh in zip(cand["url_hash"].to_pylist(),
                                  cand["host_hash"].to_pylist()):
                    ok = uh not in blocked and quota.get(hh, 0) < cfg.max_urls_per_host
                    if uh not in blocked:
                        quota[hh] = min(quota.get(hh, 0) + 1, cfg.max_urls_per_host)
                    want_ok.append(ok)
                    want_new.append(ok and uh not in tested)
                    if ok:
                        tested.add(uh)
                # the cap: a first sighting is kept while its shard has
                # room left (cap − live size); the budget: the last
                # ``over`` kept ones in global order are dropped
                room = cfg.max_frontier_per_shard - sizes
                kept = []
                for i, shard in enumerate(cand["shard"].to_pylist()):
                    if want_new[i] and room[shard] > 0:
                        room[shard] -= 1
                        kept.append(i)
                cap_bound |= len(kept) < sum(want_new)
                over = len(seen) + len(kept) - cfg.max_crawl_urls
                if over > 0:
                    kept = kept[:-over]
                    budget_bound = True
                keys = _order_keys(cand["fetch_seq"].to_numpy(),
                                   cand["pos"].to_numpy())
                p1 = [hs.admit_phase1_chunks(*chunks) for hs in owners]
                chain = pa.concat_tables([c for c, _ in p1])
                got_ok = dict(zip(
                    _order_keys(chain["fetch_seq"].to_numpy(),
                                chain["pos"].to_numpy()).tolist(),
                    chain["ok"].to_pylist()))
                assert [got_ok[k] for k in keys.tolist()] == want_ok
                assert (sum(sz for _, sz in p1) == sizes).all()
                p2 = [sa.test_and_add_wave(*p1) for sa in shards]
                assert sum(n for _, _, n in p2) == len(seen)
                got_new = dict(zip(np.concatenate([k for k, _, _ in p2]).tolist(),
                                   np.concatenate([m for _, m, _ in p2]).tolist()))
                assert [k for k, ok in zip(keys.tolist(), want_ok) if ok] == \
                    sorted(got_new)
                assert [got_new.get(k, False) for k in keys.tolist()] == want_new
                outs = [hs.append_wave(len(chunks), len(p1), *chunks, *p1, *p2)
                        for hs in owners]
                for sa in shards:
                    sa.add_admitted(*outs)
                adm = cand.take(pa.array(kept, pa.int64()))
                for hs, (uh, stats) in zip(owners, outs):
                    mine = np.isin(adm["shard"].to_numpy(), hs.shard_ids)
                    assert uh.tolist() == np.asarray(adm["url_hash"])[mine].tolist()
                    assert stats == {
                        "candidates": len(cand),
                        "admitted": len(kept),
                        "rejected_robots_quota": want_ok.count(False),
                        "rejected_dup": sum(want_ok) - sum(want_new),
                        "rejected_cap_budget": sum(want_new) - len(kept),
                    }
                seen |= set(adm["url_hash"].to_pylist())
                seqs += keys[kept].tolist()
                sizes += np.bincount(adm["shard"].to_numpy(),
                                     minlength=cfg.shard_count)
            assert {int(h) for sa in shards for h in sa.dump_hashes()} == seen
            assert sum(sa.mem_bytes()[1] for sa in shards) == len(seen)
            assert sorted(s for hs in owners
                          for s in hs.snapshot()[0]["enqueue_seq"].to_pylist()
                          ) == seqs
    assert cap_bound and budget_bound
