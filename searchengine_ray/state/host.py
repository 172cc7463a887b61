"""Host-shard state: frontier shards + politeness clocks + host health.

One ``HostShards`` instance owns a *set* of collision-domain shards
(the reference's pending DBs, ``SearchEngine.h:449-513``) plus all
per-host mutable state whose serialization order matters:

* politeness clocks (``hostLastTime``/``nextDownloadTime``,
  ``SearchEngine.cpp:731-761``) — logical ms, token-bucket style,
* bad-host fail counters (``m_badHosts``, ``SearchEngine.cpp:575-604``),
* per-host candidate quota (``m_hostsCount``, ``SearchEngine.h:746-756``),
* robots rules (north-rule addition; resolved from the web store).

Every host maps to exactly one collision shard
(``hostCollisionHash % shard_count``, ``SearchEngine.h:759``) and every
shard to exactly one instance, so per-host ordering is preserved with
no cross-actor coordination.  Wrapped in ``ray.remote`` by
``pipelines/crawl.py``; kept Ray-free here for unit testing.

Determinism contract: ``dequeue_epoch`` and the admission phases are
pure functions of (owned state, sorted input batch) — results are
independent of actor-pool size or scheduling (SURVEY.md §7.5#1).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..sources import synth

OUT_OK = 0
OUT_SKIP_BADHOST = 1
OUT_CONNECT_FAIL = 2
OUT_TIMEOUT = 3
OUT_NOTFOUND = 4
OUT_REDIRECT_FAIL = 5

PICKS_SCHEMA = pa.schema(
    [
        ("t_sched", pa.int64()),
        ("enqueue_seq", pa.int64()),
        ("url", pa.string()),
        ("url_hash", pa.uint64()),
        ("host_hash", pa.uint64()),
        ("shard", pa.int32()),
        ("content_row", pa.int64()),
        ("outcome", pa.int8()),
    ]
)

FRONTIER_SCHEMA = pa.schema(
    [
        ("shard", pa.int32()),
        ("enqueue_seq", pa.int64()),
        ("url", pa.string()),
        ("url_hash", pa.uint64()),
        ("host_hash", pa.uint64()),
        ("host", pa.string()),
    ]
)

HOSTSTATE_SCHEMA = pa.schema(
    [
        ("host_hash", pa.uint64()),
        ("next_time", pa.int64()),
        ("fail_count", pa.int32()),
        ("cand_count", pa.int64()),
        ("dns_addr", pa.int64()),
    ]
)


class HostShards:
    def __init__(self, cfg, shard_ids, store: synth.WebStore):
        self.cfg = cfg
        self.shard_ids = list(shard_ids)
        # frontier is PERSISTENTLY host-bucketed: shard → {host_hash →
        # deque of (seq, url, url_hash, host_hash, host)} — dequeue
        # consumes in place (O(picks + active hosts) per epoch, never a
        # per-epoch O(frontier) rebuild/sort)
        self.frontier: dict[int, dict] = {s: {} for s in self.shard_ids}
        self.shard_n: dict[int, int] = {s: 0 for s in self.shard_ids}
        self.host_next: dict[int, int] = {}
        self.host_fail: dict[int, int] = {}
        self.host_cand: dict[int, int] = {}
        # positive DNS cache (m_okHosts, SearchEngine.h:526 — host md5 →
        # IPv4): first successful connect caches a synthetic address so
        # later fetches skip resolution; checkpointed named state
        self.host_dns: dict[int, int] = {}
        self.dns_hits = 0
        self.dns_misses = 0
        self.store = store
        # shard sizes as of the LAST dequeue (pre-this-epoch-appends):
        # phase1 piggybacks THIS to the sequencer so cap math stays
        # exact while frontier appends apply incrementally mid-epoch
        # (the sequencer's own shard_add covers the current epoch)
        self._size_snapshot: dict[int, int] = dict(self.shard_n)

    # ------------------------------------------------------------ dequeue
    def append_and_dequeue(self, epoch: int, *admitted) -> pa.Table:
        """Apply any deferred frontier appends (the previous epoch's
        admitted tables, chained object refs), then dequeue — one actor
        hop instead of append-tasks + dequeue at the epoch boundary."""
        for adm in admitted:
            if adm is not None and len(adm):
                self.append_frontier(adm)
        return self.dequeue_epoch(epoch)

    def append_many(self, *admitted) -> None:
        for adm in admitted:
            if adm is not None and len(adm):
                self.append_frontier(adm)

    def dequeue_epoch(self, epoch: int) -> pa.Table:
        """Politeness-greedy per-shard selection + fetch-outcome
        resolution, in (t_sched, enqueue_seq) order per shard (host
        health updates are host-local, so per-shard order suffices).

        When a global fetch budget may bind mid-epoch the engine calls
        the two-phase split instead — ``dequeue_select`` then
        ``resolve_outcomes`` on the budget-sliced survivors — so
        fail-counter updates stop exactly at the budget, matching the
        oracle's early break (checkpoint state stays resumable past a
        raised limit)."""
        return self._resolve(self._select(epoch))

    def dequeue_select(self, epoch: int) -> pa.Table:
        """Phase 1 of the budget-aware split: selection only (frontier
        removal + politeness clock advance), no outcome resolution."""
        picks = self._select(epoch)
        n = len(picks)
        return pa.table(
            {
                "t_sched": pa.array([p[0] for p in picks], pa.int64()),
                "enqueue_seq": pa.array([p[1] for p in picks], pa.int64()),
                "url": pa.array([p[2] for p in picks], pa.string()),
                "url_hash": pa.array([p[3] for p in picks], pa.uint64()),
                "host_hash": pa.array([p[4] for p in picks], pa.uint64()),
                "shard": pa.array([p[5] for p in picks], pa.int32()),
            }
        )

    def resolve_outcomes(self, sel: pa.Table) -> pa.Table:
        """Phase 2: outcome resolution for the budget-surviving subset
        of this actor's picks (rows arrive in global order restricted
        to my hosts — per-host order, the only one that matters for the
        fail-counter walk, is preserved)."""
        picks = list(
            zip(
                sel["t_sched"].to_pylist(),
                sel["enqueue_seq"].to_pylist(),
                sel["url"].to_pylist(),
                (int(x) for x in sel["url_hash"].to_pylist()),
                (int(x) for x in sel["host_hash"].to_pylist()),
                sel["shard"].to_pylist(),
            )
        )
        return self._resolve(picks)

    def _select(self, epoch: int) -> list:
        """Heap-based O(B log H) restatement of the oracle's O(B·n) scan
        (``pipelines/oracle.py dequeue_epoch`` — the naive spec; the
        two are cross-validated by the conformance tests): among
        politeness-eligible hosts pick the entry with the lowest
        enqueue_seq; otherwise advance the clock to the nearest
        host_next (ties by earliest entry seq, matching the
        reference's first-minimum in-order scan,
        ``SearchEngine.cpp:731-749``)."""
        import heapq
        from collections import deque

        cfg = self.cfg
        t0 = epoch * cfg.epoch_ms
        picks = []  # (t, seq, url, url_hash, host_hash, shard)
        for shard in self.shard_ids:
            by_host = self.frontier[shard]  # persistent host buckets
            if not by_host:
                continue
            t = t0
            ready = []    # (min_seq, host) — hosts eligible now
            waiting = []  # (next_t, min_seq, host)
            for hh, q in by_host.items():
                nxt = self.host_next.get(hh)
                if nxt is None or nxt <= t:
                    heapq.heappush(ready, (q[0][0], hh))
                else:
                    heapq.heappush(waiting, (nxt, q[0][0], hh))
            host_picks: dict[int, int] = {}
            n_picked = 0
            while n_picked < cfg.per_shard_batch and (ready or waiting):
                if not ready:
                    nxt, _, hh = heapq.heappop(waiting)
                    t = max(t, nxt)
                    heapq.heappush(ready, (by_host[hh][0][0], hh))
                    # pull in every other host that became eligible
                    while waiting and waiting[0][0] <= t:
                        _, _, h2 = heapq.heappop(waiting)
                        heapq.heappush(ready, (by_host[h2][0][0], h2))
                    continue
                seq_min, hh = heapq.heappop(ready)
                q = by_host[hh]
                seq, url, h, hhx, host = q.popleft()
                self.host_next[hh] = t + cfg.politeness_ms
                host_picks[hh] = host_picks.get(hh, 0) + 1
                picks.append((t, seq, url, h, hh, shard))
                n_picked += 1
                self.shard_n[shard] -= 1
                if q:
                    if host_picks[hh] < cfg.per_host_epoch_cap:
                        heapq.heappush(
                            waiting, (self.host_next[hh], q[0][0], hh)
                        )
                else:
                    del by_host[hh]  # drained host bucket
        picks.sort(key=lambda p: (p[0], p[1]))
        self._size_snapshot = dict(self.shard_n)
        return picks

    def _resolve(self, picks: list) -> pa.Table:
        """Resolve fetch outcomes (bad-host gate → store lookup →
        redirect).  Store lookups and outcome classification are fully
        vectorized; the order-sensitive fail-counter walk runs ONLY
        over picks of hosts that have a failure event in this batch or
        prior fails on record — per-host state means the walk for
        those hosts is independent of the (vectorized) rest."""
        n = len(picks)
        if n == 0:
            return pa.table({k.name: [] for k in PICKS_SCHEMA}, schema=PICKS_SCHEMA)
        t_arr = np.fromiter((p[0] for p in picks), np.int64, n)
        seq_arr = np.fromiter((p[1] for p in picks), np.int64, n)
        urls = [p[2] for p in picks]
        uh = np.fromiter((p[3] for p in picks), np.uint64, n)
        hh = np.fromiter((p[4] for p in picks), np.uint64, n)
        shard_arr = np.fromiter((p[5] for p in picks), np.int32, n)
        srows = self.store.lookup(uh)
        known = srows >= 0
        status = np.full(n, -999, np.int32)
        status[known] = self.store.status[srows[known]]
        redirect = np.full(n, -1, np.int64)
        red = known & (status == synth.STATUS_REDIRECT)
        redirect[red] = self.store.redirect[srows[red]]
        red_ok = red & (redirect >= 0)
        red_status = np.full(n, -999, np.int32)
        red_status[red_ok] = self.store.status[redirect[red_ok]]
        cfg = self.cfg

        # picks that need the sequential fail-counter walk: a host's
        # fails can first become nonzero at its FIRST bad event in this
        # batch (or at entry, if it carries prior fails) — every pick of
        # a bad host BEFORE that position provably sees fails == 0 and
        # resolves on the fast path
        timeout = known & (status == synth.STATUS_TIMEOUT)
        bad_event = (~known) | timeout
        walk = np.zeros(n, bool)
        if bad_event.any():
            pos_bad = np.nonzero(bad_event)[0]
            first_bad: dict[int, int] = {}
            for p in pos_bad[::-1]:
                first_bad[int(hh[p])] = int(p)
            bh = np.fromiter(first_bad.keys(), np.uint64, len(first_bad))
            th = np.fromiter(first_bad.values(), np.int64, len(first_bad))
            bo = np.argsort(bh)
            bh, th = bh[bo], th[bo]
            pos = np.searchsorted(bh, hh)
            hit = (pos < len(bh)) & (bh[np.minimum(pos, len(bh) - 1)] == hh)
            walk[hit] = np.arange(n)[hit] >= th[pos[hit]]
        if self.host_fail:
            pf = np.fromiter(self.host_fail.keys(), np.uint64, len(self.host_fail))
            walk |= np.isin(hh, pf)
        fast = ~walk

        outcome = np.empty(n, np.int8)
        content_row = np.full(n, -1, np.int64)
        # fast path: every pick connected, zero prior fails — outcomes
        # are a pure function of store status
        m = fast & known & (status == synth.STATUS_NOTFOUND)
        outcome[m] = OUT_NOTFOUND
        m = fast & red
        mo = m & (red_status == synth.STATUS_OK)
        outcome[mo] = OUT_OK
        content_row[mo] = redirect[mo]
        outcome[m & ~mo] = OUT_REDIRECT_FAIL
        m = fast & known & (status == synth.STATUS_OK)
        outcome[m] = OUT_OK
        content_row[m] = srows[m]
        # DNS cache accounting for fast picks (all connected): first
        # pick of an uncached host is a miss (and inserts), the rest
        # are hits — totals are order-independent per host
        if fast.any():
            uniq, counts = np.unique(hh[fast], return_counts=True)
            new = [int(u) for u in uniq.tolist() if int(u) not in self.host_dns]
            self.dns_misses += len(new)
            self.dns_hits += int(counts.sum()) - len(new)
            for u in new:
                self.host_dns[u] = int(u & 0xFFFFFFFF)

        # sequential walk for the (rare) failure-involved hosts, in
        # original pick order
        for i in np.nonzero(walk)[0]:
            h = int(uh[i])
            hhi = int(hh[i])
            fails = self.host_fail.get(hhi, 0)
            if fails > cfg.max_host_fails and (h % 10) != 0:
                oc, cr = OUT_SKIP_BADHOST, -1
            elif not known[i]:
                self.host_fail[hhi] = fails + 1
                self.dns_misses += 1
                oc, cr = OUT_CONNECT_FAIL, -1
            elif status[i] == synth.STATUS_TIMEOUT:
                self.host_fail[hhi] = fails + 1
                oc, cr = OUT_TIMEOUT, -1
            else:
                self.host_fail.pop(hhi, None)
                if hhi in self.host_dns:
                    self.dns_hits += 1
                else:
                    self.dns_misses += 1
                    self.host_dns[hhi] = int(hhi & 0xFFFFFFFF)
                if status[i] == synth.STATUS_NOTFOUND:
                    oc, cr = OUT_NOTFOUND, -1
                elif status[i] == synth.STATUS_REDIRECT:
                    if red_status[i] != synth.STATUS_OK:
                        oc, cr = OUT_REDIRECT_FAIL, -1
                    else:
                        oc, cr = OUT_OK, int(redirect[i])
                else:
                    oc, cr = OUT_OK, int(srows[i])
            outcome[i] = oc
            content_row[i] = cr
        return pa.table(
            {
                "t_sched": pa.array(t_arr),
                "enqueue_seq": pa.array(seq_arr),
                "url": pa.array(urls, pa.string()),
                "url_hash": pa.array(uh),
                "host_hash": pa.array(hh),
                "shard": pa.array(shard_arr),
                "content_row": pa.array(content_row),
                "outcome": pa.array(outcome),
            },
            schema=PICKS_SCHEMA,
        )

    # ---------------------------------------------------------- admission
    def admit_phase1_chunks(self, *chunks) -> tuple:
        """Chained phase 1: consume the fetch actors' candidate-chunk
        OBJECTS directly (chunks arrive in ascending fetch_seq order, so
        their concat is in global (fetch_seq, pos) candidate order), keep
        only this actor's shards, run robots + quota.  No driver hop —
        the output objects chain straight into the seen actors and the
        sequencer.

        → (chain table (fetch_seq, pos, url_hash, ok), pre-append shard
        sizes) — sizes piggybacked for the sequencer's cap phase."""
        mine = [c for c in chunks if len(c)]
        if mine:
            cand = pa.concat_tables(mine)
            shard_np = cand["shard"].to_numpy(zero_copy_only=False)
            owned = np.isin(shard_np, np.asarray(self.shard_ids, np.int32))
            cand = cand.filter(pa.array(owned))
        else:
            cand = None
        if cand is None or len(cand) == 0:
            empty = pa.table(
                {
                    "fetch_seq": pa.array([], pa.int64()),
                    "pos": pa.array([], pa.int32()),
                    "url_hash": pa.array([], pa.uint64()),
                    "ok": pa.array([], pa.bool_()),
                }
            )
            return empty, dict(self._size_snapshot)
        return self._phase1(cand), dict(self._size_snapshot)

    def _phase1(self, cand: pa.Table) -> pa.Table:
        """robots + per-host quota for THIS actor's shards.

        ``cand`` must arrive sorted by global candidate order; quota
        counters increment per candidate that passes robots, matching
        the reference's filterURL side effect (SearchEngine.h:746-756).
        """
        hhs = cand["host_hash"].to_numpy(zero_copy_only=False)
        uhs = cand["url_hash"].to_numpy(zero_copy_only=False)
        rows = self.store.lookup(uhs)
        n = len(cand)
        ok = np.ones(n, bool)
        known = rows >= 0
        robots_bad = np.zeros(n, bool)
        robots_bad[known] = self.store.robots_blocked[rows[known]]
        ok[robots_bad] = False
        # quota fast path: hosts whose counter + batch contribution stays
        # below the cap take a bulk dict update; only cap-straddling
        # hosts fall back to the per-row in-order scan
        cap = self.cfg.max_urls_per_host
        passing = ~robots_bad
        uniq, counts = np.unique(hhs[passing], return_counts=True)
        slow_hosts = set()
        for hh, c in zip(uniq.tolist(), counts.tolist()):
            base = self.host_cand.get(hh, 0)
            if base + c <= cap:
                self.host_cand[hh] = base + c
            else:
                slow_hosts.add(hh)
        if slow_hosts:
            for i in np.nonzero(passing)[0]:
                hh = int(hhs[i])
                if hh not in slow_hosts:
                    continue
                c = self.host_cand.get(hh, 0)
                if c >= cap:
                    ok[i] = False
                else:
                    self.host_cand[hh] = c + 1
        # slim chain table: what every seen actor and the sequencer
        # deserialize — keys + verdict only, no strings
        chain = pa.table(
            {
                "fetch_seq": cand["fetch_seq"],
                "pos": cand["pos"],
                "url_hash": cand["url_hash"],
                "ok": pa.array(ok),
            }
        )
        return chain

    def append_frontier(self, admitted: pa.Table) -> None:
        """Append admitted rows (seq-assigned + cap-filtered by the
        sequencer) to the owned shards, in enqueue_seq order.  Receives
        the full admitted table (chained object) and selects its own
        shards itself."""
        shard_np = admitted["shard"].to_numpy(zero_copy_only=False)
        owned = np.isin(shard_np, np.asarray(self.shard_ids, np.int32))
        if not owned.all():
            admitted = admitted.filter(pa.array(owned))
        if len(admitted) == 0:
            return
        from collections import deque

        admitted = admitted.sort_by("enqueue_seq")
        frontier = self.frontier
        shard_n = self.shard_n
        shard_np = admitted["shard"].to_numpy(zero_copy_only=False)
        hh_np = admitted["host_hash"].to_numpy(zero_copy_only=False)
        rows = list(
            zip(
                admitted["enqueue_seq"].to_pylist(),
                admitted["url"].to_pylist(),
                admitted["url_hash"].to_pylist(),
                admitted["host_hash"].to_pylist(),
                admitted["host"].to_pylist(),
            )
        )
        # group by (shard, host) with a stable sort (seq-order preserved
        # within each group), then one deque.extend per host bucket —
        # no per-row dict lookups on the epoch-boundary critical path
        order = np.lexsort((np.arange(len(rows)), hh_np, shard_np))
        so, ho = shard_np[order], hh_np[order]
        bounds = np.r_[
            0,
            np.nonzero((so[1:] != so[:-1]) | (ho[1:] != ho[:-1]))[0] + 1,
            len(rows),
        ]
        for g0, g1 in zip(bounds[:-1], bounds[1:]):
            idxs = order[g0:g1]
            s = int(so[g0])
            hh = int(ho[g0])
            by_host = frontier[s]
            q = by_host.get(hh)
            if q is None:
                by_host[hh] = q = deque()
            q.extend(rows[i] for i in idxs)
            shard_n[s] += len(idxs)

    # --------------------------------------------------------- checkpoint
    def snapshot(self) -> tuple[pa.Table, pa.Table]:
        f = {k.name: [] for k in FRONTIER_SCHEMA}
        for s in self.shard_ids:
            for hh_key in sorted(self.frontier[s]):
                for seq, url, h, hh, host in self.frontier[s][hh_key]:
                    f["shard"].append(s)
                    f["enqueue_seq"].append(seq)
                    f["url"].append(url)
                    f["url_hash"].append(h)
                    f["host_hash"].append(hh)
                    f["host"].append(host)
        hosts_all = sorted(
            set(self.host_next)
            | set(self.host_fail)
            | set(self.host_cand)
            | set(self.host_dns)
        )
        hstate = {
            "host_hash": hosts_all,
            "next_time": [self.host_next.get(k, 0) for k in hosts_all],
            "fail_count": [self.host_fail.get(k, 0) for k in hosts_all],
            "cand_count": [self.host_cand.get(k, 0) for k in hosts_all],
            "dns_addr": [self.host_dns.get(k, -1) for k in hosts_all],
        }
        return (
            pa.table(f, schema=FRONTIER_SCHEMA),
            pa.table(hstate, schema=HOSTSTATE_SCHEMA),
        )

    def restore(self, frontier: pa.Table, hoststate: pa.Table) -> None:
        from collections import deque

        self.frontier = {s: {} for s in self.shard_ids}
        self.shard_n = {s: 0 for s in self.shard_ids}
        fr = frontier.sort_by("enqueue_seq")
        for s, seq, url, h, hh, host in zip(
            fr["shard"].to_pylist(),
            fr["enqueue_seq"].to_pylist(),
            fr["url"].to_pylist(),
            fr["url_hash"].to_pylist(),
            fr["host_hash"].to_pylist(),
            fr["host"].to_pylist(),
        ):
            by_host = self.frontier[s]
            q = by_host.get(hh)
            if q is None:
                by_host[hh] = q = deque()
            q.append((seq, url, h, hh, host))
            self.shard_n[s] += 1
        self.host_next = dict(
            zip(hoststate["host_hash"].to_pylist(), hoststate["next_time"].to_pylist())
        )
        self.host_fail = {
            k: v
            for k, v in zip(
                hoststate["host_hash"].to_pylist(),
                hoststate["fail_count"].to_pylist(),
            )
            if v
        }
        self.host_cand = {
            k: v
            for k, v in zip(
                hoststate["host_hash"].to_pylist(),
                hoststate["cand_count"].to_pylist(),
            )
            if v
        }
        if "dns_addr" in hoststate.column_names:
            self.host_dns = {
                k: v
                for k, v in zip(
                    hoststate["host_hash"].to_pylist(),
                    hoststate["dns_addr"].to_pylist(),
                )
                if v >= 0
            }
