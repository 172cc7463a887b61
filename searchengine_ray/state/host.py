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

Frontier: the owned shards' pending URLs are ONE ``FRONTIER_SCHEMA``
Arrow table in ``enqueue_seq`` order — flat records, no Python object
per URL (the reference's pending DBs hold flat records too).  Appends
queue owned-row slices of the sequencer's admitted tables; the next
dequeue or snapshot concatenates them behind the table.  The sequencer
numbers admissions in submission order and actor-mailbox FIFO delivers
them in that order, so the concatenation stays seq-sorted.

Dequeue is closed form.  For host h with queued seqs q_0 < q_1 < …, let
e_h = max(t0, host_next[h]); its candidate keys are
(e_h + k·politeness_ms, q_k) for k < per_host_epoch_cap.  Each shard
takes its per_shard_batch smallest keys, the epoch order is the picks
sorted by key, and host_next[h] becomes h's last pick's t + politeness.
Proof: the oracle's greedy scan (``pipelines/oracle.py``) advances its
clock only when no host is eligible, so every pick lands exactly at its
host's eligibility time, and among eligible hosts it takes the lowest
seq — it emits picks in (eligibility time, seq) order.

Determinism contract: the dequeue and the admission phases are
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

# one epoch's picks, before outcome resolution
SELECT_SCHEMA = pa.schema(
    [
        ("t_sched", pa.int64()),
        ("enqueue_seq", pa.int64()),
        ("url", pa.string()),
        ("url_hash", pa.uint64()),
        ("host_hash", pa.uint64()),
        ("shard", pa.int32()),
    ]
)

PICKS_SCHEMA = SELECT_SCHEMA.append(pa.field("content_row", pa.int64())).append(
    pa.field("outcome", pa.int8())
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


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(run id, rank within its run) of each element of sorted ``keys``."""
    head = np.ones(len(keys), bool)
    head[1:] = keys[1:] != keys[:-1]
    run = np.cumsum(head) - 1
    return run, np.arange(len(keys)) - np.flatnonzero(head)[run]


class HostShards:
    def __init__(self, cfg, shard_ids, store: synth.WebStore):
        self.cfg = cfg
        self.shard_ids = list(shard_ids)
        self._owned = np.asarray(self.shard_ids, np.int32)
        self.frontier = FRONTIER_SCHEMA.empty_table()
        self._pending: list[pa.Table] = []  # appended, not yet merged
        self.host_next: dict[int, int] = {}
        self.host_fail: dict[int, int] = {}
        self.host_cand: dict[int, int] = {}
        # positive DNS cache (m_okHosts, SearchEngine.h:526 — host md5 →
        # IPv4): first successful connect caches a synthetic address so
        # later fetches skip resolution; checkpointed named state
        self.host_dns: dict[int, int] = {}
        self.store = store
        # shard sizes as of the LAST dequeue (pre-this-epoch-appends):
        # phase1 piggybacks THIS to the sequencer so cap math stays
        # exact while frontier appends apply incrementally mid-epoch
        # (the sequencer's own shard_add covers the current epoch)
        self._size_snapshot = self._shard_sizes()

    def _shard_sizes(self) -> dict[int, int]:
        counts = np.bincount(
            self.frontier["shard"].to_numpy(), minlength=self.cfg.shard_count
        )
        return {s: int(counts[s]) for s in self.shard_ids}

    def _merged(self) -> pa.Table:
        """The frontier with every queued append merged in."""
        if self._pending:
            self.frontier = pa.concat_tables(
                [self.frontier, *self._pending]
            ).combine_chunks()
            self._pending = []
        return self.frontier

    # ------------------------------------------------------------ dequeue
    def append_and_dequeue(self, epoch: int, *admitted) -> pa.Table:
        """Apply the deferred frontier appends (chained admitted-table
        refs), then dequeue — one actor hop at the epoch boundary:
        politeness-greedy per-shard selection plus fetch-outcome
        resolution in (t_sched, enqueue_seq) order (host health updates
        are host-local, so this order suffices).

        When a global fetch budget may bind mid-epoch the engine calls
        the two-phase split instead — ``dequeue_select`` then
        ``resolve_outcomes`` on the budget-sliced survivors — so
        fail-counter updates stop exactly at the budget, matching the
        oracle's early break (checkpoint state stays resumable past a
        raised limit)."""
        self.append_many(*admitted)
        return self.resolve_outcomes(self.dequeue_select(epoch))

    def append_many(self, *admitted) -> None:
        """Queue this actor's rows of admitted tables (seq-assigned and
        cap-filtered by the sequencer, full tables as chained objects)
        for the next merge.  ``filter`` copies, so a queued slice never
        pins the sequencer's object."""
        for adm in admitted:
            if adm is not None and len(adm):
                owned = np.isin(adm["shard"].to_numpy(), self._owned)
                self._pending.append(
                    adm.select(FRONTIER_SCHEMA.names).filter(pa.array(owned))
                )

    def dequeue_select(self, epoch: int) -> pa.Table:
        """Selection only — the closed form of the module docstring
        (frontier removal + politeness clock advance, no outcome
        resolution).  ``pipelines/oracle.py``'s O(B·n) scan is the
        independent spec; the conformance tests and
        ``tests/test_host_frontier.py`` cross-check the two."""
        cfg = self.cfg
        fr = self._merged()
        if len(fr) == 0:
            return SELECT_SCHEMA.empty_table()
        t0 = epoch * cfg.epoch_ms
        hh = fr["host_hash"].to_numpy()
        # stable sort by host keeps each host's queue in seq order
        by_host = np.argsort(hh, kind="stable")
        host_run, k = _runs(hh[by_host])
        nxt = self.host_next
        heads = hh[by_host[k == 0]].tolist()
        e = np.fromiter((max(t0, nxt.get(h, t0)) for h in heads), np.int64)
        live = k < cfg.per_host_epoch_cap
        rows = by_host[live]
        t = e[host_run[live]] + k[live] * cfg.politeness_ms
        seq = fr["enqueue_seq"].to_numpy()[rows]
        shard = fr["shard"].to_numpy()[rows]
        # each shard's per_shard_batch smallest (t, seq) keys
        o = np.lexsort((seq, t, shard))
        o = o[_runs(shard[o])[1] < cfg.per_shard_batch]
        o = o[np.lexsort((seq[o], t[o]))]  # epoch order
        rows, t = rows[o], t[o]
        # ascending t per host: each host's last pick wins
        self.host_next.update(
            zip(hh[rows].tolist(), (t + cfg.politeness_ms).tolist())
        )
        keep = np.ones(len(fr), bool)
        keep[rows] = False
        self.frontier = fr.filter(pa.array(keep))
        self._size_snapshot = self._shard_sizes()
        picked = fr.take(pa.array(rows))
        return pa.table(
            [pa.array(t)] + [picked[c] for c in SELECT_SCHEMA.names[1:]],
            schema=SELECT_SCHEMA,
        )

    def resolve_outcomes(self, sel: pa.Table) -> pa.Table:
        """Resolve fetch outcomes (bad-host gate → store lookup →
        redirect) of ``dequeue_select`` rows — a whole epoch's, or the
        budget-surviving subset in global order restricted to my hosts
        (per-host order, the only one the fail-counter walk needs, is
        preserved).  Store lookups and outcome classification are fully
        vectorized; the order-sensitive fail-counter walk runs ONLY
        over picks of hosts that have a failure event in this batch or
        prior fails on record — per-host state means the walk for
        those hosts is independent of the (vectorized) rest."""
        n = len(sel)
        if n == 0:
            return PICKS_SCHEMA.empty_table()
        uh = sel["url_hash"].to_numpy()
        hh = sel["host_hash"].to_numpy()
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
        # fast picks all connected: cache each new host's address
        for u in np.unique(hh[fast]).tolist():
            self.host_dns.setdefault(u, u & 0xFFFFFFFF)

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
                oc, cr = OUT_CONNECT_FAIL, -1
            elif status[i] == synth.STATUS_TIMEOUT:
                self.host_fail[hhi] = fails + 1
                oc, cr = OUT_TIMEOUT, -1
            else:
                self.host_fail.pop(hhi, None)
                self.host_dns.setdefault(hhi, hhi & 0xFFFFFFFF)
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
        return sel.append_column("content_row", pa.array(content_row)).append_column(
            "outcome", pa.array(outcome)
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

    # --------------------------------------------------------- checkpoint
    def snapshot(self) -> tuple[pa.Table, pa.Table]:
        """→ (frontier in enqueue_seq order, per-host state)."""
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
        return self._merged(), pa.table(hstate, schema=HOSTSTATE_SCHEMA)

    def restore(self, frontier: pa.Table, hoststate: pa.Table) -> None:
        self.frontier = (
            frontier.select(FRONTIER_SCHEMA.names)
            .sort_by("enqueue_seq")
            .combine_chunks()
        )
        self._pending = []
        self._size_snapshot = self._shard_sizes()
        hosts = hoststate["host_hash"].to_pylist()

        def per_host(col: str, keep) -> dict[int, int]:
            return {h: v for h, v in zip(hosts, hoststate[col].to_pylist()) if keep(v)}

        # a zero clock, fail count or quota equals an absent one
        self.host_next = per_host("next_time", bool)
        self.host_fail = per_host("fail_count", bool)
        self.host_cand = per_host("cand_count", bool)
        if "dns_addr" in hoststate.column_names:
            self.host_dns = per_host("dns_addr", lambda v: v >= 0)
