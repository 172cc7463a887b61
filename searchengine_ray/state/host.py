"""Host-shard state: frontier shards + one host table.

One ``HostShards`` instance owns a *set* of collision-domain shards
(the reference's pending DBs, ``SearchEngine.h:449-513``) plus all
per-host mutable state whose serialization order matters, kept beside
the shards as the reference keeps it.  That state is ONE host table
(``HOSTSTATE_SCHEMA``): a sorted ``host_hash`` array with a value
column each for

* ``next_time``, the politeness clock (``hostLastTime``/
  ``nextDownloadTime``, ``SearchEngine.cpp:731-761``) — logical ms,
* ``fail_count``, the bad-host fail counter (``m_badHosts``,
  ``SearchEngine.cpp:575-604``),
* ``cand_count``, the per-host candidate quota (``m_hostsCount``,
  ``SearchEngine.h:746-756``).

``_rows`` finds hosts' rows by ``searchsorted`` and inserts absent
hosts with zeroed values (a zero clock, fail count or quota equals no
record); every method goes through it.  Robots rules (north-rule
addition) are read from the web store.

Every host maps to exactly one collision shard
(``hostCollisionHash % shard_count``, ``SearchEngine.h:759``) and every
shard to exactly one instance, so per-host ordering is preserved with
no cross-actor coordination.  Wrapped in ``ray.remote`` by
``pipelines/crawl.py``; kept Ray-free here for unit testing.

Frontier: the owned shards' pending URLs are ONE ``FRONTIER_SCHEMA``
Arrow table in ``enqueue_seq`` order — flat records, no Python object
per URL (the reference's pending DBs hold flat records too).  A record
holds what the dequeue reads: ``shard``, ``enqueue_seq``, the
canonical ``url`` it hands the fetch actors, ``url_hash`` and
``host_hash`` (the politeness key).  Appends
queue owned-row slices of the sequencer's admitted tables; the next
dequeue or snapshot concatenates them behind the table.  The sequencer
numbers admissions in submission order and actor-mailbox FIFO delivers
them in that order, so the concatenation stays seq-sorted.

Dequeue is closed form.  For host h with queued seqs q_0 < q_1 < …, let
e_h = max(t0, next_time[h]); its candidate keys are
(e_h + k·politeness_ms, q_k) for k < per_host_epoch_cap.  Each shard
takes its per_shard_batch smallest keys, the epoch order is the picks
sorted by key, and next_time[h] becomes h's last pick's t + politeness.
Proof: the oracle's greedy scan (``pipelines/oracle.py``) advances its
clock only when no host is eligible, so every pick lands exactly at its
host's eligibility time, and among eligible hosts it takes the lowest
seq — it emits picks in (eligibility time, seq) order.

The quota is closed form too.  A candidate that passes robots, with
rank r among its host's passing candidates in this call (in global
order), is ok iff cand_count[h] + r < max_urls_per_host; the host's
count then grows by its number of ok candidates, as the reference's
filterURL increments per candidate it lets through.

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
    ]
)

HOSTSTATE_SCHEMA = pa.schema(
    [
        ("host_hash", pa.uint64()),
        ("next_time", pa.int64()),
        ("fail_count", pa.int32()),
        ("cand_count", pa.int64()),
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
        # the host table: HOSTSTATE_SCHEMA's columns, sorted by host_hash
        self.hosts = {
            f.name: np.zeros(0, f.type.to_pandas_dtype()) for f in HOSTSTATE_SCHEMA
        }
        self.store = store
        # shard sizes as of the LAST dequeue (pre-this-epoch-appends):
        # phase1 piggybacks THIS to the sequencer so cap math stays
        # exact while frontier appends apply incrementally mid-epoch
        # (the sequencer's own shard_add covers the current epoch)
        self._size_snapshot = self._shard_sizes()

    def _shard_sizes(self) -> np.ndarray:
        """Queued URLs per shard, ``shard_count`` long (0 for shards
        another instance owns)."""
        return np.bincount(
            self.frontier["shard"].to_numpy(), minlength=self.cfg.shard_count
        )

    def _rows(self, hh: np.ndarray) -> np.ndarray:
        """The host-table row of each host hash in ``hh``; absent hosts
        are inserted first, with zeroed values."""
        t = self.hosts
        pos = np.searchsorted(t["host_hash"], hh)
        absent = pos == len(t["host_hash"])
        absent[~absent] = t["host_hash"][pos[~absent]] != hh[~absent]
        if absent.any():
            new = np.unique(hh[absent])
            at = np.searchsorted(t["host_hash"], new)
            for c, col in t.items():
                t[c] = np.insert(col, at, new if c == "host_hash" else 0)
            pos = np.searchsorted(t["host_hash"], hh)
        return pos

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
        heads = self._rows(hh[by_host[k == 0]])  # each run's host row
        next_time = self.hosts["next_time"]
        e = np.maximum(t0, next_time[heads])
        live = k < cfg.per_host_epoch_cap
        rows, run = by_host[live], host_run[live]
        t = e[run] + k[live] * cfg.politeness_ms
        seq = fr["enqueue_seq"].to_numpy()[rows]
        shard = fr["shard"].to_numpy()[rows]
        # each shard's per_shard_batch smallest (t, seq) keys
        o = np.lexsort((seq, t, shard))
        o = o[_runs(shard[o])[1] < cfg.per_shard_batch]
        o = o[np.lexsort((seq[o], t[o]))]  # epoch order
        rows, run, t = rows[o], run[o], t[o]
        # each host's clock: its last pick's t + politeness, and that
        # pick has the host's largest t
        np.maximum.at(next_time, heads[run], t + cfg.politeness_ms)
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
        vectorized; the order-sensitive fail-counter walk, which decides
        only the bad-host gate, runs ONLY over picks of hosts that have
        a failure event in this batch or prior fails on record —
        per-host state means the walk for those hosts is independent of
        the (vectorized) rest."""
        n = len(sel)
        if n == 0:
            return PICKS_SCHEMA.empty_table()
        uh = sel["url_hash"].to_numpy()
        hrow = self._rows(sel["host_hash"].to_numpy())
        fail = self.hosts["fail_count"]
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

        # each pick's outcome if the bad-host gate lets it through: a
        # pure function of store status
        timeout = known & (status == synth.STATUS_TIMEOUT)
        outcome = np.full(n, OUT_CONNECT_FAIL, np.int8)
        content_row = np.full(n, -1, np.int64)
        outcome[timeout] = OUT_TIMEOUT
        outcome[known & (status == synth.STATUS_NOTFOUND)] = OUT_NOTFOUND
        outcome[red] = OUT_REDIRECT_FAIL
        m = red & (red_status == synth.STATUS_OK)
        outcome[m] = OUT_OK
        content_row[m] = redirect[m]
        m = known & (status == synth.STATUS_OK)
        outcome[m] = OUT_OK
        content_row[m] = srows[m]

        # picks that need the sequential fail-counter walk: a host's
        # fails can first become nonzero at its FIRST bad event in this
        # batch (or at entry, if it carries prior fails) — every pick of
        # a bad host BEFORE that position provably sees fails == 0, so
        # the gate passes it and its outcome stands
        bad = ~known | timeout
        pos_bad = np.flatnonzero(bad)
        walk = fail[hrow] > 0
        if len(pos_bad):
            bad_rows, first = np.unique(hrow[pos_bad], return_index=True)
            b = np.minimum(np.searchsorted(bad_rows, hrow), len(bad_rows) - 1)
            walk |= (bad_rows[b] == hrow) & (np.arange(n) >= pos_bad[first][b])
        # the walk, in original pick order: the gate skips a pick of a
        # host past max_host_fails (but for a deterministic 10% retry);
        # a bad event counts a fail, any other connect resets the count
        wi = np.flatnonzero(walk)
        skip = np.zeros(n, bool)
        for i, r, h, bd in zip(
            wi.tolist(), hrow[wi].tolist(), uh[wi].tolist(), bad[wi].tolist()
        ):
            fails = int(fail[r])
            if fails > cfg.max_host_fails and h % 10 != 0:
                skip[i] = True
            else:
                fail[r] = fails + 1 if bd else 0
        outcome[skip] = OUT_SKIP_BADHOST
        content_row[skip] = -1
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
            return empty, self._size_snapshot
        return self._phase1(cand), self._size_snapshot

    def _phase1(self, cand: pa.Table) -> pa.Table:
        """robots + per-host quota for THIS actor's shards.

        ``cand`` must arrive sorted by global candidate order; the quota
        is the module docstring's closed form over the candidates that
        pass robots, matching the reference's filterURL side effect
        (SearchEngine.h:746-756).
        """
        hhs = cand["host_hash"].to_numpy(zero_copy_only=False)
        uhs = cand["url_hash"].to_numpy(zero_copy_only=False)
        rows = self.store.lookup(uhs)
        known = rows >= 0
        passing = np.ones(len(cand), bool)
        passing[known] = ~self.store.robots_blocked[rows[known]]
        idx = np.flatnonzero(passing)
        ph = hhs[idx]
        o = np.argsort(ph)  # by host, ties in any order
        host_run, k = _runs(ph[o])
        hrow = self._rows(ph[o][k == 0])  # each run's host row
        # each host's candidates back in global order (run, then index;
        # one plain sort, cheaper than a stable argsort), and their
        # ranks in that order
        run, at = np.divmod(np.sort(host_run * len(ph) + o), len(ph))
        rank = _runs(run)[1]
        cand_count = self.hosts["cand_count"]
        quota_ok = cand_count[hrow[run]] + rank < self.cfg.max_urls_per_host
        cand_count[hrow] += np.bincount(run[quota_ok], minlength=len(hrow))
        ok = np.zeros(len(cand), bool)
        ok[idx[at[quota_ok]]] = True
        # slim chain table: what every seen actor and the sequencer
        # deserialize — keys + verdict only, no strings
        return pa.table(
            {
                "fetch_seq": cand["fetch_seq"],
                "pos": cand["pos"],
                "url_hash": cand["url_hash"],
                "ok": pa.array(ok),
            }
        )

    # --------------------------------------------------------- checkpoint
    def snapshot(self) -> tuple[pa.Table, pa.Table]:
        """→ (frontier in enqueue_seq order, host table).  The host
        columns are copied: later in-place updates must not reach a
        snapshot."""
        hosts = {c: col.copy() for c, col in self.hosts.items()}
        return self._merged(), pa.table(hosts, schema=HOSTSTATE_SCHEMA)

    def restore(self, frontier: pa.Table, hoststate: pa.Table) -> None:
        # named columns only: an older checkpoint's frontier carries a
        # ``host`` string column, which nothing reads
        self.frontier = (
            frontier.select(FRONTIER_SCHEMA.names)
            .sort_by("enqueue_seq")
            .combine_chunks()
        )
        self._pending = []
        self._size_snapshot = self._shard_sizes()
        # named columns only: a checkpoint may carry more (dns_addr)
        hs = hoststate.select(HOSTSTATE_SCHEMA.names).sort_by("host_hash")
        self.hosts = {c: hs[c].to_numpy().copy() for c in HOSTSTATE_SCHEMA.names}
