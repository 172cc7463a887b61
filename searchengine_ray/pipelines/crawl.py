"""Distributed crawl engine (Ray) — deterministic epoch pipeline.

Per epoch (SURVEY.md §7.0):

    host actors: politeness-greedy dequeue + outcome resolve   (control)
      → fetch/decode actor pool (payload, parallel, order-free) (data)
      → candidate prep: explode links → canonicalize → filter   (vector)
      → host actors: robots + quota (per-host order preserved)  (control)
      → seen actors: cuckoo test (per-hash order)               (control)
      → sequencer actor: shard caps + budget + enqueue_seq      (control)
      → host actors: frontier append; seen actors: add admitted (control)
      → parquet: content / crawl order / metrics / checkpoint   (sink)

``RemoteCrawl`` runs the epoch loop in the caller's process, as the
reference's ``runCrawling`` does; it creates the host, seen, sequencer
and fetch actors at once, submits each epoch to them and kills them at
``shutdown``.  The epoch-boundary chain is ladder → caller → fetch pool.
Per epoch the caller blocks on exactly one thing, the dequeue
picks.  It merges and sorts them, assigns ``fetch_seq``, queues every fetch chunk
upfront and groups the chunks into admission-ladder waves.  The ladder
is a fully actor-chained DAG: candidate chunks flow fetch→host(phase1)
→seen(phase2)→sequencer(phase3)→host(append) as plasma objects.
Actor-mailbox FIFO gives the ordering the oracle semantics need:
phase1(wave w+1) queues behind append(wave w) on each host actor, the
next epoch's dequeue queues behind the last append, and each wave's
admitted table is added to the seen shards exactly once: pulled by the
next wave's phase 2, or else by the checkpoint (or ``result()``) flush.
Content
metadata and epoch metrics are object refs resolved lazily, at
``result()`` or at the epoch's checkpoint write.
The one branch is the fetch budget: when ``max_fetches`` can cut an
epoch short, the hosts select first and resolve outcomes only for the
picks the budget keeps.

Checkpoints (``checkpoint=True``): each epoch commits one
``ckpt/epoch=N`` dir by one atomic rename, holding the actors' state
snapshots, ``driver.json`` counters, and the epoch's ``order.parquet``
and ``content.parquet`` rows with their ``index.parquet`` hash index.
These dirs are the crawl's only log: ``resume`` restores the newest
one's state and replays the rows of ``epoch=1..N``, and refuses other
host-actor or seen-shard counts than its ``driver.json`` records;
``get_page`` reads the content file beside the index that hit.

Determinism: all control-plane state (politeness clocks, fail
counters, quotas, seen membership) is partitioned so that every state
cell is owned by exactly one actor and receives its inputs in a
canonical order (global candidate order = (fetch_seq, link position)),
making results independent of parallelism (SURVEY.md §7.5#1) — the
property the oracle-conformance tests assert at multiple ``num_cpus``.

The fetch pool is a *persistent* set of ``ray.remote`` actors reused
across epochs (broadcast store/images deserialized once per actor —
``ray.put`` once, read in ``__init__``), rather than a fresh
``map_batches`` actor pool per epoch whose spin-up would dominate
small epochs; content post-processing at scale (phash dedup, ANN,
analytics) flows through Ray Data over the written content table
(``pipelines/queries.py``).

The seen set only grows, as the oracle's does: phase 2 tests, and a
URL enters the seen set only once the sequencer admits it, so a
cap- or budget-rejected candidate never does.  One reason string
differs from the oracle's: the dedup runs before the shard cap here, so
a later duplicate within one wave of a cap-rejected candidate reports
``dup`` here vs ``shard_full`` there.

Reference lifecycle being reimplemented: ``runCrawling``
(``SearchEngine.cpp:842-907``); admission ``Model::pushPending``
(``SearchEngine.h:800-836``).
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..sources import synth
from ..state.cuckoo import SeenShard
from ..state.host import HostShards, _runs
from ..stages.fetch import CAND_SCHEMA, CONTENT_SCHEMA, FetchDecode, make_candidates
from .oracle import CrawlConfig

METRICS_SCHEMA = pa.schema(
    [
        ("epoch", pa.int32()),
        ("picked", pa.int64()),
        ("fetched_ok", pa.int64()),
        ("fetch_failed", pa.int64()),
        ("candidates", pa.int64()),
        ("admitted", pa.int64()),
        ("rejected_static", pa.int64()),
        ("rejected_robots_quota", pa.int64()),
        ("rejected_dup", pa.int64()),
        ("rejected_cap_budget", pa.int64()),
        ("frontier_size", pa.int64()),
        ("seen_size", pa.int64()),
    ]
)

# the crawl order: one row per fetch, in fetch_seq order
ORDER_SCHEMA = pa.schema(
    [
        ("fetch_seq", pa.int64()),
        ("url", pa.string()),
        ("url_hash", pa.uint64()),
        ("t_sched", pa.int64()),
        ("epoch", pa.int32()),
    ]
)

# one row per seen shard in each checkpoint; the cuckoo eviction LCG
# state and the shard seed are full 64-bit unsigned values
SEEN_CKPT_SCHEMA = pa.schema(
    [("nbuckets", pa.int64()), ("count", pa.int64()), ("evict_state", pa.uint64()),
     ("table", pa.binary()), ("exact", pa.binary()), ("seed", pa.uint64()),
     ("parent_epoch", pa.int64())]
)


@dataclass
class EngineResult:
    crawl_order: pa.Table = None
    content: pa.Table = None
    metrics: pa.Table = None
    seen: set = field(default_factory=set)
    epochs: int = 0


def _as_ref(ray, x):
    """ray.put unless already an ObjectRef (lets callers broadcast the
    web store / images once and share the ref across engine layers)."""
    if x is None or isinstance(x, ray.ObjectRef):
        return x
    return ray.put(x)


def _order_keys(fseq: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Pack the global candidate order (fetch_seq, pos) into one sortable
    int64 key (fetch_seq may be -1 for seeds; pos < 2^31)."""
    return (fseq.astype(np.int64) + 1) * (1 << 32) + pos.astype(np.int64)


# per-wave admission counters returned by ``_Sequencer.process``:
# candidates == admitted + the three rejection counts
_STAT_KEYS = (
    "candidates",
    "admitted",
    "rejected_robots_quota",
    "rejected_dup",
    "rejected_cap_budget",
)

def _empty_admitted() -> pa.Table:
    return CAND_SCHEMA.append(pa.field("enqueue_seq", pa.int64())).empty_table()


class _Sequencer:
    """Phase-3 actor: per-shard caps + global budget + enqueue_seq
    assignment (the reference's pushPending steps 1/6/8,
    SearchEngine.h:800-836).  A single actor processing waves in
    submission order keeps the admission sequence deterministic without
    a driver hop — the driver never blocks inside the ladder."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.enqueue_seq = 0
        # per-shard admits since the epoch started: frontier appends are
        # deferred to the next epoch's dequeue, so the host actors'
        # piggybacked sizes stay pre-epoch — the sequencer adds its own
        # running admissions to keep the cap math identical
        self.shard_add = np.zeros(cfg.shard_count, np.int64)

    def get_seq(self) -> int:
        return self.enqueue_seq

    def set_seq(self, v: int) -> None:
        self.enqueue_seq = int(v)

    def process(self, reset_sizes: bool, n_chunks: int, n_hosts: int, *refs):
        """(cand chunks ×n_chunks, phase1 outputs ×n_hosts, phase2
        outputs ×rest) → (admitted table, stats)."""
        cfg = self.cfg
        if reset_sizes:
            self.shard_add[:] = 0
        chunks = refs[:n_chunks]
        p1s = refs[n_chunks : n_chunks + n_hosts]
        p2s = refs[n_chunks + n_hosts :]
        stats = dict.fromkeys(_STAT_KEYS, 0)
        cand_parts = [c for c in chunks if len(c)]
        if not cand_parts:
            return _empty_admitted(), stats
        cand = pa.concat_tables(cand_parts)  # ascending (fetch_seq, pos)
        stats["candidates"] = len(cand)
        keys = _order_keys(
            cand["fetch_seq"].to_numpy(zero_copy_only=False),
            cand["pos"].to_numpy(zero_copy_only=False),
        )
        ok1 = np.zeros(len(cand), bool)
        # per-shard room under the cap: each host actor's sizes cover
        # the shards it owns, zeros elsewhere
        room = cfg.max_frontier_per_shard - self.shard_add
        for chain, sz in p1s:
            room -= sz
            if len(chain):
                ck = _order_keys(
                    chain["fetch_seq"].to_numpy(zero_copy_only=False),
                    chain["pos"].to_numpy(zero_copy_only=False),
                )
                ok1[np.searchsorted(keys, ck)] = chain["ok"].to_numpy(
                    zero_copy_only=False
                )
        new_full = np.zeros(len(cand), bool)
        seen_before = 0
        for k2, mask, cnt in p2s:
            seen_before += cnt
            if len(k2):
                new_full[np.searchsorted(keys, k2)] = mask
        stats["rejected_robots_quota"] = int((~ok1).sum())
        stats["rejected_dup"] = int(ok1.sum()) - int(new_full.sum())
        surv2 = np.nonzero(new_full)[0]
        if len(surv2) == 0:
            return _empty_admitted(), stats
        sub2 = cand.take(pa.array(surv2))
        shard2 = sub2["shard"].to_numpy(zero_copy_only=False)
        # shard cap: a survivor is kept iff its in-order rank within its
        # shard is below the shard's room
        o = np.argsort(shard2, kind="stable")
        rank = np.empty(len(sub2), np.int64)
        rank[o] = _runs(shard2[o])[1]
        keep = rank < room[shard2]
        # budget: drop the last ``over`` kept survivors
        over = seen_before + int(keep.sum()) - cfg.max_crawl_urls
        if over > 0:
            keep[np.flatnonzero(keep)[-over:]] = False
        surv3 = np.nonzero(keep)[0]
        stats["rejected_cap_budget"] = len(keep) - len(surv3)
        if len(surv3) == 0:
            return _empty_admitted(), stats
        final = sub2.take(pa.array(surv3))
        seqs = np.arange(
            self.enqueue_seq, self.enqueue_seq + len(final), dtype=np.int64
        )
        self.enqueue_seq += len(final)
        final = final.append_column("enqueue_seq", pa.array(seqs))
        stats["admitted"] = len(final)
        self.shard_add += np.bincount(
            final["shard"].to_numpy(zero_copy_only=False), minlength=cfg.shard_count
        )
        return final, stats


# fetch rounds per epoch (``_plan_chunks``)
_WAVES = 4

# global fetch order of an epoch's picks
_PICK_ORDER = [("t_sched", "ascending"), ("enqueue_seq", "ascending")]


def _plan_chunks(n_ok: int, nf: int, waves: int) -> list[tuple[int, int]]:
    """(start, length) fetch-chunk spans: waves 1..W-1 uniform, the
    LAST wave half-volume — every actor still gets equal total work
    (W-1 big chunks + 1 half chunk), but the epoch-boundary admission
    ladder (phase1→phase2→sequencer on the final wave) processes half
    the candidates, directly shrinking the serial tail the next
    dequeue waits on.  Falls back to one uniform wave for tiny epochs."""
    if n_ok <= 0:
        return []
    denom = max(1, nf * (2 * waves - 1))  # half-chunks
    half = max(32, -(-n_ok // denom))
    big = 2 * half
    spans = []
    i = 0
    # W-1 uniform rounds of big chunks
    for _ in range(max(0, waves - 1) * nf):
        if i >= n_ok:
            break
        c = min(big, n_ok - i)
        spans.append((i, c))
        i += c
    # final half-size round (remainder spread over nf chunks)
    rem = n_ok - i
    if rem > 0:
        c = -(-rem // nf)
        while i < n_ok:
            spans.append((i, min(c, n_ok - i)))
            i += min(c, n_ok - i)
    return spans


class RemoteCrawl:
    """The crawl engine.  It runs the whole epoch loop in the process
    that calls it, as the reference's ``runCrawling`` loop does —
    dequeue gather, global pick sort, fetch_seq assignment, chunk
    planning, fetch and admission-wave submission, checkpoint writes —
    so the epoch-boundary chain is ladder → this process → fetch pool.
    It creates the host, seen, sequencer and fetch actors at once, owns
    them and every object ref it submits, and ``shutdown`` kills them."""

    def __init__(
        self,
        store,
        images,
        truth=None,
        cfg: CrawlConfig | None = None,
        out_dir: str = "/tmp/raycrawl",
        n_host_actors: int = 4,
        n_fetch_actors: int = 4,
        checkpoint: bool = False,
        write_payload: bool = True,
    ):
        import ray

        self.ray = ray
        self.cfg = cfg = cfg or CrawlConfig()
        # the fetch actors write payload files from their own processes,
        # whose working directory is not the caller's
        out_dir = os.path.abspath(out_dir)
        self.ckpt_dir = os.path.join(out_dir, "ckpt")
        self.checkpoint = checkpoint
        os.makedirs(out_dir, exist_ok=True)
        self.n_host_actors = min(n_host_actors, cfg.shard_count)
        self.n_seen = cfg.seen_shards
        # broadcast the fixture once; every actor reads the same copy
        store_ref, images_ref, truth_ref = (
            _as_ref(ray, x) for x in (store, images, truth)
        )

        HostActor = ray.remote(num_cpus=0)(HostShards)
        SeenActor = ray.remote(num_cpus=0)(_SeenActor)
        SeqActor = ray.remote(num_cpus=0)(_Sequencer)
        FetchActor = ray.remote(num_cpus=1)(FetchDecode)
        shard_of_actor = {
            a: [s for s in range(cfg.shard_count) if s % self.n_host_actors == a]
            for a in range(self.n_host_actors)
        }
        self.host_actors = [
            HostActor.remote(cfg, shard_of_actor[a], store_ref)
            for a in range(self.n_host_actors)
        ]
        self._owner_lut = np.array(
            [s % self.n_host_actors for s in range(cfg.shard_count)], np.int64
        )
        self.seen_actors = [
            # start each shard's cuckoo filter SMALL and let the 0.90-load
            # doubling rebuild grow it with fill — resident memory then
            # tracks the URL count (~8 B/URL exact + ~2.4 B/URL filter at
            # capacity) instead of paying a 10^10-sized table up front;
            # rebuild re-inserts are vectorized and amortize O(1)/URL
            SeenActor.remote(1 << 14, k, self.n_seen) for k in range(self.n_seen)
        ]
        self.seq_actor = SeqActor.remote(cfg)
        payload_dir = os.path.join(out_dir, "payload") if write_payload else None
        if payload_dir:
            os.makedirs(payload_dir, exist_ok=True)
        self.fetch_actors = [
            FetchActor.remote(
                store_ref, images_ref, truth_ref, cfg.shard_count, payload_dir
            )
            for _ in range(n_fetch_actors)
        ]
        self.fetch_seq = 0
        self.epoch = 0
        self._order_parts: list[pa.Table] = []
        self._content_parts: list = []  # (metrics row, content refs) or tables
        self._metric_refs: list[dict] = []
        self._pending_adm = None  # last wave's admitted table ref, not yet seen
        self._append_refs: list = []
        self._unappended: list = []  # admitted-table refs awaiting append
        self._seed_stats_ref = None
        self._base_totals = (0, 0)  # (seen, picked) before a resume

    @classmethod
    def resume(
        cls, store, images, truth, cfg, out_dir, n_host_actors=4, n_fetch_actors=4
    ) -> "RemoteCrawl":
        """A checkpointing engine restored from the last committed
        epoch under ``out_dir``; ``run()`` continues the crawl.  Each
        host and seen actor checkpoints only its own partition, so a
        resume with other actor counts raises ``ValueError`` before any
        actor starts."""
        d = _last_checkpoint(os.path.abspath(out_dir))
        with open(os.path.join(d, "driver.json")) as f:
            drv = json.load(f)
        counts = {
            "host actors": ("host_actors", min(n_host_actors, cfg.shard_count)),
            "seen shards": ("seen_shards", cfg.seen_shards),
        }
        for what, (key, n) in counts.items():
            if drv.get(key) != n:
                raise ValueError(
                    f"{d} was written by {drv.get(key, 'an unrecorded number of')}"
                    f" {what}; this resume has {n}"
                )
        eng = cls(
            store, images, truth, cfg, out_dir, n_host_actors=n_host_actors,
            n_fetch_actors=n_fetch_actors, checkpoint=True,
        )
        eng.restore(d)
        return eng

    def shutdown(self) -> None:
        """Kill every actor this engine created and drop the object refs
        it holds, so the next crawl starts on a clean object store."""
        for a in (*self.host_actors, *self.seen_actors, self.seq_actor,
                  *self.fetch_actors):
            self.ray.kill(a)
        self._content_parts, self._metric_refs = [], []
        self._append_refs, self._unappended = [], []
        self._pending_adm = self._seed_stats_ref = None

    # ------------------------------------------------------------ seeding
    def admit_seeds(self, seeds: list[str]) -> None:
        """Start a fresh crawl.  A checkpointing engine refuses an
        ``out_dir`` with a committed epoch: resume would continue it."""
        if self.checkpoint and _committed_epochs(self.ckpt_dir):
            raise FileExistsError(
                f"{self.ckpt_dir} holds a committed crawl; continue it with "
                "RemoteCrawl.resume or crawl into a fresh out_dir"
            )
        cand = make_candidates(
            seeds,
            [-1] * len(seeds),
            list(range(len(seeds))),
            self.cfg.shard_count,
        )
        self._seed_stats_ref = self._submit_wave([cand], first_of_epoch=True)

    # ---------------------------------------------------------- admission
    def _submit_wave(
        self,
        cand_refs: list,
        first_of_epoch: bool = False,
        defer_append: bool = False,
    ):
        """Submit one wave's admission ladder — fetch candidate chunks
        (object refs or tables, in ascending fetch_seq order) chained
        through phase1 (host actors) → phase2 (seen actors, adding the
        previous wave's admitted URLs) → sequencer.  Pure submission;
        returns the wave's stats ref."""
        p1 = [
            a.admit_phase1_chunks.remote(*cand_refs) for a in self.host_actors
        ]
        p2 = [
            a.test_and_add_wave.remote(self._pending_adm, *p1)
            for a in self.seen_actors
        ]
        adm_ref, stats_ref = self.seq_actor.process.options(
            num_returns=2
        ).remote(first_of_epoch, len(cand_refs), len(p1), *cand_refs, *p1, *p2)
        # incremental appends: each wave's admitted table is appended as
        # soon as the sequencer emits it — waves 1..W-1 apply DURING the
        # epoch, so the boundary append is only the last wave's share.
        # Cap math stays exact because phase1 piggybacks the
        # post-dequeue size SNAPSHOT, not live sizes.  The LAST wave of
        # an epoch defers instead: its admitted table rides INTO the
        # next epoch's append_and_dequeue (one actor-task hop less on the
        # boundary critical path).
        if defer_append:
            self._unappended.append(adm_ref)
        else:
            self._append_refs.extend(
                a.append_many.remote(adm_ref) for a in self.host_actors
            )
        self._pending_adm = adm_ref
        return stats_ref

    def _flush_appends(self) -> None:
        """Submit any still-deferred appends (normally only the epoch's
        LAST wave — earlier waves append incrementally); used by the
        budget-cut dequeue, checkpoint snapshots, and result()."""
        if self._unappended:
            self._append_refs.extend(
                a.append_many.remote(*self._unappended)
                for a in self.host_actors
            )
            self._unappended = []

    def _flush_seen(self) -> None:
        """Add the last wave's admitted URLs to the seen shards now (the
        next wave's phase 2 adds them otherwise); used by checkpoint
        snapshots and result()."""
        if self._pending_adm is not None:
            for a in self.seen_actors:
                a.add_admitted.remote(self._pending_adm)
            self._pending_adm = None

    # -------------------------------------------------------------- epoch
    def _remaining(self) -> int | None:
        """Fetches left under ``max_fetches`` (None: no budget)."""
        mf = self.cfg.max_fetches
        return None if mf is None else mf - self.fetch_seq

    def _budget_cut(self, remaining: int | None) -> bool:
        """Whether ``max_fetches`` can cut the next dequeue short."""
        bound = self.cfg.per_shard_batch * self.cfg.shard_count
        return remaining is not None and remaining < bound

    def _dequeue(self, epoch: int, remaining: int | None) -> list[pa.Table]:
        """The epoch's resolved picks, one table per host actor."""
        ray = self.ray
        if self._budget_cut(remaining):
            # budget may bind mid-epoch: select first, slice to budget,
            # THEN resolve outcomes — so host fail-counters never record
            # picks the budget cut off (oracle's early break; keeps a
            # checkpointed run resumable past a raised limit)
            self._flush_appends()
            sel = pa.concat_tables(
                ray.get([a.dequeue_select.remote(epoch) for a in self.host_actors])
            ).sort_by(_PICK_ORDER).slice(0, remaining)
            owner = self._owner_lut[sel["shard"].to_numpy(zero_copy_only=False)]
            futs = [
                a.resolve_outcomes.remote(sel.filter(pa.array(owner == k)))
                for k, a in enumerate(self.host_actors)
            ]
        else:
            futs = self._append_and_dequeue(epoch)
        return ray.get(futs)

    def _append_and_dequeue(self, epoch: int) -> list:
        """Submit the deferred last-wave appends and the epoch's dequeue
        as one task per host actor (one boundary hop)."""
        adm, self._unappended = self._unappended, []
        return [a.append_and_dequeue.remote(epoch, *adm) for a in self.host_actors]

    def run_epoch(self) -> bool:
        """One epoch; returns False when the crawl is finished.

        Blocks on exactly one thing: the dequeue picks, which queue
        behind the previous epoch's appends.  The admission ladder is an
        actor-chained DAG (module docstring); content metadata refs
        resolve lazily at result() or the checkpoint."""
        ray = self.ray
        remaining = self._remaining()
        if remaining is not None and remaining <= 0:
            return False
        epoch = self.epoch
        picks = pa.concat_tables(self._dequeue(epoch, remaining)).sort_by(
            _PICK_ORDER
        )
        n = len(picks)
        if n == 0:
            return False  # empty frontier (dequeue is the emptiness probe)
        fseq = np.arange(self.fetch_seq, self.fetch_seq + n, dtype=np.int64)
        picks = picks.append_column("fetch_seq", pa.array(fseq)).append_column(
            "epoch", pa.array(np.full(n, epoch, np.int32))
        )
        self._order_parts.append(picks.select(ORDER_SCHEMA.names))
        self.fetch_seq += n
        ok = picks.filter(pc.greater_equal(picks["content_row"], 0))
        stat_refs: list = []
        content_refs: list = []
        if len(ok):
            # Every span is queued upfront, round-robin over the
            # persistent fetch pool (no reaction loop — actors chain
            # chunk to chunk with zero latency); ``_plan_chunks`` gives
            # _WAVES-1 full rounds and a half-size last round.  4 rounds
            # beat 2 consistently at 32 CPUs (smaller last-wave tail
            # before the next dequeue can fire) and are neutral at 8 —
            # sweep in BASELINE.md.  A geometrically-decaying (LPT-style)
            # schedule was A/B tested and LOST at 32 CPUs (~+1.2 s/run,
            # interleaved fresh processes) — the larger first-wave chunks
            # straggle worse than the smaller tail saves.  Work-stealing
            # dispatch lost too (8,194 vs 13,048 URLs/s, BASELINE.md).
            # Each call returns (content metadata, candidate chunk) as
            # TWO refs: content is resolved lazily, the candidate chunk
            # chains straight into the admission DAG.
            ok_ref = ray.put(ok)  # one plasma object, sliced in-actor
            nf = len(self.fetch_actors)
            rets = [
                self.fetch_actors[k % nf]
                .__call__.options(num_returns=2)
                .remote(ok_ref, i, c)
                for k, (i, c) in enumerate(_plan_chunks(len(ok), nf, _WAVES))
            ]
            # Ladder grouping: one group per fetch round (nf chunks).
            # Tapering the final round into halving subgroups (nf/2 ...
            # 1, so the last ladder walk is one chunk) was A/B tested and
            # LOST by 0.3-0.5 s/run at 32 CPUs — the extra sequencer hops
            # serialize and cost more than the smaller data tail saves.
            for w0 in range(0, len(rets), nf):
                wave = rets[w0 : w0 + nf]
                content_refs.extend(c for c, _k in wave)
                stat_refs.append(
                    self._submit_wave(
                        [k for _c, k in wave],
                        first_of_epoch=(w0 == 0),
                        defer_append=(w0 + nf >= len(rets)),
                    )
                )
        # metrics are refs resolved lazily at result(); seen/frontier
        # sizes are derived arithmetically there (seen == Σ admitted,
        # frontier == Σ admitted − Σ picked) — no per-epoch RPCs
        m = {"epoch": epoch, "picked": n, "stats": stat_refs}
        self._metric_refs.append(m)
        self._content_parts.append((m, content_refs))
        self.epoch += 1
        if self.checkpoint:
            self.write_checkpoint()
        return True

    def _resolve_content(self) -> None:
        """Materialize any pending per-epoch content refs (in place),
        recording each epoch's fetched pages and extracted links."""
        ray = self.ray
        for i, part in enumerate(self._content_parts):
            if not isinstance(part, tuple):
                continue
            m, refs = part
            cparts = [c for c in ray.get(refs) if len(c)] if refs else []
            content = (
                pa.concat_tables(cparts).sort_by("fetch_seq")
                if cparts
                else CONTENT_SCHEMA.empty_table()
            )
            self._content_parts[i] = content
            m["fetched_ok"] = len(content)
            m["links"] = pc.sum(pc.list_value_length(content["links"])).as_py() or 0

    def warmup(self) -> None:
        """Block until every fetch actor finished deserializing its
        broadcast state and ran the fetch+decode path once — otherwise
        each early epoch's gather barrier stalls on whichever actor is
        still cold."""
        self.ray.get([a.warm.remote() for a in self.fetch_actors])

    def run(self, max_epochs: int | None = None) -> EngineResult:
        self.warmup()
        limit = self.cfg.max_epochs
        if max_epochs is not None:
            limit = min(limit, max_epochs)
        while self.epoch < limit:
            if not self.run_epoch():
                break
        return self.result()

    def _metrics_rows(self) -> list[dict]:
        """Resolve the lazily-collected per-epoch metric refs.  The
        seen/frontier sizes derive arithmetically from the admission
        counters (seen == Σ admitted incl. seeds; frontier == seen −
        Σ picked) — exactly the admitted URLs enter the seen set, and
        every pick permanently leaves the frontier.  ``make_candidates``
        drops static-filter rejects before the ladder counts anything,
        so they are the fetched pages' links minus the candidates."""
        ray = self.ray
        rows = []
        seen_cum, picked_cum = self._base_totals
        if self._seed_stats_ref is not None:
            seen_cum += ray.get(self._seed_stats_ref)["admitted"]
        for m in self._metric_refs:
            stats = dict.fromkeys(_STAT_KEYS, 0)
            for s in ray.get(list(m["stats"])):
                for k in stats:
                    stats[k] += s[k]
            seen_cum += stats["admitted"]
            picked_cum += m["picked"]
            rows.append(
                {
                    "epoch": m["epoch"],
                    "picked": m["picked"],
                    "fetched_ok": m["fetched_ok"],
                    "fetch_failed": m["picked"] - m["fetched_ok"],
                    **stats,
                    "rejected_static": m["links"] - stats["candidates"],
                    "frontier_size": seen_cum - picked_cum,
                    "seen_size": seen_cum,
                }
            )
        return rows

    def result(self) -> EngineResult:
        ray = self.ray
        self._flush_appends()  # frontier state complete for any later use
        self._flush_seen()  # seen set complete for dump_hashes below
        if self._append_refs:  # surface any admission-chain errors
            ray.get(self._append_refs)
            self._append_refs = []
        self._resolve_content()
        res = EngineResult()
        res.epochs = self.epoch
        res.crawl_order = pa.concat_tables(
            [ORDER_SCHEMA.empty_table(), *self._order_parts]
        )
        parts = [t for t in self._content_parts if len(t)]
        res.content = pa.concat_tables(parts) if parts else None
        res.metrics = pa.Table.from_pylist(
            self._metrics_rows(), schema=METRICS_SCHEMA
        )
        for hs in ray.get([a.dump_hashes.remote() for a in self.seen_actors]):
            res.seen.update(int(x) for x in hs)
        return res

    # --------------------------------------------------------- checkpoint
    def write_checkpoint(self) -> None:
        """Commit the epoch just run as ``ckpt/epoch=N`` (module
        docstring): written into ``epoch=N.tmp``, published by one atomic
        rename; a crash leaves only the ``.tmp``, which resume skips."""
        ray = self.ray
        self._flush_appends()  # snapshots must include deferred appends
        self._flush_seen()  # and the last wave's admitted URLs
        self._resolve_content()
        epoch = self.epoch  # state AFTER epoch-1 completed
        d = os.path.join(self.ckpt_dir, f"epoch={epoch}")
        tmp = d + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp, exist_ok=True)
        snaps = ray.get([a.snapshot.remote() for a in self.host_actors])
        for a, (fr, hs) in enumerate(snaps):
            pq.write_table(fr, os.path.join(tmp, f"frontier-{a}.parquet"))
            pq.write_table(hs, os.path.join(tmp, f"hoststate-{a}.parquet"))
        for k, st in enumerate(ray.get([a.to_state.remote() for a in self.seen_actors])):
            row = {c: [st[c]] for c in SEEN_CKPT_SCHEMA.names[:-1]}
            row["parent_epoch"] = [epoch - 1]
            pq.write_table(
                pa.table(row, schema=SEEN_CKPT_SCHEMA),
                os.path.join(tmp, f"seen-{k}.parquet"),
            )
        # the epoch's rows of the crawl's append-only log (S2/S3 KeyValDB
        # analog — KeyValueDB.hpp:154-306); resume replays epochs 1..N
        pq.write_table(self._order_parts[-1], os.path.join(tmp, "order.parquet"))
        cpart = self._content_parts[-1]
        pq.write_table(cpart, os.path.join(tmp, "content.parquet"))
        # tiny per-epoch point-lookup index (url_hash → fetch_seq):
        # get_page reads these 2-column files instead of scanning every
        # epoch's full content table (S4/S12 — KeyValueDB.hpp:384-396)
        pq.write_table(
            cpart.select(["url_hash", "fetch_seq"]),
            os.path.join(tmp, "index.parquet"),
        )
        last = self._metrics_rows()[-1]
        with open(os.path.join(tmp, "driver.json"), "w") as f:
            json.dump(
                {
                    "epoch": self.epoch,
                    "enqueue_seq": ray.get(self.seq_actor.get_seq.remote()),
                    "fetch_seq": self.fetch_seq,
                    "parent_epoch": epoch - 1,
                    "host_actors": self.n_host_actors,
                    "seen_shards": self.n_seen,
                    # running totals, so a resumed run's metric rows
                    # continue them instead of restarting from 0
                    "seen_total": last["seen_size"],
                    "picked_total": last["seen_size"] - last["frontier_size"],
                },
                f,
            )
        shutil.rmtree(d, ignore_errors=True)
        os.replace(tmp, d)  # atomic publish = the epoch's commit point

    def restore(self, d: str) -> None:
        """Load the committed dir ``d`` = ``ckpt/epoch=N`` into this
        (fresh, checkpointing) engine: actor state from ``d``, and the
        order and content rows of ``epoch=1..N`` for ``result()``."""
        ray = self.ray
        with open(os.path.join(d, "driver.json")) as f:
            drv = json.load(f)
        self.epoch = drv["epoch"]
        self.fetch_seq = drv["fetch_seq"]
        self._base_totals = (drv.get("seen_total", 0), drv.get("picked_total", 0))
        futs = [self.seq_actor.set_seq.remote(drv["enqueue_seq"])]
        for a, actor in enumerate(self.host_actors):
            fr = pq.read_table(os.path.join(d, f"frontier-{a}.parquet"))
            hs = pq.read_table(os.path.join(d, f"hoststate-{a}.parquet"))
            futs.append(actor.restore.remote(fr, hs))
        for k, actor in enumerate(self.seen_actors):
            st = pq.read_table(os.path.join(d, f"seen-{k}.parquet")).to_pylist()[0]
            futs.append(actor.restore.remote(st))
        ray.get(futs)
        for e in range(1, self.epoch + 1):
            ed = os.path.join(os.path.dirname(d), f"epoch={e}")
            self._order_parts.append(pq.read_table(f"{ed}/order.parquet"))
            self._content_parts.append(pq.read_table(f"{ed}/content.parquet"))


class _SeenActor:
    """Seen-filter shard actor: cuckoo + exact store (state/cuckoo.py)."""

    def __init__(self, capacity: int, shard_id: int, n_seen: int = 1):
        self.shard = SeenShard(capacity=capacity, seed=shard_id)
        self.k = shard_id
        self.n_seen = n_seen

    def test_and_add_wave(
        self, admitted, *phase1_outputs
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Chained phase 2: first add this shard's slice of the previous
        wave's admitted table, then test the host actors' phase-1 chain
        OBJECTS directly (no driver hop), in global candidate order
        restored from the (fetch_seq, pos) keys.  → (order keys,
        new-mask, member count before the test — piggybacked for the
        sequencer's budget check)."""
        if admitted is not None:
            self.add_admitted(admitted)
        parts = []
        for chain, _sizes in phase1_outputs:
            if len(chain) == 0:
                continue
            ok = chain["ok"].to_numpy(zero_copy_only=False)
            uh = chain["url_hash"].to_numpy(zero_copy_only=False)
            mine = ok & ((uh % np.uint64(self.n_seen)).astype(np.int64) == self.k)
            idx = np.nonzero(mine)[0]
            if len(idx):
                keys = _order_keys(
                    chain["fetch_seq"].to_numpy(zero_copy_only=False)[idx],
                    chain["pos"].to_numpy(zero_copy_only=False)[idx],
                )
                parts.append((keys, uh[idx]))
        if not parts:
            return np.zeros(0, np.int64), np.zeros(0, bool), len(self.shard)
        keys = np.concatenate([p[0] for p in parts])
        uh = np.concatenate([p[1] for p in parts])
        o = np.argsort(keys, kind="stable")
        keys, uh = keys[o], uh[o]
        return keys, self.shard.test(uh), len(self.shard)

    def add_admitted(self, admitted: pa.Table) -> None:
        """Mark this shard's slice of a sequencer-admitted table seen.
        The engine sends each admitted table exactly once."""
        uh = admitted["url_hash"].to_numpy(zero_copy_only=False)
        self.shard.add(uh[(uh % np.uint64(self.n_seen)).astype(np.int64) == self.k])

    def mem_bytes(self) -> tuple[int, int]:
        """(resident bytes, member count) — cuckoo table + exact store.
        Bench probe for the bytes/URL budget (reference: ~40 B/URL,
        README.md:9 48 MB / 1M pages)."""
        return (
            int(self.shard.filter.table.nbytes) + self.shard.nbytes(),
            len(self.shard),
        )

    def dump_hashes(self) -> np.ndarray:
        return self.shard.dump_hashes()

    def to_state(self) -> dict:
        return self.shard.to_state()

    def restore(self, state: dict) -> None:
        self.shard = SeenShard.from_state(state)


def _committed_epochs(ckpt_dir: str) -> list[int]:
    """The N of every committed ``epoch=N`` dir in ``ckpt_dir``, sorted
    (``epoch=N.tmp`` is an uncommitted write)."""
    names = os.listdir(ckpt_dir) if os.path.isdir(ckpt_dir) else []
    return sorted(int(e[6:]) for e in names if e[:6] == "epoch=" and e[6:].isdigit())


def _last_checkpoint(out_dir: str) -> str:
    """The newest committed ``ckpt/epoch=N`` dir under ``out_dir``."""
    ckpt_dir = os.path.join(out_dir, "ckpt")
    epochs = _committed_epochs(ckpt_dir)
    if not epochs:
        raise FileNotFoundError(f"no checkpoint under {ckpt_dir}")
    return os.path.join(ckpt_dir, f"epoch={epochs[-1]}")


def run_crawl(
    seeds: list[str],
    store: synth.WebStore,
    images: pa.Table,
    truth: pa.Table | None = None,
    cfg: CrawlConfig | None = None,
    out_dir: str = "/tmp/raycrawl",
    n_host_actors: int = 4,
    n_fetch_actors: int = 4,
    checkpoint: bool = False,
    max_epochs: int | None = None,
    write_payload: bool = True,
) -> EngineResult:
    eng = RemoteCrawl(
        store, images, truth, cfg, out_dir, n_host_actors=n_host_actors,
        n_fetch_actors=n_fetch_actors, checkpoint=checkpoint,
        write_payload=write_payload,
    )
    try:
        eng.admit_seeds(seeds)
        return eng.run(max_epochs=max_epochs)
    finally:
        eng.shutdown()


def get_page(out_dir: str, url: str):
    """S12 `#get` analog (PageSearcher.cpp:119-138): fetch one crawled
    page's record — content metadata + payload bytes — from a crawl
    output directory (checkpointed run), by raw URL.

    Indexed point lookup (S4 — the reference's O(1) RAM index,
    KeyValueDB.hpp:384-396): per-epoch 2-column hash indexes locate the
    epoch + fetch_seq, then exactly ONE content file (the
    ``content.parquet`` beside the index that hit) and ONE payload part
    file are read (payload parts are named by their first fetch_seq, so
    the owning file is found by name alone)."""
    import glob

    from ..functions import urlkernel as uk

    canon = uk.truncate_url(url)
    if canon is None:
        return None
    h = uk.url_hash(canon)
    for idx_file in sorted(
        glob.glob(os.path.join(out_dir, "ckpt", "epoch=*", "index.parquet"))
    ):
        idx = pq.read_table(idx_file)  # (url_hash, fetch_seq) only — tiny
        m = pc.equal(idx["url_hash"], pa.scalar(h, pa.uint64()))
        hits = idx.filter(m)
        if len(hits) == 0:
            continue
        seq = int(hits["fetch_seq"][0].as_py())
        # one content read: the epoch's rows beside the index that hit
        cont = pq.read_table(os.path.join(os.path.dirname(idx_file), "content.parquet"))
        hit = cont.filter(pc.equal(cont["url_hash"], pa.scalar(h, pa.uint64())))
        if len(hit) == 0:
            continue
        row = {k: hit[k][0].as_py() for k in hit.column_names if k != "links"}
        # one payload part read: parts are part-<first_seq>.parquet with
        # non-overlapping ascending seq ranges per epoch
        pdir = os.path.join(out_dir, "payload", f"epoch={row['epoch']}")
        firsts = (int(os.path.basename(p)[5:-8])
                  for p in glob.glob(os.path.join(pdir, "part-*.parquet")))
        owner = max((fs for fs in firsts if fs <= seq), default=None)
        if owner is not None:
            p = pq.read_table(os.path.join(pdir, f"part-{owner:010d}.parquet"))
            ph = p.filter(pc.equal(p["fetch_seq"], pa.scalar(seq, pa.int64())))
            if len(ph):
                row["bytes"] = ph["bytes"][0].as_py()
        return row
    return None
