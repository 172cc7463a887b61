"""Deterministic single-threaded crawl oracle (reference semantics).

This is the golden spec the Ray engine must match exactly (crawl order
+ final URL-seen set) at ANY parallelism level.  It restates the
reference's racy thread behavior (``SearchEngine.cpp:672-770``) as a
deterministic epoch-batched schedule (SURVEY.md §7.3/§7.5#1):

* **Admission** (``Model::pushPending``, ``SearchEngine.h:800-836``)
  for each candidate in a well-defined order (seeds in file order,
  then per fetched page in fetch order, links in document order):
  1. global budget (|seen| ≥ max_crawl_urls → reject)  [h:803-805]
  2. truncate/canonicalize                              [h:779-799]
  3. static filter (len/ext/host/.jp)                   [h:720-761]
  4. robots disallow (north-rule addition — reference has none)
  5. per-host candidate quota (counter increments per candidate that
     reaches this step, as the reference's filterURL does) [h:746-756]
  6. per-shard frontier cap (simplified to a flat per-shard entry cap;
     the reference derives it from maxPending/nShards/PENDINGBULK)
     [h:808-810]
  7. dedup vs seen (pending ∪ processing ∪ content)     [h:814-818]
  8. admit: seen.add, frontier[shard].append(enqueue_seq)

* **Dequeue** per epoch e (logical start T = e·epoch_ms): per shard,
  greedily pick the entry whose host needs minimal sleep (ties →
  lowest enqueue_seq, as the reference's in-order scan keeps the first
  minimum, ``SearchEngine.cpp:731-749``), advancing a logical clock by
  the sleep and setting host_next = t + politeness_ms
  (``SearchEngine.cpp:757-761``); stop after per_shard_batch picks, a
  per-host epoch cap (hot-host skew splitting, north rule) applies.
  Global fetch order = all picks sorted by (t_sched, enqueue_seq).
  The reference's per-THREAD 15 s gap (nextDownloadTime) is an
  execution artifact, not data semantics — dropped.

* **Fetch** (``download``, ``SearchEngine.cpp:566-670``): picked URLs
  leave the frontier whatever the outcome (failures are never
  retried — the reference leaves their md5 in m_processingUrls
  forever).  Bad-host gate: after max_host_fails connect failures the
  fetch is skipped, except a deterministic 10% retry
  (url_hash % 10 == 0 — restating the reference's ``rand()%10 > 0``,
  ``SearchEngine.cpp:584``).  Success resets the fail counter
  (``SearchEngine.cpp:598,602``).  301 follows one redirect
  (``httpDownload.h:108-121``) and stores content under the ORIGINAL
  url identity; 404 yields nothing; timeout counts as a connect fail.

* **Fetch budget** (``max_fetches``): the crawl stops once that many
  URLs are fetched, possibly inside an epoch.  The epoch's picks
  after the cut have already left the frontier and stay in the seen
  set, so they are never fetched, not even by a resume under a raised
  ``max_fetches``; the budget bounds the crawl, it does not pause it.
  The engine does the same, and ``crawl_epochs`` continues a stopped
  oracle crawl the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..functions import urlkernel as uk
from ..sources import synth
from ..stages.extract import extract_links, shorten_html


@dataclass
class CrawlConfig:
    politeness_ms: int = 15000      # DDOSDELAY, SearchEngine.h:21
    epoch_ms: int = 15000
    shard_count: int = 8            # pending-shard count (PENDINGDBMAX analog)
    per_shard_batch: int = 200      # ≈ 4 bulk records × PENDINGBULK, h:487,14
    per_host_epoch_cap: int = 8     # hot-host skew cap (north rule)
    max_crawl_urls: int = 1 << 40   # MAXCRAWINGURL analog (global budget)
    max_urls_per_host: int = 10**6  # MAXURLPERHOST, h:17
    max_frontier_per_shard: int = 1 << 40
    max_host_fails: int = 10        # MAXHOSTTRY, h:18
    max_epochs: int = 10**6
    max_fetches: int | None = None
    seen_shards: int = 4            # seen-filter actor partitions (engine)


@dataclass
class CrawlResult:
    crawl_order: list = field(default_factory=list)  # (seq, url, url_hash, t, epoch)
    seen: set = field(default_factory=set)           # final url_hash membership
    content: list = field(default_factory=list)      # (url_hash, url, image_id, caption, epoch)
    rejects: list = field(default_factory=list)      # (url, reason)
    epochs: int = 0
    fetch_fail: int = 0


class _OracleState:
    def __init__(self, cfg: CrawlConfig):
        self.cfg = cfg
        self.frontier: dict[int, list] = {s: [] for s in range(cfg.shard_count)}
        self.seen: set[int] = set()
        self.host_next: dict[int, int] = {}
        self.host_cand: dict[int, int] = {}
        self.host_fail: dict[int, int] = {}
        self.enqueue_seq = 0

    def admit(self, raw: str, store: synth.WebStore, res: CrawlResult) -> bool:
        cfg = self.cfg
        if len(self.seen) >= cfg.max_crawl_urls:
            res.rejects.append((raw, "budget"))
            return False
        canon = uk.truncate_url(raw)
        if canon is None:
            res.rejects.append((raw, "truncate"))
            return False
        ok, reason = uk.filter_url(canon)
        if not ok:
            res.rejects.append((raw, reason))
            return False
        host = uk.split_host(canon)
        hh = uk.host_hash(host)
        # robots (admission-time; host robots state lives in host actors)
        row = store.lookup(np.array([uk.url_hash(canon)], np.uint64))[0]
        if row >= 0 and store.robots_disallowed(int(row)):
            res.rejects.append((raw, "robots"))
            return False
        cand = self.host_cand.get(hh, 0)
        if cand >= cfg.max_urls_per_host:
            res.rejects.append((raw, "quota"))
            return False
        self.host_cand[hh] = cand + 1
        shard = int(uk.host_collision_hash(host) % cfg.shard_count)
        if len(self.frontier[shard]) >= cfg.max_frontier_per_shard:
            res.rejects.append((raw, "shard_full"))
            return False
        h = uk.url_hash(canon)
        if h in self.seen:
            res.rejects.append((raw, "dup"))
            return False
        self.seen.add(h)
        self.frontier[shard].append((self.enqueue_seq, canon, h, hh, host))
        self.enqueue_seq += 1
        return True

    def dequeue_epoch(self, epoch: int) -> list:
        """→ [(t_sched, enqueue_seq, canon, url_hash, host_hash, host)]"""
        cfg = self.cfg
        t0 = epoch * cfg.epoch_ms
        picks = []
        for shard in range(cfg.shard_count):
            entries = self.frontier[shard]
            if not entries:
                continue
            t = t0
            taken_idx = []
            host_picks: dict[int, int] = {}
            remaining = list(range(len(entries)))
            while len(taken_idx) < cfg.per_shard_batch and remaining:
                best = None
                best_sleep = None
                for ri in remaining:
                    seq, canon, h, hh, host = entries[ri]
                    if host_picks.get(hh, 0) >= cfg.per_host_epoch_cap:
                        continue
                    nxt = self.host_next.get(hh)
                    sleep = max(0, nxt - t) if nxt is not None else 0
                    if best_sleep is None or sleep < best_sleep:
                        best_sleep = sleep
                        best = ri
                        if sleep == 0:
                            break  # in-order scan keeps first zero-sleep
                if best is None:
                    break
                seq, canon, h, hh, host = entries[best]
                t += best_sleep
                self.host_next[hh] = t + cfg.politeness_ms
                host_picks[hh] = host_picks.get(hh, 0) + 1
                picks.append((t, seq, canon, h, hh, host))
                taken_idx.append(best)
                remaining.remove(best)
            if taken_idx:
                taken = set(taken_idx)
                self.frontier[shard] = [
                    e for i, e in enumerate(entries) if i not in taken
                ]
        picks.sort(key=lambda p: (p[0], p[1]))
        return picks


def _fetch(
    st: _OracleState, store: synth.WebStore, canon: str, h: int, hh: int
) -> tuple | None:
    """→ (image_id, caption, links_host, links_https, [raw links]) or None."""
    cfg = st.cfg
    fails = st.host_fail.get(hh, 0)
    if fails > cfg.max_host_fails and (h % 10) != 0:
        return None  # bad-host skip (deterministic 10% retry)
    row = int(store.lookup(np.array([h], np.uint64))[0])
    if row < 0:
        st.host_fail[hh] = fails + 1  # DNS/connect failure
        return None
    status = int(store.status[row])
    if status == synth.STATUS_TIMEOUT:
        st.host_fail[hh] = fails + 1
        return None
    st.host_fail.pop(hh, None)  # successful connect resets (cpp:598)
    if status == synth.STATUS_NOTFOUND:
        return None
    if status == synth.STATUS_REDIRECT:
        tgt = int(store.redirect[row])
        if tgt < 0 or int(store.status[tgt]) != synth.STATUS_OK:
            return None
        row = tgt  # content + link context come from the target page
    url = store.urls[row]
    https = url.startswith("https://")
    host = uk.split_host(url)
    html = synth.render_html(
        url, host, https, store.captions[row], store.image_ids[row],
        store.links_of(row), store.link_sel_of(row),
    )
    links = extract_links(shorten_html(html), host, https)
    return store.image_ids[row], store.captions[row], host, https, links


def simulate(
    seeds: list[str],
    store: synth.WebStore,
    cfg: CrawlConfig | None = None,
    return_state: bool = False,
):
    cfg = cfg or CrawlConfig()
    st = _OracleState(cfg)
    res = CrawlResult()
    for raw in seeds:
        st.admit(raw, store, res)
    crawl_epochs(st, store, res)
    return (res, st) if return_state else res


def crawl_epochs(st: _OracleState, store: synth.WebStore, res: CrawlResult) -> None:
    """Crawl ``st`` under ``st.cfg`` from epoch ``res.epochs`` on, as
    ``simulate`` does after the seeds; calling it again after changing
    ``st.cfg`` continues a stopped crawl under the new limits."""
    cfg = st.cfg
    fetch_seq = len(res.crawl_order)
    for epoch in range(res.epochs, cfg.max_epochs):
        if all(not v for v in st.frontier.values()):
            break
        if cfg.max_fetches is not None and fetch_seq >= cfg.max_fetches:
            break
        picks = st.dequeue_epoch(epoch)
        res.epochs = epoch + 1
        for t, seq, canon, h, hh, host in picks:
            if cfg.max_fetches is not None and fetch_seq >= cfg.max_fetches:
                break
            res.crawl_order.append((fetch_seq, canon, h, t, epoch))
            fetch_seq += 1
            got = _fetch(st, store, canon, h, hh)
            if got is None:
                res.fetch_fail += 1
                continue
            image_id, caption, lhost, lhttps, links = got
            res.content.append((h, canon, image_id, caption, epoch))
            for raw in links:
                st.admit(raw, store, res)
    res.seen = set(st.seen)
