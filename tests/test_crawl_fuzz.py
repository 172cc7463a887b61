"""The crawl engine against the oracle on randomized configurations,
without Ray: ``tests/fakeray.py`` stands in for the Ray API, so each
crawl costs milliseconds instead of seconds of actor start-up.  Each
example draws a web, every ``CrawlConfig`` limit, the host-actor and
seen-shard counts and an optional checkpoint + ``RemoteCrawl.resume``,
which may raise ``max_fetches``; crawl order and seen set must equal
the oracle's.  Ray's own ordering and serialization stay covered by the
Ray suites."""

import dataclasses
import functools
import sys
import tempfile

import fakeray
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from searchengine_ray.pipelines.oracle import CrawlConfig, crawl_epochs, simulate
from searchengine_ray.sources import synth

NO_LIMIT = CrawlConfig()


@functools.lru_cache(maxsize=1)
def _images():
    return synth.gen_images(16, seed=3)


def _small_web(seed):
    """A 300-URL web, its images and 6 seeds."""
    images, truth = _images()
    store = synth.gen_web(n_urls=300, n_images=len(images), seed=seed, mean_links=6.0)
    synth.attach_captions(store, images)
    return store, images, truth, synth.gen_seeds(store, 6, seed=seed)


def _limit(lo, hi, unbound):
    """A binding value in [lo, hi], or the default that never binds."""
    return st.one_of(st.just(unbound), st.integers(lo, hi))


crawls = st.fixed_dictionaries(
    {
        "web": st.fixed_dictionaries(
            {
                "n_urls": st.integers(20, 300),
                "seed": st.integers(0, 10**6),
                "mean_links": st.floats(0.5, 12.0),
                "robots_host_rate": st.sampled_from([0.0, 0.05, 0.3, 0.8]),
            }
        ),
        "n_seeds": st.integers(1, 14),
        "cfg": st.builds(
            CrawlConfig,
            politeness_ms=st.sampled_from([0, 1, 700, 1000, 15000]),
            epoch_ms=st.sampled_from([1000, 5000, 15000]),
            shard_count=st.integers(1, 8),
            per_shard_batch=st.integers(1, 60),
            per_host_epoch_cap=st.integers(1, 8),
            max_crawl_urls=_limit(0, 250, NO_LIMIT.max_crawl_urls),
            max_urls_per_host=_limit(0, 30, NO_LIMIT.max_urls_per_host),
            max_frontier_per_shard=_limit(0, 60, NO_LIMIT.max_frontier_per_shard),
            max_host_fails=st.integers(0, 12),
            max_epochs=st.integers(1, 30),
            max_fetches=_limit(0, 250, None),
            seen_shards=st.integers(1, 4),
        ),
        "n_host_actors": st.integers(1, 4),
        "n_fetch_actors": st.integers(1, 3),
        "checkpoint_epoch": st.one_of(st.none(), st.integers(1, 6)),
        "first_fetches": st.one_of(st.none(), st.integers(0, 60)),
    }
)


def _first_cfg(crawl):
    """The config a checkpointed crawl runs under until it stops:
    ``max_fetches`` lowered to ``first_fetches`` when that is drawn,
    so the resume under ``cfg`` raises it."""
    cfg, k, first = crawl["cfg"], crawl["checkpoint_epoch"], crawl["first_fetches"]
    if k is None or first is None:
        return cfg
    if cfg.max_fetches is not None:
        first = min(first, cfg.max_fetches)
    return dataclasses.replace(cfg, max_fetches=first)


def _golden(crawl, store, seeds):
    """The oracle's crawl.  A resume under a raised ``max_fetches``
    continues the oracle state of the first run under the raised limit.
    When the first limit cut an epoch short, that epoch's unfetched
    picks are gone (the oracle's early break drops them), so only
    otherwise is this ``simulate`` under the raised limit."""
    cfg, k, first = crawl["cfg"], crawl["checkpoint_epoch"], _first_cfg(crawl)
    if first is cfg:
        return simulate(seeds, store, cfg)
    first = dataclasses.replace(first, max_epochs=min(k, cfg.max_epochs))
    res, state = simulate(seeds, store, first, return_state=True)
    if res.epochs:  # else nothing was committed and there is no resume
        state.cfg = cfg
        crawl_epochs(state, store, res)
    return res


def _crawl(crawl, store, seeds, out_dir):
    from searchengine_ray.pipelines.crawl import RemoteCrawl

    images, truth = _images()
    cfg, k = crawl["cfg"], crawl["checkpoint_epoch"]
    actors = dict(
        n_host_actors=crawl["n_host_actors"], n_fetch_actors=crawl["n_fetch_actors"]
    )
    eng = RemoteCrawl(store, images, truth, _first_cfg(crawl), out_dir,
                      checkpoint=k is not None, write_payload=False, **actors)
    eng.admit_seeds(seeds)
    if k is None:
        return eng.run()
    res = eng.run(max_epochs=k)
    eng.shutdown()
    if eng.epoch == 0:  # ended before its first epoch: nothing committed
        return res
    return RemoteCrawl.resume(store, images, truth, cfg, out_dir, **actors).run()


@settings(
    max_examples=220,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(crawl=crawls)
def test_engine_matches_oracle_randomized(crawl):
    images, _ = _images()
    store = synth.gen_web(n_images=len(images), **crawl["web"])
    synth.attach_captions(store, images)
    seeds = synth.gen_seeds(store, crawl["n_seeds"], seed=crawl["web"]["seed"])
    golden = _golden(crawl, store, seeds)
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as out:
        mp.setitem(sys.modules, "ray", fakeray)
        res = _crawl(crawl, store, seeds, out)
    order = res.crawl_order
    got = list(zip(*(order[c].to_pylist() for c in
                     ("fetch_seq", "url", "url_hash", "t_sched", "epoch"))))
    assert got == golden.crawl_order
    assert res.seen == golden.seen
    for row in res.metrics.to_pylist():
        assert row["candidates"] == row["admitted"] + row["rejected_robots_quota"] \
            + row["rejected_dup"] + row["rejected_cap_budget"], row
    if res.content is not None:
        assert all(res.content["invariant_ok"].to_pylist())


def test_run_stops_at_cfg_max_epochs(monkeypatch, tmp_path):
    """``run(max_epochs=k)`` with k above ``cfg.max_epochs`` stops at
    ``cfg.max_epochs``."""
    from searchengine_ray.pipelines.crawl import RemoteCrawl

    monkeypatch.setitem(sys.modules, "ray", fakeray)
    images, truth = _images()
    store = synth.gen_web(n_urls=200, n_images=len(images), seed=5)
    synth.attach_captions(store, images)
    seeds = synth.gen_seeds(store, 8, seed=5)
    cfg = CrawlConfig(shard_count=1, per_shard_batch=2, max_epochs=1)
    golden = simulate(seeds, store, cfg)
    eng = RemoteCrawl(store, images, truth, cfg, str(tmp_path), write_payload=False)
    eng.admit_seeds(seeds)
    res = eng.run(max_epochs=2)
    assert res.epochs == golden.epochs == 1
    assert res.crawl_order["url"].to_pylist() == [r[1] for r in golden.crawl_order]


def test_resume_from_frontier_with_host_column(monkeypatch, tmp_path):
    """A checkpoint whose ``frontier-*.parquet`` files carry a ``host``
    string column after ``host_hash`` (the frontier layout before the
    column was dropped) still resumes, and the finished crawl equals
    the oracle's."""
    import glob

    import pyarrow.parquet as pq

    from searchengine_ray.functions import urlkernel as uk
    from searchengine_ray.pipelines.crawl import RemoteCrawl

    monkeypatch.setitem(sys.modules, "ray", fakeray)
    store, images, truth, seeds = _small_web(11)
    cfg = CrawlConfig(shard_count=4, per_shard_batch=3, politeness_ms=1000)
    golden = simulate(seeds, store, cfg)
    out = str(tmp_path)
    eng = RemoteCrawl(store, images, truth, cfg, out, n_host_actors=2,
                      checkpoint=True, write_payload=False)
    eng.admit_seeds(seeds)
    eng.run(max_epochs=2)
    eng.shutdown()
    queued = 0
    for path in glob.glob(f"{out}/ckpt/epoch=*/frontier-*.parquet"):
        fr = pq.read_table(path)
        hosts = uk.split_host_batch(fr["url"].combine_chunks())
        pq.write_table(fr.append_column("host", hosts), path)
        queued += len(fr)
    assert queued > 0
    res = RemoteCrawl.resume(store, images, truth, cfg, out, n_host_actors=2).run()
    assert res.epochs == golden.epochs > 2
    got = list(zip(*(res.crawl_order[c].to_pylist() for c in
                     ("fetch_seq", "url", "url_hash", "t_sched", "epoch"))))
    assert got == golden.crawl_order
    assert res.seen == golden.seen


def test_actors_hold_every_admission_after_each_epoch(monkeypatch, tmp_path):
    """After every ``run_epoch()``, with no ``result()`` or checkpoint
    call in between, the seen shards hold exactly the URLs the oracle
    admitted so far and the host frontiers exactly those minus the
    picked ones: no wave's admissions wait for a later call.  The shard
    cap and the budget both bind."""
    from searchengine_ray.pipelines.crawl import RemoteCrawl

    monkeypatch.setitem(sys.modules, "ray", fakeray)
    store, images, truth, seeds = _small_web(13)
    cfg = CrawlConfig(shard_count=4, per_shard_batch=3, politeness_ms=1000,
                      max_frontier_per_shard=12, max_crawl_urls=120, seen_shards=3)
    res, st = simulate(seeds, store, dataclasses.replace(cfg, max_epochs=0),
                       return_state=True)
    eng = RemoteCrawl(store, images, truth, cfg, str(tmp_path), n_host_actors=2,
                      write_payload=False)
    eng.admit_seeds(seeds)
    capped = False
    while eng.run_epoch():
        st.cfg = dataclasses.replace(cfg, max_epochs=eng.epoch)
        crawl_epochs(st, store, res)
        seen = fakeray.get([a.dump_hashes.remote() for a in eng.seen_actors])
        assert sorted(int(h) for hs in seen for h in hs) == sorted(st.seen)
        frontier = [fr for fr, _ in
                    fakeray.get([a.snapshot.remote() for a in eng.host_actors])]
        queued = sorted(h for fr in frontier for h in fr["url_hash"].to_pylist())
        picked = {r[2] for r in res.crawl_order}
        assert queued == sorted(st.seen - picked)
        capped |= any(len(v) == cfg.max_frontier_per_shard
                      for v in st.frontier.values())
    assert eng.epoch == res.epochs > 2
    assert capped and len(st.seen) == cfg.max_crawl_urls


def test_resume_from_dense_enqueue_seq_checkpoint(monkeypatch, tmp_path):
    """A checkpoint written when the sequencer numbered admissions with
    a dense counter — dense ``enqueue_seq``s in ``frontier-*.parquet``
    and an ``enqueue_seq`` key in ``driver.json`` — resumes, and the
    finished crawl equals the oracle's.  Dense seqs are below 2^32 and
    every order key admitted after the resume is at least 2^32, so the
    old rows keep their place ahead of the new ones."""
    import glob
    import json

    import pyarrow as pa
    import pyarrow.parquet as pq

    from searchengine_ray.pipelines.crawl import RemoteCrawl

    monkeypatch.setitem(sys.modules, "ray", fakeray)
    store, images, truth, seeds = _small_web(11)
    cfg = CrawlConfig(shard_count=4, per_shard_batch=3, politeness_ms=1000)
    golden = simulate(seeds, store, cfg)
    # the dense seqs the counter gave: the oracle numbers admissions the
    # same way
    _, st = simulate(seeds, store, dataclasses.replace(cfg, max_epochs=2),
                     return_state=True)
    dense = {e[2]: e[0] for v in st.frontier.values() for e in v}
    out = str(tmp_path)
    eng = RemoteCrawl(store, images, truth, cfg, out, n_host_actors=2,
                      checkpoint=True, write_payload=False)
    eng.admit_seeds(seeds)
    eng.run(max_epochs=2)
    eng.shutdown()
    d = f"{out}/ckpt/epoch=2"
    old = set()
    for path in glob.glob(f"{d}/frontier-*.parquet"):
        fr = pq.read_table(path)
        seqs = pa.array([dense[h] for h in fr["url_hash"].to_pylist()], pa.int64())
        pq.write_table(fr.set_column(1, "enqueue_seq", seqs), path)
        old |= set(seqs.to_pylist())
    assert old and max(old) < st.enqueue_seq < 1 << 32
    with open(f"{d}/driver.json") as f:
        drv = json.load(f)
    drv["enqueue_seq"] = st.enqueue_seq
    with open(f"{d}/driver.json", "w") as f:
        json.dump(drv, f)
    eng = RemoteCrawl.resume(store, images, truth, cfg, out, n_host_actors=2)
    eng.run_epoch()
    after = [s for fr, _ in fakeray.get([a.snapshot.remote() for a in eng.host_actors])
             for s in fr["enqueue_seq"].to_pylist()]
    assert all(s in old or s >= 1 << 32 for s in after)
    assert any(s >= 1 << 32 for s in after) and any(s in old for s in after)
    res = eng.run()
    assert res.epochs == golden.epochs > 3
    got = list(zip(*(res.crawl_order[c].to_pylist() for c in
                     ("fetch_seq", "url", "url_hash", "t_sched", "epoch"))))
    assert got == golden.crawl_order
    assert res.seen == golden.seen


def test_seen_shards_receive_no_strings(monkeypatch, tmp_path):
    """No call to a seen shard receives a string column: phase 2 reads
    the host actors' slim chain tables and ``add_admitted`` their
    admitted url hashes, never a table carrying the URLs."""
    import pyarrow as pa

    from searchengine_ray.pipelines.crawl import RemoteCrawl, _SeenActor

    def strings(x):
        if isinstance(x, (tuple, list)):
            return any(strings(y) for y in x)
        return isinstance(x, pa.Table) and any(
            pa.types.is_string(t) or pa.types.is_large_string(t)
            for t in x.schema.types
        )

    calls = []
    real_call = fakeray._call

    def call(fn, args, kwargs):
        if isinstance(getattr(fn, "__self__", None), _SeenActor):
            vals = [a.value if isinstance(a, fakeray.ObjectRef) else a
                    for a in (*args, *kwargs.values())]
            calls.append((fn.__name__, strings(vals)))
        return real_call(fn, args, kwargs)

    monkeypatch.setitem(sys.modules, "ray", fakeray)
    monkeypatch.setattr(fakeray, "_call", call)
    store, images, truth, seeds = _small_web(13)
    cfg = CrawlConfig(shard_count=4, per_shard_batch=3, seen_shards=2)
    eng = RemoteCrawl(store, images, truth, cfg, str(tmp_path), n_host_actors=2,
                      write_payload=False)
    eng.admit_seeds(seeds)
    res = eng.run()
    assert res.seen == simulate(seeds, store, cfg).seen
    names = {name for name, _ in calls}
    assert {"test_and_add_wave", "add_admitted"} <= names
    assert [c for c in calls if c[1]] == []
