"""Engine-vs-oracle conformance when the admission limits BIND:
per-host quota, per-shard frontier cap, global URL budget.  Final
membership (seen set) and crawl order must match; reject *reasons* may
differ on cap-vs-dup edges (documented in pipelines/crawl.py)."""

import dataclasses

import pytest

from searchengine_ray.pipelines.oracle import CrawlConfig, simulate
from searchengine_ray.sources import synth


@pytest.fixture(scope="module")
def small_world():
    images, truth = synth.gen_images(60, seed=7)
    store = synth.gen_web(600, 60, seed=7)
    synth.attach_captions(store, images)
    seeds = synth.gen_seeds(store, 10, seed=7)
    return images, truth, store, seeds


def _run_both(small_world, tmp_path, cfg, tag):
    from searchengine_ray.pipelines.crawl import run_crawl

    images, truth, store, seeds = small_world
    golden = simulate(seeds, store, cfg)
    res = run_crawl(
        seeds, store, images, truth, cfg=cfg,
        out_dir=str(tmp_path / tag), n_host_actors=3, n_fetch_actors=2,
    )
    return golden, res


def _assert_match(golden, res):
    got = list(
        zip(
            res.crawl_order["fetch_seq"].to_pylist(),
            res.crawl_order["url"].to_pylist(),
            res.crawl_order["url_hash"].to_pylist(),
            res.crawl_order["t_sched"].to_pylist(),
            res.crawl_order["epoch"].to_pylist(),
        )
    )
    assert got == golden.crawl_order
    assert res.seen == golden.seen
    # every candidate of an epoch is admitted or rejected exactly once
    for row in res.metrics.to_pylist():
        assert row["candidates"] == (
            row["admitted"]
            + row["rejected_robots_quota"]
            + row["rejected_dup"]
            + row["rejected_cap_budget"]
        ), row


def test_host_quota_binding(ray_session, small_world, tmp_path):
    cfg = CrawlConfig(
        shard_count=6, per_shard_batch=40, seen_shards=3, max_urls_per_host=5
    )
    golden, res = _run_both(small_world, tmp_path, cfg, "quota")
    assert any(r == "quota" for _, r in golden.rejects)  # actually binds
    _assert_match(golden, res)


def test_shard_cap_binding(ray_session, small_world, tmp_path):
    cfg = CrawlConfig(
        shard_count=6, per_shard_batch=40, seen_shards=3,
        max_frontier_per_shard=25,
    )
    golden, res = _run_both(small_world, tmp_path, cfg, "cap")
    assert any(r == "shard_full" for _, r in golden.rejects)
    _assert_match(golden, res)
    assert sum(res.metrics["rejected_cap_budget"].to_pylist()) > 0


def test_global_budget_binding(ray_session, small_world, tmp_path):
    cfg = CrawlConfig(
        shard_count=6, per_shard_batch=40, seen_shards=3, max_crawl_urls=150
    )
    golden, res = _run_both(small_world, tmp_path, cfg, "budget")
    assert any(r == "budget" for _, r in golden.rejects)
    assert len(golden.seen) <= 150
    _assert_match(golden, res)
    assert sum(res.metrics["rejected_cap_budget"].to_pylist()) > 0


def test_all_binding_together(ray_session, small_world, tmp_path):
    cfg = CrawlConfig(
        shard_count=6, per_shard_batch=30, seen_shards=3,
        max_urls_per_host=6, max_frontier_per_shard=20, max_crawl_urls=200,
        per_host_epoch_cap=3,
    )
    golden, res = _run_both(small_world, tmp_path, cfg, "all")
    _assert_match(golden, res)


def test_all_seeds_rolled_back(ray_session, small_world, tmp_path):
    """A seed wave the budget or the shard cap rejects entirely leaves
    an empty frontier, so the first dequeue ends the crawl: rejected
    seeds never become seen, and the empty results stay typed."""
    for limit in ("max_crawl_urls", "max_frontier_per_shard"):
        cfg = CrawlConfig(
            shard_count=6, per_shard_batch=40, seen_shards=3, **{limit: 0}
        )
        golden, res = _run_both(small_world, tmp_path, cfg, limit)
        assert golden.seen == set() and golden.crawl_order == []
        _assert_match(golden, res)
        assert res.crawl_order.schema.names == [
            "fetch_seq", "url", "url_hash", "t_sched", "epoch"
        ]
        assert len(res.metrics) == 0 and res.metrics.num_columns > 0


def test_max_fetches_midepoch_state_conformance(ray_session, small_world, tmp_path):
    """When max_fetches binds mid-epoch, host fail-counters must stop
    exactly at the budget (oracle's early break) — the sliced-off picks
    must leave NO trace in checkpointed host state, so a resumed run
    with a raised limit starts from oracle-equal state."""
    import ray

    from searchengine_ray.pipelines.crawl import RemoteCrawl
    from searchengine_ray.pipelines.oracle import simulate

    images, truth, store, seeds = small_world
    cfg = CrawlConfig(
        shard_count=6, per_shard_batch=40, seen_shards=3, max_fetches=130
    )
    golden, st = simulate(seeds, store, cfg, return_state=True)
    eng = RemoteCrawl(
        store, images, truth, cfg=cfg, out_dir=str(tmp_path / "mf"),
        n_host_actors=3, n_fetch_actors=2,
    )
    eng.admit_seeds(seeds)
    res = eng.run()
    _assert_match(golden, res)
    # engine host fail-counter state == oracle state at the cutoff
    fails = {}
    for _, hs in ray.get([a.snapshot.remote() for a in eng.host_actors]):
        for hh, fc in zip(hs["host_hash"].to_pylist(), hs["fail_count"].to_pylist()):
            if fc:
                fails[hh] = fc
    assert fails == st.host_fail


def test_crawl_starts_only_its_actors_and_kills_them(
    ray_session, small_world, tmp_path
):
    """The epoch loop runs in the caller, so a crawl starts exactly its
    host, seen, sequencer and fetch actors (2 + 2 + 1 + 2 here) and no
    engine actor; ``shutdown`` leaves none of them alive.  Read from the
    GCS actor table (``ray.util.state`` needs the dashboard)."""
    import collections
    import time

    from ray._private import state

    from searchengine_ray.pipelines.crawl import RemoteCrawl

    images, truth, store, seeds = small_world
    cfg = CrawlConfig(shard_count=6, per_shard_batch=40, seen_shards=2)
    before = set(state.actors())

    def new_alive() -> list[str]:
        return [
            info["ActorClassName"]
            for a, info in state.actors().items()
            if a not in before and info["State"] == "ALIVE"
        ]

    eng = RemoteCrawl(
        store, images, truth, cfg=cfg, out_dir=str(tmp_path / "actors"),
        n_host_actors=2, n_fetch_actors=2,
    )
    eng.admit_seeds(seeds)
    eng.run(max_epochs=1)  # every actor has served a call: all are up
    assert collections.Counter(new_alive()) == {
        "HostShards": 2, "_SeenActor": 2, "_Sequencer": 1, "FetchDecode": 2
    }
    eng.shutdown()
    end = time.monotonic() + 30  # ray.kill is asynchronous
    while new_alive() and time.monotonic() < end:
        time.sleep(0.1)
    assert new_alive() == []
