"""Engine-vs-oracle conformance: crawl order + URL-seen set must match
exactly, independent of actor-pool sizes (north rule / SURVEY.md §7.5#1)."""

import dataclasses

import numpy as np
import pytest

from searchengine_ray.pipelines.oracle import CrawlConfig, simulate
from searchengine_ray.sources import synth


@pytest.fixture(scope="module")
def fixture_small():
    images, truth = synth.gen_images(120, seed=42)
    store = synth.gen_web(900, 120, seed=42)
    synth.attach_captions(store, images)
    seeds = synth.gen_seeds(store, 12, seed=42)
    cfg = CrawlConfig(shard_count=8, per_shard_batch=60, seen_shards=4)
    golden = simulate(seeds, store, cfg)
    return images, truth, store, seeds, cfg, golden


def _order_tuples(tbl):
    return list(
        zip(
            tbl["fetch_seq"].to_pylist(),
            tbl["url"].to_pylist(),
            tbl["url_hash"].to_pylist(),
            tbl["t_sched"].to_pylist(),
            tbl["epoch"].to_pylist(),
        )
    )


def _run_engine(fixture, tmpdir, n_host_actors, n_fetch_actors, **kw):
    from searchengine_ray.pipelines.crawl import run_crawl

    images, truth, store, seeds, cfg, golden = fixture
    return run_crawl(
        seeds,
        store,
        images,
        truth,
        cfg=cfg,
        out_dir=str(tmpdir),
        n_host_actors=n_host_actors,
        n_fetch_actors=n_fetch_actors,
        **kw,
    )


@pytest.mark.parametrize(
    "n_host,n_fetch,checkpoint",
    [
        pytest.param(1, 1, False, id="1-1"),
        pytest.param(4, 3, False, id="4-3"),
        # checkpointed crawls snapshot every actor each epoch
        pytest.param(1, 1, True, id="1-1-checkpoint"),
        pytest.param(4, 3, True, id="4-3-checkpoint"),
    ],
)
def test_engine_matches_oracle(
    ray_session, fixture_small, tmp_path, n_host, n_fetch, checkpoint
):
    images, truth, store, seeds, cfg, golden = fixture_small
    res = _run_engine(
        fixture_small, tmp_path / f"e{n_host}", n_host, n_fetch,
        checkpoint=checkpoint,
    )
    got = _order_tuples(res.crawl_order)
    want = golden.crawl_order
    assert len(got) == len(want), (len(got), len(want))
    for g, w in zip(got, want):
        assert g == w, (g, w)
    assert res.seen == golden.seen
    # content set matches too (url_hash, image_id, caption)
    got_content = sorted(
        zip(
            res.content["url_hash"].to_pylist(),
            res.content["image_id"].to_pylist(),
            res.content["caption"].to_pylist(),
        )
    )
    want_content = sorted((h, img, cap) for h, u, img, cap, e in golden.content)
    assert got_content == want_content
    # payload invariants held for every fetched row
    assert all(res.content["invariant_ok"].to_pylist())
    # the engine counts the truncate/static-filter rejects of fetched
    # pages' links; the oracle's seed-phase rejects have no epoch row
    not_static = {"budget", "robots", "quota", "shard_full", "dup"}

    def n_static(r):
        return sum(reason not in not_static for _, reason in r.rejects)

    seed_phase = simulate(seeds, store, dataclasses.replace(cfg, max_epochs=0))
    assert n_static(golden) > n_static(seed_phase)  # the filter bites
    assert sum(res.metrics["rejected_static"].to_pylist()) == (
        n_static(golden) - n_static(seed_phase)
    )


def test_budget_cutoff_matches(ray_session, fixture_small, tmp_path):
    images, truth, store, seeds, cfg, golden = fixture_small
    cfg2 = dataclasses.replace(cfg, max_fetches=137)
    golden2 = simulate(seeds, store, cfg2)
    from searchengine_ray.pipelines.crawl import run_crawl

    res = run_crawl(
        seeds, store, images, truth, cfg=cfg2, out_dir=str(tmp_path / "b"),
        n_host_actors=3, n_fetch_actors=2,
    )
    assert len(res.crawl_order) == len(golden2.crawl_order) == 137
    assert _order_tuples(res.crawl_order) == golden2.crawl_order
    assert res.seen == golden2.seen


def test_checkpoint_resume_equivalence(ray_session, fixture_small, tmp_path):
    """Kill after epoch k, resume from checkpoint → identical final
    crawl order + seen set (north rule resumability)."""
    from searchengine_ray.pipelines.crawl import RemoteCrawl

    images, truth, store, seeds, cfg, golden = fixture_small
    out = str(tmp_path / "ck")
    eng = RemoteCrawl(store, images, truth, cfg, out, n_host_actors=2,
                      n_fetch_actors=2, checkpoint=True)
    eng.admit_seeds(seeds)
    eng.run(max_epochs=3)  # "crash" after 3 epochs
    eng.shutdown()

    eng2 = RemoteCrawl.resume(store, images, truth, cfg, out,
                              n_host_actors=2, n_fetch_actors=2)
    res = eng2.run()
    assert _order_tuples(res.crawl_order) == golden.crawl_order
    assert res.seen == golden.seen


def test_resume_continues_running_totals(ray_session, fixture_small, tmp_path):
    """A crawl stopped after epoch 2 and resumed reports the same
    per-epoch seen_size / frontier_size as one uninterrupted run (the
    checkpoint carries the running totals)."""
    from searchengine_ray.pipelines.crawl import RemoteCrawl, run_crawl

    images, truth, store, seeds, cfg, golden = fixture_small
    full = run_crawl(
        seeds, store, images, truth, cfg=cfg, out_dir=str(tmp_path / "full"),
        n_host_actors=2, n_fetch_actors=2,
    ).metrics
    out = str(tmp_path / "ck")
    eng = RemoteCrawl(store, images, truth, cfg, out, n_host_actors=2,
                      n_fetch_actors=2, checkpoint=True)
    eng.admit_seeds(seeds)
    first = eng.run(max_epochs=2).metrics
    eng.shutdown()
    eng2 = RemoteCrawl.resume(store, images, truth, cfg, out,
                              n_host_actors=2, n_fetch_actors=2)
    rest = eng2.run().metrics
    eng2.shutdown()
    assert rest["epoch"].to_pylist()[0] == 2
    assert len(full) > 4
    for col in ("epoch", "seen_size", "frontier_size"):
        assert first[col].to_pylist() + rest[col].to_pylist() == (
            full[col].to_pylist()
        ), col


def test_resume_twice_matches_oracle(ray_session, fixture_small, tmp_path):
    """Stop after 2 epochs, resume and stop after 4, resume to the end:
    each engine replays the committed epoch dirs, so the crawl order
    and seen set equal the oracle's, and the ``order.parquet`` rows of
    the committed ``epoch=1..N`` dirs together are the crawl order."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from searchengine_ray.pipelines.crawl import RemoteCrawl

    images, truth, store, seeds, cfg, golden = fixture_small
    out = tmp_path / "ck"
    eng = RemoteCrawl(store, images, truth, cfg, str(out), n_host_actors=2,
                      n_fetch_actors=2, checkpoint=True)
    eng.admit_seeds(seeds)
    eng.run(max_epochs=2)
    eng.shutdown()
    for stop in (4, None):
        eng = RemoteCrawl.resume(store, images, truth, cfg, str(out),
                                 n_host_actors=2, n_fetch_actors=2)
        res = eng.run(max_epochs=stop)
        eng.shutdown()
    assert res.epochs > 4
    assert _order_tuples(res.crawl_order) == golden.crawl_order
    assert res.seen == golden.seen
    ckpt = out / "ckpt"
    epochs = sorted(int(p.name.split("=")[1]) for p in ckpt.glob("epoch=*"))
    assert epochs == list(range(1, res.epochs + 1))
    logged = pa.concat_tables(
        pq.read_table(str(ckpt / f"epoch={e}" / "order.parquet")) for e in epochs
    )
    assert _order_tuples(logged) == golden.crawl_order


def test_resume_refuses_other_actor_counts(ray_session, fixture_small, tmp_path):
    """Each host actor checkpoints only its own shards' frontier and host
    state, and each seen actor its own hash slice, so resuming with
    fewer or more host actors, another seen-shard count, or from a
    ``driver.json`` that records no count raises naming both counts and
    starts no actor; the same counts resume to the oracle's result."""
    import dataclasses
    import json

    from ray._private import state

    from searchengine_ray.pipelines.crawl import RemoteCrawl

    images, truth, store, seeds, cfg, golden = fixture_small
    out = tmp_path / "ck"
    eng = RemoteCrawl(store, images, truth, cfg, str(out), n_host_actors=2,
                      n_fetch_actors=2, checkpoint=True)
    eng.admit_seeds(seeds)
    eng.run(max_epochs=2)
    eng.shutdown()

    before = set(state.actors())
    for n in (3, 1):
        with pytest.raises(ValueError, match=f"by 2 host actors; .* has {n}$"):
            RemoteCrawl.resume(store, images, truth, cfg, str(out),
                               n_host_actors=n, n_fetch_actors=2)
    other = dataclasses.replace(cfg, seen_shards=cfg.seen_shards + 1)
    with pytest.raises(ValueError, match=f"by {cfg.seen_shards} seen shards"):
        RemoteCrawl.resume(store, images, truth, other, str(out),
                           n_host_actors=2, n_fetch_actors=2)
    drv_path = out / "ckpt" / "epoch=2" / "driver.json"
    drv = json.loads(drv_path.read_text())
    drv_path.write_text(json.dumps({k: v for k, v in drv.items()
                                    if k != "host_actors"}))
    with pytest.raises(ValueError, match="unrecorded number of host actors"):
        RemoteCrawl.resume(store, images, truth, cfg, str(out),
                           n_host_actors=2, n_fetch_actors=2)
    assert set(state.actors()) == before
    drv_path.write_text(json.dumps(drv))

    eng = RemoteCrawl.resume(store, images, truth, cfg, str(out),
                             n_host_actors=2, n_fetch_actors=2)
    res = eng.run()
    eng.shutdown()
    assert _order_tuples(res.crawl_order) == golden.crawl_order
    assert res.seen == golden.seen


def test_fresh_crawl_refuses_used_out_dir(ray_session, fixture_small, tmp_path):
    """Seeding a checkpointed crawl into an out_dir that holds a
    committed epoch raises instead of mixing two crawls' epoch dirs (a
    later resume would continue the old crawl); resume, which never
    seeds, still continues the old crawl to the oracle's result."""
    from searchengine_ray.pipelines.crawl import RemoteCrawl

    images, truth, store, seeds, cfg, golden = fixture_small
    out = str(tmp_path / "used")
    eng = RemoteCrawl(store, images, truth, cfg, out, n_host_actors=2,
                      n_fetch_actors=2, checkpoint=True)
    eng.admit_seeds(seeds)
    eng.run(max_epochs=2)
    eng.shutdown()

    fresh = RemoteCrawl(store, images, truth, cfg, out, n_host_actors=2,
                        n_fetch_actors=2, checkpoint=True)
    try:
        with pytest.raises(FileExistsError, match="RemoteCrawl.resume"):
            fresh.admit_seeds(synth.gen_seeds(store, 12, seed=7))
    finally:
        fresh.shutdown()

    eng = RemoteCrawl.resume(store, images, truth, cfg, out,
                             n_host_actors=2, n_fetch_actors=2)
    res = eng.run()
    eng.shutdown()
    assert _order_tuples(res.crawl_order) == golden.crawl_order
    assert res.seen == golden.seen


def test_checkpoint_resume_uint64_evict_state(ray_session, fixture_small, tmp_path):
    """A seen shard whose cuckoo eviction state is >= 2^63 checkpoints
    (no int64 overflow) and resumes with that exact state, and the
    resumed crawl still equals the oracle."""
    import ray

    from searchengine_ray.pipelines.crawl import RemoteCrawl

    images, truth, store, seeds, cfg, golden = fixture_small
    out = str(tmp_path / "ck")
    eng = RemoteCrawl(store, images, truth, cfg, out, n_host_actors=2,
                      n_fetch_actors=2, checkpoint=True)
    eng.admit_seeds(seeds)
    eng.run(max_epochs=1)
    shard = eng.seen_actors[0]
    st = ray.get(shard.to_state.remote())
    st["evict_state"] = (1 << 64) - 12345
    ray.get(shard.restore.remote(st))
    eng.run(max_epochs=2)  # checkpoints epoch 2 with that state
    written = ray.get(shard.to_state.remote())["evict_state"]
    eng.shutdown()
    assert written >= 1 << 63

    eng2 = RemoteCrawl.resume(store, images, truth, cfg, out,
                              n_host_actors=2, n_fetch_actors=2)
    resumed = ray.get(eng2.seen_actors[0].to_state.remote())["evict_state"]
    assert resumed == written
    res = eng2.run()
    assert _order_tuples(res.crawl_order) == golden.crawl_order
    assert res.seen == golden.seen


def test_payload_parquet_integrity(ray_session, fixture_small, tmp_path):
    """Payload partitions written by fetch actors decode back to the
    exact bytes/phash recorded in the content metadata."""
    import glob
    import hashlib

    import pyarrow.parquet as pq

    from searchengine_ray.pipelines.crawl import run_crawl
    from searchengine_ray.sources.codec import decode_image, phash64

    images, truth, store, seeds, cfg, golden = fixture_small
    out = str(tmp_path / "pay")
    res = _run_engine(fixture_small, out, 2, 2, write_payload=True)
    parts = sorted(glob.glob(f"{out}/payload/epoch=*/part-*.parquet"))
    assert parts, "payload partitions missing"
    pay = pq.read_table(parts[0])
    meta = {
        int(s): (img, ph)
        for s, img, ph in zip(
            res.content["fetch_seq"].to_pylist(),
            res.content["image_id"].to_pylist(),
            res.content["phash"].to_pylist(),
        )
    }
    for i in range(min(20, len(pay))):
        seq = int(pay["fetch_seq"][i].as_py())
        img_id, ph = meta[seq]
        assert pay["image_id"][i].as_py() == img_id
        px, _ = decode_image(pay["bytes"][i].as_py())
        assert phash64(px) == ph


def test_conformance_medium_scale(ray_session, tmp_path):
    """Engine == oracle on a ~3.6k-URL crawl (larger politeness/skew
    interleavings than the small fixture)."""
    from searchengine_ray.pipelines.crawl import run_crawl

    images, truth = synth.gen_images(200, seed=5)
    store = synth.gen_web(2500, 200, seed=5)
    synth.attach_captions(store, images)
    seeds = synth.gen_seeds(store, 40, seed=5)
    cfg = CrawlConfig(shard_count=12, per_shard_batch=400, seen_shards=4)
    golden = simulate(seeds, store, cfg)
    res = run_crawl(
        seeds, store, images, truth, cfg=cfg,
        out_dir=str(tmp_path / "med"), n_host_actors=4, n_fetch_actors=4,
    )
    assert _order_tuples(res.crawl_order) == golden.crawl_order
    assert res.seen == golden.seen


def test_get_page_indexed_lookup(ray_session, fixture_small, tmp_path, monkeypatch):
    """get_page is an indexed point lookup: besides the tiny per-epoch
    hash indexes it reads exactly ONE epoch content file and ONE
    payload part file per hit (S4 — the reference's O(1) RAM index,
    KeyValueDB.hpp:384-396)."""
    import pyarrow.parquet as pq

    from searchengine_ray.pipelines import crawl as crawl_mod
    from searchengine_ray.pipelines.crawl import RemoteCrawl, get_page

    images, truth, store, seeds, cfg, golden = fixture_small
    out = str(tmp_path / "gp")
    eng = RemoteCrawl(store, images, truth, cfg, out, n_host_actors=2,
                      n_fetch_actors=2, checkpoint=True)
    eng.admit_seeds(seeds)
    res = eng.run(max_epochs=4)
    # pick a page fetched in a late epoch so early-epoch indexes miss
    ok = res.content.to_pylist()
    target = max(ok, key=lambda r: r["fetch_seq"])

    reads = []
    real_read = pq.read_table

    def counting_read(path, *a, **kw):
        reads.append(str(path))
        return real_read(path, *a, **kw)

    monkeypatch.setattr(crawl_mod.pq, "read_table", counting_read)
    row = get_page(out, "http://" + target["url"])
    assert row is not None and row["url_hash"] == target["url_hash"]
    assert row["caption"] == target["caption"]
    assert "bytes" in row and len(row["bytes"]) > 0
    frag_reads = [p for p in reads if "content.parquet" in p]
    pay_reads = [p for p in reads if "payload" in p]
    idx_reads = [p for p in reads if "index.parquet" in p]
    assert len(frag_reads) == 1, frag_reads
    assert len(pay_reads) == 1, pay_reads
    assert len(reads) == len(frag_reads) + len(pay_reads) + len(idx_reads)


def test_robots_disallow_enforced(ray_session, tmp_path):
    """Explicit robots coverage (north-rule addition): with every host
    carrying a disallow prefix, no blocked URL is ever fetched, the
    rejects are counted, and engine == oracle on order + membership."""
    images, truth = synth.gen_images(60, seed=5)
    store = synth.gen_web(600, 60, seed=5, robots_host_rate=1.0)
    synth.attach_captions(store, images)
    seeds = synth.gen_seeds(store, 10, seed=5)
    cfg = CrawlConfig(shard_count=4, per_shard_batch=60, seen_shards=2)
    golden = simulate(seeds, store, cfg)
    assert any(r[1] == "robots" for r in golden.rejects)  # fixture bites

    from searchengine_ray.pipelines.crawl import run_crawl

    res = run_crawl(
        seeds, store, images, truth, cfg=cfg,
        out_dir=str(tmp_path / "robots"), n_host_actors=2, n_fetch_actors=2,
    )
    assert _order_tuples(res.crawl_order) == golden.crawl_order
    assert res.seen == golden.seen

    # no fetched URL may fall under its host's disallow prefix
    for u in res.crawl_order["url"].to_pylist():
        row = int(store.lookup(np.array(
            [__import__("searchengine_ray.functions.urlkernel",
                        fromlist=["url_hash"]).url_hash(u)],
            np.uint64))[0])
        if row >= 0:
            assert not store.robots_disallowed(row), u

    # the admission ladder counted robots/quota rejects
    assert res.metrics is not None
    total_rej = sum(res.metrics["rejected_robots_quota"].to_pylist())
    assert total_rej > 0
