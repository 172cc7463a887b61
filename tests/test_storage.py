import pyarrow as pa
import pytest

from searchengine_ray.sources.storage import VersionedTable


def test_append_versions_timetravel(tmp_path):
    t = VersionedTable(str(tmp_path / "tbl"))
    assert t.latest() is None
    v1 = t.append(pa.table({"x": [1, 2]}))
    v2 = t.append(pa.table({"x": [3]}))
    assert t.versions() == [v1, v2]
    assert t.read(v1)["x"].to_pylist() == [1, 2]
    assert sorted(t.read(v2)["x"].to_pylist()) == [1, 2, 3]
    assert t.read()["x"].to_pylist() == t.read(v2)["x"].to_pylist()
    assert t.count(v1) == 2 and t.count() == 3


def test_reopen_resumes(tmp_path):
    p = str(tmp_path / "tbl")
    t = VersionedTable(p)
    t.append(pa.table({"x": [1]}))
    t2 = VersionedTable(p)  # fresh handle, same directory
    assert t2.latest() == 1
    t2.append(pa.table({"x": [2]}))
    assert t2.count() == 2


def test_to_ray(ray_session, tmp_path):
    t = VersionedTable(str(tmp_path / "tbl"))
    t.append(pa.table({"x": list(range(100))}))
    t.append(pa.table({"x": list(range(100, 150))}))
    ds = t.to_ray()
    assert ds.count() == 150
    assert t.to_ray(1).count() == 100


def test_version_delta_and_truncate(tmp_path):
    t = VersionedTable(str(tmp_path / "tbl"))
    v1 = t.append(pa.table({"x": [1, 2]}))
    v2 = t.append(pa.table({"x": [3]}))
    v3 = t.append(pa.table({"x": [4, 5]}))
    assert t.version_delta(v1)["x"].to_pylist() == [1, 2]
    assert t.version_delta(v2)["x"].to_pylist() == [3]
    assert t.version_delta(v3)["x"].to_pylist() == [4, 5]
    # drop dangling versions (crash between append and commit)
    t.truncate_to(v2)
    assert t.versions() == [v1, v2]
    assert sorted(t.read()["x"].to_pylist()) == [1, 2, 3]
    # appends continue cleanly after truncation
    v4 = t.append(pa.table({"x": [9]}))
    assert v4 == v2 + 1
    assert sorted(t.read()["x"].to_pylist()) == [1, 2, 3, 9]


def test_resume_truncates_dangling_log_versions(ray_session, tmp_path):
    """A crash between the log append and the epoch dir's atomic
    publish leaves dangling versions; resume must truncate them so the
    continued run's logs match an uninterrupted run."""
    from searchengine_ray.pipelines.crawl import RemoteCrawl
    from searchengine_ray.pipelines.oracle import CrawlConfig, simulate
    from searchengine_ray.sources import synth

    images, truth = synth.gen_images(60, seed=7)
    store = synth.gen_web(600, 60, seed=7)
    synth.attach_captions(store, images)
    seeds = synth.gen_seeds(store, 10, seed=7)
    cfg = CrawlConfig(shard_count=6, per_shard_batch=40, seen_shards=3)
    golden = simulate(seeds, store, cfg)

    out = tmp_path / "crash"
    eng = RemoteCrawl(store, images, truth, cfg, str(out), n_host_actors=2,
                      n_fetch_actors=2, checkpoint=True)
    eng.admit_seeds(seeds)
    eng.run(max_epochs=3)
    eng.shutdown()
    # simulate the crash: dangling appends with no committed epoch dir
    VersionedTable(str(out / "order_log")).append(pa.table({"junk": [1]}))
    VersionedTable(str(out / "content_log")).append(pa.table({"junk": [1]}))

    eng2 = RemoteCrawl.resume(store, images, truth, cfg, str(out),
                              n_host_actors=2, n_fetch_actors=2)
    res = eng2.run()
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


SF = "/root/testdata"


def test_test_scale_tables_read_as_one_block(ray_session):
    import os

    from searchengine_ray.sources.storage import read_parquet

    d = os.path.join(SF, "sf0.01")
    tables = sorted(f for f in os.listdir(d) if f.endswith(".parquet"))
    assert len(tables) == 10
    for f in tables:
        ds = read_parquet(os.path.join(d, f))
        assert ds.materialize().num_blocks() == 1, f


def test_read_blocks_follow_bytes_on_disk(ray_session, monkeypatch):
    import os

    from searchengine_ray.sources import storage

    path = os.path.join(SF, "sf0.01", "lineitem.parquet")
    rows = storage.read_parquet(path).count()
    monkeypatch.setattr(os.path, "getsize", lambda p: 100 << 20)
    assert storage.read_blocks(path) == 4
    ds = storage.read_parquet(path).materialize()
    assert ds.num_blocks() == 4 and ds.count() == rows
    assert storage.read_blocks([path, path]) == 7


@pytest.mark.parametrize("sf", ["sf0.001", "sf0.01", "sf0.1"])
def test_join_parts_unchanged(ray_session, monkeypatch, sf):
    """``_join_parts`` on ``blocks_for`` gives the partition counts of
    its former inline rule at every call site's tables."""
    import os

    from searchengine_ray.pipelines.queries import _join_parts
    from searchengine_ray.stages.keyed import ncpus

    def before(*tables):
        total = sum(
            os.path.getsize(os.path.join(SF, sf, f"{t}.parquet")) for t in tables
        )
        return int(min(max(2, total // (32 << 20) + 1), 4 * ncpus()))

    call_sites = [("orders", "customer"), ("customer", "orders"),
                  ("lineitem", "part")]
    for tables in call_sites:
        assert _join_parts(os.path.join(SF, sf), *tables) == before(*tables)
    # and past the floor, below the cap: 200 MiB → 7 partitions
    monkeypatch.setattr(os.path, "getsize", lambda p: 100 << 20)
    for tables in call_sites:
        assert _join_parts(os.path.join(SF, sf), *tables) == before(*tables) == 7
