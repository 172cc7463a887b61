import pyarrow as pa
import pytest


def test_resume_ignores_torn_epoch_dir(ray_session, tmp_path):
    """A crash while an epoch dir is written leaves a torn
    ``ckpt/epoch=N.tmp`` that was never renamed into place: resume must
    ignore it, and the continued run must still equal the oracle and
    commit a whole ``epoch=N`` over it."""
    import pyarrow.parquet as pq

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
    # simulate the crash: epoch 4's dir half written, never published
    torn = out / "ckpt" / "epoch=4.tmp"
    torn.mkdir()
    for name in ("order.parquet", "content.parquet"):
        pq.write_table(pa.table({"junk": [1]}), str(torn / name))

    eng2 = RemoteCrawl.resume(store, images, truth, cfg, str(out),
                              n_host_actors=2, n_fetch_actors=2)
    res = eng2.run()
    eng2.shutdown()
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
    assert not torn.exists()
    e4 = pq.read_table(str(out / "ckpt" / "epoch=4" / "order.parquet"))
    assert set(e4["epoch"].to_pylist()) == {3}


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
def test_join_partitions_follow_both_files(ray_session, monkeypatch, sf):
    """Every catalog join's partition count is ``blocks_for`` of both
    files' bytes on disk, capped at 4× the cluster's CPUs: one
    partition at these scales, seven for two 100 MiB files."""
    import os

    from searchengine_ray.sources.storage import blocks_for, read_parquet
    from searchengine_ray.stages import keyed

    sized, real = [], keyed._partitions
    monkeypatch.setattr(keyed, "_partitions", lambda ds: sized.append(real(ds)) or sized[-1])

    def join_parts(left, lkey, right, rkey):
        paths = [os.path.join(SF, sf, f"{t}.parquet") for t in (left, right)]
        keyed.hash_join(read_parquet(paths[0], [lkey]), read_parquet(paths[1], [rkey]),
                        lkey, rkey)
        want = min(blocks_for(sum(map(os.path.getsize, paths))), 4 * keyed.ncpus())
        assert sized.pop() == want
        return want

    call_sites = [("orders", "o_custkey", "customer", "c_custkey"),
                  ("customer", "c_custkey", "orders", "o_custkey"),
                  ("lineitem", "l_partkey", "part", "p_partkey")]
    assert [join_parts(*site) for site in call_sites] == [1, 1, 1]
    monkeypatch.setattr(os.path, "getsize", lambda p: 100 << 20)
    assert [join_parts(*site) for site in call_sites] == [7, 7, 7]


def _blocks(ds) -> list:
    return list(ds.iter_batches(batch_size=None, batch_format="pyarrow"))


def _many_files(tmp_path) -> list:
    """Four parquet files of 0-1,000 rows and 1-7 row groups, with a
    string, a nullable float and a list column."""
    import numpy as np
    import pyarrow.parquet as pq

    paths, start = [], 0
    for i, (rows, group) in enumerate([(1000, 150), (37, 100), (0, 10), (400, 400)]):
        k = np.arange(start, start + rows, dtype=np.int64)
        t = pa.table({
            "k": k,
            "s": pa.array([f"v{j % 13}" for j in k], pa.string()),
            "x": pa.array([None if j % 5 == 0 else j / 7 for j in k], pa.float64()),
            "xs": pa.array([[int(j)] * (j % 3) for j in k], pa.list_(pa.int64())),
        })
        paths.append(str(tmp_path / f"part-{i}.parquet"))
        pq.write_table(t, paths[-1], row_group_size=group)
        start += rows
    return paths


@pytest.mark.parametrize("nblocks", [1, 3, 8, 40])
@pytest.mark.parametrize("case", ["one_file", "many_files", "pruned"])
def test_footer_read_equals_read_table(ray_session, monkeypatch, tmp_path, case, nblocks):
    """``read_parquet`` gives the rows and types ``pq.read_table`` gives,
    in file order, as exactly ``read_blocks`` blocks whatever the row
    groups: one single-row-group file, four files of 1-7 row groups
    (one of them empty), and a pruned column set out of file order.
    Its row count comes from the footers."""
    import os

    import pyarrow.parquet as pq

    from searchengine_ray.sources import storage

    if case == "one_file":
        paths, columns = [os.path.join(SF, "sf0.01", "lineitem.parquet")], None
    else:
        paths = _many_files(tmp_path)
        columns = ["xs", "k", "s"] if case == "pruned" else None
    monkeypatch.setattr(storage, "BLOCK_BYTES", -(-storage.disk_bytes(paths) // nblocks))
    assert storage.read_blocks(paths) == nblocks
    want = pa.concat_tables([pq.read_table(p, columns=columns) for p in paths])
    # the plan, run task by task in order: each task states its rows
    tasks = storage.FooterParquet(paths, columns, nblocks).get_read_tasks(1)
    planned = [list(task()) for task in tasks]
    assert [len(b) for b in planned] == [1] * nblocks
    assert [t.metadata.num_rows for t in tasks] == [len(b[0]) for b in planned]
    got = pa.concat_tables([b[0] for b in planned])
    assert got.schema == want.schema and got.equals(want)
    # through Ray: the same blocks, in order when Ray keeps it
    from ray.data import DataContext

    monkeypatch.setattr(DataContext.get_current().execution_options, "preserve_order", True)
    ds = storage.read_parquet(paths if len(paths) > 1 else paths[0], columns)
    assert ds.count() == len(want)
    blocks = _blocks(ds.materialize())
    assert len(blocks) == nblocks
    assert pa.concat_tables(blocks).equals(want)


def test_zero_row_file_reads_typed(ray_session, tmp_path):
    """A zero-row file is one empty block; ``empty_like`` types it from
    the footer's pruned schema without running the read."""
    import pyarrow.parquet as pq

    from searchengine_ray.sources.storage import read_parquet
    from searchengine_ray.stages import keyed

    schema = pa.schema([("doc_id", pa.int64()), ("text", pa.string()),
                        ("score", pa.float32())])
    path = str(tmp_path / "empty.parquet")
    pq.write_table(schema.empty_table(), path)
    ds = read_parquet(path, ["score", "doc_id"])
    assert keyed.empty_like(ds).schema == pa.schema([("score", pa.float32()),
                                                     ("doc_id", pa.int64())])
    assert ds.count() == 0
    out = keyed.collect(ds)
    assert list(out.columns) == ["score", "doc_id"] and len(out) == 0
