"""The keyed-shuffle primitive (``stages/keyed.py``): one ``fn`` call
per key-complete partition, typed results for empty partitions,
``combine`` equal to DuckDB ``GROUP BY`` for both finishes, ``top_k``
equal to ``row_number() <= k``, ``hash_join`` equal to DuckDB for
every join type the package uses, and ``empty_like`` typing a plan's
zero-row result operator by operator without running it."""

import os
import subprocess
import sys
import textwrap

import duckdb
import numpy as np
import pandas as pd
import pytest

from searchengine_ray.stages import keyed
from test_queries_oracle import SF_DIR

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _force_parts(monkeypatch, n: int):
    """Every keyed shuffle in the test runs as ``n`` partitions."""
    monkeypatch.setattr(keyed, "_partitions", lambda ds: n)


@pytest.mark.parametrize("npart", [2, 3, 7])
def test_keyed_map_one_call_per_key(ray_session, monkeypatch, npart):
    import ray

    import pyarrow as pa

    rng = np.random.default_rng(npart)
    keys = rng.integers(0, 40, 2000)
    df = pd.DataFrame({"k": keys, "v": np.ones(2000, np.int64)})
    ds = ray.data.from_pandas(df).repartition(5)

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        # one row per call: which keys this call saw, and how many rows
        return pd.DataFrame(
            {
                "keys": [",".join(map(str, sorted(set(g["k"]))))],
                "n": [len(g)],
                "cols": [",".join(g.columns)],
            }
        )

    _force_parts(monkeypatch, npart)
    calls = keyed.keyed_map(ds, ["k"], fn).to_pandas()
    assert len(calls) == npart  # one call per partition, empty ones too
    seen = [int(k) for ks in calls["keys"] for k in ks.split(",") if k]
    assert sorted(seen) == sorted(set(keys.tolist()))  # each key exactly once
    # each call holds the keys of one partition id, and only ds's columns
    for ks in calls["keys"]:
        ids = keyed.hash_part([pa.array([int(k) for k in ks.split(",") if k], pa.int64())], npart)
        assert len(set(ids.tolist())) <= 1
    assert set(calls["cols"]) == {"k,v"}
    assert calls["n"].sum() == 2000


def _one_row_per_call():
    """A ``keyed_map`` fn that returns one row per call (nested, so Ray
    workers get it by value)."""
    def fn(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"n": [len(g)], "cols": [",".join(g.columns)]})

    return fn


def _plan_ops(ds) -> list:
    """Class names of every logical operator in ``ds``'s plan."""
    ops, todo = [], [ds._logical_plan.dag]
    while todo:
        op = todo.pop()
        ops.append(type(op).__name__)
        todo += op.input_dependencies
    return ops


def _bundled_input(source: str):
    """One input of a shuffle partition whose 70 rows (ids 0..69 in a
    column ``k``) arrive in many blocks."""
    import pyarrow as pa
    import ray

    t = pa.table({"k": np.arange(70, dtype=np.int64)})
    if source == "from_arrow_7_blocks":
        return ray.data.from_arrow([t.slice(10 * i, 10) for i in range(7)])
    if source == "union_pandas_arrow":
        # a pandas-format map makes pandas blocks, a pyarrow-format one
        # Arrow blocks: one bundle gets both
        a, b = (ray.data.from_arrow(t.slice(s, 35)) for s in (0, 35))
        return a.map_batches(lambda x: x, batch_format="pandas").union(
            b.map_batches(lambda x: x, batch_format="pyarrow"))
    return ray.data.from_arrow(t).repartition(5).materialize()


@pytest.mark.parametrize("source", ["from_arrow_7_blocks", "union_pandas_arrow", "materialized"])
def test_one_partition_is_one_bundled_call(ray_session, source):
    """A one-partition ``keyed_map`` is one bundled map: ``fn`` runs
    exactly once, on every row of every input block, in one Ray task,
    and the plan holds no ``Repartition`` or ``Sort``."""
    ds = _bundled_input(source)
    assert keyed._partitions(ds) == 1

    def every_row(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"n": [len(g)], "keys": [sorted(g["k"].tolist())]})

    out = keyed.keyed_map(ds, ["k"], every_row)
    assert not {"Repartition", "Sort"} & set(_plan_ops(out))
    calls = out.to_pandas()
    assert calls["n"].tolist() == [70]
    assert list(calls["keys"][0]) == list(range(70))
    ran = [line for line in out.stats().splitlines() if "MapBatches(every_row)" in line]
    assert len(ran) == 1 and ": 1 tasks executed" in ran[0], ran


def test_one_block_read_is_one_call(ray_session):
    """A test-scale read is one block and one partition: ``fn`` runs
    exactly once, on every row, with no pad row or partition id."""
    from searchengine_ray.sources.storage import read_parquet

    ds = read_parquet(os.path.join(SF_DIR, "orders.parquet"), ["o_custkey", "o_totalprice"])
    assert keyed._partitions(ds) == 1
    calls = keyed.keyed_map(ds, ["o_custkey"], _one_row_per_call()).to_pandas()
    assert calls.to_dict("list") == {"n": [ds.count()], "cols": ["o_custkey,o_totalprice"]}


@pytest.mark.parametrize("k", [3, 40])
def test_partitions_follow_read_bytes(ray_session, monkeypatch, k):
    """A read of ``k`` blocks by ``BLOCK_BYTES`` shuffles as min(k, 4×
    the cluster's CPUs) partitions, one ``fn`` call each."""
    from searchengine_ray.sources import storage

    path = os.path.join(SF_DIR, "lineitem.parquet")
    monkeypatch.setattr(storage, "BLOCK_BYTES", -(-os.path.getsize(path) // k))
    assert storage.read_blocks(path) == k
    ds = storage.read_parquet(path, ["l_partkey", "l_quantity"])
    want = min(k, 4 * keyed.ncpus())
    assert keyed._partitions(ds) == want
    calls = keyed.keyed_map(ds, ["l_partkey"], _one_row_per_call()).to_pandas()
    assert len(calls) == want and calls["n"].sum() == ds.count()


def test_in_memory_source_is_sized_by_its_bytes(ray_session, monkeypatch):
    """``from_arrow`` and a materialized Dataset count their blocks'
    bytes; the cap is 4× the cluster's CPUs."""
    import pyarrow as pa
    import ray

    from searchengine_ray.sources import storage

    t = pa.table({"k": np.arange(10_000, dtype=np.int64), "v": np.ones(10_000)})
    ds = ray.data.from_arrow(t)
    assert keyed._partitions(ds) == 1
    monkeypatch.setattr(storage, "BLOCK_BYTES", t.nbytes // 3 + 1)
    assert keyed._partitions(ds) == 3
    assert keyed._partitions(ds.materialize()) == 3
    monkeypatch.setattr(storage, "BLOCK_BYTES", 1000)
    assert keyed._partitions(ds) == 4 * keyed.ncpus()


def test_parquet_read_and_its_arrow_copy_are_sized_apart(ray_session, monkeypatch):
    """The same rows are sized in two units: a parquet read by its
    whole file on disk (compressed, pruned columns included), its
    decoded Arrow copy by its in-memory bytes.  With one block per
    file size, the read is one partition and the copy as many as its
    decoded bytes fill."""
    import pyarrow.parquet as pq
    import ray

    from searchengine_ray.sources import storage

    path = os.path.join(SF_DIR, "lineitem.parquet")
    disk = os.path.getsize(path)
    copy = ray.data.from_arrow(pq.read_table(path))
    assert copy.size_bytes() > 2 * disk  # decoded rows outweigh their file
    monkeypatch.setattr(storage, "BLOCK_BYTES", disk)
    assert keyed._partitions(storage.read_parquet(path)) == 1
    assert keyed._partitions(storage.read_parquet(path, ["l_partkey"])) == 1
    want = min(-(-copy.size_bytes() // disk), 4 * keyed.ncpus())
    assert keyed._partitions(copy) == want > 1


def test_hash_join_counts_both_sides(ray_session, monkeypatch):
    """A join's partition count is ``blocks_for`` of both sides' bytes
    together: each side alone fits one block, both need two."""
    from searchengine_ray.sources import storage

    lpath, rpath = (os.path.join(SF_DIR, f"{t}.parquet") for t in ("orders", "customer"))
    monkeypatch.setattr(storage, "BLOCK_BYTES", max(map(os.path.getsize, (lpath, rpath))))
    sized, real = [], keyed._partitions
    monkeypatch.setattr(keyed, "_partitions", lambda ds: sized.append(real(ds)) or sized[-1])
    left = storage.read_parquet(lpath, ["o_custkey"])
    right = storage.read_parquet(rpath, ["c_custkey"])
    assert real(left) == real(right) == 1
    got = keyed.hash_join(left, right, "o_custkey", "c_custkey").count()
    assert sized == [2]
    want = duckdb.connect().execute(
        f"SELECT count(*) FROM '{lpath}' o JOIN '{rpath}' c ON o.o_custkey = c.c_custkey"
    ).fetchone()[0]
    assert got == want > 0


def test_zero_row_input_runs_no_call_and_collects_typed(ray_session):
    """An input with no rows — a zero-row source, or blocks a filter
    emptied — runs no ``fn`` call at one partition, and its sink types
    the result from the plan."""
    import pyarrow as pa
    import ray

    none = ray.data.from_arrow(pa.table({"a": pa.array([], pa.int64()),
                                         "s": pa.array([], pa.string())}))
    emptied = _src().map_batches(lambda t: t.slice(0, 0), batch_format="pyarrow")
    for ds in (none, emptied):
        assert keyed._partitions(ds) == 1
        out = keyed.keyed_map(ds, ["a"], _one_row_per_call())
        got = keyed.collect(out)
        assert len(got) == 0 and list(got.columns) == ["n", "cols"]
        assert list(got.dtypes.astype(str)) == ["int64", "object"]
        assert out.count() == 0  # no call: one would emit a row


def test_keyed_map_typed_when_empty(ray_session, monkeypatch):
    """Partitions no row reaches still run ``fn`` on an empty typed
    frame, so every output block carries the same schema."""
    import ray

    def _typed_sum(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("w", as_index=False).agg(c=("c", "sum"))

    import pyarrow as pa

    df = pd.DataFrame({"w": ["a", "b", "a"], "c": [1, 2, 3]})
    _force_parts(monkeypatch, 7)
    out = keyed.keyed_map(ray.data.from_pandas(df), ["w"], _typed_sum)
    blocks = [ray.get(r) for r in out.to_pandas_refs()]
    used = len(set(keyed.hash_part([pa.array(["a", "b"])], 7).tolist()))
    assert len(blocks) == 7 and sum(len(b) == 0 for b in blocks) == 7 - used
    assert all(list(b.dtypes.astype(str)) == ["object", "int64"] for b in blocks)
    got = pd.concat(blocks).sort_values("w").reset_index(drop=True)
    assert got.to_dict("list") == {"w": ["a", "b"], "c": [4, 2]}

    # 2 keys over 7 partitions: at least 5 are typed empties
    got = keyed.combine(
        ray.data.from_pandas(df),
        ["w"],
        {"c": ("c", "sum")},
        partitioned=True,
    ).to_pandas()
    assert list(got.columns) == ["w", "c"] and str(got["c"].dtype) == "int64"
    assert sorted(got["w"]) == ["a", "b"]


def test_keyed_map_keeps_types_past_empty_pandas_blocks(ray_session, monkeypatch):
    """Ray's sort merges each partition through pandas when empty
    pandas blocks outnumber the rest; int64 columns must stay int64
    and exact (no float64 detour) on that path too."""
    import ray

    big = (1 << 62) + 1  # not representable as float64
    df = pd.DataFrame({"k": np.arange(6, dtype=np.int64) + big})
    blocks = [df.iloc[i : i + 1] for i in range(6)] + [df.iloc[:0]] * 12
    ds = ray.data.from_pandas(blocks)
    _force_parts(monkeypatch, 8)
    out = keyed.keyed_map(ds, ["k"], lambda g: g[["k"]])
    got = pd.concat(ray.get(out.to_pandas_refs()))
    assert str(got["k"].dtype) == "int64"
    assert sorted(got["k"]) == sorted(df["k"])

    right = pd.DataFrame({"j": df["k"], "v": np.arange(6)})
    other = ray.data.from_pandas(
        [right.iloc[i : i + 1] for i in range(6)] + [right.iloc[:0]] * 12
    ).materialize()
    left = ray.data.from_pandas(df).materialize()
    got = keyed.hash_join(left, other, "k", "j").to_pandas()
    assert (got["k"] == got["j"]).all() and len(got) == 6


def test_keyed_map_routes_by_key_columns(ray_session):
    """Rows route by their key's value, whatever block holds them: an
    int key with nulls in one block and none in another, a string key
    split across blocks, and a join of an int32 key with an int64 key.
    Each key reaches exactly one ``fn`` call, and ``top_k`` (whose
    pandas partials turn the int key of a block with nulls into float)
    and the join equal pandas."""
    import pyarrow as pa
    import ray

    rng = np.random.default_rng(11)
    blocks = []
    for b in range(4):
        ik = rng.integers(0, 30, 200)
        mask = np.zeros(200, bool) if b % 2 else rng.random(200) < 0.2
        blocks.append(pa.table({
            "ik": pa.array(ik, pa.int64(), mask=mask),
            "sk": pa.array([f"s{v}" for v in rng.integers(0, 25, 200)]),
            "b": pa.array(np.full(200, b, np.int64)),
            "v": pa.array(np.arange(200) + 200 * b),
        }))
    ds = ray.data.from_arrow(blocks)

    def calls(keys: list) -> list:
        def fn(g: pd.DataFrame) -> pd.DataFrame:
            ks = g[keys[0]].astype(object).where(g[keys[0]].notna(), None)
            return pd.DataFrame({"keys": [sorted(set(ks.tolist()), key=repr)],
                                 "blocks": [sorted(set(g["b"].tolist()))]})

        return keyed.collect(keyed.keyed_map(ds, keys, fn)).to_dict("records")

    for key in ("ik", "sk"):
        got = calls([key])
        seen = [k for c in got for k in c["keys"]]
        assert len(seen) == len(set(seen))  # no key in two calls
        everything = pa.concat_tables(blocks)[key].to_pylist()
        assert sorted(seen, key=repr) == sorted(set(everything), key=repr)
        # a key that occurs in several blocks still meets itself
        assert max(len(c["blocks"]) for c in got) == 4

    top = keyed.top_k(ds, ["ik"], [("v", "descending")], 3)
    df = pa.concat_tables(blocks).to_pandas()
    want = df.sort_values("v", ascending=False).groupby("ik", dropna=False).head(3)
    assert sorted(top["v"]) == sorted(want["v"])

    left = pd.DataFrame({"k": np.arange(40, dtype=np.int32) % 13,
                         "v": np.arange(40, dtype=np.int64)})
    right = pd.DataFrame({"j": np.arange(10, 20, dtype=np.int64),
                          "w": np.arange(10, dtype=np.float64)})
    ls = ray.data.from_arrow([pa.Table.from_pandas(left.iloc[i::3], preserve_index=False)
                              for i in range(3)])
    rs = ray.data.from_arrow([pa.Table.from_pandas(right.iloc[i::2], preserve_index=False)
                              for i in range(2)])
    got = keyed.collect(keyed.hash_join(ls, rs, "k", "j"))
    want = left.merge(right, left_on="k", right_on="j")
    order = ["v", "j"]
    assert len(got) == len(want) > 0
    pd.testing.assert_frame_equal(
        got.sort_values(order).reset_index(drop=True),
        want.sort_values(order).reset_index(drop=True),
        check_dtype=False,
    )


def _groups() -> pd.DataFrame:
    """600 rows in 4 blocks: a string key with nulls, an int key, an
    int value with nulls and a float value."""
    rng = np.random.default_rng(3)
    n = 600
    return pd.DataFrame(
        {
            "k1": pd.array(rng.choice(["a", "b", "c", None], n), dtype=object),
            "k2": rng.integers(0, 3, n),
            "v": pd.array(
                np.where(rng.random(n) < 0.1, None, rng.integers(-50, 50, n)),
                dtype="Int64",
            ),
            "f": rng.standard_normal(n) * 1e3,
        }
    )


_AGGS = {
    "s": ("v", "sum"),
    "c": ("v", "count"),
    "lo": ("v", "min"),
    "hi": ("f", "max"),
    "fs": ("f", "sum"),
}
_AGG_SQL = "SUM(v) AS s, COUNT(v) AS c, MIN(v) AS lo, MAX(f) AS hi, SUM(f) AS fs"


def _blocks(df: pd.DataFrame, reverse: bool = False):
    import ray

    parts = [df.iloc[i::4] for i in range(4)]
    return ray.data.from_pandas(parts[::-1] if reverse else parts)


def _rounded(df: pd.DataFrame) -> list:
    # float sums differ from DuckDB's in the last bits (another order)
    return _canon(df.assign(fs=df["fs"].astype(float).round(6)))


@pytest.mark.parametrize(
    "keys, partitioned",
    [
        (["k1", "k2"], False),
        (["k1", "k2"], True),
        (["k1"], False),
        (["k1"], True),
        ([], False),
    ],
    ids=["composite-driver", "composite-partitioned", "nullable-driver",
         "nullable-partitioned", "global-driver"],
)
def test_combine_matches_duckdb(ray_session, keys, partitioned):
    """sum/count/min/max together; a null key is its own group; no
    keys is one global row (driver only); both finishes give the same
    rows."""
    df = _groups()
    got = keyed.combine(_blocks(df), keys, _AGGS, partitioned=partitioned)
    got = got.to_pandas() if partitioned else got
    cols = ", ".join(keys)
    sql = f"SELECT {cols + ', ' if cols else ''}{_AGG_SQL} FROM df"
    want = duckdb.connect().execute(sql + (f" GROUP BY {cols}" if cols else "")).df()
    assert list(got.columns) == keys + list(_AGGS)
    assert all(str(got[c].dtype) == "int64" for c in ("s", "c", "lo"))
    assert _rounded(got) == _rounded(want)


def test_combine_distinct_and_fn(ray_session):
    """No aggregates is DISTINCT over the keys; ``fn`` projects each
    batch (pandas out) before the group."""
    df = _groups()
    got = keyed.combine(
        _blocks(df), ["k2", "half"], {},
        fn=lambda t: t.to_pandas().assign(half=lambda b: b["f"] > 0),
    )
    want = duckdb.connect().execute(
        "SELECT DISTINCT k2, f > 0 AS half FROM df"
    ).df()
    assert list(got.columns) == ["k2", "half"]
    assert _canon(got) == _canon(want)


def test_combine_typed_when_input_is_empty(ray_session):
    """Ray runs no UDF on a zero-row input; both finishes still return
    the non-empty result's columns and types, with zero rows — and a
    global aggregate returns SQL's one row of NULL sums, zero counts."""
    import pyarrow as pa
    import ray

    full = keyed.combine(_blocks(_groups()), ["k1", "k2"], _AGGS)
    empty = ray.data.from_arrow(pa.Table.from_pandas(_groups()).slice(0, 0))
    got = keyed.combine(empty, ["k1", "k2"], _AGGS)
    assert len(got) == 0 and list(got.dtypes) == list(full.dtypes)
    part = keyed.collect(keyed.combine(empty, ["k1", "k2"], _AGGS, partitioned=True))
    assert len(part) == 0 and list(part.dtypes) == list(full.dtypes)

    one = keyed.combine(empty, [], _AGGS)
    df = _groups().iloc[:0]  # noqa: F841 - read by DuckDB
    want = duckdb.connect().execute(f"SELECT {_AGG_SQL} FROM df").df()
    assert _canon(one) == _canon(want) == [(0.0, None, None, None, None)]


def test_top_k_matches_duckdb(ray_session):
    """``top_k`` equals SQL ``row_number() <= k`` per group across 4
    blocks (a null key is its own group), sorted by keys then order;
    a zero-row input gives the same columns and types, zero rows."""
    import pyarrow as pa
    import ray

    df = _groups().assign(id=np.arange(600))
    order = [("f", "descending"), ("id", "ascending")]

    def fn(t):
        return t.select(["k1", "k2", "f", "id"])

    got = keyed.top_k(_blocks(df), ["k1", "k2"], order, 3, fn)
    want = duckdb.connect().execute(
        "SELECT k1, k2, f, id FROM (SELECT *, row_number() OVER ("
        "PARTITION BY k1, k2 ORDER BY f DESC, id) AS rn FROM df) "
        "WHERE rn <= 3 ORDER BY k1 NULLS LAST, k2, f DESC, id"
    ).df()
    assert list(got.columns) == ["k1", "k2", "f", "id"]
    assert got["k1"].isna().sum() == 9  # 3 per k2 value of the null group
    assert _canon(got) == _canon(want)
    assert got["id"].tolist() == want["id"].tolist()

    empty = ray.data.from_arrow(pa.Table.from_pandas(df).slice(0, 0))
    none = keyed.top_k(empty, ["k1", "k2"], order, 3, fn)
    assert len(none) == 0 and list(none.dtypes) == list(got.dtypes)


def test_keyed_checks_at_three_partitions(ray_session, three_partitions):
    """The routing, partitioned ``combine`` and ``top_k`` checks above
    with every shuffle at 3 partitions (the pad / sort path) instead of
    the one a test-scale input gets."""
    test_keyed_map_routes_by_key_columns(ray_session)
    for keys in (["k1", "k2"], ["k1"]):
        test_combine_matches_duckdb(ray_session, keys, True)
    test_combine_typed_when_input_is_empty(ray_session)
    test_top_k_matches_duckdb(ray_session)


def test_combine_float_sums_are_run_to_run_exact(ray_session):
    """The fold sorts partial rows before summing floats, so the same
    partials give the same bits whatever order the blocks finish in."""
    df = _groups()
    a = keyed.combine(_blocks(df), ["k1"], {"fs": ("f", "sum")})
    b = keyed.combine(_blocks(df, reverse=True), ["k1"], {"fs": ("f", "sum")})
    key = a["k1"].fillna("")
    a, b = a.set_index(key).sort_index(), b.set_index(b["k1"].fillna("")).sort_index()
    assert a["fs"].tolist() == b["fs"].tolist()


def _join_sides():
    left = pd.DataFrame(
        {
            "lk": pd.array([1, 2, 2, 3, None, 5, 7], dtype="Int64"),
            "lv": ["a", "b", "c", "d", "e", "f", "g"],
        }
    )
    right = pd.DataFrame(
        {
            "rk": pd.array([2, 2, 3, None, 4, 7, 7], dtype="Int64"),
            "rv": [10, 20, 30, 40, 50, 60, 70],
        }
    )
    return left, right


_SQL = {
    "inner": "SELECT * FROM l JOIN r ON l.lk = r.rk",
    "left_outer": "SELECT * FROM l LEFT JOIN r ON l.lk = r.rk",
    "left_anti": "SELECT * FROM l WHERE NOT EXISTS "
    "(SELECT 1 FROM r WHERE r.rk = l.lk)",
}


def _canon(df: pd.DataFrame) -> list:
    """Rows as sorted tuples; NULL/NaN → None, numbers → float."""

    def cell(v):
        if pd.isna(v):
            return None
        return float(v) if isinstance(v, (int, float, np.number)) else v

    df = df[sorted(df.columns)].astype(object)
    return sorted((tuple(map(cell, r)) for r in df.itertuples(index=False)), key=repr)


@pytest.mark.parametrize("how", list(_SQL))
@pytest.mark.parametrize("empty", [None, "left", "right"])
def test_hash_join_matches_duckdb(ray_session, monkeypatch, how, empty):
    import pyarrow as pa
    import ray

    left, right = _join_sides()
    if empty == "left":
        left = left.iloc[:0]
    if empty == "right":
        right = right.iloc[:0]
    l, r = pa.Table.from_pandas(left), pa.Table.from_pandas(right)
    want = duckdb.connect().execute(_SQL[how]).df()
    _force_parts(monkeypatch, 3)
    out = keyed.hash_join(ray.data.from_arrow(l), ray.data.from_arrow(r), "lk", "rk", how)
    # concatenating the blocks keeps the columns of an empty result
    got = pd.concat(ray.get(out.to_pandas_refs()))
    assert sorted(got.columns) == sorted(want.columns)
    assert _canon(got) == _canon(want)


def test_catalog_joins_finish_at_one_cpu():
    """q03, q04 and q26 on a 1-CPU Ray session finish well inside the
    time Ray's hash-shuffle join hung for (>100 s)."""
    script = textwrap.dedent(
        """
        import sys
        import pandas as pd
        import ray
        from ray.data import DataContext
        ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
        DataContext.get_current().enable_progress_bars = False
        from searchengine_ray.pipelines import queries as Q
        for q in ("q03_revenue_by_segment", "q04_customers_without_orders",
                  "q26_brand_volume"):
            r = Q.queries()[q](sys.argv[1])
            print(q, len(r if isinstance(r, pd.DataFrame) else r.to_pandas()))
        ray.shutdown()
        """
    )
    env = dict(os.environ, PYTHONPATH=REPO)
    proc = subprocess.run(
        [sys.executable, "-c", script, SF_DIR],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.count("q") == 3, proc.stdout


def _src():
    import pyarrow as pa
    import ray

    return ray.data.from_arrow(pa.table({"a": [3, 1, 2], "s": ["x", "y", "z"]}))


def _types(t) -> list:
    return [(f.name, str(f.type)) for f in t.schema]


def test_empty_like_read_is_the_file_schema(ray_session):
    import pyarrow.parquet as pq

    from searchengine_ray.sources.storage import read_parquet

    path = os.path.join(SF_DIR, "orders.parquet")
    got = keyed.empty_like(read_parquet(path, ["o_orderkey", "o_totalprice"]))
    want = pq.read_schema(path)
    assert got.num_rows == 0
    assert _types(got) == [(c, str(want.field(c).type))
                           for c in ("o_orderkey", "o_totalprice")]


def test_empty_like_runs_each_udf_once_on_no_rows(ray_session):
    """pandas and pyarrow UDFs run once, on the driver, on a zero-row
    batch of their format; a UDF's rows for no input (a global partial)
    are cut to zero, as Ray never calls it on an input with no rows."""
    import pyarrow as pa
    import pyarrow.compute as pc

    seen = []

    def pandas_fn(b):
        seen.append((type(b).__name__, len(b)))
        return b.assign(half=b["a"] / 2)

    def arrow_fn(t):
        seen.append((type(t).__name__, len(t)))
        return t.append_column("twice", pc.multiply(t["a"], 2))

    ds = _src().map_batches(arrow_fn, batch_format="pyarrow")
    got = keyed.empty_like(ds.map_batches(pandas_fn, batch_format="pandas"))
    assert seen == [("Table", 0), ("DataFrame", 0)]
    assert got.num_rows == 0
    assert [n for n, _ in _types(got)] == ["a", "s", "twice", "half"]
    assert dict(_types(got))["twice"] == "int64"
    assert dict(_types(got))["half"] == "double"

    total = _src().map_batches(
        lambda t: pa.table({"n": [len(t)]}), batch_format="pyarrow"
    )
    assert _types(keyed.empty_like(total)) == [("n", "int64")]
    assert keyed.empty_like(total).num_rows == 0


def test_empty_like_sort_limit_union_project(ray_session):
    src = _src()
    base = _types(keyed.empty_like(src))
    assert base == [("a", "int64"), ("s", "string")]
    assert _types(keyed.empty_like(src.sort("a").limit(1))) == base
    assert _types(keyed.empty_like(src.union(_src()))) == base
    assert _types(keyed.empty_like(src.random_shuffle())) == base
    assert _types(keyed.empty_like(src.select_columns(["s"]))) == [("s", "string")]


def test_empty_like_keyed_map_and_seedless_hash_join(ray_session, monkeypatch):
    """``keyed_map``'s pad, sort and ``fn`` on no rows; a join of two
    empty sides is typed with no seed row riding along."""
    import pyarrow as pa
    import ray

    _force_parts(monkeypatch, 3)
    out = keyed.keyed_map(_src(), ["a"], lambda g: g.groupby("s", as_index=False)["a"].sum())
    assert _types(keyed.empty_like(out)) == [("s", "string"), ("a", "int64")]

    left = ray.data.from_arrow(pa.table({"k": pa.array([], pa.int64()),
                                         "v": pa.array([], pa.string())}))
    right = ray.data.from_arrow(pa.table({"j": pa.array([], pa.int64()),
                                          "w": pa.array([], pa.float64())}))
    join = keyed.hash_join(left, right, "k", "j")
    got = keyed.collect(join)
    assert len(got) == 0 and list(got.columns) == ["k", "v", "j", "w"]
    assert list(got.dtypes.astype(str)) == ["int64", "object", "int64", "float64"]
    assert join.count() == 0  # no seed row: nothing runs through the merge


def test_empty_like_rejects_operators_without_a_rule(ray_session):
    with pytest.raises(TypeError, match="Map"):
        keyed.empty_like(_src().map(lambda row: row))


def test_materialize_keeps_types_of_an_empty_result(ray_session):
    import pyarrow as pa

    none = _src().map_batches(lambda t: t.filter(pa.array(np.zeros(len(t), bool))),
                              batch_format="pyarrow")
    none = none.map_batches(lambda b: b.assign(n=b["a"] * 2), batch_format="pandas")
    mat = keyed.materialize(none)
    assert mat.count() == 0
    assert _types(keyed.empty_like(mat)) == [("a", "int64"), ("s", "string"), ("n", "int64")]
