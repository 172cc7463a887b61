"""The keyed-shuffle primitive (``stages/keyed.py``): one ``fn`` call
per key-complete partition, typed results for empty partitions,
``combine`` equal to DuckDB ``GROUP BY`` for both finishes, and
``hash_join`` equal to DuckDB for every join type the package uses."""

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


@pytest.mark.parametrize("npart", [2, 3, 7])
def test_keyed_map_one_call_per_key(ray_session, npart):
    import ray

    rng = np.random.default_rng(npart)
    keys = rng.integers(0, 40, 2000)
    df = pd.DataFrame({"k": keys, "part": keys % npart, "v": np.ones(2000, np.int64)})
    ds = ray.data.from_pandas(df).repartition(5)

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        # one row per call: which keys this call saw, and how many rows
        return pd.DataFrame(
            {
                "parts": [",".join(map(str, sorted(set(g["part"]))))],
                "keys": [",".join(map(str, sorted(set(g["k"]))))],
                "n": [len(g)],
            }
        )

    calls = keyed.keyed_map(ds, "part", npart, fn).to_pandas()
    assert len(calls) == npart  # one call per partition, empty ones too
    seen = [int(k) for ks in calls["keys"] for k in ks.split(",") if k]
    assert sorted(seen) == sorted(set(keys.tolist()))  # each key exactly once
    assert all(len(p.split(",")) <= 1 for p in calls["parts"])
    assert calls["n"].sum() == 2000


def test_keyed_map_typed_when_empty(ray_session):
    """Partitions no row reaches still run ``fn`` on an empty typed
    frame, so every output block carries the same schema."""
    import ray

    def _typed_sum(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("w", as_index=False).agg(c=("c", "sum"))

    df = pd.DataFrame({"w": ["a", "b", "a"], "c": [1, 2, 3], "part": [0, 0, 0]})
    out = keyed.keyed_map(ray.data.from_pandas(df), "part", 7, _typed_sum)
    blocks = [ray.get(r) for r in out.to_pandas_refs()]
    assert len(blocks) == 7 and sum(len(b) == 0 for b in blocks) == 6
    assert all(list(b.dtypes.astype(str)) == ["object", "int64"] for b in blocks)
    got = pd.concat(blocks).sort_values("w").reset_index(drop=True)
    assert got.to_dict("list") == {"w": ["a", "b"], "c": [4, 2]}

    # 2 keys over ncpus() >= 4 partitions: at least 2 are typed empties
    got = keyed.combine(
        ray.data.from_pandas(df.drop(columns="part")),
        ["w"],
        {"c": ("c", "sum")},
        partitioned=True,
    ).to_pandas()
    assert list(got.columns) == ["w", "c"] and str(got["c"].dtype) == "int64"
    assert sorted(got["w"]) == ["a", "b"]


def test_keyed_map_keeps_types_past_empty_pandas_blocks(ray_session):
    """Ray's sort merges each partition through pandas when empty
    pandas blocks outnumber the rest; int64 columns must stay int64
    and exact (no float64 detour) on that path too."""
    import ray

    big = (1 << 62) + 1  # not representable as float64
    df = pd.DataFrame({"k": np.arange(6, dtype=np.int64) + big})
    blocks = [df.iloc[i : i + 1] for i in range(6)] + [df.iloc[:0]] * 12
    ds = keyed.with_hash_part(ray.data.from_pandas(blocks), ["k"], 8)
    out = keyed.keyed_map(ds, "part", 8, lambda g: g[["k"]])
    got = pd.concat(ray.get(out.to_pandas_refs()))
    assert str(got["k"].dtype) == "int64"
    assert sorted(got["k"]) == sorted(df["k"])

    right = pd.DataFrame({"j": df["k"], "v": np.arange(6)})
    other = ray.data.from_pandas(
        [right.iloc[i : i + 1] for i in range(6)] + [right.iloc[:0]] * 12
    ).materialize()
    left = ray.data.from_pandas(df).materialize()
    got = keyed.hash_join(left, other, "k", "j", npart=8).to_pandas()
    assert (got["k"] == got["j"]).all() and len(got) == 6


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
    part = keyed.combine(empty, ["k1", "k2"], _AGGS, partitioned=True)
    assert part.count() == 0
    assert part.schema().names == list(full.columns)
    assert str(part.schema().types[2]) == "int64"

    one = keyed.combine(empty, [], _AGGS)
    df = _groups().iloc[:0]  # noqa: F841 - read by DuckDB
    want = duckdb.connect().execute(f"SELECT {_AGG_SQL} FROM df").df()
    assert _canon(one) == _canon(want) == [(0.0, None, None, None, None)]


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
def test_hash_join_matches_duckdb(ray_session, how, empty):
    import pyarrow as pa
    import ray

    left, right = _join_sides()
    if empty == "left":
        left = left.iloc[:0]
    if empty == "right":
        right = right.iloc[:0]
    l, r = pa.Table.from_pandas(left), pa.Table.from_pandas(right)
    want = duckdb.connect().execute(_SQL[how]).df()
    out = keyed.hash_join(
        ray.data.from_arrow(l), ray.data.from_arrow(r), "lk", "rk", how, npart=3
    )
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
