"""The keyed-shuffle primitive (``stages/keyed.py``): one ``fn`` call
per key-complete partition, typed results for empty partitions, and
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

    # 2 keys over 5 partitions: at least 3 partitions are typed empties
    got = keyed.part_groupby(
        ray.data.from_pandas(df.drop(columns="part")), ["w"], {"c": "sum"}, npart=5
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
