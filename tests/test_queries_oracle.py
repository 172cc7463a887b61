"""Local replica of the driver's correctness gate: run every
``queries()`` entry at sf0.001 and compare row count + schema + an
order-insensitive value hash against its ``oracle_sql()`` via DuckDB;
every SQL-checked query also on 8-block reads (at one shuffle
partition, and at three), and on zero-row and one-row copies of the
tables."""

import os

import duckdb
import numpy as np
import pandas as pd
import pytest

SF_DIR = "/root/testdata/sf0.001"
TABLES = (
    "region nation customer supplier part orders lineitem events "
    "documents embeddings"
).split()


def _to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif np.issubdtype(df[c].dtype, np.floating):
            df[c] = np.round(df[c].astype(np.float64), 9)
        elif np.issubdtype(df[c].dtype, np.integer):
            df[c] = df[c].astype(np.int64)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


# Ray aggregates under every name: a query that calls one raises, so
# each run below also proves that no query bypasses ``keyed.combine``
# (the AST guard in test_keyed_guards.py sees only ``aggregate``, and
# cannot tell ``Dataset.sum`` from a numpy or pandas ``sum``)
_DATASET_AGGREGATES = ("aggregate", "sum", "min", "max", "mean", "std", "unique")


@pytest.fixture(autouse=True)
def no_ray_aggregates(monkeypatch):
    from ray.data import Dataset
    from ray.data.grouped_data import GroupedData

    def forbid(name):
        def raiser(self, *args, **kwargs):
            raise AssertionError(f"Ray aggregate {name} called: use keyed.combine")

        return raiser

    for name in _DATASET_AGGREGATES:
        monkeypatch.setattr(Dataset, name, forbid(f"Dataset.{name}"))
    monkeypatch.setattr(GroupedData, "aggregate", forbid("GroupedData.aggregate"))


@pytest.fixture(autouse=True)
def no_schema_reads(monkeypatch):
    """``Dataset.schema`` runs a plan to its first block to type it (a
    hidden execution) and is ``None`` on an empty one; Ray's own
    ``to_pandas``, ``iter_batches``, ``count``, ``sort``, ``union`` and
    ``materialize`` never call it.  So every run below also proves that
    no sink types a result by running its plan: ``keyed.empty_like``
    types it from the plan instead."""
    from ray.data import Dataset

    def raiser(self, *args, **kwargs):
        raise AssertionError("Dataset.schema called: use keyed.empty_like")

    monkeypatch.setattr(Dataset, "schema", raiser)


def test_ray_aggregates_raise(ray_session):
    import ray.data
    from ray.data.grouped_data import GroupedData

    ds = ray.data.from_items([{"x": 1}, {"x": 2}])
    with pytest.raises(AssertionError, match="Dataset.sum"):
        ds.sum("x")
    # built directly: ``ds.groupby`` reads the schema to check its key
    with pytest.raises(AssertionError, match="GroupedData.aggregate"):
        GroupedData(ds, "x", num_partitions=None).aggregate()
    with pytest.raises(AssertionError, match="Dataset.schema"):
        ds.schema()


def _connect(sf_dir: str):
    c = duckdb.connect()
    for t in TABLES:
        c.execute(
            f"CREATE VIEW {t} AS SELECT * FROM '{os.path.join(sf_dir, t)}.parquet'"
        )
    return c


@pytest.fixture(scope="module")
def con():
    return _connect(SF_DIR)


def _sql_checked():
    from searchengine_ray.pipelines import queries as Q

    oracle = Q.oracle_sql()
    return sorted(oracle.keys())


def _assert_matches(con, name, sf_dir=SF_DIR):
    from searchengine_ray.pipelines import queries as Q

    got = _canon(_to_pandas(Q.queries()[name](sf_dir)))
    want = _canon(con.execute(Q.oracle_sql()[name]).df())
    assert list(got.columns) == list(want.columns), (
        got.columns,
        want.columns,
    )
    assert len(got) == len(want), (len(got), len(want))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.parametrize("name", _sql_checked())
def test_query_matches_oracle(ray_session, con, name):
    _assert_matches(con, name)


@pytest.mark.parametrize("name", _sql_checked())
def test_query_matches_oracle_multiblock(ray_session, con, monkeypatch, name):
    """Every read split into 8 blocks (2× the session's 4 CPUs, Ray's
    own split) instead of the one block a test-scale table gets: the
    cross-block paths — ``combine``'s fold of several partials,
    ``keyed_map``'s one partition merged from many blocks — still
    equal DuckDB."""
    from searchengine_ray.sources import storage

    monkeypatch.setattr(storage, "read_blocks", lambda paths: 8)
    _assert_matches(con, name)


@pytest.mark.parametrize("name", _sql_checked())
def test_query_matches_oracle_three_partitions(
    ray_session, con, monkeypatch, three_partitions, name
):
    """Every keyed shuffle forced to 3 partitions over 8-block reads:
    a test-scale shuffle is one partition (its plan reads under 32
    MiB), so this run is the one that checks the pad / sort path —
    rows of one key from many blocks meeting in one partition, and
    partitions no row reaches — against DuckDB."""
    from searchengine_ray.sources import storage

    monkeypatch.setattr(storage, "read_blocks", lambda paths: 8)
    _assert_matches(con, name)


ROWS_ONLY = [
    "q17_simhash",
    "q20_phash_dedup",
    "q24_multimodal",
    "q28_ivf_topk",
    "q29_embedding_neardup",
    "q30_fingerprint",
    "q53_kmeans_clusters",
    "q54_weighted_sample",
    "q64_image_funnel",
]


@pytest.mark.parametrize("name", ROWS_ONLY)
def test_rows_only_queries_run(ray_session, name):
    from searchengine_ray.pipelines import queries as Q

    got = _to_pandas(Q.queries()[name](SF_DIR))
    assert got is not None and len(got.columns) > 0


def _head_copy(tmp_path_factory, rows: int) -> str:
    """A copy of every sf0.001 table cut to its first ``rows`` rows
    (same schema)."""
    import pyarrow.parquet as pq

    d = tmp_path_factory.mktemp(f"sf_head{rows}")
    for t in TABLES:
        tbl = pq.read_table(os.path.join(SF_DIR, f"{t}.parquet"))
        pq.write_table(tbl.slice(0, rows), d / f"{t}.parquet")
    return str(d)


@pytest.fixture(scope="module")
def empty_dir(tmp_path_factory):
    return _head_copy(tmp_path_factory, 0)


@pytest.fixture(scope="module")
def one_row_dir(tmp_path_factory):
    return _head_copy(tmp_path_factory, 1)


@pytest.mark.parametrize("name", _sql_checked())
def test_empty_input_matches_oracle(ray_session, empty_dir, name):
    """Zero rows everywhere: Ray runs no UDF, so every result is typed
    from its plan; grouped results are empty, global aggregates one row
    of NULLs and zero counts, as in SQL."""
    _assert_matches(_connect(empty_dir), name, empty_dir)


@pytest.mark.parametrize("name", ROWS_ONLY + ["q43_hll_distinct"])
def test_rows_only_queries_on_empty_input(ray_session, empty_dir, name):
    """The queries no SQL checks still run on zero rows and type their
    result (q43's estimate over no rows is 0, as COUNT(DISTINCT))."""
    from searchengine_ray.pipelines import queries as Q

    got = _to_pandas(Q.queries()[name](empty_dir))
    assert got is not None and len(got.columns) > 0
    if name == "q43_hll_distinct":
        assert got["approx"].tolist() == [0, 0]


@pytest.mark.parametrize("name", _sql_checked())
def test_one_row_matches_oracle(ray_session, one_row_dir, name):
    """One row per table: most keyed partitions are empty, and most
    joins and lookups find nothing (an orphan key drops its row)."""
    _assert_matches(_connect(one_row_dir), name, one_row_dir)


@pytest.mark.parametrize("name", _sql_checked())
def test_empty_and_one_row_match_oracle_three_partitions(
    ray_session, empty_dir, one_row_dir, three_partitions, name
):
    """The zero-row and one-row checks with every shuffle at 3
    partitions: a pad / sort shuffle of no rows, and of rows that leave
    most partitions empty."""
    _assert_matches(_connect(empty_dir), name, empty_dir)
    _assert_matches(_connect(one_row_dir), name, one_row_dir)


@pytest.mark.parametrize("name", ROWS_ONLY)
def test_rows_only_queries_same_at_three_partitions(
    ray_session, monkeypatch, empty_dir, name
):
    """The queries no SQL checks give the same rows through the pad /
    sort path (every shuffle forced to 3 partitions) as through the one
    partition a test-scale shuffle gets, and still type an empty
    result."""
    from searchengine_ray.pipelines import queries as Q
    from searchengine_ray.stages import keyed

    one = _canon(_to_pandas(Q.queries()[name](SF_DIR)))
    monkeypatch.setattr(keyed, "_partitions", lambda ds: 3)
    three = _canon(_to_pandas(Q.queries()[name](SF_DIR)))
    pd.testing.assert_frame_equal(one, three)
    test_rows_only_queries_on_empty_input(ray_session, empty_dir, name)


def test_q84_constant_x_is_null(ray_session, tmp_path):
    """A group whose l_quantity never varies (or has one row) has no
    regression line: slope and intercept are NaN where DuckDB's
    REGR_SLOPE / REGR_INTERCEPT return NULL."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from searchengine_ray.pipelines import queries as Q

    pq.write_table(
        pa.table(
            {
                "l_returnflag": ["A"] * 3 + ["N"] * 4 + ["R"],
                # A's Σxy−ΣxΣy/n rounds to −1.8e-15, not 0: dividing by
                # the exact-zero variance would give ±inf, not NULL
                "l_quantity": [3.0] * 3 + [1.0, 2.0, 3.0, 7.0] + [4.0],
                "l_extendedprice": [0.1, 0.7, 0.2,
                                    3.0, 5.0, 8.0, 15.0, 9.0],
            }
        ),
        tmp_path / "lineitem.parquet",
    )
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW lineitem AS SELECT * FROM '{tmp_path / 'lineitem.parquet'}'"
    )
    got = _canon(Q.q84_group_regression(str(tmp_path)))
    want = _canon(con.execute(Q.SQL_Q84).df())
    assert got[["slope", "intercept"]].isna().sum().tolist() == [2, 2]
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_q80_constant_column_is_null(ray_session, tmp_path):
    """A group whose x (A) or y (F) never varies, or that has one row
    (R), has no correlation: NaN where DuckDB's CORR returns NULL.
    A's float variance rounds off zero, which used to give -inf."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from searchengine_ray.pipelines import queries as Q

    pq.write_table(
        pa.table(
            {
                "l_returnflag": ["A"] * 3 + ["F"] * 3 + ["N"] * 4 + ["R"],
                "l_quantity": [3.0] * 3 + [1.0, 2.0, 5.0]
                + [1.0, 2.0, 3.0, 7.0] + [4.0],
                "l_extendedprice": [0.1, 0.7, 0.2] + [0.3] * 3
                + [3.0, 5.0, 8.0, 15.0] + [9.0],
            }
        ),
        tmp_path / "lineitem.parquet",
    )
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW lineitem AS SELECT * FROM '{tmp_path / 'lineitem.parquet'}'"
    )
    got = _canon(Q.q80_group_corr(str(tmp_path)))
    want = _canon(con.execute(Q.SQL_Q80).df())
    assert got["corr_qty_price"].isna().sum() == 3
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_dimension_lookups_are_inner_joins(ray_session, tmp_path):
    """q05, q34 and q36 look nation and region names up in a broadcast
    dimension; SQL's JOIN drops a row whose key the dimension lacks
    (customer 4 and supplier 2 name nation 99, nation 2 names region 9),
    where an empty-name group would be an extra row."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from searchengine_ray.pipelines import queries as Q

    i32 = pa.int32()
    tables = {
        "nation": pa.table({"n_nationkey": pa.array([0, 1, 2], i32),
                            "n_name": ["ALGERIA", "BRAZIL", "CHINA"],
                            "n_regionkey": pa.array([0, 1, 9], i32)}),
        "region": pa.table({"r_regionkey": pa.array([0, 1], i32),
                            "r_name": ["AFRICA", "AMERICA"]}),
        "customer": pa.table({"c_custkey": [1, 2, 3, 4],
                              "c_nationkey": pa.array([0, 1, 2, 99], i32)}),
        "orders": pa.table({"o_orderkey": [10, 11, 12, 13, 14],
                            "o_custkey": [1, 2, 3, 4, 4],
                            "o_totalprice": [1.5, 2.25, 3.0, 4.75, 5.5]}),
        "supplier": pa.table({"s_suppkey": [1, 2, 3],
                              "s_nationkey": pa.array([0, 99, 1], i32),
                              "s_acctbal": [10.0, -2.5, 7.25]}),
    }
    con = duckdb.connect()
    for t, tbl in tables.items():
        pq.write_table(tbl, tmp_path / f"{t}.parquet")
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{tmp_path / t}.parquet'")
    for name in ("q05_nation_orders", "q34_region_revenue", "q36_supplier_balance"):
        got = _canon(Q.queries()[name](str(tmp_path)))
        want = _canon(con.execute(Q.oracle_sql()[name]).df())
        assert "" not in set(got.iloc[:, 0]), name
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_dimension_lookups_are_inner_joins_three_partitions(
    ray_session, three_partitions, tmp_path
):
    """The same with q05's and q34's joins at 3 partitions."""
    test_dimension_lookups_are_inner_joins(ray_session, tmp_path)


def test_q28_without_query_vector_is_empty(ray_session, tmp_path):
    """q28's query vector is vec_id 0: a table without it has no
    neighbors, a typed zero-row result, as q15 gives."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from searchengine_ray.pipelines import queries as Q

    rng = np.random.default_rng(3)
    pq.write_table(
        pa.table({
            "vec_id": np.arange(1, 41, dtype=np.int64),
            "embedding": pa.array(list(rng.standard_normal((40, 8))),
                                  pa.list_(pa.float32())),
            "label": pa.array(np.zeros(40, np.int32)),
        }),
        tmp_path / "embeddings.parquet",
    )
    got = Q.q28_ivf_topk(str(tmp_path))
    assert len(got) == 0 and list(got.columns) == ["vec_id", "cos_sim"]
    assert list(got.dtypes.astype(str)) == ["int64", "float64"]
