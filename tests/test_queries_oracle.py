"""Local replica of the driver's correctness gate: run every
``queries()`` entry at sf0.001 and compare row count + schema + an
order-insensitive value hash against its ``oracle_sql()`` via DuckDB."""

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


def test_ray_aggregates_raise(ray_session):
    import ray.data

    ds = ray.data.from_items([{"x": 1}, {"x": 2}])
    with pytest.raises(AssertionError, match="Dataset.sum"):
        ds.sum("x")
    with pytest.raises(AssertionError, match="GroupedData.aggregate"):
        ds.groupby("x").aggregate()


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(
            f"CREATE VIEW {t} AS SELECT * FROM '{os.path.join(SF_DIR, t)}.parquet'"
        )
    return c


def _sql_checked():
    from searchengine_ray.pipelines import queries as Q

    oracle = Q.oracle_sql()
    return sorted(oracle.keys())


def _assert_matches(con, name):
    from searchengine_ray.pipelines import queries as Q

    got = _canon(_to_pandas(Q.queries()[name](SF_DIR)))
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
    ``keyed_map``'s multi-block partitions — still equal DuckDB."""
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
    # empty results legitimately lose their schema through Ray Data
    assert got is not None and (len(got) == 0 or len(got.columns) > 0)


# grouped aggregates and top-k queries whose zero-row result diverged
# from DuckDB's typed empty one (a KeyError or a frame with no columns),
# plus q06's global aggregate (one row: NULL sum, zero count), q55's
# decontamination, q15's top-k without its query vector (IndexError)
# and q49's Count-Min fold (KeyError)
EMPTY_INPUT = [
    "q01_pricing_summary",
    "q06_revenue_filter",
    "q08_events_hourly",
    "q12_word_counts",
    "q15_embedding_topk",
    "q26_brand_volume",
    "q27_best_order_per_customer",
    "q35_props_extract",
    "q39_token_histogram",
    "q49_heavy_tokens",
    "q55_decontaminate",
    "q56_top3_orders_per_customer",
    "q59_source_quota",
    "q60_zscore",
    "q67_salted_groupby",
    "q71_stratified_sample",
    "q73_span_removal",
    "q80_group_corr",
    "q81_freq_spectrum",
    "q84_group_regression",
]


@pytest.fixture(scope="module")
def empty_dir(tmp_path_factory):
    """A zero-row copy of every sf0.001 table (same schema)."""
    import pyarrow.parquet as pq

    d = tmp_path_factory.mktemp("sf_empty")
    for t in TABLES:
        tbl = pq.read_table(os.path.join(SF_DIR, f"{t}.parquet"))
        pq.write_table(tbl.slice(0, 0), d / f"{t}.parquet")
    return str(d)


@pytest.mark.parametrize("name", EMPTY_INPUT)
def test_empty_input_matches_oracle(ray_session, empty_dir, name):
    from searchengine_ray.pipelines import queries as Q

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM '{os.path.join(empty_dir, t)}.parquet'"
        )
    got = _canon(_to_pandas(Q.queries()[name](empty_dir)))
    want = _canon(con.execute(Q.oracle_sql()[name]).df())
    assert list(got.columns) == list(want.columns), (got.columns, want.columns)
    assert len(got) == len(want), (len(got), len(want))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


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
