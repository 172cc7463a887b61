"""End-to-end curation funnel (pipelines/curate.py): the written
corpus agrees with the funnel counts (which the oracle suite checks
against the six-stage DuckDB CTE chain via q63), the manifest's stage
counts are a monotone funnel, and every written row passes its own
stage gates (clean, unique text, uncontaminated, split = hash rule)."""

import json
import os

import duckdb
import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def funnel_out(ray_session, tmp_path_factory):
    from searchengine_ray.pipelines.curate import curation_funnel

    out = str(tmp_path_factory.mktemp("curated"))
    counts = curation_funnel(SF, out_dir=out)
    return out, counts


def test_written_corpus_matches_counts(funnel_out):
    out, counts = funnel_out
    df = duckdb.sql(
        f"SELECT split, source, COUNT(*) AS n_docs, SUM(n_tokens) AS n_tokens"
        f" FROM '{out}/*.parquet' GROUP BY 1, 2 ORDER BY 1, 2"
    ).df()
    got = counts.sort_values(["split", "source"]).reset_index(drop=True)
    assert len(df) == len(got)
    assert (df["n_docs"].to_numpy(np.int64) == got["n_docs"].to_numpy()).all()
    assert (
        df["n_tokens"].to_numpy(np.int64) == got["n_tokens"].to_numpy()
    ).all()


def test_manifest_funnel_monotone(funnel_out):
    out, counts = funnel_out
    m = json.load(open(os.path.join(out, "MANIFEST.json")))
    st = m["stages"]
    assert st["cleaned"] >= st["exact_dedup"] >= st["final"]
    assert st["final"] == int(counts["n_docs"].sum())
    assert st["neardup_dropped"] >= 0 and m["bench_ngrams"] > 0
    assert sum(m["splits"].values()) == st["final"]


def test_written_rows_pass_stage_invariants(funnel_out):
    out, _counts = funnel_out
    df = duckdb.sql(
        f"SELECT doc_id, text, n_tokens, split FROM '{out}/*.parquet'"
    ).df()
    # no benchmark docs, no exact dups, split matches the hash rule
    ids = df["doc_id"].to_numpy(np.int64)
    assert (ids % 7 != 0).all()
    assert df["text"].nunique() == len(df)
    h = (ids.astype(np.uint64) * np.uint64(2654435761)) % np.uint64(1 << 32)
    want = np.where(
        h < np.uint64(int(0.8 * (1 << 32))),
        "train",
        np.where(h < np.uint64(int(0.9 * (1 << 32))), "val", "test"),
    )
    assert (df["split"].to_numpy() == want).all()
    # decontamination: no written doc shares an 8-gram with the holdout
    from searchengine_ray.stages.dedup import _distinct_shingles

    bench = duckdb.sql(
        f"SELECT text FROM '{SF}/documents.parquet' WHERE doc_id % 7 = 0"
    ).df()
    _d, bh, _l = _distinct_shingles(bench["text"], 8, short_fallback=False)
    bh = np.unique(bh)
    didx, sh, _l = _distinct_shingles(df["text"], 8, short_fallback=False)
    if len(sh) and len(bh):
        pos = np.searchsorted(bh, sh)
        hit = (pos < len(bh)) & (bh[np.minimum(pos, len(bh) - 1)] == sh)
        assert not hit.any()


def test_image_funnel_invariants(ray_session, tmp_path):
    """Image funnel: planted exact dups are removed, undersized and
    corrupt images are gated, splits follow the hash rule, manifest is
    a monotone funnel."""
    import pyarrow as pa

    from searchengine_ray.pipelines.curate import image_curation_funnel
    from searchengine_ray.sources.synth import gen_images

    images, _truth = gen_images(120, seed=7, dup_rate=0.1)
    # plant: one undersized image and one corrupt payload
    bad = pa.table(
        {
            "image_id": pa.array(["img90000001", "img90000002"]),
            "bytes": pa.array(
                [images["bytes"][0].as_py(), b"not an image"], pa.binary()
            ),
            "w": pa.array([4, 16], pa.int32()),
            "h": pa.array([4, 16], pa.int32()),
            "fmt": pa.array(["png", "png"]),
            "caption": pa.array(["tiny", "corrupt"]),
            "phash": pa.array(
                [images["phash"][0].as_py(), 0], pa.int64()
            ),
        }
    )
    inp = pa.concat_tables([images, bad])
    out = str(tmp_path / "imgout")
    counts = image_curation_funnel(inp, out_dir=out, max_hamming=2)

    m = json.load(open(os.path.join(out, "MANIFEST.json")))
    st = m["stages"]
    assert st["raw"] == 122
    # both planted bad rows gated (undersized fails the size gate even
    # though its bytes equal a valid image's; corrupt fails decode)
    assert st["decoded_and_sized"] <= 120
    assert (
        st["raw"]
        >= st["decoded_and_sized"]
        >= st["phash_exact_dedup"]
        >= st["final"]
    )
    assert st["final"] == int(counts["n_images"].sum())

    df = duckdb.sql(
        f"SELECT image_id, phash, split FROM '{out}/*.parquet'"
    ).df()
    assert len(df) == st["final"]
    assert df["phash"].nunique() == len(df)  # exact phash dedup held
    assert "img90000001" not in set(df["image_id"])
    assert "img90000002" not in set(df["image_id"])
    ids = df["image_id"].str[3:].astype("int64").to_numpy()
    h = (ids.astype(np.uint64) * np.uint64(2654435761)) % np.uint64(1 << 32)
    want = np.where(
        h < np.uint64(int(0.8 * (1 << 32))),
        "train",
        np.where(h < np.uint64(int(0.9 * (1 << 32))), "val", "test"),
    )
    assert (df["split"].to_numpy() == want).all()


def test_funnel_same_at_three_partitions(ray_session, funnel_out, three_partitions, tmp_path):
    """The funnel with every keyed shuffle at 3 partitions (the pad /
    sort path) writes the same rows and counts as at one, and the image
    funnel keeps its invariants."""
    import pandas as pd

    from searchengine_ray.pipelines.curate import curation_funnel

    (tmp_path / "img").mkdir()
    test_image_funnel_invariants(ray_session, tmp_path / "img")
    out, counts = funnel_out
    got = curation_funnel(SF, out_dir=str(tmp_path / "text"))
    pd.testing.assert_frame_equal(got, counts)
    rows = "SELECT * FROM '{}/*.parquet' ORDER BY doc_id"
    pd.testing.assert_frame_equal(
        duckdb.sql(rows.format(tmp_path / "text")).df(), duckdb.sql(rows.format(out)).df()
    )
