"""Dedup family + similarity search tests (training-data operators)."""

import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="module")
def docs_with_dups():
    rng = np.random.default_rng(3)
    vocab = [f"tok{i}" for i in range(50)]
    base = [" ".join(rng.choice(vocab, 40)) for _ in range(30)]
    texts = list(base)
    texts.append(base[0])                      # exact dup of 0
    near = base[1].split()
    near[5] = "tokX"                           # near dup of 1
    texts.append(" ".join(near))
    return pd.DataFrame({"doc_id": range(len(texts)), "text": texts})


def test_exact_dedup(ray_session, docs_with_dups):
    import ray

    from searchengine_ray.stages.dedup import exact_dedup

    ds = ray.data.from_pandas(docs_with_dups)
    out = exact_dedup(ds).to_pandas()
    assert len(out) == len(docs_with_dups) - 1  # one exact dup removed
    assert out[out["doc_id"] == 0]["dup_count"].iloc[0] == 2


def _lsh_reference(df: pd.DataFrame) -> np.ndarray:
    """Brute-force LSH candidate docs: the signatures of the whole input
    at once, and every doc whose values in some band equal those of a
    different ``doc_id``."""
    from searchengine_ray.stages.dedup import LSH_BANDS, NUM_PERM, minhash_signatures

    sig = minhash_signatures(df["text"])
    ids = df["doc_id"].to_numpy(np.int64)
    r = NUM_PERM // LSH_BANDS
    found = set()
    for band in range(LSH_BANDS):
        owners = {}
        for i, key in zip(ids, sig[:, band * r : (band + 1) * r]):
            owners.setdefault(key.tobytes(), set()).add(int(i))
        for members in owners.values():
            if len(members) > 1:
                found |= members
    return np.array(sorted(found), np.int64)


def _lsh_case(name: str, docs_with_dups: pd.DataFrame) -> pd.DataFrame:
    if name == "dups":
        return docs_with_dups
    if name == "identical":
        return pd.DataFrame({"doc_id": range(300), "text": ["one two three four"] * 300})
    if name == "repeated_id":
        # 5 twice with one text (no other id: not a candidate), 7 twice
        # with two texts, one of them shared with 8
        texts = ["p q r s t", "p q r s t", "u v w x", "a b c d e", "a b c d e"]
        return pd.DataFrame({"doc_id": [5, 5, 7, 7, 8], "text": texts})
    if name == "degenerate":
        # empty and null texts have no shingles (one shared signature);
        # shorter-than-3-token texts are one all-tokens shingle
        texts = ["", None, "xy", "a b", "a b", "b a", "alpha beta gamma"]
        return pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    assert name == "zero_rows"
    return docs_with_dups.iloc[:0]


@pytest.mark.parametrize("npart", [1, 3, 32])
@pytest.mark.parametrize(
    "case", ["dups", "identical", "repeated_id", "degenerate", "zero_rows"]
)
def test_lsh_candidate_docs_match_brute_force(
    ray_session, monkeypatch, docs_with_dups, case, npart
):
    """``lsh_candidate_docs`` equals the brute-force reference over
    inputs split across 3 blocks, at 1, 3 and 32 shuffle partitions.
    At 32, most of the identical case's partitions get no bucket: the
    regression where empty shuffle partitions emitted schema-less
    blocks."""
    import pyarrow as pa
    import ray

    from searchengine_ray.stages import dedup, keyed

    df = _lsh_case(case, docs_with_dups)
    monkeypatch.setattr(keyed, "_partitions", lambda ds: npart)
    if len(df):
        n = len(df)
        ds = ray.data.from_pandas([df.iloc[k * n // 3 : (k + 1) * n // 3] for k in range(3)])
    else:
        ds = ray.data.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
    got = dedup.lsh_candidate_docs(ds)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, _lsh_reference(df))
    if case == "dups":
        assert {0, 30, 1, 31} <= set(got)  # planted exact and near dups
    if case == "zero_rows":
        assert len(got) == 0


def test_lsh_mass_duplicate_all_candidates(ray_session):
    """Adversarial: 10k IDENTICAL docs land in ONE bucket per band, a
    bucket of ~5e7 pairs; every doc is a candidate, and finding them
    costs time linear in the docs."""
    import ray

    from searchengine_ray.stages import dedup

    n = 10_000
    df = pd.DataFrame(
        {"doc_id": range(n), "text": ["alpha beta gamma delta epsilon"] * n}
    )
    got = dedup.lsh_candidate_docs(ray.data.from_pandas(df))
    np.testing.assert_array_equal(got, np.arange(n))


def test_minhash_signature_semantics():
    """Vectorized signatures: exact dups get identical signatures;
    disjoint docs stay far; an empty or null doc keeps the sentinel."""
    from searchengine_ray.stages.dedup import _MERSENNE, minhash_signatures

    texts = [
        "alpha beta gamma delta epsilon zeta",
        "alpha beta gamma delta epsilon zeta",   # exact dup of 0
        "one two three four five six seven",      # disjoint
        "xy",                                      # shorter than k
        "",                                        # empty
        None,                                      # null
    ]
    m = minhash_signatures(pd.Series(texts))
    assert m.shape == (6, 64) and m.dtype == np.uint64
    assert (m[0] == m[1]).all()
    assert (m[0] == m[2]).mean() < 0.3
    assert (m[3] < np.uint64(_MERSENNE)).all()  # one all-tokens shingle
    assert (m[4:] == np.uint64(_MERSENNE)).all()  # no shingles
    assert minhash_signatures([]).shape == (0, 64)


def test_simhash_properties(ray_session, docs_with_dups):
    from searchengine_ray.stages.dedup import simhash_batch
    from searchengine_ray.sources.codec import hamming64

    out = simhash_batch(docs_with_dups)
    sh = out.set_index("doc_id")["simhash"]
    assert sh[0] == sh[30]  # exact dup → identical simhash
    d_near = hamming64(np.array([sh[1]]), np.array([sh[31]]))[0]
    d_far = hamming64(np.array([sh[1]]), np.array([sh[20]]))[0]
    assert d_near < d_far  # near-dup closer than unrelated


def test_phash_dedup(ray_session):
    import ray

    from searchengine_ray.sources.synth import gen_images
    from searchengine_ray.stages.dedup import phash_dedup

    images, _ = gen_images(100, seed=42, dup_rate=0.1)
    ds = ray.data.from_arrow(images.select(["image_id", "phash"]))
    out = phash_dedup(ds).to_pandas()
    assert len(out) < 100
    assert out["dup_count"].sum() == 100  # partition of all rows


def test_cosine_topk_exact(ray_session):
    import ray

    from searchengine_ray.stages.similarity import cosine_topk

    rng = np.random.default_rng(5)
    emb = rng.standard_normal((200, 16))
    df = pd.DataFrame({"vec_id": range(200), "embedding": list(emb)})
    q = emb[7]
    out = cosine_topk(ray.data.from_pandas(df), q[None, :], k=5)
    # brute-force ground truth
    nrm = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    sims = nrm @ (q / np.linalg.norm(q))
    want = set(np.argsort(-sims)[:5].tolist())
    assert set(out["vec_id"]) == want
    assert out["vec_id"].iloc[0] == 7  # self is top-1


def test_ivf_topk_recall(ray_session):
    import ray

    from searchengine_ray.stages.similarity import (
        cosine_topk,
        ivf_build_centroids,
        ivf_topk,
    )

    rng = np.random.default_rng(6)
    # clustered data so IVF pruning is meaningful
    centers = rng.standard_normal((8, 16)) * 4
    emb = np.vstack([c + rng.standard_normal((40, 16)) for c in centers])
    df = pd.DataFrame({"vec_id": range(len(emb)), "embedding": list(emb)})
    ds = ray.data.from_pandas(df)
    cent = ivf_build_centroids(ds, n_centroids=8, seed=1)
    q = emb[3]
    exact = set(cosine_topk(ds, q[None, :], k=5)["vec_id"])
    approx = set(ivf_topk(ds, q[None, :], cent, k=5, n_probe=3)["vec_id"])
    assert len(exact & approx) >= 3  # decent recall on clustered data


def test_ivf_recall_on_embeddings_table(ray_session):
    """Quantified IVF recall on q28's own fixture: top-10 by ivf_topk
    (q28 params: 8 centroids, n_probe=3) vs the exact cosine_topk over
    the sf0.001 embeddings table, with planted perturbations of the
    query vector that any sane ANN must recover (they share the
    query's IVF cell)."""
    import os

    import pyarrow.parquet as pq
    import ray

    from searchengine_ray.sources.synth import gen_planted_neardups
    from searchengine_ray.stages.similarity import (
        cosine_topk,
        ivf_build_centroids,
        ivf_topk,
    )

    emb = pq.read_table(
        os.path.join("/root/testdata/sf0.001", "embeddings.parquet"),
        columns=["vec_id", "embedding"],
    ).to_pandas()
    q = np.asarray(emb.loc[emb["vec_id"] == 0, "embedding"].iloc[0])
    ids, noisy = gen_planted_neardups(
        np.stack([q] * 5), np.zeros(5, np.int64) + np.arange(5), n=5
    )
    full = pd.concat(
        [emb, pd.DataFrame({"vec_id": ids, "embedding": list(noisy)})],
        ignore_index=True,
    )
    ds = ray.data.from_pandas(full)
    cent = ivf_build_centroids(ds, n_centroids=8)
    exact = cosine_topk(ds, q[None, :], k=10)
    # n_probe sweep: recall must be reference-grade (>= 0.9) at the
    # q28 operating point (n_probe=3) and total with every cell probed
    recalls = {}
    for n_probe in (1, 2, 3, 8):
        approx = ivf_topk(ds, q[None, :], cent, k=10, n_probe=n_probe)
        recalls[n_probe] = len(set(exact["vec_id"]) & set(approx["vec_id"])) / 10
    planted = set(ids.tolist())
    approx3 = ivf_topk(ds, q[None, :], cent, k=10, n_probe=3)
    assert len(planted & set(approx3["vec_id"])) >= 4
    assert recalls[3] >= 0.9, recalls
    assert recalls[8] == 1.0, recalls  # all cells probed == exact
    assert recalls[1] <= recalls[2] <= recalls[3] <= recalls[8], recalls


def test_embedding_neardup(ray_session):
    import ray

    from searchengine_ray.stages.dedup import embedding_neardup_pairs

    rng = np.random.default_rng(7)
    emb = rng.standard_normal((50, 8))
    emb[10] = emb[4] + 1e-4  # near-identical pair
    df = pd.DataFrame({"vec_id": range(50), "embedding": list(emb)})
    out = embedding_neardup_pairs(
        ray.data.from_pandas(df), threshold=0.999
    ).to_pandas()
    pairs = set(zip(out.get("id_a", []), out.get("id_b", [])))
    assert (4, 10) in pairs


def test_phash_near_pairs(ray_session):
    import ray

    from searchengine_ray.sources.codec import phash64
    from searchengine_ray.stages.dedup import phash_near_pairs

    rng = np.random.default_rng(9)
    base = rng.integers(0, 256, size=(24, 32, 3)).astype(np.uint8)
    ph0 = phash64(base)
    near = ph0 ^ 0b101  # flip 2 bits → hamming 2 (within one band)
    far = rng.integers(-2**62, 2**62, size=20)
    df = pd.DataFrame(
        {
            "image_id": [f"i{k}" for k in range(22)],
            "phash": np.array([ph0, near] + list(far), np.int64),
        }
    )
    out = phash_near_pairs(ray.data.from_pandas(df), max_hamming=6)
    pairs = set(zip(out["id_a"], out["id_b"]))
    assert ("i0", "i1") in pairs
    assert out.set_index(["id_a", "id_b"]).loc[("i0", "i1"), "hamming"] == 2


def test_phash_near_pairs_brute_force(ray_session):
    """``phash_near_pairs`` lists each pair once, exactly the pairs a
    brute-force scan finds: Hamming ≤ 6 with at least one equal 16-bit
    band, over q33's image fixture (many pairs agree in 2+ bands)."""
    import ray

    from searchengine_ray.sources.codec import hamming64
    from searchengine_ray.sources.synth import gen_images
    from searchengine_ray.stages.dedup import phash_near_pairs

    images, _ = gen_images(400, seed=42, dup_rate=0.05)
    ids = np.array(images["image_id"].to_pylist())
    ph = np.array(images["phash"].to_pylist(), np.int64)
    ia, ib = np.triu_indices(len(ph), k=1)
    x = (ph[ia] ^ ph[ib]).view(np.uint64)
    lanes = (x[:, None] >> (np.uint64(16) * np.arange(4, dtype=np.uint64))) & np.uint64(0xFFFF)
    d = hamming64(ph[ia], ph[ib])
    hit = (lanes == 0).any(axis=1) & (d <= 6)
    assert (ids[:-1] < ids[1:]).all()  # so ia < ib orders the ids too
    want = pd.DataFrame(
        {"id_a": ids[ia[hit]], "id_b": ids[ib[hit]], "hamming": d[hit].astype(np.int64)}
    )
    assert ((lanes == 0).sum(axis=1)[hit] >= 2).any()

    ds = ray.data.from_arrow(images.select(["image_id", "phash"]))
    out = phash_near_pairs(ds, max_hamming=6)
    pd.testing.assert_frame_equal(out, want)


def test_q29_planted_neardups_recovered(ray_session):
    """q29 plants perturbed copies (vec_id + 1_000_000) of the first 20
    embeddings; the hyperplane-LSH pipeline must recover every planted
    pair — a real recall check, not a 0-row no-op."""
    from searchengine_ray.pipelines.queries import q29_embedding_neardup

    out = q29_embedding_neardup("/root/testdata/sf0.001")
    if hasattr(out, "to_pandas"):
        out = out.to_pandas()
    pairs = set(zip(out["id_a"], out["id_b"]))
    planted = {(i, i + 1_000_000) for i in range(20)}
    assert planted <= pairs, sorted(planted - pairs)


def test_kmeans_recovers_planted_blobs(ray_session):
    import ray

    from searchengine_ray.stages.similarity import kmeans, kmeans_assign

    rng = np.random.default_rng(23)
    centers = rng.normal(0, 10, (4, 16))
    rows = []
    for c in range(4):
        pts = centers[c] + rng.normal(0, 0.1, (100, 16))
        rows.extend({"vec_id": c * 100 + i, "embedding": p} for i, p in enumerate(pts))
    df = pd.DataFrame(rows)
    ds = ray.data.from_pandas(df).repartition(6)
    cent, iters = kmeans(ds, k=4, iters=20, sample=400)
    assert iters < 20  # converged by tol, not exhaustion
    labeled = kmeans_assign(ds, cent).to_pandas()
    # every planted blob maps to exactly one recovered cluster
    purity = labeled.groupby(labeled["vec_id"] // 100)["cluster_id"].nunique()
    assert (purity == 1).all()
    assert labeled["cluster_id"].nunique() == 4
    # recovered centroids sit on the planted centers
    got = np.sort(np.stack([c for c in cent]), axis=0)
    want = np.sort(centers, axis=0)
    assert np.abs(got - want).max() < 0.1


def test_dedup_at_three_partitions(ray_session, three_partitions, docs_with_dups):
    """The checks above that run a keyed shuffle, with every shuffle at
    3 partitions (the pad / sort path) instead of the one a test-scale
    input gets."""
    test_exact_dedup(ray_session, docs_with_dups)
    test_lsh_mass_duplicate_all_candidates(ray_session)
    test_phash_dedup(ray_session)
    test_embedding_neardup(ray_session)
    test_phash_near_pairs(ray_session)
    test_phash_near_pairs_brute_force(ray_session)
    test_q29_planted_neardups_recovered(ray_session)
