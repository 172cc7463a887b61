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


def test_minhash_lsh_finds_near_dups(ray_session, docs_with_dups):
    import ray

    from searchengine_ray.stages.dedup import minhash_lsh_pairs

    ds = ray.data.from_pandas(docs_with_dups)
    pairs = minhash_lsh_pairs(ds, threshold=0.5)
    found = set(zip(pairs["id_a"], pairs["id_b"]))
    assert (0, 30) in found            # exact dup → jaccard 1.0
    assert (1, 31) in found            # near dup
    exact = pairs[(pairs["id_a"] == 0) & (pairs["id_b"] == 30)]
    assert float(exact["jaccard_est"].iloc[0]) == 1.0


def test_minhash_lsh_many_partitions(ray_session, monkeypatch):
    """Regression for a crash at 32 partitions: many candidate
    hash-shuffle partitions are empty and used to emit schema-less
    blocks that broke Dataset.join with ArrowInvalid.  Force 32
    partitions by patching the keyed shuffle's sizing, run on enough
    docs with the production code path and assert the pipeline
    completes and finds the planted dup."""
    import ray

    from searchengine_ray.stages import dedup, keyed

    rng = np.random.default_rng(16)
    vocab = [f"w{i}" for i in range(200)]
    texts = [" ".join(rng.choice(vocab, 30)) for _ in range(500)]
    texts[499] = texts[0]  # planted exact dup
    df = pd.DataFrame({"doc_id": range(500), "text": texts})
    monkeypatch.setattr(keyed, "_partitions", lambda ds: 32)
    pairs = dedup.minhash_lsh_pairs(ray.data.from_pandas(df), threshold=0.5)
    found = set(zip(pairs["id_a"], pairs["id_b"]))
    assert (0, 499) in found


def test_lsh_bucket_cap_mass_duplicate(ray_session):
    """Adversarial: 10k IDENTICAL docs land in ONE bucket per band.
    Uncapped that is 10k·9999/2 ≈ 5e7 pairs per band × 32 bands; the
    _LSH_BUCKET_CAP guard must emit only star pairs against the
    bucket min-id so the candidate list is linear (n−1 pairs) and the
    run completes quickly.  Cluster semantics are preserved: every
    doc is reachable from doc 0 through the hub."""
    import ray

    from searchengine_ray.stages import dedup

    n = 10_000
    df = pd.DataFrame(
        {"doc_id": range(n), "text": ["alpha beta gamma delta epsilon"] * n}
    )
    cand = dedup.minhash_lsh_candidates(ray.data.from_pandas(df))
    # star topology: exactly n−1 pairs, all anchored at min id 0
    assert len(cand) == n - 1
    assert (cand["id_a"] == 0).all()
    assert set(cand["id_b"]) == set(range(1, n))


def test_lsh_bucket_cap_kwarg(ray_session):
    """``cap=None`` turns the bucket cap off: 300 identical docs (one
    300-member bucket per band) give the full clique; the default cap
    of 256 gives the 299 star pairs."""
    import ray

    from searchengine_ray.stages import dedup

    n = 300
    df = pd.DataFrame({"doc_id": range(n), "text": ["one two three four"] * n})
    clique = dedup.minhash_lsh_candidates(ray.data.from_pandas(df), cap=None)
    assert len(clique) == n * (n - 1) // 2
    assert (clique["id_a"] < clique["id_b"]).all()
    star = dedup.minhash_lsh_candidates(ray.data.from_pandas(df))
    assert len(star) == n - 1 and (star["id_a"] == 0).all()


def test_lsh_bucket_cap_preserves_small_buckets(ray_session, docs_with_dups):
    """The cap must not change results for normal-sized buckets:
    planted dup pairs still surface as candidates."""
    import ray

    from searchengine_ray.stages import dedup

    ds = ray.data.from_pandas(docs_with_dups)
    cand = dedup.minhash_lsh_candidates(ds)
    found = set(zip(cand["id_a"], cand["id_b"]))
    assert (0, 30) in found
    assert (1, 31) in found


def test_minhash_signature_semantics(ray_session):
    """Vectorized signatures: exact dups get identical signatures;
    jaccard_est of an exact dup is 1.0; disjoint docs stay far."""
    from searchengine_ray.stages.dedup import _sig_matrix, minhash_signatures

    df = pd.DataFrame(
        {
            "doc_id": [0, 1, 2, 3, 4],
            "text": [
                "alpha beta gamma delta epsilon zeta",
                "alpha beta gamma delta epsilon zeta",   # exact dup of 0
                "one two three four five six seven",      # disjoint
                "xy",                                      # shorter than k
                "",                                        # empty
            ],
        }
    )
    out = minhash_signatures(df)
    m = _sig_matrix(out["sigb"])
    assert m.shape == (5, 64)
    assert (m[0] == m[1]).all()
    assert (m[0] == m[2]).mean() < 0.3
    from searchengine_ray.stages.dedup import _MERSENNE

    assert (m[4] == np.uint64(_MERSENNE)).all()  # empty doc sentinel


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
    test_minhash_lsh_finds_near_dups(ray_session, docs_with_dups)
    test_lsh_bucket_cap_mass_duplicate(ray_session)
    test_lsh_bucket_cap_kwarg(ray_session)
    test_lsh_bucket_cap_preserves_small_buckets(ray_session, docs_with_dups)
    test_phash_dedup(ray_session)
    test_embedding_neardup(ray_session)
    test_phash_near_pairs(ray_session)
    test_q29_planted_neardups_recovered(ray_session)
