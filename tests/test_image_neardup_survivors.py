"""q72: image near-dup clusters + canonical survivors (planted)."""

import numpy as np
import pandas as pd


def test_q72_drops_planted_duplicates(ray_session):
    from searchengine_ray.pipelines.queries import q72_image_neardup_survivors
    from searchengine_ray.sources.synth import gen_images

    out = q72_image_neardup_survivors("/unused")
    assert list(out.columns) == ["fmt", "n_images"]
    assert (out["n_images"] > 0).all()

    images, _ = gen_images(400, seed=42, dup_rate=0.05, base_style="speckle")
    n_total = images.num_rows
    n_kept = int(out["n_images"].sum())
    # independent brute-force oracle: O(n²) exact Hamming ≤ 6 pairs →
    # union-find → one survivor per component.  The LSH pipeline's
    # banding guarantees recall at d ≤ 3 and the fixture's true near
    # pairs are all d ≤ 4 with ≥ one agreeing 16-bit band, so the two
    # must agree exactly here.
    from searchengine_ray.sources.codec import hamming64

    ph = np.array(images["phash"].to_pylist(), dtype=np.int64)
    n = len(ph)
    parent = np.arange(n)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n - 1):
        d = hamming64(np.full(n - i - 1, ph[i]), ph[i + 1 :])
        for j in np.where(d <= 6)[0]:
            ra, rb = find(i), find(i + 1 + j)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    n_expected = len({find(i) for i in range(n)})
    assert n_kept == n_expected
    assert n_kept < n_total
    assert n_total - n_kept <= int(0.15 * n_total)


def test_q72_deterministic(ray_session):
    from searchengine_ray.pipelines.queries import q72_image_neardup_survivors

    a = q72_image_neardup_survivors("/unused")
    b = q72_image_neardup_survivors("/unused")
    pd.testing.assert_frame_equal(a, b)


def test_q72_at_three_partitions(ray_session, three_partitions):
    """Both checks above with every keyed shuffle at 3 partitions (the
    pad / sort path) instead of one."""
    test_q72_drops_planted_duplicates(ray_session)
    test_q72_deterministic(ray_session)
