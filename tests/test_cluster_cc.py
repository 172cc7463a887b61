"""Connected components (stages/cluster.py): exact closure on chains,
stars and disjoint components — shapes deeper than the sf fixtures'
shallow dup clusters."""

import numpy as np
import pandas as pd


def _cc_bruteforce(pairs):
    # classic union-find
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    label = {n: find(n) for n in parent}
    sizes = pd.Series(list(label.values())).value_counts().to_dict()
    return {n: (l, sizes[l]) for n, l in label.items()}


def test_connected_components_chains_and_stars(ray_session):
    import ray

    from searchengine_ray.stages.cluster import connected_components

    rng = np.random.default_rng(11)
    pairs = []
    # one long chain (diameter 30 — forces multiple propagation rounds)
    chain = list(range(100, 131))
    pairs += list(zip(chain[:-1], chain[1:]))
    # a star
    pairs += [(500, x) for x in range(501, 521)]
    # random small components
    for base in range(1000, 1100, 10):
        k = int(rng.integers(2, 6))
        nodes = [base + i for i in range(k)]
        pairs += [(nodes[i], nodes[int(rng.integers(0, i + 1))]) for i in range(1, k)]
    df = pd.DataFrame(pairs, columns=["ia", "ib"]).astype("int64")

    out = (
        connected_components(ray.data.from_pandas(df))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    want = _cc_bruteforce(pairs)
    assert len(out) == len(want)
    for _, r in out.iterrows():
        wl, ws = want[int(r.doc_id)]
        assert (int(r.cluster_id), int(r.cluster_size)) == (wl, ws), r.doc_id


def test_local_and_distributed_paths_agree(ray_session):
    """The adaptive local union-find (small pair lists) must produce
    exactly the distributed label-propagation fixpoint."""
    import numpy as np
    import ray.data

    from searchengine_ray.stages.cluster import connected_components

    rng = np.random.default_rng(3)
    ia = rng.integers(0, 300, 900).astype("int64")
    ib = rng.integers(0, 300, 900).astype("int64")
    m = ia < ib
    df = pd.DataFrame({"ia": ia[m], "ib": ib[m]})

    local = (
        connected_components(df)  # small → local fast path
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    dist = (
        connected_components(
            ray.data.from_pandas(df), local_max_pairs=0  # force distributed
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(local, dist, check_dtype=False)


def test_distributed_paths_at_three_partitions(ray_session, three_partitions):
    """Both checks above with every keyed shuffle of the label
    propagation at 3 partitions (the pad / sort path) instead of the
    one a test-scale input gets."""
    test_connected_components_chains_and_stars(ray_session)
    test_local_and_distributed_paths_agree(ray_session)
