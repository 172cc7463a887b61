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


def _check(out, pairs):
    want = _cc_bruteforce(pairs)
    assert out["doc_id"].tolist() == sorted(want)
    got = {
        r.doc_id: (r.cluster_id, int(r.cluster_size))
        for r in out.itertuples(index=False)
    }
    assert got == want


def test_connected_components_chains_and_stars():
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
    _check(connected_components(df), pairs)


def test_connected_components_random_graph():
    """900 random pairs over 300 ids (one giant component plus
    stragglers), and zero pairs."""
    from searchengine_ray.stages.cluster import connected_components

    rng = np.random.default_rng(3)
    ia = rng.integers(0, 300, 900).astype("int64")
    ib = rng.integers(0, 300, 900).astype("int64")
    m = ia < ib
    df = pd.DataFrame({"ia": ia[m], "ib": ib[m]})
    out = connected_components(df)
    assert out.dtypes.tolist() == [np.int64] * 3
    _check(out, list(zip(ia[m].tolist(), ib[m].tolist())))

    empty = connected_components(df.iloc[:0])
    assert len(empty) == 0 and empty.dtypes.tolist() == [np.int64] * 3


def test_neardup_drop_string_ids():
    """Ids of any sortable type: each component keeps its minimum
    string id and drops the rest."""
    from searchengine_ray.stages.cluster import neardup_drop

    rng = np.random.default_rng(5)
    names = np.array([f"doc-{i:03d}" for i in rng.permutation(200)])
    a, b = rng.integers(0, 200, 150), rng.integers(0, 200, 150)
    pairs = list(zip(names[a].tolist(), names[b].tolist()))
    df = pd.DataFrame(pairs, columns=["id_a", "id_b"])
    drop = neardup_drop(df, "id_a", "id_b")
    want = sorted(n for n, (l, _) in _cc_bruteforce(pairs).items() if n != l)
    assert drop.tolist() == want
