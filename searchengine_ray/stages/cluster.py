"""Connected components over a pair list — the closure step a real
dedup pipeline needs after near-dup PAIR detection (pairs alone don't
dedup: {A~B, B~C} must collapse to ONE surviving doc, so components,
not edges, are the dedup unit).  ``neardup_drop`` turns a pair list
into that dedup decision — every component member but its minimum id —
for the near-dup queries and both curation funnels.

Algorithm: min-label propagation with pointer jumping, in numpy on the
driver.  A near-dup pair list is the reduced output of a distributed
stage, and every caller holds it as a pandas frame.  Ids of any
sortable type are factorized once over their sorted unique values, so
a label is a code and the minimum code is the minimum id.  Every node
starts labeled with itself; each round relaxes every edge
(``np.minimum.at``) then jumps each label to its label's label, so
convergence takes O(log diameter) rounds of O(E) work.  Labels only
decrease and are bounded below by the component minimum, so the
fixpoint is exact; an unchanged label sum detects it (labels monotone
⇒ unchanged sum ⇔ no change).
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def connected_components(
    pairs: pd.DataFrame, col_a: str = "ia", col_b: str = "ib"
) -> pd.DataFrame:
    """pairs (col_a, col_b) → (doc_id, cluster_id, cluster_size), one
    row per id in some pair, sorted by doc_id; cluster_id is the
    component's minimum id.  Ids that appear in no pair are trivially
    their own cluster and are not emitted."""
    a, b = pairs[col_a].to_numpy(), pairs[col_b].to_numpy()
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    u, v = inv[: len(a)], inv[len(a) :]
    lab = np.arange(len(nodes), dtype=np.int64)
    prev = -1
    while True:
        m = np.minimum(lab[u], lab[v])
        np.minimum.at(lab, u, m)
        np.minimum.at(lab, v, m)
        lab = lab[lab]  # pointer jump
        s = int(lab.sum())
        if s == prev:
            break
        prev = s
    size = np.bincount(lab, minlength=len(nodes))
    return pd.DataFrame(
        {
            "doc_id": nodes,
            "cluster_id": nodes[lab],
            "cluster_size": size[lab].astype(np.int64),
        }
    )


def neardup_drop(
    pairs: pd.DataFrame, col_a: str = "ia", col_b: str = "ib"
) -> np.ndarray:
    """The near-dup drop set: every id of the pairs' connected
    components except each component's minimum (its canonical
    survivor), sorted, in the ids' own dtype."""
    cl = connected_components(pairs, col_a, col_b)
    node = cl["doc_id"].to_numpy()
    return node[node != cl["cluster_id"].to_numpy()]
