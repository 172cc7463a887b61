import numpy as np
import pytest

from searchengine_ray.state.cuckoo import CuckooFilter, SeenShard


def _hashes(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**63, size=n, dtype=np.int64).astype(np.uint64)


def test_no_false_negatives():
    f = CuckooFilter(capacity=5000, seed=1)
    h = np.unique(_hashes(4000, 7))
    f.add_batch(h)
    assert f.contains_batch(h).all()


def test_false_positive_rate_low():
    f = CuckooFilter(capacity=5000, seed=1)
    ins = np.unique(_hashes(4000, 7))
    f.add_batch(ins)
    probe = _hashes(20000, 99)
    probe = np.setdiff1d(probe, ins)
    fp_rate = f.contains_batch(probe).mean()
    assert fp_rate < 0.01, fp_rate


def test_filter_state_roundtrip():
    f = CuckooFilter(capacity=1000, seed=3)
    h = np.unique(_hashes(800, 5))
    f.add_batch(h)
    g = CuckooFilter.from_state(f.to_state())
    assert g.count == f.count
    assert (g.table == f.table).all()
    assert g.contains_batch(h).all()
    # post-restore inserts behave identically (deterministic evict RNG)
    more = np.unique(_hashes(50, 11)) + np.uint64(1)
    f.add_batch(more)
    g.add_batch(more)
    assert (g.table == f.table).all()


def test_seen_shard_semantics():
    s = SeenShard(capacity=1000)
    a = np.array([1, 2, 3, 2, 1], np.uint64)
    new = s.test_and_add(a)
    assert new.tolist() == [True, True, True, False, False]
    new2 = s.test_and_add(np.array([3, 4], np.uint64))
    assert new2.tolist() == [False, True]
    assert len(s) == 4
    assert (~s.test(np.array([1, 4, 99], np.uint64))).tolist() == [True, True, False]


def test_seen_shard_roundtrip():
    s = SeenShard(capacity=2000, seed=2)
    h = np.unique(_hashes(1500, 13))
    s.test_and_add(h)
    t = SeenShard.from_state(s.to_state())
    assert (t.dump_hashes() == s.dump_hashes()).all()
    assert not t.test_and_add(h[:100]).any()


def test_seen_shard_sorted_store_paths():
    """Exercise the sorted-array exact store across merges: ``test``
    and ``add`` see members in the merged array and in the insert
    buffer alike, and ``test`` leaves the shard unchanged."""
    s = SeenShard(capacity=1 << 15, seed=4)
    h1 = np.unique(_hashes(6000, 31))
    s.add(h1)
    s._merge_buf()  # force h1 into the sorted store
    h2 = np.unique(_hashes(100, 37)) + np.uint64(1)
    h2 = np.setdiff1d(h2, h1)
    s.add(h2[:50])  # stays in the buffer
    assert len(s) == len(h1) + 50
    probe = np.concatenate([h1[10:12], h2[:2], h2[50:52], h2[50:51]])
    want = [False, False, False, False, True, True, False]
    for _ in range(2):  # test leaves len and later masks unchanged
        assert s.test(probe).tolist() == want
        assert len(s) == len(h1) + 50
    # add the new ones: members of both stores now test old
    s.add(probe[s.test(probe)])
    assert len(s) == len(h1) + 52
    assert not s.test(probe).any()
    assert not s.test(h1).any() and not s.test(h2[:52]).any()
    assert s.test(h2[52:]).all()
    assert s.nbytes() >= 8 * len(h1)


def test_overflow_raises():
    f = CuckooFilter(capacity=64, seed=1)
    with pytest.raises(RuntimeError):
        # way past capacity → eventually fails to place
        f.add_batch(np.unique(_hashes(5000, 21)))


def test_seen_shard_grows_past_capacity():
    """Capacity is a startup hint: inserting far beyond it triggers
    deterministic grow-and-rebuild instead of RuntimeError."""
    import numpy as np

    from searchengine_ray.state.cuckoo import SeenShard

    sh = SeenShard(capacity=1024, seed=3)
    rng = np.random.default_rng(12)
    hashes = rng.integers(1, 2**63, size=20_000, dtype=np.int64).astype(np.uint64)
    mask = sh.test_and_add(hashes)
    uniq = np.unique(hashes)
    assert mask.sum() == len(uniq)
    assert len(sh) == len(uniq)
    # all inserted values are still members after the rebuilds
    assert not sh.test(uniq).any()
    # and a state round-trip preserves membership
    sh2 = SeenShard.from_state(sh.to_state())
    assert not sh2.test(uniq).any()
    assert len(sh2) == len(sh)
