"""URL kernel conformance tests (cases from SearchEngine.h:696-799)."""

import numpy as np
import pyarrow as pa
import pytest

from searchengine_ray.functions import urlkernel as uk
from searchengine_ray.functions.hashing import fnv1a64, fnv1a64_batch

CANON_CASES = [
    # (raw, expected canonical or None)
    ("http://www.a.com/x/", "www.a.com/x"),
    ("http://a.com/x", "a.com/x"),
    ("https://a.com/x/", "https://a.com/x"),   # https keeps scheme
    ("https://a.com/x", "https://a.com/x"),
    ("HTTPS://a.com", None),                   # case-sensitive scheme check → schemeless path
    ("a.com/x///", "a.com/x"),
    ("//a.com/x", "a.com/x"),
    ("/abc", "abc"),
    ("ab", None),                              # len < 3
    ("http://", None),                         # nothing left
    ("http//a.com", None),                     # bad scheme (no colon at [4])
    ("httpsx//a.com", None),                   # bad scheme (no colon at [5])
    ("http://a", None),                        # final len < 3
    ("www.a.com", "www.a.com"),
    ("http://a.com:8080/p", "a.com:8080/p"),
]

# NOTE on "HTTPS://a.com": memcmp is case-sensitive; "HTTPS..." falls to the
# schemeless branch, keeping "HTTPS:" prefix — len fine → "HTTPS://a.com"
CANON_CASES[4] = ("HTTPS://a.com", "HTTPS://a.com")


@pytest.mark.parametrize("raw,expect", CANON_CASES)
def test_truncate_scalar(raw, expect):
    assert uk.truncate_url(raw) == expect


def test_truncate_batch_matches_scalar():
    raws = [c[0] for c in CANON_CASES] + [
        "https://www.b.org/a/b/c/",
        "http:///x.com",
        "ftp://x.com/a",
        "香港.com/路径/",
        "x" * 3000,
        "http://site.com/page?q=1&r=2",
    ]
    canon, valid = uk.truncate_batch(pa.array(raws, type=pa.string()))
    canon = canon.to_pylist()
    for i, raw in enumerate(raws):
        expect = uk.truncate_url(raw)
        if expect is None:
            assert not valid[i], raw
        else:
            assert valid[i] and canon[i] == expect, (raw, canon[i], expect)


def test_key_string_and_hash():
    assert uk.key_string("www.a.com/x") == "a.com/x"
    assert uk.key_string("www.a.com") == "a.com"
    assert uk.key_string("www.") == "www."            # len>4 required → kept
    assert uk.key_string("https://a.com") == "https://a.com"
    # http-canon and www-variants collapse; https stays distinct
    h1 = uk.url_hash(uk.truncate_url("http://www.a.com/x/"))
    h2 = uk.url_hash(uk.truncate_url("a.com/x"))
    h3 = uk.url_hash(uk.truncate_url("https://a.com/x"))
    assert h1 == h2 != h3


def test_hash_batch_matches_scalar():
    strs = ["", "a", "a.com/x", "香港", "x" * 300]
    got = fnv1a64_batch(pa.array(strs, type=pa.string()))
    assert [int(x) for x in got] == [fnv1a64(s) for s in strs]


def test_split_host():
    assert uk.split_host("a.com/x") == "a.com"
    assert uk.split_host("http://a.com/x") == "a.com"
    assert uk.split_host("https://a.com") == "a.com"
    assert uk.split_host("a.com:8080/x") == "a.com:8080"  # port kept (ref quirk)
    hosts = uk.split_host_batch(pa.array(["a.com/x", "http://b.com/y", "https://c.com"]))
    assert hosts.to_pylist() == ["a.com", "b.com", "c.com"]


def test_collision_domain():
    assert uk.collision_domain("x.a.com") == "a.com"
    assert uk.collision_domain("a.com") == "a.com"
    assert uk.collision_domain("www.a.com") == "a.com"
    assert uk.collision_domain("b.co.uk") == "co.uk"           # ref semantics
    assert uk.collision_domain("a.example.com.cn") == "example.com.cn"
    assert uk.collision_domain("nodots") == "nodots"


FILTER_CASES = [
    ("a.com/page", True, ""),
    ("abc", False, "too_short"),
    ("x" * 2049, False, "too_long"),
    ("a.com/x.jpg", False, "ext_blacklist"),
    ("a.com/x.js", False, "ext_blacklist"),
    ("x.js", True, ""),                      # len==4 → ext check skipped (ref quirk)
    ("ab/cd", False, "bad_host"),            # host len <= 2
    ("a.jp/page", False, "bad_host"),
    (".jp/", True, ""),                      # host ".jp" len==3 → .jp check skipped
    ("site.org/a.html", True, ""),
]


@pytest.mark.parametrize("canon,accept,reason", FILTER_CASES)
def test_filter_scalar(canon, accept, reason):
    got_accept, got_reason = uk.filter_url(canon)
    assert got_accept == accept
    if not accept:
        assert got_reason == reason


def test_filter_batch_matches_scalar():
    canons = [c[0] for c in FILTER_CASES]
    arr = pa.array(canons, type=pa.string())
    mask = uk.filter_mask_batch(arr, uk.split_host_batch(arr))
    assert list(mask) == [c[1] for c in FILTER_CASES]


def test_property_batch_equals_scalar_random():
    rng = np.random.default_rng(42)
    parts = ["http://", "https://", "", "//", "www.", "a.com", "x.org/", "/p/q",
             ".jpg", ".html", "?q=1", ":8080", "香", "/"]
    raws = ["".join(rng.choice(parts, size=rng.integers(1, 6))) for _ in range(500)]
    canon, valid = uk.truncate_batch(pa.array(raws, type=pa.string()))
    canon_l = canon.to_pylist()
    ok_idx = [i for i in range(len(raws)) if valid[i]]
    for i, raw in enumerate(raws):
        expect = uk.truncate_url(raw)
        assert (expect is not None) == bool(valid[i]), raw
        if expect is not None:
            assert canon_l[i] == expect, raw
    # filter + hash agree on the valid subset
    sub = pa.array([canon_l[i] for i in ok_idx], type=pa.string())
    mask = uk.filter_mask_batch(sub, uk.split_host_batch(sub))
    hashes = uk.url_hash_batch(sub)
    for j, i in enumerate(ok_idx):
        assert bool(mask[j]) == uk.filter_url(canon_l[i])[0], canon_l[i]
        assert int(hashes[j]) == uk.url_hash(canon_l[i])


def test_hypothesis_batch_equals_scalar():
    """Property test (hypothesis): vectorized kernels == scalar spec on
    arbitrary URL-ish strings."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    url_chars = st.text(
        alphabet="abchtps:/.www0123456789-_?&=%香港", min_size=0, max_size=40
    )

    @settings(max_examples=300, deadline=None)
    @given(st.lists(url_chars, min_size=1, max_size=20))
    def prop(raws):
        canon, valid = uk.truncate_batch(pa.array(raws, type=pa.string()))
        canon_l = canon.to_pylist()
        for i, raw in enumerate(raws):
            expect = uk.truncate_url(raw)
            assert (expect is not None) == bool(valid[i]), raw
            if expect is not None:
                assert canon_l[i] == expect, raw
        ok = [c for i, c in enumerate(canon_l) if valid[i]]
        if ok:
            sub = pa.array(ok, type=pa.string())
            hosts = uk.split_host_batch(sub)
            mask = uk.filter_mask_batch(sub, hosts)
            hashes = uk.url_hash_batch(sub)
            hosts = hosts.to_pylist()
            for j, c in enumerate(ok):
                assert bool(mask[j]) == uk.filter_url(c)[0], c
                assert int(hashes[j]) == uk.url_hash(c), c
                assert hosts[j] == uk.split_host(c), c

    prop()
