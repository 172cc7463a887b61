"""Equivalence of the fetch hot path's fast kernels with their scalar
specs, plus a guard that the per-link scalar hash stays out of it.

* ``fnv1a64_batch`` (length-sorted prefix updates) == scalar ``fnv1a64``
* ``WebStore.link_sel`` == ``fnv1a64(link) % 4`` per link
* ``_samehost`` (one prefix test) == the reference's per-character scan
* ``extract_links`` (dedup on the identity key string) == a copy that
  dedups on the key's 64-bit hash
* ``make_candidates`` (kernels once per distinct URL / host) == a
  row-wise build from the scalar URL functions
"""

import pickle

import numpy as np
import pyarrow as pa
import pytest

from searchengine_ray.functions import hashing
from searchengine_ray.functions import urlkernel as uk
from searchengine_ray.functions.hashing import fnv1a64, fnv1a64_batch
from searchengine_ray.sources import synth
from searchengine_ray.stages import extract
from searchengine_ray.stages.extract import extract_links, shorten_html
from searchengine_ray.stages.fetch import CAND_SCHEMA, FetchDecode, make_candidates


@pytest.fixture(scope="module")
def store():
    return synth.gen_web(5000, 128, seed=3, mean_links=24.0)


def _scalar(strs):
    return [fnv1a64(s) for s in strs]


@pytest.mark.parametrize(
    "strs",
    [
        [],
        [""],
        ["", "", ""],
        ["a", "", "host1.com/p/12", "x" * 300, "bb", "", "host1.com/p/12"],
        ["香港/night", "東京.jp/é", "a€b", "ascii"],
    ],
    ids=["empty", "one-empty", "all-empty", "mixed", "utf8"],
)
def test_fnv1a64_batch_equals_scalar(strs):
    assert fnv1a64_batch(strs).tolist() == _scalar(strs)
    assert fnv1a64_batch(pa.array(strs, pa.large_string())).tolist() == _scalar(strs)


def test_fnv1a64_batch_offset_slice_and_chunks():
    arr = pa.array(["zz", "hello", "", "worldwide", "香港", "a"])
    for sl in (arr.slice(1, 3), arr.slice(4), arr.slice(2, 0)):
        assert fnv1a64_batch(sl).tolist() == _scalar(sl.to_pylist())
    chunked = pa.chunked_array([arr.slice(0, 2), arr.slice(3)])
    assert fnv1a64_batch(chunked).tolist() == _scalar(chunked.to_pylist())


def test_link_sel_is_the_scalar_selector(store):
    expect = [fnv1a64(s) % 4 for s in store.links_flat_url]
    assert store.link_sel.dtype == np.uint8
    assert store.link_sel.tolist() == expect
    # ships inside the pickled store, beside the lazily-decoded links
    back = pickle.loads(pickle.dumps(store))
    assert back.link_sel_of(7) == expect[store.links_off[7] : store.links_off[8]]


def _samehost_spec(u, host):
    """The reference's per-character scan (SearchEngine.cpp:61-64)."""
    for i, ch in enumerate(u):
        if ch in "/:?" and u[:i] == host:
            return True
    return u == host


@pytest.mark.parametrize(
    "u,host",
    [
        ("a.com", "a.com"),
        ("a.com/x", "a.com"),
        ("a.com:80/x", "a.com"),
        ("a.com:80/x", "a.com:80"),
        ("a.com:8080", "a.com:80"),
        ("a.com?q=1", "a.com"),
        ("a.comx/y", "a.com"),
        ("a.co", "a.com"),
        ("b.a.com/x", "a.com"),
        ("a.com/b:c?d", "a.com/b"),
        ("", ""),
        ("/x", ""),
        ("x", ""),
        ("", "a.com"),
    ],
)
def test_samehost_equals_per_character_spec(u, host):
    assert extract._samehost(u, host) == _samehost_spec(u, host)


def _extract_links_hash_keyed(shortened_html, host, https):
    """``extract_links`` as it deduped before: on the FNV hash of the
    identity key, with the per-character same-host scan."""
    out, seen = [], set()
    for m in extract._HREF_RE.finditer(shortened_html):
        val = m.group(1)
        if val.startswith("//"):
            u, link_https = val[2:], False
            same = _samehost_spec(u, host)
        elif val.startswith("https://"):
            u, link_https = val[8:], True
            same = _samehost_spec(u, host)
        elif val.startswith("http://"):
            u, link_https = val[7:], False
            same = _samehost_spec(u, host)
        elif val.startswith("/"):
            u, link_https, same = host + "/" + val[1:], False, True
        else:
            continue
        if not u:
            continue
        if (same and https) or (not same and link_https):
            u = "https://" + u
        k = fnv1a64(uk.key_string(u))
        if k not in seen:
            seen.add(k)
            out.append(u)
    return out


def _page(store, row, with_sel=True):
    url = store.urls[row]
    host = uk.split_host(url)
    https = url.startswith("https://")
    args = (url, host, https, store.captions[row], store.image_ids[row],
            store.links_of(row))
    if with_sel:
        args += (store.link_sel_of(row),)
    return synth.render_html(*args), host, https


def test_extract_links_equals_hash_keyed_reference(store):
    rows = np.nonzero(store.status == synth.STATUS_OK)[0]
    assert len(rows) > 4000
    for row in rows.tolist():
        html, host, https = _page(store, row)
        # precomputed selectors render the spec page byte for byte
        assert html == _page(store, row, with_sel=False)[0]
        short = shorten_html(html)
        assert extract_links(short, host, https) == _extract_links_hash_keyed(
            short, host, https
        )


def _candidates_rowwise(raw_links, fseqs, poss, shard_count):
    rows = []
    for raw, fs, pos in zip(raw_links, fseqs, poss):
        canon = uk.truncate_url(raw)
        if canon is None or not uk.filter_url(canon)[0]:
            continue
        host = uk.split_host(canon)
        rows.append(
            {
                "fetch_seq": fs,
                "pos": pos,
                "raw": raw,
                "url": canon,
                "url_hash": uk.url_hash(canon),
                "host_hash": uk.host_hash(host),
                "host": host,
                "shard": uk.host_collision_hash(host) % shard_count,
            }
        )
    return pa.Table.from_pylist(rows, schema=CAND_SCHEMA)


def test_make_candidates_equals_rowwise_spec(store):
    rows = np.nonzero(store.status == synth.STATUS_OK)[0][:300]
    raw, fseqs, poss = [], [], []
    for row in rows.tolist():
        html, host, https = _page(store, row)
        links = extract_links(shorten_html(html), host, https)
        raw += links
        fseqs += [row] * len(links)
        poss += range(len(links))
    # seed-style variants: schemes, www., trailing slashes, dupes, rejects
    extra = ["http://www.Host1.com/a/", "www.host1.com/a", "https://host2.org/",
             "host3.jp/x", "ab", "host4.com/f/1.jpg", "host1.com:8080/p?q=1"]
    raw += extra
    fseqs += [-1] * len(extra)
    poss += range(len(extra))
    got = make_candidates(raw, fseqs, poss, 8)
    assert got.equals(_candidates_rowwise(raw, fseqs, poss, 8))
    assert len(got) > 1000


@pytest.mark.parametrize("raw", [[], ["host3.jp/x", "ab", "a.com/f/1.jpg"]])
def test_make_candidates_all_filtered_is_typed_empty(raw):
    got = make_candidates(raw, [1] * len(raw), list(range(len(raw))), 8)
    assert len(got) == 0
    assert got.schema == CAND_SCHEMA


def test_fetch_path_makes_no_scalar_hash_calls(monkeypatch):
    """CI guard: fetching pages must not hash link by link in Python —
    selectors come precomputed with the store, per-page dedup is on
    the key string, and candidate prep hashes vectorized."""
    images, truth = synth.gen_images(16, seed=1, sizes=(16,))
    small = synth.gen_web(300, 16, seed=1, mean_links=24.0)
    synth.attach_captions(small, images)
    actor = FetchDecode(small, images, truth, shard_count=8)
    rows = np.nonzero(small.status == synth.STATUS_OK)[0]
    batch = pa.table(
        {
            "fetch_seq": pa.array(np.arange(len(rows)), pa.int64()),
            "epoch": pa.array(np.zeros(len(rows), np.int32)),
            "url": pa.array([small.urls[r] for r in rows.tolist()], pa.string()),
            "url_hash": pa.array(small.url_hash[rows]),
            "content_row": pa.array(rows.astype(np.int64)),
        }
    )
    calls = []

    def counting(s):
        calls.append(s)
        return fnv1a64(s)

    for mod in (hashing, synth, uk, extract):
        if hasattr(mod, "fnv1a64"):
            monkeypatch.setattr(mod, "fnv1a64", counting)
    content, cand = actor(batch)
    assert len(content) == len(rows) > 200
    assert len(cand) > 10 * len(rows)
    assert all(content["invariant_ok"].to_pylist())
    assert calls == []
