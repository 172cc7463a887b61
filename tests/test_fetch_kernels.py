"""Equivalence of the fetch hot path's fast kernels with their scalar
specs, plus guards that per-link and per-page scalar work stays out of it.

* ``fnv1a64_batch`` (length-sorted prefix updates) == scalar ``fnv1a64``
* ``WebStore.link_sel`` == ``fnv1a64(link) % 4`` per link
* ``extract_links``' inlined same-host test (one prefix test) == the
  reference's per-character scan
* ``extract_links`` (one regex, dedup on the identity key string) == a
  copy that matches the href value and dedups on the key's 64-bit hash
* ``make_candidates`` (kernels once per distinct canonical URL, one
  host split per call) == a row-wise build from the scalar URL functions
* ``FetchDecode.__call__`` (columnar chunk: ``phash64_batch`` per
  bounded stack of decoded images, one payload ``take``) == the
  page-by-page row builder it replaced
"""

import ast
import hashlib
import inspect
import os
import re
import textwrap

import pickle

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from searchengine_ray.functions import hashing
from searchengine_ray.functions import urlkernel as uk
from searchengine_ray.functions.hashing import fnv1a64, fnv1a64_batch
from searchengine_ray.pipelines import oracle
from searchengine_ray.pipelines.oracle import CrawlConfig
from searchengine_ray.sources import codec, synth
from searchengine_ray.sources.codec import decode_image, phash64
from searchengine_ray.stages import extract, fetch
from searchengine_ray.stages.extract import extract_links, get_title, shorten_html
from searchengine_ray.stages.fetch import (
    CAND_SCHEMA,
    CONTENT_SCHEMA,
    PAYLOAD_SCHEMA,
    FetchDecode,
    make_candidates,
)


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
    assert [back.links_of(r) for r in range(300)] == [
        store.links_of(r) for r in range(300)
    ]


def test_lazy_strs_slices_equal_list_slices():
    strs = ["", "a", "", "香港", "host1.com/p/12", "", "b", ""]
    lazy = synth._LazyStrs("\x00".join(strs).encode("utf-8"), len(strs))
    n = len(strs)
    for i in range(-n - 1, n + 2):
        for j in range(-n - 1, n + 2):
            for step in (None, 2, -1):
                assert lazy[i:j:step] == strs[i:j:step]
    assert list(lazy) == strs and [lazy[i] for i in range(n)] == strs


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
    # on an https page a same-host "//" link gets the https:// prefix
    got = extract_links(f'<a href="//{u}">', host, https=True)
    if not u:
        assert got == []  # an empty link is dropped before the test
    else:
        assert got == ["https://" + u if _samehost_spec(u, host) else u]


_HREF_VALUE_RE = re.compile(r'href="([^"]*)"')


def _extract_links_hash_keyed(shortened_html, host, https):
    """``extract_links`` as it was before: the whole href value matched
    and its form tested by prefix, the per-character same-host scan,
    and the dedup on the FNV hash of the identity key."""
    out, seen = [], set()
    for m in _HREF_VALUE_RE.finditer(shortened_html):
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


_HAND_HTML = "".join(
    f'<a href="{v}">l</a>'
    for v in [
        "", "/", "//", "https://", "http://", "///", "////x.com/a",
        "//me.com:8080/p", "//me.com:80", "https://me.com:80/q?x=1",
        "http://me.com", "//www.me.com/p", "//me.com/p", "/p", "//p",
        "https://www.other.org/z", "//other.org/z", "https:///lead",
        "http:///lead", "//www./a", "relative/x", "mailto:a@b.c",
    ]
)


def test_extract_links_equals_hash_keyed_reference(store):
    for host in ("me.com", "me.com:80", "www.me.com", ""):
        for https in (False, True):
            got = extract_links(_HAND_HTML, host, https)
            assert got == _extract_links_hash_keyed(_HAND_HTML, host, https)
            assert len(got) > 5
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
                "url": canon,
                "url_hash": uk.url_hash(canon),
                "host_hash": uk.host_hash(host),
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
    # the fetch actor's form: an Arrow links array, numpy seqs and positions
    arrow = make_candidates(
        pa.array(raw, pa.string()), np.array(fseqs), np.array(poss), 8
    )
    assert arrow.equals(got)


def test_make_candidates_splits_each_distinct_url_once(monkeypatch):
    """One ``split_host_batch`` call per ``make_candidates`` call, on
    exactly the chunk's distinct canonical URLs: repeated links (also
    repeats under another raw form) and invalid links add no rows."""
    calls = []
    split = uk.split_host_batch

    def counting(canon):
        calls.append(canon.to_pylist())
        return split(canon)

    monkeypatch.setattr(uk, "split_host_batch", counting)
    raw = ["a.com/x", "http://a.com/x", "a.com/x/", "b.org/y", "ab", "http://",
           "https:/x", "a.com/x", "c.jp/z", "b.org/y", "d.com/f.jpg", "e.com"]
    fseqs, poss = [3] * len(raw), list(range(len(raw)))
    canon = {uk.truncate_url(r) for r in raw} - {None}
    got = make_candidates(raw, fseqs, poss, 8)
    assert len(calls) == 1
    assert len(calls[0]) == len(canon) == 6
    assert set(calls[0]) == canon
    assert got.equals(_candidates_rowwise(raw, fseqs, poss, 8))


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


# ------------------------------------------------ fetch chunk vs row-wise


def _fetch_rowwise(actor, batch):
    """The fetch actor's chunk built page by page, as it was before the
    columnar rewrite: per-page content rows, the scalar ``phash64``, the
    payload bytes copied out per page.  → (content, payload, payload
    row epochs, candidates)."""
    store = actor.store
    out = {k.name: [] for k in CONTENT_SCHEMA}
    pay = {k.name: [] for k in PAYLOAD_SCHEMA}
    pay_epochs, raw_links, link_seq, link_pos = [], [], [], []
    for i, r in enumerate(batch.to_pylist()):
        row = r["content_row"]
        if row < 0:
            continue
        url = store.urls[row]
        https = url.startswith("https://")
        host = uk.split_host(url)
        img = int(store.image_idx[row])
        caption = store.captions[row]
        html = synth.render_html(
            url, host, https, caption, store.image_ids[row],
            store.links_of(row), store.link_sel_of(row),
        )
        links = extract_links(shorten_html(html), host, https)
        data = actor.img_bytes[img].as_buffer()
        pixels, fmt = decode_image(data)
        ph = phash64(pixels)
        ok = (
            ph == actor.img_phash[img]
            and caption == actor.img_caption[img]
            and fmt == actor.img_fmt[img]
        )
        if ok and actor.truth_sha is not None:
            ok = (
                hashlib.sha256(pixels.reshape(-1).data).hexdigest()
                == actor.truth_sha[img]
            )
        fseq = r["fetch_seq"]
        for k, v in (
            ("fetch_seq", fseq), ("epoch", r["epoch"]), ("url", r["url"]),
            ("url_hash", r["url_hash"]), ("title", get_title(html)),
            ("image_id", store.image_ids[row]), ("caption", caption),
            ("w", pixels.shape[1]), ("h", pixels.shape[0]), ("fmt", fmt),
            ("phash", ph), ("invariant_ok", bool(ok)), ("links", links),
        ):
            out[k].append(v)
        pay["fetch_seq"].append(fseq)
        pay["image_id"].append(store.image_ids[row])
        pay["bytes"].append(data.to_pybytes())
        pay_epochs.append(r["epoch"])
        raw_links.extend(links)
        link_seq.extend([fseq] * len(links))
        link_pos.extend(range(len(links)))
    return (
        pa.table(out, schema=CONTENT_SCHEMA),
        pa.table(pay, schema=PAYLOAD_SCHEMA),
        pay_epochs,
        make_candidates(raw_links, link_seq, link_pos, actor.shard_count),
    )


@pytest.fixture(scope="module")
def world():
    """A small web whose images come in odd sizes (below 8, not
    divisible by 8), with one image's stored phash and another's truth
    sha wrong so that both invariant failures show; the store goes
    through pickle as it does to an actor; picks are a crawl order of
    the oracle with each pick's content row (-1 when the fetch fails)."""
    images, truth = synth.gen_images(40, seed=5, sizes=(5, 13, 16, 30))
    ph = images["phash"].to_pylist()
    ph[3] ^= 1
    images = images.set_column(
        images.schema.get_field_index("phash"), "phash", pa.array(ph, pa.int64())
    )
    sha = truth["pixels_sha256"].to_pylist()
    sha[7] = "0" * 64
    truth = truth.set_column(
        truth.schema.get_field_index("pixels_sha256"), "pixels_sha256",
        pa.array(sha),
    )
    store = synth.gen_web(1500, 40, seed=5, mean_links=24.0)
    synth.attach_captions(store, images)
    store = pickle.loads(pickle.dumps(store))
    res = oracle.simulate(
        synth.gen_seeds(store, k=12, seed=5), store, CrawlConfig(per_shard_batch=60)
    )
    seq, urls, hashes, _t, epochs = map(list, zip(*res.crawl_order))
    rows = store.lookup(np.array(hashes, np.uint64))
    status = np.where(rows >= 0, store.status[rows], -999)
    content_row = np.where(status == synth.STATUS_OK, rows, -1)
    red = status == synth.STATUS_REDIRECT
    tgt = store.redirect[rows[red]]
    content_row[red] = np.where(
        (tgt >= 0) & (store.status[np.maximum(tgt, 0)] == synth.STATUS_OK), tgt, -1
    )
    picks = pa.table(
        {
            "fetch_seq": pa.array(seq, pa.int64()),
            "epoch": pa.array(epochs, pa.int32()),
            "url": pa.array(urls, pa.string()),
            "url_hash": pa.array(hashes, pa.uint64()),
            "content_row": pa.array(content_row, pa.int64()),
        }
    )
    return store, images, truth, picks


def _assert_chunk_equals_rowwise(actor, batch, start=None, length=None):
    content, cand = actor(batch, start, length)
    if start is not None:
        batch = batch.slice(start, length)
    ref_content, ref_pay, ref_epochs, ref_cand = _fetch_rowwise(actor, batch)
    assert content.equals(ref_content)
    assert cand.equals(ref_cand)
    return content, ref_pay, ref_epochs


def test_fetch_chunk_equals_rowwise_on_crawl_windows(world):
    store, images, truth, picks = world
    assert len(picks) > 1000
    assert 0 < (picks["content_row"].to_numpy() < 0).sum() < len(picks)
    actor = FetchDecode(store, images, truth, shard_count=8)
    rng = np.random.default_rng(7)
    pages = bad = 0
    for _ in range(25):
        start = int(rng.integers(0, len(picks)))
        length = int(rng.integers(0, 200))
        content, _p, _e = _assert_chunk_equals_rowwise(actor, picks, start, length)
        pages += len(content)
        bad += len(content) - sum(content["invariant_ok"].to_pylist())
    content, _p, _e = _assert_chunk_equals_rowwise(actor, picks)
    assert pages > 500 and bad > 0
    assert {(w, h) for w, h in zip(content["w"].to_pylist(), content["h"].to_pylist())} > {
        (5, 5), (13, 30)
    }
    assert actor.stats()["pages"] == pages + len(content)


def test_fetch_chunk_edge_cases(world):
    store, images, truth, picks = world
    actor = FetchDecode(store, images, truth, shard_count=8)
    dead = picks.filter(pa.array(picks["content_row"].to_numpy() < 0))
    for batch, start, length in ((dead, None, None), (picks, 17, 0), (picks, 0, 0)):
        content, cand = actor(batch, start, length)
        assert len(content) == 0 and content.schema == CONTENT_SCHEMA
        assert len(cand) == 0 and cand.schema == CAND_SCHEMA
        _assert_chunk_equals_rowwise(actor, batch, start, length)


@pytest.mark.parametrize("bound", [1, 3000, 1 << 40])
def test_fetch_chunk_hashes_in_bounded_stacks(world, monkeypatch, bound):
    """Decoded images wait for ``phash64_batch`` only until they reach
    ``PHASH_BATCH_BYTES``: every call but the last gets at least that
    many bytes and would have fewer without its last image, the last
    gets fewer.  The chunk is the same whatever the bound."""
    store, images, truth, picks = world
    calls = []

    def spy(pixels):
        calls.append([p.nbytes for p in pixels])
        return codec.phash64_batch(pixels)

    monkeypatch.setattr(fetch, "PHASH_BATCH_BYTES", bound)
    monkeypatch.setattr(fetch, "phash64_batch", spy)
    actor = FetchDecode(store, images, truth, shard_count=8)
    content, _p, _e = _assert_chunk_equals_rowwise(actor, picks, 0, 400)
    assert len(content) > 100
    assert sum(map(len, calls)) == len(content)
    for sizes in calls[:-1]:
        assert sum(sizes) >= bound > sum(sizes[:-1])
    assert sum(calls[-1]) < bound
    assert len(calls) > 2 or bound > 3000


def test_fetch_chunk_routes_payload_per_epoch(world, tmp_path):
    store, images, truth, picks = world
    window = picks.slice(100, 150)
    ep = np.where(np.arange(len(window)) % 3 == 0, 4, 9).astype(np.int32)
    window = window.set_column(1, "epoch", pa.array(ep))
    actor = FetchDecode(store, images, truth, shard_count=8, payload_dir=str(tmp_path))
    _c, ref_pay, ref_epochs = _assert_chunk_equals_rowwise(actor, window)
    assert sorted(os.listdir(tmp_path)) == ["epoch=4", "epoch=9"]
    for e in (4, 9):
        expect = ref_pay.filter(pa.array(np.array(ref_epochs) == e))
        first = expect["fetch_seq"][0].as_py()
        d = tmp_path / f"epoch={e}"
        assert os.listdir(d) == [f"part-{first:010d}.parquet"]
        assert pq.read_table(d / os.listdir(d)[0]).equals(expect)


def test_warm_runs_the_chunk_path_without_payload(world, tmp_path):
    store, images, truth, _picks = world
    actor = FetchDecode(store, images, truth, shard_count=8, payload_dir=str(tmp_path))
    assert actor.warm() is True
    assert actor.payload_dir == str(tmp_path) and os.listdir(tmp_path) == []
    assert actor.stats()["pages"] == 1 and actor.stats()["calls"] == 1


def _calls_in(src: str) -> list[str]:
    """Names called in ``src``: bare functions and methods."""
    tree = ast.parse(textwrap.dedent(src))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            names.append(f.id if isinstance(f, ast.Name) else getattr(f, "attr", ""))
    return names


def test_fetch_call_hashes_and_copies_per_chunk():
    """CI guard: the fetch chunk hashes its images with
    ``phash64_batch`` and takes its payload bytes in one ``take``;
    neither the scalar ``phash64`` nor a per-page ``to_pybytes`` copy
    may come back into ``FetchDecode.__call__``."""
    names = _calls_in(inspect.getsource(FetchDecode.__call__))
    assert "phash64_batch" in names and "take" in names
    assert "phash64" not in names and "to_pybytes" not in names
    src = "def f(x):\n    phash64(x)\n    x.to_pybytes()\n"
    assert {"phash64", "to_pybytes"} <= set(_calls_in(src))
