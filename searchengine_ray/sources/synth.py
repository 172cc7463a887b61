"""Deterministic synthetic fixtures: images table, web graph, seeds.

Implements FIXTURES.md §1-§3.  Everything is seeded; no wall-clock.
The web store replaces live HTTP for the fetch actor (the reference
fetches with raw sockets / WinHTTP — ``httpDownload.h:77-140``,
``winHttpDownload.cpp:25-127``); page HTML is rendered *on demand*
inside the fetch actor from compact link-index arrays, so the store
broadcast (``ray.put`` once, read per actor) stays small at bench
scale instead of shipping pre-rendered HTML.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

from ..functions.hashing import fnv1a64, fnv1a64_batch
from ..functions.urlkernel import split_host, url_hash
from .codec import decode_image, encode_image, phash64, psnr

STATUS_OK = 200
STATUS_NOTFOUND = 404
STATUS_REDIRECT = 301
STATUS_TIMEOUT = -1

IMAGE_SCHEMA = pa.schema(
    [
        ("image_id", pa.string()),
        ("bytes", pa.binary()),
        ("w", pa.int32()),
        ("h", pa.int32()),
        ("fmt", pa.string()),
        ("caption", pa.string()),
        ("phash", pa.int64()),
    ]
)

_CAPTION_WORDS = (
    "sunset harbor mountain 香港 night skyline ocean forest neon 東京 "
    "bridge river temple market street garden snow desert coast tower"
).split()


def gen_images(
    n: int,
    seed: int = 42,
    sizes=(16, 32),
    dup_rate: float = 0.02,
    base_style: str = "gradient",
) -> tuple[pa.Table, pa.Table]:
    """images table (input_hint schema) + truth sidecar (pixels sha256).

    ``base_style="gradient"`` (default): structured gradient tiles —
    compressible, but the shared ramp makes DISTINCT images
    perceptually near-identical (phash Hamming ≤ 6 collisions between
    non-duplicates are common).  ``base_style="speckle"``: high-entropy
    per-image random texture — distinct images are phash-separable
    (expected Hamming ≈ 32), so only planted duplicates collide; use
    for near-dup-survivor fixtures (q72) where the drop set must equal
    the planted dups."""
    rng = np.random.default_rng(seed)
    fmts = rng.choice(["png", "jpeg", "bmp"], size=n, p=[0.4, 0.4, 0.2])
    ws = rng.choice(sizes, size=n).astype(np.int32)
    hs = rng.choice(sizes, size=n).astype(np.int32)
    rows = {k: [] for k in ("image_id", "bytes", "w", "h", "fmt", "caption", "phash")}
    truth = {"image_id": [], "pixels_sha256": [], "psnr_db": [], "lossless": []}
    pixel_cache: list[np.ndarray] = []
    fmt_cache: list[str] = []
    for i in range(n):
        if i > 0 and rng.random() < dup_rate:
            # exact-duplicate payload (same pixels AND fmt ⇒ same bytes,
            # same phash) for the phash-dedup stage (SURVEY.md §2.7)
            src = int(rng.integers(0, i))
            pixels = pixel_cache[src]
            fmt = fmt_cache[src]
            ws[i], hs[i] = pixels.shape[1], pixels.shape[0]
        elif base_style == "speckle":
            # per-PIXEL random noise → the 64 phash cell averages are
            # iid across images (a tiled 8×8 block would alias with
            # phash's own 8×8 box-downsample grid and collapse the
            # hash to ≤16 independent bits); distinct images land
            # Hamming ≈ 32 apart, P(d ≤ 6) ≈ 4e-12 per pair
            pixels = rng.integers(
                0, 256, size=(int(hs[i]), int(ws[i]), 3), dtype=np.uint8
            )
            fmt = str(fmts[i])
        else:
            # gradient + noise tiles → structured, compressible, unique
            yy, xx = np.mgrid[0 : hs[i], 0 : ws[i]]
            base = (yy * 3 + xx * 5 + i * 17) % 256
            noise = rng.integers(0, 40, size=(hs[i], ws[i], 3))
            pixels = np.clip(base[..., None] + noise, 0, 255).astype(np.uint8)
            fmt = str(fmts[i])
        pixel_cache.append(pixels)
        fmt_cache.append(fmt)
        enc = encode_image(pixels, fmt)
        # truth / phash are derived from the DECODED pixels (what a
        # consumer observes after the lossy codec), so the per-row
        # invariant is exact; codec tests assert PSNR(original,
        # decoded) ≥ 40 dB for jpeg.
        dec, _ = decode_image(enc)
        cap_words = rng.choice(_CAPTION_WORDS, size=rng.integers(3, 9))
        caption = " ".join(cap_words) + f" #{i}"
        rows["image_id"].append(f"img{i:08d}")
        rows["bytes"].append(enc)
        rows["w"].append(int(ws[i]))
        rows["h"].append(int(hs[i]))
        rows["fmt"].append(fmt)
        rows["caption"].append(caption)
        rows["phash"].append(phash64(dec))
        truth["image_id"].append(f"img{i:08d}")
        truth["pixels_sha256"].append(hashlib.sha256(dec.tobytes()).hexdigest())
        truth["psnr_db"].append(psnr(pixels, dec))
        truth["lossless"].append(fmt != "jpeg")
    return pa.table(rows, schema=IMAGE_SCHEMA), pa.table(truth)


class _LazyStrs:
    """List-like view over a '\\x00'-joined UTF-8 blob: int indexing
    and slicing decode on demand (the blob itself can sit in plasma
    shared memory — no per-process list materialization)."""

    __slots__ = ("blob", "_n", "_off")

    def __init__(self, blob: bytes, n: int):
        self.blob = blob
        self._n = n
        if n == 0:
            self._off = np.zeros(1, np.int64)
        else:
            arr = np.frombuffer(blob, np.uint8)
            zeros = np.nonzero(arr == 0)[0]
            self._off = np.empty(n + 1, np.int64)
            self._off[0] = 0
            self._off[1:-1] = zeros + 1
            self._off[-1] = len(blob) + 1  # virtual trailing separator

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            start, stop, step = i.indices(self._n)
            if step != 1:
                return [self[j] for j in range(start, stop, step)]
            if start >= stop:
                return []
            # one decode of the whole range, split at its separators
            a, b = self._off[start], self._off[stop] - 1
            return self.blob[a:b].decode("utf-8").split("\x00")
        if i < 0:
            i += self._n
        a, b = self._off[i], self._off[i + 1] - 1
        return self.blob[a:b].decode("utf-8")

    def __iter__(self):
        if self._n:
            for s in self.blob.decode("utf-8").split("\x00"):
                yield s


@dataclass
class WebStore:
    """Compact columnar host→page store; broadcast once via ray.put.

    All URLs are stored in canonical (truncated) form; lookup is by
    canonical 64-bit url_hash via binary search on ``hash_sorted``.
    """

    urls: list[str]
    url_hash: np.ndarray          # uint64, aligned with urls
    host_idx: np.ndarray          # int32 → hosts
    hosts: list[str]
    status: np.ndarray            # int16
    redirect: np.ndarray          # int32 target url index, -1
    image_idx: np.ndarray         # int32 → images table row, -1
    latency_ms: np.ndarray        # int32 logical
    links_off: np.ndarray         # int64 (n+1)
    links_flat_url: list[str]     # link presentation strings (may be variants)
    robots_prefix: list            # per host: disallowed path prefix or None
    captions: list[str]           # per url (from its image)
    image_ids: list[str]
    hash_order: np.ndarray = field(default=None)   # argsort of url_hash
    hash_sorted: np.ndarray = field(default=None)
    robots_blocked: np.ndarray = field(default=None)  # bool per url row
    link_sel: np.ndarray = field(default=None)  # uint8 href form per link

    def __post_init__(self):
        if self.hash_order is None:
            self.hash_order = np.argsort(self.url_hash, kind="stable").astype(np.int64)
            self.hash_sorted = self.url_hash[self.hash_order]
        if self.robots_blocked is None:
            self.robots_blocked = np.array(
                [self._robots_scan(i) for i in range(len(self.urls))], bool
            )
        if self.link_sel is None:
            self.link_sel = (
                fnv1a64_batch(self.links_flat_url) % np.uint64(4)
            ).astype(np.uint8)

    # compact pickling: the hot string lists serialize as one joined
    # blob each instead of 100k+ small objects, and DESERIALIZE into a
    # lazy view (decode-per-access) rather than a per-actor list of
    # python strings — each actor's private heap stays ~MBs instead of
    # ~100 MB (first-touch page faults are pathologically expensive in
    # this sandbox VM, and GC scans shrink accordingly)
    _PACKED = ("urls", "links_flat_url", "captions", "image_ids")

    def __getstate__(self):
        st = self.__dict__.copy()
        for k in self._PACKED:
            v = st[k]
            if isinstance(v, _LazyStrs):
                st[k] = (v.blob, len(v))
            else:
                st[k] = ("\x00".join(v).encode("utf-8"), len(v))
        return st

    def __setstate__(self, st):
        for k in self._PACKED:
            blob, n = st[k]
            st[k] = _LazyStrs(blob, n)
        self.__dict__.update(st)

    def _robots_scan(self, row: int) -> bool:
        pref = self.robots_prefix[self.host_idx[row]]
        if not pref:
            return False
        u = self.urls[row]
        slash = u.find("/", 8 if u.startswith("https://") else 0)
        path = u[slash:] if slash >= 0 else "/"
        return path.startswith(pref)

    def lookup(self, hashes: np.ndarray) -> np.ndarray:
        """url_hash batch → row indices (-1 = unknown/dead).

        The needles are sorted before the binary search (one argsort,
        positions scattered back): ``searchsorted`` walks sorted
        needles several times faster than unsorted ones."""
        h = hashes.astype(np.uint64, copy=False)
        order = np.argsort(h)
        pos = np.empty(len(h), np.int64)
        pos[order] = np.searchsorted(self.hash_sorted, h[order])
        pos = np.clip(pos, 0, len(self.hash_sorted) - 1)
        hit = self.hash_sorted[pos] == h
        out = np.where(hit, self.hash_order[pos], -1)
        return out.astype(np.int64)

    def links_of(self, row: int) -> list[str]:
        a, b = self.links_off[row], self.links_off[row + 1]
        return self.links_flat_url[a:b]

    def link_sel_of(self, row: int) -> list[int]:
        """The page's ``render_html`` href-form selectors."""
        return self.link_sel[self.links_off[row] : self.links_off[row + 1]].tolist()

    def robots_disallowed(self, row: int) -> bool:
        return bool(self.robots_blocked[row])


def _variant(url: str, rng) -> str:
    """Present a canonical URL as a non-canonical raw variant."""
    r = rng.random()
    if url.startswith("https://"):
        return url + "/" if r < 0.3 else url
    if r < 0.25:
        return "http://" + url + ("/" if rng.random() < 0.5 else "")
    if r < 0.40 and not url.startswith("www."):
        return "www." + url
    if r < 0.55:
        return url + "/"
    return url


def gen_web(
    n_urls: int,
    n_images: int,
    seed: int = 42,
    mean_links: float = 8.0,
    robots_host_rate: float = 0.05,
) -> WebStore:
    rng = np.random.default_rng(seed + 1)
    n_hosts = max(10, n_urls // 50)
    hosts = []
    for i in range(n_hosts):
        tld = ".com" if i % 5 else ".org"
        if i % 37 == 13:
            tld = ".jp"  # always filtered — exercises the TLD drop
        name = f"host{i}{tld}"
        if i % 11 == 7:
            name = f"sub{i % 3}.{name}"  # shares collision domain with host{i}
        hosts.append(name)
    https_host = rng.random(n_hosts) < 0.2
    robots_prefix = [
        "/private" if rng.random() < robots_host_rate else None for _ in range(n_hosts)
    ]

    # zipf page popularity → hot-host skew on purpose (FIXTURES.md §2)
    weights = 1.0 / np.arange(1, n_hosts + 1) ** 1.2
    weights /= weights.sum()
    host_of_url = rng.choice(n_hosts, size=n_urls, p=weights).astype(np.int32)

    urls = []
    for j in range(n_urls):
        hidx = host_of_url[j]
        path = f"/p/{j}" if rng.random() > 0.08 else f"/private/{j}"
        base = f"{hosts[hidx]}{path}"
        urls.append(f"https://{base}" if https_host[hidx] else base)

    uh = np.array([url_hash(u) for u in urls], np.uint64)

    status = np.full(n_urls, STATUS_OK, np.int16)
    r = rng.random(n_urls)
    status[r < 0.02] = STATUS_TIMEOUT
    status[(r >= 0.02) & (r < 0.05)] = STATUS_NOTFOUND
    status[(r >= 0.05) & (r < 0.08)] = STATUS_REDIRECT
    redirect = np.full(n_urls, -1, np.int32)
    red_rows = np.nonzero(status == STATUS_REDIRECT)[0]
    if len(red_rows):
        redirect[red_rows] = rng.integers(0, n_urls, size=len(red_rows))

    image_idx = rng.integers(0, max(n_images, 1), size=n_urls).astype(np.int32)
    latency_ms = np.clip(
        rng.lognormal(5.5, 0.8, size=n_urls), 10, 12000
    ).astype(np.int32)

    # links: zipf-biased targets + dead links + blacklisted-extension links
    n_links = rng.poisson(mean_links, size=n_urls)
    links_off = np.zeros(n_urls + 1, np.int64)
    links_off[1:] = np.cumsum(n_links)
    links_flat: list[str] = []
    for j in range(n_urls):
        for _ in range(n_links[j]):
            q = rng.random()
            if q < 0.05:
                links_flat.append(f"dead{rng.integers(1e9)}.com/x")
            elif q < 0.08:
                links_flat.append(f"{hosts[host_of_url[j]]}/f/{rng.integers(1e6)}.jpg")
            else:
                links_flat.append(_variant(urls[int(rng.integers(0, n_urls))], rng))

    captions = [f"caption of url {j}" for j in range(n_urls)]  # replaced below
    image_ids = [f"img{int(i):08d}" for i in image_idx]
    return WebStore(
        urls=urls,
        url_hash=uh,
        host_idx=host_of_url,
        hosts=hosts,
        status=status,
        redirect=redirect,
        image_idx=image_idx,
        latency_ms=latency_ms,
        links_off=links_off,
        links_flat_url=links_flat,
        robots_prefix=robots_prefix,
        captions=captions,
        image_ids=image_ids,
    )


def attach_captions(store: WebStore, images: pa.Table) -> None:
    caps = images.column("caption").to_pylist()
    store.captions = [caps[i] if 0 <= i < len(caps) else "" for i in store.image_idx]


def gen_seeds(store: WebStore, k: int = 12, seed: int = 42) -> list[str]:
    """Seed list: live URLs presented with duplicates + variants
    (dedup-at-admission test, SearchEngine.h:800-836)."""
    rng = np.random.default_rng(seed + 2)
    ok = np.nonzero(store.status == STATUS_OK)[0]
    picks = rng.choice(ok, size=min(k, len(ok)), replace=False)
    seeds = []
    for p in picks:
        seeds.append(_variant(store.urls[int(p)], rng))
        if rng.random() < 0.3:  # duplicate under another variant
            seeds.append(_variant(store.urls[int(p)], rng))
    return seeds


def gen_planted_neardups(
    base_emb: "np.ndarray",
    base_ids: "np.ndarray",
    n: int = 20,
    id_offset: int = 1_000_000,
    rel_noise: float = 1e-4,
    seed: int = 29,
):
    """Deterministic near-duplicate recall fixture: perturbed copies
    (id + ``id_offset``, relative noise ``rel_noise``) of the first
    ``n`` vectors.  Shared by the q29 recall harness and its test so
    the query stays a pure function of (dataset ∪ declared fixture) —
    the planted rows are fixture data, not query-side fabrication.
    → (ids, embeddings float32)."""
    rng = np.random.default_rng(seed)
    emb = np.asarray(base_emb[:n], np.float64)
    noisy = emb * (1.0 + rel_noise * rng.standard_normal(emb.shape))
    return np.asarray(base_ids[:n]) + id_offset, noisy.astype(np.float32)


# ------------------------------------------------------------- HTML rendering

def render_html(
    url: str,
    host: str,
    https: bool,
    caption: str,
    image_id: str,
    links: list[str],
    link_sel=None,
) -> str:
    """Deterministic page HTML exercising the reference's four href
    patterns (``SearchEngine.cpp:43-46``) plus comment/script decoys
    (removed by ``shorten_html`` before extraction, mirroring
    ``shortenData`` — ``SearchEngine.cpp:136-256``).

    Each link's href form is picked by its selector
    ``fnv1a64(link) % 4``.  ``link_sel`` passes those selectors
    precomputed (``WebStore.link_sel_of(row)``, hashed once at
    generation time); without it they are hashed here per link, the
    spec form."""
    if link_sel is None:
        link_sel = [fnv1a64(ls) % 4 for ls in links]
    parts = [
        f"<html><head><title>Page {url}</title>",
        f'<meta name="description" content="{caption}"></head><body>',
        f'<!-- decoy href="http://comment-decoy.com/x" -->',
        f'<script>var a = \'href="http://script-decoy.com/y"\';</script>',
        f'<img src="/{image_id}.raw" alt="{caption}">',
        f"<h1>{caption}</h1>",
    ]
    for ls, sel in zip(links, link_sel):
        if ls.startswith("https://"):
            rest = ls[8:]
            if sel == 0:
                parts.append(f'<a href="//{rest}">l</a>')  # loses https on purpose
            else:
                parts.append(f'<a href="https://{rest}">l</a>')
        elif sel == 0 and split_host(ls) == host:
            path = ls[len(host):] or "/"
            parts.append(f'<a href="{path}">l</a>')  # href="/..." form
        elif sel == 1:
            parts.append(f'<a href="http://{ls}">l</a>')
        else:
            parts.append(f'<a href="//{ls}">l</a>')
    parts.append("</body></html>")
    return "".join(parts)
