"""Fetch + decode + verify stage (actor pool over zero-copy Arrow).

The reference fetches with one OS thread per connection
(``SearchEngine.cpp:884-888``, ``httpDownload.h:77-140``); here fetch
is a persistent actor pool: the synthetic web store and the images
payload table are broadcast ONCE via ``ray.put`` and read in
``__init__`` (once per actor) — never re-shipped per batch.

The actor works per chunk of picks.  Per live page it only does what
is per page: renders the page HTML deterministically (href forms from
the store's precomputed link selectors), shortens it (M8/M9), extracts
link candidates (M10), reads its title, decodes its image from a
zero-copy window of the images table and hashes the decoded pixels
against truth.  The decoded images go to ``phash64_batch`` one bounded
stack at a time (``codec.PHASH_BATCH_BYTES``), so a chunk never holds
all of them at once.  Per chunk it checks the per-row invariants
(decoded-pixel sha vs truth — exact because truth is derived from
post-codec pixels, with the lossy codec's PSNR ≥ 40 dB bound asserted
by codec tests — plus caption, fmt and phash equality), and builds the
content table, the payload bytes (one ``take``) and the candidates'
positions from arrays.

Scale design: the actor ALSO
* canonicalizes/filters the extracted links into admission candidates
  (so the per-epoch candidate prep is parallel, not driver-serial) —
  the URL and host kernels run once per distinct canonical URL of the
  chunk (``make_candidates``).  A candidate (``CAND_SCHEMA``) carries
  only what admission reads: its global order ``(fetch_seq, pos)``, the
  canonical ``url`` the frontier keeps, ``url_hash`` (seen set, robots),
  ``host_hash`` (politeness, quota) and the collision ``shard`` that
  routes it to a host actor, and
* writes the binary payload parquet partition itself
  (``payload_dir/epoch=E/part-<first_seq>.parquet``) so image bytes
  never flow through the driver — only small metadata tables do
  (SURVEY.md §7.5#5: keep payloads out of the control path).

With a live network this class would swap the store lookup for an
async HTTP client behind the same interface; everything downstream is
unchanged.
"""

from __future__ import annotations

import hashlib
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions import urlkernel as uk
from ..functions.urlkernel import split_host
from ..sources import synth
from ..sources.codec import PHASH_BATCH_BYTES, decode_image, phash64_batch
from .extract import extract_links, get_title, shorten_html

CONTENT_SCHEMA = pa.schema(
    [
        ("fetch_seq", pa.int64()),
        ("epoch", pa.int32()),
        ("url", pa.string()),
        ("url_hash", pa.uint64()),
        ("title", pa.string()),
        ("image_id", pa.string()),
        ("caption", pa.string()),
        ("w", pa.int32()),
        ("h", pa.int32()),
        ("fmt", pa.string()),
        ("phash", pa.int64()),
        ("invariant_ok", pa.bool_()),
        ("links", pa.list_(pa.string())),
    ]
)

PAYLOAD_SCHEMA = pa.schema(
    [
        ("fetch_seq", pa.int64()),
        ("image_id", pa.string()),
        ("bytes", pa.binary()),
    ]
)

CAND_SCHEMA = pa.schema(
    [
        ("fetch_seq", pa.int64()),
        ("pos", pa.int32()),
        ("url", pa.string()),
        ("url_hash", pa.uint64()),
        ("host_hash", pa.uint64()),
        ("shard", pa.int32()),
    ]
)


def make_candidates(
    raw_links: list[str] | pa.Array, fseqs, poss, shard_count: int
) -> pa.Table:
    """Canonicalize + static-filter raw link candidates (vectorized);
    output stays in (fetch_seq, pos) order.  ``raw_links`` is a list or
    an Arrow string array; ``fseqs`` and ``poss`` are lists or numpy
    arrays aligned with it.

    Most links repeat a URL already in the chunk, so the valid links'
    canonical URLs are dictionary-encoded once, and the host split, the
    static filter (which reads that split), both hashes and the
    collision shard run once per DISTINCT canonical URL, gathered back
    to the kept rows through the indices."""
    canon, valid = uk.truncate_batch(raw_links)
    rows = np.flatnonzero(valid)
    urls = canon.take(pa.array(rows)).dictionary_encode()
    uniq = urls.dictionary
    hosts = uk.split_host_batch(uniq)
    url_rows = urls.indices.to_numpy()
    kept = uk.filter_mask_batch(uniq, hosts)[url_rows]
    keep, url_rows = rows[kept], url_rows[kept]
    shard = uk.collision_hash_batch(hosts) % np.uint64(shard_count)
    return pa.table(
        {
            "fetch_seq": pa.array(np.asarray(fseqs, np.int64)[keep]),
            "pos": pa.array(np.asarray(poss, np.int32)[keep]),
            "url": uniq.take(pa.array(url_rows)),
            "url_hash": pa.array(uk.url_hash_batch(uniq)[url_rows]),
            "host_hash": pa.array(uk.host_hash_batch(hosts)[url_rows]),
            "shard": pa.array(shard.astype(np.int32)[url_rows]),
        },
        schema=CAND_SCHEMA,
    )


class FetchDecode:
    """Persistent fetch/decode actor (wrapped ray.remote by the engine)."""

    def __init__(
        self,
        store_ref,
        images_ref,
        truth_ref=None,
        shard_count: int = 8,
        payload_dir: str | None = None,
    ):
        import ray

        def _get(r):
            return ray.get(r) if isinstance(r, ray.ObjectRef) else r

        self.store: synth.WebStore = _get(store_ref)
        # keep the broadcast images table as (plasma-backed) Arrow —
        # ONE shared physical copy across every actor on the node;
        # per-actor to_pylist() copies made each actor fault in 100+ MB
        # of private pages (costly in this VM, ~8 MB/actor now)
        images: pa.Table = _get(images_ref)
        self.img_bytes = images.column("bytes").combine_chunks()
        self.img_caption = images.column("caption").to_pylist()
        self.img_fmt = images.column("fmt").to_pylist()
        self.img_phash = images.column("phash").to_numpy()
        truth = _get(truth_ref) if truth_ref is not None else None
        self.truth_sha = truth.column("pixels_sha256").to_pylist() if truth else None
        self.shard_count = shard_count
        self.payload_dir = payload_dir
        # lifetime busy counters (~0 cost; read via stats() for the
        # bench's utilization probes)
        self._calls = 0
        self._pages = 0
        self._busy_s = 0.0

    def stats(self) -> dict:
        return {
            "calls": self._calls,
            "pages": self._pages,
            "busy_s": round(self._busy_s, 3),
        }

    def warm(self) -> bool:
        """Deep warmup: exercise the full fetch+decode path once and
        touch every page of the plasma-backed images buffer.  Without
        this, epoch 0 pays ~1 s of first-call costs (page faults on the
        shared image bytes, lazy kernel paths) on the crawl's critical
        path — measured as 1.19 s wall for 0.19 s of epoch-0 work."""
        chunks = getattr(self.img_bytes, "chunks", [self.img_bytes])
        for chunk in chunks:
            for b in chunk.buffers():
                if b is not None and len(b):
                    int(np.frombuffer(b, np.uint8)[:: 4096].sum())
        batch = pa.table(
            {
                "fetch_seq": pa.array([0], pa.int64()),
                "epoch": pa.array([0], pa.int32()),
                "url": pa.array([self.store.urls[0]], pa.string()),
                "url_hash": pa.array([0], pa.uint64()),
                "content_row": pa.array([0], pa.int64()),
            }
        )
        saved, self.payload_dir = self.payload_dir, None
        try:
            self.__call__(batch)
        finally:
            self.payload_dir = saved
        return True

    def __call__(
        self, batch: pa.Table, start: int | None = None, length: int | None = None
    ) -> tuple[pa.Table, pa.Table]:
        """picks chunk → (content metadata table, candidates table);
        payload bytes written to parquet here (if payload_dir set).

        The driver ships the WHOLE epoch's picks once via ``ray.put``
        and passes (ref, start, length) per chunk — the actor slices
        its window zero-copy instead of the driver serializing one
        slice per chunk.

        One Python loop over the live pages (``content_row >= 0``)
        renders, shortens and extracts each page, reads its title and
        decodes its image; the decoded images are hashed by
        ``phash64_batch`` a stack (``PHASH_BATCH_BYTES``) at a time.
        Everything else runs once per chunk: the content columns taken
        or built from arrays, one ``take`` of the payload bytes and the
        candidates' (fetch_seq, pos) from two ``np.repeat``."""
        _t0 = time.perf_counter()
        if start is not None:
            batch = batch.slice(start, length)
        store = self.store
        content_rows = batch["content_row"].to_numpy(zero_copy_only=False)
        live = np.flatnonzero(content_rows >= 0)
        rows = content_rows[live]
        imgs = store.image_idx[rows]
        titles: list[str] = []
        captions: list[str] = []
        image_ids: list[str] = []
        fmts: list[str] = []
        # decoded images wait for the next phash64_batch only until they
        # fill one stack, so a chunk holds at most ~PHASH_BATCH_BYTES of
        # them, whatever its length and image size
        pixels: list[np.ndarray] = []
        held = 0
        hashed: list[np.ndarray] = []
        hw = np.empty((len(rows), 2), np.int32)
        ok = np.empty(len(rows), bool)  # per page: caption, fmt and sha
        n_links = np.empty(len(rows), np.int64)
        links: list[str] = []
        for i, (row, img) in enumerate(zip(rows.tolist(), imgs.tolist())):
            url = store.urls[row]
            https = url.startswith("https://")
            host = split_host(url)
            caption = store.captions[row]
            image_id = store.image_ids[row]
            html = synth.render_html(
                url, host, https, caption, image_id,
                store.links_of(row), store.link_sel_of(row),
            )
            page_links = extract_links(shorten_html(html), host, https)
            # zero-copy window into the broadcast images table (one
            # plasma-backed physical copy per node): no byte copies
            px, fmt = decode_image(self.img_bytes[img].as_buffer())
            good = caption == self.img_caption[img] and fmt == self.img_fmt[img]
            if good and self.truth_sha is not None:
                good = (
                    hashlib.sha256(px.reshape(-1).data).hexdigest()
                    == self.truth_sha[img]
                )
            ok[i] = good
            n_links[i] = len(page_links)
            links += page_links
            titles.append(get_title(html))
            captions.append(caption)
            image_ids.append(image_id)
            fmts.append(fmt)
            hw[i] = px.shape[:2]
            pixels.append(px)
            held += px.nbytes
            if held >= PHASH_BATCH_BYTES:
                hashed.append(phash64_batch(pixels))
                pixels, held = [], 0
        phash = np.concatenate([*hashed, phash64_batch(pixels)])
        ok &= phash == self.img_phash[imgs]
        head = batch.select(["fetch_seq", "epoch", "url", "url_hash"]).take(live)
        offsets = np.zeros(len(rows) + 1, np.int32)
        np.cumsum(n_links, out=offsets[1:])
        link_arr = pa.array(links, pa.string())
        content = pa.table(
            {
                **{k: head[k] for k in head.column_names},
                "title": pa.array(titles, pa.string()),
                "image_id": pa.array(image_ids, pa.string()),
                "caption": pa.array(captions, pa.string()),
                "w": hw[:, 1],
                "h": hw[:, 0],
                "fmt": pa.array(fmts, pa.string()),
                "phash": phash,
                "invariant_ok": ok,
                "links": pa.ListArray.from_arrays(offsets, link_arr),
            },
            schema=CONTENT_SCHEMA,
        )
        if self.payload_dir and len(content):
            self._write_payload(content, self.img_bytes.take(imgs))
        fseq = content["fetch_seq"].to_numpy()
        cand = make_candidates(
            link_arr,
            np.repeat(fseq, n_links),
            np.arange(len(links)) - np.repeat(offsets[:-1], n_links),
            self.shard_count,
        )
        self._calls += 1
        self._pages += len(content)
        self._busy_s += time.perf_counter() - _t0
        return content, cand

    def _write_payload(self, content: pa.Table, data: pa.Array) -> None:
        """Write the chunk's image bytes under ``payload_dir``.

        Rows are routed by their OWN epoch: the crawl engine stamps one
        epoch per chunk so the loop is a single iteration there, but a
        direct caller mixing epochs must not mis-file rows under a
        partition a resume would treat as finished."""
        tbl = pa.table(
            {
                "fetch_seq": content["fetch_seq"],
                "image_id": content["image_id"],
                "bytes": data,
            },
            schema=PAYLOAD_SCHEMA,
        )
        ep = content["epoch"].to_numpy()
        for e in np.unique(ep):
            d = os.path.join(self.payload_dir, f"epoch={int(e)}")
            os.makedirs(d, exist_ok=True)
            sub = tbl.filter(pa.array(ep == e))
            pq.write_table(
                sub,
                os.path.join(d, f"part-{sub['fetch_seq'][0].as_py():010d}.parquet"),
                # payload bytes are already codec-compressed — a
                # second (snappy/dict) pass burns CPU for ~0 gain
                # and was the dominant cost under a concurrent
                # fetch pool
                compression="none",
                use_dictionary=False,
            )
