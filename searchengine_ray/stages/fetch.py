"""Fetch + decode + verify stage (actor pool over zero-copy Arrow).

The reference fetches with one OS thread per connection
(``SearchEngine.cpp:884-888``, ``httpDownload.h:77-140``); here fetch
is a persistent actor pool: the synthetic web store and the images
payload table are broadcast ONCE via ``ray.put`` and read in
``__init__`` (once per actor) — never re-shipped per batch.

Per page the actor: renders the page HTML deterministically (href forms
from the store's precomputed link selectors), shortens
it (M8/M9), extracts link candidates (M10), materializes the image
payload, decodes it and checks the per-row invariants (decoded-pixel
sha vs truth — exact because truth is derived from post-codec pixels,
with the lossy codec's PSNR ≥ 40 dB bound asserted by codec tests —
plus caption equality and phash consistency).

Scale design: the actor ALSO
* canonicalizes/filters the extracted links into admission candidates
  (so the per-epoch candidate prep is parallel, not driver-serial) —
  the URL kernels run once per distinct canonical URL of the chunk and
  the host kernels once per distinct host (``make_candidates``), and
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
from ..sources.codec import decode_image, phash64
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
        ("raw", pa.string()),
        ("url", pa.string()),
        ("url_hash", pa.uint64()),
        ("host_hash", pa.uint64()),
        ("host", pa.string()),
        ("shard", pa.int32()),
    ]
)


def make_candidates(
    raw_links: list[str], fseqs: list[int], poss: list[int], shard_count: int
) -> pa.Table:
    """Canonicalize + static-filter raw link candidates (vectorized);
    output stays in (fetch_seq, pos) order.

    Most kept links repeat a URL or (far more often) a host already in
    the chunk, so the URL kernels run once per DISTINCT canonical URL
    and the host kernels once per distinct host; each result is
    gathered back to its rows through the dictionary indices."""
    if not raw_links:
        return CAND_SCHEMA.empty_table()
    raw = pa.array(raw_links, type=pa.string())
    canon, valid = uk.truncate_batch(raw)
    fmask, _ = uk.filter_mask_batch(canon)
    keep = np.nonzero(valid & fmask)[0]
    idx = pa.array(keep)
    canon_k = canon.take(idx)
    urls = canon_k.dictionary_encode()
    url_rows = urls.indices.to_numpy()
    hosts = uk.split_host_batch(urls.dictionary).dictionary_encode()
    host_rows = hosts.indices.to_numpy()[url_rows]
    uniq_hosts = hosts.dictionary
    shard = uk.collision_hash_batch(uniq_hosts) % np.uint64(shard_count)
    return pa.table(
        {
            "fetch_seq": pa.array(np.asarray(fseqs, np.int64)[keep]),
            "pos": pa.array(np.asarray(poss, np.int32)[keep]),
            "raw": raw.take(idx),
            "url": canon_k,
            "url_hash": pa.array(uk.url_hash_batch(urls.dictionary)[url_rows]),
            "host_hash": pa.array(uk.host_hash_batch(uniq_hosts)[host_rows]),
            "host": uniq_hosts.take(pa.array(host_rows)),
            "shard": pa.array(shard.astype(np.int32)[host_rows]),
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
        self.img_phash = images.column("phash").to_pylist()
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
        slice per chunk."""
        _t0 = time.perf_counter()
        if start is not None:
            batch = batch.slice(start, length)
        store = self.store
        out = {k.name: [] for k in CONTENT_SCHEMA}
        pay = {k.name: [] for k in PAYLOAD_SCHEMA}
        pay_epochs: list[int] = []  # per-row epoch for partition routing
        raw_links: list[str] = []
        link_seq: list[int] = []
        link_pos: list[int] = []
        content_rows = batch["content_row"].to_numpy(zero_copy_only=False)
        fseqs = batch["fetch_seq"].to_numpy(zero_copy_only=False)
        epochs = batch["epoch"].to_numpy(zero_copy_only=False)
        urls = batch["url"].to_pylist()
        uhashes = batch["url_hash"].to_numpy(zero_copy_only=False)
        for i in range(len(batch)):
            row = int(content_rows[i])
            if row < 0:
                continue
            url = store.urls[row]
            https = url.startswith("https://")
            host = split_host(url)
            img = int(store.image_idx[row])
            caption = store.captions[row]
            html = synth.render_html(
                url,
                host,
                https,
                caption,
                store.image_ids[row],
                store.links_of(row),
                store.link_sel_of(row),
            )
            short = shorten_html(html)
            links = extract_links(short, host, https)
            # zero-copy window into the broadcast images table (one
            # plasma-backed physical copy per node); pixel bytes are
            # hashed through buffer views — no per-page byte copies
            data = self.img_bytes[img].as_buffer()
            pixels, fmt = decode_image(data)
            ph = phash64(pixels)
            ok = (
                ph == self.img_phash[img]
                and caption == self.img_caption[img]
                and fmt == self.img_fmt[img]
            )
            if ok and self.truth_sha is not None:
                ok = (
                    hashlib.sha256(pixels.reshape(-1).data).hexdigest()
                    == self.truth_sha[img]
                )
            fseq = int(fseqs[i])
            out["fetch_seq"].append(fseq)
            out["epoch"].append(int(epochs[i]))
            out["url"].append(urls[i])
            out["url_hash"].append(int(uhashes[i]))
            out["title"].append(get_title(html))
            out["image_id"].append(store.image_ids[row])
            out["caption"].append(caption)
            out["w"].append(pixels.shape[1])
            out["h"].append(pixels.shape[0])
            out["fmt"].append(fmt)
            out["phash"].append(ph)
            out["invariant_ok"].append(bool(ok))
            out["links"].append(links)
            if self.payload_dir:
                pay["fetch_seq"].append(fseq)
                pay["image_id"].append(store.image_ids[row])
                pay["bytes"].append(data.to_pybytes())
                pay_epochs.append(int(epochs[i]))
            raw_links.extend(links)
            link_seq.extend([fseq] * len(links))
            link_pos.extend(range(len(links)))
        content = pa.table(out, schema=CONTENT_SCHEMA)
        if self.payload_dir and pay["fetch_seq"]:
            # Route payload rows by their OWN epoch: the crawl engine
            # stamps one epoch per chunk so the loop is a single
            # iteration there, but a direct caller mixing epochs must
            # not mis-file rows under a partition a resume would treat
            # as finished.
            tbl = pa.table(pay, schema=PAYLOAD_SCHEMA)
            ep = np.asarray(pay_epochs, dtype=np.int64)
            for e in np.unique(ep):
                d = os.path.join(self.payload_dir, f"epoch={int(e)}")
                os.makedirs(d, exist_ok=True)
                sub = tbl.filter(pa.array(ep == e))
                pq.write_table(
                    sub,
                    os.path.join(
                        d, f"part-{sub['fetch_seq'][0].as_py():010d}.parquet"
                    ),
                    # payload bytes are already codec-compressed — a
                    # second (snappy/dict) pass burns CPU for ~0 gain
                    # and was the dominant cost under a concurrent
                    # fetch pool
                    compression="none",
                    use_dictionary=False,
                )
        cand = make_candidates(raw_links, link_seq, link_pos, self.shard_count)
        self._calls += 1
        self._pages += len(content)
        self._busy_s += time.perf_counter() - _t0
        return content, cand
