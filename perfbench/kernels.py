"""Hot crawl kernels timed in isolation, in-process, on inputs taken from
the workload's own crawl fixture.  Each rate is items per second of the
median repetition."""

from __future__ import annotations

import statistics
import time

import numpy as np
import pyarrow as pa

from fixtures import CRAWL_CFG


def _rate(fn, n_items: int, budget_s: float = 0.3, min_reps: int = 3) -> float:
    times = []
    start = time.perf_counter()
    while len(times) < min_reps or time.perf_counter() - start < budget_s:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return n_items / statistics.median(times)


def kernel_rates(fx, n_pages: int = 400) -> dict[str, float]:
    from searchengine_ray.functions import urlkernel as uk
    from searchengine_ray.functions.hashing import fnv1a64_batch
    from searchengine_ray.sources import synth
    from searchengine_ray.sources.codec import decode_image, phash64
    from searchengine_ray.stages.extract import extract_links, shorten_html
    from searchengine_ray.stages.fetch import make_candidates
    from searchengine_ray.state.cuckoo import SeenShard

    store = fx.store
    blobs = fx.images.column("bytes").to_pylist()

    def decode_all():
        for b in blobs:
            phash64(decode_image(b)[0])

    # the pages a fetch actor would render: live rows of the store
    rows = np.nonzero(store.status == synth.STATUS_OK)[0][:n_pages]
    pages = []
    for row in rows.tolist():
        url = store.urls[row]
        host = uk.split_host(url)
        https = url.startswith("https://")
        html = synth.render_html(
            url, host, https, store.captions[row], store.image_ids[row],
            store.links_of(row),
        )
        pages.append((shorten_html(html), host, https))

    def extract_all():
        return [extract_links(s, h, https) for s, h, https in pages]

    links = extract_all()
    raw = [u for ls in links for u in ls]
    fseqs = [i for i, ls in enumerate(links) for _ in ls]
    poss = [p for ls in links for p in range(len(ls))]
    raw_arr = pa.array(raw, pa.string())
    canon, valid = uk.truncate_batch(raw_arr)
    canon_ok = canon.filter(pa.array(valid))
    cand = make_candidates(raw, fseqs, poss, CRAWL_CFG["shard_count"])
    hashes = cand["url_hash"].to_numpy(zero_copy_only=False)

    return {
        "kernel.decode_phash_per_s": _rate(decode_all, len(blobs)),
        "kernel.extract_links_per_s": _rate(extract_all, len(pages)),
        "kernel.make_candidates_per_s": _rate(
            lambda: make_candidates(raw, fseqs, poss, CRAWL_CFG["shard_count"]),
            len(raw),
        ),
        "kernel.truncate_batch_per_s": _rate(
            lambda: uk.truncate_batch(raw_arr), len(raw)
        ),
        "kernel.fnv1a64_batch_per_s": _rate(
            lambda: fnv1a64_batch(canon_ok), len(canon_ok)
        ),
        "kernel.test_and_add_per_s": _rate(
            lambda: SeenShard(capacity=1 << 14, seed=0).test_and_add(hashes),
            len(hashes),
        ),
    }
