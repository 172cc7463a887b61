"""Inputs for the benchmark workloads.

The crawl fixtures come from single-threaded ``sources.synth`` calls in
the benchmark process, so the same seed always gives the same inputs.
The catalog reads fixed tables: ``data/catalog`` holds copies of the
repo's declared test tables (see ``CATALOG_DIR``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import pyarrow as pa

# Unchanged copies of the repo's sf0.01 test tables (TESTDATA.md, seed
# 42), the scale the tier-1 DuckDB gate checks.  sf0.1 ships no part
# table for q26's join, and Ray Data's fixed per-query cost dominates a
# pass at either scale.  The seed does not change them.
CATALOG_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "catalog"
)


@dataclass(frozen=True)
class CrawlSpec:
    n_urls: int
    n_images: int
    img_sizes: tuple
    mean_links: float
    n_seeds: int
    write_payload: bool


# shard/batch/cap sizing of the crawl workload; seen_shards=2
# matches the 2-CPU Ray session the benchmark runs in
CRAWL_CFG = dict(
    shard_count=8, per_shard_batch=4000, per_host_epoch_cap=2000, seen_shards=2
)

CRAWL_SPECS = {
    # tiny images, dense link graph: link extraction, candidate prep and
    # the admission ladder do the work; payload parquet writes are on
    "crawl_admit": {
        "full": CrawlSpec(5000, 128, (16, 32), 24.0, 300, True),
        "tiny": CrawlSpec(400, 16, (16,), 24.0, 20, True),
    },
}


@dataclass
class CrawlFixture:
    spec: CrawlSpec
    images: pa.Table
    truth: pa.Table
    store: object  # sources.synth.WebStore
    seeds: list


def crawl_fixture(workload: str, scale: str, seed: int) -> CrawlFixture:
    from searchengine_ray.sources import synth

    spec = CRAWL_SPECS[workload][scale]
    images, truth = synth.gen_images(spec.n_images, seed=seed, sizes=spec.img_sizes)
    store = synth.gen_web(
        spec.n_urls, spec.n_images, seed=seed, mean_links=spec.mean_links
    )
    synth.attach_captions(store, images)
    seeds = synth.gen_seeds(store, spec.n_seeds, seed=seed)
    return CrawlFixture(spec, images, truth, store, seeds)
