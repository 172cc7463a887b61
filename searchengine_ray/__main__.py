"""CLI entry points (the reference's interactive menu + search REPL,
``SearchEngine.cpp:1403-1460`` / ``PageSearcher.cpp:111-150``, as
non-interactive subcommands):

    python -m searchengine_ray crawl  [--urls N] [--images N] [--out DIR]
    python -m searchengine_ray search [--query "terms"] [--sf DIR]
    python -m searchengine_ray query  NAME [--sf DIR]
    python -m searchengine_ray list

Owns its Ray session (guarded init), unlike the library/driver paths.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _ray_session(num_cpus: int):
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return ray


def cmd_crawl(args) -> int:
    ray = _ray_session(args.num_cpus)
    from .pipelines.crawl import run_crawl
    from .pipelines.oracle import CrawlConfig
    from .sources import synth

    images, truth = synth.gen_images(args.images, seed=args.seed)
    store = synth.gen_web(args.urls, args.images, seed=args.seed)
    synth.attach_captions(store, images)
    seeds = synth.gen_seeds(store, max(8, args.urls // 1000), seed=args.seed)
    try:
        res = run_crawl(
            seeds, store, images, truth,
            cfg=CrawlConfig(shard_count=8, per_shard_batch=2000, seen_shards=4),
            out_dir=args.out, checkpoint=args.checkpoint,
            # each fetch actor holds one CPU for its lifetime
            n_fetch_actors=min(4, args.num_cpus),
        )
    except FileExistsError as e:
        print(e, file=sys.stderr)
        ray.shutdown()
        return 1
    print(
        json.dumps(
            {
                "fetched": len(res.crawl_order),
                "content": len(res.content) if res.content is not None else 0,
                "seen": len(res.seen),
                "epochs": res.epochs,
                "out_dir": args.out,
            }
        )
    )
    ray.shutdown()
    return 0


def cmd_search(args) -> int:
    ray = _ray_session(args.num_cpus)
    from .pipelines.index import SearchIndex, build_index, doc_hosts
    from .sources.storage import read_parquet

    path = f"{args.sf}/documents.parquet"
    docs = read_parquet(path, columns=["doc_id", "text"])
    dict_ds = build_index(docs).materialize()
    idx = SearchIndex(dict_ds, doc_host=doc_hosts(path))
    out = idx.search(args.query, max_show=args.max_show)
    print(out.to_string())
    ray.shutdown()
    return 0


def cmd_query(args) -> int:
    ray = _ray_session(args.num_cpus)
    from .pipelines.queries import queries

    cat = queries()
    if args.name not in cat:
        print(f"unknown query {args.name!r}; see `list`", file=sys.stderr)
        return 2
    out = cat[args.name](args.sf)
    if hasattr(out, "to_pandas"):
        out = out.to_pandas()
    print(out.head(args.max_show).to_string())
    ray.shutdown()
    return 0


def cmd_get(args) -> int:
    from .pipelines.crawl import get_page

    row = get_page(args.out, args.url)
    if row is None:
        print("not found", file=sys.stderr)
        return 1
    data = row.pop("bytes", None)
    print(json.dumps(row, default=str))
    if data is not None:
        print(f"payload: {len(data)} bytes", file=sys.stderr)
    return 0


def cmd_etl(args) -> int:
    from .pipelines.export import corpus_etl, span_dedup_etl

    stats = corpus_etl(args.sf, args.out)
    if args.span_dedup:
        stats["span_dedup"] = span_dedup_etl(
            args.out, args.out.rstrip("/") + "_spandedup"
        )
    print(json.dumps(stats))
    return 0


def cmd_curate(args) -> int:
    from .pipelines.curate import curation_funnel

    counts = curation_funnel(args.sf, out_dir=args.out)
    print(counts.to_string(index=False))
    print(f"corpus + MANIFEST.json written to {args.out}")
    return 0


def cmd_ingest(args) -> int:
    from .pipelines.ingest import ingest_documents

    inputs = args.inputs[0] if len(args.inputs) == 1 and os.path.isdir(
        args.inputs[0]
    ) else args.inputs
    print(json.dumps(ingest_documents(inputs, args.out)))
    return 0


def cmd_list(args) -> int:
    from .pipelines.queries import oracle_sql, queries

    sql = set(oracle_sql())
    for name in queries():
        kind = "sql-checked" if name in sql else "rows-only"
        print(f"{name:36s} {kind}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="searchengine_ray")
    p.add_argument("--num-cpus", type=int, default=8)
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("crawl", help="crawl the synthetic web to exhaustion")
    c.add_argument("--urls", type=int, default=2000)
    c.add_argument("--images", type=int, default=200)
    c.add_argument("--seed", type=int, default=42)
    c.add_argument("--out", default="/tmp/raycrawl_cli")
    c.add_argument("--checkpoint", action="store_true")
    c.set_defaults(fn=cmd_crawl)

    s = sub.add_parser("search", help="build index over documents + search")
    s.add_argument("--query", default="query filter")
    s.add_argument("--sf", default="/root/testdata/sf0.001")
    s.add_argument("--max-show", type=int, default=20)
    s.set_defaults(fn=cmd_search)

    q = sub.add_parser("query", help="run a catalog query")
    q.add_argument("name")
    q.add_argument("--sf", default="/root/testdata/sf0.001")
    q.add_argument("--max-show", type=int, default=20)
    q.set_defaults(fn=cmd_query)

    l = sub.add_parser("list", help="list catalog queries")
    l.set_defaults(fn=cmd_list)

    e = sub.add_parser(
        "etl", help="resumable corpus ETL (documents -> cleaned parquet parts)"
    )
    e.add_argument("--sf", default="/root/testdata/sf0.001")
    e.add_argument("--out", default="/tmp/corpus_etl")
    e.add_argument(
        "--span-dedup",
        action="store_true",
        help="phase 2: global substring dedup (Lee et al. 2021) into "
        "<out>_spandedup (all-or-nothing atomic publish)",
    )
    e.set_defaults(fn=cmd_etl)

    cu = sub.add_parser(
        "curate",
        help="end-to-end curation funnel (clean -> dedup -> near-dup "
        "-> decontaminate -> split) writing the final corpus",
    )
    cu.add_argument("--sf", default="/root/testdata/sf0.001")
    cu.add_argument("--out", default="/tmp/curated_corpus")
    cu.set_defaults(fn=cmd_curate)

    ing = sub.add_parser(
        "ingest",
        help="land external CSV/JSONL/parquet files as canonical "
        "documents parts (resumable per file)",
    )
    ing.add_argument("inputs", nargs="+",
                     help="input files, or one directory to scan")
    ing.add_argument("--out", default="/tmp/ingest_documents")
    ing.set_defaults(fn=cmd_ingest)

    g = sub.add_parser("get", help="export one crawled page (S12 #get)")
    g.add_argument("url")
    g.add_argument("--out", default="/tmp/raycrawl_cli")
    g.set_defaults(fn=cmd_get)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
