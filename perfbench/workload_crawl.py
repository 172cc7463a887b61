"""crawl_admit: the crawl engine to frontier exhaustion.

One op is one crawl: build a ``RemoteCrawl`` over the seeded fixture,
admit the seeds, warm up (set-up), ``run()`` to exhaustion (timed), then
check the crawl order and seen set against ``pipelines.oracle.simulate``
and every ``invariant_ok`` (untimed).  A crawl cannot be rerun on the
same engine, so every op builds a fresh one; that repeats set-up too.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time

import probes
from common import N_FETCH_ACTORS, N_HOST_ACTORS, Outcome, call_with_timeout
from fixtures import CRAWL_CFG, crawl_fixture


def _order_tuples(tbl) -> list:
    cols = ("fetch_seq", "url", "url_hash", "t_sched", "epoch")
    return list(zip(*(tbl[c].to_pylist() for c in cols)))


def _matches(res, want_order: list, want_seen: set) -> bool:
    if res.crawl_order is None or _order_tuples(res.crawl_order) != want_order:
        return False
    if res.seen != want_seen:
        return False
    return res.content is None or all(res.content["invariant_ok"].to_pylist())


def _metric_sums(res) -> dict[str, int]:
    cols = ("picked", "fetched_ok", "candidates", "admitted", "rejected_dup")
    if res.metrics is None:
        return dict.fromkeys(cols, 0)
    return {c: sum(res.metrics[c].to_pylist()) for c in cols}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _layers(res, run_s, cpu, spans, fetch_stats, seen_mem) -> dict[str, float]:
    m = _metric_sums(res)
    busy = sum(s["busy_s"] for s in fetch_stats)
    pages = sum(s["pages"] for s in fetch_stats)

    def span(*methods: str) -> float:
        return sum(spans.get(f"task::{x}", 0.0) for x in methods)

    return {
        "fetch.cpu_s": cpu.get("FetchDecode", 0.0),
        "fetch.busy_s": busy,
        "fetch.pages_per_busy_s": _ratio(pages, busy),
        "fetch.ok_ratio": _ratio(m["fetched_ok"], m["picked"]),
        "host.cpu_s": cpu.get("HostShards", 0.0),
        "host.phase1_busy_s": span("HostShards.admit_phase1_chunks"),
        "host.dequeue_busy_s": span(
            "HostShards.append_and_dequeue",
            "HostShards.dequeue_epoch",
            "HostShards.dequeue_select",
        ),
        "host.append_busy_s": span(
            "HostShards.append_many", "HostShards.append_frontier"
        ),
        "seen.cpu_s": cpu.get("_SeenActor", 0.0),
        "seen.phase2_busy_s": span("_SeenActor.test_and_add_wave"),
        "seen.dup_ratio": _ratio(m["rejected_dup"], m["candidates"]),
        "seen.bytes_per_url": seen_mem,
        "crawl.epochs": float(res.epochs),
        "crawl.sequencer_busy_s": span("_Sequencer.process"),
        "crawl.dispatch_cpu_s": cpu.get("_Dispatcher", 0.0),
        "crawl.engine_cpu_s": cpu.get("_EngineHost", 0.0),
        "crawl.admit_ratio": _ratio(m["admitted"], m["candidates"]),
        "crawl.fetch_idle_share": 1.0
        - _ratio(span("FetchDecode.__call__"), N_FETCH_ACTORS * run_s),
        **probes.ray_layers(cpu, spans),
    }


def run(ctx) -> Outcome:
    from searchengine_ray.pipelines.oracle import CrawlConfig, simulate

    fx = crawl_fixture(ctx.workload, ctx.scale, ctx.seed)
    cfg = CrawlConfig(**CRAWL_CFG)
    golden = simulate(fx.seeds, fx.store, cfg)
    want_order, want_seen = golden.crawl_order, golden.seen
    if ctx.plant_mismatch and len(want_order) > 1:
        want_order = [want_order[1], want_order[0]] + want_order[2:]

    out = Outcome()
    if ctx.trace:
        from kernels import kernel_rates

        out.layers.update(kernel_rates(fx))

    import ray
    from searchengine_ray.pipelines.crawl import RemoteCrawl

    ray_init_s = ctx.init_ray()
    setups, rates, traced_rates, layer_rows, seen_bpu = [], [], [], [], []
    loop_start = time.perf_counter()
    while (
        time.perf_counter() - loop_start < ctx.seconds or out.attempted < 2
    ) and ctx.time_left() > 0:
        i = out.attempted
        out.attempted += 1
        traced = ctx.trace and i % 2 == 1
        op_dir = os.path.join(ctx.work_dir, f"crawl{i}")
        eng = None
        probes.wait_quiet()
        try:
            t = time.perf_counter()
            eng = RemoteCrawl(
                fx.store, fx.images, fx.truth, cfg, out_dir=op_dir,
                n_host_actors=N_HOST_ACTORS, n_fetch_actors=N_FETCH_ACTORS,
                write_payload=fx.spec.write_payload,
            )

            def setup():
                eng.admit_seeds(fx.seeds)
                eng.warmup()

            call_with_timeout(setup, ctx.op_timeout())
            setup_s = time.perf_counter() - t

            if traced:
                stats0 = ray.get([a.stats.remote() for a in eng.fetch_actors])
            cpu0 = probes.cpu_snapshot()
            w0 = time.time()
            t = time.perf_counter()
            res = call_with_timeout(eng.run, ctx.op_timeout())
            run_s = time.perf_counter() - t
            w1 = time.time()
            cpu = probes.cpu_by_group(cpu0, probes.cpu_snapshot())
            if traced:
                stats1 = ray.get([a.stats.remote() for a in eng.fetch_actors])
            mem = ray.get([a.mem_bytes.remote() for a in eng.seen_actors])
            bpu = _ratio(sum(b for b, _ in mem), sum(n for _, n in mem))

            if not _matches(res, want_order, want_seen):
                out.failed += 1
                out.log.append(f"failed: op {i}: crawl differs from the oracle")
                continue
            setups.append(setup_s)
            seen_bpu.append(bpu)
            n_urls = len(res.crawl_order)
            rate = n_urls / run_s
            out.log.append(
                f"op {i}: setup {setup_s:.3f} s, run {run_s:.3f} s, "
                f"{n_urls} URLs, {rate:.1f} URLs/s, "
                f"{1e3 * sum(cpu.values()) / n_urls:.4f} CPU ms/URL"
                + (" (traced)" if traced else "")
            )
            if traced:
                traced_rates.append(rate)
                probes.wait_for_spans()
                spans = probes.span_seconds(ray.timeline(), w0, w1)
                fstats = [
                    {k: b[k] - a[k] for k in ("pages", "busy_s")}
                    for a, b in zip(stats0, stats1)
                ]
                layer_rows.append(
                    _layers(res, run_s, cpu, spans, fstats, bpu)
                )
            else:
                rates.append(rate)
        except TimeoutError:
            out.failed += 1
            out.log.append(f"failed: op {i}: timed out")
            break  # the engine is wedged; stop measuring
        except Exception as e:  # noqa: BLE001 - any failing op is counted
            out.failed += 1
            out.log.append(f"failed: op {i}: {type(e).__name__}: {e}")
        finally:
            if eng is not None:
                # let the engine's actor processes exit before the next
                # op starts, so they do not compete with its set-up
                actors = [
                    pid for pid, (group, _) in probes.cpu_snapshot().items()
                    if group not in ("bench", "runtime", "worker")
                ]
                eng.shutdown()
                probes.stop_processes(actors)
            shutil.rmtree(op_dir, ignore_errors=True)

    if setups:
        out.e2e["setup_s"] = ray_init_s + statistics.median(setups)
    if rates:
        out.e2e["items_per_s"] = statistics.median(rates)
        out.info["urls_per_s"] = (statistics.median(rates), "URLs/s")
    if seen_bpu:
        out.info["seen_bytes_per_url"] = (statistics.median(seen_bpu), "B/URL")
    out.info["crawl_urls"] = (float(len(want_order)), "URLs")
    if layer_rows:
        for k in layer_rows[0]:
            out.layers[k] = statistics.median(r[k] for r in layer_rows)
        out.layers["trace.items_per_s"] = statistics.median(traced_rates)
        if rates:
            out.layers["trace.overhead_per_s"] = (
                statistics.median(traced_rates) - statistics.median(rates)
            )
    return out
