"""Benchmark of the crawl engine and the query catalog.

    python3 perfbench/run.py --workload crawl_admit --seed 1 --seconds 25 --trace 0

Runs one workload (see BENCHMARK.json) in this process against the
``searchengine_ray`` package of the checkout this file sits in, checks
every output against its oracle, and prints the metrics by name with
their unit.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer ones.
perfbench/METRICS.md says what each metric measures.

``--scale tiny`` shrinks every input (for the smoke test);
``--plant-mismatch`` corrupts the expected outputs so every check must
fail (the smoke test's proof that checks can fail).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import threading
import traceback

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
WORKLOADS = ("crawl_admit", "catalog")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    p.add_argument("--plant-mismatch", action="store_true")
    return p.parse_args(argv)


def _report(args, spec, out, probe_s, steal) -> dict:
    """Print the readable block and build the JSON result."""
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if args.trace:
        # a layer the workload never enters did 0 work
        values = {n: out.layers.get(n, 0.0) for n in units}
    else:
        values = {n: out.e2e[n] for n in units if n in out.e2e}
    error_rate = out.failed / out.attempted if out.attempted else 1.0
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, v in values.items():
        print(f"{name} = {v:.6g} {units[name]}")
    for name, (v, unit) in out.info.items():
        print(f"{name} = {v:.6g} {unit}")
    print(f"error_rate = {error_rate:.6g} ({out.failed}/{out.attempted} ops failed)")
    print(f"host.probe_s = {probe_s:.6g} s")
    print(f"host.steal_share = {steal:.4f}")
    for line in out.log:
        print(f"# {line}")
    return {
        "correct": out.attempted > 0 and out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(_ROOT, "searchengine_ray", "__init__.py")):
        print(f"no searchengine_ray package in {_ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, _ROOT)
    # Ray workers do not inherit sys.path
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (_ROOT, os.environ.get("PYTHONPATH")) if p
    )
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    import common
    import probes

    # every run owns its temp root, so runs that overlap never share or
    # delete each other's files
    tmp_parent = os.path.join(_ROOT, ".perfbench_tmp")
    tmp_root = os.path.join(tmp_parent, f"{args.workload}-{os.getpid()}")
    work_dir = os.path.join(tmp_root, "work")
    os.makedirs(os.path.join(tmp_root, "tmp"), exist_ok=True)
    os.makedirs(work_dir, exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(tmp_root, "tmp")  # Ray workers inherit it
    # Ray's temp dir holds AF_UNIX sockets (~65 more bytes of path, 107
    # max): keep it in the run's temp root when the path fits
    ray_tmp = os.path.join(tmp_root, "ray")
    if len(ray_tmp) > 40:
        ray_tmp = f"/tmp/perfbench-{os.getpid()}"
    ctx = common.Context(
        root=_ROOT,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        scale=args.scale,
        plant_mismatch=args.plant_mismatch,
        work_dir=work_dir,
        ray_tmp=ray_tmp,
    )

    def watchdog():
        print("benchmark exceeded its deadline", file=sys.stderr)
        for pid in probes.descendants(os.getpid()):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        shutil.rmtree(tmp_root, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)
        os._exit(3)

    timer = threading.Timer(common.DEADLINE_S + 12, watchdog)
    timer.daemon = True
    timer.start()

    probe_s = probes.host_probe_s()
    if args.workload == "catalog":
        import workload_catalog as wl
    else:
        import workload_crawl as wl
    code = 0
    ticks0 = probes.host_ticks()
    try:
        out = wl.run(ctx)
        steal = probes.steal_share(ticks0, probes.host_ticks())
    except Exception:  # noqa: BLE001 - reported, then the run fails
        traceback.print_exc()
        code = 1
    finally:
        if ctx.ray_started:
            import ray

            pids = list(probes.descendants(os.getpid()))
            ray.shutdown()
            probes.stop_processes(pids)
        shutil.rmtree(tmp_root, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_parent)  # only if no other run is using it
        except OSError:
            pass
        timer.cancel()
    if code == 0:
        result = _report(args, spec, out, probe_s, steal)
        print(json.dumps(result))
    sys.stdout.flush()
    sys.stderr.flush()
    return code


if __name__ == "__main__":
    # skip interpreter teardown: a timed-out op may have left a thread
    # blocked inside Ray's client, which can hang a normal exit
    os._exit(main())
