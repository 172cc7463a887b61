"""Measurement helpers that observe the program from outside.

* ``host_probe_s``: a fixed numpy + pure-Python loop, recorded beside
  every run so host slowness shows.  It shares no code with the
  program, so no change to the program moves it.
* ``host_ticks``/``steal_share``: the share of the machine's CPU time
  the hypervisor gave to other guests during a run, from ``/proc/stat``.
* ``cpu_snapshot``/``cpu_by_group``: per-process CPU seconds of this
  process and its descendants (raylet, GCS, Ray workers) from
  ``/proc/<pid>/stat``, grouped by Ray process title.
* ``wait_quiet``/``stop_processes``: start each op on an idle Ray
  session, and leave no process behind.
* ``span_seconds``: total duration of ``ray.timeline()`` spans per name
  inside a wall-clock window.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

import numpy as np

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def host_probe_s(reps: int = 3) -> float:
    """Median wall time of a fixed numpy + pure-Python workload."""
    rng = np.random.default_rng(0)
    mat = rng.random((160, 160))
    vec = rng.random(200_000)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = mat
        for _ in range(6):
            acc = acc @ mat
            acc /= acc.max()
        np.sort(vec)
        s = 0
        for i in range(600_000):
            s += (i * i) % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def host_ticks() -> tuple[int, int]:
    """(all, steal) CPU ticks of the machine so far."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:]]
    return sum(ticks), ticks[7]


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Steal ticks over all ticks between two ``host_ticks`` readings."""
    total = after[0] - before[0]
    return (after[1] - before[1]) / total if total else 0.0


def _cpu_s(stat: str) -> float:
    """utime + stime of a ``/proc/<pid>/stat`` line, in seconds."""
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def descendants(root: int) -> dict[int, tuple[int, str, float]]:
    """pid → (ppid, title, CPU seconds) for every live descendant of
    ``root``."""
    procs = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
            with open(f"/proc/{name}/cmdline", "rb") as f:
                cmd = f.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        title = cmd.split(b"\0")[0].decode(errors="replace").strip()
        procs[int(name)] = (ppid, title, _cpu_s(stat))
    keep = {root}
    grew = True
    while grew:
        grew = False
        for pid, (ppid, _, _) in procs.items():
            if ppid in keep and pid not in keep:
                keep.add(pid)
                grew = True
    keep.discard(root)
    return {pid: procs[pid] for pid in keep}


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def stop_processes(pids, grace_s: float = 10.0) -> None:
    """Wait for ``pids`` to exit; SIGKILL whatever outlives ``grace_s``."""
    end = time.monotonic() + grace_s
    while time.monotonic() < end and any(_alive(p) for p in pids):
        time.sleep(0.05)
    for pid in pids:
        if _alive(pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
    end = time.monotonic() + 5.0
    while time.monotonic() < end and any(_alive(p) for p in pids):
        time.sleep(0.05)


def _group(title: str) -> str:
    """Ray actor processes are titled ``ray::Class`` (``ray::Class.method``
    while busy) and are grouped by class; Ray Data and idle workers form
    ``worker``; everything else (raylet, gcs_server, agents) is
    ``runtime``."""
    if not title.startswith("ray::"):
        return "runtime"
    name = title[5:].split(".", 1)[0].split()[0] if title[5:] else ""
    known = (
        "FetchDecode",
        "HostShards",
        "_SeenActor",
        "_Sequencer",
        "_Dispatcher",
        "_EngineHost",
    )
    return name if name in known else "worker"


def cpu_snapshot() -> dict[int, tuple[str, float]]:
    """pid → (group, CPU seconds) for this process (group ``bench``)
    and every process it started."""
    snap = {
        pid: (_group(title), cpu)
        for pid, (_, title, cpu) in descendants(os.getpid()).items()
    }
    with open("/proc/self/stat") as f:
        snap[os.getpid()] = ("bench", _cpu_s(f.read()))
    return snap


def cpu_by_group(before: dict, after: dict) -> dict[str, float]:
    """CPU seconds spent between two snapshots, per process group.
    Processes born in between count in full; processes that died in
    between are lost (take the second snapshot before tearing down)."""
    out: dict[str, float] = {}
    for pid, (group, cpu) in after.items():
        prev = before.get(pid, (group, 0.0))[1]
        out[group] = out.get(group, 0.0) + max(0.0, cpu - prev)
    return out


def wait_quiet(max_s: float = 8.0, step_s: float = 0.25, cores: float = 0.2) -> None:
    """Block until this process's descendants together use less than
    ``cores`` CPUs over one ``step_s`` interval (at most ``max_s``).
    Ray keeps starting idle workers after init and after actors die;
    an op started before that settles shares the CPUs with it."""
    end = time.monotonic() + max_s
    prev = cpu_snapshot()
    while time.monotonic() < end:
        time.sleep(step_s)
        cur = cpu_snapshot()
        used = cpu_by_group(prev, cur)
        used.pop("bench", None)
        if sum(used.values()) < cores * step_s:
            return
        prev = cur


def span_seconds(events: list, t0: float, t1: float) -> dict[str, float]:
    """Sum of span durations per span category for spans that start in
    [t0, t1] (wall-clock seconds).  Categories look like
    ``task::HostShards.admit_phase1_chunks`` or
    ``task:deserialize_arguments``."""
    lo, hi = t0 * 1e6, t1 * 1e6
    out: dict[str, float] = {}
    for e in events:
        if e.get("ph") != "X" or not (lo <= e.get("ts", 0) <= hi):
            continue
        cat = e.get("cat", "")
        out[cat] = out.get(cat, 0.0) + e.get("dur", 0.0) / 1e6
    return out


def ray_layers(cpu: dict, spans: dict) -> dict[str, float]:
    """The Ray runtime's per-layer metrics from ``cpu_by_group`` and
    ``span_seconds`` output."""
    return {
        "ray.deserialize_args_s": spans.get("task:deserialize_arguments", 0.0),
        "ray.store_outputs_s": spans.get("task:store_outputs", 0.0),
        "ray.runtime_cpu_s": cpu.get("runtime", 0.0),
        "ray.worker_cpu_s": sum(
            v for k, v in cpu.items() if k not in ("runtime", "bench")
        ),
    }


def wait_for_spans() -> None:
    """Workers report task events to the GCS about once a second; give
    the last batch time to land before reading ``ray.timeline()``."""
    time.sleep(2.0)
