"""Shared pieces of the benchmark: run context, op outcome, op timeout."""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

# Sized for a 4-CPU shared host: a 2-CPU Ray session, 2 fetch actors,
# 2 host actors (and 2 seen shards, fixtures.CRAWL_CFG).
NUM_CPUS = 2
N_FETCH_ACTORS = 2
N_HOST_ACTORS = 2
OBJECT_STORE_BYTES = 512 << 20

# One run must end within 180 s: ops get at most OP_TIMEOUT_S each and
# never run past DEADLINE_S after start.
OP_TIMEOUT_S = 90.0
DEADLINE_S = 160.0


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    e2e: dict = field(default_factory=dict)  # end-to-end metrics
    layers: dict = field(default_factory=dict)  # per-layer metrics
    info: dict = field(default_factory=dict)  # name → (value, unit), printed only
    log: list = field(default_factory=list)  # per-op lines, failures


@dataclass
class Context:
    root: str
    workload: str
    seed: int
    seconds: int
    trace: bool
    scale: str
    plant_mismatch: bool
    work_dir: str
    ray_tmp: str
    started: float = field(default_factory=time.perf_counter)
    ray_started: bool = False

    def time_left(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def op_timeout(self) -> float:
        return max(1.0, min(OP_TIMEOUT_S, self.time_left()))

    def init_ray(self) -> float:
        """Start the local Ray session → seconds it took."""
        import ray

        t = time.perf_counter()
        self.ray_started = True  # tear down even if init fails half-way
        ray.init(
            address="local",
            num_cpus=NUM_CPUS,
            object_store_memory=OBJECT_STORE_BYTES,
            include_dashboard=False,
            log_to_driver=False,
            logging_level="ERROR",
            _temp_dir=self.ray_tmp,
        )
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False
        return time.perf_counter() - t


def call_with_timeout(fn, timeout: float):
    """Run ``fn()`` in a daemon thread; raise ``TimeoutError`` if it does
    not return within ``timeout`` seconds (the thread is abandoned and
    the caller tears the Ray session down)."""
    box: dict = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as e:  # noqa: BLE001 - re-raised below
            box["error"] = e

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(timeout)
    if th.is_alive():
        raise TimeoutError(f"op exceeded {timeout:.0f} s")
    if "error" in box:
        raise box["error"]
    return box["value"]
