import os
import sys

import pytest

os.environ.setdefault("RAY_DEDUP_LOGS", "0")

# Ray worker processes do not inherit the driver's sys.path — they need
# the repo root on PYTHONPATH to unpickle searchengine_ray.* UDFs.
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
os.environ["PYTHONPATH"] = (
    _REPO_ROOT + os.pathsep + os.environ.get("PYTHONPATH", "")
).rstrip(os.pathsep)
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)


@pytest.fixture(scope="session")
def ray_session():
    import ray
    from ray.data import DataContext

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    yield
    ray.shutdown()


@pytest.fixture
def three_partitions(monkeypatch):
    """Every keyed shuffle runs as 3 partitions.  A test-scale plan
    reads under 32 MiB, so its shuffles run as one partition; a test
    that takes this fixture checks the pad / sort path instead."""
    from searchengine_ray.stages import keyed

    monkeypatch.setattr(keyed, "_partitions", lambda ds: 3)
