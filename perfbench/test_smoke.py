"""Smoke test of the benchmark itself (takes a few minutes):

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload at ``--scale tiny`` with tracing off and on, checks
that each run passes its own output checks, emits exactly the metrics
BENCHMARK.json declares and reads above 0 on the layers it enters, and
checks that a planted crawl-order mismatch is counted as failed ops.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


# per-layer metrics that must read above 0 on a traced run: a misnamed
# span category or a broken process-title grouping would make them 0
MUST_MOVE = {
    "crawl": (
        "fetch.busy_s",
        "fetch.cpu_s",
        "host.phase1_busy_s",
        "seen.phase2_busy_s",
        "ray.deserialize_args_s",
    ),
    "catalog": tuple(
        m["name"] for m in SPEC["per_layer"] if m["name"].startswith("query.")
    ),
}


def _run(workload: str, trace: int, *extra: str) -> tuple[dict, str]:
    proc = subprocess.run(
        [
            sys.executable, os.path.join("perfbench", "run.py"),
            "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--scale", "tiny", *extra,
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=240,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_declared_metrics(workload, trace):
    res, stdout = _run(workload, trace)
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 2
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    for name, m in res["metrics"].items():
        assert isinstance(m["value"], float), name
        if not trace:
            assert m["value"] > 0, name
    if trace:
        kind = "catalog" if workload == "catalog" else "crawl"
        for name in MUST_MOVE[kind]:
            assert res["metrics"][name]["value"] > 0, name
    # the host-speed probe and steal share are printed beside every run,
    # outside the JSON
    assert "host.probe_s = " in stdout
    assert "host.steal_share = " in stdout


def test_planted_crawl_order_mismatch_fails_ops():
    res, _ = _run("crawl_admit", 0, "--plant-mismatch")
    assert res["correct"] is False
    assert res["attempted"] >= 1 and res["failed"] == res["attempted"]


def test_refuses_to_run_without_the_package(tmp_path):
    """In a directory holding only the benchmark, exit non-zero with no
    result line."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [
            sys.executable, os.path.join("perfbench", "run.py"),
            "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
            "--trace", "0",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
