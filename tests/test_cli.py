"""CLI smoke test: ``crawl --checkpoint`` into a fresh dir, ``get`` of a
crawled page from it, and a second ``crawl`` into the used dir, which
must refuse.  The crawls run as subprocesses because ``cmd_crawl`` owns
its Ray session and shuts it down."""

import json
import os
import subprocess
import sys

import pyarrow.parquet as pq

from searchengine_ray.__main__ import main

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _crawl(out) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "searchengine_ray", "--num-cpus", "2", "crawl",
         "--urls", "300", "--images", "30", "--checkpoint", "--out", str(out)],
        cwd=_REPO, capture_output=True, text=True, timeout=600,
    )


def test_cli_crawl_get_and_refused_recrawl(tmp_path, capsys):
    out = tmp_path / "crawl"
    first = _crawl(out)
    assert first.returncode == 0, first.stderr
    assert json.loads(first.stdout.splitlines()[-1])["fetched"] > 0
    content = pq.read_table(str(out / "ckpt" / "epoch=2" / "content.parquet"))
    url = content["url"][0].as_py()

    capsys.readouterr()
    assert main(["get", "http://" + url, "--out", str(out)]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["url"] == url and row["url_hash"] == content["url_hash"][0].as_py()

    second = _crawl(out)
    assert second.returncode != 0
    assert "RemoteCrawl.resume" in second.stderr


def test_cli_search_one_row_per_host():
    """``search`` on sf0.001 (the default ``--sf``) prints the
    host-merged result table: one row per host, best page first."""
    res = subprocess.run(
        [sys.executable, "-m", "searchengine_ray", "--num-cpus", "2", "search",
         "--query", "query filter"],
        cwd=_REPO, capture_output=True, text=True, timeout=600,
    )
    assert res.returncode == 0, res.stderr
    header, *rows = res.stdout.strip().splitlines()
    assert header.split() == ["page_index", "final_rank", "host", "suppressed"]
    assert rows
    hosts = [r.split()[3] for r in rows]
    assert len(set(hosts)) == len(hosts)
    ranks = [float(r.split()[2]) for r in rows]
    assert ranks == sorted(ranks, reverse=True)
