"""Every Ray Data parquet read in the package goes through
``sources.storage.read_parquet``, which sizes the read's block count
by bytes on disk: no other module calls ``read_parquet`` on
``ray.data`` (or imports it from there), so no read falls back to Ray's
split into 2× the cluster's CPUs."""

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent / "searchengine_ray"
HELPER = PKG / "sources" / "storage.py"


def _ray_reads(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "read_parquet"
            and ast.unparse(node.value) in ("ray.data", "data")
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "ray.data":
            if any(a.name == "read_parquet" for a in node.names):
                lines.append(node.lineno)
    return sorted(lines)


def test_guard_catches_ray_reads():
    src = (
        "import ray\n"
        "import pyarrow.parquet as pq\n"
        "ds = ray.data.read_parquet(p, columns=['a'])\n"
        "t = pq.read_table(p)\n"
        "from ray.data import read_parquet\n"
        "from ray import data\n"
        "ds = data.read_parquet(p)\n"
        "df = pd.read_parquet(p)\n"
        "ds = storage.read_parquet(p)\n"
    )
    assert _ray_reads(ast.parse(src)) == [3, 5, 7]


def test_package_reads_parquet_in_one_place():
    modules = sorted(PKG.rglob("*.py"))
    assert HELPER in modules
    sites = [
        (path, line)
        for path in modules
        for line in _ray_reads(ast.parse(path.read_text(), str(path)))
    ]
    offenders = [f"{p.relative_to(PKG.parent)}:{n}" for p, n in sites if p != HELPER]
    assert offenders == [], offenders
    assert len(sites) == 1, sites
