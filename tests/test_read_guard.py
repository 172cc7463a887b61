"""Every Ray Data parquet read in the package goes through
``sources.storage.read_parquet``: its one ``ray.data.read_datasource``
call reads the footer-planned ``FooterParquet`` source, sized by bytes
on disk.  No module calls Ray's own ``read_parquet`` (which splits a
read into 2× the cluster's CPUs and starts a sampling task to plan
it) or another ``read_datasource``, on ``ray.data`` or imported from
there."""

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent / "searchengine_ray"
HELPER = PKG / "sources" / "storage.py"
READS = ("read_parquet", "read_datasource")


def _ray_reads(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, name)`` of every Ray Data read by ``READS`` name: an
    attribute of ``ray.data`` (or ``data`` from ``from ray import
    data``), or a name imported from ``ray.data``."""
    sites = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in READS
            and ast.unparse(node.value) in ("ray.data", "data")
        ):
            sites.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "ray.data":
            sites += [(node.lineno, a.name) for a in node.names if a.name in READS]
    return sorted(sites)


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
        "ds = ray.data.read_datasource(src, override_num_blocks=2)\n"
        "from ray.data import read_datasource, from_arrow\n"
        "ds = data.read_datasource(src)\n"
        "ds = other.read_datasource(src)\n"
    )
    assert _ray_reads(ast.parse(src)) == [
        (3, "read_parquet"), (5, "read_parquet"), (7, "read_parquet"),
        (10, "read_datasource"), (11, "read_datasource"), (12, "read_datasource"),
    ]


def test_package_reads_parquet_in_one_place():
    modules = sorted(PKG.rglob("*.py"))
    assert HELPER in modules
    sites = [
        (path, line, name)
        for path in modules
        for line, name in _ray_reads(ast.parse(path.read_text(), str(path)))
    ]
    offenders = [f"{p.relative_to(PKG.parent)}:{n} {name}"
                 for p, n, name in sites if p != HELPER]
    assert offenders == [], offenders
    assert [name for _p, _n, name in sites] == ["read_datasource"], sites
