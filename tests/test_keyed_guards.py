"""Every keyed shuffle and grouped aggregate in the package goes
through ``stages/keyed.py``: no module calls ``Dataset.join``
(hash-shuffle aggregator actors), any ``map_groups`` (a sampling sort
plus a per-group split, whatever it groups on) or a Ray ``aggregate``
(``Dataset.aggregate`` / ``GroupedData.aggregate``, or anything from
``ray.data.aggregate``), only ``keyed.py`` reads Ray's private plan
objects (``_logical_plan``) and routes a shuffle (no other module
names ``hash_part``, ``ncpus``, the sizing ``_partitions`` or a
partition count), and the benchmark's catalog queries
leave Ray Data no empty, schema-less block to warn about."""

import ast
import logging
import pathlib

import pytest

PKG = pathlib.Path(__file__).resolve().parent.parent / "searchengine_ray"
_RAY_AGG = "ray.data.aggregate"


def _bypasses(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module == _RAY_AGG) or (
            isinstance(node, ast.Import)
            and any(a.name == _RAY_AGG for a in node.names)
        ):
            lines.append(node.lineno)
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        f = node.func
        # str.join takes one argument and os.path.join is on os.path:
        # any other .join with two or more arguments is Dataset.join
        if f.attr == "join" and len(node.args) + len(node.keywords) >= 2:
            if ast.unparse(f.value) not in ("os.path", "posixpath"):
                lines.append(node.lineno)
        elif f.attr == "map_groups":
            lines.append(node.lineno)
        elif f.attr == "aggregate" and not (
            # pyarrow's Table.group_by(...).aggregate is combine's kernel
            isinstance(f.value, ast.Call)
            and isinstance(f.value.func, ast.Attribute)
            and f.value.func.attr == "group_by"
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_guard_catches_bypasses():
    src = (
        "import os\n"
        "p = os.path.join('a', 'b')\n"
        "s = ', '.join(xs)\n"
        "j = a.join(b, join_type='inner', num_partitions=4, on=('k',))\n"
        "g = ds.groupby('part').map_groups(fn, batch_format='pandas')\n"
        "h = ds.groupby('user_id').map_groups(fn)\n"
        "d = (ds.map_batches(f)\n      .groupby('dpart')\n      .map_groups(fn))\n"
        "from ray.data.aggregate import Sum\n"
        "s = ds.aggregate(Sum('x'))\n"
        "c = ds.groupby('host').aggregate(Count())\n"
        "t = tbl.group_by(['k'], use_threads=False).aggregate([('v', 'sum')])\n"
        "import ray.data.aggregate\n"
    )
    assert _bypasses(ast.parse(src)) == [4, 5, 6, 7, 10, 11, 12, 14]


def test_package_uses_keyed_shuffle_only():
    modules = sorted(PKG.rglob("*.py"))
    assert modules
    offenders = [
        f"{path.relative_to(PKG.parent)}:{line}"
        for path in modules
        for line in _bypasses(ast.parse(path.read_text(), str(path)))
    ]
    assert offenders == [], offenders


_PLAN = "_logical_plan"


def _plan_reads(tree: ast.AST) -> list[int]:
    """Lines reading ``_logical_plan``, as an attribute or a string
    (``getattr(ds, "_logical_plan")``)."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == _PLAN)
        or (isinstance(node, ast.Constant) and node.value == _PLAN)
    )


def test_plan_guard_catches_reads():
    src = (
        "dag = ds._logical_plan.dag\n"
        "s = ds.schema()\n"
        "p = getattr(ds, '_logical_plan')\n"
        "q = ds._plan\n"
        "ops = [o for o in x._logical_plan.dag.input_dependencies]\n"
    )
    assert _plan_reads(ast.parse(src)) == [1, 3, 5]


def test_only_keyed_reads_ray_plans():
    """Ray's plan objects are private and change between releases:
    ``keyed.py`` (``empty_like`` and the shuffle's sizing) is the one
    module that walks them."""
    offenders = [
        f"{path.relative_to(PKG.parent)}:{line}"
        for path in sorted(PKG.rglob("*.py"))
        if path != PKG / "stages" / "keyed.py"
        for line in _plan_reads(ast.parse(path.read_text(), str(path)))
    ]
    assert offenders == [], offenders
    assert _plan_reads(ast.parse((PKG / "stages" / "keyed.py").read_text()))


# a shuffle's router: the partition id's hash, the CPU count that caps
# it, the function that sizes it and the partition count itself
_ROUTING = {"hash_part", "with_hash_part", "ncpus", "_partitions", "npart"}


def _routing(tree: ast.AST) -> list[int]:
    """Lines naming the router: a name, attribute, import, parameter or
    keyword in ``_ROUTING``."""
    lines = []
    for node in ast.walk(tree):
        name = (
            node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute)
            else node.name if isinstance(node, ast.alias)
            else node.arg if isinstance(node, (ast.arg, ast.keyword))
            else None
        )
        if name in _ROUTING:
            lines.append(node.lineno)
    return sorted(set(lines))


def test_routing_guard_catches_hand_routing():
    src = (
        "from ..stages.keyed import keyed_map, ncpus\n"
        "def _join_parts(sf):\n"
        "    from ..stages.keyed import ncpus\n"
        "    return 4 * ncpus()\n"
        "j = hash_join(a, b, 'k', 'j', npart=_join_parts(sf))\n"
        "j = hash_join(a, b, 'k', 'j', npart=8)\n"
        "out = keyed_map(ds, 'part', npart, fn)\n"
        "p = keyed.hash_part(cols, 4)\n"
        "def asof_join(ds, by='user_id', npart=None):\n"
        "    return ds\n"
        "x = with_hash_part(ds, ['k'], n)\n"
        "c = keyed.ncpus()\n"
        "m = combine(ds, ['part'], aggs)\n"
        "k = keyed_map(ds, ['user_id'], fn)\n"
        "n = keyed._partitions(ds)\n"
    )
    assert _routing(ast.parse(src)) == [1, 3, 4, 5, 6, 7, 8, 9, 11, 12, 15]


def test_only_keyed_routes_shuffles():
    """``keyed_map`` routes by the key columns it is given, so no other
    module computes a partition id or picks a partition count."""
    offenders = [
        f"{path.relative_to(PKG.parent)}:{line}"
        for path in sorted(PKG.rglob("*.py"))
        if path != PKG / "stages" / "keyed.py"
        for line in _routing(ast.parse(path.read_text(), str(path)))
    ]
    assert offenders == [], offenders


# the queries perfbench's catalog workload times
BENCH_QUERIES = (
    "q01_pricing_summary",
    "q12_word_counts",
    "q16_minhash_pairs",
    "q26_brand_volume",
    "q49_heavy_tokens",
    "q73_span_removal",
    "q81_freq_spectrum",
    "q82_source_overlap",
)


class _SchemaWarnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        msg = record.getMessage()
        if "RefBundle with a different schema" in msg:
            self.messages.append(msg)


@pytest.mark.parametrize("name", BENCH_QUERIES)
def test_bench_queries_emit_no_schema_warning(ray_session, name):
    from searchengine_ray.pipelines import queries as Q
    from test_queries_oracle import SF_DIR, _to_pandas

    handler = _SchemaWarnings()
    logger = logging.getLogger("ray.data")
    logger.addHandler(handler)
    try:
        _to_pandas(Q.queries()[name](SF_DIR))
    finally:
        logger.removeHandler(handler)
    assert handler.messages == []


@pytest.mark.parametrize("name", BENCH_QUERIES)
def test_bench_queries_emit_no_schema_warning_three_partitions(
    ray_session, three_partitions, name
):
    """The same with every shuffle at 3 partitions: the pad / sort path,
    where blocks of different schemas would meet in one sort."""
    test_bench_queries_emit_no_schema_warning(ray_session, name)
