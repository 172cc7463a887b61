"""Every keyed shuffle in the package goes through ``stages/keyed.py``:
no module calls ``Dataset.join`` (hash-shuffle aggregator actors) or
chains ``groupby("part"|"dpart").map_groups`` (a sampling sort plus a
per-group split), and the benchmark's catalog queries leave Ray Data
no empty, schema-less block to warn about."""

import ast
import logging
import pathlib

import pytest

PKG = pathlib.Path(__file__).resolve().parent.parent / "searchengine_ray"
_PART_COLS = {"part", "dpart"}


def _bypasses(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        f = node.func
        # str.join takes one argument and os.path.join is on os.path:
        # any other .join with two or more arguments is Dataset.join
        if f.attr == "join" and len(node.args) + len(node.keywords) >= 2:
            if ast.unparse(f.value) not in ("os.path", "posixpath"):
                lines.append(node.lineno)
        elif (
            f.attr == "map_groups"
            and isinstance(f.value, ast.Call)
            and isinstance(f.value.func, ast.Attribute)
            and f.value.func.attr == "groupby"
            and f.value.args
            and isinstance(f.value.args[0], ast.Constant)
            and f.value.args[0].value in _PART_COLS
        ):
            lines.append(node.lineno)
    return lines


def test_guard_catches_bypasses():
    src = (
        "import os\n"
        "p = os.path.join('a', 'b')\n"
        "s = ', '.join(xs)\n"
        "j = a.join(b, join_type='inner', num_partitions=4, on=('k',))\n"
        "g = ds.groupby('part').map_groups(fn, batch_format='pandas')\n"
        "h = ds.groupby('user_id').map_groups(fn)\n"
        "d = (ds.map_batches(f)\n      .groupby('dpart')\n      .map_groups(fn))\n"
    )
    assert _bypasses(ast.parse(src)) == [4, 5, 7]


def test_package_uses_keyed_shuffle_only():
    modules = sorted(PKG.rglob("*.py"))
    assert modules
    offenders = [
        f"{path.relative_to(PKG.parent)}:{line}"
        for path in modules
        for line in _bypasses(ast.parse(path.read_text(), str(path)))
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
