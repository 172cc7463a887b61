"""Run-time knobs are explicit arguments (``CrawlConfig`` fields,
function parameters): no module of the package reads the process
environment, so a setting cannot hide in a shell variable that worker
processes may not even inherit."""

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent / "searchengine_ray"
_ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _env_reads(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _ENV_NAMES
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(a.name in _ENV_NAMES for a in node.names):
                lines.append(node.lineno)
    return lines


def test_guard_catches_env_reads():
    src = "import os\nfrom os import getenv\nx = os.environ.get('A')\n"
    assert _env_reads(ast.parse(src)) == [2, 3]


def test_package_reads_no_env_vars():
    modules = sorted(PKG.rglob("*.py"))
    assert modules
    offenders = [
        f"{path.relative_to(PKG.parent)}:{line}"
        for path in modules
        for line in _env_reads(ast.parse(path.read_text(), str(path)))
    ]
    assert offenders == [], offenders
