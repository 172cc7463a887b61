"""Every text kernel in the package tokenizes through
``stages/text.py`` (``text.tokenize``): no other module calls
``TOKEN_RE.findall`` or pandas' ``.str.findall``, so a tokenizer copy
(with its own null handling or k-gram hash) cannot come back.
``index.word_rows`` is the one exception: its per-token loop carries
the reference engine's position and stopword-chain semantics."""

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent / "searchengine_ray"
HOME = PKG / "stages" / "text.py"
# (module, function) pairs allowed to tokenize on their own
ALLOWED = {(PKG / "pipelines" / "index.py", "word_rows")}


def _tokenizer_calls(tree: ast.AST, allowed_fns=()) -> list[int]:
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in allowed_fns:
            skip.update(range(node.lineno, node.end_lineno + 1))
    lines = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "findall"
        ):
            continue
        owner = node.func.value
        if isinstance(owner, ast.Attribute):
            name = owner.attr
        else:
            name = getattr(owner, "id", "")
        if name in ("TOKEN_RE", "str") and node.lineno not in skip:
            lines.append(node.lineno)
    return sorted(lines)


def test_guard_catches_tokenizer_copies():
    src = (
        "import re\n"
        "toks = TOKEN_RE.findall(t.lower())\n"
        "toks = tx.TOKEN_RE.findall(t)\n"
        "s = df['text'].str.lower().str.findall(TOKEN_RE)\n"
        "urls = LINK_RE.findall(html)\n"
        "tok = tx.tokenize(texts)\n"
        "def word_rows(text):\n"
        "    return TOKEN_RE.findall(text.lower())\n"
    )
    assert _tokenizer_calls(ast.parse(src)) == [2, 3, 4, 8]
    assert _tokenizer_calls(ast.parse(src), ["word_rows"]) == [2, 3, 4]


def test_package_tokenizes_in_one_place():
    modules = sorted(PKG.rglob("*.py"))
    assert HOME in modules
    offenders = []
    for path in modules:
        if path == HOME:
            continue
        fns = [f for p, f in ALLOWED if p == path]
        tree = ast.parse(path.read_text(), str(path))
        offenders += [
            f"{path.relative_to(PKG.parent)}:{n}" for n in _tokenizer_calls(tree, fns)
        ]
    assert offenders == [], offenders
    # the allow-listed function still exists and still tokenizes
    for path, _fn in ALLOWED:
        assert _tokenizer_calls(ast.parse(path.read_text()))
