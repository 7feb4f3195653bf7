"""Every ``path.py::name`` the docs cite names code that exists.

A reference in ``docs/*.md`` written as `` `path.py::name` `` (or
`` `path.py::Class::member` ``) must resolve: a path under ``tests/``
from the repository root, any other path under ``src/repro``, then a
module-level name of that file, then names defined in that class body.
A rename or a deletion that leaves the docs describing the past fails
here and names the stale reference.
"""

import ast
import re
from functools import lru_cache
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
ROOT = SRC.parent.parent

#: a backticked reference; a long one may wrap inside its backticks
_REFERENCE = re.compile(r"`([\w/.]+\.py)((?:::\s*\w+)+)`")


def _defined(body) -> dict:
    """Names a module or class body binds, each to its node."""
    names = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names[target.id] = node
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name):
            names[node.target.id] = node
    return names


@lru_cache(maxsize=None)
def _module(path: str):
    base = ROOT if path.startswith("tests/") else SRC
    file = base / path
    return ast.parse(file.read_text()) if file.is_file() else None


def _resolves(path: str, names: list[str]) -> bool:
    node = _module(path)
    for name in names:
        if not hasattr(node, "body"):
            return False
        node = _defined(node.body).get(name)
    return node is not None


def test_every_reference_in_the_docs_resolves():
    found = [(doc.name, match.group(1),
              [n.strip() for n in match.group(2).split("::")[1:]])
             for doc in sorted((ROOT / "docs").glob("*.md"))
             for match in _REFERENCE.finditer(doc.read_text())]
    assert found, "the reference pattern matches nothing in docs/"
    assert [f"{doc}: {path}::{'::'.join(names)}"
            for doc, path, names in found if not _resolves(path, names)] == []
