"""Every public name of the library has a user.

A public top-level ``def``, ``class`` or module-level assignment of a
non-``__init__`` module of ``src/repro`` must be named, as an identifier
(docstrings and comments do not count), somewhere that is not its own
definition or its own unit test:

* its own module, beyond the definition;
* another non-``__init__`` module of ``src/repro`` (a package
  ``__init__`` only re-exports, which is not a use);
* ``benchmarks/`` or ``examples/``;
* ``bench/``, where string constants count too: the tracer names its
  targets by string;
* ``docs/api.md``, the documented surface.

A name that none of these uses is dead code with a test attached, and
goes.  The check runs once per module, so a failure names the module.  The few kept on purpose are listed in ``KEPT`` with a reason; an
entry that stops existing, or gains a user, must leave the list.
"""

import ast
import functools
import re
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent
ROOT = SRC.parent.parent

KEPT = {
    "ALL_SPEC_KINDS": "the descriptor kinds the process lane pickles; "
                      "tests/parallel/test_descriptors.py holds it to every "
                      "BodySpec subclass, and it goes with that lane",
    "adaptive_perturbation_bound": "bounds ||M - A|| of an adaptive mosaic; "
                                   "the CG route's iteration bound is to be "
                                   "derived from it",
    "install_plan": "fault-plan API: a test installs a plan",
    "no_faults": "fault-plan API: a test runs a block with injection off",
    "clear_plan": "fault-plan API: a test drops its plan",
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _identifiers(tree, strings=False):
    """Every identifier an AST names: loaded names, attributes and
    imported names — and, if ``strings``, the words of every string
    constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            yield from _WORD.findall(node.value)


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (n for n in names if not n.startswith("_"))


@functools.cache
def _modules():
    return {path.relative_to(SRC).as_posix(): ast.parse(path.read_text())
            for path in sorted(SRC.rglob("*.py"))
            if path.name != "__init__.py"}


def _used_outside_src():
    used = set()
    for folder, strings in (("benchmarks", False), ("examples", False),
                            ("bench", True)):
        for path in sorted((ROOT / folder).rglob("*.py")):
            used.update(_identifiers(ast.parse(path.read_text()), strings))
    used.update(_WORD.findall((ROOT / "docs" / "api.md").read_text()))
    return used


@functools.cache
def _unused():
    """``{name: module}`` of every public definition without a user."""
    modules = _modules()
    names = {rel: set(_identifiers(tree)) for rel, tree in modules.items()}
    outside = _used_outside_src()
    unused = {}
    for rel, tree in modules.items():
        for name in _public_definitions(tree):
            if name in outside or any(name in used
                                      for used in names.values()):
                continue
            unused[name] = rel
    return unused


@pytest.mark.parametrize("module", sorted(_modules()))
def test_every_public_name_has_a_user(module):
    dead = {name for name, rel in _unused().items()
            if rel == module and name not in KEPT}
    assert dead == set(), (
        "public names that no module of src/repro, benchmarks/, examples/, "
        "bench/ or docs/api.md uses: delete them, or move a test oracle "
        "into its test")


def test_kept_names_exist_and_are_still_unused():
    defined = {name for tree in _modules().values()
               for name in _public_definitions(tree)}
    assert set(KEPT) <= defined, "a KEPT name no longer exists"
    unused = _unused()
    assert {name for name in KEPT if name not in unused} == set(), (
        "a KEPT name has a user now: drop it from KEPT")


def test_kept_is_short_and_every_entry_has_a_reason():
    assert len(KEPT) <= 5
    assert all(reason.strip() for reason in KEPT.values())


@pytest.mark.parametrize("source, expected", [
    ("def f(): pass\nf()\n", set()),
    ("def f(): pass\n", {"f"}),
    ("X = 1\n", {"X"}),
    ("X = 1\nY = X\n", {"Y"}),
    ("def f():\n    '''g'''\ndef g(): pass\n", {"f", "g"}),
    ("class A: pass\ndef _p() -> A: pass\n", set()),
], ids=["called", "uncalled", "assigned", "read", "docstring", "annotated"])
def test_the_walk_counts_identifiers_not_docstrings(source, expected):
    tree = ast.parse(source)
    used = set(_identifiers(tree))
    assert {n for n in _public_definitions(tree) if n not in used} == expected
