"""One front door, one reader of the environment.

The sessions are the only estimator classes, ``repro.settings`` is the
only module of ``src/repro`` that reads the process environment (a
forked worker *writes* the BLAS thread-count variables for whatever it
launches), and the task graph keeps its own adjacency.  A second reader,
a revived wrapper or a graph library cannot come back without editing
one of the lists below.
"""

import ast
import subprocess
import sys
from pathlib import Path

import repro
from tests.runtime.test_one_drain import _sites


def test_the_environment_is_touched_from_one_module():
    def touches_environ(node):
        if isinstance(node, ast.Attribute):
            return (node.attr in ("environ", "environb", "getenv", "putenv")
                    and getattr(node.value, "id", None) == "os")
        return isinstance(node, ast.ImportFrom) and node.module == "os" \
            and any(a.name in ("environ", "getenv") for a in node.names)
    assert _sites(touches_environ) == [
        "parallel/worker.py:_limit_blas_threads",  # export only, never read
        "settings.py:read",
        "settings.py:from_env",
    ]


def _identifiers(node):
    for field in ("id", "attr", "name", "arg", "module"):
        value = getattr(node, field, None)
        if isinstance(value, str):
            yield from value.split(".")


def test_the_estimator_wrappers_and_their_knob_are_gone():
    retired = {"KernelRidgeRegressionGWAS", "RidgeRegressionGWAS",
               "KRRModel", "RRModel", "build_workers"}
    assert _sites(lambda node: retired & set(_identifiers(node))) == []
    assert not hasattr(repro, "KernelRidgeRegressionGWAS")


def test_networkx_is_imported_nowhere():
    def imports_networkx(node):
        if isinstance(node, ast.Import):
            return any(a.name.split(".")[0] == "networkx" for a in node.names)
        return isinstance(node, ast.ImportFrom) \
            and (node.module or "").split(".")[0] == "networkx"
    assert _sites(imports_networkx) == []


def test_setup_py_describes_the_package():
    setup_py = Path(repro.__file__).parents[2] / "setup.py"
    out = subprocess.run(
        [sys.executable, str(setup_py), "--name", "--version"],
        cwd=setup_py.parent, capture_output=True, text=True, check=True)
    assert out.stdout.split()[-2:] == ["repro", repro.__version__]
