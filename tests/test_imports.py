"""Every name a package module imports is used in that module, no
package module imports SciPy, and the command line starts without the
process-pool machinery.

The checks read each module with ``ast``. A name bound by an import must
appear as a name somewhere else in the module's code; ``__init__.py`` is
left out, since its imports are the package's re-exports. No import
statement, at module level or inside a function, names a ``scipy``
module: SciPy is a test-only oracle.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "shrinknet"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py")
                 if path.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_finds_an_unused_import():
    assert _unused_imports("import math\nfrom os import path, sep\n"
                           "print(path.join(sep))\n") == ["math (line 1)"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert _unused_imports((PACKAGE / module).read_text()) == []


def _imported_roots(source: str) -> set[str]:
    """The top-level package of every absolute import in ``source``."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_finds_imported_packages():
    source = ("import numpy as np\nfrom . import vb\n"
              "def f():\n    from scipy.special import gammaln\n"
              "    import scipy.linalg\n")
    assert _imported_roots(source) == {"numpy", "scipy"}


def test_no_scipy_import():
    assert [path.name for path in sorted(PACKAGE.glob("*.py"))
            if "scipy" in _imported_roots(path.read_text())] == []


def test_cli_imports_no_process_pool():
    """``import shrinknet.cli`` in a fresh interpreter loads neither
    ``concurrent.futures.process`` nor ``multiprocessing``: only a run on
    more than one worker process needs them."""
    code = ("import sys, shrinknet.cli; print(sorted(m for m in "
            "('concurrent.futures.process', 'multiprocessing') "
            "if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout == "[]\n"
