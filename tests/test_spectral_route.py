"""Every regression's spectrum comes from one eigensolver call site.

The check reads each package module with ``ast``: ``eigh`` is called at
one site, inside ``vb.make_workspace``, and no module calls ``svd``,
whether as an attribute (``np.linalg.svd``) or as an imported name.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "shrinknet"


class _CallSites(ast.NodeVisitor):
    """The enclosing function of every call of the name ``name``."""

    def __init__(self, name: str):
        self.name = name
        self.scope: list[str] = []
        self.sites: list[str] = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        func = node.func
        called = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None)
        if called == self.name:
            self.sites.append(".".join(self.scope) or "<module>")
        self.generic_visit(node)


def _call_sites(source: str, name: str) -> list[str]:
    visitor = _CallSites(name)
    visitor.visit(ast.parse(source))
    return visitor.sites


def _package_call_sites(name: str) -> list[str]:
    return [f"{path.stem}.{site}"
            for path in sorted(PACKAGE.glob("*.py"))
            for site in _call_sites(path.read_text(), name)]


def test_finds_call_sites():
    source = ("import numpy as np\nfrom numpy.linalg import svd\n"
              "np.linalg.svd(x)\n"
              "def f(x):\n    def g():\n        return svd(x)\n"
              "    return np.linalg.eigh(x)\n")
    assert _call_sites(source, "svd") == ["<module>", "f.g"]
    assert _call_sites(source, "eigh") == ["f"]


def test_one_eigensolver_site():
    assert _package_call_sites("eigh") == ["vb.make_workspace"]


def test_no_svd():
    assert _package_call_sites("svd") == []
