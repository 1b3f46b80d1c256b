"""The benchmark's span targets name callables of the current code.

``perfbench/spans.py`` times each module by swapping in a wrapper at the
names listed in ``SPAN_TARGETS`` and ``LOOKUP_TARGET``, and reports a
name it cannot find as missing. A refactor that renames or removes one of
those names would turn per-module metrics into ``missing`` without failing
anything, so this test resolves each of them. It reads the file as text
and imports nothing from ``perfbench``.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _literal(name):
    """The literal value assigned to ``name`` at the top of spans.py."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in {SPANS}")


SPAN_TARGETS = _literal("SPAN_TARGETS")


@pytest.mark.parametrize("span", sorted(SPAN_TARGETS))
def test_span_targets_resolve(span):
    for module_name, attr in SPAN_TARGETS[span]:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), (span, module_name,
                                                       attr)


def test_lookup_target_resolves():
    module_name, cls_name, attr = _literal("LOOKUP_TARGET")
    cls = getattr(importlib.import_module(module_name), cls_name)
    assert callable(getattr(cls, attr, None))
