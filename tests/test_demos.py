"""Every name a demo imports from wrlab exists.

The demos take minutes to run, so they are parsed here, not run: a demo
that still imports a removed function fails this test at once.
"""
import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def wrlab_imports(path: Path):
    """(module, name) for each ``from wrlab... import name`` in a file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "wrlab":
            for alias in node.names:
                yield node.module, alias.name


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    imports = list(wrlab_imports(path))
    assert imports, f"{path.name} imports nothing from wrlab"
    missing = [
        f"{module}.{name}" for module, name in imports if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, f"{path.name} imports names wrlab does not have: {missing}"
