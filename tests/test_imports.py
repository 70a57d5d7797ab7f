"""Every name a package module imports is referenced in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lfpp"


def unused_imports(source: str):
    """Names bound by the imports in ``source`` (``__future__`` aside) that no
    expression reads, sorted."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    return sorted(bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})


def test_scan_finds_unused_names():
    source = "import os\nimport scipy.sparse\nfrom math import pi, tau as t\nprint(scipy.sparse, t)\n"
    assert unused_imports(source) == ["os", "pi"]


# __init__.py imports names to re-export them, so it is left out
@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
