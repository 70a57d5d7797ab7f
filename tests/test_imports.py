"""Every name a package module imports is referenced in that module, and
every name it defines is read somewhere in the package or the benchmark."""

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


def top_level_names(tree):
    """(name, statement) for each function, class and assigned name at a
    module's top level."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            yield stmt.name, stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                yield from ((n.id, stmt) for n in ast.walk(target) if isinstance(n, ast.Name))


def names_read(stmt):
    """Names a statement reads: loaded names, attributes, and names it
    imports from a module."""
    read = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def unread_names(package, others):
    """``module.name`` for each top-level name of a ``package`` module that
    no other statement of ``package`` or ``others`` reads, sorted; both map
    module names to sources, and dunders are exempt."""
    trees = {key: ast.parse(source) for key, source in {**others, **package}.items()}
    reads = [(stmt, names_read(stmt)) for tree in trees.values() for stmt in tree.body]
    return sorted(f"{module}.{name}" for module in package
                  for name, defn in top_level_names(trees[module])
                  if not (name.startswith("__") and name.endswith("__"))
                  and not any(name in read for stmt, read in reads if stmt is not defn))


def test_scan_finds_unread_names():
    package = {"a": "def f():\n    return f()\nX, Y = 1, 2\ndef g():\n    return X\n__all__ = []\n"}
    others = {"b": "import a\nfrom a import Y\na.g()\n"}
    assert unread_names(package, others) == ["a.f"]


def test_every_top_level_name_is_read():
    # the package and the benchmark are the callers; tests do not count
    package = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    bench = {f"bench/{p.stem}": p.read_text() for p in (SRC.parents[1] / "bench").glob("*.py")}
    assert unread_names(package, bench) == []
