"""Every name a module or a test file imports is used in it.

The project ships no linter, so this is its unused-import check: an
``ast`` scan of the names each file imports against the names it reads.
The package ``__init__`` is skipped, since its imports are the public
re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for p in (ROOT / "src" / "entwine").glob("*.py")
               if p.name != "__init__.py") + sorted(
                   (ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    """The names ``source`` imports and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0]
                         for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - read)


def test_scan_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys\n"
              "from a import b, c as d\nfrom .e import f\n"
              "d(sys.argv)\n")
    assert unused_imports(source) == ["b", "f", "os"]


@pytest.mark.parametrize("path", FILES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
