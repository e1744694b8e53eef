"""Every name a module, a test file or a demo imports is used in it, the
package memoises through one helper only, and it descends no dense whisker.

The project ships no linter, so this is its unused-import check: an
``ast`` scan of the names each file imports against the names it reads.
The package ``__init__`` is skipped, since its imports are the public
re-exports.  A second scan keeps every memo on the session's
``FieldSpec``: no ``functools`` cache in the package, and one
``memoised``, defined in ``exactlin``.  A third keeps whiskers sparse: a
map f (x) g between tensor words goes through ``corcat.tensor_map``, never
through ``descend(kron(f, g), ...)``, which builds the whole ambient map.
A fourth keeps matrices sparse: no module but ``cli``, which serialises,
reads a matrix's dense ``entries`` view.  A fifth keeps the composed-coring
homomorphism's action on workspace sections in one place: ``cli`` names
``comc_obj``, ``comc_one_cell`` and ``comc_two_cell`` only in its image
table ``_IMAGES``, and every other use reads them from there.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for p in (ROOT / "src" / "entwine").glob("*.py")
               if p.name != "__init__.py") + sorted(
                   (ROOT / "tests").glob("*.py")) + sorted(
                       (ROOT / "demos").glob("*.py"))


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


CACHES = {"lru_cache", "cache", "cached_property"}


def memo_owners(sources: dict) -> tuple:
    """(functools caches used, files defining ``memoised``) of ``sources``,
    a dict file name -> source text."""
    caches, owners = [], []
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                caches += [f"{name}: {a.name}" for a in node.names
                           if a.name in CACHES]
            elif (isinstance(node, ast.Attribute) and node.attr in CACHES
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "functools"):
                caches.append(f"{name}: functools.{node.attr}")
            elif (isinstance(node, ast.FunctionDef)
                  and node.name == "memoised"):
                owners.append(name)
    return caches, owners


def test_scan_finds_other_memo_owners():
    sources = {"a.py": "from functools import lru_cache, wraps\n",
               "b.py": "import functools\nx = functools.cache\n"
                       "def memoised(fn):\n    return fn\n",
               "c.py": "from functools import cached_property\n"}
    assert memo_owners(sources) == (
        ["a.py: lru_cache", "b.py: functools.cache",
         "c.py: cached_property"], ["b.py"])


def test_memoisation_has_one_owner():
    src = ROOT / "src" / "entwine"
    caches, owners = memo_owners({p.name: p.read_text(encoding="utf-8")
                                  for p in sorted(src.glob("*.py"))})
    assert caches == []
    assert owners == ["exactlin.py"]



def _name(node) -> str:
    """The called name of a call node: ``f`` of ``f(...)`` or ``m.f(...)``."""
    return getattr(node.func, "id", getattr(node.func, "attr", ""))


def dense_whiskers(source: str) -> list:
    """The lines of ``source`` that call ``descend`` on a ``kron``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and _name(node) == "descend"
                  and node.args and isinstance(node.args[0], ast.Call)
                  and _name(node.args[0]) == "kron")


def test_scan_finds_dense_whiskers():
    source = ("a = descend(kron(f, 2), s, t)\n"
              "b = qtensor.descend(\n    kron(2, g), s, t)\n"
              "c = descend(f, s, t)\nd = tensor_map(f, 2, s, t)\n")
    assert dense_whiskers(source) == [1, 2]


def test_no_dense_whisker_is_descended():
    found = {p.name: dense_whiskers(p.read_text(encoding="utf-8"))
             for p in (ROOT / "src" / "entwine").glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


def entries_reads(source: str) -> list:
    """The lines of ``source`` that read an ``.entries`` attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "entries"
                  and isinstance(node.ctx, ast.Load))


def test_scan_finds_entries_reads():
    source = ("a = m.entries\nb = [r for r in f(m).entries]\n"
              "entries = m.rows\nself.entries = ()\n")
    assert entries_reads(source) == [1, 2]


def test_only_serialisation_reads_dense_entries():
    found = {p.name: entries_reads(p.read_text(encoding="utf-8"))
             for p in (ROOT / "src" / "entwine").glob("*.py")
             if p.name != "cli.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


IMAGE_FUNCTIONS = {"comc_obj", "comc_one_cell", "comc_two_cell"}


def image_names(source: str, table: str = "_IMAGES") -> tuple:
    """(lines of ``source`` naming an image function outside the assignment
    of ``table``, the image functions that assignment names), sorted."""
    tree = ast.parse(source)
    inside = {id(n) for node in tree.body if isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == table for t in node.targets)
              for n in ast.walk(node.value)}
    found = [n for n in ast.walk(tree)
             if getattr(n, "id", getattr(n, "attr", None)) in IMAGE_FUNCTIONS
             and isinstance(n, (ast.Name, ast.Attribute))]
    return (sorted(n.lineno for n in found if id(n) not in inside),
            sorted({n.id for n in found if id(n) in inside}))


def test_scan_finds_image_functions_outside_the_table():
    source = ("from .comc import comc_obj, comc_two_cell\n"
              "_IMAGES = {'entwinings': (comc_obj, 'corings')}\n"
              "a = comc_obj(e)\nb = [comc.comc_two_cell]\n"
              "c = _IMAGES['entwinings'][0](e)\n"
              "def f():\n    _IMAGES = (comc_two_cell,)\n")
    assert image_names(source) == ([3, 4, 7], ["comc_obj"])


def test_cli_names_image_functions_in_its_table_only():
    source = (ROOT / "src" / "entwine" / "cli.py").read_text(encoding="utf-8")
    assert image_names(source) == ([], sorted(IMAGE_FUNCTIONS))
