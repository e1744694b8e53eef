"""Every name a module, a test file or a demo imports is used in it, the
package memoises through one helper only, and it descends no dense whisker.

The project ships no linter, so this is its unused-import check: an
``ast`` scan of the names each file imports against the names it reads.
The package ``__init__`` is skipped, since its imports are the public
re-exports.  A second scan keeps every memo on the session's
``FieldSpec``: no ``functools`` cache in the package, and one
``memoised``, defined in ``exactlin``.  A third keeps whiskers sparse: a
map f (x) g between tensor words goes through ``corcat.tensor_map``, never
through ``descend(kron(f, g), ...)``, which builds the whole ambient map,
and a map projected to a quotient passes that quotient to ``descend`` as
its target instead of composing with its projection first.
A fourth keeps matrices sparse: no module but ``cli``, which serialises,
reads a matrix's dense ``entries`` view.  A fifth keeps the composed-coring
homomorphism's action on workspace sections in one place: ``cli`` names
``comc_obj``, ``comc_one_cell`` and ``comc_two_cell`` only in its image
table ``_IMAGES``, and every other use reads them from there.  A sixth
keeps the package free of dead names: every module-level function and
class, and every method but a dunder, is read somewhere in the package
outside its own definition, unless ``UNREAD`` gives a reason.  A seventh
keeps the field interface minimal: sums of scalar multiples go through
``_combine``, so the per-scalar ``mul`` and ``neg`` are read only in the
hot loop each serves, and no code reads a field's ``sub``, ``zero`` or
``one``.  An eighth keeps one checker protocol: every checker returns the
report of the one evaluator, ``algstruct._check_squares``, the only code
that builds a ``CheckReport``.
"""

import ast
from collections import Counter
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


def _projects(node) -> bool:
    """Whether ``node`` is a call ``compose(<...>.projection, ...)``."""
    return (isinstance(node, ast.Call) and _name(node) == "compose"
            and bool(node.args) and isinstance(node.args[0], ast.Attribute)
            and node.args[0].attr == "projection")


def dense_whiskers(source: str) -> list:
    """The lines of ``source`` that call ``descend`` on a ``kron``, or
    ``descend``, ``induced_map`` or ``unit_coherence`` on a map already
    projected to its target, which belongs in ``descend``'s third
    argument."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and node.args and (
                      _name(node) == "descend"
                      and isinstance(node.args[0], ast.Call)
                      and _name(node.args[0]) == "kron"
                      or _name(node) in ("descend", "induced_map",
                                         "unit_coherence")
                      and _projects(node.args[0])))


def test_scan_finds_dense_whiskers():
    source = ("a = descend(kron(f, 2), s, t)\n"
              "b = qtensor.descend(\n    kron(2, g), s, t)\n"
              "c = descend(f, s, t)\nd = tensor_map(f, 2, s, t)\n"
              "e = induced_map(compose(w.outer.projection, z), q)\n"
              "f = descend(compose(p.projection, z, y), q, 3)\n"
              "g = unit_coherence(compose(q.projection, z), c)\n"
              "h = descend(compose(z, p.projection), q, t)\n"
              "i = descend(z, q, w.outer)\n")
    assert dense_whiskers(source) == [1, 2, 6, 7, 8]


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


# ``file: name`` -> why the package keeps it though no code of it reads it
UNREAD = {"exactlin.py: Matrix.column": "the demos read structure maps "
                                        "one column at a time"}


def _reads(node) -> Counter:
    """(name, whether read as an attribute) of each load in ``node``."""
    return Counter((n.attr, True) if isinstance(n, ast.Attribute)
                   else (n.id, False) for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute))
                   and isinstance(n.ctx, ast.Load))


def _definitions(tree):
    """(name, node, is a method) of each module-level function and class,
    and each method but a dunder, as ``Class.name``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{sub.name}", sub, True)
                        for sub in node.body
                        if isinstance(sub, ast.FunctionDef)
                        and not (sub.name.startswith("__")
                                 and sub.name.endswith("__")))


def unread_definitions(sources: dict) -> list:
    """``file: name`` of each definition of ``sources``, a dict file name
    -> source text, that no code of ``sources`` reads outside the
    definition itself, sorted.  A method is read only as an attribute,
    anything else also as a plain name."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    total = sum(map(_reads, trees.values()), Counter())
    unread = []
    for file, tree in trees.items():
        for name, node, method in _definitions(tree):
            leaf, own = name.rpartition(".")[2], _reads(node)
            ways = [True] if method else [True, False]
            if all(total[leaf, w] == own[leaf, w] for w in ways):
                unread.append(f"{file}: {name}")
    return sorted(unread)


def test_scan_finds_unread_definitions():
    sources = {"a.py": "def f():\n    return f()\n\n"
                       "def g():\n    return 1\n\n"
                       "class C:\n    def m(self):\n        return self.n()\n"
                       "    def n(self):\n        return 0\n"
                       "    def __len__(self):\n        return 0\n",
               "b.py": "from .a import g\nm = 1\nx = g() + m\n"}
    assert unread_definitions(sources) == ["a.py: C", "a.py: C.m", "a.py: f"]


def test_every_definition_is_read():
    src = ROOT / "src" / "entwine"
    assert unread_definitions({p.name: p.read_text(encoding="utf-8")
                               for p in sorted(src.glob("*.py"))
                               if p.name != "__init__.py"}) == sorted(UNREAD)


# field member -> the one module-level definition of the package that
# may read it
FIELD_MEMBERS = {"mul": "corcat.py: tensor_map",
                 "neg": "exactlin.py: _null_rows",
                 "sub": None, "zero": None, "one": None}


def field_member_reads(sources: dict) -> list:
    """(attribute, ``file: owner``) of each read of an attribute named in
    ``FIELD_MEMBERS`` in ``sources``, a dict file name -> source text,
    sorted.  The owner is the module-level function or class that holds
    the read, or ``<module>``."""
    return sorted((n.attr, f"{file}: {getattr(top, 'name', '<module>')}")
                  for file, source in sources.items()
                  for top in ast.parse(source).body
                  for n in ast.walk(top)
                  if isinstance(n, ast.Attribute) and n.attr in FIELD_MEMBERS
                  and isinstance(n.ctx, ast.Load))


def test_scan_finds_field_member_reads():
    sources = {"a.py": "import re\n"
                       "def f(field):\n"
                       "    return field.mul(2, 3), re.sub('a', 'b', 'c')\n"
                       "class M:\n    one = F.one\n"
                       "    def g(self):\n        return self.field.zero\n",
               "b.py": "x = F.neg\nF.one = 2\nmul = x.mult\n"}
    assert field_member_reads(sources) == [
        ("mul", "a.py: f"), ("neg", "b.py: <module>"), ("one", "a.py: M"),
        ("sub", "a.py: f"), ("zero", "a.py: M")]


def test_field_members_are_read_only_by_their_hot_loops():
    src = ROOT / "src" / "entwine"
    found = field_member_reads({p.name: p.read_text(encoding="utf-8")
                                for p in sorted(src.glob("*.py"))})
    assert found == sorted((attr, owner) for attr, owner
                           in FIELD_MEMBERS.items() if owner)


def report_builders(sources: dict) -> list:
    """``file: owner`` of each call ``CheckReport(...)`` in ``sources``, a
    dict file name -> source text, sorted; the owner is the module-level
    function or class that holds the call, or ``<module>``."""
    return sorted(f"{file}: {getattr(top, 'name', '<module>')}"
                  for file, source in sources.items()
                  for top in ast.parse(source).body
                  for n in ast.walk(top)
                  if isinstance(n, ast.Call) and _name(n) == "CheckReport")


def test_scan_finds_report_builders():
    sources = {"a.py": "class C:\n    def report(self):\n"
                       "        return CheckReport((), ())\n"
                       "def f(rep: CheckReport):\n    return rep.passed\n",
               "b.py": "from a import algstruct\n"
                       "r = algstruct.CheckReport(())\n"
                       "def g():\n    return [CheckReport(())]\n"}
    assert report_builders(sources) == ["a.py: C", "b.py: <module>",
                                        "b.py: g"]


def test_only_the_evaluator_builds_reports():
    src = ROOT / "src" / "entwine"
    assert report_builders({p.name: p.read_text(encoding="utf-8")
                            for p in sorted(src.glob("*.py"))}) == [
        "algstruct.py: _check_squares"]
