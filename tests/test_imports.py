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
keeps the field interface minimal: matrices hold int numerators and every
sum of scalar multiples goes through ``_combine``, so no code reads a
field's ``mul``, ``neg``, ``sub``, ``zero`` or ``one``.  An eighth keeps
one checker protocol: every checker returns the report of the one
evaluator, ``algstruct._check_squares``, the only code that builds a
``CheckReport``.  A ninth keeps one route past the check
that an induced map is well defined: outside ``qtensor.descend_columns``,
which checks it, only ``corcat.tensor_map`` and ``corcat.word_iso`` read
``free_columns``, each only after it has read a checked square, a module
square through ``_module_square`` or the bimodule square through
``_bimodule_square``.
A tenth keeps the README's list of memoised functions honest: its bullet
"Memoisation has one owner" names exactly the functions that the package
defines with ``@memoised``.  An eleventh keeps the ``Fraction`` boundary in
one module: no module of the package but ``exactlin`` names ``Fraction``.
A twelfth keeps start-up cheap: no module of the package imports
``dataclasses``, ``inspect`` or ``typing`` (records are ``exactlin.Record``,
annotations builtin generics), and a fresh interpreter that imports
``entwine.cli`` loads none of ``dataclasses``, ``inspect`` and ``argparse``
(which only ``cli.main`` imports).  A thirteenth keeps the matrix
format behind one module: outside ``exactlin``, no code reads a matrix's
``den`` or stored columns ``_c``, or imports or reads a private name of
``exactlin``, so a change to how matrices are stored touches ``exactlin``
alone.  A
fourteenth keeps every memo reachable: ``memoised`` finds its memo through
``args[0].field``, so the first parameter of each ``@memoised`` function
is annotated with a class of the package that defines ``field`` (``Matrix``
through its slot, a cell or structure through the ``field=`` keyword of its
``Record`` class header), and a cell that lacks it fails here, not on its
first call.  A fifteenth keeps one elimination per coherence iso: only
``qtensor._iso_or_raise`` raises ``NotInvertible``, and it decides through
the memoised ``inverse``, whose result the chases read again, not through
``rank``; outside ``exactlin`` only ``comc.hom_dimension_report`` reads
``rank``.  A sixteenth keeps one exit-code rule: no ``cmd_*`` verb holds a
``try``, and only ``cli._run``, which decides every verb's exit code,
formats the one-line ``<kind> error: <message>``.  A seventeenth keeps one
owner of immutability and equality: outside ``exactlin.Record`` and
``FieldSpec``, no class of the package defines ``__setattr__``,
``__delattr__`` or ``__eq__``, so ``Matrix`` and every cell and structure
are immutable, and equal, in the one way ``Record`` decides.
"""

import ast
import os
import re
import subprocess
import sys
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


def _memoised(node) -> bool:
    """Whether ``node`` defines a function with ``@memoised`` (or
    ``@<module>.memoised``)."""
    return isinstance(node, ast.FunctionDef) and "memoised" in (
        getattr(d, "id", getattr(d, "attr", "")) for d in node.decorator_list)


def memoised_functions(sources: dict) -> list:
    """The sorted names of the functions defined with ``@memoised`` in
    ``sources``, a dict file name -> source."""
    return sorted(node.name for source in sources.values()
                  for node in ast.walk(ast.parse(source)) if _memoised(node))


def listed_memos(readme: str) -> list:
    """The sorted names, without module prefix, that the sentence "It wraps
    ..., so" of the README bullet "Memoisation has one owner" lists."""
    bullet = readme.split("- Memoisation has one owner", 1)[1]
    wrapped = re.search(r"It wraps (.*?), so ",
                        bullet.split("\n- ", 1)[0], re.S).group(1)
    return sorted(name.rsplit(".", 1)[-1]
                  for name in re.findall(r"`([\w.]+)`", wrapped))


def test_scan_finds_memoised_functions_and_listed_memos():
    sources = {"a.py": "@memoised\ndef f(x):\n    pass\n"
                       "@x.memoised\ndef g(x):\n    pass\n",
               "b.py": "@other\ndef h(x):\n    pass\n"
                       "class C:\n    @memoised\n    def m(self):\n"
                       "        pass\n"}
    assert memoised_functions(sources) == ["f", "g", "m"]
    readme = ("- A bullet. It wraps `no`, so nothing.\n"
              "- Memoisation has one owner: `memoised`. It wraps `f`,\n"
              "  `a.g` and `C.m`, so each is built once. It wraps `no`,\n"
              "  so only the first sentence counts.\n"
              "- Another bullet. It wraps `no`, so nothing.\n")
    assert listed_memos(readme) == ["f", "g", "m"]


def test_readme_lists_the_memoised_functions():
    src = ROOT / "src" / "entwine"
    assert listed_memos((ROOT / "README.md").read_text(encoding="utf-8")) == (
        memoised_functions({p.name: p.read_text(encoding="utf-8")
                            for p in sorted(src.glob("*.py"))}))


def _defines_field(node: ast.ClassDef) -> bool:
    """Whether class ``node`` defines ``field``: through the ``field=``
    class keyword that ``Record`` reads, as a method or property, or as a
    name in its ``__slots__``, as ``Matrix`` does."""
    return any(k.arg == "field" for k in node.keywords) or any(
        isinstance(sub, ast.FunctionDef) and sub.name == "field"
        or isinstance(sub, ast.Assign)
        and any(getattr(t, "id", None) == "__slots__" for t in sub.targets)
        and "field" in (getattr(c, "value", None)
                        for c in ast.walk(sub.value))
        for sub in node.body)


def memos_without_field(sources: dict) -> list:
    """``file: name`` of each function of ``sources``, a dict file name ->
    source text, defined with ``@memoised`` whose first parameter is not
    annotated with a class of ``sources`` that defines ``field``, sorted:
    ``memoised`` finds its memo through ``args[0].field``."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    fielded = {node.name for tree in trees.values()
               for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and _defines_field(node)}
    found = []
    for file, tree in trees.items():
        for node in filter(_memoised, ast.walk(tree)):
            args = node.args.posonlyargs + node.args.args
            note = args[0].annotation if args else None
            name = getattr(note, "id", getattr(note, "attr",
                                               getattr(note, "value", None)))
            if name not in fielded:
                found.append(f"{file}: {node.name}")
    return sorted(found)


def test_scan_finds_memoised_functions_without_field():
    sources = {"a.py": "class M:\n    __slots__ = ('field', 'rows')\n"
                       "class C:\n    @property\n"
                       "    def field(self):\n        return 0\n"
                       "class D:\n    __slots__ = ('fields',)\n"
                       "    field_of = 0\n"
                       "class R(Record, field='psi'):\n"
                       "    __slots__ = ('psi',)\n"
                       "class S(Record, fields='psi'):\n    pass\n",
               "b.py": "@memoised\ndef f(m: M, d: D):\n    pass\n"
                       "@x.memoised\ndef g(c: a.C) -> D:\n    pass\n"
                       "@memoised\ndef h(c: 'C'):\n    pass\n"
                       "@memoised\ndef i(d: D, c: C):\n    pass\n"
                       "@memoised\ndef j(n: int):\n    pass\n"
                       "@memoised\ndef k(c):\n    pass\n"
                       "@memoised\ndef l():\n    pass\n"
                       "def n(d: D):\n    pass\n"
                       "@memoised\ndef o(r: R):\n    pass\n"
                       "@memoised\ndef q(s: S):\n    pass\n"}
    assert memos_without_field(sources) == ["b.py: i", "b.py: j", "b.py: k",
                                            "b.py: l", "b.py: q"]


def test_every_memoised_function_reaches_its_memo():
    src = ROOT / "src" / "entwine"
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(src.glob("*.py"))}
    assert memoised_functions(sources) and memos_without_field(sources) == []



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
UNREAD = {}


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
# may read it, or None if none may
FIELD_MEMBERS = {"mul": None, "neg": None, "sub": None, "zero": None,
                 "one": None}


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



def _loads(node, name: str) -> list:
    """The lines of ``node`` that read ``name``, as a name or attribute."""
    return [n.lineno for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)
            and getattr(n, "id", getattr(n, "attr", None)) == name]


# the checked squares that prove a map descends
SQUARES = ("_module_square", "_bimodule_square")


def sweep_free_reads(sources: dict) -> list:
    """(``file: owner``, whether the owner reads a checked square of
    ``SQUARES`` on an earlier line) of each read of ``free_columns`` in
    ``sources``, a dict file name -> source text, sorted; the owner is the
    module-level function or class that holds the read, or ``<module>``."""
    return sorted((f"{file}: {getattr(top, 'name', '<module>')}",
                   any(s < line for square in SQUARES
                       for s in _loads(top, square)))
                  for file, source in sources.items()
                  for top in ast.parse(source).body
                  for line in _loads(top, "free_columns"))


def test_scan_finds_sweep_free_reads():
    sources = {"a.py": "from q import free_columns\n"
                       "def f(m):\n"
                       "    if _module_square(m):\n"
                       "        return free_columns(m)\n"
                       "def g(m):\n    h = q.free_columns\n"
                       "    return h(m) if c._module_square(m) else 0\n"
                       "def h(y):\n    ok = c._bimodule_square(y)\n"
                       "    return (free_columns if ok else d)(y)\n"
                       "def k(y):\n    ok = _square(y)\n"
                       "    return free_columns(y) if ok else 0\n",
               "b.py": "x = [free_columns]\n"
                       "class C:\n    def m(self):\n"
                       "        return free_columns(self)\n"}
    assert sweep_free_reads(sources) == [
        ("a.py: f", True), ("a.py: g", False), ("a.py: h", True),
        ("a.py: k", False), ("b.py: <module>", False), ("b.py: C", False)]


def test_only_checked_squares_skip_the_sweep():
    src = ROOT / "src" / "entwine"
    assert sweep_free_reads({p.name: p.read_text(encoding="utf-8")
                             for p in sorted(src.glob("*.py"))}) == [
        ("corcat.py: tensor_map", True), ("corcat.py: word_iso", True),
        ("qtensor.py: descend_columns", False)]


def fraction_names(sources: dict) -> list:
    """``file: line`` of each place in ``sources``, a dict file name ->
    source text, that names ``Fraction``: as a name, an attribute or an
    import, sorted."""
    return sorted(f"{file}: {n.lineno}" for file, source in sources.items()
                  for n in ast.walk(ast.parse(source))
                  if getattr(n, "id", getattr(n, "attr", None)) == "Fraction"
                  or isinstance(n, ast.ImportFrom)
                  and "Fraction" in (a.name for a in n.names))


def test_scan_finds_fraction_names():
    sources = {"a.py": "from fractions import Fraction as F\nx = F(1, 2)\n",
               "b.py": "import fractions\n\n"
                       "def f(x):\n    return fractions.Fraction(x)\n",
               "c.py": "def g(x: 'Fraction'):\n"
                       "    return isinstance(x, Fraction)\n",
               "d.py": "fraction = 1\nFractions = 2\n"}
    assert fraction_names(sources) == ["a.py: 1", "b.py: 4", "c.py: 2"]


def test_only_exactlin_names_fraction():
    src = ROOT / "src" / "entwine"
    found = fraction_names({p.name: p.read_text(encoding="utf-8")
                            for p in sorted(src.glob("*.py"))})
    assert found and {f.split(":")[0] for f in found} == {"exactlin.py"}


# modules whose import costs every ``entwine`` call its start-up time
SLOW_IMPORTS = ("dataclasses", "inspect", "typing")


def slow_imports(sources: dict) -> list:
    """``file: module`` of each import in ``sources``, a dict file name ->
    source text, of a module in ``SLOW_IMPORTS`` or a submodule of one,
    sorted."""
    found = []
    for file, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{file}: {name}" for name in names
                      if name.split(".")[0] in SLOW_IMPORTS]
    return sorted(found)


def test_scan_finds_slow_imports():
    sources = {"a.py": "import dataclasses\nimport os, inspect as i\n",
               "b.py": "from typing import Optional\n"
                       "from .dataclasses import x\n"
                       "def f():\n    from dataclasses import field\n",
               "c.py": "import typing_extensions\nx = dataclasses\n"}
    assert slow_imports(sources) == ["a.py: dataclasses", "a.py: inspect",
                                     "b.py: dataclasses", "b.py: typing"]


def test_package_imports_no_slow_module():
    src = ROOT / "src" / "entwine"
    assert slow_imports({p.name: p.read_text(encoding="utf-8")
                         for p in sorted(src.glob("*.py"))}) == []


NEW_MODULES = r"""
import sys
before = set(sys.modules)
import entwine.cli
print(*sorted(set(sys.modules) - before))
"""


def test_cli_import_loads_no_dataclasses_or_inspect():
    out = subprocess.run([sys.executable, "-c", NEW_MODULES], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    loaded = set(out.stdout.split())
    assert "entwine.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "argparse"} == set()


# outside ``exactlin``, the code that knows the matrix format: none
DEN_READERS = []


def den_readers(sources: dict) -> list:
    """``file: owner`` of each module-level function or class of
    ``sources``, a dict file name -> source text, that reads a matrix's
    ``.den`` or ``._c`` or a private attribute of ``exactlin``, once each;
    ``<module>`` for a read outside them; and ``file: import _name`` for
    each private name it imports from ``exactlin``; sorted."""
    found = set()
    for file, source in sources.items():
        for top in ast.parse(source).body:
            for n in ast.walk(top):
                if isinstance(n, ast.ImportFrom) and (
                        n.module or "").split(".")[-1] == "exactlin":
                    found |= {f"{file}: import {a.name}" for a in n.names
                              if a.name.startswith("_")}
                elif isinstance(n, ast.Attribute) and isinstance(
                        n.ctx, ast.Load) and (n.attr in ("den", "_c") or (
                            n.attr.startswith("_")
                            and getattr(n.value, "id", "") == "exactlin")):
                    found.add(f"{file}: {getattr(top, 'name', '<module>')}")
    return sorted(found)


def test_scan_finds_den_readers():
    sources = {"a.py": "def f(m):\n    return m.den + m.den\n"
                       "def g(m):\n    m.den = 2\n    return m.dens, den\n"
                       "class C:\n    def h(self):\n"
                       "        return self.m.den * 2\n",
               "b.py": "d = x.den\nden = 3\n",
               "c.py": "from .exactlin import Matrix, _wrap\n"
                       "from entwine.exactlin import _echelon as e\n"
                       "from .other import _x\n"
                       "def k(m):\n    return m._c[0], m.c, m._cols\n"
                       "def n(m):\n    return exactlin.kron, other._c2\n",
               "d.py": "from . import exactlin\ny = exactlin._combine\n"}
    assert den_readers(sources) == [
        "a.py: C", "a.py: f", "b.py: <module>", "c.py: import _echelon",
        "c.py: import _wrap", "c.py: k", "d.py: <module>"]


def test_only_column_builders_read_den():
    src = ROOT / "src" / "entwine"
    assert den_readers({p.name: p.read_text(encoding="utf-8")
                        for p in sorted(src.glob("*.py"))
                        if p.name != "exactlin.py"}) == DEN_READERS


def invertibility_reads(sources: dict) -> dict:
    """For ``sources``, a dict file name -> source text: under "raises",
    ``file: owner`` of each ``raise NotInvertible``; under "rank" and
    "inverse", that of each read of the name, as a name or attribute.
    Each list is sorted, an owner once; the owner is the module-level
    function or class that holds the raise or read, or ``<module>``."""
    found = {"raises": set(), "rank": set(), "inverse": set()}
    for file, source in sources.items():
        for top in ast.parse(source).body:
            owner = f"{file}: {getattr(top, 'name', '<module>')}"
            # the class each raise names, bare or called
            raised = [getattr(n.exc, "func", n.exc) for n in ast.walk(top)
                      if isinstance(n, ast.Raise)]
            if "NotInvertible" in (getattr(e, "id", getattr(e, "attr", None))
                                   for e in raised):
                found["raises"].add(owner)
            for name in ("rank", "inverse"):
                if _loads(top, name):
                    found[name].add(owner)
    return {kind: sorted(owners) for kind, owners in found.items()}


def test_scan_finds_invertibility_reads():
    sources = {"a.py": "from .exactlin import rank\n"
                       "def f(u):\n    if rank(u) < u.rows:\n"
                       "        raise NotInvertible('no')\n"
                       "def g(u):\n    return inverse(u) or e.rank(u)\n"
                       "class C:\n    def h(self):\n"
                       "        raise errors.NotInvertible\n",
               "b.py": "x = exactlin.inverse\nrank = 2\n"
                       "def k():\n    raise ValueError('NotInvertible')\n"}
    assert invertibility_reads(sources) == {
        "raises": ["a.py: C", "a.py: f"],
        "rank": ["a.py: f", "a.py: g"],
        "inverse": ["a.py: g", "b.py: <module>"]}


def test_one_elimination_decides_each_coherence_iso():
    src = ROOT / "src" / "entwine"
    found = invertibility_reads({p.name: p.read_text(encoding="utf-8")
                                 for p in sorted(src.glob("*.py"))})
    assert found["raises"] == ["qtensor.py: _iso_or_raise"]
    assert "qtensor.py: _iso_or_raise" in found["inverse"]
    assert [owner for owner in found["rank"]
            if not owner.startswith("exactlin.py")] == [
        "comc.py: hom_dimension_report"]


def error_policy(sources: dict) -> dict:
    """For ``sources``, a dict file name -> source text: under "try",
    ``file: name`` of each module-level ``cmd_*`` function that holds a
    ``try`` (in a nested function too); under "format", ``file: owner`` of
    each module-level function or class, or ``<module>``, holding a string
    other than a docstring that contains ``error: ``.  Each sorted."""
    found = {"try": set(), "format": set()}
    for file, source in sources.items():
        tree = ast.parse(source)
        docstrings = {id(n.body[0].value) for n in ast.walk(tree)
                      if isinstance(n, (ast.Module, ast.FunctionDef,
                                        ast.ClassDef))
                      and n.body and isinstance(n.body[0], ast.Expr)}
        for top in tree.body:
            name = getattr(top, "name", "<module>")
            nodes = list(ast.walk(top))
            if name.startswith("cmd_") and any(
                    isinstance(n, (ast.Try, ast.TryStar)) for n in nodes):
                found["try"].add(f"{file}: {name}")
            if any(isinstance(n, ast.Constant) and isinstance(n.value, str)
                   and "error: " in n.value and id(n) not in docstrings
                   for n in nodes):
                found["format"].add(f"{file}: {name}")
    return {kind: sorted(owners) for kind, owners in found.items()}


def test_scan_finds_split_error_policy():
    sources = {"a.py": '"""A module-level error: a docstring."""\n'
                       "def cmd_x(out):\n    try:\n        f()\n"
                       "    except E:\n        pass\n"
                       "def cmd_y():\n    def inner():\n"
                       "        try:\n            pass\n"
                       "        finally:\n            pass\n"
                       "def g(kind, exc):\n"
                       '    """Print one error: line."""\n'
                       '    print(f"{kind} error: {exc}")\n',
               "b.py": "def h(exc):\n    return 'input error: ' + str(exc)\n"
                       "def cmd_z():\n    return 'no error here'\n"
                       "try:\n    import x\nexcept ImportError:\n"
                       "    pass\n"}
    assert error_policy(sources) == {"try": ["a.py: cmd_x", "a.py: cmd_y"],
                                     "format": ["a.py: g", "b.py: h"]}


def test_one_runner_decides_every_exit_code():
    src = ROOT / "src" / "entwine"
    assert error_policy({p.name: p.read_text(encoding="utf-8")
                         for p in sorted(src.glob("*.py"))}) == {
        "try": [], "format": ["cli.py: _run"]}


IMMUTABILITY_OWNERS = ("exactlin.py: Record", "exactlin.py: FieldSpec")


def immutability_owners(sources: dict) -> list:
    """``file: class`` of each class of ``sources``, a dict file name ->
    source text, whose body defines ``__setattr__``, ``__delattr__`` or
    ``__eq__``, sorted."""
    found = set()
    for file, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(sub, ast.FunctionDef) and sub.name in (
                        "__setattr__", "__delattr__", "__eq__")
                    or isinstance(sub, ast.Assign) and any(
                        getattr(t, "id", None) in ("__setattr__",
                                                   "__delattr__", "__eq__")
                        for t in sub.targets)
                    for sub in node.body):
                found.add(f"{file}: {node.name}")
    return sorted(found)


def test_scan_finds_immutability_owners():
    sources = {"a.py": "class A:\n    def __setattr__(self, n, v):\n"
                       "        pass\n"
                       "class B:\n    def __eq__(self, other):\n"
                       "        return True\n"
                       "class C:\n    __delattr__ = object.__delattr__\n"
                       "class D:\n    def __hash__(self):\n"
                       "        return 0\n"
                       "    def setattr(self):\n        pass\n",
               "b.py": "def f():\n    class E:\n"
                       "        def __delattr__(self, n):\n"
                       "            pass\n"
                       "    return E\n"
                       "def __eq__(a, b):\n    return True\n"}
    assert immutability_owners(sources) == ["a.py: A", "a.py: B", "a.py: C",
                                            "b.py: E"]


def test_one_base_owns_immutability_and_equality():
    src = ROOT / "src" / "entwine"
    assert immutability_owners({p.name: p.read_text(encoding="utf-8")
                                for p in sorted(src.glob("*.py"))}) == sorted(
        IMMUTABILITY_OWNERS)
