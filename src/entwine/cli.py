"""Batch interface: workspaces of structure constants, checkers, reports.

A workspace is one UTF-8 JSON document holding named algebras,
coalgebras, entwinings, 1-cells and 2-cells (plus derived corings and
coring cells) over a single field; the table ``_CHECKERS`` gives each
section's keys and checker, and ``_IMAGES`` the composed-coring image of
each cell section.  Scalars are strings ("3", "-1/2", or decimal
residues mod p), matrices are arrays of row arrays under the row-major
Kronecker convention of :mod:`entwine.exactlin`.  Output is canonical
JSON (sorted keys, two-space indent, trailing newline), so serialization
round-trips byte for byte and files diff cleanly.

Verbs: check | compose | comc | laws | gallery.  Exit codes: 0 all
checks pass, 1 semantic failure (axiom violation, non-composable cells,
failed factorization), 2 input error (unreadable file, malformed field,
unresolved name).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partialmethod

from .algstruct import (Algebra, Bimodule, Coalgebra, CheckReport,
                        check_algebra, check_coalgebra, cyclic_group_bialgebra,
                        group_algebra, grouplike_coalgebra, matrix_algebra,
                        matrix_coalgebra)
from .comc import (comc_obj, comc_one_cell, comc_two_cell, compositor,
                   hom_dimension_report, unitor_comparison)
from .corcat import (Coring, CorOneCell, CorTwoCell, check_cor_one_cell,
                     check_cor_two_cell, check_coring, cor_associator,
                     cor_right_unitor, cor_left_unitor, hcomp_cor,
                     identity_cor_two_cell, vcomp_cor)
from .entwcat import (EntwObj, EntwOneCell, EntwTwoCell, bialgebra_entwining,
                      check_obj, check_one_cell, check_two_cell,
                      compose_one_cells, flip_entwining, hcomp,
                      identity_one_cell, identity_two_cell, scalar_two_cell,
                      morphism_one_cell, vcomp)
from .errors import EntwineError
from .exactlin import FieldSpec, Matrix


# -- the schema ------------------------------------------------------------

# One row per workspace section, a section only referencing earlier ones:
# (section, report kind, checker, reference keys -> the section they name,
#  integer keys -> attribute path, matrix keys -> attribute path, builder
#  called with every key of the entry as a keyword argument).
_CHECKERS = [
    ("algebras", "ALGEBRA", check_algebra, {}, {"dim": "dim"},
     {"mult": "mult", "unit": "unit"}, Algebra),
    ("coalgebras", "COALGEBRA", check_coalgebra, {}, {"dim": "dim"},
     {"comult": "comult", "counit": "counit"}, Coalgebra),
    ("entwinings", "ENTWINING", check_obj,
     {"algebra": "algebras", "coalgebra": "coalgebras"}, {}, {"psi": "psi"},
     EntwObj),
    ("one_cells", "ONECELL", check_one_cell,
     {"dom": "entwinings", "cod": "entwinings"}, {"dimM": "dimM"},
     {"alpha": "alpha", "gamma": "gamma"}, EntwOneCell),
    ("two_cells", "TWOCELL", check_two_cell,
     {"dom": "one_cells", "cod": "one_cells"}, {}, {"theta": "theta"},
     EntwTwoCell),
    ("corings", "CORING", check_coring, {"base": "algebras"},
     {"dim": "carrier.dim"},
     {"lact": "carrier.lact", "ract": "carrier.ract", "comult": "comult",
      "counit": "counit"},
     lambda base, dim, lact, ract, comult, counit: Coring(
         base, Bimodule(base, base, dim, lact, ract), comult, counit)),
    ("cor_one_cells", "CORONECELL", check_cor_one_cell,
     {"dom": "corings", "cod": "corings"}, {"dim": "carrier.dim"},
     {"lact": "carrier.lact", "ract": "carrier.ract", "zeta": "zeta"},
     lambda dom, cod, dim, lact, ract, zeta: CorOneCell(
         dom, cod, Bimodule(cod.base, dom.base, dim, lact, ract), zeta)),
    ("cor_two_cells", "CORTWOCELL", check_cor_two_cell,
     {"dom": "cor_one_cells", "cod": "cor_one_cells"}, {}, {"map": "map"},
     CorTwoCell),
]
_ROWS = {row[0]: row for row in _CHECKERS}

# The composed-coring homomorphism: cell section -> (image of an entry,
# the image's section, whose row gives its report kind and checker).  An
# image references the images of its entry's first references, or those
# entries where their section is not mapped (a coring's base algebra).
_IMAGES = {"entwinings": (comc_obj, "corings"),
           "one_cells": (comc_one_cell, "cor_one_cells"),
           "two_cells": (comc_two_cell, "cor_two_cells")}


# -- workspace -------------------------------------------------------------


class Workspace:
    """Named entries over one field, with the references between them.

    Every section of ``_CHECKERS`` is a dict attribute, name -> object;
    ``refs[section, name]`` holds the names an entry references, in the
    order of its section's reference keys.
    """

    def __init__(self, field: FieldSpec):
        self.field = field
        for section, *_ in _CHECKERS:
            setattr(self, section, {})
        self.refs = {}
        self.provenance = {}    # any name -> free-form string

    def add(self, section: str, name: str, *refs_and_obj, origin=None):
        """``add(section, name, *reference names, obj)``."""
        *refs, obj = refs_and_obj
        getattr(self, section)[name] = obj
        self.refs[section, name] = tuple(refs)
        if origin:
            self.provenance[name] = origin

    add_algebra = partialmethod(add, "algebras")
    add_coalgebra = partialmethod(add, "coalgebras")
    add_entwining = partialmethod(add, "entwinings")
    add_one_cell = partialmethod(add, "one_cells")
    add_two_cell = partialmethod(add, "two_cells")


def _copy(src: Workspace, dst: Workspace, section: str, name: str) -> str:
    """Copy an entry, after all it references, into dst; return its name."""
    refs = src.refs[section, name]
    for target, ref in zip(_ROWS[section][3].values(), refs):
        _copy(src, dst, target, ref)
    dst.add(section, name, *refs, getattr(src, section)[name])
    return name


def field_to_json(field: FieldSpec):
    if field.kind == "rational":
        return {"kind": "rational"}
    return {"kind": "prime", "p": field.p}


def field_from_json(data) -> FieldSpec:
    if not isinstance(data, dict) or "kind" not in data:
        raise EntwineError("malformed field spec")
    if data["kind"] == "rational":
        return FieldSpec("rational")
    if data["kind"] == "prime":
        return FieldSpec("prime", data.get("p"))
    raise EntwineError(f"unknown field kind {data['kind']!r}")


def parse_field_flag(text: str) -> FieldSpec:
    """--field values: 'rational' or 'prime:<p>'."""
    if text == "rational":
        return FieldSpec("rational")
    if text.startswith("prime:"):
        try:
            p = int(text.split(":", 1)[1])
        except ValueError:
            raise EntwineError(f"malformed field flag {text!r}")
        return FieldSpec("prime", p)
    raise EntwineError(f"malformed field flag {text!r}")


def _to_json(obj, path: str):
    for name in path.split("."):
        obj = getattr(obj, name)
    if isinstance(obj, Matrix):
        return [[str(x) for x in row] for row in obj.entries]
    return obj


def serialize(ws: Workspace) -> str:
    doc = {"field": field_to_json(ws.field)}
    for section, _, _, ref_keys, ints, mats, _ in _CHECKERS:
        entries = getattr(ws, section)
        if entries:
            doc[section] = {name: {
                **dict(zip(ref_keys, ws.refs[section, name])),
                **{key: _to_json(obj, path)
                   for key, path in {**ints, **mats}.items()}}
                for name, obj in entries.items()}
    if ws.provenance:
        doc["provenance"] = dict(ws.provenance)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _object(data, what: str) -> dict:
    if not isinstance(data, dict):
        raise EntwineError(f"{what} must be a JSON object")
    return data


def _parse_entry(ws: Workspace, row, d: dict) -> tuple:
    """(reference names, keyword arguments of the builder) of one entry."""
    _, _, _, ref_keys, ints, mats, _ = row
    missing = [k for k in (*ref_keys, *ints, *mats) if k not in d]
    if missing:
        raise EntwineError(f"missing {', '.join(missing)}")
    kwargs = {}
    for key, target in ref_keys.items():
        entries = getattr(ws, target)
        if not isinstance(d[key], str) or d[key] not in entries:
            raise EntwineError(f"{key} {d[key]!r} names no entry of {target}")
        kwargs[key] = entries[d[key]]
    for key in ints:
        if type(d[key]) is not int or d[key] < 0:
            raise EntwineError(f"{key} must be a non-negative integer")
        kwargs[key] = d[key]
    for key in mats:
        if not (isinstance(d[key], list)
                and all(isinstance(r, list) for r in d[key])):
            raise EntwineError(f"{key} must be a list of row lists")
        kwargs[key] = Matrix(ws.field, d[key])
    return tuple(d[key] for key in ref_keys), kwargs


def deserialize(text: str) -> Workspace:
    """Parse a workspace: JSON types are checked here, shapes by the cells."""
    doc = _object(json.loads(text), "workspace document")
    ws = Workspace(field_from_json(doc.get("field")))
    for row in _CHECKERS:
        section, build = row[0], row[-1]
        for name, d in sorted(_object(doc.get(section, {}), section).items()):
            try:
                refs, kwargs = _parse_entry(ws, row, _object(d, "entry"))
                ws.add(section, name, *refs, build(**kwargs))
            except (EntwineError, ValueError) as exc:
                raise EntwineError(f"{section} {name}: {exc}") from None
    ws.provenance = dict(_object(doc.get("provenance", {}), "provenance"))
    return ws


def load_workspace(path: str) -> Workspace:
    with open(path, "r", encoding="utf-8") as fh:
        return deserialize(fh.read())


def save_workspace(ws: Workspace, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(ws))


# -- the gallery -----------------------------------------------------------


def build_gallery(field: FieldSpec) -> Workspace:
    """The built-in example workspace exercising every checker."""
    ws = Workspace(field)
    kc1 = group_algebra(field, 1)
    kc2 = group_algebra(field, 2)
    kc3 = group_algebra(field, 3)
    m2 = matrix_algebra(field, 2)
    gl1 = grouplike_coalgebra(field, 1)
    gl2 = grouplike_coalgebra(field, 2)
    gl3 = grouplike_coalgebra(field, 3)
    mc2 = matrix_coalgebra(field, 2)
    for name, a in [("kC1", kc1), ("kC2", kc2), ("kC3", kc3), ("M2", m2)]:
        ws.add_algebra(name, a)
    for name, c in [("gl1", gl1), ("gl2", gl2), ("gl3", gl3), ("mc2", mc2)]:
        ws.add_coalgebra(name, c)

    ws.add_entwining("flip_kC2_mc2", "kC2", "mc2", flip_entwining(kc2, mc2))
    ws.add_entwining("flip_M2_gl3", "M2", "gl3", flip_entwining(m2, gl3))
    ws.add_entwining("flip_kC1_gl2", "kC1", "gl2", flip_entwining(kc1, gl2))
    ws.add_entwining("flip_kC2_gl2", "kC2", "gl2", flip_entwining(kc2, gl2))
    ws.add_entwining("bialg_C1", "kC1", "gl1",
                     bialgebra_entwining(cyclic_group_bialgebra(field, 1)))
    ws.add_entwining("bialg_C2", "kC2", "gl2",
                     bialgebra_entwining(cyclic_group_bialgebra(field, 2)))
    ws.add_entwining("bialg_C3", "kC3", "gl3",
                     bialgebra_entwining(cyclic_group_bialgebra(field, 3)))

    for name, e in list(ws.entwinings.items()):
        ws.add_one_cell(f"id_{name}", name, name, identity_one_cell(e))

    # algebra map: augmentation k[C2] -> k; coalgebra maps: identity and
    # the swap of the two grouplikes of gl2
    aug = Matrix(field, [[1, 1]])
    swap = Matrix(field, [[0, 1], [1, 0]])
    i2 = Matrix.identity(field, 2)
    ws.add_one_cell(
        "m_aug", "flip_kC1_gl2", "flip_kC2_gl2",
        morphism_one_cell(ws.entwinings["flip_kC1_gl2"],
                          ws.entwinings["flip_kC2_gl2"], aug, i2))
    ws.add_one_cell(
        "m_swap", "flip_kC2_gl2", "flip_kC2_gl2",
        morphism_one_cell(ws.entwinings["flip_kC2_gl2"],
                          ws.entwinings["flip_kC2_gl2"], i2, swap))

    ws.add_two_cell("t_id_swap", "m_swap", "m_swap",
                    identity_two_cell(ws.one_cells["m_swap"]))
    ws.add_two_cell("t_two_swap", "m_swap", "m_swap",
                    scalar_two_cell(2, ws.one_cells["m_swap"]))
    ws.add_two_cell("t_two_aug", "m_aug", "m_aug",
                    scalar_two_cell(2, ws.one_cells["m_aug"]))
    ws.add_two_cell("t_three_id2", "id_bialg_C2", "id_bialg_C2",
                    scalar_two_cell(3, ws.one_cells["id_bialg_C2"]))
    return ws


# -- reporting -------------------------------------------------------------


class Report:
    """Accumulates "KIND name axiom PASS|FAIL" lines and the verdict."""

    def __init__(self, out=None):
        self.out = out if out is not None else sys.stdout
        self.ok = True

    def add(self, kind: str, name: str, rep: CheckReport):
        failed = {f.axiom: f for f in rep.failures}
        axioms = rep.axioms or tuple(failed)
        for axiom in axioms:
            if axiom in failed:
                f = failed[axiom]
                where = f" {f.coord}" if f.coord is not None else ""
                self.line(f"{kind} {name} {axiom} FAIL{where}")
                self.ok = False
            else:
                self.line(f"{kind} {name} {axiom} PASS")

    def law(self, name: str, holds: bool, detail: str = ""):
        tail = f" {detail}" if detail and not holds else ""
        self.line(f"LAW - {name} {'PASS' if holds else 'FAIL'}{tail}")
        self.ok = self.ok and holds

    def line(self, text: str):
        print(text, file=self.out)

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1


def _selected(entries: dict, selector: str, kind: str, matched: set):
    if selector == "all":
        return list(entries.items())
    wanted = []
    for token in selector.split(","):
        token = token.strip()
        if ":" in token:
            tkind, tname = token.split(":", 1)
            if tkind != kind:
                continue
            if tname not in entries:
                raise EntwineError(f"no {kind} named {tname!r}")
            wanted.append(tname)
            matched.add(token)
        elif token in entries:
            wanted.append(token)
            matched.add(token)
    return [(name, entries[name]) for name in wanted]


def run_checks(ws: Workspace, selector: str, report: Report):
    matched = set()
    for section, kind, checker, *_ in _CHECKERS:
        for name, obj in _selected(getattr(ws, section), selector, kind,
                                   matched):
            report.add(kind, name, checker(obj))
    if selector != "all":
        missing = {t.strip() for t in selector.split(",")} - matched
        if missing:
            raise EntwineError(
                f"selector matched nothing: {', '.join(sorted(missing))}")


# -- law suites ------------------------------------------------------------


def _composable_pairs(ws: Workspace):
    for pn, p in ws.one_cells.items():
        for mn, m in ws.one_cells.items():
            if m.cod == p.dom:
                yield pn, p, mn, m


def _composable_triples(ws: Workspace):
    for qn, q, pn, p in _composable_pairs(ws):
        for mn, m in ws.one_cells.items():
            if m.cod == p.dom:
                yield qn, q, pn, p, mn, m


def laws_cells(ws: Workspace, report: Report):
    """Every entry and every comc image passes its checker."""
    run_checks(ws, "all", report)
    for section, (image, target) in _IMAGES.items():
        _, kind, checker, *_ = _ROWS[target]
        for name, obj in getattr(ws, section).items():
            report.add(kind, f"comc({name})", checker(image(obj)))


def laws_bicategory(ws: Workspace, report: Report):
    """Closure, unit laws on the nose, associativity, interchange."""
    for pn, p, mn, m in _composable_pairs(ws):
        comp = compose_one_cells(p, m)
        report.add("ONECELL", f"{pn}*{mn}", check_one_cell(comp))
    for name, f in ws.one_cells.items():
        lid = compose_one_cells(identity_one_cell(f.cod), f)
        rid = compose_one_cells(f, identity_one_cell(f.dom))
        report.law(f"unit-laws({name})", lid == f and rid == f)
    for qn, q, pn, p, mn, m in _composable_triples(ws):
        left = compose_one_cells(compose_one_cells(q, p), m)
        right = compose_one_cells(q, compose_one_cells(p, m))
        report.law(f"associativity({qn},{pn},{mn})", left == right)
    # interchange on every 2x2 grid of vertically composable 2-cell pairs
    pairs = [(n1, t1, n2, t2)
             for n1, t1 in ws.two_cells.items()
             for n2, t2 in ws.two_cells.items() if t1.cod == t2.dom]
    for n1, t1, n2, t2 in pairs:
        for n3, t3, n4, t4 in pairs:
            if t1.dom.cod != t3.dom.dom:
                continue
            lhs = vcomp(hcomp(t4, t2), hcomp(t3, t1))
            rhs = hcomp(vcomp(t4, t3), vcomp(t2, t1))
            report.law(f"interchange({n4},{n3};{n2},{n1})",
                       lhs.theta == rhs.theta)


def laws_pseudofunctor(ws: Workspace, report: Report):
    """Compositors, unitors, coherence, 2-cell functoriality."""
    comc1, comc2 = _IMAGES["one_cells"][0], _IMAGES["two_cells"][0]
    for pn, p, mn, m in _composable_pairs(ws):
        report.add("CORTWOCELL", f"compositor({pn},{mn})",
                   check_cor_two_cell(compositor(p, m)))
    for qn, q, pn, p, mn, m in _composable_triples(ws):
        cq, cp, cm = map(comc1, (q, p, m))
        lhs = vcomp_cor(hcomp_cor(compositor(q, p),
                                  identity_cor_two_cell(cm)),
                        compositor(compose_one_cells(q, p), m))
        rhs = vcomp_cor(cor_associator(cq, cp, cm),
                        vcomp_cor(hcomp_cor(identity_cor_two_cell(cq),
                                            compositor(p, m)),
                                  compositor(q, compose_one_cells(p, m))))
        report.law(f"compositor-coherence({qn},{pn},{mn})",
                   lhs.map == rhs.map)
    for name, e in ws.entwinings.items():
        u = unitor_comparison(e)
        report.add("CORTWOCELL", f"unitor({name})", check_cor_two_cell(u))
    for name, f in ws.one_cells.items():
        cf = comc1(f)
        right = vcomp_cor(
            cor_right_unitor(cf),
            vcomp_cor(hcomp_cor(identity_cor_two_cell(cf),
                                unitor_comparison(f.dom)),
                      compositor(f, identity_one_cell(f.dom))))
        left = vcomp_cor(
            cor_left_unitor(cf),
            vcomp_cor(hcomp_cor(unitor_comparison(f.cod),
                                identity_cor_two_cell(cf)),
                      compositor(identity_one_cell(f.cod), f)))
        ident = Matrix.identity(ws.field, cf.carrier.dim)
        report.law(f"unitor-triangles({name})",
                   right.map == ident and left.map == ident)
    for n1, t1 in ws.two_cells.items():
        for n2, t2 in ws.two_cells.items():
            if t1.cod == t2.dom:
                lhs = comc2(vcomp(t2, t1)).map
                rhs = vcomp_cor(comc2(t2), comc2(t1)).map
                report.law(f"comc-vcomp({n2},{n1})", lhs == rhs)
            if t1.dom.cod == t2.dom.dom:
                ch = comc2(hcomp(t2, t1))
                lhs = vcomp_cor(compositor(t2.cod, t1.cod), ch).map
                rhs = vcomp_cor(hcomp_cor(comc2(t2), comc2(t1)),
                                compositor(t2.dom, t1.dom)).map
                report.law(f"comc-hcomp({n2},{n1})", lhs == rhs)
    seen = set()
    for n1, f1 in ws.one_cells.items():
        for n2, f2 in ws.one_cells.items():
            if (f1.dom, f1.cod) != (f2.dom, f2.cod):
                continue
            key = tuple(sorted((n1, n2)))
            if key in seen:
                continue
            seen.add(key)
            de, dc, inj, _ = hom_dimension_report(f1, f2)
            report.law(f"comc-injective({n1},{n2})", inj,
                       f"dims {de}->{dc}")


_LEVELS = {"cells": (laws_cells,),
           "bicategory": (laws_cells, laws_bicategory),
           "pseudofunctor": (laws_cells, laws_bicategory,
                             laws_pseudofunctor)}


# -- commands --------------------------------------------------------------

# unreadable, undecodable, too deeply nested or malformed input
_INPUT_ERRORS = (OSError, ValueError, RecursionError, KeyError, EntwineError)


def _fail(out, kind: str, exc, code: int) -> int:
    """Print the one-line ``<kind> error: <exc>`` message; return ``code``."""
    print(f"{kind} error: {exc}", file=out or sys.stderr)
    return code


def cmd_check(path: str, selector: str = "all", out=None) -> int:
    try:
        ws = load_workspace(path)
    except _INPUT_ERRORS as exc:
        return _fail(out, "input", exc, 2)
    report = Report(out)
    try:
        run_checks(ws, selector, report)
    except EntwineError as exc:
        return _fail(out, "input", exc, 2)
    return report.exit_code


def cmd_compose(path: str, selector: str, out_path: str, out=None) -> int:
    try:
        ws = load_workspace(path)
        names = [t.strip() for t in selector.split(",")]
        if len(names) != 2:
            raise EntwineError("compose needs --selector outer,inner")
        pn, mn = names
        p, m = ws.one_cells[pn], ws.one_cells[mn]
    except _INPUT_ERRORS as exc:
        return _fail(out, "input", exc, 2)
    report = Report(out)
    try:
        comp = compose_one_cells(p, m)
    except EntwineError as exc:
        return _fail(out, "semantic", exc, 1)
    report.add("ONECELL", "composite", check_one_cell(comp))
    if not report.ok:
        return 1
    sub = Workspace(ws.field)
    dom_name = ws.refs["one_cells", mn][0]
    cod_name = ws.refs["one_cells", pn][1]
    for en in (dom_name, cod_name):
        _copy(ws, sub, "entwinings", en)
    sub.add_one_cell("composite", dom_name, cod_name, comp,
                     origin=f"compose({pn},{mn})")
    save_workspace(sub, out_path)
    return 0


def cmd_comc(path: str, selector: str, out_path: str, out=None) -> int:
    try:
        ws = load_workspace(path)
        name = selector.strip()
        section = next((s for s in _IMAGES if name in getattr(ws, s)), None)
        if section is None:
            raise EntwineError(f"no entwining entry named {name!r}")
    except _INPUT_ERRORS as exc:
        return _fail(out, "input", exc, 2)
    report = Report(out)
    sub = Workspace(ws.field)

    def emit(section, name):
        """Add an entry's image after its references; return its name.
        An entry shared by several references is emitted once."""
        image, target = _IMAGES[section]
        if f"comc_{name}" in getattr(sub, target):
            return f"comc_{name}"
        obj = image(getattr(ws, section)[name])
        # the entry's references, cut to the number of the image's
        refs = [emit(s, ref) if s in _IMAGES else _copy(ws, sub, s, ref)
                for s, ref, _ in zip(_ROWS[section][3].values(),
                                     ws.refs[section, name], _ROWS[target][3])]
        sub.add(target, f"comc_{name}", *refs, obj, origin=f"comc({name})")
        _, kind, checker, *_ = _ROWS[target]
        report.add(kind, f"comc_{name}", checker(obj))
        return f"comc_{name}"

    try:
        emit(section, name)
    except EntwineError as exc:
        return _fail(out, "semantic", exc, 1)
    if not report.ok:
        return 1
    save_workspace(sub, out_path)
    return 0


def cmd_laws(path: str, level: str = "pseudofunctor", out=None) -> int:
    if level not in _LEVELS:
        return _fail(out, "input", f"unknown level {level!r}", 2)
    try:
        ws = load_workspace(path)
    except _INPUT_ERRORS as exc:
        return _fail(out, "input", exc, 2)
    report = Report(out)
    try:
        for suite in _LEVELS[level]:
            suite(ws, report)
    except EntwineError as exc:
        return _fail(out, "semantic", exc, 1)
    return report.exit_code


def cmd_gallery(field_flag: str, out_path: str, out=None) -> int:
    try:
        field = parse_field_flag(field_flag)
    except EntwineError as exc:
        return _fail(out, "input", exc, 2)
    save_workspace(build_gallery(field), out_path)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="entwine",
        description="exact checkers for entwining structures and corings")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_check = sub.add_parser("check", help="run every applicable checker")
    p_check.add_argument("file")
    p_check.add_argument("--selector", default="all")

    p_comp = sub.add_parser("compose", help="compose two named 1-cells")
    p_comp.add_argument("file")
    p_comp.add_argument("--selector", required=True,
                        help="outer,inner 1-cell names")
    p_comp.add_argument("--out", required=True)

    p_comc = sub.add_parser("comc",
                            help="coring image of a named entry")
    p_comc.add_argument("file")
    p_comc.add_argument("--selector", required=True)
    p_comc.add_argument("--out", required=True)

    p_laws = sub.add_parser("laws", help="run the law suites")
    p_laws.add_argument("file")
    p_laws.add_argument("--level", default="pseudofunctor",
                        choices=sorted(_LEVELS))

    p_gal = sub.add_parser("gallery", help="emit the example workspace")
    p_gal.add_argument("--field", default="rational")
    p_gal.add_argument("--out", required=True)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    if args.verb == "check":
        return cmd_check(args.file, args.selector)
    if args.verb == "compose":
        return cmd_compose(args.file, args.selector, args.out)
    if args.verb == "comc":
        return cmd_comc(args.file, args.selector, args.out)
    if args.verb == "laws":
        return cmd_laws(args.file, args.level)
    return cmd_gallery(args.field, args.out)


if __name__ == "__main__":
    sys.exit(main())
