"""Workspace files, report format, verbs and exit codes."""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwine.algstruct import CheckReport, Failure
from entwine.cli import (Report, build_gallery, cmd_check, cmd_comc,
                         cmd_compose, cmd_laws, deserialize, load_workspace,
                         main, parse_field_flag, save_workspace, serialize)
from entwine.exactlin import FieldSpec, QQ

# malformed workspaces: the gallery with doc[path] = value for each pair,
# and a fragment of the expected one-line message
MALFORMED = {
    "field-kind": ([(["field"], {"kind": "octonion"})], "octonion"),
    "matrix-int": ([(["algebras", "kC2", "mult"], 5)], "row lists"),
    "row-int": ([(["algebras", "kC2", "mult", 0], 5)], "row lists"),
    "zero-denominator": ([(["algebras", "kC2", "mult", 0, 0], "1/0")],
                         "zero denominator"),
    "dim-string": ([(["algebras", "kC2", "dim"], "2")], "dim must be"),
    "p-string": ([(["field"], {"kind": "prime", "p": "5"})], "not a prime"),
    "p-past-bound": ([(["field"], {"kind": "prime", "p": 10**25 + 13})],
                     "bound"),
    "section-list": ([(["algebras"], ["kC2"])], "algebras must be"),
    "reference-list": ([(["entwinings", "bialg_C2", "algebra"], ["kC2"])],
                       "names no entry"),
    "missing-reference": ([(["entwinings", "bialg_C2", "algebra"], "nope")],
                          "names no entry"),
    "provenance-list": ([(["provenance"], ["x"])], "provenance must be"),
    "entry-list": ([(["algebras", "kC2"], [1, 2])], "entry must be"),
    "no-value-mod-p": ([(["field"], {"kind": "prime", "p": 5}),
                        (["algebras", "kC2", "mult", 0, 0], "1/5")],
                       "no value in GF(5)"),
    "bool-scalar": ([(["algebras", "kC1", "mult"], [[True]]),
                     (["algebras", "kC1", "unit"], [[True]])],
                    "cannot coerce True"),
}


@pytest.fixture(scope="module")
def gallery_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("ws") / "gallery.json"
    save_workspace(build_gallery(QQ), str(path))
    return str(path)


@pytest.fixture(scope="module")
def gf5_gallery_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("ws") / "gallery-gf5.json"
    save_workspace(build_gallery(FieldSpec("prime", 5)), str(path))
    return str(path)


class TestSerialization:
    def test_round_trip_byte_identical(self, gallery_file):
        text = Path(gallery_file).read_text(encoding="utf-8")
        assert serialize(deserialize(text)) == text

    def test_scalars_are_strings_in_lowest_terms(self, gallery_file):
        doc = json.loads(Path(gallery_file).read_text(encoding="utf-8"))
        mult = doc["algebras"]["kC2"]["mult"]
        assert all(isinstance(x, str) for row in mult for x in row)
        assert doc["field"] == {"kind": "rational"}

    def test_prime_field_round_trip(self, tmp_path):
        ws = build_gallery(FieldSpec("prime", 5))
        path = tmp_path / "g5.json"
        save_workspace(ws, str(path))
        text = path.read_text(encoding="utf-8")
        assert serialize(deserialize(text)) == text
        assert json.loads(text)["field"] == {"kind": "prime", "p": 5}

    def test_zero_row_matrices_keep_their_width(self):
        # a dim-0 algebra: its unit is the 0 x 1 matrix, written as []
        text = json.dumps({"field": {"kind": "rational"}, "algebras": {
            "zero": {"dim": 0, "mult": [], "unit": []}}},
            sort_keys=True, indent=2) + "\n"
        ws = deserialize(text)
        assert ws.algebras["zero"].unit.shape == (0, 1)
        assert serialize(ws) == text

    def test_parse_field_flag(self):
        assert parse_field_flag("rational") == QQ
        assert parse_field_flag("prime:7") == FieldSpec("prime", 7)


class TestCheck:
    def test_gallery_all_pass(self, gallery_file, capsys):
        assert cmd_check(gallery_file) == 0
        out = capsys.readouterr().out
        assert " PASS" in out and " FAIL" not in out
        # line-oriented "KIND name axiom PASS"
        first = out.splitlines()[0].split()
        assert first[0] == "ALGEBRA" and first[-1] == "PASS"

    def test_deterministic_output(self, gallery_file, capsys):
        cmd_check(gallery_file)
        first = capsys.readouterr().out
        cmd_check(gallery_file)
        assert capsys.readouterr().out == first

    def test_selector(self, gallery_file, capsys):
        assert cmd_check(gallery_file, selector="bialg_C2") == 0
        out = capsys.readouterr().out
        assert all(" bialg_C2 " in line for line in out.splitlines())

    def test_unknown_selector_is_input_error(self, gallery_file):
        assert cmd_check(gallery_file, selector="nonexistent") == 2

    def test_mutated_psi_fails_with_named_axiom(self, gallery_file,
                                                tmp_path, capsys):
        doc = json.loads(Path(gallery_file).read_text(encoding="utf-8"))
        # corrupt psi on a unit column: breaks E3 among others
        doc["entwinings"]["bialg_C2"]["psi"][0][0] = "5"
        bad = tmp_path / "mutated.json"
        bad.write_text(json.dumps(doc))
        assert cmd_check(str(bad)) == 1
        out = capsys.readouterr().out
        assert "ENTWINING bialg_C2 E3-unit-triangle FAIL" in out

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_workspace_is_input_error(self, gallery_file,
                                                tmp_path, case):
        edits, fragment = MALFORMED[case]
        doc = json.loads(Path(gallery_file).read_text(encoding="utf-8"))
        for path, value in edits:
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        bad = tmp_path / f"{case}.json"
        bad.write_text(json.dumps(doc))
        out = io.StringIO()
        assert cmd_check(str(bad), out=out) == 2
        lines = out.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error: ")
        assert fragment in lines[0]

    def test_unreadable_file_is_input_error(self, tmp_path):
        assert cmd_check(str(tmp_path / "missing.json")) == 2
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json")
        assert cmd_check(str(garbled)) == 2
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        assert cmd_check(str(deep)) == 2


class TestReport:
    def test_axiom_text_is_kept_whole(self):
        out = io.StringIO()
        report = Report(out)
        report.add("CORING", "c", CheckReport(
            (Failure("left at right", coord=(1, 2)),),
            ("left at right", "other")))
        assert out.getvalue().splitlines() == [
            "CORING c left at right FAIL (1, 2)", "CORING c other PASS"]
        assert report.exit_code == 1


class TestCompose:
    def test_identity_squared_is_identity_file(self, gallery_file,
                                               tmp_path, capsys):
        out1 = tmp_path / "c1.json"
        rc = cmd_compose(gallery_file, "id_bialg_C2,id_bialg_C2", str(out1))
        assert rc == 0
        # the composite of identities is the identity cell, byte for byte
        ws = load_workspace(gallery_file)
        from entwine.cli import Workspace
        expected = Workspace(ws.field)
        expected.add_algebra("kC2", ws.algebras["kC2"])
        expected.add_coalgebra("gl2", ws.coalgebras["gl2"])
        expected.add_entwining("bialg_C2", "kC2", "gl2",
                               ws.entwinings["bialg_C2"])
        expected.add_one_cell("composite", "bialg_C2", "bialg_C2",
                              ws.one_cells["id_bialg_C2"])
        expected.provenance["composite"] = \
            "compose(id_bialg_C2,id_bialg_C2)"
        assert out1.read_text(encoding="utf-8") == serialize(expected)

    def test_composite_passes_check(self, gallery_file, tmp_path, capsys):
        out = tmp_path / "c2.json"
        assert cmd_compose(gallery_file, "m_swap,m_aug", str(out)) == 0
        capsys.readouterr()
        assert cmd_check(str(out)) == 0

    def test_noncomposable_is_semantic_error(self, gallery_file, tmp_path,
                                             capsys):
        out = tmp_path / "c3.json"
        assert cmd_compose(gallery_file, "m_swap,id_bialg_C2",
                           str(out)) == 1

    def test_missing_name_is_input_error(self, gallery_file, tmp_path,
                                         capsys):
        out = tmp_path / "c4.json"
        assert cmd_compose(gallery_file, "nope,id_bialg_C2", str(out)) == 2


# the report of a coring and of a coring 1-cell, law by law
CORING_LAWS = ("comult left module map", "comult right module map",
               "counit left module map", "counit right module map",
               "coassociativity", "left counit law", "right counit law")
CORONECELL_LAWS = ("zeta left module map", "zeta right module map",
                   "street pentagon", "counit compatibility")


def _gallery_cells() -> list:
    """The names of every entwining, 1-cell and 2-cell of the gallery."""
    ws = build_gallery(QQ)
    return sorted([*ws.entwinings, *ws.one_cells, *ws.two_cells])


class TestComc:
    def test_coring_output_passes_check(self, gallery_file, tmp_path,
                                        capsys):
        out = tmp_path / "cor.json"
        assert cmd_comc(gallery_file, "bialg_C2", str(out)) == 0
        capsys.readouterr()
        assert cmd_check(str(out)) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["corings"]["comc_bialg_C2"]["dim"] == 4
        assert doc["provenance"]["comc_bialg_C2"] == "comc(bialg_C2)"

    def test_one_cell_output_passes_check(self, gallery_file, tmp_path,
                                          capsys):
        out = tmp_path / "corcell.json"
        assert cmd_comc(gallery_file, "m_swap", str(out)) == 0
        capsys.readouterr()
        assert cmd_check(str(out)) == 0
        text = out.read_text(encoding="utf-8")
        assert serialize(load_workspace(str(out))) == text

    def test_two_cell_output_passes_check(self, gallery_file, tmp_path,
                                          capsys):
        out = tmp_path / "cor2.json"
        assert cmd_comc(gallery_file, "t_two_swap", str(out)) == 0
        capsys.readouterr()
        assert cmd_check(str(out)) == 0
        text = out.read_text(encoding="utf-8")
        assert serialize(load_workspace(str(out))) == text

    def test_unknown_name_is_input_error(self, gallery_file, tmp_path):
        assert cmd_comc(gallery_file, "nope", str(tmp_path / "x.json")) == 2

    def test_shared_entries_are_reported_once(self, gf5_gallery_file,
                                              tmp_path):
        # t_two_aug's dom and cod are both m_aug: 7 laws for each of its
        # two corings, 4 for m_aug and 3 for the 2-cell, none repeated
        out = tmp_path / "t2.json"
        sink = io.StringIO()
        assert cmd_comc(gf5_gallery_file, "t_two_aug", str(out), sink) == 0
        lines = sink.getvalue().splitlines()
        assert len(lines) == 21 and len(set(lines)) == len(lines)
        # the file written is the one written before repeats were dropped
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == ("55fd928d0f6e366deda8d8da8031f024"
                          "94423e29a0e371a88756a5b414b59d81")

    @pytest.mark.parametrize("name, corings, one_cells, digest", [
        ("flip_kC2_gl2", ["flip_kC2_gl2"], [],
         "efa60bc509a453fa2aebf6d5ff3c32d098043a329591b2912e9dbfc9b139c779"),
        ("m_aug", ["flip_kC1_gl2", "flip_kC2_gl2"], ["m_aug"],
         "70790bf5f0b4a4874eb8d619bc1dce4969c3d78861fc7df2efddbfd8ddd8fb54"),
    ])
    def test_file_and_report_are_the_recorded_ones(
            self, gf5_gallery_file, tmp_path, name, corings, one_cells,
            digest):
        # every coring comes with its base algebra; m_aug's dom and cod
        # differ, so it brings two of each
        out = tmp_path / f"{name}.json"
        sink = io.StringIO()
        assert cmd_comc(gf5_gallery_file, name, str(out), sink) == 0
        assert sink.getvalue().splitlines() == [
            f"CORING comc_{e} {law} PASS"
            for e in corings for law in CORING_LAWS] + [
            f"CORONECELL comc_{f} {law} PASS"
            for f in one_cells for law in CORONECELL_LAWS]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        doc = json.loads(out.read_text(encoding="utf-8"))
        bases = {doc["corings"][f"comc_{e}"]["base"] for e in corings}
        assert sorted(doc["algebras"]) == sorted(bases)

    @pytest.mark.parametrize("name", _gallery_cells())
    def test_every_image_passes_check(self, gallery_file, tmp_path, name):
        out = tmp_path / f"{name}.json"
        assert cmd_comc(gallery_file, name, str(out), io.StringIO()) == 0
        assert cmd_check(str(out), "all", io.StringIO()) == 0

    def test_guard_failure_is_one_line(self, gf5_gallery_file, tmp_path):
        # a bumped comult leaves no coassociativity map to compare: the
        # guard reports why in place of a coordinate
        out = tmp_path / "c2.json"
        assert cmd_comc(gf5_gallery_file, "bialg_C2", str(out),
                        io.StringIO()) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        doc["corings"]["comc_bialg_C2"]["comult"][0][0] = "1"
        out.write_text(json.dumps(doc), encoding="utf-8")
        sink = io.StringIO()
        assert cmd_check(str(out), "all", sink) == 1
        assert sink.getvalue() == (
            "ALGEBRA kC2 associativity PASS\n"
            "ALGEBRA kC2 left unit PASS\n"
            "ALGEBRA kC2 right unit PASS\n"
            "CORING comc_bialg_C2 comult left module map FAIL (0, 6)\n"
            "CORING comc_bialg_C2 comult right module map FAIL (0, 7)\n"
            "CORING comc_bialg_C2 counit left module map PASS\n"
            "CORING comc_bialg_C2 counit right module map PASS\n"
            "CORING comc_bialg_C2 coassociativity (map does not vanish on "
            "the relation span) FAIL\n"
            "CORING comc_bialg_C2 left counit law FAIL (2, 0)\n"
            "CORING comc_bialg_C2 right counit law FAIL (2, 0)\n")


class TestLaws:
    def test_cells_level(self, gallery_file, capsys):
        assert cmd_laws(gallery_file, "cells") == 0
        out = capsys.readouterr().out
        assert "CORONECELL comc(m_swap) street pentagon PASS" in out

    def test_bicategory_level(self, gallery_file, capsys):
        assert cmd_laws(gallery_file, "bicategory") == 0
        out = capsys.readouterr().out
        assert "LAW - " in out and "interchange" in out

    def test_unknown_level(self, gallery_file):
        assert cmd_laws(gallery_file, "monoidal") == 2

    @pytest.mark.parametrize("name", ["q", "gf5"])
    def test_gallery_report_is_the_recorded_one(self, tmp_path, name):
        # the benchmark's recorded report, read only: any change in a
        # kernel, a presentation or a checker must leave it byte for byte
        field = {"q": QQ, "gf5": FieldSpec("prime", 5)}[name]
        recorded = os.path.join(os.path.dirname(__file__), os.pardir,
                                "perfbench", "expected", f"gallery-{name}.txt")
        path = str(tmp_path / f"{name}.json")
        save_workspace(build_gallery(field), path)
        out = io.StringIO()
        assert cmd_laws(path, "pseudofunctor", out) == 0
        with open(recorded, encoding="utf-8") as fh:
            assert out.getvalue() == fh.read()


class TestMain:
    def test_gallery_and_check_via_argv(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert main(["gallery", "--out", str(out)]) == 0
        assert main(["check", str(out), "--selector", "kC2"]) == 0

    def test_bad_field_flag(self, tmp_path):
        assert main(["gallery", "--field", "prime:6",
                     "--out", str(tmp_path / "x.json")]) == 2

    def test_unknown_verb(self, capsys):
        assert main(["frobnicate"]) == 2


# values swapped in by the fuzz: wrong JSON types, bad scalars, edge ints
FUZZ_POOL = [None, True, 0, -1, 2, 1.5, 10**30, "", "x", "1/0", "3/5",
             "-2", [], [[]], [["1"]], {}, {"kind": "prime", "p": 4}]


def _small_gf5_doc() -> dict:
    """The GF(5) gallery restricted to kC1, kC2, gl1 and gl2."""
    doc = json.loads(serialize(build_gallery(FieldSpec("prime", 5))))
    names = {"kC1", "kC2", "gl1", "gl2"}
    for section in ("algebras", "coalgebras"):
        doc[section] = {n: e for n, e in doc[section].items() if n in names}
    for section, refs in (("entwinings", ("algebra", "coalgebra")),
                          ("one_cells", ("dom", "cod")),
                          ("two_cells", ("dom", "cod"))):
        doc[section] = {n: e for n, e in doc[section].items()
                        if all(e[r] in names for r in refs)}
        names |= doc[section].keys()
    return doc


def _paths(node, prefix=()):
    """Every key path inside a JSON document, the root excluded."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


class TestFuzz:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_mutated_workspace_ends_in_an_exit_code(self, tmp_path_factory,
                                                    data):
        doc = _small_gf5_doc()
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            path = data.draw(st.sampled_from(list(_paths(doc))), label="at")
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            old = parent[path[-1]]
            action = data.draw(st.sampled_from(["swap", "delete", "bump"]))
            if action == "delete":
                del parent[path[-1]]
            elif action == "bump" and isinstance(old, str) and \
                    old.lstrip("-").isdigit():
                parent[path[-1]] = str(int(old) + 1)
            elif action == "bump" and type(old) is int:
                parent[path[-1]] = old + 1
            else:
                parent[path[-1]] = data.draw(st.sampled_from(FUZZ_POOL))
        work = tmp_path_factory.mktemp("fuzz")
        ws = work / "ws.json"
        ws.write_text(json.dumps(doc), encoding="utf-8")
        for argv in (["check", str(ws)], ["laws", str(ws)],
                     ["comc", str(ws), "--selector", "t_two_swap",
                      "--out", str(work / "out.json")]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(out):
                code = main(argv)
            assert code in (0, 1, 2), argv
            errors = [line for line in out.getvalue().splitlines()
                      if line.startswith("input error:")]
            if code == 2:
                assert len(errors) == 1, (argv, out.getvalue())
