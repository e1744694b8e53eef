"""Workspace files, report format, verbs and exit codes."""

import contextlib
import copy
import hashlib
import io
import json
import os
import runpy
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwine import InputError
from entwine.algstruct import CheckReport, Failure
from entwine.cli import (Report, build_gallery, cmd_check, cmd_comc,
                         cmd_compose, cmd_gallery, cmd_laws, deserialize,
                         load_workspace, main, parse_field_flag,
                         save_workspace, serialize)
from entwine.errors import EntwineError, brief
from entwine.exactlin import FieldSpec, QQ

# malformed workspaces: the gallery with doc[path] = value for each pair,
# and a fragment of the expected one-line message
MALFORMED = {
    "field-kind": ([(["field"], {"kind": "octonion"})], "octonion"),
    "field-string": ([(["field"], "rational")], "malformed field spec"),
    "field-empty": ([(["field"], {})], "malformed field spec"),
    "field-list": ([(["field"], [])], "malformed field spec"),
    "matrix-int": ([(["algebras", "kC2", "mult"], 5)], "row lists"),
    "row-int": ([(["algebras", "kC2", "mult", 0], 5)], "row lists"),
    "zero-denominator": ([(["algebras", "kC2", "mult", 0, 0], "1/0")],
                         "zero denominator"),
    "dim-string": ([(["algebras", "kC2", "dim"], "2")], "dim must be"),
    "p-string": ([(["field"], {"kind": "prime", "p": "5"})], "not a prime"),
    "rational-modulus": ([(["field"], {"kind": "rational", "p": 5})],
                         "rational field takes no modulus"),
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
    "exponent-scalar": ([(["algebras", "kC2", "mult", 0, 0], "1e99999999")],
                        "not an int or int/int"),
    "decimal-scalar": ([(["algebras", "kC2", "mult", 0, 0], "0.5")],
                       "not an int or int/int"),
    "unicode-digit": ([(["algebras", "kC2", "mult", 0, 0], "3/\u0664")],
                      "not an int or int/int"),
    "underscore-scalar": ([(["algebras", "kC2", "mult", 0, 0], "1_000")],
                          "not an int or int/int"),
    "padded-scalar": ([(["algebras", "kC2", "mult", 0, 0], " 3 ")],
                      "not an int or int/int"),
    # a key outside the schema is refused, never skipped or dropped
    "unknown-section": ([(["one_cell"], {})], "unknown key 'one_cell'"),
    "unknown-entry-key": ([(["algebras", "kC2", "mutl"], [])],
                          "algebras kC2: unknown key 'mutl'"),
    "unknown-keys": ([(["zeta"], {}), (["alpha"], {})],
                     "unknown key 'alpha'"),
    "unknown-field-key": ([(["field"], {"kind": "rational", "q": 5})],
                          "field: unknown key 'q'"),
}
# over 0-dimensional algebras every matrix is [] or rows of [], so no
# matrix attests a carrier's dimension: a 1-cell's dimM alone would set
# the width of alpha and gamma, a coring's dim that of its n^2-wide square
ZERO = [(["algebras", "z"], {"dim": 0, "mult": [], "unit": []}),
        (["coalgebras", "zc"], {"dim": 0, "comult": [], "counit": [[]]}),
        (["entwinings", "e0"],
         {"algebra": "z", "coalgebra": "zc", "psi": []})]
MALFORMED.update({
    "unattested-dimM": (ZERO + [(["one_cells", "big"], {
        "dom": "e0", "cod": "bialg_C2", "dimM": 10**9, "alpha": [],
        "gamma": []})], "dimM > 0 over a 0-dimensional"),
    "unattested-coring-dim": (ZERO[:1] + [(["corings"], {"big": {
        "base": "z", "dim": 100000, "lact": [[]] * 100000,
        "ract": [[]] * 100000, "comult": [], "counit": []}})],
        "dim > 0 over a 0-dimensional base"),
})
# input of 3,000 characters: the message quotes 40 of them, then "…"
LONG = "7" * 3000
MALFORMED.update({f"long-{case}": (edits, "…") for case, edits in {
    "field-kind": [(["field"], {"kind": LONG})],
    "modulus": [(["field"], {"kind": "prime", "p": LONG})],
    "modulus-past-bound": [(["field"], {"kind": "prime", "p": int(LONG)})],
    "reference": [(["entwinings", "bialg_C2", "algebra"], LONG)],
    "scalar": [(["algebras", "kC2", "mult", 0, 0], LONG + "/0")],
    "scalar-junk": [(["algebras", "kC2", "mult", 0, 0], LONG + "x")],
    "scalar-list": [(["algebras", "kC2", "mult", 0, 0], [LONG])],
    "scalar-mod-p": [(["field"], {"kind": "prime", "p": 7}),
                     (["algebras", "kC2", "mult", 0, 0], "1/" + LONG)],
    "entry-name": [(["algebras", LONG], {})],
    "unknown-key": [([LONG], {})],
}.items()})


def _many_denominators(n: int) -> dict:
    """A workspace of one n-dimensional algebra whose mult entries are 1/p
    for n^3 distinct primes p above 10^4: not associative."""
    primes, p = [], 10**4
    while len(primes) < n ** 3:
        p += 1
        if all(p % d for d in range(2, int(p ** 0.5) + 1)):
            primes.append(p)
    return {"field": {"kind": "rational"}, "algebras": {"big": {
        "dim": n, "unit": [["1"]] + [["0"]] * (n - 1),
        "mult": [[f"1/{primes[i * n * n + j]}" for j in range(n * n)]
                 for i in range(n)]}}}


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

    def test_zero_dimensions_over_zero_algebras_load(self):
        doc = {"field": {"kind": "rational"}, "one_cells": {"f": {
            "dom": "e0", "cod": "e0", "dimM": 0, "alpha": [], "gamma": []}},
            "corings": {"c": {"base": "z", "dim": 0, "lact": [], "ract": [],
                              "comult": [], "counit": []}}}
        for path, value in ZERO:
            doc.setdefault(path[0], {})[path[1]] = value
        ws = deserialize(json.dumps(doc))
        assert ws.one_cells["f"].alpha.shape == (0, 0)
        assert ws.corings["c"].comult.shape == (0, 0)

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

    @pytest.mark.parametrize("selector", [
        "flip_kC2_gl2,flip_kC2_gl2", "flip_kC2_gl2,ENTWINING:flip_kC2_gl2"])
    def test_repeated_selector_token_checks_its_entry_once(
            self, gallery_file, selector):
        once, twice = io.StringIO(), io.StringIO()
        assert cmd_check(gallery_file, selector="flip_kC2_gl2", out=once) == 0
        assert cmd_check(gallery_file, selector=selector, out=twice) == 0
        lines = twice.getvalue().splitlines()
        assert lines == once.getvalue().splitlines() and len(lines) == 4

    def test_unknown_selector_is_input_error(self, gallery_file):
        assert cmd_check(gallery_file, selector="nonexistent") == 2

    @pytest.mark.parametrize("selector", ["kC2,", " "])
    def test_empty_selector_token_is_named_before_any_check(
            self, gallery_file, selector):
        out = io.StringIO()
        assert cmd_check(gallery_file, selector=selector, out=out) == 2
        assert out.getvalue().splitlines() == [
            "input error: selector matched nothing: ''"]

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

    def test_non_parallel_coring_two_cell_is_input_error(
            self, gallery_file, tmp_path):
        # the image of t_two_swap, re-aimed at comc_m_aug, whose coring
        # ends differ from comc_m_swap's
        docs = {}
        for name in ("t_two_swap", "m_aug"):
            out = tmp_path / f"{name}.json"
            assert cmd_comc(gallery_file, name, str(out), io.StringIO()) == 0
            docs[name] = json.loads(out.read_text(encoding="utf-8"))
        doc = docs["t_two_swap"]
        for section in ("algebras", "corings", "cor_one_cells"):
            doc[section].update(docs["m_aug"][section])
        doc["cor_two_cells"] = {"bad": {"dom": "comc_m_swap",
                                        "cod": "comc_m_aug",
                                        "map": [["2", "0"], ["0", "2"]]}}
        bad = tmp_path / "non-parallel.json"
        bad.write_text(json.dumps(doc))
        out = io.StringIO()
        assert cmd_check(str(bad), out=out) == 2
        assert out.getvalue() == ("input error: cor_two_cells bad: 2-cell "
                                  "endpoints are not parallel\n")

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
        assert fragment in lines[0] and len(lines[0]) < 200

    @pytest.mark.parametrize("command", [
        lambda path, out: cmd_check(path, LONG, out=out),
        lambda path, out: cmd_check(path, "ENTWINING:" + LONG, out=out),
        lambda path, out: cmd_check(path, ",".join([LONG] * 9), out=out),
        lambda path, out: cmd_compose(path, LONG + ",m_aug", path, out=out),
        lambda path, out: cmd_comc(path, LONG, path, out=out),
        lambda path, out: cmd_laws(path, LONG, out=out),
        lambda path, out: cmd_check(LONG, out=out),
    ], ids=["selector", "kind-selector", "tokens", "compose", "comc", "level",
            "path"])
    def test_long_argument_is_quoted_in_a_short_line(self, gallery_file,
                                                     command):
        out = io.StringIO()
        assert command(gallery_file, out) == 2
        lines = out.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error: ")
        assert len(lines[0]) < 200 and "…" in lines[0]

    @pytest.mark.parametrize("flag", ["prime:" + LONG, LONG],
                             ids=["modulus", "junk"])
    def test_long_field_flag_is_quoted_briefly(self, flag):
        with pytest.raises(InputError) as exc:
            parse_field_flag(flag)
        assert len(str(exc.value)) < 200 and "…" in str(exc.value)

    def test_unreadable_file_is_input_error(self, tmp_path):
        assert cmd_check(str(tmp_path / "missing.json")) == 2
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json")
        assert cmd_check(str(garbled)) == 2
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        assert cmd_check(str(deep)) == 2

    def test_denominators_past_the_bound_are_input_error(self, tmp_path):
        # every numerator of a matrix carries its common den: 2,901 bits
        # at n = 6 is checked to its verdict, 6,960 at n = 8 is refused
        out, path = io.StringIO(), tmp_path / "dens.json"
        path.write_text(json.dumps(_many_denominators(6)))
        assert cmd_check(str(path), out=out) == 1
        assert "ALGEBRA big associativity FAIL" in out.getvalue()
        out = io.StringIO()
        path.write_text(json.dumps(_many_denominators(8)))
        assert cmd_check(str(path), out=out) == 2
        assert out.getvalue().splitlines() == [
            "input error: algebras big: common denominator of 6960 bits, "
            "over 4096"]


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
        assert capsys.readouterr() == ("", "semantic error: cod of inner "
                                       "cell differs from dom of outer\n")
        assert not out.exists()

    def test_missing_name_is_input_error(self, gallery_file, tmp_path,
                                         capsys):
        out = tmp_path / "c4.json"
        for selector in ("nope,id_bialg_C2", "id_bialg_C2,nope"):
            msg = io.StringIO()
            assert cmd_compose(gallery_file, selector, str(out), msg) == 2
            assert msg.getvalue() == "input error: no 1-cell named 'nope'\n"
        assert not out.exists()

    @pytest.mark.parametrize("selector", ["m_swap", "m_swap,m_swap,m_swap"])
    def test_selector_names_two_cells(self, gallery_file, tmp_path,
                                      selector):
        out, msg = tmp_path / "c5.json", io.StringIO()
        assert cmd_compose(gallery_file, selector, str(out), msg) == 2
        assert msg.getvalue() == \
            "input error: compose needs --selector outer,inner\n"
        assert not out.exists()

    def test_failing_composite_writes_no_file(self, gallery_file, tmp_path):
        doc = json.loads(Path(gallery_file).read_text(encoding="utf-8"))
        doc["one_cells"]["m_swap"]["gamma"] = [["1", "1"], ["1", "0"]]
        bad = tmp_path / "bad-gamma.json"
        bad.write_text(json.dumps(doc))
        out, msg = tmp_path / "c6.json", io.StringIO()
        assert cmd_compose(str(bad), "m_swap,id_flip_kC2_gl2", str(out),
                           msg) == 1
        assert "ONECELL composite gamma-pentagon FAIL" in msg.getvalue()
        assert not out.exists()


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

    def test_failing_image_writes_no_file(self, gallery_file, tmp_path):
        # a zero gamma fails only the counit triangle, so the image
        # factors and fails the counit compatibility
        doc = json.loads(Path(gallery_file).read_text(encoding="utf-8"))
        doc["one_cells"]["m_swap"]["gamma"] = [["0", "0"], ["0", "0"]]
        bad = tmp_path / "zero-gamma.json"
        bad.write_text(json.dumps(doc))
        out, msg = tmp_path / "img.json", io.StringIO()
        assert cmd_comc(str(bad), "m_swap", str(out), msg) == 1
        assert msg.getvalue().splitlines()[-1] == \
            "CORONECELL comc_m_swap counit compatibility FAIL (0, 1)"
        assert not out.exists()

    def test_invalid_two_cell_is_semantic_error(self, gallery_file,
                                                tmp_path):
        doc = json.loads(Path(gallery_file).read_text(encoding="utf-8"))
        doc["two_cells"]["t_bad"] = {"dom": "m_swap", "cod": "id_flip_kC2_gl2",
                                     "theta": [["1"]]}
        bad = tmp_path / "t-bad.json"
        bad.write_text(json.dumps(doc))
        out, msg = tmp_path / "img.json", io.StringIO()
        assert cmd_comc(str(bad), "t_bad", str(out), msg) == 1
        assert msg.getvalue() == "semantic error: gamma-square at (0, 0)\n"
        assert not out.exists()

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

    def test_map_that_does_not_factor_ends_the_run(self, gallery_file,
                                                   tmp_path):
        # alpha = diag(1, 2) breaks m_swap's squares: its coring image
        # does not factor, so the run stops where that image is checked
        doc = json.loads(Path(gallery_file).read_text(encoding="utf-8"))
        doc["one_cells"]["m_swap"]["alpha"] = [["1", "0"], ["0", "2"]]
        bad = tmp_path / "alpha.json"
        bad.write_text(json.dumps(doc))
        out = io.StringIO()
        assert cmd_laws(str(bad), "pseudofunctor", out) == 1
        lines = out.getvalue().splitlines()
        assert len(lines) == 187 and lines[-2:] == [
            "CORONECELL comc(m_aug) counit compatibility PASS",
            "semantic error: map does not vanish on the relation span"]

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

    def test_stretch_report_is_the_recorded_one(self, tmp_path):
        # the 4096-wide ambients of flip(M2, mc2), built by the benchmark's
        # own script and checked against its recorded report, both read only
        bench = Path(__file__).resolve().parent.parent / "perfbench"
        build_stretch = runpy.run_path(str(bench / "stretch.py"))[
            "build_stretch"]
        path = str(tmp_path / "stretch.json")
        save_workspace(build_stretch(), path)
        out = io.StringIO()
        assert cmd_laws(path, "pseudofunctor", out) == 0
        recorded = bench / "expected" / "stretch-gf5.txt"
        assert out.getvalue() == recorded.read_text(encoding="utf-8")


class TestMain:
    def test_gallery_and_check_via_argv(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert main(["gallery", "--out", str(out)]) == 0
        assert main(["check", str(out), "--selector", "kC2"]) == 0

    def test_bad_field_flag(self, tmp_path):
        assert main(["gallery", "--field", "prime:6",
                     "--out", str(tmp_path / "x.json")]) == 2

    @pytest.mark.parametrize("flag", ["prime:x", "prime:"])
    def test_malformed_field_flag_is_input_error(self, tmp_path, flag):
        out, msg = tmp_path / "g.json", io.StringIO()
        assert cmd_gallery(flag, str(out), msg) == 2
        assert msg.getvalue().startswith("input error: malformed field flag")
        assert not out.exists()

    def test_compose_via_argv(self, gallery_file, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert main(["compose", gallery_file, "--selector", "m_swap,m_aug",
                     "--out", str(out)]) == 0
        assert "ONECELL composite hexagon PASS" in capsys.readouterr().out
        assert out.exists()

    @pytest.mark.parametrize("target, reason", [
        ("missing/x.json", "No such file or directory"),
        (".", "Is a directory")], ids=["missing-directory", "directory"])
    @pytest.mark.parametrize("verb", ["gallery", "compose", "comc"])
    def test_unwritable_out_is_input_error(self, gallery_file, tmp_path,
                                           verb, target, reason):
        out = tmp_path / target
        argv = {"gallery": ["gallery"],
                "compose": ["compose", gallery_file, "--selector",
                            "m_swap,m_swap"],
                "comc": ["comc", gallery_file, "--selector", "m_swap"]}[verb]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            assert main(argv + ["--out", str(out)]) == 2
        lines = sink.getvalue().splitlines()
        assert [line for line in lines if "error" in line] == [
            f"input error: {reason}: {brief(repr(str(out)))}"]
        assert list(tmp_path.iterdir()) == []

    def test_unknown_verb(self, capsys):
        assert main(["frobnicate"]) == 2


class TestInputError:
    """Library callers get a typed error carrying the CLI's message."""

    def test_is_exported_as_an_entwine_error(self):
        assert issubclass(InputError, EntwineError)

    @pytest.mark.parametrize("case", ["missing", "garbled", "malformed"])
    def test_load_raises_it_with_the_line_tail(self, gallery_file, tmp_path,
                                               case):
        path = tmp_path / f"{case}.json"
        doc = json.loads(Path(gallery_file).read_text(encoding="utf-8"))
        doc["algebras"]["kC2"]["dim"] = "2"
        text = {"garbled": "{not json", "malformed": json.dumps(doc)}
        if case in text:
            path.write_text(text[case])
        message = {
            "missing": f"No such file or directory: {brief(repr(str(path)))}",
            "garbled": "Expecting property name enclosed in double quotes: "
                       "line 1 column 2 (char 1)",
            "malformed": "algebras kC2: dim must be a non-negative integer",
        }[case]
        with pytest.raises(InputError) as exc:
            load_workspace(str(path))
        assert str(exc.value) == message
        out = io.StringIO()
        assert cmd_check(str(path), out=out) == 2
        assert out.getvalue() == f"input error: {message}\n"

    def test_save_raises_it_for_an_unwritable_path(self, tmp_path):
        with pytest.raises(InputError) as exc:
            save_workspace(build_gallery(QQ), str(tmp_path))
        assert str(exc.value) == \
            f"Is a directory: {brief(repr(str(tmp_path)))}"
        assert list(tmp_path.iterdir()) == []


# values swapped in by the fuzz: wrong JSON types, bad scalars, edge ints
FUZZ_POOL = [None, True, 0, -1, 2, 1.5, 10**30, "", "x", "1/0", "3/5",
             "-2", "1e99999999", "0.5", [], [[]], [["1"]], {},
             {"kind": "prime", "p": 4}]


def _small_doc(field: FieldSpec) -> dict:
    """The gallery over ``field`` restricted to kC1, kC2, gl1 and gl2."""
    doc = json.loads(serialize(build_gallery(field)))
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
        self.fuzz(tmp_path_factory, data, FieldSpec("prime", 5))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_mutated_q_workspace_ends_in_an_exit_code(self, tmp_path_factory,
                                                      data):
        self.fuzz(tmp_path_factory, data, QQ)

    @staticmethod
    def fuzz(tmp_path_factory, data, field):
        doc = _small_doc(field)
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
                # a copy: a later mutation may write inside the value
                parent[path[-1]] = copy.deepcopy(
                    data.draw(st.sampled_from(FUZZ_POOL)))
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
