"""Gallery entwinings in fresh random bases over Q, against known verdicts.

The requests come from the benchmark's seeded generator
(``perfbench/twisted.py``), which imports nothing from ``entwine``: each
is a gallery entwining moved to a random basis, so its unit is dense,
and a bumped one breaks E4, the counit triangle, by construction.  Every
tensor word the coring checkers form on one of them, and on the gallery's
flip_M2_gl3, has the presentation its balancing relations give over its
full ambient, although ``tensor_over`` peels whiskered actions.
"""

import importlib.util
from pathlib import Path
from unittest import mock

import pytest

from entwine import comc, corcat, qtensor
from entwine.algstruct import CheckReport
from entwine.cli import build_gallery, deserialize
from entwine.corcat import check_cor_one_cell, check_coring
from entwine.entwcat import check_obj, identity_one_cell
from entwine.errors import InvalidObject
from entwine.exactlin import FieldSpec, kron, unkron
from test_qtensor import quotient_by

SPEC = importlib.util.spec_from_file_location(
    "twisted", Path(__file__).parents[1] / "perfbench" / "twisted.py")
twisted = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(twisted)


@pytest.fixture(scope="module")
def requests():
    stream = twisted.Stream(7)
    return {(name, bumped): stream.request(name, bumped)
            for name, bumped in (("bialg_C2", False),
                                 ("flip_kC3_gl2", False),
                                 ("flip_kC2_gl2", True))}


@pytest.mark.parametrize("name", ["bialg_C2", "flip_kC3_gl2"])
def test_a_fresh_basis_passes(requests, name):
    request = requests[name, False]
    assert request["expect"] == "PASS"
    e = deserialize(request["text"]).entwinings["e"]
    # the unit is no basis vector, so tensor_over drops a dense family
    assert len(e.algebra.unit._c[0]) > 1
    assert check_obj(e).passed
    cor = comc.comc_obj(e)
    assert check_coring(cor).passed
    assert check_cor_one_cell(comc.comc_one_cell(identity_one_cell(e))).passed
    c = cor.carrier
    assert cor.square_word().outer == quotient_by(
        kron(c.ract, c.dim) - kron(c.dim, c.lact))


def test_an_e4_bump_fails_on_both_sides(requests, monkeypatch):
    request = requests["flip_kC2_gl2", True]
    assert request["expect"] == "FAIL"
    e = deserialize(request["text"]).entwinings["e"]
    assert "E4-counit-triangle" in str(check_obj(e))
    with pytest.raises(InvalidObject):
        comc.comc_obj(e)
    # its image, built past the entwining check, is no coring either
    monkeypatch.setattr(comc, "check_obj", lambda e: CheckReport(()))
    report = check_coring(comc.comc_obj(e))
    assert not report.passed
    assert "counit right module map" in str(report)


def check_images(e):
    """Check the composed coring of e and the image of e's identity."""
    assert check_coring(comc.comc_obj(e)).passed
    assert check_cor_one_cell(comc.comc_one_cell(identity_one_cell(e))).passed


def relation_path(args):
    """tensor_over(*args) with no whisker peeled, past the memo: the
    balancing relations eliminated over the full ambient."""
    with mock.patch.object(qtensor, "unkron", lambda m, right: None):
        return qtensor.tensor_over.__wrapped__(*args)


@pytest.mark.parametrize("source", ["gallery", "fresh-basis"])
def test_every_checked_word_is_presented_as_its_relations(requests, source):
    if source == "gallery":
        e = build_gallery(FieldSpec("rational")).entwinings["flip_M2_gl3"]
    else:
        e = deserialize(
            requests["flip_kC3_gl2", False]["text"]).entwinings["e"]
    words, real = [], corcat.tensor_over

    def recording(*args):
        words.append(args)
        return real(*args)

    with mock.patch.object(corcat, "tensor_over", recording):
        check_images(e)
    peeled = [unkron(ract, True) or unkron(lact, False)
              for ract, lact, *_ in words]
    assert sum(map(bool, peeled)) > len(words) // 2
    for args in words:
        assert real(*args) == relation_path(args)


def test_flip_m2_gl3_eliminates_only_unwhiskered_words():
    # the relation path builds 4,656 vectors, on ambients up to 432
    e = build_gallery(FieldSpec("rational")).entwinings["flip_M2_gl3"]
    built, real = [], qtensor.cokernel

    def counting(relations):
        built.append((relations.cols, relations.rows))
        return real(relations)

    with mock.patch.object(qtensor, "cokernel", counting):
        check_images(e)
    assert sum(n for n, _ in built) == 48
    assert max(ncols for _, ncols in built) == 12
