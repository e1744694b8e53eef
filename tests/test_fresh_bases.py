"""Gallery entwinings in fresh random bases over Q, against known verdicts.

The requests come from the benchmark's seeded generator
(``perfbench/twisted.py``), which imports nothing from ``entwine``: each
is a gallery entwining moved to a random basis, so its unit is dense,
and a bumped one breaks E4, the counit triangle, by construction.
"""

import importlib.util
from pathlib import Path

import pytest

from entwine import comc
from entwine.algstruct import CheckReport
from entwine.cli import deserialize
from entwine.corcat import check_cor_one_cell, check_coring
from entwine.entwcat import check_obj, identity_one_cell
from entwine.errors import InvalidObject
from entwine.exactlin import _sparse_columns, kron
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
    assert len(_sparse_columns(e.algebra.unit)[0]) > 1
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
