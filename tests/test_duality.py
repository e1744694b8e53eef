"""Transpose duality: an exact oracle for the entwining checkers.

A finite-dimensional entwining e = (A, C, psi) has the dual e* = (C*, A*,
psi^T): C* is the algebra (comult^T, counit^T) and A* the coalgebra
``dualize_algebra(A)``.  As kron(f, g)^T = kron(f^T, g^T) and (f g)^T =
g^T f^T, transposing E2's square on e gives E1's on e*, and E3's gives
E4's.  That holds for any psi, valid or not, as an identity of defects:
lhs - rhs of E1 on e* is the transpose of lhs - rhs of E2 on e.  So the
code of each axiom is checked against that of its partner, entry by
entry, on failing data as well as passing data.
"""

import json
import random
from fractions import Fraction
from unittest import mock

import pytest

from entwine import entwcat
from entwine.algstruct import Algebra, dualize_algebra
from entwine.cli import build_gallery, deserialize, field_to_json
from entwine.entwcat import EntwObj
from entwine.exactlin import FieldSpec, Matrix
from test_fresh_bases import twisted

PARTNER = {"E1-mult-pentagon": "E2-comult-pentagon",
           "E2-comult-pentagon": "E1-mult-pentagon",
           "E3-unit-triangle": "E4-counit-triangle",
           "E4-counit-triangle": "E3-unit-triangle"}


def dual(e: EntwObj) -> EntwObj:
    """e* = (C*, A*, psi^T)."""
    c = e.coalgebra
    return EntwObj(Algebra(c.dim, c.comult.transpose(), c.counit.transpose()),
                   dualize_algebra(e.algebra), e.psi.transpose())


def defects(e: EntwObj) -> dict:
    """axiom -> lhs - rhs of each square that ``check_obj`` evaluates on e,
    called past its memo."""
    found, evaluate = {}, entwcat._check_squares

    def recording(*squares):
        found.update((axiom, lhs - rhs) for axiom, lhs, rhs in squares)
        return evaluate(*squares)

    with mock.patch.object(entwcat, "_check_squares", recording):
        entwcat.check_obj.__wrapped__(e)
    return found


def bumped(e: EntwObj, rng: random.Random) -> EntwObj:
    """e with 1 to 3 entries of psi (fewer if psi has fewer) moved by a
    nonzero amount, nonzero mod 5 too."""
    psi, size = e.psi, e.psi.rows * e.psi.cols
    moved = {divmod(k, psi.cols): rng.choice([-2, -1, 1, 2, Fraction(1, 2)])
             for k in rng.sample(range(size), rng.randint(1, min(3, size)))}
    return EntwObj(e.algebra, e.coalgebra, Matrix.build(
        e.field, psi.rows, psi.cols,
        lambda i, j: psi[i, j] + moved.get((i, j), 0)))


def fresh_bases(field: FieldSpec) -> dict:
    """The fresh-basis requests of ``tests/test_fresh_bases.py``, read over
    ``field``: their denominators are powers of 2 and bumps up to 4."""
    stream, found = twisted.Stream(7), {}
    for name, bump in (("bialg_C2", False), ("flip_kC3_gl2", False),
                       ("flip_kC2_gl2", True)):
        doc = json.loads(stream.request(name, bump)["text"])
        doc["field"] = field_to_json(field)
        found[f"fresh {name}{' bumped' * bump}"] = deserialize(
            json.dumps(doc)).entwinings["e"]
    return found


def cases(field: FieldSpec) -> dict:
    """name -> entwining: the gallery's 7, the 3 fresh-basis requests, and
    5 seeded bumps of psi on each of those 10."""
    bases = {**build_gallery(field).entwinings, **fresh_bases(field)}
    rng = random.Random(19)
    return {**bases, **{f"{name} bump {n}": bumped(e, rng)
                        for name, e in bases.items() for n in range(5)}}


@pytest.mark.parametrize("field", [FieldSpec("rational"),
                                   FieldSpec("prime", 5)], ids=["Q", "GF5"])
def test_each_axiom_is_the_transpose_of_its_partner_on_the_dual(field):
    failing, found = 0, cases(field)
    assert len(found) == 60
    for name, e in found.items():
        d, d_star = defects(e), defects(dual(e))
        assert set(d) == set(d_star) == set(PARTNER), name
        for axiom, partner in PARTNER.items():
            assert d_star[axiom] == d[partner].transpose(), (name, axiom)
        assert dual(dual(e)) == e, name
        failing += any(any(m._c) for m in d.values())
    # every bump, and the bumped fresh basis, breaks some axiom: the
    # pairing is checked on nonzero defects, not only on zero ones
    assert failing == 51
