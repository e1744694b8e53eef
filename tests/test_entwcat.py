"""The entwining bicategory: axiom checkers, cells, compositions."""

import pytest

from entwine.algstruct import (cyclic_group_bialgebra, group_algebra,
                               grouplike_coalgebra, matrix_algebra,
                               matrix_coalgebra)
from entwine.entwcat import (EntwObj, EntwOneCell, EntwTwoCell, associator,
                             bialgebra_entwining, check_obj, check_one_cell,
                             check_two_cell, compose_one_cells,
                             flip_entwining, hcomp, identity_one_cell,
                             identity_two_cell, morphism_one_cell,
                             scalar_two_cell, vcomp)
from entwine.errors import (NotABialgebra, NotAMorphism, NotComposable,
                            NotParallel)
from entwine.exactlin import Matrix, QQ


def gallery_objects():
    return {
        "flip_kC2_mc2": flip_entwining(group_algebra(QQ, 2),
                                       matrix_coalgebra(QQ, 2)),
        "flip_M2_gl3": flip_entwining(matrix_algebra(QQ, 2),
                                      grouplike_coalgebra(QQ, 3)),
        "bialg_C1": bialgebra_entwining(cyclic_group_bialgebra(QQ, 1)),
        "bialg_C2": bialgebra_entwining(cyclic_group_bialgebra(QQ, 2)),
        "bialg_C3": bialgebra_entwining(cyclic_group_bialgebra(QQ, 3)),
    }


def bump(m, i, j):
    """Perturb one entry by +1."""
    return Matrix.build(m.field, m.rows, m.cols,
                        lambda r, c: m[r, c] + (1 if (r, c) == (i, j) else 0))


class TestObjects:
    def test_gallery_passes(self):
        for name, e in gallery_objects().items():
            assert check_obj(e).passed, name

    def test_bialgebra_psi_values(self):
        # [PAPER] psi(c (x) a) = a_(1) (x) c.a_(2); for grouplikes
        # psi(g^j (x) g^k) = g^k (x) g^(j+k)
        e = bialgebra_entwining(cyclic_group_bialgebra(QQ, 3))
        for j in range(3):
            for k in range(3):
                col = j * 3 + k
                expect = k * 3 + (j + k) % 3
                for r in range(9):
                    assert e.psi[r, col] == (1 if r == expect else 0)

    def test_flip_is_entwining_for_any_pair(self):
        e = flip_entwining(matrix_algebra(QQ, 2), matrix_coalgebra(QQ, 2))
        assert check_obj(e).passed

    def test_bialgebra_builder_rejects_noncompatible(self):
        with pytest.raises(NotABialgebra):
            bialgebra_entwining((matrix_algebra(QQ, 2),
                                 matrix_coalgebra(QQ, 2)))

    def test_mutating_psi_fails(self):
        e = bialgebra_entwining(cyclic_group_bialgebra(QQ, 2))
        for (i, j) in [(0, 0), (1, 2), (3, 3)]:
            mutated = EntwObj(e.algebra, e.coalgebra, bump(e.psi, i, j))
            assert not check_obj(mutated).passed

    def test_report_names_axioms(self):
        rep = check_obj(gallery_objects()["bialg_C2"])
        assert set(rep.axioms) == {"E1-mult-pentagon", "E2-comult-pentagon",
                                   "E3-unit-triangle", "E4-counit-triangle"}


class TestOneCells:
    def test_identity_cells_pass(self):
        for name, e in gallery_objects().items():
            assert check_one_cell(identity_one_cell(e)).passed, name

    def test_morphism_cell_passes(self):
        a1 = group_algebra(QQ, 1)
        a2 = group_algebra(QQ, 2)
        gl2 = grouplike_coalgebra(QQ, 2)
        dom = flip_entwining(a1, gl2)
        cod = flip_entwining(a2, gl2)
        aug = Matrix(QQ, [[1, 1]])
        f = morphism_one_cell(dom, cod, aug, Matrix.identity(QQ, 2))
        assert check_one_cell(f).passed

    def test_morphism_builder_rejects_nonmorphism(self):
        a2 = group_algebra(QQ, 2)
        gl2 = grouplike_coalgebra(QQ, 2)
        e = flip_entwining(a2, gl2)
        not_algebra_map = Matrix(QQ, [[1, 2], [0, 1]])
        with pytest.raises(NotAMorphism):
            morphism_one_cell(e, e, not_algebra_map, Matrix.identity(QQ, 2))

    def test_constructor_builds_broken_cell(self):
        # the constructor checks shapes only, so a non-morphism cell is
        # built there, and check_one_cell catches it
        a2 = group_algebra(QQ, 2)
        gl2 = grouplike_coalgebra(QQ, 2)
        e = flip_entwining(a2, gl2)
        bad = EntwOneCell(e, e, 1, Matrix(QQ, [[1, 2], [0, 1]]),
                          Matrix.identity(QQ, 2))
        assert not check_one_cell(bad).passed

    def test_mutating_alpha_fails(self):
        e = bialgebra_entwining(cyclic_group_bialgebra(QQ, 2))
        f = identity_one_cell(e)
        mutated = EntwOneCell(e, e, 1, bump(f.alpha, 0, 1), f.gamma)
        assert not check_one_cell(mutated).passed

    def test_composition_closure(self):
        e = bialgebra_entwining(cyclic_group_bialgebra(QQ, 2))
        f = identity_one_cell(e)
        comp = compose_one_cells(f, f)
        assert check_one_cell(comp).passed
        assert comp.dimM == 1

    def test_composition_guard(self):
        e2 = bialgebra_entwining(cyclic_group_bialgebra(QQ, 2))
        e3 = bialgebra_entwining(cyclic_group_bialgebra(QQ, 3))
        with pytest.raises(NotComposable):
            compose_one_cells(identity_one_cell(e2), identity_one_cell(e3))

    def test_strict_unit_laws(self):
        a2 = group_algebra(QQ, 2)
        gl2 = grouplike_coalgebra(QQ, 2)
        e = flip_entwining(a2, gl2)
        swap = Matrix(QQ, [[0, 1], [1, 0]])
        f = morphism_one_cell(e, e, Matrix.identity(QQ, 2), swap)
        assert compose_one_cells(identity_one_cell(e), f) == f
        assert compose_one_cells(f, identity_one_cell(e)) == f


class TestTwoCells:
    def test_identity_and_scalar_pass(self):
        e = bialgebra_entwining(cyclic_group_bialgebra(QQ, 2))
        f = identity_one_cell(e)
        assert check_two_cell(identity_two_cell(f)).passed
        assert check_two_cell(scalar_two_cell(5, f)).passed

    def test_non_equivariant_map_rejected(self):
        # [DERIVED] a random matrix violates the alpha square
        a2 = group_algebra(QQ, 2)
        gl2 = grouplike_coalgebra(QQ, 2)
        e = flip_entwining(a2, gl2)
        swap = Matrix(QQ, [[0, 1], [1, 0]])
        f = morphism_one_cell(e, e, Matrix.identity(QQ, 2), swap)
        g = morphism_one_cell(e, e, Matrix.identity(QQ, 2),
                              Matrix.identity(QQ, 2))
        theta = Matrix(QQ, [[7]])
        rep = check_two_cell(EntwTwoCell(f, g, theta))
        assert not rep.passed

    def test_parallel_guard(self):
        e2 = bialgebra_entwining(cyclic_group_bialgebra(QQ, 2))
        e3 = bialgebra_entwining(cyclic_group_bialgebra(QQ, 3))
        with pytest.raises(NotParallel):
            EntwTwoCell(identity_one_cell(e2), identity_one_cell(e3),
                        Matrix.identity(QQ, 1))

    def test_vcomp_hcomp(self):
        e = bialgebra_entwining(cyclic_group_bialgebra(QQ, 2))
        f = identity_one_cell(e)
        s2 = scalar_two_cell(2, f)
        s3 = scalar_two_cell(3, f)
        assert vcomp(s3, s2).theta == Matrix(QQ, [[6]])
        assert hcomp(s3, s2).theta == Matrix(QQ, [[6]])

    def test_interchange(self):
        e = bialgebra_entwining(cyclic_group_bialgebra(QQ, 2))
        f = identity_one_cell(e)
        cells = [scalar_two_cell(c, f) for c in (2, 3, 5, 7)]
        t1, t2, t3, t4 = cells
        lhs = vcomp(hcomp(t4, t2), hcomp(t3, t1))
        rhs = hcomp(vcomp(t4, t3), vcomp(t2, t1))
        assert lhs.theta == rhs.theta


class TestAssociator:
    def test_strict_and_natural(self):
        a2 = group_algebra(QQ, 2)
        gl2 = grouplike_coalgebra(QQ, 2)
        e = flip_entwining(a2, gl2)
        swap = Matrix(QQ, [[0, 1], [1, 0]])
        f = morphism_one_cell(e, e, Matrix.identity(QQ, 2), swap)
        g = identity_one_cell(e)
        assoc = associator(f, g, f)
        assert assoc.theta == Matrix.identity(QQ, 1)
        assert check_two_cell(assoc).passed
        # naturality: conjugating a 2-cell cube by the (identity)
        # associator matches the rebracketed horizontal composite
        t = scalar_two_cell(2, f)
        it = identity_two_cell(g)
        lhs = hcomp(t, hcomp(it, t)).theta
        rhs = hcomp(hcomp(t, it), t).theta
        assert lhs == rhs

    def test_pentagon(self):
        e = flip_entwining(group_algebra(QQ, 2), grouplike_coalgebra(QQ, 2))
        swap = Matrix(QQ, [[0, 1], [1, 0]])
        f = morphism_one_cell(e, e, Matrix.identity(QQ, 2), swap)
        cells = [f, identity_one_cell(e), f, f]
        # all five bracketings of a 4-fold composite agree on the nose
        a, b, c, d = cells
        ways = [
            compose_one_cells(compose_one_cells(compose_one_cells(a, b),
                                                c), d),
            compose_one_cells(compose_one_cells(a, compose_one_cells(b, c)),
                              d),
            compose_one_cells(a, compose_one_cells(compose_one_cells(b, c),
                                                   d)),
            compose_one_cells(a, compose_one_cells(b,
                                                   compose_one_cells(c, d))),
            compose_one_cells(compose_one_cells(a, b),
                              compose_one_cells(c, d)),
        ]
        assert all(w == ways[0] for w in ways[1:])
