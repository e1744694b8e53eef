"""Acceptance gate: ten exact, zero-tolerance criteria.

Each criterion is one test, so a verbose run prints one pass/fail line
per criterion.  Everything is checked with exact arithmetic; there are
no tolerances anywhere.
"""

import random
import time

import pytest

from entwine.algstruct import (cyclic_group_bialgebra, group_algebra,
                               grouplike_coalgebra, matrix_algebra,
                               matrix_coalgebra)
from entwine.cli import (_composable_pairs, _composable_triples,
                         build_gallery, cmd_laws, deserialize,
                         save_workspace, serialize)
from entwine.comc import (comc_obj, comc_one_cell, comc_two_cell,
                          compositor, hom_dimension_report,
                          unitor_comparison)
from entwine.corcat import (check_cor_one_cell, check_cor_two_cell,
                            check_coring, cor_associator, hcomp_cor,
                            identity_cor_two_cell, vcomp_cor)
from entwine.entwcat import (EntwObj, EntwOneCell, bialgebra_entwining,
                             check_obj, check_one_cell, compose_one_cells,
                             flip_entwining, hcomp, identity_one_cell,
                             scalar_two_cell, vcomp)
from entwine.errors import DoesNotFactor
from entwine.exactlin import Matrix, QQ, inverse
from entwine.qtensor import tensor_over

from test_qtensor import (brute_force_relation_rank, cyclic_actions,
                          random_order_matrix)


@pytest.fixture(scope="module")
def gallery():
    return build_gallery(QQ)


def bump(m, i, j):
    return Matrix.build(m.field, m.rows, m.cols,
                        lambda r, c: m[r, c] + (1 if (r, c) == (i, j) else 0))


def criterion_objects():
    return {
        "flip(kC2, mc2)": flip_entwining(group_algebra(QQ, 2),
                                         matrix_coalgebra(QQ, 2)),
        "flip(M2, gl3)": flip_entwining(matrix_algebra(QQ, 2),
                                        grouplike_coalgebra(QQ, 3)),
        "bialg(C1)": bialgebra_entwining(cyclic_group_bialgebra(QQ, 1)),
        "bialg(C2)": bialgebra_entwining(cyclic_group_bialgebra(QQ, 2)),
        "bialg(C3)": bialgebra_entwining(cyclic_group_bialgebra(QQ, 3)),
    }


def test_criterion_01_entwining_axioms():
    """Both flips and the three cyclic bialgebra entwinings pass E1-E4,
    each under one second."""
    for name, e in criterion_objects().items():
        t0 = time.perf_counter()
        rep = check_obj(e)
        dt = time.perf_counter() - t0
        assert rep.passed, f"{name}: {rep}"
        assert dt < 1.0, f"{name} took {dt:.3f}s"


def test_criterion_02_one_cell_suite(gallery):
    """Identity 1-cells on every object, morphism cells over flips, and
    all composable composites pass the five diagrams."""
    for name, e in criterion_objects().items():
        rep = check_one_cell(identity_one_cell(e))
        assert rep.passed, f"id on {name}: {rep}"
    for name in ("m_aug", "m_swap"):
        rep = check_one_cell(gallery.one_cells[name])
        assert rep.passed, f"{name}: {rep}"
    pairs = list(_composable_pairs(gallery))
    assert pairs
    for pn, p, mn, m in pairs:
        rep = check_one_cell(compose_one_cells(p, m))
        assert rep.passed, f"{pn}*{mn}: {rep}"


def test_criterion_03_associator(gallery):
    """Naturality squares in alpha and gamma and the associator pentagon
    hold on the nose for a composable gallery triple."""
    f = gallery.one_cells["m_swap"]
    g = gallery.one_cells["m_aug"]
    trip = (f, f, g)
    q, p, m = trip
    left = compose_one_cells(compose_one_cells(q, p), m)
    right = compose_one_cells(q, compose_one_cells(p, m))
    # strict associator: both bracketings produce equal alpha and gamma
    assert left.alpha == right.alpha and left.gamma == right.gamma
    # naturality: the associator square commutes for 2-cells on the triple
    tq = scalar_two_cell(2, q)
    tp = scalar_two_cell(3, p)
    tm = scalar_two_cell(5, m)
    assert hcomp(tq, hcomp(tp, tm)).theta == \
        hcomp(hcomp(tq, tp), tm).theta
    # pentagon on the quadruple (q, p, m', m)
    quad = [f, f, f, g]
    a, b, c, d = quad
    ways = {
        compose_one_cells(compose_one_cells(compose_one_cells(a, b), c), d),
        compose_one_cells(a, compose_one_cells(b, compose_one_cells(c, d))),
        compose_one_cells(compose_one_cells(a, b), compose_one_cells(c, d)),
    }
    assert len(ways) == 1


def test_criterion_04_composed_coring():
    """comc of the C2 bialgebra entwining: a dim-4 coring over k[C2],
    exactly coassociative and counital, in under a second."""
    e = bialgebra_entwining(cyclic_group_bialgebra(QQ, 2))
    t0 = time.perf_counter()
    cor = comc_obj(e)
    rep = check_coring(cor)
    dt = time.perf_counter() - t0
    assert cor.base.dim == 2 and cor.carrier.dim == 4
    assert rep.passed, str(rep)
    assert dt < 1.0, f"took {dt:.3f}s"


def test_criterion_05_proposition(gallery):
    """comc of every gallery 1-cell satisfies the Street pentagon and
    counit compatibility; the factorization never balks on valid cells
    and hexagon mutations are always caught."""
    for name, f in gallery.one_cells.items():
        cell = comc_one_cell(f)  # DoesNotFactor here would fail the test
        rep = check_cor_one_cell(cell)
        assert rep.passed, f"comc({name}): {rep}"
    f = gallery.one_cells["m_swap"]
    caught = 0
    for (i, j) in [(0, 0), (0, 1), (1, 0)]:
        broken = EntwOneCell(f.dom, f.cod, 1, f.alpha, bump(f.gamma, i, j))
        assert not check_one_cell(broken).passed
        try:
            cell = comc_one_cell(broken)
            assert not check_cor_one_cell(cell).passed
        except DoesNotFactor:
            pass
        caught += 1
    assert caught == 3


def test_criterion_06_pseudofunctoriality(gallery):
    """Compositors exist, invert exactly, are valid coring 2-cells and
    satisfy triple coherence; unitor comparisons invert exactly."""
    images = {n: comc_one_cell(f) for n, f in gallery.one_cells.items()}
    for pn, p, mn, m in _composable_pairs(gallery):
        c2 = compositor(p, m)
        assert inverse(c2.map) is not None, f"({pn},{mn})"
        rep = check_cor_two_cell(c2)
        assert rep.passed, f"({pn},{mn}): {rep}"
    for qn, q, pn, p, mn, m in _composable_triples(gallery):
        cq, cp, cm = images[qn], images[pn], images[mn]
        lhs = vcomp_cor(hcomp_cor(compositor(q, p),
                                  identity_cor_two_cell(cm)),
                        compositor(compose_one_cells(q, p), m))
        rhs = vcomp_cor(cor_associator(cq, cp, cm),
                        vcomp_cor(hcomp_cor(identity_cor_two_cell(cq),
                                            compositor(p, m)),
                                  compositor(q, compose_one_cells(p, m))))
        assert lhs.map == rhs.map, f"({qn},{pn},{mn})"
    for name, e in gallery.entwinings.items():
        u = unitor_comparison(e)
        assert inverse(u.map) is not None, name
        assert check_cor_two_cell(u).passed, name


def test_criterion_07_two_cell_functor(gallery):
    """comc on 2-cells preserves both compositions and is injective on
    every gallery hom-space."""
    f = gallery.one_cells["m_swap"]
    t2, t3 = scalar_two_cell(2, f), scalar_two_cell(3, f)
    assert comc_two_cell(vcomp(t3, t2)).map == \
        vcomp_cor(comc_two_cell(t3), comc_two_cell(t2)).map
    ch = comc_two_cell(hcomp(t3, t2))
    assert vcomp_cor(compositor(f, f), ch).map == \
        vcomp_cor(hcomp_cor(comc_two_cell(t3), comc_two_cell(t2)),
                  compositor(f, f)).map
    seen = set()
    found_nonsurjective = False
    for n1, f1 in gallery.one_cells.items():
        for n2, f2 in gallery.one_cells.items():
            if (f1.dom, f1.cod) != (f2.dom, f2.cod):
                continue
            key = tuple(sorted((n1, n2)))
            if key in seen:
                continue
            seen.add(key)
            de, dc, inj, surj = hom_dimension_report(f1, f2)
            assert inj, f"({n1},{n2})"
            found_nonsurjective = found_nonsurjective or not surj
    assert found_nonsurjective  # injective, but not surjective


def test_criterion_08_quotient_oracle():
    """tensor_over's quotient dimension agrees with a brute-force
    relation-rank computation on 20 randomized small modules."""
    rng = random.Random(714025)
    for trial in range(20):
        n = rng.choice([2, 3])
        dm = rng.randint(1, 3)
        dn = rng.randint(1, 3)
        ract, _ = cyclic_actions(QQ, n, random_order_matrix(rng, n, dm))
        _, lact = cyclic_actions(QQ, n, random_order_matrix(rng, n, dn))
        q = tensor_over(ract, lact, dm, n, dn)
        oracle = dm * dn - brute_force_relation_rank(ract, lact, dm, n, dn)
        assert q.quotient_dim == oracle, f"trial {trial}"


def test_criterion_09_mutation_robustness(gallery):
    """A +1 perturbation of any single structure map of a passing
    object or 1-cell trips at least one checker."""
    for name, e in gallery.entwinings.items():
        mutated = EntwObj(e.algebra, e.coalgebra, bump(e.psi, 0, 0))
        assert not check_obj(mutated).passed, name
    for name, f in gallery.one_cells.items():
        for which in ("alpha", "gamma"):
            m = getattr(f, which)
            cells = {
                "alpha": EntwOneCell(f.dom, f.cod, f.dimM,
                                     bump(f.alpha, 0, 0), f.gamma),
                "gamma": EntwOneCell(f.dom, f.cod, f.dimM, f.alpha,
                                     bump(f.gamma, 0, 0)),
            }
            assert not check_one_cell(cells[which]).passed, \
                f"{name}.{which}"


def test_criterion_10_end_to_end(tmp_path, capsys):
    """The emitted gallery round-trips byte for byte and the full
    pseudofunctor law suite exits 0 in under 60 seconds."""
    path = tmp_path / "gallery.json"
    save_workspace(build_gallery(QQ), str(path))
    text = path.read_text(encoding="utf-8")
    assert serialize(deserialize(text)) == text
    t0 = time.perf_counter()
    rc = cmd_laws(str(path), "pseudofunctor")
    dt = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert rc == 0, out[-2000:]
    assert " FAIL" not in out
    assert dt < 60.0, f"took {dt:.1f}s"
