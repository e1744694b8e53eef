"""The session memo: each image is built once, and dies with its field."""

import gc
import io
import os
import subprocess
import sys

import pytest

import entwine
from entwine import cli, comc, corcat, entwcat
from entwine.algstruct import group_algebra, grouplike_coalgebra
from entwine.cli import (Report, build_gallery, cmd_laws, laws_bicategory,
                         laws_cells, laws_pseudofunctor, load_workspace,
                         save_workspace)
from entwine.corcat import check_coring
from entwine.entwcat import EntwObj, flip_entwining
from entwine.errors import InvalidObject, NotComposable
from entwine.exactlin import FieldSpec, Matrix


def flip_c2(field):
    return flip_entwining(group_algebra(field, 2),
                          grouplike_coalgebra(field, 2))


def test_each_gallery_coring_is_built_once(tmp_path, monkeypatch):
    path = str(tmp_path / "gallery_gf5.json")
    save_workspace(build_gallery(FieldSpec("prime", 5)), path)
    check_obj, calls = comc.check_obj, []

    def counted(e):
        calls.append(e)
        return check_obj(e)

    monkeypatch.setattr(comc, "check_obj", counted)
    assert cmd_laws(path, "pseudofunctor", io.StringIO()) == 0
    # the gallery has 7 entwinings (1,104 checks without the memo)
    assert 0 < len(calls) <= 7


def test_an_image_is_the_same_object_on_every_call():
    e = flip_c2(FieldSpec("prime", 5))
    assert comc.comc_obj(e) is comc.comc_obj(e)


def test_a_failure_is_never_memoised():
    e = flip_c2(FieldSpec("prime", 5))
    psi = Matrix.build(e.field, e.psi.rows, e.psi.cols,
                       lambda i, j: e.psi[i, j] + (i == j == 0))
    broken = EntwObj(e.algebra, e.coalgebra, psi)
    for _ in range(3):
        with pytest.raises(InvalidObject):
            comc.comc_obj(broken)


@pytest.fixture(scope="module", ids=["Q", "GF5"],
                params=[FieldSpec("rational"), FieldSpec("prime", 5)])
def gallery_file(request, tmp_path_factory):
    path = tmp_path_factory.mktemp("ws") / "gallery.json"
    save_workspace(build_gallery(request.param), str(path))
    return str(path)


def memo_entries(field, fn) -> int:
    """How many entries of ``field``'s memo the memoised ``fn`` made."""
    return sum(key[0] is fn.__wrapped__ for key in field._memo)


def test_the_law_suites_build_each_composite_once(gallery_file, monkeypatch):
    ws = load_workspace(gallery_file)
    compose_one_cells, calls = entwcat.compose_one_cells, []

    def counted(p, m):
        calls.append((p, m))
        return compose_one_cells(p, m)

    for module in (cli, comc, entwcat):
        monkeypatch.setattr(module, "compose_one_cells", counted)
    report = Report(io.StringIO())
    for suite in (laws_cells, laws_bicategory, laws_pseudofunctor):
        suite(ws, report)
    assert report.ok
    # the gallery has 16 distinct composites, and each is built once.  The
    # suites ask for them 313 times: 140 of those come through 70 calls of
    # hcomp, of which the 54 repeats are answered from hcomp's own memo
    assert len(calls) == 313 - 2 * 54 and len(set(calls)) == 16
    assert memo_entries(ws.field, compose_one_cells) == 16


def test_a_two_cell_has_its_maps_field(gallery_file):
    ws = load_workspace(gallery_file)
    for t in ws.two_cells.values():
        image = comc.comc_two_cell(t)
        assert t.field is t.theta.field is image.map.field is image.field
        assert t.field is ws.field


def test_a_failed_composition_is_never_memoised(gallery_file):
    """Of the eight cell operations the law suites repeat, only the
    compositions raise on well-formed cells: NotComposable, on cells whose
    ends do not meet."""
    ws = load_workspace(gallery_file)
    swap, aug = ws.one_cells["m_swap"], ws.one_cells["id_bialg_C2"]
    t, u = ws.two_cells["t_two_swap"], ws.two_cells["t_three_id2"]
    ct, cu = comc.comc_two_cell(t), comc.comc_two_cell(u)
    before = len(ws.field._memo)
    for fn, args in [(entwcat.compose_one_cells, (swap, aug)),
                     (entwcat.vcomp, (u, t)), (entwcat.hcomp, (u, t)),
                     (corcat.vcomp_cor, (cu, ct)),
                     (corcat.hcomp_cor, (cu, ct))]:
        for _ in range(3):
            with pytest.raises(NotComposable):
                fn(*args)
    assert len(ws.field._memo) == before


# the cell operations the law suites repeat
CELL_OPERATIONS = {entwcat.compose_one_cells, entwcat.identity_one_cell,
                   entwcat.check_one_cell, entwcat.vcomp, entwcat.hcomp,
                   corcat.vcomp_cor, corcat.hcomp_cor,
                   corcat.check_cor_two_cell}


def cell_operation_calls(ws) -> list:
    """(operation, args) of a call of each of ``CELL_OPERATIONS`` on every
    entwining, 1-cell, composite and composable pair of ``ws``, and on the
    comc images of its 2-cells."""
    ones, twos = list(ws.one_cells.values()), list(ws.two_cells.values())
    images = [comc.comc_two_cell(t) for t in twos]
    pairs = [(p, m) for p in ones for m in ones if m.cod == p.dom]
    composites = [entwcat.compose_one_cells(*pm) for pm in pairs]
    calls = [(entwcat.identity_one_cell, (e,))
             for e in ws.entwinings.values()]
    calls += [(entwcat.compose_one_cells, pm) for pm in pairs]
    calls += [(entwcat.check_one_cell, (f,)) for f in ones + composites]
    calls += [(corcat.check_cor_two_cell, (t,)) for t in images]
    for cells, vc, hc in ((twos, entwcat.vcomp, entwcat.hcomp),
                          (images, corcat.vcomp_cor, corcat.hcomp_cor)):
        calls += [(vc, (t2, t1)) for t1 in cells for t2 in cells
                  if t1.cod == t2.dom]
        calls += [(hc, (t2, t1)) for t1 in cells for t2 in cells
                  if t1.dom.cod == t2.dom.dom]
    return calls


def test_a_memoised_cell_is_the_unmemoised_one(gallery_file):
    calls = cell_operation_calls(load_workspace(gallery_file))
    assert {fn for fn, _ in calls} == CELL_OPERATIONS
    for fn, args in calls:
        first = fn(*args)
        assert first == fn.__wrapped__(*args)
        assert fn(*args) is first


def test_equal_fields_share_no_memo():
    f1, f2 = FieldSpec("prime", 5), FieldSpec("prime", 5)
    assert f1 == f2 and hash(f1) == hash(f2)
    c1, c2 = comc.comc_obj(flip_c2(f1)), comc.comc_obj(flip_c2(f2))
    assert c1 == c2 and c1 is not c2


def test_memory_is_bounded_across_sessions():
    primes = [p for p in range(3, 200)
              if all(p % d for d in range(2, p))][:30]

    def session(p):
        f = FieldSpec("prime", p)
        assert check_coring(comc.comc_obj(flip_c2(f))).passed

    for p in primes[:5]:
        session(p)
    gc.collect()
    before = sys.getallocatedblocks()
    for p in primes[5:]:
        session(p)
    gc.collect()
    assert sys.getallocatedblocks() - before < 500


# A session memo is a reference cycle (FieldSpec._memo -> key -> Matrix ->
# .field -> FieldSpec), so only the cyclic collector frees it; this shows
# that it does so on its own.  It runs in a fresh interpreter, because when
# the collector's full pass comes depends on the size of the long-lived heap.
SESSIONS = r"""
import gc, sys
from entwine import comc
from entwine.algstruct import grouplike_coalgebra, matrix_algebra
from entwine.corcat import check_coring
from entwine.entwcat import flip_entwining
from entwine.exactlin import FieldSpec

def session(p):
    f = FieldSpec("prime", p)
    e = flip_entwining(matrix_algebra(f, 2), grouplike_coalgebra(f, 2))
    assert check_coring(comc.comc_obj(e)).passed

primes = [p for p in range(3, 2000) if all(p % d for d in range(2, p))]
start = sys.getallocatedblocks()
session(primes[0])
base = sys.getallocatedblocks()
peak, full = base, gc.get_stats()[2]["collections"]
for n, p in enumerate(primes[1:200], 1):
    session(p)
    peak = max(peak, sys.getallocatedblocks())
    if gc.get_stats()[2]["collections"] > full:
        break
print(n, start, base, peak, sys.getallocatedblocks())
"""


def test_memory_is_bounded_across_sessions_without_collecting():
    src = os.path.dirname(os.path.dirname(os.path.abspath(entwine.__file__)))
    out = subprocess.run([sys.executable, "-c", SESSIONS], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    n, start, base, peak, end = map(int, out.split())
    footprint = base - start
    # the collector's own full pass came, and freed the finished memos
    assert n < 199
    assert end - base < 3 * footprint
    # until it came, finished memos held under 40 sessions' footprints:
    # 17-19 on a healthy heap, with or without a bytecode cache, and about
    # 86 when every session's field is kept alive.  A bound in units
    # of the whole heap would move with what the interpreter imports.
    assert peak - base < 40 * footprint
