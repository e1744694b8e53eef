"""The session memo: each image is built once, and dies with its field."""

import gc
import io
import os
import subprocess
import sys

import pytest

import entwine
from entwine import comc
from entwine.algstruct import group_algebra, grouplike_coalgebra
from entwine.cli import build_gallery, cmd_laws, save_workspace
from entwine.corcat import check_coring
from entwine.entwcat import EntwObj, flip_entwining
from entwine.errors import InvalidObject
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
