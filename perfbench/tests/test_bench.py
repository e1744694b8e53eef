"""Tests of the benchmark's own code: python3 -m pytest perfbench/tests"""

import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import twisted  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from twisted import identity, kron, matmul  # noqa: E402


def test_self_times_subtract_covered_child_time():
    # root [0, 10] has children [1, 4] (with child [2, 3]), [5, 9] and
    # [8, 12]; the last two overlap and the last runs past its parent
    starts = [0.0, 1.0, 2.0, 5.0, 8.0]
    ends = [10.0, 4.0, 3.0, 9.0, 12.0]
    parents = [-1, 0, 1, 0, 0]
    assert self_times(starts, ends, parents) == [2.0, 2.0, 1.0, 4.0, 4.0]


def _namespaces():
    """Every entwine.* namespace, down to the entries of its tables."""
    import entwine.exactlin as lin
    snap = {}
    for name, mod in sys.modules.items():
        if name == "entwine" or name.startswith("entwine."):
            for attr, value in vars(mod).items():
                inner = ()
                if isinstance(value, list):
                    inner = [id(x) for x in value]
                    inner += [id(y) for x in value if isinstance(x, tuple)
                              for y in x]
                elif isinstance(value, dict) and not attr.startswith("__"):
                    inner = [(k, id(v)) for k, v in value.items()]
                    inner += [id(y) for v in value.values()
                              if isinstance(v, tuple) for y in v]
                snap[name, attr] = (id(value), inner)
    for cls in (lin.Matrix, lin.FieldSpec):
        for attr, value in vars(cls).items():
            snap[cls.__name__, attr] = (id(value), ())
    return snap


def test_install_and_uninstall_leave_namespaces_identical():
    import entwine  # noqa: F401  (loads every entwine.* module)
    from entwine import cli, exactlin
    from entwine.algstruct import group_algebra, grouplike_coalgebra
    from entwine.entwcat import flip_entwining

    before = _namespaces()
    compose, checkers = exactlin.compose, list(cli._CHECKERS)
    tracer = Tracer()
    tracer.install()
    try:
        assert exactlin.compose is not compose
        assert cli._CHECKERS != checkers
        field = exactlin.QQ
        e = flip_entwining(group_algebra(field, 2),
                           grouplike_coalgebra(field, 2))
        report = cli.Report(io.StringIO())
        ws = cli.Workspace(field)
        ws.add_entwining("e", "A", "C", e)
        cli.run_checks(ws, "all", report)
    finally:
        tracer.uninstall()
    assert report.ok
    metrics = tracer.metrics()
    assert metrics["entwcat.check_obj.calls"] == 1
    assert metrics["exactlin.compose.calls"] > 0
    assert metrics["exactlin.field_ops"] > 0
    assert _namespaces() == before


def test_generator_is_deterministic_per_seed():
    a, b, c = (twisted.Stream(s).batch() for s in (7, 7, 8))
    assert a == b
    assert [r["text"] for r in a] != [r["text"] for r in c]
    stream = twisted.Stream(7)
    texts = [r["text"] for r in stream.batch() + stream.batch()]
    assert texts[:50] == [r["text"] for r in a]
    assert len(set(texts)) == len(texts) == 100
    assert sum(r["expect"] == "FAIL" for r in a) == sum(
        twisted.BUMPED_MIX.values())
    for name in twisted.SHAPES:
        assert sum(r["shape"] == name for r in a) == (
            twisted.PASS_MIX[name] + twisted.BUMPED_MIX[name])


def _entwining_axioms(text):
    """E1-E4 of the workspace's entwining, in plain Fractions."""
    from fractions import Fraction

    doc = json.loads(text)

    def mat(rows):
        return [[Fraction(x) for x in row] for row in rows]

    alg, coalg = doc["algebras"]["A"], doc["coalgebras"]["C"]
    mult, unit = mat(alg["mult"]), mat(alg["unit"])
    comult, counit = mat(coalg["comult"]), mat(coalg["counit"])
    psi = mat(doc["entwinings"]["e"]["psi"])
    ia, ic = identity(alg["dim"]), identity(coalg["dim"])
    return {
        "E1": matmul(psi, kron(ic, mult)) == matmul(
            kron(mult, ic), matmul(kron(ia, psi), kron(psi, ia))),
        "E2": matmul(kron(ia, comult), psi) == matmul(
            kron(psi, ic), matmul(kron(ic, psi), kron(comult, ia))),
        "E3": matmul(psi, kron(ic, unit)) == kron(unit, ic),
        "E4": matmul(kron(ia, counit), psi) == kron(counit, ia),
    }


def test_smallest_twisted_shapes_pass_independent_axioms():
    batch = twisted.Stream(3).batch()
    small = [r for r in batch if r["shape"] in ("flip_kC2_gl2", "bialg_C2")]
    for r in small:
        axioms = _entwining_axioms(r["text"])
        if r["expect"] == "PASS":
            assert all(axioms.values()), (r["shape"], axioms)
        else:
            assert not axioms["E4"]
    assert any(r["expect"] == "FAIL" for r in small)
    fractional = [x for r in small for row in json.loads(r["text"])
                  ["entwinings"]["e"]["psi"] for x in row if "/" in x]
    assert fractional


def test_base_shapes_are_valid_entwinings():
    for name, make in twisted.SHAPES.items():
        shape = make()
        s = identity(len(shape["unit"]))
        t = identity(len(shape["counit"][0]))
        text = twisted.workspace_text(twisted.twist(shape, s, s, t, t))
        assert all(_entwining_axioms(text).values()), name


def test_expected_reports_pass_everywhere():
    counts = {}
    for name in ("gallery-q", "gallery-gf5", "stretch-gf5"):
        with open(os.path.join(BENCH, "expected", f"{name}.txt")) as fh:
            lines = fh.read().splitlines()
        assert all(line.endswith(" PASS") for line in lines), name
        counts[name] = len(lines)
    assert counts == {"gallery-q": 431, "gallery-gf5": 431,
                      "stretch-gf5": 84}
