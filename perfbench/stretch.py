"""Write the stretch-gf5 workspace: flip(M2, mc2) and bialg(C4) over GF(5).

Each entwining comes with its identity 1-cell.  flip(M2, mc2) has a
16-dimensional composed coring, so its triple tensor ambient is 4096
wide, far past anything in the gallery.  Usage::

    PYTHONPATH=src python3 perfbench/stretch.py OUT.json
"""

import sys

from entwine.algstruct import (cyclic_group_bialgebra, matrix_algebra,
                               matrix_coalgebra)
from entwine.cli import Workspace, save_workspace
from entwine.entwcat import (bialgebra_entwining, flip_entwining,
                             identity_one_cell)
from entwine.exactlin import FieldSpec


def build_stretch() -> Workspace:
    field = FieldSpec("prime", 5)
    ws = Workspace(field)
    m2, mc2 = matrix_algebra(field, 2), matrix_coalgebra(field, 2)
    kc4, gl4 = cyclic_group_bialgebra(field, 4)
    ws.add_algebra("M2", m2)
    ws.add_coalgebra("mc2", mc2)
    ws.add_algebra("kC4", kc4)
    ws.add_coalgebra("gl4", gl4)
    ws.add_entwining("flip_M2_mc2", "M2", "mc2", flip_entwining(m2, mc2))
    ws.add_entwining("bialg_C4", "kC4", "gl4",
                     bialgebra_entwining((kc4, gl4)))
    for name, e in list(ws.entwinings.items()):
        ws.add_one_cell(f"id_{name}", name, name, identity_one_cell(e))
    return ws


if __name__ == "__main__":
    save_workspace(build_stretch(), sys.argv[1])
