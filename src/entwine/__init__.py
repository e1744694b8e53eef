"""Exact bicategory of entwining structures and its coring image.

Everything is computed with exact scalars (rationals or a prime field)
over one ground field per session; tensor products over an algebra are
quotient presentations with deterministic sections, so every coherence
law in sight is a literal matrix equality.
"""

from .errors import (EntwineError, InputError, DimensionMismatch,
                     InvalidParameter, DoesNotFactor, NotInvertible,
                     NotComposable, NotParallel, NotABialgebra, NotAMorphism,
                     InvalidObject, InvalidTwoCell)
from .exactlin import (FieldSpec, QQ, Matrix, compose, kron, flip, rank,
                       kernel_basis, inverse)
from .algstruct import (Algebra, Coalgebra, Bimodule, CheckReport, Failure,
                        check_algebra, check_coalgebra, group_algebra,
                        grouplike_coalgebra, matrix_algebra,
                        matrix_coalgebra, bialgebra_compatibility,
                        cyclic_group_bialgebra, dualize_algebra,
                        regular_bimodule)
from .qtensor import (QuotientPresentation, tensor_over, descend,
                      unit_coherence)
from .entwcat import (EntwObj, EntwOneCell, EntwTwoCell, check_obj,
                      check_one_cell, check_two_cell, identity_one_cell,
                      identity_two_cell, compose_one_cells, vcomp, hcomp,
                      flip_entwining, bialgebra_entwining,
                      morphism_one_cell, scalar_two_cell)
from .corcat import (TensorWord, wtensor, tensor_map, word_iso,
                     left_unit_iso, right_unit_iso,
                     Coring, CorOneCell, CorTwoCell,
                     check_coring, check_cor_one_cell, check_cor_two_cell,
                     identity_cor_one_cell,
                     identity_cor_two_cell, compose_cor_one_cells, vcomp_cor,
                     hcomp_cor, cor_associator, cor_left_unitor,
                     cor_right_unitor)
from .comc import (composed_carrier, comc_obj, comc_one_cell, comc_two_cell,
                   zeta_ambient, compositor, unitor_comparison,
                   hom_dimension_report)

__version__ = "0.1.0"
