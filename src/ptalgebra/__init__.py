"""Algebra of permutation operators partially transposed on the last factor.

The package builds the abstract algebra from its composition law, computes
the complete block structure and every irreducible representation in
explicit matrix form, and verifies all of it against dense tensor-space
ground truth.
"""

from .algebra import AlgebraContext, AlgebraElement, mul_generators, u_element
from .dpoly import DPoly
from .induced import (InducedRep, SpectralQ, eigenvalues_closed_form, q_matrix,
                      q_matrix_poly, q_via_induced, spectral_q, z_matrix,
                      zero_condition)
from .irreps import (AlgebraIrrep, StructureReport, algebra_dimension_formula,
                     all_irreps, irrep_M_e, irrep_M_f, irrep_S, rank_of_q,
                     structure_report, unit_of_M)
from .oracle import (TensorOp, element_operator, matrix_operators_E,
                     partial_transpose_last, perm_operator, span_dimension,
                     transposed_perm_operator)
from .partitions import Partition, add_box, partitions_of
from .permutations import Permutation, compose
from .reduction import ReducedBasis, xa_reduce
from .yor import (SymmetricGroupIrrep, character, class_sum_scalar, irrep,
                  multiplicity_in_V, transposition_character_frobenius)

__all__ = [
    "AlgebraContext", "AlgebraElement", "AlgebraIrrep", "DPoly", "InducedRep",
    "Partition", "Permutation", "ReducedBasis", "SpectralQ", "StructureReport",
    "SymmetricGroupIrrep", "TensorOp", "add_box", "algebra_dimension_formula",
    "all_irreps", "character", "class_sum_scalar", "compose",
    "eigenvalues_closed_form", "element_operator", "irrep", "irrep_M_e",
    "irrep_M_f", "irrep_S", "matrix_operators_E", "mul_generators",
    "multiplicity_in_V", "partial_transpose_last", "partitions_of",
    "perm_operator", "q_matrix", "q_matrix_poly", "q_via_induced",
    "rank_of_q", "span_dimension", "spectral_q", "structure_report",
    "transposed_perm_operator",
    "transposition_character_frobenius", "u_element", "unit_of_M", "xa_reduce",
    "z_matrix", "zero_condition",
]
