"""Exact construction and verification of free bases for the quasi-invariant
rings of dihedral mirror arrangements with class multiplicities.

All arithmetic is exact: arbitrary-precision rationals, cyclotomic field
elements, and fraction-free linear algebra.  The package builds the
generators three independent ways (linear solve, determinant expansion,
and the Calogero-Moser operator's kernel by forward substitution),
checks quasi-invariance two independent ways (per-line cyclotomic and
grouped rational), verifies annihilation by the Calogero-Moser operator,
and confirms the free module structure degree by degree against the
closed-form Poincare polynomials.
"""

from .bipoly import (BiPoly, bar_conjugate, divide_by_linear, from_text,
                     normal_derivative, partial, restrict_to_line, to_text)
from .calogero import (L1Result, apply_L1, kernel_generator, uniqueness_check,
                       verify_L1_kernel)
from .dihedral import DihedralSystem, GroupElement
from .generators import (GeneratorEntry, GeneratorSet, MatrixA,
                         build_matrix_A, full_basis,
                         generator_from_determinant, invariant_chain_gens,
                         solve_qi, valid_indices)
from .modstruct import FreenessReport, freeness_check, not_in_ideal_check
from .poincare import (SeriesPoly, degree_table, hilbert_from_poincare,
                       poincare_even, poincare_for_system, poincare_odd)
from .quasi import (CoeffVector, QuasiReport, check_per_line,
                    crosscheck_checkers, grouped_conditions, quasi_basis,
                    quasi_dimension, quasi_dimensions)
from .scalars import (CycloElem, cyclotomic_polynomial, det_fraction_free,
                      exact_rank, nullspace, root_of_unity, solve_exact)

__version__ = "0.1.0"

__all__ = [
    "BiPoly", "CoeffVector", "CycloElem", "DihedralSystem",
    "FreenessReport", "GeneratorEntry", "GeneratorSet", "GroupElement",
    "L1Result", "MatrixA", "QuasiReport", "SeriesPoly",
    "apply_L1", "bar_conjugate", "build_matrix_A", "check_per_line",
    "crosscheck_checkers", "cyclotomic_polynomial", "degree_table",
    "det_fraction_free", "divide_by_linear", "exact_rank", "freeness_check",
    "from_text", "full_basis", "generator_from_determinant",
    "grouped_conditions", "hilbert_from_poincare", "invariant_chain_gens",
    "kernel_generator", "normal_derivative",
    "not_in_ideal_check", "nullspace", "partial", "poincare_even",
    "poincare_for_system", "poincare_odd",
    "quasi_basis", "quasi_dimension", "quasi_dimensions", "restrict_to_line",
    "root_of_unity", "solve_exact", "solve_qi", "to_text", "uniqueness_check",
    "valid_indices", "verify_L1_kernel",
]
