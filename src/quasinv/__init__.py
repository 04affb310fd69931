"""Exact construction and verification of free bases for the quasi-invariant
rings of dihedral mirror arrangements with class multiplicities.

All arithmetic is exact: arbitrary-precision rationals, cyclotomic field
elements, and fraction-free linear algebra.  The package builds the
generators three independent ways (linear solve, determinant expansion,
and the Calogero-Moser operator's kernel by forward substitution),
checks quasi-invariance of rational polynomials two independent ways (per
line, with residues reduced modulo the cyclotomic polynomial, and grouped
by residue classes), verifies annihilation by the Calogero-Moser operator,
and confirms the free module structure degree by degree against the
closed-form Poincare polynomials.  The package root exports what the
``quasinv`` command, the benchmark scripts and the README example use, and
the records they return; every other name is imported from its module.
"""

from .bipoly import BiPoly, from_text, to_text
from .calogero import L1Result, apply_L1, uniqueness_check, verify_L1_kernel
from .dihedral import DihedralSystem
from .generators import (GeneratorEntry, GeneratorSet, full_basis,
                         generator_from_determinant, solve_qi, valid_indices)
from .modstruct import FreenessReport, freeness_check, not_in_ideal_check
from .poincare import (SeriesPoly, degree_table, hilbert_from_poincare,
                       poincare_for_system)
from .quasi import (CoeffVector, QuasiReport, check_per_line,
                    crosscheck_checkers, grouped_conditions, quasi_basis,
                    quasi_dimension, quasi_dimensions)

__version__ = "0.1.0"

__all__ = [
    "BiPoly", "CoeffVector", "DihedralSystem", "FreenessReport",
    "GeneratorEntry", "GeneratorSet", "L1Result", "QuasiReport",
    "SeriesPoly",
    "apply_L1", "check_per_line", "crosscheck_checkers", "degree_table",
    "freeness_check", "from_text", "full_basis",
    "generator_from_determinant", "grouped_conditions",
    "hilbert_from_poincare", "not_in_ideal_check", "poincare_for_system",
    "quasi_basis", "quasi_dimension", "quasi_dimensions", "solve_qi",
    "to_text", "uniqueness_check", "valid_indices", "verify_L1_kernel",
]
