"""Exact computer algebra for Dirac operators on reductive pairs.

The package builds Clifford algebras and spin modules over the field
Q(sqrt2, i), assembles cubic Dirac operators for nested reductive pairs,
verifies a transfer identity embedding one Dirac operator into another,
and identifies the kernels of the resulting slice operators in the
rank-one worked instance (two copies of sl2 exchanged by an involution).

Everything is exact: no floating point numbers appear anywhere.
"""

from .scalars import (ExactScalar, ExactMatrix, coerce, parse_scalar,
                      real_sqrt, ZERO, ONE, I, SQRT2, INV_SQRT2, HALF)
from .lie import (LieAlgebra, WeightModule, sl2, direct_sum, sl2_irrep,
                  lowest_weight_module, highest_weight_module, vec, vec_add,
                  vec_scale, vec_sub, vec_is_zero, unit_vector)
from .clifford import (QuadraticSpace, CliffordElement, ReductivePair,
                       clifford_commutator, inject_element, alpha_split_holds)
from .spin import (Polarization, standard_polarization, SpinModule,
                   graded_tensor_action, combine_spin_modules, mult_iso)
from .triple import (TransitiveTriple, TripleStructureError, solve_in_span,
                     build_sl2_triple, omega_value, omega_rescaling_cases,
                     dump_triple_description, parse_triple_description,
                     load_triple)
from .dirac import (FormalDiracElement, beta_action, geometric_dirac_element,
                    cubic_term, residual_term, assemble_rhs, transfer,
                    is_invariant_element, verify_embedding, algebraic_dirac)
from .spectral import (SpectralError, CharacterLabel, PeterWeylBlock,
                       make_block, block_eigenvalue, compact_generator_scalar,
                       cubic_scalar, even_weight_cancellation,
                       grading_element, hs_slot_names, ql_slot_names,
                       hs_dirac_operator, finite_dirac_kernel,
                       matched_kernel_blocks, KernelLine, single_side,
                       scan_module, truncated_dirac_kernel, scan_family,
                       scan_hits, scan_lines, kernel_table)
from .report import (CheckResult, run_suites, render_json, render_text,
                     has_failure, VERSION)

__version__ = VERSION
