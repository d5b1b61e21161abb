"""Exact computer algebra for Dirac operators on reductive pairs.

The package builds Clifford algebras and spin modules over the field
Q(sqrt2, i), assembles cubic Dirac operators for nested reductive pairs,
verifies a transfer identity embedding one Dirac operator into another,
and identifies the kernels of the resulting slice operators in the
rank-one worked instance (two copies of sl2 exchanged by an involution).

Everything is exact: no floating point numbers appear anywhere.

Imports are lazy (PEP 562): ``import diracembed`` imports no submodule.
The first use of a public name imports its home module, with that
module's own imports, and keeps the name here.  A session that only builds
the worked triple thus compiles scalars, lie, clifford, spin and triple,
and no command compiles a module it does not run.  Without a bytecode
cache every import is a compile, and the spectral, report and text-format
modules take about as long to compile as the triple takes to build.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the public names it defines, in dependency order
_HOMES = {
    "scalars": "ExactScalar ExactMatrix coerce parse_scalar real_sqrt ZERO ONE "
               "I SQRT2 INV_SQRT2 HALF",
    "lie": "LieAlgebra WeightModule sl2 direct_sum sl2_irrep "
           "lowest_weight_module highest_weight_module vec vec_add vec_scale "
           "vec_sub vec_is_zero unit_vector",
    "clifford": "QuadraticSpace CliffordElement ReductivePair "
                "clifford_commutator inject_element alpha_split_holds",
    "spin": "Polarization standard_polarization SpinModule "
            "graded_tensor_action combine_spin_modules mult_iso",
    "triple": "TransitiveTriple TripleStructureError solve_in_span "
              "build_sl2_triple omega_value omega_rescaling_cases",
    "description": "dump_triple_description parse_triple_description "
                   "load_triple",
    "dirac": "FormalDiracElement beta_action geometric_dirac_element "
             "cubic_term residual_term assemble_rhs transfer "
             "invariance_defect verify_embedding algebraic_dirac",
    "spectral": "SpectralError CharacterLabel PeterWeylBlock make_block "
                "block_eigenvalue compact_generator_scalar cubic_scalar "
                "even_weight_cancellation grading_element hs_slot_names "
                "ql_slot_names hs_dirac_operator finite_dirac_kernel "
                "matched_kernel_blocks KernelLine single_side scan_module "
                "truncated_dirac_kernel scan_lines kernel_table",
    "report": "CheckResult run_suites render_json render_text has_failure",
}
_HOME_OF = {name: home for home, names in _HOMES.items()
            for name in names.split()}

__all__ = list(_HOME_OF)


def __getattr__(name):
    home = _HOME_OF.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
