"""Character blocks, exact cancellation, kernel scans, and the dual table."""

import itertools
from datetime import timedelta
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracembed import cli, dirac, spectral
from diracembed import (CharacterLabel, ExactMatrix, ExactScalar,
                        FormalDiracElement, I,
                        INV_SQRT2, KernelLine, LieAlgebra, ONE, SQRT2,
                        SpectralError,
                        SpinModule, TransitiveTriple, ZERO, algebraic_dirac, beta_action, block_eigenvalue, build_sl2_triple, coerce,
                        compact_generator_scalar, cubic_scalar,
                        even_weight_cancellation, finite_dirac_kernel,
                        grading_element, highest_weight_module,
                        hs_dirac_operator, kernel_table,
                        lowest_weight_module, make_block,
                        matched_kernel_blocks, ql_slot_names,
                        residual_term, scan_lines,
                        scan_module, single_side,
                        sl2_irrep, truncated_dirac_kernel, unit_vector,
                        vec_add, vec_is_zero, vec_scale, vec_sub)


@pytest.fixture(scope="module")
def triple():
    return build_sl2_triple()


# -- character blocks -----------------------------------------------------------

def test_character_scalars():
    lab = CharacterLabel(3, 1)
    assert lab.z_scalar == I
    assert CharacterLabel(0, 0).z_scalar == ZERO


def test_make_block_forces_the_twist_weight():
    blk = make_block(1, 1)
    assert blk.e_weight == -2
    assert blk.left == CharacterLabel(-1, -1)
    with pytest.raises(SpectralError):
        make_block(0, 0, spin_ls="x")


def test_compact_generator_scalar(triple):
    assert compact_generator_scalar(triple) == I * INV_SQRT2


def test_block_eigenvalues_on_a_grid(triple):
    # independent closed form: the eigenvalue is (a-b)/4 times sqrt2
    for a in range(-10, 11):
        for b in range(-10, 11):
            blk = make_block(a, b)
            want = ExactScalar(0, Fraction(a - b, 4))
            assert block_eigenvalue(triple, blk) == want


def test_cubic_scalar_value(triple):
    assert cubic_scalar(triple) == INV_SQRT2


def test_cancellation_on_the_shifted_diagonal(triple):
    cub = cubic_scalar(triple)
    for a in range(-8, 9):
        blk = make_block(a, a + 2)
        assert (block_eigenvalue(triple, blk) + cub).is_zero()
    off = make_block(1, 1)
    assert not (block_eigenvalue(triple, off) + cub).is_zero()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
def test_even_weight_cancellation_families(triple, n):
    module = sl2_irrep(n)
    out = even_weight_cancellation(triple, module)
    assert out["nonempty"] == (n % 2 == 0)
    assert out["even_weights"] == (n % 2 == 0)
    for blk in out["blocks"]:
        assert blk.right.a - blk.right.b == -2
        assert blk.e_weight in module.weights


# -- spin line naming ------------------------------------------------------------

def test_grading_element_is_the_diagonal_cartan(triple):
    got = grading_element(triple)
    assert vec_is_zero(vec_sub(got, triple.h_basis[0]))


@pytest.mark.parametrize("rows, message", [
    ((1, 1, 1), "the twist map does not reach the Cartan line"),
    ((1, 0, 2), "the grading element is not in h cap k")])
def test_grading_element_names_its_failure(triple, rows, message):
    # rows index the sl2 basis (h, e, f): the images of the three h basis vectors
    remapped = TransitiveTriple(
        triple.algebra, triple.sigma, triple.theta, triple.h_basis,
        triple.l_basis, zq_basis=triple.zq_basis, t_basis=triple.t_basis,
        h_module_map=[unit_vector(3, k) for k in rows])
    with pytest.raises(SpectralError, match="^" + message + "$"):
        grading_element(remapped)


@pytest.fixture(scope="module")
def unmapped(triple):
    """The sl2 triple built without an h-module map."""
    return TransitiveTriple(triple.algebra, triple.sigma, triple.theta,
                            triple.h_basis, triple.l_basis,
                            zq_basis=triple.zq_basis, t_basis=triple.t_basis)


def test_finite_kernel_needs_an_h_module_map(unmapped):
    with pytest.raises(ValueError,
                       match="^the triple carries no h-module map$"):
        finite_dirac_kernel(unmapped, sl2_irrep(2))


def test_ql_slot_names_need_an_h_module_map(unmapped):
    with pytest.raises(ValueError,
                       match="^the triple carries no h-module map$"):
        ql_slot_names(unmapped)


def test_slot_names_follow_computed_weights(triple):
    assert single_side()[3] == {0: "e", 1: "1"}
    assert ql_slot_names(triple) == {0: "u", 1: "1"}


def test_single_side_names_and_weights():
    g, pair, spin, names, weights = single_side()
    assert names == {0: "e", 1: "1"}
    assert weights == {0: 1, 1: -1}
    assert spin.dim == 2


# -- the fixed-side operator and its kernel ---------------------------------------

def _diagonal_e_f(triple):
    n = triple.algebra.dim
    big_e = vec_add(unit_vector(n, 1), unit_vector(n, 4))
    big_f = vec_add(unit_vector(n, 2), unit_vector(n, 5))
    return big_e, big_f


def test_operator_is_presentation_independent(triple):
    module = sl2_irrep(2)
    default = hs_dirac_operator(triple, module)

    big_e, big_f = _diagonal_e_f(triple)
    half = coerce(Fraction(1, 2))
    nilpotent = hs_dirac_operator(
        triple, module, vectors=[big_e, big_f],
        duals=[vec_scale(half, big_f), vec_scale(half, big_e)])
    assert nilpotent == default

    c, s = coerce(Fraction(3, 5)), coerce(Fraction(4, 5))
    b1, b2 = triple.pair_h_hk.complement_basis
    rotated = hs_dirac_operator(
        triple, module,
        vectors=[vec_add(vec_scale(c, b1), vec_scale(s, b2)),
                 vec_add(vec_scale(-s, b1), vec_scale(c, b2))])
    assert rotated == default


def test_operator_rejects_non_biorthonormal_presentations(triple):
    module = sl2_irrep(0)
    big_e, big_f = _diagonal_e_f(triple)
    half = coerce(Fraction(1, 2))
    with pytest.raises(SpectralError, match="biorthonormal"):
        hs_dirac_operator(triple, module, vectors=[big_e, big_f],
                          duals=[vec_scale(half, big_e),
                                 vec_scale(half, big_f)])
    with pytest.raises(SpectralError, match="full size"):
        hs_dirac_operator(triple, module, vectors=[big_e])


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5])
def test_finite_kernel_pairs_extreme_weights_with_spin_lines(triple, m):
    module = sl2_irrep(2 * m)
    assert finite_dirac_kernel(triple, module) == \
        sorted([(2 * m, "e"), (-2 * m, "1")])


def _whole_operator_lines(triple, module, op):
    """Reference fixed-side classification: the nullspace of the whole
    operator on E (x) S, each kernel vector pure in weight and spin line."""
    names = single_side()[3]
    lines = []
    for nv in op.nullspace():
        support = [k for k in range(nv.nrows) if not nv[k, 0].is_zero()]
        weights = {module.weights[k // len(names)] for k in support}
        slots = {names[k % len(names)] for k in support}
        assert len(weights) == 1 and len(slots) == 1
        lines.append((weights.pop(), slots.pop()))
    return sorted(lines)


@pytest.mark.parametrize("weight", range(13))
def test_finite_kernel_agrees_with_the_whole_operator_nullspace(triple,
                                                                weight):
    module = sl2_irrep(weight)
    want = _whole_operator_lines(triple, module,
                                 hs_dirac_operator(triple, module))
    assert want == sorted([(weight, "e"), (-weight, "1")])
    assert finite_dirac_kernel(triple, module) == want


def test_swapped_duals_produce_a_different_kernel(triple):
    # pairing each vector with its own (rescaled) partner instead of the
    # biorthogonal one is not the invariant element; the kernel comes out
    # with its spin lines exchanged
    module = sl2_irrep(2)
    big_e, big_f = _diagonal_e_f(triple)
    half = coerce(Fraction(1, 2))
    pair = triple.pair_h_hk
    spin = SpinModule(pair.space)
    op = ExactMatrix.zeros(module.dim * spin.dim, module.dim * spin.dim)
    for beta, d in zip(beta_action(triple, module, [big_e, big_f]),
                       (vec_scale(half, big_e), vec_scale(half, big_f))):
        op = op + beta.kron(spin.gamma(pair.vector_element(d)))
    lines = _whole_operator_lines(triple, module, op)
    assert lines == [(-2, "e"), (2, "1")]
    assert lines != finite_dirac_kernel(triple, module)


@pytest.mark.parametrize("n", range(11))
def test_fixed_operator_is_the_rank_one_operator_over_sqrt2(triple, n):
    module = sl2_irrep(n)
    assert hs_dirac_operator(triple, module) * SQRT2 == \
        spectral._rank_one_operator(module, module.dim)


def test_fixed_and_rank_one_gradings_are_diag_one_minus_one(triple):
    _, pair, spin, _, _ = single_side()
    x = grading_element(triple)
    want = ExactMatrix.from_entries(2, 2, {(0, 0): ONE, (1, 1): -ONE})
    assert triple.spin_hs.gamma(triple.pair_h_hk.alpha(x)) == want
    assert spin.gamma(pair.alpha(pair.acting_basis[0])) == want


@pytest.mark.parametrize("n", range(9))
def test_residual_term_is_the_fixed_operator_on_swapped_factors(triple, n):
    # the residual term acts on S (x) E, the fixed-side operator on E (x) S
    module = sl2_irrep(n)
    spin_dim = triple.spin_hs.dim

    def swap(k):
        level, s = divmod(k, spin_dim)
        return s * module.dim + level
    fixed = hs_dirac_operator(triple, module)
    swapped = ExactMatrix.from_entries(*fixed.shape, {
        (swap(i), swap(j)): x for (i, j), x in fixed.items()})
    assert residual_term(triple, module).block(None) == swapped


def test_finite_kernel_rejects_a_doubled_fixed_operator(triple, monkeypatch):
    operator = spectral.hs_dirac_operator
    monkeypatch.setattr(spectral, "hs_dirac_operator",
                        lambda t, m: operator(t, m) * coerce(2))
    with pytest.raises(SpectralError,
                       match="^the fixed pair's Dirac operator is not the "
                             "rank-one operator over sqrt2$"):
        finite_dirac_kernel(triple, sl2_irrep(2))


def test_finite_kernel_rejects_a_negated_fixed_grading(triple, monkeypatch):
    grading = spectral.grading_element
    monkeypatch.setattr(spectral, "grading_element",
                        lambda t: vec_scale(-ONE, grading(t)))
    with pytest.raises(SpectralError,
                       match="^the fixed pair's grading is not the rank-one "
                             "grading$"):
        finite_dirac_kernel(triple, sl2_irrep(2))


@pytest.mark.parametrize("module, kind", [
    (lowest_weight_module(3, 5), "lowest"),
    (highest_weight_module(-3, 5), "highest")])
def test_finite_kernel_rejects_a_truncated_module(triple, module, kind):
    # the top level of a truncated module breaks the bracket relations
    with pytest.raises(SpectralError,
                       match=f"^the fixed-side kernel needs sl2_irrep\\(n\\), "
                             f"not a {kind} module$"):
        finite_dirac_kernel(triple, module)


# -- matched blocks -----------------------------------------------------------------

def _matched_blocks(triple, m):
    module = sl2_irrep(2 * m)
    return matched_kernel_blocks(triple, module,
                                 finite_dirac_kernel(triple, module))


def test_matched_blocks_for_small_parameters(triple):
    b0 = _matched_blocks(triple, 0)
    assert [(b.right.a, b.right.b, b.spin_ls) for b in b0] == \
        [(-1, 1, "u"), (-1, 1, "1")]
    b2 = _matched_blocks(triple, 2)
    assert [(b.right.a, b.right.b, b.spin_ls) for b in b2] == \
        [(-3, -1, "u"), (1, 3, "1")]
    assert [b.e_weight for b in b2] == [4, -4]
    with pytest.raises(ValueError, match="nonnegative"):
        _matched_blocks(triple, -1)


def test_matched_blocks_reject_a_module_other_than_an_even_irrep(triple):
    odd = sl2_irrep(3)
    with pytest.raises(SpectralError,
                       match="^matched blocks need sl2_irrep\\(2m\\), not a "
                             "finite module from weight 3$"):
        matched_kernel_blocks(triple, odd, finite_dirac_kernel(triple, odd))
    with pytest.raises(SpectralError, match="not a lowest module from weight 4$"):
        matched_kernel_blocks(triple, lowest_weight_module(4, 6), [])


def test_matched_blocks_reject_a_compact_part_that_does_not_cancel(
        triple, monkeypatch):
    module = sl2_irrep(2)
    kernel = finite_dirac_kernel(triple, module)
    monkeypatch.setattr(spectral, "cubic_scalar", lambda t: ZERO)
    with pytest.raises(SpectralError,
                       match="^compact part does not cancel on a block$"):
        matched_kernel_blocks(triple, module, kernel)


# the message of the matched blocks when the residual term is not the
# rank-one operator on the probe
NOT_SWAPPED_RANK_ONE = ("^the residual term is not the rank-one operator "
                        "over sqrt2 on swapped factors$")


def test_matched_blocks_reject_a_residual_that_moves_a_matched_line(
        triple, monkeypatch):
    module = sl2_irrep(2)
    kernel = finite_dirac_kernel(triple, module)
    monkeypatch.setattr(spectral, "residual_term", lambda t, m:
                        FormalDiracElement.symbol(t.algebra, None,
                                                  ExactMatrix.identity(
                                                      t.spin_ql.dim * m.dim)))
    with pytest.raises(SpectralError, match=NOT_SWAPPED_RANK_ONE):
        matched_kernel_blocks(triple, module, kernel)


def test_matched_blocks_reject_a_doubled_residual(triple, monkeypatch):
    module = sl2_irrep(2)
    kernel = finite_dirac_kernel(triple, module)
    residual = spectral.residual_term
    monkeypatch.setattr(spectral, "residual_term",
                        lambda t, m: residual(t, m).scaled(coerce(2)))
    with pytest.raises(SpectralError, match=NOT_SWAPPED_RANK_ONE):
        matched_kernel_blocks(triple, module, kernel)


def test_matched_blocks_reject_swapped_slice_line_names(triple, monkeypatch):
    module = sl2_irrep(2)
    kernel = finite_dirac_kernel(triple, module)
    names, other = spectral.ql_slot_names, {"u": "1", "1": "u"}
    monkeypatch.setattr(spectral, "ql_slot_names", lambda t: {
        s: other[n] for s, n in names(t).items()})
    with pytest.raises(SpectralError, match="^the slice grading is not the "
                                            "rank-one grading$"):
        matched_kernel_blocks(triple, module, kernel)


@pytest.mark.parametrize("m", range(9))
def test_residual_term_annihilates_the_matched_lines(triple, m):
    # the whole-module residual, which the probe identity stands for
    module = sl2_irrep(2 * m)
    res = residual_term(triple, module).block(None)
    names = ql_slot_names(triple)
    for line, weight in (("u", 2 * m), ("1", -2 * m)):
        columns = [s * module.dim + i for s, n in names.items() if n == line
                   for i, w in enumerate(module.weights) if w == weight]
        assert len(columns) == 1
        assert res.select_columns(columns).is_zero()


def test_kernel_lines_reject_a_line_across_module_levels(monkeypatch):
    # on sl2_irrep(2), level 0 on the -1 line and level 1 on the +1 line
    # share torus weight 1; this weight-keeping operator has their sum as
    # its only kernel vector there
    names = single_side()[3]
    low = next(s for s, n in names.items() if n == "1")
    high = 2 + next(s for s, n in names.items() if n == "e")
    op = ExactMatrix.from_entries(6, 6, {(low, low): ONE, (low, high): -ONE})
    monkeypatch.setattr(spectral, "_rank_one_operator", lambda m, levels: op)
    with pytest.raises(SpectralError,
                       match="^kernel line mixes module levels$"):
        truncated_dirac_kernel(sl2_irrep(2))


@pytest.mark.parametrize("argv", [
    ["verify", "spectral", "--weight", "10", "--truncation", "120"],
    ["table64", "--weight", "10"]])
def test_a_spectral_command_checks_the_h_module_map_twice_on_the_probe(
        argv, monkeypatch, capsys):
    # once for the fixed-side operator and once for the residual term, both
    # on sl2_irrep(1), never on the twist module
    dims = []
    twist_actions = dirac._twist_actions
    monkeypatch.setattr(dirac, "_twist_actions",
                        lambda triple, module: dims.append(module.dim)
                        or twist_actions(triple, module))
    assert cli.main(argv) == 0
    assert dims == [2, 2]


# -- truncated kernels ----------------------------------------------------------------

def test_finite_module_kernel_lines():
    lines = truncated_dirac_kernel(scan_module("finite", 2, 0))
    assert lines == [KernelLine(-3, "1", 2), KernelLine(3, "e", 0)]
    trivial = truncated_dirac_kernel(scan_module("finite", 0, 0))
    assert trivial == [KernelLine(-1, "1", 0), KernelLine(1, "e", 0)]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_highest_weight_kernel_lines(m):
    lines = truncated_dirac_kernel(highest_weight_module(-m - 2, 40))
    assert lines == [KernelLine(-m - 1, "e", 0)]


@pytest.mark.parametrize("mu", [1, 2, 3])
def test_lowest_weight_kernel_lines(mu):
    lines = truncated_dirac_kernel(lowest_weight_module(mu, 40))
    assert lines == [KernelLine(mu - 1, "1", 0)]


def test_reducible_lowest_weight_module_carries_an_extra_line():
    # at parameter 0 the truncated module is reducible: it shows the line
    # of its one-dimensional quotient and one from the submodule
    lines = truncated_dirac_kernel(lowest_weight_module(0, 40))
    assert lines == [KernelLine(-1, "1", 0), KernelLine(1, "1", 1)]


def test_truncation_window_is_enforced():
    module = lowest_weight_module(3, 10)
    assert module.certified == 10
    assert truncated_dirac_kernel(module) == [KernelLine(2, "1", 0)]


def _whole_operator_kernel(module):
    """Kernel lines from the nullspace of the whole operator on M (x) S,
    restricted to the certified columns."""
    _, pair, spin, names, slot_w = single_side()
    op = algebraic_dirac(pair, module.action, spin)
    lines = []
    for v in op.select_columns(range(module.certified * spin.dim)).nullspace():
        (k,) = [k for k in range(v.nrows) if not v[k, 0].is_zero()]
        level, s = divmod(k, spin.dim)
        lines.append(KernelLine(module.weights[level] + slot_w[s], names[s],
                                level))
    return sorted(lines)


@given(st.sampled_from(["finite", "lowest", "highest"]),
       st.integers(-15, 15), st.integers(2, 60))
@settings(max_examples=100, deadline=timedelta(seconds=5))
def test_kernel_agrees_with_the_whole_operator_nullspace(kind, param,
                                                         truncation):
    if kind == "finite":
        module = sl2_irrep(abs(param))
    else:
        module = scan_module(kind, param, truncation)
    assert truncated_dirac_kernel(module) == _whole_operator_kernel(module)


def _swapped(names):
    return {i: "e" if n == "1" else "1" for i, n in names.items()}


def test_a_misgraded_operator_raises(triple, monkeypatch):
    # with the spin line names exchanged, the operator no longer keeps the
    # torus weight the names give, and the blocks would not be its blocks
    g, pair, spin, names, weights = single_side()
    monkeypatch.setattr(spectral, "single_side",
                        lambda: (g, pair, spin, _swapped(names), weights))
    with pytest.raises(SpectralError,
                       match="^the operator carries torus weight -6 to -2$"):
        truncated_dirac_kernel(highest_weight_module(-3, 10))
    # the fixed side reads its kernel under the rank-one names, once its own
    # grading names the lines alike, which the exchanged names break
    with pytest.raises(SpectralError, match="^the fixed pair's grading is "
                                            "not the rank-one grading$"):
        finite_dirac_kernel(triple, sl2_irrep(2))


def test_kernel_rejects_foreign_modules(triple):
    # a module over another algebra reaches the kernel duck-typed
    module = SimpleNamespace(
        algebra=LieAlgebra(("h",), [[(ZERO,)]], ExactMatrix([[2]])),
        weights=(2, 0, -2), dim=3, certified=3, kind="finite",
        actions=(sl2_irrep(2).actions[0],))
    with pytest.raises(SpectralError, match="rank-one algebra"):
        truncated_dirac_kernel(module)


# -- scans and the dual table -------------------------------------------------------

def scan_family(kind, depth, n_levels):
    """The whole-family oracle: the kernel lines of each family member in
    the window nu = -1 .. -depth ("highest") or mu = 0 .. depth ("lowest",
    mu = 0 being the one-dimensional module), each built with n_levels
    levels and solved whole."""
    if kind == "highest":
        members = [(nu, "highest") for nu in range(-1, -depth - 1, -1)]
    else:
        members = [(mu, "lowest" if mu else "finite")
                   for mu in range(depth + 1)]
    return {p: truncated_dirac_kernel(spectral.scan_module(k, p, n_levels))
            for p, k in members}


def scan_hits(family, total, slot):
    """The parameters of the family members whose kernel meets the line."""
    return [p for p, lines in family.items()
            if any(l.total == total and l.slot == slot for l in lines)]


@pytest.fixture(scope="module")
def families():
    return {kind: scan_family(kind, 12, 40) for kind in ("highest", "lowest")}


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_scans_identify_a_unique_family_member(families, m):
    assert scan_hits(families["highest"], -m - 1, "e") == [-m - 2]
    target = m - 1
    expected = 0 if m == 0 else m
    assert scan_hits(families["lowest"], target, "1") == [expected]


def test_scan_misses_return_empty(families):
    assert scan_hits(families["highest"], 0, "1") == []
    assert scan_hits(families["lowest"], -5, "e") == []


def test_scan_family_rejects_an_unknown_kind():
    with pytest.raises(SpectralError, match="'middle'"):
        scan_module("middle", 3, 10)
    with pytest.raises(SpectralError, match="'middle'"):
        scan_lines("middle", 0, "1", 10)


def test_scan_lines_reject_an_unknown_spin_line():
    # "E" is not "e": it must not read as the +1 line and miss every member
    assert list(scan_lines("highest", -3, "e", 10)) == [-4]
    with pytest.raises(SpectralError, match="^unknown spin line 'E'$"):
        scan_lines("highest", -3, "E", 10)


@pytest.mark.parametrize("kind, param, n_levels", [
    ("lowest", 4, 12), ("lowest", 9, 12), ("highest", -6, 12),
    ("highest", -11, 12), ("finite", 0, 0)])
def test_dirac_square_formula_beyond_the_certified_grid(kind, param,
                                                        n_levels):
    # the certificate checks three members of each family at levels 0..3;
    # its formula must hold on the members and levels it does not check
    module = scan_module(kind, param, n_levels)
    op = spectral._rank_one_operator(module, module.dim)
    c = param - 1 if kind != "highest" else param + 1
    _, _, spin, _, weights = single_side()
    want = {(k, k): Fraction(c * c - (module.weights[k // spin.dim]
                                      + weights[k % spin.dim]) ** 2, 4)
            for k in range(module.certified * spin.dim)}
    assert (op @ op).select_columns(range(module.certified * spin.dim)) \
        == ExactMatrix.from_entries(op.nrows, module.certified * spin.dim,
                                    want)


def _weights_near(module, total):
    """Module weights total -+ 1 (the "e" and "1" lines of that total) of
    the certified columns and of all rows."""
    return [[w for w in weights if abs(w - total) == 1]
            for weights in (module.weights[:module.certified], module.weights)]


@pytest.mark.parametrize("n_levels", [2, 3, 5, 40, 120])
@pytest.mark.parametrize("m", [*range(15), 22, 40])
def test_scan_lines_match_the_whole_family_scan(m, n_levels, monkeypatch):
    built, build = [], spectral.scan_module
    monkeypatch.setattr(spectral, "scan_module",
                        lambda *key: built.append(build(*key)) or built[-1])
    depth = max(12, m + 2)
    for kind in ("highest", "lowest"):
        family = scan_family(kind, depth, n_levels)
        members = built[:]
        for total, slot in itertools.product((-m - 1, m - 1), ("e", "1")):
            built.clear()
            met = [(p, [l for l in family[p] if l[:2] == (total, slot)])
                   for p in scan_hits(family, total, slot)]
            assert list(scan_lines(kind, total, slot,
                                   n_levels).items()) == met
            # built: exactly the candidate members, those where D^2 =
            # (c^2 - total^2)/4 vanishes, with a certified column at the
            # line, each with the member's columns and rows of that total
            weight = total - (1 if slot == "e" else -1)
            assert [(b.weights[0], _weights_near(b, total)) for b in built] \
                == [(p, _weights_near(member, total))
                    for p, member in zip(family, members)
                    if (p - 1 if kind == "lowest" else p + 1) ** 2
                    == total ** 2
                    and weight in member.weights[:member.certified]]
        built.clear()


def _expected_table(m):
    if m == 0:
        return [["DS+", 2, "C", -1], ["Trivial", None, "C", -1]]
    if m == 1:
        return [["DS+", 3, "C", 0], ["LDS-", None, "C", -2]]
    return [["DS+", m + 2, "C", m - 1], ["DS-", -m, "C", -m - 1]]


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5])
def test_kernel_table_rows(triple, m):
    assert kernel_table(triple, m) == _expected_table(m)
