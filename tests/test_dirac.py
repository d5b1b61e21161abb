"""Formal Dirac elements, the transfer map, and the embedding identity."""

from fractions import Fraction

import pytest

from diracembed import dirac
from diracembed import (ExactMatrix, FormalDiracElement, I, INV_SQRT2, ONE,
                        ReductivePair, SQRT2, SpinModule, ZERO,
                        algebraic_dirac, assemble_rhs, beta_action,
                        build_sl2_triple, coerce, cubic_term,
                        geometric_dirac_element, invariance_defect,
                        residual_term, sl2, sl2_irrep, transfer, unit_vector,
                        vec_add, vec_scale, verify_embedding)


@pytest.fixture(scope="module")
def triple():
    return build_sl2_triple()


# -- formal elements -----------------------------------------------------------

def test_formal_element_arithmetic(triple):
    g = triple.algebra
    m = ExactMatrix.identity(2)
    a = FormalDiracElement.symbol(g, unit_vector(6, 0), m)
    b = FormalDiracElement.symbol(g, unit_vector(6, 0), m)
    assert (a - b).blocks.is_zero()
    assert (a + b) == a.scaled(coerce(2))
    unit = FormalDiracElement.symbol(g, None, m)
    assert (a + unit).describe_difference(a - b) == ["unit", g.labels[0]]
    assert a.__eq__(m) is NotImplemented


def test_formal_element_rejects_wrong_shapes(triple):
    g = triple.algebra
    with pytest.raises(ValueError, match="symbol has 5 coordinates"):
        FormalDiracElement.symbol(g, unit_vector(5, 0), ExactMatrix.identity(2))
    with pytest.raises(ValueError, match="block row"):
        FormalDiracElement(g, 2, ExactMatrix.zeros(2, 12))
    with pytest.raises(ValueError, match="block row"):
        FormalDiracElement.symbol(g, None, ExactMatrix.zeros(2, 3))


def test_formal_element_collects_by_basis_vector(triple):
    g = triple.algebra
    m = ExactMatrix.identity(2)
    v = vec_add(vec_scale(SQRT2, unit_vector(6, 0)),
                vec_scale(I, unit_vector(6, 3)))
    elt = FormalDiracElement.symbol(g, v, m)
    assert elt.block(0) == m * SQRT2
    assert elt.block(3) == m * I
    assert elt.block(None).is_zero() and elt.block(5).is_zero()
    with pytest.raises(ValueError, match="out of range"):
        elt.block(6)


def test_describe_difference_names_symbols(triple):
    g = triple.algebra
    m = ExactMatrix.identity(2)
    a = FormalDiracElement.symbol(g, unit_vector(6, 1), m)
    b = FormalDiracElement.symbol(g, None, m)
    assert a.describe_difference(b) == ["unit", "e1"]
    assert a.describe_difference(a) == []


# -- twist actions ----------------------------------------------------------------

def test_beta_action_pushes_through_the_diagonal(triple):
    module = sl2_irrep(2)
    # the diagonal Cartan vector maps to the module's own Cartan action
    diag_h = triple.h_basis[0]
    doubled = vec_scale(coerce(2), triple.h_basis[1])
    assert beta_action(triple, module, [diag_h, doubled]) == [
        module.actions[0], module.actions[1] * coerce(2)]
    with pytest.raises(ValueError):
        beta_action(triple, module, [diag_h, unit_vector(6, 0)])


def test_beta_action_rejects_a_vector_outside_h(triple):
    with pytest.raises(ValueError,
                       match="^vector is not in the fixed subalgebra$"):
        beta_action(triple, sl2_irrep(2), [unit_vector(6, 1)])


@pytest.mark.parametrize("length", [2, 7])
def test_beta_action_rejects_a_vector_of_the_wrong_length(triple, length):
    with pytest.raises(ValueError, match=f"^vector has {length} coordinates, "
                                         "but the algebra has dim 6$"):
        beta_action(triple, sl2_irrep(2), [unit_vector(length, 0)])


def test_ambient_dirac_element_is_invariant(triple):
    for n in (0, 2):
        module = sl2_irrep(n)
        elt = geometric_dirac_element(triple, module)
        assert invariance_defect(triple, elt, module) is None


def _with_a_symbol_dropped(triple, module, key):
    elt = geometric_dirac_element(triple, module)
    return elt - FormalDiracElement.symbol(
        triple.algebra, unit_vector(triple.algebra.dim, key), elt.block(key))


def test_invariance_rejects_an_element_with_a_symbol_dropped(triple,
                                                              monkeypatch):
    module = sl2_irrep(2)
    broken = _with_a_symbol_dropped(triple, module, 1)   # drop e1
    assert invariance_defect(triple, broken, module) == (1, "e1")
    monkeypatch.setattr(dirac, "geometric_dirac_element",
                        lambda t, m: broken)
    rows = {name: (ok, details)
            for name, ok, details in verify_embedding(triple, module)}
    assert rows["ambient-invariance"] == (
        False, "the ambient Dirac element does not commute with h 1 at "
               "symbols: e1")


def test_failing_structure_rows_name_the_first_failing_case(monkeypatch):
    triple = build_sl2_triple()
    module = sl2_irrep(2)
    rho = triple.rho
    zero = (ZERO,) * triple.algebra.dim

    def details():
        return {name: (ok, text) for name, ok, text
                in verify_embedding(triple, module)[:4]}

    monkeypatch.setattr(triple, "rho", lambda sign, x: zero)
    monkeypatch.setattr(triple, "rho_is_isometry", lambda: False)
    assert details() == {
        "compact-part-fixed": (False, "rho_minus moves Z"),
        "compact-part-killed": (True, "rho_plus vanishes on the Z-part"),
        "noncompact-part-split": (
            False, "rho_minus T1 != sqrt2 T1 - rho_plus T1"),
        "isometric-complement": (
            False, "rho_minus breaks a complement pairing")}
    # rho_plus sends everything to h_0, which lies in h but is not zero
    monkeypatch.setattr(triple, "rho", lambda sign, x:
                        triple.h_basis[0] if sign == 1 else rho(sign, x))
    rows = details()
    assert rows["compact-part-fixed"][0]
    assert rows["compact-part-killed"] == (
        False, "rho_plus does not vanish on Z")
    assert rows["noncompact-part-split"] == (
        False, "rho_minus T1 != sqrt2 T1 - rho_plus T1")


def test_cubic_term_matrix(triple):
    module = sl2_irrep(0)
    cub = cubic_term(triple, module)
    assert cub.describe_difference(cub.scaled(0)) == ["unit"]
    gamma_cubic = triple.spin_ql.gamma(triple.pair_l_lh.cubic_element())
    assert cub.block(None) == gamma_cubic


def test_residual_term_uses_only_the_unit_symbol(triple):
    module = sl2_irrep(2)
    res = residual_term(triple, module)
    assert res.describe_difference(res.scaled(0)) == ["unit"]
    assert res.block(None).shape == (
        triple.spin_ql.dim * module.dim, triple.spin_ql.dim * module.dim)


# -- the embedding identity ---------------------------------------------------------

@pytest.mark.parametrize("n", [0, 2, 4])
def test_embedding_identity_holds(triple, n):
    module = sl2_irrep(n)
    rows = verify_embedding(triple, module)
    names = [name for name, ok, _ in rows]
    assert names == ["compact-part-fixed", "compact-part-killed",
                     "noncompact-part-split", "isometric-complement",
                     "ambient-invariance", "form1", "form2", "forms-agree"]
    for name, ok, details in rows:
        assert ok, f"{name}: {details}"


def test_transfer_matches_both_assembled_forms(triple):
    module = sl2_irrep(2)
    moved = transfer(triple, geometric_dirac_element(triple, module), module)
    assert moved == assemble_rhs(triple, module, 1)
    assert moved == assemble_rhs(triple, module, 2)


def test_pair_dual_is_the_q_rows_of_the_inverse(triple):
    """Oracle: the dual of the q basis under the form equals the q rows of
    the eliminated inverse of [h basis | q basis]."""
    inverse = ExactMatrix.from_columns(triple.h_basis + triple.q_basis,
                                       6).inverse()
    assert triple.pair_g_h.dual.rows == inverse.rows[len(triple.h_basis):]


def _transfer_by_inverse(triple, element, module):
    """The transfer with e_k split over h and q by inverting [h | q]."""
    g, size, e = triple.algebra, element.matrix_size, element.blocks
    nh, slice_basis = len(triple.h_basis), triple.zq_basis + triple.t_basis
    coords = ExactMatrix.from_columns(triple.h_basis + triple.q_basis,
                                      g.dim).inverse()
    slice_part = ExactMatrix.from_columns(
        [(ZERO,) * g.dim] * nh
        + [vec_scale(triple.d[triple.nu_of(b)], b) for b in slice_basis],
        g.dim) @ coords
    h_part = triple.h_coordinates(triple.h_basis + [
        vec_scale(-ONE, triple.rho(1, b)) for b in slice_basis]) @ coords
    ident, h_cols = ExactMatrix.identity(size), dirac._on_symbols(h_part)
    unit = ExactMatrix.zeros(size, size)
    for i, fiber in enumerate(dirac._fiber_actions(triple, module)):
        unit = unit - (e @ h_cols.select_columns([i]).kron(ident)) @ fiber
    moved = e @ dirac._on_symbols(slice_part, ONE).kron(ident)
    return (FormalDiracElement(g, size, moved)
            + FormalDiracElement.symbol(g, None, unit))


@pytest.mark.parametrize("weight", [0, 2, 10])
def test_transfer_matches_the_inverse_based_split(triple, weight):
    module = sl2_irrep(weight)
    lhs = geometric_dirac_element(triple, module)
    assert transfer(triple, lhs, module) == \
        _transfer_by_inverse(triple, lhs, module)


def test_perturbed_cubic_coefficient_breaks_only_the_unit_term(triple):
    module = sl2_irrep(2)
    moved = transfer(triple, geometric_dirac_element(triple, module), module)
    wrong = assemble_rhs(triple, module, 2, cubic_coefficient=-1)
    assert moved.describe_difference(wrong) == ["unit"]
    wrong1 = assemble_rhs(triple, module, 1, cubic_coefficient=SQRT2)
    assert moved.describe_difference(wrong1) == ["unit"]


def test_assemble_rejects_unknown_forms(triple):
    with pytest.raises(ValueError):
        assemble_rhs(triple, sl2_irrep(0), 3)


# -- the finite-dimensional operator ---------------------------------------------

def _symmetric_sl2_pair():
    g = sl2()
    h = unit_vector(3, 0)
    x1 = vec_scale(INV_SQRT2, (ZERO, ONE, ONE))
    x2 = vec_scale(I * INV_SQRT2, (ZERO, ONE, -ONE))
    return g, ReductivePair(g, [h], [x1, x2], ("P1", "P2"))


def test_algebraic_dirac_is_presentation_independent():
    g, pair = _symmetric_sl2_pair()
    module = sl2_irrep(2)
    spin = SpinModule(pair.space)

    def act(v):
        return module.action(v)

    d1 = algebraic_dirac(pair, act, spin)
    # re-expand over an exactly rotated orthonormal basis of the complement;
    # the summed element is independent of that choice
    c, s = coerce(Fraction(3, 5)), coerce(Fraction(4, 5))
    y1 = vec_add(vec_scale(c, pair.complement_basis[0]),
                 vec_scale(s, pair.complement_basis[1]))
    y2 = vec_add(vec_scale(-s, pair.complement_basis[0]),
                 vec_scale(c, pair.complement_basis[1]))
    d2 = ExactMatrix.zeros(d1.nrows, d1.ncols)
    for y in (y1, y2):
        d2 = d2 + act(y).kron(spin.gamma(pair.vector_element(y)))
    assert d1 == d2


def test_algebraic_dirac_vanishes_on_the_trivial_module():
    g, pair = _symmetric_sl2_pair()
    module = sl2_irrep(0)
    spin = SpinModule(pair.space)
    d = algebraic_dirac(pair, module.action, spin)
    assert d.is_zero()
