"""Lie algebra tables, weight modules, and the truncation discipline."""

from fractions import Fraction

import pytest

from diracembed import (ExactMatrix, LieAlgebra, ONE, ZERO, coerce, direct_sum,
                        highest_weight_module, lowest_weight_module, sl2,
                        sl2_irrep, unit_vector, vec)


# -- independent oracle for the sl2 tables -------------------------------------
# 2x2 matrices over Fraction, multiplied by hand; the library never sees these.

M_H = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1)))
M_E = ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0)))
M_F = ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)))
BASIS_2X2 = (M_H, M_E, M_F)


def mat_mul(x, y):
    return tuple(tuple(sum(x[i][k] * y[k][j] for k in range(2))
                       for j in range(2)) for i in range(2))


def mat_sub(x, y):
    return tuple(tuple(x[i][j] - y[i][j] for j in range(2)) for i in range(2))


def mat_trace(x):
    return x[0][0] + x[1][1]


def expand_2x2(x):
    """Coordinates of a traceless 2x2 matrix over (h, e, f)."""
    return (x[0][0], x[0][1], x[1][0])


def test_sl2_brackets_match_the_matrix_commutators():
    g = sl2()
    for i in range(3):
        for j in range(3):
            comm = mat_sub(mat_mul(BASIS_2X2[i], BASIS_2X2[j]),
                           mat_mul(BASIS_2X2[j], BASIS_2X2[i]))
            want = vec(expand_2x2(comm))
            got = g.bracket(unit_vector(3, i), unit_vector(3, j))
            assert got == want


def test_sl2_form_matches_the_trace_form():
    g = sl2()
    for i in range(3):
        for j in range(3):
            want = coerce(mat_trace(mat_mul(BASIS_2X2[i], BASIS_2X2[j])))
            assert g.form_value(unit_vector(3, i), unit_vector(3, j)) == want


def test_constructor_rejects_broken_tables():
    g = sl2()
    bad = [list(row) for row in g.brackets]
    bad[1][2] = vec((0, 1, 0))  # [e,f] = e breaks Jacobi/antisymmetry
    with pytest.raises(ValueError):
        LieAlgebra(g.labels, bad, g.form)


def test_constructor_rejects_noninvariant_forms():
    g = sl2()
    form = ExactMatrix([[2, 0, 0], [0, 0, 1], [0, 1, 1]])
    with pytest.raises(ValueError):
        LieAlgebra(g.labels, g.brackets, form)


def test_algebra_equality_is_structural():
    assert sl2() == sl2()
    assert sl2() != direct_sum(sl2(), sl2())
    assert direct_sum(sl2(), sl2()) == direct_sum(sl2(), sl2())


def test_direct_sum_blocks():
    g = direct_sum(sl2(), sl2())
    assert g.labels == ("h1", "e1", "f1", "h2", "e2", "f2")
    h1, e2 = g.basis_vector("h1"), g.basis_vector("e2")
    assert g.bracket(h1, e2) == (ZERO,) * 6
    assert g.form_value(h1, g.basis_vector("h2")) == ZERO
    assert g.form_value(g.basis_vector("e2"), g.basis_vector("f2")) == ONE
    assert g.bracket(g.basis_vector("h2"), e2) == \
        tuple(coerce(c) for c in (0, 0, 0, 0, 2, 0))


def test_index_lookup():
    g = sl2()
    assert g.index_of("f") == 2
    with pytest.raises(ValueError):
        g.index_of("x")


# -- finite irreducibles ---------------------------------------------------------

@pytest.mark.parametrize("n", [0, 1, 2, 5, 8])
def test_irrep_weights_and_dimension(n):
    m = sl2_irrep(n)
    assert m.dim == n + 1
    assert m.weights == tuple(n - 2 * j for j in range(n + 1))
    assert m.kind == "finite"


def test_irrep_action_values():
    m = sl2_irrep(2)
    e, f = m.actions[1], m.actions[2]
    # f steps down the basis freely; e returns with coefficient j(n-j+1)
    assert f.col(0) == (ZERO, ONE, ZERO)
    assert f.col(2) == (ZERO, ZERO, ZERO)
    assert e.col(1) == (coerce(2), ZERO, ZERO)
    assert e.col(2) == (ZERO, coerce(2), ZERO)


def test_irrep_casimir_is_scalar():
    n = 4
    m = sl2_irrep(n)
    h, e, f = m.actions
    casimir = h @ h * Fraction(1, 2) + e @ f + f @ e
    lam = coerce(Fraction(n * (n + 2), 2))
    assert casimir.is_scalar(lam)


def test_module_constructor_certifies_relations():
    m = sl2_irrep(1)
    broken = [m.actions[0], m.actions[1], m.actions[1]]
    with pytest.raises(ValueError):
        type(m)(m.algebra, m.weights, broken)


def test_grading_generator_must_be_diagonal():
    m = sl2_irrep(1)
    with pytest.raises(ValueError):
        type(m)(m.algebra, (1, 1), m.actions)


def test_module_constructor_rejects_an_unknown_kind():
    # a misspelt kind would otherwise leave the top level uncertified
    m = lowest_weight_module(1, 5)
    with pytest.raises(ValueError, match="'Finite'"):
        type(m)(m.algebra, m.weights, m.actions, kind="Finite")


# -- truncated weight modules ----------------------------------------------------

def test_lowest_weight_module_shape():
    m = lowest_weight_module(3, 10)
    assert m.dim == 11
    assert m.kind == "lowest"
    assert m.weights == tuple(3 + 2 * j for j in range(11))
    # e raises freely inside the window
    assert m.actions[1].col(4) == tuple(
        ONE if r == 5 else ZERO for r in range(11))
    # f v_j = -j(mu + j - 1) v_{j-1}
    assert m.actions[2][1, 2] == coerce(-2 * (3 + 2 - 1))


def test_highest_weight_module_shape():
    m = highest_weight_module(-4, 6)
    assert m.weights == tuple(-4 - 2 * j for j in range(7))
    assert m.kind == "highest"
    # e v_j = j(mu - j + 1) v_{j-1}
    assert m.actions[1][2, 3] == coerce(3 * (-4 - 3 + 1))


def test_truncation_violates_relations_only_at_the_top():
    m = lowest_weight_module(1, 5)
    h, e, f = m.actions
    diff = e @ f - f @ e - h
    for col in range(m.dim - 1):
        assert all(diff[r, col].is_zero() for r in range(m.dim))
    assert any(not diff[r, m.dim - 1].is_zero() for r in range(m.dim))
    first_failing = min(col for (_, col), _ in diff.items())
    assert first_failing == m.certified
