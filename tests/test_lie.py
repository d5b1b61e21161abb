"""Lie algebra tables, weight modules, and the truncation discipline."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from diracembed import (ExactMatrix, LieAlgebra, ONE, WeightModule, ZERO, coerce,
                        direct_sum, highest_weight_module, lowest_weight_module,
                        sl2, sl2_irrep, unit_vector, vec)


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
    with pytest.raises(ValueError, match=r"not antisymmetric at \(1,2\)"):
        LieAlgebra(g.labels, bad, g.form)


def test_constructor_rejects_noninvariant_forms():
    g = sl2()
    form = ExactMatrix([[2, 0, 0], [0, 0, 1], [0, 1, 1]])
    with pytest.raises(ValueError, match="form not invariant"):
        LieAlgebra(g.labels, g.brackets, form)


@pytest.mark.parametrize("short_or_long", [(0, 2), (0, 2, 0, 0)])
def test_constructor_rejects_wrong_length_bracket_vectors(short_or_long):
    g = sl2()
    bad = [list(row) for row in g.brackets]
    bad[0][1] = vec(short_or_long)
    with pytest.raises(ValueError, match=rf"^bracket \(0,1\) has "
                                         rf"{len(short_or_long)} coordinates, not 3$"):
        LieAlgebra(g.labels, bad, g.form)


def test_bracket_rejects_wrong_length_vectors():
    with pytest.raises(ValueError, match=r"^vector has 2 coordinates, but "
                                         r"the algebra has dim 3$"):
        sl2().bracket(vec((1, 0)), vec((0, 1)))


def test_form_value_rejects_wrong_length_vectors():
    with pytest.raises(ValueError, match=r"^vector has 1 coordinates, but "
                                         r"the algebra has dim 3$"):
        sl2().form_value(vec((1,)), vec((1,)))


# -- independent oracle for the Jacobi and invariance certificates ----------------
# The library checks both as identities of the adjoint matrices; the reference
# below is the per-basis-triple check on the raw table, with its own bracket.

def raw_bracket(table, x, y):
    n = len(x)
    out = [ZERO] * n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[k] = out[k] + x[i] * y[j] * table[i][j][k]
    return tuple(out)


def raw_form(form, x, y):
    n = len(x)
    return sum((x[i] * y[j] * form[i, j] for i in range(n) for j in range(n)), ZERO)


def reference_failure(table, form):
    """The first failing Jacobi triple i < j < k, else the first (i, j, k)
    with <[b_i, b_j], b_k> + <b_j, [b_i, b_k]> != 0, as the library's
    message; None when both hold."""
    n = len(table)
    unit = [unit_vector(n, k) for k in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                terms = (raw_bracket(table, table[i][j], unit[k]),
                         raw_bracket(table, table[j][k], unit[i]),
                         raw_bracket(table, table[k][i], unit[j]))
                if any(not sum(t, ZERO).is_zero() for t in zip(*terms)):
                    return f"Jacobi fails on basis triple ({i},{j},{k})"
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if not (raw_form(form, table[i][j], unit[k])
                        + raw_form(form, unit[j], table[i][k])).is_zero():
                    return f"form not invariant at ({i},{j},{k})"
    return None


def library_failure(labels, table, form):
    try:
        LieAlgebra(labels, table, form)
    except ValueError as exc:
        return str(exc)
    return None


def bracket_perturbations(g):
    """Antisymmetric edits of one structure constant c_ij^k, i < j."""
    n = g.dim
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                table = [list(row) for row in g.brackets]
                bump = vec(1 if r == k else 0 for r in range(n))
                table[i][j] = tuple(x + y for x, y in zip(table[i][j], bump))
                table[j][i] = tuple(x - y for x, y in zip(table[j][i], bump))
                yield table


def form_perturbations(g):
    """Symmetric edits of one entry pair of the form."""
    n = g.dim
    for a in range(n):
        for b in range(a, n):
            entries = dict(g.form.items())
            for key in {(a, b), (b, a)}:
                entries[key] = entries.get(key, ZERO) + ONE
            yield ExactMatrix.from_entries(n, n, entries)


@pytest.mark.parametrize("algebra", [sl2, lambda: direct_sum(sl2(), sl2())],
                         ids=["sl2", "sl2+sl2"])
def test_certificates_agree_with_the_per_triple_reference(algebra):
    g = algebra()
    cases = [(table, g.form) for table in bracket_perturbations(g)]
    cases += [(g.brackets, form) for form in form_perturbations(g)]
    cases += [(g.brackets, g.form), (g.brackets, g.form * 2)]
    outcomes = []
    for table, form in cases:
        want = reference_failure(table, form)
        assert library_failure(g.labels, table, form) == want
        outcomes.append(want.split()[0] if want else "accepted")
    # the comparison covers both checks and tables that pass them
    assert {"Jacobi", "form", "accepted"} <= set(outcomes)


def test_algebra_equality_is_structural():
    assert sl2() == sl2()
    assert sl2() != direct_sum(sl2(), sl2())
    assert direct_sum(sl2(), sl2()) == direct_sum(sl2(), sl2())


def test_ladder_modules_share_one_algebra():
    modules = [sl2_irrep(2), lowest_weight_module(3, 4),
               highest_weight_module(-3, 4)]
    assert all(m.algebra is sl2() for m in modules)


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
    with pytest.raises(ValueError, match="not in tuple"):
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


def test_module_constructor_rejects_an_unknown_kind():
    # a misspelt kind would otherwise leave the top level uncertified
    with pytest.raises(ValueError, match="'Finite'"):
        WeightModule(1, 5, "Finite")


def test_module_constructor_rejects_negative_levels():
    with pytest.raises(ValueError, match="n_levels"):
        WeightModule(1, -1, "lowest")


def test_finite_ladder_must_stop_at_its_lowest_weight():
    # every coefficient obeys the ladder rule, yet f v_6 = 0 while e v_6 != 0
    # breaks [e,f] = h on the last basis vector
    with pytest.raises(ValueError,
                       match=r"^bracket relation \[e,f\] fails on basis vector 6$"):
        WeightModule(4, 6, "finite")


def test_module_build_makes_two_products_and_no_action_sums(monkeypatch):
    # the relations are checked without whole-matrix commutators per pair
    products, sums = [], []
    matmul = ExactMatrix.__matmul__
    monkeypatch.setattr(ExactMatrix, "__matmul__",
                        lambda a, b: products.append(1) or matmul(a, b))
    monkeypatch.setattr(WeightModule, "action", lambda self, x: sums.append(x))
    lowest_weight_module(3, 200)
    assert len(products) <= 2
    assert sums == []


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


# -- independent oracle for the ladder matrices ------------------------------------
# closed forms from the builders' docstrings, multiplied by hand over Fraction

def closed_form(kind, mu, n):
    """The nonzero entries of (h, e, f) on v_0 .. v_n, as {(row, col): int}."""
    up = 1 if kind == "lowest" else -1
    h = {(j, j): mu + 2 * up * j for j in range(n + 1)}
    step = {(j + 1, j): 1 for j in range(n)}
    if kind == "lowest":
        e, f = step, {(j - 1, j): -j * (mu + j - 1) for j in range(1, n + 1)}
    else:
        e, f = {(j - 1, j): j * (mu - j + 1) for j in range(1, n + 1)}, step
    return [{k: v for k, v in x.items() if v} for x in (h, e, f)]


def as_fractions(matrix):
    assert all(x.is_rational() for _, x in matrix.items())
    return {k: x.a for k, x in matrix.items()}


def product(x, y):
    out = Counter()
    for (r, k), a in x.items():
        for (k2, c), b in y.items():
            if k == k2:
                out[r, c] += Fraction(a) * b
    return out


def residual_columns(x, y, z, scale):
    """Columns on which [x, y] - scale * z is nonzero."""
    out = product(x, y)
    out.subtract(product(y, x))
    out.subtract({key: scale * v for key, v in z.items()})
    return {c for (_, c), v in out.items() if v}


@given(st.sampled_from(["finite", "lowest", "highest"]),
       st.integers(-15, 15), st.integers(1, 60))
def test_ladder_matrices_match_the_closed_forms(kind, mu, n):
    if kind == "finite":
        mu = n = abs(mu)
    m = WeightModule(mu, n, kind)
    h, e, f = closed_form(kind, mu, n)
    assert [as_fractions(x) for x in m.actions] == [h, e, f]
    assert m.weights == tuple(h.get((j, j), 0) for j in range(n + 1))
    assert m.certified == (n + 1 if kind == "finite" else n)
    assert min(residual_columns(h, e, e, 2), default=n + 1) >= m.certified
    assert min(residual_columns(h, f, f, -2), default=n + 1) >= m.certified
    failing = residual_columns(e, f, h, 1)
    assert min(failing, default=n + 1) >= m.certified
    # a truncated window keeps [e,f] = h at its top level exactly when it
    # closes into the finite irreducible: mu = -n (lowest), mu = n (highest)
    closes = mu == (-n if kind == "lowest" else n)
    if kind != "finite":
        assert (n in failing) == (not closes)
