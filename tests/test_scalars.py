"""Field axioms and exact linear algebra for the scalar layer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracembed import (ExactMatrix, ExactScalar, HALF, I, INV_SQRT2, ONE,
                        SQRT2, ZERO, coerce, parse_scalar, real_sqrt)

fractions = st.fractions(min_value=-30, max_value=30, max_denominator=12)
scalars = st.builds(ExactScalar, fractions, fractions, fractions, fractions)
small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)
small_scalars = st.builds(ExactScalar, small_fractions, small_fractions,
                          small_fractions, small_fractions)
real_scalars = st.builds(ExactScalar, fractions, fractions)
# general scalars and rational ones, which take the fast paths
mixed_scalars = st.one_of(scalars, st.builds(ExactScalar, fractions))


# -- ring structure ------------------------------------------------------------

@given(scalars, scalars, scalars)
def test_addition_is_associative_and_commutative(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x


@given(mixed_scalars, mixed_scalars, st.integers(-50, 50))
def test_subtraction_adds_the_negative(a, b, n):
    assert a - b == a + (-b)
    assert [(a - b).a, (a - b).b, (a - b).c, (a - b).d] == \
        [a.a - b.a, a.b - b.b, a.c - b.c, a.d - b.d]
    assert b - b == ZERO
    assert ZERO - b == -b
    assert n - b == coerce(n) + (-b)
    assert b - n == b + coerce(-n)


@given(small_scalars, small_scalars, small_scalars)
def test_multiplication_is_associative(x, y, z):
    assert (x * y) * z == x * (y * z)


@given(scalars, scalars)
def test_multiplication_is_commutative(x, y):
    assert x * y == y * x


@given(small_scalars, small_scalars, small_scalars)
def test_multiplication_distributes_over_addition(x, y, z):
    assert x * (y + z) == x * y + x * z


@given(scalars)
def test_additive_and_multiplicative_identities(x):
    assert x + ZERO == x
    assert x * ONE == x
    assert x + (-x) == ZERO
    assert x - x == ZERO


@given(scalars)
def test_nonzero_elements_invert(x):
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x * x.inverse() == ONE
        assert x / x == ONE


@given(scalars, scalars)
def test_product_is_zero_only_when_a_factor_is(x, y):
    assert (x * y).is_zero() == (x.is_zero() or y.is_zero())


def test_defining_relations_of_the_adjoined_elements():
    assert I * I == -ONE
    assert SQRT2 * SQRT2 == coerce(2)
    assert SQRT2 * INV_SQRT2 == ONE
    assert HALF + HALF == ONE
    assert (ONE + SQRT2) * (ONE - SQRT2) == -ONE
    assert (ONE + I) * (ONE - I) == coerce(2)


@given(scalars)
def test_int_and_fraction_operands_mix_in(x):
    assert x * 2 == x + x
    assert 2 * x == x + x
    assert x + Fraction(1, 2) == x + HALF
    assert 1 - x == ONE - x
    if not x.is_zero():
        assert 1 / x == x.inverse()


# -- ordering of real elements -------------------------------------------------

def test_real_sign_handles_mixed_sign_coefficients():
    assert ExactScalar(3, -2).real_sign() == 1
    assert ExactScalar(-3, 2).real_sign() == -1
    assert ExactScalar(10, -7).real_sign() == 1
    assert ExactScalar(-10, 7).real_sign() == -1
    assert ExactScalar(0, 0).real_sign() == 0
    assert (SQRT2 - Fraction(7, 5)).real_sign() == 1
    assert (SQRT2 - Fraction(3, 2)).real_sign() == -1
    assert (ExactScalar(Fraction(99, 70)) - SQRT2).real_sign() == 1
    assert (ExactScalar(Fraction(140, 99)) - SQRT2).real_sign() == -1


@given(real_scalars, real_scalars)
def test_ordering_is_total_and_respects_addition(x, y):
    sign = (x - y).real_sign()
    assert (y - x).real_sign() == -sign
    assert ((x + ONE) - (y + ONE)).real_sign() == sign
    assert (sign == 0) == (x == y)


def test_comparisons_reject_nonreal_elements():
    with pytest.raises(ValueError):
        I.real_sign()
    with pytest.raises(ValueError):
        (I - ONE).real_sign()


# -- rendering and parsing -----------------------------------------------------

def test_canonical_form_is_fixed_width():
    assert ZERO.canonical() == "0 + 0*r2 + i*(0 + 0*r2)"
    assert ExactScalar(1, 2, 3, 4).canonical() == "1 + 2*r2 + i*(3 + 4*r2)"
    x = ExactScalar(Fraction(-1, 3), 0, Fraction(5, 2))
    assert x.canonical() == "-1/3 + 0*r2 + i*(5/2 + 0*r2)"


def test_compact_rendering():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(INV_SQRT2) == "1/2*r2"
    assert str(I) == "i*1"
    assert str(ONE + I) == "1 + i*1"
    assert str(ExactScalar(1, 2, 3, 4)) == "1 + 2*r2 + i*(3 + 4*r2)"


@given(scalars)
def test_parse_inverts_canonical(x):
    assert parse_scalar(x.canonical()) == x


def test_parse_accepts_bare_rationals():
    assert parse_scalar("7") == coerce(7)
    assert parse_scalar("-3/4") == coerce(Fraction(-3, 4))
    with pytest.raises(ValueError):
        parse_scalar("1 + r2")
    with pytest.raises(ValueError):
        parse_scalar("")


def test_coerce_rejects_foreign_types():
    with pytest.raises(TypeError):
        coerce(1.5)
    with pytest.raises(TypeError):
        coerce("1")
    assert coerce(ONE) is ONE


# -- exact square roots --------------------------------------------------------

def test_real_sqrt_on_known_values():
    assert real_sqrt(coerce(2)) == SQRT2
    assert real_sqrt(coerce(Fraction(9, 4))) == coerce(Fraction(3, 2))
    assert real_sqrt(coerce(Fraction(1, 2))) == INV_SQRT2
    assert real_sqrt(ExactScalar(3, 2)) == ONE + SQRT2
    assert real_sqrt(ZERO) == ZERO


def test_real_sqrt_returns_none_outside_the_field():
    assert real_sqrt(coerce(3)) is None
    assert real_sqrt(coerce(-1)) is None
    assert real_sqrt(ExactScalar(0, -1)) is None
    with pytest.raises(ValueError):
        real_sqrt(I)


@given(real_scalars)
def test_real_sqrt_inverts_squaring(x):
    root = real_sqrt(x * x)
    assert root is not None
    assert root * root == x * x
    assert root.real_sign() >= 0


# -- fast paths agree with the definition --------------------------------------

@given(scalars, scalars)
def test_multiplication_fast_paths_match_componentwise_formula(x, y):
    a1, b1, c1, d1 = x.a, x.b, x.c, x.d
    a2, b2, c2, d2 = y.a, y.b, y.c, y.d
    re1, im1 = (a1, b1), (c1, d1)
    re2, im2 = (a2, b2), (c2, d2)

    def times(p, q):
        return (p[0] * q[0] + 2 * p[1] * q[1], p[0] * q[1] + p[1] * q[0])

    def plus(p, q):
        return (p[0] + q[0], p[1] + q[1])

    def minus(p, q):
        return (p[0] - q[0], p[1] - q[1])

    re = minus(times(re1, re2), times(im1, im2))
    im = plus(times(re1, im2), times(im1, re2))
    assert x * y == ExactScalar(re[0], re[1], im[0], im[1])


# -- exact matrices ------------------------------------------------------------

matrix_entries = st.fractions(min_value=-5, max_value=5, max_denominator=3)


def matrices(n, m):
    return st.lists(
        st.lists(st.builds(ExactScalar, matrix_entries), min_size=m,
                 max_size=m),
        min_size=n, max_size=n).map(ExactMatrix)


@given(matrices(3, 3), matrices(3, 3), matrices(3, 2))
@settings(max_examples=25)
def test_matrix_product_is_associative_and_distributive(a, b, c):
    assert (a @ b) @ c == a @ (b @ c)
    assert (a + b) @ c == a @ c + b @ c


@given(matrices(3, 3), matrices(3, 3))
@settings(max_examples=50)
def test_subtraction_adds_the_negative_and_stores_no_zeros(a, b):
    for diff in (a - b, a - a, b - (b + a)):
        assert all(not x.is_zero() for _, x in diff.items())
    assert a - b == a + (-b)
    assert (a - a).is_zero()
    assert b - (b + a) == -a
    with pytest.raises(ValueError, match="shape mismatch"):
        a - b.select_columns([0, 1])


@given(matrices(3, 4))
@settings(max_examples=50)
def test_rank_nullity(m):
    assert m.rank() + len(m.nullspace()) == m.ncols


@given(matrices(3, 4))
@settings(max_examples=50)
def test_nullspace_vectors_are_annihilated(m):
    for v in m.nullspace():
        assert (m @ v).is_zero()


@given(matrices(3, 3))
@settings(max_examples=50)
def test_inverse_roundtrip(m):
    if m.rank() < 3:
        with pytest.raises(ValueError):
            m.inverse()
    else:
        assert m @ m.inverse() == ExactMatrix.identity(3)
        assert m.inverse() @ m == ExactMatrix.identity(3)


@given(matrices(3, 3), matrices(3, 1))
@settings(max_examples=25)
def test_solve_produces_exact_solutions(a, b):
    if a.rank() == 3:
        x = a.inverse() @ b
        assert a @ x == b


@given(matrices(2, 2), matrices(2, 2), matrices(2, 2), matrices(2, 2))
@settings(max_examples=25)
def test_kron_is_multiplicative(a, b, c, d):
    assert (a @ c).kron(b @ d) == a.kron(b) @ c.kron(d)


def test_kron_with_sqrt2_entries_stays_exact():
    a = ExactMatrix([[INV_SQRT2, ZERO], [ZERO, SQRT2]])
    k = a.kron(ExactMatrix.identity(2))
    assert k[0, 0] * k[2, 2] == ONE
    assert k.trace() == INV_SQRT2 + INV_SQRT2 + SQRT2 + SQRT2


def test_char_poly_on_a_known_matrix():
    m = ExactMatrix([[coerce(2), ONE], [ONE, coerce(2)]])
    # x^2 - 4x + 3, lowest degree first
    assert m.char_poly() == [coerce(3), coerce(-4), ONE]


@given(matrices(3, 3))
@settings(max_examples=25)
def test_char_poly_annihilates_the_matrix(m):
    coeffs = m.char_poly()
    acc = ExactMatrix.zeros(3, 3)
    power = ExactMatrix.identity(3)
    for c in coeffs:
        acc = acc + power * c
        power = power @ m
    assert acc.is_zero()


# -- independent oracle: sympy's exact matrices over the same field ------------

field_entries = st.one_of(st.just(ZERO), small_scalars)


def field_matrices(n, m):
    return st.lists(st.lists(field_entries, min_size=m, max_size=m),
                    min_size=n, max_size=n).map(ExactMatrix)


def with_zero_rows(m):
    """m with a row of zeros before, between and after its rows."""
    zero = [ZERO] * m.ncols
    return ExactMatrix([zero] + [r for row in m.rows for r in (row, zero)])


@pytest.fixture(scope="module")
def sympy_field():
    """sympy's Q(sqrt2, i) and the map sending a scalar to its element,
    built from the scalar's four rational components."""
    sympy = pytest.importorskip("sympy")
    field = sympy.QQ.algebraic_field(sympy.sqrt(2), sympy.I)
    sqrt2, i = field.from_sympy(sympy.sqrt(2)), field.from_sympy(sympy.I)

    def rational(q):
        return field.convert_from(sympy.QQ(q.numerator, q.denominator), sympy.QQ)

    def element(x):
        return (rational(x.a) + rational(x.b) * sqrt2
                + i * (rational(x.c) + rational(x.d) * sqrt2))
    return field, element


@given(x=mixed_scalars, y=mixed_scalars)
@settings(max_examples=200, deadline=None)
def test_scalar_arithmetic_agrees_with_sympy_field(sympy_field, x, y):
    field, element = sympy_field
    ex, ey = element(x), element(y)
    assert element(x + y) == ex + ey
    assert element(x - y) == ex - ey
    assert element(x * y) == ex * ey
    if not x.is_zero():
        assert element(x.inverse()) == field.one / ex
    if not y.is_zero():
        assert element(x / y) == ex / ey


@given(mixed_scalars, mixed_scalars)
def test_equal_values_share_one_canonical_form(x, y):
    def same(u, v):
        assert u == v
        assert hash(u) == hash(v)
        assert (u.a, u.b, u.c, u.d) == (v.a, v.b, v.c, v.d)

    same(ExactScalar(Fraction(2, 4)), HALF)
    same(ExactScalar("3/6"), HALF)
    same(ONE / 2, HALF)
    same(coerce(-2).inverse(), -HALF)
    same(x - x + HALF, HALF)
    same(x - x, ZERO)
    same(x * ExactScalar(Fraction(6, 3)), x + x)
    if not y.is_zero():
        same((x * y) / y, x)
        same((y * HALF).inverse(), y.inverse() * 2)
        same(-(y.inverse()), (-y).inverse())


@given(a=field_matrices(3, 4), b=field_matrices(3, 4), c=field_matrices(4, 2),
       z=field_matrices(3, 4).map(with_zero_rows))
@settings(max_examples=30, deadline=None)
def test_matrix_layer_agrees_with_sympy_domain_matrices(sympy_field, a, b, c, z):
    from sympy.polys.matrices import DomainMatrix
    field, element = sympy_field

    def entries(m):
        return [[element(x) for x in row] for row in m.rows]

    def convert(m):
        return DomainMatrix(entries(m), m.shape, field)

    sa, sb, sc = convert(a), convert(b), convert(c)
    assert entries(a @ c) == (sa * sc).to_list()
    assert entries(a + b) == (sa + sb).to_list()
    assert entries(a.transpose()) == sa.transpose().to_list()
    blocks = [[sc.scalarmul(x) for x in row] for row in sa.to_list()]
    block_rows = [row[0].hstack(*row[1:]) for row in blocks]
    assert entries(a.kron(c)) == block_rows[0].vstack(*block_rows[1:]).to_list()
    assert a.rank() == sa.rank()

    reduced, pivots = a.rref()
    sympy_reduced, sympy_pivots = sa.rref()
    assert entries(reduced) == sympy_reduced.to_list()
    assert tuple(pivots) == tuple(sympy_pivots)
    kernel = sympy_reduced.nullspace_from_rref(sympy_pivots)
    assert [[element(x) for x in v.col(0)] for v in a.nullspace()] == kernel.to_list()

    # zero rows between nonzero ones, which elimination sets aside
    reduced, pivots = z.rref()
    sympy_reduced, sympy_pivots = convert(z).rref()
    assert entries(reduced) == sympy_reduced.to_list()
    assert tuple(pivots) == tuple(sympy_pivots)
    kernel = sympy_reduced.nullspace_from_rref(sympy_pivots)
    assert [[element(x) for x in v.col(0)] for v in z.nullspace()] == kernel.to_list()


@given(field_matrices(3, 5).map(with_zero_rows), st.permutations(range(5)),
       st.lists(st.integers(0, 5), max_size=4))
@settings(max_examples=30)
def test_column_blocks_keep_only_nonzero_rows(m, order, cuts):
    bounds = [0] + sorted(cuts) + [5]
    groups = [order[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    # the first group's columns are left out
    blocks = m.column_blocks(groups[1:])
    assert len(blocks) == len(groups) - 1
    for group, block in zip(groups[1:], blocks):
        full = m.select_columns(group)
        kept = [row for row in full.rows if any(not x.is_zero() for x in row)]
        assert block == ExactMatrix.from_entries(
            len(kept), len(group),
            {(i, j): x for i, row in enumerate(kept) for j, x in enumerate(row)})
        assert block.nullspace() == full.nullspace()
    with pytest.raises(ValueError):
        m.column_blocks([[0], [0]])
    with pytest.raises(ValueError):
        m.column_blocks([[5]])
