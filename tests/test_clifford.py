"""Clifford algebras over the exact scalar field and the quantization map."""

from itertools import combinations, product

import pytest

from diracembed import (CliffordElement, HALF, I, INV_SQRT2, ONE,
                        QuadraticSpace, ReductivePair, SQRT2, ZERO,
                        clifford_commutator, coerce,
                        inject_element, sl2, unit_vector, vec_scale)


def space_of(signs):
    return QuadraticSpace(tuple(f"g{k + 1}" for k in range(len(signs))),
                          tuple(signs))


def all_monomials(space):
    out = []
    for r in range(space.dim + 1):
        out.extend(combinations(range(space.dim), r))
    return out


SIGN_PATTERNS = {
    1: (-1,),
    2: (1, 1),
    3: (1, -1, 1),
    4: (-1, -1, 1, 1),
    5: (1, 1, 1, -1, -1),
    6: (1, -1, 1, -1, 1, -1),
}


@pytest.mark.parametrize("dim", sorted(SIGN_PATTERNS))
def test_generator_relations(dim):
    space = space_of(SIGN_PATTERNS[dim])
    gens = [CliffordElement.generator(space, i) for i in range(dim)]
    for i in range(dim):
        for j in range(dim):
            want = (CliffordElement.unit(space, coerce(space.signs[i]))
                    if i == j else CliffordElement.zero(space))
            assert gens[i] * gens[j] + gens[j] * gens[i] == want


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_multiplication_is_associative_on_all_monomials(dim):
    space = space_of(SIGN_PATTERNS[dim])
    basis = [CliffordElement.monomial(space, m) for m in all_monomials(space)]
    for a, b, c in product(basis, repeat=3):
        assert (a * b) * c == a * (b * c)


def test_generator_squares_are_half_the_sign():
    space = space_of((1, -1))
    g1 = CliffordElement.generator(space, 0)
    g2 = CliffordElement.generator(space, 1)
    assert g1 * g1 == CliffordElement.unit(space, HALF)
    assert g2 * g2 == CliffordElement.unit(space, -HALF)
    # orthogonal product squares to minus the product of the half-signs
    assert (g1 * g2) * (g1 * g2) == CliffordElement.unit(
        space, coerce(1) * HALF * HALF)


@pytest.mark.parametrize("u, v, length", [
    ((ONE,), (ONE, ONE), 1), ((ONE, ONE), (ONE, ONE, ONE), 3)],
    ids=["short", "long"])
def test_quadratic_form_rejects_wrong_length_vectors(u, v, length):
    space = QuadraticSpace(("A", "B"), (1, 1))
    with pytest.raises(ValueError, match=f"^vector has {length} coordinates, "
                                         "but the space has dim 2$"):
        space.form(u, v)


def test_quadratic_form_values():
    space = space_of((1, -1, 1))
    e1 = (ONE, ZERO, ZERO)
    e2 = (ZERO, ONE, ZERO)
    mixed = (SQRT2, I, ZERO)
    assert space.form(e1, e1) == ONE
    assert space.form(e2, e2) == -ONE
    assert space.form(e1, e2) == ZERO
    assert space.form(mixed, mixed) == coerce(2) - I * I


def test_vector_and_coefficient_accessors():
    space = space_of((1, 1, -1))
    coords = (SQRT2, ZERO, I)
    v = CliffordElement.vector(space, coords)
    assert v.terms == {(0,): SQRT2, (2,): I}
    u = CliffordElement.unit(space, INV_SQRT2)
    assert u.terms == {(): INV_SQRT2}


def test_parity_and_degree_parts():
    space = space_of((1, 1))
    x = (CliffordElement.unit(space)
         + CliffordElement.generator(space, 0)
         + CliffordElement.monomial(space, (0, 1), SQRT2))
    assert x.even_part() + x.odd_part() == x
    assert x.odd_part().terms and all(len(m) % 2 == 1 for m in x.odd_part().terms)


def test_vector_anticommutator_reproduces_the_form():
    space = space_of((1, -1, 1, -1))
    u_coords, v_coords = (ONE, SQRT2, ZERO, I), (HALF, ZERO, I, ONE)
    u = CliffordElement.vector(space, u_coords)
    v = CliffordElement.vector(space, v_coords)
    pairing = space.form(u_coords, v_coords)
    assert u * v + v * u == CliffordElement.unit(space, pairing)


def test_chevalley_transpose_of_degree_two():
    space = space_of((1, 1, -1))
    x_coords, y_coords = (ONE, SQRT2, ZERO), (ZERO, I, ONE)
    x = CliffordElement.vector(space, x_coords)
    y = CliffordElement.vector(space, y_coords)
    j = (x * y - y * x).scaled(HALF)
    # degree-2 part of xy with the scalar trace removed
    assert j == x * y - CliffordElement.unit(space, space.form(x_coords, y_coords) * HALF)
    assert () not in j.terms


def test_commutator_with_degree_two_preserves_degree_one():
    space = space_of((1, 1, 1))
    x = CliffordElement.vector(space, (ONE, ZERO, SQRT2))
    y = CliffordElement.vector(space, (I, ONE, ZERO))
    v = CliffordElement.vector(space, (HALF, I, ONE))
    out = clifford_commutator((x * y - y * x).scaled(HALF), v)
    assert all(len(m) == 1 for m in out.terms)


def test_inject_element_is_multiplicative():
    small = QuadraticSpace(("A", "C"), (1, -1))
    big = QuadraticSpace(("A", "B", "C"), (1, 1, -1))
    a = CliffordElement.generator(small, 0)
    c = CliffordElement.generator(small, 1)
    x = a * c + CliffordElement.unit(small, SQRT2)
    y = c.scaled(I) + a
    assert inject_element(x * y, big) == \
        inject_element(x, big) * inject_element(y, big)
    assert inject_element(a, big) == CliffordElement.generator(big, 0)
    assert inject_element(c, big) == CliffordElement.generator(big, 2)


def test_inject_element_requires_matching_signs():
    small = QuadraticSpace(("A",), (1,))
    flipped = QuadraticSpace(("A", "B"), (-1, 1))
    with pytest.raises(ValueError):
        inject_element(CliffordElement.generator(small, 0), flipped)


def test_reductive_pair_alpha_satisfies_the_bracket_identity():
    g = sl2()
    h = unit_vector(g.dim, 0)
    x1 = vec_scale(INV_SQRT2, (ZERO, ONE, ONE))
    x2 = vec_scale(I * INV_SQRT2, (ZERO, ONE, -ONE))
    pair = ReductivePair(g, [h], [x1, x2], ("P1", "P2"))
    for x in (h,):
        ax = pair.alpha(x)
        assert ax.even_part() == ax
        for y in (x1, x2):
            got = clifford_commutator(ax, pair.vector_element(y))
            assert got == pair.vector_element(g.bracket(x, y))


def test_symmetric_pair_has_vanishing_cubic_element():
    g = sl2()
    h = unit_vector(g.dim, 0)
    x1 = vec_scale(INV_SQRT2, (ZERO, ONE, ONE))
    x2 = vec_scale(I * INV_SQRT2, (ZERO, ONE, -ONE))
    pair = ReductivePair(g, [h], [x1, x2], ("P1", "P2"))
    assert pair.cubic_element().is_zero()


def test_expand_recovers_exact_coordinates():
    g = sl2()
    h = unit_vector(g.dim, 0)
    x1 = vec_scale(INV_SQRT2, (ZERO, ONE, ONE))
    x2 = vec_scale(I * INV_SQRT2, (ZERO, ONE, -ONE))
    pair = ReductivePair(g, [h], [x1, x2], ("P1", "P2"))
    coords = pair.expand(vec_scale(SQRT2, x1))
    assert coords == (SQRT2, ZERO)
    with pytest.raises(ValueError):
        pair.expand(h)


def test_reductive_pair_rejects_wrong_length_vectors():
    g = sl2()
    # h / sqrt2 cut to (1/sqrt2, 0) still has norm 1 over the first two
    # coordinates, so a zip-based form would accept it
    with pytest.raises(ValueError,
                       match=r"^complement vector H has 2 coordinates, not 3$"):
        ReductivePair(g, [], [(INV_SQRT2, ZERO)], ("H",))
    with pytest.raises(ValueError,
                       match=r"^acting vector 0 has 4 coordinates, not 3$"):
        ReductivePair(g, [(ONE, ZERO, ZERO, ZERO)], [(INV_SQRT2, ZERO, ZERO)],
                      ("H",))


def test_reductive_pair_rejects_a_complement_vector_of_wrong_norm():
    g = sl2()
    x1 = vec_scale(INV_SQRT2, (ZERO, ONE, ONE))
    x2 = vec_scale(I * INV_SQRT2, (ZERO, ONE, -ONE))
    with pytest.raises(ValueError,
                       match=r"^complement vector P1 has norm 2, not \+-1$"):
        ReductivePair(g, [unit_vector(3, 0)], [vec_scale(SQRT2, x1), x2],
                      ("P1", "P2"))


def test_reductive_pair_rejects_complement_vectors_not_orthogonal():
    g = sl2()
    x1 = vec_scale(INV_SQRT2, (ZERO, ONE, ONE))
    with pytest.raises(ValueError,
                       match=r"^complement vectors P1, P2 not orthogonal$"):
        ReductivePair(g, [unit_vector(3, 0)], [x1, x1], ("P1", "P2"))


def test_alpha_rejects_a_complement_that_is_not_ad_stable():
    g = sl2()
    e = unit_vector(3, 1)
    # [e, h] = -2e leaves the span of h / sqrt2
    pair = ReductivePair(g, [e], [vec_scale(INV_SQRT2, unit_vector(3, 0))], ("H",))
    with pytest.raises(ValueError, match=r"^complement is not ad-stable: \[x, H\]"):
        pair.alpha(e)
