"""Spin modules: polarizations, gamma matrices, and tensor factorizations."""

import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracembed import (CliffordElement, ExactMatrix, HALF, I, INV_SQRT2, ONE,
                        Polarization, QuadraticSpace, SQRT2, SpinModule, ZERO,
                        coerce, combine_spin_modules,
                        graded_tensor_action, inject_element, mult_iso,
                        standard_polarization)

SLICE_SPACE = QuadraticSpace(("T1", "T2"), (1, 1))
ODD_SPACE = QuadraticSpace(("Z",), (-1,))


def all_monomials(space):
    out = []
    for r in range(space.dim + 1):
        out.extend(combinations(range(space.dim), r))
    return out


# -- polarizations ---------------------------------------------------------------

def test_standard_polarization_structure():
    pol = standard_polarization(SLICE_SPACE)
    assert pol.odd is None
    assert pol.plus == ((INV_SQRT2, I * INV_SQRT2),)
    assert pol.minus == ((INV_SQRT2, -I * INV_SQRT2),)


def test_standard_polarization_mixed_signature():
    space = QuadraticSpace(("A", "B", "C"), (1, -1, -1))
    pol = standard_polarization(space)
    assert pol.odd is not None
    # plus/minus vectors are isotropic and pair to the identity
    for v in pol.plus + pol.minus:
        assert space.form(v, v) == ZERO
    assert space.form(pol.plus[0], pol.minus[0]) == ONE
    assert space.form(pol.odd, pol.odd) in (ONE, -ONE)


def test_polarization_rejects_bad_pairings():
    with pytest.raises(ValueError):
        Polarization(SLICE_SPACE, [(ONE, ZERO)], [(ONE, ZERO)])
    with pytest.raises(ValueError):
        Polarization(SLICE_SPACE, [(INV_SQRT2, I * INV_SQRT2)],
                     [(INV_SQRT2, I * INV_SQRT2)])


def _sum(u, v):
    return tuple(x + y for x, y in zip(u, v))


# the standard polarization of four positive generators, and of three:
# plus u_k = (e + i e')/sqrt2 pairs to 1 with minus v_k = (e - i e')/sqrt2
S = INV_SQRT2
U1, U2 = (S, I * S, ZERO, ZERO), (ZERO, ZERO, S, I * S)
V1, V2 = (S, -I * S, ZERO, ZERO), (ZERO, ZERO, S, -I * S)
U, V, E3 = (S, I * S, ZERO), (S, -I * S, ZERO), (ZERO, ZERO, ONE)
FOUR_SPACE = QuadraticSpace(("A", "B", "C", "D"), (1, 1, 1, 1))
THREE_SPACE = QuadraticSpace(("A", "B", "C"), (1, 1, 1))

BAD_POLARIZATIONS = {
    "unequal-parts": (SLICE_SPACE, [U[:2]], [], None,
                      "plus and minus parts must have equal dimension"),
    "not-exhausted": (THREE_SPACE, [U], [V], None,
                      "polarization does not exhaust the space"),
    # u1 + v2 pairs to 1 with u2, and the pairing stays the identity
    "plus-not-isotropic": (FOUR_SPACE, [_sum(U1, V2), U2], [V1, V2], None,
                           "plus 0 and plus 1 pair to 1, not 0"),
    "minus-not-isotropic": (FOUR_SPACE, [U1, U2], [V1, _sum(V2, U1)], None,
                            "minus 0 and minus 1 pair to 1, not 0"),
    "pairing-not-identity": (SLICE_SPACE, [U[:2]], [(SQRT2, -I * SQRT2)],
                             None, "minus 0 and plus 0 pair to 2, not 1"),
    "odd-norm-two": (QuadraticSpace(("A",), (1,)), [], [], (SQRT2,),
                     "odd vector has norm 2, not +-1"),
    # e3 + v has norm 1 and pairs to 1 with u; e3 + u likewise with v
    "odd-meets-plus": (THREE_SPACE, [U], [V], _sum(E3, V),
                       "plus 0 and odd vector pair to 1, not 0"),
    "odd-meets-minus": (THREE_SPACE, [U], [V], _sum(E3, U),
                        "minus 0 and odd vector pair to 1, not 0"),
}


@pytest.mark.parametrize("case", BAD_POLARIZATIONS)
def test_polarization_names_each_failure(case):
    space, plus, minus, odd, message = BAD_POLARIZATIONS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Polarization(space, plus, minus, odd)


@pytest.mark.parametrize("length", [2, 4], ids=["short", "long"])
@pytest.mark.parametrize("part", ["plus 0", "minus 0", "odd vector"])
def test_polarization_rejects_wrong_length_vectors(part, length):
    parts = {"plus 0": U, "minus 0": V, "odd vector": E3}
    parts[part] = (parts[part] + (ONE,))[:length]
    with pytest.raises(ValueError, match=f"^{part} has {length} coordinates, "
                                         "but the space has dim 3$"):
        Polarization(THREE_SPACE, [parts["plus 0"]], [parts["minus 0"]],
                     parts["odd vector"])


def _polarization_columns(pol):
    return list(pol.plus + pol.minus) + ([pol.odd] if pol.odd is not None else [])


@given(st.lists(st.sampled_from([1, -1]), min_size=1, max_size=7))
@settings(max_examples=40, deadline=None)
def test_expansion_is_the_inverse_of_the_polarization_basis(signs):
    """Oracle: the expansion read off the duals equals the eliminated
    inverse of [plus | minus | odd], and so do the gamma generators
    expanded over that inverse, wedge, contraction and odd term by term."""
    space = QuadraticSpace([f"E{k}" for k in range(len(signs))], signs)
    pol = standard_polarization(space)
    inverse = ExactMatrix.from_columns(_polarization_columns(pol),
                                       space.dim).inverse()
    assert pol.expansion == inverse
    module, n = SpinModule(space, pol), len(pol.plus)
    for i in range(space.dim):
        coeffs = inverse.col(i)
        want = ExactMatrix.zeros(module.dim, module.dim)
        for j in range(n):
            want = (want + module._ladder_matrix(j, True) * coeffs[j]
                    + module._ladder_matrix(j, False) * coeffs[n + j])
        if pol.odd is not None:
            want = want + module._odd_matrix() * coeffs[2 * n]
        assert module.gamma_generator(i) == want


# -- gamma matrices ----------------------------------------------------------------

SPIN_SPACES = [
    QuadraticSpace(("A",), (1,)),
    ODD_SPACE,
    SLICE_SPACE,
    QuadraticSpace(("A", "B"), (-1, -1)),
    QuadraticSpace(("A", "B", "C"), (1, 1, -1)),
    QuadraticSpace(("A", "B", "C", "D"), (1, -1, 1, -1)),
]


@pytest.mark.parametrize("space", SPIN_SPACES,
                         ids=lambda s: "".join(str(x) for x in s.signs))
def test_gamma_satisfies_the_clifford_relation(space):
    module = SpinModule(space)
    ident = ExactMatrix.identity(module.dim)
    for i in range(space.dim):
        gi = module.gamma_generator(i)
        for j in range(space.dim):
            gj = module.gamma_generator(j)
            want = ident * coerce(space.signs[i]) if i == j else \
                ExactMatrix.zeros(module.dim, module.dim)
            assert gi @ gj + gj @ gi == want


@pytest.mark.parametrize("space", SPIN_SPACES[:4],
                         ids=lambda s: "".join(str(x) for x in s.signs))
def test_gamma_is_multiplicative_on_monomials(space):
    module = SpinModule(space)
    monos = [CliffordElement.monomial(space, m) for m in all_monomials(space)]
    for a in monos:
        for b in monos:
            assert module.gamma(a * b) == module.gamma(a) @ module.gamma(b)


def test_spin_dimension_is_two_to_the_isotropic_rank():
    assert SpinModule(SLICE_SPACE).dim == 2
    assert SpinModule(ODD_SPACE).dim == 1
    assert SpinModule(QuadraticSpace(("A", "B", "C"), (1, 1, -1))).dim == 2


# -- frozen action values ------------------------------------------------------------
# The slice spinor matrices, derived by hand from wedge/contraction on the
# standard polarization with basis (vacuum, u).

def test_slice_generator_matrices():
    module = SpinModule(SLICE_SPACE)
    assert module.basis == [(), (0,)]
    assert module.gamma_generator(0) == ExactMatrix(
        [[ZERO, INV_SQRT2], [INV_SQRT2, ZERO]])
    assert module.gamma_generator(1) == ExactMatrix(
        [[ZERO, I * INV_SQRT2], [-I * INV_SQRT2, ZERO]])


def test_slice_degree_two_action_is_diagonal():
    module = SpinModule(SLICE_SPACE)
    elt = CliffordElement.monomial(SLICE_SPACE, (0, 1))
    assert module.gamma(elt) == ExactMatrix(
        [[-I * HALF, ZERO], [ZERO, I * HALF]])


def test_odd_generator_acts_by_a_parity_scalar():
    neg = SpinModule(ODD_SPACE)
    assert neg.gamma_generator(0) == ExactMatrix([[I * INV_SQRT2]])
    pos = SpinModule(QuadraticSpace(("Z",), (1,)))
    assert pos.gamma_generator(0) == ExactMatrix([[INV_SQRT2]])


def test_odd_generator_alternates_with_degree():
    space = QuadraticSpace(("A", "B", "C"), (1, 1, -1))
    module = SpinModule(space)
    gz = module.gamma_generator(2)
    # diagonal, with opposite scalars on the even and odd exterior degrees
    vac, top = module.index[()], module.index[(0,)]
    assert gz[vac, vac] == -gz[top, top]
    assert gz[vac, top] == ZERO


# -- tensor products --------------------------------------------------------------------

def test_graded_tensor_action_koszul_sign():
    ma = SpinModule(SLICE_SPACE)
    mb = SpinModule(ODD_SPACE)
    c = CliffordElement.generator(SLICE_SPACE, 0)
    d = CliffordElement.generator(ODD_SPACE, 0)
    unit_a = CliffordElement.unit(SLICE_SPACE)
    # basis pairs in kron order: (vacuum, vacuum), (u, vacuum); odd d acts
    # by i/sqrt2, and past the odd factor u with the Koszul sign -1
    assert graded_tensor_action(unit_a, d, ma, mb) == ExactMatrix(
        [[I * INV_SQRT2, ZERO], [ZERO, -I * INV_SQRT2]])
    # mixed action factors through the two sides
    assert graded_tensor_action(c, d, ma, mb) == ExactMatrix(
        [[ZERO, -I * HALF], [I * HALF, ZERO]])


def test_combine_requires_even_first_factor():
    joint_space = QuadraticSpace(("T1", "T2", "Z"), (1, 1, -1))
    with pytest.raises(ValueError):
        combine_spin_modules(SpinModule(ODD_SPACE), SpinModule(SLICE_SPACE),
                             joint_space)


C_ELTS = [CliffordElement.unit(SLICE_SPACE),
          CliffordElement.generator(SLICE_SPACE, 0),
          CliffordElement.generator(SLICE_SPACE, 1)]
D_ELTS = [CliffordElement.unit(ODD_SPACE),
          CliffordElement.generator(ODD_SPACE, 0)]


def test_combined_module_factorizes_the_action():
    joint_space = QuadraticSpace(("Z", "T1", "T2"), (-1, 1, 1))
    ma = SpinModule(SLICE_SPACE)
    mb = SpinModule(ODD_SPACE)
    joint = combine_spin_modules(ma, mb, joint_space)
    assert joint.dim == ma.dim * mb.dim

    iso = mult_iso(ma, mb, joint)
    for c in C_ELTS:
        for d in D_ELTS:
            joint_elt = inject_element(c, joint_space) * \
                inject_element(d, joint_space)
            assert iso @ graded_tensor_action(c, d, ma, mb) == \
                joint.gamma(joint_elt) @ iso


def test_factorization_needs_the_koszul_sign():
    """Negative control: dropping the parity factor breaks the identity."""
    joint_space = QuadraticSpace(("Z", "T1", "T2"), (-1, 1, 1))
    ma = SpinModule(SLICE_SPACE)
    mb = SpinModule(ODD_SPACE)
    joint = combine_spin_modules(ma, mb, joint_space)
    iso = mult_iso(ma, mb, joint)
    broken = [(c, d) for c in C_ELTS for d in D_ELTS
              if iso @ ma.gamma(c).kron(mb.gamma(d)) !=
              joint.gamma(inject_element(c, joint_space)
                          * inject_element(d, joint_space)) @ iso]
    assert broken == [(c, D_ELTS[1]) for c in C_ELTS]


def test_mult_iso_concatenates_monomials():
    even_space = QuadraticSpace(("A", "B"), (-1, -1))
    joint_space = QuadraticSpace(("A", "B", "T1", "T2"), (-1, -1, 1, 1))
    ma = SpinModule(SLICE_SPACE)
    mb = SpinModule(even_space)
    joint = combine_spin_modules(ma, mb, joint_space)
    iso = mult_iso(ma, mb, joint)
    assert iso.shape == (joint.dim, ma.dim * mb.dim)
    entries = dict(iso.items())
    assert set(entries.values()) == {ONE}
    assert sorted(i for i, _ in entries) == list(range(joint.dim))
    assert sorted(j for _, j in entries) == list(range(joint.dim))
    # s (x) t -> s ^ t, with the second factor's plus vectors after the first's
    assert iso[joint.index[(0,)], ma.index[(0,)] * mb.dim + mb.index[()]] == ONE
    assert iso[joint.index[(1,)], ma.index[()] * mb.dim + mb.index[(0,)]] == ONE
