"""The rank-one transitive triple: eigenstructure, slice maps, invariants."""

import math
import re
import time
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracembed import (CliffordElement, ExactMatrix, ExactScalar, I,
                        LieAlgebra, ONE, SQRT2, TransitiveTriple,
                        TripleStructureError, ZERO, beta_action,
                        build_sl2_triple, clifford_commutator, coerce,
                        dump_triple_description, omega_rescaling_cases,
                        omega_value, parse_triple_description, solve_in_span,
                        sl2_irrep, unit_vector, vec_is_zero, vec_scale,
                        vec_sub, verify_embedding)
from diracembed.scalars import rational_roots


@pytest.fixture(scope="module")
def triple():
    return build_sl2_triple()


# -- structure ------------------------------------------------------------------

def test_subspace_dimensions(triple):
    assert triple.algebra.dim == 6
    assert len(triple.h_basis) == 3
    assert len(triple.l_basis) == 4
    assert len(triple.zq_basis) == 1
    assert len(triple.t_basis) == 2
    assert len(triple.l_h_basis) == 1
    assert len(triple.h_k_basis) == 1
    assert triple.ql_labels == ("Z", "T1", "T2")


def test_slice_complement_signature(triple):
    g = triple.algebra
    z = triple.zq_basis[0]
    t1, t2 = triple.t_basis
    assert g.form_value(z, z) == -ONE
    assert g.form_value(t1, t1) == ONE
    assert g.form_value(t2, t2) == ONE
    assert g.form_value(t1, t2) == ZERO
    assert g.form_value(z, t1) == ZERO
    assert triple.space_ql.signs == (-1, 1, 1)
    assert triple.space_ls.signs == (1, 1)
    assert triple.space_qlp.signs == (-1,)


def test_eigenvalue_decomposition(triple):
    mults = sorted((str(nu), len(basis)) for nu, basis in triple.nu_spaces)
    assert mults == [("-1", 1), ("0", 2), ("1", 1)]
    assert triple.nu_of(triple.zq_basis[0]) == -ONE
    assert triple.nu_of(triple.t_basis[0]) == ZERO
    assert triple.nu_of(triple.l_h_basis[0]) == ONE


def test_weight_factors(triple):
    assert triple.d[ZERO] == SQRT2
    assert triple.d[-ONE] == ONE


def test_rho_minus_fixes_z_and_rho_plus_kills_it(triple):
    z = triple.zq_basis[0]
    assert vec_is_zero(vec_sub(triple.rho(-1, z), z))
    assert vec_is_zero(triple.rho(1, z))


def test_rho_split_identity_on_the_noncompact_part(triple):
    for t in triple.t_basis:
        split = vec_sub(vec_scale(SQRT2, t), triple.rho(1, t))
        assert vec_is_zero(vec_sub(triple.rho(-1, t), split))


def test_rho_plus_lands_isometrically_in_h(triple):
    g = triple.algebra
    for t in triple.t_basis:
        img = triple.rho(1, t)
        assert solve_in_span(triple.h_basis, [img]) is not None
        assert g.form_value(img, img) == g.form_value(t, t)


def test_rho_minus_is_an_isometry_onto_the_complement(triple):
    g = triple.algebra
    basis = triple.zq_basis + triple.t_basis
    for x in basis:
        for y in basis:
            assert g.form_value(triple.rho(-1, x), triple.rho(-1, y)) == \
                g.form_value(x, y)


def test_slice_vectors_commute_with_their_sigma_image(triple):
    g = triple.algebra
    for v in triple.zq_basis + triple.t_basis:
        sigma_v = tuple(
            sum((triple.sigma[i, j] * c for j, c in enumerate(v)),
                start=ZERO) for i in range(g.dim))
        assert vec_is_zero(g.bracket(v, sigma_v))


# -- the quantization maps across all five pairs ---------------------------------

def test_alpha_commutators_reproduce_brackets(triple):
    g = triple.algebra
    pairs = [triple.pair_g_h, triple.pair_l_lh, triple.pair_l_lk,
             triple.pair_lk_lh, triple.pair_h_hk]
    for pair in pairs:
        for x in pair.acting_basis:
            ax = pair.alpha(x)
            for y in pair.complement_basis:
                got = clifford_commutator(ax, pair.vector_element(y))
                assert got == pair.vector_element(g.bracket(x, y))


def test_alpha_is_a_lie_homomorphism(triple):
    g = triple.algebra
    for pair in (triple.pair_g_h, triple.pair_l_lh):
        for x in pair.acting_basis:
            for y in pair.acting_basis:
                lhs = clifford_commutator(pair.alpha(x), pair.alpha(y))
                assert lhs == pair.alpha(g.bracket(x, y))


def test_cubic_element_of_the_slice_pair(triple):
    cubic = triple.pair_l_lh.cubic_element()
    assert str(cubic) == "-1*Z*T1*T2"
    assert cubic.terms == {(0, 1, 2): -ONE}
    assert triple.pair_g_h.cubic_element().is_zero()


def test_omega_rescaling_with_slice_weights(triple):
    cases = omega_rescaling_cases(triple)
    assert len(cases) == 27
    for lhs, rhs in cases:
        assert lhs == rhs
    nonzero = [lhs for lhs, _ in cases if not lhs.is_zero()]
    assert len(nonzero) == 4


def test_omega_is_alternating(triple):
    z = triple.zq_basis[0]
    t1, t2 = triple.t_basis
    assert omega_value(triple, t1, z, t2) == \
        -omega_value(triple, z, t1, t2)
    assert omega_value(triple, t1, t1, t2) == ZERO
    # [Z, T1] = T2, so the one essential value on the preferred basis is 1
    assert omega_value(triple, z, t1, t2) == ONE


# -- constructor validation -------------------------------------------------------

def test_triple_rejects_non_involutive_sigma(triple):
    g = triple.algebra
    bad = triple.sigma * SQRT2
    with pytest.raises(TripleStructureError, match=r"^sigma is not an involution$"):
        TransitiveTriple(g, bad, triple.theta, triple.h_basis, triple.l_basis)


def test_triple_rejects_wrong_h(triple):
    g = triple.algebra
    short = triple.h_basis[:2]
    with pytest.raises(TripleStructureError,
                       match=r"^h basis does not span the fixed space$"):
        TransitiveTriple(g, triple.sigma, triple.theta, short, triple.l_basis)


def test_triple_rejects_non_subalgebra_l(triple):
    g = triple.algebra
    bad_l = [unit_vector(6, 1), unit_vector(6, 2), unit_vector(6, 3),
             unit_vector(6, 4)]
    with pytest.raises(TripleStructureError, match=r"^l is not a subalgebra"):
        TransitiveTriple(g, triple.sigma, triple.theta, triple.h_basis, bad_l)


def _sum(*vectors):
    return tuple(sum(parts, ZERO) for parts in zip(*vectors))


def _units(*indices):
    return [unit_vector(6, k) for k in indices]


STRUCTURE_MESSAGES = [
    "h basis vector not sigma-fixed", "h is not theta stable",
    "h basis is dependent", "l basis is dependent", "l is not theta stable",
    "h + l does not span the algebra",
    "l cap h is not contained in the compact part",
    "preferred basis spans the wrong space",
    "preferred basis is not orthonormal up to sign",
]


def _structure_input(triple, message):
    """(h basis, l basis, preferred Z basis) that passes every check before
    the one whose message is given, and fails that one."""
    h, l = triple.h_basis, triple.l_basis
    d0, d1 = h[0], h[1]
    z, t1 = triple.zq_basis[0], triple.t_basis[0]
    return {
        "h basis vector not sigma-fixed": ([unit_vector(6, 0), d1, h[2]], l, None),
        "h is not theta stable": ([_sum(d0, d1)], l, None),
        "h basis is dependent": ([d0, d1, _sum(d0, d1)], l, None),
        "l basis is dependent": (h, _units(0, 1, 2, 0), None),
        "l is not theta stable": (h, _units(0, 1, 2) + [_sum(*_units(3, 4))], None),
        "h + l does not span the algebra": (h, _units(0, 3), None),
        "l cap h is not contained in the compact part": (h, _units(*range(6)), None),
        "preferred basis spans the wrong space": (h, l, [t1]),
        "preferred basis is not orthonormal up to sign": (h, l, [vec_scale(2, z)]),
    }[message]


@pytest.mark.parametrize("message", STRUCTURE_MESSAGES)
def test_triple_structure_checks_name_their_failure(triple, message):
    h, l, zq = _structure_input(triple, message)
    t = triple.t_basis if zq is not None else None
    with pytest.raises(TripleStructureError, match="^" + re.escape(message)):
        TransitiveTriple(triple.algebra, triple.sigma, triple.theta, h, l,
                         zq_basis=zq, t_basis=t)


def test_stability_and_closure_failures_name_the_first_image_outside(triple):
    non_subalgebra = _units(1, 2, 3, 4)          # [e1, f1] = h1 leaves l
    for h, l, want in (
            (*_structure_input(triple, "h is not theta stable")[:2],
             "h is not theta stable: theta of h 0 leaves h"),
            (*_structure_input(triple, "l is not theta stable")[:2],
             "l is not theta stable: theta of l 3 leaves l"),
            (triple.h_basis, non_subalgebra,
             "l is not a subalgebra: [l 0, l 1] leaves l")):
        with pytest.raises(TripleStructureError, match="^" + re.escape(want) + "$"):
            TransitiveTriple(triple.algebra, triple.sigma, triple.theta, h, l)


def _coordinate_failure(triple, message):
    """A call that reaches the coordinate check whose message is given."""
    z, t1 = triple.zq_basis[0], triple.t_basis[0]
    return {
        "vector lies outside l": lambda: triple.rho(1, unit_vector(6, 4)),
        "rho is undefined on the fixed part of l":
            lambda: triple.rho(1, triple.l_h_basis[0]),
        "vector mixes sigma-eigenspaces": lambda: triple.nu_of(_sum(z, t1)),
    }[message]


@pytest.mark.parametrize("message", [
    "vector lies outside l", "rho is undefined on the fixed part of l",
    "vector mixes sigma-eigenspaces"])
def test_coordinate_checks_name_their_failure(triple, message):
    with pytest.raises(TripleStructureError, match="^" + re.escape(message) + "$"):
        _coordinate_failure(triple, message)()


@pytest.mark.parametrize("length", [3, 7])
def test_coordinates_reject_a_vector_of_the_wrong_length(triple, length):
    bad = (ONE,) + (ZERO,) * (length - 1)
    message = f"^vector has {length} coordinates, but the algebra has dim 6$"
    for call in (lambda: triple.rho(1, bad), lambda: triple.nu_of(bad),
                 lambda: triple.h_coordinates([bad])):
        with pytest.raises(ValueError, match=message):
            call()


def test_a_triple_with_an_empty_slice_builds(triple):
    # sigma = 1 makes h everything; l = 0 is transverse to it
    empty = TransitiveTriple(triple.algebra, ExactMatrix.identity(6),
                             triple.theta, _units(*range(6)), [])
    assert empty.eigenbasis == [] and empty.q_basis == []
    assert len(empty.h_k_basis) == 2


def test_generic_construction_without_preferred_bases(triple):
    auto = TransitiveTriple(triple.algebra, triple.sigma, triple.theta,
                            triple.h_basis, triple.l_basis,
                            h_module_map=triple.h_module_map)
    assert len(auto.zq_basis) == 1
    assert len(auto.t_basis) == 2
    g = auto.algebra
    # the computed bases are orthonormalized to unit norms (either sign)
    z_norm = g.form_value(auto.zq_basis[0], auto.zq_basis[0])
    assert z_norm in (ONE, -ONE)
    for t in auto.t_basis:
        assert g.form_value(t, t) in (ONE, -ONE)
    # and all five pairs still satisfy the bracket identity
    for pair in (auto.pair_l_lh, auto.pair_h_hk):
        for x in pair.acting_basis:
            ax = pair.alpha(x)
            for y in pair.complement_basis:
                assert clifford_commutator(ax, pair.vector_element(y)) == \
                    pair.vector_element(g.bracket(x, y))



# -- the structure against independent constructions ------------------------------

def _combine(coeffs, vectors):
    return _sum(*(vec_scale(c, v) for c, v in zip(coeffs, vectors)))


def _rank(vectors):
    return ExactMatrix.from_columns(list(vectors), 6).rank() if vectors else 0


def _same_span(first, second):
    return _rank(first) == _rank(second) == _rank(list(first) + list(second))


def _span_intersection(first, second):
    """Vectors spanning span(first) cap span(second): the first halves of the
    kernel vectors of [first | -second], mapped back over first."""
    if not first or not second:
        return []
    combined = ExactMatrix.from_columns(
        list(first) + [vec_scale(-1, u) for u in second], 6)
    return [_combine(col.col(0)[:len(first)], first) for col in combined.nullspace()]


def _theta_parts(triple):
    ident = ExactMatrix.identity(6)
    return [[m.col(0) for m in (triple.theta + sign * ident).nullspace()]
            for sign in (-1, 1)]


def test_h_k_basis_spans_the_theta_fixed_part_of_h(triple):
    k, _ = _theta_parts(triple)
    assert _rank(triple.h_k_basis) == len(triple.h_k_basis)
    assert _same_span(triple.h_k_basis, _span_intersection(triple.h_basis, k))


def test_slice_pieces_span_the_compact_and_noncompact_parts_of_each_l_nu(triple):
    k, s = _theta_parts(triple)
    auto = TransitiveTriple(triple.algebra, triple.sigma, triple.theta,
                            triple.h_basis, triple.l_basis)
    for nu, basis in triple.nu_spaces:
        if nu == ONE:
            continue
        for built in (triple, auto):
            for target, got in ((k, built.zq_basis), (s, built.t_basis)):
                piece = [v for v in got if built.nu_of(v) == nu]
                assert _same_span(piece, _span_intersection(list(basis), target))


def _pairs(triple):
    return [triple.pair_g_h, triple.pair_l_lh, triple.pair_l_lk,
            triple.pair_lk_lh, triple.pair_h_hk]


def test_alpha_matches_the_pairing_formula_on_all_five_pairs(triple):
    # alpha(x) = - sum_{i<j} eps_i eps_j <[x, b_i], b_j> b_i b_j
    g = triple.algebra
    for pair in _pairs(triple):
        basis, signs = pair.complement_basis, pair.space.signs
        for x in pair.acting_basis:
            want = {(i, j): -coerce(signs[i] * signs[j])
                    * g.form_value(g.bracket(x, basis[i]), basis[j])
                    for i in range(len(basis)) for j in range(i + 1, len(basis))}
            assert pair.alpha(x) == CliffordElement(pair.space, want)


def test_expand_matches_the_pairing_formula_on_all_five_pairs(triple):
    # the coordinates of v over the complement are eps_j <v, b_j>
    g = triple.algebra
    for pair in _pairs(triple):
        basis, signs = pair.complement_basis, pair.space.signs
        mixed = _combine([coerce(k + 1) * (SQRT2 if k % 2 else I)
                          for k in range(len(basis))], basis)
        for v in list(basis) + [mixed]:
            assert pair.expand(v) == tuple(coerce(eps) * g.form_value(v, b)
                                           for eps, b in zip(signs, basis))


def _count_eliminations(monkeypatch):
    """Counts of ExactMatrix.rref, ExactMatrix.inverse and solve_in_span
    calls from now on; an inverse counts as one rref as well."""
    from diracembed import triple as triple_module
    calls = {"rref": 0, "inverse": 0, "solve_in_span": 0}
    rref, inverse = ExactMatrix.rref, ExactMatrix.inverse
    solve = triple_module.solve_in_span

    def counted_rref(self):
        calls["rref"] += 1
        return rref(self)

    def counted_inverse(self):
        calls["inverse"] += 1
        return inverse(self)

    def counted_solve(vectors, targets):
        calls["solve_in_span"] += 1
        return solve(vectors, targets)

    monkeypatch.setattr(ExactMatrix, "rref", counted_rref)
    monkeypatch.setattr(ExactMatrix, "inverse", counted_inverse)
    monkeypatch.setattr(triple_module, "solve_in_span", counted_solve)
    return calls


def test_building_the_triple_eliminates_within_its_budget(monkeypatch):
    calls = _count_eliminations(monkeypatch)
    build_sl2_triple()
    # counts of eliminations, not a timing: one solve_in_span per
    # coordinate map, over the eigenbasis of l and over the h basis, and
    # one inverse, of the Gram matrix of l; the polarizations of the four
    # spin modules read their coordinates from duals under the form
    assert calls["rref"] <= 19
    assert calls["inverse"] <= 1
    assert calls["solve_in_span"] <= 2


def test_coordinates_after_construction_make_no_elimination(triple, monkeypatch):
    modules = [sl2_irrep(w) for w in (2, 0, 10)]
    calls = _count_eliminations(monkeypatch)
    for _ in range(2):
        for v in triple.zq_basis + triple.t_basis:
            triple.rho(1, v), triple.rho(-1, v), triple.nu_of(v)
        triple.h_coordinates(triple.h_basis + triple.rho_plus_t)
        beta_action(triple, modules[0], triple.rho_plus_t)
    # the transfer reads the q coordinates from the dual of the q basis
    for module in modules[1:]:
        assert all(ok for _, ok, _ in verify_embedding(triple, module))
    assert calls == {"rref": 0, "inverse": 0, "solve_in_span": 0}


SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)
# scalars over Q(sqrt2, i), and coefficient lists of two vectors over a basis
SCALARS = st.builds(ExactScalar, SMALL, SMALL, SMALL, SMALL)


def _coefficients(size):
    return st.lists(st.lists(SCALARS, min_size=size, max_size=size),
                    min_size=2, max_size=2)


@given(_coefficients(4), _coefficients(3))
@settings(max_examples=30, deadline=None)
def test_coordinates_are_the_coefficients_a_vector_was_built_from(
        triple, over_l, over_h):
    for coeffs, basis, coordinates, outside, error in (
            (over_l, triple.eigenbasis, triple._l_coordinates, 4,
             "vector lies outside l"),
            (over_h, triple.h_basis, triple.h_coordinates, 0,
             "vector is not in the fixed subalgebra")):
        vectors = [_combine(c, basis) for c in coeffs]
        got = coordinates(vectors)
        assert [got.col(j) for j in range(2)] == [tuple(c) for c in coeffs]
        with pytest.raises(ValueError, match=f"^{error}$"):
            coordinates([vectors[0], _sum(vectors[1], unit_vector(6, outside))])


VECTORS = st.lists(st.lists(st.sampled_from([ZERO, ONE, -ONE, I, SQRT2]),
                            min_size=4, max_size=4).map(tuple),
                   min_size=1, max_size=3)


@given(VECTORS, VECTORS, st.lists(st.lists(SCALARS, min_size=3, max_size=3),
                                  min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_one_batch_solve_matches_its_columns_solved_one_at_a_time(
        vectors, others, coeffs):
    # targets inside the span of possibly dependent vectors, and maybe not
    targets = [tuple(sum((x * v[k] for x, v in zip(c, vectors)), ZERO)
                     for k in range(4)) for c in coeffs] + others
    batch = solve_in_span(vectors, targets)
    singles = [solve_in_span(vectors, [t]) for t in targets]
    if batch is None:
        assert any(single is None for single in singles)
        assert all(single is not None for single in singles[:len(coeffs)])
        return
    assert [batch.col(j) for j in range(len(targets))] == \
        [single.col(0) for single in singles]
    assert ExactMatrix.from_columns(vectors, 4) @ batch == \
        ExactMatrix.from_columns(targets, 4)


# -- the sigma certificates against a per-pair reference ---------------------------

def _with_form(g, second_factor):
    """g = sl2 + sl2 with the form F + second_factor * F."""
    entries = {(i, j): x * (second_factor if i >= 3 else 1)
               for (i, j), x in g.form.items()}
    return LieAlgebra(g.labels, g.brackets, ExactMatrix.from_entries(6, 6, entries))


def _sigma_candidates():
    """Involutions of sl2 + sl2 commuting with theta: diag(D1, D2) and the
    factor swap times diag(D, D), for D fixing or negating h and acting on
    span(e, f) by one of six signed permutations."""
    ef_blocks = [(1, 0, 0, 1), (-1, 0, 0, -1), (0, 1, 1, 0), (0, -1, -1, 0),
                 (1, 0, 0, -1), (-1, 0, 0, 1)]
    factor = [{(0, 0): sign, (1, 1): a, (1, 2): b, (2, 1): c, (2, 2): d}
              for sign in (1, -1) for a, b, c, d in ef_blocks]

    def place(d, rows, cols):
        return {(r + rows, c + cols): x for (r, c), x in d.items() if x}

    for d1 in factor:
        for d2 in factor:
            yield ExactMatrix.from_entries(6, 6, {**place(d1, 0, 0), **place(d2, 3, 3)})
    for d in factor:
        yield ExactMatrix.from_entries(6, 6, {**place(d, 3, 0), **place(d, 0, 3)})


def _reference_sigma_failure(g, sigma):
    """The old per-pair checks on raw coordinates: the form on pairs i <= j,
    then sigma [b_i, b_j] = [sigma b_i, sigma b_j] on pairs i < j."""
    n, labels = g.dim, g.labels
    cols = [sigma.col(j) for j in range(n)]

    def form(x, y):
        return sum((x[a] * y[b] * g.form[a, b] for a in range(n) for b in range(n)), ZERO)

    def bracket(x, y):
        return tuple(sum((x[a] * y[b] * g.brackets[a][b][k] for a in range(n)
                          for b in range(n)), ZERO) for k in range(n))

    for i in range(n):
        for j in range(i, n):
            if form(cols[i], cols[j]) != g.form[i, j]:
                return (f"sigma does not preserve the form on the pair "
                        f"({labels[i]}, {labels[j]})")
    for i in range(n):
        for j in range(i + 1, n):
            image = tuple(sum((c * cols[k][r] for k, c in enumerate(g.brackets[i][j])),
                              ZERO) for r in range(n))
            if image != bracket(cols[i], cols[j]):
                return (f"sigma is not a Lie algebra automorphism on the pair "
                        f"({labels[i]}, {labels[j]})")
    return None


def test_sigma_certificates_agree_with_the_per_pair_reference(triple):
    outcomes = set()
    for second_factor in (1, 2):
        g = _with_form(triple.algebra, second_factor)
        for sigma in _sigma_candidates():
            want = _reference_sigma_failure(g, sigma)
            try:
                TransitiveTriple(g, sigma, triple.theta, triple.h_basis,
                                 triple.l_basis)
                got = None
            except TripleStructureError as exc:
                got = str(exc)
            if want is not None:
                assert got == want
            else:
                assert got is None or not re.search("form|automorphism", got)
            outcomes.add(want.split()[1] if want else "pass")
    assert outcomes == {"does", "is", "pass"}


def test_sigma_preserving_the_form_but_not_the_bracket_is_rejected(triple):
    # e1 <-> f1 keeps <e1, f1> = 1 but sends [h1, e1] = 2 e1 to 2 f1, not
    # [h1, f1] = -2 f1
    n = triple.algebra.dim
    swap_ef = ExactMatrix.from_entries(
        n, n, {(0, 0): 1, (2, 1): 1, (1, 2): 1, (3, 3): 1, (4, 4): 1, (5, 5): 1})
    with pytest.raises(TripleStructureError,
                       match=r"^sigma is not a Lie algebra automorphism on the "
                             r"pair \(h1, e1\)$"):
        TransitiveTriple(triple.algebra, swap_ef, triple.theta,
                         triple.h_basis, triple.l_basis)


def test_swap_of_unequally_scaled_factors_is_not_an_isometry(triple):
    # F + 2F is invariant and the swap is an automorphism, but <h2, h2> = 4
    g = _with_form(triple.algebra, 2)
    with pytest.raises(TripleStructureError,
                       match=r"^sigma does not preserve the form on the pair "
                             r"\(h1, h1\)$"):
        TransitiveTriple(g, triple.sigma, triple.theta, triple.h_basis,
                         triple.l_basis)

# -- serialization ------------------------------------------------------------------

def test_description_roundtrip(triple, tmp_path):
    text = dump_triple_description(triple)
    back = parse_triple_description(text)
    assert back.algebra == triple.algebra
    assert back.sigma == triple.sigma
    assert back.theta == triple.theta
    assert back.h_basis == triple.h_basis
    assert back.zq_basis == triple.zq_basis
    assert back.t_basis == triple.t_basis
    assert back.h_module_map == triple.h_module_map
    # a rebuilt triple carries the same spin spaces
    assert back.space_ql == triple.space_ql


def test_description_file_roundtrip(triple, tmp_path):
    from diracembed import load_triple
    path = tmp_path / "triple.txt"
    path.write_text(dump_triple_description(triple), encoding="utf-8")
    back = load_triple(str(path))
    assert back.algebra == triple.algebra


def test_parse_rejects_malformed_text():
    with pytest.raises(ValueError):
        parse_triple_description("dim: x\n")
    with pytest.raises(ValueError):
        parse_triple_description("labels: a, b\n")


ROW = ", ".join(["0"] * 6)


@pytest.mark.parametrize("head, bad_lines", [
    # an unknown label
    ("bracket h1 e1", ["bracket h1 x9: " + ROW]),
    ("form h1 h1", ["form h1 zz: 2"]),
    # a missing label, a short column, an empty value list
    ("bracket h1 e1", ["bracket h1: " + ROW]),
    ("sigma h1", ["sigma h1: 0, 0, 0, 1, 0"]),
    ("theta e1", ["theta e1: 0, -1, 0, 0, 0"]),
    ("form h1 h1", ["form h1 h1:"]),
    # extra entries, zero or not, and extra values
    ("sigma h1", ["sigma h1: 0, 0, 0, 1, 0, 0, 0"]),
    ("theta h1", ["theta h1: 1, 0, 0, 0, 0, 0, 5"]),
    ("form h1 h1", ["form h1 h1: 2, 3"]),
    # a duplicated key
    ("form e1 f1", ["form e1 f1: 1", "form e1 f1: 1"]),
    ("h 0", ["h 0: 1, 0, 0, 1, 0, 0", "h 0: 1, 0, 0, 1, 0, 0"]),
    # a row of the wrong length, a zero denominator, a bad index
    ("h 0", ["h 0: 1, 0, 0, 1, 0"]),
    ("l 0", ["l 0: 1, 0, 0, 0, 0, 1/0"]),
    ("l 0", ["l x: 1, 0, 0, 0, 0, 0"]),
    # a nonzero bracket of a label with itself, a mirrored bracket that
    # breaks antisymmetry
    ("bracket h1 e1", ["bracket h1 h1: 0, 2, 0, 0, 0, 0"]),
    ("bracket h1 e1", ["bracket h1 e1: 0, 2, 0, 0, 0, 0",
                       "bracket e1 h1: 0, 2, 0, 0, 0, 0"]),
    # indices that skip a number
    ("h 2", ["h 7: 1, 0, 0, 1, 0, 0"]),
    ("l 0", ["l 7: 1, 0, 0, 0, 0, 0"]),
    ("hmodule 1", ["hmodule 5: 0, 0, 0"]),
])
def test_parse_rejects_malformed_lines_naming_them(triple, head, bad_lines):
    lines = dump_triple_description(triple).splitlines()
    at = next(k for k, line in enumerate(lines)
              if line.partition(":")[0] == head)
    lines[at:at + 1] = bad_lines
    with pytest.raises(ValueError, match=re.escape(repr(bad_lines[-1]))):
        parse_triple_description("\n".join(lines))


def _with_hmodule_rows(triple, edit):
    """The description of triple with each hmodule line's values edited."""
    lines = []
    for line in dump_triple_description(triple).splitlines():
        head, _, tail = line.partition(":")
        if head.startswith("hmodule"):
            line = head + ": " + ", ".join(edit(int(head.split()[1]),
                                                [v.strip() for v in tail.split(",")]))
        lines.append(line)
    return "\n".join(lines)


def test_short_hmodule_rows_are_rejected_where_the_module_meets_them(triple):
    # every row cut to two entries: (f, f) would silently map to zero
    short = parse_triple_description(
        _with_hmodule_rows(triple, lambda idx, values: values[:2]))
    with pytest.raises(ValueError, match="hmodule 0 has 2 entries"):
        verify_embedding(short, sl2_irrep(2))


def test_hmodule_map_must_carry_brackets_to_brackets(triple):
    # images of the second and third h basis vectors swapped
    rows = triple.h_module_map
    swapped = parse_triple_description(_with_hmodule_rows(
        triple, lambda idx, values: [v.canonical() for v in rows[(0, 2, 1)[idx]]]))
    with pytest.raises(ValueError, match="bracket of h 0 and h 1"):
        verify_embedding(swapped, sl2_irrep(2))


def test_parse_rejects_hmodule_rows_of_unequal_length_or_number(triple):
    ragged = _with_hmodule_rows(
        triple, lambda idx, values: values[:2] if idx == 2 else values)
    with pytest.raises(ValueError, match="found 2 in line 'hmodule 2: "):
        parse_triple_description(ragged)
    lines = dump_triple_description(triple).splitlines()
    missing = [line for line in lines if not line.startswith("hmodule 2")]
    with pytest.raises(ValueError, match="one row per h basis"):
        parse_triple_description("\n".join(missing))
    # a missing middle row leaves the last row's index past the count
    missing = [line for line in lines if not line.startswith("hmodule 1")]
    with pytest.raises(ValueError, match=r"run 0\.\.1 in line 'hmodule 2: "):
        parse_triple_description("\n".join(missing))
    with pytest.raises(TripleStructureError, match="one row per h basis"):
        TransitiveTriple(triple.algebra, triple.sigma, triple.theta,
                         triple.h_basis, triple.l_basis,
                         h_module_map=triple.h_module_map[:2])


MUTATIONS = st.lists(st.tuples(
    st.sampled_from(["delete", "duplicate", "truncate", "drop_value",
                     "add_value", "replace_value", "replace_word",
                     "insert_char"]),
    st.integers(0, 10 ** 4), st.integers(0, 10 ** 4),
    st.sampled_from(["0", "1", "-1", "1/2", "1/0", "x", "", "i", ":", ",",
                     "#", "h1", "zz", "7", "form", "sigma", "hmodule", "dim",
                     "0 + 1*r2 + i*(0 + 0*r2)"])), min_size=1, max_size=3)


def _mutate(lines, op, i, j, token):
    """Apply one edit to the line i (mod the line count)."""
    lines = list(lines)
    if not lines:
        return lines
    i %= len(lines)
    line = lines[i]
    head, sep, tail = line.partition(":")
    values, words = tail.split(","), head.split()
    if op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, line)
    elif op == "truncate":
        lines[i] = line[:j % (len(line) + 1)]
    elif op == "drop_value":
        values.pop(j % len(values))
        lines[i] = head + sep + ",".join(values)
    elif op == "add_value":
        lines[i] = line + ", " + token
    elif op == "replace_value":
        values[j % len(values)] = " " + token
        lines[i] = head + sep + ",".join(values)
    elif op == "replace_word" and words:
        words[j % len(words)] = token
        lines[i] = " ".join(words) + sep + tail
    elif op == "insert_char":
        at = j % (len(line) + 1)
        lines[i] = line[:at] + token[:1] + line[at:]
    return lines


@given(MUTATIONS)
@settings(max_examples=200, deadline=timedelta(seconds=5))
def test_parse_fuzzed_descriptions_raise_only_value_errors(triple, edits):
    lines = dump_triple_description(triple).splitlines()
    for edit in edits:
        lines = _mutate(lines, *edit)
    try:
        parse_triple_description("\n".join(lines))
    except ValueError:
        pass


def test_rational_roots_of_a_large_constant_term():
    # (x - 10^6)(x + 10^6) = x^2 - 10^12
    roots = rational_roots([coerce(-10 ** 12), ZERO, ONE])
    assert sorted(r.a for r in roots) == [-10 ** 6, 10 ** 6]


def test_rational_roots_search_is_polynomial_in_the_bit_size():
    # (x - 10^20)(x + 10^20)(x - 1/3), so |c0| = 10^40 / 3
    coeffs = [Fraction(10 ** 40, 3), -10 ** 40, Fraction(-1, 3), 1]
    start = time.perf_counter()
    roots = rational_roots([coerce(c) for c in coeffs])
    assert time.perf_counter() - start < 0.5
    assert sorted(r.a for r in roots) == [-10 ** 20, Fraction(1, 3), 10 ** 20]


@given(st.lists(st.fractions(-40, 40, max_denominator=6), max_size=4),
       st.none() | st.tuples(st.integers(-50, 50), st.integers(-50, 50)))
@settings(max_examples=100)
def test_rational_roots_are_the_roots_a_polynomial_was_built_from(roots, quadratic):
    # prod (x - r), times x^2 + c x + d when that has no rational root
    poly = [Fraction(1)]
    factors = [[-r, 1] for r in roots]
    if quadratic is not None:
        c, d = quadratic
        disc = c * c - 4 * d
        if disc < 0 or math.isqrt(disc) ** 2 != disc:
            factors.append([d, c, 1])
    for factor in factors:
        out = [Fraction(0)] * (len(poly) + len(factor) - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        poly = out
    found = rational_roots([coerce(c) for c in poly])
    assert sorted(r.a for r in found) == sorted(set(roots))
