"""Dirac operators as formal first-order elements, and the slice rewrite.

A FormalDiracElement is a finite sum  sum_v  v (x) M_v  where each symbol v
is a first-order element of the ambient Lie algebra (or the unit), and M_v
is an exact matrix acting on the internal space S (x) E (spinors tensored
with the twisting module).  Symbols are stored expanded over the ambient
basis, so two elements are equal exactly when their term maps coincide.

The transfer map rewrites an element whose symbols lie in the orthogonal
complement q of the fixed subalgebra h into one whose symbols lie in the
slice subalgebra l, using the relation that a right derivative along Y in h
acts on equivariant sections as minus the fiber action of Y.  The fiber
action is gamma of the degree-two image of Y on the spinor factor plus the
module action of Y on the twist.
"""

from .scalars import ExactMatrix, coerce, ONE, SQRT2
from .lie import (vec_sub, vec_scale, vec_combination, vec_is_zero,
                  unit_vector, matrix_combination)
from .triple import solve_in_span


class FormalDiracElement:
    """First-order symbols over an ambient algebra, tensored with matrices.

    terms maps an ambient basis index (or None for the unit symbol) to the
    matrix it is tensored with; zero matrices are dropped, so equality of
    term maps is equality of elements.
    """

    def __init__(self, algebra, matrix_size, terms=None):
        self.algebra = algebra
        self.matrix_size = matrix_size
        clean = {}
        for key, m in (terms or {}).items():
            if key is not None and not (0 <= key < algebra.dim):
                raise ValueError(f"symbol index {key} out of range")
            if m.shape != (matrix_size, matrix_size):
                raise ValueError("matrix has the wrong size")
            if not m.is_zero():
                clean[key] = m
        self.terms = clean

    @classmethod
    def zero(cls, algebra, matrix_size):
        return cls(algebra, matrix_size, {})

    def _require_compatible(self, other):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise ValueError("elements live over different algebras")
        if self.matrix_size != other.matrix_size:
            raise ValueError("elements act on different internal spaces")

    def _plus(self, pairs):
        """self + sum of key (x) matrix over the (key, matrix) pairs; the
        constructor drops the terms that cancel."""
        terms = dict(self.terms)
        for key, m in pairs:
            terms[key] = terms[key] + m if key in terms else m
        return FormalDiracElement(self.algebra, self.matrix_size, terms)

    def add_symbol(self, vector, matrix):
        """self + (vector symbol) (x) matrix, expanding over the basis."""
        return self._plus((i, matrix * c) for i, c in enumerate(vector)
                          if not c.is_zero())

    def add_unit(self, matrix):
        return self._plus([(None, matrix)])

    def __add__(self, other):
        self._require_compatible(other)
        return self._plus(other.terms.items())

    def __sub__(self, other):
        return self + other.scaled(-ONE)

    def scaled(self, s):
        s = coerce(s)
        return FormalDiracElement(self.algebra, self.matrix_size,
                                  {k: m * s for k, m in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, FormalDiracElement):
            return NotImplemented
        return (self.algebra == other.algebra
                and self.matrix_size == other.matrix_size
                and self.terms == other.terms)

    def symbol_keys(self):
        """Symbol indices present, with None (the unit) sorted first."""
        return sorted(self.terms, key=lambda k: (-1 if k is None else k))

    def describe_difference(self, other):
        """Names of the symbols where the two elements disagree."""
        self._require_compatible(other)
        names = []
        for key in sorted(set(self.terms) | set(other.terms),
                          key=lambda k: (-1 if k is None else k)):
            if self.terms.get(key) != other.terms.get(key):
                names.append("unit" if key is None else
                             self.algebra.labels[key])
        return names

    def __repr__(self):
        keys = ", ".join("1" if k is None else self.algebra.labels[k]
                         for k in self.symbol_keys())
        return f"FormalDiracElement({keys or '0'})"


# -- twist actions ------------------------------------------------------------


def _twist_actions(triple, module):
    """beta(h_i) for each h basis vector h_i, once the h-module map is
    checked: each row has module.algebra.dim entries, and brackets of h
    basis vectors go to brackets of their images (a ValueError otherwise)."""
    rows, algebra = triple.h_module_map, module.algebra
    if rows is None:
        raise ValueError("the triple carries no h-module map")
    for idx, row in enumerate(rows):
        if len(row) != algebra.dim:
            raise ValueError(f"hmodule {idx} has {len(row)} entries, but "
                             f"the module's algebra has dimension {algebra.dim}")
    for i, j, coords in triple.h_brackets:
        if vec_combination(coords, rows, algebra.dim) != \
                algebra.bracket(rows[i], rows[j]):
            raise ValueError(f"hmodule does not carry the bracket of "
                             f"h {i} and h {j} to that of their images")
    return [module.action(row) for row in rows]


def _h_coords(triple, y):
    """Coordinates of y over the h basis; a ValueError when y is not in h."""
    coords = solve_in_span(triple.h_basis, tuple(coerce(c) for c in y))
    if coords is None:
        raise ValueError("vector is not in the fixed subalgebra")
    return coords


def beta_action(triple, module, y):
    """Action on the twist module of an element y of the fixed subalgebra:
    the combination of the beta(h_i) by the h coordinates of y."""
    betas = _twist_actions(triple, module)
    return matrix_combination(_h_coords(triple, y), betas, module.dim)


def _fiber_actions(triple, module):
    """The action  gamma(alpha h_i) (x) 1 + 1 (x) beta(h_i)  of each h basis
    vector h_i on the fiber S (x) E of the induced bundle: gamma of its
    degree-two image on the spinor factor, its module action on the twist."""
    spin = triple.spin_ql
    ident_e = ExactMatrix.identity(module.dim)
    ident_s = ExactMatrix.identity(spin.dim)
    return [spin.gamma(triple.pair_g_h.alpha(y)).kron(ident_e)
            + ident_s.kron(beta)
            for y, beta in zip(triple.h_basis, _twist_actions(triple, module))]


# -- the two sides of the embedding ------------------------------------------


def _signed_sum(triple, module, pair, indices):
    """sum over the chosen complement vectors b_j of the pair of
    <b_j,b_j> b_j (x) gamma_j (x) 1, with gamma_j the j-th slice generator."""
    spin = triple.spin_ql
    out = FormalDiracElement.zero(triple.algebra, spin.dim * module.dim)
    ident = ExactMatrix.identity(module.dim)
    for j in indices:
        out = out.add_symbol(
            vec_scale(pair.space.signs[j], pair.complement_basis[j]),
            spin.gamma_generator(j).kron(ident))
    return out


def geometric_dirac_element(triple, module):
    """The Dirac element of the ambient symmetric pair, twisted by a module.

    Sum over the orthonormal complement basis b of  <b,b> b (x) gamma(b)
    (x) 1, with the complement realized as the isometric image of the
    slice complement, so the spinor factor is shared with the slice side.
    """
    return _signed_sum(triple, module, triple.pair_g_h,
                       range(triple.pair_g_h.space.dim))


def cubic_term(triple, module):
    """Unit-symbol element  1 (x) gamma(c) (x) 1  for the slice cubic c."""
    spin = triple.spin_ql
    size = spin.dim * module.dim
    matrix = spin.gamma(triple.pair_l_lh.cubic_element()).kron(
        ExactMatrix.identity(module.dim))
    return FormalDiracElement.zero(triple.algebra, size).add_unit(matrix)


def residual_term(triple, module):
    """Unit-symbol element  sum_k 1 (x) gamma(T_k) (x) beta(rho_plus T_k).

    This realizes the Dirac element of the pair (h, h cap k) twisted by the
    module, under the isometry identifying h cap s with the noncompact part
    of the slice complement.
    """
    spin = triple.spin_ql
    betas = _twist_actions(triple, module)
    out = FormalDiracElement.zero(triple.algebra, spin.dim * module.dim)
    nz = len(triple.zq_basis)
    for k, rho_t in enumerate(triple.rho_plus_t):
        beta = matrix_combination(_h_coords(triple, rho_t), betas, module.dim)
        out = out.add_unit(spin.gamma_generator(nz + k).kron(
            beta * coerce(triple.space_ql.signs[nz + k])))
    return out


def assemble_rhs(triple, module, form, cubic_coefficient=None):
    """The right side of the embedding identity, in one of its two forms.

    Form 1 combines the cubic slice Dirac element with the compact part:

        sqrt2 D_slice + (1 - sqrt2) D_compact
            + (sqrt2 - 2) cubic + residual,

    where D_slice = D_compact + D_noncompact - cubic.  Form 2 splits off
    the noncompact part instead:

        sqrt2 D_noncompact + D_compact - 2 cubic + residual.

    Both expand to the same element.  cubic_coefficient overrides the
    standalone cubic coefficient (sqrt2 - 2 in form 1, -2 in form 2).
    """
    if form not in (1, 2):
        raise ValueError("form must be 1 or 2")
    nz = len(triple.zq_basis)
    compact = _signed_sum(triple, module, triple.pair_l_lh, range(nz))
    noncompact = _signed_sum(triple, module, triple.pair_l_lh,
                             range(nz, triple.space_ql.dim))
    cub = cubic_term(triple, module)
    res = residual_term(triple, module)
    if cubic_coefficient is None:
        cubic_coefficient = SQRT2 - coerce(2) if form == 1 else -coerce(2)
    tail = cub.scaled(cubic_coefficient) + res
    if form == 1:
        return ((compact + noncompact - cub).scaled(SQRT2)
                + compact.scaled(ONE - SQRT2) + tail)
    return noncompact.scaled(SQRT2) + compact + tail


# -- rewriting ambient symbols into slice symbols ------------------------------


def transfer(triple, element, module):
    """Rewrite an element with ambient symbols into slice symbols.

    Every ambient basis vector splits as an h-part plus a q-part; the
    q-part is the isometric image of a slice complement vector X, which in
    turn satisfies  image(X) = d_nu X - rho_plus(X)  on each weight piece.
    The slice summand d_nu X stays a symbol; every h-part Y turns into the
    unit symbol with matrix  - M . F(Y), with F(Y) the fiber action of Y:
    the combination of the fiber actions of the h basis by Y's coordinates.
    """
    g = triple.algebra
    nh = len(triple.h_basis)
    hq_matrix = ExactMatrix.from_columns(triple.h_basis + triple.q_basis,
                                         g.dim).inverse()
    slice_basis = triple.zq_basis + triple.t_basis
    weights = [triple.d[triple.nu_of(b)] for b in slice_basis]
    rho_plus = [_h_coords(triple, triple.rho(1, b)) for b in slice_basis]
    fibers = _fiber_actions(triple, module)

    out = FormalDiracElement.zero(g, element.matrix_size)
    for key, matrix in element.terms.items():
        if key is None:
            out = out.add_unit(matrix)
            continue
        coords = hq_matrix.col(key)
        for c, d, b in zip(coords[nh:], weights, slice_basis):
            if not c.is_zero():
                out = out.add_symbol(vec_scale(c * d, b), matrix)
        # h coordinates of the h-part: coords[:nh] - sum_j c_j rho_plus(b_j)
        h_part = vec_sub(coords[:nh],
                         vec_combination(coords[nh:], rho_plus, nh))
        if not vec_is_zero(h_part):
            fiber = matrix_combination(h_part, fibers, element.matrix_size)
            out = out.add_unit((matrix @ fiber) * (-ONE))
    return out


def _invariance_defect(triple, element, module):
    """The first h basis index i, with the names of the symbols where the
    bracket and commutator terms of h_i fail to cancel; None if none fails."""
    g = triple.algebra
    zero = FormalDiracElement.zero(g, element.matrix_size)
    for i, (y, fib) in enumerate(zip(triple.h_basis,
                                     _fiber_actions(triple, module))):
        acc = zero
        for key, m in element.terms.items():
            comm = fib @ m - m @ fib
            if key is None:
                acc = acc.add_unit(comm)
            else:
                e = unit_vector(g.dim, key)
                acc = acc.add_symbol(g.bracket(y, e), m).add_symbol(e, comm)
        if acc.terms:
            return i, ", ".join(acc.describe_difference(zero))
    return None


def is_invariant_element(triple, element, module):
    """Check invariance of a formal element under the fixed subalgebra.

    For each h-basis vector Y the bracket action on symbols plus the
    commutator with the fiber action on matrices must cancel:

        sum_v [Y, v] (x) M_v + sum_v v (x) [fiber(Y), M_v] = 0.
    """
    return _invariance_defect(triple, element, module) is None


# -- full verification ---------------------------------------------------------


def verify_embedding(triple, module):
    """Run the embedding identity end to end; returns (name, ok, details) rows.

    Checks the structural input identities, transfers the ambient Dirac
    element to slice symbols, and compares it with both assembled forms of
    the right side, reporting any symbol where they disagree.
    """
    rows = []
    rho = triple.rho
    for name, labels, vectors, defect, passing, failing in (
            ("compact-part-fixed", triple.z_labels, triple.zq_basis,
             lambda v: vec_sub(rho(-1, v), v),
             "rho_minus restricts to the identity on the Z-part",
             "rho_minus moves {}"),
            ("compact-part-killed", triple.z_labels, triple.zq_basis,
             lambda v: rho(1, v), "rho_plus vanishes on the Z-part",
             "rho_plus does not vanish on {}"),
            ("noncompact-part-split", triple.t_labels, triple.t_basis,
             lambda v: vec_sub(rho(-1, v),
                               vec_sub(vec_scale(SQRT2, v), rho(1, v))),
             "rho_minus T = sqrt2 T - rho_plus T on the T-part",
             "rho_minus {0} != sqrt2 {0} - rho_plus {0}")):
        bad = next((lbl for lbl, v in zip(labels, vectors)
                    if not vec_is_zero(defect(v))), None)
        rows.append((name, bad is None,
                     passing if bad is None else failing.format(bad)))

    ok = triple.rho_is_isometry()
    rows.append(("isometric-complement", ok,
                 "rho_minus preserves all complement pairings" if ok else
                 "rho_minus breaks a complement pairing"))

    lhs = geometric_dirac_element(triple, module)
    ok = is_invariant_element(triple, lhs, module)
    rows.append(("ambient-invariance", ok,
                 "the ambient Dirac element commutes with the fixed "
                 "subalgebra" if ok else
                 "the ambient Dirac element does not commute with h {} at "
                 "symbols: {}".format(*_invariance_defect(triple, lhs, module))))

    moved = transfer(triple, lhs, module)
    forms = {form: assemble_rhs(triple, module, form) for form in (1, 2)}
    for form, rhs in forms.items():
        bad = moved.describe_difference(rhs)
        rows.append((f"form{form}", not bad,
                     "transferred element matches" if not bad else
                     "mismatch at symbols: " + ", ".join(bad)))

    bad = forms[1].describe_difference(forms[2])
    rows.append(("forms-agree", not bad,
                 "the two right-hand presentations expand to the same "
                 "element" if not bad else
                 "presentations differ at: " + ", ".join(bad)))
    return rows


# -- finite-dimensional algebraic operator -------------------------------------


def algebraic_dirac(pair, action_of, spin):
    """The algebraic Dirac operator  sum_j <b_j,b_j> pi(b_j) (x) gamma(b_j).

    action_of maps an ambient coordinate vector to its action matrix on a
    module V; the result acts on V (x) S.  The value does not depend on
    the choice of orthonormal complement basis.  The matrices need not be
    square: with b |-> the 1 x n row of b's coordinates the result is the
    spin-side symbol [C_0 | ... | C_{n-1}] of sum_k pi(x_k) (x) C_k.
    """
    first = action_of(pair.complement_basis[0])
    out = ExactMatrix.zeros(first.nrows * spin.dim, first.ncols * spin.dim)
    for j, b in enumerate(pair.complement_basis):
        sign = coerce(pair.space.signs[j])
        out = out + (action_of(b) * sign).kron(spin.gamma_generator(j))
    return out
