"""Dirac operators as formal first-order elements, and the slice rewrite.

A FormalDiracElement is a finite sum  sum_v  v (x) M_v  where each symbol v
is a first-order element of the ambient Lie algebra (or the unit), and M_v
is an exact matrix acting on the internal space S (x) E (spinors tensored
with the twisting module).  It is stored as one block row [M_unit | M_0 |
... | M_{n-1}] over the ambient basis, so v (x) M is the row (0 | v) kron M,
and a map X on symbols acts on an element E as E (X (x) 1).

The transfer map rewrites an element whose symbols lie in the orthogonal
complement q of the fixed subalgebra h into one whose symbols lie in the
slice subalgebra l, using the relation that a right derivative along Y in h
acts on equivariant sections as minus the fiber action of Y.  The fiber
action is gamma of the degree-two image of Y on the spinor factor plus the
module action of Y on the twist.
"""

from .scalars import ExactMatrix, coerce, ZERO, ONE, SQRT2
from .lie import vec_sub, vec_scale, vec_is_zero, matrix_combination


class FormalDiracElement:
    """First-order symbols over an ambient algebra, tensored with matrices:
    blocks is [M_unit | M_0 | ... | M_{n-1}], n the algebra's dimension."""

    def __init__(self, algebra, matrix_size, blocks):
        if blocks.shape != (matrix_size, (algebra.dim + 1) * matrix_size):
            raise ValueError(f"a {blocks.shape} block row does not hold "
                             f"{algebra.dim + 1} blocks of size {matrix_size}")
        self.algebra = algebra
        self.matrix_size = matrix_size
        self.blocks = blocks

    @classmethod
    def symbol(cls, algebra, vector, matrix):
        """The element vector (x) matrix; the unit symbol when vector is None."""
        row = (ONE,) + (ZERO,) * algebra.dim if vector is None \
            else (ZERO,) + tuple(vector)
        if len(row) != algebra.dim + 1:
            raise ValueError(f"symbol has {len(row) - 1} coordinates, but "
                             f"the algebra has dim {algebra.dim}")
        return cls(algebra, matrix.nrows, ExactMatrix([row]).kron(matrix))

    def __add__(self, other):
        return FormalDiracElement(self.algebra, self.matrix_size,
                                  self.blocks + other.blocks)

    def __sub__(self, other):
        return FormalDiracElement(self.algebra, self.matrix_size,
                                  self.blocks - other.blocks)

    def scaled(self, s):
        return FormalDiracElement(self.algebra, self.matrix_size,
                                  self.blocks * coerce(s))

    def __eq__(self, other):
        if not isinstance(other, FormalDiracElement):
            return NotImplemented
        return self.algebra == other.algebra and self.blocks == other.blocks

    def block(self, key):
        """The matrix of ambient basis symbol key, or of the unit for None."""
        if key is not None and not 0 <= key < self.algebra.dim:
            raise ValueError(f"symbol index {key} out of range")
        start = 0 if key is None else (key + 1) * self.matrix_size
        return self.blocks.select_columns(range(start,
                                                start + self.matrix_size))

    def describe_difference(self, other):
        """Names of the symbols where the two elements disagree, unit first."""
        return _symbol_names(self.algebra, self.matrix_size,
                             self.blocks - other.blocks)


def _symbol_names(algebra, size, blocks):
    """Names of the symbols whose blocks hold an entry, unit first."""
    keys = sorted({j // size for (_, j), _ in blocks.items()})
    return [algebra.labels[k - 1] if k else "unit" for k in keys]


def _on_symbols(matrix, unit=None):
    """The X for which E (X (x) 1) moves the symbols of E: row k + 1 is
    column k of matrix, the image of symbol e_k, and row 0 (the unit) is
    zero; a scalar unit adds a first column, sending the unit to unit 1."""
    columns = [(ZERO,) + row for row in matrix.rows]
    if unit is not None:
        columns.insert(0, (unit,) + (ZERO,) * matrix.ncols)
    return ExactMatrix.from_columns(columns, matrix.ncols + 1)


# -- twist actions ------------------------------------------------------------


def _twist_actions(triple, module):
    """beta(h_i) for each h basis vector h_i, once the h-module map phi
    (columns: the rows) is checked: each row has module.algebra.dim entries,
    and phi ad_h(h_i) = ad(phi h_i) phi, ad_h(h_i) in h coordinates; by
    antisymmetry the first failing i fails first at a column j > i."""
    rows, algebra, h = triple.h_module_map, module.algebra, triple.h_basis
    if rows is None:
        raise ValueError("the triple carries no h-module map")
    for idx, row in enumerate(rows):
        if len(row) != algebra.dim:
            raise ValueError(f"hmodule {idx} has {len(row)} entries, but "
                             f"the module's algebra has dimension {algebra.dim}")
    phi = ExactMatrix.from_columns(rows, algebra.dim)
    for i, y in enumerate(h):
        ad_h = triple.h_coordinates([triple.algebra.bracket(y, z) for z in h])
        defect = phi @ ad_h - algebra.adjoint(rows[i]) @ phi
        if not defect.is_zero():
            j = min(c for (_, c), _ in defect.items())
            raise ValueError(f"hmodule does not carry the bracket of "
                             f"h {i} and h {j} to that of their images")
    return [module.action(row) for row in rows]


def beta_action(triple, module, vectors):
    """Action on the twist module of each of the vectors, elements of the
    fixed subalgebra: the combination of the beta(h_i) by its h
    coordinates.  The h-module map is checked once for all of them."""
    betas = _twist_actions(triple, module)
    return [matrix_combination(c, betas, module.dim)
            for c in triple.h_coordinates(vectors).transpose().rows]


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
    g, spin = triple.algebra, triple.spin_ql
    size = spin.dim * module.dim
    out = FormalDiracElement.symbol(g, None, ExactMatrix.zeros(size, size))
    ident = ExactMatrix.identity(module.dim)
    for j in indices:
        out = out + FormalDiracElement.symbol(
            g, vec_scale(pair.space.signs[j], pair.complement_basis[j]),
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
    matrix = triple.spin_ql.gamma(triple.pair_l_lh.cubic_element()).kron(
        ExactMatrix.identity(module.dim))
    return FormalDiracElement.symbol(triple.algebra, None, matrix)


def residual_term(triple, module):
    """Unit-symbol element  sum_k 1 (x) gamma(T_k) (x) beta(rho_plus T_k).

    This realizes the Dirac element of the pair (h, h cap k) twisted by the
    module, under the isometry identifying h cap s with the noncompact part
    of the slice complement.
    """
    spin, nz = triple.spin_ql, len(triple.zq_basis)
    matrix = ExactMatrix.zeros(spin.dim * module.dim, spin.dim * module.dim)
    for k, beta in enumerate(beta_action(triple, module, triple.rho_plus_t)):
        matrix = matrix + spin.gamma_generator(nz + k).kron(
            beta * coerce(triple.space_ql.signs[nz + k]))
    return FormalDiracElement.symbol(triple.algebra, None, matrix)


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

    Every ambient basis vector e_k splits as an h-part plus a q-part; the
    q-part is Q times column k of the dual of the q basis Q, since q is
    orthogonal to h = g^sigma.  The q vector over a slice complement vector
    b is  d_nu b - rho_plus(b)  on each weight piece.  The slice summand
    d_nu b stays a symbol; every h-part Y, here the rest 1 - Q dual of e_k
    plus -rho_plus of its q-part, turns into the unit symbol with matrix
    - M . F(Y), F(Y) the fiber action of Y.  On the block row E that is
    E (R (x) 1) + unit (x) -sum_i E (H_i (x) 1) F_i  where R keeps the unit
    and sends e_k to its d_nu-scaled slice part, H_i holds the h_i
    coordinate of each symbol's h-part, F_i = F(h_i).  h_coordinates
    raises unless every h-part lies in h, so, as g = h + q is direct, it
    certifies the split.
    """
    g, size, e = triple.algebra, element.matrix_size, element.blocks
    pair, slice_basis = triple.pair_g_h, triple.zq_basis + triple.t_basis
    slice_part = ExactMatrix.from_columns(
        [vec_scale(triple.d[triple.nu_of(b)], b) for b in slice_basis],
        g.dim) @ pair.dual
    rho_plus = ExactMatrix.from_columns(
        [triple.rho(1, b) for b in slice_basis], g.dim)
    h_part = triple.h_coordinates((ExactMatrix.identity(g.dim) - (
        pair.basis + rho_plus) @ pair.dual).transpose().rows)
    ident, h_cols = ExactMatrix.identity(size), _on_symbols(h_part)
    unit = ExactMatrix.zeros(size, size)
    for i, fiber in enumerate(_fiber_actions(triple, module)):
        unit = unit - (e @ h_cols.select_columns([i]).kron(ident)) @ fiber
    moved = e @ _on_symbols(slice_part, ONE).kron(ident)
    return (FormalDiracElement(g, size, moved)
            + FormalDiracElement.symbol(g, None, unit))


def invariance_defect(triple, element, module):
    """Where a formal element fails invariance under the fixed subalgebra.

    For each h-basis vector Y the bracket action on symbols plus the
    commutator with the fiber action F on matrices must cancel,
    sum_v [Y, v] (x) M_v + sum_v v (x) [F, M_v] = 0.  On the block row E,
    with A = (0 (+) ad Y)^T acting on the symbols and fixing the unit,
    that is  F E - E (1 (x) F) + E (A (x) 1) = 0.  Returns None when every
    defect is zero, else the first failing h basis index with the names of
    its nonzero symbols.
    """
    g, size, e = triple.algebra, element.matrix_size, element.blocks
    ident = ExactMatrix.identity(size)
    for i, (y, fiber) in enumerate(zip(triple.h_basis,
                                       _fiber_actions(triple, module))):
        defect = (fiber @ e - e @ ExactMatrix.identity(g.dim + 1).kron(fiber)
                  + e @ _on_symbols(g.adjoint(y), ZERO).kron(ident))
        if not defect.is_zero():
            return i, ", ".join(_symbol_names(g, size, defect))
    return None


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
    defect = invariance_defect(triple, lhs, module)
    rows.append(("ambient-invariance", defect is None,
                 "the ambient Dirac element commutes with the fixed "
                 "subalgebra" if defect is None else
                 "the ambient Dirac element does not commute with h {} at "
                 "symbols: {}".format(*defect)))

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
    actions = [action_of(b) for b in pair.complement_basis]
    out = ExactMatrix.zeros(actions[0].nrows * spin.dim,
                            actions[0].ncols * spin.dim)
    for j, action in enumerate(actions):
        sign = coerce(pair.space.signs[j])
        out = out + (action * sign).kron(spin.gamma_generator(j))
    return out
