"""Nested symmetric structures on a quadratic Lie algebra.

A transitive triple packages a Lie algebra g with two commuting involutions:
sigma, whose fixed subalgebra is h, and theta, a Cartan involution splitting
g = k + s.  A subalgebra l, stable under theta and transverse to h, carries
the generalized sigma-eigenspace decomposition

    l = sum over nu of l(nu),   <sigma X, Y> = nu <X, Y>  for X in l(nu),

from which the maps rho_plus / rho_minus are built.  The class precomputes
orthonormalized bases of the pieces of l, the reductive pairs used by the
Dirac constructions, and the spin modules over their complements.

The structure is certified as matrix identities, one product or one
elimination per check: a stability or closure check eliminates [basis |
images] once, and the first pivot past the basis names the first image
outside its span.  Neither k nor s is stored: the theta-fixed part of a
span with independent basis B is B times the nullspace of (theta - 1) B.
Coordinates over the sigma-eigenbasis of l and over the h basis (the map
h_coordinates) are one product L X each, with the left inverse L of the
basis B built once, and membership of X is the identity B L X = X.
"""

from itertools import combinations

from .scalars import (ExactMatrix, coerce, rational_roots, real_sqrt, ZERO,
                      ONE, I, HALF, INV_SQRT2)
from .lie import (vec_add, vec_sub, vec_scale, vec_combination, vec_is_zero,
                  unit_vector, sl2, direct_sum)
from .clifford import ReductivePair
from .spin import SpinModule


def solve_in_span(vectors, targets):
    """Coefficients expressing each target over the given vectors, or None
    when a target lies outside their span, from one elimination of [vectors |
    targets]: column j of the result C expresses targets[j], so B C = X for
    the two lists as columns B and X (any such C if B has dependent columns)."""
    columns, n = list(vectors) + list(targets), len(vectors)
    dim = len(columns[0]) if columns else 0
    reduced, pivots = ExactMatrix.from_columns(columns, dim).rref()
    if pivots and pivots[-1] >= n:
        return None
    # each nonzero row r of the reduced form has its pivot at pivots[r] < n
    return ExactMatrix.from_entries(n, len(targets), {
        (pivots[r], c - n): x for (r, c), x in reduced.items() if c >= n})


def _coordinate_map(algebra, basis, error_type, message):
    """The map sending a list of vectors X to their coordinates over the
    independent basis B, as the columns of one matrix L X.  The left inverse
    L (L B = 1) comes from one solve_in_span: row j of L expresses unit
    vector j over the rows of B.  X lies in the span exactly when B L X = X;
    otherwise error_type(message) is raised."""
    b = ExactMatrix.from_columns(basis, algebra.dim)
    left = solve_in_span(b.rows, [unit_vector(len(basis), j)
                                  for j in range(len(basis))]).transpose()

    def coordinates(vectors):
        algebra.check_lengths(*vectors)
        x = ExactMatrix.from_columns(vectors, algebra.dim)
        coords = left @ x
        if b @ coords != x:
            raise error_type(message)
        return coords
    return coordinates


def _apply(matrix, vectors):
    """The images of the given vectors under matrix, in one product."""
    images = matrix @ ExactMatrix.from_columns(vectors, matrix.ncols)
    return [images.col(j) for j in range(len(vectors))]


def _rank_and_first_outside(basis, images, dim):
    """The rank of basis and the index of the first image outside its span
    (None if none is), from one elimination of [basis | images]: the first
    pivot past the basis columns is that image."""
    _, pivots = ExactMatrix.from_columns(list(basis) + list(images), dim).rref()
    k = len(basis)
    return sum(p < k for p in pivots), next((p - k for p in pivots if p >= k), None)


class TripleStructureError(ValueError):
    """Raised when the supplied data fails a structural requirement."""


class TransitiveTriple:
    """A Lie algebra with commuting involutions sigma, theta and a slice l.

    Parameters
    ----------
    algebra:
        the ambient quadratic Lie algebra g.
    sigma, theta:
        square matrices over the scalar field; column j is the image of
        the j-th basis vector.  Both must be involutive isometries of the
        form, commute, and theta must be a Cartan involution in the sense
        that the form is negative definite on k and positive definite on s
        (checked only on the basis vectors produced here).
    h_basis:
        vectors spanning the sigma-fixed subalgebra h.
    l_basis:
        vectors spanning the slice subalgebra l.
    zq_basis, t_basis:
        optional preferred orthonormalized bases of l cap k cap (l(nu), nu
        != 1) and of l cap s.  When omitted they are computed.
    h_module_map:
        optional images of the h-basis vectors, one each, inside the
        coordinate space of the algebra that twist modules live over.
    """

    def __init__(self, algebra, sigma, theta, h_basis, l_basis,
                 zq_basis=None, t_basis=None, h_module_map=None):
        self.algebra = algebra
        n = algebra.dim
        self.sigma = sigma
        self.theta = theta
        ident = ExactMatrix.identity(n)
        if not (sigma @ sigma - ident).is_zero():
            raise TripleStructureError("sigma is not an involution")
        if not (theta @ theta - ident).is_zero():
            raise TripleStructureError("theta is not an involution")
        if not (sigma @ theta - theta @ sigma).is_zero():
            raise TripleStructureError("sigma and theta do not commute")
        self._check_isometry(sigma, "sigma")
        self._check_isometry(theta, "theta")
        self._check_automorphism(sigma, "sigma")
        self._check_automorphism(theta, "theta")

        self.h_basis = h = [tuple(coerce(c) for c in v) for v in h_basis]
        self.l_basis = l = [tuple(coerce(c) for c in v) for v in l_basis]
        if _apply(sigma, h) != h:
            raise TripleStructureError("h basis vector not sigma-fixed")
        rank, out = _rank_and_first_outside(h, _apply(theta, h), n)
        if out is not None:
            raise TripleStructureError(
                f"h is not theta stable: theta of h {out} leaves h")
        if len(h) != n - (sigma - ident).rank():
            raise TripleStructureError("h basis does not span the fixed space")
        if rank != len(h):
            raise TripleStructureError("h basis is dependent")
        self.h_coordinates = _coordinate_map(
            algebra, h, ValueError, "vector is not in the fixed subalgebra")
        pairs = list(combinations(range(len(l)), 2))
        rank, out = _rank_and_first_outside(
            l, [algebra.bracket(l[i], l[j]) for i, j in pairs]
            + _apply(theta, l), n)
        if rank != len(l):
            raise TripleStructureError("l basis is dependent")
        if out is not None:
            raise TripleStructureError(
                "l is not a subalgebra: [l {}, l {}] leaves l".format(*pairs[out])
                if out < len(pairs) else
                f"l is not theta stable: theta of l {out - len(pairs)} leaves l")
        if ExactMatrix.from_columns(h + l, n).rank() != n:
            raise TripleStructureError("h + l does not span the algebra")

        self.nu_spaces = self._nu_decompose()
        self.d = {nu: self._weight_factor(nu) for nu, _ in self.nu_spaces
                  if nu != ONE}
        self.eigenbasis = [v for _, basis in self.nu_spaces for v in basis]
        self.eigen_nus = [nu for nu, basis in self.nu_spaces for _ in basis]
        self._l_coordinates = _coordinate_map(
            algebra, self.eigenbasis, TripleStructureError, "vector lies outside l")

        self.l_h_basis = next((list(basis) for nu, basis in self.nu_spaces
                               if nu == ONE), [])
        if _apply(theta, self.l_h_basis) != self.l_h_basis:
            raise TripleStructureError(
                "l cap h is not contained in the compact part")

        self.zq_basis = self._resolve_preferred(zq_basis, want_compact=True)
        self.t_basis = self._resolve_preferred(t_basis, want_compact=False)
        if len(self.t_basis) % 2 != 0:
            raise TripleStructureError(
                "l cap s must be even dimensional for a spin module")
        slice_basis = self.zq_basis + self.t_basis
        for v, mirrored in zip(slice_basis, _apply(sigma, slice_basis)):
            if not vec_is_zero(algebra.bracket(v, mirrored)):
                raise TripleStructureError(
                    "basis vector does not commute with its sigma image")

        if len(self.zq_basis) == 1:
            self.z_labels = ("Z",)
        else:
            self.z_labels = tuple(f"Z{i + 1}"
                                  for i in range(len(self.zq_basis)))
        self.t_labels = tuple(f"T{i + 1}" for i in range(len(self.t_basis)))
        self.ql_labels = self.z_labels + self.t_labels

        self.q_basis = [self.rho(-1, v) for v in slice_basis]
        if ExactMatrix.from_columns(self.q_basis, n).rank() != len(self.q_basis) \
                or len(self.q_basis) != n - len(h):
            raise TripleStructureError(
                "rho_minus images do not give a complement of h")
        if not self.rho_is_isometry():
            raise TripleStructureError("rho_minus is not an isometry")

        self.pair_g_h = ReductivePair(algebra, self.h_basis, self.q_basis,
                                      self.ql_labels)
        self.pair_l_lh = ReductivePair(algebra, self.l_h_basis, slice_basis,
                                       self.ql_labels)
        self.pair_l_lk = ReductivePair(algebra,
                                       self.l_h_basis + self.zq_basis,
                                       self.t_basis, self.t_labels)
        self.pair_lk_lh = ReductivePair(algebra, self.l_h_basis,
                                        self.zq_basis, self.z_labels)
        self.h_k_basis = self._theta_part(h, ONE)
        self.rho_plus_t = [self.rho(1, v) for v in self.t_basis]
        self.pair_h_hk = ReductivePair(algebra, self.h_k_basis,
                                       self.rho_plus_t, self.t_labels)

        self.space_ql = self.pair_l_lh.space
        self.space_ls = self.pair_l_lk.space
        self.space_qlp = self.pair_lk_lh.space
        self.spin_ql = SpinModule(self.space_ql)
        self.spin_ls = SpinModule(self.space_ls)
        self.spin_qlp = SpinModule(self.space_qlp)
        self.spin_hs = SpinModule(self.pair_h_hk.space)

        if h_module_map is not None and len(h_module_map) != len(h):
            raise TripleStructureError(
                "the h-module map needs one row per h basis vector")
        self.h_module_map = h_module_map

    # -- construction helpers -------------------------------------------

    def _check_isometry(self, matrix, name):
        g = self.algebra
        defect = g.gram(matrix) - g.form
        if not defect.is_zero():
            i, j = min(key for key, _ in defect.items())
            raise TripleStructureError(
                f"{name} does not preserve the form on the pair "
                f"({g.labels[i]}, {g.labels[j]})")

    def _check_automorphism(self, matrix, name):
        """matrix [b_i, b_j] = [matrix b_i, matrix b_j] for every j, as the
        identity matrix ad_i = ad(matrix b_i) matrix."""
        g = self.algebra
        for i in range(g.dim):
            defect = matrix @ g.ad[i] - g.adjoint(matrix.col(i)) @ matrix
            if not defect.is_zero():
                j = min(c for (_, c), _ in defect.items())
                raise TripleStructureError(
                    f"{name} is not a Lie algebra automorphism on the pair "
                    f"({g.labels[i]}, {g.labels[j]})")

    def _nu_decompose(self):
        """Split l into the generalized sigma-eigenspaces l(nu).

        l(nu) consists of the X in l with <sigma X, Y> = nu <X, Y> for all
        Y in l.  In coordinates over the l-basis this is the generalized
        eigenproblem A x = nu B x with A the sigma-twisted Gram matrix and
        B the Gram matrix of l, which must be invertible.
        """
        g = self.algebra
        m = len(self.l_basis)
        columns = ExactMatrix.from_columns(self.l_basis, g.dim)
        a = columns.transpose() @ g.form @ self.sigma @ columns
        b = g.gram(columns)
        if b.rank() != m:
            raise TripleStructureError("the form is degenerate on l")
        operator = b.inverse() @ a
        spaces = []
        total = 0
        for nu in rational_roots(operator.char_poly()):
            null_cols = (operator - nu * ExactMatrix.identity(m)).nullspace()
            basis = tuple(vec_combination(col.col(0), self.l_basis, g.dim)
                          for col in null_cols)
            spaces.append((nu, basis))
            total += len(basis)
        if total != m:
            raise TripleStructureError(
                "could not split l into rational sigma-eigenspaces")
        spaces.sort(key=lambda item: item[0].a, reverse=True)
        return spaces

    def _weight_factor(self, nu):
        """d_nu = ((1 - nu) / 2) ** (-1/2), exact in the scalar field."""
        root = real_sqrt((ONE - nu) * HALF)
        if root is None or root.is_zero():
            raise TripleStructureError(
                f"no exact weight factor for nu = {nu}")
        return root.inverse()

    def _theta_part(self, basis, sign):
        """A basis of the X in the span of the independent basis B with
        theta X = sign X: B times the nullspace of (theta - sign) B."""
        b = ExactMatrix.from_columns(basis, self.algebra.dim)
        return [(b @ c).col(0) for c in (self.theta @ b - b * sign).nullspace()]

    def _resolve_preferred(self, preferred, want_compact):
        """Validate a preferred basis, or orthonormalize a computed one."""
        g = self.algebra
        pieces = [v for nu, basis in self.nu_spaces if nu != ONE
                  for v in self._theta_part(basis, ONE if want_compact else -ONE)]
        if preferred is None:
            return _orthonormalize(g, pieces)
        preferred = [tuple(coerce(c) for c in v) for v in preferred]
        if len(preferred) != len(pieces) or ExactMatrix.from_columns(
                preferred + pieces, g.dim).rank() != len(pieces):
            raise TripleStructureError("preferred basis spans the wrong space")
        # each preferred vector has a nonzero part in exactly one l(nu)
        weights = {(j, self.eigen_nus[k]) for (k, j), _ in
                   self._l_coordinates(preferred).items()}
        if sorted(j for j, _ in weights) != list(range(len(preferred))):
            raise TripleStructureError(
                "preferred basis vector mixes sigma-eigenspaces")
        # orthonormal up to sign: the Gram matrix is diagonal with entries +-1
        gram = g.gram(ExactMatrix.from_columns(preferred, g.dim))
        k = len(preferred)
        if gram != ExactMatrix.from_entries(k, k, {
                (i, i): -ONE if gram[i, i] == -ONE else ONE for i in range(k)}):
            raise TripleStructureError(
                "preferred basis is not orthonormal up to sign")
        return preferred

    # -- public operations ----------------------------------------------

    def rho_is_isometry(self):
        """True when rho_minus preserves all pairings of the slice
        complement basis, whose images are the q-basis."""
        g = self.algebra
        return g.gram(ExactMatrix.from_columns(self.q_basis, g.dim)) == \
            g.gram(ExactMatrix.from_columns(self.zq_basis + self.t_basis, g.dim))

    def rho(self, sign, x):
        """rho_plus (sign=+1) or rho_minus (sign=-1) applied to x in l.

        The input is decomposed over the sigma-eigenspaces of l; each
        component X in l(nu) with nu != 1 contributes
        d_nu (X + sign * sigma X) / 2.  A component in l(1) is rejected.
        """
        coords = list(zip(self._l_coordinates([x]).col(0), self.eigen_nus))
        if any(nu == ONE and not c.is_zero() for c, nu in coords):
            raise TripleStructureError("rho is undefined on the fixed part of l")
        part = vec_combination([self.d.get(nu, ZERO) * HALF * c for c, nu in coords],
                               self.eigenbasis, self.algebra.dim)
        return vec_add(part, vec_scale(sign, _apply(self.sigma, [part])[0]))

    def nu_of(self, x):
        """The sigma-weight of a vector lying in a single l(nu)."""
        seen = {self.eigen_nus[k] for (k, _), _ in self._l_coordinates([x]).items()}
        if len(seen) != 1:
            raise TripleStructureError("vector mixes sigma-eigenspaces")
        return seen.pop()


def _orthonormalize(algebra, vectors):
    """Orthogonal basis with norms +-1 for the span of independent vectors.

    Standard Gram-Schmidt with exact square roots; vectors of zero norm
    are repaired by adding a partner they pair with.  Fails if a needed
    square root leaves the scalar field.
    """
    basis = [tuple(v) for v in vectors]
    out = []
    while basis:
        idx = next((i for i, v in enumerate(basis)
                    if not algebra.form_value(v, v).is_zero()), None)
        if idx is None:
            found = False
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    if not algebra.form_value(basis[i], basis[j]).is_zero():
                        basis[i] = vec_add(basis[i], basis[j])
                        found = True
                        break
                if found:
                    break
            if not found:
                raise TripleStructureError(
                    "form degenerate on a sigma-eigenspace piece")
            continue
        v = basis.pop(idx)
        norm = algebra.form_value(v, v)
        sign = norm.real_sign()
        root = real_sqrt(norm if sign > 0 else -norm)
        if root is None:
            raise TripleStructureError(
                "basis norm has no square root in the scalar field")
        unit = vec_scale(root.inverse(), v)
        out.append(unit)
        sign_scalar = ONE if sign > 0 else -ONE
        basis = [vec_sub(w, vec_scale(sign_scalar *
                                      algebra.form_value(w, unit), unit))
                 for w in basis]
        basis = [w for w in basis if not vec_is_zero(w)]
    return out


def omega_value(triple, x, y, z):
    """The invariant alternating trilinear form <[x, y], z>."""
    g = triple.algebra
    return g.form_value(g.bracket(tuple(coerce(c) for c in x), y), z)


def omega_rescaling_cases(triple):
    """Both sides of the rho-rescaling identity of the omega form.

    For eigenvectors x, y, z of the moving part of l (nu != 1),

        omega(rho+ x, rho- y, rho- z)
            = 1/4 d d' d'' (1 + nu - nu' - nu'') omega(x, y, z),

    evaluated over every ordered triple from the stored eigenbasis.
    Returns a list of (left side, right side) scalar pairs.
    """
    eig = [(v, nu, triple.rho(1, v), triple.rho(-1, v))
           for v, nu in zip(triple.eigenbasis, triple.eigen_nus) if nu != ONE]
    quarter = HALF * HALF
    cases = []
    for x, nux, plus_x, _ in eig:
        for y, nuy, _, minus_y in eig:
            for z, nuz, _, minus_z in eig:
                lhs = omega_value(triple, plus_x, minus_y, minus_z)
                coeff = (quarter * triple.d[nux] * triple.d[nuy]
                         * triple.d[nuz] * (ONE + nux - nuy - nuz))
                cases.append((lhs, coeff * omega_value(triple, x, y, z)))
    return cases


def build_sl2_triple():
    """The rank one worked instance: two copies of sl2 with the swap.

    g is the direct sum of two copies of sl2, sigma exchanges the factors,
    theta fixes each Cartan generator and negates the raising and lowering
    generators.  h is the diagonal copy, l is the first factor extended by
    the second Cartan generator.  The preferred bases are

        Z  = (i/2) (h, -h)          with nu = -1,
        T1 = (e + f, 0) / sqrt(2)   with nu = 0,
        T2 = i (e - f, 0) / sqrt(2) with nu = 0,

    and the h-module map sends the diagonal basis (h,h), (e,e), (f,f) to
    h, e, f of a single sl2.
    """
    g = direct_sum(sl2(), sl2())
    n = g.dim
    swap = ExactMatrix.from_entries(n, n, {(i, (i + 3) % 6): 1 for i in range(n)})
    theta = ExactMatrix.from_entries(
        n, n, {(i, i): d for i, d in enumerate([1, -1, -1, 1, -1, -1])})
    half_i = I * HALF
    h_basis = [
        vec_add(unit_vector(n, 0), unit_vector(n, 3)),
        vec_add(unit_vector(n, 1), unit_vector(n, 4)),
        vec_add(unit_vector(n, 2), unit_vector(n, 5)),
    ]
    l_basis = [unit_vector(n, 0), unit_vector(n, 1), unit_vector(n, 2),
               unit_vector(n, 3)]
    z = vec_sub(vec_scale(half_i, unit_vector(n, 0)),
                vec_scale(half_i, unit_vector(n, 3)))
    t1 = vec_scale(INV_SQRT2, vec_add(unit_vector(n, 1), unit_vector(n, 2)))
    t2 = vec_scale(I * INV_SQRT2,
                   vec_sub(unit_vector(n, 1), unit_vector(n, 2)))
    h_module_map = [unit_vector(3, 0), unit_vector(3, 1), unit_vector(3, 2)]
    return TransitiveTriple(g, swap, theta, h_basis, l_basis,
                            zq_basis=[z], t_basis=[t1, t2],
                            h_module_map=h_module_map)
