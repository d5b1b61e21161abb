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
"""

from functools import cached_property
from itertools import combinations

from .scalars import (ExactMatrix, coerce, rational_roots, real_sqrt, ZERO,
                      ONE, I, HALF, INV_SQRT2)
from .lie import (vec_add, vec_sub, vec_scale, vec_combination, vec_is_zero,
                  unit_vector, sl2, direct_sum)
from .clifford import ReductivePair
from .spin import SpinModule


def solve_in_span(vectors, x):
    """Coefficients expressing x over the given vectors, or None.

    The vectors need not be independent; any valid coefficient tuple is
    returned.  None means x lies outside their span.
    """
    dim = len(x)
    reduced, pivots = ExactMatrix.from_columns(list(vectors) + [x], dim).rref()
    n = len(vectors)
    if n in pivots:
        return None
    coeffs = [ZERO] * n
    for r, p in enumerate(pivots):
        coeffs[p] = reduced[r, n]
    if not vec_is_zero(vec_sub(vec_combination(coeffs, vectors, dim), x)):
        return None
    return tuple(coeffs)


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
        if any(len({nu for _, nu, _ in self._eigen_parts(u)}) != 1
               for u in preferred):
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

    def _eigen_parts(self, x):
        """The nonzero terms c * v of x over the sigma-eigenbasis of l, as
        (c, nu, v) with v in l(nu); raises if x lies outside l."""
        coords = solve_in_span(self.eigenbasis, tuple(coerce(c) for c in x))
        if coords is None:
            raise TripleStructureError("vector lies outside l")
        return [(c, nu, v) for c, nu, v in
                zip(coords, self.eigen_nus, self.eigenbasis) if not c.is_zero()]

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
        out = (ZERO,) * self.algebra.dim
        for c, nu, base_vec in self._eigen_parts(x):
            if nu == ONE:
                raise TripleStructureError(
                    "rho is undefined on the fixed part of l")
            component = vec_scale(c, base_vec)
            mirrored = vec_scale(sign, _apply(self.sigma, [component])[0])
            out = vec_add(out, vec_scale(self.d[nu] * HALF,
                                         vec_add(component, mirrored)))
        return out

    @cached_property
    def h_brackets(self):
        """(i, j, coordinates of [h_i, h_j] over the h basis) for i < j."""
        h = self.h_basis
        return [(i, j, solve_in_span(h, self.algebra.bracket(h[i], h[j])))
                for i in range(len(h)) for j in range(i + 1, len(h))]

    def nu_of(self, x):
        """The sigma-weight of a vector lying in a single l(nu)."""
        seen = {nu for _, nu, _ in self._eigen_parts(x)}
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
    eig = [(v, nu) for v, nu in zip(triple.eigenbasis, triple.eigen_nus)
           if nu != ONE]
    quarter = HALF * HALF
    cases = []
    for x, nux in eig:
        for y, nuy in eig:
            for z, nuz in eig:
                lhs = omega_value(triple, triple.rho(1, x),
                                  triple.rho(-1, y), triple.rho(-1, z))
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
