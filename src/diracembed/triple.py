"""Nested symmetric structures on a quadratic Lie algebra.

A transitive triple packages a Lie algebra g with two commuting involutions:
sigma, whose fixed subalgebra is h, and theta, a Cartan involution splitting
g = k + s.  A subalgebra l, stable under theta and transverse to h, carries
the generalized sigma-eigenspace decomposition

    l = sum over nu of l(nu),   <sigma X, Y> = nu <X, Y>  for X in l(nu),

from which the maps rho_plus / rho_minus are built.  The class precomputes
orthonormalized bases of the pieces of l, the reductive pairs used by the
Dirac constructions, and the spin modules over their complements.
"""

from functools import cached_property

from .scalars import (ExactMatrix, coerce, parse_scalar, rational_roots,
                      real_sqrt, ZERO, ONE, I, HALF, INV_SQRT2)
from .lie import (LieAlgebra, vec_add, vec_sub, vec_scale, vec_combination,
                  vec_is_zero, unit_vector, sl2, direct_sum)
from .clifford import ReductivePair
from .spin import SpinModule


def solve_in_span(vectors, x):
    """Coefficients expressing x over the given vectors, or None.

    The vectors need not be independent; any valid coefficient tuple is
    returned.  None means x lies outside their span.
    """
    dim = len(x)
    if not vectors:
        return () if vec_is_zero(x) else None
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


def span_basis(vectors, dim):
    """Subset of the given vectors forming a basis of their span."""
    if not vectors:
        return []
    _, pivots = ExactMatrix.from_columns(vectors, dim).rref()
    return [vectors[p] for p in pivots]


def span_intersection(first, second, dim):
    """Basis of the intersection of two spans of coordinate vectors."""
    if not first or not second:
        return []
    combined = ExactMatrix.from_columns(
        list(first) + [vec_scale(-ONE, u) for u in second], dim)
    out = []
    for null_col in combined.nullspace():
        v = vec_combination(null_col.col(0)[:len(first)], first, dim)
        if not vec_is_zero(v):
            out.append(v)
    return span_basis(out, dim)


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

        self.h_basis = [tuple(coerce(c) for c in v) for v in h_basis]
        self.l_basis = [tuple(coerce(c) for c in v) for v in l_basis]
        for v in self.h_basis:
            if not vec_is_zero(vec_sub(self._apply(sigma, v), v)):
                raise TripleStructureError("h basis vector not sigma-fixed")
            if solve_in_span(self.h_basis, self._apply(theta, v)) is None:
                raise TripleStructureError("h is not theta stable")
        if len(self.h_basis) != n - (sigma - ident).rank():
            raise TripleStructureError("h basis does not span the fixed space")
        if len(span_basis(self.h_basis, n)) != len(self.h_basis):
            raise TripleStructureError("h basis is dependent")
        if len(span_basis(self.l_basis, n)) != len(self.l_basis):
            raise TripleStructureError("l basis is dependent")
        self._check_subalgebra(self.l_basis, "l")
        for v in self.l_basis:
            if solve_in_span(self.l_basis, self._apply(theta, v)) is None:
                raise TripleStructureError("l is not theta stable")
        if len(span_basis(self.h_basis + self.l_basis, n)) != n:
            raise TripleStructureError("h + l does not span the algebra")

        self.k_basis = [m.col(0) for m in (theta - ident).nullspace()]
        self.s_basis = [m.col(0) for m in (theta + ident).nullspace()]

        self.nu_spaces = self._nu_decompose()
        self.d = {nu: self._weight_factor(nu) for nu, _ in self.nu_spaces
                  if nu != ONE}
        self.eigenbasis = [v for _, basis in self.nu_spaces for v in basis]
        self.eigen_nus = [nu for nu, basis in self.nu_spaces for _ in basis]

        self.l_h_basis = next((list(basis) for nu, basis in self.nu_spaces
                               if nu == ONE), [])
        for v in self.l_h_basis:
            if solve_in_span(self.k_basis, v) is None:
                raise TripleStructureError(
                    "l cap h is not contained in the compact part")

        self.zq_basis = self._resolve_preferred(zq_basis, want_compact=True)
        self.t_basis = self._resolve_preferred(t_basis, want_compact=False)
        if len(self.t_basis) % 2 != 0:
            raise TripleStructureError(
                "l cap s must be even dimensional for a spin module")
        for v in self.zq_basis + self.t_basis:
            bracket = algebra.bracket(v, self._apply(sigma, v))
            if not vec_is_zero(bracket):
                raise TripleStructureError(
                    "basis vector does not commute with its sigma image")

        if len(self.zq_basis) == 1:
            self.z_labels = ("Z",)
        else:
            self.z_labels = tuple(f"Z{i + 1}"
                                  for i in range(len(self.zq_basis)))
        self.t_labels = tuple(f"T{i + 1}" for i in range(len(self.t_basis)))
        self.ql_labels = self.z_labels + self.t_labels

        self.q_basis = [self.rho(-1, v) for v in self.zq_basis + self.t_basis]
        if len(span_basis(self.q_basis, n)) != len(self.q_basis) or \
                len(self.q_basis) != n - len(self.h_basis):
            raise TripleStructureError(
                "rho_minus images do not give a complement of h")
        if not self.rho_is_isometry():
            raise TripleStructureError("rho_minus is not an isometry")

        self.pair_g_h = ReductivePair(algebra, self.h_basis, self.q_basis,
                                      self.ql_labels)
        self.pair_l_lh = ReductivePair(algebra, self.l_h_basis,
                                       self.zq_basis + self.t_basis,
                                       self.ql_labels)
        self.pair_l_lk = ReductivePair(algebra,
                                       self.l_h_basis + self.zq_basis,
                                       self.t_basis, self.t_labels)
        self.pair_lk_lh = ReductivePair(algebra, self.l_h_basis,
                                        self.zq_basis, self.z_labels)
        self.h_k_basis = span_intersection(self.h_basis, self.k_basis, n)
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

        if h_module_map is not None and len(h_module_map) != len(self.h_basis):
            raise TripleStructureError(
                "the h-module map needs one row per h basis vector")
        self.h_module_map = h_module_map

    # -- construction helpers -------------------------------------------

    def _apply(self, matrix, v):
        return (matrix @ ExactMatrix.from_columns([v], len(v))).col(0)

    def _check_isometry(self, matrix, name):
        g = self.algebra
        for i in range(g.dim):
            for j in range(i, g.dim):
                if g.form_value(matrix.col(i), matrix.col(j)) != g.form[i, j]:
                    raise TripleStructureError(
                        f"{name} does not preserve the form")

    def _check_automorphism(self, matrix, name):
        g = self.algebra
        for i in range(g.dim):
            for j in range(i + 1, g.dim):
                lhs = self._apply(matrix, g.brackets[i][j])
                rhs = g.bracket(matrix.col(i), matrix.col(j))
                if not vec_is_zero(vec_sub(lhs, rhs)):
                    raise TripleStructureError(
                        f"{name} is not a Lie algebra automorphism")

    def _check_subalgebra(self, basis, name):
        for i, x in enumerate(basis):
            for y in basis[i + 1:]:
                if solve_in_span(basis, self.algebra.bracket(x, y)) is None:
                    raise TripleStructureError(f"{name} is not a subalgebra")

    def _nu_decompose(self):
        """Split l into the generalized sigma-eigenspaces l(nu).

        l(nu) consists of the X in l with <sigma X, Y> = nu <X, Y> for all
        Y in l.  In coordinates over the l-basis this is the generalized
        eigenproblem A x = nu B x with A the sigma-twisted Gram matrix and
        B the Gram matrix of l, which must be invertible.
        """
        g = self.algebra
        m = len(self.l_basis)
        a = ExactMatrix([[g.form_value(self._apply(self.sigma,
                                                   self.l_basis[i]),
                                       self.l_basis[j])
                          for i in range(m)] for j in range(m)])
        b = ExactMatrix([[g.form_value(self.l_basis[i], self.l_basis[j])
                          for i in range(m)] for j in range(m)])
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

    def _resolve_preferred(self, preferred, want_compact):
        """Validate a preferred basis, or orthonormalize a computed one."""
        n = self.algebra.dim
        target = self.k_basis if want_compact else self.s_basis
        pieces = []
        for nu, basis in self.nu_spaces:
            if nu == ONE:
                continue
            pieces.extend(span_intersection(list(basis), target, n))
        if preferred is None:
            return _orthonormalize(self.algebra, pieces)
        preferred = [tuple(coerce(c) for c in v) for v in preferred]
        if len(preferred) != len(pieces) or \
                len(span_basis(preferred + pieces, n)) != len(pieces):
            raise TripleStructureError("preferred basis spans the wrong space")
        for i, u in enumerate(preferred):
            if len({nu for _, nu, _ in self._eigen_parts(u)}) != 1:
                raise TripleStructureError(
                    "preferred basis vector mixes sigma-eigenspaces")
            for j, w in enumerate(preferred):
                expected = ONE if i == j else ZERO
                value = self.algebra.form_value(u, w)
                if i == j and value == -ONE:
                    continue
                if value != expected:
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
        pairs = list(zip(self.zq_basis + self.t_basis, self.q_basis))
        return all(g.form_value(qx, qy) == g.form_value(x, y)
                   for x, qx in pairs for y, qy in pairs)

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
            mirrored = self._apply(self.sigma, component)
            if sign == -1:
                mirrored = vec_scale(-ONE, mirrored)
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
    """Orthogonal basis with norms +-1 for the span of the given vectors.

    Standard Gram-Schmidt with exact square roots; vectors of zero norm
    are repaired by adding a partner they pair with.  Fails if a needed
    square root leaves the scalar field.
    """
    basis = [tuple(v) for v in span_basis(vectors, algebra.dim)]
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


# -- plain text serialization -----------------------------------------------

def dump_triple_description(triple):
    """Key-value text form of a triple, readable by parse_triple_description."""
    g = triple.algebra
    lines = [f"dim: {g.dim}", "labels: " + ", ".join(g.labels)]

    def row(v):
        return ", ".join(s.canonical() for s in v)

    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            b = g.bracket(unit_vector(g.dim, i), unit_vector(g.dim, j))
            if not vec_is_zero(b):
                lines.append(f"bracket {g.labels[i]} {g.labels[j]}: {row(b)}")
    for i in range(g.dim):
        for j in range(i, g.dim):
            if not g.form[i, j].is_zero():
                lines.append(f"form {g.labels[i]} {g.labels[j]}: "
                             f"{g.form[i, j].canonical()}")
    for name, matrix in (("sigma", triple.sigma), ("theta", triple.theta)):
        for j in range(g.dim):
            lines.append(f"{name} {g.labels[j]}: {row(matrix.col(j))}")
    for name, basis in (("h", triple.h_basis), ("l", triple.l_basis),
                        ("zbasis", triple.zq_basis),
                        ("tbasis", triple.t_basis)):
        for idx, v in enumerate(basis):
            lines.append(f"{name} {idx}: {row(v)}")
    if triple.h_module_map is not None:
        for idx, v in enumerate(triple.h_module_map):
            lines.append(f"hmodule {idx}: {row(v)}")
    return "\n".join(lines) + "\n"


def _line_error(line, problem):
    return ValueError(f"{problem} in line {line!r}")


def _line_values(line, tail):
    """The comma-separated scalars after a line's ':'."""
    try:
        return tuple(parse_scalar(tok.strip())
                     for tok in tail.split(",")) if tail.strip() else ()
    except ValueError as exc:
        raise _line_error(line, exc) from None


def parse_triple_description(text):
    """Build a TransitiveTriple from its key-value text form.

    Lines look like ``bracket h1 e1: 0, 2, 0, 0, 0, 0``; blank lines and
    lines starting with ``#`` are skipped.  Coordinates use the canonical
    scalar grammar.  A malformed line raises a ValueError that quotes it.
    """
    header = {}
    entries = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, sep, tail = line.partition(":")
        if not sep:
            raise ValueError(f"missing ':' in line {line!r}")
        words = head.split()
        if not words:
            raise _line_error(line, "missing key")
        if words[0] in ("dim", "labels"):
            if len(words) > 1 or words[0] in header:
                raise _line_error(line, f"repeated or qualified {words[0]!r}")
            header[words[0]] = (line, tail)
        else:
            entries.append((line, words[0], words[1:], tail))
    if set(header) != {"dim", "labels"}:
        raise ValueError("dim and labels must be given")
    line, tail = header["dim"]
    try:
        dim = int(tail)
    except ValueError:
        raise _line_error(line, "dim is not an integer") from None
    line, tail = header["labels"]
    labels = tuple(tok.strip() for tok in tail.split(","))
    if len(labels) != dim or len(set(labels)) != dim or not all(labels):
        raise _line_error(line, f"expected {dim} distinct labels")
    index = {lab: i for i, lab in enumerate(labels)}

    # key -> (names it takes, whether they are labels, values per line)
    shapes = {"bracket": (2, True, dim), "form": (2, True, 1),
              "sigma": (1, True, dim), "theta": (1, True, dim),
              "h": (1, False, dim), "l": (1, False, dim),
              "zbasis": (1, False, dim), "tbasis": (1, False, dim),
              "hmodule": (1, False, None)}
    given = {key: {} for key in shapes}
    for line, key, names, tail in entries:
        if key not in shapes:
            raise _line_error(line, f"unknown key {key!r}")
        arity, labelled, width = shapes[key]
        if len(names) != arity:
            raise _line_error(line, f"{key!r} takes {arity} name(s)")
        if labelled:
            unknown = [n for n in names if n not in index]
            if unknown:
                raise _line_error(line, f"unknown label {unknown[0]!r}")
            slot = tuple(index[n] for n in names)
            if key == "form":
                slot = tuple(sorted(slot))
        elif names[0].isdecimal():
            slot = int(names[0])
        else:
            raise _line_error(line, f"index {names[0]!r} is not a number")
        if slot in given[key]:
            raise _line_error(line, "duplicate key")
        values = _line_values(line, tail)
        if width is None:           # every hmodule row as long as the first
            shapes[key] = (arity, labelled, len(values))
        elif len(values) != width:
            raise _line_error(line, f"expected {width} value(s), found {len(values)}")
        given[key][slot] = values

    table = [[(ZERO,) * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), v in given["bracket"].items():
        table[i][j] = v
        if (j, i) not in given["bracket"]:
            table[j][i] = vec_scale(-ONE, v)
    form = [[ZERO] * dim for _ in range(dim)]
    for (i, j), (v,) in given["form"].items():
        form[i][j] = form[j][i] = v
    algebra = LieAlgebra(labels, table, ExactMatrix(form))

    def matrix_from(name):
        cols = given[name]
        if len(cols) != dim:
            raise ValueError(f"{name} must list one column per label")
        return ExactMatrix.from_columns([cols[(j,)] for j in range(dim)], dim)

    def basis_from(key):
        rows = given[key]
        return [rows[i] for i in sorted(rows)] if rows else None

    return TransitiveTriple(
        algebra, matrix_from("sigma"), matrix_from("theta"),
        basis_from("h") or [], basis_from("l") or [],
        zq_basis=basis_from("zbasis"), t_basis=basis_from("tbasis"),
        h_module_map=basis_from("hmodule"))


def load_triple(path):
    """Read a triple description file.  See parse_triple_description."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_triple_description(fh.read())
