"""Structure-constant Lie algebras and exact weight modules.

A LieAlgebra is a finite-dimensional algebra over Q(sqrt2, i) given by
structure constants and an invariant symmetric bilinear form; Jacobi and
invariance are checked at construction.  A WeightModule is an sl2 ladder
(an irreducible module or a truncated highest or lowest weight module)
whose stored h, e and f are checked against the bracket relations when
built, so a module object is itself a certificate that its action is
consistent.
"""
from __future__ import annotations

from functools import cache, cached_property

from .scalars import ExactMatrix, ExactScalar, ONE, ZERO, coerce

Vector = tuple  # coordinate vector over an algebra's basis


def vec(entries) -> Vector:
    return tuple(coerce(x) for x in entries)


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(x + y for x, y in zip(u, v))


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(x - y for x, y in zip(u, v))


def vec_scale(s, u: Vector) -> Vector:
    s = coerce(s)
    return tuple(s * x for x in u)


def vec_combination(coeffs, vectors, dim: int) -> Vector:
    """The length-dim vector sum_k coeffs[k] * vectors[k]."""
    out = [ZERO] * dim
    for c, v in zip(coeffs, vectors):
        if not c.is_zero():
            for k, x in enumerate(v):
                if not x.is_zero():
                    out[k] = out[k] + c * x
    return tuple(out)


def matrix_combination(coeffs, matrices, dim: int) -> ExactMatrix:
    """The dim x dim matrix sum_k coeffs[k] * matrices[k]."""
    out = ExactMatrix.zeros(dim, dim)
    for c, m in zip(coeffs, matrices, strict=True):
        if not c.is_zero():
            out = out + m * c
    return out


def vec_is_zero(u: Vector) -> bool:
    return all(x.is_zero() for x in u)


def unit_vector(n: int, j: int) -> Vector:
    return tuple(ONE if k == j else ZERO for k in range(n))


class LieAlgebra:
    """A Lie algebra with a chosen basis and an invariant bilinear form.

    brackets[i][j] holds the coordinates of [b_i, b_j]; form is the Gram
    matrix of the invariant form on the basis.
    """

    def __init__(self, labels, brackets, form: ExactMatrix):
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        self.brackets = tuple(tuple(vec(v) for v in row) for row in brackets)
        self.form = form
        self._verify()

    def _verify(self):
        n = self.dim
        if len(self.brackets) != n or any(len(r) != n for r in self.brackets):
            raise ValueError("bracket table has wrong shape")
        for i, row in enumerate(self.brackets):
            for j, v in enumerate(row):
                if len(v) != n:
                    raise ValueError(f"bracket ({i},{j}) has {len(v)} "
                                     f"coordinates, not {n}")
        if self.form.shape != (n, n):
            raise ValueError("form has wrong shape")
        for i in range(n):
            for j in range(n):
                if not vec_is_zero(vec_add(self.brackets[i][j], self.brackets[j][i])):
                    raise ValueError(f"bracket not antisymmetric at ({i},{j})")
                if self.form[i, j] != self.form[j, i]:
                    raise ValueError("form not symmetric")
        # with antisymmetry, Jacobi on (i, j, k) is column k of
        # [ad_i, ad_j] = ad [b_i, b_j]; invariance of the form on (i, j, k)
        # is entry (j, k) of ad_i^T F + F ad_i = 0
        ad = self.ad
        for i in range(n):
            for j in range(i + 1, n):
                defect = (ad[i] @ ad[j] - ad[j] @ ad[i]
                          - self.adjoint(self.brackets[i][j]))
                if not defect.is_zero():
                    k = min(c for (_, c), _ in defect.items())
                    raise ValueError(f"Jacobi fails on basis triple ({i},{j},{k})")
        for i in range(n):
            defect = ad[i].transpose() @ self.form + self.form @ ad[i]
            if not defect.is_zero():
                j, k = min(key for key, _ in defect.items())
                raise ValueError(f"form not invariant at ({i},{j},{k})")

    @cached_property
    def ad(self) -> tuple:
        """The matrices ad b_i; column j of ad b_i holds [b_i, b_j]."""
        return tuple(ExactMatrix.from_columns(row, self.dim) for row in self.brackets)

    def adjoint(self, x: Vector) -> ExactMatrix:
        """The matrix of ad x."""
        return matrix_combination(x, self.ad, self.dim)

    def gram(self, columns: ExactMatrix) -> ExactMatrix:
        """The form's Gram matrix of the given column vectors."""
        return columns.transpose() @ self.form @ columns

    def check_lengths(self, *vectors: Vector) -> None:
        for v in vectors:
            if len(v) != self.dim:
                raise ValueError(f"vector has {len(v)} coordinates, but the "
                                 f"algebra has dim {self.dim}")

    def bracket(self, x: Vector, y: Vector) -> Vector:
        self.check_lengths(x, y)
        out = [ZERO] * self.dim
        for i, xi in enumerate(x):
            if xi.is_zero():
                continue
            for j, yj in enumerate(y):
                if yj.is_zero():
                    continue
                coeff = xi * yj
                for k, c in enumerate(self.brackets[i][j]):
                    if not c.is_zero():
                        out[k] = out[k] + coeff * c
        return tuple(out)

    def form_value(self, x: Vector, y: Vector) -> ExactScalar:
        self.check_lengths(x, y)
        total = ZERO
        for i, xi in enumerate(x):
            if xi.is_zero():
                continue
            for j, yj in enumerate(y):
                if not yj.is_zero():
                    total = total + xi * yj * self.form[i, j]
        return total

    def index_of(self, label: str) -> int:
        return self.labels.index(label)

    def basis_vector(self, label: str) -> Vector:
        return unit_vector(self.dim, self.index_of(label))

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, LieAlgebra) and self.labels == other.labels
                and self.brackets == other.brackets and self.form == other.form)

    def __repr__(self):
        return f"LieAlgebra({', '.join(self.labels)})"


@cache
def sl2() -> LieAlgebra:
    """sl(2) in the basis (h, e, f) with the 2x2 trace form, built and
    verified once.

    [h,e] = 2e, [h,f] = -2f, [e,f] = h; the trace form has <h,h> = 2,
    <e,f> = 1 and all other basis pairings zero.
    """
    z3 = (ZERO, ZERO, ZERO)
    h, e, f = unit_vector(3, 0), unit_vector(3, 1), unit_vector(3, 2)
    brackets = [
        [z3, vec_scale(2, e), vec_scale(-2, f)],
        [vec_scale(-2, e), z3, h],
        [vec_scale(2, f), vec_scale(-1, h), z3],
    ]
    form = ExactMatrix([[2, 0, 0], [0, 0, 1], [0, 1, 0]])
    return LieAlgebra(("h", "e", "f"), brackets, form)


def direct_sum(a: LieAlgebra, b: LieAlgebra, suffixes=("1", "2")) -> LieAlgebra:
    """Direct sum with componentwise brackets and orthogonal-sum form."""
    labels = tuple(l + suffixes[0] for l in a.labels) + tuple(l + suffixes[1] for l in b.labels)
    n, m = a.dim, b.dim
    zero = tuple([ZERO] * (n + m))
    brackets = [[zero] * (n + m) for _ in range(n + m)]
    for i in range(n):
        for j in range(n):
            brackets[i][j] = tuple(a.brackets[i][j]) + tuple([ZERO] * m)
    for i in range(m):
        for j in range(m):
            brackets[n + i][n + j] = tuple([ZERO] * n) + tuple(b.brackets[i][j])
    form = dict(a.form.items())
    form.update(((n + i, n + j), x) for (i, j), x in b.form.items())
    return LieAlgebra(labels, brackets, ExactMatrix.from_entries(n + m, n + m, form))


class WeightModule:
    """The sl2 ladder v_0 .. v_N (N = n_levels) from weight mu, certified.

    kind "finite" and "highest" step down: h v_j = (mu - 2j) v_j, f v_j =
    v_{j+1}, e v_j = j(mu - j + 1) v_{j-1}; kind "lowest" steps up: h v_j =
    (mu + 2j) v_j, e v_j = v_{j+1}, f v_j = -j(mu + j - 1) v_{j-1}; the free
    step stops at v_N.  actions holds the matrices of (h, e, f).  The
    bracket relations are checked on them for the first `certified` basis
    vectors: all of them for a finite module, v_0 .. v_{N-1} for the
    truncated kinds, whose top level may violate them (inherent to cutting
    an infinite module at a finite level).  h is the diagonal of the
    weights, so [h,e] = 2e and [h,f] = -2f are checked entry by entry as
    weight steps of +2 and -2; [e,f] = h is checked with one commutator.
    """

    def __init__(self, mu: int, n_levels: int, kind: str):
        if kind not in ("finite", "lowest", "highest"):
            raise ValueError(f"unknown module kind {kind!r}")
        if n_levels < 0:
            raise ValueError(f"n_levels must be nonnegative, got {n_levels}")
        dim = n_levels + 1
        step = {(j + 1, j): 1 for j in range(n_levels)}
        if kind == "lowest":
            weights = [mu + 2 * j for j in range(dim)]
            e, f = step, {(j - 1, j): -j * (mu + j - 1) for j in range(1, dim)}
        else:
            weights = [mu - 2 * j for j in range(dim)]
            e, f = {(j - 1, j): j * (mu - j + 1) for j in range(1, dim)}, step
        h = ExactMatrix.from_entries(dim, dim, {(j, j): w for j, w in enumerate(weights)})
        e, f = ExactMatrix.from_entries(dim, dim, e), ExactMatrix.from_entries(dim, dim, f)
        self.algebra = sl2()
        self.weights = tuple(weights)
        self.dim = dim
        self.actions = (h, e, f)
        self.kind = kind
        self.certified = dim if kind == "finite" else dim - 1
        for relation, failing in (
                ("[h,e]", [c for (r, c), _ in e.items() if weights[r] != weights[c] + 2]),
                ("[h,f]", [c for (r, c), _ in f.items() if weights[r] != weights[c] - 2]),
                ("[e,f]", [c for (_, c), _ in (e @ f - f @ e - h).items()])):
            failing = [c for c in failing if c < self.certified]
            if failing:
                raise ValueError(f"bracket relation {relation} fails "
                                 f"on basis vector {min(failing)}")

    def action(self, x: Vector) -> ExactMatrix:
        return matrix_combination(x, self.actions, self.dim)


def sl2_irrep(n: int) -> WeightModule:
    """The (n+1)-dimensional irreducible sl2 module with weights n, n-2, ..., -n.

    Basis w_0 .. w_n ordered by descending weight; f lowers freely,
    e raises with e.w_j = j(n-j+1) w_{j-1}.
    """
    if n < 0:
        raise ValueError("highest weight must be nonnegative")
    return WeightModule(n, n, "finite")


def lowest_weight_module(mu: int, n_levels: int) -> WeightModule:
    """Truncation of the lowest-weight Verma-type module at level N = n_levels.

    Basis v_0 .. v_N with h v_j = (mu + 2j) v_j, e v_j = v_{j+1} (and
    e v_N = 0, the truncation), f v_j = -j(mu + j - 1) v_{j-1}.
    """
    return WeightModule(mu, n_levels, "lowest")


def highest_weight_module(mu: int, n_levels: int) -> WeightModule:
    """Truncation of the highest-weight Verma-type module at level N = n_levels.

    Basis v_0 .. v_N with h v_j = (mu - 2j) v_j, f v_j = v_{j+1} (and
    f v_N = 0), e v_j = j(mu - j + 1) v_{j-1}.
    """
    return WeightModule(mu, n_levels, "highest")
