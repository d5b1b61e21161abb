"""Structure-constant Lie algebras and exact weight modules.

A LieAlgebra is a finite-dimensional algebra over Q(sqrt2, i) given by
structure constants and an invariant symmetric bilinear form; Jacobi and
invariance are checked at construction.  Weight modules store one action
matrix per generator and re-verify the bracket relations when built, so a
module object is itself a certificate that its action is consistent.
"""
from __future__ import annotations

from functools import cache

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
        if self.form.shape != (n, n):
            raise ValueError("form has wrong shape")
        for i in range(n):
            for j in range(n):
                if not vec_is_zero(vec_add(self.brackets[i][j], self.brackets[j][i])):
                    raise ValueError(f"bracket not antisymmetric at ({i},{j})")
                if self.form[i, j] != self.form[j, i]:
                    raise ValueError("form not symmetric")
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    s = vec_add(self.bracket(self.brackets[i][j], unit_vector(n, k)),
                                vec_add(self.bracket(self.brackets[j][k], unit_vector(n, i)),
                                        self.bracket(self.brackets[k][i], unit_vector(n, j))))
                    if not vec_is_zero(s):
                        raise ValueError(f"Jacobi fails on basis triple ({i},{j},{k})")
        # invariance: <[x,y],z> + <y,[x,z]> = 0 on all basis triples
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = self.form_value(self.brackets[i][j], unit_vector(n, k))
                    rhs = self.form_value(unit_vector(n, j), self.brackets[i][k])
                    if not (lhs + rhs).is_zero():
                        raise ValueError(f"form not invariant at ({i},{j},{k})")

    def bracket(self, x: Vector, y: Vector) -> Vector:
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
    """A module with a weight-graded basis and one exact matrix per generator.

    kind is "finite", "lowest" or "highest".  The bracket relations hold on
    the first `certified` basis vectors: all of them for a finite module,
    v_0 .. v_{N-1} for the truncated kinds, whose stored top level may
    violate them (inherent to cutting an infinite module at a finite
    level).  Generator 0 grades the basis: it acts diagonally by the
    stored weights.
    """

    def __init__(self, algebra: LieAlgebra, weights, actions, kind: str = "finite"):
        if kind not in ("finite", "lowest", "highest"):
            raise ValueError(f"unknown module kind {kind!r}")
        self.algebra = algebra
        self.weights = tuple(int(w) for w in weights)
        self.dim = len(self.weights)
        self.actions = tuple(actions)
        self.kind = kind
        self.certified = self.dim if kind == "finite" else self.dim - 1
        self._verify()

    def _verify(self):
        if len(self.actions) != self.algebra.dim:
            raise ValueError("one action matrix per generator required")
        for m in self.actions:
            if m.shape != (self.dim, self.dim):
                raise ValueError("action matrix has wrong shape")
        n = self.algebra.dim
        for i in range(n):
            for j in range(i + 1, n):
                lhs = self.actions[i] @ self.actions[j] - self.actions[j] @ self.actions[i]
                rhs = self.action(self.algebra.brackets[i][j])
                failing = [col for (_, col), _ in (lhs - rhs).items() if col < self.certified]
                if failing:
                    raise ValueError(
                        f"bracket relation [{self.algebra.labels[i]},"
                        f"{self.algebra.labels[j]}] fails on basis vector {min(failing)}")
        if self.actions[0] != _diagonal(self.weights):
            raise ValueError("grading generator is not diagonal "
                             "with the stored weights")

    def action(self, x: Vector) -> ExactMatrix:
        out = ExactMatrix.zeros(self.dim, self.dim)
        for i, xi in enumerate(x):
            if not xi.is_zero():
                out = out + self.actions[i] * xi
        return out


def _diagonal(weights) -> ExactMatrix:
    n = len(weights)
    return ExactMatrix.from_entries(n, n, {(r, r): w for r, w in enumerate(weights)})


def _ladder_module(mu: int, n_levels: int, kind: str) -> WeightModule:
    """The sl2 ladder v_0 .. v_N (N = n_levels) from weight mu: e climbs
    freely for the lowest kind, f descends freely for the others (the
    public builders state the actions)."""
    dim = n_levels + 1
    step = {(j + 1, j): 1 for j in range(dim - 1)}
    if kind == "lowest":
        weights = [mu + 2 * j for j in range(dim)]
        e, f = step, {(j - 1, j): -j * (mu + j - 1) for j in range(1, dim)}
    else:
        weights = [mu - 2 * j for j in range(dim)]
        e, f = {(j - 1, j): j * (mu - j + 1) for j in range(1, dim)}, step
    return WeightModule(sl2(), weights,
                        [_diagonal(weights),
                         ExactMatrix.from_entries(dim, dim, e),
                         ExactMatrix.from_entries(dim, dim, f)],
                        kind=kind)


def sl2_irrep(n: int) -> WeightModule:
    """The (n+1)-dimensional irreducible sl2 module with weights n, n-2, ..., -n.

    Basis w_0 .. w_n ordered by descending weight; f lowers freely,
    e raises with e.w_j = j(n-j+1) w_{j-1}.
    """
    if n < 0:
        raise ValueError("highest weight must be nonnegative")
    return _ladder_module(n, n, "finite")


def lowest_weight_module(mu: int, n_levels: int) -> WeightModule:
    """Truncation of the lowest-weight Verma-type module at level N = n_levels.

    Basis v_0 .. v_N with h v_j = (mu + 2j) v_j, e v_j = v_{j+1} (and
    e v_N = 0, the truncation), f v_j = -j(mu + j - 1) v_{j-1}.
    """
    return _ladder_module(mu, n_levels, "lowest")


def highest_weight_module(mu: int, n_levels: int) -> WeightModule:
    """Truncation of the highest-weight Verma-type module at level N = n_levels.

    Basis v_0 .. v_N with h v_j = (mu - 2j) v_j, f v_j = v_{j+1} (and
    f v_N = 0), e v_j = j(mu - j + 1) v_{j-1}.
    """
    return _ladder_module(mu, n_levels, "highest")
