"""Clifford algebras of diagonal quadratic spaces, normal forms included.

Convention: generators satisfy x y + y x = <x, y>, with no factor 2 on the
right-hand side.  An orthonormal generator therefore squares to +1/2 or
-1/2 depending on its sign.  Every element is kept in normal form: a sum
of strictly increasing index monomials with nonzero exact coefficients.

The adjoint embedding alpha of an acting subalgebra into the degree-2
part of the Clifford algebra of an invariant complement, and the cubic
element of such a complement, both live here.  The cubic coefficient
convention reads the orthogonal-basis weights as the signs epsilon_i of
the basis vectors (this choice reproduces the degenerate symmetric-pair
value 0 and the shipped instance's value, and is the one the rest of the
package relies on).
"""
from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .lie import LieAlgebra, Vector, vec
from .scalars import ExactMatrix, ExactScalar, ONE, ZERO, HALF, coerce


class QuadraticSpace(namedtuple("QuadraticSpace", "labels signs")):
    """A space with ordered basis labels and a diagonal form diag(signs)."""

    __slots__ = ()

    def __new__(cls, labels, signs):
        labels = tuple(labels)
        signs = tuple(int(s) for s in signs)
        if len(labels) != len(signs):
            raise ValueError("labels and signs must have equal length")
        if any(s not in (1, -1) for s in signs):
            raise ValueError("signs must be +1 or -1")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels")
        return super().__new__(cls, labels, signs)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def check_length(self, v, name="vector") -> None:
        if len(v) != self.dim:
            raise ValueError(f"{name} has {len(v)} coordinates, but the "
                             f"space has dim {self.dim}")

    def form(self, u, v) -> ExactScalar:
        """Evaluate the diagonal form on two coordinate vectors."""
        self.check_length(u), self.check_length(v)
        total = ZERO
        for eps, x, y in zip(self.signs, u, v):
            if not (x.is_zero() or y.is_zero()):
                total = total + x * y * coerce(eps)
        return total


class CliffordElement:
    """An element of the Clifford algebra of a QuadraticSpace, in normal form.

    terms maps strictly increasing index tuples to nonzero coefficients;
    the empty tuple indexes the unit.
    """

    __slots__ = ("space", "terms")

    def __init__(self, space: QuadraticSpace, terms=None):
        object.__setattr__(self, "space", space)
        clean = {}
        for mono, coeff in (terms or {}).items():
            mono = tuple(mono)
            if list(mono) != sorted(set(mono)):
                raise ValueError(f"monomial {mono} is not strictly increasing")
            if any(i < 0 or i >= space.dim for i in mono):
                raise ValueError(f"monomial {mono} out of range")
            coeff = coerce(coeff)
            if not coeff.is_zero():
                clean[mono] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("CliffordElement is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, space: QuadraticSpace) -> "CliffordElement":
        return cls(space, {})

    @classmethod
    def unit(cls, space: QuadraticSpace, coeff=1) -> "CliffordElement":
        return cls(space, {(): coerce(coeff)})

    @classmethod
    def generator(cls, space: QuadraticSpace, index: int) -> "CliffordElement":
        return cls(space, {(index,): ONE})

    @classmethod
    def vector(cls, space: QuadraticSpace, coords) -> "CliffordElement":
        return cls(space, {(i,): c for i, c in enumerate(coords)})

    @classmethod
    def monomial(cls, space: QuadraticSpace, indices, coeff=1) -> "CliffordElement":
        return cls(space, {tuple(indices): coerce(coeff)})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def even_part(self) -> "CliffordElement":
        return CliffordElement(self.space,
                               {m: c for m, c in self.terms.items() if len(m) % 2 == 0})

    def odd_part(self) -> "CliffordElement":
        return CliffordElement(self.space,
                               {m: c for m, c in self.terms.items() if len(m) % 2 == 1})

    # -- arithmetic --------------------------------------------------------

    def _require_same_space(self, other: "CliffordElement"):
        if self.space != other.space:
            raise ValueError("elements live over different quadratic spaces")

    def __add__(self, other: "CliffordElement") -> "CliffordElement":
        self._require_same_space(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, ZERO) + c
        return CliffordElement(self.space, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return CliffordElement(self.space, {m: -c for m, c in self.terms.items()})

    def scaled(self, s) -> "CliffordElement":
        s = coerce(s)
        return CliffordElement(self.space, {m: c * s for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, ExactScalar)):
            return self.scaled(other)
        self._require_same_space(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                coeff, mono = _mul_monomials(self.space, m1, m2)
                out[mono] = out.get(mono, ZERO) + coeff * c1 * c2
        return CliffordElement(self.space, out)

    def __rmul__(self, other):
        if isinstance(other, (int, ExactScalar)):
            return self.scaled(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, CliffordElement):
            return NotImplemented
        return self.space == other.space and self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for mono in sorted(self.terms, key=lambda m: (len(m), m)):
            c = self.terms[mono]
            body = "*".join(self.space.labels[i] for i in mono)
            cs = str(c)
            if " " in cs:
                cs = f"({cs})"
            pieces.append(cs if not body else (body if cs == "1" else f"{cs}*{body}"))
        return " + ".join(pieces).replace("+ -", "- ")

    def __repr__(self):
        return f"CliffordElement({self})"


def _mul_monomials(space: QuadraticSpace, left: tuple, right: tuple):
    """Normal-order the concatenation of two increasing monomials.

    Returns (coefficient, monomial).  Uses e_j e_i = -e_i e_j for i != j
    and e_i e_i = eps_i / 2.
    """
    word = list(left)
    coeff = ONE
    for g in right:
        pos = len(word)
        while pos > 0 and word[pos - 1] > g:
            coeff = -coeff
            pos -= 1
        if pos > 0 and word[pos - 1] == g:
            coeff = coeff * HALF * coerce(space.signs[g])
            del word[pos - 1]
        else:
            word.insert(pos, g)
    return coeff, tuple(word)


def clifford_commutator(a: CliffordElement, b: CliffordElement) -> CliffordElement:
    return a * b - b * a


def inject_element(elt: CliffordElement, target: QuadraticSpace) -> CliffordElement:
    """Re-express an element over a larger space that shares its labels.

    Each generator is matched by label (signs must agree); products are
    re-normal-ordered in the target, so a non-monotone label embedding
    picks up the correct signs automatically.
    """
    index_map = {}
    for i, lbl in enumerate(elt.space.labels):
        j = target.labels.index(lbl)
        if target.signs[j] != elt.space.signs[i]:
            raise ValueError(f"sign mismatch for label {lbl}")
        index_map[i] = j
    out = CliffordElement.zero(target)
    for mono, coeff in elt.terms.items():
        piece = CliffordElement.unit(target, coeff)
        for i in mono:
            piece = piece * CliffordElement.generator(target, index_map[i])
        out = out + piece
    return out


def alpha_split_holds(pair_full: "ReductivePair", pair_first: "ReductivePair",
                      pair_second: "ReductivePair", x) -> bool:
    """Check alpha_full(x) = alpha_first(x) + alpha_second(x) after injection.

    The two partial complements must partition the full complement's labels;
    under the graded tensor splitting of the full Clifford algebra both
    summands are even, so injection by labels is the correct embedding.
    """
    full = pair_full.alpha(x)
    a = inject_element(pair_first.alpha(x), pair_full.space)
    b = inject_element(pair_second.alpha(x), pair_full.space)
    return full == a + b


class ReductivePair:
    """An ambient Lie algebra, an acting subalgebra, and an invariant complement.

    The complement basis B must be orthogonal with self-pairings +1 or -1,
    read off its Gram matrix; its quadratic space carries the given labels.
    basis is B as a matrix; dual = diag(eps) B^T F, built once, reads
    coordinates over it.  When the complement is orthogonal to the acting
    subalgebra, dual x gives the complement part of any vector x.  Vectors
    are coordinate tuples over the ambient algebra's basis throughout.
    """

    def __init__(self, algebra: LieAlgebra, acting_basis, complement_basis, labels):
        self.algebra = algebra
        self.acting_basis = tuple(vec(v) for v in acting_basis)
        self.complement_basis = tuple(vec(v) for v in complement_basis)
        labels = tuple(labels)
        if len(labels) != len(self.complement_basis):
            raise ValueError("one label per complement basis vector required")
        for k, v in enumerate(self.acting_basis):
            if len(v) != algebra.dim:
                raise ValueError(f"acting vector {k} has {len(v)} coordinates, "
                                 f"not {algebra.dim}")
        for lbl, v in zip(labels, self.complement_basis):
            if len(v) != algebra.dim:
                raise ValueError(f"complement vector {lbl} has {len(v)} "
                                 f"coordinates, not {algebra.dim}")
        self.basis = ExactMatrix.from_columns(self.complement_basis, algebra.dim)
        gram = algebra.gram(self.basis)
        k = len(labels)
        signs = [-1 if gram[i, i] == -ONE else 1 for i in range(k)]
        eps = ExactMatrix.from_entries(k, k, {(i, i): s for i, s in enumerate(signs)})
        defect = gram - eps
        if not defect.is_zero():
            i, j = min(key for key, _ in defect.items())
            if i == j:
                raise ValueError(
                    f"complement vector {labels[i]} has norm {gram[i, i]}, not +-1")
            raise ValueError(
                f"complement vectors {labels[i]}, {labels[j]} not orthogonal")
        self.space = QuadraticSpace(labels, signs)
        self.dual = eps @ self.basis.transpose() @ algebra.form

    def expand(self, x: Vector) -> tuple:
        """Coordinates of x over the complement basis; raises if x is outside it."""
        column = ExactMatrix.from_columns([vec(x)], self.algebra.dim)
        coords = self.dual @ column
        if self.basis @ coords != column:
            raise ValueError("vector is not in the span of the complement")
        return coords.col(0)

    def vector_element(self, x: Vector) -> CliffordElement:
        """The degree-1 Clifford element representing an ambient vector."""
        return CliffordElement.vector(self.space, self.expand(x))

    def alpha(self, x: Vector) -> CliffordElement:
        """Degree-2 Clifford image of an acting element x.

        alpha(x) = - sum_{i<j} eps_i eps_j <[x, b_i], b_j>  b_i b_j, read off
        K = dual ad(x) B, whose entry (j, i) is eps_j <[x, b_i], b_j>.  Raises
        unless B K = ad(x) B, that is unless the complement is ad(x)-stable.
        """
        moved = self.algebra.adjoint(vec(x)) @ self.basis
        k = self.dual @ moved
        defect = self.basis @ k - moved
        if not defect.is_zero():
            lbl = self.space.labels[min(c for (_, c), _ in defect.items())]
            raise ValueError(f"complement is not ad-stable: [x, {lbl}] leaves the span")
        signs = self.space.signs
        return CliffordElement(self.space, {(i, j): -coerce(signs[i]) * k[j, i]
                                            for i in range(len(signs))
                                            for j in range(i + 1, len(signs))})

    def cubic_element(self) -> CliffordElement:
        """The canonical degree-3 element of the complement.

        c = sum_{i<j<k} eps_i eps_j eps_k <[b_i, b_j], b_k>  b_i b_j b_k;
        it vanishes exactly when the complement brackets back into the
        acting subalgebra (a symmetric pair).
        """
        terms = {}
        for i, j, k in combinations(range(self.space.dim), 3):
            c = self.algebra.form_value(
                self.algebra.bracket(self.complement_basis[i], self.complement_basis[j]),
                self.complement_basis[k])
            if not c.is_zero():
                eps = coerce(self.space.signs[i] * self.space.signs[j] * self.space.signs[k])
                terms[(i, j, k)] = eps * c
        return CliffordElement(self.space, terms)
