"""Spin modules as exterior algebras over a polarization.

For a quadratic space with a chosen maximal isotropic pair of subspaces
(plus a distinguished unit-norm generator in odd dimension), the spin
module is the exterior algebra on the plus side.  Plus vectors act by
wedging, minus vectors by contraction against the (normalized) pairing,
and the odd generator acts by a scalar that alternates in sign with the
exterior degree.  With the product convention x y + y x = <x, y> the
contraction needs no extra factor 1/2.
"""
from __future__ import annotations

from itertools import combinations

from .clifford import CliffordElement, QuadraticSpace
from .scalars import ExactMatrix, INV_SQRT2, I, ONE, ZERO, coerce


class Polarization:
    """Isotropic plus/minus bases for a quadratic space, plus optional odd vector.

    All vectors are coordinate tuples over the space's basis.  The pairing
    matrix <plus_i, minus_j> must be exactly the identity.
    """

    def __init__(self, space: QuadraticSpace, plus, minus, odd=None):
        self.space = space
        self.plus = tuple(tuple(coerce(x) for x in v) for v in plus)
        self.minus = tuple(tuple(coerce(x) for x in v) for v in minus)
        self.odd = tuple(coerce(x) for x in odd) if odd is not None else None
        self._verify()

    def _verify(self):
        n_iso = len(self.plus)
        if len(self.minus) != n_iso:
            raise ValueError("plus and minus parts must have equal dimension")
        expected = 2 * n_iso + (1 if self.odd is not None else 0)
        if expected != self.space.dim:
            raise ValueError("polarization does not exhaust the space")
        for kind, vecs in (("plus", self.plus), ("minus", self.minus)):
            for i, u in enumerate(vecs):
                for j, v in enumerate(vecs):
                    if not self.space.form(u, v).is_zero():
                        raise ValueError(f"{kind} part is not isotropic at ({i},{j})")
        for i, u in enumerate(self.plus):
            for j, v in enumerate(self.minus):
                want = ONE if i == j else ZERO
                if self.space.form(u, v) != want:
                    raise ValueError("pairing of plus and minus parts is not "
                                     f"the identity at ({i},{j})")
        if self.odd is not None:
            norm = self.space.form(self.odd, self.odd)
            if norm not in (ONE, -ONE):
                raise ValueError(f"odd vector has norm {norm}, not +-1")
            for kind, vecs in (("plus", self.plus), ("minus", self.minus)):
                for v in vecs:
                    if not self.space.form(self.odd, v).is_zero():
                        raise ValueError(f"odd vector not orthogonal to {kind} part")

    @property
    def odd_norm_sign(self) -> int:
        norm = self.space.form(self.odd, self.odd)
        return 1 if norm == ONE else -1


def standard_polarization(space: QuadraticSpace) -> Polarization:
    """A deterministic polarization: pair equal-sign generators in order.

    Same-sign indices (i, j) give u = (e_i + i e_j)/sqrt2 with dual
    v = sign * (e_i - i e_j)/sqrt2; a leftover (+,-) pair gives
    u = (e_p + e_n)/sqrt2, v = (e_p - e_n)/sqrt2; a single leftover
    generator becomes the odd vector.
    """
    pos = [i for i, s in enumerate(space.signs) if s == 1]
    neg = [i for i, s in enumerate(space.signs) if s == -1]
    plus, minus = [], []

    def unit(idx):
        return tuple(ONE if k == idx else ZERO for k in range(space.dim))

    def lin(c1, i1, c2, i2):
        return tuple(c1 * x + c2 * y for x, y in zip(unit(i1), unit(i2)))

    for bucket, sign in ((pos, ONE), (neg, -ONE)):
        while len(bucket) >= 2:
            i, j = bucket.pop(0), bucket.pop(0)
            plus.append(lin(INV_SQRT2, i, I * INV_SQRT2, j))
            minus.append(lin(sign * INV_SQRT2, i, -sign * I * INV_SQRT2, j))
    odd = None
    if pos and neg:
        p, n = pos.pop(0), neg.pop(0)
        plus.append(lin(INV_SQRT2, p, INV_SQRT2, n))
        minus.append(lin(INV_SQRT2, p, -INV_SQRT2, n))
    leftover = pos + neg
    if len(leftover) == 1:
        odd = unit(leftover[0])
    elif leftover:
        raise AssertionError("pairing left more than one generator")
    return Polarization(space, plus, minus, odd)


class SpinModule:
    """The exterior algebra on the plus part, with its Clifford action.

    Basis: subsets of plus indices, ordered by (size, lexicographic).
    The odd generator, if any, acts on the even part by 1/sqrt2, or by
    i/sqrt2 when its norm is negative, and by the negative on the odd part.
    """

    def __init__(self, space: QuadraticSpace, polarization: Polarization = None):
        self.space = space
        self.polarization = polarization or standard_polarization(space)
        if self.polarization.space != space:
            raise ValueError("polarization belongs to a different space")
        n_iso = len(self.polarization.plus)
        self.basis = sorted((tuple(c) for k in range(n_iso + 1)
                             for c in combinations(range(n_iso), k)),
                            key=lambda t: (len(t), t))
        self.dim = len(self.basis)
        self.index = {b: k for k, b in enumerate(self.basis)}
        self._generator_matrices = self._build_generator_matrices()

    # -- construction internals -------------------------------------------

    def _build_generator_matrices(self):
        pol = self.polarization
        n_iso = len(pol.plus)
        wedge = [self._ladder_matrix(j, True) for j in range(n_iso)]
        contract = [self._ladder_matrix(j, False) for j in range(n_iso)]
        odd_mat = self._odd_matrix() if pol.odd is not None else None
        # expansion of each space generator in the polarization basis
        cols = list(pol.plus + pol.minus) + ([pol.odd] if pol.odd is not None else [])
        inv = ExactMatrix.from_columns(cols, self.space.dim).inverse()
        gens = []
        for i in range(self.space.dim):
            coeffs = inv.col(i)
            m = ExactMatrix.zeros(self.dim, self.dim)
            for j in range(n_iso):
                if not coeffs[j].is_zero():
                    m = m + wedge[j] * coeffs[j]
                if not coeffs[n_iso + j].is_zero():
                    m = m + contract[j] * coeffs[n_iso + j]
            if pol.odd is not None and not coeffs[2 * n_iso].is_zero():
                m = m + odd_mat * coeffs[2 * n_iso]
            gens.append(m)
        return gens

    def _ladder_matrix(self, j: int, wedge: bool) -> ExactMatrix:
        """Wedging with plus vector j, or contracting against it; either
        way the sign is (-1) to the number of indices before j."""
        entries = {}
        for col, subset in enumerate(self.basis):
            if (j in subset) == wedge:
                continue
            new = (tuple(sorted(subset + (j,))) if wedge
                   else tuple(t for t in subset if t != j))
            pos = sum(1 for t in subset if t < j)
            entries[self.index[new], col] = ONE if pos % 2 == 0 else -ONE
        return ExactMatrix.from_entries(self.dim, self.dim, entries)

    def _odd_matrix(self) -> ExactMatrix:
        base = INV_SQRT2 if self.polarization.odd_norm_sign == 1 else I * INV_SQRT2
        return ExactMatrix.from_entries(self.dim, self.dim, {
            (col, col): base if len(subset) % 2 == 0 else -base
            for col, subset in enumerate(self.basis)})

    # -- the gamma map -----------------------------------------------------

    def gamma_generator(self, i: int) -> ExactMatrix:
        return self._generator_matrices[i]

    def gamma(self, elt: CliffordElement) -> ExactMatrix:
        """The algebra map from the Clifford algebra into endomorphisms."""
        if elt.space != self.space:
            raise ValueError("element lives over a different space")
        out = ExactMatrix.zeros(self.dim, self.dim)
        for mono, coeff in elt.terms.items():
            m = ExactMatrix.identity(self.dim)
            for i in mono:
                m = m @ self._generator_matrices[i]
            out = out + m * coeff
        return out

    def basis_label(self, subset) -> str:
        if not subset:
            return "1"
        return "^".join(f"u{j+1}" for j in subset)

    def __eq__(self, other):
        return (isinstance(other, SpinModule)
                and self.space == other.space
                and self.polarization.plus == other.polarization.plus
                and self.polarization.minus == other.polarization.minus
                and self.polarization.odd == other.polarization.odd)

    def __repr__(self):
        return f"SpinModule(dim={self.dim}, space={self.space.labels})"


class SpinVector:
    """A vector in a spin module: a finite sum of basis monomials."""

    def __init__(self, module: SpinModule, terms=None):
        self.module = module
        clean = {}
        for subset, coeff in (terms or {}).items():
            subset = tuple(subset)
            if subset not in module.index:
                raise ValueError(f"unknown basis subset {subset}")
            coeff = coerce(coeff)
            if not coeff.is_zero():
                clean[subset] = coeff
        self.terms = clean

    @classmethod
    def basis(cls, module: SpinModule, subset) -> "SpinVector":
        return cls(module, {tuple(subset): ONE})

    def to_column(self) -> ExactMatrix:
        return ExactMatrix.from_columns(
            [[self.terms.get(b, ZERO) for b in self.module.basis]], self.module.dim)

    @classmethod
    def from_column(cls, module: SpinModule, col: ExactMatrix) -> "SpinVector":
        return cls(module, {b: col[k, 0] for k, b in enumerate(module.basis)})

    def apply(self, elt: CliffordElement) -> "SpinVector":
        return SpinVector.from_column(self.module,
                                      self.module.gamma(elt) @ self.to_column())

    def __add__(self, other):
        if self.module is not other.module and self.module != other.module:
            raise ValueError("vectors live in different spin modules")
        terms = dict(self.terms)
        for b, c in other.terms.items():
            terms[b] = terms.get(b, ZERO) + c
        return SpinVector(self.module, terms)

    def scaled(self, s) -> "SpinVector":
        s = coerce(s)
        return SpinVector(self.module, {b: c * s for b, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, SpinVector) and self.module == other.module
                and self.terms == other.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for b in sorted(self.terms, key=lambda t: (len(t), t)):
            c = str(self.terms[b])
            if " " in c:
                c = f"({c})"
            bits.append(f"{c}*{self.module.basis_label(b)}")
        return " + ".join(bits).replace("+ -", "- ")


class TensorSpinVector:
    """A vector in the tensor product of two spin modules."""

    def __init__(self, module_a: SpinModule, module_b: SpinModule, terms=None):
        self.module_a = module_a
        self.module_b = module_b
        clean = {}
        for (sa, sb), coeff in (terms or {}).items():
            sa, sb = tuple(sa), tuple(sb)
            if sa not in module_a.index or sb not in module_b.index:
                raise ValueError(f"unknown basis pair ({sa}, {sb})")
            coeff = coerce(coeff)
            if not coeff.is_zero():
                clean[(sa, sb)] = coeff
        self.terms = clean

    @classmethod
    def basis(cls, module_a, module_b, sa, sb) -> "TensorSpinVector":
        return cls(module_a, module_b, {(tuple(sa), tuple(sb)): ONE})

    def __add__(self, other):
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, ZERO) + c
        return TensorSpinVector(self.module_a, self.module_b, terms)

    def scaled(self, s):
        s = coerce(s)
        return TensorSpinVector(self.module_a, self.module_b,
                                {k: c * s for k, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, TensorSpinVector)
                and self.module_a == other.module_a
                and self.module_b == other.module_b
                and self.terms == other.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for (sa, sb) in sorted(self.terms, key=lambda t: (len(t[0]), t[0], len(t[1]), t[1])):
            c = str(self.terms[(sa, sb)])
            if " " in c:
                c = f"({c})"
            bits.append(f"{c}*{self.module_a.basis_label(sa)}(x)"
                        f"{self.module_b.basis_label(sb)}")
        return " + ".join(bits).replace("+ -", "- ")


def graded_tensor_action(c: CliffordElement, d: CliffordElement,
                         v: TensorSpinVector) -> TensorSpinVector:
    """Apply c (x) d to a tensor vector with the Koszul sign.

    (c (x) d) . (s (x) t) = (-1)^{deg d * deg s} (c.s) (x) (d.t) for
    homogeneous d and s; inhomogeneous inputs are split by parity.
    """
    ma, mb = v.module_a, v.module_b
    out = TensorSpinVector(ma, mb)
    for d_par in (0, 1):
        d_part = d.even_part() if d_par == 0 else d.odd_part()
        if d_part.is_zero():
            continue
        mc = ma.gamma(c)
        md = mb.gamma(d_part)
        terms = {}
        for (sa, sb), coeff in v.terms.items():
            sign = -ONE if (d_par * len(sa)) % 2 else ONE
            col_a = mc.col(ma.index[sa])
            col_b = md.col(mb.index[sb])
            for ia, xa in enumerate(col_a):
                if xa.is_zero():
                    continue
                for ib, xb in enumerate(col_b):
                    if xb.is_zero():
                        continue
                    key = (ma.basis[ia], mb.basis[ib])
                    acc = terms.get(key, ZERO) + sign * coeff * xa * xb
                    terms[key] = acc
        out = out + TensorSpinVector(ma, mb, terms)
    return out


def combine_spin_modules(module_a: SpinModule, module_b: SpinModule,
                         target_space: QuadraticSpace) -> SpinModule:
    """The joint spin module of two orthogonal factors inside a common space.

    The first factor must be even dimensional (no odd vector), otherwise
    the exterior-algebra splitting of the joint module does not exist.
    Labels of the two factors must partition the target's labels; plus
    vectors are re-coordinatized by label and listed first-factor first.
    """
    if module_a.polarization.odd is not None:
        raise ValueError("first factor must be even dimensional "
                         "(its polarization has an odd vector)")
    if module_a.space.dim % 2 != 0:
        raise ValueError("first factor must be even dimensional")

    def relocate(space_from: QuadraticSpace, v):
        out = [ZERO] * target_space.dim
        for i, x in enumerate(v):
            if not x.is_zero():
                j = target_space.labels.index(space_from.labels[i])
                if target_space.signs[j] != space_from.signs[i]:
                    raise ValueError("sign mismatch between factor and target")
                out[j] = x
        return tuple(out)

    merged = sorted(module_a.space.labels + module_b.space.labels)
    if merged != sorted(target_space.labels):
        raise ValueError("factor labels do not partition the target space")
    plus = ([relocate(module_a.space, v) for v in module_a.polarization.plus]
            + [relocate(module_b.space, v) for v in module_b.polarization.plus])
    minus = ([relocate(module_a.space, v) for v in module_a.polarization.minus]
             + [relocate(module_b.space, v) for v in module_b.polarization.minus])
    odd = None
    if module_b.polarization.odd is not None:
        odd = relocate(module_b.space, module_b.polarization.odd)
    pol = Polarization(target_space, plus, minus, odd)
    return SpinModule(target_space, pol)


def mult_iso(v: TensorSpinVector, joint: SpinModule) -> SpinVector:
    """Exterior multiplication S_A (x) S_B -> S_joint, s (x) t -> s ^ t.

    The joint module must list the first factor's plus vectors before the
    second factor's (combine_spin_modules guarantees this), so monomial
    concatenation needs no extra sign.
    """
    n_a = len(v.module_a.polarization.plus)
    terms = {}
    for (sa, sb), coeff in v.terms.items():
        joined = tuple(sa) + tuple(j + n_a for j in sb)
        terms[joined] = terms.get(joined, ZERO) + coeff
    return SpinVector(joint, terms)
