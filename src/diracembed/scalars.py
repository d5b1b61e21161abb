"""Exact arithmetic in Q(sqrt2, i) and sparse exact linear algebra.

Every scalar in this package is an element a + b*sqrt2 + i*(c + d*sqrt2)
with rational components, stored as four integer numerators over one
common denominator.  The field is closed under all arithmetic used here,
so equality and zero tests are exact; nothing in this module (or anything
built on it) ever compares against a tolerance.  Matrices store only their
nonzero entries, so every matrix operation costs in proportion to the
nonzeros it touches rather than to the full shape.
"""
from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

_gcd = math.gcd


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def _render_frac(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _component(k: int, doc: str) -> property:
    return property(lambda self: Fraction(self._parts[k], self._parts[4]), doc=doc)


class ExactScalar:
    """One element of Q(sqrt2, i), stored as integers (a, b, c, d, den).

    The value is (a + b*sqrt2 + i*(c + d*sqrt2)) / den.  The tuple is kept
    canonical, with den > 0 and gcd(a, b, c, d, den) == 1, so zero is
    (0, 0, 0, 0, 1) and two scalars are equal exactly when their tuples
    are.  The components ``a``, ``b``, ``c`` and ``d`` read as Fractions.
    Instances are immutable; arithmetic returns new objects.
    """

    __slots__ = ("_parts",)

    def __init__(self, a=0, b=0, c=0, d=0):
        fracs = [_frac(x) for x in (a, b, c, d)]
        den = math.lcm(*(f.denominator for f in fracs))
        # Canonical as it stands: each prime power in den is the whole
        # power in some component's denominator, whose numerator it does
        # not divide.
        object.__setattr__(self, "_parts", tuple(
            f.numerator * (den // f.denominator) for f in fracs) + (den,))

    def __setattr__(self, name, value):
        raise AttributeError("ExactScalar is immutable")

    a = _component(0, "The rational part.")
    b = _component(1, "The coefficient of sqrt2.")
    c = _component(2, "The rational part of the imaginary part.")
    d = _component(3, "The coefficient of i*sqrt2.")

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        a, b, c, d, _ = self._parts
        return not (a or b or c or d)

    def is_real(self) -> bool:
        _, _, c, d, _ = self._parts
        return not (c or d)

    def is_rational(self) -> bool:
        _, b, c, d, _ = self._parts
        return not (b or c or d)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, ExactScalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = coerce(other)
        a1, b1, c1, d1, n1 = self._parts
        a2, b2, c2, d2, n2 = other._parts
        # adding zero returns the other operand unchanged (both immutable)
        if not (a2 or b2 or c2 or d2):
            return self
        if not (a1 or b1 or c1 or d1):
            return other
        if n1 == n2:
            return _make(a1 + a2, b1 + b2, c1 + c2, d1 + d2, n1)
        return _make(a1 * n2 + a2 * n1, b1 * n2 + b2 * n1,
                     c1 * n2 + c2 * n1, d1 * n2 + d2 * n1, n1 * n2)

    __radd__ = __add__

    def __neg__(self):
        a, b, c, d, den = self._parts
        return _scalar((-a, -b, -c, -d, den))

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, ExactScalar)):
            return NotImplemented
        return self + (-coerce(other))

    def __rsub__(self, other):
        return coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, ExactScalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = coerce(other)
        # (u1 + i v1)(u2 + i v2) with u, v in Q(sqrt2):
        # real part u1 u2 - v1 v2, imaginary part u1 v2 + v1 u2,
        # and (p + q sqrt2)(r + s sqrt2) = pr + 2qs + (ps + qr) sqrt2.
        a1, b1, c1, d1, n1 = self._parts
        a2, b2, c2, d2, n2 = other._parts
        if not (b1 or c1 or d1):                     # left factor rational
            if not a1:
                return ZERO
            return _make(a1 * a2, a1 * b2, a1 * c2, a1 * d2, n1 * n2)
        if not (a2 or b2 or c2 or d2):               # right factor zero
            return ZERO
        return _make(a1 * a2 + 2 * b1 * b2 - c1 * c2 - 2 * d1 * d2,
                     a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
                     a1 * c2 + 2 * b1 * d2 + c1 * a2 + 2 * d1 * b2,
                     a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2,
                     n1 * n2)

    __rmul__ = __mul__

    def inverse(self) -> "ExactScalar":
        a, b, c, d, den = self._parts
        if not (b or c or d):
            if not a:
                raise ZeroDivisionError("inverse of zero in Q(sqrt2, i)")
            return _scalar((den, 0, 0, 0, a) if a > 0 else (-den, 0, 0, 0, -a))
        # With u = a + b sqrt2 and v = c + d sqrt2, the inverse of
        # (u + iv)/den is den (u - iv)/(u^2 + v^2).  The denominator
        # u^2 + v^2 = p + q sqrt2 is inverted by its Galois conjugate,
        # 1/(p + q sqrt2) = (p - q sqrt2)/(p^2 - 2 q^2).  The Galois
        # conjugate is itself a sum of two real squares, not both zero, so
        # p^2 - 2 q^2 is a product of two positive reals: a valid den.
        p = a * a + 2 * b * b + c * c + 2 * d * d
        q = 2 * (a * b + c * d)
        return _make(den * (a * p - 2 * b * q), den * (b * p - a * q),
                     den * (2 * d * q - c * p), den * (c * q - d * p),
                     p * p - 2 * q * q)

    def __truediv__(self, other):
        return self * coerce(other).inverse()

    def __rtruediv__(self, other):
        return coerce(other) * self.inverse()

    # -- sign of a real element -------------------------------------------

    def real_sign(self) -> int:
        """Sign (-1, 0, +1) of a real element (a + b*sqrt2)/den."""
        if not self.is_real():
            raise ValueError(f"{self} is not real, sign undefined")
        p, q = self._parts[0], self._parts[1]     # den > 0 keeps the sign
        if not p and not q:
            return 0
        if p >= 0 and q >= 0:
            return 1
        if p <= 0 and q <= 0:
            return -1
        # mixed signs: compare p^2 with 2 q^2
        big_p = p * p > 2 * q * q
        return (1 if big_p else -1) if p > 0 else (-1 if big_p else 1)

    # -- equality and rendering ------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ExactScalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = coerce(other)
        return self._parts == other._parts

    def __hash__(self):
        return hash(self._parts)

    def canonical(self) -> str:
        """Full canonical rendering ``a + b*r2 + i*(c + d*r2)``."""
        return (f"{_render_frac(self.a)} + {_render_frac(self.b)}*r2"
                f" + i*({_render_frac(self.c)} + {_render_frac(self.d)}*r2)")

    def __str__(self):
        real_terms = []
        if self.a:
            real_terms.append(_render_frac(self.a))
        if self.b:
            real_terms.append(f"{_render_frac(self.b)}*r2")
        imag_terms = []
        if self.c:
            imag_terms.append(_render_frac(self.c))
        if self.d:
            imag_terms.append(f"{_render_frac(self.d)}*r2")
        parts = []
        if real_terms:
            parts.append(" + ".join(real_terms))
        if imag_terms:
            body = " + ".join(imag_terms)
            parts.append(f"i*({body})" if (len(imag_terms) > 1 or self.d) else f"i*{body}")
        if not parts:
            return "0"
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"ExactScalar({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"


_new_scalar = object.__new__
_set_parts = ExactScalar._parts.__set__


def _scalar(parts: tuple) -> ExactScalar:
    """Adopt a tuple (a, b, c, d, den) that is already canonical."""
    s = _new_scalar(ExactScalar)
    _set_parts(s, parts)
    return s


def _make(a: int, b: int, c: int, d: int, den: int) -> ExactScalar:
    """Build a scalar from integer numerators over a denominator den > 0,
    dividing out their common factor."""
    if den != 1:
        g = _gcd(a, b, c, d, den)
        if g != 1:
            return _scalar((a // g, b // g, c // g, d // g, den // g))
    return _scalar((a, b, c, d, den))


def coerce(x) -> ExactScalar:
    """Coerce an int, Fraction or ExactScalar into the field."""
    if isinstance(x, ExactScalar):
        return x
    if isinstance(x, int):
        return _scalar((int(x), 0, 0, 0, 1))       # int() turns a bool into 0/1
    if isinstance(x, Fraction):
        return _scalar((x.numerator, 0, 0, 0, x.denominator))
    raise TypeError(f"cannot coerce {x!r} into Q(sqrt2, i)")


# compiled (and cached by re) on first use, so importing this module does
# not pay for them
_CANONICAL = (
    r"^(?P<a>[+-]?\d+(?:/\d+)?)\+(?P<b>[+-]?\d+(?:/\d+)?)\*r2"
    r"\+i\*\((?P<c>[+-]?\d+(?:/\d+)?)\+(?P<d>[+-]?\d+(?:/\d+)?)\*r2\)$")
_RATIONAL = r"^[+-]?\d+(?:/\d+)?$"


def parse_scalar(text: str) -> ExactScalar:
    """Parse the canonical rendering (or a bare rational) back into the field."""
    flat = text.replace(" ", "")
    m = re.match(_CANONICAL, flat)
    try:
        if re.match(_RATIONAL, flat):
            return ExactScalar(Fraction(flat))
        if m:
            return ExactScalar(*(Fraction(m.group(k)) for k in "abcd"))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar literal: {text!r}") from None
    raise ValueError(f"not a canonical scalar literal: {text!r}")


def _rational_sqrt(q: Fraction):
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def real_sqrt(x: ExactScalar):
    """The nonnegative square root of a real element, or None if it leaves the field.

    Solves (alpha + beta*sqrt2)^2 = p + q*sqrt2 exactly over the rationals.
    """
    x = coerce(x)
    if not x.is_real():
        raise ValueError(f"{x} is not real")
    if x.real_sign() < 0:
        return None
    p, q = x.a, x.b
    if not q:
        r = _rational_sqrt(p)
        if r is not None:
            return ExactScalar(r)
        r = _rational_sqrt(p / 2)
        return ExactScalar(0, r) if r is not None else None
    # beta = q / (2 alpha) and 2 alpha^4 - 2 p alpha^2 + q^2 = 0:
    disc = _rational_sqrt(p * p - 2 * q * q)
    if disc is None:
        return None
    for alpha_sq in ((p + disc) / 2, (p - disc) / 2):
        alpha = _rational_sqrt(alpha_sq)
        if alpha is None or alpha == 0:
            continue
        for sign in (1, -1):
            a = sign * alpha
            root = ExactScalar(a, q / (2 * a))
            if root.real_sign() >= 0 and root * root == x:
                return root
    return None


def rational_roots(char_coeffs):
    """Rational roots of a monic polynomial with rational coefficients.

    char_coeffs lists c_0 .. c_n for c_0 + c_1 x + ... + c_n x^n.  Scalars
    with irrational or imaginary parts make the search return nothing.
    The roots are y / a_n for the integer roots y of a_n^(n-1) f(y / a_n),
    found by bisection in time polynomial in the coefficients' bit size.
    """
    fracs = []
    for c in char_coeffs:
        if not c.is_rational():
            return []
        fracs.append(c.a)
    while fracs and fracs[-1] == 0:
        fracs.pop()
    if len(fracs) < 2:
        return []
    scale = math.lcm(*(f.denominator for f in fracs))
    ints = [int(f * scale) for f in fracs]
    n, lead = len(ints) - 1, ints[-1]
    monic = [c * lead ** (n - 1 - k) for k, c in enumerate(ints[:-1])] + [1]
    return [coerce(Fraction(y, lead)) for y in _root_floors(monic)
            if _evaluate(monic, y) == 0]


def _evaluate(poly, x):
    return functools.reduce(lambda value, c: value * x + c, reversed(poly), 0)


def _root_floors(poly):
    """Sorted integers that include floor(r) for each real root r of an
    integer polynomial (coefficients low to high): the derivative's
    candidates k, for roots in [k, k + 1), and a bisection inside the
    Cauchy bound on each monotone stretch between them."""
    if len(poly) < 2:
        return []
    bound = 2 + max(abs(c) for c in poly[:-1]) // abs(poly[-1])
    critical = _root_floors([k * c for k, c in enumerate(poly)][1:])
    out = set(critical)
    for lo, hi in zip([-bound] + [k + 1 for k in critical], critical + [bound]):
        f_lo, f_hi = _evaluate(poly, lo), _evaluate(poly, hi)
        if f_lo == 0:
            out.add(lo)
        elif (f_lo > 0) != (f_hi > 0) and f_hi != 0:
            while hi - lo > 1:        # keep the sign change inside [lo, hi]
                mid = (lo + hi) // 2
                if (_evaluate(poly, mid) > 0) == (f_lo > 0):
                    lo = mid
                else:
                    hi = mid
            out.update((lo, hi))
    return sorted(out)


ZERO = ExactScalar(0)
ONE = ExactScalar(1)
I = ExactScalar(0, 0, 1)
SQRT2 = ExactScalar(0, 1)
INV_SQRT2 = ExactScalar(0, Fraction(1, 2))
HALF = ExactScalar(Fraction(1, 2))


class ExactMatrix:
    """A sparse matrix over Q(sqrt2, i).  Immutable; all reductions are exact.

    Each row is stored as a ``{column: entry}`` dict holding its nonzero
    entries only, so sums, products, Kronecker products and eliminations
    do work in proportion to the nonzeros they touch.  ``rows`` rebuilds
    the dense view for callers that want every entry.

    Row reduction uses Gauss-Jordan elimination that takes, column by
    column in order, the first nonzero entry at or below the current row
    as pivot; since field arithmetic is exact there is no pivoting
    strategy beyond "first nonzero entry".
    """

    __slots__ = ("_rows", "_ncols")

    def __init__(self, rows):
        dense = [[coerce(x) for x in r] for r in rows]
        width = len(dense[0]) if dense else 0
        if any(len(r) != width for r in dense):
            raise ValueError("ragged rows")
        object.__setattr__(self, "_rows", tuple(
            {j: x for j, x in enumerate(r) if not x.is_zero()} for r in dense))
        object.__setattr__(self, "_ncols", width)

    @classmethod
    def _wrap(cls, rows, ncols: int) -> "ExactMatrix":
        """Adopt row dicts that hold nonzero ExactScalar entries only.

        The dicts become part of the new (immutable) matrix, so callers
        hand over dicts that nothing mutates afterwards.
        """
        m = object.__new__(cls)
        object.__setattr__(m, "_rows", tuple(rows))
        object.__setattr__(m, "_ncols", ncols)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def from_entries(cls, nrows: int, ncols: int, entries) -> "ExactMatrix":
        """The nrows x ncols matrix with the given ``{(row, col): value}``
        entries and zeros elsewhere; zero values are dropped."""
        rows = [{} for _ in range(nrows)]
        for (i, j), x in entries.items():
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise IndexError(f"entry ({i},{j}) outside a {nrows}x{ncols} matrix")
            x = coerce(x)
            if not x.is_zero():
                rows[i][j] = x
        return cls._wrap(rows, ncols)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "ExactMatrix":
        return cls._wrap([{} for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls._wrap([{i: ONE} for i in range(n)], n)

    @classmethod
    def from_columns(cls, columns, nrows: int) -> "ExactMatrix":
        """The nrows x len(columns) matrix whose j-th column is columns[j]."""
        rows = [{} for _ in range(nrows)]
        for j, column in enumerate(columns):
            if len(column) != nrows:
                raise ValueError(f"column {j} has {len(column)} entries, not {nrows}")
            for i, x in enumerate(column):
                x = coerce(x)
                if not x.is_zero():
                    rows[i][j] = x
        return cls._wrap(rows, len(columns))

    @property
    def rows(self):
        """The dense view: a tuple of rows, each a tuple of every entry."""
        n = self._ncols
        return tuple(tuple(r.get(j, ZERO) for j in range(n)) for r in self._rows)

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return self._ncols

    @property
    def shape(self):
        return (len(self._rows), self._ncols)

    def __getitem__(self, key):
        i, j = key
        if not 0 <= j < self._ncols:
            j = range(self._ncols)[j]        # negative index, or IndexError
        return self._rows[i].get(j, ZERO)

    def items(self):
        """The nonzero entries as ``((row, col), value)`` pairs, row by row."""
        for i, r in enumerate(self._rows):
            for j, x in r.items():
                yield (i, j), x

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self._ncols == other._ncols and self._rows == other._rows

    def __add__(self, other, negate=False):
        """self + other, or self - other when negate is set: one pass."""
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        out = []
        for r, s in zip(self._rows, other._rows):
            if not s or not (r or negate):
                out.append(r or s)           # rows are never mutated: share
                continue
            acc = dict(r)
            for j, y in s.items():
                x = acc.get(j)
                if x is None:
                    acc[j] = -y if negate else y
                else:
                    x = x - y if negate else x + y
                    if x.is_zero():
                        del acc[j]
                    else:
                        acc[j] = x
            out.append(acc)
        return ExactMatrix._wrap(out, self._ncols)

    def __sub__(self, other):
        return self.__add__(other, negate=True)

    def __neg__(self):
        return ExactMatrix._wrap([{j: -x for j, x in r.items()} for r in self._rows],
                                 self._ncols)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ExactScalar)):
            s = coerce(other)
            if s.is_zero():
                return ExactMatrix.zeros(*self.shape)
            return ExactMatrix._wrap([{j: x * s for j, x in r.items()}
                                      for r in self._rows], self._ncols)
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self._ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        right = other._rows
        out = []
        for r in self._rows:
            acc = {}
            for k, x in r.items():
                for j, y in right[k].items():
                    z = acc.get(j)
                    acc[j] = x * y if z is None else z + x * y
            out.append({j: z for j, z in acc.items() if not z.is_zero()})
        return ExactMatrix._wrap(out, other._ncols)

    def transpose(self) -> "ExactMatrix":
        cols = [{} for _ in range(self._ncols)]
        for i, r in enumerate(self._rows):
            for j, x in r.items():
                cols[j][i] = x
        return ExactMatrix._wrap(cols, len(self._rows))

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        # a product of two nonzero field elements is nonzero; a factor ONE
        # (as in a kron with an identity) is skipped
        width = other._ncols
        out = [{j1 * width + j2: x if y is ONE else y if x is ONE else x * y
                for j1, x in r.items() for j2, y in s.items()}
               for r in self._rows for s in other._rows]
        return ExactMatrix._wrap(out, self._ncols * width)

    def select_columns(self, cols) -> "ExactMatrix":
        """The matrix made of the given columns, in the given order."""
        place = {c: k for k, c in enumerate(cols)}
        out = [{place[j]: x for j, x in r.items() if j in place} for r in self._rows]
        return ExactMatrix._wrap(out, len(place))

    def column_blocks(self, groups) -> list:
        """One block per group of column indices: ``select_columns(group)``
        without its zero rows, so with the same nullspace.  All blocks are
        cut in one pass over the nonzeros; columns in no group are dropped."""
        groups = [list(g) for g in groups]
        place = {j: (k, offset) for k, group in enumerate(groups)
                 for offset, j in enumerate(group)}
        if len(place) != sum(map(len, groups)) or \
                not all(0 <= j < self._ncols for j in place):
            raise ValueError(f"groups repeat a column or leave {self._ncols} columns")
        blocks = [{} for _ in groups]     # row index -> row, in row order
        for i, r in enumerate(self._rows):
            for j, x in r.items():
                if j in place:
                    k, offset = place[j]
                    blocks[k].setdefault(i, {})[offset] = x
        return [ExactMatrix._wrap(list(rows.values()), len(group))
                for rows, group in zip(blocks, groups)]

    def trace(self) -> ExactScalar:
        if self.nrows != self.ncols:
            raise ValueError("trace of a non-square matrix")
        return sum((r.get(i, ZERO) for i, r in enumerate(self._rows)), ZERO)

    def is_zero(self) -> bool:
        return not any(self._rows)

    def is_scalar(self, lam) -> bool:
        """True when this matrix equals lam * identity exactly."""
        lam = coerce(lam)
        if self.nrows != self.ncols:
            return False
        if lam.is_zero():
            return self.is_zero()
        return all(len(r) == 1 and r.get(i, ZERO) == lam
                   for i, r in enumerate(self._rows))

    def col(self, j: int):
        return tuple(r.get(j, ZERO) for r in self._rows)

    def rref(self):
        """Reduced row echelon form and its pivot columns, as (matrix, list).

        Only the nonzero rows are eliminated; the zero rows are appended
        after them, where the (unique) reduced form puts them anyway.
        """
        rows = [dict(r) for r in self._rows if r]
        zero_rows = len(self._rows) - len(rows)
        pivots = []
        lead = 0
        for j in range(self._ncols):
            if lead == len(rows):
                break
            pivot_row = next((i for i in range(lead, len(rows)) if j in rows[i]), None)
            if pivot_row is None:
                continue
            rows[lead], rows[pivot_row] = rows[pivot_row], rows[lead]
            inv = rows[lead][j].inverse()
            pivot = {c: x * inv for c, x in rows[lead].items()}
            rows[lead] = pivot
            for i, r in enumerate(rows):
                if i == lead or j not in r:
                    continue
                f = r[j]
                for c, y in pivot.items():
                    x = r.get(c)
                    if x is None:
                        r[c] = -(f * y)
                    else:
                        x = x - f * y
                        if x.is_zero():
                            del r[c]
                        else:
                            r[c] = x
            pivots.append(j)
            lead += 1
        rows += [{} for _ in range(zero_rows)]
        return ExactMatrix._wrap(rows, self._ncols), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self):
        """Exact kernel basis, one column vector per free column of the rref."""
        reduced, pivots = self.rref()
        pivot_set = set(pivots)
        basis = []
        for f in range(self._ncols):
            if f in pivot_set:
                continue
            entries = [{} for _ in range(self._ncols)]
            entries[f] = {0: ONE}
            for r, pj in zip(reduced._rows, pivots):
                x = r.get(f)
                if x is not None:
                    entries[pj] = {0: -x}
            basis.append(ExactMatrix._wrap(entries, 1))
        return basis

    def inverse(self) -> "ExactMatrix":
        n = self.nrows
        if n != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        aug = ExactMatrix._wrap([{**r, n + i: ONE} for i, r in enumerate(self._rows)],
                                2 * n)
        reduced, pivots = aug.rref()
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return ExactMatrix._wrap([{c - n: x for c, x in r.items() if c >= n}
                                  for r in reduced._rows], n)

    def char_poly(self):
        """Characteristic polynomial det(tI - M) by the Faddeev-LeVerrier scheme.

        Returns coefficients [c_0, ..., c_n] with c_n = 1, ordered by degree.
        """
        n = self.nrows
        if n != self.ncols:
            raise ValueError("characteristic polynomial of a non-square matrix")
        coeffs = [ONE]                      # leading coefficient of t^n
        m = ExactMatrix.zeros(n, n)
        c = ONE
        for k in range(1, n + 1):
            m = self @ m + c * ExactMatrix.identity(n)
            c = (self @ m).trace() * ExactScalar(Fraction(-1, k))
            coeffs.append(c)
        coeffs.reverse()                    # now [c_0, ..., c_n]
        return coeffs

    def __str__(self):
        return "[" + "; ".join(", ".join(str(x) for x in r) for r in self.rows) + "]"

    def __repr__(self):
        return f"ExactMatrix({self.nrows}x{self.ncols})"
