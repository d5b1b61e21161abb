"""Output checks of the benchmark, made apart from the program.

Every check compares a program output with a value the benchmark works out
on its own: a closed form from the paper, a small reference implementation
written here, or an exact computation in sympy over Q(sqrt2, i).  None of
them compares with a stored copy of an earlier output.

The checks take plain data (tuples, dicts, Fractions, text), so the tests
in ``test_checks.py`` can hand them corrupted outputs.  The ``observe_*``
functions turn program objects into that plain data; they are the only
code here that calls the program.
"""

import json
import random
import re
from fractions import Fraction

# -- bookkeeping ----------------------------------------------------------------


class Tally:
    """Comparisons made by the output checks, and the ones that failed."""

    def __init__(self):
        self.compared = 0
        self.mismatches = []

    def expect(self, ok, what):
        self.compared += 1
        if not ok:
            self.mismatches.append(what)
        return ok


def scalar_parts(x):
    """An exact scalar as its four rational components (a, b, c, d) of
    a + b sqrt2 + i (c + d sqrt2)."""
    return (Fraction(x.a), Fraction(x.b), Fraction(x.c), Fraction(x.d))


def matrix_parts(m):
    """An exact matrix as (nrows, ncols, {(row, col): scalar parts})."""
    return (m.nrows, m.ncols, {k: scalar_parts(v) for k, v in m.items()})


def rational_parts(q):
    return (Fraction(q), Fraction(0), Fraction(0), Fraction(0))


# -- command output -------------------------------------------------------------

_LINE = re.compile(r"^(?P<suite>[\w-]+)/(?P<check>[\w-]+): "
                   r"(?P<status>pass|fail|skipped) — (?P<details>.*)$")

# Checks whose presence each suite's workload relies on.
REQUIRED_CHECKS = {
    "theorem51": {"form1", "form2", "forms-agree"},
    "spectral": {"block-eigenvalues", "finite-kernel", "ds-kernels",
                 "scan-uniqueness", "table-identification"},
}


def check_verify_output(suite, text, returncode, tally):
    """Check the text report of ``diracembed verify``.

    Each report line is one operation of the workload; a line that does not
    pass is a failed operation.  The report must parse, name the expected
    suite, hold the checks the workload relies on, and agree with the exit
    status.  Returns (operations, failed operations).
    """
    lines = text.splitlines()
    parsed = [_LINE.match(line) for line in lines]
    tally.expect(bool(lines) and all(parsed),
                 f"verify {suite}: unparsable report {text[:200]!r}")
    rows = [p.groupdict() for p in parsed if p]
    tally.expect(all(r["suite"] == suite for r in rows),
                 f"verify {suite}: report names other suites")
    missing = REQUIRED_CHECKS[suite] - {r["check"] for r in rows}
    tally.expect(not missing, f"verify {suite}: checks {sorted(missing)} missing")
    failed = sum(1 for r in rows if r["status"] != "pass")
    tally.expect(returncode == (1 if any(r["status"] == "fail" for r in rows)
                                else 0),
                 f"verify {suite}: exit status {returncode} disagrees "
                 f"with the report")
    if not rows:
        return 1, 1
    return len(rows), failed


def expected_table(m):
    """Rows of the identification table for twist weight 2m (the paper's
    closed form, with the two special rows at m = 0 and m = 1)."""
    if m == 0:
        return [["DS+", 2, "C", -1], ["Trivial", None, "C", -1]]
    if m == 1:
        return [["DS+", 3, "C", 0], ["LDS-", None, "C", -2]]
    return [["DS+", m + 2, "C", m - 1], ["DS-", -m, "C", -m - 1]]


def check_table_output(m, text, returncode, tally):
    """Check the rows printed by ``diracembed table64 --weight 2m``.

    Each row is one operation.  Returns (operations, failed operations).
    """
    try:
        rows = json.loads(text)
    except ValueError:
        rows = None
    if returncode != 0 or not isinstance(rows, list):
        tally.expect(False, f"table64 m={m}: exit {returncode}, "
                            f"output {text[:200]!r}")
        return 1, 1
    want = expected_table(m)
    tally.expect(len(rows) == len(want),
                 f"table64 m={m}: {len(rows)} rows, expected {len(want)}")
    for k, row in enumerate(rows):
        tally.expect(k < len(want) and row == want[k],
                     f"table64 m={m}: row {row} differs from the closed form")
    return len(rows), 0


# -- Clifford products ----------------------------------------------------------


def _bits(mask):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def clifford_product(signs, left, right):
    """Product of two Clifford elements given as {bitmask: Fraction}.

    Generators satisfy x y + y x = <x, y> with <e_i, e_i> = signs[i], so
    e_i e_i = signs[i] / 2.  Bringing e_A e_B to increasing order moves
    each generator of B past the generators of A above it, one sign flip
    per move; the generators in both contract to signs[i] / 2.
    """
    out = {}
    for a, x in left.items():
        for b, y in right.items():
            moves = sum(bin(a >> (j + 1)).count("1") for j in _bits(b))
            coeff = x * y * (-1 if moves % 2 else 1)
            for i in _bits(a & b):
                coeff *= Fraction(signs[i], 2)
            out[a ^ b] = out.get(a ^ b, 0) + coeff
    return {m: c for m, c in out.items() if c}


def random_clifford_cases(rng, count):
    """Seeded operands: random sign patterns, 1 to 3 monomials a side."""
    cases = []
    for _ in range(count):
        dim = rng.randint(1, 6)
        signs = tuple(rng.choice((1, -1)) for _ in range(dim))

        def element():
            return {rng.randrange(1 << dim):
                    Fraction(rng.choice((-5, -3, -2, -1, 1, 2, 4)),
                             rng.randint(1, 4))
                    for _ in range(rng.randint(1, 3))}
        cases.append((signs, element(), element()))
    return cases


def observe_clifford_products(clifford, cases):
    """The program's products of the given operands, as {bitmask: parts}."""
    out = []
    for signs, left, right in cases:
        space = clifford.QuadraticSpace(
            tuple(f"x{i}" for i in range(len(signs))), signs)

        def element(terms):
            return clifford.CliffordElement(
                space, {tuple(_bits(m)): c for m, c in terms.items()})
        prod = element(left) * element(right)
        got = {sum(1 << i for i in mono): scalar_parts(c)
               for mono, c in prod.terms.items()}
        out.append((signs, left, right, got))
    return out


def check_clifford_products(observed, tally):
    for signs, left, right, got in observed:
        want = {m: rational_parts(c)
                for m, c in clifford_product(signs, left, right).items()}
        tally.expect(got == want,
                     f"Clifford product over signs {signs}: {left} * {right} "
                     f"gave {got}, expected {want}")


# -- exact linear algebra in sympy ----------------------------------------------


class Field:
    """Q(sqrt2, i) as sympy's algebraic field, with sparse matrices over it."""

    def __init__(self):
        from sympy import QQ, I, sqrt
        from sympy.polys.matrices import DomainMatrix
        self.QQ = QQ
        self.K = QQ.algebraic_field(sqrt(2), I)
        self.DomainMatrix = DomainMatrix
        self.sqrt2 = self.K.from_sympy(sqrt(2))
        self.i = self.K.from_sympy(I)

    def rational(self, q):
        q = Fraction(q)
        return self.K.convert(self.QQ(q.numerator, q.denominator))

    def scalar(self, parts):
        a, b, c, d = (self.rational(x) for x in parts)
        return a + b * self.sqrt2 + self.i * (c + d * self.sqrt2)

    def matrix(self, parts):
        nrows, ncols, entries = parts
        rows = {}
        for (i, j), x in entries.items():
            value = self.scalar(x)
            if value:
                rows.setdefault(i, {})[j] = value
        return self.DomainMatrix(rows, (nrows, ncols), self.K)

    def diagonal(self, values):
        n = len(values)
        return self.DomainMatrix(
            {k: {k: self.rational(v)} for k, v in enumerate(values) if v},
            (n, n), self.K)

    def kron(self, a, b):
        """Kronecker product over the nonzeros of two sparse matrices.

        sympy's own ``kronecker_product`` visits every entry of a dense
        matrix of expressions (about a second for a 121x121 factor), so the
        oracle multiplies nonzeros here; the tests compare the two.
        """
        p, q = b.shape
        sb = b.to_sdm()
        out = {}
        for i, row in a.to_sdm().items():
            for k, brow in sb.items():
                out[i * p + k] = {j * q + l: x * y for j, x in row.items()
                                  for l, y in brow.items()}
        return self.DomainMatrix(out, (a.shape[0] * p, a.shape[1] * q),
                                 self.K)


def anticommutator_cases(rng, spin_modules, count):
    """Seeded rational vectors x, y for each spin module's space."""
    cases = []
    for signs, gammas in spin_modules:
        for _ in range(count):
            vector = [tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                            for _ in signs) for _ in range(2)]
            cases.append((signs, gammas, vector[0], vector[1]))
    return cases


def observe_spin_module(spin):
    """(signs, gamma generator matrices) of a spin module."""
    return (tuple(spin.space.signs),
            [matrix_parts(spin.gamma_generator(i))
             for i in range(spin.space.dim)])


def check_anticommutators(field, cases, tally):
    """gamma(x) gamma(y) + gamma(y) gamma(x) = <x, y> 1, recomputed in sympy
    from the gamma matrices of the program's spin modules."""
    for signs, gammas, x, y in cases:
        mats = [field.matrix(g) for g in gammas]
        dim = gammas[0][0]

        def gamma(v):
            out = field.DomainMatrix({}, (dim, dim), field.K)
            for c, g in zip(v, mats):
                if c:
                    out = out + g * field.rational(c)
            return out
        gx, gy = gamma(x), gamma(y)
        pairing = sum(s * a * b for s, a, b in zip(signs, x, y))
        want = field.diagonal([pairing] * dim)
        tally.expect(gx.matmul(gy) + gy.matmul(gx) == want,
                     f"anticommutator over signs {signs} fails for "
                     f"x={x}, y={y}")


# -- embedding ------------------------------------------------------------------


def observe_negative_control(dirac, triple, module):
    """Symbols where the transferred ambient element differs from each
    assembled form, with the default and with a perturbed cubic
    coefficient (-1).  Returns {(form, perturbed): [symbol names]}."""
    moved = dirac.transfer(triple, dirac.geometric_dirac_element(triple, module),
                           module)
    out = {}
    for form in (1, 2):
        for perturbed in (False, True):
            rhs = dirac.assemble_rhs(triple, module, form,
                                     cubic_coefficient=-1 if perturbed else None)
            out[(form, perturbed)] = moved.describe_difference(rhs)
    return out


def check_negative_control(weight, differences, tally):
    """The identity holds with the paper's cubic coefficient and breaks, in
    exactly the unit symbol, when the coefficient is changed to -1."""
    for (form, perturbed), names in sorted(differences.items()):
        want = ["unit"] if perturbed else []
        tally.expect(names == want,
                     f"weight {weight} form {form} "
                     f"{'perturbed' if perturbed else 'as stated'}: "
                     f"differs at {names}, expected {want}")


# -- spectral -------------------------------------------------------------------


def check_block_eigenvalues(observed, tally):
    """Eigenvalue of block (a, b) against (a-b)/(2 sqrt2) = (a-b) sqrt2/4."""
    for a, b, got in observed:
        want = (Fraction(0), Fraction(a - b, 4), Fraction(0), Fraction(0))
        tally.expect(got == want,
                     f"block ({a},{b}) eigenvalue {got}, expected {want}")


def check_finite_kernels(observed, tally):
    """Kernel of the fixed-side operator on the irreducible module of
    highest weight 2m: exactly the lines (2m, "e") and (-2m, "1")."""
    for m, lines in observed:
        want = sorted([(2 * m, "e"), (-2 * m, "1")])
        tally.expect(sorted(lines) == want,
                     f"finite kernel for m={m} is {lines}, expected {want}")


SLOT_WEIGHT = {"e": 1, "1": -1}


def observe_truncated_kernel(spectral, kind, param, n_levels):
    """The operator's ingredients and the program's kernel lines for one
    member of the scan family."""
    g, pair, spin, names, _ = spectral.single_side()
    module = spectral.scan_module(kind, param, n_levels)
    return {
        "module": (kind, param, n_levels),
        "weights": list(module.weights),
        "actions": [matrix_parts(a) for a in module.actions],
        "form": matrix_parts(g.form),
        "basis": [[scalar_parts(c) for c in b] for b in pair.complement_basis],
        "gammas": [matrix_parts(spin.gamma_generator(j))
                   for j in range(spin.space.dim)],
        "names": dict(names),
        "lines": [tuple(line) for line in spectral.truncated_dirac_kernel(module)],
    }


def check_truncated_kernel(field, case, tally):
    """Rebuild the rank-one operator sum_j <b_j,b_j> pi(b_j) (x) gamma_j in
    sympy, solve its kernel on the certified window and compare it with the
    program's kernel lines, their number included."""
    kind, param, _ = case["module"]
    label = f"{kind} {param} ({len(case['weights'])} levels)"
    weights = case["weights"]
    actions = [field.matrix(a) for a in case["actions"]]
    gram = field.matrix(case["form"])
    gammas = [field.matrix(g) for g in case["gammas"]]
    n, sdim = len(weights), gammas[0].shape[0]

    def as_column(vector):
        return field.DomainMatrix({i: {0: field.scalar(c)}
                                   for i, c in enumerate(vector)
                                   if any(c)}, (len(vector), 1), field.K)
    op = field.DomainMatrix({}, (n * sdim, n * sdim), field.K)
    for b, gamma in zip(case["basis"], gammas):
        col = as_column(b)
        norm = col.transpose().matmul(gram).matmul(col).to_sdm()
        sign = norm.get(0, {}).get(0)
        if not tally.expect(sign in (field.K.one, -field.K.one),
                            f"{label}: complement vector of norm {sign}"):
            return
        action = field.DomainMatrix({}, (n, n), field.K)
        for c, a in zip(b, actions):
            if any(c):
                action = action + a * field.scalar(c)
        op = op + field.kron(action * sign, gamma)

    # The spin line names must be the torus weights: the operator commutes
    # with the total grading h (x) 1 + 1 (x) diag(weight of each line).
    names = case["names"]
    slot_w = [SLOT_WEIGHT.get(names.get(s), 0) for s in range(sdim)]
    grading = (field.kron(actions[0], field.diagonal([1] * sdim))
               + field.kron(field.diagonal([1] * n), field.diagonal(slot_w)))
    tally.expect(op.matmul(grading) == grading.matmul(op),
                 f"{label}: spin line names {names} are not the torus weights")

    certified = n if kind == "finite" else n - 1
    window = list(range(certified * sdim))
    nullity = len(window) - op.extract(list(range(n * sdim)), window).rank()
    lines = case["lines"]
    tally.expect(len(lines) == nullity,
                 f"{label}: {len(lines)} kernel lines, sympy finds {nullity}")
    columns = op.transpose().to_sdm()
    slot_index = {name: s for s, name in names.items()}
    seen = set()
    for total, slot, level in lines:
        flat = level * sdim + slot_index.get(slot, sdim)
        ok = (0 <= level < certified and slot in slot_index
              and flat not in seen and not columns.get(flat)
              and total == weights[level] + SLOT_WEIGHT[slot])
        seen.add(flat)
        tally.expect(ok, f"{label}: line {(total, slot, level)} is not a "
                         f"kernel line of the certified window")


# -- seeded inputs of the spectral checks ---------------------------------------


def spectral_samples(rng):
    """Seeded inputs: 40 blocks, 3 twist parameters, 4 scan-family modules
    (two at 40 levels, one at 120, one finite)."""
    blocks = [(rng.randint(-40, 40), rng.randint(-40, 40)) for _ in range(40)]
    twists = rng.sample(range(0, 9), 3)
    modules = []
    for levels in (40, 40, 120):
        if rng.random() < 0.5:
            modules.append(("highest", rng.randint(-12, -1), levels))
        else:
            modules.append(("lowest", rng.randint(1, 12), levels))
    modules.append(("finite", rng.randint(0, 10), 0))
    return blocks, twists, modules


def make_rng(seed, workload):
    return random.Random(f"{workload}:{seed}")
