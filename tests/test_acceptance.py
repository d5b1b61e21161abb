"""Acceptance checks: one test and one printed pass/fail line per criterion.

Each test recomputes its claim from scratch against independently stated
expected values and reports `criterion NN <name>: PASS/FAIL`.  Criteria
with a runtime budget measure it with a monotonic clock and fail when
the budget is exceeded.
"""

import time
from fractions import Fraction
from itertools import combinations, product

import pytest

from diracembed import (CliffordElement, ExactMatrix, ExactScalar, I,
                        INV_SQRT2, ONE, QuadraticSpace, ZERO,
                        assemble_rhs, beta_action,
                        block_eigenvalue, build_sl2_triple,
                        clifford_commutator, coerce, cubic_scalar,
                        even_weight_cancellation, finite_dirac_kernel,
                        geometric_dirac_element, graded_tensor_action,
                        hs_dirac_operator, inject_element, kernel_table,
                        make_block, mult_iso, omega_rescaling_cases,
                        sl2_irrep, transfer, truncated_dirac_kernel,
                        unit_vector, vec_add, vec_is_zero, vec_scale, vec_sub,
                        verify_embedding)
from diracembed import spectral


@pytest.fixture(scope="module")
def triple():
    return build_sl2_triple()


def _conclude(num, name, problems, elapsed=None, budget=None):
    if budget is not None and elapsed >= budget:
        problems = problems + [f"runtime {elapsed:.2f} s exceeds {budget} s"]
    status = "PASS" if not problems else "FAIL"
    timing = f" ({elapsed:.2f} s)" if elapsed is not None else ""
    print(f"criterion {num:02d} {name}: {status}{timing}")
    assert not problems, f"criterion {num:02d} {name}: " + "; ".join(problems)


def test_criterion_01_clifford_axioms():
    start = time.perf_counter()
    problems = []
    patterns = {1: (-1,), 2: (1, 1), 3: (1, -1, 1), 4: (-1, -1, 1, 1),
                5: (1, 1, 1, -1, -1), 6: (1, -1, 1, -1, 1, -1)}
    for dim, signs in patterns.items():
        space = QuadraticSpace(tuple(f"g{k+1}" for k in range(dim)), signs)
        gens = [CliffordElement.generator(space, i) for i in range(dim)]
        for i in range(dim):
            for j in range(dim):
                want = (CliffordElement.unit(space, coerce(signs[i]))
                        if i == j else CliffordElement.zero(space))
                if gens[i] * gens[j] + gens[j] * gens[i] != want:
                    problems.append(f"relation fails at dim {dim} ({i},{j})")
        if dim <= 4:
            monos = [CliffordElement.monomial(space, m)
                     for r in range(dim + 1)
                     for m in combinations(range(dim), r)]
            for a, b, c in product(monos, repeat=3):
                if (a * b) * c != a * (b * c):
                    problems.append(f"associativity fails at dim {dim}")
                    break
    _conclude(1, "clifford-axioms", problems,
              time.perf_counter() - start, budget=1.0)


def test_criterion_02_bracket_identity_in_every_pair(triple):
    start = time.perf_counter()
    problems = []
    g = triple.algebra
    pairs = {"g-h": triple.pair_g_h, "l-lh": triple.pair_l_lh,
             "l-lk": triple.pair_l_lk, "lk-lh": triple.pair_lk_lh,
             "h-hk": triple.pair_h_hk}
    for label, pair in pairs.items():
        for x in pair.acting_basis:
            ax = pair.alpha(x)
            for y in pair.complement_basis:
                got = clifford_commutator(ax, pair.vector_element(y))
                if got != pair.vector_element(g.bracket(x, y)):
                    problems.append(f"bracket identity fails in pair {label}")
    _conclude(2, "quantized-bracket-identity", problems,
              time.perf_counter() - start, budget=1.0)


def test_criterion_03_alpha_morphism_and_transport(triple):
    problems = []
    g = triple.algebra
    for pair in (triple.pair_g_h, triple.pair_l_lh, triple.pair_h_hk):
        for x in pair.acting_basis:
            for y in pair.acting_basis:
                lhs = clifford_commutator(pair.alpha(x), pair.alpha(y))
                if lhs != pair.alpha(g.bracket(x, y)):
                    problems.append("alpha is not a morphism")
    # transporting the slice quantization through rho_minus gives the
    # ambient quantization on the sigma-fixed part of the slice
    for x in triple.l_h_basis:
        slice_alpha = triple.pair_l_lh.alpha(x)
        transported = CliffordElement.zero(triple.space_ql)
        for indices, coeff in slice_alpha.terms.items():
            basis = triple.zq_basis + triple.t_basis
            moved = CliffordElement.unit(triple.space_ql, coeff)
            for idx in indices:
                moved = moved * triple.pair_g_h.vector_element(
                    triple.rho(-1, basis[idx]))
            transported = transported + moved
        if transported != triple.pair_g_h.alpha(x):
            problems.append("rho_minus does not transport the quantization")
    _conclude(3, "alpha-morphism-and-transport", problems)


def test_criterion_04_spin_factorization(triple):
    problems = []
    ma, mb = triple.spin_ls, triple.spin_qlp
    from diracembed import combine_spin_modules
    joint = combine_spin_modules(ma, mb, triple.space_ql)
    if joint.dim != ma.dim * mb.dim:
        problems.append("joint spin dimension is wrong")
    c_elts = [CliffordElement.unit(ma.space)] + \
        [CliffordElement.generator(ma.space, i) for i in range(2)]
    d_elts = [CliffordElement.unit(mb.space),
              CliffordElement.generator(mb.space, 0)]
    iso = mult_iso(ma, mb, joint)
    for c in c_elts:
        for d in d_elts:
            joint_elt = inject_element(c, triple.space_ql) * \
                inject_element(d, triple.space_ql)
            lhs = iso @ graded_tensor_action(c, d, ma, mb)
            rhs = joint.gamma(joint_elt) @ iso
            if lhs != rhs:
                problems.append(
                    f"tensor action of {c} (x) {d} does not intertwine "
                    "with the exterior multiplication")
    _conclude(4, "spin-factorization", problems)


def test_criterion_05_omega_rescaling(triple):
    problems = []
    cases = omega_rescaling_cases(triple)
    if len(cases) != 27:
        problems.append(f"expected 27 ordered triples, got {len(cases)}")
    bad = sum(1 for lhs, rhs in cases if lhs != rhs)
    if bad:
        problems.append(f"{bad} triples violate the rescaling")
    nonzero = sum(1 for lhs, _ in cases if not lhs.is_zero())
    if nonzero != 4:
        problems.append(f"expected 4 nonzero values, got {nonzero}")
    _conclude(5, "omega-rescaling", problems)


def test_criterion_06_embedding_identity(triple):
    start = time.perf_counter()
    problems = []
    for m in range(6):
        module = sl2_irrep(2 * m)
        for name, ok, details in verify_embedding(triple, module):
            if not ok:
                problems.append(f"m={m} {name}: {details}")
    # negative control: a perturbed cubic coefficient must break the
    # identity, and only in the unit symbol
    module = sl2_irrep(2)
    moved = transfer(triple, geometric_dirac_element(triple, module), module)
    wrong = assemble_rhs(triple, module, 2, cubic_coefficient=-1)
    if moved.describe_difference(wrong) != ["unit"]:
        problems.append("perturbed coefficient did not fail as expected")
    _conclude(6, "embedding-identity", problems,
              time.perf_counter() - start, budget=10.0)


def test_criterion_07_cubic_scalar(triple):
    problems = []
    got = cubic_scalar(triple)
    if got != INV_SQRT2:
        problems.append(f"expected 1/sqrt2, got {got}")
    # recompute through the full gamma matrix rather than the scalar hook
    elt = triple.pair_l_lh.cubic_element().scaled(coerce(-2))
    matrix = triple.spin_ql.gamma(elt)
    if not matrix.is_scalar(INV_SQRT2):
        problems.append("gamma of the doubled cubic element is not 1/sqrt2")
    _conclude(7, "cubic-scalar", problems)


def test_criterion_08_block_eigenvalues(triple):
    problems = []
    for a in range(-10, 11):
        for b in range(-10, 11):
            got = block_eigenvalue(triple, make_block(a, b))
            want = ExactScalar(0, Fraction(a - b, 4))
            if got != want:
                problems.append(f"eigenvalue wrong at ({a},{b})")
    _conclude(8, "block-eigenvalues", problems)


def test_criterion_09_cancellation_parity(triple):
    problems = []
    for n in range(7):
        out = even_weight_cancellation(triple, sl2_irrep(n))
        if out["nonempty"] != (n % 2 == 0):
            problems.append(f"parity mismatch at highest weight {n}")
        for blk in out["blocks"]:
            if blk.right.a - blk.right.b != -2:
                problems.append(f"off-line block at highest weight {n}")
    _conclude(9, "cancellation-parity", problems)


def test_criterion_10_fixed_side_kernels(triple):
    problems = []
    for m in range(6):
        got = finite_dirac_kernel(triple, sl2_irrep(2 * m))
        want = sorted([(2 * m, "e"), (-2 * m, "1")])
        if got != want:
            problems.append(f"kernel wrong at m={m}: {got}")
        if len(got) != 2:
            problems.append(f"kernel dimension is not 2 at m={m}")
    _conclude(10, "fixed-side-kernels", problems)


def test_criterion_11_truncated_kernels_and_scans():
    # a cold cache: the budget covers the real construction work
    spectral.single_side.cache_clear()
    start = time.perf_counter()
    problems = []
    # the reference scan: every member nu = -1 .. -12 and mu = 0 .. 12
    # (mu = 0 the one-dimensional module), each solved whole at 40 levels
    highest = {nu: truncated_dirac_kernel(
        spectral.scan_module("highest", nu, 40)) for nu in range(-1, -13, -1)}
    lowest = {mu: truncated_dirac_kernel(
        spectral.scan_module("lowest" if mu else "finite", mu, 40))
        for mu in range(13)}

    def scan_hits(family, total, slot):
        return [p for p, lines in family.items()
                if (total, slot) in [(l.total, l.slot) for l in lines]]

    for m in range(6):
        hw = truncated_dirac_kernel(
            spectral.scan_module("highest", -m - 2, 40))
        if [(l.total, l.slot) for l in hw] != [(-m - 1, "e")]:
            problems.append(f"highest weight kernel wrong at m={m}: {hw}")
        lw_module = (spectral.scan_module("finite", 0, 0) if m == 0
                     else spectral.scan_module("lowest", m, 40))
        lw = truncated_dirac_kernel(lw_module)
        if (m - 1, "1") not in [(l.total, l.slot) for l in lw]:
            problems.append(f"lowest weight kernel misses m-1 at m={m}")
        hits = scan_hits(highest, -m - 1, "e")
        if hits != [-m - 2]:
            problems.append(f"scan at m={m} found {hits}")
        lhits = scan_hits(lowest, m - 1, "1")
        if lhits != [0 if m == 0 else m]:
            problems.append(f"lowest scan at m={m} found {lhits}")
    _conclude(11, "truncated-kernels-and-scans", problems,
              time.perf_counter() - start, budget=5.0)


def test_criterion_12_kernel_table(triple):
    problems = []
    expected = {
        0: [["DS+", 2, "C", -1], ["Trivial", None, "C", -1]],
        1: [["DS+", 3, "C", 0], ["LDS-", None, "C", -2]],
    }
    for m in range(2, 6):
        expected[m] = [["DS+", m + 2, "C", m - 1], ["DS-", -m, "C", -m - 1]]
    for m in range(6):
        got = kernel_table(triple, m)
        if got != expected[m]:
            problems.append(f"table row wrong at m={m}: {got}")
    _conclude(12, "kernel-table", problems)


def test_criterion_13_presentation_independence(triple):
    problems = []
    n = triple.algebra.dim
    big_e = vec_add(unit_vector(n, 1), unit_vector(n, 4))
    big_f = vec_add(unit_vector(n, 2), unit_vector(n, 5))
    half = coerce(Fraction(1, 2))
    c, s = coerce(Fraction(3, 5)), coerce(Fraction(4, 5))
    b1, b2 = triple.pair_h_hk.complement_basis
    for m in range(3):
        module = sl2_irrep(2 * m)
        default = hs_dirac_operator(triple, module)
        nilpotent = hs_dirac_operator(
            triple, module, vectors=[big_e, big_f],
            duals=[vec_scale(half, big_f), vec_scale(half, big_e)])
        rotated = hs_dirac_operator(
            triple, module,
            vectors=[vec_add(vec_scale(c, b1), vec_scale(s, b2)),
                     vec_add(vec_scale(-s, b1), vec_scale(c, b2))])
        if nilpotent != default:
            problems.append(f"nilpotent presentation differs at m={m}")
        if rotated != default:
            problems.append(f"rotated presentation differs at m={m}")
    _conclude(13, "presentation-independence", problems)
