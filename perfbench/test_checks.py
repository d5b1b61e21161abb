"""Each output check of the benchmark must reject a corrupted output.

    python3 -m pytest perfbench -q

Every test feeds a check a genuine program output, which it must accept,
and then corrupted copies of it, each of which it must reject.
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from diracembed import (clifford, dirac, lie, report, spectral,  # noqa: E402
                        spin, triple)

sympy = pytest.importorskip("sympy")


def rejected(check, *args):
    tally = checks.Tally()
    check(*args, tally)
    return bool(tally.mismatches)


def accepted(check, *args):
    tally = checks.Tally()
    check(*args, tally)
    assert tally.compared > 0
    return not tally.mismatches


@pytest.fixture(scope="module")
def built():
    return triple.build_sl2_triple()


@pytest.fixture(scope="module")
def field():
    return checks.Field()


# -- command output -------------------------------------------------------------


@pytest.fixture(scope="module")
def embedding_report():
    return report.render_text(report.run_suites(["theorem51"], weight=2))


def test_verify_output_accepts_the_report(embedding_report):
    tally = checks.Tally()
    ops, failed = checks.check_verify_output("theorem51", embedding_report, 0,
                                             tally)
    assert (ops, failed) == (len(embedding_report.splitlines()), 0)
    assert tally.compared == 4 and not tally.mismatches


@pytest.mark.parametrize("corrupt", [
    lambda t: t.replace(": pass", ": fail", 1),
    lambda t: "\n".join(l for l in t.splitlines()
                        if "forms-agree" not in l),
    lambda t: t.replace("theorem51/", "spectral/", 1),
    lambda t: t.replace(" — ", " - ", 1),
    lambda t: "",
])
def test_verify_output_rejects_corruption(embedding_report, corrupt):
    assert rejected(lambda *a: checks.check_verify_output("theorem51", *a),
                    corrupt(embedding_report), 0)


def test_verify_output_counts_failed_checks(embedding_report):
    text = embedding_report.replace(": pass", ": fail", 2)
    ops, failed = checks.check_verify_output("theorem51", text, 1,
                                             checks.Tally())
    assert failed == 2


def test_table_output(built):
    for m in (0, 1, 3):
        text = json.dumps(spectral.kernel_table(built, m))
        assert accepted(lambda *a: checks.check_table_output(m, *a), text, 0)
    good = json.dumps(checks.expected_table(4))
    for bad, status in ((good.replace("6", "7", 1), 0),
                        (json.dumps(checks.expected_table(4)[::-1]), 0),
                        (json.dumps(checks.expected_table(4)[:1]), 0),
                        (good, 1), ("[[", 0)):
        assert rejected(lambda *a: checks.check_table_output(4, *a), bad,
                        status)


# -- Clifford products ----------------------------------------------------------


def test_reference_product_on_hand_examples():
    signs = (1, -1, 1)
    e = [{1 << i: Fraction(1)} for i in range(3)]
    assert checks.clifford_product(signs, e[0], e[0]) == {0: Fraction(1, 2)}
    assert checks.clifford_product(signs, e[1], e[1]) == {0: Fraction(-1, 2)}
    assert checks.clifford_product(signs, e[1], e[0]) == {0b011: -1}
    assert checks.clifford_product(signs, {0b101: 1}, {0b011: 1}) == \
        {0b110: Fraction(1, 2)}


@pytest.fixture(scope="module")
def clifford_observed():
    cases = checks.random_clifford_cases(random.Random(7), 60)
    return checks.observe_clifford_products(clifford, cases)


def test_clifford_products(clifford_observed):
    assert accepted(checks.check_clifford_products, clifford_observed)


def _corrupt_product(observed, how):
    signs, left, right, got = observed[0]
    got = dict(got)
    mono, (a, b, c, d) = next(iter(got.items()))
    if how == "sign":
        got[mono] = (-a, b, c, d)
    elif how == "monomial":
        got[mono ^ 1] = got.pop(mono)
    else:
        got[mono] = (a, b + 1, c, d)
    return [(signs, left, right, got)] + observed[1:]


@pytest.mark.parametrize("how", ["sign", "monomial", "irrational"])
def test_clifford_products_reject_corruption(clifford_observed, how):
    assert rejected(checks.check_clifford_products,
                    _corrupt_product(clifford_observed, how))


# -- exact linear algebra ------------------------------------------------------


def test_kron_matches_sympy_kronecker_product(field):
    rng = random.Random(3)

    def random_matrix(n, m):
        entries = {(i, j): tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                 for _ in range(4))
                   for i in range(n) for j in range(m) if rng.random() < 0.6}
        return (n, m, entries)
    a, b = field.matrix(random_matrix(3, 2)), field.matrix(random_matrix(2, 3))
    want = sympy.kronecker_product(a.to_Matrix(), b.to_Matrix())
    assert (field.kron(a, b).to_Matrix() - want).applyfunc(
        sympy.nsimplify).is_zero_matrix


@pytest.fixture(scope="module")
def spin_cases(built):
    modules = [checks.observe_spin_module(m)
               for m in (built.spin_ql, built.spin_ls, built.spin_qlp)]
    modules.append(checks.observe_spin_module(spin.SpinModule(
        clifford.QuadraticSpace(("a", "b", "c", "d", "e"), (1, -1, -1, 1, 1)))))
    return checks.anticommutator_cases(random.Random(5), modules, 2)


def test_anticommutators(field, spin_cases):
    assert accepted(lambda *a: checks.check_anticommutators(field, *a),
                    spin_cases)


def test_anticommutators_reject_a_corrupted_gamma(field, spin_cases):
    signs, gammas, x, y = spin_cases[-1]
    nrows, ncols, entries = gammas[0]
    entries = dict(entries)
    key = next(iter(entries))
    entries[key] = tuple(-v for v in entries[key])
    bad = [(signs, [(nrows, ncols, entries)] + gammas[1:], x, y)]
    assert rejected(lambda *a: checks.check_anticommutators(field, *a), bad)


# -- embedding ------------------------------------------------------------------


def test_negative_control(built):
    differences = checks.observe_negative_control(dirac, built,
                                                  lie.sl2_irrep(2))
    assert accepted(lambda *a: checks.check_negative_control(2, *a),
                    differences)
    for key, names in ([(1, True), []], [(2, True), ["unit", "h1"]],
                       [(1, False), ["unit"]]):
        bad = {**differences, key: names}
        assert rejected(lambda *a: checks.check_negative_control(2, *a), bad)


# -- spectral -------------------------------------------------------------------


def test_block_eigenvalues(built):
    observed = [(a, b, checks.scalar_parts(spectral.block_eigenvalue(
        built, spectral.make_block(a, b)))) for a, b in ((3, -5), (0, 0))]
    assert accepted(checks.check_block_eigenvalues, observed)
    a, b, (p, q, r, s) = observed[0]
    for bad in ((a, b, (p, -q, r, s)), (a, b, (p, q, r, q)), (b, a, (p, q, r, s))):
        assert rejected(checks.check_block_eigenvalues, [bad])


def test_finite_kernels(built):
    observed = [(m, spectral.finite_dirac_kernel(built, lie.sl2_irrep(2 * m)))
                for m in (0, 2)]
    assert accepted(checks.check_finite_kernels, observed)
    for bad in ((2, [(4, "e")]), (2, [(4, "1"), (-4, "e")]),
                (2, [(4, "e"), (-4, "1"), (0, "e")])):
        assert rejected(checks.check_finite_kernels, [bad])


@pytest.fixture(scope="module")
def kernel_case():
    return checks.observe_truncated_kernel(spectral, "lowest", 3, 20)


@pytest.mark.parametrize("module", [("highest", -4, 40), ("lowest", 1, 40),
                                    ("finite", 6, 0)])
def test_truncated_kernel(field, module):
    case = checks.observe_truncated_kernel(spectral, *module)
    assert accepted(lambda *a: checks.check_truncated_kernel(field, *a), case)


def _with(case, **changes):
    return {**case, **changes}


@pytest.mark.parametrize("corrupt", [
    lambda c: _with(c, lines=c["lines"][1:]),
    lambda c: _with(c, lines=c["lines"] + [c["lines"][0]]),
    lambda c: _with(c, lines=[(t, s, lvl + 1) for t, s, lvl in c["lines"]]),
    lambda c: _with(c, lines=[(t, "1" if s == "e" else "e", lvl)
                              for t, s, lvl in c["lines"]]),
    lambda c: _with(c, lines=[(t + 2, s, lvl) for t, s, lvl in c["lines"]]),
    lambda c: _with(c, names={s: ("1" if n == "e" else "e")
                              for s, n in c["names"].items()}),
    lambda c: _with(c, weights=[w + 2 for w in c["weights"]]),
])
def test_truncated_kernel_rejects_corruption(field, kernel_case, corrupt):
    assert kernel_case["lines"]
    assert rejected(lambda *a: checks.check_truncated_kernel(field, *a),
                    corrupt(kernel_case))


def test_truncated_kernel_rejects_a_corrupted_operator(field, kernel_case):
    nrows, ncols, _ = kernel_case["actions"][1]
    bad = _with(kernel_case, actions=[kernel_case["actions"][0],
                                      (nrows, ncols, {}),
                                      kernel_case["actions"][2]])
    assert rejected(lambda *a: checks.check_truncated_kernel(field, *a), bad)


# -- tracing and the declared metrics -------------------------------------------


def test_every_boundary_has_a_home_workload():
    homes = {b for names in run.HOME.values() for b in names}
    traced = {name for name, _, _ in tracer.SPANS}
    traced |= {name.rsplit(".", 1)[0] for name, _, _ in tracer.COUNTS}
    assert traced == homes


def test_declared_metrics_are_the_measured_ones():
    record = {"spans": [], "counts": {}, "kernel_modules": [],
              "products": {"general": [0.0, 0], "rational": [0.0, 0]}}
    measured = set(run.layer_metrics([record])) | {"trace.wall_s",
                                                   "trace.overhead_ratio"}
    assert set(run.declared_metrics(True)) == measured
    assert set(run.declared_metrics(False)) == {"wall_s", "setup_s",
                                                "peak_rss_mib"}


def test_self_time_subtracts_child_spans():
    spans = [["cli.main", 0.0, 10.0, -1], ["scalars.rref", 1.0, 4.0, 0],
             ["scalars.matmul", 2.0, 3.0, 1], ["scalars.rref", 5.0, 6.0, 0]]
    record = {"spans": spans, "counts": {}, "kernel_modules": [],
              "products": {"general": [0.0, 0], "rational": [0.0, 0]}}
    metrics = run.layer_metrics([record])
    assert metrics["cli.main.self_s"] == pytest.approx(6.0)
    assert metrics["scalars.rref.self_s"] == pytest.approx(3.0)
    assert metrics["scalars.rref.calls"] == 2


def test_tracer_wraps_every_binding_and_restores_them():
    original = dirac.algebraic_dirac
    mul = vars(type(lie.ONE))["__mul__"]
    t = tracer.Tracer()
    restore = tracer.install(t)
    try:
        assert spectral.algebraic_dirac is dirac.algebraic_dirac is not original
        assert vars(type(lie.ONE))["__rmul__"] is vars(type(lie.ONE))["__mul__"]
        spectral.truncated_dirac_kernel(lie.sl2_irrep(2))
    finally:
        restore()
    assert spectral.algebraic_dirac is original
    assert vars(type(lie.ONE))["__mul__"] is mul
    names = [span[0] for span in t.spans]
    kernel = names.index("spectral.truncated_dirac_kernel")
    inner = names.index("dirac.algebraic_dirac")
    assert names[0] == "lie.module_build" and t.spans[inner][3] == kernel
    assert t.counts["scalars.mul.calls"][0] > 0
