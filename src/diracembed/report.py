"""Verification suites and deterministic report rendering.

Each suite runs a family of exact algebraic checks and returns CheckResult
records.  Renderers produce either a stable JSON document or one text line
per check; reruns of the same build yield byte-identical output.
"""

import json
from fractions import Fraction
from itertools import product
from typing import NamedTuple

from .scalars import (ExactScalar, ExactMatrix, coerce, ZERO, ONE, HALF,
                      INV_SQRT2)
from .lie import sl2_irrep
from .clifford import (QuadraticSpace, CliffordElement, clifford_commutator,
                       inject_element, alpha_split_holds)
from .spin import graded_tensor_action, combine_spin_modules, mult_iso
from .triple import build_sl2_triple, omega_rescaling_cases
from .dirac import verify_embedding
from . import __version__


class CheckResult(NamedTuple):
    suite: str
    check: str
    status: str          # pass | fail | skipped
    details: str
    paper_anchor: str


def _check(suite, check, ok, good, bad, anchor) -> CheckResult:
    return CheckResult(suite, check, "pass" if ok else "fail",
                       good if ok else bad, anchor)


def _skip(suite, check, why, anchor) -> CheckResult:
    return CheckResult(suite, check, "skipped", why, anchor)


def _first(bad):
    """The first failing case, named in a failure message."""
    return bad[0] if bad else None


# -- clifford suite -----------------------------------------------------------


def _sample_space(dim: int) -> QuadraticSpace:
    labels = tuple(f"g{i + 1}" for i in range(dim))
    signs = tuple(1 if i % 2 == 0 else -1 for i in range(dim))
    return QuadraticSpace(labels, signs)


def _all_monomials(space: QuadraticSpace):
    subsets = [()]
    for i in range(space.dim):
        subsets += [s + (i,) for s in subsets]
    return [CliffordElement.monomial(space, s) for s in subsets]


def clifford_suite():
    anchor = "clifford-defining-relation"
    results = []
    for dim in range(1, 7):
        space = _sample_space(dim)
        bad = []
        for i in range(dim):
            gi = CliffordElement.generator(space, i)
            for j in range(dim):
                gj = CliffordElement.generator(space, j)
                pairing = coerce(space.signs[i]) if i == j else ZERO
                want = CliffordElement.unit(space, pairing)
                if gi * gj + gj * gi != want:
                    bad.append((space.labels[i], space.labels[j]))
        results.append(_check(
            "clifford", f"anticommutation-dim-{dim}", not bad,
            f"all {dim * dim} generator pairs satisfy xy + yx = <x,y>",
            f"relation fails on pairs {bad}", anchor))
    for dim in range(1, 5):
        space = _sample_space(dim)
        monos = _all_monomials(space)
        bad = []
        for a in monos:
            for b in monos:
                ab = a * b
                for c in monos:
                    if (ab) * c != a * (b * c):
                        bad.append(f"({a}, {b}, {c})")
        results.append(_check(
            "clifford", f"associativity-dim-{dim}", not bad,
            f"(ab)c = a(bc) on all {len(monos) ** 3} basis monomial triples",
            f"{len(bad)} associativity failures, first at the monomial "
            f"triple {_first(bad)}", "clifford-associativity"))
    square_bad = []
    for dim in range(1, 7):
        space = _sample_space(dim)
        for i in range(dim):
            gi = CliffordElement.generator(space, i)
            want = CliffordElement.unit(space, coerce(space.signs[i]) * HALF)
            if gi * gi != want:
                square_bad.append((dim, space.labels[i]))
    results.append(_check(
        "clifford", "generator-squares", not square_bad,
        "x*x = <x,x>/2 for every generator in dims 1..6",
        f"square fails at {square_bad}", anchor))
    return results


# -- spin suite ---------------------------------------------------------------


def spin_suite(triple):
    results = []
    modules = (("slice", triple.spin_ql), ("noncompact", triple.spin_ls),
               ("compact", triple.spin_qlp))
    bad = []
    for name, spin in modules:
        space = spin.space
        for i in range(space.dim):
            for j in range(space.dim):
                gi, gj = spin.gamma_generator(i), spin.gamma_generator(j)
                got = gi @ gj + gj @ gi
                pairing = coerce(space.signs[i]) if i == j else ZERO
                want = ExactMatrix.identity(spin.dim) * pairing
                if got != want:
                    bad.append((name, space.labels[i], space.labels[j]))
    results.append(_check(
        "spin", "anticommutation-representation", not bad,
        "gamma(x)gamma(y) + gamma(y)gamma(x) = <x,y> on all three spin modules",
        f"relation fails at {bad}", "spin-action-relations"))

    spin = triple.spin_ql
    monos = _all_monomials(spin.space)
    bad = [f"({a}, {b})" for a in monos for b in monos
           if spin.gamma(a * b) != spin.gamma(a) @ spin.gamma(b)]
    results.append(_check(
        "spin", "multiplicativity", not bad,
        f"gamma(ab) = gamma(a)gamma(b) on all {len(monos) ** 2} monomial pairs",
        f"{len(bad)} multiplicativity failures, first at the monomial pair "
        f"{_first(bad)}", "spin-action-relations"))

    joint = combine_spin_modules(triple.spin_ls, triple.spin_qlp,
                                 triple.space_ql)
    iso = mult_iso(triple.spin_ls, triple.spin_qlp, joint)
    c_elts = [CliffordElement.unit(triple.space_qlp),
              CliffordElement.generator(triple.space_qlp, 0)]
    d_elts = [CliffordElement.unit(triple.space_ls)] + [
        CliffordElement.generator(triple.space_ls, i)
        for i in range(triple.space_ls.dim)]
    bad = 0
    total = 0
    failing = []
    for c in c_elts:
        c_joint = inject_element(c, triple.space_ql)
        for d in d_elts:
            d_joint = inject_element(d, triple.space_ql)
            moved = iso @ graded_tensor_action(d, c, triple.spin_ls,
                                               triple.spin_qlp)
            diff = moved - joint.gamma(d_joint * c_joint) @ iso
            cases = {col for (_, col), _ in diff.items()}
            total += iso.ncols
            bad += len(cases)
            if cases:
                failing.append(f"{d} (x) {c}")
    results.append(_check(
        "spin", "tensor-intertwiner", bad == 0,
        f"exterior multiplication intertwines the graded tensor action "
        f"({total} cases)",
        f"{bad} of {total} intertwining cases fail, at the element pairs "
        f"{failing}",
        "spin-module-factorization"))

    sizes = (triple.spin_ls.dim * triple.spin_qlp.dim, joint.dim,
             triple.spin_ql.dim)
    results.append(_check(
        "spin", "tensor-dimensions", len(set(sizes)) == 1,
        f"joint spin module dimension {joint.dim} matches the factor product",
        f"dimension mismatch {sizes}", "spin-module-factorization"))
    return results


# -- triple suite -------------------------------------------------------------


def triple_suite(triple):
    results = [CheckResult(
        "triple", "structure-invariants", "pass",
        "involutions, bracket closure, eigenspace split and isometries "
        "verified during construction", "triple-structure")]

    pairs = (("g-h", triple.pair_g_h), ("l-lh", triple.pair_l_lh),
             ("l-lk", triple.pair_l_lk), ("lk-lh", triple.pair_lk_lh),
             ("h-hk", triple.pair_h_hk))
    for name, pair in pairs:
        bad = []
        total = 0
        for i, x in enumerate(pair.acting_basis):
            ax = pair.alpha(x)
            for label, y in zip(pair.space.labels, pair.complement_basis):
                got = clifford_commutator(ax, pair.vector_element(y))
                want = pair.vector_element(triple.algebra.bracket(x, y))
                total += 1
                if got != want:
                    bad.append(f"(acting {i}, {label})")
        results.append(_check(
            "triple", f"alpha-commutator-{name}", not bad,
            f"[alpha(X), Y] = [X, Y] for all {total} basis pairs",
            f"{len(bad)} of {total} commutator identities fail, first at "
            f"the basis pair {_first(bad)}", "alpha-commutator-identity"))

    bad = []
    total = 0
    for name, pair in pairs:
        for (i, x), (j, y) in product(enumerate(pair.acting_basis), repeat=2):
            got = clifford_commutator(pair.alpha(x), pair.alpha(y))
            want = pair.alpha(triple.algebra.bracket(x, y))
            total += 1
            if got != want:
                bad.append(f"(acting {i}, acting {j}) of {name}")
    results.append(_check(
        "triple", "alpha-morphism", not bad,
        f"alpha([X, Y]) = [alpha(X), alpha(Y)] for all {total} acting pairs",
        f"{len(bad)} of {total} morphism identities fail, first at the "
        f"basis pair {_first(bad)}", "alpha-commutator-identity"))

    bad = 0
    for x in triple.l_h_basis:
        inner = triple.pair_l_lh.alpha(x)
        moved = CliffordElement.zero(triple.pair_g_h.space)
        for (i, j), coeff in inner.terms.items():
            bi = triple.pair_g_h.vector_element(
                triple.rho(-1, triple.pair_l_lh.complement_basis[i]))
            bj = triple.pair_g_h.vector_element(
                triple.rho(-1, triple.pair_l_lh.complement_basis[j]))
            moved = moved + (bi * bj).scaled(coeff)
        if moved != triple.pair_g_h.alpha(x):
            bad += 1
    results.append(_check(
        "triple", "alpha-transport", bad == 0,
        "rho_minus carries the inner alpha to the ambient alpha on the "
        "fixed part of l",
        f"transport fails on {bad} basis vectors", "alpha-transport-identity"))

    split_ok = all(
        alpha_split_holds(triple.pair_l_lh, triple.pair_lk_lh,
                          triple.pair_l_lk, x)
        for x in triple.l_h_basis)
    results.append(_check(
        "triple", "alpha-split", split_ok,
        "alpha of the slice pair splits into compact and noncompact parts",
        "alpha split fails on the fixed part", "alpha-commutator-identity"))

    # the cases run over ordered triples of the eigenbasis vectors with
    # nu != 1, named here by their eigenbasis indices
    cases = omega_rescaling_cases(triple)
    moving = [i for i, nu in enumerate(triple.eigen_nus) if nu != ONE]
    bad = [xyz for xyz, (lhs, rhs) in zip(product(moving, repeat=3), cases)
           if lhs != rhs]
    results.append(_check(
        "triple", "omega-rescaling", not bad,
        f"trilinear form rescaling identity holds on all {len(cases)} "
        f"ordered eigenbasis triples",
        f"{len(bad)} of {len(cases)} rescaling cases fail, first at the "
        f"eigenbasis triple {_first(bad)}", "omega-rescaling-identity"))
    return results


# -- theorem51 suite ----------------------------------------------------------


def theorem51_suite(triple, weight: int):
    anchor = {
        "form1": "embedding-identity-form1",
        "form2": "embedding-identity-form2",
        "forms-agree": "embedding-identity-forms-agree",
    }
    rows = verify_embedding(triple, sl2_irrep(weight))
    return [CheckResult("theorem51", name, "pass" if ok else "fail",
                        details, anchor.get(name, "embedding-reduction"))
            for name, ok, details in rows]


# -- spectral suite -----------------------------------------------------------


def _expected_table(m: int):
    if m == 0:
        return [["DS+", 2, "C", -1], ["Trivial", None, "C", -1]]
    if m == 1:
        return [["DS+", 3, "C", 0], ["LDS-", None, "C", -2]]
    return [["DS+", m + 2, "C", m - 1], ["DS-", -m, "C", -m - 1]]


def spectral_suite(triple, weight: int, truncation: int = 40):
    from . import spectral      # compiled only when this suite runs
    results = []

    bad = []
    for a in range(-10, 11):
        for b in range(-10, 11):
            got = spectral.block_eigenvalue(triple, spectral.make_block(a, b))
            want = ExactScalar(0, Fraction(a - b, 4))   # (a-b)/(2 sqrt2)
            if got != want:
                bad.append((a, b))
    results.append(_check(
        "spectral", "block-eigenvalues", not bad,
        "compact slice eigenvalue equals (a-b)/(2*sqrt2) on all 441 blocks "
        "with |a|,|b| <= 10",
        f"eigenvalue mismatch on {len(bad)} blocks, first {bad[:5]}",
        "block-eigenvalue-formula"))

    cub = spectral.cubic_scalar(triple)
    results.append(_check(
        "spectral", "cubic-scalar", cub == INV_SQRT2,
        f"gamma of minus twice the cubic element acts by {cub}",
        f"cubic scalar is {cub}, not 1/sqrt2", "cubic-action-scalar"))

    module = sl2_irrep(weight)
    try:
        summary = spectral.even_weight_cancellation(triple, module)
        ok, detail = True, (
            f"eigenvalue + cubic scalar = 0 on all {len(summary['blocks'])} "
            f"admissible blocks; family nonempty: {summary['nonempty']}, "
            f"even weights: {summary['even_weights']}")
    except spectral.SpectralError as exc:
        ok, detail = False, str(exc)
    results.append(_check(
        "spectral", "even-cancellation", ok, detail, detail,
        "parity-cancellation"))

    skip_why = f"weight {weight} is odd; kernel checks need an even weight"
    if weight % 2 != 0:
        for name, anchor in (("finite-kernel", "fixed-pair-kernel"),
                             ("matched-blocks", "matched-block-reduction"),
                             ("ds-kernels", "weight-module-kernels"),
                             ("scan-uniqueness", "weight-module-kernels"),
                             ("table-identification",
                              "kernel-identification-table")):
            results.append(_skip("spectral", name, skip_why, anchor))
        return results

    m = weight // 2
    kernel = spectral.finite_dirac_kernel(triple, module)
    want_kernel = sorted([(weight, "e"), (-weight, "1")])
    results.append(_check(
        "spectral", "finite-kernel", kernel == want_kernel,
        f"kernel lines {kernel} with dimension {len(kernel)}",
        f"kernel {kernel} differs from {want_kernel}", "fixed-pair-kernel"))

    try:
        blocks = spectral.matched_kernel_blocks(triple, module, kernel)
        ok, blocks_detail = True, (
            "matched blocks "
            + str([(b.right.a, b.right.b, b.spin_ls) for b in blocks])
            + " pass the cancellation, kernel and residual guards")
    except spectral.SpectralError as exc:
        blocks, ok, blocks_detail = None, False, str(exc)
    results.append(_check(
        "spectral", "matched-blocks", ok, blocks_detail, blocks_detail,
        "matched-block-reduction"))

    hw, lw = (spectral.truncated_dirac_kernel(
        spectral.scan_module(kind, param, truncation)) for kind, param in
        (("highest", -m - 2), ("lowest" if m else "finite", m)))
    hw_ok = [(l.total, l.slot) for l in hw] == [(-m - 1, "e")]
    lw_ok = any(l.total == m - 1 and l.slot == "1" for l in lw)
    results.append(_check(
        "spectral", "ds-kernels", hw_ok and lw_ok,
        f"highest weight {-m - 2} kernel at total {-m - 1} (plus line); "
        f"lowest weight {m} kernel meets total {m - 1} (minus line)",
        f"kernel lines hw={hw} lw={lw}", "weight-module-kernels"))

    # one scan per matched block, shared by the uniqueness check and table;
    # a failed certificate of the scans fails both with its message
    try:
        scans = spectral.identification_scans(m, truncation)
        hits = [list(found) for _, found in scans]
        met = [{p: [tuple(l) for l in lines] for p, lines in found.items()}
               for _, found in scans]
        ok, good, bad = hits == [[-m - 2], [m]], (
            f"scans hit exactly one module each: highest {hits[0]}, "
            f"lowest {hits[1]}"), (
            f"scan hits, each with the lines (total, slot, level) it met: "
            f"highest {met[0]}, lowest {met[1]}")
    except spectral.SpectralError as exc:
        scans, ok, good, bad = None, False, "", str(exc)
    results.append(_check("spectral", "scan-uniqueness", ok, good, bad,
                          "weight-module-kernels"))

    # the table fails with the message of the blocks or scans it lacks
    ok, detail = False, blocks_detail if scans is not None else bad
    if blocks is not None and scans is not None:
        try:
            table = spectral.table_rows(blocks, scans)
            ok, detail = table == _expected_table(m), f"table rows {table}"
        except spectral.SpectralError as exc:
            detail = str(exc)
    results.append(_check(
        "spectral", "table-identification", ok, detail, detail,
        "kernel-identification-table"))
    return results


# -- assembly and rendering ---------------------------------------------------


def run_suites(names, weight: int = 4, truncation: int = 40):
    """Run the named suites and return [(suite name, [CheckResult])].

    Suites are returned sorted by name and checks sorted by check name,
    which fixes the report order.
    """
    triple = None
    if set(names) - {"clifford"}:
        triple = build_sl2_triple()
    out = []
    for name in sorted(set(names)):
        if name == "clifford":
            checks = clifford_suite()
        elif name == "spin":
            checks = spin_suite(triple)
        elif name == "triple":
            checks = triple_suite(triple)
        elif name == "theorem51":
            checks = theorem51_suite(triple, weight)
        elif name == "spectral":
            checks = spectral_suite(triple, weight, truncation)
        else:
            raise ValueError(f"unknown suite {name!r}")
        out.append((name, sorted(checks, key=lambda c: (c.suite, c.check))))
    return out


def has_failure(suite_results) -> bool:
    return any(c.status == "fail" for _, checks in suite_results
               for c in checks)


def render_json(suite_results) -> str:
    doc = {
        "version": __version__,
        "suites": [{"name": name, "checks": [c._asdict() for c in checks]}
                   for name, checks in suite_results],
    }
    return json.dumps(doc, indent=2) + "\n"


def render_text(suite_results) -> str:
    lines = [f"{c.suite}/{c.check}: {c.status} — {c.details}"
             for _, checks in suite_results for c in checks]
    return "\n".join(lines) + "\n"
