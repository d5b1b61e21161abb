"""Verification suites and deterministic report rendering.

Each suite runs a family of exact algebraic checks and returns CheckResult
records.  Renderers produce either a stable JSON document or one text line
per check; reruns of the same build yield byte-identical output.
"""

import json
from fractions import Fraction
from typing import NamedTuple

from .scalars import ExactScalar, ExactMatrix, coerce, ZERO, HALF, INV_SQRT2
from .lie import sl2_irrep
from .clifford import (QuadraticSpace, CliffordElement, clifford_commutator,
                       inject_element, alpha_split_holds)
from .spin import graded_tensor_action, combine_spin_modules, mult_iso
from .triple import build_sl2_triple, omega_rescaling_cases
from .dirac import verify_embedding
from . import spectral

VERSION = "0.1.0"


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
        bad = 0
        for a in monos:
            for b in monos:
                ab = a * b
                for c in monos:
                    if (ab) * c != a * (b * c):
                        bad += 1
        results.append(_check(
            "clifford", f"associativity-dim-{dim}", bad == 0,
            f"(ab)c = a(bc) on all {len(monos) ** 3} basis monomial triples",
            f"{bad} associativity failures", "clifford-associativity"))
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
    bad = sum(1 for a in monos for b in monos
              if spin.gamma(a * b) != spin.gamma(a) @ spin.gamma(b))
    results.append(_check(
        "spin", "multiplicativity", bad == 0,
        f"gamma(ab) = gamma(a)gamma(b) on all {len(monos) ** 2} monomial pairs",
        f"{bad} multiplicativity failures", "spin-action-relations"))

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
        bad = 0
        total = 0
        for x in pair.acting_basis:
            ax = pair.alpha(x)
            for y in pair.complement_basis:
                got = clifford_commutator(ax, pair.vector_element(y))
                want = pair.vector_element(triple.algebra.bracket(x, y))
                total += 1
                if got != want:
                    bad += 1
        results.append(_check(
            "triple", f"alpha-commutator-{name}", bad == 0,
            f"[alpha(X), Y] = [X, Y] for all {total} basis pairs",
            f"{bad} of {total} commutator identities fail",
            "alpha-commutator-identity"))

    bad = 0
    total = 0
    for name, pair in pairs:
        for x in pair.acting_basis:
            for y in pair.acting_basis:
                got = clifford_commutator(pair.alpha(x), pair.alpha(y))
                want = pair.alpha(triple.algebra.bracket(x, y))
                total += 1
                if got != want:
                    bad += 1
    results.append(_check(
        "triple", "alpha-morphism", bad == 0,
        f"alpha([X, Y]) = [alpha(X), alpha(Y)] for all {total} acting pairs",
        f"{bad} of {total} morphism identities fail",
        "alpha-commutator-identity"))

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

    cases = omega_rescaling_cases(triple)
    bad = sum(1 for lhs, rhs in cases if lhs != rhs)
    results.append(_check(
        "triple", "omega-rescaling", bad == 0,
        f"trilinear form rescaling identity holds on all {len(cases)} "
        f"ordered eigenbasis triples",
        f"{bad} of {len(cases)} rescaling cases fail",
        "omega-rescaling-identity"))
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
        blocks = spectral.matched_kernel_blocks(triple, m)
        ok, blocks_detail = True, (
            "matched blocks "
            + str([(b.right.a, b.right.b, b.spin_ls) for b in blocks])
            + " pass the cancellation, kernel and residual guards")
    except spectral.SpectralError as exc:
        blocks, ok, blocks_detail = None, False, str(exc)
    results.append(_check(
        "spectral", "matched-blocks", ok, blocks_detail, blocks_detail,
        "matched-block-reduction"))

    depth = spectral.scan_depth(m)
    families = {kind: spectral.scan_family(kind, depth, truncation)
                for kind in ("highest", "lowest")}
    hw, lw = families["highest"][-m - 2], families["lowest"][m]
    hw_ok = [(l.total, l.slot) for l in hw] == [(-m - 1, "e")]
    lw_ok = any(l.total == m - 1 and l.slot == "1" for l in lw)
    results.append(_check(
        "spectral", "ds-kernels", hw_ok and lw_ok,
        f"highest weight {-m - 2} kernel at total {-m - 1} (plus line); "
        f"lowest weight {m} kernel meets total {m - 1} (minus line)",
        f"kernel lines hw={hw} lw={lw}", "weight-module-kernels"))

    targets = {"highest": (-m - 1, "e"), "lowest": (m - 1, "1")}
    hits = {kind: spectral.scan_hits(families[kind], *targets[kind])
            for kind in targets}
    met = {kind: {p: [tuple(l) for l in families[kind][p]
                      if (l.total, l.slot) == targets[kind]]
                  for p in hits[kind]} for kind in targets}
    ok = hits["highest"] == [-m - 2] and hits["lowest"] == [m]
    results.append(_check(
        "spectral", "scan-uniqueness", ok,
        f"scans hit exactly one module each: highest {hits['highest']}, "
        f"lowest {hits['lowest']}",
        f"scan hits, each with the lines (total, slot, level) it met: "
        f"highest {met['highest']}, lowest {met['lowest']}",
        "weight-module-kernels"))

    # without the matched blocks the table fails with their message
    ok, detail = False, blocks_detail
    if blocks is not None:
        try:
            table = spectral.table_rows(blocks, families)
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
        "version": VERSION,
        "suites": [{"name": name, "checks": [c._asdict() for c in checks]}
                   for name, checks in suite_results],
    }
    return json.dumps(doc, indent=2) + "\n"


def render_text(suite_results) -> str:
    lines = [f"{c.suite}/{c.check}: {c.status} — {c.details}"
             for _, checks in suite_results for c in checks]
    return "\n".join(lines) + "\n"
