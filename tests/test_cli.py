"""Command line wiring: exit codes, output formats, and the table subcommand."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from diracembed import (CheckResult, CliffordElement, ExactMatrix, SpinModule,
                        coerce)
from diracembed import cli
from diracembed import report
from diracembed import spectral

PINNED_TABLE_WEIGHT_0 = '[["DS+",2,"C",-1],["Trivial",null,"C",-1]]\n'
# the JSON report of every suite at the default weight and truncation
DATA = Path(__file__).parent / "data"
PINNED_VERIFY_ALL = DATA / "verify_all.json"
# spectral commands whose output is pinned, by the file that holds it
PINNED_SPECTRAL = {
    "verify_spectral_w10_t120.json": ["verify", "spectral", "--weight", "10",
                                      "--truncation", "120", "--format",
                                      "json"],
    "verify_spectral_w10_t400.json": ["verify", "spectral", "--weight", "10",
                                      "--truncation", "400", "--format",
                                      "json"],
    "verify_spectral_w10_t2000.json": ["verify", "spectral", "--weight",
                                       "10", "--truncation", "2000",
                                       "--format", "json"],
    # the window of two levels cuts the scans' target levels
    "verify_spectral_w22_t2.json": ["verify", "spectral", "--weight", "22",
                                    "--truncation", "2", "--format", "json"],
    # m = 0 (the one-dimensional member), m = 1 (LDS-) and an odd weight
    "verify_spectral_w0.json": ["verify", "spectral", "--weight", "0",
                                "--format", "json"],
    "verify_spectral_w2.json": ["verify", "spectral", "--weight", "2",
                                "--format", "json"],
    "verify_spectral_w3.txt": ["verify", "spectral", "--weight", "3"],
    # the fixed-side kernel on a 201-dimensional module
    "verify_spectral_w200.json": ["verify", "spectral", "--weight", "200",
                                  "--format", "json"],
    **{f"table64_w{w}.json": ["table64", "--weight", str(w)]
       for w in (0, 2, 10, 22, 40, 1000)},
}


def test_verify_clifford_exits_clean(capsys):
    assert cli.main(["verify", "clifford"]) == 0
    out = capsys.readouterr().out
    assert "clifford/generator-squares: pass" in out
    assert "fail" not in out


def test_verify_text_format_lines(capsys):
    assert cli.main(["verify", "triple"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    for line in lines:
        head, _, rest = line.partition(": ")
        suite, _, check = head.partition("/")
        assert suite == "triple"
        assert check
        status, _, details = rest.partition(" — ")
        assert status in ("pass", "fail", "skipped")
        assert details
    assert lines == sorted(lines)


def test_verify_json_schema_and_determinism(capsys):
    assert cli.main(["verify", "triple", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["verify", "triple", "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert set(doc) == {"version", "suites"}
    assert doc["suites"][0]["name"] == "triple"
    for check in doc["suites"][0]["checks"]:
        assert set(check) == {"suite", "check", "status", "details",
                              "paper_anchor"}
        assert check["status"] == "pass"


def test_verify_embedding_rejects_odd_weights(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "embedding", "--weight", "3"])
    assert exc.value.code == 2


def test_verify_spectral_accepts_odd_weights(capsys):
    assert cli.main(["verify", "spectral", "--weight", "3"]) == 0
    out = capsys.readouterr().out
    assert "spectral/finite-kernel: skipped" in out
    assert "spectral/block-eigenvalues: pass" in out


def test_verify_rejects_negative_weight_and_tiny_truncation():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "spectral", "--weight", "-2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "spectral", "--truncation", "1"])
    assert exc.value.code == 2


def test_verify_rejects_a_truncation_past_the_limit(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "spectral", "--truncation",
                  str(cli.MAX_TRUNCATION + 1)])
    assert exc.value.code == 2
    assert "--truncation" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    assert f"2 to {cli.MAX_TRUNCATION}" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("command", [["verify", "spectral"], ["table64"]])
def test_weight_past_the_limit_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(command + ["--weight", str(cli.MAX_WEIGHT + 2)])
    assert exc.value.code == 2
    assert "--weight" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        cli.main([command[0], "--help"])
    assert f"0 to {cli.MAX_WEIGHT}" in " ".join(capsys.readouterr().out.split())


def test_verify_unknown_target_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "everything"])
    assert exc.value.code == 2


def test_failures_turn_into_exit_one(monkeypatch, capsys):
    def broken():
        return [CheckResult("clifford", "generator-squares", "fail",
                            "forced failure for the exit-code contract",
                            "clifford-relations")]
    monkeypatch.setattr(report, "clifford_suite", broken)
    assert cli.main(["verify", "clifford"]) == 1
    assert "fail" in capsys.readouterr().out


def test_table_pinned_output(capsys):
    assert cli.main(["table64", "--weight", "0"]) == 0
    assert capsys.readouterr().out == PINNED_TABLE_WEIGHT_0


def test_table_higher_weights(capsys):
    assert cli.main(["table64", "--weight", "4"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows == [["DS+", 4, "C", 1], ["DS-", -2, "C", -3]]
    # past weight 20 the hit nu = -13 lies beyond twelve family members
    assert cli.main(["table64", "--weight", "22"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows == [["DS+", 13, "C", 10], ["DS-", -11, "C", -12]]


def test_verify_spectral_past_weight_20(capsys):
    assert cli.main(["verify", "spectral", "--weight", "22"]) == 0
    assert "fail" not in capsys.readouterr().out


def test_verify_all_json_is_pinned(capsys):
    assert cli.main(["verify", "all", "--format", "json"]) == 0
    assert capsys.readouterr().out == PINNED_VERIFY_ALL.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(PINNED_SPECTRAL))
def test_spectral_outputs_are_pinned(name, capsys):
    assert cli.main(PINNED_SPECTRAL[name]) == 0
    assert capsys.readouterr().out == (DATA / name).read_text(encoding="utf-8")


def test_table_requires_an_even_weight():
    with pytest.raises(SystemExit) as exc:
        cli.main(["table64", "--weight", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["table64"])
    assert exc.value.code == 2


def test_table_has_no_format_flag():
    with pytest.raises(SystemExit) as exc:
        cli.main(["table64", "--weight", "0", "--format", "json"])
    assert exc.value.code == 2


def test_out_writes_the_file_instead_of_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert cli.main(["verify", "triple", "--format", "json",
                     "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["suites"][0]["name"] == "triple"

    table = tmp_path / "rows.json"
    assert cli.main(["table64", "--weight", "0", "--out", str(table)]) == 0
    assert table.read_text(encoding="utf-8") == PINNED_TABLE_WEIGHT_0


def test_verify_all_covers_every_suite(capsys):
    assert cli.main(["verify", "all"]) == 0
    out = capsys.readouterr().out
    for suite in ("clifford", "spin", "triple", "theorem51", "spectral"):
        assert f"{suite}/" in out
    assert "fail" not in out


@pytest.mark.parametrize("command", [["verify", "clifford"],
                                     ["table64", "--weight", "0"]])
@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_unwritable_out_is_a_usage_error(command, where, tmp_path,
                                         monkeypatch, capsys):
    target = tmp_path if where == "directory" else tmp_path / "no" / "r.txt"

    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")
    monkeypatch.setattr(report, "run_suites", no_work)
    monkeypatch.setattr(spectral, "kernel_table", no_work)
    with pytest.raises(SystemExit) as exc:
        cli.main(command + ["--out", str(target)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--out" in err and str(target) in err


def _count_kernel_solves(monkeypatch):
    """Record each truncated kernel solve by module, and each fixed-side
    kernel solve by module dimension."""
    solved, fixed = [], []
    kernel, finite = spectral.truncated_dirac_kernel, spectral.finite_dirac_kernel

    def counted_kernel(module):
        solved.append((module.kind, module.weights[0], module.dim))
        return kernel(module)

    def counted_finite(triple, module):
        fixed.append(module.dim)
        return finite(triple, module)
    monkeypatch.setattr(spectral, "truncated_dirac_kernel", counted_kernel)
    monkeypatch.setattr(spectral, "finite_dirac_kernel", counted_finite)
    return solved, fixed


@pytest.mark.parametrize("command", [
    ["verify", "spectral", "--weight", "10", "--truncation", "120"],
    ["table64", "--weight", "10"]])
def test_each_scan_member_is_solved_once_per_command(command, monkeypatch,
                                                     capsys):
    solved, fixed = _count_kernel_solves(monkeypatch)
    assert cli.main(command) == 0
    # the members where D^2 can vanish on the target line, built to two
    # levels past it: nu = -7 meets total -6 at level 0 (nu = 5 is not in
    # its family), and mu = 5 meets total 4 at level 0 (mu = -3 is not)
    scans = [("highest", -7, 3), ("lowest", 5, 3)]
    # verify also solves the two ds-kernels members at the full truncation
    ds = [("highest", -7, 121), ("lowest", 5, 121)] \
        if command[0] == "verify" else []
    assert len(solved) == len(set(solved))
    assert solved == ds + scans
    # both share one fixed-side kernel between the matched blocks and the
    # finite-kernel check
    assert fixed == [11]


def test_scan_members_do_not_grow_with_the_truncation(monkeypatch, capsys):
    solved, _ = _count_kernel_solves(monkeypatch)
    built = {}
    for truncation in (120, 2000):
        assert cli.main(["verify", "spectral", "--weight", "10",
                         "--truncation", str(truncation)]) == 0
        for ds_member in (("highest", -7, truncation + 1),
                          ("lowest", 5, truncation + 1)):
            solved.remove(ds_member)
        built[truncation] = solved[:]
        solved.clear()
    assert built[120] == built[2000]


def test_matched_block_failure_fails_the_table_and_spares_the_scans(
        monkeypatch):
    def broken(triple, module, kernel):
        raise spectral.SpectralError(
            f"forced failure at m={module.weights[0] // 2}")
    monkeypatch.setattr(spectral, "matched_kernel_blocks", broken)
    [(_, checks)] = report.run_suites(["spectral"], weight=4)
    status = {c.check: (c.status, c.details) for c in checks}
    for name in ("matched-blocks", "table-identification"):
        assert status[name] == ("fail", "forced failure at m=2")
    for name in ("ds-kernels", "scan-uniqueness"):
        assert status[name][0] == "pass"


def test_a_failed_dirac_square_certificate_fails_the_scans(monkeypatch):
    symbol = spectral.algebraic_dirac

    def scaled(pair, action_of, spin):
        # the symbol column C_e of the rank-one operator, doubled
        out = symbol(pair, action_of, spin)
        return out + ExactMatrix.from_entries(*out.shape, {
            (i, j): x for (i, j), x in out.items()
            if spin.dim <= j < 2 * spin.dim})
    monkeypatch.setattr(spectral, "algebraic_dirac", scaled)
    [(_, checks)] = report.run_suites(["spectral"], weight=4)
    status = {c.check: (c.status, c.details) for c in checks}
    failure = ("fail", "D^2 is not (c^2 - tau^2)/4 on the lowest family at "
                       "parameter 1, level 0, spin line 'e'")
    for name in ("scan-uniqueness", "table-identification"):
        assert status[name] == failure
    assert status["matched-blocks"][0] == "pass"


def test_a_wide_scan_builds_only_the_candidate_members(monkeypatch, capsys):
    # four members in all: the two ds-kernels members and one candidate of
    # each family, where the window nu = -1 .. -102, mu = 0 .. 102 built 80
    built, build = [], spectral.scan_module
    monkeypatch.setattr(spectral, "scan_module",
                        lambda *key: built.append(key) or build(*key))
    assert cli.main(["verify", "spectral", "--weight", "200",
                     "--truncation", "40"]) == 0
    assert len(built) <= 4


def _failing_details(suite, **kwargs):
    [(_, checks)] = report.run_suites([suite], **kwargs)
    return {c.check: c.details for c in checks if c.status == "fail"}


def test_intertwiner_failure_names_the_element_pairs(monkeypatch):
    # the tensor action without the Koszul sign of the first factor
    monkeypatch.setattr(report, "graded_tensor_action",
                        lambda c, d, a, b: a.gamma(c).kron(b.gamma(d)))
    assert _failing_details("spin") == {
        "tensor-intertwiner": "3 of 12 intertwining cases fail, at the "
                              "element pairs ['1 (x) Z', 'T1 (x) Z', 'T2 (x) Z']"}


def test_block_eigenvalue_failure_counts_the_blocks(monkeypatch):
    exact = spectral.block_eigenvalue
    monkeypatch.setattr(spectral, "block_eigenvalue", lambda triple, blk: (
        -exact(triple, blk) if blk.right.a > 8 else exact(triple, blk)))
    details = _failing_details("spectral", weight=1)["block-eigenvalues"]
    # a > 8 with a != b: 2 * 21 - 2 blocks
    assert details == ("eigenvalue mismatch on 40 blocks, first "
                       "[(9, -10), (9, -9), (9, -8), (9, -7), (9, -6)]")


def test_scan_uniqueness_failure_names_the_lines_met(monkeypatch):
    scan = spectral.scan_lines

    def doubled(kind, total, slot, n_levels):
        # the member nu = -5 also meets the line of nu = -4
        met = scan(kind, total, slot, n_levels)
        if kind == "highest":
            met[-5] = met[-4]
        return met
    monkeypatch.setattr(spectral, "scan_lines", doubled)
    assert _failing_details("spectral", weight=4) == {
        "scan-uniqueness": "scan hits, each with the lines (total, slot, "
                           "level) it met: highest {-4: [(-3, 'e', 0)], "
                           "-5: [(-3, 'e', 0)]}, lowest {2: [(1, '1', 0)]}",
        "table-identification": "scan for total -3 found 2 members"}


def _degree_two_or_more(elt):
    return any(len(mono) > 1 for mono in elt.terms)


def test_associativity_failure_names_the_first_triple(monkeypatch):
    mul = CliffordElement.__mul__
    monkeypatch.setattr(CliffordElement, "__mul__", lambda a, b: (
        mul(a, b).scaled(coerce(2)) if _degree_two_or_more(a) else mul(a, b)))
    assert _failing_details("clifford") == {
        f"associativity-dim-{dim}": f"{bad} associativity failures, first at "
                                    "the monomial triple (g1, g2, 1)"
        for dim, bad in ((2, 24), (3, 256), (4, 1760))}


def test_multiplicativity_failure_names_the_first_pair(monkeypatch):
    gamma = SpinModule.gamma
    monkeypatch.setattr(SpinModule, "gamma", lambda s, x: (
        gamma(s, x) * 2 if _degree_two_or_more(x) else gamma(s, x)))
    details = _failing_details("spin")["multiplicativity"]
    assert details == ("34 multiplicativity failures, first at the monomial "
                       "pair (Z, T1)")


def test_alpha_failures_name_the_first_basis_pair(monkeypatch):
    commutator = report.clifford_commutator
    monkeypatch.setattr(report, "clifford_commutator",
                        lambda a, b: commutator(a, b).scaled(coerce(2)))
    details = _failing_details("triple")
    assert details["alpha-commutator-g-h"] == (
        "8 of 9 commutator identities fail, first at the basis pair "
        "(acting 0, T1)")
    assert details["alpha-morphism"] == (
        "6 of 16 morphism identities fail, first at the basis pair "
        "(acting 0, acting 1) of g-h")


def test_omega_rescaling_failure_names_the_first_triple(monkeypatch):
    cases = report.omega_rescaling_cases
    # cases 5 and 7 are the eigenbasis triples (1, 2, 3) and (1, 3, 2)
    monkeypatch.setattr(report, "omega_rescaling_cases", lambda triple: [
        (lhs, rhs + coerce(1)) if k in (5, 7) else (lhs, rhs)
        for k, (lhs, rhs) in enumerate(cases(triple))])
    assert _failing_details("triple") == {
        "omega-rescaling": "2 of 27 rescaling cases fail, first at the "
                           "eigenbasis triple (1, 2, 3)"}


def test_cli_import_leaves_dataclasses_out():
    src = Path(cli.__file__).resolve().parents[1]
    probe = "import sys, diracembed.cli; print('dataclasses' in sys.modules)"
    done = subprocess.run([sys.executable, "-S", "-c", probe],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


# Public names with no caller yet: the triple description format, which a
# command line option for user-supplied triples is to read.
UNCALLED_PUBLIC_NAMES = {"dump_triple_description", "load_triple"}


def test_every_public_name_has_a_caller_outside_the_unit_tests():
    """Each public function, class and method of the package is used by the
    package itself, the benchmark or the acceptance criteria."""
    root = Path(__file__).resolve().parents[1]
    package = sorted((root / "src" / "diracembed").glob("*.py"))
    defs = []
    for path in package:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                defs += [node] + [m for m in node.body if isinstance(m, ast.FunctionDef)]
            elif isinstance(node, ast.FunctionDef):
                defs.append(node)
    public = {d.name for d in defs if not d.name.startswith("_")}
    callers = [p for p in package if p.name != "__init__.py"]
    callers += sorted((root / "perfbench").glob("*.py"))
    callers.append(root / "tests" / "test_acceptance.py")
    used = set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(public - used - UNCALLED_PUBLIC_NAMES) == []
