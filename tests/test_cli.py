"""Command line wiring: exit codes, output formats, and the table subcommand."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from diracembed import CheckResult
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
    # m = 0 (the one-dimensional member), m = 1 (LDS-) and an odd weight
    "verify_spectral_w0.json": ["verify", "spectral", "--weight", "0",
                                "--format", "json"],
    "verify_spectral_w2.json": ["verify", "spectral", "--weight", "2",
                                "--format", "json"],
    "verify_spectral_w3.txt": ["verify", "spectral", "--weight", "3"],
    **{f"table64_w{w}.json": ["table64", "--weight", str(w)]
       for w in (0, 2, 10, 22, 40)},
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
    # past weight 20 the scans reach nu = -13 and mu = 11
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


@pytest.mark.parametrize("command, fixed_side", [
    (["verify", "spectral", "--weight", "10", "--truncation", "120"], 2),
    (["table64", "--weight", "10"], 1)])
def test_each_scan_member_is_solved_once_per_command(command, fixed_side,
                                                     monkeypatch, capsys):
    solved, fixed = _count_kernel_solves(monkeypatch)
    assert cli.main(command) == 0
    # depth 12: nu = -1..-12 and mu = 0..12
    assert len(solved) == len(set(solved)) == 25
    assert fixed == [11] * fixed_side


def test_matched_block_failure_fails_the_table_and_spares_the_scans(
        monkeypatch):
    def broken(triple, m):
        raise spectral.SpectralError(f"forced failure at m={m}")
    monkeypatch.setattr(spectral, "matched_kernel_blocks", broken)
    [(_, checks)] = report.run_suites(["spectral"], weight=4)
    status = {c.check: (c.status, c.details) for c in checks}
    for name in ("matched-blocks", "table-identification"):
        assert status[name] == ("fail", "forced failure at m=2")
    for name in ("ds-kernels", "scan-uniqueness"):
        assert status[name][0] == "pass"


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
    family = spectral.scan_family

    def doubled(kind, depth, n_levels):
        # the member nu = -5 also meets the line of nu = -4
        members = family(kind, depth, n_levels)
        if kind == "highest":
            members[-5] = sorted(members[-5] + members[-4])
        return members
    monkeypatch.setattr(spectral, "scan_family", doubled)
    details = _failing_details("spectral", weight=4)
    assert details["scan-uniqueness"] == (
        "scan hits, each with the lines (total, slot, level) it met: "
        "highest {-4: [(-3, 'e', 0)], -5: [(-3, 'e', 0)]}, "
        "lowest {2: [(1, '1', 0)]}")


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
