"""Benchmark of the ``diracembed`` command line, end to end and per layer.

    python3 perfbench/run.py --workload embedding|spectral \
        --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is run from its source
tree under ``src``.  A pass runs the workload's commands one after another,
each in a fresh interpreter (a closed loop with one client), so every pass
starts with cold program caches, as every user run does.  Passes repeat
until ``--seconds`` have gone by; the run reports medians over its passes.

With ``--trace 0`` the run reports the end-to-end metrics: ``wall_s`` (one
pass), ``setup_s`` (a cold import of the package plus
``build_sl2_triple()`` in a fresh interpreter, timed from its start; one is
timed before every command, and the run reports their median) and
``peak_rss_mib`` (the largest peak resident set of a command in a pass).
With ``--trace 1`` untraced and traced passes alternate, and the run
reports per-layer counts and self times from the traced passes (see
``tracer.py``) and the tracing overhead.

Every command output is checked, and so are seeded samples of the
program's results, against values the benchmark works out on its own
(``checks.py``); ``--seed`` drives only those samples.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter

import checks
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

COMMANDS = {
    "embedding": [["verify", "embedding", "--weight", str(w)]
                  for w in (0, 10, 20, 30, 40)],
    "spectral": [["verify", "spectral", "--weight", "4", "--truncation", "40"],
                 ["verify", "spectral", "--weight", "10",
                  "--truncation", "120"],
                 ["table64", "--weight", "0"],
                 ["table64", "--weight", "10"]],
}

SUITE_OF_TARGET = {"embedding": "theorem51", "spectral": "spectral"}

# Boundaries each workload is meant to exercise.  A traced run that never
# enters one of its workload's boundaries fails, so that a binding the
# tracer missed cannot read as zero.
HOME = {
    "embedding": ["cli.main", "report.suite", "scalars.mul", "scalars.add",
                  "scalars.inverse", "scalars.is_zero", "scalars.matmul",
                  "scalars.kron", "scalars.rref", "scalars.nullspace",
                  "lie.module_build", "clifford.alpha", "spin.gamma",
                  "spin.module", "triple.build", "triple.rho",
                  "triple.solve_in_span", "dirac.transfer",
                  "dirac.assemble_rhs", "dirac.geometric_dirac_element"],
    "spectral": ["clifford.mul", "dirac.algebraic_dirac",
                 "spectral.truncated_dirac_kernel",
                 "spectral.finite_dirac_kernel", "spectral.scan_module",
                 "scalars.select_columns", "scalars.kron", "scalars.rref",
                 "scalars.nullspace", "lie.module_build"],
}

SETUP_CODE = ("import diracembed\n"
              "diracembed.build_sl2_triple()\n"
              "print('ready', flush=True)\n")


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a result."""


# -- running commands -----------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_command(argv):
    """Run one command to its end.

    Returns (wall seconds, exit status, stdout, stderr, peak RSS in MiB).
    The peak resident set is the child's own, read from wait4.
    """
    start = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=child_env(), cwd=ROOT)
    try:
        err = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    return (wall, proc.returncode, out.decode(), err[0].decode(),
            usage.ru_maxrss / 1024)


def measure_setup():
    """Seconds from a fresh interpreter's start until ``import diracembed``
    and ``build_sl2_triple()`` have returned."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE],
                            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
        proc.wait()
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise BenchmarkError("the set-up child did not build the triple")
    return elapsed


def run_pass(workload, trace_dir=None, setups=None):
    """One pass over the workload's commands.  With trace_dir, each command
    runs under the tracer and leaves its record there.  With a list in
    setups, a cold set-up is timed before each command and appended to it;
    the pass's wall time is the sum of its commands' and leaves them out."""
    results = []
    for cid, args in enumerate(COMMANDS[workload]):
        if setups is not None:
            setups.append(measure_setup())
        if trace_dir is None:
            argv = [sys.executable, "-m", "diracembed.cli", *args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"),
                    str(trace_dir / f"command-{cid}.json"), str(cid), "--",
                    *args]
        results.append(run_command(argv))
    wall = sum(result[0] for result in results)
    records = []
    if trace_dir is not None:
        for cid, args in enumerate(COMMANDS[workload]):
            path = trace_dir / f"command-{cid}.json"
            if not path.is_file():
                raise BenchmarkError(f"traced command {args} left no record: "
                                     f"{results[cid][3][-2000:]}")
            records.append(json.loads(path.read_text(encoding="utf-8")))
            path.unlink()
    return {"wall": wall, "commands": results, "records": records}


# -- checks ---------------------------------------------------------------------


def check_pass(workload, one_pass, tally):
    """Check each command's output; returns (operations, failed)."""
    attempted = failed = 0
    for args, (_, status, out, err, _) in zip(COMMANDS[workload],
                                              one_pass["commands"]):
        if args[0] == "table64":
            ops, bad = checks.check_table_output(int(args[2]) // 2, out,
                                                 status, tally)
        else:
            ops, bad = checks.check_verify_output(SUITE_OF_TARGET[args[1]],
                                                  out, status, tally)
        if bad:
            print(f"{' '.join(args)}: {bad} failed operations\n{err[-2000:]}",
                  file=sys.stderr)
        attempted += ops
        failed += bad
    return attempted, failed


def check_samples(workload, seed, tally):
    """Seeded samples of the program's results, checked in this process."""
    sys.path.insert(0, str(SRC))
    from diracembed import clifford, dirac, lie, spectral, spin, triple
    rng = checks.make_rng(seed, workload)
    built = triple.build_sl2_triple()
    if workload == "embedding":
        cases = checks.random_clifford_cases(rng, 300)
        checks.check_clifford_products(
            checks.observe_clifford_products(clifford, cases), tally)
        modules = [built.spin_ql, built.spin_ls, built.spin_qlp]
        for dim in (3, 4, 5, 6):
            signs = tuple(rng.choice((1, -1)) for _ in range(dim))
            modules.append(spin.SpinModule(clifford.QuadraticSpace(
                tuple(f"x{i}" for i in range(dim)), signs)))
        cases = checks.anticommutator_cases(
            rng, [checks.observe_spin_module(m) for m in modules], 3)
        checks.check_anticommutators(checks.Field(), cases, tally)
        for weight in sorted(rng.sample((2, 4, 6, 8, 12), 2)):
            checks.check_negative_control(
                weight, checks.observe_negative_control(
                    dirac, built, lie.sl2_irrep(weight)), tally)
    else:
        blocks, twists, modules = checks.spectral_samples(rng)
        checks.check_block_eigenvalues(
            [(a, b, checks.scalar_parts(spectral.block_eigenvalue(
                built, spectral.make_block(a, b)))) for a, b in blocks], tally)
        checks.check_finite_kernels(
            [(m, spectral.finite_dirac_kernel(built, lie.sl2_irrep(2 * m)))
             for m in twists], tally)
        field = checks.Field()
        for kind, param, levels in modules:
            checks.check_truncated_kernel(
                field, checks.observe_truncated_kernel(spectral, kind, param,
                                                       levels), tally)


# -- per-layer metrics ------------------------------------------------------------


def layer_metrics(records):
    """Per-layer metrics of one traced pass, summed over its commands.

    A span's self time is its duration minus the time its child spans
    cover; spans of one command nest, so that is the sum of the children's
    durations.
    """
    calls, self_s, counts = Counter(), Counter(), Counter()
    builds_in_scan = distinct_solved = 0
    products = {"general": [0.0, 0], "rational": [0.0, 0]}
    for record in records:
        spans = record["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for k, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - covered[k]
            if (name == "lie.module_build" and parent >= 0
                    and spans[parent][0] == "spectral.scan_module"):
                builds_in_scan += 1
        counts.update(record["counts"])
        distinct_solved += len(record["kernel_modules"])
        for kind, (seconds, ops) in record["products"].items():
            products[kind][0] += seconds
            products[kind][1] += ops

    metrics = {}
    for name in sorted({span[0] for span in tracer.SPANS}):
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    for name in ("scalars.mul.calls", "scalars.add.calls",
                 "scalars.inverse.calls", "scalars.is_zero.calls",
                 "scalars.kron.nonzeros_out", "scalars.rref.nonzeros_in",
                 "lie.module_build.levels"):
        metrics[name] = counts[name]
    for kind, (seconds, ops) in products.items():
        metrics[f"scalars.mul_{kind}.us"] = 1e6 * seconds / ops if ops else 0.0
    requests = calls["spectral.scan_module"]
    metrics["spectral.module_cache.hit_ratio"] = (
        1 - builds_in_scan / requests if requests else 0.0)
    solves = calls["spectral.truncated_dirac_kernel"]
    metrics["spectral.kernel.useful_ratio"] = (
        distinct_solved / solves if solves else 0.0)
    return metrics


def traced_wall(one_pass):
    """Wall time of a traced pass, less the time its commands spent timing
    sampled products after the command itself had ended."""
    return one_pass["wall"] - sum(seconds for record in one_pass["records"]
                                  for seconds, _ in record["products"].values())


def entered(metrics, boundary):
    return metrics.get(f"{boundary}.calls", 0) > 0


# -- the run ----------------------------------------------------------------------


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def median_of(passes, key):
    return statistics.median(key(p) for p in passes)


def run(workload, seed, seconds, trace):
    if not (SRC / "diracembed" / "__init__.py").is_file():
        raise BenchmarkError(f"no package source under {SRC}")
    declared = declared_metrics(trace)
    OUT.mkdir(exist_ok=True)
    start = perf_counter()
    setups, plain, traced = [], [], []
    if not trace:
        while not plain or perf_counter() - start < seconds:
            plain.append(run_pass(workload, setups=setups))
    else:
        trace_dir = OUT / f"trace-{workload}"
        trace_dir.mkdir(exist_ok=True)
        while not traced or perf_counter() - start < seconds:
            plain.append(run_pass(workload))
            traced.append(run_pass(workload, trace_dir))

    tally = checks.Tally()
    attempted = failed = 0
    for one_pass in plain + traced:
        ops, bad = check_pass(workload, one_pass, tally)
        attempted += ops
        failed += bad
    check_samples(workload, seed, tally)
    attempted += tally.compared
    for what in tally.mismatches:
        print(f"check failed: {what}", file=sys.stderr)

    untraced_wall = median_of(plain, lambda p: p["wall"])
    if not trace:
        values = {
            "wall_s": untraced_wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mib": median_of(
                plain, lambda p: max(c[4] for c in p["commands"])),
        }
    else:
        per_pass = [layer_metrics(p["records"]) for p in traced]
        missed = [b for b in HOME[workload] if not entered(per_pass[0], b)]
        if missed:
            raise BenchmarkError(f"workload {workload} never entered "
                                 f"{missed}: a binding was not traced")
        values = {name: statistics.median_low(m[name] for m in per_pass)
                  for name in per_pass[0]}
        values["trace.wall_s"] = median_of(traced, traced_wall)
        values["trace.overhead_ratio"] = values["trace.wall_s"] / untraced_wall
        spans = [{"pass": k, **record} for k, p in enumerate(traced)
                 for record in p["records"]]
        (OUT / f"trace-{workload}.json").write_text(json.dumps(spans),
                                                    encoding="utf-8")
    if set(values) != set(declared):
        raise BenchmarkError(
            f"metrics {sorted(set(values) ^ set(declared))} are not both "
            f"measured and declared in BENCHMARK.json")

    per_command = {
        " ".join(args): statistics.median(p["commands"][k][0] for p in plain)
        for k, args in enumerate(COMMANDS[workload])}
    for name, wall in per_command.items():
        print(f"{wall:8.3f} s  {name}", file=sys.stderr)
    result = {
        "correct": not tally.mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": declared[name]}
                    for name in declared},
    }
    (OUT / f"result-{workload}-trace{int(trace)}.json").write_text(
        json.dumps({**result, "seed": seed, "passes": len(plain),
                    "pass_wall_s": [p["wall"] for p in plain],
                    "setup_s": setups,
                    "traced_pass_wall_s": [traced_wall(p) for p in traced],
                    "command_wall_s": per_command}, indent=1),
        encoding="utf-8")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(COMMANDS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
