"""Run one ``diracembed`` command with its layer boundaries traced.

    python3 perfbench/tracer.py OUT.json COMMAND_ID -- verify spectral ...

The package must be importable (the benchmark puts ``src`` on PYTHONPATH).
Before the command runs, every public function and method listed in
``SPANS`` and ``COUNTS`` is wrapped from outside, under each name that
binds it: modules bind names with ``from .dirac import algebraic_dirac``
and the like, and ``ExactScalar.__radd__``/``__rmul__`` are aliases.  A
binding left unwrapped stops the run.

A span records (name, start, end, parent) for one call at a boundary; the
spans of one command share its COMMAND_ID.  Spans and counts stay in memory
and are written to OUT.json when the command ends, together with timings of
ExactScalar products on operands sampled from the command's own calls.
"""

import importlib
import inspect
import json
import sys
from time import perf_counter

# (span name, module, attribute path) of each boundary timed by spans.
SPANS = [
    ("cli.main", "cli", "main"),
    ("report.suite", "report", "clifford_suite"),
    ("report.suite", "report", "spin_suite"),
    ("report.suite", "report", "triple_suite"),
    ("report.suite", "report", "theorem51_suite"),
    ("report.suite", "report", "spectral_suite"),
    ("scalars.matmul", "scalars", "ExactMatrix.__matmul__"),
    ("scalars.kron", "scalars", "ExactMatrix.kron"),
    ("scalars.rref", "scalars", "ExactMatrix.rref"),
    ("scalars.nullspace", "scalars", "ExactMatrix.nullspace"),
    ("scalars.select_columns", "scalars", "ExactMatrix.select_columns"),
    ("lie.module_build", "lie", "sl2_irrep"),
    ("lie.module_build", "lie", "highest_weight_module"),
    ("lie.module_build", "lie", "lowest_weight_module"),
    ("clifford.mul", "clifford", "CliffordElement.__mul__"),
    ("clifford.alpha", "clifford", "ReductivePair.alpha"),
    ("spin.gamma", "spin", "SpinModule.gamma"),
    ("spin.module", "spin", "SpinModule.__init__"),
    ("triple.build", "triple", "build_sl2_triple"),
    ("triple.rho", "triple", "TransitiveTriple.rho"),
    ("triple.solve_in_span", "triple", "solve_in_span"),
    ("dirac.algebraic_dirac", "dirac", "algebraic_dirac"),
    ("dirac.transfer", "dirac", "transfer"),
    ("dirac.assemble_rhs", "dirac", "assemble_rhs"),
    ("dirac.geometric_dirac_element", "dirac", "geometric_dirac_element"),
    ("spectral.truncated_dirac_kernel", "spectral", "truncated_dirac_kernel"),
    ("spectral.finite_dirac_kernel", "spectral", "finite_dirac_kernel"),
    ("spectral.scan_module", "spectral", "scan_module"),
]

# (count name, module, attribute path) of the scalar operations, which are
# too many and too short for spans.  Subtraction goes through __add__.
COUNTS = [
    ("scalars.mul.calls", "scalars", "ExactScalar.__mul__"),
    ("scalars.add.calls", "scalars", "ExactScalar.__add__"),
    ("scalars.inverse.calls", "scalars", "ExactScalar.inverse"),
    ("scalars.is_zero.calls", "scalars", "ExactScalar.is_zero"),
]

SAMPLE_EVERY = 16       # keep every 16th product's operands ...
SAMPLE_CAP = 400        # ... up to this many of each kind
TIMED_SECONDS = 0.05    # per kind of product and command


class Tracer:
    """Spans and counts of one command, kept in memory."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.stack = []          # indices of the open spans
        self.counts = {}         # name -> one-element list
        self.kernel_modules = set()
        self.products = {"general": [], "rational": []}

    def cell(self, name):
        return self.counts.setdefault(name, [0])

    def span(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if before is not None:
                before(self, args)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result
        return traced

    def counter(self, name, fn):
        cell = self.cell(name)

        def counted(*args):
            cell[0] += 1
            return fn(*args)
        return counted

    def sampled_mul(self, name, fn):
        """Count products, keeping every SAMPLE_EVERY-th pair of operands,
        split by whether the left factor takes the rational fast path."""
        cell = self.cell(name)
        general, rational = self.products["general"], self.products["rational"]

        def mul(left, right):
            cell[0] += 1
            if not cell[0] % SAMPLE_EVERY:
                kind = rational if left.is_rational() else general
                if len(kind) < SAMPLE_CAP:
                    kind.append((left, right))
            return fn(left, right)
        return mul


def _nonzeros(matrix):
    return sum(1 for _ in matrix.items())


def _rref_in(tracer, args):
    tracer.cell("scalars.rref.nonzeros_in")[0] += _nonzeros(args[0])


def _kron_out(tracer, args, result):
    tracer.cell("scalars.kron.nonzeros_out")[0] += _nonzeros(result)


def _module_levels(tracer, args, result):
    tracer.cell("lie.module_build.levels")[0] += result.dim


def _kernel_module(tracer, args, result):
    module = args[0]
    tracer.kernel_modules.add((module.kind, module.weights[0], module.dim))


HOOKS = {
    "scalars.rref": (_rref_in, None),
    "scalars.kron": (None, _kron_out),
    "lie.module_build": (None, _module_levels),
    "spectral.truncated_dirac_kernel": (None, _kernel_module),
}


def _package_owners():
    """The package's modules and the classes they define: every namespace
    that can bind one of its functions."""
    owners = []
    for name, module in sorted(sys.modules.items()):
        if name == "diracembed" or name.startswith("diracembed."):
            owners.append(module)
            owners += [c for c in vars(module).values()
                       if inspect.isclass(c)
                       and c.__module__.startswith("diracembed")]
    return owners


def install(tracer):
    """Wrap every boundary under every name that binds it.

    Returns a function that restores the original bindings.
    """
    for _, module, _ in SPANS + COUNTS:
        importlib.import_module(f"diracembed.{module}")
    owners = _package_owners()
    replaced = []           # (owner, name, original)
    for name, module, path in SPANS + COUNTS:
        owner = sys.modules[f"diracembed.{module}"]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        if name == "scalars.mul.calls":
            wrapper = tracer.sampled_mul(name, original)
        elif name.endswith(".calls"):
            wrapper = tracer.counter(name, original)
        else:
            wrapper = tracer.span(name, original, *HOOKS.get(name, (None, None)))
        for bound_in in owners:
            for key, value in list(vars(bound_in).items()):
                if value is original:
                    setattr(bound_in, key, wrapper)
                    replaced.append((bound_in, key, original))
        if vars(owner)[attr] is not wrapper:
            raise RuntimeError(f"{module}.{path} was left unwrapped")

    def restore():
        for owner, key, original in reversed(replaced):
            setattr(owner, key, original)
    return restore


def time_products(pairs):
    """Seconds and count of products over the sampled operand pairs, the
    whole sample repeated until TIMED_SECONDS have gone by."""
    seconds = count = 0
    while pairs and seconds < TIMED_SECONDS:
        start = perf_counter()
        for a, b in pairs:
            a * b
        seconds += perf_counter() - start
        count += len(pairs)
    return [seconds, count]


def main(argv):
    out_path, command_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT.json COMMAND_ID -- ARGS...")
    import diracembed.cli
    tracer = Tracer()
    restore = install(tracer)
    try:
        status = diracembed.cli.main(cli_args)
    finally:
        restore()
    sys.stdout.flush()
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    record = {
        "command": int(command_id),
        "args": cli_args,
        "spans": [[name, start - origin, end - origin, parent]
                  for name, start, end, parent in tracer.spans],
        "counts": {name: cell[0] for name, cell in tracer.counts.items()},
        "kernel_modules": sorted(tracer.kernel_modules),
        "products": {kind: time_products(pairs)
                     for kind, pairs in tracer.products.items()},
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
