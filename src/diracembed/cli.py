"""Command line entry point for the verification suites.

    diracembed verify all [--format text|json] [--out PATH]
    diracembed verify embedding --weight 4
    diracembed verify spectral --weight 6 --truncation 40
    diracembed table64 --weight 0

Exit status is 0 when every executed check passes, 1 when any check
fails, and 2 on usage errors.
"""

import argparse
import sys

# Import the leaf modules first, in dependency order, as the eager package
# import did: letting triple.py be compiled before its dependencies raised
# the peak resident set of `verify embedding --weight 40` by about 0.1 MiB.
from . import scalars, lie, clifford, spin  # noqa: F401
from .triple import build_sl2_triple

_TARGETS = {
    "all": ["clifford", "spin", "triple", "theorem51", "spectral"],
    "clifford": ["clifford"],
    "spin": ["spin"],
    "triple": ["triple"],
    "embedding": ["theorem51"],
    "spectral": ["spectral"],
}

MAX_TRUNCATION = 2000     # levels a scan searches; it builds to j + 2
MAX_WEIGHT = 1000         # sl2_irrep(W) and its operators grow


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracembed",
        description="Exact verification of the Dirac operator embedding "
                    "and its rank-one spectral consequences.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify", help="run a verification suite and report each check")
    verify.add_argument("target", choices=sorted(_TARGETS),
                        help="which suite to run")
    verify.add_argument("--weight", type=int, default=4,
                        help=f"highest weight of the twisting module, 0 to "
                             f"{MAX_WEIGHT} (default 4; odd values only for "
                             "spectral)")
    verify.add_argument("--truncation", type=int, default=40,
                        help="levels kept in truncated weight modules, "
                             f"2 to {MAX_TRUNCATION} (default 40)")
    verify.add_argument("--format", choices=["text", "json"], default="text",
                        help="report format (default text)")
    verify.add_argument("--out", help="write the report to this file")

    table = sub.add_parser(
        "table64", help="print the kernel identification table rows as JSON")
    table.add_argument("--weight", type=int, required=True,
                       help="even highest weight 2m of the twisting "
                            f"module, 0 to {MAX_WEIGHT}")
    table.add_argument("--out", help="write the rows to this file")
    return parser


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if not 0 <= args.weight <= MAX_WEIGHT:
        parser.error(f"--weight must be between 0 and {MAX_WEIGHT}")
    if args.command == "table64":
        if args.weight % 2 != 0:
            parser.error("table64 needs an even --weight")
    elif args.weight % 2 != 0 and args.target != "spectral":
        parser.error(f"odd --weight is only accepted by verify spectral "
                     f"(verify {args.target} needs an even weight)")
    elif not 2 <= args.truncation <= MAX_TRUNCATION:
        parser.error(f"--truncation must be between 2 and {MAX_TRUNCATION}")
    # check --out before any work; append mode leaves an existing file intact
    try:
        if args.out:
            open(args.out, "a", encoding="utf-8").close()
    except OSError as exc:
        parser.error(f"--out {args.out}: cannot write ({exc.strerror})")

    # each command imports only what it runs: table64 skips the report
    # module, which imports the spectral module only for the spectral suite
    if args.command == "table64":
        from . import spectral
        try:
            rows = spectral.kernel_table(build_sl2_triple(), args.weight // 2)
        except spectral.SpectralError as exc:
            sys.stderr.write(f"diracembed table64: {exc}\n")
            return 1
        import json     # loaded only for the rows
        _emit(json.dumps(rows, separators=(",", ":")) + "\n", args.out)
        return 0

    from . import report
    results = report.run_suites(_TARGETS[args.target], weight=args.weight,
                                truncation=args.truncation)
    if args.format == "json":
        _emit(report.render_json(results), args.out)
    else:
        _emit(report.render_text(results), args.out)
    return 1 if report.has_failure(results) else 0


if __name__ == "__main__":
    sys.exit(main())
