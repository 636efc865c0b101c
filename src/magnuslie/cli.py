"""Command line front end.

Exit codes: 0 all selected checks pass, 1 gate rejection, 2 check
failure (torsion found, series mismatch, suite violation), 3
inconclusive, budget exceeded, an embedding projected past
words.MAX_EMBED_LETTERS, or the run ran out of memory or recursion
depth, 4 usage or parse error, or a --json-out path that cannot be
written.
"""

from __future__ import annotations

import argparse
import sys

from .liebasis import DegreeAboveCutoff
from .quotient import DEFAULT_BUDGET
from .report import (ALL_CHECKS, EXIT_INCONCLUSIVE, EXIT_USAGE, RunConfig,
                     report_to_json, run_report)
from .words import EmbeddingTooLarge


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's options, named as RunConfig's fields; an option not given
    is absent from the parsed namespace, so RunConfig's default holds."""
    parser = _Parser(
        prog="magnuslie",
        description=(
            "Check a one-relator presentation u = v: hypothesis gate, "
            "exact torsion certificates for the one-relator Lie quotient, "
            "series cross-checks, and sampled filtration properties."),
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--input", dest="input_path", metavar="INPUT",
                        required=True, help="presentation file")
    parser.add_argument("--max-degree", type=int,
                        help="degree cap N (default: file value, else d+6)")
    parser.add_argument("--e", type=int,
                        help="override the weight e of the y-generators")
    parser.add_argument("--primes",
                        help="comma-separated primes for the mod-p tables")
    parser.add_argument("--seed", type=int,
                        help="seed for the sampled property suites")
    parser.add_argument("--samples", type=int,
                        help="sample count per randomized suite")
    parser.add_argument("--max-word-len", type=int,
                        help="word length bound for sampled words")
    parser.add_argument("--check", dest="checks", action="append",
                        choices=list(ALL_CHECKS) + ["all"],
                        help="run only the named check (repeatable)")
    parser.add_argument("--json-out",
                        help="write the JSON report to this path")
    parser.add_argument("--force-downstream", action="store_true",
                        help="run quotient checks even after a gate rejection")
    parser.add_argument("--budget", type=int,
                        help="largest rows x columns matrix a degree may need "
                             f"(default {DEFAULT_BUDGET})")
    return parser


def _print_summary(report):
    gate = report.gate
    if gate.inconclusive:
        verdict = "inconclusive"
    else:
        verdict = "accepted" if gate.accepted else "rejected"
    print(f"gate: {verdict} (cutoff {gate.cutoff})")
    if gate.d is not None:
        print(f"  d = {gate.d}, rho = {gate.rho.to_text()}, "
              f"content = {gate.content}, e = {gate.chosen_e}")
    for failure in gate.failures:
        print(f"  failure: {failure}")

    if report.torsion is not None:
        t = report.torsion
        word = "torsion-free" if t.torsion_free else "TORSION FOUND"
        print(f"torsion: {word} up to degree {len(t.degrees)}")
        if t.note:
            print(f"  note: {t.note}")
        if t.aborted_degree is not None:
            print(f"  budget exceeded at degree {t.aborted_degree}")
        for r in t.degrees:
            if r.torsion:
                print(f"  degree {r.degree}: torsion invariants {r.torsion}")
    if report.hilbert is not None:
        h = report.hilbert
        print(f"hilbert: {'match' if h.all_match else 'MISMATCH'} "
              f"through degree {h.max_degree}")
    if report.modp is not None:
        mp = report.modp
        print(f"mod-p: {'match' if mp.all_match else 'MISMATCH'} "
              f"for primes {', '.join(str(p) for p in mp.primes)}")
    for suite in (report.floor_bound, report.magnus_e1):
        if suite is not None:
            state = "pass" if suite.passed else "FAIL"
            extra = f", applicable {suite.applicable}" if suite.applicable is not None else ""
            print(f"{suite.name}: {state} ({suite.cases} cases{extra})")
            if suite.counterexample:
                print(f"  counterexample: {suite.counterexample}")
    for name, reason in sorted(report.skip_reasons.items()):
        print(f"{name}: skipped ({reason})")
    for phase, seconds in report.timings.items():
        print(f"time {phase}: {seconds:.3f}s")
    print(f"exit code: {report.exit_code}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return ex.code if isinstance(ex.code, int) else EXIT_USAGE

    options = vars(args)
    if "primes" in options:
        try:
            options["primes"] = tuple(
                int(p) for p in options["primes"].split(",") if p.strip())
        except ValueError:
            print(f"magnuslie: error: cannot read primes {options['primes']!r}",
                  file=sys.stderr)
            return EXIT_USAGE
    if "checks" in options:
        options["checks"] = tuple(options["checks"])
    return run_command("magnuslie", lambda: _run(RunConfig(**options)))


def _run(config: RunConfig) -> int:
    report = run_report(config)
    _print_summary(report)
    if config.json_out:
        with open(config.json_out, "w", encoding="utf-8") as handle:
            handle.write(report_to_json(report))
        print(f"wrote {config.json_out}")
    return report.exit_code


def run_command(prog: str, run) -> int:
    """run()'s exit code, or the code and the one stderr line for each
    error that ends a run early; the CLI and the scripts share them."""
    try:
        return run()
    except (DegreeAboveCutoff, EmbeddingTooLarge) as ex:
        print(f"{prog}: inconclusive: {ex}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (MemoryError, RecursionError) as ex:
        print(f"{prog}: inconclusive: the run hit {type(ex).__name__}",
              file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (OSError, ValueError) as ex:
        print(f"{prog}: error: {ex}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
