#!/usr/bin/env python3
"""Run the bundled presentation corpus through the full pipeline.

Prints one block per presentation file.  Useful as a quick end-to-end
sweep:

    python scripts/run_corpus.py [--samples N] [--seed K] [--directory DIR]

Exit codes follow the magnuslie CLI: 0 every file gave its expected
exit code, 2 some file did not, 3 inconclusive (an embedding past its
letter bound, or the run ran out of memory or recursion depth), 4 a
usage error, a negative sample count, or a missing or malformed
presentation file; these end in one stderr line.
"""

import sys
import time
from pathlib import Path

from magnuslie import (EXIT_CHECK_FAILED, EXIT_GATE_REJECTED, EXIT_OK,
                       RunConfig, run_report)
from magnuslie.cli import _Parser, run_command

PROG = "run_corpus.py"

EXPECTED = {
    "commutator_basic.pres": EXIT_OK,
    "commutator_deep.pres": EXIT_OK,
    "commutator_three_gens.pres": EXIT_OK,
    "square_power.pres": EXIT_GATE_REJECTED,
    "trivial_v.pres": EXIT_GATE_REJECTED,
}


def main() -> int:
    return run_command(PROG, sweep)


def sweep() -> int:
    parser = _Parser(prog=PROG, description=__doc__)
    parser.add_argument("--samples", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--directory", default=None,
                        help="presentation directory (default: repo presentations/)")
    args = parser.parse_args()

    directory = Path(args.directory) if args.directory else \
        Path(__file__).resolve().parent.parent / "presentations"
    failures = 0
    for name, expected in EXPECTED.items():
        path = directory / name
        print(f"=== {name} ===")
        start = time.perf_counter()
        report = run_report(RunConfig(
            input_path=str(path), samples=args.samples, seed=args.seed))
        elapsed = time.perf_counter() - start
        gate = report.gate
        verdict = "accepted" if gate.accepted else "rejected"
        print(f"gate {verdict}; d={gate.d} rho={None if gate.rho is None else gate.rho.to_text()} "
              f"content={gate.content} e={gate.chosen_e}")
        if report.torsion is not None:
            print(f"torsion-free={report.torsion.torsion_free} "
                  f"to degree {len(report.torsion.degrees)}")
        if report.hilbert is not None:
            print(f"hilbert match={report.hilbert.all_match}")
        if report.modp is not None:
            print(f"mod-p match={report.modp.all_match} primes={report.modp.primes}")
        for suite in (report.floor_bound, report.magnus_e1):
            if suite is not None:
                print(f"{suite.name}: failures={suite.failures}/{suite.cases}")
        ok = report.exit_code == expected
        print(f"exit {report.exit_code} (expected {expected}) "
              f"{'ok' if ok else 'UNEXPECTED'} in {elapsed:.2f}s")
        print()
        if not ok:
            failures += 1
    return EXIT_CHECK_FAILED if failures else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
