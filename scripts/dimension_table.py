#!/usr/bin/env python3
"""Print dimension tables for a weight scheme and an optional relator.

Without a relator: the free Lie ring dimensions per degree.  With one,
the ideal ranks, quotient dimensions, elementary divisors, and the
candidate series coefficients side by side.  Relators are Lie words in
the bracket grammar of the CLI, e.g. "[[x1,x2],x1]".

    python scripts/dimension_table.py --m 2 --n 1 --e 3 \
        --relator "[x1,x2]" --max-degree 8 [--dump-matrices DIR]

Exit codes follow the magnuslie CLI: 0 torsion-free through the cap, 2
torsion found, 3 inconclusive (the relator's degree is above the cap,
its embedding is too large, the ideal budget stopped the table early,
or the run ran out of memory or recursion depth), 4 a bad scheme,
relator or output directory, a free dimension too long to print, or a
usage error.
"""

import sys
from pathlib import Path

from magnuslie import (EXIT_CHECK_FAILED, EXIT_INCONCLUSIVE, EXIT_OK,
                       WeightScheme, hilbert_crosscheck, ideal_component,
                       leading_lie_form, parse_word, torsion_free_certificate,
                       witt_dimensions)
from magnuslie.brackets import BracketTable
from magnuslie.cli import _Parser, invariants_text, run_command

PROG = "dimension_table.py"


def main() -> int:
    return run_command(PROG, table)


def table() -> int:
    parser = _Parser(prog=PROG, description=__doc__)
    parser.add_argument("--m", type=int, required=True)
    parser.add_argument("--n", type=int, default=0)
    parser.add_argument("--e", type=int, default=1)
    parser.add_argument("--relator", default=None,
                        help="group word whose leading form is the relator")
    parser.add_argument("--max-degree", type=int, default=8)
    parser.add_argument("--dump-matrices", default=None,
                        help="write degree matrices as text files here")
    args = parser.parse_args()

    scheme = WeightScheme(args.m, args.n, args.e)
    cap = args.max_degree
    if args.relator is None:
        dims = witt_dimensions(scheme, cap)
        # str() refuses an int of more digits than the interpreter's limit
        limit = sys.get_int_max_str_digits()
        first_unprintable = 10 ** limit if limit else None
        for k, dim in enumerate(dims, 1):
            if first_unprintable is not None and dim >= first_unprintable:
                raise ValueError(f"the dimension at degree {k} has more than "
                                 f"{limit} digits, too many to print")
        print(f"free Lie ring dimensions for scheme {scheme}:")
        for k, dim in enumerate(dims, 1):
            print(f"  degree {k}: {dim}")
        return EXIT_OK

    if args.dump_matrices:
        out_dir = Path(args.dump_matrices)
        out_dir.mkdir(parents=True, exist_ok=True)
    word = parse_word(args.relator, scheme)
    degree, rho = leading_lie_form(word, scheme, cap)
    print(f"relator leading form at degree {degree}: {rho.to_text()}")
    cert = torsion_free_certificate(rho, cap)
    table = hilbert_crosscheck(cert)
    print(f"{'deg':>4} {'dimL':>6} {'rank':>6} {'dimQ':>6} "
          f"{'torsion':>12} {'candidate':>10} {'match':>6}")
    for report in cert.degrees:
        k = report.degree
        torsion = invariants_text(report.torsion) or "none"
        print(f"{k:>4} {report.dim_free:>6} {report.rank:>6} "
              f"{report.dim_quotient:>6} {torsion:>12} "
              f"{table.candidate[k]:>10} {str(table.matches[k]):>6}")
    print(f"torsion-free up to degree {len(cert.degrees)}: {cert.torsion_free}")
    print(f"series cross-check: {table.formula_status}")

    if args.dump_matrices:
        # the rows the certificate eliminates at each degree, block after
        # block, over the degree's Lyndon basis in order, one row a line
        brackets = BracketTable(scheme)
        for n in range(degree, len(cert.degrees) + 1):
            basis = brackets.basis(n)
            lines = [" ".join(str(row.get(w, 0)) for w in basis)
                     for row in ideal_component(rho, n, brackets=brackets)]
            path = out_dir / f"ideal_degree_{n}.txt"
            path.write_text("\n".join(lines) + "\n")
            print(f"wrote {path} ({len(lines)} rows)")
    if not cert.torsion_free:
        return EXIT_CHECK_FAILED
    if cert.aborted_degree is not None:
        print(f"{PROG}: inconclusive: budget exceeded at degree "
              f"{cert.aborted_degree}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
