"""Reports are byte-stable apart from meta.timings.

The files under tests/data/ hold report_to_json(..., include_timings=False)
at seed 0 and 50 samples: for the accepted corpus presentations at their
default caps, and for the report paths those runs never take (a gate
rejection, a forced run past one, an inconclusive gate, unselected
checks and a budget abort).  A difference means a verdict, a divisor or
the report layout changed; regenerate them only for an intended change
of the report.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from magnuslie import (EXIT_GATE_REJECTED, EXIT_INCONCLUSIVE, EXIT_OK,
                       RunConfig, report_to_json, run_report)

ROOT = Path(__file__).resolve().parent.parent


def corpus_report(presentation, **options):
    return run_report(RunConfig(
        input_path=str(ROOT / "presentations" / f"{presentation}.pres"),
        seed=0, samples=50, **options))


def expected_json(name):
    return (ROOT / "tests" / "data" / f"{name}.json").read_text()


@pytest.mark.parametrize("name", ["commutator_basic", "commutator_deep",
                                  "commutator_three_gens"])
def test_corpus_report_is_byte_identical(name):
    report = corpus_report(name)
    assert report_to_json(report, include_timings=False) == expected_json(name)


@pytest.mark.parametrize("name, presentation, options, exit_code", [
    # gate rejected: every quotient block is skipped
    ("square_power", "square_power", {}, EXIT_GATE_REJECTED),
    # forced past a rejection: the quotient blocks carry hypotheses_met false
    ("trivial_v_forced", "trivial_v", {"force_downstream": True},
     EXIT_GATE_REJECTED),
    # the cap is below the degree of u: inconclusive gate, rho null
    ("commutator_deep_cap2", "commutator_deep", {"max_degree": 2},
     EXIT_INCONCLUSIVE),
    # the blocks of unselected checks say so
    ("commutator_basic_torsion_only", "commutator_basic",
     {"checks": ("torsion",)}, EXIT_OK),
    # torsion and mod-p both stop at the budget at degree 8
    ("commutator_basic_budget", "commutator_basic",
     {"budget": 2000, "max_degree": 10}, EXIT_INCONCLUSIVE),
])
def test_report_path_is_byte_identical(name, presentation, options, exit_code):
    report = corpus_report(presentation, **options)
    assert report.exit_code == exit_code
    assert report_to_json(report, include_timings=False) == expected_json(name)


class _Unwalkable(tuple):
    def __iter__(self):
        raise AssertionError("the report walked TorsionReport.rows")

    def __len__(self):
        raise AssertionError("the report walked TorsionReport.rows")


def test_report_never_walks_the_certificate_rows():
    report = corpus_report("commutator_basic")
    assert report.torsion.rows
    report.torsion = replace(report.torsion, rows=_Unwalkable(report.torsion.rows))
    assert report_to_json(report, include_timings=False) == \
        expected_json("commutator_basic")
