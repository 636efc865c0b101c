"""Reports are byte-stable apart from meta.timings.

The files under tests/data/ hold report_to_json(..., include_timings=False)
at seed 0 and 50 samples: for the accepted corpus presentations at their
default caps, and for the report paths those runs never take (a gate
rejection, a forced run past one, an inconclusive gate, unselected
checks and a budget abort).  Each run stays in one process: it forks
nothing, and its report is the same with os.fork deleted.  A difference
means a verdict, a divisor or the report layout changed; regenerate them
only for an intended change of the report.
"""

import os
from pathlib import Path

import pytest

from magnuslie import (EXIT_GATE_REJECTED, EXIT_INCONCLUSIVE, EXIT_OK,
                       RunConfig, TorsionReport, report_to_json, run_report)

ROOT = Path(__file__).resolve().parent.parent


def corpus_report(presentation, **options):
    return run_report(RunConfig(
        input_path=str(ROOT / "presentations" / f"{presentation}.pres"),
        seed=0, samples=50, **options))


def expected_json(name):
    return (ROOT / "tests" / "data" / f"{name}.json").read_text()


CORPUS = ["commutator_basic", "commutator_deep", "commutator_three_gens"]
REPORT_PATHS = [
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
]
GOLDENS = [(name, name, {}) for name in CORPUS] + [
    (name, presentation, options) for name, presentation, options, _ in REPORT_PATHS]


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_report_is_byte_identical(name):
    report = corpus_report(name)
    assert report_to_json(report, include_timings=False) == expected_json(name)


@pytest.mark.parametrize("name, presentation, options, exit_code", REPORT_PATHS)
def test_report_path_is_byte_identical(name, presentation, options, exit_code):
    report = corpus_report(presentation, **options)
    assert report.exit_code == exit_code
    assert report_to_json(report, include_timings=False) == expected_json(name)


@pytest.mark.parametrize("name, presentation, options", GOLDENS,
                         ids=[name for name, _, _ in GOLDENS])
def test_report_is_the_same_with_and_without_the_suites_child(
        monkeypatch, name, presentation, options):
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(name) or fork())
    with_fork = report_to_json(corpus_report(presentation, **options),
                               include_timings=False)
    assert forks == []
    monkeypatch.delattr(os, "fork")
    without_fork = report_to_json(corpus_report(presentation, **options),
                                  include_timings=False)
    assert with_fork == without_fork == expected_json(name)


class _Unrenderable(dict):
    def _refuse(self, *args):
        raise AssertionError("the report rendered TorsionReport.modp_ranks")

    __iter__ = __len__ = items = keys = values = _refuse


def test_report_never_renders_the_modp_ranks():
    report = corpus_report("commutator_basic")
    cert = report.torsion
    assert set(cert.modp_ranks) == set(report.config.primes)
    report.torsion = TorsionReport(
        cert.relator, cert.relator_degree, cert.max_degree, cert.degrees,
        cert.torsion_free, cert.aborted_degree, cert.note,
        _Unrenderable(cert.modp_ranks))
    text = report_to_json(report, include_timings=False)
    assert text == expected_json("commutator_basic")
    assert "modp_ranks" not in text
