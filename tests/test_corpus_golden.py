"""Corpus reports are byte-stable apart from meta.timings.

The files under tests/data/ hold report_to_json(..., include_timings=False)
for the accepted corpus presentations at their default caps, seed 0 and
50 samples.  A difference means a verdict, a divisor or the report layout
changed; regenerate them only for an intended change of the report.
"""

from pathlib import Path

import pytest

from magnuslie import RunConfig, report_to_json, run_report

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["commutator_basic", "commutator_deep",
                                  "commutator_three_gens"])
def test_corpus_report_is_byte_identical(name):
    report = run_report(RunConfig(
        input_path=str(ROOT / "presentations" / f"{name}.pres"),
        seed=0, samples=50))
    expected = (ROOT / "tests" / "data" / f"{name}.json").read_text()
    assert report_to_json(report, include_timings=False) == expected
