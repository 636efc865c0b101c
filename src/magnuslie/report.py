"""Pipeline orchestration and the JSON run report.

The fixed check order is gate, torsion, hilbert, mod-p, floor-bound,
magnus-e1.  A gate rejection stops the quotient checks unless forced,
in which case their sections carry hypotheses_met = false.

The result records are the report schema: each check's block holds
its result's fields plus "skipped" (and "hypotheses_met" for the
quotient checks, "passed" for the suites), or "skipped" and "reason".
Only a few renderings are spelled out here: the gate's rho as text,
mod-p's reports under "tables", torsion without its relator and its F_p
ranks (the mod-p block renders those), and meta.  Reports serialize with
sorted keys and every mathematical integer rendered as a decimal string,
so consumers never face precision loss; repeated runs with the same
configuration produce identical JSON except for the wall-clock block
under meta.timings, so nothing timed may become a result field.  The
certificate ranks each degree's rows over the primes while it sweeps, so
meta.timings charges those F_p eliminations to "torsion", not "modp".
"""

from __future__ import annotations

import json
import time

from . import __version__
from .checks import (SuiteResult, homomorphism_suite, jacobi_suite,
                     floor_bound_suite, magnus_e1_suite,
                     strategy_independence_suite, valuation_mult_suite)
from .fprank import _distinct_primes
from .gate import HypothesisReport, check_relator_hypotheses
from .hilbert import HilbertTable, hilbert_crosscheck
from .presentation_io import PresentationFile, parse_presentation_file
from .quotient import (DEFAULT_BUDGET, ModpCheck, TorsionReport,
                       modp_dimension_check, torsion_free_certificate)
from .record import Record, field
from .series import WeightScheme
from .words import MAX_POWER_LENGTH, word_to_text

EXIT_OK = 0
EXIT_GATE_REJECTED = 1
EXIT_CHECK_FAILED = 2
EXIT_INCONCLUSIVE = 3
EXIT_USAGE = 4

ALL_CHECKS = ("gate", "torsion", "hilbert", "modp", "floor-bound", "magnus-e1")


class RunConfig(Record):
    input_path: str
    max_degree: int | None = None
    e: int | None = None
    primes: tuple[int, ...] = (2, 3, 5, 7)
    seed: int = 0
    samples: int = 500
    max_word_len: int = 12
    checks: tuple[str, ...] = ("all",)
    json_out: str | None = None
    force_downstream: bool = False
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.max_degree is not None and self.max_degree < 1:
            raise ValueError("max_degree must be positive")
        if self.budget < 1:
            raise ValueError(f"the budget must be a positive integer, "
                             f"got {self.budget}")
        if self.samples < 0:
            raise ValueError("sample count must be nonnegative")
        # sampled words are built letter by letter, 500 of them by default
        if not 0 <= self.max_word_len <= MAX_POWER_LENGTH:
            raise ValueError(f"max word length must be between 0 and "
                             f"{MAX_POWER_LENGTH}, got {self.max_word_len}")
        _distinct_primes(self.primes)
        for name in self.checks:
            if name not in ALL_CHECKS + ("all",):
                raise ValueError(f"unknown check {name!r}")

    def selected(self) -> tuple[str, ...]:
        """The checks whose verdicts drive the exit code.  The gate always
        runs regardless (everything downstream needs d and e)."""
        if "all" in self.checks:
            return ALL_CHECKS
        return tuple(name for name in ALL_CHECKS if name in self.checks)


class RunReport(Record, frozen=False):
    config: RunConfig
    presentation_file: PresentationFile
    gate: HypothesisReport
    max_degree: int | None
    torsion: TorsionReport | None = None
    hilbert: HilbertTable | None = None
    modp: ModpCheck | None = None
    floor_bound: SuiteResult | None = None
    magnus_e1: SuiteResult | None = None
    skip_reasons: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    exit_code: int = EXIT_OK


def run_report(config: RunConfig) -> RunReport:
    """Execute the selected checks and assemble the report."""
    with open(config.input_path, "r", encoding="utf-8") as handle:
        text = handle.read()
    parsed = parse_presentation_file(text)
    pres = parsed.presentation
    if config.e is not None:
        pres = type(pres)(m=pres.m, n=pres.n, u=pres.u, v=pres.v, e=config.e)
        parsed = PresentationFile(presentation=pres, max_degree=parsed.max_degree)
    selected = config.selected()
    timings: dict[str, float] = {}

    # gate: a configured degree cap is the certification window; without
    # one the gate chooses its windows and names the one that decided
    configured_cap = config.max_degree or parsed.max_degree
    start = time.perf_counter()
    gate = check_relator_hypotheses(pres, configured_cap)
    timings["gate"] = time.perf_counter() - start

    max_degree = configured_cap
    if max_degree is None and gate.d is not None:
        max_degree = gate.d + 6

    report = RunReport(
        config=config,
        presentation_file=parsed,
        gate=gate,
        max_degree=max_degree,
    )

    # rho's degree is at most the cap, which is d + 6 when none is set
    quotient_ok = gate.rho is not None
    run_quotient = (gate.accepted or config.force_downstream) and quotient_ok

    for name in ("torsion", "hilbert", "modp"):
        if name not in selected:
            report.skip_reasons[name] = "not selected"
        elif not quotient_ok:
            report.skip_reasons[name] = "no leading form available"
        elif not run_quotient:
            report.skip_reasons[name] = "gate rejected (pass --force-downstream to run)"

    if run_quotient:
        if "torsion" in selected or "hilbert" in selected or "modp" in selected:
            start = time.perf_counter()
            # mod-p reads the F_p ranks the certificate takes as it sweeps
            report.torsion = torsion_free_certificate(
                gate.rho, max_degree, budget=config.budget,
                primes=config.primes if "modp" in selected else ())
            timings["torsion"] = time.perf_counter() - start
        if "hilbert" in selected and report.torsion is not None:
            start = time.perf_counter()
            report.hilbert = hilbert_crosscheck(report.torsion)
            timings["hilbert"] = time.perf_counter() - start
        if "modp" in selected and report.torsion is not None:
            start = time.perf_counter()
            report.modp = modp_dimension_check(report.torsion)
            timings["modp"] = time.perf_counter() - start

    # the relator's scheme when the gate found one; else the file's e, if any
    suites_scheme = WeightScheme(pres.m, pres.n, gate.chosen_e or 1)
    if "floor-bound" in selected:
        start = time.perf_counter()
        report.floor_bound = floor_bound_suite(
            suites_scheme, samples=config.samples,
            max_len=config.max_word_len, seed=config.seed)
        timings["floor_bound"] = time.perf_counter() - start
    else:
        report.skip_reasons["floor-bound"] = "not selected"
    if "magnus-e1" in selected:
        start = time.perf_counter()
        report.magnus_e1 = magnus_e1_suite(suites_scheme)
        timings["magnus_e1"] = time.perf_counter() - start
    else:
        report.skip_reasons["magnus-e1"] = "not selected"

    report.timings = timings
    report.exit_code = _exit_code(report, selected)
    return report


def algebra_law_suites(scheme: WeightScheme, samples: int = 500,
                       seed: int = 0) -> list[SuiteResult]:
    """The four randomized algebra-law suites at one seed."""
    return [
        homomorphism_suite(scheme, samples=samples, seed=seed),
        valuation_mult_suite(scheme, samples=samples, seed=seed),
        jacobi_suite(scheme, samples=samples, seed=seed),
        strategy_independence_suite(samples=samples, seed=seed),
    ]


def _exit_code(report: RunReport, selected) -> int:
    quotient_selected = any(n in selected for n in ("torsion", "hilbert", "modp"))
    if report.gate.inconclusive and ("gate" in selected or quotient_selected):
        return EXIT_INCONCLUSIVE
    if not report.gate.accepted:
        # a rejection also blocks selected quotient checks unless forced
        if "gate" in selected or (quotient_selected and report.torsion is None):
            return EXIT_GATE_REJECTED
    failed = False
    if report.torsion is not None and "torsion" in selected:
        failed = failed or not report.torsion.torsion_free
    if report.hilbert is not None:
        failed = failed or not report.hilbert.all_match
    if report.modp is not None:
        failed = failed or not report.modp.all_match
    if report.floor_bound is not None:
        failed = failed or not report.floor_bound.passed
    if report.magnus_e1 is not None:
        failed = failed or not report.magnus_e1.passed
    if failed:
        return EXIT_CHECK_FAILED
    # mod-p's aborted_degree is the certificate's
    if report.torsion is not None and report.torsion.aborted_degree is not None:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


# -- JSON serialization -----------------------------------------------------


def _fields(result: Record) -> dict:
    """A record's fields by name.  The values are not copied."""
    return {name: getattr(result, name) for name in result._fields}


def _stringify(value):
    """Recursively render integers as decimal strings and records as their
    fields; bools and floats stay as they are."""
    if isinstance(value, (bool, float)):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Record):
        value = _fields(value)
    if isinstance(value, (list, tuple)):
        return [_stringify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _stringify(v) for k, v in value.items()}
    return value


def _block(result, reason: str | None, **extra) -> dict:
    """A check's block: why it was skipped, or its result's fields plus extra."""
    if result is None:
        return {"skipped": True, "reason": reason}
    return {"skipped": False, **_fields(result), **extra}


def report_to_json_dict(report: RunReport, include_timings: bool = True) -> dict:
    pres = report.presentation_file.presentation
    gate = report.gate
    config = report.config
    reason = report.skip_reasons.get

    torsion = _block(report.torsion, reason("torsion"),
                     hypotheses_met=gate.accepted)
    # the relator is the gate's rho; the F_p ranks are the mod-p block's
    torsion.pop("relator", None)
    torsion.pop("modp_ranks", None)
    modp = _block(report.modp, reason("modp"), hypotheses_met=gate.accepted)
    if "reports" in modp:
        modp["tables"] = modp.pop("reports")

    meta = {
        "version": __version__,
        "seed": config.seed,
        "samples": config.samples,
        "max_word_len": config.max_word_len,
        "primes": config.primes,
        "checks": config.selected(),
        "cutoffs": {"gate": gate.cutoff, "quotient": report.max_degree},
        "exit_code": report.exit_code,
    }
    if include_timings:
        meta["timings"] = {k: round(v, 6) for k, v in report.timings.items()}

    payload = {
        "presentation": {
            **_fields(pres),
            "u": word_to_text(pres.u, pres.scheme_bounds),
            "v": word_to_text(pres.v, pres.scheme_bounds),
            "file_max_degree": report.presentation_file.max_degree,
        },
        "gate": {**_fields(gate),
                 "rho": None if gate.rho is None else gate.rho.to_text()},
        "torsion": torsion,
        "hilbert": _block(report.hilbert, reason("hilbert"),
                          hypotheses_met=gate.accepted),
        "modp": modp,
        "floor_bound": _block(report.floor_bound, reason("floor-bound"),
                              passed=getattr(report.floor_bound, "passed", None)),
        "magnus_e1": _block(report.magnus_e1, reason("magnus-e1"),
                            passed=getattr(report.magnus_e1, "passed", None)),
        "meta": meta,
    }
    return _stringify(payload)


def report_to_json(report: RunReport, include_timings: bool = True) -> str:
    payload = report_to_json_dict(report, include_timings=include_timings)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
