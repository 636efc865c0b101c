"""Spans and counts around the calls between magnuslie's layers.

``Tracer.install`` replaces, in each calling module, the names it
imported from another layer (``magnuslie.quotient.smith_normal_form``,
``magnuslie.checks.bracket``, ...) with a wrapper that records one span
per call: its name, parent, start and end.  The package itself is not
edited, so the traced op runs the same pipeline as the untraced one.
Hot private helpers (``_ad_row``, ``_expand_word``) are never wrapped:
they run millions of times and the wrapper would swamp them; their time
lands in the self time of the public function that called them.

Spans are kept in memory and written out once, when the op ends.
``layer_metrics`` turns a span list into self times per layer.
"""

from __future__ import annotations

import importlib
import time

# (calling module, name it imported, span name).  The span name is the
# module that defines the function, so it says which layer did the work.
TARGETS = (
    ("magnuslie", "witt_dimensions", "liebasis.witt_dimensions"),
    ("magnuslie.cli", "main", "cli.main"),
    ("magnuslie.cli", "run_report", "report.run_report"),
    ("magnuslie.cli", "report_to_json", "report.report_to_json"),
    ("magnuslie.report", "algebra_law_suites", "report.algebra_law_suites"),
    ("magnuslie.report", "check_relator_hypotheses", "gate.check_relator_hypotheses"),
    ("magnuslie.report", "torsion_free_certificate", "quotient.torsion_free_certificate"),
    ("magnuslie.report", "hilbert_crosscheck", "quotient.hilbert_crosscheck"),
    ("magnuslie.report", "modp_dimension_check", "quotient.modp_dimension_check"),
    ("magnuslie.report", "floor_bound_suite", "checks.floor_bound_suite"),
    ("magnuslie.report", "magnus_e1_suite", "checks.magnus_e1_suite"),
    ("magnuslie.report", "homomorphism_suite", "checks.homomorphism_suite"),
    ("magnuslie.report", "valuation_mult_suite", "checks.valuation_mult_suite"),
    ("magnuslie.report", "jacobi_suite", "checks.jacobi_suite"),
    ("magnuslie.report", "strategy_independence_suite", "checks.strategy_independence_suite"),
    ("magnuslie.gate", "filtration_degree", "words.filtration_degree"),
    ("magnuslie.gate", "leading_lie_form", "liebasis.leading_lie_form"),
    ("magnuslie.liebasis", "magnus_embed", "words.magnus_embed"),
    ("magnuslie.quotient", "witt_dimensions", "liebasis.witt_dimensions"),
    ("magnuslie.quotient", "lyndon_words", "liebasis.lyndon_words"),
    ("magnuslie.quotient", "lyndon_basis", "liebasis.lyndon_basis"),
    ("magnuslie.quotient", "bracket", "liebasis.bracket"),
    ("magnuslie.quotient", "smith_normal_form", "snf.smith_normal_form"),
    ("magnuslie.quotient", "fp_rank", "snf.fp_rank"),
    ("magnuslie.quotient", "quotient_degree_report", "quotient.quotient_degree_report"),
    ("magnuslie.checks", "bracket", "liebasis.bracket"),
    ("magnuslie.checks", "leading_lie_form", "liebasis.leading_lie_form"),
    ("magnuslie.checks", "lyndon_words", "liebasis.lyndon_words"),
    ("magnuslie.checks", "ideal_component", "quotient.ideal_component"),
    ("magnuslie.checks", "ideal_component_alt", "quotient.ideal_component_alt"),
    ("magnuslie.checks", "integer_row_space", "snf.integer_row_space"),
    ("magnuslie.checks", "filtration_degree", "words.filtration_degree"),
    ("magnuslie.checks", "magnus_embed", "words.magnus_embed"),
)

# per-layer self-time metric -> span names whose self time it sums
LAYERS = {
    "liebasis.lyndon_s": ("liebasis.witt_dimensions", "liebasis.lyndon_words",
                          "liebasis.lyndon_basis"),
    "liebasis.bracket_s": ("liebasis.bracket",),
    "liebasis.leading_form_s": ("liebasis.leading_lie_form",),
    "words.embed_s": ("words.magnus_embed", "words.filtration_degree"),
    "gate.s": ("gate.check_relator_hypotheses",),
    "quotient.sweep_s": ("quotient.torsion_free_certificate",
                         "quotient.quotient_degree_report",
                         "quotient.modp_dimension_check",
                         "quotient.hilbert_crosscheck",
                         "quotient.ideal_component",
                         "quotient.ideal_component_alt"),
    "snf.smith_s": ("snf.smith_normal_form",),
    "snf.fp_rank_s": ("snf.fp_rank",),
    "snf.row_space_s": ("snf.integer_row_space",),
    "checks.floor_bound_s": ("checks.floor_bound_suite",),
    "checks.magnus_e1_s": ("checks.magnus_e1_suite",),
    "checks.laws_self_s": ("checks.homomorphism_suite", "checks.valuation_mult_suite",
                           "checks.jacobi_suite", "checks.strategy_independence_suite"),
    "report.self_s": ("cli.main", "report.run_report", "report.algebra_law_suites"),
    "report.json_s": ("report.report_to_json",),
}

# call counts derived from the spans
CALLS = {
    "liebasis.bracket_calls": "liebasis.bracket",
    "snf.fp_rank_calls": "snf.fp_rank",
}

COUNTS = ("liebasis.lyndon_words", "quotient.rows", "quotient.cols",
          "quotient.nnz", "quotient.max_abs_entry", "snf.pivots",
          "quotient.budget_aborts")

# time spent computing counts: a span of its own, so no layer is charged
COUNT_SPAN = "trace.count"


def _matrix_counts(counts: dict, rows) -> None:
    rows = list(rows)
    counts["quotient.rows"] += len(rows)
    for row in rows:
        values = row.values() if isinstance(row, dict) else row
        for v in values:
            if v:
                counts["quotient.nnz"] += 1
                if abs(v) > counts["quotient.max_abs_entry"]:
                    counts["quotient.max_abs_entry"] = abs(v)


def _count_smith(counts, args, kwargs, result):
    _matrix_counts(counts, args[0] if args else kwargs["rows"])
    counts["snf.pivots"] += result.rank


def _count_row_space(counts, args, kwargs, result):
    _matrix_counts(counts, args[0] if args else kwargs["rows"])
    counts["quotient.cols"] += args[1] if len(args) > 1 else kwargs["ncols"]
    counts["snf.pivots"] += len(result)


def _count_degree_report(counts, args, kwargs, result):
    counts["quotient.cols"] += result.dim_free


def _count_aborts(counts, args, kwargs, result):
    counts["quotient.budget_aborts"] += result.aborted_degree is not None


def _count_words(counts, args, kwargs, result):
    counts["liebasis.lyndon_words"] += len(result)


def _count_witt(counts, args, kwargs, result):
    counts["liebasis.lyndon_words"] += sum(result)


COUNTERS = {
    "snf.smith_normal_form": _count_smith,
    "snf.integer_row_space": _count_row_space,
    "quotient.quotient_degree_report": _count_degree_report,
    "quotient.torsion_free_certificate": _count_aborts,
    "quotient.modp_dimension_check": _count_aborts,
    "liebasis.lyndon_words": _count_words,
    "liebasis.lyndon_basis": _count_words,
    "liebasis.witt_dimensions": _count_witt,
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list = []      # [name, parent index or -1, start_ns, end_ns]
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.missing: list[str] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1,
                           time.perf_counter_ns(), 0])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if counter is not None:
                count_index = self.open(COUNT_SPAN)
                counter(self.counts, args, kwargs, result)
                self.close(count_index)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not.

        A target that a later version of the package no longer imports is
        skipped, not fatal: its time then shows in its caller's self time.
        """
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(fn, span))

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts,
                "missing": self.missing}


def self_times(spans) -> list[int]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(trace: dict) -> dict:
    """Per-layer seconds and counts of one traced op."""
    spans = trace["spans"]
    own = self_times(spans)
    by_name: dict[str, int] = {}
    calls: dict[str, int] = {}
    for (name, _, _, _), ns in zip(spans, own):
        by_name[name] = by_name.get(name, 0) + ns
        calls[name] = calls.get(name, 0) + 1
    out = {metric: sum(by_name.get(n, 0) for n in names) / 1e9
           for metric, names in LAYERS.items()}
    for metric, name in CALLS.items():
        out[metric] = calls.get(name, 0)
    out.update(trace["counts"])
    rows = trace["counts"]["quotient.rows"]
    out["quotient.row_yield"] = trace["counts"]["snf.pivots"] / rows if rows else 0.0
    return out
