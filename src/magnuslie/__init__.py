"""Exact desk-scale calculators around free products with weighted letters:
the unit-series embedding, its filtration, the free Lie ring on a Lyndon
basis, and integer torsion certificates for one-relator Lie quotients."""

__version__ = "0.1.0"

from .series import INFINITY, Series, WeightScheme
from .words import (DegreeBound, EmbeddingTooLarge, Word, WordSyntaxError,
                    filtration_degree, free_reduce, generator,
                    group_commutator, invert_word, magnus_embed, parse_word,
                    random_word, word_multiply, word_to_text)
from .liebasis import (DegreeAboveCutoff, LieElement, NotLieElement, bracket,
                       generator_element, leading_lie_form, lyndon_words,
                       standard_factorization, to_lyndon_coords,
                       witt_dimensions)
from .snf import SmithResult, integer_row_space, smith_normal_form
from .fprank import fp_ranks
from .gate import HypothesisReport, Presentation, check_relator_hypotheses
from .quotient import (DEFAULT_BUDGET, BudgetExceeded, DegreeReport,
                       ModpCheck, ModpReport, TorsionReport, ideal_component,
                       ideal_component_alt, modp_dimension_check,
                       torsion_free_certificate)
from .hilbert import (HilbertTable, candidate_series, hilbert_crosscheck,
                      pbw_series)
from .checks import (SuiteResult, homomorphism_suite, jacobi_suite,
                     left_normed_basic_sequences, floor_bound_suite,
                     magnus_e1_suite, strategy_independence_suite,
                     valuation_mult_suite)
from .presentation_io import (PresentationFile, PresentationSyntaxError,
                              parse_presentation, parse_presentation_file)
from .report import (ALL_CHECKS, EXIT_CHECK_FAILED, EXIT_GATE_REJECTED,
                     EXIT_INCONCLUSIVE, EXIT_OK, EXIT_USAGE, RunConfig,
                     RunReport, algebra_law_suites, report_to_json,
                     report_to_json_dict, run_report)
