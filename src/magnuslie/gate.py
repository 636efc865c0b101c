"""Hypothesis gate for one-relator presentations u = v.

The presentation splits the generators into an x-factor and a y-factor.
The gate demands: u a nontrivial word in the x-letters only, v a
nontrivial word in the y-letters only, the leading Lie form of u of
content 1, and a weight e strictly larger than the degree d of u.

Why content decides the proper-power condition: for a word u in the
x-factor the filtration degree d is its lower central series degree
(the weighting never sees a y-letter, so the e = 1 identification of
the filtration with the lower central series applies).  The degree-d
layer of the lower central series of a free group is free abelian with
the degree-d Lyndon basis as coordinates, so u is a k-th power modulo
the next layer for some k >= 2 exactly when k divides every coordinate
of its leading form.  Content 1 is therefore the same condition as "not
a proper power modulo the next lower central term", and it is the form
of the condition the quotient computations consume.
"""

from __future__ import annotations

from .liebasis import DegreeAboveCutoff, LieElement, leading_lie_form
from .record import Record
from .series import WeightScheme, _check_int
from .words import Word, free_reduce, only_x_letters, only_y_letters


class Presentation(Record):
    """One-relator data: x-count, y-count, the two words, optional e."""

    m: int
    n: int
    u: Word
    v: Word
    e: int | None = None

    def __post_init__(self):
        for name in ("m", "n") if self.e is None else ("m", "n", "e"):
            _check_int(getattr(self, name), name)
        if self.m < 1 or self.n < 1:
            raise ValueError("presentations need at least one x and one y generator")
        if self.e is not None and self.e < 1:
            raise ValueError("e must be a positive integer")
        bounds = self.scheme_bounds
        for word in (self.u, self.v):
            if not isinstance(word, tuple):
                raise TypeError("words must be tuples of signed letters")
            # free_reduce refuses a letter out of range, or not an int
            if free_reduce(word, bounds) != word:
                raise ValueError("presentation words must be freely reduced")

    @property
    def scheme_bounds(self) -> WeightScheme:
        """A scheme with the right alphabet; e defaults to 1 here."""
        return WeightScheme(self.m, self.n, 1)


class HypothesisReport(Record):
    accepted: bool
    inconclusive: bool
    d: int | None
    rho: LieElement | None
    content: int | None
    chosen_e: int | None
    failures: tuple[str, ...]
    cutoff: int


# without a cutoff, u is embedded at the windows 4, 8 and 12 at most
_UNCAPPED_CUTOFF = 12


def _leading_form(word: Word, scheme: WeightScheme,
                  cutoff: int) -> tuple[int, int, LieElement]:
    """The first of the windows 4, 8, 16, ..., cutoff that resolves the
    degree, with ``leading_lie_form`` there: the embedding grows fast
    with its window, and a degree far below the cutoff shows in a small
    one."""
    window = min(4, cutoff)
    while True:
        try:
            return (window, *leading_lie_form(word, scheme, window))
        except DegreeAboveCutoff:
            if window == cutoff:
                raise
            window = min(2 * window, cutoff)


def check_relator_hypotheses(pres: Presentation,
                             cutoff: int | None = None) -> HypothesisReport:
    """Decide the gate conditions at the given certification cutoff.

    A cutoff too small to certify the degree of u yields an inconclusive
    report, which is distinct from a rejection: truncation never turns
    into a mathematical verdict.  u is embedded at the windows 4, 8,
    ..., up to the cutoff, stopping at the first that resolves its
    degree.  Without a cutoff the windows stop at 12, and the report's
    cutoff is the window that decided: 4 when u is never embedded, 12
    when its degree is not resolved there.
    """
    if cutoff is not None and cutoff < 1:
        raise ValueError("cutoff must be positive")
    limit = _UNCAPPED_CUTOFF if cutoff is None else cutoff
    window = min(4, limit)
    failures: list[str] = []
    inconclusive = False
    bounds = pres.scheme_bounds

    u_in_a = only_x_letters(pres.u, bounds)
    v_in_b = only_y_letters(pres.v, bounds)
    if not pres.u:
        failures.append("u is the trivial word")
    elif not u_in_a:
        failures.append("u must use only x-generators")
    if not pres.v:
        failures.append("v is the trivial word")
    elif not v_in_b:
        failures.append("v must use only y-generators")

    d = None
    rho = None
    content = None
    chosen_e = pres.e
    if pres.u and u_in_a:
        # x-only words never meet a y-letter, so any e gives the same
        # degree; this x-scheme degree is the lower central degree of u.
        x_scheme = WeightScheme(pres.m, 0, 1)
        try:
            window, d, rho_x = _leading_form(pres.u, x_scheme, limit)
        except DegreeAboveCutoff:
            inconclusive = True
            window = limit
            failures.append(
                f"degree of u not certified at cutoff {limit}: "
                f"inconclusive, raise the cutoff")
        else:
            content = rho_x.content()
            if content != 1:
                failures.append(
                    f"leading form of u has content {content}: u is a proper "
                    f"power modulo the next lower central term")
            if chosen_e is None:
                chosen_e = d + 1
            elif chosen_e <= d:
                failures.append(
                    f"e = {chosen_e} must exceed the degree d = {d} of u")
            full_scheme = WeightScheme(pres.m, pres.n, chosen_e)
            rho = rho_x.with_scheme(full_scheme)

    return HypothesisReport(
        accepted=not failures,
        inconclusive=inconclusive,
        d=d,
        rho=rho,
        content=content,
        chosen_e=chosen_e,
        failures=tuple(failures),
        cutoff=window if cutoff is None else cutoff,
    )
