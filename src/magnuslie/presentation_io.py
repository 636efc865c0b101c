"""Line-oriented presentation files.

Grammar (one item per line, '#' starts a comment):

    generators x: <m>
    generators y: <n>
    relator: <word> = <word>
    e: <int>            (optional)
    max_degree: <int>   (optional)

Words follow the word grammar: x1, y2, ^k powers, [a, b] commutators,
parentheses, juxtaposition, 1 for the identity.  Range violations are
parse errors with a position; membership of u and v in the right factor
is a gate matter, not a parse matter.
"""

from __future__ import annotations

import re

from .gate import Presentation
from .record import Record
from .series import WeightScheme
from .words import WordSyntaxError, parse_word


class PresentationSyntaxError(ValueError):
    def __init__(self, message: str, line: int, column: int | None = None):
        location = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{message} ({location})")
        self.line = line
        self.column = column


_INT_LINE = re.compile(r"^(generators\s+x|generators\s+y|e|max_degree)\s*:\s*(-?[0-9]+)\s*$")
_RELATOR_LINE = re.compile(r"^\s*relator\s*:\s*(.*)$")


class PresentationFile(Record):
    presentation: Presentation
    max_degree: int | None


def parse_presentation_file(text: str) -> PresentationFile:
    values: dict[str, int] = {}
    # the relator's line, and each side's text with its 0-based column
    relator: tuple | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        match = _INT_LINE.match(stripped)
        if match:
            key = re.sub(r"\s+", " ", match.group(1))
            try:
                value = int(match.group(2))
            except ValueError:  # more digits than int converts
                raise PresentationSyntaxError(
                    f"{key} has too many digits", lineno) from None
            if key in values:
                raise PresentationSyntaxError(f"duplicate '{key}' line", lineno)
            if value < 1:
                raise PresentationSyntaxError(f"{key} must be positive", lineno)
            values[key] = value
            continue
        match = _RELATOR_LINE.match(line)
        if match:
            if relator is not None:
                raise PresentationSyntaxError("duplicate 'relator' line", lineno)
            body = match.group(1)
            if body.count("=") != 1:
                raise PresentationSyntaxError(
                    "relator line needs exactly one '='", lineno)
            left, right = body.split("=")
            relator = lineno, ((left.strip(), match.start(1)),
                               (right.strip(), match.end(1) - len(right.strip())))
            continue
        raise PresentationSyntaxError(f"cannot read line {stripped!r}", lineno)

    for key in ("generators x", "generators y"):
        if key not in values:
            raise PresentationSyntaxError(f"missing '{key}' line", 0)
    if relator is None:
        raise PresentationSyntaxError("missing 'relator' line", 0)

    m = values["generators x"]
    n = values["generators y"]
    scheme = WeightScheme(m, n, 1)
    sides = []
    for name, (side, at) in zip("uv", relator[1]):
        try:
            sides.append(parse_word(side, scheme))
        except WordSyntaxError as ex:
            # one column: the line's, 1-based, not the word's offset
            raise PresentationSyntaxError(f"in {name}: {ex.message}", relator[0],
                                          at + ex.column + 1) from ex
    u, v = sides
    presentation = Presentation(m=m, n=n, u=u, v=v, e=values.get("e"))
    return PresentationFile(presentation=presentation,
                            max_degree=values.get("max_degree"))


def parse_presentation(text: str) -> Presentation:
    """The presentation alone; any max_degree line is allowed and ignored."""
    return parse_presentation_file(text).presentation
