"""The word grammar's parser against the recursive parser it replaced,
on deep nesting, on integers, and through presentation files and the CLI."""

import json
import re
import time
from random import Random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from magnuslie import (EXIT_USAGE, PresentationSyntaxError, WeightScheme,
                       WordSyntaxError, group_commutator,
                       parse_presentation_file, parse_word)
from magnuslie.cli import main
from magnuslie.words import (MAX_POWER_LENGTH, MAX_WORD_LETTERS, free_reduce,
                             invert_word, word_multiply)

S213 = WeightScheme(2, 1, 3)


class ReferenceParser:
    """The recursive descent parser that ``parse_word`` replaced, kept as
    the oracle: every text must give the same word or the same error."""

    TOKEN_RE = re.compile(r"\s*(?:(?P<name>[xy]\d+)|(?P<power>\^-?\d+)"
                          r"|(?P<one>1)|(?P<punct>[\[\](),]))")

    def __init__(self, text: str, scheme: WeightScheme):
        self.text = text
        self.scheme = scheme
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            match = self.TOKEN_RE.match(text, pos)
            if match is None:
                rest = text[pos:].lstrip()
                if not rest:
                    break
                column = len(text) - len(rest)
                raise WordSyntaxError(f"unexpected character {rest[0]!r}", column)
            for kind in ("name", "power", "one", "punct"):
                value = match.group(kind)
                if value is not None:
                    self.tokens.append((kind, value, match.start(kind)))
                    break
            pos = match.end()
        self.index = 0

    def peek(self):
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return (None, None, len(self.text))

    def advance(self):
        token = self.peek()
        self.index += 1
        return token

    def parse(self):
        word = self.parse_word()
        kind, value, column = self.peek()
        if kind is not None:
            raise WordSyntaxError(f"unexpected {value!r}", column)
        return word

    def parse_word(self):
        out = ()
        while True:
            kind, value, _ = self.peek()
            if kind is None or (kind == "punct" and value in ",])"):
                return out
            out = word_multiply(out, self.parse_factor())

    def parse_factor(self):
        base = self.parse_atom()
        kind, value, column = self.peek()
        if kind == "power":
            self.advance()
            exponent = int(value[1:])
            if abs(exponent) * len(base) > MAX_POWER_LENGTH:
                raise WordSyntaxError(
                    f"power {value} of a word of length {len(base)} exceeds "
                    f"{MAX_POWER_LENGTH} letters", column)
            if exponent < 0:
                base = invert_word(base)
            return free_reduce(base * abs(exponent), self.scheme)
        return base

    def parse_atom(self):
        kind, value, column = self.advance()
        if kind == "one":
            return ()
        if kind == "name":
            letter = value[0]
            idx = int(value[1:])
            if letter == "x":
                if not 1 <= idx <= self.scheme.m:
                    raise WordSyntaxError(
                        f"generator {value} out of range (m={self.scheme.m})", column)
                return (idx,)
            if not 1 <= idx <= self.scheme.n:
                raise WordSyntaxError(
                    f"generator {value} out of range (n={self.scheme.n})", column)
            return (self.scheme.m + idx,)
        if kind == "punct" and value == "(":
            inner = self.parse_word()
            kind, value, column = self.advance()
            if value != ")":
                raise WordSyntaxError("expected ')'", column)
            return inner
        if kind == "punct" and value == "[":
            start = column
            first = self.parse_word()
            kind, value, column = self.advance()
            if value != ",":
                raise WordSyntaxError("expected ',' inside commutator", column)
            second = self.parse_word()
            kind, value, column = self.advance()
            if value != "]":
                raise WordSyntaxError("expected ']'", column)
            if 2 * (len(first) + len(second)) > MAX_POWER_LENGTH:
                raise WordSyntaxError(
                    f"commutator of words of lengths {len(first)} and "
                    f"{len(second)} exceeds {MAX_POWER_LENGTH} letters", start)
            return group_commutator(first, second)
        if kind is None:
            raise WordSyntaxError("unexpected end of word", column)
        raise WordSyntaxError(f"unexpected {value!r}", column)


def _outcome(parse, text):
    try:
        return parse(text)
    except WordSyntaxError as ex:
        return ("error", str(ex), ex.column)


_LETTERS = ["x1", "x2", "y1", "1"]
_POWERS = ["^2", "^-1", "^0", "^3", "^-3", "^12"]
_JUNK = ["(", ")", "[", "]", ",", " ", "^", "x", "y", "z", ";", "^2", "^6000",
         "x1", "x3", "y2", "1"]


def _valid_text(rng: Random, depth: int, budget: list) -> str:
    """A text of the grammar, nested at most ``depth`` deeper, with at
    most ``budget[0]`` more factors."""
    pieces = []
    for _ in range(rng.randrange(1, 4)):
        budget[0] -= 1
        roll = rng.random() if depth and budget[0] > 0 else 1.0
        if roll < 0.3:
            atom = "(" + _valid_text(rng, depth - 1, budget) + ")"
        elif roll < 0.6:
            atom = ("[" + _valid_text(rng, depth - 1, budget) + ","
                    + _valid_text(rng, depth - 1, budget) + "]")
        else:
            atom = rng.choice(_LETTERS)
        if rng.random() < 0.3:
            atom += rng.choice(_POWERS)
        pieces.append(atom)
    return rng.choice([" ", "", "  "]).join(pieces)


def _random_text(rng: Random) -> str:
    depth = rng.randrange(41)
    inner = min(depth, 6)
    text = _valid_text(rng, inner, [rng.randrange(1, 40)])
    for _ in range(depth - inner):
        roll = rng.random()
        if roll < 0.8:
            text = "(" + text + ")"
        elif roll < 0.9:
            text = "[" + text + "," + rng.choice(_LETTERS[:3]) + "]"
        else:
            text = "[" + rng.choice(_LETTERS[:3]) + "," + text + "]"
    if rng.random() < 0.5:
        for _ in range(rng.randrange(1, 4)):
            at = rng.randrange(len(text) + 1)
            if rng.random() < 0.5 and text:
                text = text[:at] + text[at + 1:]
            else:
                text = text[:at] + rng.choice(_JUNK) + text[at:]
    return text


# one text for each error the grammar raises, ahead of the random ones
_ERROR_TEXTS = ["x1 )", "x1 ]", "x1 , x2", "^2 x1", "x1^2^3", "(x1", "(x1]",
                "[x1", "[x1)", "[x1, x2", "[x1, x2, x1]", "x3 ) z", "x1^", "y2",
                "x1^12000 x2", "[[x1,x2]^1300, x1]"]


def test_parse_word_matches_the_recursive_reference():
    rng = Random(20261020)
    texts = _ERROR_TEXTS + [_random_text(rng) for _ in range(2500)]
    parsed = errors = 0
    for text in texts:
        expected = _outcome(lambda t: ReferenceParser(t, S213).parse(), text)
        assert _outcome(lambda t: parse_word(t, S213), text) == expected, text
        if expected[:1] == ("error",):
            errors += 1
        else:
            parsed += 1
    # both sides of the grammar are exercised, the letter bounds among them
    assert parsed > 500 and errors > 500


def test_deep_parentheses_parse():
    depth = 5000
    assert parse_word("(" * depth + "x1 x2" + ")" * depth, S213) == (1, 2)
    text = "(" * depth + "[x1,x2]" + ")^-1" + ")" * (depth - 1)
    assert parse_word(text, S213) == (2, 1, -2, -1)


def test_a_flat_word_parses_in_linear_time():
    # each factor extends its group's product in place; a product rebuilt
    # per factor took 0.8 s at 16,000 letters and grew fourfold per doubling
    text = " ".join(("x1", "y1", "x2^-1")[k % 3] for k in range(200_000))
    start = time.perf_counter()
    word = parse_word(text, S213)
    assert time.perf_counter() - start < 5.0
    assert word == (1, 3, -2) * (200_000 // 3) + (1, 3)


def test_nested_groups_parse_in_linear_time():
    # a closed group's word becomes its parent's factor without a copy,
    # and a merge reads only the shorter side: copying each group's word
    # into its parent took 0.77 s at 2,000 levels around 5,000 letters
    letters = " ".join(("x1", "y1", "x2^-1")[k % 3] for k in range(5000))
    depth = 20_000
    interleaved = "".join(f"x{1 + k % 2} (" for k in range(depth)) + ")" * depth
    start = time.perf_counter()
    around = parse_word("(" * depth + letters + ")" * depth, S213)
    inside = parse_word(interleaved, S213)
    assert time.perf_counter() - start < 5.0
    assert around == (1, 3, -2) * 1666 + (1, 3)
    assert inside == (1, 2) * (depth // 2)


def test_a_word_at_the_letter_bound_parses():
    # each x1^9999 counts its name and the 9,999 letters of its power
    text = "x1^9999 " * (MAX_WORD_LETTERS // 10_000)
    assert parse_word(text, S213) == (1,) * (MAX_WORD_LETTERS // 10_000 * 9999)
    with pytest.raises(WordSyntaxError) as err:
        parse_word(text + "x2", S213)
    assert err.value.column == len(text)
    assert str(err.value) == (f"the word spells more than {MAX_WORD_LETTERS} "
                              f"letters (column {len(text)})")


@pytest.mark.parametrize("relator, column", [
    # 10,002 letters a factor: the 100th power crosses the bound
    ("(x1 x2)^5000 " * 1000, 99 * 13 + 7),
    # 10,006 letters a factor: the 100th commutator's power crosses it
    ("[x1, x2]^2500 " * 400, 99 * 14 + 8),
])
def test_a_word_past_the_letter_bound_ends_in_exit_4(tmp_path, capsys, relator,
                                                     column):
    path = tmp_path / "long.pres"
    path.write_text(_presentation(relator))
    start = time.perf_counter()
    assert main(["--input", str(path), "--check", "gate"]) == EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.endswith(
        f"the word spells more than {MAX_WORD_LETTERS} letters "
        f"(line 3, column {len('relator: ') + column + 1})\n")


def _deep_brackets(depth):
    return "[" * depth + "x1" + ",x2]" * depth


def test_deep_brackets_stop_at_the_letter_bound():
    # the innermost commutator closes first; twelve levels fit, and the
    # thirteenth '[' from the inside opens the first one past the bound
    depth = 3000
    start = time.perf_counter()
    with pytest.raises(WordSyntaxError) as err:
        parse_word(_deep_brackets(depth), S213)
    assert time.perf_counter() - start < 1.0
    assert err.value.column == depth - 13
    assert "exceeds 10000 letters" in str(err.value)


def _presentation(u):
    return f"generators x: 2\ngenerators y: 1\nrelator: {u} = y1\n"


def test_cli_deep_brackets_end_in_one_syntax_error(tmp_path, capsys):
    path = tmp_path / "brackets.pres"
    path.write_text(_presentation(_deep_brackets(3000)))
    assert main(["--input", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "exceeds 10000 letters" in captured.err
    # the thirteenth '[' from the inside, in the line's frame alone
    assert captured.err.endswith("letters (line 3, column 2997)\n")
    assert "(column" not in captured.err


def test_cli_deep_parentheses_reach_the_gate(tmp_path, capsys):
    reports = []
    for name, u in (("flat", "[x1,x2]"),
                    ("deep", "(" * 5000 + "[x1,x2]" + ")" * 5000)):
        path = tmp_path / f"{name}.pres"
        path.write_text(_presentation(u))
        out = tmp_path / f"{name}.json"
        code = main(["--input", str(path), "--samples", "10",
                     "--json-out", str(out)])
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(out.read_text())
        del payload["meta"]
        reports.append((code, payload))
    assert reports[0] == reports[1]
    assert reports[0][0] == 0


@pytest.mark.parametrize("text", ["x１", "x1^２", "y١"],
                         ids=["full-width-index", "full-width-power", "arabic-indic-index"])
def test_only_ascii_digits_are_digits(text):
    with pytest.raises(WordSyntaxError) as err:
        parse_word(text, S213)
    assert "unexpected character" in str(err.value)


def test_a_full_width_generator_count_is_not_read():
    with pytest.raises(PresentationSyntaxError) as err:
        parse_presentation_file("generators x: ２\ngenerators y: 1\n"
                                "relator: [x1,x2] = y1\n")
    assert err.value.line == 1


LONG = "1" * 5000


@pytest.mark.parametrize("text, column", [
    (f"x2 x1^{LONG}", 5), (f"x2 x1^-{LONG}", 5), (f"1^{LONG}", 1),
    (f"x2 x{LONG}", 3), (f"[x1, y{LONG}]", 5),
], ids=["power", "negative-power", "power-of-one", "x-index", "y-index"])
def test_an_over_long_integer_in_a_word_is_a_syntax_error(text, column):
    with pytest.raises(WordSyntaxError) as err:
        parse_word(text, S213)
    assert err.value.column == column
    assert "too many digits" in str(err.value)


def test_integers_below_the_conversion_limit_read_as_before():
    digits = "0" * 4000 + "2"
    assert parse_word(f"x1^{digits} x2", S213) == (1, 1, 2)
    assert parse_word(f"x{digits}", S213) == (2,)
    parsed = parse_presentation_file(f"generators x: {digits}\ngenerators y: 1\n"
                                     "relator: [x1,x2] = y1\n")
    assert parsed.presentation.m == 2


@pytest.mark.parametrize("line", [
    f"generators x: {LONG}", f"generators y: {LONG}", f"e: {LONG}",
    f"max_degree: -{LONG}",
], ids=["generators-x", "generators-y", "e", "max-degree"])
def test_an_over_long_integer_line_is_a_syntax_error(line):
    # the line is read, and refused, before any line after it
    with pytest.raises(PresentationSyntaxError) as err:
        parse_presentation_file(f"# first\n{line}\n" + _presentation("[x1,x2]"))
    assert err.value.line == 2
    assert "too many digits" in str(err.value)


def test_an_over_long_integer_in_a_relator_names_its_line():
    with pytest.raises(PresentationSyntaxError) as err:
        parse_presentation_file(_presentation(f"x1^{LONG}"))
    assert (err.value.line, err.value.column) == (3, 12)
    assert str(err.value) == "in u: integer has too many digits (line 3, column 12)"


@pytest.mark.parametrize("relator, column, token", [
    ("  [x1,x2] x3 = y1", 20, "x3"), ("y1 = [x1,  x9]", 21, "x9"),
    ("\t x1 x3=y1", 15, "x3"), ("x1 =\tx1 x3", 18, "x3"),
], ids=["u", "v", "u-after-a-tab", "v-after-a-tab"])
def test_a_word_error_names_one_column_of_its_line(relator, column, token):
    text = f"generators x: 2\ngenerators y: 1\nrelator: {relator}\n"
    with pytest.raises(PresentationSyntaxError) as err:
        parse_presentation_file(text)
    assert (err.value.line, err.value.column) == (3, column)
    assert str(err.value).endswith(f"out of range (m=2) (line 3, column {column})")
    line = text.splitlines()[2]
    assert line[column - 1:].startswith(token)


_PRESENTATION_PIECES = st.sampled_from([
    "generators x: ", "generators y: ", "relator: ", "e: ", "max_degree: ",
    "1", "2", "3", "0", "-1", "12", "=", " = ", "\n", "#", " ", "x1", "x2",
    "x3", "y1", "y2", "^2", "^-1", "^4000", "[", "]", "(", ")", ",", ":",
    "z", "２", LONG,
])


@settings(max_examples=300, deadline=None)
@given(st.lists(_PRESENTATION_PIECES, max_size=40))
def test_presentation_parsing_raises_only_value_errors(pieces):
    text = "".join(pieces)
    try:
        parse_presentation_file(text)
    except ValueError:
        pass
