"""Smoke tests for the scripts under scripts/, run in process."""

import runpy
import shutil
import sys
from pathlib import Path

import pytest

import magnuslie
from magnuslie import (WeightScheme, ideal_component, leading_lie_form,
                       lyndon_words, parse_word, witt_dimensions)

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def run_script(name, args, monkeypatch):
    monkeypatch.setattr(sys, "argv", [name] + args)
    with pytest.raises(SystemExit) as ex:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return ex.value.code


def test_run_corpus_meets_every_expected_exit(monkeypatch, capsys):
    assert run_script("run_corpus.py", ["--samples", "20"], monkeypatch) == 0
    assert "UNEXPECTED" not in capsys.readouterr().out


def test_run_corpus_prints_the_cli_summary_of_each_file(monkeypatch, capsys):
    assert run_script("run_corpus.py", ["--samples", "5"], monkeypatch) == 0
    blocks = capsys.readouterr().out.split("=== ")[1:]
    assert [block.split(" ===")[0] for block in blocks] == sorted(
        path.name for path in (ROOT / "presentations").glob("*.pres"))
    for block in blocks:
        lines = block.splitlines()
        assert lines[1].startswith("gate: ")
        exit_line = next(line for line in lines if line.startswith("exit code: "))
        code = exit_line.removeprefix("exit code: ")
        assert lines[lines.index(exit_line) + 1].startswith(
            f"exit {code} (expected {code}) ok in ")


def test_dumped_matrices_match_ideal_components(tmp_path, monkeypatch, capsys):
    args = ["--m", "2", "--n", "1", "--e", "3", "--relator", "[x1,x2]",
            "--max-degree", "7", "--dump-matrices", str(tmp_path)]
    assert run_script("dimension_table.py", args, monkeypatch) == 0
    capsys.readouterr()
    scheme = WeightScheme(2, 1, 3)
    degree, rho = leading_lie_form(parse_word("[x1,x2]", scheme), scheme, 7)
    for n in range(degree, 8):
        dumped = (tmp_path / f"ideal_degree_{n}.txt").read_text()
        basis = lyndon_words(scheme, n)
        assert dumped == "\n".join(" ".join(str(row.get(w, 0)) for w in basis)
                                   for row in ideal_component(rho, n)) + "\n"
    assert len(list(tmp_path.iterdir())) == 8 - degree


def test_only_the_free_table_counts_dimensions(tmp_path, monkeypatch, capsys):
    # the relator's table and dump take each degree's column count from
    # the certificate instead of counting up to the cap first
    counted = []

    def spy(scheme, up_to):
        counted.append(up_to)
        return witt_dimensions(scheme, up_to)

    monkeypatch.setattr(magnuslie, "witt_dimensions", spy)
    args = ["--m", "2", "--n", "1", "--e", "3", "--max-degree", "7"]
    assert run_script("dimension_table.py", args + ["--relator", "[x1,x2]",
                      "--dump-matrices", str(tmp_path)], monkeypatch) == 0
    assert counted == [] and len(list(tmp_path.iterdir())) == 6
    assert run_script("dimension_table.py", args, monkeypatch) == 0
    assert counted == [7]
    assert capsys.readouterr().out.endswith("  degree 7: 36\n")


def test_a_dimension_too_long_to_print_ends_the_table_before_it_starts(
        monkeypatch, capsys):
    # over (2,1,3) degree 12530 is the first whose dimension has more
    # digits than str() takes at the interpreter's default limit, 4300
    args = ["--m", "2", "--n", "1", "--e", "3", "--max-degree"]
    assert run_script("dimension_table.py", args + ["20000"], monkeypatch) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("dimension_table.py: error: the dimension at degree 12530 has "
                   "more than 4300 digits, too many to print\n")
    assert run_script("dimension_table.py", args + ["12500"], monkeypatch) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.count("\n") == 12501


def test_a_dump_directory_that_cannot_be_made_ends_the_run_first(
        tmp_path, monkeypatch, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    args = ["--m", "2", "--relator", "[x1,x2]", "--max-degree", "6",
            "--dump-matrices", str(blocker / "out")]
    assert run_script("dimension_table.py", args, monkeypatch) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("dimension_table.py: error: ")


def test_the_torsion_column_counts_each_invariant(monkeypatch, capsys):
    args = ["--m", "2", "--n", "1", "--e", "3", "--relator", "[x1,x2]^2",
            "--max-degree", "6"]
    assert run_script("dimension_table.py", args, monkeypatch) == 2
    rows = capsys.readouterr().out.splitlines()[2:8]
    # the fifth column, right-aligned in 12 characters
    assert [row[26:38].strip() for row in rows] == ["none"] + [
        f"2 x {count}" for count in (1, 2, 3, 7, 13)]


@pytest.mark.parametrize("args, exit_code, message", [
    # the embedding of the relator trips words.MAX_EMBED_LETTERS; its
    # exponent sums are all zero, so it is embedded at the full cap
    (["--m", "2", "--relator", "[x1^-1,x2^-1]",
      "--max-degree", "2000"], 3, "would store up to"),
    # the relator's degree 3 lies above the cap
    (["--m", "2", "--relator", "[[x1,x2],x1]", "--max-degree", "2"], 3,
     "exceeds the cutoff 2"),
    (["--m", "2", "--relator", "[x1,x3"], 4, "x3 out of range"),
    # the ideal budget stops the table after degree 13
    (["--m", "2", "--n", "1", "--e", "3", "--relator", "[x1,x2]",
      "--max-degree", "16"], 3, "budget exceeded at degree 14"),
    # series.MAX_LETTERS bounds m + n: one letter fewer reaches the budget
    (["--m", "99999", "--n", "1", "--e", "3", "--relator", "[x1,x2]",
      "--max-degree", "4"], 3, "budget exceeded at degree 2"),
    (["--m", "100000", "--n", "1"], 4, "100001 letters exceed the limit of 100000"),
])
def test_dimension_table_ends_in_one_line_and_an_exit_code(
        args, exit_code, message, monkeypatch, capsys):
    assert run_script("dimension_table.py", args, monkeypatch) == exit_code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("dimension_table.py: ")
    assert message in err


@pytest.mark.parametrize("name, args", [
    ("dimension_table.py", ["--m", "x"]),
    ("run_corpus.py", ["--bogus"]),
])
def test_usage_errors_exit_4(name, args, monkeypatch, capsys):
    assert run_script(name, args, monkeypatch) == 4
    assert f"{name}: error:" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    # RunConfig refuses the sample count
    (["--samples", "-1"], "sample count must be nonnegative"),
    (["--directory", "/nonexistent", "--samples", "1"], "No such file"),
])
def test_run_corpus_errors_end_in_one_line_and_exit_4(
        args, message, monkeypatch, capsys):
    assert run_script("run_corpus.py", args, monkeypatch) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("run_corpus.py: error: ")
    assert message in err


def test_run_corpus_unexpected_exit_is_a_failed_check(tmp_path, monkeypatch, capsys):
    # a corpus whose first file is the rejected square power
    directory = tmp_path / "presentations"
    shutil.copytree(ROOT / "presentations", directory)
    shutil.copy(directory / "square_power.pres", directory / "commutator_basic.pres")
    args = ["--samples", "1", "--directory", str(directory)]
    assert run_script("run_corpus.py", args, monkeypatch) == 2
    assert "exit 1 (expected 0) UNEXPECTED" in capsys.readouterr().out
