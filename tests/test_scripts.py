"""Smoke tests for the scripts under scripts/, run in process."""

import runpy
import sys
from pathlib import Path

import pytest

from magnuslie import WeightScheme, ideal_component, leading_lie_form, parse_word

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, args, monkeypatch):
    monkeypatch.setattr(sys, "argv", [name] + args)
    with pytest.raises(SystemExit) as ex:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return ex.value.code


def test_run_corpus_meets_every_expected_exit(monkeypatch, capsys):
    assert run_script("run_corpus.py", ["--samples", "20"], monkeypatch) == 0
    assert "UNEXPECTED" not in capsys.readouterr().out


def test_dumped_matrices_match_ideal_components(tmp_path, monkeypatch, capsys):
    args = ["--m", "2", "--n", "1", "--e", "3", "--relator", "[x1,x2]",
            "--max-degree", "7", "--dump-matrices", str(tmp_path)]
    assert run_script("dimension_table.py", args, monkeypatch) == 0
    capsys.readouterr()
    scheme = WeightScheme(2, 1, 3)
    degree, rho = leading_lie_form(parse_word("[x1,x2]", scheme), scheme, 7)
    for n in range(degree, 8):
        dumped = (tmp_path / f"ideal_degree_{n}.txt").read_text()
        assert dumped == ideal_component(rho, n, scheme).matrix_text() + "\n"
    assert len(list(tmp_path.iterdir())) == 8 - degree


@pytest.mark.parametrize("args, exit_code, message", [
    # the embedding of the relator trips words.MAX_EMBED_LETTERS
    (["--m", "2", "--relator", "x1^-1 x2^-1 x1^-1 x2^-1",
      "--max-degree", "2000"], 3, "would store up to"),
    # the relator's degree 3 lies above the cap
    (["--m", "2", "--relator", "[[x1,x2],x1]", "--max-degree", "2"], 3,
     "exceeds the cutoff 2"),
    (["--m", "2", "--relator", "[x1,x3"], 4, "x3 out of range"),
    # the ideal budget stops the table after degree 13
    (["--m", "2", "--n", "1", "--e", "3", "--relator", "[x1,x2]",
      "--max-degree", "16"], 3, "budget exceeded at degree 14"),
])
def test_dimension_table_ends_in_one_line_and_an_exit_code(
        args, exit_code, message, monkeypatch, capsys):
    assert run_script("dimension_table.py", args, monkeypatch) == exit_code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("dimension_table.py: ")
    assert message in err
