import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from magnuslie import (EXIT_CHECK_FAILED, EXIT_GATE_REJECTED,
                       EXIT_INCONCLUSIVE, EXIT_OK, EXIT_USAGE, Presentation,
                       PresentationSyntaxError, RunConfig,
                       parse_presentation, parse_presentation_file,
                       report_to_json, run_report)
from magnuslie import cli
from magnuslie.cli import main

ACCEPTED = """\
# weight override included
generators x: 2
generators y: 1
relator: [x1,x2] = y1
e: 3
"""

SQUARE = """\
generators x: 1
generators y: 1
relator: x1^2 = y1
"""

TRIVIAL_V = """\
generators x: 2
generators y: 1
relator: [x1,x2] = 1
"""


def test_parse_presentation_full_file():
    pres = parse_presentation(ACCEPTED)
    assert pres == Presentation(m=2, n=1, u=(1, 2, -1, -2), v=(3,), e=3)


def test_parse_presentation_without_e():
    pres = parse_presentation(SQUARE)
    assert pres == Presentation(m=1, n=1, u=(1, 1), v=(2,), e=None)


def test_parse_presentation_range_error():
    bad = "generators x: 2\ngenerators y: 1\nrelator: [x1,x3] = y1\n"
    with pytest.raises(PresentationSyntaxError) as err:
        parse_presentation(bad)
    assert err.value.line == 3


def test_parse_presentation_max_degree_and_comments():
    text = ACCEPTED + "max_degree: 5  # cap\n"
    parsed = parse_presentation_file(text)
    assert parsed.max_degree == 5


def test_parse_presentation_structural_errors():
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("generators x: 2\nrelator: x1 = y1\n")
    with pytest.raises(PresentationSyntaxError):
        parse_presentation(ACCEPTED + "e: 4\n")
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("generators x: 1\ngenerators y: 1\nwhat: 3\n")
    with pytest.raises(PresentationSyntaxError):
        parse_presentation(
            "generators x: 1\ngenerators y: 1\nrelator: x1 = y1 = y1\n")


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _config(path, **kw):
    kw.setdefault("samples", 40)
    kw.setdefault("max_word_len", 8)
    return RunConfig(input_path=path, **kw)


def test_run_report_accepted(tmp_path):
    config = _config(_write(tmp_path, "ok.pres", ACCEPTED))
    report = run_report(config)
    assert report.exit_code == EXIT_OK
    assert report.gate.accepted
    assert report.torsion.torsion_free
    assert report.hilbert.all_match
    assert report.modp.all_match
    assert report.floor_bound.passed
    assert report.magnus_e1.passed
    assert report.max_degree == 8  # d + 6


def test_run_report_rejected(tmp_path):
    config = _config(_write(tmp_path, "square.pres", SQUARE))
    report = run_report(config)
    assert report.exit_code == EXIT_GATE_REJECTED
    assert report.torsion is None
    assert "torsion" in report.skip_reasons


def test_run_report_forced_downstream(tmp_path):
    config = _config(_write(tmp_path, "square.pres", SQUARE),
                     force_downstream=True)
    report = run_report(config)
    assert report.exit_code == EXIT_GATE_REJECTED
    assert report.torsion is not None
    assert not report.torsion.torsion_free
    assert report.torsion.degrees[0].torsion == (2,)
    payload = json.loads(report_to_json(report))
    assert payload["torsion"]["hypotheses_met"] is False


def test_run_report_trivial_v(tmp_path):
    config = _config(_write(tmp_path, "trivial.pres", TRIVIAL_V))
    report = run_report(config)
    assert report.exit_code == EXIT_GATE_REJECTED


def test_run_report_inconclusive(tmp_path):
    config = _config(_write(tmp_path, "ok.pres", ACCEPTED), max_degree=1)
    report = run_report(config)
    assert report.exit_code == EXIT_INCONCLUSIVE
    assert report.gate.inconclusive


def test_run_report_check_selection(tmp_path):
    config = _config(_write(tmp_path, "ok.pres", ACCEPTED),
                     checks=("gate", "floor-bound"))
    report = run_report(config)
    assert report.exit_code == EXIT_OK
    assert report.torsion is None
    assert report.floor_bound is not None
    assert report.magnus_e1 is None
    assert report.skip_reasons["torsion"] == "not selected"


def test_check_selection_exit_codes(tmp_path):
    square = _write(tmp_path, "square.pres", SQUARE)
    # a rejected gate does not fail a run that only selected the floor bound
    report = run_report(_config(square, checks=("floor-bound",)))
    assert not report.gate.accepted
    assert report.exit_code == EXIT_OK
    # but it blocks a selected quotient check
    report = run_report(_config(square, checks=("torsion",)))
    assert report.exit_code == EXIT_GATE_REJECTED
    # unless forced, in which case the found torsion is the verdict
    report = run_report(_config(square, checks=("torsion",),
                                force_downstream=True))
    assert report.exit_code == EXIT_CHECK_FAILED


def test_json_schema_and_integer_strings(tmp_path):
    config = _config(_write(tmp_path, "ok.pres", ACCEPTED))
    report = run_report(config)
    payload = json.loads(report_to_json(report))
    assert sorted(payload.keys()) == ["floor_bound", "gate", "hilbert", "magnus_e1",
                                      "meta", "modp", "presentation", "torsion"]
    assert payload["presentation"]["u"] == "x1 x2 x1^-1 x2^-1"
    assert payload["gate"]["d"] == "2"
    assert payload["gate"]["content"] == "1"
    assert payload["torsion"]["degrees"][0]["dim_free"] == "2"
    assert payload["meta"]["seed"] == "0"

    def no_bare_ints(node):
        if isinstance(node, bool):
            return
        assert not isinstance(node, int), f"bare integer {node!r} in JSON"
        if isinstance(node, dict):
            for value in node.values():
                no_bare_ints(value)
        elif isinstance(node, list):
            for value in node:
                no_bare_ints(value)

    for key, section in payload.items():
        if key == "meta":
            section = {k: v for k, v in section.items() if k != "timings"}
        no_bare_ints(section)


def test_json_round_trip(tmp_path):
    config = _config(_write(tmp_path, "ok.pres", ACCEPTED))
    report = run_report(config)
    text = report_to_json(report)
    payload = json.loads(text)
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == text


def test_reports_are_deterministic_modulo_timings(tmp_path):
    config = _config(_write(tmp_path, "ok.pres", ACCEPTED), seed=12)
    first = report_to_json(run_report(config), include_timings=False)
    second = report_to_json(run_report(config), include_timings=False)
    assert first == second
    other_seed = _config(str(tmp_path / "ok.pres"), seed=13)
    third = report_to_json(run_report(other_seed), include_timings=False)
    assert third != first


def test_cli_main_exit_codes(tmp_path, capsys):
    ok = _write(tmp_path, "ok.pres", ACCEPTED)
    out_path = str(tmp_path / "report.json")
    code = main(["--input", ok, "--samples", "30", "--json-out", out_path])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert "gate: accepted" in captured.out
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["meta"]["exit_code"] == "0"

    square = _write(tmp_path, "square.pres", SQUARE)
    assert main(["--input", square, "--samples", "10"]) == EXIT_GATE_REJECTED
    capsys.readouterr()

    assert main(["--input", ok, "--samples", "10", "--max-degree", "1"]) \
        == EXIT_INCONCLUSIVE
    capsys.readouterr()

    assert main(["--input", str(tmp_path / "missing.pres")]) == EXIT_USAGE
    assert main(["--input", ok, "--primes", "2,x"]) == EXIT_USAGE
    assert main(["--check", "nonsense", "--input", ok]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("target", ["missing/report.json", ""],
                         ids=["missing_directory", "a_directory"])
def test_an_unwritable_json_out_is_a_usage_error(tmp_path, capsys, target):
    ok = _write(tmp_path, "ok.pres", ACCEPTED)
    out_path = str(tmp_path / target)
    assert main(["--input", ok, "--samples", "10", "--json-out", out_path]) \
        == EXIT_USAGE
    captured = capsys.readouterr()
    assert "gate: accepted" in captured.out
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("magnuslie: error: ")
    assert out_path in captured.err


def test_the_timings_follow_the_check_order(tmp_path):
    ok = _write(tmp_path, "ok.pres", ACCEPTED)
    report = run_report(_config(ok))
    assert list(report.timings) == ["gate", "torsion", "hilbert", "modp",
                                    "floor_bound", "magnus_e1"]
    assert all(seconds > 0 for seconds in report.timings.values())


def test_import_loads_no_process_or_thread_module():
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    probe = ("import sys, magnuslie; print(sorted({'pickle', 'multiprocessing',"
             " 'subprocess', 'threading'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out == "[]\n"


@pytest.mark.parametrize("error", [MemoryError, RecursionError])
def test_cli_resource_errors_are_inconclusive(tmp_path, capsys, monkeypatch, error):
    def exhausted(config):
        raise error("simulated")

    monkeypatch.setattr(cli, "run_report", exhausted)
    ok = _write(tmp_path, "ok.pres", ACCEPTED)
    assert main(["--input", ok]) == EXIT_INCONCLUSIVE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and error.__name__ in captured.err


def test_cli_e_override(tmp_path, capsys):
    ok = _write(tmp_path, "ok.pres", ACCEPTED)
    code = main(["--input", ok, "--samples", "10", "--e", "2"])
    capsys.readouterr()
    # e = 2 equals d, violating the gate
    assert code == EXIT_GATE_REJECTED


def test_cli_primes_flag(tmp_path, capsys):
    ok = _write(tmp_path, "ok.pres", ACCEPTED)
    out_path = str(tmp_path / "p.json")
    code = main(["--input", ok, "--samples", "10", "--primes", "2,3,5",
                 "--json-out", out_path])
    capsys.readouterr()
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "p.json").read_text())
    assert payload["modp"]["primes"] == ["2", "3", "5"]
    assert payload["modp"]["all_match"] is True


@pytest.mark.parametrize("primes", ["4,9", "2,4", "1"])
def test_cli_rejects_non_primes(tmp_path, capsys, primes):
    ok = _write(tmp_path, "ok.pres", ACCEPTED)
    assert main(["--input", ok, "--samples", "10", "--primes", primes]) == EXIT_USAGE
    assert "is not a prime" in capsys.readouterr().err


def test_cli_accepts_large_prime_quickly(tmp_path, capsys):
    ok = _write(tmp_path, "ok.pres", ACCEPTED)
    start = time.perf_counter()
    assert RunConfig(input_path=ok, primes=(2 ** 61 - 1,)).primes == (2 ** 61 - 1,)
    assert time.perf_counter() - start < 0.5
    code = main(["--input", ok, "--samples", "10", "--check", "modp",
                 "--primes", str(2 ** 61 - 1)])
    assert "mod-p: match" in capsys.readouterr().out
    assert code == EXIT_OK


def test_cli_rejects_product_of_mersenne_primes_quickly(tmp_path, capsys):
    ok = _write(tmp_path, "ok.pres", ACCEPTED)
    product = (2 ** 31 - 1) * (2 ** 61 - 1)
    start = time.perf_counter()
    assert main(["--input", ok, "--primes", f"2,{product}"]) == EXIT_USAGE
    assert time.perf_counter() - start < 0.5
    assert "too large" in capsys.readouterr().err


def test_bad_config_values(tmp_path):
    ok = _write(tmp_path, "ok.pres", ACCEPTED)
    with pytest.raises(ValueError):
        RunConfig(input_path=ok, primes=(1,))
    with pytest.raises(ValueError):
        RunConfig(input_path=ok, primes=(2, 9))
    with pytest.raises(ValueError):
        RunConfig(input_path=ok, checks=("nope",))
    with pytest.raises(ValueError):
        RunConfig(input_path=ok, max_degree=0)
    with pytest.raises(ValueError, match="word length"):
        RunConfig(input_path=ok, max_word_len=-5)
    assert RunConfig(input_path=ok, max_word_len=0).max_word_len == 0


@pytest.mark.parametrize("primes, message", [
    ("", "no primes given"),
    (" , ", "no primes given"),
    ("2,2", "the prime 2 is repeated"),
    ("3,2,5,3", "the prime 3 is repeated"),
])
def test_cli_rejects_empty_or_repeated_primes(tmp_path, capsys, primes, message):
    ok = _write(tmp_path, "ok.pres", ACCEPTED)
    assert main(["--input", ok, "--samples", "10", "--primes", primes]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"magnuslie: error: {message}\n"


@pytest.mark.parametrize("primes", [(), (2, 2), (7, 5, 7)])
def test_config_rejects_empty_or_repeated_primes(tmp_path, primes):
    ok = _write(tmp_path, "ok.pres", ACCEPTED)
    with pytest.raises(ValueError):
        RunConfig(input_path=ok, primes=primes)


def test_negative_word_length_is_rejected_before_the_run(tmp_path, capsys, monkeypatch):
    def never(config):
        raise AssertionError("run_report must not be reached")

    monkeypatch.setattr(cli, "run_report", never)
    ok = _write(tmp_path, "ok.pres", ACCEPTED)
    assert main(["--input", ok, "--max-word-len", "-1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "word length" in captured.err


@pytest.mark.parametrize("length", ["10001", "100000000"])
def test_word_length_above_the_power_limit_is_rejected(tmp_path, capsys,
                                                       monkeypatch, length):
    def never(config):
        raise AssertionError("run_report must not be reached")

    monkeypatch.setattr(cli, "run_report", never)
    ok = _write(tmp_path, "ok.pres", ACCEPTED)
    assert main(["--input", ok, "--max-word-len", length, "--samples", "3",
                 "--check", "floor-bound"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("magnuslie: error: max word length must be between "
                            f"0 and 10000, got {length}\n")
    assert RunConfig(input_path=ok, max_word_len=10_000).max_word_len == 10_000


def test_commutator_basic_is_certified_through_degree_13(tmp_path, capsys):
    # degree 13 is 2291 x 2248 rows x columns, inside the default budget
    root = Path(__file__).resolve().parent.parent
    pres = root / "presentations" / "commutator_basic.pres"
    out_path = tmp_path / "report.json"
    code = main(["--input", str(pres), "--max-degree", "13", "--check", "torsion",
                 "--check", "hilbert", "--check", "modp", "--json-out", str(out_path)])
    assert code == EXIT_OK
    payload = json.loads(out_path.read_text())
    assert payload["torsion"]["torsion_free"] is True
    assert payload["torsion"]["aborted_degree"] is None
    assert [d["degree"] for d in payload["torsion"]["degrees"]] \
        == [str(n) for n in range(1, 14)]
    assert payload["hilbert"]["all_match"] is True
    assert payload["hilbert"]["max_degree"] == "13"
    assert payload["modp"]["all_match"] is True
    assert payload["modp"]["aborted_degree"] is None


def test_budget_flag_ends_in_the_abort_of_the_budget_golden(capsys):
    # the configuration of tests/data/commutator_basic_budget.json
    root = Path(__file__).resolve().parent.parent
    pres = root / "presentations" / "commutator_basic.pres"
    code = main(["--input", str(pres), "--budget", "2000", "--max-degree", "10",
                 "--samples", "10"])
    assert code == EXIT_INCONCLUSIVE
    out = capsys.readouterr().out
    assert "torsion-free up to degree 7\n  budget exceeded at degree 8" in out


def test_a_budget_that_admits_degree_14_certifies_it(tmp_path, capsys):
    # degree 14 needs 4768 x 4586 = 21,866,048 entries: past the default
    # budget, and past a budget one entry short of it
    root = Path(__file__).resolve().parent.parent
    pres = root / "presentations" / "commutator_basic.pres"
    out_path = tmp_path / "report.json"
    args = ["--input", str(pres), "--max-degree", "14", "--check", "torsion",
            "--check", "hilbert", "--check", "modp", "--json-out", str(out_path)]
    assert main(args + ["--budget", "21866047"]) == EXIT_INCONCLUSIVE
    assert "budget exceeded at degree 14" in capsys.readouterr().out
    assert main(args + ["--budget", "21866048"]) == EXIT_OK
    capsys.readouterr()
    payload = json.loads(out_path.read_text())
    assert payload["torsion"]["torsion_free"] is True
    assert payload["torsion"]["aborted_degree"] is None
    assert [d["degree"] for d in payload["torsion"]["degrees"]] \
        == [str(n) for n in range(1, 15)]
    assert payload["hilbert"]["all_match"] is True
    assert payload["modp"]["all_match"] is True
    assert [row["degree"] for row in payload["modp"]["tables"][0]["rows"]] \
        == [str(n) for n in range(2, 15)]


@pytest.mark.parametrize("budget, message", [
    ("0", "the budget must be a positive integer, got 0"),
    ("-5", "the budget must be a positive integer, got -5"),
    ("x", "argument --budget: invalid int value: 'x'"),
    ("1.5", "argument --budget: invalid int value: '1.5'"),
])
def test_budget_must_be_a_positive_integer(tmp_path, capsys, monkeypatch,
                                           budget, message):
    def never(config):
        raise AssertionError("run_report must not be reached")

    monkeypatch.setattr(cli, "run_report", never)
    ok = _write(tmp_path, "ok.pres", ACCEPTED)
    assert main(["--input", ok, "--budget", budget]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"magnuslie: error: {message}\n")
    with pytest.raises(ValueError, match="budget must be a positive integer"):
        RunConfig(input_path=ok, budget=0)


def _limit_address_space():
    # a regression then dies with MemoryError instead of exhausting the host
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_a_huge_y_weight_stops_the_embedding_before_it_allocates():
    # the floor-bound suite embeds at cutoff e + 3 every sampled word whose
    # exponent sums are all zero; the first, x1 y1 x2 x1^-1 y1 x2^-1 y1^-1,
    # would store about 5.4 million letters there
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "magnuslie", "--input",
         str(root / "presentations" / "commutator_basic.pres"), "--e", "200"],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=_limit_address_space)
    assert done.returncode == EXIT_INCONCLUSIVE, done.stderr
    assert time.perf_counter() - start < 30
    assert "MemoryError" not in done.stderr
    assert ("at cutoff 200 would store up to 5373600 letters (limit 2000000)"
            in done.stderr)


@pytest.mark.parametrize("cap", ["200", "100000"])
def test_a_large_degree_cap_certifies_up_to_the_budget(cap):
    # the gate once embedded u at the whole cap (5,373,400 letters at 200)
    # and the certificate counted the free dimensions of every degree
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "magnuslie", "--input",
         str(root / "presentations" / "commutator_basic.pres"),
         "--max-degree", cap],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=_limit_address_space)
    assert done.returncode == EXIT_INCONCLUSIVE, done.stderr
    assert time.perf_counter() - start < 10
    assert f"gate: accepted (cutoff {cap})" in done.stdout
    assert "torsion-free up to degree 13\n  budget exceeded at degree 14" \
        in done.stdout
    assert "hilbert: match through degree 13" in done.stdout


@pytest.mark.parametrize("generators, exit_code, message", [
    # m + n = series.MAX_LETTERS: the sweep's budget refuses degree 2
    ("x: 99999", EXIT_INCONCLUSIVE, "budget exceeded at degree 2"),
    # one letter more is refused with the scheme, before any per-letter table
    ("x: 100000", EXIT_USAGE, "100001 letters exceed the limit of 100000"),
])
def test_the_letter_count_is_bounded(tmp_path, generators, exit_code, message):
    root = Path(__file__).resolve().parent.parent
    pres = _write(tmp_path, "wide.pres", ACCEPTED.replace("x: 2", generators))
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "magnuslie", "--input", pres, "--max-degree", "4",
         "--check", "torsion"],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=_limit_address_space)
    assert done.returncode == exit_code, done.stderr
    assert time.perf_counter() - start < 5
    assert "MemoryError" not in done.stderr
    assert message in done.stdout + done.stderr


def test_many_generators_hit_the_budget_before_the_basis_is_enumerated(tmp_path):
    # degree 3 over 400 x letters and y1 has 21,333,201 Lyndon words; they are
    # counted, not enumerated, before the budget refuses the degree
    root = Path(__file__).resolve().parent.parent
    pres = _write(tmp_path, "wide.pres", ACCEPTED.replace("x: 2", "x: 400"))
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "magnuslie", "--input", pres, "--max-degree", "4",
         "--check", "torsion"],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=_limit_address_space)
    assert done.returncode == EXIT_INCONCLUSIVE, done.stderr
    assert time.perf_counter() - start < 5
    assert "MemoryError" not in done.stderr
    assert "budget exceeded at degree 3" in done.stdout
