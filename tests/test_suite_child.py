"""The sampled suites' forked child: its failures, threads and start-up.

run_report forks one child right after the gate to run the floor-bound
and magnus-e1 suites while it certifies.  A suite that raises in the
child raises again in process, where it always did; a raise in the
parent kills the child; no return or raise leaves a child behind; and a
running thread or a failed fork keeps the suites in process.
"""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from magnuslie import (EXIT_INCONCLUSIVE, RunConfig, cli, report,
                       report_to_json, run_report)
from magnuslie.words import EmbeddingTooLarge

ROOT = Path(__file__).resolve().parent.parent
BASIC = str(ROOT / "presentations" / "commutator_basic.pres")
# the golden report of commutator_basic at seed 0 and 50 samples
GOLDEN = ROOT / "tests" / "data" / "commutator_basic.json"


@pytest.fixture
def forks(monkeypatch):
    """The pids that called os.fork during the test."""
    calls = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(os.getpid()) or fork())
    return calls


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_suite_error_in_the_child_raises_as_in_process(monkeypatch, capsys,
                                                         forks):
    def too_large(scheme):
        raise EmbeddingTooLarge(projected=10**9, limit=10**8, cutoff=6)

    monkeypatch.setattr(report, "magnus_e1_suite", too_large)
    argv = ["--input", BASIC, "--samples", "20"]
    assert cli.main(argv) == EXIT_INCONCLUSIVE
    forked = capsys.readouterr()
    assert forks == [os.getpid()]
    assert_no_child_left()

    monkeypatch.delattr(os, "fork")
    assert cli.main(argv) == EXIT_INCONCLUSIVE
    assert capsys.readouterr() == forked
    assert forked.out == ""
    assert forked.err.startswith("magnuslie: inconclusive: ")


def test_a_raise_in_the_parent_kills_the_running_child(monkeypatch, capsys,
                                                       forks):
    def exhausted(*args, **kwargs):
        raise MemoryError("simulated")

    # the child would run for a minute unless killed
    monkeypatch.setattr(report, "magnus_e1_suite", lambda scheme: time.sleep(60))
    monkeypatch.setattr(report, "torsion_free_certificate", exhausted)
    start = time.monotonic()
    assert cli.main(["--input", BASIC, "--samples", "20"]) == EXIT_INCONCLUSIVE
    assert time.monotonic() - start < 30
    assert forks == [os.getpid()]
    assert "MemoryError" in capsys.readouterr().err
    assert_no_child_left()


def test_a_running_thread_keeps_the_suites_in_process(forks):
    config = RunConfig(input_path=BASIC, seed=0, samples=50)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        text = report_to_json(run_report(config), include_timings=False)
    finally:
        release.set()
        thread.join()
    assert forks == []
    assert text == GOLDEN.read_text()


def test_a_failed_fork_keeps_the_suites_in_process(monkeypatch):
    def no_fork():
        raise BlockingIOError("simulated: no process left")

    monkeypatch.setattr(os, "fork", no_fork)
    config = RunConfig(input_path=BASIC, seed=0, samples=50)
    text = report_to_json(run_report(config), include_timings=False)
    assert text == GOLDEN.read_text()


def test_the_suites_child_reports_its_own_timings(forks):
    report_ = run_report(RunConfig(input_path=BASIC, samples=20))
    assert len(forks) == 1
    assert list(report_.timings) == ["gate", "torsion", "hilbert", "modp",
                                     "floor_bound", "magnus_e1"]
    assert all(seconds > 0 for seconds in report_.timings.values())
    assert_no_child_left()


def test_import_loads_no_process_or_thread_module():
    # start-up must not pay for the fork path
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    probe = ("import sys, magnuslie; print(sorted({'pickle', 'multiprocessing',"
             " 'subprocess', 'threading'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out == "[]\n"
