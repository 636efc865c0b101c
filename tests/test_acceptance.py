"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS line with its
parameters once its assertions hold, so a verbose run reads as a
checklist.  Tolerances are exact: these are integer computations.
"""

import time
from functools import lru_cache

import pytest

from magnuslie import (LieElement, Presentation, WeightScheme, bracket,
                       check_relator_hypotheses, generator_element,
                       hilbert_crosscheck, homomorphism_suite, jacobi_suite,
                       floor_bound_suite, magnus_e1_suite, modp_dimension_check,
                       strategy_independence_suite, torsion_free_certificate,
                       valuation_mult_suite, witt_dimensions)
from test_liebasis import product_of_powers


def _report(line):
    print(f"ACCEPTANCE PASS: {line}")


def _xi(scheme, i):
    return generator_element(scheme, i)


def _corpus():
    s213 = WeightScheme(2, 1, 3)
    s214 = WeightScheme(2, 1, 4)
    s314 = WeightScheme(3, 1, 4)
    return [
        ("[xi1,xi2] over (2,1,3)", s213,
         bracket(_xi(s213, 0), _xi(s213, 1))),
        ("[[xi1,xi2],xi1] over (2,1,4)", s214,
         bracket(bracket(_xi(s214, 0), _xi(s214, 1)), _xi(s214, 0))),
        ("[[xi1,xi2],xi3] over (3,1,4)", s314,
         bracket(bracket(_xi(s314, 0), _xi(s314, 1)), _xi(s314, 2))),
    ]


@lru_cache(maxsize=None)
def _corpus_certificates():
    out = []
    for label, scheme, rho in _corpus():
        cap = rho.degree + 6
        start = time.perf_counter()
        cert = torsion_free_certificate(rho, cap, primes=(2, 3, 5, 7))
        elapsed = time.perf_counter() - start
        out.append((label, scheme, rho, cert, elapsed))
    return out


def test_gate_correctness():
    comm = (1, 2, -1, -2)

    start = time.perf_counter()
    accepted = check_relator_hypotheses(
        Presentation(m=2, n=1, u=comm, v=(3,), e=3), 8)
    first = time.perf_counter() - start
    assert accepted.accepted
    assert accepted.d == 2
    assert accepted.rho.coords == {(0, 1): 1}
    assert accepted.content == 1
    assert accepted.chosen_e == 3

    start = time.perf_counter()
    rejected_power = check_relator_hypotheses(
        Presentation(m=1, n=1, u=(1, 1), v=(2,)), 8)
    second = time.perf_counter() - start
    assert not rejected_power.accepted
    assert rejected_power.content == 2

    start = time.perf_counter()
    rejected_trivial = check_relator_hypotheses(
        Presentation(m=2, n=1, u=comm, v=()), 8)
    third = time.perf_counter() - start
    assert not rejected_trivial.accepted
    assert any("trivial" in f for f in rejected_trivial.failures)

    for elapsed in (first, second, third):
        assert elapsed < 1.0
    _report(f"gate correctness: accept/reject/reject as required "
            f"({first + second + third:.3f}s total)")


def test_torsion_free_certificates_for_corpus():
    for label, _, rho, cert, elapsed in _corpus_certificates():
        cap = rho.degree + 6
        assert cert.aborted_degree is None
        assert cert.torsion_free, f"torsion reported for {label}"
        assert len(cert.degrees) == cap
        for degree_report in cert.degrees:
            assert all(d == 1 for d in degree_report.divisors)
        _report(f"torsion-free certificate to degree {cap} for {label} "
                f"({elapsed:.2f}s)")


def test_negative_control_detects_torsion():
    scheme = WeightScheme(1, 1, 2)
    rho = LieElement(scheme, 1, {(0,): 2})
    cert = torsion_free_certificate(rho, 3)
    assert not cert.torsion_free
    assert cert.degrees[0].divisors == (2,)
    assert cert.degrees[0].torsion == (2,)
    _report("negative control: divisor 2 at degree 1, certificate fails")


@pytest.mark.parametrize("m,n,e", [(2, 1, 2), (2, 1, 3), (1, 1, 2), (3, 2, 4)])
def test_witt_generating_identity(m, n, e):
    upto = 10
    scheme = WeightScheme(m, n, e)
    dims = witt_dimensions(scheme, upto)
    product = product_of_powers(((k, d) for k, d in enumerate(dims, 1)), upto)
    expected = [0] * (upto + 1)
    expected[0] = 1
    expected[1] -= m
    expected[e] -= n
    assert product == expected
    _report(f"Witt identity holds to degree {upto} for (m,n,e)=({m},{n},{e})")


def test_pbw_hilbert_crosscheck_for_corpus():
    for label, _, rho, cert, _ in _corpus_certificates():
        table = hilbert_crosscheck(cert)
        assert table.all_match, f"series mismatch for {label}"
        assert table.candidate[0] == 1
        assert all(c >= 0 for c in table.candidate)
        _report(f"PBW/Hilbert coefficients match to degree "
                f"{table.max_degree} for {label}")


def test_modp_consistency_for_corpus():
    primes = (2, 3, 5, 7)
    for label, scheme, rho, cert, _ in _corpus_certificates():
        cap = rho.degree + 6
        check = modp_dimension_check(cert)
        assert check.all_match, f"mod-p mismatch for {label}"
        for table in check.reports:
            assert len(table.rows) == cap - rho.degree + 1
        _report(f"mod-p ranks equal integer ranks for p in {primes} for {label}")


def test_floor_bound_sampling_zero_violations():
    for _, scheme, _ in _corpus():
        result = floor_bound_suite(scheme, samples=1000, max_len=12, seed=0)
        assert result.cases == 1000
        assert result.failures == 0, result.counterexample
        assert result.applicable and result.applicable > 0
        _report(f"filtration floor bound: 0 violations in 1000 words "
                f"({result.applicable} applicable) for scheme {scheme}")


def test_magnus_e1_specialization():
    scheme = WeightScheme(2, 0, 1)
    result = magnus_e1_suite(scheme)
    assert result.cases == 17
    assert result.failures == 0, result.counterexample
    _report("basic commutators of weight <= 6 on two generators: "
            "e=1 degrees and leading forms exact")


def test_algebra_laws_bulk():
    scheme = WeightScheme(2, 1, 2)
    suites = [
        homomorphism_suite(scheme, samples=500, seed=0),
        valuation_mult_suite(scheme, samples=500, seed=0),
        jacobi_suite(scheme, samples=500, seed=0),
        strategy_independence_suite(samples=500, seed=0),
    ]
    for result in suites:
        assert result.cases >= 500
        assert result.failures == 0, (result.name, result.counterexample)
        _report(f"algebra law suite {result.name}: {result.cases} cases, "
                f"0 failures")
