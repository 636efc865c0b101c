"""Memory that a certificate and its mod-p check take.

The certificate takes each degree through one pass per block: the sweep
builds the block's rows, ``fp_ranks`` ranks them, ``_echelon``
eliminates those same dicts in place, and the rows are released before
the next block is built; the cap's own blocks are dropped once their
Smith step has read them.  A copy of the rows before the elimination,
rows kept on the certificate for the mod-p check, or a whole degree's
rows built at once show up in the tracemalloc peak: the run below
peaked at 7.74 MB with whole-degree rows and at 5.41 MB block by block,
so the limit is that figure plus a margin of 0.49 MB.  The figures are
CPython 3.11's, so the peak test runs only there.
"""

import gc
import sys
import tracemalloc

import pytest

from magnuslie import (WeightScheme, bracket, generator_element, liebasis,
                       modp_dimension_check, quotient, torsion_free_certificate)

LIMIT_BYTES = 5_900_000
PRIMES = (2, 3, 5, 7)
S213 = WeightScheme(2, 1, 3)
RHO = bracket(generator_element(S213, 0), generator_element(S213, 1))


@pytest.mark.skipif(sys.implementation.name != "cpython"
                    or sys.version_info[:2] != (3, 11),
                    reason="the peak is measured on CPython 3.11")
def test_certificate_and_modp_check_peak_through_degree_13():
    # the memos fill during the run, as in a fresh process
    for memo in vars(liebasis).values():
        if hasattr(memo, "cache_clear"):
            memo.cache_clear()
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        cert = torsion_free_certificate(RHO, 13, primes=PRIMES)
        check = modp_dimension_check(cert)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert cert.aborted_degree is None and check.all_match
    assert peak <= LIMIT_BYTES, f"the certificate peaks at {peak / 1e6:.3f} MB"


def test_the_elimination_receives_the_rows_next_rows_built(monkeypatch):
    events = []
    build, rank, eliminate = (quotient._IdealSweep.next_rows, quotient.fp_ranks,
                              quotient._echelon)

    def built(sweep, block):
        rows = build(sweep, block)
        events.append(("built", rows, list(rows)))
        return rows

    def ranked(rows, primes):
        events.append(("ranked", rows, list(rows)))
        return rank(rows, primes)

    def eliminated(rows):
        events.append(("eliminated", rows, list(rows)))
        return eliminate(rows)

    monkeypatch.setattr(quotient._IdealSweep, "next_rows", built)
    monkeypatch.setattr(quotient, "fp_ranks", ranked)
    monkeypatch.setattr(quotient, "_echelon", eliminated)
    torsion_free_certificate(RHO, 10, primes=PRIMES)
    blocks = len(events) // 3
    # [x1,x2] is multihomogeneous: its degrees split into several blocks
    assert blocks > 10 - RHO.degree + 1
    assert [kind for kind, _, _ in events] == ["built", "ranked", "eliminated"] * blocks
    for k in range(0, len(events), 3):
        (_, rows, dicts), *later = events[k:k + 3]
        for _, other, other_dicts in later:
            assert other is rows
            assert len(other_dicts) == len(dicts)
            assert all(a is b for a, b in zip(other_dicts, dicts))
