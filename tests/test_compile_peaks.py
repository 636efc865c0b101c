"""Memory that compiling each module and script takes.

Compiled from source (no bytecode cache), a module whose compile peak
outgrows the malloc heap's free space at its turn grows the heap for
good in every process that imports the package, so module size shows up
in peak RSS.  A script run by path (``runpy.run_path``, or ``python
scripts/...``) is compiled from source on every run, cache or not.  Each
module's and script's tracemalloc peak must stay under 1.10 MB; the
figures are CPython 3.11's, so the test runs only there.
"""

import sys
import tracemalloc
from pathlib import Path

import pytest

LIMIT_BYTES = 1_100_000
ROOT = Path(__file__).resolve().parent.parent
MODULES = (sorted((ROOT / "src" / "magnuslie").glob("*.py"))
           + sorted((ROOT / "scripts").glob("*.py")))


@pytest.mark.skipif(sys.implementation.name != "cpython"
                    or sys.version_info[:2] != (3, 11),
                    reason="the compile peaks are measured on CPython 3.11")
@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_compiles_under_the_peak_limit(path):
    source = path.read_text()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        compile(source, str(path), "exec")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= LIMIT_BYTES, f"{path.name} peaks at {peak / 1e6:.3f} MB"
