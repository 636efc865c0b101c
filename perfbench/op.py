"""One benchmark op, run in a fresh process.

    python3 perfbench/op.py WORKLOAD SEED OUT_JSON TRACE(0|1)

WORKLOAD is ``probe`` (import only), ``certify_stretch``, ``lie_laws``
or ``lyndon_table``.  The first thing this process does is start the
host-speed sampler of ``calibrate.py`` (not in a traced op, whose spans
it would inflate) and import magnuslie; the CLOCK_MONOTONIC time at
which that import returned, and the samples taken until then, are
written to OUT_JSON, so the parent can measure set-up from the moment it
launched us.  Everything the parent checks goes to OUT_JSON, or to files
beside it, or (for the CLI and the script) to standard output.
"""

import sys
import time

import calibrate

SAMPLER = calibrate.Sampler().start() if sys.argv[4:5] != ["1"] else None

import magnuslie  # noqa: E402

IMPORT_DONE_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
IMPORT_SPEED = SAMPLER.mark() if SAMPLER else None

import json  # noqa: E402
import os  # noqa: E402
import runpy  # noqa: E402

STRETCH_INPUT = "presentations/commutator_basic.pres"
STRETCH_CAP = "12"
LAW_SCHEME = (3, 1, 4)
LAW_SAMPLES = 500
TABLE_ARGS = ["--m", "2", "--n", "1", "--e", "3", "--max-degree", "15"]


def certify_stretch(seed: int, work_dir: str) -> dict:
    from magnuslie import cli
    report_path = os.path.join(work_dir, "report.json")
    code = cli.main(["--input", STRETCH_INPUT, "--max-degree", STRETCH_CAP,
                     "--seed", str(seed), "--json-out", report_path])
    return {"exit_code": code, "report_path": report_path}


def lie_laws(seed: int, work_dir: str) -> dict:
    from magnuslie import report
    suites = report.algebra_law_suites(magnuslie.WeightScheme(*LAW_SCHEME),
                                       samples=LAW_SAMPLES, seed=seed)
    return {"exit_code": 0,
            "suites": [{"name": s.name, "cases": s.cases, "failures": s.failures,
                        "seed": s.seed, "passed": s.passed} for s in suites]}


def lyndon_table(seed: int, work_dir: str) -> dict:
    script = "scripts/dimension_table.py"
    saved = sys.argv
    sys.argv = [script] + TABLE_ARGS
    try:
        runpy.run_path(script, run_name="__main__")
        code = 0
    except SystemExit as ex:
        code = ex.code if isinstance(ex.code, int) else 1
    finally:
        sys.argv = saved
    sys.stdout.flush()
    return {"exit_code": code}


WORKLOADS = {
    "certify_stretch": certify_stretch,
    "lie_laws": lie_laws,
    "lyndon_table": lyndon_table,
}


def main() -> int:
    workload, seed, out_path, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
    work_dir = os.path.dirname(out_path)
    out = {"import_done_ns": IMPORT_DONE_NS, "magnuslie_file": magnuslie.__file__,
           "import_speed": IMPORT_SPEED}
    if workload != "probe":
        tracer = None
        if trace == "1":
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
            root = tracer.open("op")
        out.update(WORKLOADS[workload](seed, work_dir))
        if tracer is not None:
            tracer.close(root)
            out["trace"] = tracer.dump()
    if SAMPLER:
        SAMPLER.stop()
        out["speed"] = SAMPLER.mark()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
