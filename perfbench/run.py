#!/usr/bin/env python3
"""The magnuslie benchmark: time to certificate, Lie-law suites, Lyndon tables.

Run from the root of a checkout (it imports the package from ``src/``):

    python3 perfbench/run.py --workload certify_stretch --seed 1 --seconds 40 --trace 0

Each op runs in a fresh child process (``perfbench/op.py``), one at a time,
in a closed loop with a single client, until ``--seconds`` have passed.  A
fresh process per op is the point: the ideal sweeps and the ``lru_cache``
tables of the package live as long as the process, and no CLI user ever
starts with them warm.  Every op's output is checked against the
references in ``perfbench/reference``; an op fails on a wrong exit code, a
differing certificate, a failing suite, a crash, or the per-op time limit.

The host this runs on is shared, and its speed swings by 10-70 % within
seconds.  So every untraced child samples its own speed while it runs
(``perfbench/calibrate.py``), and each of its times is rescaled to the
reference host speed: (wall time - sampling time) * mean speed.  The raw
wall-clock medians are printed as well.

With ``--trace 0`` the result line holds the end-to-end metrics:

* ``op_s_p50``: median seconds from launching the child to its exit, over
  the ops whose output checked, rescaled;
* ``setup_s``: median seconds from launching a child until its
  ``import magnuslie`` returned, over import-only probes (five at the
  start, two after every op) and the ops, rescaled;
* ``peak_rss_mb``: median over ops of the child's peak RSS (``os.wait4``).

The error rate (failed / attempted) is printed with them; in the result
line it is the ``failed`` and ``attempted`` fields.  With ``--trace 1``
traced and untraced ops alternate, and the result line holds the
per-layer self times and counts of ``perfbench/tracing.py`` plus
``trace.unattributed_s`` and ``trace.overhead``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
OP_SCRIPT = os.path.join(HERE, "op.py")
REFERENCE_DIR = os.path.join(HERE, "reference")
WORKLOADS = ("certify_stretch", "lie_laws", "lyndon_table")
# files of the checkout the ops read; without them there is nothing to run
REQUIRED = ("src/magnuslie/__init__.py", "scripts/dimension_table.py",
            "presentations/commutator_basic.pres")
# import-only probes before the first op and after every op, so set-up is
# sampled all through the run
SETUP_PROBES = 5
GAP_PROBES = 2
OP_LIMIT_S = 60.0
# a trace run may overrun --seconds to reach its minimum op counts, but
# never past this, so a hang cannot hold the run beyond three minutes
TRACE_RUN_LIMIT_S = 90.0
LAW_SUITES = ("mu_homomorphism", "valuation_multiplicativity",
              "jacobi_antisymmetry", "ideal_strategy_independence")
E2E_UNITS = {"op_s_p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}
COUNT_KEYS = tracing.COUNTS + tuple(tracing.CALLS)
LAYER_METRICS = tuple(tracing.LAYERS) + COUNT_KEYS + (
    "quotient.row_yield", "trace.unattributed_s", "trace.overhead")


class BenchError(RuntimeError):
    """The benchmark itself cannot run here; no result is printed."""


def monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Op:
    """One child process: launch, wait with a time limit, collect."""

    def __init__(self, workload: str, seed: int, trace: bool, work_dir: str):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.out_path = os.path.join(work_dir, "op.json")
        self.stdout_path = os.path.join(work_dir, "op.out")
        self.stderr_path = os.path.join(work_dir, "op.err")
        self.wall_s = 0.0
        self.setup_s: float | None = None
        # wall and set-up time less the sampler's own time, and both
        # rescaled to the reference host speed (None without samples)
        self.net_wall_s = 0.0
        self.ref_wall_s: float | None = None
        self.ref_setup_s: float | None = None
        self.rss_mb = 0.0
        self.timed_out = False
        self.status = None
        self.ok = False
        self.result: dict = {}

    def run(self, env: dict) -> "Op":
        for path in (self.out_path, self.stdout_path, self.stderr_path):
            if os.path.exists(path):
                os.remove(path)
        argv = [sys.executable, OP_SCRIPT, self.workload, str(self.seed),
                self.out_path, "1" if self.trace else "0"]
        with open(self.stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
            start = monotonic_ns()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        exited = threading.Event()

        def kill():
            if not exited.is_set():
                self.timed_out = True
                os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(OP_LIMIT_S, kill)
        timer.start()
        end = None
        try:
            # wait without reaping, so no signal can reach a recycled pid;
            # reap below, which also gives the child's rusage
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            end = monotonic_ns()
        finally:
            exited.set()
            timer.cancel()
            timer.join()
            if end is None:
                # interrupted (SIGTERM): stop the child before leaving
                os.kill(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.status = proc.returncode
        self.wall_s = (end - start) / 1e9
        self.rss_mb = usage.ru_maxrss * 1024 / 1e6
        if os.path.exists(self.out_path):
            with open(self.out_path, encoding="utf-8") as handle:
                self.result = json.load(handle)
            self.setup_s = (self.result["import_done_ns"] - start) / 1e9
        self.net_wall_s = self.wall_s
        speed = self.result.get("speed")
        if speed:
            self.net_wall_s -= speed["spent_ns"] / 1e9
            if speed["samples"]:
                self.ref_wall_s = self.net_wall_s * speed["speed"]
        speed = self.result.get("import_speed")
        if speed and speed["samples"]:
            self.ref_setup_s = (self.setup_s - speed["spent_ns"] / 1e9) * speed["speed"]
        return self

    def stdout(self) -> str:
        with open(self.stdout_path, encoding="utf-8") as handle:
            return handle.read()

    def stderr_tail(self) -> str:
        with open(self.stderr_path, encoding="utf-8", errors="replace") as handle:
            return handle.read()[-2000:]


def load_reference(workload: str):
    if workload == "certify_stretch":
        with open(os.path.join(REFERENCE_DIR, "certify_stretch.json"), encoding="utf-8") as handle:
            return json.load(handle)
    if workload == "lyndon_table":
        with open(os.path.join(REFERENCE_DIR, "lyndon_table.txt"), encoding="utf-8") as handle:
            return handle.read()
    return None


def check_output(op: Op, reference) -> str | None:
    """None when the op's output is right, else the reason it is not."""
    if op.timed_out:
        return f"killed at the {OP_LIMIT_S:.0f} s time limit"
    if op.status != 0 or not op.result:
        return f"child exited with {op.status}: {op.stderr_tail()}"
    if op.result.get("exit_code") != 0:
        return f"exit code {op.result.get('exit_code')}, expected 0"
    if op.workload == "certify_stretch":
        with open(op.result["report_path"], encoding="utf-8") as handle:
            report = json.load(handle)
        for section, expected in reference.items():
            if report.get(section) != expected:
                return f"report section {section!r} differs from the reference"
        for suite in ("floor_bound", "magnus_e1"):
            if report[suite].get("passed") is not True:
                return f"suite {suite} did not pass"
        if report["meta"].get("seed") != str(op.seed):
            return f"report seed {report['meta'].get('seed')} is not {op.seed}"
    elif op.workload == "lie_laws":
        suites = op.result["suites"]
        if tuple(s["name"] for s in suites) != LAW_SUITES:
            return f"unexpected suites {[s['name'] for s in suites]}"
        for s in suites:
            if not s["passed"] or s["cases"] != 500 or s["seed"] != op.seed:
                return f"suite {s['name']} failed: {s}"
    elif op.workload == "lyndon_table":
        if op.stdout() != reference:
            return "printed table differs from the reference"
    if op.trace and "trace" not in op.result:
        return "traced op wrote no spans"
    return None


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def op_seeds(seed: int):
    """The seeds of a run's ops: the run seed first, then seeds drawn from
    it, so a run's figures do not hinge on how one seed's samples fall."""
    yield seed
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**31)


def median(values):
    return statistics.median(values) if values else 0.0


def e2e_metrics(ops: list[Op], probes: list[Op]) -> tuple[dict, dict]:
    good = [op for op in ops if op.ok] or ops
    walls = [op.ref_wall_s for op in good if op.ref_wall_s is not None]
    setups = [op.ref_setup_s for op in probes + ops if op.ref_setup_s is not None]
    values = {
        "op_s_p50": (median(walls), len(walls)),
        "setup_s": (median(setups), len(setups)),
        "peak_rss_mb": (median([op.rss_mb for op in good]), len(good)),
    }
    return ({k: v for k, (v, _) in values.items()},
            {k: n for k, (_, n) in values.items()})


def trace_metrics(traced: list[Op], untraced: list[Op]) -> tuple[dict, bool]:
    """Medians of the per-layer metrics over the traced ops, and whether
    every count repeated exactly from op to op."""
    per_op = []
    for op in traced:
        layers = tracing.layer_metrics(op.result["trace"])
        self_sum = sum(layers[m] for m in tracing.LAYERS)
        layers["trace.unattributed_s"] = op.wall_s - op.setup_s - self_sum
        per_op.append(layers)
    if not per_op:
        return dict.fromkeys(LAYER_METRICS, 0.0), True
    timed = list(tracing.LAYERS) + ["trace.unattributed_s"]
    metrics = {name: median([layers[name] for layers in per_op]) for name in timed}
    # counts repeat exactly from op to op (checked below), so take the first
    for name in COUNT_KEYS + ("quotient.row_yield",):
        metrics[name] = per_op[0][name]
    traced_p50 = median([op.wall_s for op in traced])
    untraced_p50 = median([op.net_wall_s for op in untraced])
    metrics["trace.overhead"] = traced_p50 / untraced_p50 - 1 if untraced_p50 else 0.0
    repeat = all(all(layers[k] == per_op[0][k] for k in COUNT_KEYS) for layers in per_op)
    return metrics, repeat


def run(args) -> dict:
    missing = [path for path in REQUIRED if not os.path.isfile(path)]
    if missing:
        raise BenchError(f"run from the root of a magnuslie checkout; missing {missing}")
    reference = load_reference(args.workload)
    env = child_env(args.seed)
    work_dir = os.path.abspath(os.path.join(".bench_work", str(os.getpid())))
    os.makedirs(work_dir, exist_ok=True)
    try:
        return measure(args, reference, env, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(".bench_work")
        except OSError:
            pass


def measure(args, reference, env: dict, work_dir: str) -> dict:
    src = os.path.abspath("src") + os.sep
    # the first child also byte-compiles the package; it is not timed
    warm = Op("probe", args.seed, False, work_dir).run(env)
    if warm.status != 0 or not warm.result.get("magnuslie_file", "").startswith(src):
        raise BenchError(f"cannot import magnuslie from {src}: {warm.stderr_tail()}")
    probes = [Op("probe", args.seed, False, work_dir).run(env) for _ in range(SETUP_PROBES)]

    ops: list[Op] = []
    seeds = op_seeds(args.seed)
    start = time.monotonic()
    deadline = start + args.seconds
    while True:
        # with --trace 1, untraced and traced ops alternate on one seed,
        # so every traced op must repeat the same counts
        n_traced = sum(op.trace for op in ops)
        trace = bool(args.trace) and n_traced < len(ops) - n_traced
        seed = args.seed if args.trace else next(seeds)
        op = Op(args.workload, seed, trace, work_dir).run(env)
        reason = check_output(op, reference)
        op.ok = reason is None
        if reason:
            print(f"op {len(ops) + 1} (seed {seed}) failed: {reason}", file=sys.stderr)
        ops.append(op)
        probes += [Op("probe", args.seed, False, work_dir).run(env) for _ in range(GAP_PROBES)]
        now = time.monotonic()
        # start no op that would likely end after the deadline
        if now + median([o.wall_s for o in ops]) > deadline:
            if not args.trace:
                break
            good_traced = sum(o.ok and o.trace for o in ops)
            good_untraced = sum(o.ok and not o.trace for o in ops)
            if (good_traced >= 2 and good_untraced >= 1) or not op.ok \
                    or now - start >= TRACE_RUN_LIMIT_S:
                break

    failed = sum(not op.ok for op in ops)
    correct = failed == 0
    untraced = [op for op in ops if not op.trace]
    values, samples = e2e_metrics(untraced, probes)
    good = [op for op in untraced if op.ok] or untraced
    setups = [op.setup_s for op in probes + untraced if op.setup_s is not None]
    print(f"workload {args.workload}  seed {args.seed}  trace {int(args.trace)}  "
          f"ops {len(ops)}  failed {failed}  error_rate {failed / len(ops):.4f}")
    for name, value in values.items():
        print(f"  {name:<12} {value:12.6f} {E2E_UNITS[name]:<3} (n={samples[name]})")
    speeds = [op.result["speed"]["speed"] for op in good if op.ref_wall_s is not None]
    print("  ops, rescaled s: " + " ".join(f"{op.ref_wall_s:.3f}" for op in good
                                          if op.ref_wall_s is not None))
    print(f"  raw wall clock: op_s_p50 {median([op.wall_s for op in good]):.6f} s "
          f"(n={len(good)}), setup_s {median(setups):.6f} s (n={len(setups)}); "
          f"median host speed in ops {median(speeds):.4f}")

    if not args.trace:
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
                   for name, value in values.items()}
    else:
        traced = [op for op in ops if op.trace and op.ok]
        layer_values, repeat = trace_metrics(traced, [op for op in untraced if op.ok])
        if not repeat:
            correct = False
            print("counts differ between traced ops of one seed", file=sys.stderr)
        missing = traced[0].result["trace"]["missing"] if traced else []
        if missing:
            print(f"trace targets not found: {missing}", file=sys.stderr)
        metrics = {}
        for name in LAYER_METRICS:
            value, unit = layer_values[name], unit_of(name)
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<26} {value:14.6f} {unit} (n={len(traced)})")
    return {"correct": correct, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def unit_of(name: str) -> str:
    if name in tracing.LAYERS or name == "trace.unattributed_s":
        return "s"
    if name in ("quotient.row_yield", "trace.overhead"):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind: the current child is killed and reaped, the work
    # directory removed, and no result printed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        result = run(args)
    except BenchError as ex:
        print(f"perfbench: {ex}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
