"""Samples how fast the host runs while an op runs, from inside the op.

On a shared host the same code runs 10-70 % slower from one moment to
the next, in swings from under a second to half a minute, as other
tenants load the cores.  CPU time moves with wall time (the loss is in
instructions per cycle, not in scheduling), and a kernel timed between
ops sees other moments than the op.  So every op process times a fixed
micro-kernel of its own, from a SIGALRM handler every ``INTERVAL_S`` of
wall time, on the same core and at the same moments as the op's own work.

A sample's speed is ``REFERENCE_NS`` over the kernel's time: 1 at the
reference speed, less when the host is loaded.  An op's work is its wall
time times its mean speed, so ``wall * mean(speed)`` is the time the op
would take at the reference speed.  The time spent in the handler is
counted and taken off the wall time first.

The kernel uses nothing from magnuslie, so no change to the package can
move it; it does the package's two main kinds of work, dict updates keyed
by words and word enumeration.  Together the two tracked the three
workloads better than either alone, and better than a kernel that reads
a 5 MB dict at random.
"""

import signal
import time

INTERVAL_S = 0.01
# nanoseconds one kernel() call takes at the reference speed: about its
# fast state on the 2-core Xeon host BASELINE.json was recorded on
REFERENCE_NS = 300_000


def kernel() -> int:
    # dict of word -> coefficient updates, as in bracket expansion
    table: dict[tuple[int, int], int] = {}
    for i in range(375):
        key = (i % 37, i % 11)
        table[key] = table.get(key, 0) + i * 3
    # Duval's enumeration of weighted words, as in the Lyndon tables
    weights = (1, 1, 2)
    words = []
    w = [-1]
    for _ in range(130):
        w[-1] += 1
        m = len(w)
        if sum(weights[c] for c in w) <= 9:
            words.append(tuple(w))
        while len(w) < 9:
            w.append(w[-m])
        while w[-1] == 2:
            w.pop()
    words.sort()
    return len(table) + len(words)


class Sampler:
    """Times kernel() every INTERVAL_S of wall time until stopped."""

    def __init__(self):
        self.speeds: list[float] = []
        self.spent_ns = 0

    def _sample(self, signum, frame):
        start = time.perf_counter_ns()
        kernel()
        elapsed = time.perf_counter_ns() - start
        self.speeds.append(REFERENCE_NS / elapsed)
        self.spent_ns += elapsed

    def start(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> dict:
        """Samples so far: count, mean speed, and ns spent taking them."""
        speeds = self.speeds[:]  # one step, so no sample lands mid-sum
        n = len(speeds)
        return {"samples": n, "speed": sum(speeds) / n if n else None,
                "spent_ns": self.spent_ns}
