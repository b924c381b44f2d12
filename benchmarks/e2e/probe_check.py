"""Check that the host-speed probe does not depend on the code under test.

Usage::

    python benchmarks/e2e/probe_check.py [SECONDS]

``run.py`` divides every timing by the host speed its probe measured
on the sample's core while the sample ran.  If the probe's cost grew
with the sample's memory footprint, a change that made the program
touch more memory would also slow the probe, and part of the
regression would cancel out.  This script runs one child on the
probe's core that alternates, every half second, between pure
arithmetic on a few integers and random reads over a 128 MB array plus
a 400,000-entry dict: the two extremes of what a sample can do to the
caches.  It probes exactly as ``run.py`` does and prints the probe's
median cost in each kind of phase, and the median ratio over adjacent
heavy/light phase pairs (adjacent, so that slow phases of a shared host
cancel).  A ratio near 1 means the normaliser is independent of the
code under test.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

from run import PROBE_INTERVAL, probe

#: Seconds each phase of the child lasts; probes in its first tenth and
#: last sixth are discarded, as they may straddle a phase change.
PHASE_S = 0.5

CHILD = r"""
import sys, time
import numpy as np

column = np.ones(16_000_000, dtype=np.int64)
picks = np.random.default_rng(1).integers(0, column.size, 1 << 16)
table = {i: [i] for i in range(400_000)}
keys = list(table)[::7]
now = lambda: time.clock_gettime(time.CLOCK_MONOTONIC)
start = now()
print(repr(start), flush=True)
end, phase_s = start + float(sys.argv[1]), float(sys.argv[2])
total = cursor = 0
while now() < end:
    if int((now() - start) / phase_s) % 2 == 0:
        for i in range(3000):
            total += i & 7
    else:
        column[picks].sum()
        for key in keys[cursor:cursor + 3000]:
            table[key].append(1)
            table[key].pop()
        cursor = (cursor + 3000) % len(keys)
"""


def main() -> None:
    seconds = float(sys.argv[1]) if len(sys.argv) > 1 else 120.0
    core = {min(os.sched_getaffinity(0))}
    os.sched_setaffinity(0, core)
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD, str(seconds), str(PHASE_S)],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        start = float(child.stdout.readline())
        costs = {}
        while child.poll() is None:
            at = time.clock_gettime(time.CLOCK_MONOTONIC)
            cost = probe()
            phase, offset = divmod((at - start) / PHASE_S, 1.0)
            if 0.1 < offset < 0.85:
                costs.setdefault(int(phase), []).append(cost)
            time.sleep(PROBE_INTERVAL)
    finally:
        child.kill()
        child.wait()
    medians = {phase: statistics.median(values) for phase, values in costs.items()}
    # (light phase, heavy phase) pairs: each phase with the next one.
    pairs = [(p, p + 1) if p % 2 == 0 else (p + 1, p) for p in medians]
    ratios = [
        medians[heavy] / medians[light]
        for light, heavy in pairs
        if light in medians and heavy in medians
    ]
    light = [cost for phase, values in costs.items() if phase % 2 == 0 for cost in values]
    heavy = [cost for phase, values in costs.items() if phase % 2 == 1 for cost in values]
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    print(f"probe cost, light phases: median {statistics.median(light) * 1e3:.4f} ms (n={len(light)})")
    print(f"probe cost, heavy phases: median {statistics.median(heavy) * 1e3:.4f} ms (n={len(heavy)})")
    print(
        f"heavy/light over {len(ratios)} adjacent phase pairs: "
        f"median {statistics.median(ratios):.4f} [q1 {q1:.4f}, q3 {q3:.4f}]"
    )


if __name__ == "__main__":
    main()
