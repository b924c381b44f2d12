"""Compare two benchmark result files, metric by metric.

Usage::

    python benchmarks/e2e/compare.py PARENT.json CHANGE.json

Both files are ``run.py --out`` results.  For every workload and
end-to-end metric present in both, prints each side's median and
quartiles, the ratio of medians (change / parent) and a verdict, using
the bounds and directions declared in ``BENCHMARK.json``:

* ``better`` — every change run beats every parent run (at least three
  runs a side), or the median improved by more than the parent's own
  spread (the distance between its quartiles, as a share of its median);
* ``worse`` — the median got worse by more than the metric's bound;
* ``unresolved`` — either side's spread is wider than the bound and the
  runs do not separate completely, so the data cannot tell;
* ``within`` — otherwise.

Each workload's ``failed_frac`` (failed over attempted samples) is
compared too: any increase is ``worse``, any decrease ``better``.

Exits 1 if any metric on any workload is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import List, Optional

from run import load_declaration

#: Runs a side needs before complete separation alone decides.
MIN_SEPARATED = 3


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(parent: List[float], change: List[float], better: str, bound: float) -> str:
    """``better``, ``within``, ``worse`` or ``unresolved`` (see module doc)."""
    sign = 1.0 if better == "lower" else -1.0
    parent_median = statistics.median(parent)
    # Positive when the change is worse, as a share of the parent median.
    worsening = sign * (statistics.median(change) - parent_median) / parent_median
    enough = min(len(parent), len(change)) >= MIN_SEPARATED
    if better == "lower":
        all_better = max(change) < min(parent)
        all_worse = min(change) > max(parent)
    else:
        all_better = min(change) > max(parent)
        all_worse = max(change) < min(parent)
    if enough and all_better:
        return "better"
    if max(spread(parent), spread(change)) > bound and not (enough and all_worse):
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < 0 and -worsening > spread(parent):
        return "better"
    return "within"


def failure_verdict(parent: float, change: float) -> str:
    """``failed_frac`` has no relative bound: any increase is ``worse``."""
    if change > parent:
        return "worse"
    return "better" if change < parent else "within"


def compare(parent: dict, change: dict, declaration: dict) -> List[tuple]:
    """One row per (workload, end-to-end metric) present in both files.

    A row is ``(workload, metric, parent summary, change summary, ratio
    or None, verdict)``.
    """
    workloads = [name for name in parent["workloads"] if name in change["workloads"]]
    rows = []
    for metric in declaration["end_to_end"]:
        for workload in workloads:
            before = parent["workloads"][workload]["end_to_end"].get(metric["name"])
            after = change["workloads"][workload]["end_to_end"].get(metric["name"])
            if before is None or after is None:
                continue
            rows.append(
                (
                    workload,
                    metric["name"],
                    before,
                    after,
                    after["median"] / before["median"],
                    verdict(before["values"], after["values"], metric["better"], metric["bound"]),
                )
            )
    for workload in workloads:
        before, after = (
            side["workloads"][workload]["failed_frac"] for side in (parent, change)
        )
        rows.append(
            (
                workload,
                "failed_frac",
                {"median": before, "q1": before, "q3": before},
                {"median": after, "q1": after, "q3": after},
                after / before if before else None,
                failure_verdict(before, after),
            )
        )
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="run.py --out file of the baseline")
    parser.add_argument("change", help="run.py --out file of the change")
    args = parser.parse_args(argv)
    declaration = load_declaration()
    parent = json.loads(Path(args.parent).read_text(encoding="utf-8"))
    change = json.loads(Path(args.change).read_text(encoding="utf-8"))
    rows = compare(parent, change, declaration)
    print(
        f"{'workload':17} {'metric':18} {'parent median [q1, q3]':>38} "
        f"{'change median [q1, q3]':>38} {'ratio':>7}  verdict"
    )
    for workload, metric, before, after, ratio, result in rows:
        sides = [f"{row['median']:.5g} [{row['q1']:.5g}, {row['q3']:.5g}]" for row in (before, after)]
        shown = "-" if ratio is None else f"{ratio:.3f}"
        print(f"{workload:17} {metric:18} {sides[0]:>38} {sides[1]:>38} {shown:>7}  {result}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
