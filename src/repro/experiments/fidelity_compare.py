"""Fidelity comparison — default vs protocol curves from one spec.

The repository's figures are produced by the default ``abstract_soa``
engine (peers as counters, repairs as instantaneous flips).  The protocol backend
(:mod:`repro.sim.protocol`) replays the same seeded churn trajectory
with repairs executed as real store/fetch exchanges gated by the
bandwidth model.  This experiment runs the paper workload at both
fidelities through one declarative spec and reports the loss/repair
curves side by side — the validation that the abstraction the paper's
numbers rest on does not change the qualitative story, plus the
protocol-only observables (transfer time, link queueing) the default
engine cannot see.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from ..analysis.plots import ascii_chart
from ..analysis.report import format_table
from ..analysis.series import to_days
from ..churn.profiles import ROUNDS_PER_DAY
from ..exec import ExperimentSpec, SweepExecutor, run_experiment
from ..sim.config import DEFAULT_FIDELITY
from ..sim.engine import SimulationResult
from .common import DEFAULT, PAPER_FOCUS_THRESHOLD, ExperimentScale

#: The default fidelity (the figures' cell) against the message level.
FIDELITIES = (DEFAULT_FIDELITY, "protocol")


@dataclass
class FidelityCompareResult:
    """Per-fidelity replications of one workload."""

    scale_name: str
    threshold: int
    by_fidelity: Dict[str, List[SimulationResult]]
    categories: List[str]

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Headline means per fidelity (repairs, losses, blocked, ...)."""
        table: Dict[str, Dict[str, float]] = {}
        for fidelity, results in self.by_fidelity.items():
            count = len(results)
            blocked = sum(
                sum(c.blocked for c in r.metrics.by_category.values())
                for r in results
            )
            table[fidelity] = {
                "repairs": sum(r.metrics.total_repairs for r in results) / count,
                "losses": sum(r.metrics.total_losses for r in results) / count,
                "placements": sum(
                    r.metrics.total_placements for r in results
                ) / count,
                "blocked": blocked / count,
                "starved": sum(
                    r.metrics.starved_repairs for r in results
                ) / count,
            }
        return table

    def protocol_extras(self) -> Dict[str, float]:
        """Mean protocol-only counters (transfer time, queueing, ...)."""
        results = self.by_fidelity.get("protocol", [])
        if not results:
            return {}
        keys = sorted({key for r in results for key in r.metrics.protocol})
        return {
            key: sum(r.metrics.protocol.get(key, 0) for r in results)
            / len(results)
            for key in keys
        }

    def loss_series(self) -> Dict[str, List[tuple]]:
        """Newcomer cumulative losses per peer, in days, per fidelity."""
        series: Dict[str, List[tuple]] = {}
        for fidelity, results in self.by_fidelity.items():
            series[fidelity] = to_days(
                results[0].metrics.losses_per_peer_series("Newcomers"),
                ROUNDS_PER_DAY,
            )
        return series

    def to_csv(self) -> str:
        """CSV text: round, then Newcomer losses-per-peer per fidelity."""
        from ..sim.trace import series_to_csv

        fidelities = sorted(self.by_fidelity)
        columns = {
            fidelity: dict(
                self.by_fidelity[fidelity][0].metrics.losses_per_peer_series(
                    "Newcomers"
                )
            )
            for fidelity in fidelities
        }
        rounds = sorted({r for column in columns.values() for r in column})
        rows = [
            [r] + [columns[fidelity].get(r, 0.0) for fidelity in fidelities]
            for r in rounds
        ]
        return series_to_csv(["round"] + fidelities, rows)

    def render(self, markdown: bool = False) -> str:
        """Headline table, per-category rates, extras and the loss chart."""
        totals = self.totals()
        fidelities = sorted(totals)
        headline = format_table(
            ["fidelity", "repairs", "losses", "placements", "blocked",
             "starved"],
            [
                [
                    fidelity,
                    round(totals[fidelity]["repairs"], 1),
                    round(totals[fidelity]["losses"], 2),
                    round(totals[fidelity]["placements"], 1),
                    round(totals[fidelity]["blocked"], 1),
                    round(totals[fidelity]["starved"], 1),
                ]
                for fidelity in fidelities
            ],
            markdown=markdown,
        )
        rate_rows = []
        for category in self.categories:
            row = [category]
            for fidelity in fidelities:
                results = self.by_fidelity[fidelity]
                rate = sum(
                    r.metrics.repair_rate_per_1000(category) for r in results
                ) / len(results)
                row.append(round(rate, 4))
            rate_rows.append(row)
        rates = format_table(
            ["repairs/round/1000"] + list(fidelities), rate_rows,
            markdown=markdown,
        )
        sections = [headline, rates]
        extras = self.protocol_extras()
        if extras:
            sections.append(
                format_table(
                    ["protocol metric", "mean"],
                    # Hours for the duration-like counters, which
                    # otherwise dwarf the table.
                    [
                        [key, round(value / 3600.0, 1)]
                        if key.endswith("_seconds")
                        else [key, round(value, 1)]
                        for key, value in sorted(extras.items())
                    ],
                    markdown=markdown,
                )
            )
        sections.append(
            ascii_chart(
                self.loss_series(),
                log_y=False,
                title=(
                    "Fidelity comparison — Newcomer cumulative losses per "
                    f"peer (scale={self.scale_name}, "
                    f"threshold={self.threshold})"
                ),
                x_label="days",
                y_label="lost",
            )
        )
        return "\n\n".join(sections)


def fidelity_compare_spec(
    scale: ExperimentScale = DEFAULT,
    paper_threshold: int = PAPER_FOCUS_THRESHOLD,
    seeds: Sequence[int] = (),
) -> ExperimentSpec:
    """Default vs protocol on the paper workload, as one declarative spec.

    The ``fidelity`` grid axis is the only difference between the two
    cells of a seed, so the default cell is *the same cell* (same
    config, same digest) the other figures run — sweeps sharing the
    cache never simulate it twice.  One seed by default: the protocol
    cell pays real per-message costs and the comparison is qualitative.
    """
    seeds = tuple(seeds) or (scale.seeds[0],)
    base = scale.config(paper_threshold=paper_threshold)

    def build(params):
        return replace(base, fidelity=params["fidelity"])

    def reduce(sweep) -> FidelityCompareResult:
        return FidelityCompareResult(
            scale_name=scale.name,
            threshold=base.repair_threshold,
            by_fidelity=sweep.by_axis("fidelity"),
            categories=base.categories.names(),
        )

    return ExperimentSpec(
        name="fig-fidelity",
        build=build,
        grid={"fidelity": FIDELITIES},
        seeds=seeds,
        reduce=reduce,
    )


def run_fidelity_compare(
    scale: ExperimentScale = DEFAULT,
    paper_threshold: int = PAPER_FOCUS_THRESHOLD,
    seeds: Sequence[int] = (),
    executor: Optional[SweepExecutor] = None,
) -> FidelityCompareResult:
    """Run the comparison at the focus threshold."""
    return run_experiment(
        fidelity_compare_spec(scale, paper_threshold, seeds), executor
    )


def check_shape(result: FidelityCompareResult) -> List[str]:
    """Both fidelities ran and tell the same qualitative story."""
    problems: List[str] = []
    totals = result.totals()
    for fidelity in FIDELITIES:
        if fidelity not in totals:
            problems.append(f"fidelity {fidelity!r} produced no results")
            continue
        if totals[fidelity]["placements"] <= 0:
            problems.append(f"{fidelity}: no archive was ever placed")
    if "protocol" in totals:
        extras = result.protocol_extras()
        if extras.get("transfers_completed", 0) <= 0:
            problems.append("protocol: no transfer ever completed")
        if totals["protocol"]["repairs"] <= 0:
            problems.append("protocol: the maintenance loop never repaired")
    return problems
