"""Impairment sweep — the protocol stack across the netem loss x delay matrix.

The default engine cannot express a lossy or high-latency link; the
protocol backend with :mod:`repro.net.impairment` can.  This experiment
runs the paper workload at protocol fidelity under each profile of the
netem-mirroring matrix (clean, 10% loss, 10 ms delay, 30% loss +
50 ms ± 5 ms) and reports what impairment costs: durability (losses,
blocked repairs) and repair latency (transfer and queueing time per
completed transfer), next to the retry machinery's own counters
(drops, retries, timeouts, gave-ups).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from ..analysis.plots import ascii_chart
from ..analysis.report import format_table
from ..analysis.series import to_days
from ..churn.profiles import ROUNDS_PER_DAY
from ..exec import ExperimentSpec, SweepExecutor, run_experiment
from ..sim.engine import SimulationResult
from .common import DEFAULT, PAPER_FOCUS_THRESHOLD, ExperimentScale

#: The netem-mirroring matrix, swept in severity order.
IMPAIRMENTS = (
    "clean",
    "delay10ms",
    "loss10",
    "loss30_delay50ms_jitter5ms",
)


@dataclass
class ImpairmentResult:
    """Per-impairment-profile replications of the paper workload."""

    scale_name: str
    threshold: int
    by_impairment: Dict[str, List[SimulationResult]]
    categories: List[str]

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Headline means per impairment profile."""
        table: Dict[str, Dict[str, float]] = {}
        for impairment, results in self.by_impairment.items():
            count = len(results)

            def mean(pick) -> float:
                return sum(pick(r) for r in results) / count

            completed = mean(
                lambda r: r.metrics.protocol.get("transfers_completed", 0)
            )
            latency = mean(
                lambda r: r.metrics.protocol.get("transfer_seconds", 0.0)
                + r.metrics.protocol.get("queue_delay_seconds", 0.0)
            )
            table[impairment] = {
                "repairs": mean(lambda r: r.metrics.total_repairs),
                "losses": mean(lambda r: r.metrics.total_losses),
                "blocked": mean(
                    lambda r: sum(
                        c.blocked for c in r.metrics.by_category.values()
                    )
                ),
                "drops": mean(lambda r: r.metrics.protocol.get("drops", 0)),
                "retries": mean(
                    lambda r: r.metrics.protocol.get("retries", 0)
                ),
                "gave_up": mean(
                    lambda r: r.metrics.protocol.get("gave_up", 0)
                ),
                # Mean hours of link time (transfer + queueing) per
                # completed transfer: the repair-latency headline.
                "latency_h": (
                    latency / completed / 3600.0 if completed else 0.0
                ),
            }
        return table

    def loss_series(self) -> Dict[str, List[tuple]]:
        """Newcomer cumulative losses per peer, in days, per profile."""
        series: Dict[str, List[tuple]] = {}
        for impairment, results in self.by_impairment.items():
            series[impairment] = to_days(
                results[0].metrics.losses_per_peer_series("Newcomers"),
                ROUNDS_PER_DAY,
            )
        return series

    def to_csv(self) -> str:
        """CSV text: round, then Newcomer losses-per-peer per profile."""
        from ..sim.trace import series_to_csv

        impairments = sorted(self.by_impairment)
        columns = {
            impairment: dict(
                self.by_impairment[impairment][0]
                .metrics.losses_per_peer_series("Newcomers")
            )
            for impairment in impairments
        }
        rounds = sorted({r for column in columns.values() for r in column})
        rows = [
            [r] + [columns[name].get(r, 0.0) for name in impairments]
            for r in rounds
        ]
        return series_to_csv(["round"] + impairments, rows)

    def render(self, markdown: bool = False) -> str:
        """Headline table and the per-profile loss chart."""
        totals = self.totals()
        ordered = [name for name in IMPAIRMENTS if name in totals]
        ordered += [name for name in sorted(totals) if name not in ordered]
        headline = format_table(
            ["impairment", "repairs", "losses", "blocked", "drops",
             "retries", "gave_up", "latency_h"],
            [
                [
                    name,
                    round(totals[name]["repairs"], 1),
                    round(totals[name]["losses"], 2),
                    round(totals[name]["blocked"], 1),
                    round(totals[name]["drops"], 1),
                    round(totals[name]["retries"], 1),
                    round(totals[name]["gave_up"], 1),
                    round(totals[name]["latency_h"], 2),
                ]
                for name in ordered
            ],
            markdown=markdown,
        )
        chart = ascii_chart(
            self.loss_series(),
            log_y=False,
            title=(
                "Impairment sweep — Newcomer cumulative losses per peer "
                f"(scale={self.scale_name}, threshold={self.threshold})"
            ),
            x_label="days",
            y_label="lost",
        )
        return "\n\n".join([headline, chart])


def fig_impairment_spec(
    scale: ExperimentScale = DEFAULT,
    paper_threshold: int = PAPER_FOCUS_THRESHOLD,
    seeds: Sequence[int] = (),
) -> ExperimentSpec:
    """The loss x delay matrix at protocol fidelity, as one spec.

    Every cell shares the churn trajectory (same seed, same engine), so
    differences between rows are attributable to the link alone.  One
    seed by default — protocol cells pay real per-message costs and the
    matrix is four of them.
    """
    seeds = tuple(seeds) or (scale.seeds[0],)
    base = replace(
        scale.config(paper_threshold=paper_threshold), fidelity="protocol"
    )

    def build(params):
        return replace(base, impairment_profile=params["impairment"])

    def reduce(sweep) -> ImpairmentResult:
        return ImpairmentResult(
            scale_name=scale.name,
            threshold=base.repair_threshold,
            by_impairment=sweep.by_axis("impairment"),
            categories=base.categories.names(),
        )

    return ExperimentSpec(
        name="fig-impairment",
        build=build,
        grid={"impairment": IMPAIRMENTS},
        seeds=seeds,
        reduce=reduce,
    )


def run_fig_impairment(
    scale: ExperimentScale = DEFAULT,
    paper_threshold: int = PAPER_FOCUS_THRESHOLD,
    seeds: Sequence[int] = (),
    executor: Optional[SweepExecutor] = None,
) -> ImpairmentResult:
    """Run the matrix at the focus threshold."""
    return run_experiment(
        fig_impairment_spec(scale, paper_threshold, seeds), executor
    )


def check_shape(result: ImpairmentResult) -> List[str]:
    """The matrix ran, the clean row is clean, the lossy rows lost."""
    problems: List[str] = []
    totals = result.totals()
    for name in IMPAIRMENTS:
        if name not in totals:
            problems.append(f"impairment {name!r} produced no results")
            continue
        if totals[name]["repairs"] <= 0:
            problems.append(f"{name}: the maintenance loop never repaired")
    if "clean" in totals and totals["clean"]["drops"] > 0:
        problems.append("clean: the perfect link dropped exchanges")
    for name in ("loss10", "loss30_delay50ms_jitter5ms"):
        if name in totals and totals[name]["drops"] <= 0:
            problems.append(f"{name}: a lossy link dropped nothing")
    return problems
