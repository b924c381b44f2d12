"""Metric collection for simulation runs.

Everything figures 1-4 plot comes out of this module:

* per-category counters (repairs, losses, blocked repairs, placements)
  and per-category peer-round exposure, giving the "per 1000 peers"
  rates of figures 1 and 2;
* per-category cumulative time series (figure 4);
* per-observer cumulative repair series (figure 3).

Rates are expressed per peer-round: "repairs per 1000 peers" in the
paper's y-axis is the average number of repairs one round of 1000 peers
performs, i.e. ``1000 x repairs / peer_rounds``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.categories import CategoryScheme


@dataclass
class CategoryCounters:
    """Event counters for one age category."""

    repairs: int = 0
    losses: int = 0
    blocked: int = 0
    placements: int = 0
    regenerated_blocks: int = 0
    peer_rounds: float = 0.0


@dataclass
class SeriesPoint:
    """One sampled point of the cumulative time series."""

    round: int
    population: Dict[str, int] = field(default_factory=dict)
    cumulative_repairs: Dict[str, int] = field(default_factory=dict)
    cumulative_losses: Dict[str, int] = field(default_factory=dict)
    observer_repairs: Dict[str, int] = field(default_factory=dict)


class MetricsCollector:
    """Accumulates counters and time series during a run."""

    def __init__(self, categories: CategoryScheme, warmup_rounds: int = 0):
        self.categories = categories
        self.warmup_rounds = warmup_rounds
        self.by_category: Dict[str, CategoryCounters] = {
            name: CategoryCounters() for name in categories.names()
        }
        self.observer_repairs: Dict[str, int] = defaultdict(int)
        self.observer_losses: Dict[str, int] = defaultdict(int)
        self.observer_blocked: Dict[str, int] = defaultdict(int)
        self.series: List[SeriesPoint] = []
        self.total_repairs = 0
        self.total_losses = 0
        self.total_placements = 0
        self.pool_examined = 0
        self.pool_accepted = 0
        self.starved_repairs = 0
        #: Protocol-fidelity counters (transfers, queue delays, fairness
        #: refusals, ...).  Empty for default-fidelity runs — and *only
        #: then absent from* :meth:`to_dict` — so their payloads stay
        #: byte-identical to earlier releases.
        self.protocol: Dict[str, float] = {}
        #: Protocol-fidelity time series, sampled on the same cadence as
        #: :attr:`series` (in-flight transfers, cumulative queue delay).
        self.protocol_series: List[Dict[str, float]] = []

    def _category_name(self, age: float) -> str:
        return self.categories.classify(age).name

    def _counters(self, age: float) -> CategoryCounters:
        return self.by_category[self._category_name(age)]

    # ------------------------------------------------------------------
    # Event recording
    # ------------------------------------------------------------------
    def record_repair(
        self,
        round_number: int,
        age: float,
        regenerated: int,
        observer_name: Optional[str] = None,
    ) -> None:
        """One completed repair that regenerated ``regenerated`` blocks."""
        if observer_name is not None:
            self.observer_repairs[observer_name] += 1
            return
        self.total_repairs += 1
        if round_number >= self.warmup_rounds:
            counters = self._counters(age)
            counters.repairs += 1
            counters.regenerated_blocks += regenerated

    def record_loss(
        self, round_number: int, age: float, observer_name: Optional[str] = None
    ) -> None:
        """One permanently lost archive."""
        if observer_name is not None:
            self.observer_losses[observer_name] += 1
            return
        self.total_losses += 1
        if round_number >= self.warmup_rounds:
            self._counters(age).losses += 1

    def record_blocked(
        self, round_number: int, age: float, observer_name: Optional[str] = None
    ) -> None:
        """One repair attempt that could not gather k blocks."""
        if observer_name is not None:
            self.observer_blocked[observer_name] += 1
            return
        if round_number >= self.warmup_rounds:
            self._counters(age).blocked += 1

    def record_placement(self, round_number: int, age: float) -> None:
        """One initial or post-loss full placement."""
        self.total_placements += 1
        if round_number >= self.warmup_rounds:
            self._counters(age).placements += 1

    def record_pool(self, examined: int, accepted: int) -> None:
        """Pool-building effort (for protocol-cost analyses)."""
        self.pool_examined += examined
        self.pool_accepted += accepted

    def record_starved(self) -> None:
        """A repair that found no recruitable partner at all."""
        self.starved_repairs += 1

    def bump(self, counter: str, amount: float = 1) -> None:
        """Accumulate one protocol-fidelity counter.

        Counters appear lazily: only keys actually bumped are
        serialized, so two protocol runs with different feature sets
        (say, with and without fairness) stay individually canonical.
        """
        self.protocol[counter] = self.protocol.get(counter, 0) + amount

    def sample_protocol(self, round_number: int, **values: float) -> None:
        """Record one point of the protocol-fidelity time series."""
        point: Dict[str, float] = {"round": round_number}
        point.update(values)
        self.protocol_series.append(point)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(
        self,
        round_number: int,
        ages: List[float],
        interval: int,
    ) -> None:
        """Record a census: population per category plus cumulative counts.

        ``ages`` are the current ages of all living normal peers; the
        census also accrues ``interval`` rounds of peer-round exposure to
        each category (used as the rate denominator).
        """
        population: Dict[str, int] = {name: 0 for name in self.by_category}
        for age in ages:
            population[self._category_name(age)] += 1
        self.sample_counts(round_number, population, interval)

    def sample_counts(
        self,
        round_number: int,
        population: Dict[str, int],
        interval: int,
    ) -> None:
        """Record a census from pre-computed per-category counts.

        Same semantics as :meth:`sample` with the classification already
        done: the SoA backend computes the counts in one vectorised pass
        instead of classifying peers one at a time.  ``population`` must
        hold one entry per category, in category order.
        """
        if round_number >= self.warmup_rounds:
            for name, count in population.items():
                self.by_category[name].peer_rounds += count * interval
        point = SeriesPoint(
            round=round_number,
            population=population,
            cumulative_repairs={
                name: counters.repairs for name, counters in self.by_category.items()
            },
            cumulative_losses={
                name: counters.losses for name, counters in self.by_category.items()
            },
            observer_repairs=dict(self.observer_repairs),
        )
        self.series.append(point)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Stable plain-data form of all counters and series (JSON-safe).

        Everything figures 1-4 consume survives the round trip through
        :meth:`from_dict`; the sweep executor uses it to move results
        across process boundaries and into the on-disk cache.
        """
        data: Dict[str, object] = {
            "categories": self.categories.to_dict(),
            "warmup_rounds": self.warmup_rounds,
            "by_category": {
                name: {
                    "repairs": counters.repairs,
                    "losses": counters.losses,
                    "blocked": counters.blocked,
                    "placements": counters.placements,
                    "regenerated_blocks": counters.regenerated_blocks,
                    "peer_rounds": counters.peer_rounds,
                }
                for name, counters in self.by_category.items()
            },
            "observer_repairs": dict(self.observer_repairs),
            "observer_losses": dict(self.observer_losses),
            "observer_blocked": dict(self.observer_blocked),
            "series": [
                {
                    "round": point.round,
                    "population": dict(point.population),
                    "cumulative_repairs": dict(point.cumulative_repairs),
                    "cumulative_losses": dict(point.cumulative_losses),
                    "observer_repairs": dict(point.observer_repairs),
                }
                for point in self.series
            ],
            "total_repairs": self.total_repairs,
            "total_losses": self.total_losses,
            "total_placements": self.total_placements,
            "pool_examined": self.pool_examined,
            "pool_accepted": self.pool_accepted,
            "starved_repairs": self.starved_repairs,
        }
        # Protocol-fidelity extras only when present: default-fidelity
        # payloads (and therefore their cached bytes) must not change
        # shape when the protocol backend is merely available.
        if self.protocol:
            data["protocol"] = dict(self.protocol)
        if self.protocol_series:
            data["protocol_series"] = [
                dict(point) for point in self.protocol_series
            ]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MetricsCollector":
        """Rebuild a collector from :meth:`to_dict` output."""
        from ..core.categories import CategoryScheme

        collector = cls(
            CategoryScheme.from_dict(data["categories"]),
            data["warmup_rounds"],
        )
        for name, values in data["by_category"].items():
            collector.by_category[name] = CategoryCounters(
                repairs=values["repairs"],
                losses=values["losses"],
                blocked=values["blocked"],
                placements=values["placements"],
                regenerated_blocks=values["regenerated_blocks"],
                peer_rounds=values["peer_rounds"],
            )
        collector.observer_repairs.update(data["observer_repairs"])
        collector.observer_losses.update(data["observer_losses"])
        collector.observer_blocked.update(data["observer_blocked"])
        collector.series = [
            SeriesPoint(
                round=point["round"],
                population=dict(point["population"]),
                cumulative_repairs=dict(point["cumulative_repairs"]),
                cumulative_losses=dict(point["cumulative_losses"]),
                observer_repairs=dict(point["observer_repairs"]),
            )
            for point in data["series"]
        ]
        collector.total_repairs = data["total_repairs"]
        collector.total_losses = data["total_losses"]
        collector.total_placements = data["total_placements"]
        collector.pool_examined = data["pool_examined"]
        collector.pool_accepted = data["pool_accepted"]
        collector.starved_repairs = data["starved_repairs"]
        collector.protocol = dict(data.get("protocol", {}))
        collector.protocol_series = [
            dict(point) for point in data.get("protocol_series", [])
        ]
        return collector

    # ------------------------------------------------------------------
    # Derived rates
    # ------------------------------------------------------------------
    def repair_rate_per_1000(self, category: str) -> float:
        """Average repairs per round per 1000 peers of a category."""
        counters = self.by_category[category]
        if counters.peer_rounds == 0:
            return 0.0
        return 1000.0 * counters.repairs / counters.peer_rounds

    def loss_rate_per_1000(self, category: str) -> float:
        """Average archive losses per round per 1000 peers of a category."""
        counters = self.by_category[category]
        if counters.peer_rounds == 0:
            return 0.0
        return 1000.0 * counters.losses / counters.peer_rounds

    def rates_table(self) -> Dict[str, Dict[str, float]]:
        """All per-category rates in one structure (report-friendly)."""
        table: Dict[str, Dict[str, float]] = {}
        for name, counters in self.by_category.items():
            table[name] = {
                "repairs_per_1000": self.repair_rate_per_1000(name),
                "losses_per_1000": self.loss_rate_per_1000(name),
                "repairs": float(counters.repairs),
                "losses": float(counters.losses),
                "blocked": float(counters.blocked),
                "peer_rounds": counters.peer_rounds,
            }
        return table

    def observer_series(self, observer_name: str) -> List[tuple]:
        """``(round, cumulative repairs)`` points for one observer."""
        return [
            (point.round, point.observer_repairs.get(observer_name, 0))
            for point in self.series
        ]

    def category_loss_series(self, category: str) -> List[tuple]:
        """``(round, cumulative losses)`` points for one category."""
        return [
            (point.round, point.cumulative_losses.get(category, 0))
            for point in self.series
        ]

    def losses_per_peer_series(self, category: str) -> List[tuple]:
        """Figure 4's y-axis: cumulative losses / current category population."""
        series = []
        for point in self.series:
            population = point.population.get(category, 0)
            losses = point.cumulative_losses.get(category, 0)
            value = losses / population if population else 0.0
            series.append((point.round, value))
        return series
