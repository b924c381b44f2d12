"""The ``Scenario`` builder: chainable construction of arbitrary workloads.

A :class:`Scenario` wraps a :class:`~repro.sim.config.SimulationConfig`
and exposes one chainable method per extension point, resolving names
through the component registries::

    from repro.scenarios import Scenario
    from repro.sim.config import PAPER_OBSERVERS

    config = (
        Scenario.paper()
        .with_churn("flash_crowd")
        .with_selection("availability")
        .observers(PAPER_OBSERVERS)
        .build()
    )

Every method returns a **new** scenario (the builder is immutable), so
presets can be shared safely: deriving from a registry preset never
mutates it.  ``build()`` returns a plain ``SimulationConfig`` — scenarios
add no new config fields, which keeps ``to_dict`` serialization and the
sweep executor's cache keys byte-identical with earlier releases.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence, Tuple, Union

from ..churn.profiles import CHURN_MIXES, Profile, validate_mix
from ..core.acceptance import ACCEPTANCE_RULES
from ..core.policy import scaled_threshold
from ..core.selection import SELECTION_STRATEGIES
from ..net.bandwidth import LINK_PROFILES
from ..net.impairment import IMPAIRMENT_PROFILES
from ..sim.config import DEFAULT_FIDELITY, ObserverSpec, SimulationConfig

#: Either a registered mix name or an explicit profile tuple.
ChurnMix = Union[str, Sequence[Profile]]


class Scenario:
    """An immutable, chainable builder of simulation workloads."""

    __slots__ = ("name", "description", "_config")

    def __init__(
        self,
        config: Optional[SimulationConfig] = None,
        name: str = "custom",
        description: str = "",
    ):
        self.name = name
        self.description = description
        self._config = config if config is not None else SimulationConfig()

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    @classmethod
    def paper(cls, **overrides) -> "Scenario":
        """Start from the paper's exact full-scale setting (section 4.1)."""
        return cls(SimulationConfig.paper(**overrides), name="paper")

    @classmethod
    def scaled(cls, **overrides) -> "Scenario":
        """Start from the laptop-scale setting preserving the paper's ratios."""
        return cls(SimulationConfig.scaled(**overrides), name="scaled")

    @classmethod
    def from_config(cls, config: SimulationConfig, name: str = "custom") -> "Scenario":
        """Wrap an existing configuration."""
        return cls(config, name=name)

    # ------------------------------------------------------------------
    # Chainable construction
    # ------------------------------------------------------------------
    def _derive(self, **changes) -> "Scenario":
        scenario = Scenario(
            replace(self._config, **changes),
            name=self.name,
            description=self.description,
        )
        return scenario

    def named(self, name: str, description: str = "") -> "Scenario":
        """Set the scenario's display name (and optional description)."""
        scenario = Scenario(self._config, name=name,
                            description=description or self.description)
        return scenario

    def with_churn(self, mix: ChurnMix) -> "Scenario":
        """Swap the churn mix: a registered name or an explicit profile tuple."""
        if isinstance(mix, str):
            profiles = CHURN_MIXES.get(mix)
        else:
            profiles = tuple(mix)
            validate_mix(profiles)
        return self._derive(profiles=profiles)

    def with_selection(self, strategy: str) -> "Scenario":
        """Swap the partner-selection strategy (registered name)."""
        SELECTION_STRATEGIES.check(strategy)
        return self._derive(selection_strategy=strategy)

    def with_acceptance(self, rule: str) -> "Scenario":
        """Swap the acceptance rule (registered name)."""
        ACCEPTANCE_RULES.check(rule)
        return self._derive(acceptance_rule=rule)

    def with_code(
        self,
        data_blocks: int,
        parity_blocks: int,
        repair_threshold: Optional[int] = None,
    ) -> "Scenario":
        """Swap the code width (k, m), rescaling the repair threshold.

        When ``repair_threshold`` is omitted, the current threshold's
        slack fraction ``(k' - k)/(n - k)`` is preserved across the new
        ``(k, n)`` — the same mapping the experiment scales use.  A
        parity-free side (source or target) has no slack range, so its
        only consistent threshold is ``k' = k``.
        """
        config = self._config
        if repair_threshold is None:
            if parity_blocks == 0 or config.total_blocks == config.data_blocks:
                repair_threshold = data_blocks
            else:
                repair_threshold = scaled_threshold(
                    config.repair_threshold,
                    paper_k=config.data_blocks,
                    paper_n=config.total_blocks,
                    target_k=data_blocks,
                    target_n=data_blocks + parity_blocks,
                )
        return self._derive(
            data_blocks=data_blocks,
            parity_blocks=parity_blocks,
            repair_threshold=repair_threshold,
        )

    def with_threshold(self, repair_threshold: int) -> "Scenario":
        """Set the repair threshold ``k'``."""
        return self._derive(repair_threshold=repair_threshold)

    def with_population(self, population: int) -> "Scenario":
        """Set the peer population."""
        return self._derive(population=population)

    def with_rounds(self, rounds: int) -> "Scenario":
        """Set the simulated horizon, in rounds."""
        return self._derive(rounds=rounds)

    def with_quota(self, quota: int) -> "Scenario":
        """Set the per-peer hosting quota."""
        return self._derive(quota=quota)

    def with_seed(self, seed: Optional[int]) -> "Scenario":
        """Set the replication seed."""
        return self._derive(seed=seed)

    def with_grace(self, grace_rounds: int) -> "Scenario":
        """Retain invisible holders for ``grace_rounds`` before replacing."""
        return self._derive(grace_rounds=grace_rounds)

    def with_staggered_join(self, staggered_join_rounds: int) -> "Scenario":
        """Spread initial joins over a window (0 = everyone at round 0)."""
        return self._derive(staggered_join_rounds=staggered_join_rounds)

    def with_proactive(self, proactive_rate: float) -> "Scenario":
        """Enable proactive replication at ``proactive_rate`` blocks/round."""
        return self._derive(proactive_rate=proactive_rate)

    def with_adaptive_thresholds(self, enabled: bool = True) -> "Scenario":
        """Toggle per-peer adaptive repair thresholds (ablation A5)."""
        return self._derive(adaptive_thresholds=enabled)

    def with_fidelity(self, fidelity: str) -> "Scenario":
        """Swap the simulation backend (registered fidelity name).

        ``"abstract_soa"`` (the default) is the counter-flipping engine
        behind the figures; ``"protocol"`` executes repairs as real
        store/fetch exchanges gated by the bandwidth model.  Any
        scenario runs at any fidelity — the churn trajectory is shared.
        """
        from ..sim.fidelity import check_fidelity

        check_fidelity(fidelity)
        return self._derive(fidelity=fidelity)

    def with_link(self, link_profile: str) -> "Scenario":
        """Set the access-link profile gating protocol-mode transfers."""
        LINK_PROFILES.check(link_profile)
        return self._derive(link_profile=link_profile)

    def with_archive_bytes(self, archive_bytes: int) -> "Scenario":
        """Set the per-archive size the protocol cost model prices."""
        return self._derive(archive_bytes=archive_bytes)

    def with_fairness(self, fairness_factor: Optional[float]) -> "Scenario":
        """Enable (or disable, with ``None``) protocol-mode fairness caps."""
        return self._derive(fairness_factor=fairness_factor)

    def with_impairment(
        self,
        impairment_profile: str,
        retry_budget: Optional[int] = None,
        retry_backoff_base: Optional[int] = None,
        retry_backoff_cap: Optional[int] = None,
    ) -> "Scenario":
        """Apply a netem-style link condition to protocol-mode exchanges.

        ``impairment_profile`` is a registered
        :data:`~repro.net.impairment.IMPAIRMENT_PROFILES` name; the
        optional arguments tune how hard the protocol fights the
        impaired link (retry attempts per exchange and the exponential
        backoff window, in rounds).
        """
        IMPAIRMENT_PROFILES.check(impairment_profile)
        changes = {"impairment_profile": impairment_profile}
        if retry_budget is not None:
            changes["retry_budget"] = retry_budget
        if retry_backoff_base is not None:
            changes["retry_backoff_base"] = retry_backoff_base
        if retry_backoff_cap is not None:
            changes["retry_backoff_cap"] = retry_backoff_cap
        return self._derive(**changes)

    def observers(self, specs: Sequence[ObserverSpec]) -> "Scenario":
        """Attach fixed-age observer peers (paper section 4.2.2)."""
        return self._derive(observers=tuple(specs))

    def override(self, **fields) -> "Scenario":
        """Escape hatch: replace arbitrary ``SimulationConfig`` fields."""
        return self._derive(**fields)

    # ------------------------------------------------------------------
    # Terminal operations
    # ------------------------------------------------------------------
    def build(self) -> SimulationConfig:
        """The finished (validated) configuration."""
        return self._config

    def run(self):
        """Build and run the scenario once, returning the simulation result."""
        from ..sim.engine import run_simulation

        return run_simulation(self._config)

    def spec(self, seeds: Tuple[int, ...] = (0,), reduce=None):
        """This scenario as a gridless :class:`~repro.exec.spec.ExperimentSpec`.

        The executor applies ``.with_seed(seed)`` per replication, so
        the scenario runs through the same cached machinery as every
        figure sweep — including any execution backend (``serial``,
        ``process``, or ``distributed`` across hosts sharing a cache
        directory; ``repro-experiments run --scenario NAME --backend
        distributed`` is this method plus a ``SweepExecutor``).
        """
        from ..exec.spec import ExperimentSpec

        config = self._config
        return ExperimentSpec(
            name=f"scenario-{self.name}",
            build=lambda params: config,
            seeds=tuple(seeds),
            reduce=reduce,
        )

    def describe(self) -> str:
        """One human-readable line per headline knob."""
        config = self._config
        mix = "+".join(profile.name for profile in config.profiles)
        lines = [
            f"scenario {self.name}",
            f"  population={config.population} rounds={config.rounds}",
            f"  code k={config.data_blocks} n={config.total_blocks} "
            f"k'={config.repair_threshold} quota={config.quota}",
            f"  selection={config.selection_strategy} "
            f"acceptance={config.acceptance_rule}",
            f"  churn mix: {mix}",
        ]
        if self.description:
            lines.insert(1, f"  {self.description}")
        if config.fidelity != DEFAULT_FIDELITY:
            fairness = (
                f" fairness={config.fairness_factor:g}"
                if config.fairness_factor is not None
                else ""
            )
            impairment = (
                f" impairment={config.impairment_profile}"
                f" retries={config.retry_budget}"
                if config.impairment_profile != "clean"
                else ""
            )
            lines.append(
                f"  fidelity={config.fidelity} link={config.link_profile} "
                f"archive={config.archive_bytes // (1024 * 1024)}MB"
                f"{fairness}{impairment}"
            )
        if config.observers:
            names = ", ".join(spec.name for spec in config.observers)
            lines.append(f"  observers: {names}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Scenario(name={self.name!r}, "
            f"population={self._config.population}, "
            f"rounds={self._config.rounds}, "
            f"selection={self._config.selection_strategy!r})"
        )
