"""Simulation configuration.

One frozen dataclass collects every knob of the reproduction; the paper's
full-scale parameters (section 4.1) and the scaled laptop defaults both
come from here.  ``SimulationConfig.paper()`` returns the exact published
setting; ``SimulationConfig.scaled()`` returns the default used by the
test-suite and benchmarks, with the repair threshold mapped through
:func:`repro.core.policy.scaled_threshold`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple

from ..churn.profiles import PAPER_PROFILES, ROUNDS_PER_DAY, Profile, validate_mix
from ..core.acceptance import ACCEPTANCE_RULES, DEFAULT_AGE_CAP
from ..core.categories import DEFAULT_SCHEME, CategoryScheme
from ..core.policy import RepairPolicy, scaled_threshold
from ..core.selection import SELECTION_STRATEGIES
from ..net.bandwidth import LINK_PROFILES, MEGABYTE
from ..net.impairment import IMPAIRMENT_PROFILES

#: The fidelity whose serialized form is the historical one.  Configs at
#: this fidelity omit every fidelity-related key from ``to_dict`` so
#: their cache digests stay byte-identical across releases (the
#: object-graph engine it replaced produced the same results, pinned by
#: ``tests/golden/results.json``).
DEFAULT_FIDELITY = "abstract_soa"


@dataclass(frozen=True)
class ObserverSpec:
    """A fixed-age observer peer (paper section 4.2.2)."""

    name: str
    fixed_age: int

    def __post_init__(self) -> None:
        if self.fixed_age < 0:
            raise ValueError("observer age cannot be negative")

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form (JSON-safe)."""
        return {"name": self.name, "fixed_age": self.fixed_age}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ObserverSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        return cls(name=data["name"], fixed_age=data["fixed_age"])


#: The paper's five observers: Elder (3 months = the cap L), Senior
#: (1 month), Adult (1 week), Teenager (1 day), Baby (1 hour).
PAPER_OBSERVERS: Tuple[ObserverSpec, ...] = (
    ObserverSpec("Elder", 90 * ROUNDS_PER_DAY),
    ObserverSpec("Senior", 30 * ROUNDS_PER_DAY),
    ObserverSpec("Adult", 7 * ROUNDS_PER_DAY),
    ObserverSpec("Teenager", 1 * ROUNDS_PER_DAY),
    ObserverSpec("Baby", 1),
)


@dataclass(frozen=True)
class SimulationConfig:
    """Every parameter of one simulation run."""

    population: int = 1000
    rounds: int = 10_000
    data_blocks: int = 16            # k
    parity_blocks: int = 16          # m
    repair_threshold: int = 18       # k'
    quota: int = 48                  # hosted blocks per peer (paper: 384 = 1.5 n)
    age_cap: int = DEFAULT_AGE_CAP   # L of the acceptation function
    profiles: Tuple[Profile, ...] = PAPER_PROFILES
    categories: CategoryScheme = field(default_factory=lambda: DEFAULT_SCHEME)
    selection_strategy: str = "age"
    acceptance_rule: str = "age"   # "age" (the paper's f) or "uniform" (blind)
    observers: Tuple[ObserverSpec, ...] = ()
    seed: Optional[int] = 0
    # --- secondary knobs -------------------------------------------------
    pool_factor: float = 1.5         # pool target = pool_factor * d
    max_examined_factor: float = 6.0  # candidate budget = factor * d + 16
    sample_interval: int = ROUNDS_PER_DAY  # metrics sampling cadence
    warmup_rounds: int = 0           # rounds excluded from rate metrics
    grace_rounds: int = 0            # A3: retain invisible holders this long
    staggered_join_rounds: int = 0   # 0 = everyone joins at round 0
    proactive_rate: float = 0.0      # A4: extra blocks per round per archive
    adaptive_thresholds: bool = False  # A5: per-peer threshold adaptation (paper future work)
    # --- fidelity backend (PR 5) -----------------------------------------
    #: Which simulation backend executes the run: "abstract_soa" (peers
    #: as state-table columns, repairs instantaneous) or "protocol"
    #: (repairs as real message exchanges with bandwidth-gated
    #: completion).  Resolved through
    #: ``repro.sim.fidelity.FIDELITY_BACKENDS``.
    fidelity: str = DEFAULT_FIDELITY
    #: Access-link profile gating protocol-mode transfer times
    #: (``repro.net.bandwidth.LINK_PROFILES`` name).
    link_profile: str = "paper-dsl"
    #: Wall-clock seconds per simulation round (the paper: one hour).
    round_seconds: int = 3600
    #: Bytes per archive for the protocol-mode cost model (paper: 128 MB).
    archive_bytes: int = 128 * MEGABYTE
    #: Pairwise-exchange fairness cap enforced by protocol-mode block
    #: stores (``None`` disables enforcement; see repro.backup.fairness).
    fairness_factor: Optional[float] = None
    #: Netem-style link condition applied to protocol-mode exchanges
    #: (``repro.net.impairment.IMPAIRMENT_PROFILES`` name).  "clean"
    #: leaves the transport untouched and consumes no RNG draws.
    impairment_profile: str = "clean"
    #: How many times a placement/repair/restore exchange is retried
    #: after an impairment-layer timeout before the operation gives up
    #: and re-enqueues as an ordinary check.
    retry_budget: int = 3
    #: Rounds to wait before the first retry of a timed-out exchange;
    #: doubles per attempt (capped below).
    retry_backoff_base: int = 1
    #: Ceiling on the exponential retry backoff, in rounds.
    retry_backoff_cap: int = 8

    def __post_init__(self) -> None:
        if self.population <= 0:
            raise ValueError("population must be positive")
        if self.rounds <= 0:
            raise ValueError("rounds must be positive")
        if self.quota <= 0:
            raise ValueError(
                f"quota must be positive, got {self.quota}: every peer "
                "must be able to host at least one block, or no archive "
                "can ever be placed"
            )
        if self.data_blocks < 1:
            raise ValueError(f"data_blocks (k) must be >= 1, got {self.data_blocks}")
        if self.parity_blocks < 0:
            raise ValueError(
                f"parity_blocks (m) cannot be negative, got {self.parity_blocks}"
            )
        total = self.data_blocks + self.parity_blocks
        if self.repair_threshold > total:
            raise ValueError(
                f"repair_threshold={self.repair_threshold} exceeds "
                f"data_blocks + parity_blocks = {total}: a repair can "
                "never place more than n blocks, so the archive would "
                "repair forever — lower repair_threshold or widen the code"
            )
        if self.repair_threshold < self.data_blocks:
            raise ValueError(
                f"repair_threshold={self.repair_threshold} is below "
                f"data_blocks = {self.data_blocks}: fewer than k visible "
                "blocks cannot decode, so repairs would trigger only "
                "after the archive is already lost — raise repair_threshold"
            )
        if self.sample_interval <= 0:
            raise ValueError("sample_interval must be positive")
        if not 0 <= self.warmup_rounds < self.rounds:
            raise ValueError("warmup_rounds must lie in [0, rounds)")
        if self.pool_factor < 1.0:
            raise ValueError("pool_factor must be >= 1")
        if self.max_examined_factor <= 0:
            raise ValueError("max_examined_factor must be positive")
        if self.grace_rounds < 0:
            raise ValueError("grace_rounds cannot be negative")
        if self.staggered_join_rounds < 0:
            raise ValueError("staggered_join_rounds cannot be negative")
        if self.proactive_rate < 0:
            raise ValueError("proactive_rate cannot be negative")
        if self.round_seconds <= 0:
            raise ValueError("round_seconds must be positive")
        if self.archive_bytes <= 0:
            raise ValueError("archive_bytes must be positive")
        if self.fairness_factor is not None and self.fairness_factor <= 0:
            raise ValueError("fairness_factor must be positive (or None)")
        if self.retry_budget < 0:
            raise ValueError("retry_budget cannot be negative")
        if self.retry_backoff_base < 1:
            raise ValueError("retry_backoff_base must be at least one round")
        if self.retry_backoff_cap < self.retry_backoff_base:
            raise ValueError(
                "retry_backoff_cap cannot be below retry_backoff_base"
            )
        # Component names resolve through the registries, so a typo (or a
        # strategy that was never registered) fails here with the list of
        # valid choices instead of deep inside a backend's setup.
        SELECTION_STRATEGIES.check(self.selection_strategy)
        ACCEPTANCE_RULES.check(self.acceptance_rule)
        LINK_PROFILES.check(self.link_profile)
        IMPAIRMENT_PROFILES.check(self.impairment_profile)
        # Imported lazily: the fidelity registry's built-in backends live
        # in modules that themselves import this one.
        from .fidelity import check_fidelity

        check_fidelity(self.fidelity)
        validate_mix(self.profiles)

    def policy(self) -> RepairPolicy:
        """The repair policy implied by k, m and the threshold."""
        return RepairPolicy(
            data_blocks=self.data_blocks,
            total_blocks=self.data_blocks + self.parity_blocks,
            repair_threshold=self.repair_threshold,
        )

    @property
    def total_blocks(self) -> int:
        """``n = k + m``."""
        return self.data_blocks + self.parity_blocks

    def to_dict(self) -> Dict[str, object]:
        """Stable plain-data form of every knob (JSON-safe).

        This is the canonical content of a configuration: the sweep
        executor hashes it for the on-disk result cache and ships it to
        worker processes, so the field set must round-trip exactly
        through :meth:`from_dict`.

        Fidelity keys are emitted **only** for non-default configs:
        default-fidelity dicts (and therefore their cache digests) are
        byte-identical to releases that predate the fidelity axis, while
        protocol-mode configs hash every knob that changes their
        semantics.
        """
        data: Dict[str, object] = {
            "population": self.population,
            "rounds": self.rounds,
            "data_blocks": self.data_blocks,
            "parity_blocks": self.parity_blocks,
            "repair_threshold": self.repair_threshold,
            "quota": self.quota,
            "age_cap": self.age_cap,
            "profiles": [profile.to_dict() for profile in self.profiles],
            "categories": self.categories.to_dict(),
            "selection_strategy": self.selection_strategy,
            "acceptance_rule": self.acceptance_rule,
            "observers": [observer.to_dict() for observer in self.observers],
            "seed": self.seed,
            "pool_factor": self.pool_factor,
            "max_examined_factor": self.max_examined_factor,
            "sample_interval": self.sample_interval,
            "warmup_rounds": self.warmup_rounds,
            "grace_rounds": self.grace_rounds,
            "staggered_join_rounds": self.staggered_join_rounds,
            "proactive_rate": self.proactive_rate,
            "adaptive_thresholds": self.adaptive_thresholds,
        }
        if self.fidelity != DEFAULT_FIDELITY:
            data["fidelity"] = self.fidelity
            data["link_profile"] = self.link_profile
            data["round_seconds"] = self.round_seconds
            data["archive_bytes"] = self.archive_bytes
            data["fairness_factor"] = self.fairness_factor
            data["impairment_profile"] = self.impairment_profile
            data["retry_budget"] = self.retry_budget
            data["retry_backoff_base"] = self.retry_backoff_base
            data["retry_backoff_cap"] = self.retry_backoff_cap
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimulationConfig":
        """Rebuild (and re-validate) a config from :meth:`to_dict` output."""
        return cls(
            population=data["population"],
            rounds=data["rounds"],
            data_blocks=data["data_blocks"],
            parity_blocks=data["parity_blocks"],
            repair_threshold=data["repair_threshold"],
            quota=data["quota"],
            age_cap=data["age_cap"],
            profiles=tuple(
                Profile.from_dict(entry) for entry in data["profiles"]
            ),
            categories=CategoryScheme.from_dict(data["categories"]),
            selection_strategy=data["selection_strategy"],
            acceptance_rule=data["acceptance_rule"],
            observers=tuple(
                ObserverSpec.from_dict(entry) for entry in data["observers"]
            ),
            seed=data["seed"],
            pool_factor=data["pool_factor"],
            max_examined_factor=data["max_examined_factor"],
            sample_interval=data["sample_interval"],
            warmup_rounds=data["warmup_rounds"],
            grace_rounds=data["grace_rounds"],
            staggered_join_rounds=data["staggered_join_rounds"],
            proactive_rate=data["proactive_rate"],
            adaptive_thresholds=data["adaptive_thresholds"],
            fidelity=data.get("fidelity", DEFAULT_FIDELITY),
            link_profile=data.get("link_profile", "paper-dsl"),
            round_seconds=data.get("round_seconds", 3600),
            archive_bytes=data.get("archive_bytes", 128 * MEGABYTE),
            fairness_factor=data.get("fairness_factor"),
            impairment_profile=data.get("impairment_profile", "clean"),
            retry_budget=data.get("retry_budget", 3),
            retry_backoff_base=data.get("retry_backoff_base", 1),
            retry_backoff_cap=data.get("retry_backoff_cap", 8),
        )

    def with_threshold(self, repair_threshold: int) -> "SimulationConfig":
        """Copy with a different repair threshold (threshold sweeps)."""
        return replace(self, repair_threshold=repair_threshold)

    def with_seed(self, seed: Optional[int]) -> "SimulationConfig":
        """Copy with a different seed (replications)."""
        return replace(self, seed=seed)

    @classmethod
    def paper(
        cls,
        repair_threshold: int = 148,
        observers: Sequence[ObserverSpec] = (),
        seed: Optional[int] = 0,
    ) -> "SimulationConfig":
        """The exact full-scale setting of section 4.1.

        25 000 peers, k = m = 128, quota = 384, 50 000 one-hour rounds.
        Running this in pure Python takes hours; it exists so the scaled
        runs have an explicit, executable reference point.
        """
        return cls(
            population=25_000,
            rounds=50_000,
            data_blocks=128,
            parity_blocks=128,
            repair_threshold=repair_threshold,
            quota=384,
            observers=tuple(observers),
            seed=seed,
        )

    @classmethod
    def scaled(
        cls,
        paper_threshold: int = 148,
        population: int = 1000,
        rounds: int = 10_000,
        data_blocks: int = 16,
        parity_blocks: int = 16,
        observers: Sequence[ObserverSpec] = (),
        seed: Optional[int] = 0,
        **overrides,
    ) -> "SimulationConfig":
        """Laptop-scale configuration preserving the paper's ratios.

        * the erasure-code rate stays 1/2 (m = k);
        * the quota stays 1.5 x n (paper: 384 = 1.5 x 256);
        * the repair threshold keeps its slack fraction
          ``(k' - k)/(n - k)`` (148 -> 18 for k=16, n=32).
        """
        total = data_blocks + parity_blocks
        threshold = scaled_threshold(
            paper_threshold,
            paper_k=128,
            paper_n=256,
            target_k=data_blocks,
            target_n=total,
        )
        quota = overrides.pop("quota", int(total * 1.5))
        return cls(
            population=population,
            rounds=rounds,
            data_blocks=data_blocks,
            parity_blocks=parity_blocks,
            repair_threshold=threshold,
            quota=quota,
            observers=tuple(observers),
            seed=seed,
            **overrides,
        )
