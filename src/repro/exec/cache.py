"""Content-addressed on-disk cache of simulation results.

The cache key is the SHA-256 of the canonical JSON serialization of a
:class:`~repro.sim.config.SimulationConfig` — every knob, including the
seed — salted with the package version and a cache schema version, so
cached results never outlive the simulator that produced them.  Two
sweeps that share a cell (e.g. figures 1 and 2, which run the same
threshold grid) therefore share the cached run, and re-running
``repro-experiments`` only simulates cells whose parameters changed.

Payloads are the ``SimulationResult.to_dict()`` dicts, stored as
canonical JSON, so a cache hit is byte-identical to a fresh run's
serialized result.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from pathlib import Path
from typing import Dict, Optional, Union

from .. import __version__
from ..sim.config import SimulationConfig

#: Default cache location (relative to the working directory, gitignored).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Bump whenever simulation semantics or the result schema change
#: without a package-version bump: it invalidates every existing cache
#: entry, so stale results can never masquerade as fresh ones.
#:
#: History:
#:
#: 1. the result cache and its payload format.
#: 2. the calendar event queue (one shuffle per round instead of a
#:    per-schedule tiebreak draw) and the round-batched toggle lane
#:    of ``abstract_soa`` both changed same-seed trajectories; entries
#:    written before them are stale.
CACHE_SCHEMA_VERSION = 2


def canonical_json(payload: object) -> str:
    """Serialize plain data deterministically (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def config_digest(config: SimulationConfig) -> str:
    """The cache key of one cell: SHA-256 over config + code versions."""
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "package": __version__,
        "config": config.to_dict(),
    }
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")
    ).hexdigest()


class ResultCache:
    """A directory of ``<digest>.json`` result payloads, sharded by prefix.

    Shared deployments (the ``distributed`` execution backend) point
    every worker at one cache directory — typically an NFS mount — and
    use it both as the result store and, via :attr:`lease_root`, as the
    work queue's lock directory (see :mod:`repro.exec.distributed`).
    """

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR):
        self.root = Path(root)

    def path_for(self, digest: str) -> Path:
        """Where a digest's payload lives (two-character shard directories)."""
        return self.root / digest[:2] / f"{digest}.json"

    @property
    def lease_root(self) -> Path:
        """Where the distributed backend keeps its cell lease files.

        Living inside the cache directory guarantees leases and results
        share one filesystem, so the atomic-rename semantics that the
        cache relies on cover the leases too.
        """
        return self.root / "leases"

    def entry_count(self) -> int:
        """Number of stored result payloads."""
        return sum(1 for _ in self.root.glob("??/*.json"))

    def load(self, digest: str) -> Optional[Dict[str, object]]:
        """The cached payload for ``digest``, or ``None`` on miss/corruption.

        A missing entry is a silent miss.  A truncated, undecodable or
        non-object entry (invalid UTF-8 raises UnicodeDecodeError, a
        ValueError) emits a RuntimeWarning naming the file and the parse
        error, then behaves like a miss: the fresh run overwrites it.
        """
        path = self.path_for(digest)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as error:
            problem = f"{type(error).__name__}: {error}"
        else:
            if isinstance(payload, dict):
                return payload
            problem = f"expected a JSON object, got {type(payload).__name__}"
        warnings.warn(
            f"corrupt result-cache entry {path} ({problem}); "
            "recomputing and overwriting it",
            RuntimeWarning,
            stacklevel=2,
        )
        return None

    def store(self, digest: str, payload: Dict[str, object]) -> None:
        """Persist a payload atomically (safe under concurrent writers)."""
        path = self.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, temp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{digest[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                stream.write(canonical_json(payload))
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise

    def __contains__(self, config: SimulationConfig) -> bool:
        return self.load(config_digest(config)) is not None
