"""Typed, named component registries — the simulator's extension points.

Every swappable component of the reproduction (selection strategies,
acceptance rules, lifetime models, repair-policy presets, erasure codec
backends, churn mixes, scenarios) is published in a :class:`Registry`
under a short stable name.  Configuration objects keep carrying plain
strings — which is what keeps :meth:`SimulationConfig.to_dict`
serialization and the sweep executor's cache keys byte-identical — and
every consumer resolves those strings through a registry instead of a
local if/else ladder.

Registering a new component therefore requires **no core edits**::

    from repro.core.selection import SELECTION_STRATEGIES, SelectionStrategy

    @SELECTION_STRATEGIES.register("youngest")
    class YoungestFirst(SelectionStrategy):
        name = "youngest"
        def rank(self, candidates, rng):
            return [c.peer_id for c in sorted(candidates, key=lambda c: c.age)]

    config = SimulationConfig(selection_strategy="youngest")

Unknown names raise :class:`UnknownComponentError` (a ``ValueError``)
listing every registered choice and, when one is close, a "did you
mean" suggestion.
"""

from __future__ import annotations

import difflib
from typing import Dict, Generic, Iterator, List, Optional, TypeVar

T = TypeVar("T")


class UnknownComponentError(ValueError):
    """An unregistered name was looked up.

    Subclasses ``ValueError``, which is what validation call sites have
    historically raised and what existing tests assert on.
    """


class DuplicateComponentError(ValueError):
    """A name was registered twice without ``replace=True``."""


class Registry(Generic[T]):
    """A small ordered mapping of stable names to components.

    Parameters
    ----------
    kind:
        Human-readable description of what the registry holds
        (``"selection strategy"``), used in every error message.
    """

    def __init__(self, kind: str):
        if not kind:
            raise ValueError("registry kind cannot be empty")
        self.kind = kind
        self._components: Dict[str, T] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        component: Optional[T] = None,
        *,
        replace: bool = False,
    ):
        """Register ``component`` under ``name``.

        Usable directly (``registry.register("age", AgeSelection)``) or
        as a decorator (``@registry.register("age")``); the decorator
        form returns the component unchanged so classes stay usable by
        their own name.
        """
        if not isinstance(name, str) or not name:
            raise ValueError(
                f"{self.kind} names must be non-empty strings, got {name!r}"
            )

        def _store(obj: T) -> T:
            if name in self._components and not replace:
                raise DuplicateComponentError(
                    f"{self.kind} {name!r} is already registered; "
                    f"pass replace=True to override it"
                )
            self._components[name] = obj
            return obj

        if component is None:
            return _store
        return _store(component)

    def unregister(self, name: str) -> T:
        """Remove and return a registered component (tests, plugins)."""
        self.check(name)
        return self._components.pop(name)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, name: str) -> T:
        """The component registered under ``name``.

        Raises :class:`UnknownComponentError` with the full list of
        valid choices (and a close-match suggestion) otherwise.
        """
        self.check(name)
        return self._components[name]

    def check(self, name: str) -> None:
        """Validate that ``name`` is registered without resolving it."""
        if name in self._components:
            return
        choices = self.names()
        hint = ""
        close = difflib.get_close_matches(str(name), choices, n=1)
        if close:
            hint = f" — did you mean {close[0]!r}?"
        raise UnknownComponentError(
            f"unknown {self.kind} {name!r}; "
            f"registered {self.kind} names: {choices}{hint}"
        )

    def create(self, name: str, *args, **kwargs):
        """Call the registered component (for registries of factories)."""
        factory = self.get(name)
        if not callable(factory):
            raise TypeError(
                f"{self.kind} {name!r} is not callable; use get() instead"
            )
        return factory(*args, **kwargs)

    def names(self) -> List[str]:
        """All registered names, sorted."""
        return sorted(self._components)

    def items(self) -> List[tuple]:
        """``(name, component)`` pairs in sorted-name order."""
        return [(name, self._components[name]) for name in self.names()]

    # ------------------------------------------------------------------
    # Mapping niceties
    # ------------------------------------------------------------------
    def __contains__(self, name: object) -> bool:
        return name in self._components

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._components)

    def __repr__(self) -> str:
        return f"Registry(kind={self.kind!r}, names={self.names()})"
