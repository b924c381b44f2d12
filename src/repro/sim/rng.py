"""Deterministic random-number streams for the simulator.

A single root seed fans out into named, independent substreams (numpy
``SeedSequence`` children), so that e.g. churn draws and partner-selection
draws do not perturb each other when a config knob changes.  This is what
makes two runs with the same seed byte-identical and two runs differing
only in, say, the repair threshold still share their churn trajectory.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

#: Draws fetched from the underlying generator per buffer refill.  Large
#: enough to amortise the numpy call, small enough that a run which only
#: needs a handful of draws does not pay for a huge vector.
DEFAULT_BLOCK = 4096


class BatchedDraws:
    """Block-buffered scalar draws from one numpy generator.

    The simulation hot loop consumes random numbers one at a time
    (candidate sampling, acceptance coin flips, intra-round tiebreaks).
    Scalar calls on ``numpy.random.Generator`` cost ~1µs each — dominated
    by call overhead, not by random-bit generation.  This wrapper refills
    a vector of uniforms in blocks and hands them out as plain Python
    floats, turning a million scalar RNG calls into a few hundred
    vectorised ones.

    Determinism: the draw sequence is a pure function of the underlying
    generator's state, so seeded runs stay reproducible.  Mixing batched
    and direct draws on the same generator is safe (refills interleave
    deterministically) but changes the consumption pattern relative to
    purely scalar code — same-seed runs of the *same* code remain
    byte-identical.
    """

    __slots__ = ("_rng", "_block", "_buffer", "_np_buffer", "_position")

    def __init__(self, rng: np.random.Generator, block: int = DEFAULT_BLOCK):
        if block < 1:
            raise ValueError(f"block size must be >= 1, got {block}")
        self._rng = rng
        self._block = block
        self._buffer = ()
        self._np_buffer = np.empty(0)
        self._position = 0

    def _refill(self) -> None:
        # The list view is materialised lazily (`_list_view`): scalar
        # consumers index a list (C-speed float access), but a stream
        # drained purely through :meth:`take_array` never pays the
        # ``tolist``.
        self._np_buffer = self._rng.random(self._block)
        self._buffer = None
        self._position = 0

    def _list_view(self) -> list:
        buffer = self._np_buffer.tolist()
        self._buffer = buffer
        return buffer

    def next_uniform(self) -> float:
        """One uniform float in ``[0, 1)``."""
        position = self._position
        buffer = self._buffer
        if buffer is None:
            buffer = self._list_view()
        if position >= len(buffer):
            self._refill()
            buffer = self._list_view()
            position = 0
        self._position = position + 1
        return buffer[position]

    def next_integer(self, n: int) -> int:
        """One uniform integer in ``[0, n)``."""
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        position = self._position
        buffer = self._buffer
        if buffer is None:
            buffer = self._list_view()
        if position >= len(buffer):
            self._refill()
            buffer = self._list_view()
            position = 0
        self._position = position + 1
        value = int(buffer[position] * n)
        # float rounding can land exactly on n for huge n; clamp.
        return value if value < n else n - 1

    def take(self, n: int) -> list:
        """The next ``n`` uniforms in ``[0, 1)`` as one list.

        Chunked consumption for vectorisable consumers (the recruitment
        pool fill): the result is exactly what ``n`` successive
        :meth:`next_uniform` calls would have returned, so scalar and
        chunked consumers of one stream interleave deterministically.
        """
        out: list = []
        position = self._position
        buffer = self._buffer
        if buffer is None:
            buffer = self._list_view()
        length = len(buffer)
        while n > 0:
            if position >= length:
                self._refill()
                buffer = self._list_view()
                length = len(buffer)
                position = 0
            grab = n if n <= length - position else length - position
            out.extend(buffer[position : position + grab])
            position += grab
            n -= grab
        self._position = position
        return out

    def take_array(self, n: int) -> np.ndarray:
        """The next ``n`` uniforms as a numpy vector.

        Same stream position semantics as :meth:`take` — ``take_array(n)``
        and ``take(n)`` return the same values (``tolist`` round-trips
        float64 exactly) — but without the list detour, for consumers
        that feed the result straight into array expressions.  The
        common case (the request fits the current block) returns a
        zero-copy view.
        """
        position = self._position
        buffer = self._np_buffer
        length = len(buffer)
        if 0 < n <= length - position:
            self._position = position + n
            return buffer[position : position + n]
        parts = []
        while n > 0:
            if position >= length:
                self._refill()
                buffer = self._np_buffer
                length = len(buffer)
                position = 0
            grab = n if n <= length - position else length - position
            parts.append(buffer[position : position + grab])
            position += grab
            n -= grab
        self._position = position
        return np.concatenate(parts) if parts else np.empty(0)

    def available(self) -> int:
        """Uniforms left in the current block (``peek`` can see no further)."""
        return len(self._np_buffer) - self._position

    def peek(self, n: int) -> np.ndarray:
        """The next ``n`` uniforms as a view, without consuming them.

        Never refills: ``n`` must not exceed :meth:`available`, so a
        consumer that looks ahead and then keeps only a prefix (the
        pool fill's continuation windows) leaves the generator exactly
        where :meth:`take_array` calls for that prefix would have.
        """
        position = self._position
        if n > len(self._np_buffer) - position:
            raise ValueError(
                f"cannot peek {n} uniforms, {self.available()} left in the block"
            )
        return self._np_buffer[position : position + n]

    def advance(self, n: int) -> None:
        """Consume ``n`` uniforms already seen through :meth:`peek`."""
        if n > len(self._np_buffer) - self._position:
            raise ValueError(
                f"cannot advance {n} uniforms, {self.available()} left in the block"
            )
        self._position += n


def geometric_from_uniforms(uniforms: np.ndarray, log1mp: np.ndarray) -> np.ndarray:
    """Vectorised inverse-CDF geometric draws on ``{1, 2, ...}``.

    ``log1mp`` holds ``log1p(-p)`` per draw (precomputed once per
    profile); ``uniforms`` come from :meth:`BatchedDraws.take_array`.
    Inverting the CDF — ``d = 1 + floor(log1p(-u) / log1p(-p))`` — gives
    the same distribution as ``Generator.geometric`` with mean ``1/p``
    while consuming plain uniforms, which is what lets every engine
    draw a whole toggle batch's durations with one call *and* stay
    bit-identical across backends: both feed the identical uniform
    vector through this one function, so no scalar-vs-SIMD libm
    divergence can creep in.  ``u == 0`` maps to 1 (``floor(-0.0)`` is
    ``-0.0``) and ``u < 1`` always holds for numpy uniforms, so the
    result is a finite integer ``>= 1``.
    """
    return np.floor(np.log1p(-uniforms) / log1mp).astype(np.int64) + 1


def pool_chunk_size(remaining: int) -> int:
    """Selection draws one pool-fill pass takes for ``remaining`` slots.

    Sized so dedup losses and the ~one-half mutual-acceptance rate still
    fill the pool in a single pass almost always, without sampling far
    past what the pass can use (the examined cut stops early anyway).
    Chunk boundaries decide which uniforms map to which candidate, so
    engines only stay draw-identical by sharing this exact formula.
    """
    return 4 * remaining + 16


#: Batches below this many draws invert the geometric CDF with scalar
#: ``math`` calls instead of numpy vectors (``geometric_from_uniforms``
#: pays several microseconds of array dispatch per call, which dominates
#: single-digit batches).  Every engine must branch on the same constant
#: so both sides of an equivalence run take the same code path for the
#: same batch.
GEOMETRIC_SCALAR_LIMIT = 32


def geometric_from_uniforms_scalar(
    uniforms: Sequence[float], log1mp: Sequence[float]
) -> List[int]:
    """Scalar twin of :func:`geometric_from_uniforms` for tiny batches.

    Consumes the same uniforms (from :meth:`BatchedDraws.take`, which
    returns exactly the values ``take_array`` would) and computes the
    same inversion with ``math.log1p`` / ``math.floor``.  Both engines
    route batches under :data:`GEOMETRIC_SCALAR_LIMIT` through this
    function, so the backends stay bit-identical by construction even
    where libm and numpy's vector loops disagree in the last ulp (no
    such disagreement flips a duration in practice: ``floor`` only
    notices when the quotient lands exactly on an integer).
    """
    floor = math.floor
    log1p = math.log1p
    return [floor(log1p(-u) / l) + 1 for u, l in zip(uniforms, log1mp)]


#: Stable stream names used by the engine; listed here so tests can
#: assert the full set.
STREAM_NAMES = (
    "profiles",
    "lifetimes",
    "sessions",
    "acceptance",
    "selection",
    "ordering",
    "placement",
    "impairment",
)


class RngStreams:
    """Named independent random generators derived from one seed."""

    def __init__(self, seed: Optional[int] = None):
        self.seed = seed
        self._root = np.random.SeedSequence(seed)
        children = self._root.spawn(len(STREAM_NAMES))
        self._streams: Dict[str, np.random.Generator] = {
            name: np.random.default_rng(child)
            for name, child in zip(STREAM_NAMES, children)
        }
        self._batched: Dict[str, BatchedDraws] = {}
        self._extra_spawned = 0

    def stream(self, name: str) -> np.random.Generator:
        """The generator for a named stream."""
        try:
            return self._streams[name]
        except KeyError:
            raise ValueError(
                f"unknown RNG stream {name!r}; available: {sorted(self._streams)}"
            ) from None

    def __getattr__(self, name: str) -> np.random.Generator:
        # Convenience: streams.sessions instead of streams.stream("sessions").
        streams = self.__dict__.get("_streams")
        if streams and name in streams:
            return streams[name]
        raise AttributeError(name)

    def batched(self, name: str, block: int = DEFAULT_BLOCK) -> BatchedDraws:
        """A block-buffered draw source over the named stream (cached).

        Repeated calls with the same name return the same buffer, so all
        consumers of a stream share one refill cursor.
        """
        try:
            return self._batched[name]
        except KeyError:
            draws = BatchedDraws(self.stream(name), block)
            self._batched[name] = draws
            return draws

    def spawn(self) -> np.random.Generator:
        """A fresh independent generator (e.g. one per ad-hoc component)."""
        self._extra_spawned += 1
        (child,) = np.random.SeedSequence(
            entropy=self._root.entropy, spawn_key=(len(STREAM_NAMES) + self._extra_spawned,)
        ).spawn(1)
        return np.random.default_rng(child)


def seed_sequence(seed: Optional[int] = None) -> np.random.SeedSequence:
    """The blessed way to build a ``SeedSequence`` outside this module.

    R001 (rng-discipline) bans direct ``numpy.random.SeedSequence``
    construction in simulation code so every root of randomness is
    greppable in one place; components that manage their own spawn
    hierarchy (e.g. the backup swarm harness) obtain it here.
    """
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def seeded_generator(seed=None) -> np.random.Generator:
    """The blessed way to construct a seeded generator outside this module.

    Accepts anything ``numpy.random.default_rng`` accepts (an int seed,
    ``None``, or a ``SeedSequence`` child from :func:`seed_sequence`),
    and returns a bit-identical generator — it exists so R001 can pin
    *where* generators come from without changing what they produce.
    """
    return np.random.default_rng(seed)
