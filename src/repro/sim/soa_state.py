"""Structure-of-arrays state tables for the ``abstract_soa`` backend.

The object-graph driver behind ``protocol`` (:mod:`repro.sim.peer`)
keeps one ``Peer`` plus one ``ArchiveState`` per peer — ~15 heap objects and dict slots per
simulated participant.  That layout is pleasant to mutate but costs an
attribute walk per touch and roughly 5 KB per peer, which caps practical
populations around 10^5.  This module re-lays the same state as parallel
columns indexed by peer id:

* **scalar columns** are plain Python lists (``join``, ``online``,
  ``alive``, ``placed`` ...): the simulation's hot handlers touch a
  handful of scalars per event, where a C-backed list index is several
  times cheaper than numpy element access *and* than a slotted
  attribute load;
* **adaptive columns** (``visible``, ``placed``) switch representation
  with the population scale (``vector_columns``): numpy vectors at
  swarm scale, where the round-batched toggle kernel updates them with
  scatter-adds and masked compares over thousands of ids per round;
  plain lists at ordinary scale, where a round toggles a handful of
  peers and C-backed element access wins;
* **placement links**: ``holders[o]`` stays a ragged Python list (rows
  mutate one link at a time from scalar handlers); the reverse index
  ``owners_of`` — the toggle fan-out's input — is adaptive like the
  archive columns: ragged lists at ordinary scale (iteration and
  ``list.remove`` are the hot operations there), and at swarm scale a
  CSR slab — one ``int64`` data array plus per-row ``start``/``len``/
  ``cap`` bookkeeping — so the kernel can gather every owner touched
  by a toggle batch with one fancy-index instead of chaining thousands
  of little lists;
* **census mirrors** (``join_np`` / ``census_alive``) are numpy arrays
  maintained alongside the lists so the periodic metrics census is one
  vectorised mask-subtract-searchsorted instead of a Python loop over
  the whole population.

CSR slab mechanics: a row grows by relocating to the end of the slab
with doubled capacity (the old copy becomes garbage); removals swap-pop
inside the row (row order is irrelevant — the engines only ever consume
rows as unordered sets); when the slab must grow while at least half of
it is garbage, it is compacted in one vectorised pass instead.  Peer
ids are never recycled, so ``start``/``cap`` entries stay valid
forever.

Invariants (checked by ``SoaSimulation.audit``):

* peer ids are allocated monotonically and never recycled — identical
  to ``Population.new_id``, which is what lets the two backends share a
  churn trajectory draw for draw;
* observers occupy ids ``0 .. n_observers-1`` (they are created before
  any JOIN event fires), so "is this peer an observer" is an id
  comparison instead of a column;
* ``holders`` rows contain **live peers only**: a death removes the
  dead peer from every row it appears in, so a row's length *is* the
  archive's live-holder count (``ArchiveState.alive`` in the object
  engine);
* ``visible[o]`` counts the online entries of ``holders[o]``, updated
  incrementally on toggles, recruitment, drops and deaths;
* the per-link "invisible since" timestamp of ``ArchiveState.holders``
  is derived, not stored: links are only ever formed to online peers
  and die with their holder, so a holder ``h`` is invisible exactly
  when ``online[h]`` is false, and the round it disappeared is
  ``last_offline[h]``;
* ``quota_used[h]`` counts the links of ``h`` whose owner is a normal
  peer (observer-owned blocks are quota-free, paper section 4.2.2).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

_EMPTY_IDS = np.empty(0, dtype=np.int64)


class StateTables:
    """All per-peer simulation state as parallel columns.

    One instance holds every peer of a run — observers first, then
    normal peers in spawn order.  ``add_observer`` / ``add_peer`` return
    the allocated id; columns grow in lockstep.
    """

    __slots__ = (
        "n_observers",
        "count",
        "vector_columns",
        # scalar columns (Python lists, hot)
        "join",
        "death",
        "profile",
        "online",
        "alive",
        "last_offline",
        "last_state_change",
        "online_rounds",
        "quota_used",
        # archive columns (visible/placed are numpy: the toggle kernel
        # scatter-adds visible and mask-compares both in bulk)
        "visible",
        "placed",
        "fully_placed",
        "pending_check",
        "check_scheduled",
        "check_handle",
        # ragged link table (owner -> holders)
        "holders",
        # reverse index (holder -> owners): ragged lists at ordinary
        # scale, CSR slab at swarm scale (see class docstring)
        "owners_of",
        "_own_data",
        "_own_start",
        "_own_len",
        "_own_cap",
        "_own_used",
        "_own_garbage",
        # observer side tables (indexed by id < n_observers)
        "fixed_age",
        "observer_name",
        # numpy mirrors (grown amortised): join rounds + census flags
        # feed the vectorised census; quota feeds the vectorised pool
        # filter (kept in lockstep with ``quota_used`` by the engine).
        "_join_np",
        "_census_alive",
        "quota_np",
        "_capacity",
    )

    def __init__(self, initial_capacity: int = 1024, vector_columns: bool = False):
        self.n_observers = 0
        self.count = 0
        self.vector_columns = vector_columns
        self.join: List[int] = []
        self.death: List[Optional[int]] = []
        self.profile: List[int] = []
        self.online: List[int] = []
        self.alive: List[int] = []
        self.last_offline: List[int] = []
        self.last_state_change: List[int] = []
        self.online_rounds: List[int] = []
        self.quota_used: List[int] = []
        self.fully_placed: List[int] = []
        self.pending_check: List[int] = []
        self.check_scheduled: List[Optional[int]] = []
        self.check_handle: List[object] = []
        self.holders: List[List[int]] = []
        self.fixed_age: List[int] = []
        self.observer_name: List[str] = []
        capacity = max(int(initial_capacity), 16)
        self._join_np = np.zeros(capacity, dtype=np.int64)
        self._census_alive = np.zeros(capacity, dtype=bool)
        self.quota_np = np.zeros(capacity, dtype=np.int64)
        # ``visible``/``placed`` carry the toggle kernel's state.  At
        # swarm scale they are numpy columns (the kernel scatter-adds
        # and mask-compares whole batches); at ordinary populations the
        # batches are a handful of peers per round and C-backed lists
        # win — the scalar handlers touch these columns one element at
        # a time either way.
        if vector_columns:
            self.visible = np.zeros(capacity, dtype=np.int64)
            self.placed = np.zeros(capacity, dtype=np.int8)
        else:
            self.visible = []
            self.placed = []
        self._capacity = capacity
        # Reverse index, same adaptivity: ragged lists below the vector
        # threshold, CSR slab above it.
        if vector_columns:
            self.owners_of = None
            self._own_data = np.zeros(1024, dtype=np.int64)
        else:
            self.owners_of: List[List[int]] = []
            self._own_data = _EMPTY_IDS
        self._own_start: List[int] = []
        self._own_len: List[int] = []
        self._own_cap: List[int] = []
        self._own_used = 0
        self._own_garbage = 0

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------
    def _append_common(self, join_round: int) -> int:
        peer_id = self.count
        if peer_id >= self._capacity:
            capacity = self._capacity * 2
            join_np = np.zeros(capacity, dtype=np.int64)
            join_np[: self._capacity] = self._join_np
            census = np.zeros(capacity, dtype=bool)
            census[: self._capacity] = self._census_alive
            quota_np = np.zeros(capacity, dtype=np.int64)
            quota_np[: self._capacity] = self.quota_np
            if self.vector_columns:
                visible = np.zeros(capacity, dtype=np.int64)
                visible[: self._capacity] = self.visible
                placed = np.zeros(capacity, dtype=np.int8)
                placed[: self._capacity] = self.placed
                self.visible = visible
                self.placed = placed
            self._join_np = join_np
            self._census_alive = census
            self.quota_np = quota_np
            self._capacity = capacity
        self.count = peer_id + 1
        self.join.append(join_round)
        self.online.append(1)
        self.alive.append(1)
        self.last_offline.append(-1)
        self.last_state_change.append(join_round)
        self.online_rounds.append(0)
        self.quota_used.append(0)
        if not self.vector_columns:
            self.visible.append(0)
            self.placed.append(0)
        self.fully_placed.append(0)
        self.pending_check.append(0)
        self.check_scheduled.append(None)
        self.check_handle.append(None)
        self.holders.append([])
        if self.vector_columns:
            self._own_start.append(0)
            self._own_len.append(0)
            self._own_cap.append(0)
        else:
            self.owners_of.append([])
        self._join_np[peer_id] = join_round
        return peer_id

    def add_observer(self, fixed_age: int, name: str, join_round: int = 0) -> int:
        """Register one observer peer; must precede every ``add_peer``."""
        if self.n_observers != self.count:
            raise ValueError("observers must be added before normal peers")
        peer_id = self._append_common(join_round)
        self.death.append(None)
        self.profile.append(-1)
        self.fixed_age.append(fixed_age)
        self.observer_name.append(name)
        self.n_observers += 1
        # Observers are excluded from the census (they are the probe,
        # not the population), so their census flag stays False.
        return peer_id

    def add_peer(
        self, profile_index: int, join_round: int, death_round: Optional[int]
    ) -> int:
        """Register one normal peer, returning its id."""
        peer_id = self._append_common(join_round)
        self.death.append(death_round)
        self.profile.append(profile_index)
        self._census_alive[peer_id] = True
        return peer_id

    def mark_dead(self, peer_id: int) -> None:
        """Flip the scalar and census life flags for a departing peer."""
        self.alive[peer_id] = 0
        self.online[peer_id] = 0
        self._census_alive[peer_id] = False

    # ------------------------------------------------------------------
    # owners_of reverse index (ragged lists / CSR slab, see docstring)
    # ------------------------------------------------------------------
    def owners_row(self, peer_id: int) -> Sequence[int]:
        """The owners peer ``peer_id`` stores for.

        A plain list at ordinary scale, a slab view at swarm scale.
        Callers must treat the row as read-only and unordered, and must
        not hold a slab view across mutations (append/remove/compaction
        may relocate the row).
        """
        if not self.vector_columns:
            return self.owners_of[peer_id]
        start = self._own_start[peer_id]
        return self._own_data[start : start + self._own_len[peer_id]]

    def owners_append(self, holder_id: int, owner_id: int) -> None:
        """Record that ``holder_id`` now stores a block of ``owner_id``."""
        if not self.vector_columns:
            self.owners_of[holder_id].append(owner_id)
            return
        count = self._own_len[holder_id]
        if count == self._own_cap[holder_id]:
            self._relocate_row(holder_id, count)
        self._own_data[self._own_start[holder_id] + count] = owner_id
        self._own_len[holder_id] = count + 1

    def owners_remove(self, holder_id: int, owner_id: int) -> None:
        """Drop one ``owner_id`` entry from ``holder_id``'s row.

        ValueError on a missing owner is deliberate in both modes: the
        link tables would be corrupt, and audit() wants to hear about
        it loudly.
        """
        if not self.vector_columns:
            self.owners_of[holder_id].remove(owner_id)
            return
        start = self._own_start[holder_id]
        count = self._own_len[holder_id]
        row = self._own_data[start : start + count]
        position = row.tolist().index(owner_id)
        last = count - 1
        if position != last:
            row[position] = row[last]
        self._own_len[holder_id] = last

    def owners_clear(self, peer_id: int) -> List[int]:
        """Empty ``peer_id``'s row (on death), returning the old owners."""
        if not self.vector_columns:
            owners = self.owners_of[peer_id]
            self.owners_of[peer_id] = []
            return owners
        start = self._own_start[peer_id]
        count = self._own_len[peer_id]
        owners = self._own_data[start : start + count].tolist()
        self._own_len[peer_id] = 0
        self._own_garbage += self._own_cap[peer_id]
        self._own_cap[peer_id] = 0
        return owners

    def owners_concat(self, peer_ids: Sequence[int]) -> np.ndarray:
        """All owners stored by the given peers, rows concatenated.

        The vector toggle kernel's gather: one flat ``int64`` vector
        (with repeats — an owner stored by two toggling holders appears
        twice) ready for ``np.add.at`` scatter updates of ``visible``.
        Slab mode only; the list-mode kernel iterates rows directly.
        """
        starts = self._own_start
        lens = self._own_len
        data = self._own_data
        if len(peer_ids) < 16:
            out: List[int] = []
            for peer_id in peer_ids:
                count = lens[peer_id]
                if count:
                    start = starts[peer_id]
                    out.extend(data[start : start + count].tolist())
            return np.array(out, dtype=np.int64) if out else _EMPTY_IDS
        n = len(peer_ids)
        s = np.fromiter((starts[p] for p in peer_ids), dtype=np.int64, count=n)
        c = np.fromiter((lens[p] for p in peer_ids), dtype=np.int64, count=n)
        total = int(c.sum())
        if total == 0:
            return _EMPTY_IDS
        ends = np.cumsum(c)
        indices = np.repeat(s - (ends - c), c) + np.arange(total)
        return data[indices]

    def _relocate_row(self, holder_id: int, count: int) -> None:
        cap = self._own_cap[holder_id]
        new_cap = cap * 2 if cap else 4
        if self._own_used + new_cap > len(self._own_data):
            self._ensure_own_capacity(new_cap)
        data = self._own_data
        used = self._own_used
        start = self._own_start[holder_id]
        if count:
            data[used : used + count] = data[start : start + count]
        self._own_start[holder_id] = used
        self._own_cap[holder_id] = new_cap
        self._own_used = used + new_cap
        self._own_garbage += cap

    def _ensure_own_capacity(self, extra: int) -> None:
        # Compact before growing: growth holds the old and new slabs
        # simultaneously, so reclaiming abandoned row copies first —
        # when they are at least a quarter of the consumed slab — often
        # makes the allocation unnecessary and caps peak memory at
        # swarm scale (a doubling-only policy let the slab overshoot
        # the live entries ~3.5x on the million-peer run).
        if self._own_used + extra > len(self._own_data):
            if self._own_garbage * 4 >= self._own_used:
                self._compact_owners()
        elif self._own_garbage * 2 >= self._own_used:
            self._compact_owners()
        needed = self._own_used + extra
        size = len(self._own_data)
        if needed <= size:
            return
        while size < needed:
            size += (size >> 1) or 1
        try:
            # In-place realloc: for slab-sized blocks the allocator
            # remaps pages instead of copying, so growth does not hold
            # two slabs.  Grown slots arrive zeroed.
            self._own_data.resize(size, refcheck=True)
        except ValueError:  # an outstanding view pins the buffer
            data = np.zeros(size, dtype=np.int64)
            data[: self._own_used] = self._own_data[: self._own_used]
            self._own_data = data

    def _compact_owners(self) -> None:
        """Pack live rows to the front of the slab, in place.

        Rows move in ascending start order with zero slack, so every
        destination lies at or before its source and no live slot is
        overwritten before it has moved.  No second slab is allocated:
        compaction exists to cap peak memory at swarm scale, so it must
        not itself hold two slabs.  Packed rows end with ``cap == len``
        — the next append to one relocates it to the tail like any
        full row.
        """
        data = self._own_data
        starts = self._own_start
        lens = self._own_len
        caps = self._own_cap
        order = sorted(range(self.count), key=starts.__getitem__)
        cursor = 0
        for peer_id in order:
            count = lens[peer_id]
            if not count:
                starts[peer_id] = 0
                caps[peer_id] = 0
                continue
            start = starts[peer_id]
            if start != cursor:
                # Per-row .copy(): source and destination may overlap
                # after earlier moves, and the row is tiny.
                data[cursor : cursor + count] = data[
                    start : start + count
                ].copy()
            starts[peer_id] = cursor
            caps[peer_id] = count
            cursor += count
        self._own_used = cursor
        self._own_garbage = 0

    # ------------------------------------------------------------------
    # Census
    # ------------------------------------------------------------------
    def census_counts(self, now: int, category_uppers: np.ndarray) -> np.ndarray:
        """Population count per age category over live normal peers.

        ``category_uppers`` holds the finite upper bounds of every
        category but the last; with half-open contiguous brackets,
        ``searchsorted(uppers, age, side="right")`` is exactly
        ``CategoryScheme.classify`` vectorised.
        """
        count = self.count
        mask = self._census_alive[:count]
        ages = now - self._join_np[:count][mask]
        indices = np.searchsorted(category_uppers, ages, side="right")
        return np.bincount(indices, minlength=len(category_uppers) + 1)
