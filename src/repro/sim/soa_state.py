"""Structure-of-arrays state tables: every peer and archive of a run.

Both fidelities (``abstract_soa`` and ``protocol``, which subclasses
it) keep all per-peer and per-archive state here, as parallel columns
indexed by peer id, instead of one heap object per peer and archive —
an object graph costs an attribute walk per touch and roughly 5 KB per
peer, which caps practical populations around 10^5:

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
  fixed-width owner matrix — one ``int32`` row per peer plus a numpy
  row-length column — so the kernel gathers every owner touched by a
  toggle batch, and recruitment files a whole batch of links, with one
  fancy index instead of thousands of little list operations;
* **the id column** ``id_objects`` is a numpy ``object`` array whose
  slot ``i`` holds the one Python int object for id ``i``.  Recruitment
  files its partners as ``id_objects[chosen].tolist()`` (a fancy index
  on an object array returns the stored objects), so every ``holders``
  row entry for a peer is that one object instead of a fresh int per
  link — boxing, not state, would otherwise dominate swarm-scale
  memory (a peer id occurs in about ``n`` rows);
* **census mirrors** (``join_np`` / ``census_alive``) are numpy arrays
  maintained alongside the lists so the periodic metrics census is one
  vectorised mask-subtract-searchsorted instead of a Python loop over
  the whole population;
* **the quota column** ``quota_used`` is numpy at every scale: the pool
  fill gathers it for a whole sample chunk and recruitment commits a
  batch of links with one fancy-index add.

Owner matrix mechanics: the matrix is ``int32`` at rest (the toggle
kernel reads every row, so every slot is committed memory) and
``int64`` at the boundary — ``owners_concat`` and ``reverse_links``
(the audit's input) widen what they read, because the audit's
``owner * count + holder`` keys overflow ``int32`` once they reach
2^31, at about 46,341 peers.  So ids must fit ``int32``: the tables
raise ``ValueError`` naming the limit (``_MAX_CAPACITY``) instead of
growing past it.  The quota rule bounds every row.  A peer hosts
at most ``quota`` blocks for normal peers, and at most one block per
observer (observer blocks are quota-free, paper section 4.2.2, and a
holder appears once per owner row), so a row never exceeds
``quota + n_observers`` entries — the matrix width, fixed at
construction.  Row ``h`` holds its owners in slots ``0 .. len[h]-1``;
appends write slot ``len[h]``, removals swap-pop inside the row (row
order is irrelevant — the engines only ever consume rows as unordered
sets); ``owners_remove_many`` unlinks one owner from a batch of rows
with one masked gather and one swap-in write.  Rows never move; the
matrix grows with the other numpy columns, and ``np.zeros`` commits its
pages lazily, so untouched rows cost no memory.

Invariants (checked by ``SoaSimulation.audit``):

* peer ids are allocated monotonically and never recycled, so an id
  keys the protocol fidelity's side tables (stores, ledgers, manifests)
  for the peer's whole life and never aliases a later peer;
* observers occupy ids ``0 .. n_observers-1`` (they are created before
  any JOIN event fires), so "is this peer an observer" is an id
  comparison instead of a column;
* ``holders`` rows contain **live peers only**: a death removes the
  dead peer from every row it appears in, so a row's length *is* the
  archive's live-holder count;
* ``visible[o]`` counts the online entries of ``holders[o]``, updated
  incrementally on toggles, recruitment, drops and deaths;
* the per-link "invisible since" timestamp is derived, not stored: a
  holder ``h`` is invisible exactly when ``online[h]`` is false, and
  links die with their holder, so the round it disappeared is
  ``last_offline[h]`` — for links formed while ``h`` was online, which
  every instantaneous link is (the protocol fidelity keeps the attach
  round of links completed to an offline holder on its side);
* ``quota_used[h]`` counts the links of ``h`` whose owner is a normal
  peer (observer-owned blocks are quota-free, paper section 4.2.2).
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

_EMPTY_IDS = np.empty(0, dtype=np.int64)

#: The most peers one table holds: every id must fit the ``int32``
#: owner matrix (``np.iinfo(np.int32).max``).
_MAX_CAPACITY = 2**31 - 1


class StateTables:
    """All per-peer simulation state as parallel columns.

    One instance holds every peer of a run — observers first, then
    normal peers in spawn order.  ``add_observer`` / ``add_peer`` return
    the allocated id; columns grow in lockstep.  ``row_width`` is the
    owner-matrix width (``quota + n_observers``), required with
    ``vector_columns``.
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
        # archive columns (visible/placed are numpy: the toggle kernel
        # scatter-adds visible and mask-compares both in bulk)
        "visible",
        "placed",
        "fully_placed",
        "pending_check",
        "check_scheduled",
        "check_key",
        # ragged link table (owner -> holders), whose entries are the
        # shared objects of the id column
        "holders",
        "id_objects",
        # reverse index (holder -> owners): ragged lists at ordinary
        # scale, a fixed-width owner matrix plus row lengths at swarm
        # scale (see the module docstring)
        "owners_of",
        "_own_matrix",
        "_own_len",
        # observer side tables (indexed by id < n_observers)
        "fixed_age",
        "observer_name",
        # numpy columns (grown amortised): join rounds + census flags
        # feed the vectorised census; quota feeds the vectorised pool
        # filter and the batched recruitment commit.
        "_join_np",
        "_census_alive",
        "quota_used",
        "_capacity",
    )

    def __init__(
        self,
        initial_capacity: int = 1024,
        vector_columns: bool = False,
        row_width: int = 0,
    ):
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
        self.fully_placed: List[int] = []
        self.pending_check: List[int] = []
        self.check_scheduled: List[Optional[int]] = []
        #: the pending check's event key (``None`` when none is pending),
        #: the one object its queue bucket holds too.
        self.check_key: List[Optional[int]] = []
        self.holders: List[List[int]] = []
        self.fixed_age: List[int] = []
        self.observer_name: List[str] = []
        capacity = max(int(initial_capacity), 16)
        _check_capacity(capacity)
        self.id_objects = np.empty(capacity, dtype=object)
        self._join_np = np.zeros(capacity, dtype=np.int64)
        self._census_alive = np.zeros(capacity, dtype=bool)
        self.quota_used = np.zeros(capacity, dtype=np.int64)
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
        # threshold, the owner matrix above it.
        if vector_columns:
            if row_width < 1:
                raise ValueError(
                    f"vector columns need a positive owner-row width "
                    f"(quota + observers), got {row_width}"
                )
            self.owners_of = None
            self._own_matrix = np.zeros((capacity, row_width), dtype=np.int32)
            self._own_len = np.zeros(capacity, dtype=np.int64)
        else:
            self.owners_of: List[List[int]] = []
            self._own_matrix = None
            self._own_len = None

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------
    def _append_common(self, join_round: int) -> int:
        peer_id = self.count
        if peer_id >= self._capacity:
            _check_capacity(peer_id + 1)
            capacity = min(self._capacity * 2, _MAX_CAPACITY)
            id_objects = np.empty(capacity, dtype=object)
            id_objects[: self._capacity] = self.id_objects
            join_np = np.zeros(capacity, dtype=np.int64)
            join_np[: self._capacity] = self._join_np
            census = np.zeros(capacity, dtype=bool)
            census[: self._capacity] = self._census_alive
            quota_used = np.zeros(capacity, dtype=np.int64)
            quota_used[: self._capacity] = self.quota_used
            if self.vector_columns:
                visible = np.zeros(capacity, dtype=np.int64)
                visible[: self._capacity] = self.visible
                placed = np.zeros(capacity, dtype=np.int8)
                placed[: self._capacity] = self.placed
                self.visible = visible
                self.placed = placed
                matrix = np.zeros(
                    (capacity, self._own_matrix.shape[1]), dtype=np.int32
                )
                matrix[: self._capacity] = self._own_matrix
                own_len = np.zeros(capacity, dtype=np.int64)
                own_len[: self._capacity] = self._own_len
                self._own_matrix = matrix
                self._own_len = own_len
            self.id_objects = id_objects
            self._join_np = join_np
            self._census_alive = census
            self.quota_used = quota_used
            self._capacity = capacity
        self.count = peer_id + 1
        self.join.append(join_round)
        self.online.append(1)
        self.alive.append(1)
        self.last_offline.append(-1)
        self.last_state_change.append(join_round)
        self.online_rounds.append(0)
        if not self.vector_columns:
            self.visible.append(0)
            self.placed.append(0)
        self.fully_placed.append(0)
        self.pending_check.append(0)
        self.check_scheduled.append(None)
        self.check_key.append(None)
        self.holders.append([])
        if not self.vector_columns:
            self.owners_of.append([])
        self.id_objects[peer_id] = peer_id
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
    # owners_of reverse index (ragged lists / owner matrix, see docstring)
    # ------------------------------------------------------------------
    def owners_row(self, peer_id: int) -> Sequence[int]:
        """The owners peer ``peer_id`` stores for.

        A plain list at ordinary scale, a matrix-row view at swarm
        scale.  Callers must treat the row as read-only and unordered,
        and must not hold a matrix view across mutations (a removal
        reorders the row; growth replaces the matrix).
        """
        if not self.vector_columns:
            return self.owners_of[peer_id]
        return self._own_matrix[peer_id, : self._own_len[peer_id]]

    def owners_append(self, holder_id: int, owner_id: int) -> None:
        """Record that ``holder_id`` now stores a block of ``owner_id``."""
        if not self.vector_columns:
            self.owners_of[holder_id].append(owner_id)
            return
        self.owners_append_many(np.array([holder_id], dtype=np.int64), owner_id)

    def owners_append_many(self, holder_ids: np.ndarray, owner_id: int) -> None:
        """Record that each of ``holder_ids`` now stores a block of ``owner_id``.

        The ids must be distinct, as one recruitment's partners are.
        One fancy-index write in matrix mode (all rows are checked for
        room before any is written); a loop over the rows in list mode.
        """
        if not self.vector_columns:
            owners_of = self.owners_of
            for holder_id in holder_ids.tolist():
                owners_of[holder_id].append(owner_id)
            return
        counts = self._own_len[holder_ids]
        width = self._own_matrix.shape[1]
        if len(counts) and counts.max() >= width:
            full = holder_ids[counts >= width].tolist()
            raise ValueError(
                f"peers {full}: owner row full ({width} entries); the "
                "quota bound was violated"
            )
        self._own_matrix[holder_ids, counts] = owner_id
        self._own_len[holder_ids] = counts + 1

    def owners_remove_many(self, holder_ids: Sequence[int], owner_id: int) -> None:
        """Drop one ``owner_id`` entry from each of ``holder_ids``' rows.

        The ids must be distinct, as one owner's holders are.  A
        ``list.remove`` per row in list mode; in matrix mode one masked
        gather finds the owner among each row's first ``len`` slots
        (stale slots past a row's end never match), swaps the row's last
        entry into its place and shortens the row.  ValueError naming
        the peers whose row lacks the owner is deliberate in both modes
        (nothing is removed in matrix mode then): the link tables would
        be corrupt, and audit() wants to hear about it loudly.
        """
        if not self.vector_columns:
            owners_of = self.owners_of
            missing = []
            for holder_id in holder_ids:
                try:
                    owners_of[holder_id].remove(owner_id)
                except ValueError:
                    missing.append(holder_id)
            if missing:
                raise ValueError(f"peers {missing}: owner {owner_id} not in row")
            return
        if not len(holder_ids):
            return
        ids = np.asarray(holder_ids, dtype=np.int64)
        counts = self._own_len[ids]
        rows = self._own_matrix[ids]
        match = (rows == owner_id) & (
            np.arange(rows.shape[1]) < counts[:, None]
        )
        found = match.any(axis=1)
        if not found.all():
            raise ValueError(
                f"peers {ids[~found].tolist()}: owner {owner_id} not in row"
            )
        positions = match.argmax(axis=1)
        last = counts - 1
        matrix = self._own_matrix
        matrix[ids, positions] = matrix[ids, last]
        self._own_len[ids] = last

    def owners_clear(self, peer_id: int) -> List[int]:
        """Empty ``peer_id``'s row (on death), returning the old owners."""
        if not self.vector_columns:
            owners = self.owners_of[peer_id]
            self.owners_of[peer_id] = []
            return owners
        owners = self._own_matrix[peer_id, : self._own_len[peer_id]].tolist()
        self._own_len[peer_id] = 0
        return owners

    def owners_concat(self, peer_ids: Sequence[int]) -> np.ndarray:
        """All owners stored by the given peers, rows concatenated.

        The vector toggle kernel's gather: one flat ``int64`` vector
        (with repeats — an owner stored by two toggling holders appears
        twice) ready for ``np.add.at`` scatter updates of ``visible``.
        One masked row gather, widened from the matrix's ``int32``;
        matrix mode only (the list-mode kernel iterates rows directly).
        """
        if not len(peer_ids):
            return _EMPTY_IDS
        ids = np.asarray(peer_ids, dtype=np.int64)
        rows = self._own_matrix[ids]
        mask = np.arange(rows.shape[1]) < self._own_len[ids][:, None]
        return rows[mask].astype(np.int64)

    def reverse_links(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every row's owners in id order, and each row's length.

        The audit's reverse-pair input, ``int64`` in both modes: matrix
        rows are widened from ``int32`` because the audit's pair keys
        ``owner * count + holder`` pass the ``int32`` range.
        """
        count = self.count
        if not self.vector_columns:
            lengths = np.fromiter(map(len, self.owners_of), np.int64, count)
            owners = np.fromiter(
                chain.from_iterable(self.owners_of), np.int64, lengths.sum()
            )
            return owners, lengths
        lengths = self._own_len[:count]
        rows = self._own_matrix[:count]
        owners = rows[np.arange(rows.shape[1]) < lengths[:, None]]
        return owners.astype(np.int64), lengths

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


def _check_capacity(capacity: int) -> None:
    """Refuse a table whose ids would not fit the ``int32`` owner matrix."""
    if capacity > _MAX_CAPACITY:
        raise ValueError(
            f"state tables hold at most {_MAX_CAPACITY} peers (ids must "
            f"fit int32); {capacity} requested"
        )
