"""``INTERVALS`` — the coordinator's view of all unexplored work (§4).

The coordinator "keeps a copy of all the not yet explored intervals".
Each copy is an :class:`IntervalRecord` carrying the interval and the
set of B&B processes currently exploring it (several after a
duplication, none for orphaned work awaiting a requester).

The set provides the paper's coordinator-side operations:

* **update** (checkpointing, §4.1) — reconcile a worker's reported
  interval with its copy through the intersection operator (eq. 14);
* **assign** (load balancing, §4.2) — selection + partitioning with a
  power-proportional split point and a duplication threshold;
* **release** (fault tolerance, §4.1) — detach a dead worker so its
  last copy can be handed out again;
* **termination detection** (§4.3) — the run is over exactly when the
  set becomes empty; empty intervals are dropped automatically.

Serving a request costs O(G log n), not O(n): records are indexed by
the sum of their holders' powers (G distinct sums), each group a
max-heap on length.  For a fixed holder power the requester's share is
nondecreasing in the length (the split is integer-exact, see
:func:`~repro.core.operators.partition_point`), so selection visits
each group's longest records and stops at the first share below the
best so far.  Lengths only shrink, so a heap key is an upper bound
that is re-keyed lazily when it reaches the top.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.interval import Interval
from repro.core.operators import partition_point, requester_share_length
from repro.exceptions import IntervalError

__all__ = ["IntervalRecord", "IntervalSet", "Assignment"]

WorkerId = Hashable

#: The heaps are rebuilt once they hold more than this many entries per
#: live record (plus a constant): stale entries cost memory, not results.
_STALE_FACTOR = 2


@dataclass
class IntervalRecord:
    """One coordinator-side copy: the interval and who explores it."""

    interval: Interval
    owners: Set[WorkerId] = field(default_factory=set)

    def is_assigned(self) -> bool:
        return bool(self.owners)


@dataclass
class Assignment:
    """Result of a successful work request."""

    interval: Interval
    duplicated: bool


class IntervalSet:
    """The coordinator's ``INTERVALS`` with its operators and counters.

    Parameters
    ----------
    duplication_threshold:
        Intervals shorter than this are *duplicated* rather than split
        (§4.2) — the requester explores the same numbers as the holder,
        bounding the tail latency of tiny work units at the price of
        redundant node exploration (paper measured < 0.4 %).

    Records returned by :meth:`records` are read-only views: every
    mutation goes through the set's operators, which keep the indexes.
    """

    def __init__(self, duplication_threshold: int = 0):
        if duplication_threshold < 0:
            raise IntervalError("duplication threshold must be >= 0")
        self.duplication_threshold = duplication_threshold
        self._records: Dict[int, IntervalRecord] = {}
        self._next_id = 0
        # Processing power of each requester, recorded by assign() and
        # forgotten by release(); a holder without one counts as 1.0.
        self._powers: Dict[WorkerId, float] = {}
        # worker -> ids of the records it owns (never an empty set)
        self._by_worker: Dict[WorkerId, Set[int]] = {}
        # holder-power sum -> heap of (-length, rid, token); a record's
        # one live entry is the one whose token matches _entry[rid].
        self._groups: Dict[float, List[Tuple[int, int, int]]] = {}
        self._entry: Dict[int, Tuple[float, int]] = {}
        self._tokens = itertools.count()
        self._heap_entries = 0
        # Table 2 counters
        self.allocations = 0
        self.splits = 0
        self.duplications = 0
        self.updates = 0
        self.duplicated_length_assigned = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def initial(
        cls, root_range: Interval, duplication_threshold: int = 0
    ) -> "IntervalSet":
        """INTERVALS at the start of a run: the range of the root (§4.3)."""
        s = cls(duplication_threshold)
        s.add(root_range)
        return s

    def add(self, interval: Interval, owners: Sequence[WorkerId] = ()) -> int:
        """Insert a non-empty interval; return its record id."""
        if interval.is_empty():
            raise IntervalError(f"refusing to add empty interval {interval}")
        rid = self._next_id
        self._next_id += 1
        self._records[rid] = IntervalRecord(interval, set())
        for worker in owners:
            self._own(rid, worker)
        self._reindex(rid)
        return rid

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def cardinality(self) -> int:
        """Number of intervals ("almost equal to the number of processes")."""
        return len(self._records)

    @property
    def size(self) -> int:
        """Sum of interval lengths = unexplored solutions left (§4.3)."""
        return sum(rec.interval.length for rec in self._records.values())

    def is_empty(self) -> bool:
        """Termination condition: nothing left to explore."""
        return not self._records

    def records(self) -> Mapping[int, IntervalRecord]:
        return dict(self._records)

    def intervals(self) -> List[Interval]:
        """All intervals, sorted by begin (stable external view)."""
        return sorted(
            (rec.interval for rec in self._records.values()),
            key=lambda iv: (iv.begin, iv.end),
        )

    def interval_of(self, rid: int) -> Interval:
        """The interval of record ``rid``."""
        return self._records[rid].interval

    def record_for_worker(self, worker: WorkerId) -> Optional[int]:
        """Id of the record ``worker`` currently owns (the oldest, if
        a journal replay left it several), if any."""
        rids = self._by_worker.get(worker)
        return min(rids) if rids else None

    def owners(self) -> Set[WorkerId]:
        """Every worker that owns at least one record."""
        return set(self._by_worker)

    def covered_union_length(self) -> int:
        """Length of the union of all intervals (duplicates counted once).

        Used by the no-lost-work invariant tests: together with the
        explored prefix this must cover the whole root range.
        """
        total = 0
        current: Optional[Interval] = None
        for iv in self.intervals():
            if current is None:
                current = iv
            elif iv.begin <= current.end:
                current = Interval(current.begin, max(current.end, iv.end))
            else:
                total += current.length
                current = iv
        if current is not None:
            total += current.length
        return total

    # ------------------------------------------------------------------
    # the paper's coordinator operations
    # ------------------------------------------------------------------
    def update(self, worker: WorkerId, reported: Interval) -> Interval:
        """Reconcile a worker's interval with its copy (eq. 14, §4.1).

        Returns the reconciled interval the worker must now restrict
        itself to.  An empty result means the worker's work is gone
        (finished, or fully reassigned after the worker was presumed
        dead) and it should request a new unit.

        After a farmer recovery the ownership map is lost; a report
        that overlaps an unowned record re-claims *its piece* of it.
        The leftover parts of the record stay in the set as unowned
        work: the recovered snapshot may be stale, so the coordinator
        cannot tell whether they were explored — keeping them costs at
        worst redundant re-exploration, dropping them would lose work
        (the §4.1 guarantee is re-exploration, never loss).
        """
        self.updates += 1
        rid = self.record_for_worker(worker)
        if rid is not None:
            # Normal path: the worker owns this copy, so everything
            # outside the intersection is known-explored (left) or
            # known-reassigned (right) — plain eq. 14.
            rec = self._records[rid]
            merged = rec.interval.intersect(reported)
            if merged.is_empty():
                self._delete(rid)
                return merged
            rec.interval = merged
            return merged

        rid = self._match_unowned(reported)
        if rid is None:
            return Interval(reported.end, reported.end)
        rec = self._records[rid]
        piece = rec.interval.intersect(reported)
        if piece.is_empty():
            return piece
        left = Interval(rec.interval.begin, piece.begin)
        right = Interval(piece.end, rec.interval.end)
        rec.interval = piece
        self._own(rid, worker)
        self._reindex(rid)
        if not left.is_empty():
            self.add(left)
        if not right.is_empty():
            self.add(right)
        return piece

    def _match_unowned(self, reported: Interval) -> Optional[int]:
        best: Optional[int] = None
        best_overlap = 0
        for rid, rec in self._records.items():
            if rec.owners:
                continue
            overlap = rec.interval.intersect(reported).length
            if overlap > best_overlap:
                best_overlap = overlap
                best = rid
        return best

    def assign(
        self, requester: WorkerId, requester_power: float = 1.0
    ) -> Optional[Assignment]:
        """Serve a work request: selection then partitioning (§4.2).

        Records ``requester_power`` as the requester's power until it
        is released; holders are weighed by their recorded powers.
        Returns ``None`` when INTERVALS is empty — the requester must
        terminate (§4.3).
        """
        if requester_power < 0:
            raise IntervalError("requester power must be >= 0")
        if not self._records:
            return None
        # A requester never splits work with itself: drop any stale
        # ownership first (it is asking because it has nothing left).
        self.release(requester)
        self._powers[requester] = requester_power
        best_rid, holder_power = self._select(requester_power)
        rec = self._records[best_rid]
        self.allocations += 1

        if not rec.owners:
            # Null-power virtual holder: hand the whole interval over
            # ("they are thus assigned entirely to the requesting
            # process") — never a duplication.
            self._own(best_rid, requester)
            self._reindex(best_rid)
            return Assignment(rec.interval, duplicated=False)

        if rec.interval.length < self.duplication_threshold:
            # Duplicate: same numbers, one coordinator copy, two explorers.
            return self._duplicate(best_rid, requester)

        point = partition_point(rec.interval, holder_power, requester_power)
        left, right = rec.interval.split_at(point)
        if right.is_empty():
            # Degenerate split (e.g. zero requester power on a live
            # holder): fall back to duplication semantics.
            return self._duplicate(best_rid, requester)
        if left.is_empty():
            # Whole interval handed over (zero-power holders).
            rec.interval = right
            for worker in list(rec.owners):
                self._disown(best_rid, worker)
            self._own(best_rid, requester)
            self._reindex(best_rid)
            return Assignment(right, duplicated=False)
        rec.interval = left  # holder learns of the cut at its next update
        self.add(right, owners=(requester,))
        self.splits += 1
        return Assignment(right, duplicated=False)

    def _duplicate(self, rid: int, requester: WorkerId) -> Assignment:
        rec = self._records[rid]
        self._own(rid, requester)
        self._reindex(rid)
        self.duplications += 1
        self.duplicated_length_assigned += rec.interval.length
        return Assignment(rec.interval, duplicated=True)

    def subtract(self, explored: Interval) -> int:
        """Remove ``explored`` from every copy that overlaps it.

        Journal replay (§4.1 extension): a definitely-explored range is
        carved out of the restored snapshot.  Position subtraction is
        order-insensitive and idempotent, and under the covering
        invariant it can only remove work that was in fact explored —
        duplicated copies each lose their overlap independently.
        Returns the total length removed (duplicates counted per copy).
        """
        removed = 0
        for rid, rec in list(self._records.items()):
            overlap = rec.interval.intersect(explored)
            if overlap.is_empty():
                continue
            removed += overlap.length
            left = Interval(rec.interval.begin, overlap.begin)
            right = Interval(overlap.end, rec.interval.end)
            if left.is_empty() and right.is_empty():
                self._delete(rid)
            elif right.is_empty():
                rec.interval = left
            elif left.is_empty():
                rec.interval = right
            else:
                rec.interval = left
                self.add(right, owners=tuple(rec.owners))
        return removed

    def release(self, worker: WorkerId) -> int:
        """Detach ``worker`` from every record (death or completion)
        and forget its power.

        Returns the number of records it was detached from.  Records it
        leaves behind stay in the set (owned by the virtual null-power
        process) until another request picks them up — this is the
        §4.1 recovery path.
        """
        self._powers.pop(worker, None)
        rids = sorted(self._by_worker.get(worker, ()))
        for rid in rids:
            self._disown(rid, worker)
            self._reindex(rid)
        return len(rids)

    # ------------------------------------------------------------------
    # the index
    # ------------------------------------------------------------------
    def _own(self, rid: int, worker: WorkerId) -> None:
        self._records[rid].owners.add(worker)
        self._by_worker.setdefault(worker, set()).add(rid)

    def _disown(self, rid: int, worker: WorkerId) -> None:
        self._records[rid].owners.discard(worker)
        rids = self._by_worker[worker]
        rids.discard(rid)
        if not rids:
            del self._by_worker[worker]

    def _delete(self, rid: int) -> None:
        for worker in list(self._records[rid].owners):
            self._disown(rid, worker)
        del self._records[rid]
        del self._entry[rid]  # its heap entry is now stale

    def _reindex(self, rid: int) -> None:
        """File ``rid`` under its current holder-power sum.

        Called whenever its owners change; any older heap entry of the
        record goes stale.  fsum makes the key independent of the
        owner set's iteration order.
        """
        rec = self._records[rid]
        power = math.fsum(self._powers.get(w, 1.0) for w in rec.owners)
        token = next(self._tokens)
        self._entry[rid] = (power, token)
        heap = self._groups.setdefault(power, [])
        heapq.heappush(heap, (-rec.interval.length, rid, token))
        self._heap_entries += 1
        if self._heap_entries > _STALE_FACTOR * len(self._records) + 64:
            self._rebuild()

    def _rebuild(self) -> None:
        """Drop every stale heap entry: one heap per live power sum."""
        groups: Dict[float, List[Tuple[int, int, int]]] = {}
        for rid, (power, token) in self._entry.items():
            length = self._records[rid].interval.length
            groups.setdefault(power, []).append((-length, rid, token))
        for heap in groups.values():
            heapq.heapify(heap)
        self._groups = groups
        self._heap_entries = len(self._entry)

    def _select(self, requester_power: float) -> Tuple[int, float]:
        """The record giving the requester the longest share, ties to
        the lowest id, and its holder-power sum.  Requires a record."""
        best_rid = -1
        best_share = -1
        best_power = 0.0
        for power, heap in list(self._groups.items()):
            taken: List[Tuple[int, int, int]] = []
            while heap:
                neg_length, rid, token = heap[0]
                entry = self._entry.get(rid)
                if entry is None or entry[1] != token:
                    heapq.heappop(heap)  # stale: record gone or refiled
                    self._heap_entries -= 1
                    continue
                rec = self._records[rid]
                if rec.interval.length != -neg_length:
                    # shrank since filed: re-key, then look again
                    heapq.heapreplace(heap, (-rec.interval.length, rid, token))
                    continue
                # The top is exact and no other record of this group is
                # longer, so no later one has a larger share.
                share = requester_share_length(rec.interval, power, requester_power)
                if share < best_share:
                    break
                if share > best_share or rid < best_rid:
                    best_rid, best_share, best_power = rid, share, power
                taken.append(heapq.heappop(heap))
            for item in taken:
                heapq.heappush(heap, item)
            if not heap:
                del self._groups[power]
        assert best_rid >= 0
        return best_rid, best_power

    # ------------------------------------------------------------------
    # checkpoint payloads (§4.1 — the INTERVALS file)
    # ------------------------------------------------------------------
    def to_payload(self) -> List[Tuple[int, int]]:
        """Ownership-free snapshot: what survives a farmer failure."""
        return [iv.as_tuple() for iv in self.intervals()]

    @classmethod
    def from_payload(
        cls,
        payload: Sequence[Tuple[int, int]],
        duplication_threshold: int = 0,
    ) -> "IntervalSet":
        s = cls(duplication_threshold)
        for pair in payload:
            iv = Interval.from_tuple(pair)
            if not iv.is_empty():
                s.add(iv)
        return s

    def __repr__(self) -> str:
        return (
            f"IntervalSet(cardinality={self.cardinality}, size={self.size}, "
            f"intervals={self.intervals()!r})"
        )
