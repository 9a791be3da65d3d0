"""The real coordinator: INTERVALS + SOLUTION behind a message loop.

Pure protocol logic — no process or queue handling here (the launcher
owns those), which keeps the coordinator unit-testable by feeding it
messages directly.  The state and operators are exactly the ones the
simulator uses: :class:`~repro.core.interval_set.IntervalSet`,
:class:`~repro.core.stats.Incumbent`, and the two-file
:class:`~repro.core.checkpoint.CheckpointStore`.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Set, Union

from repro.core.checkpoint import CheckpointStore
from repro.core.interval import Interval
from repro.core.interval_set import IntervalSet
from repro.core.stats import Incumbent
from repro.exceptions import RuntimeProtocolError
from repro.grid.runtime.protocol import (
    Ack,
    Bye,
    GrantWork,
    Push,
    Reconciled,
    Request,
    Terminate,
    Update,
)

__all__ = ["Coordinator"]


class Coordinator:
    """Handles worker messages against the INTERVALS/SOLUTION state.

    Parameters
    ----------
    root_interval:
        The whole search space (range of the root node).
    duplication_threshold:
        §4.2's split-vs-duplicate cutoff.
    store:
        Optional checkpoint store; when given, :meth:`maybe_checkpoint`
        persists INTERVALS and SOLUTION every ``checkpoint_period``
        wall seconds, and :meth:`recover` restores them.
    lease_seconds:
        When set, a worker that owns an interval but has not been
        heard from for this long is presumed dead: :meth:`check_leases`
        releases its copy to the load balancer.  A worker that was
        merely slow reconciles later through the carve path — the
        interval-set invariant makes a wrongly-expired lease cost
        redundancy, never lost work.
    """

    def __init__(
        self,
        root_interval: Interval,
        duplication_threshold: int = 1,
        store: Optional[CheckpointStore] = None,
        checkpoint_period: float = 5.0,
        initial_best: Optional[Incumbent] = None,
        lease_seconds: Optional[float] = None,
        journal: bool = True,
    ):
        self.intervals = IntervalSet.initial(root_interval, duplication_threshold)
        self.solution = (initial_best or Incumbent()).copy()
        self.store = store
        self.checkpoint_period = checkpoint_period
        self.lease_seconds = lease_seconds
        self.journal_enabled = journal
        self.journal_replayed = 0
        self.journal_leaves_replayed = 0
        self._last_checkpoint = time.monotonic()
        # At-least-once RPC state: per-worker highest seq seen and the
        # reply it produced, so retries and channel duplicates are
        # answered idempotently instead of re-applied.
        self._last_seq: Dict[str, int] = {}
        self._last_reply: Dict[str, Any] = {}
        self._last_heard: Dict[str, float] = {}
        self.terminated = False
        # Table 2-style counters
        self.worker_checkpoint_ops = 0
        self.work_allocations = 0
        self.nodes_explored = 0
        self.leaves_consumed = 0
        self.improvements = 0
        self.duplicates_ignored = 0
        self.leases_expired: List[str] = []
        self.byes: Dict[str, Dict[str, float]] = {}

    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        store: CheckpointStore,
        root_interval: Interval,
        duplication_threshold: int = 1,
        checkpoint_period: float = 5.0,
        lease_seconds: Optional[float] = None,
        journal: bool = True,
    ) -> "Coordinator":
        """Restart after a farmer failure: reload the two files (§4.1),
        then replay the reconciliation journal over the snapshot so the
        recovery window shrinks to the last reconciled update."""
        state = store.load_state(
            root_interval, duplication_threshold, replay_journal=journal
        )
        coord = cls(
            root_interval,
            duplication_threshold,
            store,
            checkpoint_period,
            initial_best=state.incumbent,
            lease_seconds=lease_seconds,
            journal=journal,
        )
        if state.intervals is not None:
            coord.intervals = state.intervals
        coord.journal_replayed = state.replayed_records
        coord.journal_leaves_replayed = state.replayed_leaves
        return coord

    # ------------------------------------------------------------------
    def handle(self, message: Any) -> Optional[Any]:
        """Process one worker message; return the reply (None for Bye).

        Sequenced messages (``seq > 0``) are deduplicated: a seq equal
        to the last one processed for that worker returns the cached
        reply without touching state (retries, channel duplicates); an
        older seq returns ``None`` (a reordered stale duplicate — the
        worker has already moved past it).
        """
        worker = getattr(message, "worker", None)
        if worker is not None:
            self._last_heard[worker] = time.monotonic()
        seq = getattr(message, "seq", 0)
        if worker is not None and seq > 0:
            last = self._last_seq.get(worker, 0)
            if seq == last:
                self.duplicates_ignored += 1
                return self._last_reply.get(worker)
            if seq < last:
                self.duplicates_ignored += 1
                return None
        reply = self._dispatch(message)
        if worker is not None and seq > 0:
            self._last_seq[worker] = seq
            if reply is not None:
                reply.seq = seq
            self._last_reply[worker] = reply
        return reply

    def _dispatch(self, message: Any) -> Optional[Any]:
        if isinstance(message, Request):
            return self._on_request(message)
        if isinstance(message, Update):
            return self._on_update(message)
        if isinstance(message, Push):
            return self._on_push(message)
        if isinstance(message, Bye):
            self.byes[message.worker] = message.stats
            # Best-effort ack so the worker's retry helper can stop
            # re-sending; a legacy unsequenced Bye (seq 0) gets one
            # too — the launcher still delivers it, but the worker has
            # already exited, so it sits unread in the reply queue.
            return Ack(self.solution.cost)
        raise RuntimeProtocolError(
            f"coordinator cannot handle {type(message).__name__}"
        )

    def _on_request(self, msg: Request) -> Union[GrantWork, Terminate]:
        if self.intervals.is_empty():
            self.terminated = True
            return Terminate(self.solution.cost)
        assignment = self.intervals.assign(msg.worker, msg.power)
        if assignment is None:
            self.terminated = True
            return Terminate(self.solution.cost)
        self.work_allocations += 1
        return GrantWork(assignment.interval.as_tuple(), self.solution.cost)

    def _on_update(self, msg: Update) -> Reconciled:
        reported = Interval.from_tuple(msg.interval)
        explored: Optional[Interval] = None
        if self._journaling():
            # Owned path only: everything between the copy's begin and
            # the reported begin is definitely explored (eq. 14's left
            # remainder).  The unowned-reclaim path cannot know what
            # was explored, so it journals nothing — replay then keeps
            # that work, costing redundancy, never loss.
            rid = self.intervals.record_for_worker(msg.worker)
            if rid is not None:
                owned = self.intervals.interval_of(rid)
                cut = min(max(reported.begin, owned.begin), owned.end)
                explored = Interval(owned.begin, cut)
        merged = self.intervals.update(msg.worker, reported)
        if explored is not None and not explored.is_empty():
            assert self.store is not None
            self.store.journal_explored(explored)
        self.worker_checkpoint_ops += 1
        self.nodes_explored += msg.nodes
        self.leaves_consumed += msg.consumed
        if self.intervals.is_empty():
            self.terminated = True
        return Reconciled(merged.as_tuple(), self.solution.cost)

    def _on_push(self, msg: Push) -> Ack:
        if self.solution.update(msg.cost, msg.solution):
            self.improvements += 1
            if self._journaling():
                assert self.store is not None
                self.store.journal_push(msg.cost, msg.solution)
        return Ack(self.solution.cost)

    def _journaling(self) -> bool:
        return self.store is not None and self.journal_enabled

    # ------------------------------------------------------------------
    def release_worker(self, worker: str) -> None:
        """A worker process died: orphan its interval (§4.1).

        The sequence cache is kept — if the worker is alive after all
        (an expired lease on a slow worker), its retries must still be
        deduplicated; only the lease clock restarts.
        """
        self.intervals.release(worker)
        self._last_heard.pop(worker, None)

    def check_leases(self, now: Optional[float] = None) -> List[str]:
        """Release every interval owner silent past ``lease_seconds``.

        Returns the workers released this call.  A worker first seen
        here (it owns work but predates lease tracking — e.g. after a
        coordinator recovery lost the clocks) starts a fresh lease
        rather than being released immediately.
        """
        if self.lease_seconds is None:
            return []
        if now is None:
            now = time.monotonic()
        owners: Set[Any] = self.intervals.owners()  # worker ids are str here
        expired: List[str] = []
        for worker in sorted(owners, key=str):
            heard = self._last_heard.get(worker)
            if heard is None:
                self._last_heard[worker] = now
            elif now - heard > self.lease_seconds:
                self.release_worker(worker)
                expired.append(worker)
        self.leases_expired.extend(expired)
        return expired

    def maybe_checkpoint(self, force: bool = False) -> bool:
        """Persist INTERVALS and SOLUTION when the period elapsed."""
        if self.store is None:
            return False
        now = time.monotonic()
        if not force and now - self._last_checkpoint < self.checkpoint_period:
            return False
        self.store.save(self.intervals, self.solution)
        self._last_checkpoint = now
        return True

    def redundant_rate(self, total_leaves: int) -> float:
        if self.leaves_consumed <= 0:
            return 0.0
        # repro-check: ignore[RC01] -- reporting ratio for Table 2, not interval state
        return max(0, self.leaves_consumed - total_leaves) / self.leaves_consumed
