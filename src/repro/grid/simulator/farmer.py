"""The simulated coordinator (farmer) — paper §4.

A single-server message processor: requests queue FIFO, each takes a
configurable service time (that is what the 1.7 % coordinator CPU
exploitation of Table 2 measures), and every reply goes back over the
network to the pulling worker.

State: ``INTERVALS`` (an :class:`~repro.core.interval_set.IntervalSet`)
and ``SOLUTION`` (an :class:`~repro.core.stats.Incumbent`), checkpointed
every ``checkpoint_period`` into in-memory snapshots standing in for
the two files of §4.1.  A crash (from the
:class:`~repro.grid.simulator.failures.FarmerFailurePlan`) drops the
live state and all queued messages; recovery restores the snapshots —
losing the ownership map, which the protocol tolerates by design
(workers re-claim their intervals at the next update).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.core.interval import Interval
from repro.core.interval_set import IntervalSet
from repro.core.stats import Incumbent
from repro.exceptions import SimulationError
from repro.grid.simulator.events import SimClock
from repro.grid.simulator.failures import FarmerFailurePlan
from repro.grid.simulator.messages import (
    IntervalUpdate,
    SolutionAck,
    SolutionPush,
    UpdateReply,
    WorkReply,
    WorkRequest,
)
from repro.grid.simulator.metrics import MetricsCollector

__all__ = ["FarmerConfig", "SimFarmer"]


@dataclass
class FarmerConfig:
    """Knobs of the coordinator."""

    service_time: float = 1e-3  # seconds of farmer CPU per message
    checkpoint_period: float = 1800.0  # "every 30 minutes" (§5.3)
    checkpoint_service_time: float = 0.2
    duplication_threshold: int = 1
    death_timeout: Optional[float] = None  # None: rely on duplication


class SimFarmer:
    """Coordinator state machine under the virtual clock."""

    def __init__(
        self,
        clock: SimClock,
        root_interval: Interval,
        metrics: MetricsCollector,
        config: Optional[FarmerConfig] = None,
        failure_plan: Optional[FarmerFailurePlan] = None,
        initial_best: Optional[Incumbent] = None,
    ):
        self.clock = clock
        self.metrics = metrics
        self.config = config or FarmerConfig()
        self.failure_plan = failure_plan or FarmerFailurePlan()
        self.intervals = IntervalSet.initial(
            root_interval, self.config.duplication_threshold
        )
        self.solution = (initial_best or Incumbent()).copy()
        self.terminated = False
        self.down = False
        self._epoch = 0  # bumped on crash: stale queued work is dropped
        self._next_free = 0.0
        self._last_contact: Dict[str, float] = {}
        # checkpoint snapshots: the "two files"
        self._intervals_snapshot = self.intervals.to_payload()
        self._solution_snapshot = self.solution.copy()
        self.checkpoints_taken = 0
        self.recoveries = 0
        self.messages_dropped = 0
        self._schedule_failures()
        self._checkpoint_timer()

    # ------------------------------------------------------------------
    # failure machinery
    # ------------------------------------------------------------------
    def _schedule_failures(self) -> None:
        for crash, downtime in self.failure_plan.outages:
            self.clock.schedule_at(crash, self._crash)
            self.clock.schedule_at(crash + downtime, self._recover)

    def _crash(self) -> None:
        self.down = True
        self._epoch += 1  # queued-but-unserved messages die with us

    def _recover(self) -> None:
        """Restart: reload INTERVALS and SOLUTION from the files."""
        self.down = False
        self.recoveries += 1
        self.intervals = IntervalSet.from_payload(
            self._intervals_snapshot, self.config.duplication_threshold
        )
        self.solution = self._solution_snapshot.copy()
        self._last_contact.clear()
        self._next_free = self.clock.now

    def _checkpoint_timer(self) -> None:
        if self.terminated:
            return
        self.clock.schedule(self.config.checkpoint_period, self._do_checkpoint)

    def _do_checkpoint(self) -> None:
        if not self.down and not self.terminated:
            self._intervals_snapshot = self.intervals.to_payload()
            self._solution_snapshot = self.solution.copy()
            self.checkpoints_taken += 1
            self.metrics.add_farmer_busy(self.config.checkpoint_service_time)
            self._cull_dead_workers()
        self._checkpoint_timer()

    def _cull_dead_workers(self) -> None:
        timeout = self.config.death_timeout
        if timeout is None:
            return
        deadline = self.clock.now - timeout
        for worker, last in list(self._last_contact.items()):
            if last < deadline:
                self.intervals.release(worker)
                del self._last_contact[worker]

    # ------------------------------------------------------------------
    # message intake (single-server queue)
    # ------------------------------------------------------------------
    def deliver(self, message: Any, respond: Callable[[Any], None]) -> None:
        """A message arrives (network delay already elapsed).

        ``respond(reply)`` is invoked at service completion time; the
        caller adds the return-path network delay.
        """
        if self.down:
            self.messages_dropped += 1
            return
        start = max(self.clock.now, self._next_free)
        finish = start + self.config.service_time
        self._next_free = finish
        self.metrics.add_farmer_busy(self.config.service_time)
        self.clock.schedule_at(finish, self._process, message, respond, self._epoch)

    def _process(
        self, message: Any, respond: Callable[[Any], None], epoch: int
    ) -> None:
        if epoch != self._epoch or self.down:
            self.messages_dropped += 1
            return
        reply = self._handle(message)
        if reply is not None:
            respond(reply)

    # ------------------------------------------------------------------
    # protocol handlers
    # ------------------------------------------------------------------
    def _handle(self, message: Any) -> Any:
        if isinstance(message, WorkRequest):
            return self._on_work_request(message)
        if isinstance(message, IntervalUpdate):
            return self._on_update(message)
        if isinstance(message, SolutionPush):
            return self._on_solution(message)
        raise SimulationError(f"farmer cannot handle {type(message).__name__}")

    def _mark_terminated(self) -> None:
        """Record termination and checkpoint the final (empty) state.

        Without this a farmer crash *after* termination would recover
        a stale non-empty INTERVALS while every worker has already
        been dismissed — resurrecting finished work with nobody left
        to do it.  Persisting the terminal state first closes that
        window.
        """
        self.terminated = True
        self._intervals_snapshot = self.intervals.to_payload()
        self._solution_snapshot = self.solution.copy()

    def _on_work_request(self, msg: WorkRequest) -> WorkReply:
        self._last_contact[msg.worker] = self.clock.now
        if self.intervals.is_empty():
            self._mark_terminated()
            return WorkReply(None, self.solution.cost, terminate=True)
        assignment = self.intervals.assign(msg.worker, msg.power)
        if assignment is None:
            self._mark_terminated()
            return WorkReply(None, self.solution.cost, terminate=True)
        self.metrics.work_allocations += 1
        return WorkReply(assignment.interval, self.solution.cost)

    def _on_update(self, msg: IntervalUpdate) -> UpdateReply:
        self._last_contact[msg.worker] = self.clock.now
        merged = self.intervals.update(msg.worker, msg.interval)
        self.metrics.worker_checkpoint_ops += 1
        if self.intervals.is_empty():
            self._mark_terminated()
        return UpdateReply(merged, self.solution.cost)

    def _on_solution(self, msg: SolutionPush) -> SolutionAck:
        self._last_contact[msg.worker] = self.clock.now
        if self.solution.update(msg.cost, msg.solution):
            self.metrics.solution_improved(self.clock.now, msg.cost)
        return SolutionAck(self.solution.cost)
