"""The multi-tenant solve server: N farmers behind one socket.

:class:`SolveService` pumps one :class:`~repro.grid.net.tcp.TcpListener`
exactly like :class:`~repro.grid.net.serve.GridServer`, but instead of
owning a single coordinator it keeps **one
:class:`~repro.grid.runtime.coordinator.Coordinator` per running job**
and lets the :class:`~repro.grid.service.scheduler.Scheduler` decide
which job feeds each hungry worker.  Workers stay dumb
interval-explorers: a ``Request`` comes in untagged, the service picks
a job, asks that job's coordinator for a slice, and wraps the grant in
a :class:`~repro.grid.runtime.protocol.JobGrant` carrying the job id
and the job's spec; the worker then tags its ``JobUpdate``/``JobPush``
traffic with the same id and the service routes each message to the
right ledger.

Crash-only by construction: job metadata transitions go through the
durable :class:`~repro.grid.service.store.JobStore`, per-job
INTERVALS/SOLUTION pairs checkpoint through each coordinator's own
:class:`~repro.core.checkpoint.CheckpointStore` (journal included),
and a restart with ``resume=True`` rebuilds the queue from
``jobs/*/meta.json``, recovering every job that was mid-flight.  The
service epoch rides the Welcome so surviving workers resync exactly as
they do against a restarted single-job server.

Delivery semantics mirror the single-job design.  Per-job coordinators
keep their own at-least-once dedup caches — a worker's global
sequence counter interleaves across jobs, but each coordinator still
sees a strictly increasing subsequence, so retry detection is intact.
Requests and client RPCs are deduplicated at the service layer
instead, because their replies (grant wrapping, scheduling) are
composed *above* any one coordinator.

A worker that moves between jobs may let an old job's lease expire;
the §4.1 interval invariant turns that into redundant exploration,
never lost work — same guarantee as a worker crash.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.interval import Interval
from repro.core.stats import Incumbent
from repro.exceptions import RuntimeProtocolError
from repro.grid.net.tcp import TcpListener
from repro.grid.net.transport import TransportTimeout
from repro.grid.runtime.coordinator import Coordinator
from repro.grid.runtime.protocol import (
    Ack,
    Bye,
    CancelJob,
    Idle,
    JobAccepted,
    JobGrant,
    JobList,
    JobPush,
    JobRefused,
    JobStatus,
    JobStatusRequest,
    JobUpdate,
    ListJobs,
    Push,
    Reconciled,
    Request,
    SubmitJob,
    Terminate,
    Update,
    spec_from_wire,
)
from repro.grid.service.scheduler import Scheduler, SchedulerConfig
from repro.grid.service.store import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobRecord,
    JobStore,
)

__all__ = ["ServiceConfig", "ServiceReport", "SolveService"]


@dataclass
class ServiceConfig:
    """Tuning of the multi-tenant solve server."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = let the OS pick; see SolveService.address
    duplication_threshold: int = 64
    checkpoint_dir: Optional[Path] = None
    checkpoint_period: float = 2.0
    deadline: Optional[float] = None  # wall-clock cap; None serves forever
    poll_interval: float = 0.05
    lease_seconds: Optional[float] = 30.0
    peer_timeout: Optional[float] = 30.0
    linger_seconds: float = 10.0  # grace for Byes once draining
    resume: bool = False  # rebuild the job table from checkpoint_dir
    journal: bool = True
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    idle_retry_after: float = 0.25  # worker nap when no job has work
    drain_when_idle: bool = False  # exit once every seen job settled


@dataclass
class ServiceReport:
    """What one service incarnation did before exiting."""

    jobs: Dict[str, Dict[str, Any]]
    wall_seconds: float
    epoch: int
    jobs_completed: int = 0
    jobs_failed: int = 0
    jobs_cancelled: int = 0
    work_allocations: int = 0
    requests_idled: int = 0
    protocol_errors: int = 0
    worker_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)
    aborted: bool = False


class SolveService:
    """A job-queue front door over the shared worker fleet."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        if self.config.resume and self.config.checkpoint_dir is None:
            raise RuntimeProtocolError(
                "--resume requires a checkpoint directory"
            )
        self.jobs = JobStore(self.config.checkpoint_dir)
        self.scheduler = Scheduler(self.config.scheduler)
        self._coordinators: Dict[str, Coordinator] = {}
        if self.config.resume:
            self.jobs.recover()
        self.epoch = self.jobs.bump_epoch()
        if self.config.resume:
            # Jobs that were mid-flight when the previous incarnation
            # died resume from their own snapshot+journal; queued jobs
            # just wait for promotion again.
            for record in self.jobs.in_status(RUNNING):
                self._start_job(record, recover=True)
        self.listener = TcpListener(
            self.config.host,
            self.config.port,
            spec_wire=None,  # specs travel per JobGrant, not per Welcome
            peer_timeout=self.config.peer_timeout,
            epoch=self.epoch,
        )
        # Service-layer at-least-once caches (Requests + client RPCs);
        # Update/Push dedup stays inside each job's coordinator.
        self._last_seq: Dict[str, int] = {}
        self._last_reply: Dict[str, Any] = {}
        self._clients: Set[str] = set()
        self.byes: Dict[str, Dict[str, float]] = {}
        self.work_allocations = 0
        self.requests_idled = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.jobs_cancelled = 0
        self.protocol_errors = 0
        self._jobs_seen = len(self.jobs)
        self._draining = False
        self._shutdown = False
        self._abort = False

    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — useful with ``port=0``."""
        return self.listener.address

    def shutdown(self) -> None:
        """Ask ``serve_forever`` to return after its current iteration."""
        self._shutdown = True

    def abort(self) -> None:
        """Stop without final checkpoints — the in-process ``kill -9``."""
        self._abort = True
        self._shutdown = True

    # ------------------------------------------------------------------
    # job lifecycle
    # ------------------------------------------------------------------
    def _start_job(self, record: JobRecord, recover: bool = False) -> bool:
        """Promote ``record`` to running (or fail it durably)."""
        try:
            problem = spec_from_wire(record.spec_wire).build()
            root = Interval(0, problem.total_leaves())
        except Exception as exc:  # noqa: BLE001 - tenant input, not ours
            record.status = FAILED
            record.error = f"spec failed to build: {exc}"
            self.jobs.persist(record)
            self.jobs_failed += 1
            return False
        store = self.jobs.checkpoint_store(record.job_id)
        config = self.config
        if recover and store is not None:
            coordinator = Coordinator.recover(
                store,
                root,
                duplication_threshold=config.duplication_threshold,
                checkpoint_period=config.checkpoint_period,
                lease_seconds=config.lease_seconds,
                journal=config.journal,
            )
        else:
            coordinator = Coordinator(
                root,
                duplication_threshold=config.duplication_threshold,
                store=store,
                checkpoint_period=config.checkpoint_period,
                initial_best=Incumbent(),
                lease_seconds=config.lease_seconds,
                journal=config.journal,
            )
        # A problem-supplied warm start seeds the job's incumbent; the
        # incumbent is monotonic, so this can only tighten pruning and
        # never changes the proved optimum.
        warm = problem.warm_start()
        if warm is not None:
            coordinator.solution.update(*warm)
        self._coordinators[record.job_id] = coordinator
        if record.status != RUNNING:
            record.status = RUNNING
            if record.submitted_at:
                record.queue_wait_seconds = max(
                    0.0, time.time() - record.submitted_at
                )
            self.jobs.persist(record)
        return True

    def _finalize_job(self, record: JobRecord) -> None:
        """A job's interval set emptied: persist the proof, free the slot."""
        coordinator = self._coordinators.pop(record.job_id, None)
        if coordinator is None:
            return
        record.status = DONE
        record.cost = coordinator.solution.cost
        record.solution = coordinator.solution.solution
        record.nodes_explored = coordinator.nodes_explored
        if not self._abort:
            coordinator.maybe_checkpoint(force=True)
        self.jobs.persist(record)
        self.jobs_completed += 1

    def _cancel_job(self, record: JobRecord) -> None:
        coordinator = self._coordinators.pop(record.job_id, None)
        record.status = CANCELLED
        if coordinator is not None:
            record.cost = coordinator.solution.cost
            record.solution = coordinator.solution.solution
            record.nodes_explored = coordinator.nodes_explored
        self.jobs.persist(record)
        self.jobs_cancelled += 1

    def _sweep_finished(self) -> None:
        for job_id in list(self._coordinators):
            if self._coordinators[job_id].intervals.is_empty():
                record = self.jobs.get(job_id)
                if record is not None:
                    self._finalize_job(record)
                else:  # pragma: no cover - records outlive coordinators
                    self._coordinators.pop(job_id, None)

    def _promote(self) -> None:
        while True:
            candidate = self.scheduler.next_promotion(
                self.jobs.in_status(QUEUED), self.jobs.in_status(RUNNING)
            )
            if candidate is None:
                return
            self._start_job(candidate)

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------
    def _dedup(self, sender: str, seq: int) -> Tuple[bool, Any]:
        """Service-layer retry cache (same discipline as the coordinator)."""
        if seq > 0:
            last = self._last_seq.get(sender, 0)
            if seq == last:
                return True, self._last_reply.get(sender)
            if seq < last:
                return True, None
        return False, None

    def _remember(self, sender: str, seq: int, reply: Any) -> Any:
        if seq > 0:
            if reply is not None:
                reply.seq = seq
            self._last_seq[sender] = seq
            self._last_reply[sender] = reply
        return reply

    def _handle(self, message: Any) -> Optional[Any]:
        if isinstance(message, Request):
            return self._on_request(message)
        if isinstance(message, JobUpdate):
            return self._on_job_update(message)
        if isinstance(message, JobPush):
            return self._on_job_push(message)
        if isinstance(message, Bye):
            return self._on_bye(message)
        if isinstance(message, SubmitJob):
            return self._on_client(message, self._on_submit)
        if isinstance(message, JobStatusRequest):
            return self._on_client(message, self._on_status)
        if isinstance(message, CancelJob):
            return self._on_client(message, self._on_cancel)
        if isinstance(message, ListJobs):
            return self._on_client(message, self._on_list)
        if isinstance(message, (Update, Push)):
            # Untagged worker traffic means a legacy single-job worker
            # got a grant it should not have; refuse loudly.
            raise RuntimeProtocolError(
                f"service received untagged {type(message).__name__}; "
                f"workers must speak the job-tagged protocol"
            )
        raise RuntimeProtocolError(
            f"service cannot handle {type(message).__name__}"
        )

    # -- workers -------------------------------------------------------
    def _on_request(self, msg: Request) -> Any:
        cached, reply = self._dedup(msg.worker, msg.seq)
        if cached:
            return reply
        reply = self._grant_for(msg)
        return self._remember(msg.worker, msg.seq, reply)

    def _grant_for(self, msg: Request) -> Any:
        if self._draining:
            return Terminate(float("inf"))
        while True:
            runnable: List[Tuple[JobRecord, int]] = []
            for record in self.jobs.in_status(RUNNING):
                coordinator = self._coordinators.get(record.job_id)
                if coordinator is None or coordinator.intervals.is_empty():
                    continue
                runnable.append((record, self._active_workers(coordinator)))
            record = self.scheduler.pick_grant(runnable)
            if record is None:
                self.requests_idled += 1
                return Idle(self.config.idle_retry_after)
            coordinator = self._coordinators[record.job_id]
            # The coordinator's own handle() would cache this reply
            # under the worker's seq; harmless, but the authoritative
            # cache for Requests is the service layer's (the wrapped
            # JobGrant), so dispatch below it.
            inner = coordinator.handle(
                Request(msg.worker, msg.power, seq=msg.seq)
            )
            if isinstance(inner, Terminate):
                # That job just proved empty; settle it and pick again.
                self._finalize_job(record)
                continue
            if inner is None:  # pragma: no cover - seq cached upstream
                return None
            self.work_allocations += 1
            return JobGrant(
                record.job_id,
                inner.interval,
                inner.best_cost,
                spec=dict(record.spec_wire),
            )

    def _on_job_update(self, msg: JobUpdate) -> Any:
        coordinator = self._coordinators.get(msg.job)
        if coordinator is None:
            # The job settled (done/cancelled/failed) while the worker
            # explored: report its slice as withdrawn so the explorer
            # folds immediately and asks for new work.
            record = self.jobs.get(msg.job)
            cost = (
                record.cost
                if record is not None and record.cost is not None
                else float("inf")
            )
            begin = msg.interval[0]
            reply: Any = Reconciled((begin, begin), cost)
            reply.seq = msg.seq
            return reply
        return coordinator.handle(
            Update(
                msg.worker,
                msg.interval,
                nodes=msg.nodes,
                consumed=msg.consumed,
                seq=msg.seq,
            )
        )

    def _on_job_push(self, msg: JobPush) -> Any:
        coordinator = self._coordinators.get(msg.job)
        if coordinator is None:
            reply: Any = Ack(float("inf"))
            reply.seq = msg.seq
            return reply
        return coordinator.handle(
            Push(msg.worker, msg.cost, msg.solution, seq=msg.seq)
        )

    def _on_bye(self, msg: Bye) -> Any:
        self.byes[msg.worker] = msg.stats
        for coordinator in self._coordinators.values():
            coordinator.release_worker(msg.worker)
        reply: Any = Ack(float("inf"))
        reply.seq = msg.seq
        return reply

    @staticmethod
    def _active_workers(coordinator: Coordinator) -> int:
        return len(coordinator.intervals.owners())

    # -- clients -------------------------------------------------------
    def _on_client(self, msg: Any, handler: Any) -> Any:
        self._clients.add(msg.worker)
        cached, reply = self._dedup(msg.worker, msg.seq)
        if cached:
            return reply
        reply = handler(msg)
        return self._remember(msg.worker, msg.seq, reply)

    def _on_submit(self, msg: SubmitJob) -> Any:
        if self._draining:
            return JobRefused("service is draining")
        refusal = self.scheduler.admission_error(
            self.jobs.in_status(QUEUED), msg.priority
        )
        if refusal is not None:
            return JobRefused(refusal)
        try:
            # Build once to validate: a spec that cannot produce a
            # problem must bounce at the front door, not fail the job
            # minutes later in the scheduler.
            spec_from_wire(msg.spec).build()
        except Exception as exc:  # noqa: BLE001 - tenant input
            return JobRefused(f"spec rejected: {exc}")
        record = self.jobs.create(
            msg.spec, owner=msg.owner, priority=msg.priority
        )
        self._jobs_seen += 1
        return JobAccepted(record.job_id)

    def _job_status(self, record: JobRecord) -> JobStatus:
        coordinator = self._coordinators.get(record.job_id)
        if coordinator is not None:
            best_cost = coordinator.solution.cost
            nodes = coordinator.nodes_explored
        else:
            best_cost = (
                record.cost if record.cost is not None else float("inf")
            )
            nodes = record.nodes_explored
        return JobStatus(
            job=record.job_id,
            status=record.status,
            best_cost=best_cost,
            solution=record.solution if record.status == DONE else None,
            owner=record.owner,
            priority=record.priority,
            nodes=nodes,
            error=record.error,
        )

    def _on_status(self, msg: JobStatusRequest) -> Any:
        record = self.jobs.get(msg.job)
        if record is None:
            return JobStatus(job=msg.job, status="unknown")
        return self._job_status(record)

    def _on_cancel(self, msg: CancelJob) -> Any:
        record = self.jobs.get(msg.job)
        if record is None:
            return JobStatus(job=msg.job, status="unknown")
        if record.status in (QUEUED, RUNNING):
            self._cancel_job(record)
        return self._job_status(record)

    def _on_list(self, msg: ListJobs) -> Any:
        summaries = [
            record.summary()
            for record in self.jobs.records()
            if not msg.owner or record.owner == msg.owner
        ]
        return JobList(summaries)

    # ------------------------------------------------------------------
    # the pump
    # ------------------------------------------------------------------
    def serve_forever(self) -> ServiceReport:
        """Serve until shutdown (or, when draining, until the fleet left)."""
        config = self.config
        listener = self.listener
        started = time.monotonic()
        drained_since: Optional[float] = None
        try:
            while not self._shutdown:
                now = time.monotonic()
                if (
                    config.deadline is not None
                    and now - started > config.deadline
                ):
                    raise RuntimeProtocolError(
                        f"service exceeded the {config.deadline}s deadline"
                    )
                self._sweep_finished()
                self._promote()
                if (
                    config.drain_when_idle
                    and self._jobs_seen > 0
                    and not self.jobs.in_status(QUEUED, RUNNING)
                ):
                    self._draining = True
                if self._draining:
                    if drained_since is None:
                        drained_since = now
                    remaining = (
                        set(listener.connected_workers()) - self._clients
                    )
                    if remaining <= set(self.byes):
                        break
                    if now - drained_since > config.linger_seconds:
                        break
                else:
                    drained_since = None
                for coordinator in self._coordinators.values():
                    coordinator.maybe_checkpoint()
                try:
                    message = listener.recv(timeout=config.poll_interval)
                except TransportTimeout:
                    self._check_leases()
                    continue
                try:
                    reply = self._handle(message)
                except RuntimeProtocolError:
                    # One bad peer must not take the service down.
                    self.protocol_errors += 1
                    continue
                if reply is not None:
                    listener.send(message.worker, reply)
                self._check_leases()
        finally:
            if not self._abort:
                for coordinator in self._coordinators.values():
                    coordinator.maybe_checkpoint(force=True)
            listener.close()
        return self._report(time.monotonic() - started)

    def _check_leases(self) -> None:
        for coordinator in self._coordinators.values():
            coordinator.check_leases()

    def _report(self, wall_seconds: float) -> ServiceReport:
        jobs: Dict[str, Dict[str, Any]] = {}
        for record in self.jobs.records():
            doc = record.summary()
            doc["queue_wait_seconds"] = record.queue_wait_seconds
            doc["solution"] = (
                list(record.solution)
                if isinstance(record.solution, (list, tuple))
                else record.solution
            )
            jobs[record.job_id] = doc
        return ServiceReport(
            jobs=jobs,
            wall_seconds=wall_seconds,
            epoch=self.epoch,
            jobs_completed=self.jobs_completed,
            jobs_failed=self.jobs_failed,
            jobs_cancelled=self.jobs_cancelled,
            work_allocations=self.work_allocations,
            requests_idled=self.requests_idled,
            protocol_errors=self.protocol_errors,
            worker_stats=dict(self.byes),
            aborted=self._abort,
        )
