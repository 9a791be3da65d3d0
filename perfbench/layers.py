"""Per-layer tracing from outside the program.

A traced run wraps the calls *into* each layer of ``repro`` with
timers and counters.  Nothing here edits ``src/``: :func:`install`
swaps module and class attributes for wrapping functions and returns
the undo.  Untraced runs never call it, so they run the program as is.

Layers (the modules of ``repro``) and the boundary wrapped for each:

=============  =============================================================
kernel         the pool evaluator ``repro.core.engine`` resolves through
               ``pool_evaluator_for`` (flow-shop / TSP pool kernels)
engine         ``IntervalExplorer.step``; ``Problem.branch`` / ``leaf_cost``
worker         ``bbprocess._RpcChannel.send`` / ``collect`` (the RPC halves)
coordinator    ``Coordinator.__init__`` / ``handle``
intervals      ``IntervalSet.assign``
net            ``encode_frame`` / ``decode_message`` as bound in
               ``repro.grid.net.tcp`` and ``repro.grid.service.client``;
               ``SyncServiceClient.submit`` / ``list_jobs`` round trips
service        ``Scheduler.next_promotion`` (backlog); the rest comes from
               the public ``ServiceReport``
checkpoint     ``CheckpointJournal.append``, ``CheckpointStore.save``
simulator      ``SimFarmer._process`` (the farmer's message handler)
=============  =============================================================

A forked or spawned child records into its own copy of the
:class:`Recorder`; :func:`child_scope` resets it when the child starts
and writes it to ``dump_dir`` when the child exits, and
:meth:`Recorder.merge_dumps` folds those files back into the parent.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Message types the coordinator handles, each with its own latency.
COORDINATOR_MESSAGES = ("Request", "Update", "Push", "Bye")


class Recorder:
    """Counters, maxima and raw samples of one process."""

    def __init__(self, dump_dir: Optional[Path] = None):
        self.dump_dir = dump_dir
        self.role = "bench"
        self.in_step = 0
        self._lock = threading.Lock()
        self.counters: Dict[str, float] = {}
        self.maxima: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        # coordinators built in this process: (instance, root length)
        self.coordinators: List[Tuple[Any, int]] = []

    def reset(self, role: str) -> None:
        self.role = role
        self.in_step = 0
        self.counters, self.maxima, self.samples = {}, {}, {}
        self.coordinators = []

    def add(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            if value > self.maxima.get(name, float("-inf")):
                self.maxima[name] = value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Everything recorded, with coordinator totals folded in."""
        counters = dict(self.counters)
        for coordinator, root_length in self.coordinators:
            consumed = coordinator.leaves_consumed
            for name, value in (
                ("coordinator.work_allocations", coordinator.work_allocations),
                ("coordinator.leaves_consumed", consumed),
                ("coordinator.leaves_redundant", max(0, consumed - root_length)),
            ):
                counters[name] = counters.get(name, 0.0) + float(value)
        return {"counters": counters, "maxima": dict(self.maxima), "samples": self.samples}

    def dump(self) -> None:
        if self.dump_dir is None:
            return
        path = self.dump_dir / f"{self.role}-{os.getpid()}.json"
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh)

    def merge_dumps(self) -> Dict[str, Any]:
        """This process's snapshot plus every child dump, summed."""
        merged = self.snapshot()
        if self.dump_dir is None:
            return merged
        for path in sorted(self.dump_dir.glob("*.json")):
            with open(path) as fh:
                part = json.load(fh)
            path.unlink()
            for name, value in part["counters"].items():
                merged["counters"][name] = merged["counters"].get(name, 0.0) + value
            for name, value in part["maxima"].items():
                merged["maxima"][name] = max(merged["maxima"].get(name, value), value)
            for name, values in part["samples"].items():
                merged["samples"].setdefault(name, []).extend(values)
        return merged


@contextmanager
def child_scope(recorder: Optional[Recorder], role: str) -> Iterator[None]:
    """Record a child process's own work and ship it back at exit."""
    if recorder is None:
        yield
        return
    recorder.reset(role)
    try:
        yield
    finally:
        recorder.dump()


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _timed(recorder: Recorder, fn: Callable, busy: str, calls: Optional[str] = None,
           samples: Optional[str] = None, in_step_busy: Optional[str] = None) -> Callable:
    """``fn`` with its wall time added to ``busy`` (and optional extras)."""

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            recorder.add(busy, elapsed)
            if calls:
                recorder.add(calls)
            if samples:
                recorder.sample(samples, elapsed * 1e6)
            if in_step_busy and recorder.in_step:
                recorder.add(in_step_busy, elapsed)

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every layer boundary; return a function that undoes it."""
    from repro.core import engine
    from repro.core.checkpoint import CheckpointJournal, CheckpointStore
    from repro.core.interval_set import IntervalSet
    from repro.grid.net import tcp
    from repro.grid.runtime import bbprocess, launcher
    from repro.grid.runtime.coordinator import Coordinator
    from repro.grid.service import client as service_client
    from repro.grid.service.scheduler import Scheduler
    from repro.grid.simulator.farmer import SimFarmer
    from repro.problems.flowshop import FlowShopProblem
    from repro.problems.tsp import TSPProblem

    patches: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, name: str, make: Callable[[Any], Any]) -> None:
        original = getattr(owner, name)
        patches.append((owner, name, original))
        setattr(owner, name, make(original))

    # kernel ------------------------------------------------------------
    def traced_resolver(resolve: Callable) -> Callable:
        def pool_evaluator_for(problem: Any, backend: Optional[str] = None) -> Any:
            evaluator = resolve(problem, backend)
            if evaluator is None:
                return None

            def evaluate(states: Any, depth: int) -> Any:
                start = time.perf_counter()
                try:
                    return evaluator(states, depth)
                finally:
                    elapsed = time.perf_counter() - start
                    recorder.add("kernel.busy_s", elapsed)
                    if recorder.in_step:
                        recorder.add("engine.child_s", elapsed)
                    recorder.add("kernel.calls")
                    recorder.add("kernel.parents", len(states))
                    if len(states) == 1:
                        recorder.add("kernel.singletons")

            return evaluate

        return pool_evaluator_for

    patch(engine, "pool_evaluator_for", traced_resolver)

    # engine --------------------------------------------------------------
    def traced_step(step: Callable) -> Callable:
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
            stats = self.stats
            before = (stats.nodes_explored, stats.nodes_pruned, stats.bound_evaluations)
            recorder.in_step += 1
            start = time.perf_counter()
            try:
                return step(self, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                recorder.in_step -= 1
                recorder.add("engine.step_s", elapsed)
                if recorder.role == "worker":
                    recorder.add("worker.explore_s", elapsed)
                recorder.add("engine.nodes_explored", stats.nodes_explored - before[0])
                recorder.add("engine.nodes_pruned", stats.nodes_pruned - before[1])
                recorder.add("engine.bound_evaluations", stats.bound_evaluations - before[2])

        return wrapper

    patch(engine.IntervalExplorer, "step", traced_step)
    for problem_class in (FlowShopProblem, TSPProblem):
        patch(problem_class, "branch", lambda fn: _timed(
            recorder, fn, "problem.branch_s", "problem.branch_calls",
            in_step_busy="engine.child_s"))
        patch(problem_class, "leaf_cost", lambda fn: _timed(
            recorder, fn, "problem.leaf_s", in_step_busy="engine.child_s"))

    # worker ----------------------------------------------------------------
    def traced_send(send: Callable) -> Callable:
        def wrapper(self: Any, message: Any) -> Any:
            if type(message).__name__ in ("Update", "JobUpdate"):
                recorder.add("worker.updates")
            return send(self, message)

        return wrapper

    patch(bbprocess._RpcChannel, "send", traced_send)
    patch(bbprocess._RpcChannel, "collect",
          lambda fn: _timed(recorder, fn, "worker.rpc_wait_s"))

    def traced_worker_main(worker_main: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with child_scope(recorder, "worker"):
                return worker_main(*args, **kwargs)

        return wrapper

    patch(launcher, "worker_main", traced_worker_main)

    # coordinator -------------------------------------------------------------
    def traced_init(init: Callable) -> Callable:
        def wrapper(self: Any, root: Any, *args: Any, **kwargs: Any) -> None:
            init(self, root, *args, **kwargs)
            recorder.coordinators.append((self, root.length))

        return wrapper

    def traced_handle(handle: Callable) -> Callable:
        def wrapper(self: Any, message: Any) -> Any:
            start = time.perf_counter()
            try:
                return handle(self, message)
            finally:
                elapsed = time.perf_counter() - start
                recorder.add("coordinator.messages")
                recorder.add("coordinator.busy_s", elapsed)
                recorder.sample(
                    f"coordinator.handle_us.{type(message).__name__}", elapsed * 1e6
                )

        return wrapper

    patch(Coordinator, "__init__", traced_init)
    patch(Coordinator, "handle", traced_handle)

    # intervals -------------------------------------------------------------------
    def traced_assign(assign: Callable) -> Callable:
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            try:
                return assign(self, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                recorder.add("intervals.assign_calls")
                recorder.add("intervals.assign_busy_s", elapsed)
                recorder.sample("intervals.assign_us", elapsed * 1e6)
                recorder.peak("intervals.max_records", len(self.records()))

        return wrapper

    patch(IntervalSet, "assign", traced_assign)

    # net -----------------------------------------------------------------------
    def traced_encode(encode: Callable) -> Callable:
        def wrapper(message: Any) -> bytes:
            start = time.perf_counter()
            frame = encode(message)
            recorder.add("net.codec_s", time.perf_counter() - start)
            recorder.add("net.frames")
            recorder.add("net.bytes", len(frame))
            return frame

        return wrapper

    def traced_decode(decode: Callable) -> Callable:
        def wrapper(payload: bytes) -> Any:
            start = time.perf_counter()
            message = decode(payload)
            recorder.add("net.codec_s", time.perf_counter() - start)
            recorder.add("net.frames")
            recorder.add("net.bytes", len(payload))
            return message

        return wrapper

    for module in (tcp, service_client):
        patch(module, "encode_frame", traced_encode)
        patch(module, "decode_message", traced_decode)
    for method in ("submit", "list_jobs"):
        patch(service_client.SyncServiceClient, method, lambda fn: _timed(
            recorder, fn, "client.rpc_s", "client.rpcs", samples="client.rtt_us"))

    # service ---------------------------------------------------------------------
    def traced_promotion(next_promotion: Callable) -> Callable:
        def wrapper(self: Any, queued: Any, running: Any) -> Any:
            recorder.peak("service.backlog_max", len(queued))
            return next_promotion(self, queued, running)

        return wrapper

    patch(Scheduler, "next_promotion", traced_promotion)

    # checkpoint ------------------------------------------------------------------
    patch(CheckpointJournal, "append", lambda fn: _timed(
        recorder, fn, "checkpoint.busy_s", "checkpoint.appends",
        samples="checkpoint.append_us"))
    patch(CheckpointStore, "save", lambda fn: _timed(
        recorder, fn, "checkpoint.busy_s", "checkpoint.snapshots"))

    # simulator -------------------------------------------------------------------
    patch(SimFarmer, "_process", lambda fn: _timed(recorder, fn, "sim.farmer_busy_s"))

    def uninstall() -> None:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)

    return uninstall
