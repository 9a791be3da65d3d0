"""The four workloads, each through the program's public entry points.

Every workload function takes a :class:`Context` and returns a
:class:`Outcome`: proofs attempted and failed (with reasons), the
end-to-end metrics of an untraced run, or the per-layer metrics of a
traced one, and the inputs it used (for the fingerprint).

* ``solve-ta021``   — ``repro.core.solve`` on a leading slice of Ta021;
* ``grid-2w-ta021`` — ``repro.grid.runtime.solve_parallel``, 2 workers;
* ``service-stream`` — ``SolveService`` + 2 ``run_worker`` processes +
  ``SyncServiceClient``: bursts of the job catalogue (the traced run
  first sends an open-loop Poisson stream);
* ``sim-ta056``     — ``GridSimulation`` of the Ta056-calibrated
  workload on the paper's 1,889-processor platform.

Closed-loop workloads (all but the service) prove their inputs back to
back: each proof is a job submitted when the previous one finished.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import random
import resource
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

import layers
from reference import build_problem, solution_cost

#: Set-ups per run, each in a fresh interpreter (the service starts
#: three processes per set-up, so it repeats fewer times).
SETUP_REPEATS = 11
SERVICE_SETUP_REPEATS = 5
#: Open-loop arrival rate of the service stream, jobs per second.
POISSON_RATE = 10.0
#: Share of the run the open-loop phase lasts.
STREAM_SHARE = 0.75
#: The bursts split the whole job catalogue between them, so every
#: seed bursts the same total work (48 jobs each, under the default
#: admission limit of 64 queued jobs).
BURSTS = 3
#: Untraced service runs make ``--seconds / SERVICE_PASS_SECONDS``
#: passes over the catalogue: a pass takes about 4 s at nominal speed
#: and longer as measured on a slow host; 5 keeps the run near
#: ``--seconds``.
SERVICE_PASS_SECONDS = 5.0
WARMUP_JOBS = 6
POLL_SECONDS = 0.02
#: Virtual days the simulated Ta056 resolution is calibrated to, and
#: how many simulations (seeds derived from the run seed) a run proves.
SIM_DAYS = 0.01
SMOKE_SIM_DAYS = 0.002
SIM_SEEDS = 4
#: The simulation gives up after this many calibrated durations.  The
#: CLI's 4x cuts off about half of the seeds at 0.01 days, a few
#: percent short of the proof: fixed latencies (the 174 s update
#: period) weigh more on short runs than the calibration assumes.
SIM_HORIZON_FACTOR = 40
TA056_OPTIMUM = 3679
#: Reported times are scaled to a host on which one host-speed probe
#: takes this long: the probe's time in the fast phases of the 2-CPU
#: Xeon container the benchmark was tuned on.
PROBE_NOMINAL_S = 0.035
#: Probe runs per sample (see :class:`HostProbe`): a simulation takes
#: seconds, so the probe runs several times between two of them; the
#: service samples at few points, so it takes more there too.
SIM_PROBE_REPEATS = 20
SERVICE_PROBE_REPEATS = 3


@dataclass
class Context:
    seed: int
    seconds: float
    traced: bool
    smoke: bool
    reference: Dict[str, Any]
    tmp: Path


@dataclass
class Outcome:
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    inputs: Dict[str, Any] = field(default_factory=dict)

    def check(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(reason)


# ----------------------------------------------------------------------
# measuring helpers
# ----------------------------------------------------------------------
def cpu_seconds() -> float:
    """User+sys CPU of this process plus its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest reaped child, in MB."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def p50(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def p90(values: List[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class HostProbe:
    """A fixed computation of the benchmark's own, timed between units
    of work to follow the host's speed.

    A shared host changes speed by up to 1.8x, in phases from seconds to
    minutes, and every proof slows with it: twelve 20 s windows of
    back-to-back ``solve-ta021`` proofs spread 0.22 (interquartile range
    over median) in mean proof time.  Divided by the mean probe time of
    the same window they spread 0.05.  The probe is small-array numpy
    arithmetic, as in the bound kernels, plus interpreter-bound integer
    and dict work, as in the engine; it touches no program code, so a
    change to the program cannot move it.
    """

    def __init__(self, repeats: int = 1):
        rng = np.random.default_rng(0)
        self.matrix = rng.integers(1, 100, size=(20, 20))
        self.perms = [rng.permutation(20) for _ in range(40)]
        self.repeats = repeats
        self.times: List[float] = []
        #: CPU seconds the probe used, to keep them out of ``cpu_s``.
        self.cpu = 0.0

    def _once(self) -> None:
        for _ in range(4):
            for perm in self.perms:
                rows = self.matrix[:, perm]
                done = np.cumsum(rows[0])
                for row in rows[1:]:
                    done = np.maximum(done, np.concatenate(([0], done[:-1]))) + row
        table: Dict[int, int] = {}
        x = 0
        for i in range(150_000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            table[x & 1023] = i

    def sample(self, repeats: Optional[int] = None) -> None:
        for _ in range(self.repeats if repeats is None else repeats):
            cpu = time.process_time()
            started = time.perf_counter()
            self._once()
            self.times.append(time.perf_counter() - started)
            self.cpu += time.process_time() - cpu

    def at_nominal_speed(self, metrics: Dict[str, float], outcome: Outcome) -> Dict[str, float]:
        """End-to-end ``metrics`` as on a host where the probe takes
        :data:`PROBE_NOMINAL_S`: times scaled, rates inversely, memory
        as measured.  The measured values go into the fingerprint."""
        probe = statistics.fmean(self.times)
        scale = PROBE_NOMINAL_S / probe
        outcome.inputs["host_probe_s"] = probe
        outcome.inputs["host_probes"] = len(self.times)
        outcome.inputs["measured"] = dict(metrics)
        return {
            name: value / scale if name == "burst_jobs_per_s"
            else value if name == "peak_rss_mb"
            else value * scale
            for name, value in metrics.items()
        }


def timed(fn: Callable[[], Any]) -> Tuple[float, Any]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


@dataclass
class Series:
    """Per-input proof times of a closed loop."""

    walls: Dict[int, List[float]] = field(default_factory=dict)
    cpus: Dict[int, List[float]] = field(default_factory=dict)
    busy: float = 0.0
    count: int = 0

    def add(self, key: int, wall: float, cpu: float) -> None:
        self.walls.setdefault(key, []).append(wall)
        self.cpus.setdefault(key, []).append(cpu)
        self.busy += wall
        self.count += 1

    def time_to_proof(self) -> float:
        """Mean proof time: each input's mean, averaged over inputs.

        A mean, not a median: host speed on shared machines drifts in
        phases of tens of seconds, and the mean weighs every phase a
        run saw instead of picking whichever one dominated it.
        """
        return statistics.fmean(statistics.fmean(w) for w in self.walls.values())


def closed_loop(
    inputs: List[Callable[[], Callable[[], Tuple[bool, str]]]],
    seconds: float,
    outcome: Outcome,
    probe: Optional[HostProbe] = None,
) -> Series:
    """Prove ``inputs`` round-robin until ``seconds`` passed (each at
    least once), sampling ``probe`` before each proof.  An input is a
    ``prepare`` callable returning the ``prove`` callable; only
    ``prove`` is timed."""
    series = Series()
    started = time.perf_counter()
    index = 0
    while index < len(inputs) or time.perf_counter() - started < seconds:
        key = index % len(inputs)
        if probe is not None:
            probe.sample()
        prove = inputs[key]()
        cpu0 = cpu_seconds()
        wall, (ok, reason) = timed(prove)
        series.add(key, wall, cpu_seconds() - cpu0)
        outcome.check(ok, reason)
        index += 1
    return series


def e2e_closed_loop(
    series: Series, setups: List[float], probe: HostProbe, outcome: Outcome
) -> Dict[str, float]:
    ttp = series.time_to_proof()
    return probe.at_nominal_speed({
        "time_to_proof_s": ttp,
        "burst_jobs_per_s": series.count / series.busy,
        "setup_s": p50(setups),
        "cpu_s": statistics.fmean(statistics.fmean(c) for c in series.cpus.values()),
        "peak_rss_mb": peak_rss_mb(),
    }, outcome)


def traced_phases(
    ctx: Context,
    outcome: Outcome,
    run_phase: Callable[[float, HostProbe], Tuple[float, int]],
    probe_repeats: int = 1,
) -> Tuple[Dict[str, Any], float, int]:
    """Run ``run_phase`` untraced, then with every wrapper installed.

    ``run_phase(seconds, probe)`` returns ``(headline time, proofs)``
    and samples ``probe`` between proofs.  Returns the merged layer
    record, the tracing overhead (each phase's headline time over its
    mean probe time, so a change of host speed between the phases does
    not show as overhead) and the traced phase's proof count.
    """
    plain_probe, traced_probe = HostProbe(probe_repeats), HostProbe(probe_repeats)
    plain_time, _ = run_phase(ctx.seconds / 3, plain_probe)
    recorder = layers.Recorder(dump_dir=ctx.tmp / "trace")
    recorder.dump_dir.mkdir(parents=True, exist_ok=True)
    uninstall = layers.install(recorder)
    try:
        traced_time, proofs = run_phase(ctx.seconds * 2 / 3, traced_probe)
    finally:
        uninstall()
    record = recorder.merge_dumps()
    overhead = (
        traced_time / statistics.fmean(traced_probe.times)
        / (plain_time / statistics.fmean(plain_probe.times))
    )
    return record, overhead - 1.0, proofs


def layer_metrics(
    record: Dict[str, Any], proofs: int, overhead: float, serial_nodes: float = 0.0
) -> Dict[str, float]:
    """Per-layer metrics from a merged record; totals become per-proof."""
    c = record["counters"]
    peaks = record["maxima"]
    samples = record["samples"]

    def per(name: str) -> float:
        return c.get(name, 0.0) / proofs

    step = c.get("engine.step_s", 0.0)
    explore = c.get("worker.explore_s", 0.0)
    rpc = c.get("worker.rpc_wait_s", 0.0)
    calls = c.get("kernel.calls", 0.0)
    consumed = c.get("coordinator.leaves_consumed", 0.0)
    metrics = {
        "kernel.calls": per("kernel.calls"),
        "kernel.busy_s": per("kernel.busy_s"),
        "kernel.share": c.get("kernel.busy_s", 0.0) / step if step else 0.0,
        "kernel.parents_per_call": c.get("kernel.parents", 0.0) / calls if calls else 0.0,
        "kernel.singleton_frac": c.get("kernel.singletons", 0.0) / calls if calls else 0.0,
        "engine.nodes_explored": per("engine.nodes_explored"),
        "engine.nodes_pruned": per("engine.nodes_pruned"),
        "engine.bound_evaluations": per("engine.bound_evaluations"),
        "engine.self_s": (step - c.get("engine.child_s", 0.0)) / proofs,
        "problem.branch_calls": per("problem.branch_calls"),
        "problem.branch_s": per("problem.branch_s"),
        "worker.explore_s": per("worker.explore_s"),
        "worker.rpc_wait_s": per("worker.rpc_wait_s"),
        "worker.rpc_wait_share": rpc / (explore + rpc) if explore + rpc else 0.0,
        "worker.updates": per("worker.updates"),
        "coordinator.messages": per("coordinator.messages"),
    }
    for kind in layers.COORDINATOR_MESSAGES:
        values = samples.get(f"coordinator.handle_us.{kind}", [])
        metrics[f"coordinator.handle_us_p50.{kind}"] = p50(values)
        metrics[f"coordinator.handle_us_p90.{kind}"] = p90(values)
    assign = samples.get("intervals.assign_us", [])
    rtt = samples.get("client.rtt_us", [])
    metrics.update({
        "coordinator.work_allocations": per("coordinator.work_allocations"),
        "coordinator.redundant_rate": (
            c.get("coordinator.leaves_redundant", 0.0) / consumed if consumed else 0.0
        ),
        "coordinator.work_inflation": (
            per("engine.nodes_explored") / serial_nodes
            if serial_nodes and consumed else 0.0
        ),
        "intervals.assign_calls": per("intervals.assign_calls"),
        "intervals.assign_busy_s": per("intervals.assign_busy_s"),
        "intervals.assign_us_p50": p50(assign),
        "intervals.assign_us_p90": p90(assign),
        "intervals.max_records": peaks.get("intervals.max_records", 0.0),
        "net.frames": per("net.frames"),
        "net.bytes": per("net.bytes"),
        "net.codec_s": per("net.codec_s"),
        "client.rtt_us_p50": p50(rtt),
        "client.rtt_us_p90": p90(rtt),
        "service.sojourn_p50_s": 0.0,
        "service.sojourn_p90_s": 0.0,
        "service.queue_wait_p50_s": 0.0,
        "service.queue_wait_p90_s": 0.0,
        "service.grants": 0.0,
        "service.requests_idled": 0.0,
        "service.backlog_max": peaks.get("service.backlog_max", 0.0),
        "checkpoint.appends": per("checkpoint.appends"),
        "checkpoint.snapshots": per("checkpoint.snapshots"),
        "checkpoint.busy_s": per("checkpoint.busy_s"),
        "checkpoint.append_us_p50": p50(samples.get("checkpoint.append_us", [])),
        "sim.events": 0.0,
        "sim.events_per_s": 0.0,
        "sim.messages": 0.0,
        "sim.farmer_busy_s": per("sim.farmer_busy_s"),
        "sim.work_allocations": 0.0,
        "sim.checkpoint_operations": 0.0,
        "sim.worker_exploitation": 0.0,
        "sim.redundant_rate": 0.0,
        "gen.late_max_s": 0.0,
        "trace.overhead_frac": overhead,
    })
    return metrics


def _setup_process(conn: Any, kind: str, payload: Any) -> None:
    """Child: import the program, build the inputs, explore a first node."""
    if kind == "solve":
        from repro.core import Interval, solve

        solve(build_problem("flowshop", payload), interval=Interval(0, 1))
    elif kind == "grid":
        from repro.grid.runtime import RuntimeConfig, flowshop_spec, solve_parallel
        from repro.problems.flowshop import FlowShopInstance

        spec = flowshop_spec(FlowShopInstance(payload, name="ta021"))
        solve_parallel(spec, RuntimeConfig(workers=2, root_interval=(0, 1), deadline=60.0))
    else:
        build_simulation(*payload)
    conn.send(True)


def fresh_setups(ctx: Context, kind: str, payload: Any, probe: HostProbe) -> List[float]:
    """Set-up times, each from a fresh interpreter's start to the first
    node explored — imports included, as a user starting the program
    pays them.  ``probe`` runs once before each: set-ups are short."""
    context = mp.get_context("spawn")
    times = []
    for _ in range(1 if ctx.smoke else SETUP_REPEATS):
        probe.sample(1)
        parent, child = context.Pipe()
        started = time.perf_counter()
        # Not daemonic: the grid set-up forks workers of its own.
        process = context.Process(target=_setup_process, args=(child, kind, payload))
        process.start()
        ready = parent.poll(120.0) and parent.recv()
        times.append(time.perf_counter() - started)
        process.join(60.0)
        if process.is_alive():
            process.kill()
            process.join()
        parent.close()
        if not ready or process.exitcode != 0:
            raise RuntimeError(f"{kind} set-up process failed (exit code {process.exitcode})")
    return times


# ----------------------------------------------------------------------
# Ta021 workloads
# ----------------------------------------------------------------------
def _ta021_slice(ctx: Context, name: str) -> Dict[str, Any]:
    ta021 = ctx.reference["ta021"]
    entry = dict(ta021["slices"][("smoke-" if ctx.smoke else "") + name])
    entry["interval"] = (int(entry["interval"][0]), int(entry["interval"][1]))
    entry["matrix"] = ta021["matrix"]
    return entry


def _ta021_inputs(entry: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "instance": "Ta021 (20x20)",
        "slice": f"[0, 20!/{entry['denominator']})",
        "slice_end": str(entry["interval"][1]),
        "initial_upper_bound": entry.get("initial_upper_bound"),
        "optimum": entry["optimum"],
    }


def _check_proof(entry: Dict[str, Any], cost: Any, solution: Any, optimal: bool = True
                 ) -> Tuple[bool, str]:
    if not optimal:
        return False, "optimal=False"
    if cost != entry["optimum"]:
        return False, f"proved {cost}, reference optimum {entry['optimum']}"
    if solution is not None and solution_cost("flowshop", entry["matrix"], solution) != cost:
        return False, f"returned schedule does not evaluate to {cost}"
    return True, ""


def solve_ta021(ctx: Context) -> Outcome:
    from repro.core import Interval, solve

    entry = _ta021_slice(ctx, "solve")
    outcome = Outcome(inputs=_ta021_inputs(entry))
    interval = Interval(*entry["interval"])

    def prepare() -> Callable[[], Tuple[bool, str]]:
        problem = build_problem("flowshop", entry["matrix"])

        def prove() -> Tuple[bool, str]:
            result = solve(problem, interval=interval)
            return _check_proof(entry, result.cost, result.solution)

        return prove

    if not ctx.traced:
        probe = HostProbe()
        setups = fresh_setups(ctx, "solve", entry["matrix"], probe)
        series = closed_loop([prepare], ctx.seconds, outcome, probe)
        outcome.metrics = e2e_closed_loop(series, setups, probe, outcome)
        return outcome

    def phase(seconds: float, probe: HostProbe) -> Tuple[float, int]:
        series = closed_loop([prepare], seconds, outcome, probe)
        return series.time_to_proof(), series.count

    record, overhead, proofs = traced_phases(ctx, outcome, phase)
    outcome.metrics = layer_metrics(record, proofs, overhead)
    return outcome


def grid_2w_ta021(ctx: Context) -> Outcome:
    from repro.grid.runtime import RuntimeConfig, flowshop_spec, solve_parallel
    from repro.problems.flowshop import FlowShopInstance

    entry = _ta021_slice(ctx, "grid")
    outcome = Outcome(inputs=dict(_ta021_inputs(entry), workers=2))
    spec = flowshop_spec(FlowShopInstance(entry["matrix"], name="ta021"))
    config = RuntimeConfig(
        workers=2,
        root_interval=entry["interval"],
        initial_upper_bound=entry["initial_upper_bound"],
        deadline=120.0,
    )

    def prepare() -> Callable[[], Tuple[bool, str]]:
        def prove() -> Tuple[bool, str]:
            result = solve_parallel(spec, config)
            return _check_proof(entry, result.cost, result.solution, result.optimal)

        return prove

    if not ctx.traced:
        probe = HostProbe()
        setups = fresh_setups(ctx, "grid", entry["matrix"], probe)
        series = closed_loop([prepare], ctx.seconds, outcome, probe)
        outcome.metrics = e2e_closed_loop(series, setups, probe, outcome)
        return outcome

    def phase(seconds: float, probe: HostProbe) -> Tuple[float, int]:
        series = closed_loop([prepare], seconds, outcome, probe)
        return series.time_to_proof(), series.count

    record, overhead, proofs = traced_phases(ctx, outcome, phase)
    outcome.metrics = layer_metrics(record, proofs, overhead, entry["serial_nodes"])
    return outcome


# ----------------------------------------------------------------------
# simulated Ta056 resolution
# ----------------------------------------------------------------------
def build_simulation(smoke: bool, seed: int) -> Any:
    """The Ta056-calibrated resolution, as ``repro simulate`` builds it."""
    from repro.grid.simulator import (
        FarmerConfig,
        GridSimulation,
        SimulationConfig,
        SyntheticWorkload,
        WorkerConfig,
        paper_availability_model,
        paper_platform,
        small_platform,
    )

    days = SMOKE_SIM_DAYS if smoke else SIM_DAYS
    platform = small_platform(64) if smoke else paper_platform()
    leaves = math.factorial(50)
    # calibrated churn: ~19 % of the pool busy at a mean 2.1 GHz
    power = 0.19 * platform.total_processors * 2.1
    workload = SyntheticWorkload(
        leaves,
        seed=seed,
        mean_leaf_rate=leaves / (power * days * 86400.0),
        irregularity=1.2,
        nodes_per_second=1e4,
    )
    return GridSimulation(SimulationConfig(
        platform=platform,
        workload=workload,
        horizon=days * 86400.0 * SIM_HORIZON_FACTOR,
        seed=seed,
        availability=paper_availability_model(),
        farmer=FarmerConfig(duplication_threshold=leaves // 10**8),
        worker=WorkerConfig(update_period=174.0),
    ))


def sim_ta056(ctx: Context) -> Outcome:
    rng = random.Random(f"sim-{ctx.seed}")
    seeds = [rng.randrange(1 << 31) for _ in range(1 if ctx.smoke else SIM_SEEDS)]
    outcome = Outcome(inputs={
        "instance": "Ta056-calibrated synthetic (50!)",
        "platform": "small_platform(64)" if ctx.smoke else "paper Table 1 (1,889 processors)",
        "virtual_days": SMOKE_SIM_DAYS if ctx.smoke else SIM_DAYS,
        "horizon_factor": SIM_HORIZON_FACTOR,
        "sim_seeds": seeds,
    })
    # Per-simulation figures only: holding the simulations themselves
    # would make peak RSS grow with the number of proofs a run makes.
    stats: List[Dict[str, float]] = []

    def make_input(seed: int) -> Callable[[], Callable[[], Tuple[bool, str]]]:
        def prepare() -> Callable[[], Tuple[bool, str]]:
            sim = build_simulation(ctx.smoke, seed)

            def prove() -> Tuple[bool, str]:
                wall, report = timed(sim.run)
                stats.append({
                    "sim.events": sim.clock.events_fired,
                    "sim.events_per_s": sim.clock.events_fired / wall,
                    "sim.messages": report.messages,
                    "sim.work_allocations": report.table2.work_allocations,
                    "sim.checkpoint_operations": report.table2.checkpoint_operations,
                    "sim.worker_exploitation": report.table2.worker_exploitation,
                    "sim.redundant_rate": report.table2.redundant_node_rate,
                })
                if not report.finished:
                    return False, f"sim seed {seed}: INTERVALS not empty at the horizon"
                if report.best_cost != TA056_OPTIMUM:
                    return False, f"sim seed {seed}: best cost {report.best_cost}"
                return True, ""

            return prove

        return prepare

    inputs = [make_input(seed) for seed in seeds]
    if not ctx.traced:
        probe = HostProbe(SIM_PROBE_REPEATS)
        setups = fresh_setups(ctx, "sim", (ctx.smoke, seeds[0]), probe)
        series = closed_loop(inputs, ctx.seconds, outcome, probe)
        outcome.metrics = e2e_closed_loop(series, setups, probe, outcome)
        return outcome

    def phase(seconds: float, probe: HostProbe) -> Tuple[float, int]:
        # The same first input in both phases, so the overhead compares
        # like with like.
        stats.clear()
        series = closed_loop(inputs[:1], seconds, outcome, probe)
        return series.time_to_proof(), series.count

    record, overhead, proofs = traced_phases(ctx, outcome, phase, SIM_PROBE_REPEATS)
    metrics = layer_metrics(record, proofs, overhead)
    metrics.update({name: statistics.fmean(s[name] for s in stats) for name in stats[0]})
    outcome.metrics = metrics
    return outcome


# ----------------------------------------------------------------------
# multi-tenant service over loopback TCP
# ----------------------------------------------------------------------
def _install_in_child(dump_dir: Optional[str]) -> Optional[layers.Recorder]:
    if dump_dir is None:
        return None
    recorder = layers.Recorder(Path(dump_dir))
    layers.install(recorder)
    return recorder


def _service_process(conn: Any, checkpoint_dir: str, dump_dir: Optional[str]) -> None:
    """Child: one SolveService until SIGTERM, then its report."""
    from repro.grid.service.server import ServiceConfig, SolveService

    recorder = _install_in_child(dump_dir)
    with layers.child_scope(recorder, "service"):
        service = SolveService(ServiceConfig(checkpoint_dir=Path(checkpoint_dir)))
        signal.signal(signal.SIGTERM, lambda *_: service.shutdown())
        conn.send(service.address)
        report = service.serve_forever()
        conn.send({
            "jobs": report.jobs,
            "work_allocations": report.work_allocations,
            "requests_idled": report.requests_idled,
        })


def _worker_process(host: str, port: int, worker_id: str, dump_dir: Optional[str]) -> None:
    """Child: one ``run_worker`` until SIGTERM or the service is gone."""
    from repro.grid.net.serve import run_worker
    from repro.grid.net.transport import TransportError

    def stop(*_: Any) -> None:
        raise SystemExit(0)

    recorder = _install_in_child(dump_dir)
    with layers.child_scope(recorder, "worker"):
        signal.signal(signal.SIGTERM, stop)
        try:
            run_worker(host, port, worker_id, max_reconnect_attempts=2, backoff_cap=0.2)
        except TransportError:
            pass  # the service is gone


class ServiceStack:
    """A service process, two worker processes and one client."""

    def __init__(self, checkpoint_dir: Path, dump_dir: Optional[Path]):
        from repro.grid.service.client import SyncServiceClient

        context = mp.get_context("spawn")
        self._conn, child_conn = context.Pipe()
        dump = None if dump_dir is None else str(dump_dir)
        # Daemonic, so an error in the benchmark cannot leave them running.
        self.service = context.Process(
            target=_service_process, args=(child_conn, str(checkpoint_dir), dump),
            daemon=True,
        )
        self.service.start()
        self.workers: List[Any] = []
        if not self._conn.poll(60.0):
            self.stop()
            raise RuntimeError("service did not start within 60 s")
        host, port = self._conn.recv()
        self.workers = [
            context.Process(
                target=_worker_process, args=(host, port, f"w{i}", dump), daemon=True
            )
            for i in range(2)
        ]
        for worker in self.workers:
            worker.start()
        self.client = SyncServiceClient(host, port, timeout=30.0)

    def stop(self) -> Dict[str, Any]:
        """Stop workers, then the service; return the service's report.

        A process still running 30 s after SIGTERM is killed and named
        in the report's ``killed`` list."""
        killed: List[str] = []
        for worker in self.workers:
            worker.terminate()
        for index, worker in enumerate(self.workers):
            worker.join(30.0)
            if worker.is_alive():
                worker.kill()
                worker.join()
                killed.append(f"worker w{index}")
        report: Dict[str, Any] = {}
        if self.service.is_alive():
            self.service.terminate()
            if self._conn.poll(30.0):
                report = self._conn.recv()
            else:
                killed.append("service (no report)")
        self.service.join(30.0)
        if self.service.is_alive():
            self.service.kill()
            self.service.join()
            killed.append("service")
        self._conn.close()
        report["killed"] = killed
        return report


@dataclass
class Job:
    entry: Dict[str, Any]
    spec: Any
    owner: str
    due: float = 0.0
    job_id: str = ""
    done_at: float = 0.0
    failure: str = ""


class StreamClient:
    """Submits jobs and watches them to a terminal state."""

    def __init__(self, stack: ServiceStack):
        from repro.grid.service import TERMINAL

        self.client = stack.client
        self.terminal = TERMINAL
        self.late_max = 0.0

    def submit(self, job: Job) -> None:
        from repro.grid.service.client import JobRefusedError

        try:
            job.job_id = self.client.submit(job.spec, owner=job.owner)
        except JobRefusedError as exc:
            job.failure = f"refused: {exc}"

    def poll(self, pending: Dict[str, Job]) -> None:
        summaries = self.client.list_jobs()
        seen = time.perf_counter()
        for summary in summaries:
            job = pending.get(summary["job"])
            if job is not None and summary["status"] in self.terminal:
                job.done_at = seen
                del pending[job.job_id]

    def run(self, jobs: List[Job], timeout: float) -> None:
        """Submit each job at its ``due`` time; watch all to the end."""
        pending: Dict[str, Job] = {}
        deadline = time.perf_counter() + timeout
        next_poll = 0.0
        index = 0
        while (index < len(jobs) or pending) and time.perf_counter() < deadline:
            now = time.perf_counter()
            if index < len(jobs) and now >= jobs[index].due:
                job = jobs[index]
                self.late_max = max(self.late_max, now - job.due)
                self.submit(job)
                if job.job_id:
                    pending[job.job_id] = job
                index += 1
                continue
            if pending and now >= next_poll:
                self.poll(pending)
                next_poll = time.perf_counter() + POLL_SECONDS
                continue
            wake = next_poll if pending else math.inf
            if index < len(jobs):
                wake = min(wake, jobs[index].due)
            time.sleep(max(0.0, min(wake - now, POLL_SECONDS)))
        for job in jobs[index:]:
            job.failure = job.failure or "never submitted before the timeout"
        for job in pending.values():
            job.failure = job.failure or "not terminal before the timeout"


def _catalogue(ctx: Context) -> List[Dict[str, Any]]:
    return ctx.reference["smoke_jobs" if ctx.smoke else "jobs"]


def _draw_entries(ctx: Context, rng: random.Random, count: int) -> List[Dict[str, Any]]:
    """``count`` catalogue jobs: two thirds flow shops, one third TSPs."""
    by_kind: Dict[str, List[Dict[str, Any]]] = {"flowshop": [], "tsp": []}
    for entry in _catalogue(ctx):
        by_kind[entry["kind"]].append(entry)
    kinds = ["tsp" if i % 3 == 2 else "flowshop" for i in range(count)]
    rng.shuffle(kinds)
    return [rng.choice(by_kind[kind]) for kind in kinds]


def _jobs(entries: List[Dict[str, Any]], start: int) -> List[Job]:
    from repro.grid.runtime import flowshop_spec, tsp_spec
    from repro.problems.flowshop import FlowShopInstance
    from repro.problems.tsp import TSPInstance

    jobs = []
    for offset, entry in enumerate(entries):
        if entry["kind"] == "flowshop":
            spec = flowshop_spec(FlowShopInstance(entry["matrix"], name="bench"))
        else:
            spec = tsp_spec(TSPInstance(entry["matrix"], name="bench"))
        jobs.append(Job(entry, spec, owner="alice" if (start + offset) % 2 else "bob"))
    return jobs


def _settle(jobs: List[Job], report: Dict[str, Any], outcome: Outcome) -> None:
    """Check every job against the service's final record."""
    records = report.get("jobs", {})
    for job in jobs:
        record = records.get(job.job_id, {})
        reason = job.failure
        if not reason and record.get("status") != "done":
            reason = f"job ended {record.get('status', 'unreported')}"
        if not reason and record.get("cost") != job.entry["optimum"]:
            reason = f"job proved {record.get('cost')}, reference {job.entry['optimum']}"
        if not reason and solution_cost(
            job.entry["kind"], job.entry["matrix"], record.get("solution")
        ) != job.entry["optimum"]:
            reason = "returned solution does not evaluate to the optimum"
        outcome.check(not reason, reason)


def service_stream(ctx: Context) -> Outcome:
    rng = random.Random(f"service-{ctx.seed}")
    stream_count = 8 if ctx.smoke else int(POISSON_RATE * ctx.seconds * STREAM_SHARE)
    bursts = 1 if ctx.smoke else BURSTS
    outcome = Outcome(inputs={
        "poisson_rate_per_s": POISSON_RATE,
        "traced_stream_jobs": stream_count,
        "bursts": bursts,
        "burst_jobs": len(_catalogue(ctx)),
        "mix": "2/3 flow-shop 8x4, 1/3 TSP 10 cities",
    })
    stacks = 0
    # Sampled before each set-up and between catalogue passes, never
    # inside a burst; its own CPU time is kept out of ``cpu_s``.
    probe = HostProbe(SERVICE_PROBE_REPEATS)
    # Wall time of every phase, timed or not, for the fingerprint: a
    # run that takes unusually long shows where the time went.
    phase_s: Dict[str, List[float]] = {}
    outcome.inputs["phase_s"] = phase_s

    @contextmanager
    def phase(name: str) -> Iterator[None]:
        started = time.perf_counter()
        try:
            yield
        finally:
            phase_s.setdefault(name, []).append(round(time.perf_counter() - started, 3))

    def start(dump_dir: Optional[Path]) -> ServiceStack:
        nonlocal stacks
        stacks += 1
        with phase("start"):
            return ServiceStack(ctx.tmp / f"checkpoint-{stacks}", dump_dir)

    def stop(stack: ServiceStack) -> Dict[str, Any]:
        with phase("stop"):
            report = stack.stop()
        if report["killed"]:
            outcome.inputs.setdefault("killed_at_stop", []).extend(report["killed"])
        return report

    def prove_now(stack: ServiceStack, jobs: List[Job], count: int) -> None:
        """Submit ``count`` catalogue jobs at once and wait for them."""
        batch = _jobs(_draw_entries(ctx, rng, count), len(jobs))
        now = time.perf_counter()
        for job in batch:
            job.due = now
        StreamClient(stack).run(batch, timeout=60.0)
        jobs.extend(batch)

    def bring_up(dump_dir: Optional[Path], repeats: int,
                 setups: List[float]) -> Tuple[ServiceStack, List[Job]]:
        """Start ``repeats`` stacks, timing each to its first proof; keep the last."""
        for attempt in range(repeats):
            jobs: List[Job] = []
            probe.sample()
            started = time.perf_counter()
            stack = start(dump_dir)
            try:
                with phase("first_proof"):
                    prove_now(stack, jobs, 1)
                setups.append(time.perf_counter() - started)
                if attempt == repeats - 1:
                    # Untimed warm-up: both workers load both problem
                    # domains before the timed phase, as they have in
                    # a service that has been running.
                    with phase("warmup"):
                        prove_now(stack, jobs, WARMUP_JOBS)
                    return stack, jobs
            except BaseException:
                stop(stack)
                raise
            _settle(jobs, stop(stack), outcome)
        raise ValueError("repeats must be at least 1")

    def burst_phase(stack: ServiceStack, jobs: List[Job]) -> List[float]:
        """Burst the whole catalogue, in ``bursts`` seeded parts."""
        entries = list(_catalogue(ctx))
        rng.shuffle(entries)
        times = []
        for part in range(bursts):
            batch = _jobs(entries[part::bursts], len(jobs))
            started = time.perf_counter()
            for job in batch:
                job.due = started
            StreamClient(stack).run(batch, timeout=120.0)
            times.append(max(job.done_at for job in batch) - started)
            jobs.extend(batch)
        return times

    def stream_phase(stack: ServiceStack, jobs: List[Job]) -> Tuple[List[Job], float]:
        stream = _jobs(_draw_entries(ctx, rng, stream_count), len(jobs))
        due = time.perf_counter() + 0.05
        for job in stream:
            job.due = due
            due += rng.expovariate(POISSON_RATE)
        watcher = StreamClient(stack)
        watcher.run(stream, timeout=60.0 + stream_count / POISSON_RATE)
        jobs.extend(stream)
        return stream, watcher.late_max

    if not ctx.traced:
        # Bursts of the whole catalogue, back to back, a fixed number of
        # passes (the service keeps every job, so its memory grows with
        # the count); the host probe runs between two passes.
        setups: List[float] = []
        stack, jobs = bring_up(None, 1 if ctx.smoke else SERVICE_SETUP_REPEATS, setups)
        burst_times: List[float] = []
        try:
            probe.sample()
            cpu0 = cpu_seconds() - probe.cpu
            for _ in range(max(1, round(ctx.seconds / SERVICE_PASS_SECONDS))):
                with phase("bursts"):
                    burst_times += burst_phase(stack, jobs)
                probe.sample()
        finally:
            report = stop(stack)
        # After the stop: the service and workers count once reaped.
        cpu = cpu_seconds() - probe.cpu - cpu0
        _settle(jobs, report, outcome)
        outcome.metrics = probe.at_nominal_speed({
            "time_to_proof_s": statistics.fmean(burst_times),
            "burst_jobs_per_s": len(_catalogue(ctx)) * len(burst_times) / bursts
            / sum(burst_times),
            "setup_s": p50(setups),
            "cpu_s": cpu / len(jobs),
            "peak_rss_mb": peak_rss_mb(),
        }, outcome)
        return outcome

    # Traced: one untraced stack for the overhead baseline, then a traced one.
    stack, jobs = bring_up(None, 1, [])
    try:
        plain = statistics.fmean(burst_phase(stack, jobs))
    finally:
        report = stop(stack)
    _settle(jobs, report, outcome)

    dump_dir = ctx.tmp / "trace"
    dump_dir.mkdir(parents=True, exist_ok=True)
    recorder = layers.Recorder(dump_dir)
    uninstall = layers.install(recorder)
    try:
        stack, jobs = bring_up(dump_dir, 1, [])
        try:
            stream, late_max = stream_phase(stack, jobs)
            traced = statistics.fmean(burst_phase(stack, jobs))
        finally:
            report = stop(stack)
    finally:
        uninstall()
    _settle(jobs, report, outcome)
    record = recorder.merge_dumps()
    serial_nodes = statistics.fmean(job.entry["serial_nodes"] for job in jobs)
    metrics = layer_metrics(record, len(jobs), traced / plain - 1.0, serial_nodes)
    waits = [doc.get("queue_wait_seconds", 0.0) for doc in report.get("jobs", {}).values()]
    sojourns = [job.done_at - job.due for job in stream if job.done_at]
    metrics.update({
        "service.sojourn_p50_s": p50(sojourns),
        "service.sojourn_p90_s": p90(sojourns),
        "service.queue_wait_p50_s": p50(waits),
        "service.queue_wait_p90_s": p90(waits),
        "service.grants": report.get("work_allocations", 0) / len(jobs),
        "service.requests_idled": report.get("requests_idled", 0) / len(jobs),
        "gen.late_max_s": late_max,
    })
    outcome.metrics = metrics
    return outcome


WORKLOADS: Dict[str, Callable[[Context], Outcome]] = {
    "solve-ta021": solve_ta021,
    "grid-2w-ta021": grid_2w_ta021,
    "service-stream": service_stream,
    "sim-ta056": sim_ta056,
}
