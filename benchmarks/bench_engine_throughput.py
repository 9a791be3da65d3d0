"""Engine throughput — frontier strategies and pool-kernel backends.

The engine bounds children through one route: a pluggable bound-kernel
backend (``repro.core.kernels``) that bounds the children of a whole
*pool* of same-depth frontier entries per call and prunes before
pushing; ``kernel_backend="off"`` bounds every node with a scalar
``lower_bound`` call instead (the reference path).  The
``frontier="wave"`` exploration order accumulates up to ``pool_size``
same-depth nodes per kernel call instead of scavenging whatever a thin
DFS stack happens to hold.

This benchmark solves 20-job flow-shop instances with every available
path — scalar (``kernel_backend="off"``), per-family batched (the numpy
backend at ``pool_size=1``: the 2-D ``*_children`` kernels, one family
per call), pooled-DFS numpy, wave-frontier numpy, and (when installed)
the numba variants of both —
asserts that the DFS paths agree **exactly** (same optimum,
byte-identical ``ExplorationStats``) and that wave mode reaches the
identical optimum with the identical proof (node counts legitimately
differ: waves see incumbents at different moments), and records
nodes/sec per backend plus the pool-occupancy histogram of every wave
run into ``BENCH_PR8.json`` at the repo root.  Backends whose optional
dependency is missing are recorded as unavailable with the reason
instead of being silently skipped.

End-to-end DFS throughput understates what pooling buys: on a strongly
pruned tree the live frontier per depth is only a handful of entries,
so pool calls stay small (median occupancy ~2 at pool_size=64).  The
wave sweep shows what filling the pool is worth end-to-end; the
``kernel_pools`` section additionally measures the kernels in
isolation — families/sec of one pooled evaluation over N parents vs N
per-family calls — which is the regime grid-scale frontiers (and the
numba backend) actually run in.

Run it via ``make bench-engine`` (``QUICK=1`` for the smoke scale) or
directly::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py
    PYTHONPATH=src python benchmarks/bench_engine_throughput.py --quick

The tier-1 smoke test (``tests/test_bench_engine_throughput.py``) runs
the ``--quick`` configuration on every test run so the fast paths
cannot silently rot.

Configuration notes
-------------------
* The full-tree configurations use a Taillard-distribution 20x5
  instance that is exhaustively solvable in under a second (most
  20-job instances are not; NEH warm-starts the incumbent).
* The 20x20 configurations solve a leading *interval* of Ta021
  (``solve(..., interval=...)`` — the paper's work unit) because the
  full tree is out of reach sequentially; the slice is a complete B&B
  proof over its subtrees.
* ``pair_strategy="all"`` evaluates every O(M^2) machine pair in LB2.
  The scalar path pays the full per-node sweep, the batched kernel
  bounds one family per call, the pool kernels bound many — this is
  the configuration where kernel amortisation matters most.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import Interval, solve  # noqa: E402
from repro.core.kernels import get_backend  # noqa: E402
from repro.problems.flowshop import (  # noqa: E402
    FlowShopProblem,
    neh,
    random_instance,
    taillard_instance,
)
from repro.problems.flowshop.bounds import BoundData  # noqa: E402
from repro.problems.flowshop.makespan import (  # noqa: E402
    advance_fronts_batch,
    completion_front,
)

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_PR8.json"
BASELINE = REPO_ROOT / "BENCH_PR2.json"
PR7_BASELINE = REPO_ROOT / "BENCH_PR7.json"

# Optional-dependency backends: timed when importable, recorded as
# unavailable (with the reason) when not — forcing them anyway would
# just measure the numpy fallback under a misleading label.
OPTIONAL_BACKENDS = ("numba",)


def _configs(quick: bool) -> List[Dict[str, Any]]:
    """Benchmark configurations: each is one ``solve()`` call."""
    if quick:
        small = random_instance(8, 4, seed=8)
        slice_inst = random_instance(10, 5, seed=2)
        return [
            dict(
                name="quick-8x4-full",
                instance=small,
                pair_strategy="adjacent+ends",
                warm_start=True,
                interval_denominator=None,
            ),
            dict(
                name="quick-10x5-slice",
                instance=slice_inst,
                pair_strategy="all",
                warm_start=False,
                interval_denominator=10**2,
            ),
        ]
    full = random_instance(20, 5, seed=1)
    ta021 = taillard_instance(20, 20, 1)
    return [
        dict(
            name="ta-class-20x5-full",
            instance=full,
            pair_strategy="adjacent+ends",
            warm_start=True,
            interval_denominator=None,
        ),
        dict(
            name="ta-class-20x5-full-allpairs",
            instance=full,
            pair_strategy="all",
            warm_start=True,
            interval_denominator=None,
        ),
        dict(
            name="ta021-20x20-slice",
            instance=ta021,
            pair_strategy="adjacent+ends",
            warm_start=False,
            interval_denominator=10**12,
        ),
        dict(
            name="ta021-20x20-slice-allpairs",
            instance=ta021,
            pair_strategy="all",
            warm_start=False,
            interval_denominator=10**12,
        ),
    ]


def _run_one(config: Dict[str, Any], repeats: int, **solve_kwargs):
    """Best-of-``repeats`` timing of one solve; returns (seconds, result)."""
    instance = config["instance"]
    upper = math.inf
    if config["warm_start"]:
        _, upper = neh(instance)
    interval = None
    if config["interval_denominator"] is not None:
        total = math.factorial(instance.jobs)
        interval = Interval(0, total // config["interval_denominator"])
    best = math.inf
    result = None
    for _ in range(repeats):
        problem = FlowShopProblem(
            instance, pair_strategy=config["pair_strategy"]
        )
        start = time.perf_counter()
        result = solve(
            problem,
            interval=interval,
            initial_upper_bound=upper,
            **solve_kwargs,
        )
        best = min(best, time.perf_counter() - start)
    return best, result


def _rates(stats, seconds: float) -> Dict[str, Any]:
    return {
        "seconds": round(seconds, 4),
        "nodes_per_sec": round(stats.nodes_explored / seconds),
        "bound_evals_per_sec": round(stats.bound_evaluations / seconds),
    }


def _assert_identical(name: str, label: str, reference, candidate) -> None:
    """The paths must be *indistinguishable* except for speed."""
    if candidate.cost != reference.cost:
        raise AssertionError(
            f"{name}: {label} optimum differs "
            f"({candidate.cost} vs {reference.cost})"
        )
    if candidate.solution != reference.solution:
        raise AssertionError(f"{name}: {label} solution differs")
    if vars(candidate.stats) != vars(reference.stats):
        raise AssertionError(
            f"{name}: {label} node accounting differs\n"
            f"  {label}: {vars(candidate.stats)}\n"
            f"  scalar: {vars(reference.stats)}"
        )


def _assert_same_optimum(name: str, label: str, reference, candidate) -> None:
    """Wave mode's contract: identical optimum, solution, and proof.

    Node accounting is *expected* to differ — a wave bounds whole
    same-depth batches before any of their children can improve the
    incumbent, so prune tests fire at different moments than in DFS —
    which is why this deliberately does not compare ``stats``.
    """
    if candidate.cost != reference.cost:
        raise AssertionError(
            f"{name}: {label} optimum differs "
            f"({candidate.cost} vs {reference.cost})"
        )
    if candidate.solution != reference.solution:
        raise AssertionError(f"{name}: {label} solution differs")
    if candidate.optimal != reference.optimal:
        raise AssertionError(
            f"{name}: {label} proof status differs "
            f"({candidate.optimal} vs {reference.optimal})"
        )


def _occupancy_summary(occupancy: Dict[int, int]) -> Dict[str, Any]:
    """Histogram of pool-call occupancy -> median/mean/total summary."""
    total_calls = sum(occupancy.values())
    if total_calls == 0:
        return {
            "pool_calls": 0,
            "occupancy_median": 0,
            "occupancy_mean": 0.0,
            "occupancy_max": 0,
            "histogram": {},
        }
    parents = sum(size * count for size, count in occupancy.items())
    median = 0
    seen = 0
    for size in sorted(occupancy):
        seen += occupancy[size]
        if seen * 2 >= total_calls:
            median = size
            break
    return {
        "pool_calls": total_calls,
        "occupancy_median": median,
        "occupancy_mean": round(parents / total_calls, 1),
        "occupancy_max": max(occupancy),
        "histogram": {
            str(size): occupancy[size] for size in sorted(occupancy)
        },
    }


def _pr7_pooled_rates() -> Dict[str, int]:
    """PR 7's recorded pooled-numpy nodes/sec per config name, if present."""
    if not PR7_BASELINE.exists():
        return {}
    try:
        data = json.loads(PR7_BASELINE.read_text())
        return {
            rec["name"]: rec["backends"]["numpy"]["nodes_per_sec"]
            for rec in data.get("configs", [])
        }
    except (ValueError, KeyError):
        return {}


def _baseline_batched_rates() -> Dict[str, int]:
    """PR 2's recorded batched nodes/sec per config name, if present."""
    if not BASELINE.exists():
        return {}
    try:
        data = json.loads(BASELINE.read_text())
        return {
            rec["name"]: rec["batched"]["nodes_per_sec"]
            for rec in data.get("configs", [])
        }
    except (ValueError, KeyError):
        return {}


def _pool_parents(instance, depth: int, count: int, seed: int):
    """``count`` distinct same-depth parents (remaining, child fronts)."""
    rng = np.random.default_rng(seed)
    jobs = instance.jobs
    p = instance.processing_times
    seen = set()
    remaining_rows = []
    fronts_rows = []
    while len(remaining_rows) < count:
        prefix = tuple(int(x) for x in rng.permutation(jobs)[:depth])
        if prefix in seen:
            continue
        seen.add(prefix)
        remaining = np.array(
            sorted(set(range(jobs)) - set(prefix)), dtype=np.intp
        )
        front = completion_front(instance, list(prefix))
        fronts_rows.append(advance_fronts_batch(front, p[remaining]))
        remaining_rows.append(remaining)
    return np.stack(remaining_rows), np.stack(fronts_rows)


def kernel_pool_benchmark(
    quick: bool, repeats: int, pool_sizes=(1, 8, 64, 256)
) -> List[Dict[str, Any]]:
    """Pool-kernel throughput in isolation: one pooled evaluation over N
    same-depth parents vs N per-family ``combined_children`` calls.

    This is the kernel-amortisation curve the engine's end-to-end DFS
    numbers flatten out of view: a thin frontier keeps engine pools
    small, but wide frontiers (grid workers, GPU-scale pools) run the
    kernels exactly like this.  Both pair strategies are swept because
    they sit in different regimes: at P <= 20 pairs the per-call fixed
    overhead dominates and pooling amortises it away; at O(M^2) pairs
    the kernels are memory-bound and pooling is a wash — the regime
    the compiled (numba) backend exists for.
    """
    if quick:
        instance = random_instance(10, 5, seed=2)
        depth = 3
        strategies = ("all",)
        pool_sizes = tuple(n for n in pool_sizes if n <= 64)
    else:
        instance = taillard_instance(20, 20, 1)
        depth = 5
        strategies = ("adjacent+ends", "all")
    records = []
    for strategy in strategies:
        data = BoundData(instance, strategy)
        for n_pool in pool_sizes:
            remaining, fronts = _pool_parents(
                instance, depth, n_pool, seed=n_pool
            )
            pooled_out = data.combined_children_pool(fronts, remaining)
            per_family = np.stack(
                [
                    data.combined_children(fronts[i], remaining[i])
                    for i in range(n_pool)
                ]
            )
            if not (pooled_out == per_family).all():
                raise AssertionError(
                    f"kernel pool N={n_pool}: pooled != per-family bounds"
                )
            pooled_s = math.inf
            family_s = math.inf
            for _ in range(max(repeats, 3)):
                start = time.perf_counter()
                data.combined_children_pool(fronts, remaining)
                pooled_s = min(pooled_s, time.perf_counter() - start)
                start = time.perf_counter()
                for i in range(n_pool):
                    data.combined_children(fronts[i], remaining[i])
                family_s = min(family_s, time.perf_counter() - start)
            records.append(
                {
                    "pair_strategy": strategy,
                    "pool_size": n_pool,
                    "identical_bounds": True,
                    "pooled_families_per_sec": round(n_pool / pooled_s),
                    "per_family_families_per_sec": round(n_pool / family_s),
                    "pool_speedup": round(family_s / pooled_s, 2),
                }
            )
    return records


def run_benchmark(quick: bool = False, repeats: int = 3) -> Dict[str, Any]:
    """Run every configuration on every path; verify exact agreement."""
    baseline = _baseline_batched_rates()
    pr7_pooled = _pr7_pooled_rates()
    optional_status: Dict[str, Dict[str, Any]] = {}
    for name in OPTIONAL_BACKENDS:
        backend = get_backend(name)
        optional_status[name] = {
            "available": backend.available(),
            "reason": backend.unavailable_reason(),
        }

    records = []
    for config in _configs(quick):
        scalar_s, scalar_r = _run_one(config, repeats, kernel_backend="off")
        batched_s, batched_r = _run_one(
            config, repeats, kernel_backend="numpy", pool_size=1
        )
        pooled_s, pooled_r = _run_one(config, repeats, kernel_backend="numpy")
        _assert_identical(config["name"], "batched", scalar_r, batched_r)
        _assert_identical(config["name"], "pooled-numpy", scalar_r, pooled_r)

        backends: Dict[str, Any] = {
            "numpy": dict(_rates(pooled_r.stats, pooled_s), identical_stats=True)
        }
        for name in OPTIONAL_BACKENDS:
            status = optional_status[name]
            if not status["available"]:
                backends[name] = {
                    "available": False,
                    "reason": status["reason"],
                }
                continue
            opt_s, opt_r = _run_one(config, repeats, kernel_backend=name)
            _assert_identical(config["name"], f"pooled-{name}", scalar_r, opt_r)
            backends[name] = dict(
                _rates(opt_r.stats, opt_s), identical_stats=True
            )

        # Wave-frontier sweep: same backends, frontier="wave".  The
        # optimum/proof must match the scalar oracle bit-for-bit; node
        # counts may not, so each wave record carries its own counts
        # and the occupancy histogram that is the point of the mode.
        wave_backends: Dict[str, Any] = {}
        for name in ("numpy",) + OPTIONAL_BACKENDS:
            if name != "numpy" and not optional_status[name]["available"]:
                wave_backends[name] = {
                    "available": False,
                    "reason": optional_status[name]["reason"],
                }
                continue
            wave_s, wave_r = _run_one(
                config, repeats, kernel_backend=name, frontier="wave"
            )
            _assert_same_optimum(
                config["name"], f"wave-{name}", scalar_r, wave_r
            )
            dfs_rate = backends[name]["nodes_per_sec"]
            dfs_seconds = backends[name]["seconds"]
            wave_backends[name] = dict(
                _rates(wave_r.stats, wave_s),
                identical_optimum=True,
                nodes_explored=wave_r.stats.nodes_explored,
                frontier_spills=wave_r.frontier_spills,
                speedup_vs_pooled_dfs=round(
                    (wave_r.stats.nodes_explored / wave_s) / dfs_rate, 2
                ),
                wall_speedup_vs_pooled_dfs=round(dfs_seconds / wave_s, 2),
                **_occupancy_summary(wave_r.pool_occupancy),
            )

        stats = scalar_r.stats
        instance = config["instance"]
        record = {
            "name": config["name"],
            "jobs": instance.jobs,
            "machines": instance.machines,
            "pair_strategy": config["pair_strategy"],
            "warm_start": config["warm_start"],
            "interval_denominator": config["interval_denominator"],
            "cost": int(scalar_r.cost),
            "nodes_explored": stats.nodes_explored,
            "nodes_pruned": stats.nodes_pruned,
            "nodes_decomposed": stats.nodes_decomposed,
            "bound_evaluations": stats.bound_evaluations,
            "identical_stats": True,
            "scalar": _rates(stats, scalar_s),
            "batched": _rates(stats, batched_s),
            "backends": backends,
            "wave": wave_backends,
            "speedup": round(scalar_s / batched_s, 2),
            "pooled_speedup_vs_scalar": round(scalar_s / pooled_s, 2),
            "pooled_speedup_vs_batched": round(batched_s / pooled_s, 2),
        }
        base_rate = baseline.get(config["name"])
        if base_rate:
            record["pr2_batched_nodes_per_sec"] = base_rate
            record["pooled_vs_pr2_batched"] = round(
                backends["numpy"]["nodes_per_sec"] / base_rate, 2
            )
        pr7_rate = pr7_pooled.get(config["name"])
        if pr7_rate:
            record["pr7_pooled_nodes_per_sec"] = pr7_rate
            record["wave_vs_pr7_pooled"] = round(
                wave_backends["numpy"]["nodes_per_sec"] / pr7_rate, 2
            )
        records.append(record)

    headline = max(
        records,
        key=lambda rec: rec["wave"]["numpy"]["speedup_vs_pooled_dfs"],
    )
    wave_head = headline["wave"]["numpy"]
    return {
        "pr": 8,
        "benchmark": (
            "engine throughput: wave vs dfs frontiers over "
            "pool-evaluation kernel backends"
        ),
        "command": "make bench-engine",
        "quick": quick,
        "repeats": repeats,
        "optional_backends": optional_status,
        "headline": {
            "config": headline["name"],
            "wave_speedup_vs_pooled_dfs": wave_head["speedup_vs_pooled_dfs"],
            "wave_wall_speedup_vs_pooled_dfs": (
                wave_head["wall_speedup_vs_pooled_dfs"]
            ),
            "wave_occupancy_median": wave_head["occupancy_median"],
            "wave_nodes_per_sec": wave_head["nodes_per_sec"],
            "pooled_dfs_nodes_per_sec": (
                headline["backends"]["numpy"]["nodes_per_sec"]
            ),
            "pooled_speedup_vs_scalar": headline["pooled_speedup_vs_scalar"],
            "scalar_nodes_per_sec": headline["scalar"]["nodes_per_sec"],
        },
        "configs": records,
        "kernel_pools": kernel_pool_benchmark(quick, repeats),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny instances, one repeat (the tier-1 smoke configuration)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="timing repeats per path"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help=f"result file (default {DEFAULT_OUTPUT}; quick mode: stdout only)",
    )
    args = parser.parse_args(argv)

    repeats = args.repeats or (1 if args.quick else 3)
    report = run_benchmark(quick=args.quick, repeats=repeats)

    for rec in report["configs"]:
        pooled = rec["backends"]["numpy"]["nodes_per_sec"]
        print(
            f"{rec['name']:<30} {rec['nodes_explored']:>7} nodes  "
            f"scalar {rec['scalar']['nodes_per_sec']:>7} n/s  "
            f"batched {rec['batched']['nodes_per_sec']:>7} n/s  "
            f"pooled {pooled:>7} n/s  "
            f"pooled-vs-scalar {rec['pooled_speedup_vs_scalar']:>6.2f}x"
        )
        for name, wave in rec["wave"].items():
            if not wave.get("identical_optimum"):
                continue
            print(
                f"{rec['name']:<30} wave-{name:<6} "
                f"{wave['nodes_explored']:>7} nodes  "
                f"{wave['nodes_per_sec']:>7} n/s  "
                f"occupancy median {wave['occupancy_median']:>3} "
                f"({wave['pool_calls']} pool calls)  "
                f"vs pooled-dfs {wave['speedup_vs_pooled_dfs']:>6.2f}x"
            )
    for rec in report["kernel_pools"]:
        print(
            f"kernel pool [{rec['pair_strategy']}] N={rec['pool_size']:<4} "
            f"per-family {rec['per_family_families_per_sec']:>7} fam/s  "
            f"pooled {rec['pooled_families_per_sec']:>7} fam/s  "
            f"speedup {rec['pool_speedup']:>6.2f}x"
        )
    for name, status in report["optional_backends"].items():
        if not status["available"]:
            print(f"backend {name}: unavailable ({status['reason']})")
    print(
        f"headline: {report['headline']['config']} "
        f"wave {report['headline']['wave_speedup_vs_pooled_dfs']:.2f}x "
        f"vs pooled dfs (occupancy median "
        f"{report['headline']['wave_occupancy_median']}), "
        f"pooled {report['headline']['pooled_speedup_vs_scalar']:.2f}x "
        f"vs scalar"
    )

    output = args.output
    if output is None and not args.quick:
        output = DEFAULT_OUTPUT
    if output is not None:
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
