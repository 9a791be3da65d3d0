"""Integration tests of the full simulated grid (farmer + workers).

The heavy invariants live here: the simulated resolution must find the
true optimum *with proof* regardless of churn, crashes, duplication
and farmer failures — the paper's fault-tolerance claims (§4.1–§4.3).
"""

import math

import pytest

from repro.core import Interval, solve
from repro.grid.simulator import (
    AvailabilityModel,
    ClusterSpec,
    FarmerConfig,
    FarmerFailurePlan,
    GridSimulation,
    HostSpec,
    PlatformSpec,
    RealBBWorkload,
    SimulationConfig,
    SyntheticWorkload,
    WorkerConfig,
    small_platform,
)
from repro.problems.flowshop import FlowShopProblem, random_instance


def real_workload(jobs=7, machines=3, seed=21, nodes_per_second=2000):
    problem = FlowShopProblem(random_instance(jobs, machines, seed))
    return RealBBWorkload(problem, nodes_per_second=nodes_per_second), problem


def synthetic_config(**overrides):
    leaves = 10**8
    workers = overrides.pop("workers", 8)
    wl = SyntheticWorkload(
        leaves,
        seed=3,
        mean_leaf_rate=leaves / (workers * 2.0 * 600.0),
        irregularity=1.0,
        segments=128,
        nodes_per_second=1e4,
        optimum=3679.0,
        initial_gap=2.0,
    )
    defaults = dict(
        platform=small_platform(workers=workers, clusters=2),
        workload=wl,
        horizon=30 * 86400.0,
        seed=5,
        farmer=FarmerConfig(duplication_threshold=leaves // 10**4),
        worker=WorkerConfig(update_period=30.0),
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestRealBBGrid:
    def test_grid_finds_sequential_optimum(self):
        wl, problem = real_workload()
        expected = solve(problem).cost
        cfg = SimulationConfig(
            platform=small_platform(workers=4),
            workload=wl,
            horizon=10_000.0,
            always_on=True,
            worker=WorkerConfig(update_period=0.05),
        )
        report = GridSimulation(cfg).run()
        assert report.finished
        assert report.best_cost == expected

    def test_single_worker_grid_matches_sequential(self):
        wl, problem = real_workload(seed=31)
        expected = solve(problem)
        cfg = SimulationConfig(
            platform=small_platform(workers=1),
            workload=wl,
            horizon=100_000.0,
            always_on=True,
        )
        report = GridSimulation(cfg).run()
        assert report.finished
        assert report.best_cost == expected.cost

    def test_grid_with_churn_still_proves_optimum(self):
        wl, problem = real_workload(seed=41, nodes_per_second=0.02)
        expected = solve(problem).cost
        cfg = SimulationConfig(
            platform=small_platform(workers=6, dedicated=False),
            workload=wl,
            horizon=120 * 86400.0,
            seed=11,
            availability=AvailabilityModel(
                mean_up=900.0, mean_down=300.0, diurnal_amplitude=0.0
            ),
            farmer=FarmerConfig(
                duplication_threshold=60, checkpoint_period=600.0
            ),
            worker=WorkerConfig(update_period=10.0),
        )
        report = GridSimulation(cfg).run()
        assert report.finished
        assert report.best_cost == expected
        assert report.worker_crashes > 0  # churn actually happened

    def test_leaf_coverage_complete(self):
        # Every leaf number is consumed at least once.
        wl, problem = real_workload(seed=51)
        cfg = SimulationConfig(
            platform=small_platform(workers=3),
            workload=wl,
            horizon=10_000.0,
            always_on=True,
            worker=WorkerConfig(update_period=0.1),
        )
        sim = GridSimulation(cfg)
        report = sim.run()
        assert report.finished
        assert sim.metrics.leaves_consumed >= problem.total_leaves()


class TestSyntheticGrid:
    def test_terminates_and_finds_planted_optimum(self):
        report = GridSimulation(synthetic_config()).run()
        assert report.finished
        assert report.best_cost == 3679.0

    def test_worker_exploitation_dominates_farmer(self):
        # The paper's headline ratio: 97 % vs 1.7 %.
        report = GridSimulation(synthetic_config()).run()
        t2 = report.table2
        assert t2.worker_exploitation > 0.5
        assert t2.coordinator_exploitation < 0.2
        assert t2.worker_exploitation > 5 * t2.coordinator_exploitation

    def test_checkpoints_outnumber_allocations(self):
        # Table 2: 4.09 M checkpoint ops vs 130 k allocations.
        report = GridSimulation(synthetic_config()).run()
        t2 = report.table2
        assert t2.checkpoint_operations > t2.work_allocations

    def test_redundancy_low_with_sane_threshold(self):
        report = GridSimulation(synthetic_config()).run()
        assert report.table2.redundant_node_rate < 0.05

    def test_deterministic_given_seed(self):
        a = GridSimulation(synthetic_config()).run()
        b = GridSimulation(synthetic_config()).run()
        assert a.wall_clock == b.wall_clock
        assert a.table2.checkpoint_operations == b.table2.checkpoint_operations
        assert a.messages == b.messages

    def test_more_workers_finish_faster(self):
        few = GridSimulation(synthetic_config(workers=4)).run()
        many = GridSimulation(synthetic_config(workers=16)).run()
        assert many.finished and few.finished
        assert many.wall_clock < few.wall_clock

    def test_availability_series_tracks_workers(self):
        report = GridSimulation(synthetic_config(workers=8)).run()
        counts = [n for _, n in report.series]
        assert max(counts) <= 8
        assert max(counts) >= 1

    def test_run_stopped_mid_slice_charges_only_elapsed_busy_time(self):
        # The slow worker duplicates the fast one's interval and is
        # still inside its one long slice (20x the run) when the fast
        # worker's last update ends the run: only the part up to the
        # stop is busy time, so no worker is busier than available.
        hosts = [
            HostSpec("c/fast", "c", 10.0, True),
            HostSpec("c/slow", "c", 0.5, True),
        ]
        sim = GridSimulation(synthetic_config(
            platform=PlatformSpec(clusters=[ClusterSpec("c", "test", hosts)]),
            farmer=FarmerConfig(duplication_threshold=10**8 + 1),
            worker=WorkerConfig(update_period=1e6),
        ))
        report = sim.run()
        assert report.finished
        metrics = sim.metrics
        assert set(metrics.worker_busy) == {"c/fast", "c/slow"}
        for worker, busy in metrics.worker_busy.items():
            assert 0 < busy <= metrics.worker_available[worker]
        assert 0.99 < report.table2.worker_exploitation <= 1.0


class TestFarmerFailure:
    def test_recovery_from_checkpoint_preserves_completion(self):
        wl, problem = real_workload(seed=61, nodes_per_second=0.5)
        expected = solve(problem).cost
        cfg = SimulationConfig(
            platform=small_platform(workers=4),
            workload=wl,
            horizon=50 * 86400.0,
            always_on=True,
            farmer=FarmerConfig(
                checkpoint_period=5.0, duplication_threshold=60
            ),
            worker=WorkerConfig(update_period=1.0),
            farmer_failures=FarmerFailurePlan([(20.0, 10.0), (60.0, 5.0)]),
        )
        report = GridSimulation(cfg).run()
        assert report.finished
        assert report.farmer_recoveries == 2
        assert report.best_cost == expected

    def test_messages_dropped_while_down(self):
        wl, _ = real_workload(seed=71, nodes_per_second=0.5)
        cfg = SimulationConfig(
            platform=small_platform(workers=4),
            workload=wl,
            horizon=50 * 86400.0,
            always_on=True,
            farmer=FarmerConfig(checkpoint_period=5.0, duplication_threshold=60),
            worker=WorkerConfig(update_period=1.0),
            farmer_failures=FarmerFailurePlan([(10.0, 30.0)]),
        )
        sim = GridSimulation(cfg)
        report = sim.run()
        assert report.finished
        assert sim.farmer.messages_dropped > 0


class TestDeathPaths:
    def test_orphan_interval_reassigned_via_duplication(self):
        # A worker that dies mid-interval never reports again; with a
        # duplication threshold the survivors steal shrinking slices
        # until the orphan is duplicated and finished — no timeout
        # needed (the paper's design).
        wl, problem = real_workload(seed=81, nodes_per_second=0.01)
        expected = solve(problem).cost
        cfg = SimulationConfig(
            platform=small_platform(workers=3, dedicated=False),
            workload=wl,
            horizon=400 * 86400.0,
            seed=13,
            availability=AvailabilityModel(
                mean_up=1800.0, mean_down=1200.0, diurnal_amplitude=0.0
            ),
            farmer=FarmerConfig(duplication_threshold=120),
            worker=WorkerConfig(update_period=5.0),
        )
        report = GridSimulation(cfg).run()
        assert report.finished
        assert report.best_cost == expected

    def test_death_timeout_also_recovers_orphans(self):
        wl, problem = real_workload(seed=91, nodes_per_second=0.01)
        expected = solve(problem).cost
        cfg = SimulationConfig(
            platform=small_platform(workers=3, dedicated=False),
            workload=wl,
            horizon=400 * 86400.0,
            seed=17,
            availability=AvailabilityModel(
                mean_up=1800.0, mean_down=1200.0, diurnal_amplitude=0.0
            ),
            farmer=FarmerConfig(
                duplication_threshold=1,  # duplication disabled in effect
                death_timeout=120.0,
                checkpoint_period=60.0,
            ),
            worker=WorkerConfig(update_period=5.0),
        )
        report = GridSimulation(cfg).run()
        assert report.finished
        assert report.best_cost == expected
