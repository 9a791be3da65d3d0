"""Property tests for the PR 3 coordination hot-path machinery.

Three pieces get pinned down here, independently of any OS process:

* :class:`~repro.grid.runtime.bbprocess.AdaptiveSlicer` must converge
  toward its wall-clock period target under any (steady) throughput,
  re-converge after a throughput shift, and never move faster than its
  growth cap or outside its clamp range.
* :class:`~repro.grid.runtime.shared.SharedBound` must be a
  monotonic-min cell: under concurrent writer processes the stored
  value is always exactly the minimum of everything offered.
* The engine's ``bound_provider`` hook must tighten pruning mid-slice
  without ever changing the proved optimum.
"""

import math
import multiprocessing as mp
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Interval, solve
from repro.core.engine import IntervalExplorer
from repro.grid.runtime import AdaptiveSlicer, SharedBound
from repro.problems.flowshop import FlowShopProblem, random_instance


class TestAdaptiveSlicer:
    @given(
        rate=st.floats(1e2, 1e6),
        target=st.floats(0.05, 1.0),
        initial=st.integers(1, 10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_converges_to_period_target(self, rate, target, initial):
        """With steady throughput the slice settles at rate × target."""
        slicer = AdaptiveSlicer(
            initial, target_period=target, min_nodes=1, max_nodes=1 << 40
        )
        for _ in range(60):
            nodes = slicer.next_slice()
            slicer.observe(nodes, nodes / rate)
        period = slicer.next_slice() / rate
        # converged: the implied update period is within 10% of target
        # (int truncation costs at most one node = 1/rate seconds)
        assert abs(period - target) <= 0.1 * target + 1.0 / rate

    @given(
        rate=st.floats(1e3, 1e5),
        shift=st.floats(0.1, 10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_reconverges_after_throughput_shift(self, rate, shift):
        """A worker that speeds up or slows down re-finds the cadence."""
        target = 0.2
        slicer = AdaptiveSlicer(
            500, target_period=target, min_nodes=1, max_nodes=1 << 40
        )
        for _ in range(40):
            nodes = slicer.next_slice()
            slicer.observe(nodes, nodes / rate)
        new_rate = rate * shift
        for _ in range(60):
            nodes = slicer.next_slice()
            slicer.observe(nodes, nodes / new_rate)
        period = slicer.next_slice() / new_rate
        assert abs(period - target) <= 0.1 * target + 1.0 / new_rate

    @given(
        observations=st.lists(
            st.tuples(st.integers(1, 10_000), st.floats(1e-6, 10.0)),
            max_size=50,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_growth_cap_and_clamps_always_hold(self, observations):
        """No single observation moves the budget more than max_growth×."""
        slicer = AdaptiveSlicer(
            200, target_period=0.25, min_nodes=64, max_nodes=4096
        )
        for nodes, seconds in observations:
            before = slicer.next_slice()
            slicer.observe(nodes, seconds)
            after = slicer.next_slice()
            assert 64 <= after <= 4096
            assert after <= math.ceil(before * 2.0)
            assert after >= math.floor(before / 2.0)

    def test_no_target_means_fixed_slices(self):
        slicer = AdaptiveSlicer(300, target_period=None)
        for _ in range(10):
            slicer.observe(300, 1e-4)  # blazing fast: would grow if adaptive
        assert slicer.next_slice() == 300

    def test_fixed_mode_honors_sizes_below_min_nodes(self):
        # The [min_nodes, max_nodes] clamp only bounds adaptive steps;
        # a fixed-size slicer must run exactly the requested count, so
        # e.g. chaos configs with update_nodes=50 keep their fault
        # schedules keyed on update counts.
        slicer = AdaptiveSlicer(50, target_period=None, min_nodes=64)
        slicer.observe(50, 1e-4)
        assert slicer.next_slice() == 50

    def test_degenerate_observations_ignored(self):
        slicer = AdaptiveSlicer(200, target_period=0.25, min_nodes=64)
        slicer.observe(0, 1.0)
        slicer.observe(100, 0.0)
        assert slicer.next_slice() == 200
        assert slicer.rate is None


def _offer_many(bound, costs, barrier):
    barrier.wait()  # maximise real interleaving across writers
    for cost in costs:
        bound.offer(cost)


class TestSharedBound:
    def test_monotonic_min_under_concurrent_writers(self):
        ctx = mp.get_context("fork")
        bound = SharedBound(ctx=ctx)
        rng = random.Random(7)
        per_writer = [
            [rng.uniform(0.0, 1000.0) for _ in range(200)] for _ in range(4)
        ]
        barrier = ctx.Barrier(4)
        procs = [
            ctx.Process(target=_offer_many, args=(bound, costs, barrier))
            for costs in per_writer
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=30)
            assert p.exitcode == 0
        expected = min(min(costs) for costs in per_writer)
        assert bound.read() == expected

    @given(st.lists(st.floats(-1e9, 1e9), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_read_never_regresses(self, costs):
        bound = SharedBound()
        low = math.inf
        for cost in costs:
            improved = bound.offer(cost)
            assert improved == (cost < low)
            low = min(low, cost)
            assert bound.read() == (low if low < math.inf else math.inf)

    def test_initial_and_provider(self):
        bound = SharedBound(123.0)
        assert bound.as_provider()() == 123.0
        assert not bound.offer(123.0)  # ties do not rewrite
        assert bound.offer(122.0)


class TestEngineBoundProvider:
    def test_mid_slice_refresh_prunes_but_preserves_optimum(self):
        instance = random_instance(7, 3, seed=5)
        problem = FlowShopProblem(instance)
        baseline = solve(FlowShopProblem(instance))

        # An oracle bound that becomes available mid-exploration: the
        # provider serves the true optimum from the start.
        polls = {"count": 0}

        def provider():
            polls["count"] += 1
            return baseline.cost

        explorer = IntervalExplorer(
            FlowShopProblem(instance),
            Interval(0, problem.total_leaves()),
            bound_provider=provider,
            bound_poll_nodes=16,
        )
        explorer.run()
        assert polls["count"] > 0
        assert explorer.incumbent.cost == baseline.cost
        # pruning can only get tighter with the oracle bound installed
        assert (
            explorer.stats.nodes_explored <= baseline.stats.nodes_explored
        )

    @pytest.mark.parametrize("frontier", ["dfs", "wave"])
    def test_polled_every_bound_poll_nodes_processed_nodes(self, frontier):
        # Children pruned at push time count as processed nodes, so they
        # count towards the poll cadence too.  DFS polls once per
        # ``bound_poll_nodes`` processed nodes; a wave polls at most
        # once per wave, so it can only poll less often.
        polls = {"count": 0}

        def provider():
            polls["count"] += 1
            return math.inf

        explorer = IntervalExplorer(
            FlowShopProblem(random_instance(8, 4, seed=3)),
            bound_provider=provider,
            bound_poll_nodes=16,
            frontier=frontier,
        )
        processed = explorer.step(math.inf).nodes_processed
        assert processed == explorer.stats.nodes_explored
        expected = processed // 16
        if frontier == "dfs":
            assert abs(polls["count"] - expected) <= 1
        else:
            assert 0 < polls["count"] <= expected

    def test_provider_with_inf_changes_nothing(self):
        instance = random_instance(6, 3, seed=9)
        plain = solve(FlowShopProblem(instance))
        explorer = IntervalExplorer(
            FlowShopProblem(instance),
            bound_provider=lambda: math.inf,
            bound_poll_nodes=1,
        )
        explorer.run()
        assert explorer.incumbent.cost == plain.cost
        assert vars(explorer.stats) == vars(plain.stats)
