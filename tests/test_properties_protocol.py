"""Property-based tests of the coordinator protocol and flow-shop kernels.

The INTERVALS invariants under arbitrary operation sequences (no work
lost, sizes monotone) and the algorithmic substrates (Johnson
optimality, makespan laws, bound admissibility) quantified over random
inputs.
"""

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Interval, IntervalSet
from repro.core.operators import partition_point, select_for_request
from repro.problems.flowshop import (
    BoundData,
    FlowShopInstance,
    completion_front,
    johnson_makespan,
    makespan,
    neh,
    partial_makespan,
)

# ----------------------------------------------------------------------
# INTERVALS invariants under random operation sequences
# ----------------------------------------------------------------------
ops = st.lists(
    st.one_of(
        st.tuples(st.just("assign"), st.integers(0, 4)),
        st.tuples(st.just("advance"), st.integers(0, 4), st.integers(0, 100)),
        st.tuples(st.just("release"), st.integers(0, 4)),
    ),
    max_size=30,
)


class TestIntervalSetProperties:
    @given(ops, st.integers(0, 50))
    @settings(max_examples=60)
    def test_no_work_lost_and_size_monotone(self, operations, threshold):
        total = 1000
        s = IntervalSet.initial(Interval(0, total), threshold)
        consumed = {f"w{k}": None for k in range(5)}  # worker -> interval
        sizes = [s.size]

        for op in operations:
            worker = f"w{op[1]}"
            if op[0] == "assign":
                if consumed[worker] is None:
                    a = s.assign(worker)
                    if a is not None:
                        consumed[worker] = a.interval
            elif op[0] == "advance":
                iv = consumed[worker]
                if iv is not None and not iv.is_empty():
                    step = op[2] % (iv.length + 1)
                    reported = Interval(iv.begin + step, iv.end)
                    merged = s.update(worker, reported)
                    consumed[worker] = None if merged.is_empty() else merged
            elif op[0] == "release":
                s.release(worker)
                consumed[worker] = None
            sizes.append(s.size)

        # size never grows
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        # every unexplored number is still covered by INTERVALS: the
        # union of interval lengths must be at least the coordinator
        # size (duplicates collapse), and the coordinator never claims
        # more work than the root range
        assert s.covered_union_length() <= total
        assert s.size >= s.covered_union_length()

    @given(st.integers(1, 6), st.integers(0, 200))
    @settings(max_examples=40)
    def test_full_consumption_terminates(self, workers, threshold):
        total = 500
        s = IntervalSet.initial(Interval(0, total), threshold)
        # round-robin: each worker takes work and finishes it entirely
        guard = 0
        while not s.is_empty():
            guard += 1
            assert guard < 200, "termination must be reached"
            for k in range(workers):
                a = s.assign(f"w{k}")
                if a is None:
                    break
                s.update(f"w{k}", Interval(a.interval.end, a.interval.end))
        assert s.size == 0


# ----------------------------------------------------------------------
# the INTERVALS index against a linear scan
# ----------------------------------------------------------------------
POWERS = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 7.0)
WORKERS = 6

index_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("assign"), st.integers(0, WORKERS - 1), st.sampled_from(POWERS)
        ),
        st.tuples(st.just("update"), st.integers(0, WORKERS - 1), st.integers(0, 8)),
        st.tuples(st.just("release"), st.integers(0, WORKERS - 1)),
        st.tuples(st.just("subtract"), st.integers(0, 63), st.integers(1, 16)),
        st.tuples(st.just("recover")),
    ),
    max_size=60,
)


def union_length(intervals):
    total, end = 0, None
    for iv in sorted(iv for iv in intervals if not iv.is_empty()):
        if end is None or iv.begin > end:
            total += iv.length
            end = iv.end
        elif iv.end > end:
            total += iv.end - end
            end = iv.end
    return total


class TestIntervalIndexAgainstScan:
    @given(
        index_ops,
        st.sampled_from((64, 1000, 10**6, math.factorial(50))),
        st.sampled_from((0, 1, 50, 10**5)),
    )
    @settings(max_examples=200, deadline=None)
    def test_indexed_state_matches_linear_scan(self, operations, total, threshold):
        s = IntervalSet.initial(Interval(0, total), threshold)
        powers = {}  # what the set must remember: worker -> power
        views = {}  # each worker's own idea of its interval
        explored = []

        for op in operations:
            covered = s.covered_union_length()
            if op[0] == "assign":
                worker, power = f"w{op[1]}", op[2]
                # the oracle sees the state after the requester's release
                powers.pop(worker, None)
                candidates = []
                for rid, rec in sorted(s.records().items()):
                    holders = rec.owners - {worker}
                    hp = math.fsum(powers.get(w, 1.0) for w in holders)
                    candidates.append((rid, rec.interval, hp))
                best = select_for_request(candidates, power)
                a = s.assign(worker, power)
                powers[worker] = power
                if best is None:
                    assert a is None
                    continue
                _, iv, hp = next(c for c in candidates if c[0] == best)
                expected = iv
                if hp > 0 and iv.length >= threshold:
                    point = partition_point(iv, hp, power)
                    if point < iv.end:
                        expected = Interval(point, iv.end)
                assert a.interval == expected
                views[worker] = a.interval
                assert s.covered_union_length() == covered
            elif op[0] == "update":
                worker = f"w{op[1]}"
                view = views.get(worker)
                if view is None:
                    continue
                reported = Interval(view.begin + view.length * op[2] // 8, view.end)
                rid = s.record_for_worker(worker)
                if rid is not None:
                    owned = s.interval_of(rid)
                    cut = min(max(reported.begin, owned.begin), owned.end)
                    explored.append(Interval(owned.begin, cut))
                merged = s.update(worker, reported)
                views[worker] = None if merged.is_empty() else merged
            elif op[0] == "release":
                worker = f"w{op[1]}"
                s.release(worker)
                powers.pop(worker, None)
                views[worker] = None
                assert s.covered_union_length() == covered
            elif op[0] == "subtract":
                begin = total * op[1] // 64
                done = Interval(begin, min(total, begin + total * op[2] // 64))
                s.subtract(done)
                explored.append(done)
            else:  # farmer recovery: ownership and powers are lost
                s = IntervalSet.from_payload(s.to_payload(), threshold)
                powers.clear()

            records = s.records()
            for k in range(WORKERS):
                worker = f"w{k}"
                owned = [rid for rid, rec in records.items() if worker in rec.owners]
                assert s.record_for_worker(worker) == (min(owned) if owned else None)
            assert s.owners() == set().union(*(r.owners for r in records.values()))
            # no lost work: every number is explored or still covered
            live = [rec.interval for rec in records.values()]
            assert union_length(live + explored) == total


# ----------------------------------------------------------------------
# flow-shop kernels
# ----------------------------------------------------------------------
@st.composite
def instances(draw, max_jobs=6, max_machines=4):
    jobs = draw(st.integers(2, max_jobs))
    machines = draw(st.integers(1, max_machines))
    times = draw(
        st.lists(
            st.lists(st.integers(1, 50), min_size=machines, max_size=machines),
            min_size=jobs,
            max_size=jobs,
        )
    )
    return FlowShopInstance(times)


@st.composite
def instance_and_permutation(draw):
    inst = draw(instances())
    perm = draw(st.permutations(range(inst.jobs)))
    return inst, list(perm)


class TestMakespanProperties:
    @given(instance_and_permutation())
    def test_makespan_at_least_every_machine_load(self, case):
        inst, perm = case
        value = makespan(inst, perm)
        assert value >= int(inst.machine_totals().max())
        assert value >= int(inst.job_totals().max())

    @given(instance_and_permutation())
    def test_single_machine_makespan_is_total(self, case):
        inst, perm = case
        one = FlowShopInstance(inst.processing_times[:, :1])
        assert makespan(one, perm) == int(one.processing_times.sum())

    @given(instance_and_permutation())
    def test_prefix_monotonicity(self, case):
        inst, perm = case
        values = [partial_makespan(inst, perm[:k]) for k in range(len(perm) + 1)]
        assert values == sorted(values)

    @given(instance_and_permutation())
    def test_front_is_nondecreasing_across_machines(self, case):
        inst, perm = case
        front = completion_front(inst, perm)
        assert all(front[j] <= front[j + 1] for j in range(len(front) - 1))

    @given(instances())
    def test_neh_within_search_space(self, inst):
        seq, value = neh(inst)
        assert sorted(seq) == list(range(inst.jobs))
        assert value == makespan(inst, seq)


class TestJohnsonProperties:
    @given(
        st.lists(st.integers(1, 30), min_size=2, max_size=6),
        st.data(),
    )
    def test_johnson_beats_every_permutation(self, a, data):
        b = data.draw(
            st.lists(st.integers(1, 30), min_size=len(a), max_size=len(a))
        )
        best, order = johnson_makespan(a, b)
        inst = FlowShopInstance(list(zip(a, b)))
        for perm in itertools.permutations(range(len(a))):
            assert best <= makespan(inst, list(perm))


class TestBoundProperties:
    @given(instances(max_jobs=5, max_machines=3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_bounds_admissible_at_random_nodes(self, inst, data):
        data_bound = BoundData(inst, pair_strategy="all")
        prefix_len = data.draw(st.integers(0, inst.jobs - 1))
        prefix = data.draw(
            st.permutations(range(inst.jobs))
        )[:prefix_len]
        rest = [j for j in range(inst.jobs) if j not in prefix]
        best_completion = min(
            makespan(inst, list(prefix) + list(tail))
            for tail in itertools.permutations(rest)
        )
        front = completion_front(inst, prefix)
        remaining = np.array(rest, dtype=np.intp)
        assert data_bound.one_machine(front, remaining) <= best_completion
        assert data_bound.two_machine(front, remaining) <= best_completion
        assert data_bound.combined(front, remaining) <= best_completion
