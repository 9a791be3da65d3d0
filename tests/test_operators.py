"""Tests for the partitioning and selection policy functions (§4.2)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import Interval
from repro.core.operators import (
    partition_point,
    requester_share_length,
    select_for_request,
)


class TestPartitionPoint:
    def test_equal_powers_split_in_half(self):
        assert partition_point(Interval(0, 100), 1.0, 1.0) == 50

    def test_null_holder_gives_begin(self):
        # "a virtual process which has a null power ... C equals A"
        assert partition_point(Interval(40, 100), 0.0, 1.0) == 40

    def test_both_null_gives_begin(self):
        assert partition_point(Interval(40, 100), 0.0, 0.0) == 40

    def test_powerful_holder_keeps_most(self):
        c = partition_point(Interval(0, 100), 9.0, 1.0)
        assert c == 90

    def test_integer_powers_use_exact_arithmetic(self):
        # With int powers the division is exact big-int floor division.
        huge = 10**30
        c = partition_point(Interval(0, huge), 1, 3)
        assert c == huge // 4

    def test_float_powers_split_bignums_exactly(self):
        # No float product: the kept part is floor(length * ratio) for
        # the float ratio's exact value, also past 2**53 and 2**1024.
        for length in (math.factorial(50), math.factorial(171)):
            num, den = (1.0 / 3.0).as_integer_ratio()
            assert partition_point(Interval(0, length), 1.0, 2.0) == length * num // den

    @given(
        st.integers(0, 2**80),
        st.sampled_from((0.0, 0.5, 1.0, 2.1, 9.0)),
        st.sampled_from((0.0, 0.3, 1.0, 2.0, 4.2)),
    )
    def test_share_nondecreasing_in_length(self, length, holder, requester):
        # The INTERVALS index relies on this for a fixed holder power.
        shorter = requester_share_length(Interval(5, 5 + length), holder, requester)
        longer = requester_share_length(Interval(5, 6 + length), holder, requester)
        assert shorter <= longer

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            partition_point(Interval(0, 10), -1.0, 1.0)

    def test_point_stays_inside_interval(self):
        iv = Interval(10, 20)
        for hp in (0.0, 0.5, 1.0, 10.0):
            for rp in (0.1, 1.0, 5.0):
                assert 10 <= partition_point(iv, hp, rp) <= 20


class TestRequesterShare:
    def test_share_length(self):
        assert requester_share_length(Interval(0, 100), 1.0, 1.0) == 50
        assert requester_share_length(Interval(0, 100), 0.0, 1.0) == 100

    def test_share_plus_keep_equals_length(self):
        iv = Interval(7, 107)
        c = partition_point(iv, 2.0, 3.0)
        assert (c - iv.begin) + requester_share_length(iv, 2.0, 3.0) == iv.length


class TestSelection:
    def test_picks_largest_share_not_largest_interval(self):
        # The paper: "The selection operator does not choose the
        # greatest interval ... but the one which produces the greatest
        # possible interval [C, B)."
        candidates = [
            ("big-held", Interval(0, 1000), 99.0),  # share = 10
            ("small-orphan", Interval(5000, 5200), 0.0),  # share = 200
        ]
        assert select_for_request(candidates, 1.0) == "small-orphan"

    def test_empty_candidates(self):
        assert select_for_request([], 1.0) is None

    def test_single_candidate(self):
        assert select_for_request([("only", Interval(0, 10), 1.0)], 1.0) == "only"

    def test_ties_go_to_the_first_candidate(self):
        candidates = [(9, Interval(0, 10), 1.0), (10, Interval(20, 30), 1.0)]
        assert select_for_request(candidates, 1.0) == 9
