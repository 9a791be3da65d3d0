"""Coordinator-side interval operators: partitioning and selection (§4.2).

These are pure policy functions; :class:`~repro.core.interval_set.IntervalSet`
wires them to the bookkeeping.

*Partitioning* splits ``[A, B)`` into ``[A, C)`` for the holder and
``[C, B)`` for the requester.  The split point ``C`` is proportional to
the computing power of each side: a fast requester takes a bigger tail.
Intervals with no live holder belong to "a virtual process which has a
null power", so ``C == A`` and the requester gets everything.

*Selection* does not pick the longest interval but the one that yields
the longest requester share ``[C, B)`` — the paper is explicit about
this distinction.  :func:`select_for_request` is the plain scan over
every candidate; ``IntervalSet`` answers the same question from an
index, and the property tests hold it to this reference.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple, TypeVar

from repro.core.interval import Interval

__all__ = ["partition_point", "requester_share_length", "select_for_request"]

K = TypeVar("K")


def partition_point(
    interval: Interval, holder_power: float, requester_power: float
) -> int:
    """Split point ``C`` of ``[A, B)`` proportional to processor powers.

    The holder keeps ``holder_power / (holder_power + requester_power)``
    of the length (it is already exploring from ``A``).  A null-power
    holder (unassigned interval) yields ``C == A``.  Powers must be
    non-negative; a zero-power requester paired with a zero-power holder
    also hands everything to the requester (the request proves it is
    alive).
    """
    if holder_power < 0 or requester_power < 0:
        raise ValueError("processor powers must be non-negative")
    total = holder_power + requester_power
    if total == 0 or holder_power == 0:
        return interval.begin
    if isinstance(holder_power, int) and isinstance(requester_power, int):
        keep = (interval.length * holder_power) // total
    else:
        # The float ratio is exact as a fraction num/den, so the product
        # stays a bignum: no rounding of 50!-scale endpoints, no overflow
        # past 2**1024, and the share is nondecreasing in the length.
        num, den = float(holder_power / total).as_integer_ratio()
        keep = interval.length * num // den
    return interval.begin + keep


def requester_share_length(
    interval: Interval, holder_power: float, requester_power: float
) -> int:
    """Length of ``[C, B)`` that a split would give the requester."""
    return interval.end - partition_point(interval, holder_power, requester_power)


def select_for_request(
    candidates: Iterable[Tuple[K, Interval, float]],
    requester_power: float,
) -> Optional[K]:
    """Selection operator: maximise the requester share (§4.2).

    Parameters
    ----------
    candidates:
        ``(key, interval, holder_power)`` triples.
    requester_power:
        Power of the requesting process.

    Returns
    -------
    The key of the best candidate, or ``None`` when there are none.
    Ties go to the first candidate in iteration order.
    """
    best_key: Optional[K] = None
    best_share = -1
    for key, interval, holder_power in candidates:
        share = requester_share_length(interval, holder_power, requester_power)
        if share > best_share:
            best_share = share
            best_key = key
    return best_key
