"""The permutation flow shop as a :class:`~repro.core.problem.Problem`.

The search tree is the permutation tree of the jobs (paper §3, eq. 3):
depth ``d`` fixes the job in position ``d``, children append each
not-yet-scheduled job in ascending job-id order (the deterministic rank
order the interval numbering requires).

A state carries the scheduled prefix, the completion front on every
machine, and the remaining job ids — enough for O(M) incremental
branching and for the bounds without touching the prefix again.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.problem import Problem
from repro.core.tree import TreeShape
from repro.exceptions import ProblemError
from repro.problems.flowshop.bounds import BoundData
from repro.problems.flowshop.instance import FlowShopInstance
from repro.problems.flowshop.makespan import advance_fronts_batch

__all__ = ["FlowShopProblem", "FlowShopState"]


class FlowShopState:
    """A node of the flow-shop permutation tree."""

    __slots__ = ("scheduled", "front", "remaining")

    def __init__(
        self,
        scheduled: Tuple[int, ...],
        front: np.ndarray,
        remaining: np.ndarray,
    ):
        self.scheduled = scheduled
        self.front = front
        self.remaining = remaining

    def __repr__(self) -> str:
        return (
            f"FlowShopState(scheduled={list(self.scheduled)!r}, "
            f"Cmax so far={int(self.front[-1])})"
        )


class FlowShopProblem(Problem):
    """Minimise the makespan of a permutation flow shop.

    Parameters
    ----------
    instance:
        The :class:`FlowShopInstance` to solve.
    bound:
        ``"lb1"`` (one-machine), ``"lb2"`` (two-machine Johnson) or
        ``"combined"`` (max of both, the default).
    pair_strategy:
        Machine-pair selection for LB2 (see
        :func:`repro.problems.flowshop.bounds.machine_pairs`).
    """

    def __init__(
        self,
        instance: FlowShopInstance,
        bound: str = "combined",
        pair_strategy: str = "adjacent+ends",
    ):
        if bound not in ("lb1", "lb2", "combined"):
            raise ProblemError(
                f"unknown bound {bound!r}; use 'lb1', 'lb2' or 'combined'"
            )
        self.instance = instance
        self.bound = bound
        self.bound_data = BoundData(instance, pair_strategy)
        self._shape = TreeShape.permutation(instance.jobs)
        self._bound_fn = {
            "lb1": self.bound_data.one_machine,
            "lb2": self.bound_data.two_machine,
            "combined": self.bound_data.combined,
        }[bound]
        # Pool-kernel handoff: the pool evaluator computes the child
        # fronts of many parents in one call, long before the engine
        # pops and branches each parent.  Rows are parked here (keyed
        # by state identity, holding a strong reference so the id
        # cannot be recycled) and consumed by the first _child_fronts
        # call; FIFO eviction bounds entries left behind by parents
        # that were pruned before branching.
        self._pool_fronts: "dict[int, Tuple[FlowShopState, np.ndarray]]" = {}
        self._pool_fronts_cap = 1024
        # Per-child-count index matrices for branch(): row c selects
        # the remaining vector minus entry c, so the r child remaining
        # sets come from one fancy gather (allocating an r x r boolean
        # eye per decomposition is measurable on the hot path).
        self._rest_idx: dict = {}

    # ------------------------------------------------------------------
    # Problem interface
    # ------------------------------------------------------------------
    def tree_shape(self) -> TreeShape:
        return self._shape

    def root_state(self) -> FlowShopState:
        return FlowShopState(
            scheduled=(),
            front=np.zeros(self.instance.machines, dtype=np.int64),
            remaining=np.arange(self.instance.jobs, dtype=np.intp),
        )

    def _child_fronts(self, state: FlowShopState) -> np.ndarray:
        """The (r, M) stack of child completion fronts of ``state``.

        Taken from the pool handoff when a pool evaluator bounded the
        children of ``state``, computed here otherwise.
        """
        pooled = self._pool_fronts.pop(id(state), None)
        if pooled is not None and pooled[0] is state:
            return pooled[1]
        p_rem = self.instance.processing_times[state.remaining]
        return advance_fronts_batch(state.front, p_rem)

    def store_child_fronts(
        self, states: Sequence[FlowShopState], fronts: np.ndarray
    ) -> None:
        """Park pool-computed child fronts for later :meth:`branch` reuse.

        ``fronts`` is the (N, r, M) pool array; row ``n`` belongs to
        ``states[n]``.  Called by the pool evaluators so the fronts
        computed for bounding are not recomputed at branch time.
        """
        cache = self._pool_fronts
        for n, state in enumerate(states):
            cache[id(state)] = (state, fronts[n])
        while len(cache) > self._pool_fronts_cap:
            cache.pop(next(iter(cache)))

    def branch(self, state: FlowShopState, depth: int) -> List[FlowShopState]:
        remaining = state.remaining
        r = remaining.size
        fronts = self._child_fronts(state)
        # remaining-minus-one for every child in one shot: gather with
        # the cached diagonal-dropping index matrix.
        if r > 1:
            idx = self._rest_idx.get(r)
            if idx is None:
                idx = np.nonzero(~np.eye(r, dtype=bool))[1].reshape(r, r - 1)
                self._rest_idx[r] = idx
            rests = remaining[idx]
        else:
            rests = np.empty((1, 0), dtype=remaining.dtype)
        scheduled = state.scheduled
        jobs = remaining.tolist()
        return [
            FlowShopState(
                scheduled=scheduled + (jobs[c],),
                front=fronts[c],
                remaining=rests[c],
            )
            for c in range(r)
        ]

    def lower_bound(self, state: FlowShopState, depth: int) -> float:
        return self._bound_fn(state.front, state.remaining)

    def leaf_cost(self, state: FlowShopState) -> float:
        return int(state.front[-1])

    def leaf_solution(self, state: FlowShopState) -> Tuple[int, ...]:
        return state.scheduled

    def name(self) -> str:
        return f"FlowShop({self.instance.name}, bound={self.bound})"
