"""Interval-constrained depth-first Branch and Bound engine.

This is the per-process exploration loop of the paper's approach: a
B&B process owns an interval ``[A, B)`` of node numbers and explores
exactly the leaves numbered inside it, depth first, leftmost first.
The engine is *resumable* — the grid layers drive it in slices with
:meth:`IntervalExplorer.step` so they can interleave exploration with
message handling — and at every pause its frontier folds back to the
remaining interval (``[position, B)``), which is what gets sent to the
coordinator for checkpointing (§4.1).

Correspondence with the paper's four operators (§2), all applied by
one loop, :meth:`IntervalExplorer.step`:

* **selection** — two strategies over one number-sorted stack.  The
  default (``frontier="dfs"``) is the paper's: the smallest node
  number is always explored next (eq. 9 then holds by construction
  and folding is O(1)).  ``frontier="wave"`` pops *runs* of same-depth
  entries off the top of the stack — up to ``pool_size`` decomposable
  parents per wave — so the pool kernels receive wide pools instead of
  whatever a thin DFS frontier happens to hold.  Waves still always
  take the smallest-numbered entries, so leaves are evaluated in the
  same left-to-right order, the stack stays number-sorted, and the
  fold is still the two integers ``[top, B)`` (see
  :meth:`IntervalExplorer.remaining_interval`);
* **branching** — delegated to :meth:`Problem.branch`;
* **bounding** — two sources only.  When the problem registered a pool
  kernel (:mod:`repro.core.kernels`), the children of a whole *pool*
  of same-depth frontier nodes are bounded in one backend call (the
  GPU-B&B structure of Melab et al.); otherwise, or with
  ``kernel_backend="off"``, :meth:`Problem.lower_bound` runs lazily
  when a node is popped.  Bounds never depend on the incumbent, so
  evaluating them ahead of DFS order is semantically invisible: cached
  bounds are re-checked against the *current* incumbent, and on the
  DFS frontier the explored / pruned / decomposed / bound-evaluation
  totals are identical on every backend;
* **elimination** — a node is eliminated when its bound reaches the
  incumbent cost *or* when its number falls outside the owned interval
  (the eq. 12 rule that makes work units independent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.active_list import ActiveList, ActiveNode
from repro.core.interval import Interval
from repro.core.kernels import PoolEvaluator, pool_evaluator_for
from repro.core.problem import Problem
from repro.core.stats import ExplorationStats, Incumbent
from repro.core.tree import TreeShape
from repro.core.unfold import unfold
from repro.exceptions import EngineError, ProblemError

__all__ = [
    "FRONTIER_CHOICES",
    "IntervalExplorer",
    "StepReport",
    "SolveResult",
    "solve",
    "brute_force_minimum",
]

#: Frontier exploration strategies the engine implements.
FRONTIER_CHOICES: Tuple[str, ...] = ("dfs", "wave")

ImprovementCallback = Callable[[float, Any], None]


@dataclass
class StepReport:
    """Outcome of one :meth:`IntervalExplorer.step` slice."""

    nodes_processed: int
    finished: bool
    improved: bool


@dataclass
class SolveResult:
    """Result of a complete (proof-carrying) exploration."""

    cost: float
    solution: Any
    stats: ExplorationStats
    interval: Interval
    optimal: bool = True
    # Pool-evaluation telemetry (kept out of ExplorationStats so node
    # accounting stays byte-comparable across frontiers and backends):
    # occupancy -> backend calls at that occupancy, and the number of
    # wave-mode width spills.
    pool_occupancy: Dict[int, int] = field(default_factory=dict)
    frontier_spills: int = 0

    def found_solution(self) -> bool:
        return self.solution is not None


class _Entry:
    """One frontier node on the DFS stack.

    ``bound`` caches the node's lower bound when the pool evaluator
    computed it with its siblings' (``None`` until then: the node is
    bounded lazily when popped); the bound of a node never depends on
    the incumbent, so the cached value stays valid and only the prune
    *comparison* is deferred to pop time.  ``child_bounds`` caches the
    bounds of this entry's children once a pool call evaluated them,
    possibly ahead of the pop (bound-ahead speculation — again
    incumbent-free, so always valid once computed).
    """

    __slots__ = ("ranks", "state", "number", "bound", "child_bounds")

    def __init__(
        self,
        ranks: Tuple[int, ...],
        state: Any,
        number: int,
        bound: Optional[float] = None,
    ):
        self.ranks = ranks
        self.state = state
        self.number = number
        self.bound = bound
        self.child_bounds: Optional[List[float]] = None


class IntervalExplorer:
    """Resumable DFS B&B over one interval of node numbers.

    Parameters
    ----------
    problem:
        The problem to minimise.
    interval:
        Node numbers to own; defaults to the full range of the root.
        Clipped to ``[0, total_leaves)``.
    incumbent:
        Initial best solution (copied); exploration prunes against it.
        The paper initialises this from the coordinator's ``SOLUTION``
        (sharing rule 1, §4.4).
    on_improvement:
        Called ``(cost, solution)`` whenever the local best improves
        (sharing rule 2: "immediately informs the coordinator").
    bound_provider:
        Optional zero-arg callable returning an advisory global upper
        bound (e.g. a shared-memory incumbent).  Polled every
        ``bound_poll_nodes`` processed nodes *inside* :meth:`step`, so
        a bound improvement found elsewhere tightens pruning mid-slice
        instead of waiting for the next coordination boundary (sharing
        rule 3, §4.4, without the round-trip).  The provider carries a
        cost only — adopting it never installs a solution.
    bound_poll_nodes:
        How many processed nodes between provider polls (default 256;
        ignored without a provider).  A wave polls at most once, before
        it starts.
    kernel_backend:
        Pool bound-kernel backend (:mod:`repro.core.kernels`).
        ``None`` (auto, the default) pools with the ``numpy`` backend
        whenever the problem registered pooled kernels; ``"off"``
        bounds every node with a scalar :meth:`Problem.lower_bound`
        call when it is popped (the reference path); ``"numpy"`` /
        ``"numba"`` select a backend explicitly (numba degrades to
        numpy with a one-time warning when it is missing).
    pool_size:
        Maximum number of frontier nodes bounded per pool call
        (default 64).  On the DFS frontier, pooling only *reorders
        when bound arithmetic runs* — never which nodes are popped,
        pruned or counted — so any value >= 1 yields identical
        results and stats.  On the wave frontier it is also the wave
        width: how many decomposable parents one wave accumulates.
    frontier:
        ``"dfs"`` (default) explores strictly smallest-number-first —
        the paper's order, byte-identical stats across every backend.
        ``"wave"`` pops whole same-depth runs (up to ``pool_size``
        decomposable parents per wave) so pool kernels see wide pools
        even where DFS would feed them one or two entries.  The wave
        order still takes the smallest-numbered entries first, so the
        optimum, the proof of optimality and the improvement sequence
        match the DFS oracle exactly; the *explored-node counters* may
        differ (pruning tests happen at different moments against the
        then-current incumbent) and are reported honestly.
    frontier_width:
        Wave-mode memory bound: once the stack holds more than this
        many entries, exploration spills to single-entry DFS pops
        (draining the smallest subtrees first) until the frontier
        shrinks back under the cap, then waves resume.  Spills are
        counted in :attr:`frontier_spills`.  Ignored on the DFS
        frontier, whose stack is O(depth x branching) by construction.
    """

    def __init__(
        self,
        problem: Problem,
        interval: Optional[Interval] = None,
        *,
        incumbent: Optional[Incumbent] = None,
        on_improvement: Optional[ImprovementCallback] = None,
        bound_provider: Optional[Callable[[], float]] = None,
        bound_poll_nodes: int = 256,
        kernel_backend: Optional[str] = None,
        pool_size: int = 64,
        frontier: str = "dfs",
        frontier_width: int = 32768,
    ):
        self.problem = problem
        if pool_size < 1:
            raise EngineError("pool_size must be >= 1")
        self.pool_size = pool_size
        if frontier not in FRONTIER_CHOICES:
            raise EngineError(
                f"unknown frontier {frontier!r} "
                f"(expected one of {', '.join(FRONTIER_CHOICES)})"
            )
        self.frontier = frontier
        if frontier_width < 1:
            raise EngineError("frontier_width must be >= 1")
        self.frontier_width = frontier_width
        #: Wave-mode spill events: waves deferred to DFS pops because
        #: the stack exceeded ``frontier_width``.
        self.frontier_spills: int = 0
        #: Pool-evaluator call histogram: occupancy -> number of calls
        #: that bounded that many parents at once (every backend call
        #: is recorded, on both frontiers).
        self.pool_occupancy: Dict[int, int] = {}
        self._pool_evaluator: Optional[PoolEvaluator] = pool_evaluator_for(
            problem, kernel_backend
        )
        self.shape: TreeShape = problem.tree_shape()
        self._weights = self.shape.weights()
        full = Interval(0, self.shape.total_leaves)
        interval = full if interval is None else interval.intersect(full)
        self._original = interval
        self._end = max(interval.end, interval.begin)
        self.incumbent = incumbent.copy() if incumbent is not None else Incumbent()
        self.on_improvement = on_improvement
        self.bound_provider = bound_provider
        if bound_poll_nodes < 1:
            raise EngineError("bound_poll_nodes must be >= 1")
        self.bound_poll_nodes = bound_poll_nodes
        self.stats = ExplorationStats()
        # Stack ordered by DECREASING node number so list.pop() yields
        # the leftmost (smallest-numbered) frontier node — DFS order.
        self._stack: List[_Entry] = []
        if not interval.is_empty():
            self._init_stack(interval)

    # ------------------------------------------------------------------
    # initialisation: unfold the interval, materialise states
    # ------------------------------------------------------------------
    def _init_stack(self, interval: Interval) -> None:
        active = unfold(self.shape, interval)
        # Consecutive frontier nodes share long rank-path prefixes, so a
        # prefix -> state cache keeps materialisation at O(P) branchings.
        prefix_states = {(): self.problem.root_state()}

        def state_for(ranks: Tuple[int, ...]) -> Any:
            if ranks in prefix_states:
                return prefix_states[ranks]
            parent = state_for(ranks[:-1])
            children = self._branch_checked(parent, len(ranks) - 1)
            state = children[ranks[-1]]
            prefix_states[ranks] = state
            return state

        for node in reversed(list(active)):
            self._stack.append(
                _Entry(node.ranks, state_for(node.ranks), node.number)
            )

    def _branch_checked(self, state: Any, depth: int) -> Tuple[Any, ...]:
        children = tuple(self.problem.branch(state, depth))
        expected = self.shape.num_children(depth)
        if len(children) != expected:
            raise ProblemError(
                f"{self.problem.name()}.branch returned {len(children)} "
                f"children at depth {depth}, shape expects {expected}"
            )
        return children

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    def is_finished(self) -> bool:
        return not self._stack

    @property
    def end(self) -> int:
        """Current right bound of the owned interval (may shrink)."""
        return self._end

    def remaining_interval(self) -> Interval:
        """Fold of the live frontier: what is left to explore.

        This is exactly what a worker reports to the coordinator during
        an interval update (§4.1).  Empty once exploration is done.
        """
        if not self._stack:
            return Interval(self._end, self._end)
        return Interval(self._stack[-1].number, self._end)

    def active_list(self) -> ActiveList:
        """The frontier as an :class:`ActiveList` (increasing order).

        Note: after :meth:`restrict_end` the last node's range may
        extend past :attr:`end`; exploration clips lazily, so the list
        covers *at least* the remaining interval.

        A wave frontier is not a contiguous eq. 9 chain (pruned runs
        leave gaps between surviving subtrees), so in wave mode this
        returns the canonical *covering* list instead: the unfold of
        :meth:`remaining_interval` — exactly the frontier a resume
        would reconstruct from the fold.
        """
        if self.frontier == "wave":
            return unfold(self.shape, self.remaining_interval())
        nodes = [
            ActiveNode(self.shape, entry.ranks)
            for entry in reversed(self._stack)
            if entry.number < self._end
        ]
        return ActiveList(self.shape, nodes)

    # ------------------------------------------------------------------
    # coordination hooks (load balancing & solution sharing)
    # ------------------------------------------------------------------
    def restrict_end(self, new_end: int) -> None:
        """Give up the tail ``[new_end, end)`` — stolen by load balancing.

        Growing the interval is not part of the protocol and raises.
        """
        if new_end > self._end:
            raise EngineError(
                f"cannot extend interval end from {self._end} to {new_end}"
            )
        self._end = new_end
        # Entries are ordered by decreasing number: drop the out-of-range
        # prefix eagerly (index 0 side holds the largest numbers).
        cut = 0
        while cut < len(self._stack) and self._stack[cut].number >= new_end:
            cut += 1
        if cut:
            del self._stack[:cut]

    def apply_interval(self, interval: Interval) -> None:
        """Reconcile with a coordinator-side copy (intersection, eq. 14).

        The coordinator can only have *shrunk* the work (raised begin is
        impossible — only this process advances begin — so in practice
        this lowers ``end``).  An empty intersection means all remaining
        work was reassigned: the frontier is dropped.
        """
        merged = self.remaining_interval().intersect(interval)
        if merged.is_empty():
            self._stack.clear()
            self._end = merged.end
            return
        self.restrict_end(merged.end)

    def set_upper_bound(self, cost: float, solution: Any = None) -> bool:
        """Adopt a better global bound (sharing rule 3, §4.4)."""
        if cost < self.incumbent.cost:
            self.incumbent.cost = cost
            self.incumbent.solution = solution
            return True
        return False

    # ------------------------------------------------------------------
    # exploration
    # ------------------------------------------------------------------
    def step(self, max_nodes: float = math.inf) -> StepReport:
        """Explore up to ``max_nodes`` nodes; return what happened.

        One "node" is one frontier entry taken off the stack, matching
        the paper's explored-node accounting (pruned, decomposed and
        leaf nodes all count).  Children pruned on their cached bound
        before they reach the stack also count — they are the same
        nodes a lazy pop would bound and prune — so a step may
        overshoot ``max_nodes`` by at most one group plus its children.

        Each iteration applies the four operators once:

        * a leaf on top of the stack is popped and evaluated;
        * otherwise a *group* of same-depth entries is popped and
          prune-checked (selection + elimination): exactly one entry on
          the DFS frontier and while a wave spills past
          ``frontier_width``, else entries until ``pool_size`` parents
          survive;
        * the survivors without cached child bounds are bounded in one
          pool-evaluator call — a single-pop group is first topped up
          with same-depth entries from the stack (:meth:`_top_up`);
        * the survivors are branched, highest-numbered first, and their
          children pushed; a child whose cached bound already reaches
          the incumbent is counted as explored, bounded and pruned
          instead.  The incumbent cannot improve between that test and
          the moment a lazy pop would bound the child (bounds do not
          depend on it and it never worsens), so the totals match the
          scalar path.

        Groups always take the smallest-numbered entries and subtree
        ranges are disjoint, so the stack stays sorted by decreasing
        number, leaves are evaluated left to right and
        :meth:`remaining_interval` stays a valid fold.
        """
        problem = self.problem
        stack = self._stack
        leaf_depth = self.shape.leaf_depth
        weights = self._weights
        stats = self.stats
        incumbent = self.incumbent
        pool_evaluator = self._pool_evaluator
        wave = self.frontier == "wave"
        pool_size = self.pool_size
        processed = 0
        improved = False
        provider = self.bound_provider
        poll = self.bound_poll_nodes if provider is not None else 0
        next_poll = poll

        while stack and processed < max_nodes:
            if poll and processed >= next_poll:
                # Poll once per multiple of ``poll`` crossed; a wave
                # that crosses several of them polls once.
                next_poll = processed - processed % poll + poll
                shared = provider()
                if shared < incumbent.cost:
                    incumbent.cost = shared
                    incumbent.solution = None
            entry = stack[-1]
            if entry.number >= self._end:
                # Sorted stack: the smallest-numbered entry is already
                # out of range, so everything else is too.
                stats.nodes_skipped_out_of_range += len(stack)
                stack.clear()
                break
            depth = len(entry.ranks)

            if depth == leaf_depth:
                stack.pop()
                processed += 1
                stats.nodes_explored += 1
                stats.leaves_evaluated += 1
                cost = problem.leaf_cost(entry.state)
                if cost < incumbent.cost:
                    incumbent.cost = cost
                    incumbent.solution = problem.leaf_solution(entry.state)
                    stats.improvements += 1
                    improved = True
                    if self.on_improvement is not None:
                        self.on_improvement(incumbent.cost, incumbent.solution)
                continue

            # Selection + elimination.  A bound cached at push time is
            # the exact value lower_bound would return; only the
            # comparison with the current incumbent happens now.  No
            # leaf is evaluated inside a group, so the incumbent cannot
            # move under it.
            single = not wave or len(stack) > self.frontier_width
            if wave and single:
                # An over-width stack must shrink before the next wave
                # may multiply it: single pops drain the smallest
                # subtrees first.
                self.frontier_spills += 1
            incumbent_cost = incumbent.cost
            survivors: List[_Entry] = []
            while True:
                stack.pop()
                processed += 1
                stats.nodes_explored += 1
                stats.bound_evaluations += 1
                bound = entry.bound
                if bound is None:
                    bound = problem.lower_bound(entry.state, depth)
                if bound >= incumbent_cost:
                    stats.nodes_pruned += 1
                else:
                    stats.nodes_decomposed += 1
                    survivors.append(entry)
                if single or len(survivors) >= pool_size or not stack:
                    break
                entry = stack[-1]
                if len(entry.ranks) != depth:
                    break
                if entry.number >= self._end:
                    stats.nodes_skipped_out_of_range += len(stack)
                    stack.clear()
                    break
            if not survivors:
                continue

            # Bounding: one pool call for the survivors' children.
            child_depth = depth + 1
            if pool_evaluator is not None and child_depth < leaf_depth:
                group = [e for e in survivors if e.child_bounds is None]
                if group:
                    if single:
                        self._top_up(group, depth)
                    self._evaluate_pool(pool_evaluator, group, depth)

            # Branching: push children, highest-numbered parent first.
            child_weight = weights[child_depth]
            end = self._end
            for entry in reversed(survivors):
                child_bounds = entry.child_bounds
                children = self._branch_checked(entry.state, depth)
                for rank in range(len(children) - 1, -1, -1):
                    child_number = entry.number + rank * child_weight
                    if child_number >= end:
                        stats.nodes_skipped_out_of_range += 1
                        continue
                    child_bound = None
                    if child_bounds is not None:
                        child_bound = child_bounds[rank]
                        if child_bound >= incumbent_cost:
                            processed += 1
                            stats.nodes_explored += 1
                            stats.bound_evaluations += 1
                            stats.nodes_pruned += 1
                            continue
                    stack.append(
                        _Entry(
                            entry.ranks + (rank,),
                            children[rank],
                            child_number,
                            child_bound,
                        )
                    )

        return StepReport(processed, finished=not stack, improved=improved)

    def _top_up(self, group: List[_Entry], depth: int) -> None:
        """Bound-ahead: extend a single-parent ``group`` with up to
        ``pool_size - 1`` more same-depth entries from the stack.

        Only *bounding* runs ahead of DFS order here — bounds are pure
        functions of the state, independent of the incumbent — so this
        cannot change which nodes are popped, pruned, decomposed or
        counted; it only moves arithmetic the DFS would do anyway into
        one amortised backend call.  Candidates come from the top of
        the stack (the DFS-soonest entries) within a scan budget of
        ``max(4 * pool_size, 64)`` entries, skipping entries that
        already carry child bounds, sit at another depth, fell out of
        the owned interval, or whose own cached bound already reaches
        the incumbent (they will be pruned, so their children are
        never needed).  The budget keeps a deep frontier from turning
        every top-up into an O(stack) scan when few candidates qualify.
        """
        cost = self.incumbent.cost
        end = self._end
        budget = max(4 * self.pool_size, 64)
        for cand in reversed(self._stack):
            if len(group) >= self.pool_size or budget <= 0:
                break
            budget -= 1
            if (
                cand.child_bounds is not None
                or len(cand.ranks) != depth
                or cand.number >= end
                or (cand.bound is not None and cand.bound >= cost)
            ):
                continue
            group.append(cand)

    def _evaluate_pool(
        self, evaluator: PoolEvaluator, group: List[_Entry], depth: int
    ) -> None:
        """One backend call: bound the children of every entry in
        ``group`` (all at ``depth``), cache the rows on the entries,
        and record the call's occupancy in :attr:`pool_occupancy`.
        Declined rows (``None``) leave ``child_bounds`` unset, so those
        children are bounded lazily when popped.
        """
        results = evaluator([cand.state for cand in group], depth)
        occupancy = len(group)
        self.pool_occupancy[occupancy] = (
            self.pool_occupancy.get(occupancy, 0) + 1
        )
        if results is None:
            return
        expected = self.shape.num_children(depth)
        for cand, row in zip(group, results):
            if row is None:
                continue
            if len(row) != expected:
                raise ProblemError(
                    f"{self.problem.name()} pool kernel returned "
                    f"{len(row)} bounds at depth {depth}, "
                    f"shape expects {expected}"
                )
            # One bulk conversion: comparing / storing plain Python
            # scalars is cheaper per child than ndarray indexing.
            tolist = getattr(row, "tolist", None)
            cand.child_bounds = tolist() if tolist is not None else list(row)

    def run(self) -> ExplorationStats:
        """Explore the whole owned interval to completion."""
        while not self.is_finished():
            self.step(math.inf)
        return self.stats


# ----------------------------------------------------------------------
# one-shot conveniences
# ----------------------------------------------------------------------
def solve(
    problem: Problem,
    *,
    interval: Optional[Interval] = None,
    initial_upper_bound: float = math.inf,
    initial_solution: Any = None,
    on_improvement: Optional[ImprovementCallback] = None,
    kernel_backend: Optional[str] = None,
    pool_size: int = 64,
    frontier: str = "dfs",
    frontier_width: int = 32768,
) -> SolveResult:
    """Sequentially solve ``problem`` (over ``interval``) with proof.

    This is the paper's algorithm on a single processor: the returned
    cost is the optimum over the explored interval and ``optimal`` is
    ``True`` because the exploration ran to exhaustion.  The paper
    initialised Ta056 with the best-known cost 3681 — pass it through
    ``initial_upper_bound`` for the same effect (note: with a pure
    bound and no solution, an instance whose optimum equals the bound
    reports ``solution=None``; pass ``initial_solution`` to keep it).
    ``kernel_backend`` / ``pool_size`` select the pool bound-kernel
    backend (see :class:`IntervalExplorer`); the default pools with
    numpy on problems that register pooled kernels.
    ``frontier="wave"`` (with its ``frontier_width`` memory cap) fills
    those pools from same-depth exploration waves instead of the DFS
    stack — same optimum and proof, wider kernel calls.

    A problem-supplied :meth:`Problem.warm_start` heuristic seeds the
    incumbent as well; the incumbent is monotonic, so whichever of the
    warm start and ``initial_upper_bound`` is better wins, and a warm
    start can only speed the proof up, never change the optimum.
    """
    incumbent = Incumbent(initial_upper_bound, initial_solution)
    warm = problem.warm_start()
    if warm is not None:
        incumbent.update(*warm)
    explorer = IntervalExplorer(
        problem,
        interval,
        incumbent=incumbent,
        on_improvement=on_improvement,
        kernel_backend=kernel_backend,
        pool_size=pool_size,
        frontier=frontier,
        frontier_width=frontier_width,
    )
    explorer.run()
    full = Interval(0, problem.total_leaves()) if interval is None else interval
    return SolveResult(
        cost=explorer.incumbent.cost,
        solution=explorer.incumbent.solution,
        stats=explorer.stats,
        interval=full,
        pool_occupancy=dict(explorer.pool_occupancy),
        frontier_spills=explorer.frontier_spills,
    )


def brute_force_minimum(problem: Problem) -> SolveResult:
    """Evaluate every leaf (no pruning) — ground truth for tests.

    Exponential; only call on tiny instances.
    """

    class _NoPruning(Problem):
        def tree_shape(self) -> TreeShape:
            return problem.tree_shape()

        def root_state(self) -> Any:
            return problem.root_state()

        def branch(self, state: Any, depth: int) -> Sequence[Any]:
            return problem.branch(state, depth)

        def lower_bound(self, state: Any, depth: int) -> float:
            return -math.inf

        def leaf_cost(self, state: Any) -> float:
            return problem.leaf_cost(state)

        def leaf_solution(self, state: Any) -> Any:
            return problem.leaf_solution(state)

    return solve(_NoPruning())


def iter_leaf_costs(problem: Problem) -> Iterator[Tuple[int, float]]:
    """Yield ``(leaf_number, cost)`` for every leaf, in number order.

    Test helper for exhaustive cross-checks of numbering and engine
    semantics on small trees.
    """
    shape = problem.tree_shape()
    weights = shape.weights()

    def walk(state: Any, depth: int, number: int) -> Iterator[Tuple[int, float]]:
        if depth == shape.leaf_depth:
            yield number, problem.leaf_cost(state)
            return
        child_weight = weights[depth + 1]
        for rank, child in enumerate(problem.branch(state, depth)):
            yield from walk(child, depth + 1, number + rank * child_weight)

    yield from walk(problem.root_state(), 0, 0)
