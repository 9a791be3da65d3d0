"""Property suite: wave-frontier exploration == scalar DFS oracle.

PR 8's wave frontier changes the *order* the engine explores in — it
accumulates same-depth waves that fill the pool kernels — but not the
*answer*: every wave-mode solve must return the identical optimum, the
identical optimal solution, and the identical proof status as the
scalar per-node DFS oracle.  Node accounting legitimately differs
(waves bound whole batches before any child can improve the incumbent,
so prune tests fire at different moments), which is exactly why these
tests compare the resolution and not ``ExplorationStats``.

The second half covers the state-capture contract: a mid-run wave
frontier folds to the same two-integer interval form as a DFS stack,
and resuming from that interval (in either mode) completes the proof.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import FRONTIER_CHOICES, Interval, IntervalExplorer, solve
from repro.core.unfold import unfold
from repro.exceptions import EngineError
from repro.problems.flowshop import FlowShopProblem, random_instance
from repro.problems.tsp import TSPProblem, random_tsp

BOUNDS = ("lb1", "lb2", "combined")
PAIR_STRATEGIES = ("adjacent", "adjacent+ends", "all")


def _assert_same_resolution(reference, candidate):
    assert candidate.cost == reference.cost
    assert candidate.solution == reference.solution
    assert candidate.optimal == reference.optimal


# ----------------------------------------------------------------------
# End-to-end: wave mode == the scalar DFS oracle on optimum and proof.
# ----------------------------------------------------------------------


@st.composite
def wave_case(draw):
    jobs = draw(st.integers(4, 7))
    machines = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 10_000))
    bound = draw(st.sampled_from(BOUNDS))
    strategy = draw(st.sampled_from(PAIR_STRATEGIES))
    pool_size = draw(st.sampled_from((1, 2, 5, 64)))
    # Tiny widths force the spill-to-DFS path; the huge one never spills.
    frontier_width = draw(st.sampled_from((1, 4, 32768)))
    return jobs, machines, seed, bound, strategy, pool_size, frontier_width


class TestWaveMatchesScalarOracle:
    @given(wave_case())
    @settings(max_examples=25, deadline=None)
    def test_flowshop(self, case):
        jobs, machines, seed, bound, strategy, pool_size, width = case
        instance = random_instance(jobs, machines, seed=seed)

        def make():
            return FlowShopProblem(
                instance, bound=bound, pair_strategy=strategy
            )

        oracle = solve(make(), kernel_backend="off")
        wave = solve(
            make(),
            frontier="wave",
            pool_size=pool_size,
            frontier_width=width,
        )
        _assert_same_resolution(oracle, wave)

    @given(
        st.integers(4, 7),
        st.integers(0, 10_000),
        st.sampled_from((1, 3, 64)),
        st.sampled_from((2, 32768)),
    )
    @settings(max_examples=20, deadline=None)
    def test_tsp(self, cities, seed, pool_size, width):
        instance = random_tsp(cities, seed=seed)
        oracle = solve(TSPProblem(instance), kernel_backend="off")
        wave = solve(
            TSPProblem(instance),
            frontier="wave",
            pool_size=pool_size,
            frontier_width=width,
        )
        _assert_same_resolution(oracle, wave)

    @given(st.integers(0, 500), st.integers(2, 6))
    @settings(max_examples=15, deadline=None)
    def test_interval_slices(self, seed, denominator):
        """Wave == oracle on partial intervals (the paper's work unit)."""
        import math

        instance = random_instance(6, 3, seed=seed)
        total = math.factorial(6)
        interval = Interval(total // denominator, total - total // 7)
        oracle = solve(
            FlowShopProblem(instance),
            interval=interval,
            kernel_backend="off",
        )
        wave = solve(
            FlowShopProblem(instance),
            interval=interval,
            frontier="wave",
            pool_size=8,
        )
        _assert_same_resolution(oracle, wave)

    def test_occupancy_reported(self):
        """Wave runs fill pools far beyond what a thin DFS stack holds."""
        instance = random_instance(8, 4, seed=8)
        wave = solve(
            FlowShopProblem(instance), frontier="wave", pool_size=64
        )
        assert wave.pool_occupancy, "wave solve recorded no pool calls"
        assert max(wave.pool_occupancy) > 2
        dfs = solve(FlowShopProblem(instance), pool_size=64)
        assert sum(dfs.pool_occupancy.values()) >= 0  # present, may be thin

    def test_spills_counted(self):
        instance = random_instance(7, 3, seed=11)
        wave = solve(
            FlowShopProblem(instance),
            frontier="wave",
            pool_size=8,
            frontier_width=1,
        )
        oracle = solve(FlowShopProblem(instance), kernel_backend="off")
        _assert_same_resolution(oracle, wave)
        assert wave.frontier_spills > 0


# ----------------------------------------------------------------------
# Parameter surface: validation.
# ----------------------------------------------------------------------


class TestParameterValidation:
    def test_frontier_choices_exported(self):
        assert FRONTIER_CHOICES == ("dfs", "wave")

    def test_unknown_frontier_rejected(self):
        problem = FlowShopProblem(random_instance(4, 2, seed=0))
        with pytest.raises(EngineError, match="frontier"):
            IntervalExplorer(problem, frontier="bfs")

    @pytest.mark.parametrize("width", (0, -1))
    def test_bad_frontier_width_rejected(self, width):
        problem = FlowShopProblem(random_instance(4, 2, seed=0))
        with pytest.raises(EngineError, match="frontier_width"):
            IntervalExplorer(problem, frontier_width=width)



class TestCliValidation:
    @pytest.mark.parametrize("flag", ("--pool-size", "--frontier-width"))
    @pytest.mark.parametrize("value", ("0", "-3"))
    def test_non_positive_rejected(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--jobs", "5", flag, value])
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        (
            ["--pool-scan-budget", "0"],
            ["--pool-scan-budget", "-3"],
            ["--kernel-backend", "cupy"],
        ),
        ids=("0---pool-scan-budget", "-3---pool-scan-budget", "cupy"),
    )
    def test_removed_options_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--jobs", "5"] + argv)
        assert exc.value.code == 2
        assert argv[0] in capsys.readouterr().err

    def test_non_integer_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--jobs", "5", "--pool-size", "many"])
        assert exc.value.code == 2
        assert "invalid" in capsys.readouterr().err

    def test_wave_solve_via_cli(self, capsys):
        assert main(
            ["solve", "--jobs", "7", "--machines", "3", "--seed", "21",
             "--frontier", "wave", "--pool-size", "16"]
        ) == 0
        out = capsys.readouterr().out
        assert "optimal makespan: 582" in out
        assert "proof: True" in out


# ----------------------------------------------------------------------
# Fold/unfold: a mid-run wave frontier checkpoints as two integers.
# ----------------------------------------------------------------------


class TestWaveFoldRoundTrip:
    @given(
        st.integers(0, 2_000),
        st.sampled_from((1, 5, 17, 80)),
        st.sampled_from((4, 32768)),
    )
    @settings(max_examples=20, deadline=None)
    def test_fold_resume_completes_proof(self, seed, step_nodes, width):
        """Interrupt a wave run, fold, resume from the interval: the
        combined exploration still proves the oracle optimum.

        Resuming a wave frontier re-decomposes a few internal nodes
        (the covering interval spans pruned gaps) — redundant work,
        never lost work — so only the resolution is compared.
        """
        instance = random_instance(6, 3, seed=seed)
        oracle = solve(FlowShopProblem(instance), kernel_backend="off")

        explorer = IntervalExplorer(
            FlowShopProblem(instance),
            frontier="wave",
            pool_size=8,
            frontier_width=width,
        )
        # Run a few partial steps, folding after each to check the
        # interval stays a two-integer suffix of the unexplored space.
        for _ in range(3):
            report = explorer.step(max_nodes=step_nodes)
            if report.finished:
                break
            remaining = explorer.remaining_interval()
            assert remaining.begin <= remaining.end
            # Every stack entry's number lies inside the fold.
            for entry in explorer._stack:
                assert remaining.begin <= entry.number < remaining.end

        if not explorer.is_finished():
            remaining = explorer.remaining_interval()
            resumed = IntervalExplorer(
                FlowShopProblem(instance),
                interval=remaining,
                frontier="wave",
                pool_size=8,
                frontier_width=width,
                incumbent=explorer.incumbent,
            )
            resumed.run()
            final = resumed.incumbent
        else:
            final = explorer.incumbent

        assert final.cost == oracle.cost
        assert tuple(final.solution) == tuple(oracle.solution)

    def test_active_list_covers_wave_frontier(self):
        """In wave mode ``active_list()`` is the canonical unfold of the
        remaining interval — a covering list, since pruned runs leave
        gaps that break eq. 9 contiguity."""
        instance = random_instance(6, 3, seed=42)
        explorer = IntervalExplorer(
            FlowShopProblem(instance), frontier="wave", pool_size=4
        )
        explorer.step(max_nodes=30)
        assert not explorer.is_finished()
        active = explorer.active_list()
        expected = unfold(explorer.shape, explorer.remaining_interval())
        assert [n.number for n in active] == [n.number for n in expected]

    def test_resume_into_dfs_mode(self):
        """A folded wave interval is mode-agnostic: DFS resumes it."""
        instance = random_instance(6, 3, seed=9)
        oracle = solve(FlowShopProblem(instance), kernel_backend="off")
        explorer = IntervalExplorer(
            FlowShopProblem(instance), frontier="wave", pool_size=8
        )
        explorer.step(max_nodes=40)
        assert not explorer.is_finished()
        resumed = IntervalExplorer(
            FlowShopProblem(instance),
            interval=explorer.remaining_interval(),
            incumbent=explorer.incumbent,
        )
        resumed.run()
        assert resumed.incumbent.cost == oracle.cost

    def test_resumable_solver_wave_round_trip(self, tmp_path):
        """ResumableSolver checkpoints and resumes a wave-mode run."""
        from repro.core import ResumableSolver

        instance = random_instance(7, 3, seed=21)
        oracle = solve(FlowShopProblem(instance), kernel_backend="off")
        solver = ResumableSolver(
            FlowShopProblem(instance),
            tmp_path,
            frontier="wave",
            pool_size=8,
            checkpoint_nodes=50,
        )
        result = solver.run()
        assert result.cost == oracle.cost
        assert result.optimal
        # A second solver over the same directory resumes-and-agrees.
        again = ResumableSolver(
            FlowShopProblem(instance),
            tmp_path,
            frontier="wave",
            pool_size=8,
        )
        final = again.run()
        assert final.cost == oracle.cost
