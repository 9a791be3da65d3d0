"""The benchmark's fixed inputs and the optimum each one must prove.

``reference.json`` (beside this file) holds everything the workloads
feed the program, so the inputs do not depend on the program's own
instance generators:

* ``ta021`` — Taillard's Ta021 (20 jobs x 20 machines) processing
  times, and the leaf slices the two Ta021 workloads prove, each with
  its optimum and the node count of a serial proof;
* ``jobs`` — the service-stream catalogue: 8x4 flow shops and 10-city
  Euclidean TSPs drawn by this file's own generator from a fixed seed,
  each with its serial optimum and node count.  A run's ``--seed``
  picks the sequence of catalogue jobs and the Poisson gaps;
* ``smoke`` — the same, at the scale of the smoke mode.

Regenerate the file (only when the inputs must change) with::

    python3 perfbench/reference.py --write

and check every recorded optimum against a fresh serial ``solve()``
with ``python3 perfbench/run.py --verify``.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

#: Seed of the catalogue generator (fixed: the inputs are part of the
#: benchmark definition, not of any one run).
CATALOGUE_SEED = 20070326
CATALOGUE_FLOWSHOPS = 96  # 8 jobs x 4 machines
CATALOGUE_TSPS = 48  # 10 cities

SLICES = {
    # leading leaf slices of Ta021: [0, 20! // denominator)
    "solve": {"denominator": 10**10, "upper_bound_gap": None},
    "grid": {"denominator": 3 * 10**9, "upper_bound_gap": 1},
    "smoke-solve": {"denominator": 10**12, "upper_bound_gap": None},
    "smoke-grid": {"denominator": 10**12, "upper_bound_gap": 1},
}


def flowshop_matrix(rng: random.Random, jobs: int, machines: int) -> List[List[int]]:
    """Taillard-style processing times: uniform integers in [1, 99]."""
    return [[rng.randint(1, 99) for _ in range(machines)] for _ in range(jobs)]


def tsp_matrix(rng: random.Random, cities: int) -> List[List[int]]:
    """Points uniform in a 1000 x 1000 square, rounded Euclidean distances."""
    points = [(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(cities)]
    return [
        [int(round(math.dist(a, b))) if i != j else 0 for j, b in enumerate(points)]
        for i, a in enumerate(points)
    ]


def makespan(matrix: List[List[int]], permutation: List[int]) -> int:
    """Permutation flow-shop makespan, computed independently of the program."""
    front = [0] * len(matrix[0])
    for job in permutation:
        previous = 0
        for machine, duration in enumerate(matrix[job]):
            previous = max(previous, front[machine]) + duration
            front[machine] = previous
    return front[-1]


def tour_length(matrix: List[List[int]], tour: List[int]) -> int:
    """Closed-tour length, computed independently of the program."""
    return sum(matrix[a][b] for a, b in zip(tour, tour[1:] + tour[:1]))


def solution_cost(kind: str, matrix: List[List[int]], solution: Any) -> Any:
    """The cost ``solution`` really has, or None when it is not a valid
    permutation of the instance."""
    if not isinstance(solution, (list, tuple)):
        return None
    perm = [int(x) for x in solution]
    if sorted(perm) != list(range(len(matrix))):
        return None
    return makespan(matrix, perm) if kind == "flowshop" else tour_length(matrix, perm)


# ----------------------------------------------------------------------
# serial proofs through the program's public entry point
# ----------------------------------------------------------------------
def serial_proof(kind: str, matrix: List[List[int]], interval=None, upper_bound=math.inf):
    """``(cost, nodes_explored)`` of a serial ``repro.core.solve``."""
    from repro.core import Interval, solve

    problem = build_problem(kind, matrix)
    result = solve(
        problem,
        interval=None if interval is None else Interval(*interval),
        initial_upper_bound=upper_bound,
    )
    return result.cost, result.stats.nodes_explored


def build_problem(kind: str, matrix: List[List[int]]):
    if kind == "flowshop":
        from repro.problems.flowshop import FlowShopInstance, FlowShopProblem

        return FlowShopProblem(FlowShopInstance(matrix, name="bench"))
    from repro.problems.tsp import TSPInstance, TSPProblem

    return TSPProblem(TSPInstance(matrix, name="bench"))


def slice_interval(name: str) -> List[int]:
    return [0, math.factorial(20) // SLICES[name]["denominator"]]


def _slice_entry(matrix: List[List[int]], name: str) -> Dict[str, Any]:
    interval = slice_interval(name)
    optimum, nodes = serial_proof("flowshop", matrix, interval)
    entry: Dict[str, Any] = {
        "interval": [str(interval[0]), str(interval[1])],
        "denominator": SLICES[name]["denominator"],
        "optimum": optimum,
    }
    gap = SLICES[name]["upper_bound_gap"]
    if gap is None:
        entry["serial_nodes"] = nodes
    else:
        entry["initial_upper_bound"] = optimum + gap
        _, entry["serial_nodes"] = serial_proof(
            "flowshop", matrix, interval, optimum + gap
        )
    return entry


def _job_entries(rng: random.Random, flowshops: int, tsps: int) -> List[Dict[str, Any]]:
    jobs = []
    for index in range(flowshops + tsps):
        if index < flowshops:
            kind, matrix = "flowshop", flowshop_matrix(rng, 8, 4)
        else:
            kind, matrix = "tsp", tsp_matrix(rng, 10)
        optimum, nodes = serial_proof(kind, matrix)
        jobs.append(
            {"kind": kind, "matrix": matrix, "optimum": optimum, "serial_nodes": nodes}
        )
    return jobs


def build_reference() -> Dict[str, Any]:
    """Recompute every input and every optimum from scratch."""
    from repro.problems.flowshop import taillard_instance

    ta021 = taillard_instance(20, 20, 1).processing_times.tolist()
    rng = random.Random(CATALOGUE_SEED)
    return {
        "ta021": {
            "matrix": ta021,
            "slices": {name: _slice_entry(ta021, name) for name in SLICES},
        },
        "jobs": _job_entries(rng, CATALOGUE_FLOWSHOPS, CATALOGUE_TSPS),
        "smoke_jobs": _job_entries(rng, 6, 3),
    }


def load_reference() -> Dict[str, Any]:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def verify() -> List[str]:
    """Re-prove every recorded optimum serially; return the mismatches."""
    recorded = load_reference()
    fresh = build_reference()
    problems = []
    for name, entry in recorded["ta021"]["slices"].items():
        got = fresh["ta021"]["slices"][name]
        for key in ("interval", "optimum", "initial_upper_bound"):
            if entry.get(key) != got.get(key):
                problems.append(f"ta021 slice {name}: {key} {entry.get(key)} != {got.get(key)}")
    if recorded["ta021"]["matrix"] != fresh["ta021"]["matrix"]:
        problems.append("ta021 processing times differ from the Taillard generator")
    for group in ("jobs", "smoke_jobs"):
        for index, (entry, got) in enumerate(zip(recorded[group], fresh[group])):
            if entry["matrix"] != got["matrix"]:
                problems.append(f"{group}[{index}]: instance differs from its generator")
            if entry["optimum"] != got["optimum"]:
                problems.append(
                    f"{group}[{index}] ({entry['kind']}): recorded optimum "
                    f"{entry['optimum']}, serial solve proves {got['optimum']}"
                )
    return problems


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite reference.json")
    args = parser.parse_args(argv)
    if not args.write:
        parser.print_help()
        return 2
    reference = build_reference()
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH.name}: {len(reference['jobs'])} service jobs, "
          f"{len(reference['ta021']['slices'])} Ta021 slices")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.exit(main(sys.argv[1:]))
