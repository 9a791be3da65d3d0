"""Generate ``tests/data/engine_golden.json``: pinned engine results.

Runs a fixed corpus of small solves through :class:`IntervalExplorer`
and records, per configuration, the optimum, the optimal solution,
every :class:`ExplorationStats` counter, the pool-occupancy histogram
and the wave spill count.  Sliced runs (``step(n)`` until finished)
also record a digest of their :class:`StepReport` sequence.
``tests/test_engine_golden.py`` replays the corpus and asserts the
results are identical, so a refactor of the exploration loop cannot
drift node counts or pool occupancy unnoticed.

The corpus: flowshop 7x4 (seeds 0-5, bounds lb1 / lb2 / combined),
TSP with 7 cities and QAP of size 6 (seeds 0-1 each); DFS and wave;
``kernel_backend`` auto or ``"numpy"``; pool sizes 1, 3 and 64; wave
widths 1, 4 and 32768; the scalar oracle (``kernel_backend="off"``,
lazy ``lower_bound`` on pop) on full and sub-intervals.

Run from the repository root::

    PYTHONPATH=src python tests/make_engine_golden.py

It takes a few seconds and overwrites the fixture.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.core import Incumbent, Interval, IntervalExplorer
from repro.problems.flowshop import FlowShopProblem, random_instance
from repro.problems.qap import QAPProblem, random_qap
from repro.problems.tsp import TSPProblem, random_tsp

FIXTURE = Path(__file__).resolve().parent / "data" / "engine_golden.json"

POOL_SIZES = (1, 3, 64)
WIDTHS = (1, 4, 32768)
SLICES = (1, 7, 50)


def problems() -> Iterator[Tuple[str, Any]]:
    """``(name, factory)`` for every problem of the corpus."""
    for seed in range(6):
        for bound in ("lb1", "lb2", "combined"):
            yield f"flowshop-7x4-s{seed}-{bound}", (
                lambda seed=seed, bound=bound: FlowShopProblem(
                    random_instance(7, 4, seed=seed), bound=bound
                )
            )
    for seed in range(2):
        yield f"tsp-7-s{seed}", (
            lambda seed=seed: TSPProblem(random_tsp(7, seed=seed))
        )
        yield f"qap-6-s{seed}", (
            lambda seed=seed: QAPProblem(random_qap(6, seed=seed))
        )


def configs() -> Iterator[Dict[str, Any]]:
    """Explorer configurations run on every problem of the corpus."""
    for backend in (None, "numpy"):
        for pool_size in POOL_SIZES:
            yield {"frontier": "dfs", "kernel_backend": backend,
                   "pool_size": pool_size}
            for width in WIDTHS:
                yield {"frontier": "wave", "kernel_backend": backend,
                       "pool_size": pool_size, "frontier_width": width}
    yield {"frontier": "dfs", "kernel_backend": "off"}
    for pool_size in POOL_SIZES:
        for width in WIDTHS:
            yield {"frontier": "wave", "kernel_backend": "off",
                   "pool_size": pool_size, "frontier_width": width}
    for frontier in ("dfs", "wave"):
        yield {"frontier": frontier, "kernel_backend": "off",
               "pool_size": 3, "frontier_width": 4, "sub_interval": True}
    for n in SLICES:
        yield {"frontier": "dfs", "pool_size": 3, "step": n}
        yield {"frontier": "wave", "pool_size": 3, "frontier_width": 4,
               "step": n}
        yield {"frontier": "wave", "pool_size": 64, "step": n}


def config_key(name: str, config: Dict[str, Any]) -> str:
    parts = [name] + [f"{k}={config[k]}" for k in sorted(config)]
    return "|".join(parts)


def _plain(value: Any) -> Any:
    """JSON-comparable form (numpy scalars -> Python, tuples -> lists)."""
    return json.loads(json.dumps(value, default=lambda v: v.tolist()))


def run(factory: Any, config: Dict[str, Any]) -> Dict[str, Any]:
    """One configuration's pinned results (the fields the fixture holds)."""
    config = dict(config)
    step_size: Optional[int] = config.pop("step", None)
    sub_interval = config.pop("sub_interval", False)
    problem = factory()
    interval = None
    if sub_interval:
        total = problem.total_leaves()
        interval = Interval(total // 4, 3 * total // 4)
    # Seed the incumbent exactly as ``solve`` does.
    incumbent = Incumbent()
    warm = problem.warm_start()
    if warm is not None:
        incumbent.update(*warm)
    explorer = IntervalExplorer(
        problem, interval, incumbent=incumbent, **config
    )
    record: Dict[str, Any] = {}
    if step_size is None:
        explorer.run()
    else:
        reports = []
        while not explorer.is_finished():
            report = explorer.step(step_size)
            reports.append(
                [report.nodes_processed, report.finished, report.improved]
            )
        record["steps"] = len(reports)
        record["steps_sha256"] = hashlib.sha256(
            json.dumps(reports).encode()
        ).hexdigest()
    cost = explorer.incumbent.cost
    record.update(
        cost=None if cost == math.inf else cost,
        solution=explorer.incumbent.solution,
        stats=vars(explorer.stats),
        pool_occupancy={str(k): v for k, v in
                        sorted(explorer.pool_occupancy.items())},
        frontier_spills=explorer.frontier_spills,
    )
    return _plain(record)


def generate() -> Dict[str, Any]:
    return {
        config_key(name, config): run(factory, config)
        for name, factory in problems()
        for config in configs()
    }


def main() -> int:
    golden = generate()
    FIXTURE.parent.mkdir(exist_ok=True)
    # One configuration per line keeps the fixture's diffs readable.
    lines = ",\n".join(
        f"{json.dumps(key)}: {json.dumps(golden[key], sort_keys=True)}"
        for key in sorted(golden)
    )
    FIXTURE.write_text("{\n" + lines + "\n}\n")
    print(f"wrote {len(golden)} configurations to {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
