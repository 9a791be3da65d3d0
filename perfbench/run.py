"""Time-to-proof benchmark of the grid Branch and Bound, layer by layer.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload solve-ta021 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the program as is;
``--trace 1`` wraps every layer boundary (see ``layers.py``) and reports
the per-layer metrics instead.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The lines before it give the host and input fingerprint and every
metric by name with its unit.

Other modes::

    python3 perfbench/run.py --verify     # re-prove every reference optimum
    python3 perfbench/run.py --smoke ...  # tiny inputs, seconds per workload

Workloads, metrics and baselines are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: Seed kept out of tuning: a later change confirms its claim on it.
HELD_OUT_SEED = 90017


def host_fingerprint() -> Dict[str, Any]:
    import numpy
    import scipy

    from repro.core.kernels import pool_evaluator_for
    from reference import build_problem

    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    backends = {}
    for kind, matrix in (("flowshop", [[1, 2], [3, 4], [5, 6]]),
                         ("tsp", [[0, 1, 2], [1, 0, 3], [2, 3, 0]])):
        evaluator = pool_evaluator_for(build_problem(kind, matrix))
        backends[kind] = (
            "off" if evaluator is None
            else f"{type(evaluator).__module__}.{type(evaluator).__qualname__}"
        )
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_available": importlib.util.find_spec("numba") is not None,
        "kernel_backend_auto": backends,
    }


def source_fingerprint() -> Dict[str, Any]:
    """The git commit when the checkout is a repository, and always a
    digest of ``src/`` (checkouts without ``.git`` have only that)."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.is_file() else None
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


def declared_metrics(traced: bool) -> List[Dict[str, Any]]:
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    return spec["per_layer" if traced else "end_to_end"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="time-to-proof benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: every workload in seconds")
    parser.add_argument("--verify", action="store_true",
                        help="re-prove every reference optimum serially and exit")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import reaper
    import reference
    import workloads

    if args.verify:
        problems = reference.verify()
        for problem in problems:
            print(f"MISMATCH {problem}")
        print("reference optima verified" if not problems else f"{len(problems)} mismatches")
        return 1 if problems else 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    tmp_root = ROOT / ".perfbench-tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    context = workloads.Context(
        seed=args.seed,
        seconds=args.seconds,
        traced=bool(args.trace),
        smoke=args.smoke,
        reference=reference.load_reference(),
        tmp=tmp,
    )
    reaper.adopt_orphans()
    try:
        outcome = workloads.WORKLOADS[args.workload](context)
    finally:
        stray = reaper.reap_children()
        if stray:
            print(f"warning: ended {stray} process(es) still running after the workload",
                  file=sys.stderr)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run still uses it

    fingerprint = {
        "host": host_fingerprint(),
        "inputs": dict(
            source_fingerprint(),
            workload=args.workload,
            seed=args.seed,
            held_out_seed=HELD_OUT_SEED,
            seconds=args.seconds,
            trace=args.trace,
            smoke=args.smoke,
            **outcome.inputs,
        ),
    }
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    for reason in outcome.failures:
        print(f"FAILED {reason}")
    failed = len(outcome.failures)
    failed_frac = failed / max(outcome.attempted, 1)
    print(f"proofs attempted {outcome.attempted}, failed {failed}")
    if args.trace:
        outcome.metrics["failed_frac"] = failed_frac
    else:
        print(f"failed_frac = {failed_frac:.6g} ratio")
    metrics = {}
    for metric in declared_metrics(bool(args.trace)):
        value = outcome.metrics[metric["name"]]
        print(f"{metric['name']} = {value:.6g} {metric['unit']}")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
