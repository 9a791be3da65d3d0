"""Smoke test of the benchmark itself: every workload, untraced and
traced, at tiny scale, so the harness cannot silently rot.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


#: Runs the benchmark command given as arguments as a child subreaper,
#: so whatever the run leaves behind becomes this process's child, and
#: reports on stderr how many such processes there were.
SUBREAPER = """
import subprocess, sys
sys.path.insert(0, "perfbench")
import reaper
adopted = reaper.adopt_orphans()
code = subprocess.run(sys.argv[1:]).returncode
print(f"left behind {len(reaper.children()) if adopted else 'unknown'}", file=sys.stderr)
reaper.reap_children()
sys.exit(code)
"""


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload: str, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, "-c", SUBREAPER,
         sys.executable, "perfbench/run.py", "--smoke", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0, proc.stdout[-3000:]
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        if not trace:
            assert reported["value"] > 0, metric["name"]
    assert "fingerprint " in proc.stdout
    left = proc.stderr.strip().splitlines()[-1]
    assert left in ("left behind 0", "left behind unknown"), left


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-ta021",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
