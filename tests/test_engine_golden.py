"""Golden exploration results: the engine loop must not drift.

Replays the corpus of ``tests/make_engine_golden.py`` and compares each
configuration with ``tests/data/engine_golden.json``: optimum,
solution, every ``ExplorationStats`` counter, the pool-occupancy
histogram, the wave spill count and, for sliced runs, the digest of
the ``StepReport`` sequence.  DFS and wave, pooled and scalar
(``kernel_backend="off"``), full and sub-interval runs are all pinned,
so the only way to change a number here is to regenerate the fixture
deliberately (and explain why in the change).
"""

import json

import pytest

from tests.make_engine_golden import FIXTURE, config_key, configs, problems, run

GOLDEN = json.loads(FIXTURE.read_text())
PROBLEMS = dict(problems())


def test_fixture_covers_the_corpus():
    keys = {
        config_key(name, config)
        for name in PROBLEMS
        for config in configs()
    }
    assert keys == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_matches_golden(name):
    factory = PROBLEMS[name]
    for config in configs():
        key = config_key(name, config)
        assert run(factory, config) == GOLDEN[key], key
