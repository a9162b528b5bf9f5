"""Every engine number in one place.

``TrainSession.stats()`` is the plan, the algorithm, the trainer's stats
tree (``kernel``, ``shards``, ``pipeline``, ``async``, ``procshard``),
``serving`` and the live ``metrics``.  Each is a top-level section, no
section holds a copy of another, and a counter the engines keep is
stored once: the metrics registry records only what nothing else does.
"""

import json

import numpy as np
import pytest

from repro import configs
from repro.nn import DLRM
from repro.session import ExecutionPlan, TrainSession
from repro.testing import make_loader
from repro.train import DPConfig

SPECS = (
    "shards=2,pipeline=2,async=strict,inflight=2,backend=threads:2,"
    "obs=metrics,serve=16",
    "obs=metrics,serve=16",
    "shards=2,backend=process,obs=metrics,serve=16",
)

SECTIONS = ("kernel", "shards", "pipeline", "async", "procshard",
            "serving", "metrics")

#: What a serving engine counts (its ``stats()``), and nothing else does.
SERVING_COUNTERS = ("rows_served", "rows_caught_up", "memo_hits",
                    "refreshes", "memo_allocs")


def walk(node, path=()):
    """Every ``(path, value)`` of a stats tree, the root included."""
    yield path, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from walk(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from walk(value, path + (index,))


@pytest.fixture(scope="module", params=SPECS)
def served(request):
    """A fitted session with an attached, cached engine that looked up
    ``[1, 2, 3, 1]`` and then ``[1, 2, 3]``; yields (session, result)."""
    config = configs.tiny_dlrm(num_tables=2, rows=64, dim=8, lookups=2)
    session = TrainSession.build(
        DLRM(config, seed=7), DPConfig(),
        ExecutionPlan.from_spec(request.param), noise_seed=99,
    )
    try:
        result = session.fit(make_loader(config, batch_size=16, num_batches=4))
        engine = session.serve()
        engine.lookup(0, np.array([1, 2, 3, 1]))
        engine.lookup(0, np.array([1, 2, 3]))
        yield session, result
    finally:
        session.close()


def test_no_section_nests_another(served):
    session, _ = served
    stats = session.stats()
    sections = {name: stats[name] for name in SECTIONS if name in stats}
    assert {"kernel", "serving", "metrics"} <= sections.keys()
    for name, section in sections.items():
        for other, body in sections.items():
            if other != name:
                copies = [path for path, node in walk(body) if node == section]
                assert not copies, f"{other} holds a copy of {name}: {copies}"
    json.dumps(stats)


def test_serving_counters_appear_only_under_serving(served):
    session, _ = served
    stats = session.stats()
    for name in SERVING_COUNTERS:
        assert name in stats["serving"][0]
    outside = [
        path
        for section, body in stats.items() if section != "serving"
        for path, _ in walk(body, (section,))
        if path and isinstance(path[-1], str)
        and (path[-1] in SERVING_COUNTERS or path[-1].startswith("serve."))
    ]
    assert outside == []


def test_the_cache_miss_count_has_one_value(served):
    session, _ = served
    misses = [
        (path, value)
        for path, value in walk(session.stats())
        if path and isinstance(path[-1], str) and path[-1].endswith("misses")
        and any("cache" in str(step) for step in path)
    ]
    # Both lookups probe the cache and miss: 4 rows, then 3 (the first
    # offer leaves each row one serve short of admission).
    assert misses == [(("serving", 0, "cache", "misses"), 7)]


def test_the_tree_keeps_what_the_registry_dropped(served):
    session, result = served
    stats = session.stats()
    gauges = stats["metrics"]["gauges"]
    assert set(gauges) == {"rng.philox_launches"}
    assert stats["metrics"]["counters"].keys() <= {
        "pipeline.prefetch_hits", "pipeline.prefetch_misses"
    }
    if session.plan.is_sharded:
        assert stats["shards"]["update_seconds"] == \
            result.shard_times["update_seconds"]
    else:
        # The one shard reports into the trainer's own timer; the fit
        # adds only its page-fault count.
        assert "shards" not in stats
        (shard,) = stats["kernel"]["shards"]
        counters = dict(result.counters)
        assert counters.pop("minor_faults") >= 0
        assert shard["timer_counters"] == counters
