"""The lane shard executor: every shard task finishes before a failure
surfaces.

A shard task writes its slab and ledger window; an audit that runs on
the error path must not race a shard still writing.  So the executor,
whose shard tasks are items of ``repro.kernels.lanes.fan_out``, waits
for every task and then raises the lowest-index failure — the contract
``fan_out`` keeps for the release walk.  On a one-CPU host the tasks run
inline, in shard order, under the same contract.  (The serial executor
runs one task at a time: nothing is left running when a task raises.)
"""

import time

import pytest

from repro.shard.executor import SerialExecutor, ThreadPoolShardExecutor


class ShardFailed(RuntimeError):
    pass


def shard_tasks(finished: list, failing: set, slow: float = 0.3) -> list:
    """Three shard tasks: the ``failing`` ones raise at once, the others
    sleep ``slow`` seconds, then record that they finished."""

    def task(shard):
        def run():
            if shard in failing:
                raise ShardFailed(f"shard {shard}")
            time.sleep(slow)
            finished.append(shard)
            return shard

        return run

    return [task(shard) for shard in range(3)]


@pytest.fixture
def pool():
    return ThreadPoolShardExecutor()


@pytest.mark.parametrize("make", [SerialExecutor, ThreadPoolShardExecutor])
def test_results_come_back_in_shard_order(make):
    assert make().run(shard_tasks([], set(), slow=0.0)) == [0, 1, 2]


def test_a_failure_waits_for_every_other_shard(pool):
    finished: list = []
    with pytest.raises(ShardFailed, match="shard 0"):
        pool.run(shard_tasks(finished, {0}))
    # Shard 0 raised at once, while shards 1 and 2 were still sleeping.
    assert sorted(finished) == [1, 2]


def test_the_lowest_index_failure_is_raised(pool):
    finished: list = []
    with pytest.raises(ShardFailed, match="shard 1"):
        pool.run(shard_tasks(finished, {1, 2}))
    assert finished == [0]


def test_the_pool_runs_on_after_a_failure(pool):
    with pytest.raises(ShardFailed):
        pool.run(shard_tasks([], {0}, slow=0.0))
    assert pool.run(shard_tasks([], set(), slow=0.0)) == [0, 1, 2]
