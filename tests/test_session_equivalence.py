"""The session builder's acceptance bar: every plan == the serial plan.

For every row of the historical equivalence matrix — the twelve
engine shapes times fixed and Poisson sampling, ANS on/off, 1/2/7
shards, prefetch depths 1/2/4, in-flight 1/2/4 — ``TrainSession.build``
with the row's :class:`ExecutionPlan` must release *bitwise identical*
embedding tables (and dense parameters) to the serial plan at the same
seed and sampling.  The rows in :data:`UNEVEN` run on 61-row tables
under Zipf skew, so their shards own row ranges of different sizes.
"""

import numpy as np
import pytest

from repro import configs
from repro.data.skew import paper_skew_spec
from repro.nn import DLRM
from repro.session import ExecutionPlan, TrainSession
from repro.testing import make_loader, max_param_diff
from repro.train import DPConfig

DP = DPConfig(noise_multiplier=1.1, max_grad_norm=1.0, learning_rate=0.05)

#: The historical matrix, one row per (plan spec, reported algorithm
#: label, sampling) combination.
MATRIX = [
    ("", "lazydp", "fixed"),
    ("", "lazydp", "poisson"),
    ("ans=off", "lazydp_no_ans", "fixed"),
    ("shards=1", "sharded_lazydp", "fixed"),
    ("shards=2", "sharded_lazydp", "poisson"),
    ("shards=7,backend=threads", "sharded_lazydp", "fixed"),
    ("ans=off,shards=2", "sharded_lazydp_no_ans", "fixed"),
    ("pipeline=1", "pipelined_lazydp", "fixed"),
    ("pipeline=2", "pipelined_lazydp", "poisson"),
    ("pipeline=4", "pipelined_lazydp", "fixed"),
    ("ans=off,pipeline=2", "pipelined_lazydp_no_ans", "fixed"),
    ("shards=2,pipeline=2", "pipelined_sharded_lazydp", "fixed"),
    ("shards=7,pipeline=4,backend=threads", "pipelined_sharded_lazydp",
     "poisson"),
    ("ans=off,shards=7,pipeline=2",
     "pipelined_sharded_lazydp_no_ans", "fixed"),
    ("async=strict,inflight=1", "async_lazydp", "fixed"),
    ("async=strict,inflight=2", "async_lazydp", "poisson"),
    ("async=strict,inflight=4,pipeline=4", "async_lazydp", "fixed"),
    ("ans=off,async=strict,inflight=2", "async_lazydp_no_ans", "fixed"),
    ("shards=2,async=strict,inflight=2", "async_sharded_lazydp", "fixed"),
    ("shards=7,async=strict,inflight=4,backend=threads",
     "async_sharded_lazydp", "poisson"),
    ("ans=off,shards=2,async=strict,inflight=2",
     "async_sharded_lazydp_no_ans", "fixed"),
]


#: Matrix rows trained on 61-row tables (``rows % shards != 0``) under
#: Zipf skew.
UNEVEN = {
    "shards=7,backend=threads",
    "ans=off,shards=2",
    "ans=off,shards=7,pipeline=2",
}


def matrix_id(case):
    spec, label, sampling = case
    return f"{label}[{spec}]-{sampling}"


@pytest.fixture
def config():
    return configs.tiny_dlrm(num_tables=3, rows=64, dim=8, lookups=2)


def train(config, plan, sampling, skew=None):
    """Fresh model + the shared deterministic workload; returns
    ``(model, trainer)``.  ``skew`` skews the trace."""
    model = DLRM(config, seed=7)
    with TrainSession.build(model, DP, plan, noise_seed=99) as session:
        session.fit(make_loader(
            config, batch_size=16, num_batches=6, sampling=sampling, skew=skew
        ))
    return model, session.trainer


@pytest.mark.parametrize("case", MATRIX, ids=matrix_id)
def test_plan_matches_serial_plan_bitwise(config, case):
    spec, label, sampling = case
    plan = ExecutionPlan.from_spec(spec)
    assert ExecutionPlan.from_spec(plan.to_spec()) == plan

    skew = None
    if spec in UNEVEN:
        config = configs.tiny_dlrm(num_tables=3, rows=61, dim=8, lookups=2)
        skew = paper_skew_spec("high", 61)
    serial_model, _ = train(config, ExecutionPlan(ans=plan.ans), sampling, skew)
    plan_model, plan_trainer = train(config, plan, sampling, skew)

    assert max_param_diff(serial_model, plan_model) == 0.0
    assert plan_trainer.name == plan.legacy_name() == label


def test_async_plan_keeps_ledger_exact(config):
    """Beside the serial bits, the plan-built trainer accounts every
    noise value exactly once."""
    plan = ExecutionPlan.from_spec("async=strict,inflight=4")
    serial_model, _ = train(config, ExecutionPlan(), "fixed")
    model, trainer = train(config, plan, "fixed")
    assert max_param_diff(serial_model, model) == 0.0
    trainer.audit_noise_ledger(6)


def test_plan_built_histories_match_serial(config):
    """Beyond parameters: the deferred-noise bookkeeping agrees too."""
    _, serial_trainer = train(config, ExecutionPlan(), "fixed")
    _, plan_trainer = train(
        config, ExecutionPlan.from_spec("shards=3,pipeline=2"), "fixed"
    )
    for serial, built in zip(
        serial_trainer.engine.histories, plan_trainer.engine.histories
    ):
        np.testing.assert_array_equal(serial.snapshot(), built.snapshot())
