"""The session API: an ExecutionPlan built into the one trainer.

* :class:`ExecutionPlan` — orthogonal execution axes (``ans``,
  ``shards``, ``pipeline``, ``async_``, ``backend``, ``obs``,
  ``serve``) with dict/spec round-trip serialization;
* the execution-backend registry — :func:`register_backend` /
  :func:`available_backends` / :func:`backend_info` — resolving the
  plan's ``backend`` axis (``numpy``, ``threads[:K]``, ``process``) to
  how shard tasks run; the extension point new backends plug into;
* :class:`TrainSession` — ``TrainSession.build(model, dp, plan)`` turns
  the axes into a partition, a scheduler and a backend-bound
  :class:`repro.lazydp.trainer.LazyDPTrainer`, and owns the resulting
  trainer's lifecycle, private release, and serving attachment;
* :func:`make_trainer` — the paper's seven algorithms by name (the
  five baselines, and ``lazydp`` / ``lazydp_no_ans``: the serial plan
  with ``ans=on|off``).

Quickstart::

    from repro import DLRM, DPConfig, configs
    from repro.session import ExecutionPlan, TrainSession

    plan = ExecutionPlan.from_spec("shards=4,pipeline=2,ans=on")
    session = TrainSession.build(DLRM(configs.tiny_dlrm(), seed=0),
                                 DPConfig(), plan)
    result = session.fit(loader)
    handle = session.serve()          # tracks the live trainer
    session.close()
"""

from .builder import TrainSession, make_trainer
from .plan import ExecutionPlan
from .registry import (
    BACKEND_CAPABILITIES,
    BackendInfo,
    available_backends,
    backend_info,
    parse_backend_spec,
    register_backend,
)

__all__ = [
    "BACKEND_CAPABILITIES",
    "BackendInfo",
    "ExecutionPlan",
    "TrainSession",
    "available_backends",
    "backend_info",
    "make_trainer",
    "parse_backend_spec",
    "register_backend",
]
