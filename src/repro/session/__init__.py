"""The session API: an ExecutionPlan built into the one trainer.

* :class:`ExecutionPlan` — the eight keys of the ``--plan`` spec
  language as eight scalar fields (``ans``, ``shards``, ``pipeline``,
  ``async_``, ``inflight``, ``obs``, ``serve``, ``backend``), with the
  spec round trip; ``backend``
  names one of three fixed ways shard tasks run (``numpy``,
  ``threads[:K]``, ``process``);
* :class:`TrainSession` — ``TrainSession.build(model, dp, plan)`` turns
  the fields into a shard count, a scheduler and a backend-bound
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

__all__ = ["ExecutionPlan", "TrainSession", "make_trainer"]
