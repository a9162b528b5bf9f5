"""Re-export only: ``benchmarks/e2e/tracing.py`` patches
``repro.shard.trainer.apply_sparse_update`` by module path.  The one
flush loop lives in :mod:`repro.lazydp.optimizer`; a later benchmark PR
can drop this module together with that patch entry."""

from ..kernels import apply_sparse_update  # noqa: F401
