"""The execution-backend registry: named ways to run shard tasks.

``ExecutionPlan.backend`` names an entry here:

* :func:`register_backend` — add a backend under a name, with the
  factory that binds *how shard tasks run* into the one
  :class:`repro.lazydp.trainer.LazyDPTrainer` and the set of plan axes
  the backend composes with;
* :func:`available_backends` — the registered names, in registration
  order (validation errors quote this list);
* :func:`backend_info` / :func:`parse_backend_spec` — lookup and the
  ``"name[:workers]"`` spec grammar the plan language uses
  (``backend=threads:4``, ``backend=process``).

Three backends ship built in:

``numpy``
    The default: in-process numpy kernels, shard tasks one after
    another on the calling thread.  The only built-in that supports
    *flat* (unsharded) plans.
``threads``
    The same in-process kernels fanned out over a persistent shard
    thread pool (``repro.shard.executor``).  ``:K`` caps the pool.
``process``
    One long-lived worker process per shard, each owning its embedding
    slab and history table in ``multiprocessing.shared_memory``
    (``repro.procshard``); shard tasks travel as messages.  ``:K`` must
    equal the shard count — the backend pins one worker per shard.

A backend is *how shard tasks run* and nothing else: all three run the
same kernels (``repro.kernels``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Every capability a backend may declare.  ``flat`` — supports
#: unsharded plans; ``shards``/``pipeline``/``async`` — composes with
#: that plan axis; ``workers`` — accepts a ``:K`` worker count in the
#: backend spec.
BACKEND_CAPABILITIES = ("flat", "shards", "pipeline", "async", "workers")


@dataclass(frozen=True)
class BackendInfo:
    """One registered execution backend."""

    name: str
    #: ``factory(*, num_shards, workers)`` -> the trainer constructor
    #: for this backend: :class:`repro.lazydp.trainer.LazyDPTrainer`
    #: with the backend's :class:`repro.shard.ShardExecutor` bound in
    #: (or the process backend's subclass, which owns its workers).
    #: Called as ``constructor(model, dp, noise_seed=, use_ans=,
    #: partition=, scheduler=, schedule=)``.
    factory: object
    capabilities: frozenset = field(default_factory=frozenset)
    description: str = ""

    def supports(self, capability: str) -> bool:
        return capability in self.capabilities


_REGISTRY: dict = {}


def register_backend(
    name: str,
    factory,
    capabilities=(),
    description: str = "",
) -> BackendInfo:
    """Register an execution backend under ``name``.

    ``factory`` is called by :meth:`repro.session.TrainSession.build`
    with the plan's shard count and the spec's worker count
    (keyword-only ``num_shards``/``workers``) and must return the
    trainer constructor with the backend's way of running shard tasks
    bound in (see :attr:`BackendInfo.factory`).  ``capabilities``
    declares which plan axes the backend composes with (subset of
    :data:`BACKEND_CAPABILITIES`); plan validation rejects combinations
    outside it with a named reason.
    """
    if not name or not name.replace("_", "").isalnum():
        raise ValueError(
            f"backend name must be alphanumeric (got {name!r}); the "
            "spec grammar reserves ':' for the worker count"
        )
    if name in _REGISTRY:
        raise ValueError(
            f"backend {name!r} is already registered "
            f"(registered: {', '.join(available_backends())})"
        )
    if not callable(factory):
        raise ValueError(f"backend factory must be callable, got {factory!r}")
    capabilities = frozenset(capabilities)
    unknown = sorted(capabilities - set(BACKEND_CAPABILITIES))
    if unknown:
        raise ValueError(
            f"unknown backend capabilities: {', '.join(unknown)} "
            f"(choose from {', '.join(BACKEND_CAPABILITIES)})"
        )
    info = BackendInfo(
        name=name,
        factory=factory,
        capabilities=capabilities,
        description=description,
    )
    _REGISTRY[name] = info
    return info


def available_backends() -> tuple:
    """Registered backend names, in registration order."""
    return tuple(_REGISTRY)


def backend_info(name: str) -> BackendInfo:
    """The :class:`BackendInfo` for ``name`` (raises with the list of
    registered names otherwise — the extension point's discoverable
    error surface)."""
    info = _REGISTRY.get(name)
    if info is None:
        raise ValueError(
            f"unknown backend: {name!r} (registered: "
            f"{', '.join(available_backends())}; add one with "
            "repro.session.register_backend)"
        )
    return info


def parse_backend_spec(spec: str) -> tuple:
    """Split a ``"name[:workers]"`` backend spec into ``(name, workers)``.

    Validates that ``name`` is registered and that a ``:workers``
    suffix is only used with backends declaring the ``workers``
    capability (``numpy:4`` is rejected — the serial backend admits no
    worker count).
    """
    if not isinstance(spec, str):
        raise ValueError(f"backend must be a string, got {type(spec).__name__}")
    name, separator, suffix = spec.partition(":")
    info = backend_info(name)
    if not separator:
        return name, None
    try:
        workers = int(suffix)
    except ValueError:
        raise ValueError(
            f"invalid backend spec: {spec!r} — the worker count after "
            "':' must be an integer"
        ) from None
    if workers < 1:
        raise ValueError(
            f"invalid backend spec: {spec!r} — the worker count must be "
            "positive"
        )
    if not info.supports("workers"):
        counted = ", ".join(
            n for n in available_backends() if _REGISTRY[n].supports("workers")
        )
        raise ValueError(
            f"invalid backend spec: {spec!r} — backend {name!r} admits "
            f"no worker count (only {counted} do)"
        )
    return name, workers


# ---------------------------------------------------------------------------
# Built-in backends.
# ---------------------------------------------------------------------------


def _numpy_factory(*, num_shards: int, workers):
    from ..lazydp.trainer import LazyDPTrainer

    return LazyDPTrainer  # its default: shard tasks serially, in shard order


def _threads_factory(*, num_shards: int, workers):
    from functools import partial

    from ..lazydp.trainer import LazyDPTrainer
    from ..shard.executor import ThreadPoolShardExecutor

    # One worker per shard unless capped: tasks are shard-grained, so
    # more workers than shards cannot help.
    pool = partial(ThreadPoolShardExecutor, workers or max(num_shards, 1))
    return partial(LazyDPTrainer, executors=pool)


def _process_factory(*, num_shards: int, workers):
    from ..procshard.trainer import ProcessShardedLazyDPTrainer

    return ProcessShardedLazyDPTrainer


register_backend(
    "numpy",
    _numpy_factory,
    capabilities=("flat", "shards", "pipeline", "async"),
    description="in-process numpy kernels, serial per-shard schedule",
)
register_backend(
    "threads",
    _threads_factory,
    capabilities=("shards", "pipeline", "async", "workers"),
    description="in-process numpy kernels on a persistent shard thread pool",
)
register_backend(
    "process",
    _process_factory,
    capabilities=("shards", "workers"),
    description=(
        "one worker process per shard, slab and history in shared memory"
    ),
)
