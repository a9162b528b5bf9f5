"""ExecutionPlan: the orthogonal execution axes of a LazyDP training run.

The paper's contributions — lazy deferred noise, aggregated noise
sampling, prefetch pipelining — and the engines this repo grew around
them (sharded tables, async in-flight applies) are *orthogonal
execution concerns*: any combination trains the same model to the same
bits.  An :class:`ExecutionPlan` names a combination by its axes:

``ans``
    Aggregated noise sampling on/off (the algorithmic ablation axis).
``shards``
    ``None`` for flat tables, or a :class:`repro.configs.ShardConfig`
    partitioning every table (``repro.shard``).  One shard *is* the
    flat engine: the builder decides that from the shard count.
``pipeline``
    ``None`` for inline catch-up, or a
    :class:`repro.configs.PipelineConfig` for background noise prefetch
    (``repro.pipeline`` mechanisms).
``async_``
    ``None`` for synchronous applies, or a
    :class:`repro.configs.AsyncConfig` for multi-in-flight applies
    (``repro.async_`` mechanisms; implies the pipeline axis — when
    ``pipeline`` is ``None`` the prefetch depth defaults to
    ``max(2, max_in_flight)``).
``backend``
    Execution backend, as a ``"name[:workers]"`` spec resolved against
    the registry in :mod:`repro.session.registry` — ``"numpy"``
    (default, in-process serial schedule), ``"threads[:K]"`` (shard
    thread pool), ``"process"`` (one worker process per shard, slabs in
    shared memory; ``repro.procshard``).  A backend is *how shard tasks
    run*; new ones land as ``register_backend`` calls.
``obs``
    ``None`` for an uninstrumented run, or a
    :class:`repro.configs.ObservabilityConfig` selecting tracing
    and/or metrics (``repro.obs``).  Unlike the other axes this is an
    *instance* concern — the session builder instruments the built
    trainer.
``serve``
    ``None`` for uncached serving handles, or a
    :class:`repro.configs.ServeConfig` sizing the skew-aware hot-row
    cache ``TrainSession.serve`` puts in front of each serving engine
    (``repro.serve``).  Like ``obs`` this is an instance concern: it
    configures the handles the session hands out, not the trainer.

Plans serialize three ways: :meth:`to_dict`/:meth:`from_dict` (nested
JSON, for configs and BENCH_*.json metadata), :meth:`to_spec`/
:meth:`from_spec` (the flat ``"shards=4,pipeline=2,async=bounded:2"``
mini-language the CLI's ``--plan`` flag speaks), and
:meth:`legacy_name` (the ``TrainResult.algorithm`` label).
``from_spec(to_spec(p)) == p`` and ``from_dict(to_dict(p)) == p`` hold
for every valid plan.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..configs import (
    AsyncConfig,
    ObservabilityConfig,
    PipelineConfig,
    ServeConfig,
    ShardConfig,
)
from .registry import backend_info, parse_backend_spec

_SPEC_KEYS = (
    "ans",
    "shards",
    "partition",
    "pipeline",
    "async",
    "inflight",
    "obs",
    "serve",
    "admission",
    "backend",
)

_TRUE_WORDS = ("on", "true", "yes", "1")
_FALSE_WORDS = ("off", "false", "no", "0")


def _parse_bool(key: str, value: str) -> bool:
    word = value.strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise ValueError(
        f"invalid plan spec: {key}={value!r} is not a boolean "
        f"(use one of {'/'.join(_TRUE_WORDS)} or {'/'.join(_FALSE_WORDS)})"
    )


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(
            f"invalid plan spec: {key}={value!r} is not an integer"
        ) from None


@dataclass(frozen=True)
class ExecutionPlan:
    """One training run's execution strategy, one field per axis."""

    ans: bool = True
    shards: ShardConfig | None = None
    pipeline: PipelineConfig | None = None
    async_: AsyncConfig | None = None
    backend: str = "numpy"
    obs: ObservabilityConfig | None = None
    serve: ServeConfig | None = None

    def __post_init__(self):
        if self.shards is not None and not isinstance(self.shards, ShardConfig):
            raise ValueError("shards must be a ShardConfig or None")
        if self.pipeline is not None and not isinstance(
            self.pipeline, PipelineConfig
        ):
            raise ValueError("pipeline must be a PipelineConfig or None")
        if self.async_ is not None and not isinstance(self.async_, AsyncConfig):
            raise ValueError("async_ must be an AsyncConfig or None")
        if self.obs is not None and not isinstance(
            self.obs, ObservabilityConfig
        ):
            raise ValueError("obs must be an ObservabilityConfig or None")
        if self.serve is not None and not isinstance(
            self.serve, ServeConfig
        ):
            raise ValueError("serve must be a ServeConfig or None")
        # Registry validation runs on the canonical form: the backend
        # must be registered and must declare a capability for every
        # axis this plan switches on.
        name, workers = parse_backend_spec(self.backend)
        info = backend_info(name)
        if self.shards is None:
            if not info.supports("flat"):
                raise ValueError(
                    f"backend {name!r} requires the shards axis "
                    f"(plan spec: shards=N,backend={name})"
                )
        elif not info.supports("shards"):
            raise ValueError(
                f"backend {name!r} does not compose with the shards axis"
            )
        if self.pipeline is not None and not info.supports("pipeline"):
            raise ValueError(
                f"backend {name!r} does not compose with the pipeline "
                "axis: its workers already overlap noise preparation "
                "with the model update"
            )
        if self.async_ is not None and not info.supports("async"):
            raise ValueError(
                f"backend {name!r} does not compose with the async axis"
            )
        if (
            name == "process"
            and workers is not None
            and self.shards is not None
            and workers != self.shards.num_shards
        ):
            raise ValueError(
                f"invalid backend spec: process:{workers} pins one worker "
                f"process per shard, but the plan has "
                f"{self.shards.num_shards} shard(s) (use backend=process "
                f"or backend=process:{self.shards.num_shards})"
            )

    # -- derived shape -----------------------------------------------------
    @property
    def is_sharded(self) -> bool:
        """The shards axis is on (any count; one shard still runs as the
        flat engine, with the label of a sharded plan)."""
        return self.shards is not None

    @property
    def is_async(self) -> bool:
        return self.async_ is not None

    @property
    def is_pipelined(self) -> bool:
        """Background noise prefetch (explicit, or implied by async)."""
        return self.pipeline is not None or self.is_async

    def legacy_name(self) -> str:
        """The ``TrainResult.algorithm`` label for this combination
        (the historical algorithm-string spelling of the axes)."""
        prefix = "async_" if self.is_async else (
            "pipelined_" if self.is_pipelined else ""
        )
        sharded = "sharded_" if self.is_sharded else ""
        suffix = "" if self.ans else "_no_ans"
        return f"{prefix}{sharded}lazydp{suffix}"

    # -- dict round trip ---------------------------------------------------
    def to_dict(self) -> dict:
        """Nested JSON-serializable form; ``from_dict`` inverts it."""
        return {
            "ans": self.ans,
            "shards": None if self.shards is None else self.shards.to_dict(),
            "pipeline": (
                None if self.pipeline is None else self.pipeline.to_dict()
            ),
            "async": None if self.async_ is None else self.async_.to_dict(),
            "backend": self.backend,
            "obs": None if self.obs is None else self.obs.to_dict(),
            "serve": None if self.serve is None else self.serve.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExecutionPlan":
        if not isinstance(data, dict):
            raise ValueError(
                f"ExecutionPlan expects a mapping, got {type(data).__name__}"
            )
        known = {"ans", "shards", "pipeline", "async", "backend", "obs",
                 "serve"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown ExecutionPlan keys: {', '.join(unknown)} "
                f"(accepted: {', '.join(sorted(known))})"
            )
        shards = data.get("shards")
        pipeline = data.get("pipeline")
        async_ = data.get("async")
        obs = data.get("obs")
        serve = data.get("serve")
        return cls(
            ans=bool(data.get("ans", True)),
            shards=None if shards is None else ShardConfig.from_dict(shards),
            pipeline=(
                None if pipeline is None else PipelineConfig.from_dict(pipeline)
            ),
            async_=None if async_ is None else AsyncConfig.from_dict(async_),
            backend=data.get("backend", "numpy"),
            obs=None if obs is None else ObservabilityConfig.from_dict(obs),
            serve=None if serve is None else ServeConfig.from_dict(serve),
        )

    # -- spec round trip (the CLI's --plan mini-language) -------------------
    @classmethod
    def from_spec(cls, spec: str) -> "ExecutionPlan":
        """Parse ``"shards=4,pipeline=2,async=bounded:2,ans=off"``.

        Every key is optional (an empty spec is the serial flat plan);
        axis value ``0`` (or ``async=off``) switches an axis off
        explicitly.  Contradictory combinations — sub-keys without
        their axis, or ``async`` with ``pipeline=0`` — are rejected
        with a message naming the contradiction.
        """
        values: dict = {}
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            key, separator, value = item.partition("=")
            key = key.strip().lower()
            if not separator:
                raise ValueError(
                    f"invalid plan spec: {item!r} is not key=value "
                    f"(known keys: {', '.join(_SPEC_KEYS)})"
                )
            if key not in _SPEC_KEYS:
                raise ValueError(
                    f"invalid plan spec: unknown key {key!r} "
                    f"(known keys: {', '.join(_SPEC_KEYS)})"
                )
            if key in values:
                raise ValueError(f"invalid plan spec: duplicate key {key!r}")
            values[key] = value.strip()

        ans = _parse_bool("ans", values["ans"]) if "ans" in values else True
        backend = values.get("backend", "numpy")

        num_shards = (
            _parse_int("shards", values["shards"]) if "shards" in values else 0
        )
        if num_shards < 0:
            raise ValueError("invalid plan spec: shards must be >= 0")
        if num_shards == 0:
            if "partition" in values:
                raise ValueError(
                    "contradictory plan spec: partition requires shards>=1, "
                    "but the shards axis is off"
                )
            shards = None
        else:
            shards = ShardConfig(
                num_shards=num_shards,
                partition=values.get("partition", "row_range"),
            )

        depth = (
            _parse_int("pipeline", values["pipeline"])
            if "pipeline" in values
            else None
        )
        if depth is not None and depth < 0:
            raise ValueError("invalid plan spec: pipeline must be >= 0")
        pipeline = (
            PipelineConfig(prefetch_depth=depth)
            if depth
            else None
        )

        async_word = values.get("async", "off").lower()
        # Accept the same off-spellings the boolean keys do (plus
        # "none"), so "async=false" switches the axis off instead of
        # parsing as a staleness mode.
        async_off = async_word in _FALSE_WORDS + ("none",)
        if async_off:
            if "inflight" in values:
                raise ValueError(
                    "contradictory plan spec: inflight requires the async "
                    "axis (async=strict or async=bounded[:k])"
                )
            async_ = None
        else:
            if depth == 0:
                raise ValueError(
                    f"contradictory plan spec: async={async_word} needs the "
                    "noise-prefetch pipeline, but pipeline=0 disables it "
                    "(drop pipeline=0 or set a depth >= 1)"
                )
            async_ = AsyncConfig(
                max_in_flight=(
                    _parse_int("inflight", values["inflight"])
                    if "inflight" in values
                    else 2
                ),
                staleness=async_word,
            )

        obs_word = values.get("obs", "off").lower()
        if obs_word in _FALSE_WORDS + ("none",):
            obs = None
        else:
            modes = {"trace": False, "metrics": False}
            for token in obs_word.split("+"):
                token = token.strip()
                if token in ("all", "full"):
                    modes["trace"] = modes["metrics"] = True
                elif token in modes:
                    modes[token] = True
                else:
                    raise ValueError(
                        f"invalid plan spec: obs={obs_word!r} — unknown "
                        f"mode {token!r} (use trace, metrics, "
                        "trace+metrics, or off)"
                    )
            obs = ObservabilityConfig(**modes)

        serve_word = values.get("serve", "off").lower()
        if serve_word in _FALSE_WORDS + ("none",):
            # "serve=0" lands here too — the zero spelling every other
            # axis uses to switch off explicitly.
            if "admission" in values:
                raise ValueError(
                    "contradictory plan spec: admission requires the serve "
                    "axis (serve=<cache_rows>)"
                )
            serve = None
        else:
            serve = ServeConfig(
                cache_rows=_parse_int("serve", serve_word),
                admission=(
                    _parse_int("admission", values["admission"])
                    if "admission" in values
                    else 2
                ),
            )

        return cls(
            ans=ans,
            shards=shards,
            pipeline=pipeline,
            async_=async_,
            backend=backend,
            obs=obs,
            serve=serve,
        )

    def to_spec(self) -> str:
        """The canonical flat spec string; ``from_spec`` inverts it.

        Canonical form: ``ans`` always present, axis sub-keys spelled
        out whenever the axis is on, the default numpy backend
        omitted.  This is the string benchmarks put in
        BENCH_*.json metadata, so plan identity is comparable across
        reports.
        """
        parts = [f"ans={'on' if self.ans else 'off'}"]
        if self.shards is not None:
            parts.append(f"shards={self.shards.num_shards}")
            parts.append(f"partition={self.shards.partition}")
        if self.pipeline is not None:
            parts.append(f"pipeline={self.pipeline.prefetch_depth}")
        if self.async_ is not None:
            parts.append(f"async={self.async_.staleness}")
            parts.append(f"inflight={self.async_.max_in_flight}")
        if self.obs is not None:
            parts.append(f"obs={'+'.join(self.obs.modes())}")
        if self.serve is not None:
            parts.append(f"serve={self.serve.cache_rows}")
            parts.append(f"admission={self.serve.admission}")
        if self.backend != "numpy":
            parts.append(f"backend={self.backend}")
        return ",".join(parts)

    def canonical(self) -> str:
        """Alias for :meth:`to_spec` (the canonical plan string)."""
        return self.to_spec()
