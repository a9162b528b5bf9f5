"""ExecutionPlan: the orthogonal execution axes of a LazyDP training run.

The paper's contributions — lazy deferred noise, aggregated noise
sampling, prefetch pipelining — and the engines this repo grew around
them (sharded tables, async in-flight applies) are *orthogonal
execution concerns*: any combination trains the same model to the same
bits.  An :class:`ExecutionPlan` names a combination with the eight
keys of the ``--plan`` spec language, one scalar field per key, in spec
order:

``ans``
    Aggregated noise sampling on/off (the algorithmic ablation axis).
``shards``
    ``0`` for flat tables, or the number of contiguous equal-row ranges
    every table is cut into (``repro.shard``).  One shard *is* the flat
    engine: the builder decides that from the shard count.
``pipeline``
    ``0`` for inline catch-up, or the depth of the background noise
    prefetch (``repro.pipeline`` mechanisms).
``async_`` / ``inflight``
    ``False`` for synchronous applies, or ``True`` (spelled
    ``async=strict``) for up to ``inflight`` applies outstanding on a
    background thread (``repro.async_``); a step still waits for every
    prior apply before it reads the slabs.  Async implies the pipeline
    axis: with ``pipeline=0`` the prefetch depth defaults to
    ``max(2, inflight)``.
``obs``
    ``None`` for an uninstrumented run, or ``"trace"``, ``"metrics"``
    or ``"trace+metrics"`` (``repro.obs``).  Unlike the other axes this
    is an *instance* concern — the session builder instruments the
    built trainer.
``serve``
    ``0`` for uncached serving handles, or the row capacity of the
    skew-aware hot-row cache ``TrainSession.serve`` puts in front of
    each serving engine (``repro.serve``).  Like ``obs`` this
    configures the handles the session hands out, not the trainer.
``backend``
    *How shard tasks run*, as ``"name[:K]"`` — one of :data:`BACKENDS`:
    ``"numpy"`` (default, in-process serial schedule), ``"threads[:K]"``
    (shard thread pool of ``K`` workers), ``"process"`` (one worker
    process per shard, slabs in shared memory; ``repro.procshard``).

The sub-key ``inflight`` keeps its default while the async axis is off,
so every plan has exactly one spelling.  Plans serialize two ways:
:meth:`to_spec`/:meth:`from_spec` (the flat
``"shards=4,pipeline=2,async=strict"`` mini-language the CLI's
``--plan`` flag speaks and BENCH_*.json metadata records) and
:meth:`legacy_name` (the ``TrainResult.algorithm`` label).
``from_spec(to_spec(p)) == p`` holds for every valid plan, and every
plan releases the serial plan's bits.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

#: The execution backends, with the note ``repro backends`` prints.
#: The rules they obey live in ``ExecutionPlan.__post_init__``.
BACKENDS = {
    "numpy": "in-process numpy kernels, serial per-shard schedule",
    "threads": "in-process numpy kernels on a persistent shard thread pool",
    "process": "one worker process per shard, slab and history in shared memory",
}

_SPEC_KEYS = (
    "ans",
    "shards",
    "pipeline",
    "async",
    "inflight",
    "obs",
    "serve",
    "backend",
)

#: The spelled ``obs`` words, by (trace, metrics).
_OBS_WORDS = {
    (True, False): "trace",
    (False, True): "metrics",
    (True, True): "trace+metrics",
}

#: The axis field a sub-key field belongs to.
_AXIS_OF = {"inflight": "async_"}

#: The one word that switches the async axis on.
_ASYNC_WORD = "strict"

_TRUE_WORDS = ("on", "true", "yes", "1")
_FALSE_WORDS = ("off", "false", "no", "0")
_OFF_WORDS = _FALSE_WORDS + ("none",)


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


def _parse_async(key: str, value: str) -> bool:
    """``async=strict`` switches the axis on; the off-spellings the
    boolean keys accept (plus ``none``) switch it off."""
    word = value.lower()
    if word in _OFF_WORDS:
        return False
    if word == _ASYNC_WORD:
        return True
    raise ValueError(
        f"invalid plan spec: async={value!r} — the async axis accepts "
        f"only {_ASYNC_WORD} (or off): every plan releases the serial "
        "plan's bits, so reads never trail applies"
    )


def _parse_obs(key: str, value: str) -> str | None:
    word = value.lower()
    if word in _OFF_WORDS:
        return None
    modes = {"trace": False, "metrics": False}
    for token in word.split("+"):
        token = token.strip()
        if token in ("all", "full"):
            modes["trace"] = modes["metrics"] = True
        elif token in modes:
            modes[token] = True
        else:
            raise ValueError(
                f"invalid plan spec: obs={word!r} — unknown mode {token!r} "
                "(use trace, metrics, trace+metrics, or off)"
            )
    return _OBS_WORDS[modes["trace"], modes["metrics"]]


def _parse_serve(key: str, value: str) -> int:
    word = value.lower()
    # "serve=0" lands here too — the zero spelling every axis uses.
    return 0 if word in _OFF_WORDS else _parse_int(key, word)


def _parse_text(key: str, value: str) -> str:
    return value


#: How each spec key's value is read, in spec order.
_PARSERS = {
    "ans": _parse_bool,
    "shards": _parse_int,
    "pipeline": _parse_int,
    "async": _parse_async,
    "inflight": _parse_int,
    "obs": _parse_obs,
    "serve": _parse_serve,
    "backend": _parse_text,
}


def _split_backend(spec: str) -> tuple:
    """``"name[:K]"`` -> ``(name, K or None)``; the name must be one of
    :data:`BACKENDS` and ``K`` a positive integer."""
    name, separator, suffix = spec.partition(":")
    if name not in BACKENDS:
        raise ValueError(
            f"unknown backend: {name!r} (choose from {', '.join(BACKENDS)})"
        )
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
    return name, workers


@dataclass(frozen=True)
class ExecutionPlan:
    """One training run's execution strategy: the eight spec keys."""

    ans: bool = True
    shards: int = 0
    pipeline: int = 0
    async_: bool = False
    inflight: int = 2
    obs: str | None = None
    serve: int = 0
    backend: str = "numpy"

    def __post_init__(self):
        if self.shards < 0:
            raise ValueError("shards must be >= 0")
        if self.pipeline < 0:
            raise ValueError("pipeline must be >= 0")
        if not isinstance(self.async_, bool):
            raise ValueError(
                f"async_ is a bool, got {self.async_!r} "
                f"(plan spec: async={_ASYNC_WORD})"
            )
        if self.inflight < 1:
            raise ValueError("inflight must be at least 1")
        if self.obs is not None and self.obs not in _OBS_WORDS.values():
            raise ValueError(
                f"unknown obs mode: {self.obs!r} "
                f"(choose from {', '.join(_OBS_WORDS.values())} or None)"
            )
        if self.serve < 0:
            raise ValueError("serve must be >= 0")
        # A sub-key set away from its default while its axis is off has
        # no spelling: the spec would drop it.
        for key, axis in _AXIS_OF.items():
            default = self.__dataclass_fields__[key].default
            if not getattr(self, axis) and getattr(self, key) != default:
                raise ValueError(
                    f"contradictory plan: {key}={getattr(self, key)} "
                    f"requires the {axis.rstrip('_')} axis"
                )

        # The backend rules.
        name, workers = self.split_backend()
        if name in ("threads", "process") and not self.shards:
            raise ValueError(
                f"backend {name!r} requires the shards axis "
                f"(plan spec: shards=N,backend={name})"
            )
        if name == "process" and self.pipeline:
            raise ValueError(
                "backend 'process' does not compose with the pipeline "
                "axis: its workers already overlap noise preparation "
                "with the model update"
            )
        if name == "process" and self.async_:
            raise ValueError(
                "backend 'process' does not compose with the async axis"
            )
        if name != "threads" and workers is not None:
            raise ValueError(
                f"invalid backend spec: {self.backend!r} — backend "
                f"{name!r} admits no worker count (only threads:K does; "
                "process runs one worker per shard)"
            )

    # -- derived shape -----------------------------------------------------
    @property
    def is_sharded(self) -> bool:
        """The shards axis is on (any count; one shard still runs as the
        flat engine, with the label of a sharded plan)."""
        return self.shards > 0

    @property
    def is_async(self) -> bool:
        return self.async_

    @property
    def is_pipelined(self) -> bool:
        """Background noise prefetch (explicit, or implied by async)."""
        return self.pipeline > 0 or self.is_async

    def split_backend(self) -> tuple:
        """``(name, workers)`` of the ``backend`` spec; ``workers`` is
        ``None`` without a ``:K`` suffix."""
        return _split_backend(self.backend)

    def legacy_name(self) -> str:
        """The ``TrainResult.algorithm`` label for this combination
        (the historical algorithm-string spelling of the axes)."""
        prefix = "async_" if self.is_async else (
            "pipelined_" if self.is_pipelined else ""
        )
        sharded = "sharded_" if self.is_sharded else ""
        suffix = "" if self.ans else "_no_ans"
        return f"{prefix}{sharded}lazydp{suffix}"

    # -- spec round trip (the CLI's --plan mini-language) -------------------
    @classmethod
    def from_spec(cls, spec: str) -> "ExecutionPlan":
        """Parse ``"shards=4,pipeline=2,async=strict,ans=off"``.

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

        kwargs = {}
        for field in fields(cls):
            key = field.name.rstrip("_")
            if key in values:
                kwargs[field.name] = _PARSERS[key](key, values[key])
        # A sub-key spelled out while its axis is off contradicts it
        # even at its default value.
        is_async = kwargs.get("async_", False)
        if "inflight" in values and not is_async:
            raise ValueError(
                "contradictory plan spec: inflight requires the async "
                f"axis (async={_ASYNC_WORD})"
            )
        if is_async and kwargs.get("pipeline") == 0:
            raise ValueError(
                f"contradictory plan spec: async={_ASYNC_WORD} needs the "
                "noise-prefetch pipeline, but pipeline=0 disables it "
                "(drop pipeline=0 or set a depth >= 1)"
            )
        return cls(**kwargs)

    def to_spec(self) -> str:
        """The canonical flat spec string; ``from_spec`` inverts it.

        Canonical form: ``ans`` always present, axis sub-keys spelled
        out whenever the axis is on, the default numpy backend
        omitted.  This is the string benchmarks put in
        BENCH_*.json metadata, so plan identity is comparable across
        reports.
        """
        parts = []
        for field in fields(self):
            key = field.name.rstrip("_")
            value = getattr(self, field.name)
            if key == "ans":
                parts.append(f"ans={'on' if value else 'off'}")
            elif key == "async":
                if value:
                    parts.append(f"async={_ASYNC_WORD}")
            elif key == "backend":
                if value != "numpy":
                    parts.append(f"backend={value}")
            elif getattr(self, _AXIS_OF.get(key, field.name)):
                parts.append(f"{key}={value}")
        return ",".join(parts)
