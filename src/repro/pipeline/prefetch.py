"""The background noise-prefetch worker.

One daemon thread that turns upcoming-batch row sets into staged
catch-up noise.  The worker is deliberately *dumb*: it owns no LazyDP
state of its own, just a FIFO inbox fed by :class:`LookaheadLoader
<repro.data.loader.LookaheadLoader>`'s ``on_load`` hook and a ``compute``
callback supplied by the trainer.  All noise semantics — history reads
and advances, ANS draws, sharded fan-out — live in that callback, which
runs the *same* per-shard ``plan_sample`` the inline path runs; the
worker only changes *when and where* it runs.

Invariants:

* **Exclusive history ownership.**  While the worker is running, it is
  the only thread touching the engine's HistoryTables (the trainer's
  inline path is bypassed, and the terminal flush only runs after the
  worker has been joined).  Plans are computed strictly in iteration
  order, so the history evolves exactly as under serial training.
* **Batch positions map to plan iterations.**  The batch at loader
  position ``j`` (0-based) is the *next* batch of the fit's ``j``-th
  step (1-based), so it produces the catch-up plan for iteration
  ``offset + j``, ``offset`` being where the fit started.
  Position 0 is the bootstrap batch — trained on, never planned against
  — and a ``None`` batch is the end-of-stream sentinel.
* **Failure transparency.**  Any exception in ``compute`` is forwarded
  to the staging buffer and re-raised on the trainer thread.

``busy_seconds`` accumulates time actually spent computing (excluding
waits), which the overlap benchmark compares against the trainer's
``pipeline_wait`` to report how much noise time was hidden.
"""

from __future__ import annotations

import queue
import threading
import time


class NoisePrefetchWorker:
    """Single background thread precomputing catch-up noise plans."""

    def __init__(
        self, compute, buffer, name: str = "noise-prefetch", tracer=None,
        offset: int = 0,
    ):
        self._compute = compute      # (iteration, batch) -> StagedNoise
        self._buffer = buffer
        #: The iteration before the loader's first batch: position ``j``
        #: plans iteration ``offset + j``.
        self.offset = int(offset)
        self._inbox: queue.Queue = queue.Queue()
        self._stopping = False
        #: Optional repro.obs.Tracer.  The worker reports each compute
        #: as a ``prefetch_compute`` span from the same perf_counter
        #: pair that feeds ``busy_seconds``, so the trace's worker-track
        #: busy time and the benchmark's overlap accounting agree.
        self._tracer = tracer
        #: Seconds spent inside ``compute`` (the work available to hide).
        self.busy_seconds = 0.0
        #: Number of iteration plans staged.
        self.plans_computed = 0
        self._thread = threading.Thread(
            target=self._run, name=name, daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    @property
    def is_alive(self) -> bool:
        return self._thread.is_alive()

    def submit(self, position: int, batch) -> None:
        """``LookaheadLoader`` ``on_load`` hook.

        ``batch is None`` is the end-of-stream sentinel; position 0 is
        the bootstrap batch and produces no plan (there is no iteration
        0 to catch rows up for).
        """
        if batch is None:
            self._inbox.put(None)
        elif position >= 1:
            self._inbox.put((self.offset + position, batch))

    def _run(self) -> None:
        try:
            while True:
                item = self._inbox.get()
                if item is None or self._stopping:
                    return
                iteration, batch = item
                start = time.perf_counter()
                staged = self._compute(iteration, batch)
                end = time.perf_counter()
                self.busy_seconds += end - start
                if self._tracer is not None:
                    self._tracer.add_complete(
                        "prefetch_compute", start, end,
                        {"iteration": iteration},
                    )
                self._buffer.put(staged)
                self.plans_computed += 1
        except BaseException as error:  # noqa: BLE001 - forwarded to trainer
            if not self._stopping:
                self._buffer.fail(error)

    def join(self, timeout: float | None = None) -> None:
        """Wait for the worker to drain its inbox and exit.

        Only meaningful after the end-of-stream sentinel was submitted
        (the normal path: the LookaheadLoader always submits it).
        """
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("noise-prefetch worker failed to stop")

    def close(self) -> None:
        """Force shutdown (error paths): unblock and join the thread."""
        self._stopping = True
        self._inbox.put(None)        # unblock a worker waiting on the inbox
        self._buffer.close()         # unblock a worker waiting on a full buffer
        if self._thread.is_alive():
            self._thread.join(timeout=10.0)
