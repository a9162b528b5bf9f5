"""Double-buffered staging of precomputed catch-up noise.

The staging buffer is the handoff point between the noise-prefetch
worker (producer) and the trainer thread (consumer).  It holds up to
``capacity`` iterations' worth of :class:`StagedNoise` — ``capacity=2``
is classic double buffering: one entry being applied by the trainer
while the worker fills the next.

Invariants the pipeline rests on:

* **Iteration order.**  Entries are staged and popped strictly in
  iteration order; ``pop`` verifies the head entry matches the requested
  iteration, so a scheduling bug surfaces as a loud error instead of
  silently applying another iteration's noise.
* **Single producer / single consumer.**  Exactly one worker stages and
  exactly one trainer pops; the buffer's condition variables provide the
  only synchronisation the pipeline needs, because noise *values* are
  pure functions of ``(seed, table, row, iteration)`` and carry no
  shared mutable state.
* **Buffer handoff.**  Once an entry is staged the worker never touches
  its arrays again, and the trainer only reads them — ownership
  transfers wholesale at ``put``/``pop``, so no copy is needed.
* **Failure transparency.**  A worker exception is recorded with
  :meth:`fail` and re-raised from the trainer's next ``pop`` — a dead
  worker can never silently stall or corrupt training.

The buffer also keeps the two numbers the overlap benchmark reports:
``wait_seconds`` (consumer blocked — the *exposed* share of noise cost)
and ``stall_seconds`` (producer blocked on a full buffer — prefetch
runway exceeding demand, which is free).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass


@dataclass
class StagedNoise:
    """Precomputed catch-up noise for one iteration, covering all tables.

    ``shards[s]`` is shard ``s``'s payload: one
    :class:`repro.lazydp.optimizer.Catchup` per embedding table (a
    one-element list of them for the flat engine).  The delays ride
    along so the apply stage — wherever it runs — can advance the
    per-row noise ledger (:class:`repro.lazydp.ledger.VersionVector`)
    when the noise lands.
    """

    iteration: int
    shards: list


class StagingBuffer:
    """Bounded, iteration-ordered queue between prefetch worker and trainer."""

    def __init__(self, capacity: int = 2):
        if capacity < 1:
            raise ValueError("staging capacity must be at least 1")
        self.capacity = int(capacity)
        self._entries: deque = deque()
        self._lock = threading.Lock()
        self._state_changed = threading.Condition(self._lock)
        self._error: BaseException | None = None
        self._closed = False
        #: Seconds the consumer spent blocked in :meth:`pop` — the noise
        #: catch-up time the pipeline failed to hide.
        self.wait_seconds = 0.0
        #: Seconds the producer spent blocked in :meth:`put` — the worker
        #: running ahead of demand (harmless).
        self.stall_seconds = 0.0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def put(self, staged: StagedNoise) -> None:
        """Stage one iteration's noise; blocks while the buffer is full."""
        with self._state_changed:
            start = time.perf_counter()
            while (
                len(self._entries) >= self.capacity
                and not self._closed
                and self._error is None
            ):
                self._state_changed.wait()
            self.stall_seconds += time.perf_counter() - start
            if self._closed:
                raise RuntimeError("staging buffer is closed")
            self._entries.append(staged)
            self._state_changed.notify_all()

    def pop(self, iteration: int) -> StagedNoise:
        """Take the staged noise for ``iteration``; blocks until ready.

        Raises the worker's exception if the producer failed, and
        ``RuntimeError`` on a closed-empty buffer or an out-of-order
        entry (both indicate pipeline bugs, not recoverable states).
        """
        with self._state_changed:
            start = time.perf_counter()
            while (
                not self._entries and self._error is None and not self._closed
            ):
                self._state_changed.wait()
            self.wait_seconds += time.perf_counter() - start
            if self._error is not None:
                raise RuntimeError(
                    "noise-prefetch worker failed"
                ) from self._error
            if not self._entries:
                raise RuntimeError(
                    "staging buffer closed before iteration "
                    f"{iteration} was staged"
                )
            staged = self._entries.popleft()
            if staged.iteration != iteration:
                raise RuntimeError(
                    f"staged noise for iteration {staged.iteration}, "
                    f"trainer expected {iteration}"
                )
            self._state_changed.notify_all()
            return staged

    def fail(self, error: BaseException) -> None:
        """Record a producer-side failure; wakes both sides."""
        with self._state_changed:
            if self._error is None:
                self._error = error
            self._state_changed.notify_all()

    def close(self) -> None:
        """Shut the buffer down; blocked producers/consumers wake and
        raise.  Idempotent."""
        with self._state_changed:
            self._closed = True
            self._state_changed.notify_all()
