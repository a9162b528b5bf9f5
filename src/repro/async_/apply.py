"""The background apply worker: bounded-depth, in-order model updates.

One daemon thread executes apply tasks strictly in submission
(iteration) order.  FIFO execution is what keeps per-row arithmetic
ordered without locks — reordering applies of overlapping rows would
change the floating-point result even when the ledger stays exact — so
the *only* concurrency the async engine adds over the pipelined one is
between the apply of iteration ``t`` and everything the trainer thread
does afterwards (forward/backward of ``t+1``..``t+k``, input gather,
dense updates).

Invariants:

* **Bounded in-flight depth.**  A counting semaphore caps outstanding
  applies (queued + executing) at ``max_in_flight``; ``submit`` blocks
  once the cap is reached, which is the natural backpressure that keeps
  the trainer from running unboundedly ahead of the writes.
* **Monotone completion watermark.**  Tasks complete in submission
  order, so "applies through iteration ``t`` have landed" is a single
  integer (``applied_through``); :meth:`wait_for` is how the
  scheduler makes a step wait for every prior apply.
* **Failure transparency.**  A task exception is recorded and re-raised
  on the trainer thread's next ``submit``/``wait_for``; after a failure
  the worker drains (without executing) whatever is still queued so no
  producer can deadlock on the semaphore.
"""

from __future__ import annotations

import queue
import threading
import time


class ApplyWorker:
    """Single background thread applying iteration updates FIFO."""

    def __init__(
        self, max_in_flight: int, name: str = "lazydp-apply", tracer=None,
        applied_through: int = 0,
    ):
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1")
        #: Optional repro.obs.Tracer.  Each apply task is reported as an
        #: ``apply_iteration`` span from the same perf_counter pair that
        #: feeds ``busy_seconds``, so trace and accounting agree.
        self._tracer = tracer
        self.max_in_flight = int(max_in_flight)
        self._slots = threading.Semaphore(self.max_in_flight)
        self._inbox: queue.Queue = queue.Queue()
        self._lock = threading.Lock()
        self._done = threading.Condition(self._lock)
        #: Starts at the iteration the slabs already stand at.
        self._applied_through = int(applied_through)
        self._error: BaseException | None = None
        self._stopping = False
        #: Seconds spent inside apply tasks (work hidden behind fwd/bwd).
        self.busy_seconds = 0.0
        #: Seconds the trainer blocked in :meth:`submit` on the
        #: in-flight cap (backpressure: applies slower than planning).
        self.submit_stall_seconds = 0.0
        #: Seconds the trainer blocked in :meth:`wait_for` (the
        #: exposed synchronisation cost of waiting for prior applies).
        self.wait_seconds = 0.0
        #: Iteration apply tasks completed.
        self.applies_completed = 0
        self._thread = threading.Thread(
            target=self._run, name=name, daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    @property
    def is_alive(self) -> bool:
        return self._thread.is_alive()

    @property
    def applied_through(self) -> int:
        """Highest iteration whose apply has completed (all earlier
        iterations have too — completion is FIFO)."""
        with self._lock:
            return self._applied_through

    def _raise_if_failed_locked(self) -> None:
        if self._error is not None:
            raise RuntimeError("async apply worker failed") from self._error

    def _raise_if_failed(self) -> None:
        with self._lock:
            self._raise_if_failed_locked()

    def submit(self, iteration: int, task) -> None:
        """Queue the apply for ``iteration``; blocks at the in-flight cap.

        Iterations must be submitted in increasing order (the trainer
        loop guarantees it); the completion watermark relies on that.
        """
        self._raise_if_failed()
        start = time.perf_counter()
        self._slots.acquire()
        self.submit_stall_seconds += time.perf_counter() - start
        # The error may have landed while we blocked on the semaphore;
        # the slot is intentionally not returned — the session is dead.
        self._raise_if_failed()
        self._inbox.put((int(iteration), task))

    def wait_for(self, iteration: int, timeout: float = 120.0) -> None:
        """Block until applies through ``iteration`` have landed."""
        with self._done:
            start = time.perf_counter()
            deadline = start + timeout
            while self._applied_through < iteration and self._error is None:
                remaining = deadline - time.perf_counter()
                if remaining <= 0.0 or not self._done.wait(remaining):
                    raise RuntimeError(
                        f"apply worker did not reach iteration {iteration} "
                        f"within {timeout:g}s (applied through "
                        f"{self._applied_through})"
                    )
            self.wait_seconds += time.perf_counter() - start
            self._raise_if_failed_locked()

    def _run(self) -> None:
        while True:
            item = self._inbox.get()
            if item is None:
                return
            iteration, task = item
            if self._error is None and not self._stopping:
                start = time.perf_counter()
                try:
                    task()
                except BaseException as error:  # noqa: BLE001 - forwarded
                    with self._done:
                        self._error = error
                        self._done.notify_all()
                else:
                    end = time.perf_counter()
                    self.busy_seconds += end - start
                    if self._tracer is not None:
                        self._tracer.add_complete(
                            "apply_iteration", start, end,
                            {"iteration": iteration},
                        )
                    with self._done:
                        self._applied_through = iteration
                        self.applies_completed += 1
                        self._done.notify_all()
            # Always free the slot — after a failure this is what keeps
            # a blocked producer from deadlocking on the semaphore.
            self._slots.release()

    def close(self) -> None:
        """Stop the worker; pending tasks are drained, not executed
        (error paths and restarts).  Idempotent."""
        self._stopping = True
        self._inbox.put(None)
        if self._thread.is_alive():
            self._thread.join(timeout=10.0)
            if self._thread.is_alive():
                raise RuntimeError("async apply worker failed to stop")

    def drain(self, last_iteration: int) -> None:
        """Graceful end-of-training: wait for every submitted apply,
        then stop the thread."""
        if self._thread.is_alive() and last_iteration > 0:
            self.wait_for(last_iteration)
        self.close()
