"""Unit tests for the staging buffer and the noise-prefetch worker."""

import threading
import time

import pytest

from repro.pipeline import NoisePrefetchWorker, StagedNoise, StagingBuffer


class TestStagingBuffer:
    def test_put_pop_in_order(self):
        buffer = StagingBuffer(capacity=2)
        buffer.put(StagedNoise(1, ["a"]))
        buffer.put(StagedNoise(2, ["b"]))
        assert buffer.pop(1).shards == ["a"]
        assert buffer.pop(2).shards == ["b"]
        assert len(buffer) == 0

    def test_pop_wrong_iteration_raises(self):
        buffer = StagingBuffer(capacity=2)
        buffer.put(StagedNoise(1, []))
        with pytest.raises(RuntimeError, match="expected 2"):
            buffer.pop(2)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            StagingBuffer(capacity=0)

    def test_put_blocks_at_capacity(self):
        buffer = StagingBuffer(capacity=1)
        buffer.put(StagedNoise(1, []))
        done = threading.Event()

        def producer():
            buffer.put(StagedNoise(2, []))
            done.set()

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        time.sleep(0.05)
        assert not done.is_set()          # blocked: buffer full
        buffer.pop(1)
        assert done.wait(timeout=5.0)     # freed by the pop
        thread.join(timeout=5.0)
        assert buffer.stall_seconds > 0.0

    def test_pop_blocks_until_staged(self):
        buffer = StagingBuffer(capacity=1)

        def producer():
            time.sleep(0.05)
            buffer.put(StagedNoise(1, ["late"]))

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        assert buffer.pop(1).shards == ["late"]
        thread.join(timeout=5.0)
        assert buffer.wait_seconds > 0.0

    def test_fail_propagates_to_pop(self):
        buffer = StagingBuffer(capacity=1)
        buffer.fail(ValueError("worker died"))
        with pytest.raises(RuntimeError, match="noise-prefetch worker"):
            buffer.pop(1)

    def test_close_unblocks_pop(self):
        buffer = StagingBuffer(capacity=1)
        threading.Timer(0.05, buffer.close).start()
        with pytest.raises(RuntimeError, match="closed"):
            buffer.pop(1)

    def test_put_after_close_raises(self):
        buffer = StagingBuffer(capacity=1)
        buffer.close()
        with pytest.raises(RuntimeError, match="closed"):
            buffer.put(StagedNoise(1, []))


class TestNoisePrefetchWorker:
    def _make(self, compute, capacity=2):
        buffer = StagingBuffer(capacity=capacity)
        worker = NoisePrefetchWorker(compute, buffer)
        worker.start()
        return worker, buffer

    def test_computes_plans_in_order(self):
        seen = []

        def compute(iteration, batch):
            seen.append((iteration, batch))
            return StagedNoise(iteration, [batch * 2])

        worker, buffer = self._make(compute, capacity=4)
        worker.submit(0, 10)      # bootstrap batch: no plan
        worker.submit(1, 11)
        worker.submit(2, 12)
        worker.submit(3, None)    # end of stream
        assert buffer.pop(1).shards == [22]
        assert buffer.pop(2).shards == [24]
        worker.join(timeout=5.0)
        assert seen == [(1, 11), (2, 12)]
        assert worker.plans_computed == 2
        assert worker.busy_seconds >= 0.0

    def test_compute_error_reaches_consumer(self):
        def compute(iteration, batch):
            raise KeyError("bad plan")

        worker, buffer = self._make(compute)
        worker.submit(1, "x")
        with pytest.raises(RuntimeError, match="noise-prefetch worker"):
            buffer.pop(1)
        worker.join(timeout=5.0)

    def test_close_while_blocked_on_full_buffer(self):
        def compute(iteration, batch):
            return StagedNoise(iteration, [])

        worker, buffer = self._make(compute, capacity=1)
        worker.submit(1, "a")
        worker.submit(2, "b")     # will block: buffer full
        time.sleep(0.05)
        worker.close()            # must unblock and join cleanly
        assert not worker.is_alive

    def test_close_while_idle(self):
        worker, _ = self._make(lambda i, b: StagedNoise(i, []))
        worker.close()
        assert not worker.is_alive
