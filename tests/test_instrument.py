import sys
import threading

from shufflereg import instrument


def test_concurrent_records_lose_no_increments():
    event = "test_concurrent_records"
    threads_count, per_thread = 8, 20_000
    before = instrument.snapshot()
    barrier = threading.Barrier(threads_count)

    def worker():
        barrier.wait(timeout=30)
        for _ in range(per_thread):
            instrument.record(event)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(threads_count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert instrument.delta_since(before) == {event: threads_count * per_thread}
