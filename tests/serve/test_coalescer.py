"""Micro-batch coalescer unit tests: grouping, windows, admission."""

from __future__ import annotations

import asyncio

import pytest

from repro.serve import MicroBatchCoalescer, OverloadedError


def run(coro):
    return asyncio.run(coro)


def _recording_dispatch(log):
    def dispatch(group_key, payloads):
        log.append((group_key, list(payloads)))
        return ["%s:%s" % (group_key, payload) for payload in payloads]
    return dispatch


class TestCoalescing:
    def test_concurrent_submissions_share_one_batch(self):
        log = []

        async def main():
            coalescer = MicroBatchCoalescer(
                _recording_dispatch(log), max_batch=8,
                window_seconds=0.01)
            results = await asyncio.gather(
                *(coalescer.submit(("q", 0.5), i) for i in range(5)))
            await coalescer.aclose()
            return results

        results = run(main())
        assert len(log) == 1  # one dispatch for all five queries
        assert log[0][1] == [0, 1, 2, 3, 4]
        assert results == ["('q', 0.5):%d" % i for i in range(5)]

    def test_full_batch_dispatches_before_window(self):
        log = []

        async def main():
            coalescer = MicroBatchCoalescer(
                _recording_dispatch(log), max_batch=3,
                window_seconds=10.0)  # window far beyond the test
            results = await asyncio.wait_for(
                asyncio.gather(
                    *(coalescer.submit(("q", None), i) for i in range(3))),
                timeout=5.0)
            await coalescer.aclose()
            return results

        assert len(run(main())) == 3
        assert len(log) == 1

    def test_distinct_groups_do_not_mix(self):
        log = []

        async def main():
            coalescer = MicroBatchCoalescer(
                _recording_dispatch(log), max_batch=8,
                window_seconds=0.01)
            await asyncio.gather(
                coalescer.submit(("q", 0.5), "a"),
                coalescer.submit(("q", 0.9), "b"),
                coalescer.submit(("q", 0.5), "c"))
            await coalescer.aclose()

        run(main())
        batches = {key: payloads for key, payloads in log}
        assert batches[("q", 0.5)] == ["a", "c"]
        assert batches[("q", 0.9)] == ["b"]

    def test_max_batch_one_dispatches_each_alone(self):
        log = []

        async def main():
            coalescer = MicroBatchCoalescer(
                _recording_dispatch(log), max_batch=1, window_seconds=0.0)
            await asyncio.gather(
                *(coalescer.submit(("q",), i) for i in range(4)))
            await coalescer.aclose()

        run(main())
        assert len(log) == 4
        assert all(len(payloads) == 1 for _, payloads in log)

    def test_stats_track_batching(self):
        async def main():
            coalescer = MicroBatchCoalescer(
                _recording_dispatch([]), max_batch=8,
                window_seconds=0.01)
            await asyncio.gather(
                *(coalescer.submit(("q",), i) for i in range(6)))
            stats = coalescer.stats()
            await coalescer.aclose()
            return stats

        stats = run(main())
        assert stats["requests_total"] == 6
        assert stats["dispatched_total"] == 6
        assert stats["batches_total"] == 1
        assert stats["largest_batch"] == 6
        assert stats["mean_batch_size"] == 6.0
        assert stats["batch_size_hist"] == {6: 1}
        assert stats["mean_batch_seconds"] > 0.0

    def test_late_group_gets_its_own_full_window(self):
        """Regression: a single flush timer armed by the first group
        truncated every later group's collection window — a group whose
        first query arrived late in another group's window was flushed
        after a fraction of ``window_seconds``, splitting batches that
        should have coalesced."""
        log = []

        async def main():
            coalescer = MicroBatchCoalescer(
                _recording_dispatch(log), max_batch=8,
                window_seconds=0.2)
            loop = asyncio.get_running_loop()
            tasks = []
            all_submitted = asyncio.Event()

            def submit(group_key, payload):
                tasks.append(loop.create_task(
                    coalescer.submit(group_key, payload)))
                if len(tasks) == 3:
                    all_submitted.set()

            # Loop timers at absolute deadlines, not chained sleeps:
            # they fire in deadline order however late the loop wakes,
            # and lateness of one submit never eats the next one's
            # slack.  Group "b" opens at 0.75 of group "a"'s window; its
            # second query is due after "a"'s deadline (t0 + 0.2) and
            # before "b"'s own, which is never earlier than t0 + 0.35.
            t0 = loop.time()
            loop.call_at(t0, submit, ("a",), "a1")
            loop.call_at(t0 + 0.15, submit, ("b",), "b1")
            loop.call_at(t0 + 0.25, submit, ("b",), "b2")
            await all_submitted.wait()
            await asyncio.gather(*tasks)
            await coalescer.aclose()

        run(main())
        batches = {key: payloads for key, payloads in log}
        assert batches[("a",)] == ["a1"]
        assert batches[("b",)] == ["b1", "b2"]  # one batch, not two
        assert len(log) == 2

    def test_group_window_rearms_after_size_flush(self):
        """A size-triggered flush must not leave the group's next
        arrivals without a deadline."""
        log = []

        async def main():
            coalescer = MicroBatchCoalescer(
                _recording_dispatch(log), max_batch=2,
                window_seconds=0.05)
            await asyncio.gather(coalescer.submit(("q",), 1),
                                 coalescer.submit(("q",), 2))
            # A lone follow-up: only its own window timer can flush it.
            result = await asyncio.wait_for(coalescer.submit(("q",), 3),
                                            timeout=5.0)
            await coalescer.aclose()
            return result

        assert run(main()) == "('q',):3"
        assert [payloads for _, payloads in log] == [[1, 2], [3]]

    def test_mean_batch_size_ignores_queued_and_inflight(self):
        """Regression: ``requests_total`` (incremented at submit) over
        ``batches_total`` (incremented at completion) overstated batch
        size whenever stats were read mid-traffic."""
        import threading

        release = threading.Event()

        def gated_dispatch(group_key, payloads):
            release.wait(timeout=30)
            return list(payloads)

        async def main():
            coalescer = MicroBatchCoalescer(
                gated_dispatch, max_batch=2, window_seconds=30.0)
            # A full batch dispatches (and parks on the gate)...
            inflight = [asyncio.ensure_future(coalescer.submit(("q",), i))
                        for i in range(2)]
            await asyncio.sleep(0)
            # ...while a third submission waits in its window.
            queued = asyncio.ensure_future(coalescer.submit(("q",), 9))
            await asyncio.sleep(0.05)
            mid = coalescer.stats()
            release.set()
            await asyncio.gather(*inflight)
            coalescer._flush_group(("q",))  # don't wait out the window
            await queued
            final = coalescer.stats()
            await coalescer.aclose()
            return mid, final

        mid, final = run(main())
        assert mid["requests_total"] == 3
        assert mid["dispatched_total"] == 2
        assert mid["mean_batch_size"] == 2.0  # not 3/1
        assert mid["pending"] == 3
        assert final["dispatched_total"] == 3
        assert final["batches_total"] == 2


class TestAdmissionControl:
    def test_overload_sheds_beyond_max_pending(self):
        release = None

        def slow_dispatch(group_key, payloads):
            release.wait()
            return list(payloads)

        async def main():
            nonlocal release
            import threading
            release = threading.Event()
            coalescer = MicroBatchCoalescer(
                slow_dispatch, max_batch=1, window_seconds=0.0,
                max_pending=2)
            first = asyncio.ensure_future(coalescer.submit(("q",), 1))
            second = asyncio.ensure_future(coalescer.submit(("q",), 2))
            await asyncio.sleep(0)  # both now pending/in flight
            with pytest.raises(OverloadedError):
                await coalescer.submit(("q",), 3)
            shed = coalescer.stats()["shed_total"]
            release.set()
            assert await first == 1 and await second == 2
            # Capacity freed: the next submission is admitted again.
            assert await coalescer.submit(("q",), 4) == 4
            await coalescer.aclose()
            return shed

        assert run(main()) == 1

    def test_dispatch_error_propagates_to_all_waiters(self):
        def broken_dispatch(group_key, payloads):
            raise RuntimeError("index exploded")

        async def main():
            coalescer = MicroBatchCoalescer(
                broken_dispatch, max_batch=8, window_seconds=0.01)
            results = await asyncio.gather(
                *(coalescer.submit(("q",), i) for i in range(3)),
                return_exceptions=True)
            stats = coalescer.stats()
            await coalescer.aclose()
            return results, stats

        results, stats = run(main())
        assert all(isinstance(r, RuntimeError) for r in results)
        assert stats["pending"] == 0  # admission budget fully released

    def test_mismatched_result_count_is_an_error(self):
        async def main():
            coalescer = MicroBatchCoalescer(
                lambda key, payloads: [], max_batch=1, window_seconds=0.0)
            with pytest.raises(RuntimeError):
                await coalescer.submit(("q",), 1)
            await coalescer.aclose()

        run(main())

    def test_constructor_validation(self):
        dispatch = _recording_dispatch([])
        with pytest.raises(ValueError):
            MicroBatchCoalescer(dispatch, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatchCoalescer(dispatch, window_seconds=-1.0)
        with pytest.raises(ValueError):
            MicroBatchCoalescer(dispatch, max_pending=0)
