"""The supervised worker pool: the serve tier's execute plane.

Exercises the fault-tolerance contract directly, without a daemon in
the way: exactly one result per item, death-retry, per-op timeouts
that kill rather than wedge, max-jobs recycling, jittered-backoff
restarts, and the circuit breaker's open → half-open → closed cycle.
All tasks are module-level (workers are forked).
"""

import os
import signal
import time

import pytest

from repro.perf.supervisor import (
    STATE_CACHE_ONLY, STATE_HEALTHY, SupervisedPool, SupervisorConfig,
)


def _square(item):
    return item * item


def _die_once(path):
    """SIGKILL self the first time; succeed on the retry."""
    if not os.path.exists(path):
        with open(path, "w") as fh:
            fh.write("died")
        os.kill(os.getpid(), signal.SIGKILL)
    return "survived"


def _die_always(item):
    if item == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    return ("ok", item)


def _sleep_forever(_item):
    time.sleep(3600)


def _fast_config(**overrides) -> SupervisorConfig:
    base = dict(workers=2, restart_backoff_base_s=0.01,
                restart_backoff_cap_s=0.05, breaker_threshold=5,
                breaker_window_s=30.0, breaker_reset_s=0.2)
    base.update(overrides)
    return SupervisorConfig(**base)


@pytest.fixture
def events():
    return []


def _collector(events):
    return lambda kind, fields: events.append((kind, fields))


class TestBatches:
    def test_results_in_order(self):
        pool = SupervisedPool(_square, _fast_config())
        try:
            assert pool.run_batch([1, 2, 3, 4, 5]) == [1, 4, 9, 16, 25]
            assert pool.completed == 5
            assert pool.state() == STATE_HEALTHY
        finally:
            pool.close()

    def test_task_exception_becomes_error_result(self):
        pool = SupervisedPool(_raise_value_error, _fast_config())
        try:
            [result] = pool.run_batch(["x"])
            assert result["ok"] is False
            assert "ValueError" in result["error"]
            # An exception is not a death: the worker survives it.
            assert pool.deaths == 0
        finally:
            pool.close()

    def test_closed_pool_refuses(self):
        pool = SupervisedPool(_square, _fast_config())
        pool.close()
        with pytest.raises(RuntimeError):
            pool.run_batch([1])


def _raise_value_error(_item):
    raise ValueError("handler exploded")


class TestDeaths:
    def test_death_retried_once_then_succeeds(self, tmp_path, events):
        marker = str(tmp_path / "died-once")
        pool = SupervisedPool(_die_once, _fast_config(),
                              on_event=_collector(events))
        try:
            [result] = pool.run_batch([marker])
            assert result == "survived"
            assert pool.deaths == 1
            assert "worker_died" in [kind for kind, _f in events]
            # The replacement spawns once the (tiny) backoff expires —
            # driven by the next batch's maintenance pass.
            deadline = time.monotonic() + 5.0
            while pool.restarts == 0 and time.monotonic() < deadline:
                time.sleep(0.02)
                pool.run_batch([marker])
            assert "worker_restart" in [kind for kind, _f in events]
        finally:
            pool.close()

    def test_double_death_gives_terminal_error(self, events):
        pool = SupervisedPool(_die_always,
                              _fast_config(breaker_threshold=50),
                              on_event=_collector(events))
        try:
            results = pool.run_batch(["die", "a", "b"])
            assert results[0]["ok"] is False
            assert "worker died twice" in results[0]["error"]
            # The healthy items still complete, in order.
            assert results[1] == ("ok", "a")
            assert results[2] == ("ok", "b")
            assert pool.deaths == 2          # first try + retry
        finally:
            pool.close()

    def test_backoff_after_death(self, tmp_path):
        marker = str(tmp_path / "backoff-marker")
        pool = SupervisedPool(_die_once, _fast_config())
        try:
            pool.run_batch([marker])
            # _record_death armed the backoff clock (already expired or
            # not — the field must have been set by the death).
            assert pool.deaths == 1
            assert pool._backoff_until > 0.0
        finally:
            pool.close()


class TestTimeouts:
    def test_stuck_job_times_out_and_worker_is_replaced(self, events):
        pool = SupervisedPool(_sleep_forever,
                              _fast_config(workers=1, job_timeout_s=0.5),
                              on_event=_collector(events))
        try:
            started = time.monotonic()
            [result] = pool.run_batch(["x"])
            elapsed = time.monotonic() - started
            assert result["ok"] is False
            assert result["error"].startswith("op_timeout")
            assert elapsed < 30.0            # killed, not waited out
            assert pool.timeouts == 1
            kinds = [kind for kind, _fields in events]
            assert "worker_timeout" in kinds
        finally:
            pool.close()

    def test_timeout_is_not_retried(self):
        pool = SupervisedPool(_sleep_forever,
                              _fast_config(workers=1, job_timeout_s=0.3))
        try:
            [result] = pool.run_batch(["x"])
            assert result["error"].startswith("op_timeout")
            # Exactly one death (the killed worker), no second attempt.
            assert pool.deaths == 1
        finally:
            pool.close()


class TestRecycling:
    def test_workers_recycled_after_max_jobs(self, events):
        pool = SupervisedPool(
            _square, _fast_config(workers=1, max_jobs_per_worker=3),
            on_event=_collector(events))
        try:
            for _round in range(3):
                assert pool.run_batch([2, 3]) == [4, 9]
            assert pool.recycles >= 1
            assert pool.deaths == 0          # recycling is not a death
            kinds = [kind for kind, _fields in events]
            assert "worker_recycle" in kinds
        finally:
            pool.close()


class TestBreaker:
    def test_breaker_opens_degrades_inline_and_recloses(self, events):
        pool = SupervisedPool(
            _die_always,
            _fast_config(workers=1, breaker_threshold=2,
                         breaker_reset_s=0.3),
            on_event=_collector(events))
        try:
            # Two deaths (attempt + retry) trip the threshold.
            [dead] = pool.run_batch(["die"])
            assert dead["ok"] is False
            assert pool._breaker_open
            assert pool.state() == STATE_CACHE_ONLY or \
                pool.breaker_allows()        # cooldown may have elapsed
            kinds = [kind for kind, _fields in events]
            assert "breaker_open" in kinds

            # Cache-only service: benign items still get answered,
            # inline in the caller.
            results = pool.run_batch(["a", "b"])
            assert ("ok", "a") in results and ("ok", "b") in results

            # After the cooldown, a clean probe batch closes the
            # breaker and restores the full complement.
            time.sleep(0.35)
            deadline = time.monotonic() + 10.0
            while pool._breaker_open and time.monotonic() < deadline:
                pool.run_batch(["probe"])
                time.sleep(0.05)
            assert not pool._breaker_open
            kinds = [kind for kind, _fields in events]
            assert "breaker_close" in kinds
            assert pool.state() == STATE_HEALTHY
        finally:
            pool.close()


class TestIntrospection:
    def test_stats_shape(self):
        pool = SupervisedPool(_square, _fast_config())
        try:
            pool.run_batch([7])
            stats = pool.stats()
            assert stats["state"] == STATE_HEALTHY
            assert stats["completed"] == 1
            assert stats["deaths"] == 0
            assert len(stats["workers"]) == 2
            assert stats["breaker"]["open"] is False
            assert len(pool.worker_pids()) == 2
        finally:
            pool.close()

    def test_state_sees_externally_killed_idle_workers(self):
        pool = SupervisedPool(_square, _fast_config())
        try:
            assert pool.state() == STATE_HEALTHY
            for pid in pool.worker_pids():
                os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while pool.state() == STATE_HEALTHY and \
                    time.monotonic() < deadline:
                time.sleep(0.02)
            # Killed between batches: no pipe traffic yet, but state()
            # must not report a full-strength pool.
            assert pool.state() != STATE_HEALTHY
            # ...and the next batch heals through it.
            assert pool.run_batch([3]) == [9]
        finally:
            pool.close()
