"""The perf harness: compile cache, parallel jobs, picklable results."""

import pickle

import pytest

from repro.benchsuite import get_program
from repro.compiler import compile_source
from repro.opt import OptOptions
from repro.perf import (
    SimJob, bench_programs, cache_stats, clear_cache, compile_cached,
    run_jobs,
)
from repro.reporting import stream_detection, table2
from repro.sim.memory import MemError


@pytest.fixture(autouse=True)
def fresh_cache():
    from repro.perf import cache as cache_mod
    clear_cache()
    # Pin the disk tier off for the duration (a REPRO_CACHE_DIR in the
    # environment would otherwise auto-configure it mid-test), then
    # restore the lazy env autoconfiguration.
    cache_mod.configure_disk_store(None)
    yield
    clear_cache()
    cache_mod._disk = None
    cache_mod._disk_configured = False


class TestCompileCache:
    SOURCE = "int main(void) { return 41 + 1; }"

    def test_hit_returns_same_object(self):
        first = compile_cached(self.SOURCE)
        second = compile_cached(self.SOURCE)
        assert second is first
        assert cache_stats() == {"hits": 1, "misses": 1, "entries": 1,
                                 "disk": None}

    def test_key_includes_machine_and_options(self):
        compile_cached(self.SOURCE)
        compile_cached(self.SOURCE, machine_name="generic-risc")
        compile_cached(self.SOURCE, options=OptOptions.no_streaming())
        assert cache_stats()["misses"] == 3
        assert cache_stats()["hits"] == 0

    def test_clear_cache_resets(self):
        compile_cached(self.SOURCE)
        clear_cache()
        assert cache_stats() == {"hits": 0, "misses": 0, "entries": 0,
                                 "disk": None}


class TestRunJobs:
    def _jobs(self):
        source = get_program("dot-product", scale=0.1).source
        return [
            SimJob("stream", source, options=OptOptions()),
            SimJob("base", source, options=OptOptions.no_streaming()),
            SimJob("scalar", source, action="execute",
                   machine="generic-risc"),
            SimJob("detect", source, action="compile",
                   options=OptOptions()),
        ]

    def test_serial_matches_parallel(self):
        serial = run_jobs(self._jobs())
        parallel = run_jobs(self._jobs(), workers=2)
        assert serial == parallel

    def test_order_preserved(self):
        results = run_jobs(self._jobs(), workers=2)
        assert [r.name for r in results] == ["stream", "base", "scalar",
                                             "detect"]

    def test_unknown_action_quarantined(self):
        results = run_jobs([SimJob("x", "int main(void) { return 0; }",
                                   action="frobnicate")])
        assert len(results) == 1
        assert results[0].quarantined
        assert "unknown job action" in results[0].error

    def test_quarantined_job_keeps_its_position(self):
        good = "int main(void) { return 0; }"
        results = run_jobs([SimJob("a", good, action="compile"),
                            SimJob("bad", good, action="frobnicate"),
                            SimJob("c", good, action="compile")])
        assert [r.name for r in results] == ["a", "bad", "c"]
        assert [r.quarantined for r in results] == [False, True, False]

    def test_bench_programs_slow_matches_fast_cycles(self):
        fast = bench_programs(names=["dot-product"], scale=0.1, reps=1)
        slow = bench_programs(names=["dot-product"], scale=0.1, reps=1,
                              slow=True)
        assert fast["programs"] == slow["programs"]


class TestSerialFallback:
    """run_jobs must not pay pool startup when a pool cannot win."""

    SOURCE = "int main(void) { return 7; }"

    def _batch(self, n):
        return [SimJob(f"j{i}", self.SOURCE, action="compile")
                for i in range(n)]

    def test_no_workers_requested_is_serial(self):
        from repro.perf import parallel
        assert not parallel._should_parallelize(self._batch(8), None)
        assert not parallel._should_parallelize(self._batch(8), 0)
        assert not parallel._should_parallelize(self._batch(8), 1)

    def test_small_batch_is_serial(self, monkeypatch):
        from repro.perf import parallel
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 8)
        small = self._batch(parallel._MIN_POOL_JOBS - 1)
        assert not parallel._should_parallelize(small, 4)

    def test_single_cpu_is_serial(self, monkeypatch):
        from repro.perf import parallel
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 1)
        assert not parallel._should_parallelize(self._batch(8), 4)

    def test_all_cached_is_serial(self, monkeypatch):
        from repro.perf import parallel
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 8)
        batch = self._batch(parallel._MIN_POOL_JOBS)
        assert parallel._should_parallelize(batch, 4)
        for job in batch:
            compile_cached(job.source, machine_name=job.machine,
                           options=job.options)
        assert not parallel._should_parallelize(batch, 4)

    def test_fallback_path_never_builds_a_pool(self, monkeypatch):
        """End to end: the serial fallback runs jobs without ever
        constructing a SupervisedPool."""
        from repro.perf import parallel

        def boom(*args, **kwargs):
            raise AssertionError("pool constructed on the fallback path")

        monkeypatch.setattr(parallel, "SupervisedPool", boom)
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 1)
        results = run_jobs(self._jobs_real(), workers=4)
        assert [r.name for r in results] == ["a", "b", "c", "d"]

    def _jobs_real(self):
        return [SimJob(name, self.SOURCE, action="compile")
                for name in ("a", "b", "c", "d")]


class TestWorkerDeath:
    """Fault injection: hard-killed workers must not lose jobs."""

    @pytest.fixture
    def pooled(self, monkeypatch):
        # Force the pool path even on a single-CPU host so the kill
        # fault actually lands in a worker process.  The shared pool
        # carries breaker state across batches, so each test starts
        # and ends on a fresh one.
        from repro.perf import parallel
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 8)
        parallel.reset_pool()
        yield
        parallel.reset_pool()

    def _batch(self):
        # Distinct sources: each job does real compile work, and each
        # result's value identifies its job.
        return [SimJob(f"j{n}", f"int main(void) {{ return {n}; }}")
                for n in range(6)]

    def test_killed_worker_loses_no_jobs(self, pooled):
        results = run_jobs(self._batch(), workers=2, kill_jobs={1})
        assert [r.name for r in results] == [f"j{n}" for n in range(6)]
        # every job — including the killed one — produced its value via
        # the in-parent serial retry; none were quarantined
        assert [r.value for r in results] == list(range(6))
        assert not any(r.quarantined for r in results)
        assert not any(r.error for r in results)

    def test_every_worker_killed_still_completes(self, pooled):
        kill = set(range(6))
        results = run_jobs(self._batch(), workers=2, kill_jobs=kill)
        assert [r.value for r in results] == list(range(6))
        assert not any(r.quarantined for r in results)

    def test_kill_is_inert_on_serial_path(self):
        # workers=None never enters a pool, so the kill plan is a no-op
        # (the parent process must never os._exit).
        results = run_jobs(self._batch(), kill_jobs={0, 1, 2})
        assert [r.value for r in results] == list(range(6))

    def test_kill_emits_retry_remark(self, pooled):
        from repro.obs import RemarkCollector, use_remarks
        collector = RemarkCollector()
        with use_remarks(collector):
            run_jobs(self._batch(), workers=2, kill_jobs={2})
        retried = [r for r in collector.remarks
                   if r.reason == "job-retried"]
        assert retried
        assert any(r.args["job"] == "j2" for r in retried)

    def test_poisoned_pool_discarded_and_next_batch_clean(self, pooled):
        # a kill costs the shared pool a worker; the next batch must
        # run on its replacement and complete without retries
        from repro.obs import RemarkCollector, use_remarks
        run_jobs(self._batch(), workers=2, kill_jobs={0})
        collector = RemarkCollector()
        with use_remarks(collector):
            results = run_jobs(self._batch(), workers=2)
        assert [r.value for r in results] == list(range(6))
        assert not any(r.reason == "job-retried"
                       for r in collector.remarks)

    def test_batch_after_breaker_opens_completes(self, pooled):
        # killing every job opens the shared pool's breaker; the next
        # batch runs inline in the parent and still returns every value
        from repro.perf import parallel
        run_jobs(self._batch(), workers=2, kill_jobs=set(range(6)))
        assert not parallel._pool.breaker_allows()
        results = run_jobs(self._batch(), workers=2)
        assert [r.name for r in results] == [f"j{n}" for n in range(6)]
        assert [r.value for r in results] == list(range(6))
        assert not any(r.error for r in results)


class TestPoolReuse:
    """The shared pool survives across batches and worker counts
    recycle it."""

    def _batch(self, tag):
        return [SimJob(f"{tag}{n}",
                       f"int main(void) {{ return {n} + 100; }}")
                for n in range(4)]

    def test_pool_shared_across_batches(self, monkeypatch):
        from repro.perf import parallel
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 8)
        parallel.reset_pool()
        try:
            run_jobs(self._batch("a"), workers=2)
            first = parallel._pool
            assert first is not None
            run_jobs(self._batch("b"), workers=2)
            assert parallel._pool is first
            run_jobs(self._batch("c"), workers=3)
            assert parallel._pool is not first  # new worker count
        finally:
            parallel.reset_pool()
        assert parallel._pool is None


class TestMemoryViewPickle:
    def test_roundtrip_ships_data_segment_only(self):
        source = get_program("dot-product", scale=0.1).source
        res = compile_source(source, options=OptOptions()).simulate()
        blob = pickle.dumps(res.memory)
        # the live image is 8 MB; the pickled view is data segment only
        assert len(blob) < 64 * 1024
        view = pickle.loads(blob)
        assert len(view) == len(res.memory)
        end = res.memory.data_end
        assert view[0:end] == res.memory[0:end]
        base = res.globals_base["a"]
        assert view[base:base + 8] == res.memory[base:base + 8]

    def test_trimmed_access_raises(self):
        source = get_program("dot-product", scale=0.1).source
        res = compile_source(source, options=OptOptions()).simulate()
        view = pickle.loads(pickle.dumps(res.memory))
        with pytest.raises(MemError, match="beyond the data segment"):
            view[len(view) - 4]
        with pytest.raises(MemError, match="beyond the data segment"):
            view[view.data_end:view.data_end + 4]

    def test_whole_result_pickles(self):
        source = get_program("dot-product", scale=0.1).source
        res = compile_source(source, options=OptOptions()).simulate()
        clone = pickle.loads(pickle.dumps(res))
        assert (clone.value, clone.cycles) == (res.value, res.cycles)


class TestTablesWorkers:
    def test_table2_workers_matches_serial(self):
        serial = table2(scale=0.1, programs=("dot-product",))
        parallel = table2(scale=0.1, programs=("dot-product",), workers=2)
        assert serial == parallel

    def test_stream_detection_workers_matches_serial(self):
        assert stream_detection() == stream_detection(workers=2)
