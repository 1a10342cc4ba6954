"""Performance harness: compile cache + parallel compile/simulate jobs.

The reporting tables and the ``repro bench`` CLI funnel their
(program x options x machine) configurations through this package:

* :mod:`repro.perf.cache` — a content-keyed (source, machine, options)
  compile cache, so regenerating several tables never compiles the
  same program twice;
* :mod:`repro.perf.parallel` — picklable job descriptions and a
  fan-out over a shared supervised pool with an equivalent serial
  path (``workers <= 1``), used by ``repro tables --workers`` and
  ``repro bench``;
* :mod:`repro.perf.supervisor` — the one worker pool, shared by
  ``parallel`` and the serve daemon: heartbeats, per-op timeouts,
  recycling, backoff restarts and a circuit breaker around plain fork
  workers;
* :mod:`repro.perf.bench` — shared timing helpers for the CLI bench
  command and ``benchmarks/bench_perf.py``.
"""

from .cache import (
    cache_stats, clear_cache, compile_cached, configure_disk_store,
    content_key, get_disk_store, is_cached,
)
from .parallel import JobResult, SimJob, reset_pool, run_jobs
from .bench import bench_programs, time_fn
from .store import DiskStore, StoreFaults
from .supervisor import SupervisedPool, SupervisorConfig

__all__ = [
    "cache_stats", "clear_cache", "compile_cached", "is_cached",
    "configure_disk_store", "content_key", "get_disk_store", "DiskStore",
    "StoreFaults", "SupervisedPool", "SupervisorConfig",
    "JobResult", "SimJob", "reset_pool", "run_jobs",
    "bench_programs", "time_fn",
]
