"""Parallel compile/simulate jobs.

A :class:`SimJob` is a self-contained, picklable description of one
compile-and-run configuration; :func:`run_jobs` executes a batch either
serially (``workers <= 1``) or across a ``ProcessPoolExecutor``.  Both
paths run the identical :func:`_run_job` body — through the compile
cache — so serial and parallel table regeneration produce the same
rows, and the equivalence tests compare them directly.

The executor is *shared across batches* (same worker count) and
private to ``run_jobs``: a full table regeneration issues three
``run_jobs`` batches, and re-forking a pool per batch both repaid
worker startup and threw away the workers' in-process compile caches
between batches.  :func:`reset_pool` discards the shared pool
(benchmarks use it to get cold workers per rep); a worker death that
poisons the executor discards it automatically.

Workers are forked from the parent on Linux, so per-process state the
compiler depends on (notably the interned-string hash seed, which the
optimizer's set iteration order — and hence exact cycle counts on a
few benchmarks — is sensitive to) is inherited, keeping parallel
results identical to serial ones within a session.

:class:`JobResult` carries the scalars the tables need (value, cycles,
stream counts) rather than the full ``SimResult`` — combined with
``SimResult.memory`` being a data-segment-only pickling view, nothing
megabyte-sized ever crosses the process boundary.

Worker failures never lose jobs: a job whose worker crashes (or whose
pool is poisoned by a sibling's death — ``BrokenProcessPool`` fails
every pending future) is retried once serially in the parent; a job
that fails twice is *quarantined* — returned in order with ``error``
set and ``quarantined=True`` — so one pathological configuration
cannot take down a whole table regeneration.

The serve daemon needs a stronger contract than this pool's
throw-away-on-poison model offers (worker deaths are routine events
for a long-running service, not batch-fatal ones); its execute plane
is :class:`repro.perf.supervisor.SupervisedPool`, which keeps the same
exactly-one-result-per-job guarantee but adds heartbeats, per-op
timeouts, recycling, backoff restarts and a circuit breaker.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Optional

from ..obs import Remark, get_remark_sink
from ..opt import OptOptions
from .cache import compile_cached, is_cached

__all__ = ["SimJob", "JobResult", "run_jobs", "reset_pool",
           "describe_exception"]


@dataclass(frozen=True)
class SimJob:
    """One compile-and-run configuration.

    ``action`` selects what to do with the compiled program:
    ``"simulate"`` (WM cycle simulator), ``"execute"`` (scalar
    cost-model executor) or ``"compile"`` (compile only — used by the
    stream-detection table, which reads optimizer reports).
    """

    name: str
    source: str
    action: str = "simulate"
    machine: Optional[str] = None     # scalar machine name; None = WM
    options: Optional[OptOptions] = None
    sim_kwargs: tuple = ()            # extra WMSimulator settings


@dataclass
class JobResult:
    """The table-relevant scalars of one job run.

    ``error`` is ``None`` on success; a quarantined job (failed in a
    worker *and* in the serial retry) instead carries the exception
    summary and ``quarantined=True``, with the value fields left at
    their defaults.
    """

    name: str
    value: object = None
    cycles: float = 0
    streams_in: int = 0
    streams_out: int = 0
    infinite: int = 0
    #: measured-II-vs-bound rows per streamed loop; populated when the
    #: job was simulated with ``sim_kwargs`` requesting ``profile``
    profile: Optional[list] = None
    error: Optional[str] = None
    quarantined: bool = False


def _run_job(job: SimJob) -> JobResult:
    compiled = compile_cached(job.source, machine_name=job.machine,
                              options=job.options)
    out = JobResult(job.name)
    for report in compiled.reports.values():
        for stream in report.streams:
            out.streams_in += stream.streams_in
            out.streams_out += stream.streams_out
            out.infinite += 1 if stream.infinite else 0
    if job.action == "simulate":
        sim_kwargs = dict(job.sim_kwargs)
        result = compiled.simulate(**sim_kwargs)
        out.value = result.value
        out.cycles = result.cycles
        if sim_kwargs.get("profile"):
            from ..obs.profile import headroom_summary
            from ..opt.bounds import compute_module_bounds
            out.profile = headroom_summary(
                result, compute_module_bounds(compiled.rtl))
    elif job.action == "execute":
        result = compiled.execute()
        out.value = result.value
        out.cycles = result.cycles
    elif job.action != "compile":
        raise ValueError(f"unknown job action {job.action!r}")
    return out


#: Minimum batch size worth paying pool startup for.  Below this the
#: fork/teardown overhead dominates even on a multi-core machine.
_MIN_POOL_JOBS = 4


def _should_parallelize(jobs: list[SimJob],
                        workers: Optional[int]) -> bool:
    """Would a process pool plausibly beat the in-process loop?

    Serial fallback applies when any of these hold:

    * ``workers`` is ``None``, 0 or 1 — parallelism wasn't requested;
    * the batch is smaller than :data:`_MIN_POOL_JOBS` — pool startup
      cannot amortize;
    * the host has a single CPU — workers only time-slice, adding fork
      overhead to the exact same serial schedule;
    * every job is already in the in-process compile cache — the
      per-job cost is a cache probe plus simulation, and shipping jobs
      to workers re-pays result pickling for no compile saved.
    """
    if workers is None or workers <= 1:
        return False
    if len(jobs) < _MIN_POOL_JOBS:
        return False
    if (os.cpu_count() or 1) < 2:
        return False
    if all(is_cached(job.source, machine_name=job.machine,
                     options=job.options) for job in jobs):
        return False
    return True


#: the one live executor, shared across ``run_jobs`` calls so a table
#: regeneration (three batches) pays worker fork once, not per batch —
#: and so the workers' own compile caches stay warm across batches
_pool: Optional[ProcessPoolExecutor] = None
_pool_workers: int = 0


def _get_pool(workers: int) -> ProcessPoolExecutor:
    global _pool, _pool_workers
    if _pool is not None and _pool_workers != workers:
        reset_pool()
    if _pool is None:
        _pool = ProcessPoolExecutor(max_workers=workers)
        _pool_workers = workers
    return _pool


def reset_pool() -> None:
    """Shut down the shared worker pool (if any).

    The next pooled batch forks fresh workers — which re-inherit the
    parent's in-process compile cache at that moment.  Called
    automatically when a worker death poisons the pool, at interpreter
    exit, and by benchmarks that want cold workers per rep.
    """
    global _pool, _pool_workers
    if _pool is not None:
        _pool.shutdown(wait=False, cancel_futures=True)
        _pool = None
        _pool_workers = 0


atexit.register(reset_pool)


def _run_job_indexed(index: int, job: SimJob,
                     kill: frozenset) -> JobResult:
    """Pool entry point: run one job, honouring kill-fault injection.

    A job index named in ``kill`` hard-exits the *worker* process
    (``os._exit`` — no exception, no cleanup: the most hostile death a
    pool can see).  The ``parent_process()`` guard makes the kill inert
    when this body runs in the parent — i.e. during the serial retry —
    so an injected death is recoverable by design.
    """
    if index in kill and multiprocessing.parent_process() is not None:
        os._exit(17)
    return _run_job(job)


def describe_exception(exc: BaseException) -> str:
    """One-line ``TypeName: message`` summary, the form every retry /
    quarantine / supervisor path reports failures in."""
    return f"{type(exc).__name__}: {exc}"


_describe = describe_exception


def _retry_serially(job: SimJob, first: BaseException) -> JobResult:
    """One in-parent retry; a second failure quarantines the job."""
    sink = get_remark_sink()
    if sink.enabled:
        sink.emit(Remark("harness", "analysis", "job-retried",
                         function=job.name, detail=_describe(first),
                         args={"job": job.name}))
    try:
        return _run_job(job)
    except Exception as exc:
        if sink.enabled:
            sink.emit(Remark("harness", "analysis", "job-quarantined",
                             function=job.name, detail=_describe(exc),
                             args={"job": job.name}))
        return JobResult(job.name, error=_describe(exc), quarantined=True)


def run_jobs(jobs: list[SimJob], workers: Optional[int] = None,
             kill_jobs=()) -> list[JobResult]:
    """Run a batch of jobs, preserving order and losing none.

    ``workers`` of ``None``, 0 or 1 runs in-process (sharing the
    compile cache across jobs); larger values fan out over processes
    when the batch can plausibly win from it (see
    :func:`_should_parallelize` for the serial-fallback conditions).

    Failures degrade instead of propagating: any job whose future
    raises — its own exception, or ``BrokenProcessPool`` because a
    sibling's worker died and poisoned the pool — is retried once
    serially in the parent; a job that also fails the retry comes back
    as a quarantined :class:`JobResult` (``error`` set, value fields
    defaulted) in its original position.  The serial path applies the
    same retry-once-then-quarantine policy.

    ``kill_jobs`` is the fault-injection hook: a set of job *indexes*
    whose worker process is hard-killed mid-batch (no-op outside a
    pool, and on the serial retry — see :func:`_run_job_indexed`).
    """
    jobs = list(jobs)
    kill = frozenset(kill_jobs)
    if _should_parallelize(jobs, workers):
        results: list[Optional[JobResult]] = [None] * len(jobs)
        failed: list[tuple[int, BaseException]] = []
        pool = _get_pool(workers)
        futures = [pool.submit(_run_job_indexed, i, job, kill)
                   for i, job in enumerate(jobs)]
        for i, future in enumerate(futures):
            try:
                results[i] = future.result()
            except Exception as exc:
                failed.append((i, exc))
        if any(isinstance(exc, BrokenProcessPool) for _i, exc in failed):
            # a worker death poisons the whole executor: discard it so
            # the next batch forks a healthy pool instead of failing
            reset_pool()
        for i, exc in failed:
            results[i] = _retry_serially(jobs[i], exc)
        return results
    out = []
    for job in jobs:
        try:
            out.append(_run_job(job))
        except Exception as exc:
            out.append(_retry_serially(job, exc))
    return out
