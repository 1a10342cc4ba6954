"""Parallel compile/simulate jobs.

A :class:`SimJob` is a self-contained, picklable description of one
compile-and-run configuration; :func:`run_jobs` executes a batch either
serially (``workers <= 1``) or on a
:class:`~repro.perf.supervisor.SupervisedPool`.  Both paths run the
identical :func:`_run_job` body — through the compile cache — so
serial and parallel table regeneration produce the same rows, and the
equivalence tests compare them directly.

The pool is *shared across batches* (same worker count) and private
to ``run_jobs``: a full table regeneration issues three ``run_jobs``
batches, and re-forking a pool per batch both repaid worker startup
and threw away the workers' in-process compile caches between
batches.  :func:`reset_pool` closes the shared pool (benchmarks use it
to get cold workers per rep).

Workers are forked from the parent on Linux, so per-process state the
compiler depends on (notably the interned-string hash seed, which the
optimizer's set iteration order — and hence exact cycle counts on a
few benchmarks — is sensitive to) is inherited, keeping parallel
results identical to serial ones within a session.

:class:`JobResult` carries the scalars the tables need (value, cycles,
stream counts) rather than the full ``SimResult`` — combined with
``SimResult.memory`` being a data-segment-only pickling view, nothing
megabyte-sized ever crosses the process boundary.

Worker failures never lose jobs.  When a worker dies, the pool retries
its job once on another worker; a slot the pool still returns as failed
(the job raised, or its worker died twice) is retried once serially in
the parent, and a job that fails that retry too is *quarantined* —
returned in order with ``error`` set and ``quarantined=True`` — so one
pathological configuration cannot take down a whole table
regeneration.  Batch jobs have no deadline (``job_timeout_s=0``).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from dataclasses import dataclass
from typing import Optional

from ..obs import Remark, get_remark_sink
from ..opt import OptOptions
from .cache import compile_cached, is_cached
from .supervisor import SupervisedPool, SupervisorConfig, describe_exception

__all__ = ["SimJob", "JobResult", "run_jobs", "reset_pool"]


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


#: the one live pool, shared across ``run_jobs`` calls so a table
#: regeneration (three batches) pays worker fork once, not per batch —
#: and so the workers' own compile caches stay warm across batches
_pool: Optional[SupervisedPool] = None
_pool_workers: int = 0


class _PoolFailure(str):
    """The pool's failure text for a slot it could not complete: the
    ``error_factory`` result ``run_jobs`` recognises failed slots by."""


def _get_pool(workers: int) -> SupervisedPool:
    global _pool, _pool_workers
    if _pool is not None and _pool_workers != workers:
        reset_pool()
    if _pool is None:
        _pool = SupervisedPool(
            _run_job_indexed,
            SupervisorConfig(workers=workers, job_timeout_s=0),
            error_factory=_PoolFailure)
        _pool_workers = workers
    return _pool


def reset_pool() -> None:
    """Close the shared worker pool (if any).

    The next pooled batch forks fresh workers — which re-inherit the
    parent's in-process compile cache at that moment.  Called at
    interpreter exit, and by benchmarks that want cold workers per rep.
    """
    global _pool, _pool_workers
    if _pool is not None:
        _pool.close()
        _pool = None
        _pool_workers = 0


atexit.register(reset_pool)


def _run_job_indexed(item: tuple) -> JobResult:
    """The shared pool's task: run one ``(index, job, kill)`` item,
    honouring kill-fault injection.

    A job index named in ``kill`` hard-exits the *worker* process
    (``os._exit`` — no exception, no cleanup: the most hostile death a
    pool can see).  The ``parent_process()`` guard makes the kill inert
    when this body runs in the parent — the pool runs items inline there
    while its breaker is open — so an injected death is recoverable by
    design.
    """
    index, job, kill = item
    if index in kill and multiprocessing.parent_process() is not None:
        os._exit(17)
    return _run_job(job)


def _retry_serially(job: SimJob, failure: str) -> JobResult:
    """One in-parent retry; a second failure quarantines the job."""
    sink = get_remark_sink()
    if sink.enabled:
        sink.emit(Remark("harness", "analysis", "job-retried",
                         function=job.name, detail=failure,
                         args={"job": job.name}))
    try:
        return _run_job(job)
    except Exception as exc:
        detail = describe_exception(exc)
        if sink.enabled:
            sink.emit(Remark("harness", "analysis", "job-quarantined",
                             function=job.name, detail=detail,
                             args={"job": job.name}))
        return JobResult(job.name, error=detail, quarantined=True)


def run_jobs(jobs: list[SimJob], workers: Optional[int] = None,
             kill_jobs=()) -> list[JobResult]:
    """Run a batch of jobs, preserving order and losing none.

    ``workers`` of ``None``, 0 or 1 runs in-process (sharing the
    compile cache across jobs); larger values fan out over the shared
    pool when the batch can plausibly win from it (see
    :func:`_should_parallelize` for the serial-fallback conditions).

    Failures degrade instead of propagating: any slot the pool returns
    as failed — the job raised, or its worker died on two attempts —
    is retried once serially in the parent; a job that also fails the
    retry comes back as a quarantined :class:`JobResult` (``error``
    set, value fields defaulted) in its original position.  The serial
    path applies the same retry-once-then-quarantine policy.

    ``kill_jobs`` is the fault-injection hook: a set of job *indexes*
    whose worker process is hard-killed mid-batch (no-op outside a
    pool, and on the serial retry — see :func:`_run_job_indexed`).
    """
    jobs = list(jobs)
    if _should_parallelize(jobs, workers):
        kill = frozenset(kill_jobs)
        results = _get_pool(workers).run_batch(
            [(i, job, kill) for i, job in enumerate(jobs)])
        return [_retry_serially(job, str(result))
                if isinstance(result, _PoolFailure) else result
                for job, result in zip(jobs, results)]
    out = []
    for job in jobs:
        try:
            out.append(_run_job(job))
        except Exception as exc:
            out.append(_retry_serially(job, describe_exception(exc)))
    return out
