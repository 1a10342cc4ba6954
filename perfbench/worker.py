"""One workload in one fresh interpreter (started by ``run.py`` with a
pinned ``PYTHONHASHSEED``).

Protocol on stdout: a ``READY`` line once the workload is set up
(imports done, inputs generated), then one JSON object with the raw
results.  ``--setup-only`` stops after ``READY``; ``--listings`` prints
the sha256 of each input's compiled listing instead (the hash-seed
divergence probe).

Usage::

    python perfbench/worker.py --workload suite --seed 1 --seconds 10 \\
        --trace 0 --tmp DIR
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.benchsuite import (  # noqa: E402
    PROGRAMS, UTILITY_CORPUS, get_program)
from repro.compiler import compile_source  # noqa: E402
from repro.opt import OptOptions  # noqa: E402
from repro.perf import (  # noqa: E402
    SimJob, clear_cache, compile_cached, reset_pool, run_jobs)
from repro.qa.genprog import gen_program  # noqa: E402
from repro.reporting import stream_detection, table1, table2  # noqa: E402
from repro.reporting import tables as _tables  # noqa: E402
from repro.reporting.tables import PAPER_TABLE2  # noqa: E402
from repro.serve import Client, request  # noqa: E402

from hostspeed import reference_s, slowdown  # noqa: E402
from layers import (  # noqa: E402
    Layers, canonical_labels, listing_instrs, traced_layers)

SUITE_SCALE = 1.0
GENPROG_PROGRAMS = 160
TABLES_SIZE = 1000      # repro tables defaults
TABLES_SCALE = 0.2
#: the requests served for each source: one cycle of the closed-loop
#: mix in benchmarks/bench_serve.py (``_request_mix``), as (op, extra
#: args, weight).  Its weights repeat popular requests "as a fleet of
#: identical CI jobs would"; that is an assumption, and no record of
#: served traffic backs it.  Every source gets the same cycle, so the
#: benchmark adds no popularity skew of its own: repeats of a key hit
#: the memory tier, each new source misses, compiles and writes the
#: store.
SERVE_MIX = (("run", (), 4), ("compile", (), 2),
             ("compile", ("--opt", "baseline"), 1), ("explain", (), 1))
SERVE_SOURCES = 80
SERVE_REQUESTS = SERVE_SOURCES * sum(w for _op, _args, w in SERVE_MIX)
#: requests per closed-loop round; the host is timed between rounds
SERVE_ROUND = 24
#: tier timings: best of this many fresh-compile runs per tier; the
#: default path "loses" when slower than the interpreter by more than
#: the tolerance (host noise alone moves a best-of-2 by a few percent)
TIER_REPS = 2
TIER_TOLERANCE = 0.05


def nproc() -> int:
    return os.cpu_count() or 1


class Pass:
    """The outcome of one pass over a workload's batch."""

    def __init__(self, overlapped: bool = False) -> None:
        #: host-normalised pass time (see hostspeed); set for passes
        #: whose ops overlap (serve), where it is not the ops' sum
        self.wall = 0.0
        self.overlapped = overlapped
        #: host-normalised time of each op, in batch order
        self.op_ms: list[float] = []
        #: raw time of the pass's ops and the host slowdowns seen
        self.raw_s = 0.0
        self.slowdowns: list[float] = []
        self.ok = 0
        self.failed = 0
        self.errors: list[str] = []
        self.cycles = 0
        self.instrs = 0
        #: dynamic instructions simulated, and host seconds inside
        #: ``simulate`` (suite and genprog only)
        self.sim_instrs = 0
        self.sim_s = 0.0

    def record(self, seconds: float, host: float) -> None:
        """One op's raw time and the host slowdown around it."""
        self.op_ms.append(seconds / host * 1000)
        self.raw_s += seconds
        self.slowdowns.append(host)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)


# -- suite / genprog: compile + simulate + oracle per program ---------------

class ProgramBatch:
    """compile (through the compile cache, cleared per pass), simulate on
    the default fast path, and check against the IR oracle."""

    def __init__(self, sources: list[tuple[str, str]],
                 tiers: bool = False) -> None:
        self.sources = sources
        #: time every simulator tier in the traced run (suite)
        self.tiers = tiers
        self.instrs: dict[str, int] = {}

    def listing_inputs(self) -> list[tuple]:
        return [(src, None) for _name, src in self.sources]

    def run_pass(self, layers: Layers | None = None) -> Pass:
        out = Pass()
        clear_cache()
        clock = time.perf_counter
        ref = reference_s()
        for name, source in self.sources:
            t0 = clock()
            try:
                compiled = compile_cached(source)
                t1 = clock()
                result = compiled.simulate()
                t2 = clock()
                oracle = compiled.run_oracle()
                error = None
            except Exception as exc:  # SimError, InterpError, crashes
                error = f"{name}: {type(exc).__name__}: {exc}"
            t3 = clock()
            ref, before = reference_s(), ref
            host = slowdown(before, ref)
            out.record(t3 - t0, host)
            if error is not None:
                out.fail(error)
                continue
            out.sim_s += (t2 - t1) / host
            out.sim_instrs += result.instructions
            out.cycles += result.cycles
            if result.value != oracle.value:
                out.fail(f"{name}: sim {result.value} != oracle "
                         f"{oracle.value}")
            else:
                out.ok += 1
            if name not in self.instrs:
                self.instrs[name] = listing_instrs(compiled.listing())
            out.instrs += self.instrs[name]
        clear_cache()
        return out

    def extra_layers(self, layers: Layers) -> None:
        if not self.tiers:
            return
        tiers = {"default": {}, "replay": {"fast_forward": False},
                 "interp": {"superops": False}}
        best: dict[tuple, float] = {}
        for name, source in self.sources:
            for tier, kwargs in tiers.items():
                for _rep in range(TIER_REPS):
                    # fresh compile: the superop plan cache lives on the
                    # module, so a reused one would run pre-learned
                    compiled = compile_source(source)
                    t0 = time.perf_counter()
                    compiled.simulate(**kwargs)
                    ms = (time.perf_counter() - t0) * 1000
                    key = (tier, name)
                    best[key] = min(best.get(key, ms), ms)
        for (tier, name), ms in best.items():
            layers.totals[f"sim.{tier}_ms.{name}"] = ms
        layers.totals["sim.tier_losses"] = sum(
            1 for name, _src in self.sources
            if best[("default", name)] >
            best[("interp", name)] * (1 + TIER_TOLERANCE))


def suite_batch(seed: int) -> ProgramBatch:
    del seed  # the Table II programs are fixed
    return ProgramBatch([(name, get_program(name, scale=SUITE_SCALE).source)
                         for name in PROGRAMS], tiers=True)


def genprog_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(f"genprog:{seed}")
    seeds: list[int] = []
    while len(seeds) < count:
        s = rng.randrange(1 << 31)
        if s not in seeds:
            seeds.append(s)
    return seeds


def genprog_batch(seed: int) -> ProgramBatch:
    return ProgramBatch([(f"genprog-{s}", gen_program(s))
                         for s in genprog_seeds(seed, GENPROG_PROGRAMS)])


# -- tables ------------------------------------------------------------------

def table2_jobs() -> list[SimJob]:
    """The same SimJob list ``table2`` builds (base + profiled stream)."""
    jobs = []
    for name in PAPER_TABLE2:
        source = get_program(name, scale=TABLES_SCALE).source
        jobs.append(SimJob(f"{name}/base", source,
                           options=OptOptions.no_streaming()))
        jobs.append(SimJob(f"{name}/stream", source, options=OptOptions(),
                           sim_kwargs=(("profile", True),)))
    return jobs


class Tables:
    """``repro tables`` defaults, cold cache and pool every pass.

    The traced run sets ``workers = 1``: pool workers are separate
    processes, where the layer wrappers could not see the calls.
    """

    def __init__(self) -> None:
        self.workers = nproc()
        self.instrs: int | None = None
        #: mean |measured - paper| over Table I+II rows, percentage points
        self.paper_err_pp: float | None = None
        self.program_of = {get_program(name, scale=TABLES_SCALE).source: name
                           for name in PAPER_TABLE2}
        #: source -> the IR oracle's value (see prepare)
        self.expected: dict[str, object] = {}

    def listing_inputs(self) -> list[tuple]:
        sources = [get_program(name, scale=TABLES_SCALE).source
                   for name in PAPER_TABLE2]
        return ([(src, None) for src in sources]
                + [(src, "no_streaming") for src in sources]
                + [(src, None) for src in UTILITY_CORPUS.values()])

    def prepare(self) -> None:
        """The IR oracle's value of every program the tables simulate
        or execute: the expected outputs, computed once, untimed."""
        sources = [job.source for job in _tables._table1_jobs(TABLES_SIZE)]
        for source in [*sources, *self.program_of]:
            if source not in self.expected:
                self.expected[source] = \
                    compile_source(source).run_oracle().value

    def run_pass(self, layers: Layers | None = None) -> Pass:
        out = Pass()
        workers = self.workers
        clear_cache()
        reset_pool()
        calls = (("reporting.table1_ms",
                  lambda: table1(n=TABLES_SIZE, workers=workers)),
                 ("reporting.table2_ms",
                  lambda: table2(scale=TABLES_SCALE, workers=workers)),
                 ("reporting.detection_ms",
                  lambda: stream_detection(workers=workers)))
        rows = []
        #: every (SimJob, JobResult) the table functions ran
        ran: list[tuple] = []
        pool_run = _tables.run_jobs

        def capture(jobs, **kwargs):
            results = pool_run(jobs, **kwargs)
            ran.extend(zip(jobs, results))
            return results

        _tables.run_jobs = capture
        try:
            ref = reference_s()
            for key, call in calls:
                t0 = time.perf_counter()
                try:
                    rows.append(call())
                except Exception as exc:
                    out.fail(f"{key}: {type(exc).__name__}: {exc}")
                    return out
                seconds = time.perf_counter() - t0
                ref, before = reference_s(), ref
                out.record(seconds, slowdown(before, ref))
                if layers is not None:
                    layers.add(key, seconds)
        finally:
            _tables.run_jobs = pool_run
        rows1, rows2, detect = rows
        self._check(out, ran, rows1, rows2, detect)
        out.cycles = sum(r.base_cycles + r.stream_cycles for r in rows2)
        if self.instrs is None:
            clear_cache()
            self.instrs = sum(
                listing_instrs(compile_cached(src).listing())
                for src in self.program_of)
        out.instrs = self.instrs
        errs = ([abs(r.percent - r.paper_percent) for r in rows1]
                + [abs(r.percent - r.paper_percent) for r in rows2])
        self.paper_err_pp = sum(errs) / len(errs)
        clear_cache()
        reset_pool()
        return out

    def _check(self, out: Pass, ran: list[tuple], rows1, rows2,
               detect) -> None:
        """Every simulated or executed job's value must equal the IR
        oracle's (a quarantined job carries an error instead), and
        every table must have all its rows."""
        for job, result in ran:
            if result.error is not None:
                out.fail(f"{job.name}: {result.error}")
            elif job.action == "compile":
                out.ok += 1
            elif result.value != self.expected[job.source]:
                out.fail(f"{job.name}: {result.value} != oracle "
                         f"{self.expected[job.source]}")
            else:
                out.ok += 1
        for table, got, want in (("table1", len(rows1),
                                  len(_tables.PAPER_TABLE1)),
                                 ("table2", len(rows2), len(PAPER_TABLE2)),
                                 ("stream_detection", len(detect),
                                  len(UTILITY_CORPUS))):
            if got != want:
                out.fail(f"{table}: {got} rows, expected {want}")

    def extra_layers(self, layers: Layers) -> None:
        layers.totals["reporting.paper_err_pp"] = self.paper_err_pp or 0.0
        jobs = table2_jobs()
        for key, workers in (("parallel.pool_ms", nproc()),
                             ("parallel.serial_ms", 1)):
            clear_cache()
            reset_pool()
            t0 = time.perf_counter()
            results = run_jobs(jobs, workers=workers)
            layers.totals[key] = (time.perf_counter() - t0) * 1000
            if any(r.error for r in results):
                raise RuntimeError(f"{key}: a SimJob failed")
        clear_cache()
        reset_pool()


# -- serve -------------------------------------------------------------------

class Serve:
    """A ``repro serve`` subprocess per pass (empty memory tier, empty
    store), driven closed loop over ``nproc`` connections."""

    def __init__(self, seed: int, tmp: str) -> None:
        rng = random.Random(f"serve:{seed}")
        self.sources = [gen_program(s)
                        for s in genprog_seeds(seed, SERVE_SOURCES)]
        #: (op, extra args, source index) per request, in arrival order
        self.schedule = [(op, args, index)
                         for index in range(SERVE_SOURCES)
                         for op, args, weight in SERVE_MIX
                         for _ in range(weight)]
        rng.shuffle(self.schedule)
        self.tmp = tmp
        self.spool = os.path.join(tmp, "spool")
        #: request key -> the distinct responses, raw and with anonymous
        #: labels renumbered (see layers.canonical_labels)
        self.raw: dict[tuple, set] = {}
        self.canonical: dict[tuple, set] = {}
        self.instrs: dict[int, int] = {}
        self.stats: list[dict] = []
        self.spans: list[dict] = []
        self.traced_passes = 0
        self._passes = 0

    def listing_inputs(self) -> list[tuple]:
        return [(src, None) for src in self.sources]

    def start_daemon(self):
        self._passes += 1
        store = os.path.join(self.tmp, f"store{self._passes}")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", "serve.sock",
             "--cache-dir", store, "--spool-dir", self.spool,
             "--blackbox-dir", self.tmp],
            cwd=self.tmp, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + 60
        while True:
            try:
                with Client("serve.sock", timeout=10) as client:
                    if client.request({"op": "ping"}).get("ok"):
                        return proc, store
            except OSError:
                pass
            if proc.poll() is not None or time.monotonic() > deadline:
                proc.kill()
                proc.wait()
                raise RuntimeError("serve daemon did not start")
            time.sleep(0.01)

    @staticmethod
    def stop_daemon(proc, store) -> None:
        try:
            request({"op": "shutdown"}, "serve.sock", timeout=30)
            proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            proc.kill()
            proc.wait()
        shutil.rmtree(store, ignore_errors=True)

    def run_pass(self, layers: Layers | None = None) -> Pass:
        proc, store = self.start_daemon()
        out = Pass(overlapped=True)
        lock = threading.Lock()
        cursor = [0, 0]                       # next request, round end
        #: per request: (host-normalised seconds, response)
        results: list = [None] * len(self.schedule)

        def drive(client: Client) -> None:
            while True:
                with lock:
                    i = cursor[0]
                    if i >= cursor[1]:
                        return
                    cursor[0] = i + 1
                op, args, index = self.schedule[i]
                payload = {"id": i, "op": op, "args": ["{source}", *args],
                           "source": self.sources[index]}
                if layers is not None:
                    payload["trace"] = True
                t0 = time.perf_counter()
                try:
                    response = client.request(payload)
                except (OSError, ValueError) as exc:
                    response = {"ok": False, "error": repr(exc)}
                results[i] = (time.perf_counter() - t0, response)

        clients = []
        try:
            clients = [Client("serve.sock", timeout=120)
                       for _ in range(max(2, nproc()))]
            # Rounds of SERVE_ROUND requests, the host timed between
            # them while the daemon idles (see hostspeed).
            ref = reference_s()
            for first in range(0, len(self.schedule), SERVE_ROUND):
                cursor[1] = min(first + SERVE_ROUND, len(self.schedule))
                threads = [threading.Thread(target=drive, args=(c,))
                           for c in clients]
                t0 = time.perf_counter()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                seconds = time.perf_counter() - t0
                ref, before = reference_s(), ref
                host = slowdown(before, ref)
                out.raw_s += seconds
                out.wall += seconds / host
                out.slowdowns.append(host)
                for i in range(first, cursor[1]):
                    if results[i] is not None:
                        results[i] = (results[i][0] / host, results[i][1])
            stats = clients[0].request({"op": "stats"})["stats"]
        finally:
            for client in clients:
                client.close()
            self.stop_daemon(proc, store)
        if layers is None:
            self.stats.append(stats)
        else:
            self.traced_passes += 1
        seen: dict[tuple, set] = {}
        counted: set = set()     # run keys whose cycles are summed
        for key, result in zip(self.schedule, results):
            self._account(out, key, result, layers, seen, counted)
        if layers is None:
            # one untraced daemon answers a key from one cached artifact
            for (op, args, index), variants in seen.items():
                if len(variants) > 1:
                    out.fail(f"{op} {' '.join(args)} #{index}: different "
                             f"bytes from one daemon")
        return out

    def _account(self, out: Pass, key: tuple, result,
                 layers: Layers | None, seen: dict, counted: set) -> None:
        op, args, index = key
        if result is None:
            out.fail(f"{op} #{index}: no response")
            return
        seconds, response = result
        out.op_ms.append(seconds * 1000)
        if not response.get("ok") or response.get("exit_code") != 0:
            out.fail(f"{op} #{index}: {response.get('error')} "
                     f"exit {response.get('exit_code')}")
            return
        stdout = response["stdout"]
        raw = (response["exit_code"], stdout, response.get("stderr") or "")
        seen.setdefault(key, set()).add(raw)
        self.raw.setdefault(key, set()).add(raw)
        canonical = tuple(canonical_labels(str(part)) for part in raw)
        self.canonical.setdefault(key, set()).add(canonical)
        out.ok += 1
        if op == "run" and len(seen[key]) == 1 and key not in counted:
            counted.add(key)
            for line in stdout.splitlines():
                if line.startswith("cycles:"):
                    out.cycles += int(line.split()[1])
        elif op == "compile" and not args:
            if index not in self.instrs:
                self.instrs[index] = listing_instrs(stdout)
                out.instrs += self.instrs[index]
        if layers is not None and "trace" in response:
            self.spans.append(response["trace"])

    def divergent(self) -> int:
        """Request keys answered with different bytes beyond anonymous
        label numbers, in any pass, traced or not."""
        return sum(1 for variants in self.canonical.values()
                   if len(variants) > 1)

    def label_divergent(self) -> int:
        """Request keys whose bytes differ only in anonymous label
        numbers (across daemons, or traced compiles that bypass the
        cache): the listing depends on what the process compiled
        before."""
        return sum(1 for key, variants in self.raw.items()
                   if len(variants) > 1 and len(self.canonical[key]) == 1)

    def extra_layers(self, layers: Layers) -> None:
        t = layers.totals
        hit_ms, miss_ms, wait, dispatch, handler = [], [], [], [], []
        for trace in self.spans:
            events = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
            for e in events:
                layer = _COMPILE_SPANS.get(e["name"])
                if layer is None and e["name"].startswith("opt."):
                    layer = f"opt.pass_ms.{e['name'][4:]}"
                if layer is not None and e["pid"] == _HANDLER_PID:
                    t[layer] += e["dur"] / 1000 / self.traced_passes
                elif e["name"] == "cache.lookup":
                    (hit_ms if e["args"].get("outcome") == "hit"
                     else miss_ms).append(e["dur"] / 1000)
                elif e["name"] == "queue.wait":
                    wait.append(e["dur"] / 1000)
                elif e["name"] == "pool.dispatch":
                    dispatch.append(e["dur"] / 1000)
                elif e["name"] == "handler.execute":
                    handler.append(_self_ms(e, events))
        t["cache.hit_ms_p50"] = _p50(hit_ms)
        t["cache.miss_ms_p50"] = _p50(miss_ms)
        t["serve.queue_wait_ms_p50"] = _p50(wait)
        t["serve.dispatch_ms_p50"] = _p50(dispatch)
        t["serve.handler_ms_p50"] = _p50(handler)
        # counters come from the untraced passes: traced compile
        # requests bypass the compile cache by design
        hits = misses = writes = size = read_errors = 0
        coalesced = total = refused = high = batches = batched = 0
        for stats in self.stats:
            hits += stats["cache"]["hits"]
            misses += stats["cache"]["misses"]
            disk = stats["cache"]["disk"] or {}
            writes += disk.get("writes", 0)
            size += disk.get("bytes", 0)
            read_errors += disk.get("read_errors", 0)
            counters = stats["metrics"]["counters"]
            coalesced += counters.get("serve.coalesced", 0)
            total += counters.get("serve.requests.total", 0)
            refused += sum(v for k, v in counters.items()
                           if k.startswith("serve.refused."))
            high = max(high, stats["queue"]["high_water"])
            hist = stats["metrics"]["histograms"].get("serve.batch.size", {})
            batches += hist.get("count", 0)
            batched += hist.get("sum", 0)
        n = max(1, len(self.stats))
        t["cache.hit_ratio"] = hits / max(1, hits + misses)
        t["store.writes"] = writes / n
        t["store.bytes"] = size / n
        t["store.read_errors"] = read_errors
        t["serve.coalesced_ratio"] = coalesced / max(1, total)
        t["serve.refused"] = refused
        t["serve.batch_size_mean"] = batched / max(1, batches)
        t["serve.queue_high_water"] = high


#: compile spans the handler records under a traced request, by layer
#: (the "frontend" span covers ``analyze`` and ``ir.lower`` together)
_COMPILE_SPANS = {"frontend": "frontend.ms", "expand": "expander.ms",
                  "optimize": "opt.ms", "lower_wm": "machine.wm_lower_ms"}
#: the merged request trace's process id for handler-side events
_HANDLER_PID = 3


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _self_ms(span: dict, events: list[dict]) -> float:
    """Duration of ``span`` not covered by other spans of its process
    that lie inside it (its children)."""
    start, end = span["ts"], span["ts"] + span["dur"]
    inner = sorted((e["ts"], min(end, e["ts"] + e["dur"])) for e in events
                   if e is not span and e["pid"] == span["pid"]
                   and start <= e["ts"] < end)
    covered, reach = 0.0, start
    for lo, hi in inner:
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (span["dur"] - covered) / 1000


# -- driver ------------------------------------------------------------------

def make_workload(name: str, seed: int, tmp: str):
    if name == "suite":
        return suite_batch(seed)
    if name == "genprog":
        return genprog_batch(seed)
    if name == "tables":
        return Tables()
    if name == "serve":
        return Serve(seed, tmp)
    raise SystemExit(f"unknown workload {name!r}")


def run_passes(workload, seconds: float,
               layers: Layers | None = None) -> list[Pass]:
    """Passes until ``seconds`` is spent: another pass starts only when
    the slowest one so far still fits.  At least one pass."""
    passes: list[Pass] = []
    longest = 0.0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        with (traced_layers(layers) if layers is not None
              else contextlib.nullcontext()):
            passes.append(workload.run_pass(layers))
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest > seconds:
            return passes


def summarize(passes: list[Pass]) -> dict:
    """Medians over passes of host-normalised times (see hostspeed):
    ``wall_s`` sums each op's median time, or, where ops overlap
    (serve), is the median pass; the latency percentiles are over each
    op's median time."""
    if len({len(p.op_ms) for p in passes}) == 1:
        per_op = sorted(map(statistics.median,
                            zip(*(p.op_ms for p in passes))))
    else:  # an op failed in some pass: fall back to the first pass
        per_op = sorted(passes[0].op_ms)
    wall = (statistics.median(p.wall for p in passes)
            if passes[0].overlapped else sum(per_op) / 1000)
    sim_s = sum(p.sim_s for p in passes)
    return {
        "passes": len(passes),
        "ops": sum(len(p.op_ms) for p in passes),
        "ok": sum(p.ok for p in passes),
        "failed": sum(p.failed for p in passes),
        "errors": [e for p in passes for e in p.errors][:10],
        "wall_s": wall,
        "ops_per_s": len(per_op) / wall if wall else 0.0,
        "op_ms_p50": _quantile(per_op, 0.50),
        "op_ms_p95": _quantile(per_op, 0.95),
        "sim_cycles": passes[0].cycles,
        "code_instrs": passes[0].instrs,
        "sim_minstr_per_s": (sum(p.sim_instrs for p in passes) / sim_s
                             / 1e6 if sim_s else None),
        "raw_wall_s": statistics.median(p.raw_s for p in passes),
        "host_slowdown": statistics.median(
            h for p in passes for h in p.slowdowns),
    }


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) \
        * (pos - lo)


def listings(workload, options_for) -> list[str]:
    """The sha256 of each input's listing, anonymous labels renumbered:
    the label counter is process-global, so raw listings of later
    inputs would differ whenever an earlier one differs
    (``opt.label_divergent`` counts that defect separately)."""
    out = []
    for source, opts in workload.listing_inputs():
        listing = compile_source(source, options=options_for(opts)).listing()
        out.append(hashlib.sha256(
            canonical_labels(listing).encode()).hexdigest())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--listings", action="store_true")
    args = parser.parse_args(argv)

    os.chdir(args.tmp)
    workload = make_workload(args.workload, args.seed, args.tmp)
    if args.listings:
        options = {None: None, "no_streaming": OptOptions.no_streaming()}
        print(json.dumps(listings(workload, options.get)))
        return 0
    if isinstance(workload, Serve):
        # a daemon start is part of every serve pass's set-up
        Serve.stop_daemon(*workload.start_daemon())
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if isinstance(workload, Tables):
        workload.prepare()

    if not args.trace:
        result = summarize(run_passes(workload, args.seconds))
    else:
        if isinstance(workload, Tables):
            # the traced pass must run serially (see Tables);
            # its untraced baseline does the same
            workload.workers = 1
        # an untimed first pass pays for lazy imports and tables, so
        # that neither half below does (serve: every pass has a fresh
        # daemon, so there is nothing to warm); then half the budget
        # untraced (the overhead baseline) and half traced
        warm = Pass() if isinstance(workload, Serve) else workload.run_pass()
        untraced = summarize(run_passes(workload, args.seconds / 2))
        layers = Layers(getattr(workload, "program_of", None))
        passes = run_passes(workload, args.seconds / 2, layers)
        traced = summarize(passes)
        for name in layers.totals:
            layers.totals[name] /= len(passes)   # per-pass figures
        workload.extra_layers(layers)
        mismatches = layers.check_listings()
        layers.totals["bench.trace_overhead_pct"] = 100.0 * (
            traced["wall_s"] / untraced["wall_s"] - 1.0)
        result = untraced
        result["ok"] += traced["ok"] + warm.ok
        result["failed"] += traced["failed"] + warm.failed + len(mismatches)
        result["errors"] += mismatches + traced["errors"] + warm.errors
        result["ops"] += traced["ops"]
        result["passes"] += traced["passes"]
        if isinstance(workload, Serve):
            layers.count("opt.label_divergent", workload.label_divergent())
        result["layers"] = dict(layers.totals)
    if isinstance(workload, Tables) and workload.paper_err_pp is not None:
        result["paper_err_pp"] = workload.paper_err_pp
    if isinstance(workload, Serve):
        divergent = workload.divergent()
        result["failed"] += divergent
        if divergent:
            result["errors"].append(
                f"{divergent} request key(s) answered with different "
                f"bytes")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
