"""Fast-path speedup measurement -> BENCH_perf.json.

Times the Livermore-5 compile+simulate pipeline and the simulator in
isolation, fast path against the in-tree reference loop (``slow=True``
— the pre-decode interpreter kept verbatim for exactly this purpose),
plus serial-vs-parallel table regeneration, and records per-benchmark
fast-vs-reference cycle identity.

Configurations:

``pipeline.cold``
    ``compile_cached`` cache cleared before every rep: first-run cost,
    comparable to the BENCH_obs.json ``off`` number.

``pipeline.warm``
    Cache left hot between reps: the steady-state cost of re-running a
    benchmark, which is what table regeneration and ``repro bench``
    actually pay.

``sim.<program>.<tier>``
    The simulator alone (compile hoisted out) on every Table II
    program, once per tier: ``slow`` (the reference loop),
    ``interp`` (the decoded interpreter, ``superops=False``),
    ``replay`` (superop block replay only, ``fast_forward=False``)
    and ``default`` (superops + fast-forward), plus
    ``sim.<program>.default_vs_interp``, the paired ratio ``--check``
    gates (see ``measure_sim``).  The fast-forward hints are cleared
    before every run: each ``default`` run detects its periods cold,
    as a first ``repro run`` does.

``tables.serial`` / ``tables.parallel``
    Full Table I + Table II + detection regeneration through
    ``run_jobs``, 1 worker vs ``--workers N``.  Every rep is cold:
    parent compile cache cleared and pooled workers discarded, so the
    two lanes compare the same work rather than the warm in-process
    loop twice.  (On a single-CPU container ``run_jobs`` takes the
    serial fallback in both lanes and the ratio sits at ~1.0 by
    design — the recorded ``cpu_count`` says which case a given
    BENCH_perf.json shows; ``--check`` gates the ratio accordingly.)

``tables.baseline`` (optional, ``--baseline-rev REV``)
    The same regeneration against a pristine worktree of REV (the
    seed, before pre-decode/fast-forward/caching existed) — the
    apples-to-apples number for "how much faster is regenerating the
    tables now".

``compile``
    The compile half alone: cold ``compile_source`` timing of lloop5,
    each rep paired with a lloop5 ``default`` simulation
    (``compile_vs_sim``), plus ``compile.passes``, a per-pass breakdown
    aggregated from the pipeline's ``PassStat`` records under an active
    tracer for every Table II program and for a fixed ``gen_program``
    sample (``genprog``) — which optimizer pass each program's compile
    milliseconds actually go to.

``--check`` re-runs the equivalence gate (every benchmark, fast vs
reference, identical cycles), fails if the default fast path is slower
than the decoded interpreter by more than 5% on any program (a fast
tier that loses to its own fallback; median of paired per-rep ratios,
and slower at all with 95% confidence), and fails if a recorded ratio
regressed more than 5%: the lloop5 sim speedup, the compile path
relative to the simulator (a *rise* beyond tolerance means the compile
path itself got slower), or the parallel-tables ratio
(``tables_parallel_speedup`` — held to a 1.1x floor on multi-core
hosts; on a single CPU it instead asserts the serial fallback
engaged, ratio ~1.0 not well below).  ``sim_speedup`` and
``compile_vs_sim`` are medians of paired per-rep ratios (the two runs
of a rep are adjacent in time, so they see the same host speed), and
like the tier gate each fails only when the median is past the
tolerance *and* the 95% sign-test bound is past the recorded value:
worse at all with confidence, not just by one noisy median.
``--quick`` shrinks the pipeline and table-regeneration work for CI;
the compile and sim timings the gates read keep their ``GATE_REPS``.

Usage::

    python benchmarks/bench_perf.py [--reps 15] [--workers 2]
    python benchmarks/bench_perf.py --quick --check   # CI smoke

Writes BENCH_perf.json at the repository root (not with ``--check``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

REGRESSION_TOLERANCE = 0.95  # --check fails below recorded speedup x this
TIER_TOLERANCE = 1.05        # --check fails if default > interp x this
#: reps of the timings the ratio gates read, --quick included: a
#: median over fewer reps is biased against a full-mode record
GATE_REPS = 15
#: the generated programs whose compile ``compile.passes`` breaks down
#: per pass, beside every Table II program
GENPROG_SAMPLE = tuple(range(20))
#: traced compiles per program behind ``compile.passes`` (mean per
#: compile; --quick included)
PASS_REPS = 3

#: simulator tiers timed per program, as ``simulate`` keyword arguments;
#: interp and default last, so the runs each gate ratio pairs are
#: adjacent in time in either order
SIM_TIERS = {
    "slow": {"slow": True},
    "replay": {"fast_forward": False},
    "interp": {"superops": False},
    "default": {},
}


def measure_pipeline(reps: int, scale: float) -> dict:
    from repro.benchsuite import get_program
    from repro.perf import clear_cache, compile_cached, time_fn

    prog = get_program("lloop5", scale=scale)

    def run_cold():
        clear_cache()
        compile_cached(prog.source).simulate()

    def run_warm():
        compile_cached(prog.source).simulate()

    def run_slow():
        clear_cache()
        compile_cached(prog.source).simulate(slow=True)

    out = {
        "cold": time_fn(run_cold, reps),
        "warm": time_fn(run_warm, reps),
        "slow": time_fn(run_slow, reps),
    }
    clear_cache()
    return out


def _simulate_cold(program, **kwargs) -> float:
    """One simulation in ms, fast-forward hints cleared first: each run
    detects its periods cold, as a first ``repro run`` does."""
    cache = getattr(program.rtl, "_superop_cache", None)
    if cache is not None:
        cache.hints.clear()
    start = time.perf_counter()
    program.simulate(**kwargs)
    return (time.perf_counter() - start) * 1e3


def _pass_breakdown(sources: list, reps: int) -> dict:
    """Per-pass ``{calls, ms, rtl_delta}`` per compile of ``sources``,
    from ``reps`` traced compiles of each (tracing adds overhead, so it
    is kept out of every timed rep)."""
    from repro.compiler import compile_source
    from repro.obs import Tracer, use_tracer

    agg: dict = {}
    for _rep in range(reps):
        for source in sources:
            with use_tracer(Tracer()):
                compiled = compile_source(source)
            for report in compiled.reports.values():
                for stat in report.passes:
                    entry = agg.setdefault(
                        stat.name, {"calls": 0, "ms": 0.0, "rtl_delta": 0})
                    entry["calls"] += 1
                    entry["ms"] += stat.seconds * 1000
                    entry["rtl_delta"] += stat.delta
    per = reps * len(sources)
    return {name: {"calls": round(e["calls"] / per, 2),
                   "ms": round(e["ms"] / per, 3),
                   "rtl_delta": round(e["rtl_delta"] / per, 2)}
            for name, e in sorted(agg.items(),
                                  key=lambda kv: -kv[1]["ms"])}


def measure_compile(reps: int, scale: float) -> dict:
    """Cold lloop5 compile timing, each rep paired with a lloop5
    default simulation for ``compile_vs_sim``, plus the per-pass
    breakdown of every Table II program and the genprog sample."""
    from repro.benchsuite import PROGRAMS, get_program
    from repro.compiler import compile_source
    from repro.qa.genprog import gen_program

    source = get_program("lloop5", scale=scale).source
    program = compile_source(source)

    def time_compile() -> float:
        start = time.perf_counter()
        compile_source(source)
        return (time.perf_counter() - start) * 1e3

    compile_ms: list = []
    sim_ms: list = []
    for rep in range(reps + 1):     # rep 0 warms up, untimed
        if rep % 2:
            c_ms = time_compile()
            s_ms = _simulate_cold(program)
        else:
            s_ms = _simulate_cold(program)
            c_ms = time_compile()
        if rep:
            compile_ms.append(c_ms)
            sim_ms.append(s_ms)
    ratios = [c / s for c, s in zip(compile_ms, sim_ms)]
    passes = {name: _pass_breakdown(
        [get_program(name, scale=scale).source], PASS_REPS)
        for name in sorted(PROGRAMS)}
    passes["genprog"] = _pass_breakdown(
        [gen_program(seed) for seed in GENPROG_SAMPLE], PASS_REPS)
    return {"cold": _stats(compile_ms), "sim_default": _stats(sim_ms),
            **_paired("compile_vs_sim", ratios),
            "genprog_sample": list(GENPROG_SAMPLE), "passes": passes}


def _stats(times: list) -> dict:
    return {"reps": len(times),
            "median_ms": round(statistics.median(times), 3),
            "min_ms": round(min(times), 3),
            "mean_ms": round(statistics.fmean(times), 3)}


def _sign_test_low(ratios: list) -> float:
    """One-sided 95% lower confidence bound on the median of
    ``ratios`` (sign test): the largest order statistic that at most
    5% of medians would fall below."""
    ordered = sorted(ratios)
    n = len(ordered)
    below, low = 0.0, 0
    for k in range(n):
        below += math.comb(n, k) / 2 ** n     # P(at most k below)
        if below > 0.05:
            break
        low = k
    return ordered[low]


def _paired(name: str, ratios: list) -> dict:
    """``name``: the median of paired per-rep ratios, with its 95%
    sign-test bounds ``name_low`` and ``name_high``."""
    return {name: round(statistics.median(ratios), 3),
            f"{name}_low": round(_sign_test_low(ratios), 3),
            f"{name}_high": round(-_sign_test_low([-r for r in ratios]),
                                  3)}


def measure_sim(reps: int, scale: float) -> dict:
    """Every Table II program x every SIM_TIERS entry, plus the
    program's ``default_vs_interp`` and ``speedup`` (slow / default)
    paired ratios with their sign-test bounds.  Each rep runs every
    tier once, back to back, in alternating order (one warm-up rep
    first: decode and superop plans are per-module caches, built once
    like the compile itself).  The ratio is the median over reps of the
    rep's default/interp time: the two adjacent runs of a rep see the
    same host speed.  Even so, on a shared 2-CPU VM the median of 15 such
    pairs of 10-50 ms runs reached 1.05 for banner, whose two tiers
    run the identical code (it has no eligible loop), so the gate also
    asks for the lower bound to exceed 1: default must be slower with
    95% confidence, not just by the median."""
    from repro.benchsuite import PROGRAMS, get_program
    from repro.compiler import compile_source

    compiled = {name: compile_source(get_program(name, scale=scale).source)
                for name in sorted(PROGRAMS)}
    times = {name: {tier: [] for tier in SIM_TIERS} for name in compiled}
    order = list(SIM_TIERS)
    # Reps outermost: a program's reps spread over the whole
    # measurement, so a burst of host load lands on a few of them
    # rather than on every rep of a short program.
    for rep in range(reps + 1):
        for name, program in compiled.items():
            for tier in (order if rep % 2 else order[::-1]):
                ms = _simulate_cold(program, **SIM_TIERS[tier])
                if rep:
                    times[name][tier].append(ms)
    out = {}
    for name, by_tier in times.items():
        out[name] = {tier: _stats(ts) for tier, ts in by_tier.items()}
        out[name].update(_paired(
            "default_vs_interp",
            [d / i for d, i in zip(by_tier["default"], by_tier["interp"])]))
        out[name].update(_paired(
            "speedup",
            [s / d for s, d in zip(by_tier["slow"], by_tier["default"])]))
    return out


def measure_tables(reps: int, size: int, scale: float,
                   workers: int) -> dict:
    from repro.perf import clear_cache, reset_pool, time_fn
    from repro.reporting import stream_detection, table1, table2

    def regen(n_workers):
        # Every rep is a *cold* regeneration for both lanes: parent
        # compile cache cleared and pooled workers discarded.  Without
        # this, the parallel lane after the serial lane found every job
        # in the warm parent cache and silently took the all-cached
        # serial fallback — both lanes then timed the identical warm
        # in-process loop and the ratio pinned at ~1.0 regardless of
        # the machine.
        clear_cache()
        reset_pool()
        table1(n=size, workers=n_workers)
        table2(scale=scale, workers=n_workers)
        stream_detection(workers=n_workers)

    out = {
        "serial": time_fn(lambda: regen(None), reps),
        "parallel": time_fn(lambda: regen(workers), reps),
        "workers": workers,
        "table1_n": size,
        "table2_scale": scale,
    }
    clear_cache()
    return out


def measure_tables_rev(rev: str, reps: int, size: int,
                       scale: float) -> dict:
    """Time the same table regeneration in a worktree of REV."""
    script = f"""
import json, statistics, time
from repro.reporting import stream_detection, table1, table2

def regen():
    table1(n={size})
    table2(scale={scale})
    stream_detection()

regen()
times = []
for _ in range({reps}):
    start = time.perf_counter()
    regen()
    times.append(time.perf_counter() - start)
print(json.dumps({{
    "reps": {reps},
    "median_ms": round(statistics.median(times) * 1000, 3),
    "min_ms": round(min(times) * 1000, 3),
    "mean_ms": round(statistics.fmean(times) * 1000, 3),
}}))
"""
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "baseline")
        subprocess.run(["git", "worktree", "add", "--detach", tree, rev],
                       cwd=ROOT, check=True, capture_output=True)
        try:
            env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
            out = subprocess.run([sys.executable, "-c", script], env=env,
                                 check=True, capture_output=True, text=True)
            return json.loads(out.stdout)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", tree],
                           cwd=ROOT, check=True, capture_output=True)


def check_cycle_identity(scale: float) -> dict:
    """Fast-vs-reference cycle identity on every benchmark program."""
    from repro.benchsuite import PROGRAMS, get_program
    from repro.compiler import compile_source

    identical = {}
    for name in sorted(PROGRAMS):
        compiled = compile_source(get_program(name, scale=scale).source)
        fast = compiled.simulate()
        slow = compiled.simulate(slow=True)
        identical[name] = (fast.cycles == slow.cycles and
                           fast.value == slow.value and
                           fast.instructions == slow.instructions)
    return identical


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=15)
    parser.add_argument("--scale", type=float, default=0.2,
                        help="problem scale of the lloop5 pipeline and "
                             "the sim tier matrix (matches BENCH_obs)")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--quick", action="store_true",
                        help="small reps/sizes for CI")
    parser.add_argument("--baseline-rev", default=None, metavar="REV",
                        help="git rev of the pre-fast-path tree to time "
                             "the same table regeneration against")
    parser.add_argument("--check", action="store_true",
                        help="verify cycle identity and that the sim "
                             "speedup has not regressed >5% vs the "
                             "recorded BENCH_perf.json; write nothing")
    parser.add_argument("--out", default=os.path.join(ROOT,
                                                      "BENCH_perf.json"))
    args = parser.parse_args(argv)

    reps = 3 if args.quick else args.reps
    table1_n = 200 if args.quick else 1000
    table_scale = 0.08 if args.quick else 0.2
    check_scale = 0.05 if args.quick else 0.1

    from repro.obs import run_manifest

    report = {
        "benchmark": f"scale={args.scale}: lloop5 compile + WM cycle "
                     f"simulation; every Table II program x sim tier",
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "manifest": run_manifest(sys.argv),
        "pipeline": measure_pipeline(reps, args.scale),
        "compile": measure_compile(max(reps, GATE_REPS), args.scale),
        "sim": measure_sim(max(reps, GATE_REPS), args.scale),
        "tables": measure_tables(max(1, reps // 3), table1_n,
                                 table_scale, args.workers),
        "cycles_identical": check_cycle_identity(check_scale),
    }
    sim = report["sim"]
    report["sim_speedup"] = sim["lloop5"]["speedup"]
    pipe = report["pipeline"]
    report["pipeline_speedup_cold"] = round(
        pipe["slow"]["median_ms"] / pipe["cold"]["median_ms"], 2)
    report["pipeline_speedup_warm"] = round(
        pipe["slow"]["median_ms"] / pipe["warm"]["median_ms"], 2)
    tables = report["tables"]
    report["tables_parallel_speedup"] = round(
        tables["serial"]["median_ms"] / tables["parallel"]["median_ms"], 2)
    # compile path relative to the simulator: the two halves of the
    # same rep, so machine speed and external load largely cancel
    report["compile_vs_sim"] = report["compile"]["compile_vs_sim"]

    if args.baseline_rev:
        baseline = measure_tables_rev(
            args.baseline_rev, max(1, reps // 3), tables["table1_n"],
            tables["table2_scale"])
        baseline["rev"] = args.baseline_rev
        tables["baseline"] = baseline
        report["tables_speedup_vs_baseline"] = round(
            baseline["median_ms"] / tables["serial"]["median_ms"], 2)

    print(json.dumps(report, indent=2))

    failed = False
    not_identical = [n for n, ok in report["cycles_identical"].items()
                     if not ok]
    if not_identical:
        print(f"FAIL: fast/reference cycle mismatch on "
              f"{', '.join(not_identical)}", file=sys.stderr)
        failed = True

    if args.check:
        for name, tiers in sim.items():
            ratio = tiers["default_vs_interp"]
            low = tiers["default_vs_interp_low"]
            if ratio > TIER_TOLERANCE and low > 1.0:
                print(f"FAIL: {name}: default fast path {ratio:.2f}x the "
                      f"decoded interpreter (> {TIER_TOLERANCE:.2f}x, "
                      f"median of paired reps; 95% lower bound "
                      f"{low:.2f}x)", file=sys.stderr)
                failed = True
        if os.path.exists(args.out):
            with open(args.out) as fh:
                recorded_report = json.load(fh)

            # Paired-ratio gates, as the tier gate above: fail only
            # when the median is past the tolerance and the 95% bound
            # is past the recorded median, so one noisy median on a
            # shared host cannot fail them alone.
            recorded = recorded_report.get("sim_speedup")
            speedup = sim["lloop5"]
            if recorded and \
                    speedup["speedup"] < recorded * REGRESSION_TOLERANCE \
                    and speedup["speedup_high"] < recorded:
                print(f"FAIL: sim speedup {speedup['speedup']:.2f}x < "
                      f"{recorded * REGRESSION_TOLERANCE:.2f}x (recorded "
                      f"{recorded:.2f}x - 5%, median of paired reps; 95% "
                      f"upper bound {speedup['speedup_high']:.2f}x)",
                      file=sys.stderr)
                failed = True
            recorded = recorded_report.get("compile_vs_sim")
            comp = report["compile"]
            if recorded and \
                    comp["compile_vs_sim"] > recorded / REGRESSION_TOLERANCE \
                    and comp["compile_vs_sim_low"] > recorded:
                print(f"FAIL: compile/sim ratio "
                      f"{comp['compile_vs_sim']:.2f} > "
                      f"{recorded / REGRESSION_TOLERANCE:.2f} (recorded "
                      f"{recorded:.2f} + 5%, median of paired reps; 95% "
                      f"lower bound {comp['compile_vs_sim_low']:.2f}) — "
                      f"the compile path regressed", file=sys.stderr)
                failed = True
            tables_ratio = report["tables_parallel_speedup"]
            if (report["cpu_count"] or 1) >= 2:
                # Multi-core host: the parallel lane must genuinely
                # beat serial.  Hold it to the recorded ratio when
                # that was measured on a multi-core host too, over
                # the same table sizes (--quick regenerates smaller
                # tables, whose jobs amortize the pool less), and to
                # an absolute 1.1x floor otherwise.
                floor_tables = 1.1
                recorded_tables = recorded_report.get("tables", {})
                same_sizes = all(
                    recorded_tables.get(key) == report["tables"][key]
                    for key in ("table1_n", "table2_scale"))
                if (recorded_report.get("cpu_count") or 1) >= 2 \
                        and same_sizes:
                    floor_tables = max(
                        floor_tables,
                        recorded_report.get("tables_parallel_speedup",
                                            0.0) * REGRESSION_TOLERANCE)
                if tables_ratio < floor_tables:
                    print(f"FAIL: tables parallel speedup "
                          f"{tables_ratio}x < {floor_tables:.2f}x on "
                          f"{report['cpu_count']} CPUs",
                          file=sys.stderr)
                    failed = True
            elif tables_ratio < 0.9:
                # Single-CPU host: run_jobs must take the serial
                # fallback, so the two lanes time the same loop — a
                # ratio well below 1.0 means the parallel lane is
                # paying fork overhead it can never win back.
                print(f"FAIL: tables parallel speedup {tables_ratio}x "
                      f"on a single CPU — the serial fallback is not "
                      f"engaging", file=sys.stderr)
                failed = True
        return 1 if failed else 0

    if not failed:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
