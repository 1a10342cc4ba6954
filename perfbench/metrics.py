"""Metric and workload definitions shared by the runner, the worker and
the self-tests.

``BENCHMARK.json`` at the repository root lists the same names; the
self-tests check that the two agree.  Each per-layer metric carries the
end-to-end metric and workload it is expected to move (``target``), so
an issue or review can cite it by name.
"""

from __future__ import annotations

import re

#: workload name -> why it is in the benchmark
WORKLOADS = {
    "suite": "every Table II program at scale 1.0, compile + simulate + "
             "IR-oracle check: the simulator workload, every sim tier incl. "
             "the dot-product and cal regressions",
    "genprog": "160 distinct genprog programs drawn from the seed, same op "
               "as suite: the compiler workload, no cache hits, so a "
               "simulator-only change should not move it",
    "tables": "repro tables defaults (Table I n=1000, Table II scale 0.2, "
              "stream detection) with workers=nproc and a cold cache: the "
              "paper reproduction end to end, profile sims and the pool",
    "serve": "a repro serve daemon in its own process, closed loop over "
             "nproc connections, each source served bench_serve's "
             "run/compile/explain mix: memory hits beside misses that "
             "compile and write the store",
}

#: name -> (unit, better, bound).  Every workload reports every one.
#: Metrics that exist on some workloads only are printed there but are
#: not gated: ``sim_minstr_per_s`` (suite, genprog) and ``paper_err_pp``
#: (tables), with ``fail_ratio`` beside ``ok_ratio`` everywhere.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "ops_per_s": ("op/s", "higher", 0.25),
    "op_ms_p50": ("ms", "lower", 0.25),
    "op_ms_p95": ("ms", "lower", 0.25),
    "ok_ratio": ("ok/attempted", "higher", 0.01),
    "sim_cycles": ("cycles", "lower", 0.2),
    "code_instrs": ("instrs", "lower", 0.1),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

#: optimizer pass names recorded as ``PassStat`` (repro.opt.pipeline)
PASSES = ("combine", "dce", "licm", "peephole", "recurrence", "regalloc",
          "remove_dead_ivs", "remove_identity_moves", "streaming",
          "strength")

#: benchsuite programs (suite tier timings) and the Table II subset
#: (profiled in the tables workload)
SUITE_PROGRAMS = ("lloop5", "dot-product", "bubblesort", "quicksort",
                  "sieve", "iir", "banner", "cal", "dhrystone", "whetstone")
TABLE2_PROGRAMS = ("banner", "bubblesort", "cal", "dhrystone",
                   "dot-product", "iir", "quicksort", "sieve", "whetstone")

_COMPILE = "wall_s, op_ms_* on genprog and serve; little on suite"
_COUNTS = "code_instrs, sim_cycles on suite and genprog; paper_err on tables"
_TIERS = "wall_s and sim_minstr_per_s on suite"
_TABLES = "wall_s on tables"
_SERVE_CACHE = "ops_per_s, op_ms_p50 on serve"
_SERVE_STAGE = "ops_per_s, op_ms_p95 on serve"


def _per_layer() -> dict:
    """name -> (unit, better, target)."""
    out = {
        "frontend.ms": ("ms", "lower", _COMPILE),
        "ir.irgen_ms": ("ms", "lower", _COMPILE),
        "expander.ms": ("ms", "lower", _COMPILE),
        "opt.ms": ("ms", "lower", _COMPILE),
    }
    for name in PASSES:
        out[f"opt.pass_ms.{name}"] = ("ms", "lower", _COMPILE)
    out.update({
        "machine.wm_lower_ms": ("ms", "lower", _COMPILE),
        "opt.rtl_after": ("rtl", "lower", _COUNTS),
        "recurrence.applied": ("count", "higher", _COUNTS),
        "streaming.streams": ("count", "higher", _COUNTS),
        "sim.decode_ms": ("ms", "lower", "wall_s on genprog"),
        "sim.run_ms": ("ms", "lower", "wall_s on suite and genprog"),
    })
    for tier in ("default", "replay", "interp"):
        for prog in SUITE_PROGRAMS:
            out[f"sim.{tier}_ms.{prog}"] = ("ms", "lower", _TIERS)
    out["sim.tier_losses"] = ("count", "lower", _TIERS)
    for prog in TABLE2_PROGRAMS:
        out[f"sim.profile_ms.{prog}"] = ("ms", "lower", _TABLES)
    out.update({
        "ir.interp_ms": ("ms", "lower", "wall_s on suite and genprog"),
        "machine.scalar_exec_ms": ("ms", "lower", _TABLES),
        "reporting.table1_ms": ("ms", "lower", _TABLES),
        "reporting.table2_ms": ("ms", "lower", _TABLES),
        "reporting.detection_ms": ("ms", "lower", _TABLES),
        "reporting.paper_err_pp": ("pp", "lower",
                                   "the reproduction's accuracy on tables"),
        "parallel.pool_ms": ("ms", "lower", _TABLES),
        "parallel.serial_ms": ("ms", "lower", _TABLES),
        "cache.hit_ratio": ("ratio", "higher", _SERVE_CACHE),
        "cache.hit_ms_p50": ("ms", "lower", _SERVE_CACHE),
        "cache.miss_ms_p50": ("ms", "lower", _SERVE_CACHE),
        "store.writes": ("count", "lower", _SERVE_CACHE),
        "store.bytes": ("bytes", "lower", _SERVE_CACHE),
        "store.read_errors": ("count", "lower", _SERVE_CACHE),
        "serve.queue_wait_ms_p50": ("ms", "lower", _SERVE_STAGE),
        "serve.dispatch_ms_p50": ("ms", "lower", _SERVE_STAGE),
        "serve.handler_ms_p50": ("ms", "lower", _SERVE_STAGE),
        "serve.coalesced_ratio": ("ratio", "higher", _SERVE_STAGE),
        "serve.refused": ("count", "lower", _SERVE_STAGE),
        "serve.batch_size_mean": ("count", "higher", _SERVE_STAGE),
        "serve.queue_high_water": ("count", "lower", _SERVE_STAGE),
        "opt.hashseed_divergent": ("count", "lower",
                                   "sim_cycles, code_instrs on every "
                                   "workload (ROADMAP item 3)"),
        "opt.label_divergent": ("count", "lower",
                                "code_instrs on serve: listings that "
                                "depend on what the process compiled "
                                "before"),
        "bench.trace_overhead_pct": ("%", "lower",
                                     "the traced run's cost over the "
                                     "untraced one, this workload"),
    })
    return out


#: name -> (unit, better, target).  Every workload's traced run reports
#: every one; a layer the workload never calls reads 0.
PER_LAYER = _per_layer()

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
