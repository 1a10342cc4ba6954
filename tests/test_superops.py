"""The closed-form steady-state fast-forward tier (repro.sim.superops).

The contract under test is *bit identity*: a fast run (fast-forward
replaying through the per-op steps) and the decoded interpreter
(``fast_forward=False`` or ``superops=False``, neither of which builds
an engine) must produce the same SimResult as the reference loop
(``slow=True``) — same value, same cycle count, same per-unit
instruction counts, same memory traffic, same data segment — on every
benchmark and at de-opt boundaries (cycle limits landing inside a
would-be-skipped window, loop trip counts that end mid-period, streams
closing out of steady state).
"""

import pytest

from repro.benchsuite import PROGRAMS, UTILITY_CORPUS, get_program
from repro.compiler import compile_source
from repro.qa.genprog import gen_program
from repro.sim.loopmap import loop_map_for
from repro.sim.machine import WMSimulator
from repro.sim.errors import SimError
from repro.sim.superops import FFEngine

#: the nine Table II programs plus the Livermore driver
BENCH = tuple(sorted(PROGRAMS))


def _fingerprint(result):
    end = result.memory.data_end
    return (
        result.value,
        result.cycles,
        result.instructions,
        dict(result.unit_instructions),
        result.memory_reads,
        result.memory_writes,
        result.stream_elements,
        bytes(result.memory[0:end]),
    )


def _ff_stats(compiled) -> dict:
    """Coverage of the most recent default run of ``compiled``."""
    cache = getattr(compiled.rtl, "_superop_cache", None)
    return cache.last_ff_stats if cache is not None else {}


def assert_identical(compiled, **kwargs):
    slow = compiled.simulate(slow=True, **kwargs)
    for tier in ({}, {"fast_forward": False}, {"superops": False}):
        fast = compiled.simulate(**tier, **kwargs)
        assert _fingerprint(fast) == _fingerprint(slow), tier
    return slow


class TestBitIdentity:
    @pytest.mark.parametrize("name", BENCH)
    def test_benchmark_identical(self, name):
        compiled = compile_source(get_program(name, scale=0.2).source)
        assert_identical(compiled)
        # ...and the default run threw no replayed window away
        assert all(entry["discarded"] == 0
                   for entry in _ff_stats(compiled).values())

    @pytest.mark.parametrize("name", sorted(UTILITY_CORPUS))
    def test_utility_identical(self, name):
        assert_identical(compile_source(UTILITY_CORPUS[name]))

    def test_repeated_runs_stable(self):
        # plan caching must not leak state between runs of one module
        compiled = compile_source(
            get_program("lloop5", scale=0.2).source)
        first = compiled.simulate()
        second = compiled.simulate()
        assert _fingerprint(first) == _fingerprint(second)

    def test_nondefault_machine_geometry(self):
        # the loop plans are shared by every configuration of one
        # module, but the period is not: shrinking the FIFOs or slowing
        # memory changes it, and each run must detect its own
        compiled = compile_source(
            get_program("dot-product", scale=0.3).source)
        assert_identical(compiled)
        assert_identical(compiled, fifo_capacity=4)
        assert_identical(compiled, mem_latency=7)
        assert_identical(compiled)


def _counted_loop(n: int) -> str:
    return f"""
double x[{max(n, 4)}]; double y[{max(n, 4)}];

int main(void) {{
    int i; double s;
    s = 0.0;
    for (i = 0; i < {max(n, 4)}; i++) {{ x[i] = i * 0.5; y[i] = 1.0; }}
    for (i = 0; i < {n}; i++)
        s = s + x[i] * y[i];
    return (int)(s * 10.0);
}}
"""


class TestDeoptBoundaries:
    @pytest.mark.parametrize("trip", [3, 17, 63, 64, 65, 200, 257])
    def test_trip_counts_end_mid_period(self, trip):
        # trip counts straddling powers of two and odd primes: the
        # steady window must stop with MARGIN_ITERS to spare and hand
        # the drain back to the interpreter wherever the phase lands
        assert_identical(compile_source(_counted_loop(trip)))

    def test_cycle_limit_inside_skipped_window(self):
        compiled = compile_source(
            get_program("lloop5", scale=0.3).source)
        total = compiled.simulate(slow=True).cycles
        # limits landing in the middle of the run — inside windows the
        # fast path would otherwise advance in closed form — must raise
        # at the identical interpreted cycle with the identical pc
        for limit in (total // 2, (2 * total) // 3, total - 3):
            with pytest.raises(SimError) as slow_exc:
                compiled.simulate(slow=True, max_cycles=limit)
            with pytest.raises(SimError) as fast_exc:
                compiled.simulate(max_cycles=limit)
            assert slow_exc.value.kind == "cycle-limit"
            assert fast_exc.value.kind == "cycle-limit"
            assert fast_exc.value.cycle == slow_exc.value.cycle
            assert fast_exc.value.pc == slow_exc.value.pc

    def test_stream_close_during_steady_state(self):
        # a two-phase main: the first streamed loop reaches steady
        # state, its streams close, and a second loop with a different
        # period follows — the engine must de-opt at the close and
        # re-prove the second loop separately
        source = """
double a[300]; double b[300];

int main(void) {
    int i; double s; double t;
    for (i = 0; i < 300; i++) { a[i] = i * 0.25; b[i] = 0.5; }
    s = 0.0;
    for (i = 0; i < 300; i++)
        s = s + a[i] * b[i];
    t = 0.0;
    for (i = 1; i < 300; i++)
        t = t + a[i] - a[i-1] * b[i];
    return (int)(s + t);
}
"""
        assert_identical(compile_source(source))


class TestEngineKeying:
    """Instrumented runs must never consult the fast-forward engine."""

    def _rtl(self):
        return compile_source(get_program("lloop5", scale=0.1).source).rtl

    def test_plain_run_arms_engine(self):
        rtl = self._rtl()
        sim = WMSimulator(rtl)
        assert sim._ff is not None
        sim.run()
        assert getattr(rtl, "_superop_cache", None) is not None

    def test_telemetry_profile_slow_never_arm(self):
        rtl = self._rtl()
        WMSimulator(rtl).run()  # warm the plan cache
        assert WMSimulator(rtl, telemetry=True)._ff is None
        assert WMSimulator(rtl, profile=True)._ff is None
        assert WMSimulator(rtl, slow=True)._ff is None
        assert WMSimulator(rtl, superops=False)._ff is None
        assert WMSimulator(rtl, fast_forward=False)._ff is None

    def test_fault_plan_forces_reference_loop(self):
        class NoopPlan:
            def apply(self, sim, cycle):
                return ()

        rtl = self._rtl()
        WMSimulator(rtl).run()  # warm the plan cache
        sim = WMSimulator(rtl, fault_plan=NoopPlan())
        assert sim.slow
        assert sim._ff is None

    def test_instrumented_results_match_fast(self):
        compiled = compile_source(
            get_program("dot-product", scale=0.2).source)
        fast = compiled.simulate()
        telem = compiled.simulate(telemetry=True)
        prof = compiled.simulate(profile=True)
        for other in (telem, prof):
            assert other.value == fast.value
            assert other.cycles == fast.cycles
            assert other.instructions == fast.instructions

    def test_ff_stats_recorded_per_loop(self):
        compiled = compile_source(
            get_program("lloop5", scale=0.2).source)
        compiled.simulate()
        cache = compiled.rtl._superop_cache
        assert cache.last_ff_stats, "no loop advanced analytically"
        for header, entry in cache.last_ff_stats.items():
            assert set(entry) == {"header", "iterations", "windows",
                                  "period", "cycles", "discarded"}
            assert entry["discarded"] == 0
            assert entry["header"] == header
            assert entry["iterations"] >= entry["windows"] > 0
            assert entry["period"] > 0
            assert entry["cycles"] > 0


#: Table II programs with a loop fast-forward advances at scale 0.2
#: (share of cycles advanced: lloop5 0.64, dot-product 0.48, iir 0.22
#: to 0.23 by hash seed, sieve 0.063, cal 0.001, whetstone 0.002)
ADVANCED = ("lloop5", "dot-product", "iir", "sieve", "cal", "whetstone")


class TestCoverage:
    """Eligibility must not shrink silently: a loop that stops being
    advanced still passes every identity test."""

    @pytest.mark.parametrize("name", ADVANCED)
    def test_program_advances(self, name):
        compiled = compile_source(get_program(name, scale=0.2).source)
        compiled.simulate()
        stats = _ff_stats(compiled).values()
        assert sum(entry["cycles"] for entry in stats) > 0
        assert all(entry["discarded"] == 0 for entry in stats)


class TestDeepBacklogCut:
    """Memory-latency-bound loops reach their boundary with a deep unit
    queue backlog, and some of the pending ops wait on an in-FIFO whose
    next value is not issued yet.  The replay must rebuild that cut and
    commit, not replay a window and throw it away."""

    def test_dot_inner_loop_advances(self):
        compiled = compile_source(
            get_program("dot-product", scale=0.2).source)
        sim = WMSimulator(compiled.rtl)
        loops = loop_map_for(compiled.rtl, sim.program, sim._dops).loops
        dot = [info.header for info in loops[1:] if info.function == "dot"]
        assert dot, "no loop in dot()"
        compiled.simulate()
        stats = _ff_stats(compiled)
        for header in dot:
            assert stats[header]["iterations"] > 0
            assert stats[header]["discarded"] == 0

    def test_no_discarded_windows_on_generated_programs(self):
        discarded = {}
        for seed in range(50):
            compiled = compile_source(gen_program(seed))
            compiled.simulate()
            count = sum(entry["discarded"]
                        for entry in _ff_stats(compiled).values())
            if count:
                discarded[seed] = count
        assert not discarded

    def test_dot_product_full_scale_identical(self):
        # scale 1.0: the deepest backlog the Table II programs produce
        assert_identical(compile_source(
            get_program("dot-product", scale=1.0).source))

    @pytest.mark.parametrize("name", ["dot-product", "lloop5"])
    def test_failed_exit_check_costs_one_window(self, name, monkeypatch):
        # A detector/replay disagreement abandons the loop after one
        # discarded window instead of replaying one per boundary.
        compiled = compile_source(get_program(name, scale=0.2).source)
        slow = compiled.simulate(slow=True)
        replays: dict = {}
        original = FFEngine._replay

        def counting(self, plan, *args):
            replays[plan.header] = replays.get(plan.header, 0) + 1
            return original(self, plan, *args)

        monkeypatch.setattr(FFEngine, "_replay", counting)
        monkeypatch.setattr(FFEngine, "_landed",
                            staticmethod(lambda *args: False))
        fast = compiled.simulate()
        assert _fingerprint(fast) == _fingerprint(slow)
        assert replays and set(replays.values()) == {1}
        stats = _ff_stats(compiled)
        assert set(stats) == set(replays)
        for entry in stats.values():
            assert entry["discarded"] == 1
            assert entry["windows"] == entry["iterations"] == 0
