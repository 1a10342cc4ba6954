"""Cycle ledger, loop map, steady-II detection and headroom bounds."""

import json
import subprocess
import sys

import pytest

from repro.benchsuite import PROGRAMS, get_program
from repro.compiler import compile_source
from repro.obs.profile import (build_profile_report, format_profile_report,
                               headroom_summary, profile_schema_errors)
from repro.opt.bounds import compute_module_bounds
from repro.sim.loopmap import loop_map_for
from repro.sim.telemetry import (LEDGER_CAUSES, LoopIterStats,
                                 detect_steady_ii)

_SCALE = 0.12


@pytest.fixture(scope="module")
def lloop5():
    result = compile_source(get_program("lloop5", scale=0.2).source)
    sim = result.simulate(profile=True)
    return result, sim


class TestLedgerInvariant:
    """Every cycle of every lane attributed exactly once — on every
    benchmark, identically on the fast and reference loops."""

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_partition_and_fast_slow_identity(self, name):
        result = compile_source(get_program(name, scale=_SCALE).source)
        fast = result.simulate(profile=True)
        slow = result.simulate(profile=True, slow=True)
        assert fast.cycles == slow.cycles
        assert fast.value == slow.value
        fast_ledger = fast.telemetry.ledger
        fast_ledger.check_invariant(fast.cycles)  # raises on violation
        assert fast_ledger.to_dict() == slow.telemetry.ledger.to_dict()
        # one observer produces both the ledger and the telemetry
        assert fast.telemetry.to_dict() == slow.telemetry.to_dict()

    def test_profile_does_not_change_results(self):
        result = compile_source(get_program("lloop5", scale=_SCALE).source)
        plain = result.simulate()
        profiled = result.simulate(profile=True)
        assert plain.cycles == profiled.cycles
        assert plain.value == profiled.value

    def test_causes_are_the_documented_set(self, lloop5):
        _result, sim = lloop5
        ledger = sim.telemetry.ledger
        for lane in ledger.lanes.values():
            for causes in lane.values():
                assert set(causes) <= set(LEDGER_CAUSES)


class TestLoopMap:
    def test_every_pc_mapped(self, lloop5):
        _result, sim = lloop5
        loopmap = sim.telemetry.ledger.loopmap
        assert len(loopmap.loop_of) > 0
        assert all(0 <= lid < len(loopmap.loops)
                   for lid in loopmap.loop_of)

    def test_streamed_kernel_loop_found(self, lloop5):
        _result, sim = lloop5
        loopmap = sim.telemetry.ledger.loopmap
        streamed = [info for info in loopmap.loops if info.streamed]
        assert any(info.function == "kernel" for info in streamed)

    def test_cached_on_module(self, lloop5):
        result, sim = lloop5
        assert loop_map_for is not None  # imported as the public entry
        cached = getattr(result.rtl, "_loopmap_cache", None)
        assert cached is sim.telemetry.ledger.loopmap

    def test_sentinel_loop_zero(self, lloop5):
        _result, sim = lloop5
        loopmap = sim.telemetry.ledger.loopmap
        assert loopmap.loops[0].label == "<outside>"
        assert loopmap.loops[0].lid == 0


class TestSteadyII:
    def _stats(self, deltas, depths=None, occs=None, dues=None):
        stats = LoopIterStats()
        cycle = 0
        stats.note(cycle)
        for i, delta in enumerate(deltas):
            cycle += delta
            stats.note(cycle, depths[i] if depths else 0,
                       occs[i] if occs else 0,
                       dues[i] if dues else -1)
        return stats

    def test_constant_deltas_periodic(self):
        ii = detect_steady_ii(self._stats([7] * 20))
        assert ii == {"ii": 7.0, "periodic": True, "period": 1,
                      "samples": 20}

    def test_transient_prefix_ignored(self):
        # queue-fill warm-up (4,4,7) then steady 18s — the suffix wins
        ii = detect_steady_ii(self._stats([4, 4, 7] + [18] * 19))
        assert ii["periodic"] and ii["ii"] == 18.0

    def test_multi_cycle_period(self):
        ii = detect_steady_ii(self._stats([10, 10, 12] * 8))
        assert ii["periodic"]
        assert ii["ii"] == pytest.approx(32 / 3)

    def test_irregular_falls_back_to_mean(self):
        deltas = [3, 50, 7, 21, 4, 90, 11, 2]
        ii = detect_steady_ii(self._stats(deltas))
        assert not ii["periodic"]
        assert ii["ii"] == pytest.approx(sum(deltas) / len(deltas))

    def test_queue_growth_rejects_transient_pace(self):
        # constant pace but the unit queues fill behind it: the IFU is
        # running ahead of execution, so the pace is not sustainable
        deltas = [3] * 10
        growing = list(range(1, 11))
        ii = detect_steady_ii(self._stats(deltas, growing))
        assert not ii["periodic"]
        steady = detect_steady_ii(self._stats(deltas, [2] * 10))
        assert steady["periodic"] and steady["ii"] == 3.0

    def test_occupancy_drift_rejects_transient_pace(self):
        # constant pace while a stream FIFO steadily fills: the pace
        # only holds until the buffer saturates, so it is transient
        deltas = [3] * 12
        filling = list(range(1, 13))
        ii = detect_steady_ii(self._stats(deltas, occs=filling))
        assert not ii["periodic"]
        steady = detect_steady_ii(self._stats(deltas, occs=[6] * 12))
        assert steady["periodic"] and steady["ii"] == 3.0

    def test_memory_phase_drift_rejects_transient_pace(self):
        # the next in-flight completion drifts relative to the back
        # edge — the memory pipeline has not reached its fixed phase
        deltas = [4] * 12
        drifting = list(range(12))
        ii = detect_steady_ii(self._stats(deltas, dues=drifting))
        assert not ii["periodic"]
        steady = detect_steady_ii(self._stats(deltas, dues=[2] * 12))
        assert steady["periodic"] and steady["ii"] == 4.0

    def test_exit_drain_suffix_tolerated(self):
        # the final iterations before loop exit drain the FIFOs at an
        # unchanged pace — a short trailing deviation keeps the verdict
        deltas = [2] * 24
        occs = [14] * 20 + [11, 8, 5, 2]
        ii = detect_steady_ii(self._stats(deltas, occs=occs))
        assert ii["periodic"] and ii["ii"] == 2.0

    def test_no_iterations(self):
        assert detect_steady_ii(LoopIterStats())["ii"] is None


class TestHeadroom:
    @pytest.mark.parametrize("name", sorted(
        ("banner", "bubblesort", "cal", "dhrystone", "dot-product",
         "iir", "quicksort", "sieve", "whetstone")))
    def test_measured_ii_at_least_bound(self, name):
        """The acceptance invariant behind Table II's headroom column:
        a steady (periodic) measured II can never beat the static
        lower bound, and the dominant streamed loop must populate it."""
        result = compile_source(get_program(name, scale=0.2).source)
        sim = result.simulate(profile=True)
        rows = headroom_summary(sim, compute_module_bounds(result.rtl))
        assert rows, f"{name}: no streamed loop rows"
        top = rows[0]
        assert top["headroom"] is not None
        assert top["headroom"] >= 1.0
        for row in rows:
            if row["periodic"] and row["headroom"] is not None:
                assert row["headroom"] >= 1.0, row

    def test_bounds_have_resource_terms(self, lloop5):
        result, _sim = lloop5
        bounds = compute_module_bounds(result.rtl)
        assert bounds
        for b in bounds:
            assert b.bound == max(b.res_mii, b.rec_mii)
            assert set(b.terms) == {"dispatch", "ieu", "feu", "memory",
                                    "streams"}
            assert b.res_mii >= b.terms["dispatch"] > 0

    def test_headroom_remarks_emitted(self, lloop5):
        from repro.obs import RemarkCollector, use_remarks
        with use_remarks(RemarkCollector()) as sink:
            compile_source(get_program("lloop5", scale=_SCALE).source)
        reasons = {r.reason for r in sink.remarks}
        assert {"headroom-res-mii", "headroom-rec-mii",
                "headroom-bound"} <= reasons


class TestProfileReport:
    def test_schema_valid(self, lloop5):
        result, sim = lloop5
        report = build_profile_report(
            sim, compute_module_bounds(result.rtl), source="lloop5")
        assert profile_schema_errors(report) == []
        assert report["invariant"]["ok"]
        assert json.dumps(report)  # JSON-serializable throughout

    def test_loops_sorted_by_residency(self, lloop5):
        result, sim = lloop5
        report = build_profile_report(sim, compute_module_bounds(result.rtl))
        cycles = [row["cycles"] for row in report["loops"]]
        assert cycles == sorted(cycles, reverse=True)

    def test_format_renders_table(self, lloop5):
        result, sim = lloop5
        report = build_profile_report(
            sim, compute_module_bounds(result.rtl), source="lloop5")
        text = format_profile_report(report)
        assert "ledger: ok" in text
        assert "headroom" in text
        assert "*" in text  # streamed loop marked

    def test_schema_errors_detected(self, lloop5):
        result, sim = lloop5
        report = build_profile_report(sim, compute_module_bounds(result.rtl))
        broken = dict(report)
        broken["invariant"] = {"cycles": report["cycles"],
                               "lanes": {"IEU": 1, "FEU": 1, "SCU": 1},
                               "ok": False}
        assert profile_schema_errors(broken)
        del broken["loops"]
        assert any("loops" in e for e in profile_schema_errors(broken))

    def test_requires_profiled_run(self):
        result = compile_source(get_program("lloop5", scale=_SCALE).source)
        sim = result.simulate()
        with pytest.raises(ValueError):
            build_profile_report(sim)


class TestProfileCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", "profile", *args],
            capture_output=True, text=True)

    def test_text_output(self, tmp_path):
        src = tmp_path / "l5.c"
        src.write_text(get_program("lloop5", scale=_SCALE).source)
        proc = self._run(str(src))
        assert proc.returncode == 0, proc.stderr
        assert "ledger: ok" in proc.stdout

    def test_json_output_schema(self, tmp_path):
        src = tmp_path / "l5.c"
        src.write_text(get_program("lloop5", scale=_SCALE).source)
        proc = self._run(str(src), "--json")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert profile_schema_errors(report) == []

    def test_json_deterministic(self, tmp_path):
        src = tmp_path / "l5.c"
        src.write_text(get_program("lloop5", scale=_SCALE).source)
        a = self._run(str(src), "--json")
        b = self._run(str(src), "--json")
        assert a.stdout == b.stdout
