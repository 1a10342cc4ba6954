"""Deterministic fault injection: FaultPlan scheduling and outcomes."""

import json

import pytest

from repro.compiler import compile_source
from repro.obs import RemarkCollector, use_remarks
from repro.qa import FaultPlan
from repro.sim.errors import SimError

SOURCE = """
double a[100]; double b[100];
int main(void) {
    int i; double s;
    for (i = 0; i < 100; i++) { a[i] = 0.5; b[i] = 2.0; }
    s = 0.0;
    for (i = 0; i < 100; i++) s = s + a[i] * b[i];
    return (int)s;
}
"""

#: the fixture simulates with mem_latency=16 so responses stay in
#: flight for a window of cycles; MID is a cycle in that window with
#: streams active, where drop/delay/close faults have a target
MID = 232


@pytest.fixture(scope="module")
def compiled():
    return compile_source(SOURCE)


def simulate(compiled, plan, **kw):
    kw.setdefault("mem_latency", 16)
    kw.setdefault("max_cycles", 200_000)
    return compiled.simulate(fault_plan=plan, **kw)


class TestPlan:
    def test_schedule_groups_by_cycle(self):
        plan = FaultPlan(mem_drop=(5, 9), fifo_overflow=((5, "r0"),))
        assert plan._schedule[5] == [("mem-drop", None),
                                     ("fifo-overflow", "r0")]
        assert plan._schedule[9] == [("mem-drop", None)]

    def test_empty(self):
        assert FaultPlan().empty
        assert not FaultPlan(mem_drop=(1,)).empty

    def test_manifest_roundtrip(self):
        plan = FaultPlan(mem_delay=((10, 50),), mem_drop=(3,),
                         fifo_overflow=((7, "f0"),))
        manifest = plan.to_manifest()
        json.dumps(manifest)  # JSON-stable
        assert FaultPlan.from_manifest(manifest) == plan

    def test_plan_forces_reference_loop(self, compiled):
        sim_clean = compiled.simulate(mem_latency=16)
        sim_plan = simulate(compiled, FaultPlan())
        # empty plan: same machine semantics, cycle-identical to the
        # fast path (the bit-identical fast/slow contract)
        assert sim_plan.value == sim_clean.value == 100
        assert sim_plan.cycles == sim_clean.cycles


class TestOutcomes:
    def test_mem_drop_deadlocks(self, compiled):
        with pytest.raises(SimError) as info:
            simulate(compiled, FaultPlan(mem_drop=(MID,)))
        assert info.value.kind == "deadlock"
        assert info.value.cycle is not None

    def test_mem_delay_is_tolerated(self, compiled):
        # Delaying every in-flight response stalls the machine but must
        # not corrupt it: same value, strictly more cycles.
        clean = simulate(compiled, FaultPlan())
        delayed = simulate(compiled, FaultPlan(mem_delay=((MID, 5000),)))
        assert delayed.value == clean.value
        assert delayed.cycles > clean.cycles + 4000

    def test_fifo_overflow(self, compiled):
        with pytest.raises(SimError) as info:
            simulate(compiled, FaultPlan(fifo_overflow=((MID, "f0"),)))
        assert info.value.kind == "fifo-overflow"
        assert info.value.report()["fifo"].startswith("f")

    def test_fifo_underflow(self, compiled):
        with pytest.raises(SimError) as info:
            simulate(compiled, FaultPlan(fifo_underflow=((MID, "f0"),)))
        assert info.value.kind == "fifo-underflow"

    def test_stream_close_detected(self, compiled):
        # Closing a pending reservation models a stream-exhaustion
        # race: the consumer starves and the simulator reports it.
        with pytest.raises(SimError) as info:
            simulate(compiled, FaultPlan(stream_close=((225, "f0"),)))
        assert info.value.kind == "deadlock"

    def test_faults_on_idle_cycles_are_inert(self, compiled):
        # Cycle 1: nothing in flight, FIFOs empty of reservations —
        # drop/delay/close no-op rather than crash the harness.
        sim = simulate(compiled, FaultPlan(mem_drop=(1,),
                                           mem_delay=((1, 9),),
                                           stream_close=((1, "f0"),)))
        assert sim.value == 100


class TestDeterminism:
    def report_of(self, compiled, plan):
        try:
            simulate(compiled, plan)
        except SimError as exc:
            return json.dumps(exc.report(), sort_keys=True)
        raise AssertionError("plan did not fault")

    def test_same_plan_same_report(self, compiled):
        plan = FaultPlan(mem_drop=(MID,))
        first = self.report_of(compiled, plan)
        second = self.report_of(compiled, FaultPlan(mem_drop=(MID,)))
        assert first == second  # byte-identical

    def test_reports_distinguish_plans(self, compiled):
        drop = self.report_of(compiled, FaultPlan(mem_drop=(MID,)))
        over = self.report_of(compiled,
                              FaultPlan(fifo_overflow=((MID, "f0"),)))
        assert drop != over


class TestRemarks:
    def test_faults_emit_remarks(self, compiled):
        collector = RemarkCollector()
        with use_remarks(collector):
            with pytest.raises(SimError):
                simulate(compiled, FaultPlan(mem_drop=(MID,),
                                             mem_delay=((MID, 9),)))
        reasons = [r.reason for r in collector.remarks
                   if r.pass_name == "faults"]
        assert "fault-mem-drop" in reasons
        assert "fault-mem-delay" in reasons
        drop = next(r for r in collector.remarks
                    if r.reason == "fault-mem-drop")
        assert drop.args["cycle"] == MID
