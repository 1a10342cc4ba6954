"""Deterministic fault injection for the WM simulator.

A :class:`FaultPlan` is a frozen schedule of faults keyed by simulation
cycle.  Installing one on :class:`~repro.sim.machine.WMSimulator`
(``fault_plan=`` constructor argument) forces the reference cycle loop
— the fast path skips provably-idle cycles, so a cycle-targeted fault
could land on a cycle that is never executed — and the loop calls
:meth:`FaultPlan.apply` once per cycle, before the memory system ticks.

Faults model the failure modes the simulator must *diagnose*, not
survive: structural violations surface as structured
:class:`~repro.sim.errors.SimError`\\ s whose :meth:`report` is
byte-identical for the same plan on the same program (the determinism
the reproducer bundles rely on).

Supported faults (all schedules are ``(cycle, ...)`` tuples):

* ``mem_delay`` — ``(cycle, extra)``: shift every in-flight memory
  response ``extra`` cycles later (uniformly, preserving delivery
  order).  Latency tolerance test; typically ends in a longer run, a
  deadlock report, or a cycle-limit report.
* ``mem_drop`` — ``(cycle,)``: discard the oldest in-flight response
  without delivering it.  The consumer's FIFO reservation starves and
  the simulator reports a ``deadlock``.
* ``fifo_overflow`` — ``(cycle, fifo)``: fill the named output FIFO
  (``r0``/``r1``/``f0``/``f1``) and push once more → ``fifo-overflow``.
* ``fifo_underflow`` — ``(cycle, fifo)``: drain the named input FIFO
  and pop once more → ``fifo-underflow``.
* ``stream_close`` — ``(cycle, fifo)``: close the named input FIFO's
  oldest pending reservation, modelling a stream-exhaustion race (the
  consumer observes the stream ending early: wrong results or
  deadlock, both detected downstream).

Each injected fault is also emitted as a ``fault-*`` remark when a
remark collector is installed, so traces show faults inline with the
simulation events they perturb.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, fields

from ..obs import Remark, get_remark_sink

__all__ = ["FaultPlan"]

#: FIFO short name -> (bank, index) key used by the simulator's
#: ``in_fifos``/``out_fifos`` dicts.
_FIFO_KEYS = {
    "r0": ("r", 0), "r1": ("r", 1), "f0": ("f", 0), "f1": ("f", 1),
}


def _emit(reason: str, cycle: int, detail: str, **args) -> None:
    sink = get_remark_sink()
    if sink.enabled:
        sink.emit(Remark("faults", "analysis", reason, detail=detail,
                         args={"cycle": cycle, **args}))


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, picklable schedule of injected faults."""

    mem_delay: tuple = ()       # (cycle, extra_cycles) pairs
    mem_drop: tuple = ()        # cycles
    fifo_overflow: tuple = ()   # (cycle, fifo_name) pairs
    fifo_underflow: tuple = ()  # (cycle, fifo_name) pairs
    stream_close: tuple = ()    # (cycle, fifo_name) pairs
    #: cycle -> [(kind, arg)] schedule, derived; not part of identity
    _schedule: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        schedule: dict[int, list] = {}
        for cycle, extra in self.mem_delay:
            schedule.setdefault(cycle, []).append(("mem-delay", extra))
        for cycle in self.mem_drop:
            schedule.setdefault(cycle, []).append(("mem-drop", None))
        for cycle, name in self.fifo_overflow:
            schedule.setdefault(cycle, []).append(("fifo-overflow", name))
        for cycle, name in self.fifo_underflow:
            schedule.setdefault(cycle, []).append(("fifo-underflow", name))
        for cycle, name in self.stream_close:
            schedule.setdefault(cycle, []).append(("stream-close", name))
        object.__setattr__(self, "_schedule", schedule)

    @property
    def empty(self) -> bool:
        return not self._schedule

    # ------------------------------------------------------------- apply --
    def apply(self, sim, cycle: int) -> None:
        """Inject every fault scheduled for ``cycle`` into ``sim``.

        Called by the reference cycle loop at the top of each cycle.
        Structural faults raise :class:`FifoError`, which the run loop
        converts to a structured ``SimError``.
        """
        actions = self._schedule.get(cycle)
        if not actions:
            return
        for kind, arg in actions:
            if kind == "mem-delay":
                self._mem_delay(sim, cycle, arg)
            elif kind == "mem-drop":
                self._mem_drop(sim, cycle)
            elif kind == "fifo-overflow":
                self._fifo_overflow(sim, cycle, arg)
            elif kind == "fifo-underflow":
                self._fifo_underflow(sim, cycle, arg)
            elif kind == "stream-close":
                self._stream_close(sim, cycle, arg)

    @staticmethod
    def _mem_delay(sim, cycle: int, extra: int) -> None:
        inflight = sim.memory._inflight
        if not inflight:
            return
        _emit("fault-mem-delay", cycle,
              f"delayed {len(inflight)} in-flight responses by {extra}",
              extra=extra, inflight=len(inflight))
        sim.memory._inflight = deque(
            (due + extra, deliver, value)
            for due, deliver, value in inflight)

    @staticmethod
    def _mem_drop(sim, cycle: int) -> None:
        inflight = sim.memory._inflight
        if not inflight:
            return
        _emit("fault-mem-drop", cycle, "dropped oldest in-flight response")
        inflight.popleft()

    @staticmethod
    def _fifo_overflow(sim, cycle: int, name: str) -> None:
        fifo = sim.out_fifos[_FIFO_KEYS[name]]
        _emit("fault-fifo-overflow", cycle,
              f"overflowing output FIFO {name}", fifo=name)
        while True:          # fills to capacity, then raises
            fifo.push(0)

    @staticmethod
    def _fifo_underflow(sim, cycle: int, name: str) -> None:
        fifo = sim.in_fifos[_FIFO_KEYS[name]]
        _emit("fault-fifo-underflow", cycle,
              f"draining input FIFO {name}", fifo=name)
        while True:          # drains buffered data, then raises
            fifo.pop()

    @staticmethod
    def _stream_close(sim, cycle: int, name: str) -> None:
        fifo = sim.in_fifos[_FIFO_KEYS[name]]
        if not fifo._sources:
            return
        _emit("fault-stream-close", cycle,
              f"closed oldest reservation of input FIFO {name}", fifo=name)
        fifo._sources[0].close()

    # ---------------------------------------------------------- manifest --
    def to_manifest(self) -> dict:
        """A JSON-stable dict round-trippable via :meth:`from_manifest`."""
        out = {}
        for f in fields(self):
            if f.name.startswith("_"):
                continue
            value = getattr(self, f.name)
            if value:
                out[f.name] = [list(v) if isinstance(v, tuple) else v
                               for v in value]
        return out

    @classmethod
    def from_manifest(cls, manifest: dict) -> "FaultPlan":
        kwargs = {}
        for f in fields(cls):
            if f.name.startswith("_") or f.name not in manifest:
                continue
            kwargs[f.name] = tuple(
                tuple(v) if isinstance(v, list) else v
                for v in manifest[f.name])
        return cls(**kwargs)
