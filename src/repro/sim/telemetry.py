"""Simulator telemetry: per-unit, per-FIFO, per-stream attribution.

Collected only when a simulation is started with ``telemetry=True``
(``WMSimulator(..., telemetry=True)`` / ``simulate(..., telemetry=True)``
/ ``CompileResult.simulate(telemetry=True)``); the default path adds a
single predicted-not-taken branch per cycle, keeping cycle counts and
timings identical to the uninstrumented simulator.

What is attributed:

* **units** (IEU/FEU) — every cycle is classified as *busy* (an
  instruction executed or a multi-cycle operation occupied the unit),
  *stalled* (the queue head could not execute, with a reason:
  ``operand-wait``, ``output-full``, ``memory-port``, ``store-conflict``,
  ``stream-drain``, ``cc-full``) or *idle* (empty queue).
* **FIFOs** — occupancy sampled once per cycle into a per-level
  histogram plus an exact high-water mark maintained by the FIFOs
  themselves on every push.
* **streams** (SCU) — per activated stream: activation/completion
  cycles and elements transferred, plus SCU busy-cycle count.
* **memory** — reads/writes classified per region (each global array /
  the stack) by :class:`~repro.sim.memory.MemorySystem`.

:meth:`SimTelemetry.emit_spans` projects the collected attribution onto
a :class:`repro.obs.Tracer` as simulated-time spans (one per unit, one
per stream) so a run can be inspected in ``chrome://tracing``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "UnitStats", "FifoStats", "StreamStats", "SimTelemetry",
    "LEDGER_CAUSES", "CycleLedger", "LoopIterStats", "detect_steady_ii",
]

#: occupancy histogram size (FIFO capacities are small; clamp above)
_MAX_LEVEL = 32

#: Every cause the cycle ledger may charge a cycle to.  ``execute`` is
#: productive work; the rest say what the unit was waiting for.
LEDGER_CAUSES = (
    "execute",         # an instruction retired (or the SCU moved data)
    "unit-busy",       # occupied by an earlier multi-cycle operation
    "fifo-full",       # output (or CC) FIFO back-pressure
    "fifo-empty",      # waiting for FIFO operands to arrive
    "memory-latency",  # waiting on ports, in-flight requests, or drains
    "branch",          # idle while the IFU waits on a branch condition
    "drain",           # idle during final drain (Ret/halt wind-down)
    "idle",            # nothing queued and no blocking condition
)


@dataclass
class UnitStats:
    """Cycle attribution for one in-order execution unit."""

    name: str
    busy_cycles: int = 0
    stall_cycles: int = 0
    idle_cycles: int = 0
    stall_reasons: dict[str, int] = field(default_factory=dict)

    def record(self, status: str, reason: Optional[str]) -> None:
        if status == "busy":
            self.busy_cycles += 1
        elif status == "stall":
            self.stall_cycles += 1
            key = reason or "unknown"
            self.stall_reasons[key] = self.stall_reasons.get(key, 0) + 1
        else:
            self.idle_cycles += 1

    def record_many(self, status: str, reason: Optional[str],
                    count: int) -> None:
        """Attribute ``count`` identical cycles at once (the simulator's
        stall fast-forward replays the skip-initiating cycle's status
        for every skipped cycle)."""
        if count <= 0:
            return  # keep exact equivalence with `count` record() calls
        if status == "busy":
            self.busy_cycles += count
        elif status == "stall":
            self.stall_cycles += count
            key = reason or "unknown"
            self.stall_reasons[key] = \
                self.stall_reasons.get(key, 0) + count
        else:
            self.idle_cycles += count

    def to_dict(self) -> dict:
        return {
            "busy_cycles": self.busy_cycles,
            "stall_cycles": self.stall_cycles,
            "idle_cycles": self.idle_cycles,
            "stall_reasons": dict(sorted(self.stall_reasons.items())),
        }


@dataclass
class FifoStats:
    """Occupancy statistics for one FIFO (sampled once per cycle)."""

    name: str
    capacity: int = 0
    high_water: int = 0
    samples: int = 0
    #: occupancy_cycles[n] = cycles the FIFO held exactly n elements
    occupancy_cycles: list[int] = field(
        default_factory=lambda: [0] * (_MAX_LEVEL + 1))

    def sample(self, occupancy: int) -> None:
        # called per FIFO per observed cycle: a compare, not min()
        self.samples += 1
        self.occupancy_cycles[occupancy if occupancy < _MAX_LEVEL
                              else _MAX_LEVEL] += 1

    def sample_many(self, occupancy: int, count: int) -> None:
        """Record ``count`` cycles at a constant occupancy (stall
        fast-forward: the FIFO cannot change while nothing moves)."""
        self.samples += count
        self.occupancy_cycles[min(occupancy, _MAX_LEVEL)] += count

    @property
    def mean_occupancy(self) -> float:
        if not self.samples:
            return 0.0
        return sum(n * c for n, c in enumerate(self.occupancy_cycles)) \
            / self.samples

    @property
    def full_cycles(self) -> int:
        """Cycles spent at capacity (back-pressure on the producer)."""
        if not self.capacity:
            return 0
        return sum(self.occupancy_cycles[self.capacity:])

    def to_dict(self) -> dict:
        top = max((n for n, c in enumerate(self.occupancy_cycles) if c),
                  default=0)
        return {
            "capacity": self.capacity,
            "high_water": self.high_water,
            "mean_occupancy": round(self.mean_occupancy, 3),
            "full_cycles": self.full_cycles,
            "occupancy_cycles": self.occupancy_cycles[:top + 1],
        }


@dataclass
class StreamStats:
    """Progress record for one activated SCU stream."""

    key: str
    kind: str                      # "in" | "out"
    start_cycle: int
    base: int
    stride: int
    width: int
    count: Optional[int]
    elements: int = 0
    last_cycle: int = 0

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "start_cycle": self.start_cycle,
            "end_cycle": self.last_cycle,
            "elements": self.elements,
            "base": self.base,
            "stride": self.stride,
            "width": self.width,
            "count": self.count,
        }


#: iteration-delta ring size for the steady-state II detector
_TAIL_SIZE = 64

#: longest repeating pattern of per-iteration deltas the detector tries
_MAX_PERIOD = 8


class LoopIterStats:
    """Per-loop iteration record: back-edge count and cycle deltas.

    Fed by the IFU on every taken back edge; the deltas between
    consecutive back edges of a loop are the observed initiation
    intervals.  A bounded tail ring keeps the most recent deltas for
    the periodicity check without unbounded growth.
    """

    __slots__ = ("iterations", "last_cycle", "deltas", "_tail", "_depths",
                 "_occs", "_dues", "_pos")

    def __init__(self) -> None:
        self.iterations = 0
        self.last_cycle = -1
        #: delta histogram: cycles-per-iteration -> occurrences
        self.deltas: dict[int, int] = {}
        self._tail: list[int] = []
        #: unit-queue depth at each recorded back edge (aligned with
        #: ``_tail``); lets the steady detector see queue build-up
        self._depths: list[int] = []
        #: total stream-FIFO occupancy at each back edge — a steady
        #: verdict requires it to repeat with the same period as the
        #: cycle deltas (constant pace with drifting buffers is not a
        #: steady state the fast-forward engine could replay)
        self._occs: list[int] = []
        #: cycles until the next memory completion at each back edge
        #: (-1 when nothing is in flight) — likewise must be periodic
        self._dues: list[int] = []
        self._pos = 0

    def note(self, cycle: int, depth: int = 0, occupancy: int = 0,
             mem_due: int = -1) -> None:
        if self.last_cycle >= 0:
            delta = cycle - self.last_cycle
            self.deltas[delta] = self.deltas.get(delta, 0) + 1
            if len(self._tail) < _TAIL_SIZE:
                self._tail.append(delta)
                self._depths.append(depth)
                self._occs.append(occupancy)
                self._dues.append(mem_due)
            else:
                self._tail[self._pos] = delta
                self._depths[self._pos] = depth
                self._occs[self._pos] = occupancy
                self._dues[self._pos] = mem_due
                self._pos = (self._pos + 1) % _TAIL_SIZE
        self.iterations += 1
        self.last_cycle = cycle

    def tail(self) -> list[int]:
        """The recorded deltas, oldest first."""
        return self._tail[self._pos:] + self._tail[:self._pos]

    def depth_tail(self) -> list[int]:
        """Queue depths at the recorded back edges, oldest first."""
        return self._depths[self._pos:] + self._depths[:self._pos]

    def occupancy_tail(self) -> list[int]:
        """Stream-FIFO occupancies at the back edges, oldest first."""
        return self._occs[self._pos:] + self._occs[:self._pos]

    def due_tail(self) -> list[int]:
        """Next-memory-completion deltas at the back edges, oldest
        first (-1 where nothing was in flight)."""
        return self._dues[self._pos:] + self._dues[:self._pos]

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "last_cycle": self.last_cycle,
            "deltas": {str(k): v for k, v in sorted(self.deltas.items())},
            "tail": self.tail(),
            "depth_tail": self.depth_tail(),
            "occupancy_tail": self.occupancy_tail(),
            "due_tail": self.due_tail(),
        }


def detect_steady_ii(stats: LoopIterStats) -> dict:
    """Steady-state initiation interval from the per-iteration deltas.

    Looks for the smallest period ``p`` (up to :data:`_MAX_PERIOD`) such
    that a *suffix* of the recent delta tail repeats with period ``p``;
    the II is then the exact average of one period.  Matching a suffix
    rather than the whole window matters because the first iterations of
    a loop run ahead of the execution units — the IFU dispatches into
    the unit queues and takes back edges early — so the leading deltas
    under-shoot the steady II until the queues saturate.  The suffix
    must cover at least two full periods and at least half the window,
    must not show net unit-queue growth (a constant pace with queues
    filling behind it is transient), and the stream-FIFO occupancies
    and next-memory-completion deltas sampled at the back edges must
    repeat with the same period (outside a short exit-drain suffix),
    so a still-transient run is not mistaken for steady state.  A periodic verdict is the heuristic
    twin of the guard the analytic fast-forward needs; the superop
    engine (:mod:`repro.sim.superops`) proves the stronger exact form —
    full timing-state fingerprint equality — before it advances.

    Falls back to the all-iterations mean with ``periodic=False`` when
    no period fits; the mean blends warm-up with steady iterations, so
    it can sit on either side of the true steady II.
    """
    tail = stats.tail()
    window = tail[-32:]
    depths = stats.depth_tail()[-32:]
    occs = stats.occupancy_tail()[-32:]
    dues = stats.due_tail()[-32:]
    n = len(window)
    for period in range(1, _MAX_PERIOD + 1):
        if n < 2 * period:
            break
        matches = 0
        for j in range(n - 1, period - 1, -1):
            if window[j] != window[j - period]:
                break
            matches += 1
        suffix = matches + period
        if matches >= period and 2 * suffix >= n:
            # Back edges can repeat at a constant pace while the unit
            # queues silently fill behind them (the IFU runs ahead of
            # execution until a queue saturates) — a pace that is pure
            # transient, not sustainable.  Net queue growth across the
            # candidate suffix beyond within-period wobble rejects it.
            if len(depths) == n and \
                    depths[-1] - depths[-suffix] > period:
                break
            # The FIFO occupancies and the memory phase must repeat
            # with the same period: a constant back-edge pace whose
            # buffers or in-flight due-times drift is not a state the
            # analytic fast-forward could replay, so it must not earn
            # the periodic verdict.  The ring ends at the loop's final
            # iterations, where streams close and the FIFOs drain at an
            # unchanged pace, so a short trailing suffix is exempt —
            # genuine transient drift spans the whole window and still
            # fails the interior.  A longer period may still fit.
            guard = min(matches // 2, 8)
            if len(occs) == n and any(
                    occs[j] != occs[j - period] or
                    dues[j] != dues[j - period]
                    for j in range(n - matches, n - guard)):
                continue
            return {
                "ii": sum(window[-period:]) / period,
                "periodic": True,
                "period": period,
                "samples": suffix,
            }
    total = sum(d * c for d, c in stats.deltas.items())
    count = sum(stats.deltas.values())
    return {
        "ii": (total / count) if count else None,
        "periodic": False,
        "period": 0,
        "samples": count,
    }


#: transition-list cap per FIFO occupancy track (Chrome counter lanes)
_TRACK_LIMIT = 4096


class CycleLedger:
    """Exact per-loop, per-cause attribution of every unit cycle.

    Three lanes (IEU/FEU/SCU) each charge every simulated cycle to
    exactly one ``(loop, cause)`` pair, so for any lane the counts of a
    loop sum to the cycles the program counter spent inside it, and the
    lane's grand total equals the run's cycle count (the ledger
    invariant, tested over the whole benchmark suite).  The simulator
    keeps the fast path's bulk attribution (``charge`` with a count)
    bit-identical to the reference loop's per-cycle charges.
    """

    def __init__(self, loopmap) -> None:
        self.loopmap = loopmap
        self.lanes: dict[str, dict[int, dict[str, int]]] = {
            "IEU": {}, "FEU": {}, "SCU": {}}
        self.iters: dict[int, LoopIterStats] = {}
        #: per-FIFO occupancy transition lists [(cycle, level), ...]
        self.fifo_tracks: dict[str, list] = {}
        self.tracks_truncated = False

    def charge(self, lane: str, lid: int, cause: str,
               count: int = 1) -> None:
        per = self.lanes[lane]
        causes = per.get(lid)
        if causes is None:
            causes = per[lid] = {}
        causes[cause] = causes.get(cause, 0) + count

    def note_iteration(self, lid: int, cycle: int,
                       depth: int = 0, occupancy: int = 0,
                       mem_due: int = -1) -> None:
        stats = self.iters.get(lid)
        if stats is None:
            stats = self.iters[lid] = LoopIterStats()
        stats.note(cycle, depth, occupancy, mem_due)

    def track_fifo(self, name: str, cycle: int, level: int) -> None:
        track = self.fifo_tracks.get(name)
        if track is None:
            track = self.fifo_tracks[name] = []
        if track and track[-1][1] == level:
            return
        if len(track) >= _TRACK_LIMIT:
            self.tracks_truncated = True
            return
        track.append((cycle, level))

    # ------------------------------------------------------------ queries --
    def lane_total(self, lane: str) -> int:
        return sum(count
                   for causes in self.lanes[lane].values()
                   for count in causes.values())

    def loop_cycles(self, lid: int) -> int:
        """Cycles the pc spent inside loop ``lid`` (any single lane's
        per-loop total — the lanes agree by construction)."""
        return sum(self.lanes["IEU"].get(lid, {}).values())

    def check_invariant(self, cycles: int) -> None:
        """Raise if any lane did not attribute every cycle exactly once."""
        for lane in self.lanes:
            total = self.lane_total(lane)
            if total != cycles:
                raise AssertionError(
                    f"ledger invariant violated: lane {lane} attributed "
                    f"{total} of {cycles} cycles")

    def to_dict(self) -> dict:
        return {
            "causes": list(LEDGER_CAUSES),
            "loops": [info.to_dict() for info in self.loopmap.loops],
            "lanes": {
                lane: {str(lid): dict(sorted(causes.items()))
                       for lid, causes in sorted(per.items())}
                for lane, per in self.lanes.items()},
            "iterations": {str(lid): stats.to_dict()
                           for lid, stats in sorted(self.iters.items())},
            "fifo_tracks": {name: [list(t) for t in track]
                            for name, track in
                            sorted(self.fifo_tracks.items())},
            "tracks_truncated": self.tracks_truncated,
        }


class SimTelemetry:
    """All telemetry of one simulated run."""

    def __init__(self) -> None:
        self.units: dict[str, UnitStats] = {
            "IEU": UnitStats("IEU"),
            "FEU": UnitStats("FEU"),
        }
        self.fifos: dict[str, FifoStats] = {}
        self.streams: list[StreamStats] = []
        self.scu_busy_cycles = 0
        self.mem_busy_cycles = 0
        self.mem_regions: dict[str, dict] = {}
        self.cycles = 0
        #: cycle ledger; present only on profiled runs (``profile=True``)
        self.ledger: Optional[CycleLedger] = None

    def fifo(self, name: str, capacity: int) -> FifoStats:
        stats = self.fifos.get(name)
        if stats is None:
            stats = self.fifos[name] = FifoStats(name, capacity)
        return stats

    def to_dict(self) -> dict:
        data = {
            "cycles": self.cycles,
            "units": {n: u.to_dict() for n, u in self.units.items()},
            "scu_busy_cycles": self.scu_busy_cycles,
            "mem_busy_cycles": self.mem_busy_cycles,
            "fifos": {n: f.to_dict()
                      for n, f in sorted(self.fifos.items())},
            "streams": [s.to_dict() for s in self.streams],
            "memory_regions": {n: dict(v) for n, v in
                               sorted(self.mem_regions.items())},
        }
        if self.ledger is not None:
            data["ledger"] = self.ledger.to_dict()
        return data

    def emit_spans(self, tracer) -> None:
        """Project the attribution onto ``tracer`` as simulated-time
        spans: one span per execution unit (IEU/FEU/SCU/MEM) covering
        the whole run, one per activated stream, plus instant events
        for FIFO high-water marks."""
        end = float(self.cycles)
        for name, unit in self.units.items():
            tracer.span_at(
                f"{name} ({unit.busy_cycles} busy / "
                f"{unit.stall_cycles} stall)",
                0.0, end, category="sim", track=name, **unit.to_dict())
        tracer.span_at(f"SCU ({self.scu_busy_cycles} busy)", 0.0, end,
                       category="sim", track="SCU",
                       busy_cycles=self.scu_busy_cycles)
        tracer.span_at(f"MEM ({self.mem_busy_cycles} busy)", 0.0, end,
                       category="sim", track="MEM",
                       busy_cycles=self.mem_busy_cycles,
                       regions=self.mem_regions)
        for stream in self.streams:
            tracer.span_at(
                f"stream-{stream.kind} {stream.key}",
                float(stream.start_cycle),
                float(stream.last_cycle or self.cycles),
                category="sim", track="SCU", **stream.to_dict())
        for name, fifo in sorted(self.fifos.items()):
            tracer.event_at(
                f"fifo {name} hwm={fifo.high_water}", end,
                category="sim", track="FIFO", **fifo.to_dict())
        ledger = self.ledger
        if ledger is not None:
            # FIFO occupancy as Chrome counter lanes ("C" events): one
            # sample per occupancy transition, RLE-compact by design.
            for name, track in sorted(ledger.fifo_tracks.items()):
                for cycle, level in track:
                    tracer.event_at(f"fifo {name}", float(cycle),
                                    category="counter",
                                    track=f"fifo {name}", level=level)
                if track and track[-1][1] != 0:
                    tracer.event_at(f"fifo {name}", end,
                                    category="counter",
                                    track=f"fifo {name}",
                                    level=track[-1][1])

    def summary_lines(self) -> list[str]:
        """Human-readable digest used by the CLI trace/summary output."""
        lines = [f"simulated cycles: {self.cycles}"]
        for name, unit in self.units.items():
            reasons = ", ".join(f"{k}={v}" for k, v in
                                sorted(unit.stall_reasons.items()))
            lines.append(
                f"  {name}: busy {unit.busy_cycles}, "
                f"stall {unit.stall_cycles}, idle {unit.idle_cycles}"
                + (f"  [{reasons}]" if reasons else ""))
        lines.append(f"  SCU: busy {self.scu_busy_cycles}; "
                     f"MEM: busy {self.mem_busy_cycles}")
        for name, fifo in sorted(self.fifos.items()):
            if not fifo.high_water:
                continue
            lines.append(f"  fifo {name}: high-water {fifo.high_water}/"
                         f"{fifo.capacity}, mean {fifo.mean_occupancy:.2f},"
                         f" full {fifo.full_cycles} cycles")
        for stream in self.streams:
            lines.append(
                f"  stream {stream.key} ({stream.kind}): "
                f"{stream.elements} elements, cycles "
                f"{stream.start_cycle}..{stream.last_cycle}")
        for region, stats in sorted(self.mem_regions.items()):
            lines.append(f"  mem[{region}]: {stats.get('reads', 0)} reads, "
                         f"{stats.get('writes', 0)} writes")
        return lines
