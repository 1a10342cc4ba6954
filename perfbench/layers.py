"""Traced run: per-layer timing from outside the program.

:func:`traced_layers` swaps four public entry points for wrappers that
time each layer and then call it, so no tracing code lives in ``src/``:

* ``repro.perf.cache.compile_source`` becomes :meth:`Layers.compile`,
  which runs ``analyze`` -> ``ir.lower`` -> ``expand`` ->
  ``optimize_module`` -> ``lower_wm_module`` itself under a ``Tracer``
  (so ``PassStat`` records per-pass time);
* ``repro.sim.simulate`` is split into the ``WMSimulator`` constructor
  (decode) and ``run``;
* ``repro.compiler.run_ir`` (the IR oracle) and
  ``repro.machine.scalar_exec.execute_scalar`` are timed whole.

Every listing the decomposition produced is checked afterwards, outside
the timed region, against ``compile_source(...).listing()``
(:meth:`Layers.check_listings`), so the per-layer numbers describe the
same program the untraced run compiles.

Anonymous CFG labels (``main.A213``, ``main.B228``) are numbered from a
process-global counter in ``repro.opt.cfg``, so two compiles of one
source in one process disagree on them.  Listings are compared after
:func:`canonical_labels` renumbers them; inputs whose raw bytes differ
only there are counted (``opt.label_divergent``), not hidden.
"""

from __future__ import annotations

import contextlib
import re
import time
from collections import defaultdict

from repro import compiler as _compiler
from repro import sim as _sim
from repro.compiler import CompileResult, compile_source
from repro.expander import expand
from repro.frontend import analyze
from repro.ir import lower
from repro.machine import scalar_exec as _scalar_exec
from repro.machine.wm import WM
from repro.machine.wm_lower import lower_wm_module
from repro.obs import Tracer, use_tracer
from repro.opt import OptOptions, optimize_module
from repro.perf import cache as _cache


def listing_instrs(listing: str) -> int:
    """Instruction lines of a listing: indented, non-blank (function
    headers and labels start in column 0)."""
    return sum(1 for line in listing.splitlines()
               if line[:1].isspace() and line.strip())


_ANON_LABEL = re.compile(r"\b([A-Za-z_]\w*)\.([AB])(\d+)\b")


def canonical_labels(text: str) -> str:
    """``text`` with anonymous labels renumbered by first appearance."""
    numbers: dict[tuple, int] = {}

    def renumber(match) -> str:
        key = match.groups()
        numbers.setdefault(key, len(numbers) + 1)
        return f"{key[0]}.{key[1]}~{numbers[key]}"

    return _ANON_LABEL.sub(renumber, text)


class Layers:
    """Per-layer sums for one traced pass (ms, or counts)."""

    def __init__(self, program_of: dict | None = None) -> None:
        self.totals: dict[str, float] = defaultdict(float)
        #: source text -> benchsuite program name (profile timings)
        self.program_of = program_of or {}
        self._source_of_module: dict[int, str] = {}
        self._compiled: dict[tuple, tuple] = {}

    def add(self, name: str, seconds: float) -> None:
        self.totals[name] += seconds * 1000.0

    def count(self, name: str, n: float) -> None:
        self.totals[name] += n

    def compile(self, source: str, machine=None, options=None):
        machine = machine or WM()
        options = options or OptOptions()
        clock = time.perf_counter
        with use_tracer(Tracer()):
            t0 = clock()
            checked = analyze(source)
            t1 = clock()
            ir = lower(checked)
            t2 = clock()
            rtl = expand(machine, ir)
            t3 = clock()
            reports = optimize_module(rtl, machine, options)
            t4 = clock()
            if isinstance(machine, WM):
                lower_wm_module(rtl, machine)
            t5 = clock()
        self.add("frontend.ms", t1 - t0)
        self.add("ir.irgen_ms", t2 - t1)
        self.add("expander.ms", t3 - t2)
        self.add("opt.ms", t4 - t3)
        self.add("machine.wm_lower_ms", t5 - t4)
        for report in reports.values():
            for stat in report.passes:
                self.add(f"opt.pass_ms.{stat.name}", stat.seconds)
            if report.passes:
                self.count("opt.rtl_after", report.passes[-1].rtl_after)
            self.count("recurrence.applied", len(report.recurrences))
            self.count("streaming.streams",
                       sum(s.streams_in + s.streams_out
                           for s in report.streams))
        result = CompileResult(source=source, machine=machine,
                               options=options, ir=ir, rtl=rtl,
                               reports=reports)
        self._source_of_module[id(rtl)] = source
        key = (source, getattr(machine, "name", "wm"), repr(options))
        if key not in self._compiled:
            self._compiled[key] = (machine, options, result.listing())
        return result

    def simulate(self, module, **kwargs):
        clock = time.perf_counter
        t0 = clock()
        sim = _sim.WMSimulator(module, **kwargs)
        t1 = clock()
        result = sim.run()
        t2 = clock()
        self.add("sim.decode_ms", t1 - t0)
        if kwargs.get("profile"):
            source = self._source_of_module.get(id(module))
            name = self.program_of.get(source, "other")
            self.add(f"sim.profile_ms.{name}", t2 - t1)
        else:
            self.add("sim.run_ms", t2 - t1)
        return result

    def run_ir(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return self._run_ir(*args, **kwargs)
        finally:
            self.add("ir.interp_ms", time.perf_counter() - t0)

    def execute_scalar(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return self._execute_scalar(*args, **kwargs)
        finally:
            self.add("machine.scalar_exec_ms", time.perf_counter() - t0)

    def check_listings(self) -> list[str]:
        """Recompile every traced input with ``compile_source``; return
        a description of each listing that differs beyond anonymous
        label numbers, and count those that differ only there."""
        bad = []
        for (source, name, _opts), (machine, options, listing) in \
                self._compiled.items():
            want = compile_source(source, machine=machine,
                                  options=options).listing()
            if want == listing:
                continue
            if canonical_labels(want) == canonical_labels(listing):
                self.count("opt.label_divergent", 1)
            else:
                bad.append(f"{name}: traced listing differs "
                           f"({len(listing)} vs {len(want)} bytes)")
        return bad


@contextlib.contextmanager
def traced_layers(layers: Layers):
    """Route the program's layer entry points through ``layers``."""
    layers._run_ir = _compiler.run_ir
    layers._execute_scalar = _scalar_exec.execute_scalar
    patches = [(_cache, "compile_source", layers.compile),
               (_sim, "simulate", layers.simulate),
               (_compiler, "run_ir", layers.run_ir),
               (_scalar_exec, "execute_scalar", layers.execute_scalar)]
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    try:
        for mod, name, fn in patches:
            setattr(mod, name, fn)
        yield layers
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)
