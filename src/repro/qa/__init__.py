"""repro.qa: differential fuzzing, fault injection, and reduction.

The robustness harness around the compiler and simulator:

* :mod:`repro.qa.genprog` — seeded random Mini-C program generator;
* :mod:`repro.qa.differential` — runs one program through every
  backend (IR oracle, WM fast/slow simulation, scalar executor) at
  every optimization level and reports any disagreement;
* :mod:`repro.qa.faults` — deterministic :class:`FaultPlan` injection
  into the cycle simulator;
* :mod:`repro.qa.chaos` — seeded fault-injection runs against a live
  serve daemon (worker kills, torn store writes, socket resets,
  deadline storms) with mechanical response-correctness invariants;
* :mod:`repro.qa.reduce` — delta-debugging source reducer;
* :mod:`repro.qa.bundle` — self-contained reproducer bundles.
"""

from .chaos import ChaosPlan, format_chaos_report, run_chaos
from .differential import CONFIGS, Failure, FuzzReport, check_program, run_fuzz
from .faults import FaultPlan
from .genprog import gen_program
from .reduce import reduce_source

__all__ = [
    "CONFIGS", "ChaosPlan", "Failure", "FaultPlan", "FuzzReport",
    "check_program", "format_chaos_report", "gen_program",
    "reduce_source", "run_chaos", "run_fuzz",
]
