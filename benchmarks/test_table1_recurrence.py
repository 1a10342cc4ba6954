"""Table I — effect of recurrence optimization on execution time.

Paper (array size 100,000):

    Machine          Percent improvement
    Sun 3/280                19
    HP 9000/345              12
    VAX 8600                  6
    Motorola 88100            7
    WM                       18

Regenerated from the same 5th-Livermore-loop kernel: scalar machines via
the calibrated cost-model executor, WM via the cycle simulator (with
streaming disabled — Table I isolates the recurrence optimization).
"""

import pytest

from repro.reporting import PAPER_TABLE1, table1

N = 1200  # scaled-down array size; the percentage is size-stable


@pytest.fixture(scope="module")
def rows():
    return table1(n=N)


def test_print_table1(rows):
    print("\nTable I — % improvement from recurrence optimization "
          f"(n={N}; paper used 100,000)")
    print(f"{'machine':>12}  {'measured':>9}  {'paper':>6}")
    for row in rows:
        print(f"{row.machine:>12}  {row.percent:8.1f}%  "
              f"{row.paper_percent:5d}%")


def test_improvements_positive(rows):
    assert all(r.percent > 0 for r in rows)


def test_scalar_shape_matches_paper(rows):
    by = {r.machine: r.percent for r in rows}
    assert by["sun3/280"] > by["hp9000/345"] > by["vax8600"]
    for row in rows:
        if row.machine != "wm":
            assert abs(row.percent - row.paper_percent) <= 4.0


def _kernel_cycles(machine):
    """(baseline, optimized) kernel cycles of one Table I row at
    n=400: that machine's four runs, kernel = full run - init run."""
    from repro.perf import run_jobs
    from repro.reporting.tables import _table1_jobs

    jobs = [job for job in _table1_jobs(400) if job.machine == machine]
    full_base, init_base, full_opt, init_opt = run_jobs(jobs)
    return (full_base.cycles - init_base.cycles,
            full_opt.cycles - init_opt.cycles)


def test_bench_table1_wm_row(benchmark):
    """Times the WM half of the experiment (compile + cycle-simulate
    both configurations)."""
    base, opt = benchmark.pedantic(_kernel_cycles, args=(None,),
                                   rounds=1, iterations=1)
    assert opt < base


def test_bench_table1_scalar_row(benchmark):
    base, opt = benchmark.pedantic(_kernel_cycles, args=("sun3/280",),
                                   rounds=1, iterations=1)
    assert opt < base
