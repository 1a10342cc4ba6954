"""The streaming pass solves each analysis once per loop, not once per
memory reference.

Counters wrap the dominator solver, the liveness solver and the
def-site index builder wherever the pipeline calls them, and every
``optimize_streams`` run is held to:

* dominator solves <= transformed loops + 1 (one up front, one after
  each loop whose rewrite changed the graph);
* def-site index builds <= innermost loops (one per analyzed loop);
* no liveness solve unless an IV update is structurally deletable
  (Step j asks whether the IV is live after the loop only then).
"""

import pytest

import repro.opt.strength  # noqa: F401  (import before patching)
import repro.recurrence.transform  # noqa: F401
from repro.benchsuite import get_program
from repro.compiler import compile_source
from repro.opt import compute_dominators, compute_liveness, find_loops
from repro.opt.induction import def_sites
from repro.qa.genprog import gen_program
from repro.rtl import Assign
from repro.streaming import transform

from .analysis_spy import count_calls

#: a generated program with many innermost loops, some streamed with
#: their IV update deleted and some whose IV is read in the body
MANY_LOOPS_SEED = 7


def _deletable(loop, iv) -> bool:
    """The structural half of Step j: one ``iv := iv op k`` update and
    no other read of ``iv`` in the loop."""
    updates = other = 0
    for block in loop.block_list:
        for instr in block.instrs:
            if isinstance(instr, Assign) and instr.dst == iv and \
                    instr.uses() == {iv}:
                updates += 1
            elif iv in instr.uses():
                other += 1
    return updates == 1 and other == 0


@pytest.fixture
def spy(monkeypatch):
    doms = count_calls(monkeypatch, compute_dominators)
    live = count_calls(monkeypatch, compute_liveness)
    sites = count_calls(monkeypatch, def_sites)
    runs: list[dict] = []
    deletions: list[tuple[bool, int]] = []
    streams = transform.optimize_streams
    try_delete = transform._try_delete_iv

    def counted_streams(cfg, machine, allow_infinite=True, am=None):
        loops = find_loops(cfg)
        innermost = sum(
            1 for loop in loops
            if not any(o is not loop and o.blocks < loop.blocks
                       for o in loops))
        before = doms[0], live[0], sites[0]
        reports = streams(cfg, machine, allow_infinite=allow_infinite,
                          am=am)
        runs.append({"innermost": innermost, "transformed": len(reports),
                     "doms": doms[0] - before[0],
                     "liveness": live[0] - before[1],
                     "sites": sites[0] - before[2]})
        return reports

    def counted_delete(cfg, loop, iv):
        deletable = _deletable(loop, iv)
        before = live[0]
        deleted = try_delete(cfg, loop, iv)
        deletions.append((deletable, live[0] - before))
        assert deleted <= deletable
        return deleted

    monkeypatch.setattr(transform, "optimize_streams", counted_streams)
    monkeypatch.setattr(transform, "_try_delete_iv", counted_delete)
    return runs, deletions


@pytest.mark.parametrize("source", [
    pytest.param(lambda: get_program("lloop5", scale=0.2).source,
                 id="lloop5"),
    pytest.param(lambda: get_program("dot-product", scale=0.2).source,
                 id="dot-product"),
    pytest.param(lambda: gen_program(MANY_LOOPS_SEED), id="genprog"),
])
def test_one_analysis_per_loop(spy, source):
    runs, deletions = spy
    compile_source(source())
    assert runs and sum(r["transformed"] for r in runs) >= 1
    for run in runs:
        assert run["doms"] <= run["transformed"] + 1, run
        assert run["sites"] <= run["innermost"], run
    for deletable, solves in deletions:
        assert solves == (1 if deletable else 0)
    # no liveness solve outside Step j's deletable cases
    assert sum(r["liveness"] for r in runs) == \
        sum(solves for _d, solves in deletions)


def test_many_loop_program_exercises_every_bound(spy):
    """The generated input is not vacuous: several innermost loops,
    more than one streamed, and both Step j outcomes."""
    runs, deletions = spy
    compile_source(gen_program(MANY_LOOPS_SEED))
    assert max(r["innermost"] for r in runs) >= 3
    assert sum(r["transformed"] for r in runs) >= 2
    assert {d for d, _solves in deletions} == {True, False}
