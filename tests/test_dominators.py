"""Differential test: the idom-tree dominators against the set-based
iterative solver they replaced, kept here as the oracle."""

import pytest

import repro.opt.bounds  # noqa: F401  (import before patching)
import repro.opt.strength  # noqa: F401
import repro.recurrence.transform  # noqa: F401
import repro.streaming.transform  # noqa: F401
from repro.benchsuite import PROGRAMS, get_program
from repro.compiler import compile_source
from repro.machine.scalar import MACHINES, make_machine
from repro.opt import OptOptions, build_cfg, compute_dominators
from repro.opt.cfg import Block, CFG
from repro.qa.genprog import gen_program
from repro.rtl import Assign, CondJump, Imm, Jump, Label, Ret, VReg
from repro.rtl.module import RtlFunction

from .analysis_spy import patch_everywhere


def set_dominators(cfg: CFG) -> dict:
    """The classic iterative solver over reverse post-order:
    ``id(block) -> set of ids of its dominators``."""
    rpo = cfg.rpo()
    all_ids = {id(b) for b in rpo}
    dom: dict = {}
    entry = cfg.entry
    dom[id(entry)] = {id(entry)}
    for block in rpo:
        if block is not entry:
            dom[id(block)] = set(all_ids)
    changed = True
    while changed:
        changed = False
        for block in rpo:
            if block is entry:
                continue
            preds = [p for p in block.preds if id(p) in dom]
            if not preds:
                continue
            new = set.intersection(*(dom[id(p)] for p in preds))
            new.add(id(block))
            if new != dom[id(block)]:
                dom[id(block)] = new
                changed = True
    # a block unreachable from the entry is dominated only by itself
    for block in cfg.blocks:
        if id(block) not in dom:
            dom[id(block)] = {id(block)}
    return dom


def assert_same(cfg: CFG, doms) -> int:
    """Compare every ordered block pair; returns the pair count."""
    oracle = set_dominators(cfg)
    for a in cfg.blocks:
        for b in cfg.blocks:
            expected = id(a) in oracle[id(b)]
            assert doms.dominates(a, b) == expected, (a, b)
            assert doms.strictly_dominates(a, b) == \
                (expected and a is not b), (a, b)
    return len(cfg.blocks) ** 2


class TestHandBuilt:
    def test_diamond_loop_and_unreachable_block(self):
        v = VReg("r", 0)
        instrs = [
            Assign(v, Imm(0)),
            Label("head"),
            Assign(v, Imm(1)),
            CondJump("r", True, "else"),
            Assign(v, Imm(2)),
            Jump("join"),
            Label("dead"),           # no predecessor: unreachable
            Assign(v, Imm(3)),
            Jump("join"),
            Label("else"),
            Assign(v, Imm(4)),
            Label("join"),
            CondJump("r", True, "head"),
            Ret(),
        ]
        cfg = build_cfg(RtlFunction("f", instrs))
        doms = compute_dominators(cfg)
        assert_same(cfg, doms)
        dead = cfg.block_of("dead")
        join = cfg.block_of("join")
        assert dead not in cfg.rpo()
        assert doms.dominates(dead, dead)
        assert not doms.strictly_dominates(dead, dead)
        for block in cfg.blocks:
            if block is not dead:
                assert not doms.dominates(block, dead)
                assert not doms.dominates(dead, block)
        # the unreachable predecessor does not stop head dominating join
        assert doms.dominates(cfg.block_of("head"), join)
        assert not doms.dominates(cfg.block_of("else"), join)

    def test_block_added_after_the_solve(self):
        cfg = build_cfg(RtlFunction("f", [Assign(VReg("r", 0), Imm(0)),
                                          Ret()]))
        doms = compute_dominators(cfg)
        late = Block("late")
        assert not doms.dominates(late, cfg.entry)
        with pytest.raises(KeyError):
            doms.dominates(cfg.entry, late)


def _sources():
    yield from (get_program(name, scale=0.2).source
                for name in sorted(PROGRAMS))
    yield from (gen_program(seed) for seed in range(40))


@pytest.mark.parametrize("machine", [None, *sorted(MACHINES)])
def test_every_pipeline_solve_matches_oracle(monkeypatch, machine):
    """Check every dominator solve the pipeline makes, at the moment
    it makes it, on WM and on each scalar machine with strength
    reduction on (it runs only on scalar machines)."""
    solves = []
    pairs = [0]

    def checked(cfg):
        doms = compute_dominators(cfg)
        pairs[0] += assert_same(cfg, doms)
        solves.append(cfg)
        return doms

    patch_everywhere(monkeypatch, compute_dominators, checked)
    opts = OptOptions(strength=True)
    for source in _sources():
        target = make_machine(machine) if machine else None
        compile_source(source, machine=target, options=opts)
    assert solves and pairs[0] > len(solves)
