"""Induction-variable and affine-address analysis unit tests."""

from repro.machine.wm import WM
from repro.opt import build_cfg, compute_dominators, find_loops
from repro.opt.induction import (
    analyze_affine, def_sites, find_basic_ivs, resolve_invariant,
)
from repro.rtl import (
    Assign, BinOp, Compare, CondJump, Imm, Label, Mem, Reg, Ret, Sym, VReg,
)
from repro.rtl.module import RtlFunction

V = lambda i: VReg("r", i)


def loop_fixture(extra_body=()):
    """i (v0) from 0 by 1 while < 10; base (v1) = _a hoisted."""
    instrs = [
        Assign(V(0), Imm(0)),
        Assign(V(1), Sym("a")),
        Label("head"),
        *extra_body,
        Assign(V(0), BinOp("+", V(0), Imm(1))),
        Compare("r", "<", V(0), Imm(10)),
        CondJump("r", True, "head"),
        Ret(live_out={Reg("r", 29)}),
    ]
    fn = RtlFunction("f", instrs)
    cfg = build_cfg(fn)
    loop = find_loops(cfg)[0]
    return cfg, loop


class TestBasicIVs:
    def test_positive_step(self):
        _cfg, loop = loop_fixture()
        ivs = find_basic_ivs(loop)
        assert V(0) in ivs
        assert ivs[V(0)].step == 1
        assert ivs[V(0)].direction == "+"

    def test_negative_step(self):
        instrs = [
            Assign(V(0), Imm(20)),
            Label("head"),
            Assign(V(0), BinOp("-", V(0), Imm(2))),
            Compare("r", ">", V(0), Imm(0)),
            CondJump("r", True, "head"),
            Ret(),
        ]
        cfg = build_cfg(RtlFunction("f", instrs))
        loop = find_loops(cfg)[0]
        ivs = find_basic_ivs(loop)
        assert ivs[V(0)].step == -2
        assert ivs[V(0)].direction == "-"

    def test_multiple_defs_disqualify(self):
        body = [Assign(V(0), BinOp("+", V(0), Imm(1)))]
        _cfg, loop = loop_fixture(extra_body=body)
        # v0 now updated twice per iteration
        ivs = find_basic_ivs(loop)
        assert V(0) not in ivs

    def test_non_constant_step_disqualifies(self):
        instrs = [
            Assign(V(0), Imm(0)),
            Assign(V(1), Imm(3)),
            Label("head"),
            Assign(V(0), BinOp("+", V(0), V(1))),
            Compare("r", "<", V(0), Imm(10)),
            CondJump("r", True, "head"),
            Ret(),
        ]
        cfg = build_cfg(RtlFunction("f", instrs))
        loop = find_loops(cfg)[0]
        assert V(0) not in find_basic_ivs(loop)


class TestAffine:
    def _analyze(self, addr, extra_body=()):
        cfg, loop = loop_fixture(extra_body=extra_body)
        ivs = find_basic_ivs(loop)
        return analyze_affine(addr, loop, ivs, def_sites(cfg))

    def test_plain_iv(self):
        affine = self._analyze(V(0))
        assert affine.iv == V(0) and affine.coef == 1 and affine.offset == 0

    def test_scaled_and_based(self):
        # (v0 << 3) + v1  with v1 = _a
        affine = self._analyze(BinOp("+", BinOp("<<", V(0), Imm(3)), V(1)))
        assert affine.iv == V(0)
        assert affine.coef == 8
        assert affine.base == Sym("a")

    def test_negative_offset(self):
        affine = self._analyze(
            BinOp("-", BinOp("+", BinOp("<<", V(0), Imm(3)), V(1)), Imm(8)))
        assert affine.offset == -8

    def test_multiply_form(self):
        affine = self._analyze(BinOp("*", V(0), Imm(4)))
        assert affine.coef == 4

    def test_in_loop_chain_followed(self):
        # v5 := (v0 - 1) << 3 inside the loop; address = v5 + v1
        body = [Assign(V(5),
                       BinOp("<<", BinOp("-", V(0), Imm(1)), Imm(3)))]
        affine = self._analyze(BinOp("+", V(5), V(1)), extra_body=body)
        assert affine.iv == V(0)
        assert affine.coef == 8
        assert affine.offset == -8
        assert affine.base == Sym("a")

    def test_two_ivs_fail(self):
        instrs = [
            Assign(V(0), Imm(0)),
            Assign(V(1), Imm(0)),
            Label("head"),
            Assign(V(0), BinOp("+", V(0), Imm(1))),
            Assign(V(1), BinOp("+", V(1), Imm(2))),
            Compare("r", "<", V(0), Imm(10)),
            CondJump("r", True, "head"),
            Ret(),
        ]
        cfg = build_cfg(RtlFunction("f", instrs))
        loop = find_loops(cfg)[0]
        ivs = find_basic_ivs(loop)
        affine = analyze_affine(BinOp("+", V(0), V(1)), loop, ivs,
                                def_sites(cfg))
        assert affine is None

    def test_unknown_opaque_base(self):
        # v9 never defined: becomes an opaque invariant base
        affine = self._analyze(BinOp("+", V(0), V(9)))
        assert affine is not None
        assert affine.base == V(9)


class TestResolveInvariant:
    def test_symbol_chain(self):
        instrs = [
            Assign(V(1), Sym("table")),
            Assign(V(2), BinOp("+", V(1), Imm(16))),
            Ret(),
        ]
        cfg = build_cfg(RtlFunction("f", instrs))
        value = resolve_invariant(V(2), def_sites(cfg))
        assert value == Sym("table", 16)

    def test_constant_chain(self):
        instrs = [
            Assign(V(1), Imm(5)),
            Assign(V(2), BinOp("*", V(1), Imm(4))),
            Ret(),
        ]
        cfg = build_cfg(RtlFunction("f", instrs))
        assert resolve_invariant(V(2), def_sites(cfg)) == Imm(20)

    def test_multiple_defs_unresolvable(self):
        instrs = [
            Assign(V(1), Imm(5)),
            Assign(V(1), Imm(6)),
            Ret(),
        ]
        cfg = build_cfg(RtlFunction("f", instrs))
        assert resolve_invariant(V(1), def_sites(cfg)) is None


class TestEmitExpr:
    def test_legal_tree_single_instruction(self):
        from repro.opt.emitexpr import VRegAllocator, emit_expr
        fn = RtlFunction("f", [])
        out = []
        leaf = emit_expr(BinOp("+", BinOp("<<", V(0), Imm(3)), V(1)),
                         WM(), VRegAllocator(fn), out)
        assert len(out) == 1  # one dual-op instruction on WM

    def test_deep_tree_split_for_scalar(self):
        from repro.machine.scalar import make_machine
        from repro.opt.emitexpr import VRegAllocator, emit_expr
        fn = RtlFunction("f", [])
        out = []
        emit_expr(BinOp("+", BinOp("<<", V(0), Imm(3)), V(1)),
                  make_machine("generic-risc"), VRegAllocator(fn), out)
        assert len(out) == 2  # shift, then add

    def test_symbol_materialized(self):
        from repro.opt.emitexpr import VRegAllocator, emit_expr
        fn = RtlFunction("f", [])
        out = []
        leaf = emit_expr(BinOp("+", Sym("x", 8), BinOp("*", Imm(8), V(0))),
                         WM(), VRegAllocator(fn), out)
        assert out, "symbol-based address needs instructions"
        # every emitted instruction must be machine-legal
        machine = WM()
        for instr in out:
            assert machine.legal_instr(instr), repr(instr)

    def test_leaf_passthrough(self):
        from repro.opt.emitexpr import VRegAllocator, emit_expr
        fn = RtlFunction("f", [])
        out = []
        assert emit_expr(V(7), WM(), VRegAllocator(fn), out) == V(7)
        assert out == []
