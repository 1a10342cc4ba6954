"""Recurrence optimization (Step 4 of the paper's algorithm).

For each safe partition containing read/write pairs — reads that fetch
the value written on a previous iteration — the loads are deleted and
replaced by register rotation:

* the value being stored is retained in a register (``hold_0``),
* at the top of the loop, ``hold_k := hold_{k-1}`` copies shift the
  pipeline of retained values (emitted in descending order, which the
  paper notes is important for degree > 1),
* a loop pre-header performs the initial reads.

For the 5th Livermore loop this turns four memory references per
iteration into three — the transformation shown in the paper's
Figure 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..machine.base import Machine
from ..obs import Remark, get_remark_sink, get_tracer
from ..opt.cfg import CFG
from ..opt.dominators import Dominators, compute_dominators
from ..opt.emitexpr import VRegAllocator, emit_expr
from ..opt.loops import Loop, ensure_preheader, find_loops
from ..rtl.expr import BinOp, Expr, Imm, Mem, Reg, Sym, VReg, fold, subst
from ..rtl.instr import Assign, Instr
from .partitions import (
    LoopMemoryInfo, MemRef, Partition, _iv_initial, partition_loop,
)

__all__ = ["RecurrenceReport", "optimize_recurrences"]

#: Largest recurrence degree handled (degree+1 registers are needed; the
#: paper notes recurrences may be left in place when registers run out).
MAX_DEGREE = 6


@dataclass
class RecurrenceReport:
    """What the pass did to one loop."""

    loop_header: str
    partitions_before: list[tuple]
    eliminated_loads: int = 0
    degree: int = 0
    partition_key: str = ""
    hold_regs: list = field(default_factory=list)


def optimize_recurrences(cfg: CFG, machine: Machine,
                         am=None) -> list[RecurrenceReport]:
    """Run recurrence detection/optimization over every loop of ``cfg``.

    Returns a report per transformed partition (empty when nothing was
    found).  The CFG is modified in place.  Dominators and the loop
    forest come from the analysis manager when one is provided; every
    transformation (preheader insertion, load rewriting) invalidates it.
    Each loop is analyzed once (dominators and def sites), and a
    dominator solve follows only a loop that was transformed.
    """
    reports: list[RecurrenceReport] = []
    doms = am.dominators() if am is not None else compute_dominators(cfg)
    loops = am.loops() if am is not None else find_loops(cfg, doms)
    for loop in loops:
        # Only innermost loops are transformed (references in nested
        # loops are not per-iteration references of the outer loop).
        if any(other is not loop and id(loop.header) in other.blocks
               for other in loops):
            inner = [other for other in loops if other is not loop and
                     other.blocks <= loop.blocks]
            if inner:
                continue
        info = partition_loop(cfg, loop, doms)
        sink = get_remark_sink()
        if sink.enabled:
            # One analysis remark per unsafe partition: the fact that
            # constrains both this pass and streaming.  (partition_loop
            # itself only records codes — it runs once per consumer pass
            # and emitting there would double-count.)
            for part in info.partitions:
                if part.safe:
                    continue
                sink.emit(Remark(
                    "recurrence", "analysis",
                    part.unsafe_code or "region-unknown",
                    function=cfg.func.name, loop=loop.header.label,
                    detail=part.unsafe_reason,
                    args={"partition": part.key}))
        transformed = False
        for part in info.partitions:
            report = _transform_partition(cfg, machine, loop, doms, info,
                                          part)
            if report is not None:
                reports.append(report)
                transformed = True
        # The graph may have gained a preheader; recompute dominators.
        if transformed:
            if am is not None:
                am.invalidate()
                doms = am.dominators()
            else:
                doms = compute_dominators(cfg)
    return reports


def _transform_partition(cfg: CFG, machine: Machine, loop: Loop,
                         doms: Dominators, info: LoopMemoryInfo,
                         part: Partition) -> Optional[RecurrenceReport]:
    if not part.safe:
        return None  # analysis remark already emitted at loop level
    pairs = part.flow_pairs()
    if not pairs:
        return None  # no recurrence: nothing missed, nothing to report
    sink = get_remark_sink()

    def _missed(reason: str, ref: Optional[MemRef] = None, **args) -> None:
        if sink.enabled:
            sink.emit(Remark(
                "recurrence", "missed", reason,
                function=cfg.func.name, loop=loop.header.label,
                lno=ref.instr.lno if ref is not None else 0,
                block=ref.block.label if ref is not None else "",
                args={"partition": part.key, **args}))

    writes = part.writes
    if len(writes) != 1:
        _missed("multiple-writes", writes[0], writes=len(writes))
        return None
    write = writes[0]
    if not write.every_iteration:
        _missed("write-conditional", write)
        return None
    if not isinstance(write.instr, Assign):
        _missed("not-simple-assign", write)
        return None
    degree = max(k for (_r, _w, k) in pairs)
    if degree > MAX_DEGREE:
        _missed("degree-too-high", write, degree=degree,
                limit=MAX_DEGREE)
        return None
    # Each paired read's destination must be a single-definition register
    # so its uses can be rewritten to the hold register.
    paired: list[tuple[MemRef, int]] = []
    for read, _w, k in pairs:
        instr = read.instr
        if not isinstance(instr, Assign) or not isinstance(
                instr.dst, (Reg, VReg)):
            _missed("not-simple-assign", read)
            return None
        if info.sites.count(instr.dst) != 1:
            _missed("multi-def-dst", read)
            return None
        paired.append((read, k))
    fp = write.mem.fp
    bank = "f" if fp else "r"
    alloc = VRegAllocator(cfg.func)
    hold = [alloc.new(bank) for _ in range(degree + 1)]

    # 1. Retain the stored value in hold[0].
    store_instr = write.instr
    src = store_instr.src
    block = write.block
    pos = block.instrs.index(store_instr)
    retain = Assign(hold[0], src, comment="retain stored value")
    retain.origin = "recurrence:retain"
    block.instrs.insert(pos, retain)
    store_instr.src = hold[0]

    # 2. Replace paired loads with hold registers.
    eliminated = 0
    for read, k in paired:
        load = read.instr
        dst = load.dst  # type: ignore[union-attr]
        read.block.instrs.remove(load)
        mapping = {dst: hold[k]}
        for b in cfg.blocks:
            for instr in b.instrs:
                instr.map_exprs(lambda e: subst(e, mapping))
        eliminated += 1
        if sink.enabled:
            sink.emit(Remark(
                "recurrence", "applied", "rotated",
                function=cfg.func.name, loop=loop.header.label,
                lno=load.lno, block=read.block.label,
                detail=f"load of value written {k} iteration(s) ago "
                       f"replaced by hold register",
                args={"partition": part.key, "degree": degree,
                      "iterations_back": k, "vector": read.vector()}))

    # 3. Rotation copies at the top of the loop, descending order.
    copies = []
    for k in range(degree, 0, -1):
        copy = Assign(hold[k], hold[k - 1],
                      comment=f"copy value from {k - 1} iterations ago")
        copy.origin = "recurrence:rotate"
        copies.append(copy)
    loop.header.instrs[0:0] = copies

    # 4. Pre-header initial reads: hold[j] := M[write_addr(-(j+1))].
    pre = ensure_preheader(cfg, loop)
    insert_at = len(pre.instrs) - (1 if pre.terminator is not None else 0)
    setup: list[Instr] = []
    for j in range(degree):
        addr = _initial_address(loop, doms, info, write, -(j + 1))
        if addr is None:
            # Cannot build the address; undo nothing — bail before any
            # irreversible state would be wrong.  (All previous edits are
            # value-preserving only if the preheader loads exist, so this
            # must not happen; the address is always constructible from
            # the same pieces the affine analysis resolved.)
            raise RuntimeError("recurrence pre-header address unavailable")
        leaf = emit_expr(addr, machine, alloc, setup, "r",
                         comment="initial read address")
        setup.append(Assign(hold[j],
                            Mem(leaf, write.mem.width, fp, write.mem.signed),
                            comment=f"initial read ({j + 1} back)"))
    for instr in setup:
        instr.origin = "recurrence:setup"
    pre.instrs[insert_at:insert_at] = setup

    tracer = get_tracer()
    tracer.event(
        "rewrite.recurrence", category="opt",
        loop=loop.header.label, degree=degree, partition=part.key,
        eliminated_loads=eliminated,
        detail=f"recurrence degree {degree} on loop {loop.header.label}: "
               f"{eliminated} load(s) replaced by register rotation")
    tracer.count("opt.recurrence.loads_eliminated", eliminated)
    return RecurrenceReport(
        loop_header=loop.header.label,
        partitions_before=[r.vector() for r in part.refs],
        eliminated_loads=eliminated,
        degree=degree,
        partition_key=part.key,
        hold_regs=list(hold),
    )


def _initial_address(loop: Loop, doms: Dominators, info: LoopMemoryInfo,
                     write: MemRef, iterations_back: int) -> Optional[Expr]:
    """Address the write would have used ``-iterations_back`` iterations
    before the first, as an expression valid in the pre-header.

    At the pre-header the IV register holds its entering value, so
    ``address(m) = cee*iv + addr_base + raw_offset + m*stride`` can be
    built directly from the affine decomposition (the original address
    expression may reference in-loop temporaries and cannot be reused).
    """
    if write.iv is None:
        return None
    delta = write.stride * iterations_back
    # When the IV's entering value is a known constant (it usually is —
    # the loop init is visible), fold cee*iv0 into the offset so the
    # pre-header read matches the paper's Figure 5 single-instruction
    # address form.  The loop's dominators and def sites still answer
    # for the IV: inserting a preheader changes no dominance between
    # existing blocks, and the rewrites so far define only hold
    # registers and address temporaries.
    initial = _iv_initial(write.iv, loop, doms, info.sites)
    if isinstance(initial, Imm) and isinstance(initial.value, int):
        expr: Expr = Imm(write.cee * initial.value)
    else:
        expr = BinOp("*", Imm(write.cee), write.iv)
    if write.addr_base is not None:
        expr = BinOp("+", expr, write.addr_base)
    expr = BinOp("+", expr, Imm(write.raw_offset + delta))
    return fold(expr)
