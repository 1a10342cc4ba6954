"""Streaming optimization (the paper's second algorithm).

After recurrences have been optimized, the compiler converts remaining
per-iteration memory references whose address is an affine function of a
loop induction variable into hardware stream instructions:

1. determine the iteration count (``loop_count``); fewer than four
   iterations is never worth a stream's set-up cost;
2. for each safe partition with no remaining memory recurrence, each
   reference that executes on every iteration, has a compile-time
   stride, and can be allocated a FIFO register is turned into a
   ``SinD``/``SoutD`` issued in the pre-header;
3. the loop-exit compare/branch is replaced by a stream-status jump
   (``JNIf``) and the now-dead induction-variable update is deleted.

Loops whose trip count cannot be computed are streamed with *infinite*
streams and ``Sstop`` instructions at the loop exits, when the exit
structure allows it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..machine.base import Machine
from ..obs import Remark, get_remark_sink, get_tracer
from ..opt.cfg import CFG, Block
from ..opt.combine import is_fifo_reg
from ..opt.dataflow import compute_liveness
from ..opt.dominators import Dominators, compute_dominators
from ..opt.emitexpr import VRegAllocator, emit_expr
from ..opt.induction import DefSites, resolve_invariant
from ..opt.loops import Loop, ensure_preheader, find_loops
from ..recurrence.partitions import (
    LoopMemoryInfo, MemRef, Partition, _iv_initial, partition_loop,
)
from ..rtl.expr import (
    BinOp, Expr, Imm, Reg, VReg, cell_index, fold, subst, walk,
)
from ..rtl.instr import (
    Assign, Compare, CondJump, Instr, JumpStreamNotDone, StreamIn, StreamOut,
    StreamStop,
)

__all__ = ["StreamReport", "optimize_streams", "MIN_ITERATIONS"]

#: Paper Step 1: "If the number of iterations is determined to be three
#: or fewer, do not use streams."
MIN_ITERATIONS = 4


@dataclass
class StreamReport:
    """What the streaming pass did to one loop."""

    loop_header: str
    streams_in: int = 0
    streams_out: int = 0
    infinite: bool = False
    loop_test_replaced: bool = False
    iv_increment_deleted: bool = False
    refs: list[tuple] = field(default_factory=list)


@dataclass
class _LoopTest:
    """The loop's bottom continuation test: Compare + CondJump."""

    compare: Compare
    jump: CondJump
    block: Block
    iv: Expr
    bound: Expr          # loop-invariant bound operand
    op: str              # normalized: continue while (iv op bound)
    step: int


def optimize_streams(cfg: CFG, machine: Machine,
                     allow_infinite: bool = True,
                     am=None) -> list[StreamReport]:
    """Run the streaming algorithm over every innermost loop.

    The top-level dominator/loop-forest queries go through the analysis
    manager when one is provided; a transformed loop (the only case that
    mutates the graph) invalidates it, and only then are dominators
    solved again.
    """
    if not machine.has_streams:
        return []
    reports: list[StreamReport] = []
    doms = am.dominators() if am is not None else compute_dominators(cfg)
    loops = am.loops() if am is not None else find_loops(cfg, doms)
    innermost = [
        loop for loop in loops
        if not any(other is not loop and other.blocks < loop.blocks
                   for other in loops)
    ]
    for loop in innermost:
        report = _stream_loop(cfg, machine, loop, doms, allow_infinite)
        if report is not None:
            reports.append(report)
            if am is not None:
                am.invalidate()
                doms = am.dominators()
            else:
                doms = compute_dominators(cfg)
    return reports


def _stream_loop(cfg: CFG, machine: Machine, loop: Loop, doms: Dominators,
                 allow_infinite: bool) -> Optional[StreamReport]:
    # One analysis per loop: ``doms`` and the def sites in ``info`` serve
    # every step below.  Inserting the preheader changes no dominance
    # between existing blocks, and the rewrites add definitions only of
    # FIFO cells and fresh registers, so neither goes stale for what is
    # asked of it.
    info = partition_loop(cfg, loop, doms)
    sites = info.sites
    all_refs = [ref for part in info.partitions for ref in part.refs]
    sink = get_remark_sink()

    def _remark(kind: str, reason: str, ref: Optional[MemRef] = None,
                detail: str = "", **args) -> None:
        if sink.enabled:
            sink.emit(Remark(
                "streaming", kind, reason,
                function=cfg.func.name, loop=loop.header.label,
                lno=ref.instr.lno if ref is not None else 0,
                block=ref.block.label if ref is not None else "",
                detail=detail, args=args))

    def _reject_loop(reason: str, detail: str = "") -> None:
        # The whole loop is out: give every reference a final
        # disposition so `repro explain` covers 100% of them.
        for ref in all_refs:
            _remark("missed", reason, ref, detail=detail)

    test_why: list[str] = []
    test = _find_loop_test(cfg, loop, info, why=test_why)
    count_expr = _loop_count_expr(test) if test is not None else None
    if count_expr is None and sink.enabled and all_refs:
        _remark("analysis", "unknown-loop-count",
                detail=test_why[0] if test_why else
                "loop test gives no closed-form iteration count")
    # A finite (count-based) stream requires the bottom test to be the
    # loop's ONLY exit: an early break would leave the streams partially
    # consumed and the JNI counter out of sync.
    if count_expr is not None and len(loop.exit_edges()) != 1:
        count_expr = None
        _remark("analysis", "multi-exit",
                detail=f"{len(loop.exit_edges())} exit edges: counted "
                       f"stream forfeited, falling back to infinite")
    infinite = count_expr is None
    if infinite and not allow_infinite:
        _reject_loop("infinite-disallowed")
        return None
    if infinite and not _infinite_streams_ok(cfg, loop):
        _reject_loop("no-exit-edges")
        return None
    if not infinite:
        known = _constant_count(loop, test, count_expr, doms, sites)
        if known is not None and known < MIN_ITERATIONS:
            _reject_loop("short-trip-count",
                         detail=f"{known} iterations")
            return None  # Step 1: 3 or fewer iterations

    # Step 2: choose the references to stream.
    candidates: list[MemRef] = []
    normals: list[MemRef] = []
    for part in info.partitions:
        part_ok = part.safe and not part.has_recurrence()
        for ref in part.refs:
            if ref in candidates or ref in normals:
                continue
            ref_reason = None
            if not part.safe:
                ref_reason = part.unsafe_code or "region-unknown"
                if ref_reason == "region-unknown" and ref.analysis_note:
                    # The per-reference affine failure (non-constant
                    # scale, two IVs, ...) is sharper than the
                    # partition-level "region unknown" it caused.
                    ref_reason = ref.analysis_note
            elif part.has_recurrence():
                ref_reason = "recurrence-present"
            else:
                ref_reason = _streamable_reason(ref, sites)
            if ref_reason is None and infinite and ref.is_store:
                # Output streams need a definite element count: an
                # infinite out-stream could not drain deterministically
                # at a data-dependent exit, so stores in unbounded loops
                # stay ordinary FIFO stores.
                ref_reason = "infinite-store"
            if ref_reason is None:
                candidates.append(ref)
            else:
                _remark("missed", ref_reason, ref,
                        partition=part.key, vector=ref.vector())
                normals.append(ref)
    if not candidates:
        if all_refs:
            _remark("analysis", "no-stream-candidates")
        return None
    # Step e: FIFO allocation. Normal loads/stores always use FIFO 0 of
    # their bank/direction, so a stream may take FIFO 0 only when no
    # normal reference of that class remains in the loop.
    chosen = _allocate_fifos(machine, candidates, normals)
    chosen_refs = {id(ref) for ref, _fifo in chosen}
    for ref in candidates:
        if id(ref) not in chosen_refs:
            _remark("missed", "fifo-pressure", ref, vector=ref.vector())
    if not chosen:
        return None

    report = StreamReport(loop_header=loop.header.label, infinite=infinite)
    pre = ensure_preheader(cfg, loop)
    alloc = VRegAllocator(cfg.func)
    setup: list[Instr] = []
    count_leaf: Optional[Expr] = None
    if not infinite:
        count_leaf = emit_expr(count_expr, machine, alloc, setup, "r",
                               comment="number of items to stream")
    uses = _UseSites(cfg, [ref.instr.dst for ref, _fifo in chosen
                           if not ref.is_store])

    first_in_fifo: Optional[Reg] = None
    for ref, fifo_index in chosen:
        bank = "f" if ref.mem.fp else "r"
        fifo = Reg(bank, fifo_index)
        base = _stream_base(ref, loop, doms, sites)
        base_leaf = emit_expr(base, machine, alloc, setup, "r",
                              comment=f"stream base address")
        stream_cls = StreamOut if ref.is_store else StreamIn
        count_operand = count_leaf if count_leaf is not None else None
        setup.append(stream_cls(
            fifo, base_leaf,
            count_operand if count_operand is not None else Imm(0),
            ref.stride, ref.mem.width, ref.mem.fp,
            comment=("stream out" if ref.is_store else "stream in"),
        ))
        if infinite:
            setup[-1].count = None  # type: ignore[assignment]
        _rewrite_reference(loop, doms, ref, fifo, uses)
        if ref.is_store:
            report.streams_out += 1
        else:
            report.streams_in += 1
            if first_in_fifo is None:
                first_in_fifo = fifo
        report.refs.append(ref.vector() + (f"fifo{fifo_index}",))
        _remark("applied",
                "streamed-infinite" if infinite else "streamed", ref,
                detail=f"{'out' if ref.is_store else 'in'}-stream on "
                       f"{fifo!r}, stride {ref.stride}",
                fifo=f"fifo{fifo_index}", stride=ref.stride,
                direction="out" if ref.is_store else "in",
                vector=ref.vector())
    for instr in setup:
        instr.origin = "streaming:setup"
    insert_at = len(pre.instrs) - (1 if pre.terminator is not None else 0)
    pre.instrs[insert_at:insert_at] = setup

    # Step i: replace the loop test / add stream stops.
    jni_fifo = first_in_fifo
    jni_kind = "in"
    if jni_fifo is None:
        ref, fifo_index = chosen[0]
        jni_fifo = Reg("f" if ref.mem.fp else "r", fifo_index)
        jni_kind = "out" if ref.is_store else "in"
    if not infinite and test is not None:
        test.block.instrs.remove(test.compare)
        jpos = test.block.instrs.index(test.jump)
        jni = JumpStreamNotDone(
            jni_fifo, test.jump.target, kind=jni_kind,
            comment="jump if stream count not zero")
        jni.origin = "streaming:loop-test"
        test.block.instrs[jpos] = jni
        report.loop_test_replaced = True
        if sink.enabled:
            sink.emit(Remark(
                "streaming", "applied", "loop-test-replaced",
                function=cfg.func.name, loop=loop.header.label,
                block=test.block.label,
                detail=f"compare/branch replaced by JNI on {jni_fifo!r}"))
    elif infinite:
        for inside, outside in loop.exit_edges():
            stops = []
            for r, fi in chosen:
                stop = StreamStop(Reg("f" if r.mem.fp else "r", fi),
                                  kind="out" if r.is_store else "in",
                                  comment="stop stream at loop exit")
                stop.origin = "streaming:stop"
                stops.append(stop)
            _insert_on_exit_edge(cfg, inside, outside, stops)

    # Step j: delete the induction-variable update if the IV is dead.
    if test is not None and report.loop_test_replaced:
        if _try_delete_iv(cfg, loop, test.iv):
            report.iv_increment_deleted = True
            if sink.enabled:
                sink.emit(Remark(
                    "streaming", "applied", "iv-deleted",
                    function=cfg.func.name, loop=loop.header.label,
                    detail=f"dead update of {test.iv!r} deleted"))
        elif sink.enabled:
            sink.emit(Remark(
                "streaming", "missed", "iv-not-dead",
                function=cfg.func.name, loop=loop.header.label,
                detail=f"{test.iv!r} still used or live after the loop"))
    tracer = get_tracer()
    tracer.event(
        "rewrite.streaming", category="opt",
        loop=loop.header.label, streams_in=report.streams_in,
        streams_out=report.streams_out, infinite=infinite,
        loop_test_replaced=report.loop_test_replaced,
        detail=f"loop {loop.header.label}: {report.streams_in} in-stream(s),"
               f" {report.streams_out} out-stream(s)"
               f"{' (infinite)' if infinite else ''}")
    tracer.count("opt.streaming.streams",
                 report.streams_in + report.streams_out)
    return report


# ---------------------------------------------------------------------------
# loop-count analysis
# ---------------------------------------------------------------------------

def _find_loop_test(cfg: CFG, loop: Loop, info: LoopMemoryInfo,
                    why: Optional[list] = None) -> Optional[_LoopTest]:
    """Recognize the bottom-test Compare/CondJump pair driving the loop.

    ``why``, when given as an empty list, receives a one-line human
    explanation on failure (remark ``unknown-loop-count`` detail).
    """

    def _fail(detail: str) -> None:
        if why is not None and not why:
            why.append(detail)

    if len(loop.back_tails) != 1:
        _fail(f"{len(loop.back_tails)} back edges: no single bottom test")
        return None
    tail = loop.back_tails[0]
    term = tail.terminator
    if not isinstance(term, CondJump) or term.target != loop.header.label:
        _fail("back edge is not a conditional jump to the header")
        return None
    compare = None
    for instr in reversed(tail.body()):
        if isinstance(instr, Compare) and instr.bank == term.bank:
            compare = instr
            break
        if instr.defs():
            # Anything defining between compare and jump is fine, but a
            # second compare would desynchronize; keep scanning.
            continue
    if compare is None:
        _fail("no compare feeds the bottom-test jump")
        return None
    # Identify which operand is the IV.
    ivs = info.ivs
    left, right, op = compare.left, compare.right, compare.op
    sense = term.sense
    if not sense:
        op = _negate_op(op)
    if isinstance(left, (Reg, VReg)) and left in ivs:
        iv, bound = left, right
    elif isinstance(right, (Reg, VReg)) and right in ivs:
        iv, bound = right, left
        op = _flip_op(op)
    else:
        _fail("neither compare operand is a basic induction variable")
        return None
    # The bound must be loop-invariant.
    if isinstance(bound, (Reg, VReg)) and info.sites.in_loop(bound, loop):
        _fail("loop bound is redefined inside the loop")
        return None
    step = ivs[iv].step
    return _LoopTest(compare=compare, jump=term, block=tail, iv=iv,
                     bound=bound, op=op, step=step)


def _negate_op(op: str) -> str:
    return {"==": "!=", "!=": "==", "<": ">=", "<=": ">",
            ">": "<=", ">=": "<"}[op]


def _flip_op(op: str) -> str:
    return {"==": "==", "!=": "!=", "<": ">", "<=": ">=",
            ">": "<", ">=": "<="}[op]


def _loop_count_expr(test: _LoopTest) -> Optional[Expr]:
    """Iteration count as an expression over pre-header values.

    The rotated loops place the test after the IV update, so with
    entering value ``iv0`` the loop body has executed ``m`` times when
    the test sees ``iv0 + m*step``; the count is the smallest ``m``
    failing the continue condition.  For ``<`` with positive step:
    ``ceil((bound - iv0)/step)``.
    """
    step = test.step
    iv, bound = test.iv, test.bound
    if step > 0 and test.op in ("<", "<="):
        # N = floor((bound - iv0 - adj)/step) + 1 with adj = 1 for '<'.
        adj = 1 if test.op == "<" else 0
        numerator = BinOp("-", bound, BinOp("+", iv, Imm(adj)))
        return fold(BinOp("+", BinOp("/", numerator, Imm(step)), Imm(1))) \
            if step != 1 else fold(BinOp("+", numerator, Imm(1)))
    if step < 0 and test.op in (">", ">="):
        adj = 1 if test.op == ">" else 0
        numerator = BinOp("-", iv, BinOp("+", bound, Imm(adj)))
        if -step != 1:
            return fold(BinOp("+", BinOp("/", numerator, Imm(-step)),
                              Imm(1)))
        return fold(BinOp("+", numerator, Imm(1)))
    if test.op == "!=" and step in (1, -1):
        diff = BinOp("-", bound, iv) if step == 1 else BinOp("-", iv, bound)
        return fold(diff)
    return None


def _constant_count(loop: Loop, test: Optional[_LoopTest],
                    count_expr: Optional[Expr], doms: Dominators,
                    sites: DefSites) -> Optional[int]:
    """Resolve the iteration count to a compile-time constant if the
    IV's entering value and the bound are both known."""
    if test is None or count_expr is None:
        return None
    substitutions = {}
    iv0 = _iv_initial(test.iv, loop, doms, sites)
    if isinstance(iv0, Imm):
        substitutions[test.iv] = iv0
    if isinstance(test.bound, (Reg, VReg)):
        bound = resolve_invariant(test.bound, sites)
        if isinstance(bound, Imm):
            substitutions[test.bound] = bound
    resolved = fold(subst(count_expr, substitutions))
    if isinstance(resolved, Imm) and isinstance(resolved.value, int):
        return resolved.value
    return None


def _infinite_streams_ok(cfg: CFG, loop: Loop) -> bool:
    """Infinite streams need loop exits the stops can be attached to
    (exit edges are split, so any normal exit structure qualifies)."""
    return bool(loop.exit_edges())


def _insert_on_exit_edge(cfg: CFG, inside: Block, outside: Block,
                         instrs: list[Instr]) -> None:
    """Split the (inside -> outside) edge with a block holding ``instrs``.

    Ensures the instructions execute exactly when the loop exits via this
    edge — other predecessors of ``outside`` are unaffected.
    """
    from ..rtl.instr import Jump
    landing = Block(cfg.new_label())
    landing.instrs = list(instrs) + [Jump(outside.label)]
    cfg.blocks.insert(cfg.blocks.index(inside) + 1, landing)
    term = inside.terminator
    if term is not None and hasattr(term, "target") and \
            term.target == outside.label:
        term.target = landing.label
    CFG.remove_edge(inside, outside)
    CFG.add_edge(inside, landing)
    CFG.add_edge(landing, outside)


# ---------------------------------------------------------------------------
# reference selection and rewriting
# ---------------------------------------------------------------------------

def _streamable_reason(ref: MemRef, sites: DefSites) -> Optional[str]:
    """None when ``ref`` qualifies for streaming, else the stable reason
    code (a key of :data:`repro.obs.remarks.REASONS`) for the rejection."""
    if not ref.region_known or ref.iv is None:
        # The partition analysis recorded why it gave up on this address.
        return ref.analysis_note or "not-affine"
    if ref.stride == 0:
        return "zero-stride"
    if not ref.every_iteration:
        return "not-every-iteration"  # Step c: must run every iteration
    instr = ref.instr
    if not isinstance(instr, Assign):
        return "not-simple-assign"
    if ref.is_store:
        if isinstance(instr.src, (Reg, VReg, Imm)):
            return None
        return "store-src-not-reg"
    if not isinstance(instr.dst, (Reg, VReg)):
        return "not-simple-assign"
    if sites.count(instr.dst) != 1:
        return "multi-def-dst"
    return None


def _allocate_fifos(machine: Machine, candidates: list[MemRef],
                    normals: list[MemRef]) -> list[tuple[MemRef, int]]:
    """Assign FIFO indices per (bank, direction) class."""
    chosen: list[tuple[MemRef, int]] = []
    classes: dict[tuple[str, str], list[MemRef]] = {}
    for ref in candidates:
        bank = "f" if ref.mem.fp else "r"
        direction = "out" if ref.is_store else "in"
        classes.setdefault((bank, direction), []).append(ref)
    normal_classes = set()
    for ref in normals:
        bank = "f" if ref.mem.fp else "r"
        direction = "out" if ref.is_store else "in"
        normal_classes.add((bank, direction))
    for key, refs in classes.items():
        fifo_max = machine.fifo_count
        if key in normal_classes:
            available = [1]
        elif len(refs) <= fifo_max:
            available = list(range(len(refs)))
        else:
            # Too many candidates: the overflow falls back to normal
            # loads, which claim FIFO 0, leaving only FIFO 1.
            available = [1]
        for ref, fifo in zip(refs, available):
            chosen.append((ref, fifo))
    return chosen


def _stream_base(ref: MemRef, loop: Loop, doms: Dominators,
                 sites: DefSites) -> Expr:
    """First-element address, valid in the pre-header (IV holds iv0).

    A constant entering IV value is folded into the displacement, giving
    the ``r19 := (16) + r22`` form of the paper's Figure 7.  Shared with
    the strength-reduction pass, which passes its own loop's analyses.
    """
    initial = _iv_initial(ref.iv, loop, doms, sites)
    if isinstance(initial, Imm) and isinstance(initial.value, int):
        expr: Expr = Imm(ref.cee * initial.value)
    else:
        expr = BinOp("*", Imm(ref.cee), ref.iv)
    if ref.addr_base is not None:
        expr = BinOp("+", expr, ref.addr_base)
    if ref.raw_offset:
        expr = BinOp("+", expr, Imm(ref.raw_offset))
    return fold(expr)


class _UseSites:
    """Where the chosen loads' destinations are read, from one scan of
    the function: ``reg -> {id(instr): (block, instr, occurrences)}``.

    Step h rewrites instructions that may be use sites of another
    chosen load (in a copy loop ``a[i] = b[i]`` the store's source is
    the load's destination, and the store is replaced by an enqueue),
    so every rewrite reports its old and new instruction to
    :meth:`replace`, keeping the index equal to a fresh scan.  An
    instruction's cached ``uses_mask`` covers every register in its
    operand expressions, so only those that read a tracked register
    are walked.
    """

    def __init__(self, cfg: CFG, regs: list) -> None:
        self._sites: dict = {reg: {} for reg in regs}
        self._mask = 0
        for reg in regs:
            self._mask |= 1 << cell_index(reg)
        for block in cfg.blocks:
            for instr in block.instrs:
                self._add(block, instr)

    def _add(self, block: Block, instr: Instr) -> None:
        if not instr.uses_mask() & self._mask:
            return
        for e in instr.use_exprs():
            for sub in walk(e):
                if isinstance(sub, (Reg, VReg)) and sub in self._sites:
                    per = self._sites[sub]
                    _b, _i, n = per.get(id(instr), (block, instr, 0))
                    per[id(instr)] = (block, instr, n + 1)

    def of(self, reg: Expr, skip: Instr) -> list[tuple]:
        """``(block, instr, occurrences)`` reads of ``reg``, except in
        ``skip``."""
        return [site for key, site in self._sites[reg].items()
                if key != id(skip)]

    def replace(self, block: Block, old: Instr,
                new: Optional[Instr]) -> None:
        """``old`` in ``block`` was rewritten into ``new`` (the same
        object when edited in place; None when deleted)."""
        for per in self._sites.values():
            per.pop(id(old), None)
        if new is not None:
            self._add(block, new)


def _rewrite_reference(loop: Loop, doms: Dominators, ref: MemRef,
                       fifo: Reg, uses: _UseSites) -> None:
    """Step h: change the load/store to use the FIFO register."""
    instr = ref.instr
    block = ref.block
    if ref.is_store:
        pos = block.instrs.index(instr)
        enqueue = Assign(fifo, instr.src,
                         comment="enqueue to output stream",
                         lno=instr.lno)
        enqueue.origin = "streaming:fifo"
        block.instrs[pos] = enqueue
        uses.replace(block, instr, enqueue)
        return
    dst = instr.dst
    # Count in-loop uses; the FIFO register dequeues on every read, so a
    # direct substitution is only possible for a single textual use in a
    # once-per-iteration block.
    use_sites = uses.of(dst, instr)
    single_direct = (
        len(use_sites) == 1 and use_sites[0][2] == 1 and
        loop.contains(use_sites[0][0]) and
        all(doms.dominates(use_sites[0][0], tail)
            for tail in loop.back_tails)
    )
    if single_direct:
        user_block, user, _n = use_sites[0]
        user.map_exprs(lambda e: subst(e, {dst: fifo}))
        uses.replace(user_block, user, user)
        block.instrs.remove(instr)
        uses.replace(block, instr, None)
    else:
        pos = block.instrs.index(instr)
        dequeue = Assign(dst, fifo, comment="dequeue from stream",
                         lno=instr.lno)
        dequeue.origin = "streaming:fifo"
        block.instrs[pos] = dequeue
        uses.replace(block, instr, dequeue)


def _try_delete_iv(cfg: CFG, loop: Loop, iv: Expr) -> bool:
    """Delete the IV update when the IV is dead (paper Step j)."""
    update = None
    other_uses_in_loop = False
    for block in loop.block_list:
        for instr in block.instrs:
            if isinstance(instr, Assign) and instr.dst == iv and \
                    instr.uses() == {iv}:
                update = (block, instr)
                continue
            if iv in instr.uses():
                other_uses_in_loop = True
    if update is None or other_uses_in_loop:
        return False
    liveness = compute_liveness(cfg)
    if any(iv in liveness.live_in(outside)
           for _inside, outside in loop.exit_edges()):
        return False
    block, instr = update
    block.instrs.remove(instr)
    return True
