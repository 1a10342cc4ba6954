"""Induction variables and affine address analysis.

Provides what the paper's partition vectors need: for each memory
reference in a loop, express the address as ``cee * iv + dee`` where
``iv`` is a basic induction variable of the loop, ``cee`` is a constant
coefficient, and ``dee`` is a loop-invariant base (a symbol or an opaque
invariant value) plus a constant byte offset.

A *basic induction variable* is a register with exactly one definition
inside the loop, of the form ``iv := iv ± constant``.  Pointer-walk
loops (``*p++``) make the pointer itself a basic IV; its invariant
initial value is resolved (chased through dominating definitions) so the
partition analysis can place pointer references into the right memory
region when the pointer provably starts at a known object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..rtl.expr import BinOp, Expr, Imm, Mem, Reg, Sym, UnOp, VReg, fold
from ..rtl.instr import Assign, Call, Instr
from .cfg import CFG, Block
from .loops import Loop

__all__ = [
    "BasicIV", "Affine", "find_basic_ivs", "analyze_affine",
    "resolve_invariant", "DefSites", "def_sites",
]


@dataclass(frozen=True)
class BasicIV:
    """A basic induction variable: ``reg := reg + step`` once per loop."""

    reg: Expr           # Reg or VReg
    step: int
    update: Instr       # the defining instruction

    @property
    def direction(self) -> str:
        return "+" if self.step > 0 else "-"


@dataclass(frozen=True)
class Affine:
    """``address = coef * iv + base + offset`` (iv may be None).

    ``base`` is the loop-invariant non-constant part: a :class:`Sym`,
    an invariant register, or None for pure constants.  ``anchor`` is
    the instruction at which the IV register was actually *read* — a
    copy made before the IV update captures a different value than a
    read after it, and offset normalization needs that position.
    """

    iv: Optional[Expr]
    coef: int
    base: Optional[Expr]
    offset: int
    anchor: Optional[object] = None

    def plus(self, other: "Affine") -> Optional["Affine"]:
        if self.iv is not None and other.iv is not None and \
                self.iv != other.iv:
            return None
        if self.iv is not None and other.iv is not None and \
                self.anchor is not other.anchor:
            return None  # IV read at two different points: ambiguous
        iv = self.iv or other.iv
        coef = self.coef + other.coef if self.iv == other.iv else \
            (self.coef if self.iv is not None else other.coef)
        if self.base is not None and other.base is not None:
            return None  # two non-constant bases cannot be combined
        base = self.base if self.base is not None else other.base
        anchor = self.anchor if self.iv is not None else other.anchor
        return Affine(iv, coef, base, self.offset + other.offset, anchor)

    def negate(self) -> "Affine":
        if self.base is not None:
            # negated symbols are not representable; only pure terms negate
            return Affine(self.iv, -self.coef, NegBase(self.base),
                          -self.offset, self.anchor)
        return Affine(self.iv, -self.coef, None, -self.offset, self.anchor)

    def scale(self, factor: int) -> Optional["Affine"]:
        if self.base is not None and factor != 1:
            return None
        base = self.base
        return Affine(self.iv, self.coef * factor, base,
                      self.offset * factor, self.anchor)


@dataclass(frozen=True)
class NegBase:
    """Marker wrapper for a negated base term (rare; blocks pairing)."""

    inner: Expr


class DefSites:
    """Where each register is defined: ``reg -> [(block, instr)]`` in
    program (layout) order, from one scan of the function.

    The loop passes build one per loop, in :func:`def_sites`, and
    answer every definition question of that loop's analysis from it:
    how many definitions a register has, its only definition, and its
    definitions inside or outside the loop.  It describes the function
    as it was when built; the loop passes' own rewrites add definitions
    only of fresh registers and FIFO cells, and remove only those of
    the loads they delete, which the queries made after them never ask
    about.
    """

    __slots__ = ("_sites",)

    def __init__(self, sites: dict) -> None:
        self._sites = sites

    def count(self, reg: Expr) -> int:
        """Number of instructions defining ``reg`` in the function."""
        return len(self._sites.get(reg, ()))

    def only_def(self, reg: Expr) -> Optional[Instr]:
        """The first definition of ``reg`` (its only one when
        :meth:`count` is 1), or None."""
        sites = self._sites.get(reg)
        return sites[0][1] if sites else None

    def in_loop(self, reg: Expr, loop: Loop) -> list[Instr]:
        """Definitions of ``reg`` inside ``loop``."""
        return [instr for block, instr in self._sites.get(reg, ())
                if loop.contains(block)]

    def outside(self, reg: Expr, loop: Loop) -> list[tuple[Block, Instr]]:
        """``(block, instr)`` definitions of ``reg`` outside ``loop``."""
        return [site for site in self._sites.get(reg, ())
                if not loop.contains(site[0])]


def def_sites(cfg: CFG) -> DefSites:
    """Index every definition site of the function (one full scan)."""
    sites: dict = {}
    for block in cfg.blocks:
        for instr in block.instrs:
            for d in instr.defs():
                sites.setdefault(d, []).append((block, instr))
    return DefSites(sites)


def find_basic_ivs(loop: Loop) -> dict:
    """Basic induction variables of ``loop``, keyed by register."""
    defs_in_loop: dict = {}
    for block in loop.block_list:
        for instr in block.instrs:
            for d in instr.defs():
                defs_in_loop.setdefault(d, []).append(instr)
    ivs: dict = {}
    for reg, instrs in defs_in_loop.items():
        if len(instrs) != 1 or not isinstance(reg, (Reg, VReg)):
            continue
        instr = instrs[0]
        if not isinstance(instr, Assign) or instr.dst != reg:
            continue
        step = _step_of(instr.src, reg)
        if step is not None and step != 0:
            ivs[reg] = BasicIV(reg, step, instr)
    return ivs


def _step_of(src: Expr, reg: Expr) -> Optional[int]:
    if isinstance(src, BinOp) and isinstance(src.right, Imm) and \
            src.left == reg and isinstance(src.right.value, int):
        if src.op == "+":
            return src.right.value
        if src.op == "-":
            return -src.right.value
    if isinstance(src, BinOp) and src.op == "+" and \
            isinstance(src.left, Imm) and src.right == reg and \
            isinstance(src.left.value, int):
        return src.left.value
    return None


def resolve_invariant(reg: Expr, sites: DefSites,
                      depth: int = 8) -> Optional[Expr]:
    """Resolve a register to a symbolic constant (Sym+offset or Imm).

    Follows single-definition chains: a register with exactly one
    definition in the whole function can be replaced by its defining
    expression wherever it is live.  Returns the folded expression if it
    reduces to a :class:`Sym` or :class:`Imm`, else None.
    """
    value = _resolve(reg, sites, depth)
    if isinstance(value, (Sym, Imm)):
        return value
    return None


def _resolve(expr: Expr, sites: DefSites, depth: int) -> Expr:
    if depth <= 0:
        return expr
    if isinstance(expr, (Reg, VReg)):
        if sites.count(expr) != 1:
            return expr
        definition = sites.only_def(expr)
        if not isinstance(definition, Assign):
            return expr
        resolved = _resolve(definition.src, sites, depth - 1)
        return fold(resolved)
    if isinstance(expr, BinOp):
        left = _resolve(expr.left, sites, depth - 1)
        right = _resolve(expr.right, sites, depth - 1)
        return fold(BinOp(expr.op, left, right))
    return expr


def _fail(why: Optional[list], code: str) -> None:
    """Record a stable reason code for a ``return None`` (innermost wins:
    consumers read ``why[0]``, so already-explained failures must not be
    re-explained by outer frames)."""
    if why is not None and not why:
        why.append(code)


def _plus_code(left: "Affine", right: "Affine") -> str:
    """Why ``left.plus(right)`` returned None, as a reason code."""
    if left.iv is not None and right.iv is not None:
        if left.iv != right.iv:
            return "two-ivs"
        if left.anchor is not right.anchor:
            return "iv-order-ambiguous"
    if left.base is not None and right.base is not None:
        return "two-base-terms"
    return "not-affine"


def analyze_affine(expr: Expr, loop: Loop, ivs: dict, sites: DefSites,
                   depth: int = 12,
                   anchor=None, why: Optional[list] = None
                   ) -> Optional[Affine]:
    """Express ``expr`` as an affine function of one basic IV of ``loop``.

    In-loop single-definition registers are chased (e.g. the
    ``r20 := (r22-1) << 3`` offset computation feeding the ``x[i-1]``
    load in the paper's Figure 4); loop-invariant registers resolve to
    their symbolic values when possible, or remain opaque base terms.
    ``anchor`` is the instruction whose evaluation context ``expr``
    belongs to; it is updated while chasing in-loop definition chains so
    the IV leaf records where the IV was read.

    ``why``, when given as an empty list, receives one stable reason
    code (a key of :data:`repro.obs.remarks.REASONS`) on failure —
    the innermost cause, for optimization remarks.
    """
    if depth <= 0:
        _fail(why, "depth-limit")
        return None
    expr = fold(expr)
    if isinstance(expr, Imm):
        if not isinstance(expr.value, int):
            _fail(why, "not-affine")
            return None
        return Affine(None, 0, None, expr.value)
    if isinstance(expr, Sym):
        return Affine(None, 0, Sym(expr.name), expr.offset)
    if isinstance(expr, (Reg, VReg)):
        if expr in ivs:
            return Affine(expr, 1, None, 0, anchor)
        in_loop_def = sites.in_loop(expr, loop)
        if len(in_loop_def) == 1 and isinstance(in_loop_def[0], Assign) \
                and in_loop_def[0].dst == expr:
            return analyze_affine(in_loop_def[0].src, loop, ivs, sites,
                                  depth - 1,
                                  anchor=in_loop_def[0], why=why)
        if in_loop_def:
            _fail(why, "multi-def-temp")
            return None  # multiple in-loop defs: not analyzable
        # Loop-invariant register: resolve to a symbol if possible,
        # otherwise keep as an opaque invariant base.
        resolved = resolve_invariant(expr, sites)
        if isinstance(resolved, Sym):
            return Affine(None, 0, Sym(resolved.name), resolved.offset)
        if isinstance(resolved, Imm) and isinstance(resolved.value, int):
            return Affine(None, 0, None, resolved.value)
        return Affine(None, 0, expr, 0)
    if isinstance(expr, BinOp):
        if expr.op == "+":
            left = analyze_affine(expr.left, loop, ivs, sites, depth - 1,
                                  anchor, why)
            right = analyze_affine(expr.right, loop, ivs, sites, depth - 1,
                                   anchor, why)
            if left is None or right is None:
                return None
            combined = left.plus(right)
            if combined is None:
                _fail(why, _plus_code(left, right))
            return combined
        if expr.op == "-":
            left = analyze_affine(expr.left, loop, ivs, sites, depth - 1,
                                  anchor, why)
            right = analyze_affine(expr.right, loop, ivs, sites, depth - 1,
                                   anchor, why)
            if left is None or right is None:
                return None
            negated = right.negate()
            if isinstance(negated.base, NegBase):
                _fail(why, "two-base-terms")
                return None
            combined = left.plus(negated)
            if combined is None:
                _fail(why, _plus_code(left, negated))
            return combined
        if expr.op == "*":
            return _scaled(expr.left, expr.right, loop, ivs, sites, depth,
                           anchor, why)
        if expr.op == "<<" and isinstance(expr.right, Imm) and \
                isinstance(expr.right.value, int) and \
                0 <= expr.right.value < 31:
            factor = 1 << expr.right.value
            inner = analyze_affine(expr.left, loop, ivs, sites, depth - 1,
                                   anchor, why)
            if inner is None:
                return None
            scaled = inner.scale(factor)
            if scaled is None:
                _fail(why, "non-constant-scale")
            return scaled
    _fail(why, "unsupported-op")
    return None


def _scaled(a: Expr, b: Expr, loop: Loop, ivs: dict, sites: DefSites,
            depth: int, anchor=None,
            why: Optional[list] = None) -> Optional[Affine]:
    if isinstance(b, Imm) and isinstance(b.value, int):
        inner = analyze_affine(a, loop, ivs, sites, depth - 1, anchor, why)
        if inner is None:
            return None
        scaled = inner.scale(b.value)
        if scaled is None:
            _fail(why, "non-constant-scale")
        return scaled
    if isinstance(a, Imm) and isinstance(a.value, int):
        inner = analyze_affine(b, loop, ivs, sites, depth - 1, anchor, why)
        if inner is None:
            return None
        scaled = inner.scale(a.value)
        if scaled is None:
            _fail(why, "non-constant-scale")
        return scaled
    _fail(why, "non-constant-scale")
    return None
