"""Dominator analysis as an immediate-dominator tree.

Cooper, Harvey and Kennedy, "A Simple, Fast Dominance Algorithm":
iterate ``idom(b) = intersect(processed preds of b)`` over reverse
post-order until stable, where ``intersect`` walks the two candidates
up the partial tree by post-order number.  A pre/post-order numbering
of the finished tree then answers ``dominates`` in O(1): ``a``
dominates ``b`` iff ``b``'s interval nests inside ``a``'s.

A block unreachable from the entry is the root of its own one-node
tree, so it is dominated only by itself and dominates nothing else.
"""

from __future__ import annotations

from .cfg import Block, CFG

__all__ = ["Dominators", "compute_dominators"]


class Dominators:
    """Dominance queries for one CFG, from pre/post-order intervals of
    its dominator tree (``id(block) -> (pre, post)``)."""

    __slots__ = ("_span",)

    def __init__(self, span: dict[int, tuple[int, int]]) -> None:
        self._span = span

    def dominates(self, a: Block, b: Block) -> bool:
        """True if every path from entry to ``b`` passes through ``a``."""
        sa = self._span.get(id(a))
        if sa is None:
            return False
        sb = self._span[id(b)]
        return sa[0] <= sb[0] and sb[1] <= sa[1]

    def strictly_dominates(self, a: Block, b: Block) -> bool:
        return a is not b and self.dominates(a, b)


def compute_dominators(cfg: CFG) -> Dominators:
    """Immediate dominators over reverse post-order, then tree intervals."""
    rpo = cfg.rpo()
    order = {id(b): i for i, b in enumerate(rpo)}   # rpo index
    idom: list[int] = [-1] * len(rpo)
    idom[0] = 0
    preds = [[order[id(p)] for p in b.preds if id(p) in order]
             for b in rpo]
    changed = True
    while changed:
        changed = False
        for i in range(1, len(rpo)):
            new = -1
            for p in preds[i]:
                if idom[p] < 0:
                    continue
                if new < 0:
                    new = p
                    continue
                # intersect: a larger rpo index is deeper in the tree
                x = p
                while x != new:
                    while x > new:
                        x = idom[x]
                    while new > x:
                        new = idom[new]
            if idom[i] != new:
                idom[i] = new
                changed = True
    children: list[list[int]] = [[] for _ in rpo]
    for i in range(1, len(rpo)):
        children[idom[i]].append(i)
    span: dict[int, tuple[int, int]] = {}
    clock = 0
    pre = [0] * len(rpo)
    stack = [(0, False)]
    while stack:
        node, done = stack.pop()
        if done:
            span[id(rpo[node])] = (pre[node], clock)
            clock += 1
            continue
        pre[node] = clock
        clock += 1
        stack.append((node, True))
        stack.extend((c, False) for c in children[node])
    for block in cfg.blocks:
        if id(block) not in span:
            span[id(block)] = (clock, clock + 1)
            clock += 2
    return Dominators(span)
