"""The vpo-style RTL optimizer: CFG, dataflow, loops, and phases."""

from .analysis import AnalysisManager
from .bounds import (
    LoopBounds, compute_function_bounds, compute_module_bounds,
    emit_headroom_remarks,
)
from .cfg import CFG, Block, build_cfg
from .combine import combine_cfg, simplify_expr
from .dataflow import Liveness, compute_liveness, compute_liveness_reference
from .dce import dce_cfg, remove_dead_ivs
from .dominators import Dominators, compute_dominators
from .induction import (
    Affine, BasicIV, DefSites, analyze_affine, def_sites, find_basic_ivs,
    resolve_invariant,
)
from .licm import licm_cfg
from .loops import Loop, ensure_preheader, find_loops
from .peephole import peephole_cfg, remove_identity_moves
from .pipeline import (
    BREAK_PASS_ENV, OptOptions, OptReports, PassCrashError,
    optimize_function, optimize_module,
)
from .regalloc import allocate_registers, finalize_frame

__all__ = [
    "AnalysisManager",
    "LoopBounds", "compute_function_bounds", "compute_module_bounds",
    "emit_headroom_remarks",
    "CFG", "Block", "build_cfg",
    "combine_cfg", "simplify_expr",
    "Liveness", "compute_liveness", "compute_liveness_reference",
    "dce_cfg", "remove_dead_ivs",
    "Dominators", "compute_dominators",
    "Affine", "BasicIV", "DefSites", "analyze_affine", "def_sites",
    "find_basic_ivs", "resolve_invariant",
    "licm_cfg",
    "Loop", "ensure_preheader", "find_loops",
    "peephole_cfg", "remove_identity_moves",
    "OptOptions", "OptReports", "optimize_function", "optimize_module",
    "allocate_registers", "finalize_frame",
]
