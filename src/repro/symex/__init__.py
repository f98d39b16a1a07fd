"""repro.symex — a KLEE-style symbolic execution engine for the repro IR."""

from .expr import (
    Expr, ExprOp, bounded_interval, mask, to_signed, unsigned_interval,
)
from .simplify import (
    binary, bitwise_not, concat_bytes, const, extract_byte, false_expr, ite,
    not_expr, rebuild, sext, substitute, true_expr, trunc, var, zext,
)
from .memory import SymbolicMemory, SymbolicMemoryObject
from .solver import (
    SharedSolverCaches, Solver, SolverConfig, SolverResult, SolverStats,
)
from .ubtree import UBTree
from .state import ExecutionState, StackFrame, StateStatus
from .searcher import (
    BFSSearcher, DFSSearcher, RandomSearcher, Searcher, make_searcher,
)
from .executor import (
    BugReport, ExplorationBudget, PathRecord, SymbolicExecutor, SymexLimits,
    SymexReport, SymexStats, explore,
)
from .backend import SymexBackend

__all__ = [
    "Expr", "ExprOp", "bounded_interval", "mask", "to_signed",
    "unsigned_interval",
    "binary", "bitwise_not", "concat_bytes", "const", "extract_byte",
    "false_expr", "ite", "not_expr", "rebuild", "sext", "substitute",
    "true_expr", "trunc", "var", "zext",
    "SymbolicMemory", "SymbolicMemoryObject",
    "SharedSolverCaches", "Solver", "SolverConfig", "SolverResult",
    "SolverStats", "UBTree",
    "ExecutionState", "StackFrame", "StateStatus",
    "BFSSearcher", "DFSSearcher", "RandomSearcher", "Searcher",
    "make_searcher",
    "BugReport", "ExplorationBudget", "PathRecord", "SymbolicExecutor",
    "SymexLimits", "SymexReport", "SymexStats", "explore",
    "SymexBackend",
]
