"""Deterministic k-SAT and (d,<=k)-CSP solving via covering-code local search."""

from .cnf import (
    Assignment,
    Clause,
    Formula,
    evaluate,
)
from .codes import (
    CoveringCode,
    ball_volume,
    boolean_cover,
    code_size_bound,
    get_code,
    greedy_code,
    random_code,
    shell_volume,
    verify_cover,
)
from .csp import (
    CspFormula,
    brute_force_csp,
    csp_evaluate,
    restrict_to_box,
    solve_csp,
    two_box_cover,
)
from .errors import (
    CodeConstructionError,
    CoversatError,
    ParseError,
    ParseWarning,
    ResourceCapError,
    UsageError,
)
from .formats import parse_csp, parse_dimacs, read_code, write_code, write_csp, write_dimacs
from .search import (
    FastParams,
    SearchStats,
    apply_codeword,
    maximal_disjoint_unsat,
    schoening_walk,
    searchball,
    searchball_fast,
)
from .solver import (
    SolveResult,
    SolverConfig,
    brute_force,
    solve_deterministic,
    solve_schoening,
)

__version__ = "0.1.0"
