"""A from-scratch SMT substrate: Bool + fixed-width bit-vector terms decided
by bit-blasting to a CDCL SAT solver.

The paper's Lightyear implementation discharges its local checks through the
Zen constraint library backed by Z3.  Z3 is not available offline, so this
package provides the equivalent decision procedure for the quantifier-free
finite-domain fragment that Lightyear actually needs: boolean structure over
bit-vector equalities, comparisons, masking and addition.

Public API:

    from repro.smt import (
        Solver, Result, bool_var, bv_var, bv_const, true, false,
        and_, or_, not_, implies, iff, ite, bv_eq, bv_ult, bv_ule,
        bv_and, bv_add,
    )

    s = Solver()
    x = bv_var("x", 8)
    s.add(bv_eq(bv_and(x, bv_const(0xF0, 8)), bv_const(0x10, 8)))
    if s.check() is Result.SAT:
        print(s.model().eval_bv(x))
"""

from repro.smt.terms import (
    Term,
    BoolConst,
    BoolVar,
    Not,
    And,
    Or,
    Ite,
    BvVar,
    BvConst,
    BvEq,
    BvUlt,
    BvUle,
    BvAnd,
    BvAdd,
    BvIte,
    bool_var,
    true,
    false,
    and_,
    or_,
    not_,
    implies,
    iff,
    ite,
    bv_var,
    bv_const,
    bv_eq,
    bv_ult,
    bv_ule,
    bv_and,
    bv_add,
    BOOL,
    BitVecSort,
)
from repro.smt.solver import (
    CheckSession,
    Model,
    Result,
    SessionPool,
    Solver,
    SolverStats,
)

__all__ = [
    "Term",
    "BoolConst",
    "BoolVar",
    "Not",
    "And",
    "Or",
    "Ite",
    "BvVar",
    "BvConst",
    "BvEq",
    "BvUlt",
    "BvUle",
    "BvAnd",
    "BvAdd",
    "BvIte",
    "bool_var",
    "true",
    "false",
    "and_",
    "or_",
    "not_",
    "implies",
    "iff",
    "ite",
    "bv_var",
    "bv_const",
    "bv_eq",
    "bv_ult",
    "bv_ule",
    "bv_and",
    "bv_add",
    "BOOL",
    "BitVecSort",
    "Solver",
    "CheckSession",
    "SessionPool",
    "Result",
    "Model",
    "SolverStats",
]
