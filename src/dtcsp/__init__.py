"""Solver and complexity classifier for CSPs over the integers whose
relations are quantifier-free definable from order and successor."""

from .classify import (
    MAX,
    MIN,
    ComplexityVerdict,
    DifferenceProfile,
    OperationSpec,
    OpKind,
    PreservationResult,
    PreservationWitness,
    ProfileTag,
    VerdictClass,
    apply_operation,
    classify,
    difference_profile,
    is_horn,
    is_positive,
    modmax,
    modmin,
    preserved_by,
)
from .errors import (
    ArityError,
    BudgetExceeded,
    DtcspError,
    DuplicateNameError,
    InternalError,
    MissingVariableError,
    NotHornError,
    ParseError,
    SizeLimitExceeded,
)
from .finite import (
    Instance,
    SolveResult,
    arc_consistency,
    backtracking_solve,
    bounded_window,
    decide_max_closed,
    satisfies,
    solve_mod_max,
    validate_instance,
)
from .formula import (
    And,
    Cmp,
    ConstraintLanguage,
    Dialect,
    Formula,
    Literal,
    Not,
    Or,
    RelationDef,
    equivalent,
    evaluate,
    parse_expression,
    parse_language,
    reduce,
    to_cnf,
    to_dnf,
    write_language,
)
from .horn import (
    HornClause,
    HornClauses,
    OffsetUnionFind,
    compile_horn_instance,
    extract_assignment,
    solve_horn,
    solve_horn_csp,
)
from .oracle import (
    TupleSet,
    brute_solve,
    materialize,
    random_horn_relation,
    random_instance,
    random_relation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
