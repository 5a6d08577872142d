"""coresolve: a structural-resolution logic-programming engine with
coinductive (restricted) loop detection, rational-tree answers, and the
static checks that keep loop-detected answers honest."""

from .terms import (
    FreshVars,
    Struct,
    Substitution,
    Symbol,
    Term,
    Var,
    is_instance,
    is_variant,
    truncate,
)
from .program import Clause, Program, check_universal, parse_program, parse_query
from .unify import UnifyKind, UnifyOutcome, mgm, mgu, rational_unify
from .derivation import Limits, Status, refute
from .coengine import co_refute
from .productivity import check_productive

__all__ = [
    "Clause",
    "FreshVars",
    "Limits",
    "Program",
    "Status",
    "Struct",
    "Substitution",
    "Symbol",
    "Term",
    "UnifyKind",
    "UnifyOutcome",
    "Var",
    "check_productive",
    "check_universal",
    "co_refute",
    "gfp_local_check",
    "is_instance",
    "is_variant",
    "lfp_enumerate",
    "mgm",
    "mgu",
    "parse_program",
    "parse_query",
    "rational_unify",
    "refute",
    "truncate",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    # PEP 562: ``models`` loads on first use, so ``import coresolve.cli``
    # does not pay for it.
    if name in ("gfp_local_check", "lfp_enumerate"):
        from .models import gfp_local_check, lfp_enumerate

        return gfp_local_check if name == "gfp_local_check" else lfp_enumerate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
