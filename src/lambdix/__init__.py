"""Lambdix: a lazy, lexically scoped Lisp-family interpreter.

Variable bindings live in per-call blocks addressed through the dynamic
links of lambda structures, giving constant-time variable access and
environment switching bounded by lexical depth - the combination that makes
call-by-need affordable. Both a strict (call-by-value) and a lazy
(call-by-need, memoized) strategy are provided, plus a naive reference
interpreter for differential testing and a benchmark harness.
"""

from .errors import (AnalysisError, EvalError, LambdixError, LimitExceeded,
                     ReadError)
from .evaluator import Interpreter, Outcome, run_with_limit
from .reader import read_expr, read_program, to_text, tokenize

__version__ = "1.0.0"

__all__ = [
    "AnalysisError", "EvalError", "Interpreter", "LambdixError",
    "LimitExceeded", "Oracle", "Outcome", "ReadError", "differential_run",
    "generate_program", "read_expr", "read_program", "run_with_limit",
    "to_text", "tokenize", "__version__",
]

# the reference interpreter is loaded on first use (PEP 562): a run, the
# benchmark worker and most commands never need it
_ORACLE_NAMES = frozenset(("Oracle", "differential_run", "generate_program"))


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
