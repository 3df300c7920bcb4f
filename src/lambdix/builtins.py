"""Primitive function suite: strict 64-bit integer arithmetic and
comparison, list operations with a strategy-dependent cons, predicates, and
the forcing printer. Each primitive is called as fn(interp, arg, ...), one
positional argument per parameter."""

from .errors import EvalError
from .reader import INT_MAX, INT_MIN
from .values import EmptyList, Pair, Primitive, render, structural_eq


def _num(v, op):
    if type(v) is not int:
        raise EvalError(f"{op}: expected a number", "type")
    return v


def _fit(r):
    if not (INT_MIN <= r <= INT_MAX):
        raise EvalError("arithmetic overflow", "arith")
    return r


def _trunc_div(a, b, op):
    if b == 0:
        raise EvalError(f"{op}: division by zero", "arith")
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return q


def _arith(name, fn):
    def impl(interp, a, b):
        return _fit(fn(_num(a, name), _num(b, name)))
    return Primitive(name, 2, impl)


def _compare(name, fn):
    def impl(interp, a, b):
        return fn(_num(a, name), _num(b, name))
    return Primitive(name, 2, impl)


def _eq(interp, a, b):
    return structural_eq(a, b, interp.force1)


def _cons(interp, head, tail):
    return Pair(head, tail)


def _pair_arg(v, op):
    if type(v) is Pair:
        return v
    if type(v) is EmptyList:
        raise EvalError(f"{op}: empty list", "type")
    raise EvalError(f"{op}: expected a pair", "type")


def _car(interp, v):
    return _pair_arg(v, "car").head


def _cdr(interp, v):
    return _pair_arg(v, "cdr").tail


def _cadr(interp, v):
    tail = interp.force1(_pair_arg(v, "cadr").tail)
    return _pair_arg(tail, "cadr").head


def _nullist(interp, v):
    return type(v) is EmptyList


def _atom(interp, v):
    return type(v) is not Pair


def _print(interp, v):
    text = render(v, interp.force1, interp.print_items, interp.print_nesting)
    interp.out.write(text + "\n")
    return v


def make_primitives():
    prims = [
        _arith("+", lambda a, b: a + b),
        _arith("-", lambda a, b: a - b),
        _arith("*", lambda a, b: a * b),
        Primitive("/", 2, lambda i, a, b: _fit(_trunc_div(_num(a, "/"), _num(b, "/"), "/"))),
        Primitive("mod", 2, _mod),
        _compare("<", lambda a, b: a < b),
        _compare("<=", lambda a, b: a <= b),
        _compare(">", lambda a, b: a > b),
        _compare(">=", lambda a, b: a >= b),
        Primitive("=", 2, _eq),
        Primitive("cons", 2, _cons, lazy=True),
        Primitive("car", 1, _car),
        Primitive("cdr", 1, _cdr),
        Primitive("cadr", 1, _cadr),
        Primitive("nullist", 1, _nullist),
        Primitive("atom", 1, _atom),
        Primitive("print", 1, _print),
    ]
    return {p.name: p for p in prims}


def _mod(interp, a, b):
    a, b = _num(a, "mod"), _num(b, "mod")
    # remainder of truncated division: sign follows the dividend
    q = _trunc_div(a, b, "mod")
    return _fit(a - b * q)
