"""Primitive function suite: strict 64-bit integer arithmetic and
comparison, list operations, predicates, and the forcing printer. Each
primitive is called as fn(interp, arg, ...), one positional argument per
parameter. make_primitives builds the table for one strategy: cons is lazy
under need (the need call shape suspends its components) and strict under
value, where its kernel counts the two positions a lazy run would suspend.

Each strict primitive is one kernel frame: argument types (first, then
second), a zero divisor and overflow are checked inline, in that order.

car, cdr and cadr return a component that is not yet forced as it is, but
cut a forced one out of its pair: the pair then holds the memo, and the
used-up thunk can be collected. Local slots are left alone; see the
evaluator's docstring."""

import operator

from .errors import EvalError
from .reader import INT_MAX, INT_MIN
from .values import (TH_DONE, EmptyList, Pair, Primitive, Thunk, render,
                     structural_eq)


def _not_a_pair(op, v):
    if type(v) is EmptyList:
        return EvalError(f"{op}: empty list", "type")
    return EvalError(f"{op}: expected a pair", "type")


def _arith(name, op):
    def kernel(interp, a, b):
        if type(a) is not int or type(b) is not int:
            raise EvalError(f"{name}: expected a number", "type")
        r = op(a, b)
        if INT_MIN <= r <= INT_MAX:
            return r
        raise EvalError("arithmetic overflow", "arith")
    return Primitive(name, 2, kernel)


def _compare(name, op):
    def kernel(interp, a, b):
        if type(a) is not int or type(b) is not int:
            raise EvalError(f"{name}: expected a number", "type")
        return op(a, b)
    return Primitive(name, 2, kernel)


def _div(interp, a, b):
    if type(a) is not int or type(b) is not int:
        raise EvalError("/: expected a number", "type")
    if b == 0:
        raise EvalError("/: division by zero", "arith")
    # truncated division: the quotient rounds toward zero
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        return -q
    if q > INT_MAX:
        raise EvalError("arithmetic overflow", "arith")
    return q


def _mod(interp, a, b):
    if type(a) is not int or type(b) is not int:
        raise EvalError("mod: expected a number", "type")
    if b == 0:
        raise EvalError("mod: division by zero", "arith")
    # remainder of truncated division: the sign follows the dividend, and
    # it is smaller than the divisor, so it cannot overflow
    r = abs(a) % abs(b)
    return -r if a < 0 else r


def _eq(interp, a, b):
    if type(a) is int and type(b) is int:
        return a == b
    return structural_eq(a, b, interp.force1)


def _cons(interp, head, tail):
    return Pair(head, tail)


def _cons_strict(interp, head, tail):
    interp.counters.thunks_created += 2
    return Pair(head, tail)


def _car(interp, v):
    if type(v) is Pair:
        head = v.head
        if type(head) is Thunk and head.state == TH_DONE:
            head = v.head = head.memo
        return head
    raise _not_a_pair("car", v)


def _cdr(interp, v):
    if type(v) is Pair:
        tail = v.tail
        if type(tail) is Thunk and tail.state == TH_DONE:
            tail = v.tail = tail.memo
        return tail
    raise _not_a_pair("cdr", v)


def _cadr(interp, v):
    if type(v) is not Pair:
        raise _not_a_pair("cadr", v)
    tail = v.tail
    if type(tail) is Thunk:
        tail = v.tail = interp._force(tail)
    if type(tail) is Pair:
        head = tail.head
        if type(head) is Thunk and head.state == TH_DONE:
            head = tail.head = head.memo
        return head
    raise _not_a_pair("cadr", tail)


def _nullist(interp, v):
    return type(v) is EmptyList


def _atom(interp, v):
    return type(v) is not Pair


def _print(interp, v):
    text = render(v, interp.force1, interp.print_items, interp.print_nesting)
    interp.out.write(text + "\n")
    return v


def make_primitives(lazy):
    """name -> primitive; cons is lazy when `lazy` (call-by-need)."""
    prims = [
        _arith("+", operator.add),
        _arith("-", operator.sub),
        _arith("*", operator.mul),
        Primitive("/", 2, _div),
        Primitive("mod", 2, _mod),
        _compare("<", operator.lt),
        _compare("<=", operator.le),
        _compare(">", operator.gt),
        _compare(">=", operator.ge),
        Primitive("=", 2, _eq),
        (Primitive("cons", 2, _cons, lazy=True) if lazy
         else Primitive("cons", 2, _cons_strict)),
        Primitive("car", 1, _car),
        Primitive("cdr", 1, _cdr),
        Primitive("cadr", 1, _cadr),
        Primitive("nullist", 1, _nullist),
        Primitive("atom", 1, _atom),
        Primitive("print", 1, _print),
    ]
    return {p.name: p for p in prims}
