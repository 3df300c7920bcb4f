"""The block-model evaluator.

One Interpreter instance owns a top-level table and the runtime environment
state, and evaluates under exactly one strategy:

  value - arguments, cons components, let bindings and top-level definitions
          are computed eagerly;
  need  - all of those are suspended as memoized thunks, forced at most once,
          with every primitive but cons strict (builtins.make_primitives); a
          literal or local argument or let binding is passed on as it is, a
          total primitive on operands already computed is applied (see the
          `delay` methods), and a let's local function is its closure at once.

Under need a closure call also passes its callee's demand prefix evaluated
(analyzer.demand_prefix): the parameters the body forces first, in the
order it forces them, before any effect, failing operation, branch,
closure call or outer read. A call with the callee's argument count
evaluates those arguments in the caller's environment in that order,
suspends the rest (all of them when the prefix is empty) and only then
runs the body, so effects and errors keep their order; any other call
suspends every argument, and new_block reports the wrong count. What
moves is the depth: those arguments now run before the call's depth check
and shallower than a forcing inside the body would, so a step or depth
limit can be reached at a different point. A top-level definition of a
name holding a primitive turns prefixes off for good (`demanding`), since
they assume each primitive's name still names it.

Cheap eagerness (a primitive application applied where a need run would
suspend it) is described at `_delay_prim`, and forcing at
`Interpreter._force`.

Each analyzed node class has one `ev(interp, struct)` method, defined at
the end of this module; `struct` is the level whose environment the node
runs in. There is no compile pass, so a one-shot REPL form costs no more
than its analysis. A local read is one cell of the owner's current block
vector (runtime.py). A closure call builds its callee's vector, header
and arguments, in one list, and a let builds its own, header and unset
cells, the same way. A let's entry and a call the analyzer marked as one
of a let's own functions (App.parent_current) tell `install` that the new
block's parent is current already; a forcing and every other call pass
nothing.

Every application that is not primitive-shaped is one of two call shapes
(analyzer.CallValue, CallNeed), picked by the analyzer from the
interpreter's strategy, each with its own `ev`: the value shape evaluates
the arguments and clears its dead cells, the need shape passes the
callee's demand prefix and suspends the rest, and neither tests the
strategy at a call. Both read a global head inline, test for a closure
first, and apply a primitive head inline too, so no path adds a frame;
the value shape also reads a local argument's slot in place.

A call of a strict primitive's name with that primitive's arity is a
primitive-shaped node (analyzer.PrimApp), bound to this interpreter's
primitive of that name. The analyzer builds it as one of a few shape
classes, picked from its operands (a local, a literal second operand,
anything else); each shape has its own short `ev`, and all share one
`delay` (cons under need is lazy, and a call of it stays a call shape).
It runs the primitive while the name still holds that very primitive,
which is one test of the primitive's `bound` flag: the top-level
definition of a primitive's name sets it (Interpreter._eval_top_de), so
no shape reads the table. Otherwise (a closure, a thunk, any other
primitive), and when a local operand's slot is unset, it evaluates as its
strategy's call shape, so late binding, error messages and counts stay
those of any application. A shape reads its local operands in place,
from the owner and cell the analyzer stored, and a literal second operand
from the value it stored, without an `ev` call or a type test. An `if`
whose test is PrimL or PrimLK is an if shape (analyzer.IfPrim), which
applies the test's primitive itself, so the test costs no `ev` call either.

Strict calls are safe for space. Under value a closure call, once its
arguments are evaluated and before the callee's block is made and
installed, sets to UNSET the cells of its level's block that the analyzer
found its application reads last (App.dead, analyzer.trim_dead), so a
recursion holds only the arguments it still reads: in Sieve no level
keeps its input list while strike and the levels below it run. Nothing
is cleared under need: a thunk reads its creator's block later, whenever
it is forced. A cell cleared while something could still read it would read
as "used before its definition" (see LocalRef); the analyzer keeps every
cell a lambda or an excla could read.

A "step" is one application of a closure; step and depth limits turn
divergence into a reported outcome rather than a hang.
"""

import io
import sys
from collections import namedtuple

from .analyzer import (Analyzer, App, CallNeed, CallValue, ExclaForm, If,
                       IfL, IfLK, LambdaRef, LambdaStruct, LetForm, Lit,
                       LocalRef, PrimApp, PrimE, PrimEE, PrimEK, PrimEL, PrimL,
                       PrimLK, PrimLL, QuoteForm, TopRef, is_de_form, parse_de)
from .builtins import make_primitives
from .deep import call_on_reserved_stack, call_with_deep_stack
from .errors import EvalError, LambdixError, LimitExceeded
from .reader import read_program
from .runtime import FIRST, OWNER, PARENT, UNSET, Counters, Runtime
from .values import (TH_BUSY, TH_DONE, TH_NEW, Closure, Primitive, Sym,
                     Thunk, datum_to_source, quote_datum, render)

UNLIMITED = 1 << 62

STRATEGIES = ("value", "need")


class Interpreter:
    def __init__(self, strategy="need", step_limit=None, depth_limit=100_000,
                 print_items=100, print_nesting=20, out=None):
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        self.lazy = strategy == "need"
        self.step_limit = UNLIMITED if step_limit is None else step_limit
        self.depth_limit = depth_limit
        self.print_items = print_items
        self.print_nesting = print_nesting
        self.out = out if out is not None else sys.stdout
        self.steps = 0
        self.depth = 0
        self.counters = Counters()
        self.structs = []
        top = LambdaStruct(0, "top", (), None)
        self.top_struct = top
        self.structs.append(top)
        self.rt = Runtime(top, self.counters)
        prims = make_primitives(self.lazy)
        self.rt.top_table.update(prims)
        self.analyzer = Analyzer(self.structs, prims, not self.lazy)
        # off for good once a top-level definition replaces any Primitive;
        # read only by the need call shape, whose demand prefixes assume
        # that each primitive's name still names it
        self.demanding = True

    # -- public API (deep-stack entry points) --------------------------------
    # A whole program runs on one reserved stack chunk, a single form does
    # not: the reservation costs about as much as a small form (deep.py).

    def eval_source(self, text):
        """Evaluate every top-level form; returns their values in order."""
        return call_with_deep_stack(
            call_on_reserved_stack,
            lambda: [self._eval_top_form(sx) for sx in read_program(text)])

    def eval_source_rendered(self, text):
        """Evaluate every top-level form; returns rendered results."""
        return call_with_deep_stack(
            call_on_reserved_stack,
            lambda: [self.render_value(self._eval_top_form(sx))
                     for sx in read_program(text)])

    def eval_form_rendered(self, sx):
        """Evaluate one already-read form; returns its rendered result."""
        return call_with_deep_stack(
            lambda: self.render_value(self._eval_top_form(sx)))

    def render_value(self, v):
        return render(v, self.force1, self.print_items, self.print_nesting)

    # -- top level ------------------------------------------------------------

    def _eval_top_form(self, sx):
        if is_de_form(sx):
            return self._eval_top_de(sx)
        compiled = self.analyzer.analyze(sx, self.top_struct)
        return compiled.ev(self, self.top_struct)

    def _eval_top_de(self, sx):
        kind, name, *rest = parse_de(sx)
        if type(self.rt.top_table.get(name)) is Primitive:
            self.demanding = False
        if kind == "func":
            struct = self.analyzer.make_lambda_struct(name, *rest,
                                                      self.top_struct)
            slot = Closure(struct, self.rt.top_block)
        else:
            compiled = self.analyzer.analyze(rest[0], self.top_struct)
            self.counters.thunks_created += 1
            if self.lazy:
                slot = Thunk(compiled, self.rt.top_block)
            else:
                slot = compiled.ev(self, self.top_struct)
        self.rt.top_table[name] = slot
        prim = self.analyzer.primitives.get(name)
        if prim:
            prim.bound = slot is prim
        return Sym(name) if kind == "func" else slot

    # -- forcing ---------------------------------------------------------------

    def _force(self, th):
        # Forcing is one loop, which a thunk forced already leaves
        # at once with its memo: it puts each thunk it takes on a path before
        # blackholing it, follows an expression that yields another thunk (car
        # and cdr return components unforced) to the value the chain ends in,
        # and memoizes that value on every thunk of the path. Its one handler
        # undoes it from saved state, wherever an error or a Ctrl-C lands: the
        # depth goes back to its value on entry, and every thunk on the path
        # still busy is new again with no memo. An application undoes its depth
        # and its install in one `finally` the same way. car, cdr and cadr cut
        # forced components out of the pairs they read (builtins.py), so a list
        # does not keep its used-up thunks alive. Local slots are not rewritten
        # the same way: later reads of a rewritten slot skip `_force`, so the
        # `_force` calls could fall below the forcings (one call memoizes a
        # whole chain), which would break the benchmark tracer's check that
        # every forcing is seen in a `_force` call.
        #
        # Each thunk taken stays busy on `path` until the chain reaches a
        # value; then every thunk on it memoizes that value, so a memo is
        # never a thunk and a chain is walked once. A busy thunk met on the
        # way is a cycle.
        depth = self.depth
        rt = self.rt
        path = []
        try:
            while True:
                state = th.state
                if state == TH_DONE:
                    v = th.memo
                    break
                if state == TH_BUSY:
                    raise EvalError("cyclic definition: a value depends on "
                                    "itself", "cyclic")
                if depth >= self.depth_limit:
                    raise LimitExceeded("depth")
                path.append(th)
                th.state = TH_BUSY
                self.depth = depth + 1
                block = th.block
                log = rt.install(block)
                try:
                    v = th.expr.ev(self, block[OWNER])
                finally:
                    rt.restore(log)
                self.depth = depth
                if type(v) is not Thunk:
                    break
                th = v
            # counted on memoization only, so forced never exceeds created
            # even across retries after errors
            self.counters.thunks_forced += len(path)
            for t in path:
                t.memo = v
                t.state = TH_DONE
                # the memo is final: release the defining block, and with
                # it every sibling thunk that block holds
                t.expr = t.block = None
            return v
        except BaseException:
            # wherever an error or interrupt landed: a thunk left busy would
            # report a bogus cycle on a retry, and _computed reads a memo
            # that is not None as a value
            self.depth = depth
            for t in path:
                if t.state == TH_BUSY:
                    t.state = TH_NEW
                    t.memo = None
            raise

    def force1(self, v):
        """Force to weak head normal form; identity on plain values."""
        if type(v) is Thunk:
            return self._force(v)
        return v


# ---------------------------------------------------------------------------
# node evaluation: each function below becomes one node class's ev method

def _ev_lit(self, interp, struct):
    return self.value


def _ev_local(self, interp, struct):
    # the analyzer resolved which struct owns the slot; no hops are walked
    interp.counters.lookups += 1
    slot = self.target.current_block[self.index]
    if type(slot) is Thunk:
        return interp._force(slot)
    if slot is UNSET:
        raise EvalError(f"{self.name} is used before its definition",
                        "undefined")
    return slot


def _ev_top(self, interp, struct):
    slot = interp.rt.top_table.get(self.name, UNSET)
    if slot is UNSET:
        raise EvalError(f"{self.name} not defined", "undefined")
    interp.counters.lookups += 1
    if type(slot) is Thunk:
        return interp._force(slot)
    return slot


def _ev_if(self, interp, struct):
    test = self.test.ev(interp, struct)
    if type(test) is Thunk:
        test = interp._force(test)
    if test is True:
        return self.then.ev(interp, struct)
    if test is False:
        return self.orelse.ev(interp, struct)
    raise EvalError("if: test must be a boolean", "type")


# The if shapes (analyzer.IfPrim): while the test's primitive is bound and
# the local operand is set, the primitive is applied here to the operand
# read in place, as the test's own ev would (below); otherwise the test runs
# its own ev, guard and unset operand included. The test's value takes
# the operand's variable, so no operand is kept alive while a branch runs
# (a list kept there doubles strict Sieve's traced peak). Against the
# general if around the same test, measured one shape at a time (Python
# 3.11.7, 2-core host, interleaved runs in one process): IfL cuts Sieve's
# time by 5 % under value and 2-5 % under need, IfLK Fib's by 2.4 % and
# LComp's by 3.3 % under value. A shape for PrimLL tests cut Tak's by
# 2.5 %, but with it importing this module, compiled from source, peaked
# 0.26 MB above the tree without call and if shapes (0.13 MB without it),
# as parsing the larger source takes more memory, so it is not kept.

def _ev_if_l(self, interp, struct):
    test = self.ta.current_block[self.ia]
    if test is UNSET or not self.prim.bound:
        test = self.test.ev(interp, struct)
    else:
        interp.counters.lookups += 2
        if type(test) is Thunk:
            test = interp._force(test)
        test = self.prim.fn(interp, test)
    if type(test) is Thunk:
        test = interp._force(test)
    if test is True:
        return self.then.ev(interp, struct)
    if test is False:
        return self.orelse.ev(interp, struct)
    raise EvalError("if: test must be a boolean", "type")


def _ev_if_lk(self, interp, struct):
    test = self.ta.current_block[self.ia]
    if test is UNSET or not self.prim.bound:
        test = self.test.ev(interp, struct)
    else:
        interp.counters.lookups += 2
        if type(test) is Thunk:
            test = interp._force(test)
        test = self.prim.fn(interp, test, self.kb)
    if type(test) is Thunk:
        test = interp._force(test)
    if test is True:
        return self.then.ev(interp, struct)
    if test is False:
        return self.orelse.ev(interp, struct)
    raise EvalError("if: test must be a boolean", "type")


def _ev_lambda(self, interp, struct):
    # the defining environment is the current block of the struct's
    # lexical parent, i.e. of the enclosing level
    return Closure(self.struct, struct.current_block)


def _ev_quote(self, interp, struct):
    datum = self.datum
    if datum is None:
        datum = self.datum = quote_datum(self.sexpr)
    return datum


def _arity_error(head, args):
    return EvalError(f"{head.name}: expected {head.arity} argument(s), "
                     f"got {len(args)}", "arity")


_NOT_A_FUNCTION = "cannot apply a value that is not a function"


# The call shapes (analyzer.CallValue, CallNeed), one ev per strategy. A
# global head (a top-level function, cons under need, a wrong-arity
# primitive call, a PrimApp whose guard failed) is read as _ev_top would,
# with no frame of its own (head.ev: suite-need +1.5 %), and at every call,
# so a later definition of the name takes effect. A closure head is tested
# first; a primitive one (reached as a value or with the wrong arity, or
# cons under need) is applied inline, so that path adds no frame either.
# Against one ev for both strategies that tested the head's type before
# the closure case, the two shapes alone cut 2-3 % per suite program
# under value and about 2 % under need (interleaved runs in one process,
# Python 3.11.7, 2-core host).

def _ev_call_value(self, interp, struct):
    # no thunk exists under value: no head or argument needs forcing
    rt = interp.rt
    c = interp.counters
    head = self.head
    if type(head) is TopRef:
        head = rt.top_table.get(head.name, UNSET)
        if head is UNSET:
            raise EvalError(f"{self.head.name} not defined", "undefined")
        c.lookups += 1
    else:
        head = head.ev(interp, struct)
    args = self.args
    if type(head) is not Closure:
        if type(head) is not Primitive:
            raise EvalError(_NOT_A_FUNCTION, "type")
        if len(args) != head.arity:
            raise _arity_error(head, args)
        vals = []
        for a in args:
            vals.append(a.ev(interp, struct))
        return head.fn(interp, *vals)
    interp.steps = steps = interp.steps + 1
    if steps > interp.step_limit:
        raise LimitExceeded("step")
    callee = head.struct
    # the callee's block vector is built here, header cells first
    # (runtime.OWNER, PARENT), then one cell per argument; a strict run
    # counts every position a lazy run delays. A local argument whose slot
    # is set is read in place with _ev_local's count (Fib2 6 %, LSum 3 %
    # faster than through its ev); an unset one goes to its ev, which
    # reports it
    c.thunks_created += len(args)
    block = [callee, head.block]
    for a in args:
        if type(a) is LocalRef and (
                v := a.target.current_block[a.index]) is not UNSET:
            c.lookups += 1
            block.append(v)
        else:
            block.append(a.ev(interp, struct))
    dead = self.dead
    if dead:
        # safe for space: the cells this application read last are
        # cleared before the callee runs (analyzer.trim_dead)
        cb = struct.current_block
        for i in dead:
            cb[i] = UNSET
    log = rt.install(rt.new_block(block), self.parent_current)
    depth = interp.depth
    try:
        if depth >= interp.depth_limit:
            raise LimitExceeded("depth")
        interp.depth = depth + 1
        return callee.body.ev(interp, callee)
    finally:
        interp.depth = depth
        rt.restore(log)


def _ev_call_need(self, interp, struct):
    rt = interp.rt
    c = interp.counters
    head = self.head
    if type(head) is TopRef:
        head = rt.top_table.get(head.name, UNSET)
        if head is UNSET:
            raise EvalError(f"{self.head.name} not defined", "undefined")
        c.lookups += 1
    else:
        head = head.ev(interp, struct)
    args = self.args
    if type(head) is not Closure:
        if type(head) is Thunk:
            head = interp._force(head)
        if type(head) is Primitive:
            if len(args) != head.arity:
                raise _arity_error(head, args)
            if head.lazy:
                # cons, which takes two arguments
                cb = struct.current_block
                return head.fn(interp, args[0].delay(interp, cb),
                               args[1].delay(interp, cb))
            vals = []
            for a in args:
                v = a.ev(interp, struct)
                if type(v) is Thunk:
                    v = interp._force(v)
                vals.append(v)
            return head.fn(interp, *vals)
        if type(head) is not Closure:
            raise EvalError(_NOT_A_FUNCTION, "type")
    interp.steps = steps = interp.steps + 1
    if steps > interp.step_limit:
        raise LimitExceeded("step")
    callee = head.struct
    cb = struct.current_block
    block = [None] * (len(args) + FIRST)
    block[OWNER] = callee
    block[PARENT] = head.block
    if interp.demanding and len(args) == len(callee.names):
        # the body would force the demand prefix before anything else,
        # in this order: evaluate those arguments here, and suspend the
        # rest (every parameter when the prefix is empty)
        demand, suspend = callee.demand, callee.suspend
    else:
        # a wrong argument count (new_block reports it) or prefixes off
        demand, suspend = (), range(len(args))
    c.thunks_elided += len(demand)
    for i in demand:
        v = args[i].ev(interp, struct)
        if type(v) is Thunk:
            v = interp._force(v)
        block[FIRST + i] = v
    for i in suspend:
        block[FIRST + i] = args[i].delay(interp, cb)
    log = rt.install(rt.new_block(block), self.parent_current)
    depth = interp.depth
    try:
        if depth >= interp.depth_limit:
            raise LimitExceeded("depth")
        interp.depth = depth + 1
        return callee.body.ev(interp, callee)
    finally:
        interp.depth = depth
        rt.restore(log)


# The primitive-shaped nodes, one ev per shape (analyzer.PrimApp). Past
# the guard, each does what its call shape does for the node's primitive,
# in the same order and with the same counts. The guard is one test,
# `prim.bound`: a name redefined (even to another primitive), or holding a
# thunk under need, clears it (defining it back to the primitive sets it),
# and the node evaluates as its strategy's call shape, in a second frame
# (deep.py), which reads the head again and reports as any application.
#
# A literal second operand is the value the analyzer stored (kb). A local
# operand whose slot is set is read in place from the cell the analyzer
# stored (ta, ia; tb, ib), with the count and forcing of _ev_local; a local
# first operand's lookup is counted with the head's, in one increment. A
# local first operand whose slot is unset (PrimLL's second one too, read
# with the first) sends the node to its call shape, which reads the head
# and the operands as any application and reports the unset read: that
# slot cannot change while the first operand is forced, as a cell is
# unset only while a strict let fills it or once nothing reads it again.
# PrimEL's unset second operand goes to the operand's own ev, which
# reports it as any read would and counts it once. Any other operand is
# evaluated by its ev.
# Against one ev for all shapes that tested each operand's type at every
# call, the shapes cut suite-value's CPU time by 11-16 % and suite-need's
# by 8-10 % (Python 3.11.7, 2-core host).

def _ev_prim_e(self, interp, struct):
    prim = self.prim
    if not prim.bound:
        return interp.analyzer.call.ev(self, interp, struct)
    interp.counters.lookups += 1
    a = self.a.ev(interp, struct)
    if type(a) is Thunk:
        a = interp._force(a)
    return prim.fn(interp, a)


def _ev_prim_l(self, interp, struct):
    prim = self.prim
    a = self.ta.current_block[self.ia]
    if a is UNSET or not prim.bound:
        return interp.analyzer.call.ev(self, interp, struct)
    interp.counters.lookups += 2
    if type(a) is Thunk:
        a = interp._force(a)
    return prim.fn(interp, a)


def _ev_prim_ee(self, interp, struct):
    prim = self.prim
    if not prim.bound:
        return interp.analyzer.call.ev(self, interp, struct)
    interp.counters.lookups += 1
    a = self.a.ev(interp, struct)
    if type(a) is Thunk:
        a = interp._force(a)
    b = self.b.ev(interp, struct)
    if type(b) is Thunk:
        b = interp._force(b)
    return prim.fn(interp, a, b)


def _ev_prim_ek(self, interp, struct):
    prim = self.prim
    if not prim.bound:
        return interp.analyzer.call.ev(self, interp, struct)
    interp.counters.lookups += 1
    a = self.a.ev(interp, struct)
    if type(a) is Thunk:
        a = interp._force(a)
    return prim.fn(interp, a, self.kb)


def _ev_prim_el(self, interp, struct):
    prim = self.prim
    if not prim.bound:
        return interp.analyzer.call.ev(self, interp, struct)
    c = interp.counters
    c.lookups += 1
    a = self.a.ev(interp, struct)
    if type(a) is Thunk:
        a = interp._force(a)
    b = self.tb.current_block[self.ib]
    if b is UNSET:
        b = self.b.ev(interp, struct)
    else:
        c.lookups += 1
        if type(b) is Thunk:
            b = interp._force(b)
    return prim.fn(interp, a, b)


def _ev_prim_lk(self, interp, struct):
    prim = self.prim
    a = self.ta.current_block[self.ia]
    if a is UNSET or not prim.bound:
        return interp.analyzer.call.ev(self, interp, struct)
    interp.counters.lookups += 2
    if type(a) is Thunk:
        a = interp._force(a)
    return prim.fn(interp, a, self.kb)


def _ev_prim_ll(self, interp, struct):
    prim = self.prim
    a = self.ta.current_block[self.ia]
    b = self.tb.current_block[self.ib]
    if a is UNSET or b is UNSET or not prim.bound:
        return interp.analyzer.call.ev(self, interp, struct)
    c = interp.counters
    c.lookups += 2
    if type(a) is Thunk:
        a = interp._force(a)
    c.lookups += 1
    if type(b) is Thunk:
        b = interp._force(b)
    return prim.fn(interp, a, b)


def _ev_let(self, interp, struct):
    L = self.struct
    rt = interp.rt
    n = len(self.bindings)
    block = rt.new_block([L, struct.current_block] + [UNSET] * n)
    # the block hangs from the running level's block, which is current
    log = rt.install(block, True)
    try:
        if interp.lazy:
            # bindings are passed as closure arguments are, top to bottom: a
            # local function is its closure, anything else goes through its
            # delay; a binding that reads a later sibling finds that slot
            # unset and stays a thunk
            for i, b in enumerate(self.bindings, FIRST):
                if type(b) is LambdaRef:
                    interp.counters.thunks_elided += 1
                    block[i] = Closure(b.struct, block)
                else:
                    block[i] = b.delay(interp, block)
        else:
            interp.counters.thunks_created += n
            # strict lets evaluate bindings top to bottom; reading a sibling
            # that has no value yet is an error (see LocalRef)
            for i, b in enumerate(self.bindings, FIRST):
                value = b.ev(interp, L)
                assert block[i] is UNSET  # slots are written exactly once
                block[i] = value
        return L.body.ev(interp, L)
    finally:
        rt.restore(log)


def _ev_excla(self, interp, struct):
    node = self.compiled
    if node is None:
        v = self.arg.ev(interp, struct)
        src = datum_to_source(v, interp.force1)
        # `struct` is the level of the excla site, so the text sees its scope
        node = interp.analyzer.analyze(src, struct)
        if type(self.arg) is QuoteForm:
            # constant text at a site whose scope and primitive arities are
            # fixed: its analysis is the same every time
            self.compiled = node
    return node.ev(interp, struct)


for _node, _ev in ((Lit, _ev_lit), (LocalRef, _ev_local), (TopRef, _ev_top),
                   (If, _ev_if), (IfL, _ev_if_l), (IfLK, _ev_if_lk),
                   (LambdaRef, _ev_lambda), (QuoteForm, _ev_quote),
                   (CallValue, _ev_call_value), (CallNeed, _ev_call_need),
                   (PrimE, _ev_prim_e), (PrimL, _ev_prim_l),
                   (PrimEE, _ev_prim_ee), (PrimEK, _ev_prim_ek),
                   (PrimEL, _ev_prim_el), (PrimLK, _ev_prim_lk),
                   (PrimLL, _ev_prim_ll), (LetForm, _ev_let),
                   (ExclaForm, _ev_excla)):
    _node.ev = _ev


# ---------------------------------------------------------------------------
# argument passing under need: each node's delay(interp, cb) is what a
# closure parameter or a cons component receives when the node is an
# argument evaluated in the environment whose block is `cb`

def _delay_thunk(self, interp, cb):
    interp.counters.thunks_created += 1
    return Thunk(self, cb)


def _delay_lit(self, interp, cb):
    # a literal is already a value: suspending it would only add a forcing
    interp.counters.thunks_elided += 1
    return self.value


def _delay_local(self, interp, cb):
    # a set slot holds a value or a thunk, and no later write can change
    # it; passing it on shares its memo. Under need a slot is still unset
    # only for a let binding that reads a later sibling (or itself): that
    # read is left to a thunk, forced once the let has filled every slot,
    # which reports a cycle as the read itself would.
    slot = self.target.current_block[self.index]
    if slot is not UNSET:
        c = interp.counters
        c.lookups += 1
        c.thunks_elided += 1
        return slot
    return _delay_thunk(self, interp, cb)


# Cheap eagerness: where a need run would suspend a primitive-shaped
# application (a closure argument, a cons component or a let binding), its
# `delay` applies it at once when the primitive is total on the operands
# (Primitive.total_on, set in builtins.make_primitives), each operand is a
# literal or a local whose slot holds a value or a forced thunk's memo, and
# the primitive is still bound to its name; otherwise, and on overflow, it
# makes the usual thunk. Such an application cannot fail, print or call a
# closure, and reads only values that exist already, so it yields what its
# forcing would have. What moves is depth: no forcing frame, and no chain of
# suspended sums behind an accumulator. The one other difference is late
# binding: a top-level definition of the primitive's name made after the
# application was computed no longer reaches it, as under value. It counts
# what its forcing would have: one elided suspension, the head lookup and
# one lookup per local operand.

def _computed(node, total_on):
    # an operand that needs no evaluation, when it has type `total_on`
    # (object: any type): a literal's value, or what a local's slot holds
    # once that is a value (a thunk's memo stays None until it is forced,
    # and is never a thunk); None otherwise
    t = type(node)
    if t is Lit:
        v = node.value
    elif t is LocalRef:
        v = node.target.current_block[node.index]
        if type(v) is Thunk:
            v = v.memo
        elif v is UNSET:
            return None
    else:
        return None
    if total_on is object or type(v) is total_on:
        return v
    return None


def _delay_prim(self, interp, cb):
    # cheap eagerness: a total primitive on operands already computed is
    # applied now (car and cdr still pass a component unforced); an
    # overflow is left to the thunk, whose forcing reports it
    prim = self.prim
    total_on = prim.total_on
    if total_on and prim.bound:
        a = _computed(self.a, total_on)
        if a is not None:
            try:
                if self.b is None:
                    v = prim.fn(interp, a)
                elif (b := _computed(self.b, total_on)) is not None:
                    v = prim.fn(interp, a, b)
                else:
                    return _delay_thunk(self, interp, cb)
            except EvalError:
                return _delay_thunk(self, interp, cb)
            # the counts of the forcing this replaces: one elided
            # suspension, the head lookup and one lookup per local operand
            c = interp.counters
            c.thunks_elided += 1
            c.lookups += (1 + (type(self.a) is LocalRef)
                          + (type(self.b) is LocalRef))
            return v
    return _delay_thunk(self, interp, cb)


# a top-level reference stays suspended: it is late-bound, and its name may
# be defined only after the suspension is made
for _node in (TopRef, If, LambdaRef, QuoteForm, App, LetForm, ExclaForm):
    _node.delay = _delay_thunk
Lit.delay = _delay_lit
LocalRef.delay = _delay_local
PrimApp.delay = _delay_prim


Outcome = namedtuple("Outcome", "kind payload output")
# kind "value": payload = tuple of rendered top-level results
# kind "limit": payload = "step" | "depth"
# kind "error": payload = (category, message)
# kind "crash": payload = "Type: message" of a Python exception (a defect)


def run_with_limit(text, strategy, step_limit, depth_limit=100_000,
                   engine=Interpreter):
    """Evaluate a whole program under a step budget; every way evaluating
    `text` ends comes back as an Outcome: divergence as "limit" instead of
    a hang, and any Exception escaping the interpreter as "crash" instead
    of a traceback. A non-positive step limit raises ValueError, and
    KeyboardInterrupt and other non-Exception interrupts propagate.
    `engine` is the interpreter class (the oracle's differential side
    passes its own)."""
    if step_limit <= 0:
        raise ValueError("step limit must be positive")
    out = io.StringIO()
    interp = engine(strategy=strategy, step_limit=step_limit,
                    depth_limit=depth_limit, out=out)
    try:
        rendered = interp.eval_source_rendered(text)
        return Outcome("value", tuple(rendered), out.getvalue())
    except LimitExceeded as e:
        return Outcome("limit", e.kind, out.getvalue())
    except LambdixError as e:
        return Outcome("error", (e.category, e.message), out.getvalue())
    except Exception as e:
        return Outcome("crash", f"{type(e).__name__}: {e}", out.getvalue())
