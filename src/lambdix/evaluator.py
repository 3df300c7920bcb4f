"""The block-model evaluator.

One Interpreter instance owns a top-level table and the runtime environment
state, and evaluates under exactly one strategy:

  value - arguments, cons components, let bindings and top-level definitions
          are computed eagerly;
  need  - all of those are suspended as memoized thunks, forced at most once,
          with strict primitives still strict; a literal or local argument
          is passed on as it is, and a total primitive on operands already
          computed is applied (see the `delay` methods).

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
strict primitive's name turns prefixes off for the interpreter, since they
assume that name still names the primitive.

Cheap eagerness: where a need run would suspend a primitive-shaped
application (a closure argument or a cons component), its `delay` applies
it at once when the primitive is total on the operands (car and cdr of a
pair, nullist and atom of any value, + - * < <= > >= = of two integers),
each operand is a literal or a local whose slot holds a value or a forced
thunk's memo, and the name still holds the node's primitive; otherwise,
and on overflow, it makes the usual thunk. Such an application cannot
fail, print or call a closure, and reads only values that exist already,
so it yields what its forcing would have. What moves is depth: no
forcing frame, and no chain of suspended sums behind an accumulator. The
one other difference is late binding: a top-level definition of the
primitive's name made after the application was computed no longer
reaches it, as under value. It counts what its forcing would have: one
elided suspension, the head lookup and one lookup per local operand.

Each analyzed node class has one `ev(interp, struct)` method, defined at
the end of this module; `struct` is the level whose environment the node
runs in. There is no compile pass, so a one-shot REPL form costs no more
than its analysis. A local read is one cell of the owner's current block
vector (runtime.py). A closure call builds its callee's vector, header
and arguments, in one list, and a let builds its own, header and unset
cells, the same way.

A call of a primitive's name with that primitive's arity is a
primitive-shaped node (analyzer.PrimApp) with its own short `ev` and
`delay`, bound to this interpreter's primitive of that name. It runs the
primitive while the name still holds that very primitive, which needs no
test while `demanding` is on (no top-level definition has rebound a
primitive's name yet) and one read of the top-level table after; otherwise
(a closure, a thunk, any other primitive) it evaluates as the general
application (`_ev_app`) it also is, so late binding, error messages and
counts stay those of any application. Its literal and local operands are
read in place, without an `ev` call.

Forcing (`_force`) answers a forced thunk from its memo first thing. Any
other forcing is one loop: it puts each thunk it takes on a path before
blackholing it, follows an expression that yields another thunk (car and
cdr return components unforced) to the value the chain ends in, and
memoizes that value on every thunk of the path. Its one handler undoes it
from saved state, wherever an error or a Ctrl-C lands: the depth goes back
to its value on entry, and every thunk on the path still busy is new again
with no memo. An application undoes its depth and its install in one
`finally` the same way. car, cdr and cadr cut forced components out of the
pairs they read (builtins.py), so a list does not keep its used-up thunks
alive. Local slots are not rewritten the same way: later reads of a
rewritten slot skip `_force`, so the `_force` calls could fall below the
forcings (one call memoizes a whole chain), which would break the
benchmark tracer's check that every forcing is seen in a `_force` call.

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

from .analyzer import (Analyzer, App, ExclaForm, If, LambdaRef, LambdaStruct,
                       LetForm, Lit, LocalRef, PrimApp, QuoteForm, TopRef,
                       is_de_form, parse_de)
from .builtins import make_primitives
from .deep import call_on_reserved_stack, call_with_deep_stack
from .errors import EvalError, LambdixError, LimitExceeded
from .reader import read_program
from .runtime import FIRST, OWNER, PARENT, UNSET, Counters, Runtime
from .values import (TH_BUSY, TH_DONE, TH_NEW, Closure, Pair, Primitive,
                     Sym, Thunk, datum_to_source, quote_datum, render)

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
        prims = make_primitives()
        self.rt.top_table.update(prims)
        self.analyzer = Analyzer(self.structs, prims, not self.lazy)
        # demand prefixes assume that a strict primitive's name still names
        # it; a top-level definition of such a name turns them off
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
        de = parse_de(sx)
        if type(self.rt.top_table.get(de[1])) is Primitive:
            self.demanding = False
        if de[0] == "func":
            _, name, params, body = de
            struct = self.analyzer.make_lambda_struct(name, params, body,
                                                      self.top_struct)
            self.rt.top_table[name] = Closure(struct, self.rt.top_block)
            return Sym(name)
        _, name, expr_sx = de
        compiled = self.analyzer.analyze(expr_sx, self.top_struct)
        self.counters.thunks_created += 1
        if self.lazy:
            slot = Thunk(compiled, self.rt.top_block)
        else:
            slot = compiled.ev(self, self.top_struct)
        self.rt.top_table[name] = slot
        return slot

    # -- forcing ---------------------------------------------------------------

    def _force(self, th):
        # Each thunk taken stays busy on `path` until the chain reaches a
        # value; then every thunk on it memoizes that value, so a memo is
        # never a thunk and a chain is walked once. A busy thunk met on the
        # way is a cycle.
        if th.state == TH_DONE:
            return th.memo
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
    block = self.target.current_block
    if block is None:
        raise EvalError(f"internal: environment of {self.target.name} not "
                        "installed", "internal")
    interp.counters.lookups += 1
    slot = block[self.index]
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


def _ev_lambda(self, interp, struct):
    # the defining environment is the current block of the struct's
    # lexical parent, i.e. of the enclosing level
    return Closure(self.struct, struct.current_block)


def _ev_quote(self, interp, struct):
    datum = self.datum
    if datum is None:
        datum = self.datum = quote_datum(self.sexpr)
    return datum


def _ev_app(self, interp, struct):
    head = self.head
    if type(head) is TopRef:
        # a global head (a top-level function, a primitive call of the
        # wrong arity, or a PrimApp whose guard failed) is read here as
        # _ev_top would, without a frame of its own; still read at every
        # call, so a later definition of the name takes effect
        head = interp.rt.top_table.get(head.name, UNSET)
        if head is UNSET:
            raise EvalError(f"{self.head.name} not defined", "undefined")
        interp.counters.lookups += 1
    else:
        head = head.ev(interp, struct)
    if type(head) is Thunk:
        head = interp._force(head)
    args = self.args
    t = type(head)
    if t is Primitive:
        # a primitive reached as a value, or called with the wrong arity;
        # the one lazy primitive, cons, takes two arguments
        if len(args) != head.arity:
            raise EvalError(f"{head.name}: expected {head.arity} "
                            f"argument(s), got {len(args)}", "arity")
        if head.lazy and interp.lazy:
            cb = struct.current_block
            return head.fn(interp, args[0].delay(interp, cb),
                           args[1].delay(interp, cb))
        vals = []
        for a in args:
            v = a.ev(interp, struct)
            if type(v) is Thunk:
                v = interp._force(v)
            vals.append(v)
        if head.lazy:
            # a strict run still counts the positions a lazy run would
            # suspend, for like-for-like cost comparisons
            interp.counters.thunks_created += 2
        return head.fn(interp, *vals)
    if t is not Closure:
        raise EvalError("cannot apply a value that is not a function", "type")
    interp.steps += 1
    if interp.steps > interp.step_limit:
        raise LimitExceeded("step")
    callee = head.struct
    # the callee's block vector is built here in one allocation, header
    # cells first (runtime.OWNER, PARENT), then one cell per argument
    if interp.lazy:
        cb = struct.current_block
        block = [None] * (len(args) + FIRST)
        block[OWNER] = callee
        block[PARENT] = head.block
        if interp.demanding and len(args) == len(callee.names):
            # the body would force the demand prefix before anything else,
            # in this order: evaluate those arguments here, and suspend the
            # rest (every parameter when the prefix is empty)
            demand = callee.demand
            interp.counters.thunks_elided += len(demand)
            for i in demand:
                v = args[i].ev(interp, struct)
                if type(v) is Thunk:
                    v = interp._force(v)
                block[FIRST + i] = v
            for i in callee.suspend:
                block[FIRST + i] = args[i].delay(interp, cb)
        else:
            # a wrong argument count (new_block reports it) or prefixes off
            for i, a in enumerate(args, FIRST):
                block[i] = a.delay(interp, cb)
    else:
        # a strict run counts every position a lazy run delays; arities 1-3
        # are spelled out, as a loop or a comprehension costs more than a
        # list display
        n = len(args)
        interp.counters.thunks_created += n
        if n == 1:
            block = [callee, head.block, args[0].ev(interp, struct)]
        elif n == 2:
            block = [callee, head.block, args[0].ev(interp, struct),
                     args[1].ev(interp, struct)]
        elif n == 3:
            block = [callee, head.block, args[0].ev(interp, struct),
                     args[1].ev(interp, struct), args[2].ev(interp, struct)]
        else:
            block = [None] * (n + FIRST)
            block[OWNER] = callee
            block[PARENT] = head.block
            for i, a in enumerate(args, FIRST):
                block[i] = a.ev(interp, struct)
        dead = self.dead
        if dead:
            # safe for space: the cells this application read last are
            # cleared before the callee runs (analyzer.trim_dead)
            cb = struct.current_block
            for i in dead:
                cb[i] = UNSET
    rt = interp.rt
    log = rt.install(rt.new_block(block))
    depth = interp.depth
    try:
        if depth >= interp.depth_limit:
            raise LimitExceeded("depth")
        interp.depth = depth + 1
        return callee.body.ev(interp, callee)
    finally:
        interp.depth = depth
        rt.restore(log)


# Past the guard, _ev_prim does what _ev_app does for the node's
# primitive, in the same order and with the same counts. A name redefined
# (even to another primitive), or holding a thunk under need, fails the
# guard, and the node evaluates as the App it is, which reads the head
# again and reports as any application. The table is read only once
# `demanding` is off: until a top-level definition rebinds a primitive's
# name, every such name still holds this interpreter's primitive.
#
# A literal operand gives its value, and a local operand whose slot is set
# is read in place with the count and forcing of _ev_local; an unset slot or
# an environment not installed goes to the operand's own ev, which reports
# it as any read would and counts it once. Any other operand is evaluated.

def _ev_prim(self, interp, struct):
    head = self.prim
    if not interp.demanding and interp.rt.top_table.get(head.name) is not head:
        return _ev_app(self, interp, struct)
    c = interp.counters
    c.lookups += 1
    if head.lazy and interp.lazy:
        cb = struct.current_block
        return head.fn(interp, self.a.delay(interp, cb),
                       self.b.delay(interp, cb))
    node = self.a
    t = type(node)
    if t is Lit:
        a = node.value
    else:
        if (t is LocalRef and (blk := node.target.current_block) is not None
                and (a := blk[node.index]) is not UNSET):
            c.lookups += 1
        else:
            a = node.ev(interp, struct)
        if type(a) is Thunk:
            a = interp._force(a)
    node = self.b
    if node is None:
        return head.fn(interp, a)
    t = type(node)
    if t is Lit:
        b = node.value
    else:
        if (t is LocalRef and (blk := node.target.current_block) is not None
                and (b := blk[node.index]) is not UNSET):
            c.lookups += 1
        else:
            b = node.ev(interp, struct)
        if type(b) is Thunk:
            b = interp._force(b)
    if head.lazy:
        # as in _ev_app: a strict run counts the positions a lazy run
        # would suspend
        c.thunks_created += 2
    return head.fn(interp, a, b)


def _ev_let(self, interp, struct):
    L = self.struct
    rt = interp.rt
    n = len(self.bindings)
    block = rt.new_block([L, struct.current_block] + [UNSET] * n)
    interp.counters.thunks_created += n
    log = rt.install(block)
    try:
        if interp.lazy:
            for i, b in enumerate(self.bindings, FIRST):
                block[i] = Thunk(b, block)
        else:
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
                   (If, _ev_if), (LambdaRef, _ev_lambda), (QuoteForm, _ev_quote),
                   (App, _ev_app), (PrimApp, _ev_prim), (LetForm, _ev_let),
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
    # the slot already holds a value or a thunk, and no later write can
    # change it; passing it on shares its memo. Under need a let fills its
    # slots with thunks before its scope runs, so an empty slot or an
    # uninstalled environment would be an internal fault: it is left to a
    # thunk, whose forcing reports it as the read itself would.
    block = self.target.current_block
    if block is not None:
        slot = block[self.index]
        if slot is not UNSET:
            c = interp.counters
            c.lookups += 1
            c.thunks_elided += 1
            return slot
    return _delay_thunk(self, interp, cb)


# primitive name -> the operand type on which it is total (None: any value)
_CHEAP = {"car": Pair, "cdr": Pair, "nullist": None, "atom": None,
          "+": int, "-": int, "*": int, "<": int, "<=": int, ">": int,
          ">=": int, "=": int}


def _computed(node, total_on):
    # an operand that needs no evaluation, when it has type `total_on`
    # (None: any type): a literal's value, or what a local's slot holds
    # once that is a value (a thunk's memo stays None until it is forced,
    # and is never a thunk); None otherwise
    t = type(node)
    if t is Lit:
        v = node.value
    elif t is LocalRef and (block := node.target.current_block) is not None:
        v = block[node.index]
        if type(v) is Thunk:
            v = v.memo
        elif v is UNSET:
            return None
    else:
        return None
    if total_on is None or type(v) is total_on:
        return v
    return None


def _delay_prim(self, interp, cb):
    # cheap eagerness: a total primitive on operands already computed is
    # applied now (car and cdr still pass a component unforced); an
    # overflow is left to the thunk, whose forcing reports it
    prim = self.prim
    name = prim.name
    if name in _CHEAP and (interp.demanding
                           or interp.rt.top_table.get(name) is prim):
        total_on = _CHEAP[name]
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


def run_with_limit(text, strategy, step_limit, depth_limit=100_000,
                   engine=Interpreter):
    """Evaluate a whole program under a step budget; divergence comes back
    as a distinct outcome instead of a hang. `engine` is the interpreter
    class (the oracle's differential side passes its own)."""
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
