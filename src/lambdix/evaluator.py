"""The block-model evaluator.

One Interpreter instance owns a top-level table, the runtime environment
state, and the analysis registry, and evaluates under exactly one strategy:

  value - arguments, cons components, let bindings and top-level definitions
          are computed eagerly;
  need  - all of those are suspended as memoized thunks, forced at most once,
          with strict primitives still strict.

A "step" is one application of a closure; step and depth limits turn
divergence into a reported outcome rather than a hang.
"""

import io
import sys
from collections import namedtuple

from .analyzer import (Analyzer, App, ExclaForm, If, LambdaRef, LambdaStruct,
                       LetForm, Lit, LocalRef, QuoteForm, TopRef, is_de_form,
                       parse_de)
from .builtins import make_primitives
from .deep import call_with_deep_stack
from .errors import EvalError, LambdixError, LimitExceeded
from .reader import read_program
from .runtime import UNSET, Counters, Runtime
from .values import (TH_BUSY, TH_DONE, TH_NEW, Closure, Primitive, Sym,
                     Thunk, datum_to_source, quote_datum, render)

UNLIMITED = 1 << 62

STRATEGIES = ("value", "need")


class Interpreter:
    def __init__(self, strategy="need", step_limit=None, depth_limit=100_000,
                 print_items=100, print_nesting=20, out=None,
                 debug_checks=False):
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        self.strategy = strategy
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
        top = LambdaStruct(0, "top", (), (), None)
        self.top_struct = top
        self.structs.append(top)
        self.rt = Runtime(top, self.counters, self.structs, debug_checks)
        self.analyzer = Analyzer(top, self.structs)
        self.rt.top_table.update(make_primitives())

    # -- public API (deep-stack entry points) --------------------------------

    def eval_source(self, text):
        """Evaluate every top-level form; returns their values in order."""
        return call_with_deep_stack(
            lambda: [self._eval_top_form(sx) for sx in read_program(text)])

    def eval_source_rendered(self, text):
        """Evaluate every top-level form; returns rendered results."""
        return call_with_deep_stack(
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
        compiled = self.analyzer.analyze(sx, None)
        return self._eval(compiled, self.top_struct)

    def _eval_top_de(self, sx):
        de = parse_de(sx)
        if de[0] == "func":
            _, name, params, body = de
            struct = self.analyzer.make_lambda_struct(name, params, body, None)
            self.rt.top_table[name] = Closure(struct, self.rt.top_block)
            return Sym(name)
        _, name, expr_sx = de
        compiled = self.analyzer.analyze(expr_sx, None)
        self.counters.thunks_created += 1
        if self.lazy:
            slot = Thunk(compiled, self.rt.top_block)
        else:
            slot = self._eval(compiled, self.top_struct)
        self.rt.top_table[name] = slot
        return slot

    # -- core evaluation ------------------------------------------------------

    def _eval(self, x, struct):
        rt = self.rt
        while True:
            t = type(x)
            if t is LocalRef:
                slot = rt.lookup(x.hops, x.offset, struct)
                if type(slot) is Thunk:
                    return self._force(slot)
                if slot is UNSET:
                    raise EvalError(f"{x.name} is used before its definition",
                                    "undefined")
                return slot
            if t is App:
                head = self._eval(x.head, struct)
                if type(head) is Thunk:
                    head = self._force(head)
                return self._apply(head, x.args, struct)
            if t is If:
                test = self._eval(x.test, struct)
                if type(test) is Thunk:
                    test = self._force(test)
                if type(test) is not bool:
                    raise EvalError("if: test must be a boolean", "type")
                x = x.then if test else x.orelse
                continue
            if t is Lit:
                return x.value
            if t is TopRef:
                slot = rt.top_table.get(x.name, UNSET)
                if slot is UNSET:
                    raise EvalError(f"{x.name} not defined", "undefined")
                self.counters.lookups += 1
                if type(slot) is Thunk:
                    return self._force(slot)
                return slot
            if t is LambdaRef:
                # the defining environment is the current block of the
                # struct's lexical parent, i.e. of the enclosing level
                return Closure(x.struct, struct.current_block)
            if t is QuoteForm:
                datum = x.datum
                if datum is None:
                    datum = x.datum = quote_datum(x.sexpr)
                return datum
            if t is LetForm:
                return self._eval_let(x, struct)
            if t is ExclaForm:
                return self._eval_excla(x, struct)
            raise EvalError(f"internal: unknown expression node {x!r}",
                            "internal")

    def _apply(self, head, arg_exprs, struct):
        t = type(head)
        if t is Closure:
            self.steps += 1
            if self.steps > self.step_limit:
                raise LimitExceeded("step")
            callee = head.struct
            self.counters.thunks_created += len(arg_exprs)
            if self.lazy:
                cb = struct.current_block
                args = [Thunk(a, cb) for a in arg_exprs]
            else:
                args = [self._eval(a, struct) for a in arg_exprs]
            block = self.rt.new_block(callee, args, head.block)
            log = self.rt.install(callee, block)
            self.depth += 1
            if self.depth > self.depth_limit:
                self.depth -= 1
                self.rt.restore(log)
                raise LimitExceeded("depth")
            try:
                return self._eval(callee.body, callee)
            finally:
                self.depth -= 1
                self.rt.restore(log)
        if t is Primitive:
            if len(arg_exprs) != head.arity:
                raise EvalError(
                    f"{head.name}: expected {head.arity} argument(s), "
                    f"got {len(arg_exprs)}", "arity")
            if head.lazy and self.lazy:
                cb = struct.current_block
                args = [Thunk(a, cb) for a in arg_exprs]
                self.counters.thunks_created += len(arg_exprs)
            else:
                args = []
                for a in arg_exprs:
                    v = self._eval(a, struct)
                    if type(v) is Thunk:
                        v = self._force(v)
                    args.append(v)
                if head.lazy:
                    # strict strategy still counts the positions a lazy run
                    # would suspend, for like-for-like cost comparisons
                    self.counters.thunks_created += len(arg_exprs)
            return head.fn(self, args)
        raise EvalError("cannot apply a value that is not a function", "type")

    def _eval_let(self, x, struct):
        L = x.struct
        block = self.rt.new_block(L, (), struct.current_block)
        slots = block.slots
        self.counters.thunks_created += len(x.bindings)
        if self.lazy:
            for i, b in enumerate(x.bindings):
                slots[i] = Thunk(b, block)
            log = self.rt.install(L, block)
            try:
                return self._eval(L.body, L)
            finally:
                self.rt.restore(log)
        log = self.rt.install(L, block)
        try:
            # strict lets evaluate bindings top to bottom; reading a sibling
            # that has no value yet is an error (see LocalRef)
            for i, b in enumerate(x.bindings):
                value = self._eval(b, L)
                assert slots[i] is UNSET  # slots are written exactly once
                slots[i] = value
            return self._eval(L.body, L)
        finally:
            self.rt.restore(log)

    def _eval_excla(self, x, struct):
        v = self._eval(x.arg, struct)
        src = datum_to_source(v, self.force1)
        compiled = self.analyzer.analyze(src, x.frame)
        return self._eval(compiled, struct)

    # -- forcing ---------------------------------------------------------------

    def _force(self, th):
        while True:
            state = th.state
            if state == TH_DONE:
                v = th.memo
            elif state == TH_BUSY:
                raise EvalError("cyclic definition: a value depends on itself",
                                "cyclic")
            else:
                th.state = TH_BUSY
                self.depth += 1
                if self.depth > self.depth_limit:
                    self.depth -= 1
                    th.state = TH_NEW
                    raise LimitExceeded("depth")
                try:
                    owner = th.block.owner
                    log = self.rt.install(owner, th.block)
                    try:
                        v = self._eval(th.expr, owner)
                    finally:
                        self.rt.restore(log)
                except BaseException:
                    # un-blackhole so a later retry reports the same error
                    # instead of a bogus cycle
                    th.state = TH_NEW
                    raise
                finally:
                    self.depth -= 1
                # counted on completed evaluations only, so forced never
                # exceeds created even across retries after errors
                self.counters.thunks_forced += 1
                th.memo = v
                th.state = TH_DONE
            if type(v) is Thunk:
                th = v
                continue
            return v

    def force1(self, v):
        """Force to weak head normal form; identity on plain values."""
        if type(v) is Thunk:
            return self._force(v)
        return v


Outcome = namedtuple("Outcome", "kind payload output")
# kind "value": payload = tuple of rendered top-level results
# kind "limit": payload = "step" | "depth"
# kind "error": payload = (category, message)


def run_with_limit(text, strategy, step_limit, depth_limit=100_000,
                   print_items=100, print_nesting=20):
    """Evaluate a whole program under a step budget; divergence comes back
    as a distinct outcome instead of a hang."""
    if step_limit <= 0:
        raise ValueError("step limit must be positive")
    out = io.StringIO()
    interp = Interpreter(strategy=strategy, step_limit=step_limit,
                         depth_limit=depth_limit, print_items=print_items,
                         print_nesting=print_nesting, out=out)
    try:
        rendered = interp.eval_source_rendered(text)
        return Outcome("value", tuple(rendered), out.getvalue())
    except LimitExceeded as e:
        return Outcome("limit", e.kind, out.getvalue())
    except LambdixError as e:
        return Outcome("error", (e.category, e.message), out.getvalue())
