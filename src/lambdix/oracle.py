"""Reference interpreter and differential testing support.

The reference interpreter is deliberately naive and obviously correct:
environments are chains of name-to-slot frames, closures capture the whole
chain, and call-by-need uses memoized suspensions over raw source
expressions. No blocks, no dynamic links, no analysis pass - so a bug in the
main interpreter's analyzer or environment machinery shows up as a
divergence. It shares the reader and the value representation with the main
interpreter, nothing else.

Under need it applies the same suspension rule, written separately
(Oracle.suspend): a literal argument is its value, a symbol bound in a
local frame passes what its slot holds, and a total primitive on operands
already computed is applied (cheap eagerness); anything else is suspended.
The rule moves only depth (and what a later redefinition of a primitive's
name reaches), so with it both interpreters finish an accumulator loop
that would otherwise build a chain of thunks as deep as the loop.

Also here: a seeded random program generator (closed terms over the builtin
vocabulary) and the differential runner that compares printed forms and
error categories between the two interpreters.
"""

import random
import sys
from collections import namedtuple

from .deep import call_on_reserved_stack, call_with_deep_stack
from .errors import AnalysisError, EvalError, LimitExceeded
from .evaluator import UNLIMITED, run_with_limit
from .reader import INT_MAX, INT_MIN, SEmbed, SList, SNum, SStr, SSym, read_program
from .values import (TH_BUSY, TH_DONE, TH_NEW, EMPTY, Closure, EmptyList,
                     Pair, Primitive, Sym, Thunk, datum_to_source,
                     quote_datum, render, structural_eq)

_SPECIAL = frozenset(("lambda", "if", "let", "quote", "excla", "de", "define"))
_DE = ("de", "define")
_LATER = object()


class OFrame:
    __slots__ = ("vars", "parent")

    def __init__(self, vars_, parent):
        self.vars = vars_
        self.parent = parent


class OLambda:
    """Stands in the struct slot of a shared Closure record: just enough for
    the printer and for application."""

    __slots__ = ("name", "params", "body")

    def __init__(self, name, params, body):
        self.name = name
        self.params = params
        self.body = body


def _prims():
    specs = [("+", 2), ("-", 2), ("*", 2), ("/", 2), ("mod", 2),
             ("<", 2), ("<=", 2), (">", 2), (">=", 2), ("=", 2),
             ("cons", 2, True), ("car", 1), ("cdr", 1), ("cadr", 1),
             ("nullist", 1), ("atom", 1), ("print", 1)]
    table = {}
    for spec in specs:
        name, arity = spec[0], spec[1]
        lazy = len(spec) > 2
        table[name] = Primitive(name, arity, None, lazy=lazy)
    return table


def _n(v, op):
    if type(v) is not int:
        raise EvalError(f"{op}: expected a number", "type")
    return v


def _ofit(r):
    if r < INT_MIN or r > INT_MAX:
        raise EvalError("arithmetic overflow", "arith")
    return r


def _otrunc(a, b, op):
    # truncated quotient via floor division corrected toward zero
    if b == 0:
        raise EvalError(f"{op}: division by zero", "arith")
    q, r = divmod(a, b)
    if r != 0 and q < 0:
        q += 1
    return q


class Oracle:
    def __init__(self, strategy="need", step_limit=None, depth_limit=100_000,
                 print_items=100, print_nesting=20, out=None):
        self.lazy = strategy == "need"
        self.step_limit = UNLIMITED if step_limit is None else step_limit
        self.depth_limit = depth_limit
        self.print_items = print_items
        self.print_nesting = print_nesting
        self.out = out if out is not None else sys.stdout
        self.steps = 0
        self.depth = 0
        self.top = _prims()

    # -- driver ---------------------------------------------------------------

    def eval_source(self, text):
        return [self.eval_top(sx) for sx in read_program(text)]

    def eval_source_rendered(self, text):
        return call_with_deep_stack(
            call_on_reserved_stack,
            lambda: [self.render_value(self.eval_top(sx))
                     for sx in read_program(text)])

    def render_value(self, v):
        return render(v, self.whnf, self.print_items, self.print_nesting)

    def eval_top(self, sx):
        de = self._parse_de(sx)
        if de is None:
            return self.eval(sx, None)
        if de[0] == "func":
            _, name, params, body = de
            self.top[name] = Closure(OLambda(name, params, body), None)
            return Sym(name)
        _, name, expr = de
        if self.lazy:
            slot = Thunk(expr, None)
        else:
            slot = self.eval(expr, None)
        self.top[name] = slot
        return slot

    # -- structural form parsing (independent of the analyzer) ----------------

    def _parse_de(self, sx):
        if not (type(sx) is SList and sx.items
                and type(sx.items[0]) is SSym and sx.items[0].name in _DE):
            return None
        items = sx.items
        if len(items) != 3:
            raise AnalysisError("de: name and one defining expression expected")
        target = items[1]
        if type(target) is SSym:
            return "value", target.name, items[2]
        if type(target) is SList and target.items and type(target.items[0]) is SSym:
            params = self._params(SList(target.items[1:]))
            return "func", target.items[0].name, params, items[2]
        raise AnalysisError("de: name must be a symbol")

    def _params(self, sx):
        if type(sx) is not SList:
            raise AnalysisError("parameter list expected")
        names = []
        for p in sx.items:
            if type(p) is not SSym:
                raise AnalysisError("parameter must be a symbol")
            if p.name in names:
                raise AnalysisError(f"duplicate parameter {p.name}")
            names.append(p.name)
        return tuple(names)

    # -- evaluation -----------------------------------------------------------

    def lookup(self, name, env):
        v = self._local(name, env)
        if v is None:
            if name in self.top:
                return self.top[name]
            raise EvalError(f"{name} not defined", "undefined")
        if v is _LATER:
            raise EvalError(f"{name} is used before its definition",
                            "undefined")
        return v

    def eval(self, sx, env):
        t = type(sx)
        if t is SNum:
            return sx.value
        if t is SStr:
            return sx.text
        if t is SEmbed:
            return sx.value
        if t is SSym:
            slot = self.lookup(sx.name, env)
            if type(slot) is Thunk:
                return self.force(slot)
            return slot
        if t is SList:
            items = sx.items
            if not items:
                return EMPTY
            head = items[0]
            if (type(head) is SSym and head.name in _SPECIAL
                    and self._local(head.name, env) is None):
                return self._special(head.name, sx, env)
            f = self.eval(head, env)
            if type(f) is Thunk:
                f = self.force(f)
            return self.apply(f, items[1:], env)
        raise AnalysisError(f"cannot evaluate {sx!r}")

    def _special(self, name, sx, env):
        items = sx.items
        if name == "lambda":
            if len(items) != 3:
                raise AnalysisError("lambda: parameter list and one body expression expected")
            return Closure(OLambda("lambda", self._params(items[1]), items[2]), env)
        if name == "if":
            if len(items) != 4:
                raise AnalysisError("if: exactly three arguments expected")
            test = self.eval(items[1], env)
            if type(test) is Thunk:
                test = self.force(test)
            if type(test) is not bool:
                raise EvalError("if: test must be a boolean", "type")
            return self.eval(items[2] if test else items[3], env)
        if name == "let":
            if len(items) != 3:
                raise AnalysisError("let: binding list and one body expression expected")
            return self._let(items[1], items[2], env)
        if name == "quote":
            if len(items) != 2:
                raise AnalysisError("quote: exactly one argument expected")
            return quote_datum(items[1])
        if name == "excla":
            if len(items) != 2:
                raise AnalysisError("excla: exactly one argument expected")
            v = self.eval(items[1], env)
            src = datum_to_source(v, self.whnf)
            return self.eval(src, env)
        raise AnalysisError("de is only allowed at top level or as a let binding")

    def _let(self, bindings_sx, body, env):
        if type(bindings_sx) is not SList:
            raise AnalysisError("let: binding list expected")
        parsed = []  # (name, "func", params, body) | (name, "value", expr)
        for b in bindings_sx.items:
            de = self._parse_de(b) if type(b) is SList else None
            if de is not None:
                parsed.append(de if de[0] == "func"
                              else ("value", de[1], de[2]))
            elif (type(b) is SList and len(b.items) == 2
                    and type(b.items[0]) is SSym):
                parsed.append(("value", b.items[0].name, b.items[1]))
            else:
                raise AnalysisError("let: malformed binding")
        names = [p[1] for p in parsed]
        if len(set(names)) != len(names):
            raise AnalysisError("let: duplicate local name")
        frame = OFrame({}, env)
        if self.lazy:
            # every name sees every binding: suspensions close over the frame
            for p in parsed:
                if p[0] == "func":
                    frame.vars[p[1]] = Closure(OLambda(p[1], p[2], p[3]), frame)
                else:
                    frame.vars[p[1]] = Thunk(p[2], frame)
        else:
            for name in names:
                frame.vars[name] = _LATER
            # strict lets bind top to bottom; a local function becomes
            # visible at its own position, like any other binding
            for p in parsed:
                if p[0] == "func":
                    frame.vars[p[1]] = Closure(OLambda(p[1], p[2], p[3]), frame)
                else:
                    frame.vars[p[1]] = self.eval(p[2], frame)
        return self.eval(body, frame)

    def apply(self, f, arg_sxs, env):
        t = type(f)
        if t is Closure:
            self.steps += 1
            if self.steps > self.step_limit:
                raise LimitExceeded("step")
            lam = f.struct
            if self.lazy:
                args = [self.suspend(a, env) for a in arg_sxs]
            else:
                args = [self.eval(a, env) for a in arg_sxs]
            if len(args) != len(lam.params):
                raise EvalError(
                    f"{lam.name}: expected {len(lam.params)} argument(s), "
                    f"got {len(args)}", "arity")
            frame = OFrame(dict(zip(lam.params, args)), f.block)
            self.depth += 1
            if self.depth > self.depth_limit:
                self.depth -= 1
                raise LimitExceeded("depth")
            try:
                return self.eval(lam.body, frame)
            finally:
                self.depth -= 1
        if t is Primitive:
            if len(arg_sxs) != f.arity:
                raise EvalError(
                    f"{f.name}: expected {f.arity} argument(s), got "
                    f"{len(arg_sxs)}", "arity")
            if f.lazy and self.lazy:
                args = [self.suspend(a, env) for a in arg_sxs]
            else:
                args = [self.whnf(self.eval(a, env)) for a in arg_sxs]
            return self._prim(f.name, args)
        raise EvalError("cannot apply a value that is not a function", "type")

    def _prim(self, name, a):
        if name == "+":
            return _ofit(_n(a[0], "+") + _n(a[1], "+"))
        if name == "-":
            return _ofit(_n(a[0], "-") - _n(a[1], "-"))
        if name == "*":
            return _ofit(_n(a[0], "*") * _n(a[1], "*"))
        if name == "/":
            return _ofit(_otrunc(_n(a[0], "/"), _n(a[1], "/"), "/"))
        if name == "mod":
            x, y = _n(a[0], "mod"), _n(a[1], "mod")
            return _ofit(x - y * _otrunc(x, y, "mod"))
        if name == "<":
            return _n(a[0], "<") < _n(a[1], "<")
        if name == "<=":
            return _n(a[0], "<=") <= _n(a[1], "<=")
        if name == ">":
            return _n(a[0], ">") > _n(a[1], ">")
        if name == ">=":
            return _n(a[0], ">=") >= _n(a[1], ">=")
        if name == "=":
            return structural_eq(a[0], a[1], self.whnf)
        if name == "cons":
            return Pair(a[0], a[1])
        if name == "car":
            return self._pair(a[0], "car").head
        if name == "cdr":
            return self._pair(a[0], "cdr").tail
        if name == "cadr":
            return self._pair(self.whnf(self._pair(a[0], "cadr").tail), "cadr").head
        if name == "nullist":
            return type(a[0]) is EmptyList
        if name == "atom":
            return type(a[0]) is not Pair
        if name == "print":
            text = render(a[0], self.whnf, self.print_items, self.print_nesting)
            self.out.write(text + "\n")
            return a[0]
        raise EvalError(f"internal: unknown primitive {name}", "internal")

    @staticmethod
    def _pair(v, op):
        if type(v) is Pair:
            return v
        if type(v) is EmptyList:
            raise EvalError(f"{op}: empty list", "type")
        raise EvalError(f"{op}: expected a pair", "type")

    # -- suspensions ----------------------------------------------------------

    def suspend(self, sx, env):
        """What a closure parameter or a cons component receives under need:
        a literal is its value, a symbol bound in a local frame is what its
        slot holds, a total primitive on computed operands is applied, and
        anything else is a new suspension."""
        t = type(sx)
        if t is SSym:
            slot = self._local(sx.name, env)
            if slot is not None:
                return slot
        elif t is SList and sx.items:
            v = self._cheap(sx.items, env)
            if v is not None:
                return v
        else:
            return self._computed(sx, env)  # a literal, () included
        return Thunk(sx, env)

    def _local(self, name, env):
        # the slot a local frame binds `name` to, or None (a slot never
        # holds None)
        e = env
        while e is not None:
            if name in e.vars:
                return e.vars[name]
            e = e.parent
        return None

    def _computed(self, sx, env):
        # the value of an operand that is a literal, or a symbol bound in a
        # local frame to a value or to a forced suspension; None otherwise
        t = type(sx)
        if t is SNum:
            return sx.value
        if t is SStr:
            return sx.text
        if t is SEmbed:
            return sx.value
        if t is SList and not sx.items:
            return EMPTY
        if t is SSym:
            v = self._local(sx.name, env)
            if type(v) is Thunk:
                return v.memo if v.state == TH_DONE else None
            if v is not _LATER:
                return v
        return None

    def _cheap(self, items, env):
        # cheap eagerness: the value of (name operand...) when `name` still
        # holds the primitive of that name, every operand is computed and
        # the primitive is total on them; None otherwise
        head = items[0]
        if type(head) is not SSym or self._local(head.name, env) is not None:
            return None
        name = head.name
        f = self.top.get(name)
        if (type(f) is not Primitive or f.name != name
                or f.arity != len(items) - 1):
            return None
        ops = [self._computed(x, env) for x in items[1:]]
        if name in ("car", "cdr"):
            total = type(ops[0]) is Pair
        elif name in ("nullist", "atom"):
            total = ops[0] is not None
        elif name in ("+", "-", "*", "<", "<=", ">", ">=", "="):
            total = type(ops[0]) is int and type(ops[1]) is int
        else:
            return None
        if total:
            try:
                return self._prim(name, ops)
            except EvalError:
                pass  # an overflow stays suspended; its forcing reports it
        return None

    def force(self, th):
        # a thunk whose expression yields another thunk stays busy until the
        # chain reaches a value, which every thunk on it then memoizes; a
        # busy thunk met on the way is a cycle
        chain = []
        try:
            while True:
                state = th.state
                if state == TH_DONE:
                    v = th.memo
                elif state == TH_BUSY:
                    raise EvalError("cyclic definition: a value depends on "
                                    "itself", "cyclic")
                else:
                    th.state = TH_BUSY
                    chain.append(th)
                    self.depth += 1
                    try:
                        if self.depth > self.depth_limit:
                            raise LimitExceeded("depth")
                        v = self.eval(th.expr, th.block)
                    finally:
                        self.depth -= 1
                if type(v) is not Thunk:
                    break
                th = v
        except BaseException:
            for t in chain:
                t.state = TH_NEW
            raise
        for t in chain:
            t.memo = v
            t.state = TH_DONE
        return v

    def whnf(self, v):
        if type(v) is Thunk:
            return self.force(v)
        return v


# ---------------------------------------------------------------------------
# differential runner

DiffResult = namedtuple("DiffResult", "main oracle equal")


def differential_run(text, strategy, step_limit=10_000, depth_limit=100_000):
    """Run one program through both interpreters; equality compares printed
    output and the rendered results or the error category. Limit-exceeded
    on both sides counts as equal."""
    m = run_with_limit(text, strategy, step_limit, depth_limit)
    o = run_with_limit(text, strategy, step_limit, depth_limit, engine=Oracle)
    if m.kind != o.kind:
        equal = False
    elif m.kind == "limit":
        equal = True
    elif m.kind == "value":
        equal = m.payload == o.payload and m.output == o.output
    else:
        equal = m.payload[0] == o.payload[0] and m.output == o.output
    return DiffResult(m, o, equal)


# ---------------------------------------------------------------------------
# random program generator

_GEN_PRIMS1 = ("car", "cdr", "cadr", "nullist", "atom", "print")
_GEN_PRIMS2 = ("+", "-", "*", "/", "mod", "<", "<=", ">", ">=", "=", "cons")
_GEN_SYMS = ("a", "b", "c", "x", "y")


class ProgramGen:
    """Seeded generator of closed random programs: a few top-level
    definitions followed by expressions, depth-bounded, integer literals in
    [-10, 10] (and 2^62 in accumulator loops). The same seed with different
    name prefixes yields alpha-equivalent programs (generation is
    structural; names are supplied at rendering time)."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self._uid = 0

    def _new_id(self):
        self._uid += 1
        return self._uid

    def program_tree(self):
        rng = self.rng
        # (id, arity, offset of the parameter that takes a list or None);
        # every other first argument is a small count
        funs = []
        vals = []  # id
        forms = []
        for _ in range(rng.randint(0, 2)):
            fid = self._new_id()
            roll = rng.random()
            if roll < 0.3:
                # terminating countdown
                p = self._new_id()
                base = self._expr(2, (p,), funs, vals)
                forms.append(("defun", fid, (p,),
                              ("if", ("prim", "<", [("var", p), ("int", 1)]),
                               base,
                               ("call", fid, [("prim", "-", [("var", p), ("int", 1)])]))))
                funs.append((fid, 1, None))
            elif roll < 0.6:
                # a loop shape, called once at once so that it runs
                if roll < 0.45:
                    form, fun = self._accumulator(fid), (fid, 2, None)
                else:
                    form = self._walk(fid)
                    fun = (fid, len(form[2]), len(form[2]) - 2)
                forms.append(form)
                forms.append(("expr", self._call(fun, 3, (), funs, vals)))
                funs.append(fun)
            else:
                ps = tuple(self._new_id() for _ in range(rng.randint(1, 3)))
                forms.append(("defun", fid, ps, self._expr(3, ps, funs, vals)))
                funs.append((fid, len(ps), None))
        for _ in range(rng.randint(0, 2)):
            vid = self._new_id()
            forms.append(("defval", vid, self._expr(3, (), funs, vals)))
            vals.append(vid)
        for _ in range(rng.randint(1, 3)):
            forms.append(("expr", self._expr(5, (), funs, vals)))
        return forms

    def _expr(self, budget, scope, funs, vals):
        rng = self.rng
        if budget <= 0:
            leaves = [("int", rng.randint(-10, 10))]
            if scope:
                leaves.append(("var", rng.choice(scope)))
            if vals:
                leaves.append(("topval", rng.choice(vals)))
            return rng.choice(leaves)
        roll = rng.random()
        sub = lambda b=1: self._expr(budget - b, scope, funs, vals)
        if roll < 0.22:
            return self._expr(0, scope, funs, vals)
        if roll < 0.40:
            op = rng.choice(_GEN_PRIMS2)
            if op in ("/", "mod") and rng.random() < 0.85:
                return ("prim", op, [sub(), ("int", rng.choice((1, 2, 3, 5, -4)))])
            return ("prim", op, [sub(), sub()])
        if roll < 0.50:
            test = ("prim", rng.choice(("<", "<=", "=", ">")), [sub(2), sub(2)])
            return ("if", test, sub(), sub())
        if roll < 0.58:
            op = rng.choice(_GEN_PRIMS1)
            if op in ("car", "cdr", "cadr") and rng.random() < 0.8:
                return ("prim", op, [self._pairish(budget - 1, scope, funs, vals)])
            return ("prim", op, [sub()])
        if roll < 0.66 and funs:
            return self._call(rng.choice(funs), budget, scope, funs, vals)
        if roll < 0.76:
            ps = tuple(self._new_id() for _ in range(rng.randint(1, 2)))
            body = self._expr(budget - 1, scope + ps, funs, vals)
            return ("lamapp", ps, body, [sub(2) for _ in ps])
        if roll < 0.88:
            n = rng.randint(1, 2)
            bids = tuple(self._new_id() for _ in range(n))
            inner = scope + bids
            bindings = []
            for bid in bids:
                style = rng.random()
                if style < 0.5:
                    bindings.append((bid, "val", self._expr(budget - 2, scope, funs, vals)))
                elif style < 0.75:
                    bindings.append((bid, "sugar", self._expr(budget - 2, scope, funs, vals)))
                else:
                    p = self._new_id()
                    bindings.append((bid, "fun", (p,),
                                     self._expr(budget - 2, inner + (p,), funs, vals)))
            return ("let", bindings, self._expr(budget - 1, inner, funs, vals))
        if roll < 0.95:
            return ("quote", self._datum(2))
        return ("exclaq", ("list", [("sym", rng.choice(("+", "-", "*"))),
                                    ("num", rng.randint(-5, 5)),
                                    ("num", rng.randint(-5, 5))]))

    def _call(self, fun, budget, scope, funs, vals):
        fid, arity, walked = fun
        return ("call", fid, [
            self._pairish(budget - 1, scope, funs, vals) if i == walked
            else ("int", self.rng.randint(0, 8)) if i == 0
            else self._expr(budget - 2, scope, funs, vals)
            for i in range(arity)])

    # The two loop shapes pass, at each recursive call, total primitives on
    # their own parameters: what cheap eagerness applies under need when
    # the operands are already computed, and suspends when they are not.

    def _accumulator(self, fid):
        # (de (f n acc) (if (< n 1) acc (f (- n 1) (op acc e)))): n is
        # demanded; acc holds a value from a literal start on, or a thunk;
        # e = 2^62 soon overflows, and a comparison makes acc a boolean
        rng = self.rng
        n, acc = self._new_id(), self._new_id()
        op = rng.choice(("+", "-", "*", "<", "<=", ">", ">=", "="))
        e = rng.choice((("int", rng.randint(-3, 3)), ("int", 1 << 62),
                        ("var", n), ("var", acc)))
        return ("defun", fid, (n, acc),
                ("if", ("prim", "<", [("var", n), ("int", 1)]), ("var", acc),
                 ("call", fid, [("prim", "-", [("var", n), ("int", 1)]),
                                ("prim", op, [("var", acc), e])])))

    def _walk(self, fid):
        # (de (f l a) (if (test l) a (f (cdr l) step))): test is nullist or
        # atom, so f demands l, and step is car, cdr, nullist or atom of l,
        # or a cons of (car l) onto a. With a countdown k in front, l is no
        # longer demanded but forced by the test, so a thunk in its slot is
        # forced by the time step reads it
        rng = self.rng
        lv, a = self._new_id(), self._new_id()
        l = ("var", lv)
        step = rng.choice((("prim", "car", [l]), ("prim", "cdr", [l]),
                           ("prim", "nullist", [l]), ("prim", "atom", [l]),
                           ("prim", "cons", [("prim", "car", [l]), ("var", a)])))
        test = ("prim", rng.choice(("nullist", "atom")), [l])
        rec = [("prim", "cdr", [l]), step]
        if rng.random() < 0.5:
            return ("defun", fid, (lv, a), ("if", test, ("var", a),
                                             ("call", fid, rec)))
        k = self._new_id()
        return ("defun", fid, (k, lv, a),
                ("if", ("prim", "<", [("var", k), ("int", 1)]), ("var", a),
                 ("if", test, ("var", a),
                  ("call", fid, [("prim", "-", [("var", k), ("int", 1)])] + rec))))

    def _pairish(self, budget, scope, funs, vals):
        if self.rng.random() < 0.5:
            return ("prim", "cons",
                    [self._expr(max(budget - 1, 0), scope, funs, vals),
                     ("quote", self._datum(1))])
        return ("quote", ("list", [self._datum(1) for _ in range(self.rng.randint(1, 3))]))

    def _datum(self, budget):
        rng = self.rng
        if budget <= 0 or rng.random() < 0.6:
            if rng.random() < 0.7:
                return ("num", rng.randint(-10, 10))
            return ("sym", rng.choice(_GEN_SYMS))
        return ("list", [self._datum(budget - 1) for _ in range(rng.randint(0, 3))])


def render_program(forms, prefix="v"):
    name = lambda i: f"{prefix}{i}"

    def rx(e):
        tag = e[0]
        if tag == "int":
            return str(e[1])
        if tag == "var" or tag == "topval":
            return name(e[1])
        if tag == "prim":
            return "(" + " ".join([e[1]] + [rx(a) for a in e[2]]) + ")"
        if tag == "if":
            return f"(if {rx(e[1])} {rx(e[2])} {rx(e[3])})"
        if tag == "call":
            return "(" + " ".join([name(e[1])] + [rx(a) for a in e[2]]) + ")"
        if tag == "lamapp":
            params = " ".join(name(p) for p in e[1])
            args = " ".join(rx(a) for a in e[3])
            return f"((lambda ({params}) {rx(e[2])}) {args})".replace("  ", " ")
        if tag == "let":
            bs = []
            for b in e[1]:
                if b[1] == "val":
                    bs.append(f"(de {name(b[0])} {rx(b[2])})")
                elif b[1] == "sugar":
                    bs.append(f"({name(b[0])} {rx(b[2])})")
                else:
                    params = " ".join(name(p) for p in b[2])
                    bs.append(f"(de ({name(b[0])} {params}) {rx(b[3])})")
            return f"(let ({' '.join(bs)}) {rx(e[2])})"
        if tag == "quote":
            return "'" + rdatum(e[1])
        if tag == "exclaq":
            return "(! '" + rdatum(e[1]) + ")"
        raise ValueError(f"unknown node {e!r}")

    def rdatum(d):
        if d[0] == "num":
            return str(d[1])
        if d[0] == "sym":
            return d[1]
        return "(" + " ".join(rdatum(x) for x in d[1]) + ")"

    lines = []
    for form in forms:
        if form[0] == "defun":
            _, fid, ps, body = form
            params = " ".join(name(p) for p in ps)
            lines.append(f"(de ({name(fid)} {params}) {rx(body)})")
        elif form[0] == "defval":
            lines.append(f"(de {name(form[1])} {rx(form[2])})")
        else:
            lines.append(rx(form[1]))
    return "\n".join(lines) + "\n"


def generate_program(seed, prefix="v"):
    return render_program(ProgramGen(seed).program_tree(), prefix)
