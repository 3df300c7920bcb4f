"""Read-time partial compilation.

Every name is resolved once, at analysis time, to either a lexical address
(the enclosing lambda structure that owns the slot, found by walking the
chain of structures itself, plus a slot offset) or a late-bound top-level
reference. Lambda expressions and recursive lets become LambdaStruct objects
carrying one tuple of names (a function's parameters or a let's local
definitions), a pointer to their lexical parent structure and a mutable
current-block slot, which is all the evaluator needs for constant-time
variable access.

Under call-by-need each function-level structure also records its demand
prefix (see demand_prefix), which a call uses to pass those arguments
evaluated, and the offsets of the parameters it does not demand, which a
call suspends; an analyzer for call-by-value, where nothing reads them,
skips that walk.

An application is built as one of a few App subclasses, each of which the
evaluator gives its own `ev`, so that a call tests nothing the analyzer
knew already. An application whose head is a top-level name that names a
strict primitive, with as many arguments as that primitive takes, becomes
a primitive-shaped node (a PrimApp), bound to that primitive;
demand_prefix reads its arguments as forced. Its class is its shape,
picked from whether each operand is a local or a literal, and its `ev`
tests no operand type at a call. The choice is made once, from the name
alone: once a top-level definition has rebound a primitive's name, the
evaluator checks at every call that the name still holds that very
primitive and otherwise evaluates the node as an ordinary application, so
a later definition of the name still takes effect. Every other
application, cons under call-by-need (which is lazy,
builtins.make_primitives) included, is its strategy's call shape
(CallValue or CallNeed). An if whose test is PrimL or PrimLK is an if
shape (IfL, IfLK), which applies the test's primitive itself.

A let's level records the offsets of its (de (f ...) ...) bindings
(`funs`), and a call whose head reads one of those slots is marked
(App.parent_current) when it is built. Such a slot always holds f's
closure over the let's block, which is current wherever the slot can be
read, so the call's install need not walk (runtime.Runtime.install). A
value binding or a parameter may hold a closure of any level and marks
nothing.

Under call-by-value each call shape also records the cells of its level's
block that nothing reads after its application (trim_dead), which the
call clears before entering the callee; an analyzer for call-by-need
skips that walk.

An application's head symbol is resolved once, where the application is
analyzed, and that one resolution decides between a special form, a local
and a top-level name. Analysis takes 16 % of the op time of the
benchmark's REPL session, about 7 µs for the median form (reading, 26 %
and 13 µs; reader.py).

Original names are kept on every reference for diagnostics and reflection.
One analyzer serves one strategy: its call shapes, its primitive table
(cons) and its per-level records are that strategy's.
"""

from .errors import AnalysisError
from .reader import SEmbed, SList, SNum, SStr, SSym
from .runtime import FIRST
from .values import EMPTY

SPECIAL_FORMS = frozenset(("lambda", "if", "let", "quote", "excla", "de", "define"))
_DE_NAMES = ("de", "define")


class LambdaStruct:
    """Internal structure for one definition level: a function, a let, or
    the distinguished top level.

    `names` are the level's slots in order: a function's parameters or a
    let's local definitions, as no level has both (the top level's names
    live in the top-level table). `current_block` is the dynamic link - the
    block holding this level's values in the currently installed
    environment.
    """

    __slots__ = ("uid", "name", "names", "body", "parent", "current_block",
                 "depth", "demand", "suspend", "free", "funs")

    def __init__(self, uid, name, names, parent):
        self.uid = uid
        self.name = name
        self.names = tuple(names)
        self.body = None
        self.parent = parent
        self.current_block = None
        # chain length up to (excluding) the top pseudo-struct
        self.depth = 0 if parent is None else parent.depth + 1
        # parameter offsets the body forces first, in order (demand_prefix),
        # and the rest, which a need call still suspends (kept here: working
        # it out at each call costs suite-need 12 %); both stay empty under
        # call-by-value, where no call reads them
        self.demand = ()
        self.suspend = ()
        # what trim_dead found this level, or a level inside it, reads of
        # enclosing levels: (struct, cell, pinned) triples, pinned when the
        # read is inside a lambda; None when an excla inside it may read
        # anything
        self.free = ()
        # a let's offsets of its (de (f ...) ...) bindings, whose slots
        # hold their closures over the let's own block
        self.funs = ()

    def __repr__(self):
        return f"<struct {self.name}#{self.uid}>"


def resolve(struct, name):
    """Innermost-first search up the lambda-structure chain. Returns (owner,
    offset), where owner is the struct that holds the slot, or None for a
    top-level name."""
    while struct is not None:
        names = struct.names
        if name in names:
            return struct, names.index(name)
        struct = struct.parent
    return None


# ---------------------------------------------------------------------------
# compiled expression nodes; evaluator.py gives each its ev(interp, struct)

class Lit:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class LocalRef:
    __slots__ = ("offset", "name", "target", "index")

    def __init__(self, offset, name, target):
        self.offset = offset
        self.name = name
        # the struct that owns the slot: a read is cell `index` of
        # target.current_block, the vector that holds slot `offset`
        self.target = target
        self.index = FIRST + offset


class TopRef:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name


class If:
    __slots__ = ("test", "then", "orelse")

    def __init__(self, test, then, orelse):
        self.test = test
        self.then = then
        self.orelse = orelse


class App:
    """An application. Never built itself: a non-primitive application is
    one of the call shapes below, picked by strategy (Analyzer.analyze),
    and a primitive-shaped one is a PrimApp."""

    __slots__ = ("head", "args", "dead", "parent_current")

    def __init__(self, head, args):
        self.head = head
        self.args = tuple(args)
        # the cells of its level's block a strict closure call clears
        # before entering the callee (trim_dead); a PrimApp clears none
        self.dead = ()
        # a call of a let's own local function: its closure's block is the
        # let's current one, so the callee's parent link is current
        # whenever the call runs and its install need not walk
        self.parent_current = (type(head) is LocalRef
                               and head.offset in head.target.funs)


class PrimApp(App):
    """An App of a top-level name that named a strict primitive, with that
    primitive's arity, when it was analyzed; `prim` is that primitive, and
    `a` and `b` (None for a one-argument primitive) are the operands, read
    without a tuple read (reading `args` cost suite-value 4 % and
    suite-need 3.5 % when one `ev` served every shape).

    Never built itself: the analyzer builds one of its shape classes below,
    picked from the operands it already knows (Analyzer.analyze), so the
    evaluator tests no operand type at a call. A local operand is
    flattened into its slot's owner and cell (`ta`, `ia`; `tb`, `ib`) and
    a literal second operand into its value (`kb`)."""

    __slots__ = ("prim", "a", "b", "ta", "ia", "tb", "ib", "kb")

    def __init__(self, head, args, prim):
        # App.__init__'s fields, set here so that a node costs one frame:
        # a top-level head is never a let's own function
        self.head = head
        self.args = args = tuple(args)
        self.dead = ()
        self.parent_current = False
        self.prim = prim
        self.a = a = args[0]
        if type(a) is LocalRef:
            self.ta = a.target
            self.ia = a.index
        if len(args) == 1:
            self.b = None
            return
        self.b = b = args[1]
        t = type(b)
        if t is LocalRef:
            self.tb = b.target
            self.ib = b.index
        elif t is Lit:
            self.kb = b.value


# The shapes, named after their operands: L a local, K a literal second
# operand, E any other operand, evaluated by its own ev (a literal first
# operand too, and a local followed by an E, which is PrimEE).

class PrimE(PrimApp):
    __slots__ = ()


class PrimL(PrimApp):
    __slots__ = ()


class PrimEE(PrimApp):
    __slots__ = ()


class PrimEK(PrimApp):
    __slots__ = ()


class PrimEL(PrimApp):
    __slots__ = ()


class PrimLK(PrimApp):
    __slots__ = ()


class PrimLL(PrimApp):
    __slots__ = ()


class IfPrim(If):
    """An if whose test is a primitive shape that reads a local first
    operand in place, PrimL or PrimLK, with the test's fields copied, so
    that the test costs no `ev` call of its own. Never built itself: the
    analyzer builds the shape class named after the test's."""

    __slots__ = ("prim", "ta", "ia", "kb")

    def __init__(self, test, then, orelse):
        self.test = test
        self.then = then
        self.orelse = orelse
        self.prim = test.prim
        self.ta = test.ta
        self.ia = test.ia
        if test.b is not None:
            self.kb = test.kb


class IfL(IfPrim):
    __slots__ = ()


class IfLK(IfPrim):
    __slots__ = ()


# an if whose test is one of these primitive shapes is built as its shape
_IF_SHAPES = {PrimL: IfL, PrimLK: IfLK}


# The call shapes: a non-primitive application under call-by-value, which
# evaluates its arguments and clears its dead cells, and under
# call-by-need, which passes its callee's demand prefix and suspends the
# rest.

class CallValue(App):
    __slots__ = ()


class CallNeed(App):
    __slots__ = ()


class LambdaRef:
    __slots__ = ("struct",)

    def __init__(self, struct):
        self.struct = struct


class QuoteForm:
    __slots__ = ("sexpr", "datum")

    def __init__(self, sexpr):
        self.sexpr = sexpr
        self.datum = None  # filled on first evaluation, constant afterwards


class ExclaForm:
    __slots__ = ("arg", "compiled")

    def __init__(self, arg):
        self.arg = arg
        # the analysis of a quoted argument's constant text, made once
        self.compiled = None


class LetForm:
    __slots__ = ("struct", "bindings")

    def __init__(self, struct, bindings):
        self.struct = struct
        self.bindings = tuple(bindings)


# ---------------------------------------------------------------------------

def demand_prefix(struct):
    """The offsets of `struct`'s parameters that its body forces, in the
    order it forces them, before anything else can happen: before any
    effect, any operation that can fail, any branch, any closure call and
    any read of an outer or top-level name. A primitive-shaped application
    is assumed to call its primitive."""
    demand = []
    _walk_demand(struct.body, struct, demand)
    return tuple(demand)


def _walk_demand(node, struct, demand):
    # appends to `demand` what evaluating `node` forces first; True when
    # evaluation carries on past `node` with nothing but parameter forcings
    # having happened. Not a closure: making one per definition took as
    # long as the walk itself.
    t = type(node)
    if t is LocalRef:
        if node.target is not struct:
            return False
        if node.offset not in demand:
            demand.append(node.offset)
        return True
    if t is Lit or t is LambdaRef or t is QuoteForm:
        return True
    if isinstance(node, If):
        _walk_demand(node.test, struct, demand)
    elif isinstance(node, PrimApp):
        # the arguments are evaluated and forced left to right; the
        # primitive itself may then fail or print
        for a in node.args:
            if not _walk_demand(a, struct, demand):
                break
    return False


def trim_dead(struct, nodes, is_lambda):
    """Make the strict closure calls of one level safe for space (Clinger,
    Proper tail recursion and space efficiency, 1998): give each call whose
    level is `struct` the cells of struct's block that the application,
    head and arguments, reads last, and that a closure call inside it has
    not already claimed. `nodes` is the level's code in evaluation order:
    a lambda's body, or a let's bindings and then its body.

    One backward liveness walk over the level's own nodes. An If merges
    what its branches read; a let counts as a read, at its place, of every
    cell of this level it reads itself; a cell read inside a lambda (a
    let-bound function too) may be read whenever that closure is called,
    so no call lists it; and a level with an excla anywhere inside it lists
    nothing, since the text can read any name in scope. A nested level
    contributes its `free`, found when it was analyzed, so no subtree is
    walked twice. Records this level's own `free` for the level around it."""
    walk = _Liveness(struct, is_lambda)
    live = set()
    for node in reversed(nodes):
        walk.walk(node, live, None)
    if walk.excla:
        struct.free = None
        return
    struct.free = walk.free
    pinned = walk.pinned
    for app, dead in walk.apps:
        if dead:
            app.dead = tuple(sorted(dead - pinned))


class _Liveness:
    __slots__ = ("level", "pin", "free", "pinned", "apps", "excla")

    def __init__(self, level, is_lambda):
        self.level = level
        # a lambda's reads of enclosing levels happen whenever it is called
        self.pin = is_lambda
        self.free = set()
        self.pinned = set()  # cells of the level read inside a lambda
        self.apps = []       # (call shape, the cells it claims)
        self.excla = False

    def walk(self, node, live, claim):
        # `live` holds the level's cells read after `node` and is updated
        # to those read from `node` on; `claim` is the set of the innermost
        # closure call around `node` in this level (None outside any),
        # which takes each cell whose last read is here
        t = type(node)
        if t is LocalRef:
            self.read(node.target, node.index, False, live, claim)
        elif isinstance(node, PrimApp):
            # the head is a top-level name
            for a in reversed(node.args):
                self.walk(a, live, claim)
        elif isinstance(node, App):
            dead = set()
            self.apps.append((node, dead))
            for a in reversed(node.args):
                self.walk(a, live, dead)
            self.walk(node.head, live, dead)
        elif isinstance(node, If):
            other = set(live)
            self.walk(node.then, live, claim)
            self.walk(node.orelse, other, claim)
            live |= other
            self.walk(node.test, live, claim)
        elif t is LambdaRef or t is LetForm:
            free = node.struct.free
            if free is None:
                self.excla = True
            else:
                for target, index, pinned in free:
                    self.read(target, index, pinned, live, claim)
        elif t is ExclaForm:
            self.excla = True

    def read(self, target, index, pinned, live, claim):
        if target is not self.level:
            self.free.add((target, index, pinned or self.pin))
        elif pinned:
            self.pinned.add(index)
        elif index not in live:
            live.add(index)
            if claim is not None:
                claim.add(index)


def _pos(sx):
    if getattr(sx, "pos", None):
        line, col = sx.pos
        return f"{line}:{col}: "
    return ""


def _param_names(sx, what, first=0):
    # the names of the list sx's items from `first` on
    if type(sx) is not SList:
        raise AnalysisError(f"{_pos(sx)}{what}: parameter list expected")
    names = []
    for p in sx.items[first:]:
        if type(p) is not SSym:
            raise AnalysisError(f"{_pos(p)}{what}: parameter must be a symbol")
        names.append(p.name)
    dup = _first_duplicate(names)
    if dup is not None:
        raise AnalysisError(f"{_pos(sx)}{what}: duplicate parameter {dup}")
    return names


def _first_duplicate(names):
    seen = set()
    for n in names:
        if n in seen:
            return n
        seen.add(n)
    return None


def parse_de(sx):
    """Classify a (de ...) form. Returns ("value", name, expr_sx) or
    ("func", name, param_names, body_sx)."""
    items = sx.items
    if len(items) < 2:
        raise AnalysisError(f"{_pos(sx)}de: name and definition expected")
    target = items[1]
    if type(target) is SSym:
        if len(items) != 3:
            raise AnalysisError(f"{_pos(sx)}de: exactly one defining expression expected")
        return "value", target.name, items[2]
    if type(target) is SList:
        if not target.items or type(target.items[0]) is not SSym:
            raise AnalysisError(f"{_pos(sx)}de: function name must be a symbol")
        name = target.items[0].name
        params = _param_names(target, f"de {name}", 1)
        if len(items) != 3:
            raise AnalysisError(f"{_pos(sx)}de {name}: exactly one body expression expected")
        return "func", name, params, items[2]
    raise AnalysisError(f"{_pos(sx)}de: name must be a symbol")


def is_de_form(sx):
    return (type(sx) is SList and len(sx.items) > 0
            and type(sx.items[0]) is SSym and sx.items[0].name in _DE_NAMES)


class Analyzer:
    def __init__(self, registry, primitives, trim):
        # every struct, the top pseudo-struct first; a struct's uid is its
        # index here
        self.registry = registry
        # primitive name -> the interpreter's primitive, for the
        # primitive-shaped applications
        self.primitives = primitives
        # set under call-by-value only: run trim_dead on every level, as a
        # thunk reads its creator's block whenever it is forced, and skip
        # demand_prefix, which only a need call reads
        self.trim = trim
        # the shape of every application that is not primitive-shaped
        self.call = CallValue if trim else CallNeed

    def _new_struct(self, name, names, parent):
        struct = LambdaStruct(len(self.registry), name, names, parent)
        self.registry.append(struct)
        return struct

    def analyze(self, sx, struct):
        """Compile one expression in the scope of `struct`, the innermost
        enclosing lambda structure (the top pseudo-struct at top level)."""
        t = type(sx)
        if t is SList:
            items = sx.items
            if not items:
                return Lit(EMPTY)
            head = items[0]
            if type(head) is SSym:
                # the head's one resolution decides between a special form,
                # a local and a top-level name
                name = head.name
                addr = resolve(struct, name)
                if addr is not None:
                    target, offset = addr
                    head = LocalRef(offset, name, target)
                elif name in SPECIAL_FORMS:
                    return self._special(name, sx, struct)
                else:
                    head = TopRef(name)
            else:
                head = self.analyze(head, struct)
            args = []
            for a in items[1:]:
                args.append(self.analyze(a, struct))
            if type(head) is TopRef:
                prim = self.primitives.get(head.name)
                if (prim is not None and prim.arity == len(args)
                        and not prim.lazy):
                    local = type(args[0]) is LocalRef
                    if len(args) == 1:
                        shape = PrimL if local else PrimE
                    else:
                        t = type(args[1])
                        if t is LocalRef:
                            shape = PrimLL if local else PrimEL
                        elif t is Lit:
                            shape = PrimLK if local else PrimEK
                        else:
                            shape = PrimEE
                    return shape(head, args, prim)
            return self.call(head, args)
        if t is SSym:
            addr = resolve(struct, sx.name)
            if addr is None:
                # top level is late-bound: missing names fail at use time
                return TopRef(sx.name)
            target, offset = addr
            return LocalRef(offset, sx.name, target)
        if t is SNum:
            return Lit(sx.value)
        if t is SStr:
            return Lit(sx.text)
        if t is SEmbed:
            return Lit(sx.value)
        raise AnalysisError(f"cannot analyze {sx!r}")

    def _special(self, name, sx, struct):
        items = sx.items
        if name == "lambda":
            if len(items) != 3:
                raise AnalysisError(f"{_pos(sx)}lambda: parameter list and one body expression expected")
            params = _param_names(items[1], "lambda")
            return LambdaRef(self.make_lambda_struct("lambda", params, items[2], struct))
        if name == "if":
            if len(items) != 4:
                raise AnalysisError(f"{_pos(sx)}if: exactly three arguments expected")
            test = self.analyze(items[1], struct)
            return _IF_SHAPES.get(type(test), If)(
                test, self.analyze(items[2], struct),
                self.analyze(items[3], struct))
        if name == "let":
            if len(items) != 3:
                raise AnalysisError(f"{_pos(sx)}let: binding list and one body expression expected")
            return self.analyze_let(items[1], items[2], struct)
        if name == "quote":
            if len(items) != 2:
                raise AnalysisError(f"{_pos(sx)}quote: exactly one argument expected")
            return QuoteForm(items[1])
        if name == "excla":
            if len(items) != 2:
                raise AnalysisError(f"{_pos(sx)}excla: exactly one argument expected")
            return ExclaForm(self.analyze(items[1], struct))
        # de/define is not an expression: definitions come first, at the top
        # level or as let bindings
        raise AnalysisError(f"{_pos(sx)}de is only allowed at top level or as a let binding")

    def make_lambda_struct(self, name, params, body_sx, parent):
        """Build the internal structure for one lambda level and compile its
        body in the extended scope."""
        struct = self._new_struct(name, params, parent)
        struct.body = self.analyze(body_sx, struct)
        if self.trim:
            trim_dead(struct, (struct.body,), True)
        else:
            struct.demand = demand = demand_prefix(struct)
            suspend = []
            for i in range(len(params)):
                if i not in demand:
                    suspend.append(i)
            struct.suspend = tuple(suspend)
        return struct

    def analyze_let(self, bindings_sx, body_sx, parent):
        """Recursive let: every binding name is visible in every binding
        expression and in the body. The level is an anonymous struct whose
        slots are the local definitions."""
        if type(bindings_sx) is not SList:
            raise AnalysisError(f"{_pos(bindings_sx)}let: binding list expected")
        parsed = []  # parse_de's tuples
        for b in bindings_sx.items:
            if type(b) is not SList or not b.items:
                raise AnalysisError(f"{_pos(b)}let: malformed binding")
            if is_de_form(b):
                parsed.append(parse_de(b))
            elif len(b.items) == 2 and type(b.items[0]) is SSym:
                # (name expr) is sugar for (de name expr)
                parsed.append(("value", b.items[0].name, b.items[1]))
            else:
                raise AnalysisError(f"{_pos(b)}let: malformed binding")
        names = [p[1] for p in parsed]
        dup = _first_duplicate(names)
        if dup is not None:
            raise AnalysisError(f"{_pos(bindings_sx)}let: duplicate local name {dup}")
        struct = self._new_struct("let", names, parent)
        struct.funs = tuple(i for i, p in enumerate(parsed) if p[0] == "func")
        bindings = []
        for p in parsed:
            if p[0] == "value":
                bindings.append(self.analyze(p[2], struct))
            else:
                bindings.append(LambdaRef(self.make_lambda_struct(p[1], p[2], p[3], struct)))
        struct.body = self.analyze(body_sx, struct)
        if self.trim:
            trim_dead(struct, (*bindings, struct.body), False)
        return LetForm(struct, bindings)
