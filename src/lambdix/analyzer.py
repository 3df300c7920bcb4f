"""Read-time partial compilation.

Every name is resolved once, at analysis time, to either a lexical address
(the enclosing lambda structure that owns the slot, found by walking the
chain of structures itself, plus a slot offset) or a late-bound top-level
reference. Lambda expressions and recursive lets become LambdaStruct objects
carrying one tuple of names (a function's parameters or a let's local
definitions), a pointer to their lexical parent structure and a mutable
current-block slot, which is all the evaluator needs for constant-time
variable access.

Each function-level structure also records its demand prefix (see
demand_prefix), which call-by-need uses to pass those arguments evaluated,
and the offsets of the parameters it does not demand, which a call
suspends.

An application whose head is a top-level name that names a primitive, with
as many arguments as that primitive takes, becomes a PrimApp instead of an
App, bound to that primitive; demand_prefix reads a strict one's arguments
as forced. The choice is made once, from the name alone: once a top-level
definition has rebound a primitive's name, the evaluator checks at every
call that the name still holds that very primitive and otherwise
evaluates the node as the App it also is, so a later definition of the
name still takes effect.

Under call-by-value each closure-call App also records the cells of its
level's block that nothing reads after its application (trim_dead), which
the call clears before entering the callee; an analyzer for call-by-need
skips that walk.

Original names are kept on every reference for diagnostics and reflection.
The same compiled tree feeds both evaluation strategies.
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
                 "depth", "demand", "suspend", "free")

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
        # and the rest, which a need call still suspends
        self.demand = ()
        self.suspend = ()
        # what trim_dead found this level, or a level inside it, reads of
        # enclosing levels: (struct, cell, pinned) triples, pinned when the
        # read is inside a lambda; None when an excla inside it may read
        # anything
        self.free = ()

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
    __slots__ = ("head", "args", "dead")

    def __init__(self, head, args):
        self.head = head
        self.args = tuple(args)
        # the cells of its level's block a strict closure call clears
        # before entering the callee (trim_dead); a PrimApp clears none
        self.dead = ()


class PrimApp(App):
    """An App of a top-level name that named a primitive, with that
    primitive's arity, when it was analyzed; `prim` is that primitive, and
    `a` and `b` (None for a one-argument primitive) spare the evaluator the
    tuple reads."""

    __slots__ = ("prim", "a", "b")

    def __init__(self, head, args, prim):
        App.__init__(self, head, args)
        self.prim = prim
        self.a = self.args[0]
        self.b = self.args[1] if len(self.args) == 2 else None


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
    of a strict primitive is assumed to call that primitive."""
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
    if t is If:
        _walk_demand(node.test, struct, demand)
    elif t is PrimApp and not node.prim.lazy:
        # the arguments are evaluated and forced left to right; the
        # primitive itself may then fail or print
        for a in node.args:
            if not _walk_demand(a, struct, demand):
                break
    return False


def trim_dead(struct, nodes, is_lambda):
    """Make the strict closure calls of one level safe for space (Clinger,
    Proper tail recursion and space efficiency, 1998): give each App whose
    level is `struct` the cells of struct's block that the application,
    head and arguments, reads last, and that a closure call inside it has
    not already claimed. `nodes` is the level's code in evaluation order:
    a lambda's body, or a let's bindings and then its body.

    One backward liveness walk over the level's own nodes. An If merges
    what its branches read; a let counts as a read, at its place, of every
    cell of this level it reads itself; a cell read inside a lambda (a
    let-bound function too) may be read whenever that closure is called,
    so no App lists it; and a level with an excla anywhere inside it lists
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
        self.apps = []       # (App, the cells it claims)
        self.excla = False

    def walk(self, node, live, claim):
        # `live` holds the level's cells read after `node` and is updated
        # to those read from `node` on; `claim` is the set of the innermost
        # closure call around `node` in this level (None outside any),
        # which takes each cell whose last read is here
        t = type(node)
        if t is LocalRef:
            self.read(node.target, node.index, False, live, claim)
        elif t is App:
            dead = set()
            self.apps.append((node, dead))
            for a in reversed(node.args):
                self.walk(a, live, dead)
            self.walk(node.head, live, dead)
        elif t is PrimApp:
            # the head is a top-level name
            for a in reversed(node.args):
                self.walk(a, live, claim)
        elif t is If:
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


def _param_names(sx, what):
    if type(sx) is not SList:
        raise AnalysisError(f"{_pos(sx)}{what}: parameter list expected")
    names = []
    for p in sx.items:
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
        params = _param_names(SList(target.items[1:], target.pos), f"de {name}")
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
        # run trim_dead on every level: set under call-by-value only, as
        # a thunk reads its creator's block whenever it is forced
        self.trim = trim

    def _new_struct(self, name, names, parent):
        struct = LambdaStruct(len(self.registry), name, names, parent)
        self.registry.append(struct)
        return struct

    def analyze(self, sx, struct):
        """Compile one expression in the scope of `struct`, the innermost
        enclosing lambda structure (the top pseudo-struct at top level)."""
        t = type(sx)
        if t is SNum:
            return Lit(sx.value)
        if t is SStr:
            return Lit(sx.text)
        if t is SEmbed:
            return Lit(sx.value)
        if t is SSym:
            addr = resolve(struct, sx.name)
            if addr is None:
                # top level is late-bound: missing names fail at use time
                return TopRef(sx.name)
            target, offset = addr
            return LocalRef(offset, sx.name, target)
        if t is SList:
            items = sx.items
            if not items:
                return Lit(EMPTY)
            head = items[0]
            if (type(head) is SSym and head.name in SPECIAL_FORMS
                    and resolve(struct, head.name) is None):
                return self._special(head.name, sx, struct)
            compiled_head = self.analyze(head, struct)
            args = [self.analyze(a, struct) for a in items[1:]]
            if type(compiled_head) is TopRef:
                prim = self.primitives.get(compiled_head.name)
                if prim is not None and prim.arity == len(args):
                    return PrimApp(compiled_head, args, prim)
            return App(compiled_head, args)
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
            return If(self.analyze(items[1], struct),
                      self.analyze(items[2], struct),
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
        struct.demand = demand = demand_prefix(struct)
        struct.suspend = tuple(i for i in range(len(struct.names))
                               if i not in demand)
        if self.trim:
            trim_dead(struct, (struct.body,), True)
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
