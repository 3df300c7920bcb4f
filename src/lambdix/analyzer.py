"""Read-time partial compilation.

Every name is resolved once, at analysis time, to either a lexical address
(hops up the chain of enclosing lambda structures, plus a slot offset) or a
late-bound top-level reference. Lambda expressions and recursive lets become
LambdaStruct objects carrying a pointer to their lexical parent structure and
a mutable current-block slot, which is all the evaluator needs for
constant-time variable access.

Original names are kept on every reference for diagnostics and reflection.
The same compiled tree feeds both evaluation strategies.
"""

from .errors import AnalysisError
from .reader import SEmbed, SList, SNum, SStr, SSym
from .values import EMPTY

SPECIAL_FORMS = frozenset(("lambda", "if", "let", "quote", "excla", "de", "define"))
_DE_NAMES = ("de", "define")


class LambdaStruct:
    """Internal structure for one definition level: a function, a let, or
    the distinguished top level.

    Slot layout is fixed after analysis: parameters first, local definitions
    after. `current_block` is the dynamic link - the block holding this
    level's values in the currently installed environment.
    """

    __slots__ = ("uid", "name", "params", "local_names", "body", "parent",
                 "current_block", "depth")

    def __init__(self, uid, name, params, local_names, parent):
        self.uid = uid
        self.name = name
        self.params = tuple(params)
        self.local_names = tuple(local_names)
        self.body = None
        self.parent = parent
        self.current_block = None
        # chain length up to (excluding) the top pseudo-struct
        self.depth = 0 if parent is None else parent.depth + 1

    def __repr__(self):
        return f"<struct {self.name}#{self.uid}>"


class Frame:
    """Analysis-time scope frame; one per open LambdaStruct."""

    __slots__ = ("struct", "params", "locals", "parent")

    def __init__(self, struct, params, locals_, parent):
        self.struct = struct
        self.params = tuple(params)
        self.locals = tuple(locals_)
        self.parent = parent


def resolve(frame, name):
    """Innermost-first search; parameters take priority over local
    definitions within one frame. Returns (hops, offset, kind, struct) or
    None, where struct is the level `hops` up that owns the slot."""
    hops = 0
    while frame is not None:
        try:
            return hops, frame.params.index(name), "param", frame.struct
        except ValueError:
            pass
        try:
            offset = frame.locals.index(name)
            return hops, len(frame.params) + offset, "local", frame.struct
        except ValueError:
            pass
        frame = frame.parent
        hops += 1
    return None


# ---------------------------------------------------------------------------
# compiled expression nodes; evaluator.py gives each its ev(interp, struct)

class Lit:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class LocalRef:
    __slots__ = ("hops", "offset", "name", "kind", "target")

    def __init__(self, hops, offset, name, kind, target):
        self.hops = hops
        self.offset = offset
        self.name = name
        self.kind = kind
        # the struct `hops` levels up: a read is target.current_block's slot
        self.target = target


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
    __slots__ = ("head", "args")

    def __init__(self, head, args):
        self.head = head
        self.args = tuple(args)


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
    __slots__ = ("arg", "frame")

    def __init__(self, arg, frame):
        self.arg = arg
        self.frame = frame  # lexical scope of the excla site


class LetForm:
    __slots__ = ("struct", "bindings")

    def __init__(self, struct, bindings):
        self.struct = struct
        self.bindings = tuple(bindings)


# ---------------------------------------------------------------------------

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
    def __init__(self, top_struct, registry):
        self.top_struct = top_struct
        self.registry = registry
        self._next_uid = top_struct.uid + 1

    def _new_struct(self, name, params, local_names, parent):
        struct = LambdaStruct(self._next_uid, name, params, local_names, parent)
        self._next_uid += 1
        self.registry.append(struct)
        return struct

    def analyze(self, sx, frame):
        """Compile one expression against a scope frame (None = top level)."""
        t = type(sx)
        if t is SNum:
            return Lit(sx.value)
        if t is SStr:
            return Lit(sx.text)
        if t is SEmbed:
            return Lit(sx.value)
        if t is SSym:
            addr = resolve(frame, sx.name)
            if addr is None:
                # top level is late-bound: missing names fail at use time
                return TopRef(sx.name)
            hops, offset, kind, target = addr
            return LocalRef(hops, offset, sx.name, kind, target)
        if t is SList:
            items = sx.items
            if not items:
                return Lit(EMPTY)
            head = items[0]
            if (type(head) is SSym and head.name in SPECIAL_FORMS
                    and resolve(frame, head.name) is None):
                return self._special(head.name, sx, frame)
            compiled_head = self.analyze(head, frame)
            return App(compiled_head, [self.analyze(a, frame) for a in items[1:]])
        raise AnalysisError(f"cannot analyze {sx!r}")

    def _special(self, name, sx, frame):
        items = sx.items
        if name == "lambda":
            if len(items) != 3:
                raise AnalysisError(f"{_pos(sx)}lambda: parameter list and one body expression expected")
            params = _param_names(items[1], "lambda")
            return LambdaRef(self.make_lambda_struct("lambda", params, items[2], frame))
        if name == "if":
            if len(items) != 4:
                raise AnalysisError(f"{_pos(sx)}if: exactly three arguments expected")
            return If(self.analyze(items[1], frame),
                      self.analyze(items[2], frame),
                      self.analyze(items[3], frame))
        if name == "let":
            if len(items) != 3:
                raise AnalysisError(f"{_pos(sx)}let: binding list and one body expression expected")
            return self.analyze_let(items[1], items[2], frame)
        if name == "quote":
            if len(items) != 2:
                raise AnalysisError(f"{_pos(sx)}quote: exactly one argument expected")
            return QuoteForm(items[1])
        if name == "excla":
            if len(items) != 2:
                raise AnalysisError(f"{_pos(sx)}excla: exactly one argument expected")
            return ExclaForm(self.analyze(items[1], frame), frame)
        # de/define is not an expression: definitions come first, at the top
        # level or as let bindings
        raise AnalysisError(f"{_pos(sx)}de is only allowed at top level or as a let binding")

    def make_lambda_struct(self, name, params, body_sx, frame):
        """Build the internal structure for one lambda level and compile its
        body in the extended scope."""
        parent = frame.struct if frame is not None else self.top_struct
        struct = self._new_struct(name, params, (), parent)
        inner = Frame(struct, params, (), frame)
        struct.body = self.analyze(body_sx, inner)
        return struct

    def analyze_let(self, bindings_sx, body_sx, frame):
        """Recursive let: every binding name is visible in every binding
        expression and in the body. The level is an anonymous struct whose
        slots are the local definitions."""
        if type(bindings_sx) is not SList:
            raise AnalysisError(f"{_pos(bindings_sx)}let: binding list expected")
        parsed = []  # (name, "value", expr_sx) | (name, "func", params, body)
        for b in bindings_sx.items:
            if type(b) is not SList or not b.items:
                raise AnalysisError(f"{_pos(b)}let: malformed binding")
            if is_de_form(b):
                de = parse_de(b)
                if de[0] == "value":
                    parsed.append((de[1], "value", de[2]))
                else:
                    parsed.append((de[1], "func", de[2], de[3]))
            elif len(b.items) == 2 and type(b.items[0]) is SSym:
                # (name expr) is sugar for (de name expr)
                parsed.append((b.items[0].name, "value", b.items[1]))
            else:
                raise AnalysisError(f"{_pos(b)}let: malformed binding")
        names = [p[0] for p in parsed]
        dup = _first_duplicate(names)
        if dup is not None:
            raise AnalysisError(f"{_pos(bindings_sx)}let: duplicate local name {dup}")
        parent = frame.struct if frame is not None else self.top_struct
        struct = self._new_struct("let", (), names, parent)
        inner = Frame(struct, (), names, frame)
        bindings = []
        for p in parsed:
            if p[1] == "value":
                bindings.append(self.analyze(p[2], inner))
            else:
                bindings.append(LambdaRef(self.make_lambda_struct(p[0], p[2], p[3], inner)))
        struct.body = self.analyze(body_sx, inner)
        return LetForm(struct, bindings)
