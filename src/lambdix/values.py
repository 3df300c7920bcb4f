"""Runtime data: numbers, booleans, strings, symbols, pairs, closures,
primitives, and suspended computations.

Numbers, booleans and strings are plain Python int/bool/str (dispatch uses
exact type() checks, so bool never masquerades as int). Pair slots may hold
unforced thunks under call-by-need; rendering, equality and the text
conversion all take an explicit `force` callable so the reference
interpreter can reuse them with its own suspensions.
"""

from .errors import AnalysisError
from .reader import SEmbed, SList, SNum, SStr, SSym


class Sym:
    """Symbol datum, as produced by quote. Compares by name."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __eq__(self, other):
        return type(other) is Sym and other.name == self.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return self.name


class EmptyList:
    __slots__ = ()

    def __repr__(self):
        return "()"


EMPTY = EmptyList()


class Pair:
    __slots__ = ("head", "tail")

    def __init__(self, head, tail):
        self.head = head
        self.tail = tail


class Closure:
    """A function value: lambda structure plus the block of its defining
    environment."""

    __slots__ = ("struct", "block")

    def __init__(self, struct, block):
        self.struct = struct
        self.block = block


class Primitive:
    __slots__ = ("name", "arity", "lazy", "fn", "bound", "total_on")

    def __init__(self, name, arity, fn, lazy=False, total_on=None):
        self.name = name
        self.arity = arity
        self.lazy = lazy  # cons under need: arguments stay suspended
        self.fn = fn
        self.bound = True  # its name holds it; see builtins.py
        self.total_on = total_on  # cheap eagerness; see builtins.py


# Thunk states: forced is final (memoization); busy marks an in-progress
# forcing whose re-entry is a cyclic dependency.
TH_NEW, TH_BUSY, TH_DONE = 0, 1, 2


class Thunk:
    __slots__ = ("expr", "block", "state", "memo")

    def __init__(self, expr, block):
        self.expr = expr
        self.block = block
        self.state = TH_NEW
        self.memo = None


def _chase(v):
    # follow already-forced memo links without forcing anything new
    while type(v) is Thunk and v.state == TH_DONE:
        v = v.memo
    return v


def render(value, force, max_items=100, max_depth=20):
    """Printable form of a value. Forces on demand: list spines up to
    max_items elements, nesting up to max_depth, then an ellipsis marker."""
    return _render(value, force, max_items, max_depth, 0)


def _render(v, force, max_items, max_depth, depth):
    v = force(v)
    t = type(v)
    if t is bool:
        return "true" if v else "false"
    if t is int:
        return str(v)
    if t is str:
        body = v.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{body}"'
    if t is Sym:
        return v.name
    if t is EmptyList:
        return "()"
    if t is Pair:
        if depth >= max_depth:
            return "..."
        out = []
        node = v
        n = 0
        while True:
            if n >= max_items:
                out.append("...")
                break
            out.append(_render(node.head, force, max_items, max_depth, depth + 1))
            n += 1
            tail = _chase(node.tail)
            if type(tail) is Thunk:
                if n >= max_items:
                    out.append("...")
                    break
                tail = force(tail)
            if type(tail) is Pair:
                node = tail
                continue
            if type(tail) is EmptyList:
                break
            out.append(".")
            out.append(_render(tail, force, max_items, max_depth, depth + 1))
            break
        return "(" + " ".join(out) + ")"
    if t is Closure:
        return f"#<closure {v.struct.name}>"
    if t is Primitive:
        return f"#<prim {v.name}>"
    raise TypeError(f"unprintable value {v!r}")


def structural_eq(a, b, force):
    """Deep equality used by the = primitive; forces both spines. Closures
    and primitives compare by identity. Spines are walked in a loop, so only
    nesting through heads uses Python stack."""
    while True:
        a = force(a)
        b = force(b)
        ta = type(a)
        if ta is not type(b):
            return False
        if ta is not Pair:
            break
        if not structural_eq(a.head, b.head, force):
            return False
        a = a.tail
        b = b.tail
    if ta is EmptyList:
        return True
    if ta is Sym:
        return a.name == b.name
    if ta in (int, bool, str):
        return a == b
    return a is b


def quote_datum(sx):
    """Convert quoted program text into constant list data."""
    t = type(sx)
    if t is SSym:
        return Sym(sx.name)
    if t is SNum:
        return sx.value
    if t is SStr:
        return sx.text
    if t is SEmbed:
        return sx.value
    if t is SList:
        acc = EMPTY
        for item in reversed(sx.items):
            acc = Pair(quote_datum(item), acc)
        return acc
    raise TypeError(f"not a SourceExpr: {sx!r}")


def datum_to_source(v, force):
    """Convert list data back into program text for excla. Values with no
    written form (closures, primitives, booleans) become embedded literal
    leaves; an improper spine cannot be program text."""
    v = force(v)
    t = type(v)
    if t is int:
        return SNum(v)
    if t is str:
        return SStr(v)
    if t is Sym:
        return SSym(v.name)
    if t is EmptyList:
        return SList(())
    if t is Pair:
        items = []
        node = v
        while True:
            items.append(datum_to_source(node.head, force))
            tail = force(node.tail)
            if type(tail) is Pair:
                node = tail
                continue
            if type(tail) is EmptyList:
                return SList(items)
            raise AnalysisError("excla: improper list is not program text")
    return SEmbed(v)
