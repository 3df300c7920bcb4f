"""Surface syntax: tokenizer and s-expression reader.

Accepts UTF-8 text with `;` line comments, `'` and `!` shorthand marks,
signed 64-bit integer literals (ASCII digits with an optional sign),
double-quoted strings, and symbols made of any other run of characters
outside the delimiter set. Reading never evaluates anything.
"""

from .errors import ReadError

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1

_DELIMS = set("()'!;\"")
_WS = set(" \t\r\n\f\v")

# a shorthand mark and the operator it stands for
_MARKS = {"'": "quote", "!": "excla"}

_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", '"': '"'}
_UNESCAPES = {"\n": "\\n", "\t": "\\t", "\\": "\\\\", '"': '\\"'}


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind  # one of: ( ) ' ! num sym str
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind!r}, {self.text!r}, {self.line}:{self.col})"


class SourceExpr:
    """Base class for parsed expressions. Equality is structural and ignores
    source positions."""

    __slots__ = ("pos",)


class SSym(SourceExpr):
    __slots__ = ("name",)

    def __init__(self, name, pos=None):
        self.name = name
        self.pos = pos

    def __eq__(self, other):
        return type(other) is SSym and other.name == self.name

    def __repr__(self):
        return self.name


class SNum(SourceExpr):
    __slots__ = ("value",)

    def __init__(self, value, pos=None):
        self.value = value
        self.pos = pos

    def __eq__(self, other):
        return type(other) is SNum and other.value == self.value

    def __repr__(self):
        return str(self.value)


class SStr(SourceExpr):
    __slots__ = ("text",)

    def __init__(self, text, pos=None):
        self.text = text
        self.pos = pos

    def __eq__(self, other):
        return type(other) is SStr and other.text == self.text

    def __repr__(self):
        return to_text(self)


class SList(SourceExpr):
    __slots__ = ("items",)

    def __init__(self, items, pos=None):
        self.items = tuple(items)
        self.pos = pos

    def __eq__(self, other):
        return type(other) is SList and other.items == self.items

    def __repr__(self):
        return to_text(self)


class SEmbed(SourceExpr):
    """A runtime value embedded as a literal leaf. Never produced by the
    reader; only by the list-to-text conversion behind `excla`."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value
        self.pos = None

    def __eq__(self, other):
        return type(other) is SEmbed and other.value is self.value

    def __repr__(self):
        return f"#<embedded {self.value!r}>"


class EndOfInput(Exception):
    """Signal: the token stream holds no further expression."""


def _classify_word(text):
    # ASCII digits only: str.isdigit also accepts digits such as "²" that
    # int() rejects, and "١٢", which int() would read as 12
    body = text[1:] if text[0] in "+-" else text
    return "num" if body.isascii() and body.isdigit() else "sym"


def tokenize(text):
    """Split program text into tokens; comments and whitespace vanish."""
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in _WS:
            i += 1
            col += 1
            continue
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in "()'!":
            tokens.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch == '"':
            sl, sc = line, col
            i += 1
            col += 1
            buf = []
            while True:
                if i >= n:
                    raise ReadError("unterminated string literal", sl, sc,
                                    incomplete=True)
                ch = text[i]
                if ch == '"':
                    i += 1
                    col += 1
                    break
                if ch == "\\":
                    if i + 1 >= n:
                        raise ReadError("unterminated string literal", sl, sc,
                                        incomplete=True)
                    esc = text[i + 1]
                    if esc not in _ESCAPES:
                        raise ReadError(f"unknown escape \\{esc}", line, col)
                    buf.append(_ESCAPES[esc])
                    i += 2
                    col += 2
                    continue
                if ch == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
                buf.append(ch)
                i += 1
            tokens.append(Token("str", "".join(buf), sl, sc))
            continue
        # symbol or number: a run of non-delimiter characters
        sl, sc = line, col
        j = i
        while j < n and text[j] not in _DELIMS and text[j] not in _WS:
            j += 1
        word = text[i:j]
        col += j - i
        i = j
        tokens.append(Token(_classify_word(word), word, sl, sc))
    return tokens


def _parse_int(tok):
    value = int(tok.text)
    if not (INT_MIN <= value <= INT_MAX):
        raise ReadError("integer literal out of 64-bit range", tok.line, tok.col)
    return value


def read_expr(tokens, start=0):
    """Read one expression; returns (expr, next_index).

    Raises EndOfInput when the stream is exhausted, ReadError on malformed
    input. `'e` reads as (quote e) and `!e` as (excla e).
    """
    if start >= len(tokens):
        raise EndOfInput()
    tok = tokens[start]
    kind = tok.kind
    pos = (tok.line, tok.col)
    if kind == "num":
        return SNum(_parse_int(tok), pos), start + 1
    if kind == "sym":
        return SSym(tok.text, pos), start + 1
    if kind == "str":
        return SStr(tok.text, pos), start + 1
    if kind in _MARKS:
        try:
            inner, nxt = read_expr(tokens, start + 1)
        except EndOfInput:
            raise ReadError(f"{kind} needs a following expression", tok.line,
                            tok.col, incomplete=True) from None
        return SList((SSym(_MARKS[kind], pos), inner), pos), nxt
    if kind == "(":
        items = []
        i = start + 1
        # a mark in operator position stands for the operator symbol itself:
        # (! e) is (excla e), not a one-element list holding (excla e)
        if i < len(tokens) and tokens[i].kind in _MARKS:
            mark = tokens[i]
            items.append(SSym(_MARKS[mark.kind], (mark.line, mark.col)))
            i += 1
        while True:
            if i >= len(tokens):
                raise ReadError("unbalanced parenthesis: '(' is never closed",
                                tok.line, tok.col, incomplete=True)
            if tokens[i].kind == ")":
                return SList(items, pos), i + 1
            expr, i = read_expr(tokens, i)
            items.append(expr)
    if kind == ")":
        raise ReadError("unbalanced parenthesis: unexpected ')'",
                        tok.line, tok.col)
    raise ReadError(f"unexpected token {tok.text!r}", tok.line, tok.col)


def read_program(text):
    """Read every expression in the text; pure function, no evaluation."""
    tokens = tokenize(text)
    exprs = []
    i = 0
    while i < len(tokens):
        expr, i = read_expr(tokens, i)
        exprs.append(expr)
    return exprs


def to_text(expr):
    """Render a SourceExpr; reading the result back yields an equal tree."""
    t = type(expr)
    if t is SSym:
        return expr.name
    if t is SNum:
        return str(expr.value)
    if t is SStr:
        body = "".join(_UNESCAPES.get(c, c) for c in expr.text)
        return f'"{body}"'
    if t is SList:
        return "(" + " ".join(to_text(e) for e in expr.items) + ")"
    if t is SEmbed:
        return repr(expr)
    raise TypeError(f"not a SourceExpr: {expr!r}")
