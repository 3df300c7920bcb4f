"""Surface syntax: tokenizer, s-expression reader, and the REPL's
line-by-line reader of a pending form.

Accepts UTF-8 text with `;` line comments, `'` and `!` shorthand marks,
signed 64-bit integer literals (ASCII digits with an optional sign),
double-quoted strings, and symbols made of any other run of characters
outside the delimiter set. Reading never evaluates anything.
"""

import re
from collections import namedtuple

from .errors import ReadError

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1

# a shorthand mark and the operator it stands for
_MARKS = {"'": "quote", "!": "excla"}

_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", '"': '"'}
_UNESCAPES = {"\n": "\\n", "\t": "\\t", "\\": "\\\\", '"': '\\"'}


# a token of the public tokenize(); _lex emits the same fields as plain tuples
Token = namedtuple("Token", "kind text line col")  # kind: ( ) ' ! num sym str


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


# One match per token or comment, with the blanks before it; a newline and
# the blanks at a line's end match nothing. Numbers are ASCII digits only:
# str.isdigit also accepts digits such as "²" that int() rejects, and "١٢",
# which int() would read as 12. A string literal matches up to its closing
# quote, its first unknown escape or the end of the text searched.
_WORD = r"""[^()'!;" \t\r\n\f\v]"""
_TOKEN = re.compile(rf"""
    ([ \t\r\f\v]*)
    (?: ([()'!])
      | ([+-]?[0-9]+)(?!{_WORD})
      | ({_WORD}+)
      | ;[^\n]*
      | ("[^"\\]*(?:\\[nt\\"][^"\\]*)*) (?: (") | (\\[^nt\\"]) | \\?\Z ) )
""", re.VERBOSE)


def _lex(text, line=1):
    """Split program text into (kind, text, line, col) tuples, kind one of
    ( ) ' ! num sym str; comments and whitespace vanish. Lines count from
    `line`, columns in code points from 1."""
    tokens = []
    append = tokens.append
    col = 1
    start, n = 0, len(text)
    # one findall a line: a list of match tuples as long as a whole
    # program's tokens would leave that many tuples on CPython's free list
    while start < n:
        end = text.find("\n", start) + 1 or n
        for blanks, punct, num, sym, string, close, bad in \
                _TOKEN.findall(text, start, end):
            if blanks:
                col += len(blanks)
            if punct:
                append((punct, punct, line, col))
                col += 1
            elif sym:
                append(("sym", sym, line, col))
                col += len(sym)
            elif num:
                append(("num", num, line, col))
                col += len(num)
            elif string:
                if not close and not bad and end < n:
                    # the literal goes on past this line's end
                    m = _TOKEN.match(text, end - len(string))
                    _, _, _, _, string, close, bad = m.groups()
                    end = m.end()
                if close:
                    body = string[1:]
                    append(("str", re.sub(r"\\(.)", lambda e: _ESCAPES[e[1]],
                                          body), line, col))
                elif not bad:
                    raise ReadError("unterminated string literal", line, col,
                                    incomplete=True)
                if "\n" in string:
                    line += string.count("\n")
                    col = len(string) - string.rindex("\n")
                else:
                    col += len(string)
                if bad:
                    raise ReadError(f"unknown escape {bad}", line, col)
                col += 1  # the closing quote
        if text[end - 1] == "\n":
            line += 1
            col = 1
        start = end
    return tokens


def tokenize(text):
    """Split program text into Tokens; comments and whitespace vanish."""
    return list(map(Token._make, _lex(text)))


def _parse_int(text, line, col):
    value = int(text)
    if not (INT_MIN <= value <= INT_MAX):
        raise ReadError("integer literal out of 64-bit range", line, col)
    return value


def read_expr(tokens, start=0):
    """Read one expression from (kind, text, line, col) tokens, as _lex
    emits them or tokenize wraps them; returns (expr, next_index).

    Raises EndOfInput when the stream is exhausted, ReadError on malformed
    input. `'e` reads as (quote e) and `!e` as (excla e).
    """
    if start >= len(tokens):
        raise EndOfInput()
    kind, text, line, col = tokens[start]
    pos = (line, col)
    if kind == "(":
        items = []
        append = items.append
        i = start + 1
        # atoms are read here; only sublists and marks recurse
        try:
            while True:
                k, t, tline, tcol = tokens[i]
                if k == "sym":
                    append(SSym(t, (tline, tcol)))
                elif k == ")":
                    return SList(items, pos), i + 1
                elif k == "num":
                    append(SNum(_parse_int(t, tline, tcol), (tline, tcol)))
                elif k == "str":
                    append(SStr(t, (tline, tcol)))
                elif k in _MARKS and i == start + 1:
                    # a mark in operator position stands for the operator
                    # symbol itself: (! e) is (excla e), not a one-element
                    # list holding (excla e)
                    append(SSym(_MARKS[k], (tline, tcol)))
                else:
                    expr, i = read_expr(tokens, i)
                    append(expr)
                    continue
                i += 1
        except IndexError:
            raise ReadError("unbalanced parenthesis: '(' is never closed",
                            line, col, incomplete=True) from None
    if kind == "sym":
        return SSym(text, pos), start + 1
    if kind == "num":
        return SNum(_parse_int(text, line, col), pos), start + 1
    if kind == "str":
        return SStr(text, pos), start + 1
    if kind in _MARKS:
        try:
            inner, nxt = read_expr(tokens, start + 1)
        except EndOfInput:
            raise ReadError(f"{kind} needs a following expression", line,
                            col, incomplete=True) from None
        return SList((SSym(_MARKS[kind], pos), inner), pos), nxt
    if kind == ")":
        raise ReadError("unbalanced parenthesis: unexpected ')'", line, col)
    raise ReadError(f"unexpected token {text!r}", line, col)


def _read_all(tokens):
    exprs = []
    i = 0
    n = len(tokens)
    while i < n:
        expr, i = read_expr(tokens, i)
        exprs.append(expr)
    return exprs


def read_program(text):
    """Read every expression in the text; pure function, no evaluation."""
    return _read_all(_lex(text))


class PendingForm:
    """The lines a REPL has taken in since its last complete read.

    `feed` lexes each line once, numbering lines from the first one fed, and
    keeps the paren depth of the tokens so far. Outside a string literal a
    token never spans a line end, so the tokens of the lines fed are the
    tokens of their text. A line that ends inside a string is kept as text
    and lexed again with the next line. `read` parses the tokens once
    `feed` says that more input cannot change the outcome, so a form of n
    lines costs O(n); re-reading the whole text after every line would cost
    O(n^2).
    """

    def __init__(self):
        self.tokens = []
        self.lines = 0  # lines whose tokens are in self.tokens
        self.open = ""  # lines that end inside a string literal
        self.depth = 0  # lists open among self.tokens
        self.last = None  # kind of the last token
        self.dangling = False  # the last token is a mark awaiting its operand

    def __bool__(self):
        return bool(self.tokens or self.open)

    def feed(self, line):
        """Take in one line (without its newline). True when reading the
        text fed so far gives expressions or an error that no further input
        could change; False while more input could complete it. Raises the
        ReadError of a line whose text cannot be lexed."""
        text = self.open + line + "\n"
        try:
            tokens = _lex(text, self.lines + 1)
        except ReadError as e:
            if not e.incomplete:
                raise
            self.open = text
            return False
        self.open = ""
        self.lines += text.count("\n")
        self.tokens += tokens
        settled = False
        depth, last, dangling = self.depth, self.last, self.dangling
        for kind, word, _, _ in tokens:
            if kind == "(":
                depth += 1
            elif kind == ")":
                # a closing paren with no list to close, or where a mark
                # needs its operand, is an error
                if depth == 0 or dangling:
                    settled = True
                depth -= 1
            elif kind == "num" and not INT_MIN <= int(word) <= INT_MAX:
                settled = True
            # a mark right after "(" is the list's operator, not a prefix
            dangling = kind in _MARKS and last != "("
            last = kind
        self.depth, self.last, self.dangling = depth, last, dangling
        return settled or (depth == 0 and not dangling)

    def read(self):
        """Every expression of the text fed; raises as read_program does on
        that text."""
        return _read_all(self.tokens + _lex(self.open, self.lines + 1))


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
