import random

import pytest

from lambdix.errors import ReadError
from lambdix.reader import (PendingForm, SList, SNum, SStr, SSym, read_expr,
                            read_program, to_text, tokenize)


def kinds(text):
    return [t.kind for t in tokenize(text)]


def test_tokenize_application():
    toks = tokenize("(+ 1 2)")
    assert [(t.kind, t.text) for t in toks] == [
        ("(", "("), ("sym", "+"), ("num", "1"), ("num", "2"), (")", ")")]


def test_tokenize_quote_mark():
    assert kinds("'x") == ["'", "sym"]


def test_tokenize_excla_mark():
    assert kinds("!x") == ["!", "sym"]


def test_comment_elided():
    toks = tokenize("; c\n3")
    assert [(t.kind, t.text) for t in toks] == [("num", "3")]


def test_positions_increase():
    toks = tokenize("(a\n bb ccc)")
    positions = [(t.line, t.col) for t in toks]
    assert positions == sorted(positions)
    assert toks[2].line == 2


def test_signed_numbers():
    toks = tokenize("-5 +7 - +")
    assert [t.kind for t in toks] == ["num", "num", "sym", "sym"]


def test_only_ascii_digits_make_a_number():
    # "²" is a digit to str.isdigit that int() rejects, and int() reads the
    # Arabic-Indic "١٢" as 12: both are symbols
    toks = tokenize("² ١٢ -² +١٢ 12²")
    assert [t.kind for t in toks] == ["sym"] * 5
    assert read_program("(print ²)")[0] == SList((SSym("print"), SSym("²")))
    assert read_program("١٢")[0] == SSym("١٢")


def test_int64_range():
    assert read_program("9223372036854775807")[0].value == 2**63 - 1
    assert read_program("-9223372036854775808")[0].value == -(2**63)
    with pytest.raises(ReadError):
        read_program("9223372036854775808")


def test_unterminated_string_has_position():
    with pytest.raises(ReadError) as exc:
        tokenize('  "abc')
    assert exc.value.incomplete
    assert "1:3" in exc.value.message


def test_string_escapes():
    expr = read_program(r'"a\"b\n\\c"')[0]
    assert expr == SStr('a"b\n\\c')


def test_read_quoted_list():
    expr = read_program("'((1 2))")[0]
    assert expr == SList((SSym("quote"),
                          SList((SList((SNum(1), SNum(2))),))))


def test_read_empty_list():
    assert read_program("()")[0] == SList(())


def test_excla_in_operator_position():
    # (! e) is the excla form itself, matching the written style of the
    # operator, not a one-element list around it
    expr = read_program("(! (cons f (car l)))")[0]
    assert expr == SList((SSym("excla"),
                          SList((SSym("cons"), SSym("f"),
                                 SList((SSym("car"), SSym("l")))))))


def test_excla_prefix_matches_written_form():
    assert read_program("!x")[0] == read_program("(! x)")[0]
    assert read_program("'x")[0] == SList((SSym("quote"), SSym("x")))


def test_read_expr_returns_remainder():
    toks = tokenize("(de x 3) x")
    expr, nxt = read_expr(toks)
    assert expr == SList((SSym("de"), SSym("x"), SNum(3)))
    assert toks[nxt].text == "x"


def test_read_program_counts():
    assert len(read_program("(de x 3) x")) == 2
    assert read_program("") == []


def test_unbalanced_parens():
    with pytest.raises(ReadError) as exc:
        read_program("(a (b)")
    assert exc.value.incomplete
    with pytest.raises(ReadError) as exc:
        read_program("a)")
    assert not exc.value.incomplete


def test_mapfun_reads_as_de_form():
    text = """(de (mapfun f l)
                (if (nullist l) ()
                    (cons (! (cons f (car l)))
                          (mapfun f (cdr l)))))"""
    exprs = read_program(text)
    assert len(exprs) == 1
    assert exprs[0].items[0] == SSym("de")


# round trip: printing any SourceExpr and re-reading it gives an equal tree

_SYM_ALPHA = "abcdefgxyz+-*/<=>"


def _random_expr(rng, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        choice = rng.random()
        if choice < 0.4:
            return SNum(rng.randint(-(2**63), 2**63 - 1))
        if choice < 0.7:
            first = rng.choice(_SYM_ALPHA[:10])  # never digit-leading
            rest = "".join(rng.choice(_SYM_ALPHA) for _ in range(rng.randint(0, 5)))
            return SSym(first + rest)
        chars = ' ab"\\\n\tz'
        return SStr("".join(rng.choice(chars) for _ in range(rng.randint(0, 8))))
    return SList(tuple(_random_expr(rng, depth - 1)
                       for _ in range(rng.randint(0, 4))))


@pytest.mark.parametrize("seed", range(100))
def test_round_trip(seed):
    rng = random.Random(seed)
    expr = _random_expr(rng, 4)
    text = to_text(expr)
    back = read_program(text)
    assert back == [expr]


# the reader's contract, pinned: every token's fields, every node's source
# position, and every ReadError's (message, line, col, incomplete). Lines
# are 1-based; a column counts code points, and a tab, \f, \v or a lone \r
# is one column.

def _tree(expr):
    if type(expr) is SList:
        return (expr.pos, [_tree(e) for e in expr.items])
    return (repr(expr), expr.pos)


def _outcome(fn):
    try:
        return fn()
    except ReadError as e:
        return ("error", e.message, e.line, e.col, e.incomplete)


# (name, text, tokenize's outcome, read_program's outcome)
READER_GOLDEN = [
    ('crlf', '(a\r\nb)\r\n c',
     [('(', '(', 1, 1), ('sym', 'a', 1, 2), ('sym', 'b', 2, 1),
      (')', ')', 2, 2), ('sym', 'c', 3, 2)],
     [((1, 1), [('a', (1, 2)), ('b', (2, 1))]), ('c', (3, 2))]),
    ('tab-ff-vt', '\ta\x0cb\x0bc (\t d)',
     [('sym', 'a', 1, 2), ('sym', 'b', 1, 4), ('sym', 'c', 1, 6),
      ('(', '(', 1, 8), ('sym', 'd', 1, 11), (')', ')', 1, 12)],
     [('a', (1, 2)), ('b', (1, 4)), ('c', (1, 6)), ((1, 8), [('d', (1, 11))])]),
    ('comment-at-eof', 'x ; no newline', [('sym', 'x', 1, 1)], [('x', (1, 1))]),
    ('string-newline', '"ab\ncd" e\n f',
     [('str', 'ab\ncd', 1, 1), ('sym', 'e', 2, 5), ('sym', 'f', 3, 2)],
     [('"ab\\ncd"', (1, 1)), ('e', (2, 5)), ('f', (3, 2))]),
    ('escapes', '"\\n\\t\\\\\\"" x',
     [('str', '\n\t\\"', 1, 1), ('sym', 'x', 1, 12)],
     [('"\\n\\t\\\\\\""', (1, 1)), ('x', (1, 12))]),
    ('unknown-escape', '(a\n "b\\qc")',
     ('error', '2:4: unknown escape \\q', 2, 4, False),
     ('error', '2:4: unknown escape \\q', 2, 4, False)),
    ('backslash-at-eof', '"ab\\',
     ('error', '1:1: unterminated string literal', 1, 1, True),
     ('error', '1:1: unterminated string literal', 1, 1, True)),
    ('unterminated', '(a\n  "bc\nd',
     ('error', '2:3: unterminated string literal', 2, 3, True),
     ('error', '2:3: unterminated string literal', 2, 3, True)),
    ('quote-at-eof', "x\n  '", [('sym', 'x', 1, 1), ("'", "'", 2, 3)],
     ('error', "2:3: ' needs a following expression", 2, 3, True)),
    ('excla-at-eof', '(f !',
     [('(', '(', 1, 1), ('sym', 'f', 1, 2), ('!', '!', 1, 4)],
     ('error', '1:4: ! needs a following expression', 1, 4, True)),
    ('excla-operator', '(! (f x))',
     [('(', '(', 1, 1), ('!', '!', 1, 2), ('(', '(', 1, 4), ('sym', 'f', 1, 5),
      ('sym', 'x', 1, 7), (')', ')', 1, 8), (')', ')', 1, 9)],
     [((1, 1), [('excla', (1, 2)), ((1, 4), [('f', (1, 5)), ('x', (1, 7))])])]),
    ('quote-operator', "(' a b)",
     [('(', '(', 1, 1), ("'", "'", 1, 2), ('sym', 'a', 1, 4),
      ('sym', 'b', 1, 6), (')', ')', 1, 7)],
     [((1, 1), [('quote', (1, 2)), ('a', (1, 4)), ('b', (1, 6))])]),
    ('mark-chain', "''x (!'y)",
     [("'", "'", 1, 1), ("'", "'", 1, 2), ('sym', 'x', 1, 3), ('(', '(', 1, 5),
      ('!', '!', 1, 6), ("'", "'", 1, 7), ('sym', 'y', 1, 8),
      (')', ')', 1, 9)],
     [((1, 1),
       [('quote', (1, 1)), ((1, 2), [('quote', (1, 2)), ('x', (1, 3))])]),
      ((1, 5),
       [('excla', (1, 6)), ((1, 7), [('quote', (1, 7)), ('y', (1, 8))])])]),
    ('stray-paren', '(a) )',
     [('(', '(', 1, 1), ('sym', 'a', 1, 2), (')', ')', 1, 3),
      (')', ')', 1, 5)],
     ('error', "1:5: unbalanced parenthesis: unexpected ')'", 1, 5, False)),
    ('mark-before-paren', "(a ')",
     [('(', '(', 1, 1), ('sym', 'a', 1, 2), ("'", "'", 1, 4),
      (')', ')', 1, 5)],
     ('error', "1:5: unbalanced parenthesis: unexpected ')'", 1, 5, False)),
    ('unclosed', '(a (b\n c)',
     [('(', '(', 1, 1), ('sym', 'a', 1, 2), ('(', '(', 1, 4),
      ('sym', 'b', 1, 5), ('sym', 'c', 2, 2), (')', ')', 2, 3)],
     ('error', "1:1: unbalanced parenthesis: '(' is never closed", 1, 1, True)),
    ('out-of-range', '(f\n 9223372036854775808)',
     [('(', '(', 1, 1), ('sym', 'f', 1, 2),
      ('num', '9223372036854775808', 2, 2), (')', ')', 2, 21)],
     ('error', '2:2: integer literal out of 64-bit range', 2, 2, False)),
    ('int-bounds', '9223372036854775807 -9223372036854775808 +0',
     [('num', '9223372036854775807', 1, 1),
      ('num', '-9223372036854775808', 1, 21), ('num', '+0', 1, 42)],
     [('9223372036854775807', (1, 1)), ('-9223372036854775808', (1, 21)),
      ('0', (1, 42))]),
    ('non-ascii-digits', '(٣ ²) -١٢ +7²',
     [('(', '(', 1, 1), ('sym', '٣', 1, 2), ('sym', '²', 1, 4),
      (')', ')', 1, 5), ('sym', '-١٢', 1, 7), ('sym', '+7²', 1, 11)],
     [((1, 1), [('٣', (1, 2)), ('²', (1, 4))]), ('-١٢', (1, 7)),
      ('+7²', (1, 11))]),
    ('cr-alone', 'a\rb\r(c)',
     [('sym', 'a', 1, 1), ('sym', 'b', 1, 3), ('(', '(', 1, 5),
      ('sym', 'c', 1, 6), (')', ')', 1, 7)],
     [('a', (1, 1)), ('b', (1, 3)), ((1, 5), [('c', (1, 6))])]),
    ('code-points', 'λx "é\\n" (ü y)',
     [('sym', 'λx', 1, 1), ('str', 'é\n', 1, 4), ('(', '(', 1, 10),
      ('sym', 'ü', 1, 11), ('sym', 'y', 1, 13), (')', ')', 1, 14)],
     [('λx', (1, 1)), ('"é\\n"', (1, 4)),
      ((1, 10), [('ü', (1, 11)), ('y', (1, 13))])]),
    ('comment-between', '(a ; c ) d\n b)',
     [('(', '(', 1, 1), ('sym', 'a', 1, 2), ('sym', 'b', 2, 2),
      (')', ')', 2, 3)],
     [((1, 1), [('a', (1, 2)), ('b', (2, 2))])]),
    ('escape-after-newline', '"a\n  \\z"',
     ('error', '2:3: unknown escape \\z', 2, 3, False),
     ('error', '2:3: unknown escape \\z', 2, 3, False)),
    ('blank', ' \t\n ; only a comment\n', [], []),
]


@pytest.mark.parametrize("name,text,tokens,trees", READER_GOLDEN,
                         ids=[row[0] for row in READER_GOLDEN])
def test_reader_golden(name, text, tokens, trees):
    assert _outcome(lambda: [(t.kind, t.text, t.line, t.col)
                             for t in tokenize(text)]) == tokens
    assert _outcome(lambda: [_tree(e) for e in read_program(text)]) == trees


_FUZZ_ALPHABET = "()'! ;\"\\\n\t\r\fab7+-"


def _read_each(text):
    tokens = tokenize(text)
    exprs, i = [], 0
    while i < len(tokens):
        expr, i = read_expr(tokens, i)
        exprs.append(expr)
    return exprs


@pytest.mark.parametrize("seed", range(20))
def test_read_program_matches_read_expr_over_tokenize(seed):
    rng = random.Random(seed)
    for _ in range(200):
        text = "".join(rng.choice(_FUZZ_ALPHABET)
                       for _ in range(rng.randint(0, 30)))
        whole = _outcome(lambda: [_tree(e) for e in read_program(text)])
        each = _outcome(lambda: [_tree(e) for e in _read_each(text)])
        assert whole == each, text


# a REPL reads the lines typed since its last complete read; PendingForm
# must give, after every line and at the end of the input, what reading the
# whole text again gives

def _reread_outcomes(lines):
    outcomes, text = [], ""
    for line in lines:
        text += line + "\n"
        outcome = _outcome(lambda: [_tree(e) for e in read_program(text)])
        if type(outcome) is tuple and outcome[4]:
            outcomes.append("more")
            continue
        outcomes.append(outcome)
        text = ""
    if text:
        outcomes.append(_outcome(lambda: read_program(text)))
    return outcomes


def _pending_outcomes(lines):
    outcomes, pending = [], PendingForm()
    for line in lines:
        outcome = _outcome(lambda: pending.feed(line)
                           and [_tree(e) for e in pending.read()])
        if outcome is False:
            outcomes.append("more")
            continue
        outcomes.append(outcome)
        pending = PendingForm()
    if pending:
        outcomes.append(_outcome(pending.read))
    return outcomes


_LINE_PARTS = ["(", ")", "'", "!", " ", ";", '"', "\\", "\t", "\r", "a",
               "7", "-", "(f x)", "99999999999999999999", "\\n"]


@pytest.mark.parametrize("seed", range(20))
def test_pending_form_reads_as_the_whole_text(seed):
    rng = random.Random(seed)
    for _ in range(200):
        lines = ["".join(rng.choice(_LINE_PARTS)
                         for _ in range(rng.randint(0, 8)))
                 for _ in range(rng.randint(1, 6))]
        assert _pending_outcomes(lines) == _reread_outcomes(lines), lines


# the same three readings, on fixed inputs: every corpus program and every
# bundled program

def _fixed_programs():
    from importlib import resources

    from lambdix.corpus import CORPUS
    programs = [(entry["name"], entry["text"]) for entry in CORPUS]
    for path in sorted(resources.files("lambdix").joinpath("programs")
                       .iterdir(), key=lambda p: p.name):
        if path.name.endswith(".lx"):
            programs.append((path.name, path.read_text()))
    return programs


def _shifted(tree, lines):
    # a tree of _tree with every line number `lines` further down
    first, second = tree
    if type(second) is list:
        return ((first[0] + lines, first[1]),
                [_shifted(t, lines) for t in second])
    return (first, (second[0] + lines, second[1]))


FIXED_PROGRAMS = _fixed_programs()


@pytest.mark.parametrize("name,text", FIXED_PROGRAMS,
                         ids=[name for name, _ in FIXED_PROGRAMS])
def test_readers_agree_on_fixed_programs(name, text):
    whole = _outcome(lambda: [_tree(e) for e in read_program(text)])
    assert whole == _outcome(lambda: [_tree(e) for e in _read_each(text)])
    lines = text.split("\n")
    pending = _pending_outcomes(lines)
    assert pending == _reread_outcomes(lines)
    if type(whole) is list:
        # the forms a REPL reads, each numbered from its own first line,
        # are the program's forms in place
        forms, first = [], 0
        for k, outcome in enumerate(pending):
            if outcome != "more":
                forms += [_shifted(t, first) for t in outcome]
                first = k + 1
        assert forms == whole
