import random

import pytest

from lambdix.errors import ReadError
from lambdix.reader import (SList, SNum, SStr, SSym, read_expr, read_program,
                            to_text, tokenize)


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
