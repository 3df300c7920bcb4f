import pytest

from conftest import make_interp, run
from lambdix.errors import EvalError
from lambdix.oracle import differential_run
from lambdix.values import TH_NEW, Pair, Thunk

INT_MAX = 2**63 - 1
INT_MIN = -2**63


def last(text, strategy="need", **kw):
    rendered, _, _ = run(text, strategy, **kw)
    return rendered[-1]


def err_category(text, strategy="need"):
    interp, _ = make_interp(strategy)
    with pytest.raises(EvalError) as exc:
        interp.eval_source(text)
    return exc.value.category


# -- arithmetic ---------------------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("(+ 1 2)", "3"),
    ("(- 1 2)", "-1"),
    ("(* 3 -4)", "-12"),
    ("(/ 7 2)", "3"),
    ("(/ -7 2)", "-3"),
    ("(/ 7 -2)", "-3"),
    ("(mod 7 2)", "1"),
    ("(mod -7 2)", "-1"),
    ("(mod 7 -2)", "1"),
])
def test_arithmetic(text, expected):
    for strategy in ("value", "need"):
        assert last(text, strategy) == expected


def test_incr_style_addition():
    # closure over one addend, applied to the other
    assert last("(de (incr x) (lambda (y) (+ y x))) ((incr 3) 4)") == "7"


@pytest.mark.parametrize("text", ["(/ 1 0)", "(mod 1 0)"])
def test_division_by_zero(text):
    assert err_category(text) == "arith"


def test_overflow_detected():
    assert err_category(f"(+ {INT_MAX} 1)") == "arith"
    assert err_category(f"(* {INT_MAX} 2)") == "arith"
    assert err_category(f"(- -{2**63} 1)") == "arith"
    assert err_category(f"(/ -{2**63} -1)") == "arith"
    assert last(f"(+ {INT_MAX} 0)") == str(INT_MAX)


def test_arith_type_errors():
    assert err_category("(+ 'a 1)") == "type"
    assert err_category("(+ (= 1 1) 1)") == "type"  # booleans are not numbers


# -- comparison ---------------------------------------------------------------

def test_orderings():
    assert last("(< 1 0)") == "false"
    assert last("(< -1 0)") == "true"
    assert last("(<= 2 2)") == "true"
    assert last("(> 3 1)") == "true"
    assert last("(>= 1 3)") == "false"
    assert err_category("(< 'a 'b)") == "type"


def test_structural_equality():
    assert last("(= '(1 2) '(1 2))") == "true"
    assert last("(= '(1 2) '(1 3))") == "false"
    assert last("(= 'x 'x)") == "true"
    assert last('(= "ab" "ab")') == "true"
    assert last("(= 1 (= 1 1))") == "false"  # number vs boolean
    assert last("(= () ())") == "true"


def test_equality_forces_spines():
    interp, _ = make_interp()
    interp.eval_source("(de a (cons 1 (cons 2 ())))")
    before = interp.counters.snapshot()
    assert interp.eval_source_rendered("(= a '(1 2))") == ["true"]
    # hand trace: a's pair, then its tail (cons 2 ()); the elements and the
    # final () are literals, passed unsuspended
    assert interp.counters.delta(before)["thunks_forced"] == 2


def test_equality_walks_long_spines_without_python_recursion():
    # 720,000 elements is past the recursion limit a spine recursion would
    # need; the lists are built directly so that the test stays fast
    from lambdix.values import EMPTY, Pair
    interp, _ = make_interp()
    n = 720_000
    a = b = c = EMPTY
    for i in range(n):
        a = Pair(i, a)
        b = Pair(i, b)
        c = Pair(i if i else -1, c)
    interp.rt.top_table.update(a=a, b=b, c=c)
    assert interp.eval_source_rendered("(= a b) (= a c)") == ["true", "false"]


def test_equality_on_functions_is_identity():
    assert last("(de (f x) x) (= f f)") == "true"
    assert last("(= + +)") == "true"
    assert last("(de (f x) x) (de (g x) x) (= f g)") == "false"


# -- lists ---------------------------------------------------------------------

def test_cons_car_cdr():
    assert last("(cons 1 ())") == "(1)"
    assert last("(car '(1 2))") == "1"
    assert last("(cdr '(1 2))") == "(2)"
    assert last("(cadr '(1 2 3))") == "2"


def test_cons_strict_under_value():
    _, out, _ = run("(car (cons (print 1) (print 2)))", "value")
    assert out == "1\n2\n"


def test_car_errors():
    assert err_category("(car ())") == "type"
    assert err_category("(cdr 5)") == "type"
    assert err_category("(cadr '(1))") == "type"


def test_predicates():
    assert last("(nullist ())") == "true"
    assert last("(nullist '(1))") == "false"
    assert last("(atom 5)") == "true"
    assert last("(atom ())") == "true"
    assert last("(atom '(1))") == "false"


def test_atom_does_not_force_components():
    interp, _ = make_interp()
    interp.eval_source("(de (loop) (loop))")
    before = interp.counters.snapshot()
    assert interp.eval_source_rendered("(atom (cons (loop) (loop)))") == ["false"]
    assert interp.counters.delta(before)["thunks_forced"] == 0


def test_forced_components_are_cut_out_of_pairs():
    # a re-read of a forced component writes its memo back into the pair;
    # a component not yet forced is still returned unforced
    interp, _ = make_interp()
    results = interp.eval_source(
        "(de (two a b) (cons (+ a (car '(1))) (cons (* b (car '(2))) ())))"
        "(de l (two 2 3)) (de m (two 4 5)) (de n (two 6 7))"
        "(+ (car l) (car (cdr l))) (+ (car l) (car (cdr l)))"
        "(+ 0 (cadr m)) (cadr m) (car n)")
    assert results[4:8] == [9, 9, 10, 10]
    top = interp.rt.top_table
    l, m, n = top["l"].memo, top["m"].memo, top["n"].memo
    assert type(l.tail) is Pair and type(m.tail) is Pair
    assert (l.head, l.tail.head, m.tail.head) == (3, 6, 10)
    assert results[8] is n.head
    assert type(n.head) is Thunk and n.head.state == TH_NEW
    # the same counts as when the pairs kept their forced thunks; each of
    # the 3 components forced reads car's name once more than a component
    # (+ a 1) would have, which cheap eagerness would no longer suspend
    assert interp.counters.snapshot() == {
        "switch_tests": 8, "switch_assignments": 8, "blocks_allocated": 4,
        "lookups": 36, "thunks_created": 11, "thunks_forced": 8,
        "thunks_elided": 8}


def test_improper_pair_renders_dotted():
    assert last("(cons 1 2)") == "(1 . 2)"


# -- printing -----------------------------------------------------------------

def test_print_writes_and_returns():
    rendered, out, _ = run("(print 3)")
    assert out == "3\n"
    assert rendered == ["3"]


def test_print_forces_recursively():
    _, out, _ = run("(print (cons (+ 1 1) (cons (* 2 2) ())))")
    assert out == "(2 4)\n"


def test_print_stream_stops_at_depth():
    interp, out = make_interp(print_items=5)
    interp.eval_source("(de (rep n) (cons n (rep n))) (de ones (rep 1))")
    before = interp.counters.snapshot()
    interp.eval_source("(print ones)")
    assert out.getvalue() == "(1 1 1 1 1 ...)\n"
    # hand trace: the stream head plus four tail cells (five spine pairs);
    # the elements n and the parameters (literal 1, then local n) are
    # passed unsuspended
    assert interp.counters.delta(before)["thunks_forced"] == 5


def test_print_nesting_limit():
    interp, out = make_interp(print_nesting=3)
    interp.eval_source("(print '((((1)))))")
    assert out.getvalue() == "(((...)))\n"


def test_render_forms():
    assert last("(= 0 0)") == "true"
    assert last("(= 0 1)") == "false"
    assert last("(de (f x) x) f").startswith("#<closure f")
    assert last("+") == "#<prim +>"
    assert last('"hi"') == '"hi"'


def test_exact_five_element_list_prints_closed():
    interp, out = make_interp(print_items=100)
    interp.eval_source(
        "(de (take n l) (if (< n 1) () (cons (car l) (take (- n 1) (cdr l)))))"
        " (de (from x) (cons x (from (+ x 1))))"
        " (print (take 5 (from 1)))")
    assert out.getvalue() == "(1 2 3 4 5)\n"


def test_printer_determinism():
    a = last("'((1 2) 3)")
    b = last("'((1 2) 3)")
    assert a == b == "((1 2) 3)"


def test_strict_primitive_diverging_argument_diverges():
    from lambdix.evaluator import run_with_limit
    text = "(de (loop) (loop)) (+ 1 (loop))"
    for strategy in ("value", "need"):
        assert run_with_limit(text, strategy, 10_000).kind == "limit"


# -- exact error outcomes of the strict primitives ------------------------------
# Each case pins message and category, and with them the order of the checks:
# first argument, then second, then a zero divisor, then overflow.

_PRIMITIVE_ERRORS = []
for _op in ("+", "-", "*", "/", "mod", "<", "<=", ">", ">="):
    _num_msg = f"{_op}: expected a number"
    _PRIMITIVE_ERRORS += [
        (f"({_op} 'a 1)", "type", _num_msg),
        (f"({_op} (< 1 2) 1)", "type", _num_msg),
        (f'({_op} 1 "s")', "type", _num_msg),
        (f"({_op} 1 ())", "type", _num_msg),
        (f"({_op} 'a 0)", "type", _num_msg),
        (f"({_op} 1)", "arity", f"{_op}: expected 2 argument(s), got 1"),
    ]
for _op in ("/", "mod"):
    _PRIMITIVE_ERRORS += [
        (f"({_op} 1 0)", "arith", f"{_op}: division by zero"),
        (f"({_op} 1 'a)", "type", f"{_op}: expected a number"),
        (f"({_op} {INT_MIN} 0)", "arith", f"{_op}: division by zero"),
    ]
_PRIMITIVE_ERRORS += [
    (f"(+ {INT_MAX} 1)", "arith", "arithmetic overflow"),
    (f"(+ {INT_MIN} -1)", "arith", "arithmetic overflow"),
    (f"(- {INT_MIN} 1)", "arith", "arithmetic overflow"),
    (f"(- 0 {INT_MIN})", "arith", "arithmetic overflow"),
    (f"(* {INT_MAX} 2)", "arith", "arithmetic overflow"),
    (f"(* {INT_MIN} -1)", "arith", "arithmetic overflow"),
    (f"(/ {INT_MIN} -1)", "arith", "arithmetic overflow"),
    ("(car ())", "type", "car: empty list"),
    ("(car 1)", "type", "car: expected a pair"),
    ("(car (< 1 2))", "type", "car: expected a pair"),
    ("(cdr ())", "type", "cdr: empty list"),
    ('(cdr "s")', "type", "cdr: expected a pair"),
    ("(cadr ())", "type", "cadr: empty list"),
    ("(cadr 'a)", "type", "cadr: expected a pair"),
    ("(cadr '(1))", "type", "cadr: empty list"),
    ("(cadr (cons 1 2))", "type", "cadr: expected a pair"),
    ("(car 1 2)", "arity", "car: expected 1 argument(s), got 2"),
]


@pytest.mark.parametrize("strategy", ["value", "need"])
@pytest.mark.parametrize("text,category,message", _PRIMITIVE_ERRORS)
def test_primitive_error_outcome(text, category, message, strategy):
    # the main interpreter's side of a differential run is run_with_limit's
    result = differential_run(text, strategy)
    assert result.main[:2] == ("error", (category, message))
    assert result.equal


@pytest.mark.parametrize("strategy", ["value", "need"])
@pytest.mark.parametrize("text,expected", [
    (f"(+ {INT_MAX} 0)", str(INT_MAX)),
    (f"(- {INT_MIN} 0)", str(INT_MIN)),
    (f"(* {INT_MIN} 1)", str(INT_MIN)),
    (f"(/ {INT_MIN} 1)", str(INT_MIN)),
    (f"(mod {INT_MIN} -1)", "0"),
    ("(/ -7 -2)", "3"),
    ("(mod -7 -2)", "-1"),
    ("(= 1 (< 1 2))", "false"),
    ("(= 0 (< 2 1))", "false"),
    ("(= (< 1 2) (< 0 1))", "true"),
    ('(= "a" "a")', "true"),
    ('(= "a" "b")', "false"),
    ("(= 1 '1)", "true"),
    ("(= 1 2)", "false"),
    ("(= 'a 'a)", "true"),
    ("(= 'a 'b)", "false"),
    ("(= 'a \"a\")", "false"),
    ("(= 1 \"1\")", "false"),
    ("(= () ())", "true"),
    ("(= 1 ())", "false"),
])
def test_primitive_values_at_the_edges(text, expected, strategy):
    result = differential_run(text, strategy)
    assert result.main[:2] == ("value", (expected,))
    assert result.equal


@pytest.mark.parametrize("strategy", ["value", "need"])
def test_primitive_names_are_late_bound(strategy):
    # a later definition of a primitive's name takes effect at call sites
    # analyzed before it
    result = differential_run("(de (f x) (+ x 1)) (print (f 1))"
                              " (de (+ a b) (- a b)) (print (f 1))", strategy)
    assert (result.main[0], result.main[2]) == ("value", "2\n0\n")
    assert result.equal
