import pytest

from lambdix.builtins import make_primitives
from lambdix.corpus import CORPUS, check_outcome
from lambdix.evaluator import Outcome, run_with_limit
from lambdix.oracle import Oracle, _prims, differential_run, generate_program
from lambdix.reader import read_program, to_text


# run_corpus's step and depth limits
BOUNDS = (1_000_000, 20_000)


def test_oracle_passes_golden_corpus():
    failures = []
    for entry in CORPUS:
        for strategy, expectation in entry["expect"].items():
            outcome = run_with_limit(entry["text"], strategy, *BOUNDS,
                                     engine=Oracle)
            if not check_outcome(outcome, expectation):
                failures.append((entry["name"], strategy, outcome))
    assert not failures


def test_oracle_identity_example():
    outcome = run_with_limit(
        "(de (apply f x) (f x))"
        " (de (Identity x) (apply (lambda (y) x) 2))"
        " (Identity 45)", "value", *BOUNDS, engine=Oracle)
    assert outcome.kind == "value"
    assert outcome.payload[-1] == "45"


def test_oracle_upward_funarg():
    outcome = run_with_limit(
        "(de (BuildConstFunc x) (lambda (y) x)) ((BuildConstFunc 0) 2)",
        "need", *BOUNDS, engine=Oracle)
    assert outcome.kind == "value"
    assert outcome.payload[-1] == "0"


def test_differential_trivial_program():
    result = differential_run("(de x 3) (print x)", "need")
    assert result.equal


def test_differential_reports_outcomes():
    result = differential_run("(+ 1 2)", "value")
    # both sides in run_with_limit's shape
    assert result.main == result.oracle == Outcome("value", ("3",), "")
    assert result.equal
    result = differential_run("(car 1)", "need")
    assert result.main == result.oracle == Outcome(
        "error", ("type", "car: expected a pair"), "")


@pytest.mark.parametrize("strategy", ["value", "need"])
def test_differential_fixed_seeds(strategy):
    for seed in range(40):
        text = generate_program(5000 + seed)
        result = differential_run(text, strategy)
        assert result.equal, (
            f"seed {5000 + seed} under {strategy}:\n{text}\n"
            f"main={result.main!r}\noracle={result.oracle!r}")


def test_primitive_tables_agree():
    # the oracle keeps its own primitive table on purpose; the two must
    # still offer the same names with the same arities and laziness. The
    # oracle's one table serves both strategies; the main interpreter
    # builds one per strategy, and they differ only in cons's laziness
    def spec(table):
        return {name: (p.name, p.arity, p.lazy) for name, p in table.items()}
    need = spec(make_primitives(True))
    assert need == spec(_prims())
    value = spec(make_primitives(False))
    assert value == dict(need, cons=("cons", 2, False))
    assert need["cons"] == ("cons", 2, True)


def test_generator_is_deterministic():
    assert generate_program(123) == generate_program(123)
    assert generate_program(123) != generate_program(124)


def test_generator_prefix_changes_names_only():
    for seed in range(95, 105):
        v = generate_program(seed, "v")
        w = generate_program(seed, "w")
        assert v != w
        assert v == w.replace("w", "v")


def test_generated_programs_parse():
    # the text is what to_text prints for the forms it reads as
    for seed in range(200):
        text = generate_program(seed)
        forms = read_program(text)
        assert forms
        assert "".join(to_text(form) + "\n" for form in forms) == text


# Programs where passing a literal, a local or a demanded argument on
# unsuspended could go wrong: the argument outlives its frame, is a
# function, feeds a stream, is named by excla text, refers to itself, is
# late-bound, would raise, or has an effect whose place must not move.
SHARING_HAZARDS = {
    "effect-in-argument": (
        "(de (f x y) (+ y x))"
        " (de (g a b) (if (< a 0) b a))"
        " (de (h u v) (+ (print u) v))"
        " (print (f (print 1) (print 2)))"
        " (print (g (print 7) (print 8)))"
        " (print (h (print 4) (print 5)))",
        "2\n1\n3\n7\n7\n4\n4\n5\n9\n"),
    "escaping-parameter": (
        "(de (mk x) (lambda (y) (+ x y)))"
        " (de (wrap v) (mk v))"
        " (de f (wrap (+ 1 2)))"
        " (de (other a b) (f (+ a b)))"
        " (de (nest n) (let ((de k (* n 2))) (lambda (z) (mk k))))"
        " (print (other 10 20)) (print (f 0))"
        " (print (((nest (+ 1 1)) 0) 5))", "33\n3\n9\n"),
    "function-argument": (
        "(de (twice f x) (f (f x)))"
        " (de (compose f g) (lambda (x) (f (g x))))"
        " (de (inc n) (+ n 1))"
        " (de (app f x) (f x)) (de (pass f x) (app f x))"
        " (print (twice inc 5))"
        " (print ((compose inc (lambda (y) (* y 3))) 4))"
        " (print (pass (lambda (y) (twice inc y)) 1))", "7\n13\n3\n"),
    "stream-through-take": (
        "(de (from n) (cons n (from (+ n 1))))"
        " (de (rep x) (cons x (rep x)))"
        " (de (smap f l) (cons (f (car l)) (smap f (cdr l))))"
        " (de (take n l) (if (< n 1) () (cons (car l) (take (- n 1) (cdr l)))))"
        " (print (take 5 (from 3)))"
        " (print (take 4 (smap (lambda (v) (* v v)) (from 1))))"
        " (print (take 3 (rep (+ 2 2))))", "(3 4 5 6 7)\n(1 4 9 16)\n(4 4 4)\n"),
    "excla-names-a-local": (
        "(de (h v) (+ v 1))"
        " (de (g x) (! '(h x)))"
        " (de (k y) (let ((de z (+ y 1))) (! (cons 'h (cons 'z ())))))"
        " (print (g (* 3 4))) (print (k 5))", "13\n7\n"),
    "let-binding-reads-itself": (
        "(de (f y) (+ y 1)) (print (let ((x (f x))) x))", "cyclic"),
    "let-binding-stores-itself": (
        "(de (f y) (cons 1 y)) (print (car (cdr (let ((x (f x))) x))))",
        "1\n"),
    "top-level-name-defined-later": (
        "(de (hold a) (lambda (u) a))"
        " (de g (hold later))"
        " (print (atom g))"
        " (de later 42)"
        " (print (g 0))", "true\n42\n"),
    "chain-back-to-itself": (
        "(de p (cons (car p) 1)) (print (car p))", "cyclic"),
    "unused-argument-would-raise": (
        "(de (const a b) a)"
        " (de (f x) (const 4 x))"
        " (print (const 1 (car ())))"
        " (print (const 2 (/ 1 0)))"
        " (print (const 3 nosuch))"
        " (print (f (car ())))", "1\n2\n3\n4\n"),
}


@pytest.mark.parametrize("name", sorted(SHARING_HAZARDS))
def test_differential_sharing_hazards(name):
    text, expected = SHARING_HAZARDS[name]
    result = differential_run(text, "need")
    assert result.equal, (result.main, result.oracle)
    if result.main[0] == "error":
        assert result.main[1][0] == expected
    else:
        assert (result.main[0], result.main[2]) == ("value", expected)


# Effect order of demanded arguments: under need, a call evaluates the
# parameters its callee forces first, in the order the body forces them,
# after checking the arity and before the body runs; a callee that demands
# nothing has every argument suspended. A primitive reached as a value
# evaluates its arguments left to right, except cons under need, which
# suspends both. Each entry gives, per strategy, (outcome kind, error
# category or limit kind, printed output); an error given as (category,
# message) is checked with its message.
#
# Under need, car returns a pair's component unforced, so it is forced
# where it is used: as an if's test, or as an argument of a primitive
# reached as a value.
#
# A strict let that reads a later sibling fails on the read under value,
# here through each operand position of a primitive-shaped application,
# whose evaluator reads a set local slot in place and leaves an unset one
# to the operand's own evaluation; need suspends the binding and prints.
USED_BEFORE = ("undefined", "b is used before its definition")
TAK = ("(de (tak x y z) (if (< y x) (tak (tak (- x 1) y z) (tak (- y 1) z x)"
       " (tak (- z 1) x y)) z)) ")
EFFECT_ORDER = {
    "forced-order-not-argument-order": (
        TAK + "(print (tak (print 1) (print 2) 3))",
        {"value": ("value", None, "1\n2\n3\n"),
         "need": ("value", None, "2\n1\n3\n")}),
    "printing-argument-then-failing-one": (
        "(de (f x y) (+ y x)) (print (f (car 1) (print 2)))",
        {"value": ("error", "type", ""), "need": ("error", "type", "2\n")}),
    "arity-error-before-argument-effects": (
        "(de (f x) (+ x 1)) (print (f (print 1) 2))",
        {"value": ("error", "arity", "1\n"), "need": ("error", "arity", "")}),
    "primitive-name-redefined-after-a-call": (
        "(de (f x) (< x 1)) (print (f 0))"
        " (de (< a b) (< a b)) (print (f (car 1)))",
        {"value": ("error", "type", "true\n"),
         "need": ("limit", "step", "true\n")}),
    "shared-local-thunk-forced-once": (
        "(de (f x y) (+ x y)) (print (let ((s (print 5))) (f s s)))",
        {"value": ("value", None, "5\n10\n"),
         "need": ("value", None, "5\n10\n")}),
    "cyclic-demanded-argument": (
        "(de (f x) (+ x 1)) (print (let ((s (f s))) s))",
        {"value": ("error", "undefined", ""),
         "need": ("error", "cyclic", "")}),
    "four-arguments-none-demanded": (
        "(de (f a b c d) (cons d (cons c (cons b a))))"
        " (print (f (print 1) (print 2) (print 3) (print 4)))",
        {"value": ("value", None, "1\n2\n3\n4\n(4 3 2 . 1)\n"),
         "need": ("value", None, "4\n3\n2\n1\n(4 3 2 . 1)\n")}),
    "one-argument-primitive-as-a-value": (
        "(de (ap f x) (f x)) (print (ap car (print '(1 2))))",
        {"value": ("value", None, "(1 2)\n1\n"),
         "need": ("value", None, "(1 2)\n1\n")}),
    "two-argument-primitive-as-a-value": (
        "(de (ap f x y) (f x y)) (print (ap + (print 1) (print 2)))",
        {"value": ("value", None, "1\n2\n3\n"),
         "need": ("value", None, "1\n2\n3\n")}),
    "cons-as-a-value": (
        "(de (ap f x y) (f x y)) (print (ap cons (print 1) (print 2)))",
        {"value": ("value", None, "1\n2\n(1 . 2)\n"),
         "need": ("value", None, "1\n2\n(1 . 2)\n")}),
    "pair-component-as-an-if-test": (
        "(de (t) (< 1 2)) (print (if (car (cons (t) 0)) 1 2))",
        {"value": ("value", None, "1\n"), "need": ("value", None, "1\n")}),
    "pair-component-as-an-argument-of-a-primitive-value": (
        "(de (id f) f) (de (two) 2)"
        " (print ((id +) (car (cons (two) 0)) 1))",
        {"value": ("value", None, "3\n"), "need": ("value", None, "3\n")}),
    "cons-as-a-value-with-an-unused-failure": (
        "(de (ap f x y) (f x y)) (print (car (ap cons 1 (car 5))))",
        {"value": ("error", "type", ""), "need": ("value", None, "1\n")}),
    "let-sibling-read-early-as-the-operand-of-car": (
        "(print (let ((a (car b)) (b '(1 2))) a))",
        {"value": ("error", USED_BEFORE, ""),
         "need": ("value", None, "1\n")}),
    "let-sibling-read-early-as-the-first-operand-of-plus": (
        "(print (let ((a (+ b 1)) (b 2)) a))",
        {"value": ("error", USED_BEFORE, ""),
         "need": ("value", None, "3\n")}),
    "let-sibling-read-early-as-the-second-operand-of-plus": (
        "(print (let ((a (+ 1 b)) (b 2)) a))",
        {"value": ("error", USED_BEFORE, ""),
         "need": ("value", None, "3\n")}),
}


@pytest.mark.parametrize("strategy", ["value", "need"])
@pytest.mark.parametrize("name", sorted(EFFECT_ORDER))
def test_differential_effect_order(name, strategy):
    text, expected = EFFECT_ORDER[name]
    result = differential_run(text, strategy)
    kind, payload, output = result.main
    detail = {"value": None, "error": payload[0], "limit": payload}[kind]
    if kind == "error" and type(expected[strategy][1]) is tuple:
        detail = payload
    assert (kind, detail, output) == expected[strategy]
    assert result.equal, (result.main, result.oracle)


# Late binding and errors at primitive-shaped call sites: each program runs
# one analyzed call of car, + or cons, redefines the name, and runs the
# same call again. Each entry gives (outcome kind, the last result or the
# error's (category, message), printed output), per strategy where the two
# differ.
CAR_SITE = "(de (s x) (car x)) (print (s '(1 2))) "
PLUS_SITE = "(de (s x y) (+ x y)) (print (s 3 4)) "
CONS_SITE = "(de (s x y) (cons x y)) (print (s 3 4)) "
NOT_A_FUNCTION = ("type", "cannot apply a value that is not a function")
ARITY_CAR = ("arity", "car: expected 1 argument(s), got 2")
ARITY_PLUS = ("arity", "+: expected 2 argument(s), got 1")
LATE_BINDING = {
    "car-as-closure": (
        CAR_SITE + "(de (car x) (cdr x)) (print (s '(1 2)))",
        ("value", "(2)", "1\n(2)\n")),
    # a thunk under need, a closure under value
    "car-as-lambda-value": (
        CAR_SITE + "(de car (lambda (x) 7)) (print (s '(1 2)))",
        ("value", "7", "1\n7\n")),
    "car-as-two-argument-primitive": (
        CAR_SITE + "(de car +) (print (s '(1 2)))",
        ("error", ARITY_PLUS, "1\n")),
    "car-as-number": (
        CAR_SITE + "(de car 5) (print (s '(1 2)))",
        ("error", NOT_A_FUNCTION, "1\n")),
    "car-as-other-one-argument-primitive": (
        CAR_SITE + "(de car cdr) (print (s '(1 2)))",
        ("value", "(2)", "1\n(2)\n")),
    "car-as-itself": (
        CAR_SITE + "(de car car) (print (s '(1 2)))",
        {"value": ("value", "1", "1\n1\n"),
         "need": ("error", ("cyclic", "cyclic definition: a value depends "
                            "on itself"), "1\n")}),
    "plus-as-closure": (
        PLUS_SITE + "(de (+ a b) (- a b)) (print (s 3 4))",
        ("value", "-1", "7\n-1\n")),
    "plus-as-lambda-value": (
        PLUS_SITE + "(de + (lambda (a b) 8)) (print (s 3 4))",
        ("value", "8", "7\n8\n")),
    "plus-as-one-argument-primitive": (
        PLUS_SITE + "(de + car) (print (s 3 4))",
        ("error", ARITY_CAR, "7\n")),
    "plus-as-number": (
        PLUS_SITE + "(de + 5) (print (s 3 4))",
        ("error", NOT_A_FUNCTION, "7\n")),
    # the lazy primitive at a strict one's call site: a thunk under need,
    # under value the node's guard fails and it runs as its call shape
    "plus-as-cons": (
        PLUS_SITE + "(de + cons) (print (s 3 4))",
        ("value", "(3 . 4)", "7\n(3 . 4)\n")),
    "cons-as-closure": (
        CONS_SITE + "(de (cons a b) (- a b)) (print (s 3 4))",
        ("value", "-1", "(3 . 4)\n-1\n")),
    "cons-as-lambda-value": (
        CONS_SITE + "(de cons (lambda (a b) 8)) (print (s 3 4))",
        ("value", "8", "(3 . 4)\n8\n")),
    "cons-as-one-argument-primitive": (
        CONS_SITE + "(de cons car) (print (s 3 4))",
        ("error", ARITY_CAR, "(3 . 4)\n")),
    "cons-as-number": (
        CONS_SITE + "(de cons 5) (print (s 3 4))",
        ("error", NOT_A_FUNCTION, "(3 . 4)\n")),
    # a strict primitive at a lazy one's call site: a thunk under need,
    # under value the node's guard fails and it runs as its call shape
    "cons-as-plus": (
        CONS_SITE + "(de cons +) (print (s 3 4))",
        ("value", "7", "(3 . 4)\n7\n")),
    "car-with-two-arguments": (
        "(print (car '(1) 2))", ("error", ARITY_CAR, "")),
    "plus-with-one-argument": (
        "(print (+ 1))", ("error", ARITY_PLUS, "")),
    "excla-car-as-closure": (
        "(print (! '(car '(1 2)))) (de (car x) (cdr x))"
        " (print (! '(car '(1 2))))",
        ("value", "(2)", "1\n(2)\n")),
    "excla-plus-as-one-argument-primitive": (
        "(print (! '(+ 1 2))) (de + car) (print (! '(+ 1 2)))",
        ("error", ARITY_CAR, "3\n")),
    "excla-cons-as-plus": (
        "(print (! '(cons 1 2))) (de cons +) (print (! '(cons 1 2)))",
        ("value", "3", "(1 . 2)\n3\n")),
    "excla-plus-with-one-argument": (
        "(print (! '(+ 1)))", ("error", ARITY_PLUS, "")),
}


@pytest.mark.parametrize("strategy", ["value", "need"])
@pytest.mark.parametrize("name", sorted(LATE_BINDING))
def test_differential_late_binding_at_primitive_call_sites(name, strategy):
    text, expected = LATE_BINDING[name]
    if type(expected) is dict:
        expected = expected[strategy]
    result = differential_run(text, strategy)
    kind, payload, output = result.main
    detail = payload if kind == "error" else payload[-1]
    assert (kind, detail, output) == expected
    assert result.equal, (result.main, result.oracle)
