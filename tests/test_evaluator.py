import io
import itertools
import resource
import sys
import threading

import pytest

from conftest import check_switches, make_interp, observe_installs, run
from lambdix.analyzer import App, PrimApp
from lambdix.builtins import make_primitives
from lambdix.deep import FRAMES_PER_LEVEL, RECURSION_LIMIT
from lambdix.errors import EvalError, LambdixError, LimitExceeded
from lambdix.evaluator import run_with_limit
from lambdix.oracle import Oracle, differential_run
from lambdix.values import TH_DONE, Primitive, Thunk

F_EXAMPLE = "(de (f x y) (if (< x 0) 1 (f (- x 1) (f x y))))"


@pytest.mark.parametrize("strategy", ["value", "need"])
def test_funarg_downward_and_upward(strategy):
    rendered, _, _ = run(
        "(de (BuildConstFunc x) (lambda (y) x))"
        " ((BuildConstFunc 0) 1) ((BuildConstFunc 0) 2)", strategy)
    assert rendered[1:] == ["0", "0"]


@pytest.mark.parametrize("strategy", ["value", "need"])
def test_identity_unaffected_by_callers_parameter_names(strategy):
    rendered, _, _ = run(
        "(de (apply f x) (f x))"
        " (de (Identity x) (apply (lambda (y) x) 2))"
        " (Identity 45)", strategy)
    assert rendered[-1] == "45"


@pytest.mark.parametrize("strategy", ["value", "need"])
def test_lexical_reduction_of_shadowing_term(strategy):
    rendered, _, _ = run(
        "((lambda (x) ((lambda (y) ((lambda (x) y) 'B)) x)) 'A)", strategy)
    assert rendered == ["A"]


def test_strategies_differ_only_on_divergence():
    assert run_with_limit(F_EXAMPLE + " (f 1 2)", "need", 1000).payload[-1] == "1"
    outcome = run_with_limit(F_EXAMPLE + " (f 1 2)", "value", 1_000_000)
    assert outcome.kind == "limit"


def test_self_application_diverges_under_both():
    omega = "((lambda (u) (u u)) (lambda (u) (u u)))"
    for strategy in ("value", "need"):
        assert run_with_limit(omega, strategy, 50_000).kind == "limit"


def test_step_limit_is_validated():
    with pytest.raises(ValueError):
        run_with_limit("1", "need", 0)


def test_depth_limit_reported_as_limit():
    outcome = run_with_limit("(de (r n) (r (+ n 1))) (r 0)", "value",
                             10_000_000, depth_limit=50)
    assert outcome.kind == "limit"
    assert outcome.payload == "depth"


@pytest.mark.parametrize("strategy", ["value", "need"])
def test_errors_leave_without_the_interpreted_frames(strategy):
    # a traceback through every level of the recursion would take a test
    # runner minutes to format at the default depth limit
    import traceback
    interp, _ = make_interp(strategy, depth_limit=20_000)
    with pytest.raises(LimitExceeded) as exc:
        interp.eval_source("(de (r n) (r (+ n 1))) (r 0)")
    assert len(list(traceback.walk_tb(exc.value.__traceback__))) < 10
    with pytest.raises(EvalError) as exc:
        interp.eval_source("(de (d n) (if (< n 1) (car 0) (d (- n 1))))"
                           " (d 10000)")
    assert exc.value.category == "type"
    assert len(list(traceback.walk_tb(exc.value.__traceback__))) < 10


# Each shape recurses back into `down` through a primitive's arguments or
# through excla; all must reach 99,000 deep on the caller's stack.
DEEP_SHAPES = {
    "print": "(+ 1 (print (down (- n 1))))",
    "=": "(if (= (down (- n 1)) -1) -1 n)",
    "excla": "(+ 1 (! (cons 'down (cons (- n 1) ()))))",
}


@pytest.mark.parametrize("strategy", ["value", "need"])
@pytest.mark.parametrize("shape", sorted(DEEP_SHAPES))
def test_recursion_99000_calls_deep(shape, strategy):
    text = f"(de (down n) (if (< n 1) 0 {DEEP_SHAPES[shape]})) (down 99000)"
    rendered, _, _ = run(text, strategy)
    assert rendered[-1] == "99000"


def test_recursion_through_lazy_car_99000_deep():
    # cons is lazy only under need; every level applies down and forces
    # the car's thunk, so 49,500 calls nest 99,000 deep
    text = ("(de (down n) (if (< n 1) 0 (+ 1 (car (cons (down (- n 1)) ())))))"
            " (down 49500)")
    rendered, _, _ = run(text, "need")
    assert rendered[-1] == "49500"


def test_evaluation_runs_on_the_calling_thread():
    interp, _ = make_interp("need")
    threads = set()
    observe_installs(interp.rt,
                     lambda s, t, a: threads.add(threading.get_ident()))
    interp.eval_source("(de (f x) (+ x 1)) (f 1)")
    assert threads == {threading.get_ident()}


def _at_python_depth(depth, fn):
    return fn() if depth == 0 else _at_python_depth(depth - 1, fn)


@pytest.mark.parametrize("strategy", ["value", "need"])
def test_oscillating_recursion_maps_no_stack_chunk_per_crossing(strategy):
    # (down 30) spans about one CPython data-stack chunk; outside a
    # reserved chunk each of its 100 descents crosses a chunk's end and
    # faults in a fresh chunk (about 850 faults a run, from any of these
    # starting depths), inside one the run faults a few dozen times
    text = ("(de (down n) (if (< n 1) 0 (+ 1 (down (- n 1)))))"
            " (de (loop k acc) (if (< k 1) acc (loop (- k 1) (+ acc (down 30)))))"
            " (loop 100 0)")
    faults = []
    for depth in range(0, 64, 4):
        interp, _ = make_interp(strategy)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        values = _at_python_depth(depth, lambda: interp.eval_source(text))
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                      - before)
        assert values[-1] == 3000
    assert max(faults) < 300, faults


@pytest.mark.parametrize("strategy", ["value", "need"])
def test_default_depth_limit_past_the_reserved_chunk(strategy):
    # 100,000 nested calls take several times the reserved chunk; the
    # frames past it go to ordinary chunks and the limit reports as before
    interp, out = make_interp(strategy)
    with pytest.raises(LimitExceeded) as info:
        interp.eval_source("(de (r n) (+ 1 (r (+ n 1)))) (print 7) (r 0)")
    assert info.value.kind == "depth"
    assert out.getvalue() == "7\n"
    assert all(s.current_block is None
               for s in interp.structs if s is not interp.top_struct)
    assert interp.eval_source_rendered(
        "(de (twice f x) (f (f x))) (twice (lambda (y) (* y 3)) 7)"
    )[-1] == "63"


# Python frames per interpreted call: (probe 0) at the bottom of a 100-
# and a 200-deep recursion records the Python stack's height, and the
# difference, over 100, is what each level of the recursion costs. Each
# level is one depth unit, so the largest figure times the default depth
# limit must stay under the recursion limit. Entries: definition, call
# with {} for the depth, strategies, frames per level.
FRAMES_PER_CALL = {
    "primitive-around-the-call": (
        "(de (down n) (if (= n 0) (probe 0) (+ 1 (down (- n 1)))))",
        "(down {})", ("value", "need"), 3),
    "tail-call": (
        "(de (down n) (if (= n 0) (probe 0) (down (- n 1))))",
        "(down {})", ("value", "need"), 2),
    "call-inside-a-let": (
        "(de (down n) (if (= n 0) (probe 0)"
        " (let ((m (- n 1))) (+ 1 (down m)))))",
        "(down {})", ("value", "need"), 4),
    "three-arguments": (
        "(de (down n a b) (if (= n 0) (probe 0) (+ a (down (- n 1) a b))))",
        "(down {} 1 1)", ("value", "need"), 3),
    # under need cons suspends the call, and car returns it unforced
    "through-car-and-cons": (
        "(de (down n) (if (= n 0) (probe 0) (car (cons (down (- n 1)) ()))))",
        "(down {})", ("value",), 4),
}


def _python_stack_height():
    frame, height = sys._getframe(), 0
    while frame is not None:
        frame, height = frame.f_back, height + 1
    return height


@pytest.mark.parametrize("name,strategy", [
    (name, strategy) for name, entry in sorted(FRAMES_PER_CALL.items())
    for strategy in entry[2]])
def test_python_frames_per_interpreted_call(name, strategy):
    definition, call, _, frames = FRAMES_PER_CALL[name]
    heights = []

    def probe(interp, v):
        heights.append(_python_stack_height())
        return v

    interp, _ = make_interp(strategy)
    interp.rt.top_table["probe"] = Primitive("probe", 1, probe)
    interp.eval_source(f"{definition} {call.format(100)} {call.format(200)}")
    assert len(heights) == 2
    assert heights[1] - heights[0] == 100 * frames
    assert max(entry[3] for entry in FRAMES_PER_CALL.values()) \
        * interp.depth_limit < RECURSION_LIMIT


def test_frames_per_level_is_the_largest_measured():
    # the command line's largest depth limit rests on this figure
    assert FRAMES_PER_LEVEL == max(entry[3]
                                   for entry in FRAMES_PER_CALL.values())


@pytest.mark.parametrize("strategy", ["value", "need"])
def test_let_closure_reentering_its_own_function(strategy):
    # under need, down demands n, so (down k) forces m's thunk before the
    # call re-points down's struct, as a value run evaluates m up front
    text = ("(de (down n) (if (< n 1) 0 (let ((m (- n 1))"
            " (de (g k) (+ 1 (down k)))) (g m)))) (print (down 1))")
    result = differential_run(text, strategy)
    assert (result.main[0], result.main[2]) == ("value", "1\n")
    assert result.equal


# A function passed into a recursion and resumed inside it reads the
# re-pointed ancestor's slots from the wrong block: the oracle prints the
# value given, the interpreter prints 0 or runs into the step limit.
REENTERED_CLOSURES = {
    "let-closure": (
        "(de (down n f) (if (< n 1) (f 0)"
        " (let ((de (g k) (+ n k))) (down (- n 1) g))))"
        " (print (down 1 (lambda (x) x)))", "1\n"),
    "let-closure-calling-f": (
        "(de (down n f) (if (< n 1) (f 0)"
        " (let ((de (g k) (+ n (f k)))) (down (- n 1) g))))"
        " (print (down 3 (lambda (x) x)))", "6\n"),
    "lambda-closure": (
        "(de (down n f) (if (< n 1) (f 0)"
        " ((lambda (m) (down m (lambda (k) (+ n (f k))))) (- n 1))))"
        " (print (down 3 (lambda (x) x)))", "6\n"),
}


@pytest.mark.xfail(strict=True, reason=(
    "Runtime.install stops early at a link that is already correct while an "
    "ancestor has been re-pointed by a recursive call"))
@pytest.mark.parametrize("strategy", ["value", "need"])
@pytest.mark.parametrize("name", sorted(REENTERED_CLOSURES))
def test_closure_reentering_a_recursion(name, strategy):
    text, expected = REENTERED_CLOSURES[name]
    result = differential_run(text, strategy, step_limit=100_000)
    assert (result.main[0], result.main[2]) == ("value", expected)
    assert result.equal


# A let-bound function of a recursive level makes the closures the caller
# consumes after the recursion has returned; the oracle prints 5.
GEN_SCALE = ("(de (gen k n) (if (< n 1) ()"
             " (let ((de (scale a) (lambda (b) (+ a b))))"
             " (cons ((scale k) n) (gen (+ k 1) (- n 1))))))"
             " (print (car (cdr (gen 1 4))))")


@pytest.mark.parametrize("strategy", ["value", "need"])
def test_let_bound_closure_maker_in_a_recursion(strategy):
    result = differential_run(GEN_SCALE, strategy)
    assert (result.main[0], result.main[2]) == ("value", "5\n")
    assert result.equal


@pytest.mark.xfail(strict=True, reason=(
    "Runtime.install stops early at a link that is already correct and "
    "leaves an ancestor link of the let level stale"))
@pytest.mark.parametrize("strategy", ["value", "need"])
def test_let_bound_closure_maker_keeps_every_link_coherent(strategy):
    interp, out = make_interp(strategy)
    check_switches(interp.rt, interp.structs)
    interp.eval_source(GEN_SCALE)
    assert out.getvalue() == "5\n"


def test_closure_captures_defining_block():
    rendered, _, _ = run(
        "(de (counter-from n) (lambda (k) (+ n k)))"
        " (de c5 (counter-from 5)) (de c9 (counter-from 9))"
        " (c5 1) (c9 1) (c5 2)")
    assert rendered[-3:] == ["6", "10", "7"]


def test_conditional_requires_boolean():
    interp, _ = make_interp()
    with pytest.raises(EvalError) as exc:
        interp.eval_source("(if 1 2 3)")
    assert exc.value.category == "type"


def test_conditional_evaluates_one_branch_only():
    for strategy in ("value", "need"):
        rendered, out, _ = run(
            "(if (< 0 1) (print 1) (print 2))", strategy)
        assert out == "1\n"


def test_apply_non_function_is_type_error():
    interp, _ = make_interp()
    with pytest.raises(EvalError) as exc:
        interp.eval_source("(3 4)")
    assert exc.value.category == "type"


def test_arity_error_names_function():
    interp, _ = make_interp()
    with pytest.raises(EvalError) as exc:
        interp.eval_source("(de (g a b) a) (g 1)")
    assert exc.value.category == "arity"
    assert "g" in exc.value.message


# -- laziness ---------------------------------------------------------------

def test_lazy_cons_streams():
    rendered, _, _ = run("(de x (cons 1 x)) (cadr x)")
    assert rendered[-1] == "1"
    rendered, _, _ = run(
        "(de (from x) (cons x (from (+ x 1)))) (cadr (from 2))")
    assert rendered[-1] == "3"


def test_whnf_car_does_not_force_components():
    interp, _ = make_interp()
    interp.eval_source("(de (loop) (loop))")
    before = interp.counters.snapshot()
    rendered = interp.eval_source_rendered("(car (cons 1 (loop)))")
    assert rendered == ["1"]
    d = interp.counters.delta(before)
    # cons suspends (loop) and passes the literal head unsuspended; the
    # suspended tail is never forced, so loop is never entered
    assert (d["thunks_created"], d["thunks_elided"]) == (1, 1)
    assert d["thunks_forced"] == 0
    assert interp.steps == 0


def test_cdr_returns_component_unforced():
    interp, _ = make_interp()
    interp.eval_source("(de p (cons 1 2))")
    before = interp.counters.snapshot()
    interp.eval_source("(nullist (cdr p))")
    d = interp.counters.delta(before)
    # forcing stops at the spine: the pair itself; both components are
    # literals, passed unsuspended, so the tail needs no forcing
    assert (d["thunks_forced"], d["thunks_elided"]) == (1, 2)


@pytest.mark.parametrize("op", ["car", "cdr"])
def test_forced_chain_memoizes_its_value_on_every_link(op):
    # each definition's component is (op previous), which yields the
    # previous definition's component unforced: a chain of 999 thunks
    interp, _ = make_interp()
    k = 1000
    interp.eval_source("(de d0 (cons 7 7)) " + " ".join(
        f"(de d{i} (cons (car d{i - 1}) (cdr d{i - 1})))" for i in range(1, k)))
    pairs = [interp.eval_source(f"d{i}")[0] for i in range(k)]
    field = "head" if op == "car" else "tail"
    links = [getattr(p, field) for p in pairs[1:]]
    before = interp.counters.snapshot()
    assert interp.eval_source_rendered(f"({op} d{k - 1})") == ["7"]
    assert interp.counters.delta(before)["thunks_forced"] == k - 1
    # one walk down the chain leaves every link holding the value itself,
    # so a later read of any link is a single step
    assert all(type(t) is Thunk and t.state == TH_DONE and t.memo == 7
               for t in links)
    before = interp.counters.snapshot()
    for i in range(1, k):
        assert interp.eval_source_rendered(f"({op} d{i})") == ["7"]
    d = interp.counters.delta(before)
    assert (d["thunks_forced"], d["lookups"]) == (0, 2 * (k - 1))


@pytest.mark.parametrize("defs", [
    "(de p (cons (car p) 1))",
    "(de p (cons (car q) 1)) (de q (cons (car p) 2))",
])
def test_chain_back_to_itself_is_cyclic(defs):
    # the head's value is a thunk whose value is the head again
    interp, _ = make_interp()
    interp.eval_source(defs)
    for _ in range(2):
        with pytest.raises(EvalError) as exc:
            interp.eval_source_rendered("(car p)")
        assert exc.value.category == "cyclic"


def test_memoization_forces_once():
    interp, _ = make_interp()
    interp.eval_source("(de x (+ 1 2))")
    before = interp.counters.snapshot()
    assert interp.eval_source_rendered("x") == ["3"]
    assert interp.counters.delta(before)["thunks_forced"] == 1
    before = interp.counters.snapshot()
    assert interp.eval_source_rendered("x") == ["3"]
    assert interp.counters.delta(before)["thunks_forced"] == 0


def test_blackhole_detection():
    for text in ("(de x x) x", "(de x (+ x 1)) x"):
        outcome = run_with_limit(text, "need", 100_000)
        assert outcome.kind == "error"
        assert outcome.payload[0] == "cyclic"


def test_error_during_forcing_is_repeatable():
    interp, _ = make_interp()
    interp.eval_source("(de x (+ nosuch 1))")
    for _ in range(2):
        with pytest.raises(EvalError) as exc:
            interp.eval_source("x")
        assert exc.value.category == "undefined"


@pytest.mark.parametrize("a,b,printed", [("(car b)", "'(1 2)", "1\n"),
                                          ("(+ b 1)", "2", "3\n"),
                                          ("(+ 1 b)", "2", "3\n")])
def test_unset_operand_counts_its_read_once(a, b, printed):
    # under value, print's head, the primitive's head and the read of b,
    # which fails; need also reads a and forces both bindings
    text = f"(print (let ((a {a}) (b {b})) a))"
    interp, _ = make_interp("value")
    with pytest.raises(EvalError) as exc:
        interp.eval_source(text)
    assert (exc.value.category, exc.value.message) == \
        ("undefined", "b is used before its definition")
    assert interp.counters.lookups == 3
    interp, out = make_interp("need")
    interp.eval_source(text)
    assert out.getvalue() == printed
    assert interp.counters.lookups == 4


def test_forced_thunk_releases_its_environment():
    interp, _ = make_interp()
    # (car '(2)) is not an operand already computed, so the sum stays
    # suspended
    interp.eval_source("(de l (cons (+ 1 (car '(2))) ())) "
                       "(de m (cons (car '()) 1))")
    head = interp.force1(interp.rt.top_table["l"]).head
    assert (head.expr, head.block) != (None, None)
    assert interp.eval_source_rendered("(car l)") == ["3"]
    assert (head.expr, head.block, head.memo) == (None, None, 3)
    # a forcing that fails keeps both, so a retry reports the same error
    bad = interp.force1(interp.rt.top_table["m"]).head
    for _ in range(2):
        with pytest.raises(EvalError) as exc:
            interp.eval_source_rendered("(car m)")
        assert (exc.value.category, exc.value.message) == \
            ("type", "car: empty list")
        assert bad.expr is not None and bad.block is not None


def test_forced_thunks_never_exceed_created():
    from lambdix.errors import LambdixError
    from lambdix.oracle import generate_program
    for seed in range(20):
        interp, _ = make_interp(step_limit=20_000)
        try:
            interp.eval_source_rendered(generate_program(3000 + seed))
        except LambdixError:
            pass
        c = interp.counters
        assert c.thunks_forced <= c.thunks_created


# -- quote and excla ----------------------------------------------------------

def test_quote_produces_constant_data():
    rendered, _, _ = run("'(1 2) 'x '((1 2) (2 3) (3 4))")
    assert rendered == ["(1 2)", "x", "((1 2) (2 3) (3 4))"]


def test_quoted_lists_are_not_forms():
    # a quoted application stays data until excla interprets it
    rendered, _, _ = run("(car '(+ 1 2))")
    assert rendered == ["+"]


@pytest.mark.parametrize("strategy", ["value", "need"])
def test_excla_interprets_text(strategy):
    rendered, _, _ = run("(! '(+ 1 2))", strategy)
    assert rendered == ["3"]
    rendered, _, _ = run("(! (cons '+ '(1 2)))", strategy)
    assert rendered == ["3"]


@pytest.mark.parametrize("strategy", ["value", "need"])
def test_mapfun(strategy):
    from lambdix.corpus import MAPFUN
    _, out, _ = run(MAPFUN, strategy)
    assert out == "(3 5 7)\n"


def test_excla_embeds_applied_values():
    # the head of the constructed text is a closure value, not a name
    rendered, _, _ = run(
        "(de (g f) (! (cons f '(4 5)))) (g +) (g (lambda (a b) (* a b)))")
    assert rendered[-2:] == ["9", "20"]


@pytest.mark.parametrize("strategy", ["value", "need"])
@pytest.mark.parametrize("text, printed", [
    ("(de (h n) (! '(+ n 1))) (print (h 41))", "42"),
    # the text opens a level of its own and reads a name two levels up
    ("(de (f a) (let ((b 2)) (! '((lambda (c) (+ a (+ b c))) 3))))"
     " (print (f 1))", "6"),
    ("(de (f a) ((lambda (b) (! '(let ((c 3)) (+ a (+ b c))))) 2))"
     " (print (f 1))", "6"),
    # the innermost binding of a shadowed name wins
    ("(de (f x) (let ((x 5)) (! 'x))) (print (f 1))", "5"),
    # a closure made by the text keeps the site's environment
    ("(de (mk a) (! '(lambda (y) (+ a y)))) (print ((mk 2) 3))", "5"),
])
def test_excla_sees_lexical_scope_of_its_site(text, printed, strategy):
    rendered, output, _ = run(text, strategy)
    assert rendered[-1] == printed
    assert output == printed + "\n"
    assert differential_run(text, strategy).equal


@pytest.mark.parametrize("strategy", ["value", "need"])
def test_constant_excla_is_analyzed_once(strategy):
    # a quoted text is analyzed on the site's first evaluation only, so a
    # loop makes no new structure per iteration, and counts as the same
    # text written in place does
    loop = ("(de (loop n acc) (if (< n 1) acc"
            " (loop (- n 1) (+ acc {}))))")
    excla = loop.format("(! '((lambda (x) x) 1))")
    counts = []
    for n in (1, 2000):
        interp, _ = make_interp(strategy)
        assert interp.eval_source(f"{excla} (loop {n} 0)")[-1] == n
        counts.append(len(interp.structs))
        direct, _ = make_interp(strategy)
        direct.eval_source(loop.format("((lambda (x) x) 1)") + f" (loop {n} 0)")
        assert interp.counters.snapshot() == direct.counters.snapshot()
        assert len(interp.structs) == len(direct.structs)
    assert counts[0] == counts[1] == 3


def test_excla_rejects_improper_text():
    interp, _ = make_interp()
    with pytest.raises(Exception) as exc:
        interp.eval_source("(! (cons '+ 3))")
    assert getattr(exc.value, "category", None) == "analysis"


@pytest.mark.parametrize("expr", [
    "(+ 1 2)", "(cons 1 ())", "(if (< 1 2) 'a 'b)", "((lambda (x) x) 9)",
    "(let ((de k 4)) (* k k))", "(car '(7 8))", "(= '(1) '(1))",
])
def test_quote_excla_duality(expr):
    for strategy in ("value", "need"):
        direct = run_with_limit(expr, strategy, 10_000)
        reflected = run_with_limit(f"(! '{expr})", strategy, 10_000)
        assert direct.payload == reflected.payload


# -- strategy relations -------------------------------------------------------

AGREEMENT_PROGRAMS = [
    "(de (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 12)",
    "(let ((de a 1) (de (f x) (+ x a))) (f 41))",
    "(de (len l) (if (nullist l) 0 (+ 1 (len (cdr l))))) (len '(1 2 3 4))",
    "(print (* 6 7))",
]


@pytest.mark.parametrize("text", AGREEMENT_PROGRAMS)
def test_strategy_agreement(text):
    a = run_with_limit(text, "value", 100_000)
    b = run_with_limit(text, "need", 100_000)
    assert a.kind == b.kind == "value"
    assert a.payload == b.payload
    assert a.output == b.output


@pytest.mark.parametrize("text", AGREEMENT_PROGRAMS)
def test_need_terminates_within_proportional_budget(text):
    import io
    from lambdix import Interpreter
    interp = Interpreter(strategy="value", out=io.StringIO())
    interp.eval_source(text)
    budget = 4 * interp.steps + 1000
    assert run_with_limit(text, "need", budget).kind == "value"


# -- cheap eagerness under need -------------------------------------------------

# Each program with what it prints, or the error category it ends in, under
# value and under need. A total primitive on operands already computed is
# applied where a need run would suspend it; anything else stays suspended.
CHEAP_EAGERNESS = {
    # acc holds a value at every call, so each (+ acc 1) is computed at the
    # call instead of adding a link to a 50,000-deep chain of thunks
    "accumulator": (
        "(de (loop n acc) (if (< n 1) acc (loop (- n 1) (+ acc 1))))"
        " (print (loop 50000 0))", "50000\n", "50000\n"),
    # an overflow is left suspended: unused, it raises nothing under need
    "overflow-unused": (
        "(de (f x) 1) (print (f (* 9223372036854775807 2)))",
        ("error", "arith"), "1\n"),
    "overflow-used": (
        "(de (f x) x) (print (f (* 9223372036854775807 2)))",
        ("error", "arith"), ("error", "arith")),
    # l is still a thunk, so (car l) is not applied: forcing l would fail
    "car-of-a-thunk": (
        "(de (f l) (g (car l))) (de (g x) 7) (print (f (car '())))",
        ("error", "type"), "7\n"),
    "car-of-a-thunk-used": (
        "(de (f l) (g (car l))) (de (g x) (+ x 1))"
        " (print (f (cons 1 ())))", "2\n", "2\n"),
    # a redefined name fails the guard: the application stays suspended
    # and its forcing reads the new definition
    "car-redefined": (
        "(de car cdr) (de (f l) (if (atom l) 0 (g (car l)))) (de (g x) x)"
        " (print (f '(1 2)))", "(2)\n", "(2)\n"),
    "plus-redefined": (
        "(de + *) (de (f n) (g (+ n 1))) (de (g x) x) (print (f 5))",
        "5\n", "5\n"),
    # rendering c's definition calls mk, which gets (+ 1 2) computed, as a
    # value run computes it: the later definition of + does not reach it
    "plus-redefined-after": (
        "(de (mk a) (lambda () a)) (de c (mk (+ 1 2))) (de + -)"
        " (print (c))", "3\n", "3\n"),
}


@pytest.mark.parametrize("strategy", ["value", "need"])
@pytest.mark.parametrize("name", sorted(CHEAP_EAGERNESS))
def test_cheap_eagerness_agrees_with_the_oracle(name, strategy):
    text, by_value, by_need = CHEAP_EAGERNESS[name]
    expected = by_value if strategy == "value" else by_need
    result = differential_run(text, strategy, step_limit=100_000)
    if type(expected) is tuple:
        assert (result.main[0], result.main[1][0]) == expected
    else:
        assert (result.main[0], result.main[2]) == ("value", expected)
    assert result.equal


# (program, printed by eval_source under need); every other run prints 3
TOP_LEVEL_FORCING = {
    "de-then-redefine": ("(de x (+ 1 2)) (de + -) (print x)", "-1\n"),
    "closure-then-redefine": (
        "(de (mk a) (lambda () a)) (de c (mk (+ 1 2))) (de + -)"
        " (print (c))", "-1\n"),
}


@pytest.mark.parametrize("strategy", ["value", "need"])
@pytest.mark.parametrize("name", sorted(TOP_LEVEL_FORCING))
def test_top_level_definition_is_forced_when_used_unless_rendered(name,
                                                                  strategy):
    # under need a top-level de stays suspended until it is used, here
    # after + names -, unless rendering each form's value forces it as it
    # is made (the REPL, eval_source_rendered); differential_run renders,
    # so it cannot see the unrendered path
    text, by_need = TOP_LEVEL_FORCING[name]
    interp, out = make_interp(strategy)
    interp.eval_source(text)
    oracle_out = io.StringIO()
    Oracle(strategy=strategy, out=oracle_out).eval_source(text)
    assert out.getvalue() == oracle_out.getvalue()
    _, rendered_out, _ = run(text, strategy)
    expected = by_need if strategy == "need" else "3\n"
    assert (out.getvalue(), rendered_out) == (expected, "3\n")


def test_cheap_eagerness_counts_what_the_forcing_would():
    # g demands l, which (atom l) forces; f's x is then (car l) on a
    # computed pair: one elided suspension besides l's, counting car's and
    # l's lookups, with no thunk and no forcing
    interp, _ = make_interp("need")
    interp.eval_source("(de (f x) 0) (de (g l) (if (atom l) 0 (f (car l))))")
    before = interp.counters.snapshot()
    assert interp.eval_source("(g '(1))") == [0]
    delta = interp.counters.delta(before)
    assert (delta["thunks_created"], delta["thunks_forced"],
            delta["thunks_elided"]) == (0, 0, 2)
    # the heads g, atom and f, l read by atom, car's head and l read by car
    assert delta["lookups"] == 6
    # the operand is still a thunk: the application is suspended
    before = interp.counters.snapshot()
    interp.eval_source("(de (h l) (f (car l))) (h '(1))")
    delta = interp.counters.delta(before)
    assert (delta["thunks_created"], delta["thunks_elided"]) == (2, 0)


# Every primitive at its own arity, by name.
PRIMITIVES = sorted((p.name, p.arity) for p in make_primitives().values())
CHEAP_NAMES = ("car", "cdr", "nullist", "atom",
               "+", "-", "*", "<", "<=", ">", ">=", "=")


@pytest.mark.parametrize("name,operands", [
    (name, operands) for name, arity in PRIMITIVES
    for operands in (("a",) if arity == 1 else ("a b", "a 2"))])
def test_cheap_eagerness_applies_exactly_the_total_primitives(name,
                                                             operands):
    # k forces p (its demand prefix) and q (in its test) before it calls g,
    # so g's a and b hold computed values: ints, or pairs for car, cdr and
    # cadr. f ignores x, so g's argument to f is delayed and never forced.
    # The delay is measured against the same run with a literal there,
    # which counts one elided suspension and nothing else.
    args = "'(1 2) '(3 4)" if name in ("car", "cdr", "cadr") else "6 3"
    call = f"({name} {operands})"
    local_operands = sum(op in ("a", "b") for op in operands.split())

    def delta(body):
        interp, _ = make_interp("need")
        interp.eval_source(
            f"(de (f x) 0) (de (g a b) (f {body}))"
            " (de (k p q) (if (= (atom p) (atom q)) (g p q) 1))")
        before = interp.counters.snapshot()
        assert interp.eval_source(f"(k {args})") == [0]
        return interp.counters.delta(before)

    got, literal = delta(call), delta("0")
    counts = {k: got[k] - literal[k] for k in got}
    counts["thunks_elided"] += 1
    if name in CHEAP_NAMES:
        expected = (0, 0, 1, 1 + local_operands)
    else:
        expected = (1, 0, 0, 0)
    assert (counts["thunks_created"], counts["thunks_forced"],
            counts["thunks_elided"], counts["lookups"]) == expected
    assert (counts["switch_tests"], counts["switch_assignments"],
            counts["blocks_allocated"]) == (0, 0, 0)


# -- primitive-shaped nodes -----------------------------------------------------

# x is an int and y a list, each an application under need; the literal
# 0 also reaches the zero divisor of / and mod
PRIM_OPERANDS = ("x", "y", "0", "'(4 5)", "(+ x 1)", "(cdr y)")
PRIM_CALL = "(h (+ 2 4) (cdr '(0 1 2)))"


def _run_prim_body(strategy, body, as_app):
    interp, out = make_interp(strategy)
    interp.eval_source(f"(de (h x y) {body})")
    struct = interp.rt.top_table["h"].struct
    assert type(struct.body) is PrimApp
    if as_app:
        struct.body = App(struct.body.head, struct.body.args)
    before = interp.counters.snapshot()
    try:
        result = interp.eval_source_rendered(PRIM_CALL)
    except LambdixError as e:
        result = (e.category, e.message)
    return result, out.getvalue(), interp.counters.delta(before)


@pytest.mark.parametrize("strategy", ["value", "need"])
@pytest.mark.parametrize("body", [
    f"({name} {' '.join(ops)})" for name, arity in PRIMITIVES
    for ops in itertools.product(PRIM_OPERANDS, repeat=arity)])
def test_primitive_shaped_node_counts_what_its_app_counts(body, strategy):
    # the same call through the primitive-shaped node and through the
    # general application it also is: the same result or error, the same
    # output and the same seven counts
    assert _run_prim_body(strategy, body, False) == \
        _run_prim_body(strategy, body, True)


def test_strict_sieve_keeps_no_dead_list():
    # Safe for space: each sieve level's input list is dead once strike
    # has read it, and strike's cells once its recursive call has read
    # them, so a strict run holds about one list at a time rather than
    # one per level. Traced heap peak, Python 3.11: 0.33 MB when every
    # level keeps its list, 0.12 MB with the dead cells cleared. The full
    # program (2..2741) reads 4.26 and 0.62 MB, but tracemalloc walks the
    # whole Python stack on every allocation, which makes it take about
    # 50 s; the first 100 primes take about 1 s.
    import tracemalloc

    from lambdix.bench import program_source
    text = program_source("Sieve", "value").replace("(upto 2 2741)",
                                                    "(upto 2 541)")
    interp, out = make_interp("value")
    tracemalloc.start()
    try:
        interp.eval_source(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.getvalue() == "100\n541\n"
    assert peak < 200_000
