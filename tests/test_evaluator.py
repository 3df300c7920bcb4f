import io
import itertools
import resource
import sys
import threading

import pytest

from conftest import (check_installs, check_switches, make_interp,
                      observe_installs, run)
from lambdix.analyzer import CallNeed, If, IfPrim, LetForm, PrimApp, PrimLL
from lambdix.builtins import make_primitives
from lambdix.deep import FRAMES_PER_LEVEL, RECURSION_LIMIT
from lambdix.errors import EvalError, LambdixError, LimitExceeded
from lambdix.evaluator import Interpreter, Outcome, run_with_limit
from lambdix.oracle import Oracle, differential_run
from lambdix.runtime import Counters
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
    outcome = run_with_limit(F_EXAMPLE + " (f 1 2)", "need", 1000)
    assert outcome.kind == "value"
    assert outcome.payload[-1] == "1"
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


def test_python_exception_is_a_crash_outcome(monkeypatch):
    # a defect that lets a Python exception out of the interpreter is an
    # outcome with the output printed so far; Ctrl-C propagates
    def crash(self, text):
        self.out.write("1\n")
        raise IndexError("list index out of range")

    monkeypatch.setattr(Interpreter, "eval_source_rendered", crash)
    assert run_with_limit("(print 1)", "need", 100) == Outcome(
        "crash", "IndexError: list index out of range", "1\n")

    def interrupt(self, text):
        raise KeyboardInterrupt

    monkeypatch.setattr(Interpreter, "eval_source_rendered", interrupt)
    with pytest.raises(KeyboardInterrupt):
        run_with_limit("(print 1)", "need", 100)


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
    # a primitive passed as a value is applied inline by the call that
    # reads it, so its arguments cost no frame beyond that call's
    "primitive-passed-around-the-call": (
        "(de (down n p) (if (= n 0) (probe 0) (p 1 (down (- n 1) p))))",
        "(down {} +)", ("value", "need"), 3),
    "primitive-passed-inside-a-let": (
        "(de (down n p) (if (= n 0) (probe 0)"
        " (let ((m (- n 1))) (p 1 (down m p)))))",
        "(down {} +)", ("value", "need"), 4),
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


# A function passed into a recursion and resumed inside it must read the
# ancestor's slots from its own defining block, although the recursion has
# re-pointed that ancestor since: an install that stopped at the first link
# already correct printed 0 here or ran into the step limit.
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


@pytest.mark.parametrize("strategy", ["value", "need"])
def test_let_bound_closure_maker_keeps_the_installed_chain_current(strategy):
    # a let level off the installed chain may keep a link to a block whose
    # parent is no longer current; nothing reads it before an install sets
    # the whole chain again, so only the installed chain is checked
    interp, out = make_interp(strategy)
    check_installs(interp.rt)
    interp.eval_source(GEN_SCALE)
    assert out.getvalue() == "5\n"


# A closure made at another level and called inside a let body, through a
# parameter or through a value binding, is not a let's own function: its
# install must walk, as its defining level is no longer current. The last
# program calls a let's own functions, which are marked, from a nested let
# function's let and through excla.
FOREIGN_CALLS = {
    "parameter": (
        "(de (mk a) (lambda (b) (+ a b)))"
        " (de (use g) (let ((k 1)) (g k))) (print (use (mk 10)))", "11\n"),
    "value-binding": (
        "(de (mk a) (lambda (b) (+ a b)))"
        " (de (use a) (let ((g (mk a)) (k 1)) (g k))) (print (use 10))",
        "11\n"),
    "value-binding-de": (
        "(de (mk a) (lambda (b) (+ a b)))"
        " (print (let ((de g (mk 10))) (g 1)))", "11\n"),
    "let-function-returned": (
        "(de (mk a) (let ((de (f b) (+ a b))) f))"
        " (de (use g) (let ((de (h x) (g x))) (h 1))) (print (use (mk 10)))",
        "11\n"),
    "nested-let-function": (
        "(de (t n) (let ((de (f x) (let ((de (g y) (+ n (+ x y)))) (g 1)))"
        " (k 2)) (+ (f k) (! '(f 3))))) (print (t 10))", "27\n"),
}


@pytest.mark.parametrize("strategy", ["value", "need"])
@pytest.mark.parametrize("name", sorted(FOREIGN_CALLS))
def test_closure_from_another_level_called_in_a_let(name, strategy):
    text, expected = FOREIGN_CALLS[name]
    result = differential_run(text, strategy)
    assert (result.main[0], result.main[2]) == ("value", expected)
    assert result.equal
    interp, out = make_interp(strategy)
    check_installs(interp.rt)
    interp.eval_source(text)
    assert out.getvalue() == expected


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


# (definitions, measured form, f's body class under value, under need, and
# the seven counts of the measured form under value, under need, in
# Counters.FIELDS order)
CONS_ROUTES = {
    # value: print's and f's head lookups, x read with the head's lookup
    # (2) and y (1); f's call counts its 2 positions and the kernel cons's
    # 2. need: the same 5 lookups (cons's head one, then x and y passed
    # on), f's literals and cons's locals elided, nothing suspended
    "operand-shape": (
        "(de (f x y) (cons x y))", "(print (f 1 2))", PrimLL, CallNeed,
        (1, 1, 1, 5, 4, 0, 0), (1, 1, 1, 5, 0, 0, 4)),
    # value: print's lookup, cons read as an argument and f read as a
    # head; the lambda's call counts its 1 position and the kernel 2.
    # need: cons is suspended as a top-level reference; reading f forces
    # it, which installs the top block (no test) and reads cons; cons's
    # literal components are elided
    "primitive-as-a-value": (
        "", "(print ((lambda (f) (f 1 2)) cons))", None, None,
        (1, 1, 1, 3, 3, 0, 0), (1, 1, 1, 3, 1, 1, 2)),
    # demanding off, and car's guard fails: cons's guard tests its own
    # flag, which counts nothing; under need f's call has no prefix to
    # pass, and its prefix was empty anyway
    "operand-shape-guarded": (
        "(de car cdr) (de (f x y) (cons x y))", "(print (f 1 2))",
        PrimLL, CallNeed, (1, 1, 1, 5, 4, 0, 0), (1, 1, 1, 5, 0, 0, 4)),
}


@pytest.mark.parametrize("route", sorted(CONS_ROUTES))
def test_cons_counts_the_same_by_every_route(route):
    # cons's strategy lives in its primitive: under value a strict kernel
    # that counts the 2 positions a need run creates or elides, under need
    # a lazy primitive whose application is a call shape
    defs, form, by_value, by_need, value_counts, need_counts = \
        CONS_ROUTES[route]
    for strategy, shape, counts in (("value", by_value, value_counts),
                                    ("need", by_need, need_counts)):
        interp, out = make_interp(strategy)
        interp.eval_source(defs)
        assert interp.demanding is ("car" not in defs)
        if shape is not None:
            assert type(interp.rt.top_table["f"].struct.body) is shape
        before = interp.counters.snapshot()
        interp.eval_source(form)
        assert out.getvalue() == "(1 . 2)\n"
        d = interp.counters.delta(before)
        assert tuple(d[f] for f in Counters.FIELDS) == counts
    # a need run creates or elides every position a value run counts
    assert value_counts[4] == need_counts[4] + need_counts[6]


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


# x60 forces x59 from inside its own forcing, and so on down to x0: 61
# nested forcings and no closure call, so only a forcing's own depth check
# can stop it. eval_source forces no definition as it is made (rendering
# its value would).
FORCING_TOWER = "(de x0 0) " + " ".join(f"(de x{i} (+ x{i - 1} 1))"
                                        for i in range(1, 61))


@pytest.mark.parametrize("engine", [Interpreter, Oracle])
def test_depth_limit_inside_nested_forcings_is_undone(engine):
    out = io.StringIO()
    interp = engine(depth_limit=50, out=out)
    interp.eval_source(FORCING_TOWER)
    with pytest.raises(LimitExceeded) as exc:
        interp.eval_source("(print x60)")
    assert exc.value.kind == "depth"
    assert (interp.depth, interp.steps) == (0, 0)
    if engine is Interpreter:
        assert interp.counters.thunks_forced == 0
    # every thunk the failed forcing took is new again
    interp.depth_limit = 100
    interp.eval_source("(print x60)")
    assert out.getvalue() == "60\n"
    if engine is Interpreter:
        assert interp.counters.thunks_forced == 61


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
        # a crash on both sides would compare equal
        assert direct.kind == reflected.kind == "value"
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
    # + rebound after f's nodes are built: its (+ n 1) stays suspended
    "plus-redefined-after-f": (
        "(de (f n) (g (+ n 1))) (de (g x) x) (de + *) (print (f 5))",
        "5\n", "5\n"),
    # + bound back: under value it holds its primitive again; under need
    # (rendered, so each definition is forced as it is made) a thunk whose
    # memo is the primitive, and the application stays suspended
    "plus-bound-back": (
        "(de (f n) (g (+ n 1))) (de (g x) x) (de plus +) (de + -)"
        " (de + plus) (print (f 5))", "6\n", "6\n"),
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


def _need_counts(setup, form):
    # (printed output, error or None, counter deltas) of `form` under need
    interp, out = make_interp("need")
    interp.eval_source(setup)
    before = interp.counters.snapshot()
    try:
        interp.eval_source(form)
        error = None
    except EvalError as e:
        error = (e.category, e.message)
    delta = interp.counters.delta(before)
    return out.getvalue(), error, tuple(delta[f] for f in Counters.FIELDS)


@pytest.mark.parametrize("prefixes", [True, False])
def test_call_counts_with_prefixes_on_and_off(prefixes):
    # f demands x. With prefixes on, (ident 5) runs as f's argument: x and
    # ident's z are evaluated (two elided), 7 is elided, and f and ident
    # each install one level (1 test, 1 assignment). Defining mod turns
    # prefixes off: x becomes the one thunk, forced by f's body from the
    # top block, which is current (no test), and z is passed as a literal.
    # Lookups: print's, f's and ident's heads, +'s head, x and z.
    setup = "(de (ident z) z) (de (f x y) (+ x 1))"
    if not prefixes:
        setup = "(de mod +) " + setup
    out, error, counts = _need_counts(setup, "(print (f (ident 5) 7))")
    assert (out, error) == ("6\n", None)
    # switch_tests, switch_assignments, blocks_allocated, lookups,
    # thunks_created, thunks_forced, thunks_elided
    assert counts == ((2, 2, 2, 6, 0, 0, 3) if prefixes
                      else (2, 2, 2, 6, 1, 1, 2))


def test_call_with_the_wrong_argument_count_under_need():
    # the one argument is suspended (print is not total, so it is a thunk)
    # before new_block reports the count: nothing prints, no block is made
    # and nothing is installed; the one lookup is g's head
    out, error, counts = _need_counts("(de (g a b) a)", "(g (print 1))")
    assert (out, error) == ("", ("arity", "g: expected 2 argument(s), got 1"))
    assert counts == (0, 0, 0, 1, 1, 0, 0)


# -- let bindings under need --------------------------------------------------

# (program, outcome under value, outcome under need); an outcome is the
# printed output, or ("error", (category, message))
LET_BINDINGS = {
    # a is bound while b's slot is still unset, so it stays a thunk
    "reads-a-later-sibling": (
        "(print (let ((a b) (b 1)) a))",
        ("error", ("undefined", "b is used before its definition")), "1\n"),
    # the let's own x, bound after y, not f's parameter
    "later-sibling-shadows-a-parameter": (
        "(de (f x) (let ((y x) (x 5)) y)) (print (f 1))",
        ("error", ("undefined", "x is used before its definition")), "5\n"),
    # a closure call's argument that reads a later sibling: a value call
    # reads the unset slot, a need call passes it on as a thunk
    "call-argument-reads-a-later-sibling": (
        "(de (f a b) b) (print (let ((r (f 1 z)) (z 2)) r))",
        ("error", ("undefined", "z is used before its definition")), "2\n"),
    "reads-itself": (
        "(print (let ((a a)) a))",
        ("error", ("undefined", "a is used before its definition")),
        ("error", ("cyclic", "cyclic definition: a value depends on itself"))),
    # an unused binding neither fails nor prints
    "failing-binding-unused": (
        "(print (let ((a (car 5))) 7))",
        ("error", ("type", "car: expected a pair")), "7\n"),
    "effect-unused": (
        "(de (p) (print 9)) (print (let ((a (p)) (b 2)) b))",
        "9\n2\n", "2\n"),
    # rendering x's definition runs the let, which computes (+ 1 2) as a
    # value run does: the later definition of + does not reach it
    "plus-redefined-after": (
        "(de x (let ((a (+ 1 2))) (lambda () a))) (de + -) (print (x))",
        "3\n", "3\n"),
}


@pytest.mark.parametrize("strategy", ["value", "need"])
@pytest.mark.parametrize("name", sorted(LET_BINDINGS))
def test_let_binding_agrees_with_the_oracle(name, strategy):
    text, by_value, by_need = LET_BINDINGS[name]
    expected = by_value if strategy == "value" else by_need
    result = differential_run(text, strategy)
    if type(expected) is tuple:
        assert result.main[:2] == expected
    else:
        assert (result.main[0], result.main[2]) == ("value", expected)
    assert result.equal
    # the same run again, with every link checked after each switch
    interp, out = make_interp(strategy)
    check_switches(interp.rt, interp.structs)
    try:
        interp.eval_source_rendered(text)
    except EvalError as e:
        assert result.main[:2] == ("error", (e.category, e.message))
    else:
        assert result.main[0] == "value"
    assert out.getvalue() == result.main[2]


def test_let_bindings_take_the_argument_rule():
    # t's block (1 test, 1 assignment), the let's (1, 1: it hangs from t's
    # block, which is current) and g's (1, 1: a call of the let's own
    # function, whose closure hangs from the let's block) make value's 3/3;
    # need adds no forcing, where forcing a's and g's thunks would add a
    # walk of the let's two levels each. Elided: the literal 1 (t demands
    # nothing), a = (+ 1 1) applied at once, g made a closure, and a passed
    # evaluated as g's demanded x.
    text = ("(de (t n) (let ((a (+ n 1)) (de (g x) (+ x a))) (g a)))"
            " (print (t 1))")
    counts = {}
    for strategy in ("value", "need"):
        _, out, interp = run(text, strategy)
        assert out == "4\n"
        counts[strategy] = interp.counters.snapshot()
    need = counts["need"]
    assert (need["switch_tests"], need["switch_assignments"]) == (3, 3)
    assert (need["switch_tests"], need["switch_assignments"]) == \
        (counts["value"]["switch_tests"], counts["value"]["switch_assignments"])
    assert (need["thunks_created"], need["thunks_forced"],
            need["thunks_elided"]) == (0, 0, 4)
    assert need["thunks_created"] + need["thunks_elided"] == \
        counts["value"]["thunks_created"]


def test_let_binding_reading_a_later_sibling_stays_a_thunk():
    # the literals a and e, b = (+ a 1) applied at once and c = b's 2 are
    # elided; d reads e, unset when d is bound, so it is the one thunk. The
    # let's install (1 test, 1 assignment) and d's forcing, which finds the
    # let's block current (1 test), give 2/1, where forcing all five thunks
    # gave 6/1.
    _, out, interp = run(
        "(print (let ((a 1) (b (+ a 1)) (c b) (d e) (e 5)) (+ c d)))")
    assert out == "7\n"
    c = interp.counters
    assert (c.switch_tests, c.switch_assignments) == (2, 1)
    assert (c.thunks_created, c.thunks_forced, c.thunks_elided) == (1, 1, 4)


# Every primitive at its own arity, by name.
PRIMITIVES = sorted((p.name, p.arity) for p in make_primitives(True).values())
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
# 0 also reaches the zero divisor of / and mod. The second call's x fails
# when it is forced: under value before the call, under need when the
# body forces it, inside the body when x is outside h's demand prefix, as
# in (+ (cdr y) x)
PRIM_OPERANDS = ("x", "y", "0", "'(4 5)", "(+ x 1)", "(cdr y)")
PRIM_CALLS = ("(h (+ 2 4) (cdr '(0 1 2)))", "(h (car 0) (cdr '(0 1 2)))")
# (defined before h, defined after h's nodes are built): nothing; mod
# rebound before or after, which fails the guard of mod's nodes; + rebound
# and bound back after, so that + holds its primitive again under value,
# and under need a thunk, whose call shape still runs
PRIM_PRELUDES = (("", ""), ("(de mod +)", ""), ("", "(de mod +)"),
                 ("", "(de plus +) (de + -) (de + plus)"))
# a let's first binding reads its later sibling z through a local operand
# of each shape that reads one in place; a strict let finds z unset
PRIM_LET_BODIES = ("(let ((r (car z)) (z '(1))) r)",
                   "(let ((r (+ z 1)) (z 1)) r)",
                   "(let ((r (+ z x)) (z 1)) r)",
                   "(let ((r (+ x z)) (z 1)) r)",
                   "(let ((r (+ (+ x 1) z)) (z 1)) r)")


def _run_prim_body(strategy, prelude, body, call, as_app):
    interp, out = make_interp(strategy)
    interp.eval_source(f"{prelude[0]} (de (h x y) {body})")
    struct = interp.rt.top_table["h"].struct
    # the node is h's body, or its let's first binding
    let = struct.body if type(struct.body) is LetForm else None
    node = let.bindings[0] if let else struct.body
    assert isinstance(node, PrimApp)
    if as_app:
        app = interp.analyzer.call(node.head, node.args)
        if let:
            let.bindings = (app,) + let.bindings[1:]
        else:
            struct.body = app
    interp.eval_source(prelude[1])
    before = interp.counters.snapshot()
    try:
        result = interp.eval_source_rendered(call)
    except LambdixError as e:
        result = (e.category, e.message)
    return result, out.getvalue(), interp.counters.delta(before)


@pytest.mark.parametrize("strategy", ["value", "need"])
@pytest.mark.parametrize("body", [
    f"({name} {' '.join(ops)})" for name, arity in PRIMITIVES
    for ops in itertools.product(PRIM_OPERANDS, repeat=arity)]
    + list(PRIM_LET_BODIES))
def test_primitive_shaped_node_counts_what_its_app_counts(body, strategy):
    # the same call through the primitive-shaped node and through the
    # general application it also is: the same result or error, the same
    # output and the same seven counts. cons is lazy under need, and its
    # application is the general one already
    if strategy == "need" and body.startswith("(cons "):
        interp, _ = make_interp(strategy)
        interp.eval_source(f"(de (h x y) {body})")
        assert type(interp.rt.top_table["h"].struct.body) is CallNeed
        return
    for prelude, call in itertools.product(PRIM_PRELUDES, PRIM_CALLS):
        assert _run_prim_body(strategy, prelude, body, call, False) == \
            _run_prim_body(strategy, prelude, body, call, True)


# an if whose test is a primitive shape reading a local first operand:
# alone, or with a literal second operand
IF_TESTS = [f"({name} {ops})" for name, arity in PRIMITIVES
            for ops in (("x", "y") if arity == 1 else ("x 0", "y 3", "x 1"))]
# rebinding the test's own name, to a primitive or to a closure, before
# or after h, fails the guard of the test it reads in place; binding < back
# after h makes it pass again under value only
IF_PRELUDES = PRIM_PRELUDES + (
    ("(de < >)", ""), ("", "(de < >)"), ("(de (nullist l) (atom l))", ""),
    ("", "(de (nullist l) (atom l))"), ("", "(de lt <) (de < >) (de < lt)"))
# a strict let's first binding reads its later sibling z in the test
IF_LET_BODIES = ("(let ((r (if (nullist z) 1 2)) (z '(1))) r)",
                 "(let ((r (if (< z 1) 1 2)) (z 1)) r)")


def _run_if_body(strategy, prelude, body, call, general):
    interp, out = make_interp(strategy)
    interp.eval_source(f"{prelude[0]} (de (h x y) {body})")
    struct = interp.rt.top_table["h"].struct
    # the node is h's body, or its let's first binding
    let = struct.body if type(struct.body) is LetForm else None
    node = let.bindings[0] if let else struct.body
    assert isinstance(node, IfPrim)
    if general:
        plain = If(node.test, node.then, node.orelse)
        if let:
            let.bindings = (plain,) + let.bindings[1:]
        else:
            struct.body = plain
    interp.eval_source(prelude[1])
    before = interp.counters.snapshot()
    try:
        result = interp.eval_source_rendered(call)
    except LambdixError as e:
        result = (e.category, e.message)
    return result, out.getvalue(), interp.counters.delta(before)


@pytest.mark.parametrize("strategy", ["value", "need"])
@pytest.mark.parametrize("body", [
    f"(if {test} (print 1) (print 2))" for test in IF_TESTS]
    + list(IF_LET_BODIES))
def test_if_shape_counts_what_its_if_counts(body, strategy):
    # the same call through the if shape, which applies its test's
    # primitive itself, and through the general if around the same test
    # node: the same result or error, the same output and the same seven
    # counts. cons is lazy under need, and its test is a call shape
    if strategy == "need" and "(cons " in body:
        interp, _ = make_interp(strategy)
        interp.eval_source(f"(de (h x y) {body})")
        assert type(interp.rt.top_table["h"].struct.body) is If
        return
    for prelude, call in itertools.product(IF_PRELUDES, PRIM_CALLS):
        assert _run_if_body(strategy, prelude, body, call, False) == \
            _run_if_body(strategy, prelude, body, call, True)


@pytest.mark.parametrize("strategy", ["value", "need"])
def test_rebinding_a_primitive_leaves_other_interpreters_bound(strategy,
                                                              monkeypatch):
    # every interpreter builds its own primitives, so rebinding + and < in
    # one leaves another's primitive shapes on their fast path: none of
    # them runs the call shape, and it gives a fresh interpreter's result
    # and seven counts, while the rebound one's shapes fail their guards
    defs = "(de (h x y) (if (< x 1) y (h (- x 1) (+ x y))))"
    interps = [make_interp(strategy)[0] for _ in range(3)]
    fresh, other, rebound = interps
    for interp in interps:
        interp.eval_source(defs)
    rebound.eval_source("(de + -) (de < >)")
    call = other.analyzer.call
    plain_ev, guard_failed = call.ev, set()

    def ev(node, interp, struct):
        if isinstance(node, PrimApp):
            guard_failed.add(interp)
        return plain_ev(node, interp, struct)

    monkeypatch.setattr(call, "ev", ev)
    runs = []
    for interp in interps:
        before = interp.counters.snapshot()
        runs.append((interp.eval_source("(h 10 0)"),
                     interp.counters.delta(before)))
    assert runs[0] == runs[1] and runs[0][0] == [55]
    assert runs[2][0] == [0]
    assert guard_failed == {rebound}


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
