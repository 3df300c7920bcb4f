import pytest

from conftest import make_interp, run
from lambdix.analyzer import (App, CallNeed, CallValue, If, IfL, IfLK,
                              LocalRef, PrimApp, PrimE, PrimEE, PrimEK,
                              PrimEL, PrimL, PrimLK, PrimLL, TopRef)
from lambdix.errors import AnalysisError, EvalError
from lambdix.oracle import generate_program
from lambdix.reader import read_program
from lambdix.runtime import FIRST
from lambdix.evaluator import run_with_limit


def structs_by_name(interp):
    table = {}
    for s in interp.structs:
        table.setdefault(s.name, []).append(s)
    return table


def test_innermost_binding_is_hops_zero():
    interp, _ = make_interp()
    interp.eval_source("((lambda (x) x) 1)")
    lam = structs_by_name(interp)["lambda"][0]
    body = lam.body
    assert type(body) is LocalRef
    assert (body.target, body.offset, body.name) == (lam, 0, "x")
    assert lam.names[body.offset] == "x"  # a parameter slot


def test_enclosing_parameter_is_one_hop():
    interp, _ = make_interp()
    interp.eval_source("(de (BuildConstFunc x) (lambda (y) x))")
    by_name = structs_by_name(interp)
    inner = by_name["lambda"][0]
    outer = by_name["BuildConstFunc"][0]
    assert inner.parent is outer
    assert outer.parent is interp.top_struct
    assert (inner.body.target, inner.body.offset) == (outer, 0)


def test_top_level_struct_parents():
    interp, _ = make_interp()
    interp.eval_source(
        "(de (double-incr x) (twice (incr x)))"
        " (de (twice f) (lambda (x) (f (f x))))"
        " (de (incr x) (lambda (y) (+ y x)))")
    by_name = structs_by_name(interp)
    for name in ("double-incr", "twice", "incr"):
        assert by_name[name][0].parent is interp.top_struct
    # each returned lambda is a child of its defining function
    lams = by_name["lambda"]
    assert {lam.parent.name for lam in lams} == {"twice", "incr"}


def test_free_name_analyzes_as_top_ref():
    interp, _ = make_interp()
    sx = read_program("undefinedname")[0]
    compiled = interp.analyzer.analyze(sx, interp.top_struct)
    assert type(compiled) is TopRef
    # the error is deferred to evaluation
    with pytest.raises(EvalError) as exc:
        interp.eval_source("undefinedname")
    assert exc.value.category == "undefined"


def test_duplicate_parameter_rejected():
    interp, _ = make_interp()
    with pytest.raises(AnalysisError):
        interp.eval_source("(lambda (x x) x)")
    with pytest.raises(AnalysisError):
        interp.eval_source("(de (f a a) a)")


def test_duplicate_let_name_rejected():
    interp, _ = make_interp()
    with pytest.raises(AnalysisError):
        interp.eval_source("(let ((de a 1) (de a 2)) a)")


def test_malformed_forms_rejected():
    for text in ("(lambda x x)", "(lambda (x))", "(if 1 2)", "(quote)",
                 "(let ((de a 1)))", "(let (5) 1)", "(de 5 1)", "(de x)"):
        interp, _ = make_interp()
        with pytest.raises(AnalysisError):
            interp.eval_source(text)


def test_de_outside_top_or_let_rejected():
    interp, _ = make_interp()
    with pytest.raises(AnalysisError):
        interp.eval_source("(de (f x) (de y 3))")
    with pytest.raises(AnalysisError):
        interp.eval_source("(+ 1 (de y 3))")


def test_define_is_synonym():
    rendered, _, _ = run("(define x 3) (define (f y) (+ y x)) (f 4)")
    assert rendered[-1] == "7"


def test_special_form_shadowed_by_parameter():
    rendered, _, _ = run("((lambda (if) if) 5)")
    assert rendered == ["5"]
    rendered, _, _ = run("((lambda (quote) quote) 3)")
    assert rendered == ["3"]


def test_let_binding_shapes():
    rendered, _, _ = run(
        "(let ((de a 1) (b 2) (de (f x) (+ x a))) (f b))")
    assert rendered == ["3"]


def test_let_forward_reference():
    rendered, _, _ = run("(let ((de a 1) (de b a)) b)", strategy="value")
    assert rendered == ["1"]


def test_let_mutual_recursion():
    text = ("(let ((de (ev n) (if (< n 1) (= 0 0) (od (- n 1))))"
            "      (de (od n) (if (< n 1) (= 0 1) (ev (- n 1)))))"
            "  (od 9))")
    for strategy in ("value", "need"):
        rendered, _, _ = run(text, strategy=strategy)
        assert rendered == ["true"]


def test_addresses_valid_in_deep_nesting():
    text = ("(de (f a) (lambda (b) (lambda (c) (+ a (+ b c)))))"
            " (((f 1) 2) 3)")
    for strategy in ("value", "need"):
        rendered, _, _ = run(text, strategy=strategy)
        assert rendered[-1] == "6"


def test_analysis_is_strategy_independent():
    # the same analyzer output drives both evaluators; spot-check by
    # comparing compiled shapes from two interpreters
    a, _ = make_interp("value")
    b, _ = make_interp("need")
    sx = read_program("(lambda (x) (+ x 1))")[0]
    ca = a.analyzer.analyze(sx, a.top_struct)
    cb = b.analyzer.analyze(sx, b.top_struct)
    assert type(ca) is type(cb)
    assert ca.struct.body.__class__ is cb.struct.body.__class__


@pytest.mark.parametrize("seed", range(30))
def test_alpha_renaming_invariance(seed):
    # identical structure, systematically different bound names; only
    # displayed definition names may differ, so normalize those away
    import re
    unname = lambda s: re.sub(r"\bw(\d+)", r"v\1", s)
    base = generate_program(1000 + seed, prefix="v")
    renamed = generate_program(1000 + seed, prefix="w")
    for strategy in ("value", "need"):
        a = run_with_limit(base, strategy, 20_000)
        b = run_with_limit(renamed, strategy, 20_000)
        # a crash on both sides would compare equal
        assert a.kind == b.kind != "crash", (a, b)
        assert a.output == unname(b.output)
        if a.kind == "value":
            assert a.payload == tuple(unname(p) for p in b.payload)


def demands(interp):
    """name -> demand prefix as parameter names, for each struct with
    slots (a let's is empty)"""
    return {s.name: tuple(s.names[i] for i in s.demand)
            for s in interp.structs if s.names}


def test_demand_prefix_of_the_suite_functions():
    from lambdix.bench import program_source
    interp, _ = make_interp()
    for name in ("Fib", "Tak", "Sieve"):
        # the definitions only: under need they evaluate nothing
        lines = program_source(name, "need").splitlines()
        interp.eval_source("\n".join(
            line for line in lines if not line.startswith("(print")))
    got = demands(interp)
    assert got["fib"] == ("n",)
    assert got["tak"] == ("y", "x")  # the order (< y x) forces them in
    assert got["upto"] == ("b", "a")
    for name in ("strike", "sieve", "length", "last"):
        assert got[name] == ("l",)


def test_value_structs_carry_no_demand_prefix():
    # only a need call reads a prefix, so a value analyzer skips the walk;
    # the same definitions under need keep theirs, suspending the rest
    text = ("(de (tak x y z) (if (< y x) (tak z y x) z))"
            " (de (f k) (let ((de (h a b) (- b a))) (lambda (p q) (+ q p))))")
    for strategy in ("value", "need"):
        interp, _ = make_interp(strategy)
        interp.eval_source(text)
        got = {s.name: (s.demand, s.suspend) for s in interp.structs
               if s.names}
        if strategy == "value":
            assert set(got.values()) == {((), ())}
        else:
            assert got == {"tak": ((1, 0), (2,)), "f": ((), (0,)),
                           "let": ((), ()), "h": ((1, 0), ()),
                           "lambda": ((1, 0), ())}


@pytest.mark.parametrize("body,demand", [
    # literals, lambdas and quotes continue; a repeated read adds nothing
    ("(+ 1 (- (car x) y))", ("x",)),
    ("(< '(1) (+ y x))", ("y", "x")),
    # a primitive argument that is itself an application ends the walk
    ("(+ (- x 1) (- y x))", ("x",)),
    ("(= (lambda (u) u) (+ x y))", ("x", "y")),
    ("x", ("x",)),
    # an if adds its test's prefix and stops
    ("(if (< y 0) x y)", ("y",)),
    ("(if y (car x) x)", ("y",)),
    # print's argument is forced before it prints; nothing after is
    ("(+ (print y) x)", ("y",)),
    # a lazy primitive (cons under need), a closure call, a let, excla, an
    # outer or top-level read and a wrong arity stop the walk
    ("(cons x y)", ()),
    ("(+ (g x) y)", ()),
    ("(+ (let ((v 1)) v) x)", ()),
    ("(! x)", ()),
    ("(+ k x)", ()),
    ("(car x y)", ()),
])
def test_demand_prefix_walk(body, demand):
    interp, _ = make_interp()
    interp.eval_source(
        f"(de (g x) x) (de (f k) (let ((de (h x y) {body})) h))")
    assert demands(interp)["h"] == demand


# body, the class the analyzer builds for it under value, and under need
SHAPES = [
    # a top-level name of a strict primitive with its arity; cons is
    # strict under value only, and under need stays a call shape
    ("(car x)", PrimL, PrimL),
    ("(print (+ x y))", PrimE, PrimE),
    ("(+ x y)", PrimLL, PrimLL),
    ("(cons x y)", PrimLL, CallNeed),
    # one shape per operand pattern: L a local, K a literal second operand,
    # E anything else (a literal first operand is read by its own ev, and
    # a local followed by an E is the general class)
    ("(car 1)", PrimE, PrimE),
    ("(car (cdr x))", PrimE, PrimE),
    ("(+ x 1)", PrimLK, PrimLK),
    ("(+ (car x) 1)", PrimEK, PrimEK),
    ("(+ 1 2)", PrimEK, PrimEK),
    ("(+ (car x) y)", PrimEL, PrimEL),
    ("(+ 1 y)", PrimEL, PrimEL),
    ("(+ (car x) (car y))", PrimEE, PrimEE),
    ("(+ x (car y))", PrimEE, PrimEE),
    ("(= x 'a)", PrimEE, PrimEE),
    ("(+ 1 (car y))", PrimEE, PrimEE),
    ("(cons 1 2)", PrimEK, CallNeed),
    # a wrong arity, a local or non-primitive head stays a call shape
    ("(car x y)", CallValue, CallNeed),
    ("(+ x)", CallValue, CallNeed),
    ("(cons x)", CallValue, CallNeed),
    ("(car2 x)", CallValue, CallNeed),
    ("(x y)", CallValue, CallNeed),
    ("((lambda (u) u) x)", CallValue, CallNeed),
]


@pytest.mark.parametrize("body,by_value,by_need", [
    pytest.param(*row,
                 id=f"{row[0]}-{'App' if row[1] is CallValue else 'PrimApp'}")
    for row in SHAPES])
def test_primitive_shaped_applications(body, by_value, by_need):
    for strategy, shape in (("value", by_value), ("need", by_need)):
        interp, _ = make_interp(strategy)
        interp.eval_source(f"(de (h x y) {body})")
        got = structs_by_name(interp)["h"][0].body
        assert type(got) is shape
        if shape in (CallValue, CallNeed):
            continue
        assert isinstance(got, PrimApp)
        assert type(got.head) is TopRef and got.prim.name == got.head.name
        assert (got.a,) + ((got.b,) if got.b is not None else ()) == got.args
        # the operands the shape reads without an ev, flattened
        if shape in (PrimL, PrimLK, PrimLL):
            assert (got.ta, got.ia) == (got.a.target, got.a.index)
        if shape in (PrimEL, PrimLL):
            assert (got.tb, got.ib) == (got.b.target, got.b.index)
        if shape in (PrimEK, PrimLK):
            assert got.kb == got.b.value


@pytest.mark.parametrize("test,shape", [
    # a PrimL or PrimLK test makes an if shape
    ("(nullist x)", IfL),
    ("(car x)", IfL),
    ("(< x 1)", IfLK),
    # any other test stays a plain if; a quoted operand is not a literal
    ("(= x 'a)", If),
    ("(< x y)", If),
    ("(= (car x) 0)", If),
    ("(nullist (cdr x))", If),
    ("(car x y)", If),
    ("(g x)", If),
    ("x", If),
])
def test_if_shapes(test, shape):
    for strategy in ("value", "need"):
        interp, _ = make_interp(strategy)
        interp.eval_source(f"(de (g x) x) (de (h x y) (if {test} 1 2))")
        got = structs_by_name(interp)["h"][0].body
        assert type(got) is shape
        if shape is not If:
            # the test's fields, copied so that the if reads them itself
            t = got.test
            assert (got.prim, got.ta, got.ia) == (t.prim, t.ta, t.ia)
            if shape is IfLK:
                assert got.kb == t.kb == 1


def test_a_local_named_after_a_primitive_heads_an_app():
    interp, _ = make_interp()
    interp.eval_source("(de (h car x) (car x))")
    got = structs_by_name(interp)["h"][0].body
    assert type(got) is CallNeed and type(got.head) is LocalRef


@pytest.mark.parametrize("body,marked", [
    ("(f 1)", True),                  # the let's own function
    ("(g 1)", False),                 # a value binding holding a lambda
    ("(k 1)", False),                 # a (de name expr) binding
    ("(p 1)", False),                 # a parameter of the enclosing level
    ("((lambda (y) y) 1)", False),
    ("(car p)", False),
])
def test_calls_of_a_lets_own_functions_are_marked(body, marked):
    # only a call of a (de (f ...) ...) binding of the let is known to find
    # its callee's parent block current
    interp, _ = make_interp()
    interp.eval_source("(de (h p) (let ((de (f x) (f x)) (g (lambda (y) y))"
                       f" (de k p)) {body}))")
    let = structs_by_name(interp)["let"][0]
    assert let.funs == (0,)
    assert isinstance(let.body, App)
    assert let.body.parent_current is marked
    # f's own recursive call reads f from the let's slot too
    assert structs_by_name(interp)["f"][0].body.parent_current is True


def test_let_bound_and_excla_functions_have_prefixes():
    interp, _ = make_interp()
    interp.eval_source("(let ((de (h a b) (- b a))) (h 1 2))"
                       " (! '((lambda (p q) (if (< q p) p q)) 1 2))")
    got = demands(interp)
    assert (got["h"], got["lambda"]) == (("b", "a"), ("q", "p"))


def test_defining_a_primitive_name_turns_prefixes_off():
    interp, _ = make_interp()
    interp.eval_source("(de (f x) (+ x 1)) (de plus +) (f 1)")
    assert interp.demanding
    interp.eval_source("(de (+ a b) (- a b))")
    assert not interp.demanding


def closure_calls(node):
    """Every call shape under `node`, in its own level, outermost first
    and left to right."""
    found = [node] if type(node) in (CallValue, CallNeed) else []
    if isinstance(node, App):
        for sub in (node.head, *node.args):
            found += closure_calls(sub)
    elif isinstance(node, If):
        for sub in (node.test, node.then, node.orelse):
            found += closure_calls(sub)
    return found


def cleared(struct, nodes=None):
    """(head name, names of the cells it clears) for each closure call of
    a level's code, `nodes` (its body by default), as closure_calls orders
    them"""
    names = struct.names
    return [(getattr(app.head, "name", "lambda"),
             tuple(names[i - FIRST] for i in app.dead))
            for n in nodes or (struct.body,) for app in closure_calls(n)]


def test_sieve_strict_calls_clear_by_hand():
    # sieve: (strike (car l) (cdr l)) reads l last; the sieve call around
    # it reads l only through that call, so clears nothing. strike: both
    # recursive calls read p and l last. upto's call reads a and b last
    # (the cons read a before it); length's and last's calls read l last.
    from lambdix.bench import program_source
    interp, _ = make_interp("value")
    lines = program_source("Sieve", "value").splitlines()
    # the definitions only, without computing primes
    interp.eval_source("\n".join(
        line for line in lines
        if not line.startswith(("(print", "(de primes"))))
    by_name = structs_by_name(interp)
    got = {name: cleared(by_name[name][0])
           for name in ("sieve", "strike", "upto", "length", "last")}
    assert got == {
        "sieve": [("sieve", ()), ("strike", ("l",))],
        "strike": [("strike", ("p", "l")), ("strike", ("p", "l"))],
        "upto": [("upto", ("a", "b"))],
        "length": [("length", ("l",))],
        "last": [("last", ("l",))],
    }


@pytest.mark.parametrize("body,calls", [
    # an excla may read any name in scope, inside a lambda too
    ("(+ (id x) (! '(+ x 1)))", [("id", ())]),
    ("(+ (id x) ((lambda (u) (! 'u)) 1))", [("id", ()), ("lambda", ())]),
    # a captured cell stays; the others still clear
    ("(second (id x z) (lambda (y) (+ x y)))",
     [("second", ()), ("id", ("z",))]),
    ("(second (id x) (lambda (y) (lambda (u) x)))", [("second", ()), ("id", ())]),
    # an if: a cell read in either branch is live before it
    ("(+ (id x) (if z x 0))", [("id", ())]),
    ("(+ (id x) (if z 0 x))", [("id", ())]),
    # each branch clears what it reads last (z is read last in the test
    # when the first branch runs, where no call clears it), and a call
    # around the if clears what either branch read
    ("(if z (id x) (id2 x z))", [("id", ("x",)), ("id2", ("x", "z"))]),
    ("(id (if z x 0))", [("id", ("x", "z"))]),
    # a cell read again later is not cleared; the head counts as a read
    ("(+ (id x) x)", [("id", ())]),
    ("(x z)", [("x", ("x", "z"))]),
    # a let reads the cells it mentions where it stands
    ("(id (let ((a x)) a))", [("id", ("x",))]),
    ("(+ (id x) (let ((a x)) a))", [("id", ())]),
    # a let-bound function captures what it reads
    ("(id2 (id x) (let ((de (g) x)) g))", [("id2", ()), ("id", ())]),
])
def test_strict_calls_clear_what_they_read_last(body, calls):
    interp, _ = make_interp("value")
    interp.eval_source(f"(de (f x z) {body})")
    assert cleared(structs_by_name(interp)["f"][0]) == calls


def test_let_level_clears_its_own_cells():
    # the let's bindings and body are one level: g captures a, so only
    # the (g) call clears, and only the cell g; f's x is read where the
    # let stands, inside the call to id2
    interp, _ = make_interp("value")
    interp.eval_source(
        "(de (f x) (id2 (let ((a x) (de (g) a) (b 2))"
        " (+ (id a) (+ (g) (id b))))))")
    f = structs_by_name(interp)["f"][0]
    let = f.body.args[0]
    assert cleared(let.struct, (*let.bindings, let.struct.body)) == [
        ("id", ()), ("g", ("g",)), ("id", ("b",))]
    assert cleared(f) == [("id2", ("x",))]


def test_need_clears_nothing():
    # a thunk reads its creator's block whenever it is forced
    interp, _ = make_interp("need")
    interp.eval_source("(de (f x z) (+ (id x) (id z)))")
    assert cleared(structs_by_name(interp)["f"][0]) == [("id", ()), ("id", ())]
