"""Semantic golden corpus: small programs with hand-checked outcomes under
each strategy. Run by the CLI selftest and by the acceptance suite.

Expectations:
  ("last", s)        final form renders as s
  ("results", seq)   every form's rendering, in order
  ("output", s)      exactly this printed output
  ("limit",)         execution exceeds the step or depth budget
  ("error", cat)     fails with this error category
"""

from importlib import resources

from .evaluator import run_with_limit

MAPFUN = """
(de (mapfun f l)
  (if (nullist l) ()
      (cons (! (cons f (car l)))
            (mapfun f (cdr l)))))
(print (mapfun + '((1 2) (2 3) (3 4))))
"""

def _entry(name, text, **expect):
    return {"name": name, "text": text, "expect": expect}


def _same(name, text, expectation):
    return _entry(name, text, value=expectation, need=expectation)


CORPUS = [
    _same("build-const-func",
          "(de (BuildConstFunc x) (lambda (y) x))"
          " ((BuildConstFunc 0) 1) ((BuildConstFunc 0) 2)",
          ("results", ("BuildConstFunc", "0", "0"))),
    _same("identity-through-apply",
          "(de (apply f x) (f x))"
          " (de (Identity x) (apply (lambda (y) x) 2))"
          " (Identity 45)",
          ("last", "45")),
    _same("lexical-beta-term",
          "((lambda (x) ((lambda (y) ((lambda (x) y) 'B)) x)) 'A)",
          ("last", "A")),
    _entry("strictness-split",
           "(de (f x y) (if (< x 0) 1 (f (- x 1) (f x y)))) (f 1 2)",
           value=("limit",), need=("last", "1")),
    _entry("ones-stream", "(de x (cons 1 x)) (cadr x)",
           need=("last", "1")),
    _entry("naturals-stream",
           "(de (from x) (cons x (from (+ x 1)))) (cadr (from 2))",
           need=("last", "3")),
    _entry("naturals-print",
           "(de (from x) (cons x (from (+ x 1)))) (print (cadr (from 2)))",
           need=("output", "3\n")),
    _same("mapfun", MAPFUN, ("output", "(3 5 7)\n")),
    _same("de-value-result", "(de x 3)", ("results", ("3",))),
    _same("de-value-use", "(de x 3) x", ("last", "3")),
    _same("de-func-result", "(de (f x) (+ x 1))", ("results", ("f",))),
    _same("de-func-call", "(de (f x) (+ x 1)) (f 2)", ("last", "3")),
    _same("de-redefinition", "(de x 1) (de x 2) x", ("last", "2")),
    _same("self-application-loop",
          "((lambda (u) (u u)) (lambda (u) (u u)))", ("limit",)),
    _entry("whnf-car", "(de (loop) (loop)) (car (cons 1 (loop)))",
           value=("limit",), need=("last", "1")),
    _same("if-evaluates-one-branch",
          "(de (loop) (loop)) (if (< 0 1) 7 (loop))", ("last", "7")),
    _same("excla-quote-duality", "(! '(+ 1 2))", ("last", "3")),
    _same("excla-built-text", "(! (cons '+ '(1 2)))", ("last", "3")),
    _same("quote-constant-list", "'((1 2) (2 3))", ("last", "((1 2) (2 3))")),
    _same("quote-symbol", "'x", ("last", "x")),
    _same("let-sugar", "(let ((x 1)) x)", ("last", "1")),
    _same("let-mutual-functions",
          "(let ((de (ev n) (if (< n 1) (= 0 0) (od (- n 1))))"
          "      (de (od n) (if (< n 1) (= 0 1) (ev (- n 1)))))"
          "  (ev 10))",
          ("last", "true")),
    _entry("let-sibling-order",
           "(let ((de a b) (de b 1)) a)",
           value=("error", "undefined"), need=("last", "1")),
    _entry("cyclic-value", "(de x x) x",
           value=("error", "undefined"), need=("error", "cyclic")),
    _entry("cyclic-increment", "(de y (+ y 1)) y",
           value=("error", "undefined"), need=("error", "cyclic")),
    _same("undefined-name", "nosuchname", ("error", "undefined")),
    _same("shadowed-special-form", "((lambda (if) if) 5)", ("last", "5")),
    _same("closure-returning-closure",
          "(de (double-incr x) (twice (incr x)))"
          " (de (twice f) (lambda (x) (f (f x))))"
          " (de (incr x) (lambda (y) (+ y x)))"
          " ((double-incr 5) 10)",
          ("last", "20")),
    _same("incr-applied", "(de (incr x) (lambda (y) (+ y x))) ((incr 3) 4)",
          ("last", "7")),
    _same("fib-small",
          "(de (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))"
          " (fib 10)",
          ("last", "55")),
    _same("negative-compare", "(< -1 0)", ("last", "true")),
    _same("mod-positive", "(mod 7 2)", ("last", "1")),
    _same("mod-truncates", "(mod -7 2)", ("last", "-1")),
    _same("div-truncates", "(/ -7 2)", ("last", "-3")),
    _same("print-returns", "(print (+ 1 2))", ("output", "3\n")),
    # the demo program shipped in the package (programs/flipflop.lx)
    _entry("flipflop-latch",
           resources.files("lambdix").joinpath("programs/flipflop.lx")
           .read_text(),
           need=("output", "(0 1 1 1 1 1 1 1)\n(1 0 0 0 0 0 0 0)\n")),
    # a strict call clears the cells its application reads last
    # (analyzer.trim_dead); each read below comes after such a call, so a
    # cell cleared too early reads as "used before its definition"
    _same("excla-reads-after-call",
          "(de (id v) v) (de (f x) (+ (id x) (! '(+ x 1)))) (print (f 5))",
          ("output", "11\n")),
    _same("let-function-reads-after-call",
          "(de (id v) v)"
          " (print (let ((a 5) (de (g) a)) (+ (id a) (g))))",
          ("output", "10\n")),
    _same("captured-parameter-returned-after-call",
          "(de (id v) v) (de (second a b) b)"
          " (de (mk x) (second (id x) (lambda (y) (+ x y))))"
          " (print ((mk 5) 1))",
          ("output", "6\n")),
    _same("parameter-read-in-one-branch",
          "(de (id v) v)"
          " (de (f x b) (+ (id x) (if b x 0)))"
          " (de (g x b) (+ (id x) (if b 0 x)))"
          " (print (f 5 (= 0 0))) (print (g 5 (= 0 1)))",
          ("output", "10\n10\n")),
]


def check_outcome(outcome, expectation):
    kind = expectation[0]
    if kind == "limit":
        return outcome.kind == "limit"
    if kind == "error":
        return outcome.kind == "error" and outcome.payload[0] == expectation[1]
    if outcome.kind != "value":
        return False
    if kind == "last":
        return bool(outcome.payload) and outcome.payload[-1] == expectation[1]
    if kind == "results":
        return outcome.payload == tuple(expectation[1])
    if kind == "output":
        return outcome.output == expectation[1]
    raise ValueError(f"unknown expectation {expectation!r}")


def run_corpus(step_limit=1_000_000, depth_limit=20_000):
    """Run every corpus entry under every strategy it specifies; returns
    (name, strategy, ok, detail) tuples.

    The divergent entries must exhaust a bound rather than hang; a tighter
    depth bound than the interpreter default reaches the same limit-exceeded
    verdict sooner, keeping the whole corpus fast."""
    report = []
    for entry in CORPUS:
        for strategy, expectation in entry["expect"].items():
            outcome = run_with_limit(entry["text"], strategy, step_limit,
                                     depth_limit)
            ok = check_outcome(outcome, expectation)
            detail = "" if ok else f"expected {expectation!r}, got {outcome!r}"
            report.append((entry["name"], strategy, ok, detail))
    return report
