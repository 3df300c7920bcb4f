"""Workload inputs for the Lambdix benchmark.

Each workload is a fixed list of ops that one pass runs in order. An op is
either a whole program evaluated on a fresh ``Interpreter`` or one form of a
REPL session that shares one ``Interpreter`` per pass. The seed picks
constants, identifier numbers and the order of ops, never the amount of
work: every seed runs the same closure applications, switches and forcings,
so the cost counters are the same for every seed and timings differ only by
noise.

Expected outputs are hand-written for the six paper programs and come from
``lambdix.oracle`` for everything generated here; the interpreter under test
never supplies its own expectations.
"""

import io
import random
from collections import namedtuple

Op = namedtuple("Op", "label strategy text")

Workload = namedtuple("Workload", "name session ops expected record_passes")
# session: the ops are the forms of one REPL session under call-by-need,
#          replayed on a fresh Interpreter each pass; otherwise every op is
#          a program on its own fresh Interpreter
# expected: printed output per op, or None when the oracle supplies it
# record_passes: how many passes keep per-op times, so that the number of
#          op samples (and the tail percentile it selects) does not grow
#          when the program gets faster

WORKLOADS = ("suite-value", "suite-need", "nested-scopes", "repl-session")

# about the number of passes a 20-second run completes at the seed commit
_RECORD_PASSES = {"suite-value": 3, "suite-need": 4, "nested-scopes": 16,
                  "repl-session": 30}

# printed output of the six programs of lambdix.bench; the same under both
# strategies
SUITE_EXPECTED = {
    "Fib": "6765\n",
    "Fib2": "6765\n",
    "Tak": "7\n",
    "LComp": "false\n",
    "Sieve": "400\n2741\n",
    "LSum": "258\n",
}

# The tiny size keeps the two cheapest programs of each strategy.
_SUITE_TINY = {"value": ("Fib", "Fib2"), "need": ("LComp", "LSum")}

# -- nested-scopes ------------------------------------------------------------
# Closures and thunks born 3 to 8 lexical levels deep and resumed from the
# top level, so that install/restore walks several levels and lookups hop
# several parents. {k}, {j} are seed constants; {n}, {t} set the size.

_NESTED = {
    # six-level closure instances made in different blocks, called in turn
    # from a top-level loop: each call installs the whole chain
    "alternating": """
(de (mk a)
  (lambda (b)
    (lambda (c)
      (lambda (d)
        (lambda (e)
          (lambda (x) (+ x (+ a (+ b (+ c (+ d e)))))))))))
(de (inst a) (((((mk a) (+ a 1)) (+ a 2)) (+ a 3)) (+ a 4)))
(de f (inst {k}))
(de g (inst {j}))
(de (alt n acc) (if (< n 1) acc (alt (- n 1) (+ acc (- (f n) (g n))))))
(print (alt {n} 0))
""",
    # lets and local functions inside functions, seven levels deep; under
    # need every binding and argument is a thunk owned by a deep let
    "let-tower": """
(de (tower n)
  (let ((a (+ n {k}))
        (de (lvl2 x)
          (let ((b (* x 2))
                (de (lvl4 y)
                  (let ((c (+ y b))
                        (de (lvl6 z) (+ z (+ c (+ b a)))))
                    (lvl6 (+ c a)))))
            (lvl4 (+ b a)))))
    (lvl2 a)))
(de (sumto n acc) (if (< n 1) acc (sumto (- n 1) (+ acc (tower n)))))
(print (sumto {n} 0))
""",
    # stream elements born three levels deep, demanded by a top-level
    # take; call-by-value builds the whole list
    "deep-stream": """
(de (take n l) (if (< n 1) () (cons (car l) (take (- n 1) (cdr l)))))
(de (sum l) (if (nullist l) 0 (+ (car l) (sum (cdr l)))))
(de (gen k n)
  (let ((c (* k 2)))
    (let ((d (+ c {k})))
      (if (< n 1) ()
          (cons (+ d n) (gen (+ k 1) (- n 1)))))))
(print (sum (take {t} (gen {j} {n}))))
""",
    # closures escaping from four different let blocks, kept in a list and
    # applied round-robin from the top level
    "escaping": """
(de (adder k)
  (let ((base (* k {k}))
        (de (add x) (lambda (y) (+ y (+ x base)))))
    (add k)))
(de fs (cons (adder 1) (cons (adder 2) (cons (adder 3) (cons (adder {j}) ())))))
(de (apply-all l x) (if (nullist l) 0 (+ ((car l) x) (apply-all (cdr l) x))))
(de (rounds n acc) (if (< n 1) acc (rounds (- n 1) (+ acc (apply-all fs n)))))
(print (rounds {n} 0))
""",
}

_NESTED_SIZES = {
    "full": {"alternating": (2500, 0), "let-tower": (2500, 0),
             "deep-stream": (1500, 1000), "escaping": (1200, 0)},
    "tiny": {"alternating": (20, 0), "let-tower": (20, 0),
             "deep-stream": (20, 10), "escaping": (10, 0)},
}

# -- repl-session -------------------------------------------------------------
# Short forms typed one at a time. Every round adds one group of each kind;
# groups whose second form uses the first stay together. Constants are
# two-digit numbers, so form lengths do not depend on the seed.

_REPL_PRELUDE = (
    "(de (from n) (cons n (from (+ n 1))))",
    "(de (take n l) (if (< n 1) () (cons (car l) (take (- n 1) (cdr l)))))",
    "(de (smap f l) (cons (f (car l)) (smap f (cdr l))))",
    "(de (len l) (if (nullist l) 0 (+ 1 (len (cdr l)))))",
)

_REPL_GROUPS = (
    ("(de v{i} (+ {a} (* {b} {c})))", "(+ v{i} {d})"),
    ("(de (f{i} x y) (+ (* x {a}) (- y {b})))", "(f{i} {c} {d})"),
    ("(- (* {a} {b}) (+ {c} {d}))",),
    ("'({a} ({b} {c}) sym {d})",),
    ("(! '((lambda (x) (+ x {a})) {b}))",),
    ("(let ((de (sq x) (* x x)) (k {a})) (+ (sq k) {b}))",),
    ("(take 8 (smap (lambda (x) (* x {a})) (from {b})))",),
    ("(= (take 3 (from {a})) '({a} {a1} {a2}))",),
    ("(print (cons {a} (cons {b} ())))",),
    ("(len (take 5 (from {c})))",),
)

_REPL_ROUNDS = {"full": 250, "tiny": 3}


def _seed_rng(seed, name):
    return random.Random(f"{name}:{seed}")


def suite_workload(strategy, seed, size="full"):
    from lambdix.bench import SUITE_NAMES, program_source
    names = SUITE_NAMES if size == "full" else _SUITE_TINY[strategy]
    ops = [Op(n, strategy, program_source(n, strategy)) for n in names]
    expected = {op.label: SUITE_EXPECTED[op.label] for op in ops}
    order = list(range(len(ops)))
    _seed_rng(seed, f"suite-{strategy}").shuffle(order)
    ops = [ops[i] for i in order]
    return Workload(f"suite-{strategy}", False, ops,
                    [expected[op.label] for op in ops],
                    _RECORD_PASSES[f"suite-{strategy}"])


def nested_programs(seed, size="full"):
    """Program text per name; the seed only changes constants."""
    rng = _seed_rng(seed, "nested-scopes")
    texts = {}
    for name, template in _NESTED.items():
        n, t = _NESTED_SIZES[size][name]
        texts[name] = template.format(k=rng.randint(2, 9), j=rng.randint(2, 9),
                                      n=n, t=t).lstrip()
    return texts


def nested_workload(seed, size="full"):
    texts = nested_programs(seed, size)
    ops = [Op(f"{name}/{strategy}", strategy, text)
           for name, text in texts.items() for strategy in ("value", "need")]
    _seed_rng(seed, "nested-order").shuffle(ops)
    return Workload("nested-scopes", False, ops, None,
                    _RECORD_PASSES["nested-scopes"])


def repl_forms(seed, size="full"):
    """The session's forms in typing order: the prelude, then rounds of one
    group of each kind in a seeded order."""
    rng = _seed_rng(seed, "repl-session")
    forms = list(_REPL_PRELUDE)
    for i in range(_REPL_ROUNDS[size]):
        groups = list(_REPL_GROUPS)
        rng.shuffle(groups)
        for group in groups:
            a, b, c, d = (rng.randint(10, 97) for _ in range(4))
            values = {"i": f"{i:04d}", "a": a, "b": b, "c": c, "d": d,
                      "a1": a + 1, "a2": a + 2}
            forms.extend(f.format(**values) for f in group)
    return forms


def repl_workload(seed, size="full"):
    ops = [Op(f"form{k}", "need", text)
           for k, text in enumerate(repl_forms(seed, size))]
    return Workload("repl-session", True, ops, None,
                    _RECORD_PASSES["repl-session"])


def make_workload(name, seed, size="full"):
    if name == "suite-value":
        return suite_workload("value", seed, size)
    if name == "suite-need":
        return suite_workload("need", seed, size)
    if name == "nested-scopes":
        return nested_workload(seed, size)
    if name == "repl-session":
        return repl_workload(seed, size)
    raise ValueError(f"unknown workload {name!r}")


# -- expected outputs ---------------------------------------------------------

def session_output(printed, rendered):
    """What a REPL shows for one form: printed text, then `= value`."""
    return f"{printed}= {rendered}\n"


def _oracle_program(text, strategy):
    from lambdix.oracle import Oracle
    out = io.StringIO()
    Oracle(strategy=strategy, out=out).eval_source(text)
    return out.getvalue()


def _oracle_session(texts):
    from lambdix.oracle import Oracle
    from lambdix.reader import read_program
    out = io.StringIO()
    oracle = Oracle(strategy="need", out=out)
    expected = []
    for text in texts:
        (sx,) = read_program(text)
        rendered = oracle.render_value(oracle.eval_top(sx))
        expected.append(session_output(out.getvalue(), rendered))
        out.seek(0)
        out.truncate()
    return expected


def expected_outputs(workload):
    """Expected output of every op: the hand-written table, or
    lambdix.oracle run under the op's strategy."""
    if workload.expected is not None:
        return list(workload.expected)
    from lambdix.deep import call_with_deep_stack
    if workload.session:
        return call_with_deep_stack(_oracle_session,
                                    [op.text for op in workload.ops])
    return [call_with_deep_stack(_oracle_program, op.text, op.strategy)
            for op in workload.ops]
