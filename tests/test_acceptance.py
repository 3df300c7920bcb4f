"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Expected values marked as derived are computed here by independent brute
force (call counting, trial division, iterative recurrences), never assumed
from the implementation under test.
"""

import time

from conftest import STEP_LIMIT, make_interp, observe_installs
from lambdix.bench import program_source, run_program, run_suite
from lambdix.corpus import CORPUS, run_corpus
from lambdix.evaluator import run_with_limit
from lambdix.oracle import differential_run, generate_program
from lambdix.reader import read_program


def _report(number, desc, fn):
    try:
        fn()
    except BaseException:
        print(f"FAIL criterion {number}: {desc}")
        raise
    print(f"PASS criterion {number}: {desc}")


# -- criterion 1: semantic golden corpus --------------------------------------

def test_criterion_1_golden_corpus():
    def check():
        required = {"build-const-func", "identity-through-apply",
                    "lexical-beta-term", "strictness-split", "ones-stream",
                    "naturals-stream", "mapfun", "de-value-result",
                    "de-func-call"}
        names = {entry["name"] for entry in CORPUS}
        assert required <= names
        t0 = time.perf_counter()
        report = run_corpus(step_limit=1_000_000)
        elapsed = time.perf_counter() - t0
        failures = [(n, s, d) for n, s, ok, d in report if not ok]
        assert not failures, failures
        assert elapsed < 5.0, f"corpus took {elapsed:.2f}s"

    _report(1, "semantic golden corpus passes exactly, under 5 s", check)


# -- criterion 2: differential testing ----------------------------------------

def test_criterion_2_differential_200_programs():
    def check():
        mismatches = []
        for i in range(200):
            seed = 42 * 100_003 + i
            text = generate_program(seed)
            for strategy in ("value", "need"):
                result = differential_run(text, strategy, step_limit=10_000)
                if not result.equal:
                    mismatches.append((seed, strategy, text))
        assert not mismatches, mismatches[:3]

    _report(2, "200 seeded random programs agree with the reference "
               "interpreter under both strategies", check)


# -- criterion 3: environment-model cost properties ----------------------------

FIB = "(de (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))"


def _py_calls(n):
    return 1 if n < 2 else 1 + _py_calls(n - 1) + _py_calls(n - 2)


def test_criterion_3a_self_recursion_cost():
    def check():
        expected_calls = _py_calls(15)
        interp, _ = make_interp("value")
        interp.eval_source(FIB)
        before = interp.counters.snapshot()
        interp.eval_source("(fib 15)")
        d = interp.counters.delta(before)
        # strict run: installs happen only at the calls themselves, one test
        # and one assignment each on a top-level (depth 1) function
        assert d["switch_tests"] == expected_calls
        assert d["switch_assignments"] == expected_calls

        interp, _ = make_interp("need")
        interp.eval_source(FIB)
        per_install = []
        observe_installs(interp.rt,
                         lambda s, t, a: per_install.append((t, a)))
        interp.eval_source("(fib 15)")
        assert all(t == 1 and a <= 1 for t, a in per_install if t > 0)

    _report("3a", "fib(15): one test and at most one assignment per install",
            check)


NESTED_LET = """
(de (make)
  (let ((de a 1))
    (let ((de b 2))
      (let ((de c 3))
        (lambda (q) (+ a (+ b (+ c q))))))))
(de probe (make))
(de (disturb n) (if (< n 1) 0 (disturb (- n 1))))
(disturb 3)
(probe 10)
(probe 20)
"""


def test_criterion_3b_nested_let_hand_trace():
    def check():
        # hand trace, strict strategy:
        #   (make):   install make 1t/1a, three lets 1t/1a each,
        #             each hanging from the running level's block -> 4t 4a
        #   (disturb 3): four self-recursive calls 1t/1a each     -> 4t 4a
        #   (probe 10): escaped closure, whole chain stale,
        #               lam+let*3+make all tested and assigned    -> 5t 5a
        #   (probe 20): same                                      -> 5t 5a
        interp, _ = make_interp("value")
        per_install = []
        observe_installs(interp.rt,
                         lambda s, t, a: per_install.append((s, t, a)))
        interp.eval_source(NESTED_LET)
        total_tests = sum(t for _, t, _ in per_install)
        total_assigns = sum(a for _, _, a in per_install)
        assert total_tests == 18, total_tests
        assert total_assigns == 18, total_assigns
        # switch_tests per install never exceeds lexical depth + 1 (struct
        # depth counts the struct itself plus its enclosing lambda/lets)
        assert all(t <= s.depth for s, t, _ in per_install)
        assert max(t for _, t, _ in per_install) == 5

    _report("3b", "nested-let switch counts match the hand trace and the "
                  "lexical-depth bound", check)


def test_criterion_3c_arity_independence():
    def check():
        for strategy in ("value", "need"):
            deltas = {}
            for name in ("Fib", "Fib2"):
                interp, _ = make_interp(strategy)
                interp.eval_source(program_source(name, strategy))
                c = interp.counters
                deltas[name] = (c.switch_tests, c.switch_assignments)
            assert deltas["Fib"] == deltas["Fib2"], deltas

    _report("3c", "Fib and Fib2 at n=20 have identical switch tests and "
                  "assignments (arity independence)", check)


def test_criterion_3d_global_lookup_depth_independence():
    def check():
        def lookups_at(depth, strategy):
            interp, _ = make_interp(strategy)
            interp.eval_source(
                "(de GLOB 7)"
                " (de (g n) (if (< n 1) GLOB (g (- n 1))))")
            before = interp.counters.snapshot()
            interp.eval_source(f"(g {depth})")
            return interp.counters.delta(before)["lookups"]

        for strategy in ("value", "need"):
            t10, t100 = lookups_at(10, strategy), lookups_at(100, strategy)
            slope, rem = divmod(t100 - t10, 90)
            assert rem == 0
            intercept = t10 - slope * 10
            # exact affine growth: the bottom global fetch costs the same
            # at depth 10 and at depth 10000
            assert lookups_at(10_000, strategy) == slope * 10_000 + intercept

    _report("3d", "global-variable lookup cost identical at recursion "
                  "depth 10 and 10,000", check)


# -- criterion 4: restore invariance -------------------------------------------

def test_criterion_4_restore_invariance_fuzz():
    def check():
        checked = 0
        for seed in range(100):
            text = generate_program(424_200 + seed)
            strategy = "need" if seed % 2 else "value"
            interp, _ = make_interp(strategy, step_limit=20_000)
            for sx in read_program(text):
                known = list(interp.structs)
                snap = [s.current_block for s in known]
                try:
                    interp.eval_form_rendered(sx)
                except Exception:
                    pass
                after = [s.current_block for s in known]
                assert all(a is b for a, b in zip(snap, after))
                assert all(s.current_block is None
                           for s in interp.structs[len(known):])
                checked += 1
        assert checked >= 100

    _report(4, "current-block slots identical before and after each "
               "top-level evaluation (100-program fuzz)", check)


# -- criterion 5: laziness economics --------------------------------------------

def test_criterion_5_lazy_wins():
    def check():
        v_ms, v_counters, v_out = run_program(
            program_source("LSum", "value"), "value", reps=1,
            step_limit=STEP_LIMIT)
        n_ms, n_counters, n_out = run_program(
            program_source("LSum", "need"), "need", reps=1,
            step_limit=STEP_LIMIT)
        assert v_out == n_out == "258\n"
        assert n_counters["thunks_forced"] <= 0.01 * v_counters["thunks_created"], (
            n_counters["thunks_forced"], v_counters["thunks_created"])
        assert n_ms * 10 <= v_ms, (n_ms, v_ms)

        cv_ms, cv_counters, cv_out = run_program(
            program_source("LComp", "value"), "value", reps=1,
            step_limit=STEP_LIMIT)
        cn_ms, cn_counters, cn_out = run_program(
            program_source("LComp", "need"), "need", reps=1,
            step_limit=STEP_LIMIT)
        assert cv_out == cn_out == "false\n"
        assert cn_counters["thunks_forced"] <= 0.05 * cv_counters["thunks_created"], (
            cn_counters["thunks_forced"], cv_counters["thunks_created"])

    _report(5, "LSum forces <=1% of strict-side suspensions and runs >=10x "
               "faster; LComp forces <=5%", check)


# -- criterion 6: laziness overhead bound ---------------------------------------

def test_criterion_6_overhead_bound():
    def check():
        results = run_suite(names=["Fib", "Tak"],
                            strategies=("value", "need"), reps=5,
                            step_limit=STEP_LIMIT)
        by = {(r.program, r.strategy): r for r in results}
        for name in ("Fib", "Tak"):
            v = by[(name, "value")]
            n = by[(name, "need")]
            assert v.digest == n.digest
            ratio = n.median_ms / v.median_ms
            assert ratio <= 2.5, f"{name}: need/value = {ratio:.2f}"
        assert by[("Tak", "need")].median_ms < 60_000

    _report(6, "need/value median wall-time ratio <= 2.5 on Fib(20) and "
               "Tak(18,12,6) over 5 repetitions", check)


# -- criterion 7: independently verified outputs --------------------------------

def _brute_fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _brute_tak(x, y, z, memo=None):
    memo = {} if memo is None else memo
    key = (x, y, z)
    if key not in memo:
        if not y < x:
            memo[key] = z
        else:
            memo[key] = _brute_tak(_brute_tak(x - 1, y, z, memo),
                                   _brute_tak(y - 1, z, x, memo),
                                   _brute_tak(z - 1, x, y, memo), memo)
    return memo[key]


def _brute_primes(count):
    primes = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


def test_criterion_7_outputs_against_brute_force():
    def check():
        fib20 = _brute_fib(20)
        assert fib20 == 6765
        _, _, out = run_program(program_source("Fib", "value"), "value",
                                step_limit=STEP_LIMIT)
        assert out == f"{fib20}\n"

        tak = _brute_tak(18, 12, 6)
        assert tak == 7
        _, _, out = run_program(program_source("Tak", "value"), "value",
                                step_limit=STEP_LIMIT)
        assert out == f"{tak}\n"

        primes = _brute_primes(400)
        assert primes[-1] == 2741
        _, _, out = run_program(program_source("Sieve", "value"), "value",
                                step_limit=STEP_LIMIT)
        assert out == f"400\n{primes[-1]}\n"

    _report(7, "fib(20)=6765, tak(18,12,6)=7, 400th prime=2741, each "
               "checked against a brute-force oracle", check)


# -- criterion 8: memoization and blackholes ------------------------------------

def test_criterion_8_memoization_and_blackholes():
    def check():
        interp, _ = make_interp("need")
        interp.eval_source("(de x (* 6 7))")
        before = interp.counters.snapshot()
        assert interp.eval_source_rendered("x") == ["42"]
        assert interp.counters.delta(before)["thunks_forced"] == 1
        before = interp.counters.snapshot()
        assert interp.eval_source_rendered("x") == ["42"]
        assert interp.counters.delta(before)["thunks_forced"] == 0

        for text in ("(de x x) x", "(de x (+ x 1)) x"):
            t0 = time.perf_counter()
            outcome = run_with_limit(text, "need", 1_000_000)
            assert outcome.kind == "error"
            assert outcome.payload[0] == "cyclic"
            assert time.perf_counter() - t0 < 5.0

    _report(8, "forcing twice evaluates once; self-dependent definitions "
               "raise cyclic errors, never hang", check)
