import gc
import io
import json
import os
import platform
import subprocess
import sys

import pytest

from conftest import STEP_LIMIT
import lambdix
from lambdix.bench import (SUITE_NAMES, BenchResult, program_source,
                           run_program, run_suite, to_json, to_tsv)
from lambdix.evaluator import Interpreter
from lambdix.values import TH_DONE, Thunk


def test_suite_names():
    assert set(SUITE_NAMES) == {"Fib", "Fib2", "Tak", "LComp", "Sieve", "LSum"}


def test_sources_load_and_lsum_varies_by_strategy():
    for name in SUITE_NAMES:
        for strategy in ("value", "need"):
            assert program_source(name, strategy).strip()
    assert program_source("LSum", "value") != program_source("LSum", "need")
    assert program_source("Fib", "value") == program_source("Fib", "need")


def test_fib_program_output():
    for strategy in ("value", "need"):
        ms, counters, output = run_program(program_source("Fib", strategy),
                                           strategy, reps=1,
                                           step_limit=STEP_LIMIT)
        assert output == "6765\n"
        assert ms > 0
        assert counters["blocks_allocated"] > 0


def test_lsum_variants_share_digest():
    _, _, out_value = run_program(program_source("LSum", "value"), "value",
                                  step_limit=STEP_LIMIT)
    _, _, out_need = run_program(program_source("LSum", "need"), "need",
                                 step_limit=STEP_LIMIT)
    assert out_value == out_need == "258\n"


def _forced_thunks_alive():
    gc.collect()
    return sum(1 for o in gc.get_objects()
               if type(o) is Thunk and o.state == TH_DONE)


def test_sieve_need_leaves_most_forced_thunks_collectable():
    # car, cdr and cadr cut forced components out of the pairs they read,
    # so a used-up thunk need not outlive its forcing while the program's
    # lists are still reachable (a pair holding its forced thunks keeps
    # nearly all of them)
    before = _forced_thunks_alive()
    interp = Interpreter(strategy="need", step_limit=STEP_LIMIT,
                         out=io.StringIO())
    interp.eval_source(program_source("Sieve", "need"))
    alive = _forced_thunks_alive() - before
    assert alive <= 0.6 * interp.counters.thunks_forced


def test_table_formats():
    results = [
        BenchResult("Fib", "value", 10.0,
                    {"switch_tests": 1, "switch_assignments": 1,
                     "blocks_allocated": 1, "lookups": 1,
                     "thunks_created": 1, "thunks_forced": 0,
                     "thunks_elided": 0},
                    "abc123", pct_diff=-12.0, min_ms=9.5, max_ms=11.0),
    ]
    tsv = to_tsv(results)
    header, row = tsv.strip().split("\n")
    assert header.split("\t")[0] == "program"
    assert header.split("\t")[7:9] == ["blocks_allocated", "thunks_elided"]
    assert row.split("\t")[:3] == ["Fib", "value", "10.00"]
    assert row.split("\t")[-1] == "-12.0"
    data = json.loads(to_json(results))
    assert data["python"] == platform.python_version()
    row = data["rows"][0]
    assert row["program"] == "Fib"
    assert (row["min_ms"], row["median_ms"], row["max_ms"]) == (9.5, 10.0, 11.0)
    assert row["switch_tests"] == 1


def test_json_records_the_git_rev_or_null(monkeypatch):
    results = run_suite(names=["Fib"], strategies=("need",), reps=3,
                        step_limit=STEP_LIMIT)
    r = results[0]
    assert r.min_ms <= r.median_ms <= r.max_ms
    rev = json.loads(to_json(results))["git_rev"]
    assert rev is None or len(rev) == 40
    monkeypatch.setenv("PATH", "")  # no git to ask
    assert json.loads(to_json(results))["git_rev"] is None


def test_lazy_prefix_cost_independent_of_list_length():
    # under need, summing a 10-element prefix forces the same work whether
    # the underlying sieved list is bounded by 2741 or by 541
    import io

    from lambdix import Interpreter

    long_text = program_source("LSum", "value")  # finite-list variant
    short_text = long_text.replace("2741", "541")
    forced = []
    for text in (long_text, short_text):
        out = io.StringIO()
        interp = Interpreter(strategy="need", step_limit=STEP_LIMIT, out=out)
        interp.eval_source(text)
        assert out.getvalue() == "258\n"
        forced.append(interp.counters.thunks_forced)
    assert forced[0] == forced[1]


def test_pct_diff_matches_relative_formula():
    # (value - need) / max(value, need) * 100: positive when lazy wins
    results = run_suite(names=["Fib"], strategies=("value", "need"), reps=1,
                        step_limit=STEP_LIMIT)
    v = next(r for r in results if r.strategy == "value")
    n = next(r for r in results if r.strategy == "need")
    expected = round((v.median_ms - n.median_ms)
                     / max(v.median_ms, n.median_ms) * 100.0, 1)
    assert v.pct_diff == n.pct_diff == expected
    assert v.digest == n.digest


# the cost model's figures, all seven counters as switch_tests,
# switch_assignments, thunks_created, thunks_forced, blocks_allocated,
# lookups, thunks_elided; an evaluator change must not move them. A
# lookup is one read of a name: a local or top-level reference, or the
# head of a global application, primitive or not.
#
# Under need, a call passes its callee's demand prefix evaluated (the
# parameters the body forces first, in order), a literal or local argument
# unsuspended, and a total primitive on operands already computed applied
# (cheap eagerness: its elision counts the head lookup and one per local
# operand, as its forcing would), so only the other argument positions make
# thunks.
# Every install of a depth-1 block costs one test and one assignment, or
# one test alone when the block is already current; the top block's costs
# none.
PINNED_COUNTERS = {
    ("Fib", "value"): (21891, 21891, 21891, 0, 21892, 131345, 0),
    # fib demands n, so each of the 21891 calls passes n evaluated: no
    # thunk, and a switch only per call
    ("Fib", "need"): (21891, 21891, 0, 0, 21892, 131345, 21891),
    ("Fib2", "value"): (21891, 21891, 65673, 0, 21892, 175125, 0),
    # as Fib: fib2 demands n, and a and b are locals
    ("Fib2", "need"): (21891, 21891, 0, 0, 21892, 175125, 65673),
    ("Tak", "value"): (63609, 63609, 190827, 0, 63610, 492968, 0),
    # tak demands y then x, as (< y x) forces them; of each recursive
    # step's 4 calls only the outer one's z, (tak (- z 1) x y), is
    # suspended (each inner call's undemanded argument is a local): 15902
    # thunks, all forced once; 63609 calls + 15902 forcings = 79511
    # switches
    ("Tak", "need"): (79511, 79511, 15902, 15902, 63610, 492968, 174925),
    # a strict run forces nothing and passes nothing unsuspended
    ("LComp", "value"): (106463, 106463, 327638, 0, 106464, 794426, 0),
    # against demand prefixes alone (125, 125, 123, 51, 78, 464, 107):
    # append's 24 (car a), 12 per tree down to the first leaf, a forced by
    # (nullist a), are applied at the cons; all 24 were forced, each with a
    # test and an assignment, and count their 2 lookups at the cons instead
    ("LComp", "need"): (101, 101, 99, 27, 78, 464, 131),
    ("LSum", "value"): (176689, 176689, 694977, 0, 176690, 2420166, 0),
    # against demand prefixes alone (611, 593, 416, 392, 226, 2074, 327):
    # 194 applications on computed operands are applied, from's 54 (+ n 1),
    # strike's 102 (car l), sieve's 18 (car l) passed as strike's p and
    # sum2's 10 (cdr a) and 10 (cdr b). 192 were forced: 174 forcings cost
    # a test and an assignment, the 18 of sieve's (forced by strike while
    # sieve's block was current) one test alone; sum2's last two never
    # were, and their 2 lookups each are now counted: 4 more lookups
    ("LSum", "need"): (419, 419, 222, 200, 226, 2078, 521),
    # 89140 calls: 2741 of upto, 85197 of strike, 401 of sieve, 401 of
    # length, 400 of last; one switch each
    ("Sieve", "value"): (89140, 89140, 348273, 0, 89141, 1214812, 0),
    # the same 89140 calls; upto demands b then a, strike, sieve, length
    # and last demand l. Against plain cheap eagerness (346730, 345931,
    # 257994, 257594, 89141) 89139 positions more are demanded: upto's
    # 2740 (+ a 1), strike's 84797 (cdr l), sieve's 400 (strike ...) and
    # 400 (cdr l), length's 400 and last's 399 (cdr l), and 3 top-level
    # ones, whose forcings cost no switch. 400 of the saved forcings (of
    # sieve's (cdr l), by strike while sieve's block was current) cost one
    # test alone: 89136 fewer tests, 88736 fewer assignments. That gave
    # (257594, 257195, 168855, 168455, 89141, 1214012, 179418); cheap
    # eagerness then applies strike's 82457 (car l) (all forced, a test and
    # an assignment each) and sieve's 800 (car l), l forced by (nullist l):
    # of those, 399 passed as strike's p were forced with one test alone,
    # 1 cons head (by last) with a test and an assignment, and the other
    # 400 never, so their 2 lookups each are now counted: 83257 more
    # elided, 82857 fewer forcings, 82458 fewer assignments, 800 more
    # lookups
    ("Sieve", "need"): (174737, 174737, 85598, 85598, 89141, 1214812,
                         262675),
}


@pytest.mark.parametrize("program,strategy", sorted(PINNED_COUNTERS))
def test_counters_pinned(program, strategy):
    _, counters, _ = run_program(program_source(program, strategy), strategy,
                                 step_limit=STEP_LIMIT)
    columns = ("switch_tests", "switch_assignments", "thunks_created",
               "thunks_forced", "blocks_allocated", "lookups", "thunks_elided")
    assert tuple(counters[c] for c in columns) == \
        PINNED_COUNTERS[(program, strategy)]


# (positions a value run counts, of which a need run passes unsuspended:
# demanded, literal or local arguments and total primitives on computed
# operands; Sieve's 262675 is 179418 plus the 83257 (car l) of strike and
# sieve)
POSITIONS = {"Fib": (21891, 21891), "Fib2": (65673, 65673),
             "Tak": (190827, 174925), "Sieve": (348273, 262675)}


@pytest.mark.parametrize("program", sorted(POSITIONS))
def test_need_creates_or_elides_every_position_value_counts(program):
    _, value, _ = run_program(program_source(program, "value"), "value",
                              step_limit=STEP_LIMIT)
    _, need, _ = run_program(program_source(program, "need"), "need",
                             step_limit=STEP_LIMIT)
    positions, elided = POSITIONS[program]
    assert (value["thunks_created"], value["thunks_elided"]) == (positions, 0)
    assert need["thunks_elided"] == elided
    assert need["thunks_created"] + need["thunks_elided"] == positions


def test_import_loads_only_what_a_run_needs():
    # the benchmark worker and every command import these two first, and
    # `lambdix run` and `repl` go no further than the command line
    src = os.path.dirname(os.path.dirname(os.path.abspath(lambdix.__file__)))
    code = ("import sys; sys.path.insert(0, %r)\n"
            "import lambdix, lambdix.bench\n"
            "print(sorted(m for m in ('lambdix.oracle', 'dataclasses',"
            " 'statistics') if m in sys.modules))\n"
            "import lambdix.cli\n"
            "print(sorted(m for m in ('lambdix.oracle', 'lambdix.corpus')"
            " if m in sys.modules))\n"
            "from lambdix import Oracle\n"
            "print(Oracle.__module__)\n" % src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[]\nlambdix.oracle\n"
