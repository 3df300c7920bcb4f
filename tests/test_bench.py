import json

import pytest

from lambdix.bench import (SUITE_NAMES, BenchResult, program_source,
                           run_program, run_suite, to_json, to_tsv)


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
                                           strategy, reps=1)
        assert output == "6765\n"
        assert ms > 0
        assert counters["blocks_allocated"] > 0


def test_lsum_variants_share_digest():
    _, _, out_value = run_program(program_source("LSum", "value"), "value")
    _, _, out_need = run_program(program_source("LSum", "need"), "need")
    assert out_value == out_need == "258\n"


def test_table_formats():
    results = [
        BenchResult("Fib", "value", 10.0,
                    {"switch_tests": 1, "switch_assignments": 1,
                     "blocks_allocated": 1, "lookups": 1,
                     "thunks_created": 1, "thunks_forced": 0,
                     "thunks_elided": 0},
                    "abc123", "6765\n", pct_diff=-12.0),
    ]
    tsv = to_tsv(results)
    header, row = tsv.strip().split("\n")
    assert header.split("\t")[0] == "program"
    assert header.split("\t")[7:9] == ["blocks_allocated", "thunks_elided"]
    assert row.split("\t")[:3] == ["Fib", "value", "10.00"]
    assert row.split("\t")[-1] == "-12.0"
    data = json.loads(to_json(results))
    assert data[0]["program"] == "Fib"
    assert data[0]["switch_tests"] == 1


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
        interp = Interpreter(strategy="need", out=out)
        interp.eval_source(text)
        assert out.getvalue() == "258\n"
        forced.append(interp.counters.thunks_forced)
    assert forced[0] == forced[1]


def test_pct_diff_matches_relative_formula():
    # (value - need) / max(value, need) * 100: positive when lazy wins
    results = run_suite(names=["Fib"], strategies=("value", "need"), reps=1)
    v = next(r for r in results if r.strategy == "value")
    n = next(r for r in results if r.strategy == "need")
    expected = round((v.median_ms - n.median_ms)
                     / max(v.median_ms, n.median_ms) * 100.0, 1)
    assert v.pct_diff == n.pct_diff == expected
    assert v.digest == n.digest


# the cost model's figures for the fast rows, as switch_tests,
# switch_assignments, thunks_created, thunks_forced, blocks_allocated; an
# evaluator change must not move them.
#
# Under need, a literal or local argument is passed unsuspended, so only the
# other argument positions make thunks. Every install of a depth-1 block
# costs one test and one assignment; the top block's costs none.
PINNED_COUNTERS = {
    ("Fib", "value"): (21891, 21891, 21891, 0, 21892),
    # 21891 calls; each but (fib 20) suspends (- n k), and every such thunk
    # is forced once: 21891 + 21890 switches, 21890 thunks
    ("Fib", "need"): (43781, 43781, 21890, 21890, 21892),
    ("Fib2", "value"): (21891, 21891, 65673, 0, 21892),
    # as Fib: a and b are locals and (fib2 20 0 0) has only literals
    ("Fib2", "need"): (43781, 43781, 21890, 21890, 21892),
    ("Tak", "value"): (63609, 63609, 190827, 0, 63610),
    # 15902 recursive steps of 4 calls each suspend 3 + 1 + 1 + 1 positions
    # (y, z, x are locals): 6 * 15902 = 95412 thunks, all forced once;
    # 63609 calls + 95412 forcings = 159021 switches
    ("Tak", "need"): (159021, 159021, 95412, 95412, 63610),
    # 32 of the 230 positions are literals or locals: 32 fewer thunks, 30
    # fewer forcings, 26 fewer switches (4 of those forcings ran in the
    # top block, which costs no switch)
    ("LComp", "need"): (197, 173, 198, 126, 78),
    # 179 of the 743 positions are literals or locals: 179 fewer thunks and
    # forcings, 176 fewer switches (3 of those forcings were top-level)
    ("LSum", "need"): (759, 723, 564, 540, 226),
}


@pytest.mark.parametrize("program,strategy", sorted(PINNED_COUNTERS))
def test_counters_pinned(program, strategy):
    _, counters, _ = run_program(program_source(program, strategy), strategy)
    columns = ("switch_tests", "switch_assignments", "thunks_created",
               "thunks_forced", "blocks_allocated")
    assert tuple(counters[c] for c in columns) == \
        PINNED_COUNTERS[(program, strategy)]


# (positions a value run counts, of which literal or local arguments)
POSITIONS = {"Fib": (21891, 1), "Fib2": (65673, 43783), "Tak": (190827, 95415)}


@pytest.mark.parametrize("program", sorted(POSITIONS))
def test_need_creates_or_elides_every_position_value_counts(program):
    _, value, _ = run_program(program_source(program, "value"), "value")
    _, need, _ = run_program(program_source(program, "need"), "need")
    positions, elided = POSITIONS[program]
    assert (value["thunks_created"], value["thunks_elided"]) == (positions, 0)
    assert need["thunks_elided"] == elided
    assert need["thunks_created"] + need["thunks_elided"] == positions
