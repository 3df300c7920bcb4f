"""The per-program policy of lambdix.deep: a run sees generation 0's
threshold raised to GC_YOUNG_THRESHOLD, and finds the host's thresholds and
recursion limit back in place however it ends."""

import gc
import sys

import pytest

from conftest import make_interp
from lambdix.deep import (GC_YOUNG_THRESHOLD, RECURSION_LIMIT,
                          call_on_reserved_stack)
from lambdix.errors import EvalError, LimitExceeded
from lambdix.evaluator import run_with_limit
from lambdix.reader import read_program
from lambdix.values import Primitive

HOST = (700, 10, 10)  # CPython's default schedule
RAISED = (GC_YOUNG_THRESHOLD,) + HOST[1:]


@pytest.fixture(autouse=True)
def host_schedule():
    saved = gc.get_threshold()
    gc.set_threshold(*HOST)
    yield
    gc.set_threshold(*saved)


def probed_interp(strategy, seen, fault=None, **kwargs):
    """An interpreter whose `probe` primitive records the thresholds it
    runs under, raises `fault` if one is given, and returns its argument."""
    interp, _ = make_interp(strategy, **kwargs)

    def probe(interp, v):
        seen.append(gc.get_threshold())
        if fault is not None:
            raise fault
        return v

    interp.rt.top_table["probe"] = Primitive("probe", 1, probe)
    return interp


# each way a run can end: program, interpreter settings, what it raises
ENDINGS = {
    "value": ("(print (probe 1))", {}, None),
    "error": ("(probe 1) (car 1)", {}, EvalError),
    "step-limit": ("(de (f n) (if (probe (< n 0)) 0 (f (+ n 1)))) (f 0)",
                   {"step_limit": 20}, LimitExceeded),
    "depth-limit": ("(de (f n) (if (probe (< n 0)) 0 (+ 1 (f (+ n 1)))))"
                    " (f 0)", {"depth_limit": 20}, LimitExceeded),
    "interrupt": ("(print (probe 1))", {"fault": KeyboardInterrupt()},
                  KeyboardInterrupt),
}


@pytest.mark.parametrize("strategy", ["value", "need"])
@pytest.mark.parametrize("ending", sorted(ENDINGS))
def test_a_run_raises_the_young_threshold_and_restores_the_host(ending,
                                                                 strategy):
    text, settings, raised = ENDINGS[ending]
    seen = []
    interp = probed_interp(strategy, seen, **settings)
    if raised is None:
        interp.eval_source(text)
    else:
        with pytest.raises(raised):
            interp.eval_source(text)
    assert seen and set(seen) == {RAISED}
    assert gc.get_threshold() == HOST


@pytest.mark.parametrize("strategy", ["value", "need"])
def test_a_single_form_keeps_the_host_schedule(strategy):
    # a form is not a program: the REPL sets the schedule once per session
    seen = []
    interp = probed_interp(strategy, seen)
    (sx,) = read_program("(probe 1)")
    assert interp.eval_form_rendered(sx) == "1"
    assert seen == [HOST]


def test_a_nested_run_restores_the_outer_runs_schedule():
    seen = []
    interp = probed_interp("need", seen)

    def outer():
        with pytest.raises(EvalError):
            interp.eval_source("(probe 1) (car 1)")
        return gc.get_threshold()

    assert call_on_reserved_stack(outer) == RAISED
    assert seen == [RAISED]
    assert gc.get_threshold() == HOST


@pytest.mark.parametrize("host", [(0, 10, 10),
                                  (GC_YOUNG_THRESHOLD * 4, 5, 5)])
def test_a_host_schedule_off_or_above_is_left_as_it_is(host):
    gc.set_threshold(*host)
    seen = []
    probed_interp("value", seen).eval_source("(print (probe 1))")
    assert seen == [host]
    assert gc.get_threshold() == host


def test_every_way_in_puts_the_hosts_recursion_limit_back():
    host = 5_000
    assert host < RECURSION_LIMIT
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(host)
    try:
        interp, _ = make_interp("need", depth_limit=20)
        interp.eval_source("(print 1)")
        assert sys.getrecursionlimit() == host
        (sx,) = read_program("(+ 1 2)")
        assert interp.eval_form_rendered(sx) == "3"
        assert sys.getrecursionlimit() == host
        assert run_with_limit("(print 1)", "value", 100).kind == "value"
        assert sys.getrecursionlimit() == host
        with pytest.raises(EvalError):
            interp.eval_source("(car 1)")
        assert sys.getrecursionlimit() == host
        with pytest.raises(LimitExceeded):
            interp.eval_source("(de (f n) (+ 1 (f n))) (f 0)")
        assert sys.getrecursionlimit() == host
    finally:
        sys.setrecursionlimit(saved)
