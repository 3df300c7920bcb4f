"""Benchmark harness: the six-program suite, timed per strategy with full
counter snapshots and an output digest.

Timings are only ever compared between this interpreter's own two
strategies. The relative column is (value - need) / max(value, need) * 100,
positive when the lazy strategy wins.

A host's speed drifts by more than 2x between sessions, so the JSON form
also records a host calibration (`calibrate`): the median time of a fixed
pure-Python loop, timed in the same process just after the suite. Dividing
a row's time by it compares files made on different hosts or sessions
better than the raw times do.
"""

import io
import json
import os
import sys
import time
from importlib import resources

from .evaluator import Interpreter

# program name -> strategy -> source file; LSum is stream-shaped for the
# lazy strategy and a finite-list variant for the strict one
_SOURCES = {
    "Fib": {"value": "fib.lx", "need": "fib.lx"},
    "Fib2": {"value": "fib2.lx", "need": "fib2.lx"},
    "Tak": {"value": "tak.lx", "need": "tak.lx"},
    "LComp": {"value": "lcomp.lx", "need": "lcomp.lx"},
    "Sieve": {"value": "sieve.lx", "need": "sieve.lx"},
    "LSum": {"value": "lsum_finite.lx", "need": "lsum_stream.lx"},
}

SUITE_NAMES = tuple(_SOURCES)

TSV_COLUMNS = ("program", "strategy", "median_ms", "switch_tests",
               "switch_assignments", "thunks_created", "thunks_forced",
               "blocks_allocated", "thunks_elided", "digest", "pct_diff")


def program_source(name, strategy):
    filename = _SOURCES[name][strategy]
    return resources.files("lambdix").joinpath(f"programs/{filename}").read_text()


class BenchResult:
    """One program under one strategy: the median time and its spread in
    ms, the counters, the output's digest, and the relative column once
    both strategies ran."""

    def __init__(self, program, strategy, median_ms, counters, digest,
                 pct_diff=None, min_ms=None, max_ms=None):
        self.program = program
        self.strategy = strategy
        self.median_ms = median_ms
        self.counters = counters
        self.digest = digest
        self.pct_diff = pct_diff
        self.min_ms = min_ms
        self.max_ms = max_ms


def _digest(output):
    # imported here, not at the top, as _git_rev's subprocess: every start
    # of the command line and of the benchmark worker imports this module
    import hashlib
    return hashlib.sha256(output.encode()).hexdigest()[:12]


def _median(xs):
    # statistics.median would import fractions and decimal on every start
    xs = sorted(xs)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2


def run_program(text, strategy, reps=1, step_limit=None, depth_limit=100_000):
    """Time `reps` fresh runs of one program; returns the median time in ms,
    the counters and the output."""
    times, counters, output = _time_runs(text, strategy, reps, step_limit,
                                         depth_limit)
    return _median(times), counters, output


def _time_runs(text, strategy, reps, step_limit, depth_limit):
    # counters come from the last run (they are deterministic across runs)
    times = []
    counters = {}
    output = ""
    for _ in range(reps):
        out = io.StringIO()
        interp = Interpreter(strategy=strategy, step_limit=step_limit,
                             depth_limit=depth_limit, out=out)
        t0 = time.perf_counter()
        interp.eval_source(text)
        times.append((time.perf_counter() - t0) * 1000.0)
        counters = interp.counters.snapshot()
        output = out.getvalue()
    return times, counters, output


def run_suite(names=SUITE_NAMES, strategies=("value", "need"), reps=5,
              step_limit=None, depth_limit=100_000):
    results = []
    for name in names:
        by_strategy = {}
        for strategy in strategies:
            text = program_source(name, strategy)
            times, counters, output = _time_runs(text, strategy, reps,
                                                 step_limit, depth_limit)
            res = BenchResult(name, strategy, _median(times),
                              counters, _digest(output),
                              min_ms=min(times), max_ms=max(times))
            by_strategy[strategy] = res
            results.append(res)
        if "value" in by_strategy and "need" in by_strategy:
            v = by_strategy["value"].median_ms
            n = by_strategy["need"].median_ms
            pct = round((v - n) / max(v, n) * 100.0, 1)
            by_strategy["value"].pct_diff = pct
            by_strategy["need"].pct_diff = pct
    return results


def _row(res):
    c = res.counters
    return (res.program, res.strategy, f"{res.median_ms:.2f}",
            str(c["switch_tests"]), str(c["switch_assignments"]),
            str(c["thunks_created"]), str(c["thunks_forced"]),
            str(c["blocks_allocated"]), str(c["thunks_elided"]), res.digest,
            "" if res.pct_diff is None else f"{res.pct_diff:+.1f}")


def to_tsv(results):
    lines = ["\t".join(TSV_COLUMNS)]
    lines.extend("\t".join(_row(r)) for r in results)
    return "\n".join(lines) + "\n"


def _calibration_loop():
    # a loop of list reads, integer adds and a builtin call, the kind of
    # bytecode an interpreter in Python spends its time on
    cells = [1, 2, 3, 4]
    acc = 0
    for i in range(250_000):
        acc += cells[i & 3] + len(cells)
    return acc


def calibrate(reps=5):
    """The median ms of `reps` runs of a fixed pure-Python loop."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _calibration_loop()
        times.append((time.perf_counter() - t0) * 1000.0)
    return _median(times)


def _git_rev():
    """The commit of the checkout this module lives in, "<sha>-dirty" when
    a tracked file differs from that commit, or None."""
    # imported here, not at the top: every start of the command line and of
    # the benchmark worker imports this module
    import subprocess

    def git(*args):
        return subprocess.run(["git", *args],
                              cwd=os.path.dirname(os.path.abspath(__file__)),
                              capture_output=True, text=True, timeout=10)
    try:
        done = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no").stdout
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() + ("-dirty" if dirty.strip() else "")


def to_json(results, calibration_ms=None):
    """The rows with their time spread, plus what is needed to compare
    them with another run: the Python version, the git rev and the host
    calibration (`calibrate`, None when not measured)."""
    rows = []
    for r in results:
        row = {"program": r.program, "strategy": r.strategy,
               "median_ms": r.median_ms, "min_ms": r.min_ms,
               "max_ms": r.max_ms, "digest": r.digest,
               "pct_diff": r.pct_diff}
        row.update(r.counters)
        rows.append(row)
    doc = {"python": "%d.%d.%d" % sys.version_info[:3],
           "git_rev": _git_rev(), "calibration_ms": calibration_ms,
           "rows": rows}
    return json.dumps(doc, indent=2) + "\n"
