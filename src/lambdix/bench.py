"""Benchmark harness: the six-program suite, timed per strategy with full
counter snapshots and an output digest.

Timings are only ever compared between this interpreter's own two
strategies. The relative column is (value - need) / max(value, need) * 100,
positive when the lazy strategy wins.
"""

import hashlib
import io
import json
import statistics
import time
from dataclasses import dataclass, field
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


@dataclass
class BenchResult:
    program: str
    strategy: str
    median_ms: float
    counters: dict
    digest: str
    output: str
    pct_diff: float | None = field(default=None)


def _digest(output):
    return hashlib.sha256(output.encode()).hexdigest()[:12]


def run_program(text, strategy, reps=1, step_limit=None, depth_limit=100_000):
    """Time `reps` fresh runs of one program; counters come from the last
    run (they are deterministic across runs)."""
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
    return statistics.median(times), counters, output


def run_suite(names=SUITE_NAMES, strategies=("value", "need"), reps=5,
              step_limit=None, depth_limit=100_000):
    results = []
    for name in names:
        by_strategy = {}
        for strategy in strategies:
            text = program_source(name, strategy)
            ms, counters, output = run_program(text, strategy, reps,
                                               step_limit, depth_limit)
            res = BenchResult(name, strategy, ms, counters, _digest(output),
                              output)
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


def to_json(results):
    rows = []
    for r in results:
        row = {"program": r.program, "strategy": r.strategy,
               "median_ms": r.median_ms, "digest": r.digest,
               "pct_diff": r.pct_diff}
        row.update(r.counters)
        rows.append(row)
    return json.dumps(rows, indent=2) + "\n"
