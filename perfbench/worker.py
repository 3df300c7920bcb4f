"""One workload process of the Lambdix benchmark; run.py starts it.

Set-up imports lambdix from the checkout's src/, builds the seeded inputs
and the first op's Interpreter, then prints "ready". A --probe process stops
there. Otherwise the process runs passes over the workload's ops in a
closed loop (one client; the next op starts when the previous one has
returned) until --seconds have passed, always finishing the current pass.
With --trace 1 every untraced pass is followed by a traced one. Meanwhile
a speed.py process on the same CPU samples how fast the CPU is, and op
times are reported both raw and scaled to speed.py's reference speed.
Afterwards it checks every output against the expected one, checks that
every count repeated exactly in every pass, and prints one JSON line of
results.

An op is `Interpreter.eval_source` of one program on a fresh Interpreter,
or `read_program` plus `eval_form_rendered` of one REPL form; constructing
the Interpreter is not part of the op. A pass's CPU and wall times are the
sums of its ops' times.
"""

import argparse
import gc
import io
import json
import os
import resource
import statistics
import sys
import time
from array import array

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import lambdix  # noqa: E402
import lambdix.bench  # noqa: E402
import lambdix.reader  # noqa: E402
from lambdix import Interpreter  # noqa: E402
from lambdix.runtime import Counters  # noqa: E402

import stats  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import (WORKLOADS, expected_outputs, make_workload,  # noqa: E402
                       session_output)

COUNT_NAMES = Counters.FIELDS + ("steps", "structs")
_IDX = {name: i for i, name in enumerate(COUNT_NAMES)}

# share of traced op time that may fall outside every layer span (the
# benchmark's own glue inside an op, plus clock reads)
UNATTRIBUTED_TOLERANCE = 0.05

# counter columns of `lambdix bench` output compared with the benchmark's
BENCH_COLUMNS = ("switch_tests", "switch_assignments", "thunks_created",
                 "thunks_forced", "blocks_allocated")


def _counts(interp):
    return tuple(interp.counters.snapshot().values()) + (
        interp.steps, len(interp.structs))


class Runner:
    """Runs passes over one workload's ops and keeps what the checks and
    metrics need: per-op start, wall and CPU times of the first
    `record_passes` untraced passes, the CPU and wall time of traced passes,
    and per-op outputs and counts of the first pass."""

    def __init__(self, workload, first_interp):
        self.workload = workload
        self.pending = first_interp
        n = len(workload.ops)
        self.ref_outputs = None
        self.ref_counts = None
        self.odd_outputs = [[] for _ in range(n)]  # outputs unlike pass 1
        self.count_mismatches = 0
        self.passes = 0
        self.untraced_passes = 0
        self.recorded_passes = 0
        # indexed by recorded pass * ops per pass + op
        self.starts = array("q")
        self.walls = array("q")
        self.cpus = array("q")
        self.traced = []  # (cpu_s, wall_s) per traced pass
        self.traced_op_ns = 0

    def _interp(self, strategy):
        interp, self.pending = self.pending, None
        if interp is None:
            interp = Interpreter(strategy=strategy, out=io.StringIO())
        return interp

    def run_pass(self, tracer=None):
        ops = self.workload.ops
        session = self.workload.session
        n = len(ops)
        starts = [0] * n
        times = [0] * n
        cpus = [0] * n
        outputs = [None] * n
        counts = [None] * n
        clock = time.monotonic_ns
        cpu_clock = time.process_time_ns
        gc.collect()
        if session:
            interp = self._interp("need")
            if tracer is not None:
                tracer.wrap_primitives(interp)
        for k, op in enumerate(ops):
            if not session:
                # every program starts from a collected heap, so that its
                # garbage collections and peak memory do not depend on the
                # ops before it
                interp = None
                gc.collect()
                interp = self._interp(op.strategy)
                if tracer is not None:
                    tracer.wrap_primitives(interp)
            out = interp.out
            before = _counts(interp)
            c0 = cpu_clock()
            starts[k] = t0 = clock()
            try:
                if session:
                    (sx,) = lambdix.reader.read_program(op.text)
                    rendered = interp.eval_form_rendered(sx)
                    times[k] = clock() - t0
                    outputs[k] = session_output(out.getvalue(), rendered)
                else:
                    interp.eval_source(op.text)
                    times[k] = clock() - t0
                    outputs[k] = out.getvalue()
            except Exception as exc:  # a failed op is counted, not fatal
                times[k] = clock() - t0
                outputs[k] = f"raised {type(exc).__name__}: {exc}"
            cpus[k] = cpu_clock() - c0
            if session:
                out.seek(0)
                out.truncate()
            counts[k] = tuple(a - b for a, b in zip(_counts(interp), before))
        self._keep(starts, times, cpus, outputs, counts, tracer is not None)

    def _keep(self, starts, times, cpus, outputs, counts, traced):
        self.passes += 1
        if self.ref_outputs is None:
            self.ref_outputs = outputs
            self.ref_counts = counts
        else:
            for k, (o, c) in enumerate(zip(outputs, counts)):
                if o != self.ref_outputs[k]:
                    self.odd_outputs[k].append(o)
                if c != self.ref_counts[k]:
                    self.count_mismatches += 1
        if traced:
            self.traced.append((sum(cpus) / 1e9, sum(times) / 1e9))
            self.traced_op_ns += sum(times)
            return
        self.untraced_passes += 1
        if self.recorded_passes < self.workload.record_passes:
            self.recorded_passes += 1
            self.starts.extend(starts)
            self.walls.extend(times)
            self.cpus.extend(cpus)

    def pass_times(self):
        """Raw (cpu_s, wall_s) of each recorded pass."""
        n = len(self.workload.ops)
        return [(sum(self.cpus[i:i + n]) / 1e9, sum(self.walls[i:i + n]) / 1e9)
                for i in range(0, len(self.walls), n)]

    def op_times(self, speed=None):
        """Per op, the median over recorded passes of its wall and CPU
        nanoseconds; at the reference speed when `speed` is given."""
        n = len(self.workload.ops)
        wall, cpu = [], []
        for k in range(n):
            w, c = [], []
            for i in range(k, len(self.walls), n):
                f = 1.0 if speed is None else speed.factor(
                    self.starts[i], self.starts[i] + self.walls[i])
                w.append(self.walls[i] * f)
                c.append(self.cpus[i] * f)
            wall.append(statistics.median(w))
            cpu.append(statistics.median(c))
        return wall, cpu

    def failed_ops(self, expected):
        """Ops, over all passes, whose output differed from the expected."""
        failed = 0
        for k, exp in enumerate(expected):
            odd = self.odd_outputs[k]
            if self.ref_outputs[k] != exp:
                failed += self.passes - len(odd)
            failed += sum(o != exp for o in odd)
        return failed

    def pass_counts(self):
        """Each count summed over one pass's ops."""
        return {name: sum(c[i] for c in self.ref_counts)
                for i, name in enumerate(COUNT_NAMES)}


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, runner, tokens_per_pass):
    """Per-layer metrics per traced pass, and the consistency checks that
    compare the traced counts with the interpreter's own counters."""
    passes = len(runner.traced)
    counts = runner.pass_counts()
    layers = tracer.layer_totals()
    tallies = tracer.tallies

    def calls(key):
        t = tallies.get(key)
        return t.calls / passes if t else 0.0

    def self_ms(key):
        t = tallies.get(key)
        return t.self_ns / 1e6 / passes if t else 0.0

    def layer_ms(layer):
        return layers[layer][1] / 1e6 / passes

    builtin_calls = sum(t.calls for name, t in tallies.items()
                        if t.layer == "builtins") / passes
    lookup = tallies.get("runtime.lookup")
    installs = calls("runtime.install")
    untraced_cpu = statistics.median(c for c, _ in runner.pass_times())
    traced_cpu = statistics.median(c for c, _ in runner.traced)
    m = {
        "reader.calls": layers["reader"][0] / passes,
        "reader.self_ms": layer_ms("reader"),
        "reader.tokens_per_s": _ratio(tokens_per_pass,
                                      layer_ms("reader") / 1e3),
        "analyzer.calls": layers["analyzer"][0] / passes,
        "analyzer.self_ms": layer_ms("analyzer"),
        "analyzer.structs_created": counts["structs"],
        "evaluator.steps": counts["steps"],
        "evaluator.self_ms": layer_ms("evaluator"),
        "evaluator.ns_per_step": _ratio(layer_ms("evaluator") * 1e6,
                                        counts["steps"]),
        "evaluator.thunks_created": counts["thunks_created"],
        "evaluator.thunks_forced": counts["thunks_forced"],
        "evaluator.force_ratio": _ratio(counts["thunks_forced"],
                                        counts["thunks_created"]),
        "evaluator.force.calls": calls("evaluator.force"),
        "evaluator.force.self_ms": self_ms("evaluator.force"),
        "runtime.install.calls": installs,
        "runtime.install.self_ms": self_ms("runtime.install"),
        "runtime.switch_tests_per_install": _ratio(counts["switch_tests"],
                                                   installs),
        "runtime.assignment_ratio": _ratio(counts["switch_assignments"],
                                           counts["switch_tests"]),
        "runtime.restore.self_ms": self_ms("runtime.restore"),
        "runtime.lookup.calls": calls("runtime.lookup"),
        "runtime.lookup.self_ms": self_ms("runtime.lookup"),
        "runtime.lookup.hops_mean": _ratio(lookup.arg_sum if lookup else 0,
                                           lookup.calls if lookup else 0),
        "runtime.blocks_allocated": counts["blocks_allocated"],
        "runtime.new_block.self_ms": self_ms("runtime.new_block"),
        "builtins.calls": builtin_calls,
        "builtins.self_ms": layer_ms("builtins"),
        "builtins.ns_per_call": _ratio(layer_ms("builtins") * 1e6,
                                       builtin_calls),
        "values.render.calls": calls("values.render"),
        "values.render.self_ms": self_ms("values.render"),
        "values.structural_eq.self_ms": self_ms("values.structural_eq"),
        "values.datum_to_source.self_ms": self_ms("values.datum_to_source"),
        "deep.calls": layers["deep"][0] / passes,
        "deep.self_ms": layer_ms("deep"),
        "deep.self_us_per_call": _ratio(layer_ms("deep") * 1e3,
                                        layers["deep"][0] / passes),
        "trace.overhead_ratio": _ratio(traced_cpu, untraced_cpu),
    }
    unattributed = 1 - _ratio(tracer.root_ns(), runner.traced_op_ns)
    checks = {
        "install_calls_eq_blocks_plus_forced": (
            installs == counts["blocks_allocated"] + counts["thunks_forced"],
            f"{installs} installs, {counts['blocks_allocated']} blocks + "
            f"{counts['thunks_forced']} forcings per pass"),
        "new_block_calls_eq_blocks": (
            calls("runtime.new_block") == counts["blocks_allocated"],
            f"{calls('runtime.new_block')} calls, "
            f"{counts['blocks_allocated']} blocks"),
        "lookup_calls_le_lookups": (
            calls("runtime.lookup") <= counts["lookups"],
            f"{calls('runtime.lookup')} local lookups of "
            f"{counts['lookups']} counted (the rest are global)"),
        "force_calls_ge_forced": (
            calls("evaluator.force") >= counts["thunks_forced"],
            f"{calls('evaluator.force')} calls, "
            f"{counts['thunks_forced']} forced"),
        "layer_self_times_cover_op_time": (
            -1e-9 <= unattributed <= UNATTRIBUTED_TOLERANCE,
            f"{unattributed:.4f} of traced op time outside every layer "
            f"(tolerance {UNATTRIBUTED_TOLERANCE})"),
    }
    detail = {name: {"calls": t.calls / passes,
                     "self_ms": t.self_ns / 1e6 / passes}
              for name, t in sorted(tallies.items())}
    return m, checks, detail


def bench_check(workload, runner):
    """The counts of each suite program equal the counter columns that
    `lambdix bench` prints for it."""
    strategy = workload.ops[0].strategy
    names = tuple(op.label for op in workload.ops)
    tsv = lambdix.bench.to_tsv(
        lambdix.bench.run_suite(names, (strategy,), reps=1))
    lines = tsv.splitlines()
    header = lines[0].split("\t")
    base = _counts(Interpreter(strategy=strategy, out=io.StringIO()))
    mismatched = []
    for line in lines[1:]:
        row = dict(zip(header, line.split("\t")))
        k = names.index(row["program"])
        for col in BENCH_COLUMNS:
            ours = runner.ref_counts[k][_IDX[col]] + base[_IDX[col]]
            if int(row[col]) != ours:
                mismatched.append(f"{row['program']}.{col}: bench "
                                  f"{row[col]}, benchmark {ours}")
    return not mismatched, "; ".join(mismatched) or \
        f"{len(lines) - 1} programs agree on {', '.join(BENCH_COLUMNS)}"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--probe", action="store_true",
                   help="stop after set-up")
    args = p.parse_args(argv)

    if not os.path.abspath(lambdix.__file__).startswith(SRC + os.sep):
        sys.exit(f"lambdix was imported from {lambdix.__file__}, not {SRC}")
    workload = make_workload(args.workload, args.seed, args.size)
    # the runner alone holds the first op's interpreter, so that it is freed
    # after that op like every other
    runner = Runner(workload, Interpreter(strategy=workload.ops[0].strategy,
                                          out=io.StringIO()))
    print("ready", flush=True)
    if args.probe:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    # the workload and its speed reference share one CPU (threads started
    # later inherit the affinity)
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    probe = SpeedProbe(cpu)
    try:
        deadline = time.monotonic() + args.seconds
        while True:
            runner.run_pass()
            if tracer is not None:
                tracer.install()
                try:
                    runner.run_pass(tracer)
                finally:
                    tracer.uninstall()
            if time.monotonic() >= deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        speed = probe.stop()

    expected = expected_outputs(workload)
    failed = runner.failed_ops(expected)
    attempted = runner.passes * len(workload.ops)
    checks = {
        "outputs_match_expected": (
            failed == 0, f"{failed} of {attempted} ops differ or raised"),
        "counts_repeat_every_pass": (
            runner.count_mismatches == 0,
            f"{runner.count_mismatches} op counts differ from pass 1"),
    }
    wall_ns, cpu_ns = runner.op_times(speed)
    raw_wall_ns, raw_cpu_ns = runner.op_times()
    op_ms = [t / 1e6 for t in wall_ns]
    passes = runner.pass_times()
    result = {
        "workload": workload.name,
        "ops_per_pass": len(workload.ops),
        "passes_untraced": runner.untraced_passes,
        "passes_recorded": runner.recorded_passes,
        "passes_traced": len(runner.traced),
        "cpu_s": sum(cpu_ns) / 1e9,
        "wall_s": sum(wall_ns) / 1e9,
        "raw_cpu_s": sum(raw_cpu_ns) / 1e9,
        "raw_wall_s": sum(raw_wall_ns) / 1e9,
        "raw_pass_cpu_s": [c for c, _ in passes],
        "raw_pass_wall_s": [w for _, w in passes],
        "speed": speed.summary(),
        "op_ms": stats.summary(op_ms),
        "op_ms_tail": stats.tail(op_ms),
        "op_ms_geomean": stats.geomean(op_ms),
        "raw_op_ms_p50": statistics.median(raw_wall_ns) / 1e6,
        "prog_ms": {} if workload.session else
        {op.label: ms for op, ms in zip(workload.ops, op_ms)},
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "counts_per_pass": runner.pass_counts(),
    }
    if tracer is not None:
        tokens = sum(len(lambdix.reader.tokenize(op.text))
                     for op in workload.ops)
        layers, trace_checks, detail = layer_metrics(tracer, runner, tokens)
        checks.update(trace_checks)
        result["layers"] = layers
        result["trace_detail"] = detail
        if workload.name.startswith("suite-"):
            checks["counts_equal_lambdix_bench"] = bench_check(workload,
                                                               runner)
    result["checks"] = {name: {"ok": ok, "detail": detail}
                        for name, (ok, detail) in checks.items()}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
