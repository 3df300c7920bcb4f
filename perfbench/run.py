"""Lambdix benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: suite-value, suite-need, nested-scopes, repl-session (see
RATIONALE.md for why each exists and what it should move). Run from the
root of a checkout; the interpreter is imported from its src/ directory.

The command starts the workload's process (worker.py) once to run the
workload and SETUP_PROBES more times, half before and half after, only to
time set-up: from process launch to the worker's "ready" line. All of them
share one CPU with speed.py, which measures how fast that CPU is at each
moment; every reported time is scaled to speed.py's reference speed, and
the raw figures are in the report. Set-up is the median of all launches.
The workload process drives the interpreter through its public API in a
closed loop for --seconds and checks every output.

Standard output: a table of the metrics, one JSON line with the full report
(run context, spreads, checks), and a last JSON line with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics of a traced run with --trace 1. Exits 1 when any
output or check is wrong, 2 when the run cannot be made.
"""

import argparse
import json
import os
import platform
import selectors
import subprocess
import sys
import time

import stats
from speed import SpeedProbe
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_PROBES = 6
READY_TIMEOUT_S = 60
RUN_LIMIT_S = 170  # the whole command must end within 180 s
# fixed hash seed for the workload process, so that dict and set layout does
# not differ between runs
WORKER_ENV = {"PYTHONHASHSEED": "0"}

END_TO_END = (  # name, unit
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("wall_s", "s"),
    ("op_ms.p50", "ms"),
    ("op_ms.tail", "ms"),
    ("op_ms.geomean", "ms"),
    ("peak_rss_mb", "MB"),
    ("fail_ratio", "ratio"),
    ("switch_tests", "count"),
    ("switch_assignments", "count"),
)
# fail_ratio is 0 on a correct interpreter and a bounded metric must never
# be 0, so it is reported and enforced (non-zero exit), not bounded
REPORTED_ONLY = ("fail_ratio",)

PER_LAYER_UNITS = {
    "calls": "count", "self_ms": "ms", "tokens_per_s": "1/s",
    "structs_created": "count", "steps": "count", "ns_per_step": "ns",
    "thunks_created": "count", "thunks_forced": "count",
    "force_ratio": "ratio", "switch_tests_per_install": "ratio",
    "assignment_ratio": "ratio", "hops_mean": "hops",
    "blocks_allocated": "count", "ns_per_call": "ns",
    "self_us_per_call": "us", "overhead_ratio": "ratio",
}


def per_layer_unit(name):
    return PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


def git_rev():
    """HEAD of the checkout, read from .git without leaving it; None when
    the checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        return None
    return None


def run_context(args):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_rev": git_rev(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "worker_env": WORKER_ENV,
        "setup_probes": SETUP_PROBES,
    }


def launch(args, probe):
    """Start a workload process; returns it and its set-up time, from
    launch to its "ready" line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    if probe:
        cmd.append("--probe")
    t0 = time.monotonic_ns()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            env=dict(os.environ, **WORKER_ENV))
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        line = proc.stdout.readline() if sel.select(READY_TIMEOUT_S) else ""
    t1 = time.monotonic_ns()
    if line.strip() != "ready":
        stop(proc)
        raise RuntimeError("workload process did not get ready "
                           f"(exit code {proc.returncode})")
    return proc, (t0, t1)


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def finish(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise RuntimeError("workload process ran out of time")
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return out


def measure(args):
    """Set-up times (raw and at reference speed, in seconds) of every
    launch, and the workload process's result."""
    deadline = time.monotonic() + RUN_LIMIT_S
    # every process of the run shares one CPU with its speed reference
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    raw, scaled = [], []

    def probes(count):
        speed_probe = SpeedProbe(cpu)
        windows = []
        try:
            for _ in range(count):
                proc, window = launch(args, probe=True)
                finish(proc, deadline)
                windows.append(window)
        finally:
            speed = speed_probe.stop()
        for t0, t1 in windows:
            raw.append((t1 - t0) / 1e9)
            scaled.append((t1 - t0) / 1e9 * speed.factor(t0, t1))
        return speed

    # launches before and after the workload, so that one slow phase of the
    # machine does not cover all of them; the workload's own launch is
    # scaled by the nearest earlier samples
    speed = probes(SETUP_PROBES // 2)
    proc, (t0, t1) = launch(args, probe=False)
    raw.append((t1 - t0) / 1e9)
    scaled.append((t1 - t0) / 1e9 * speed.factor(t0, t1))
    lines = finish(proc, deadline).strip().splitlines()
    probes(SETUP_PROBES - SETUP_PROBES // 2)
    if not lines:
        raise RuntimeError("workload process printed no result")
    return raw, scaled, json.loads(lines[-1])


def end_to_end(setups, raw_setups, w):
    """name -> value plus the spread behind it. Times are at the reference
    speed of speed.py. Set-up is the median of all launches; each op's time
    is its median over the recorded passes, and a pass's CPU and wall time
    are the sums over its ops. The spreads given for cpu_s and wall_s are
    those of the raw pass times."""
    counts = w["counts_per_pass"]
    ops = w["op_ms"]
    tail = w["op_ms_tail"]

    setup = stats.summary(setups)

    def exact(v):
        return {"value": v, "n": 1}

    return {
        "setup_s": dict(setup, value=setup["median"],
                        raw=stats.summary(raw_setups)["median"]),
        "cpu_s": dict(stats.summary(w["raw_pass_cpu_s"]), value=w["cpu_s"],
                      raw=w["raw_cpu_s"]),
        "wall_s": dict(stats.summary(w["raw_pass_wall_s"]),
                       value=w["wall_s"], raw=w["raw_wall_s"]),
        "op_ms.p50": dict(ops, value=ops["median"], raw=w["raw_op_ms_p50"]),
        "op_ms.tail": dict(ops, value=tail["value"],
                           percentile=tail["percentile"],
                           beyond=tail["beyond"]),
        "op_ms.geomean": dict(ops, value=w["op_ms_geomean"]),
        "peak_rss_mb": exact(w["peak_rss_mb"]),
        "fail_ratio": exact(w["failed"] / w["attempted"]),
        "switch_tests": exact(counts["switch_tests"]),
        "switch_assignments": exact(counts["switch_assignments"]),
    }


def print_table(e2e, layers):
    for name, unit in END_TO_END:
        m = e2e[name]
        extra = ""
        if "p25" in m:
            extra = (f"  [p25 {m['p25']:.6g}, p75 {m['p75']:.6g}, "
                     f"min {m['min']:.6g}, max {m['max']:.6g}, n {m['n']}]")
        if "percentile" in m:
            extra += f"  (p{m['percentile']:g}, {m['beyond']} beyond)"
        print(f"{name:<20} {m['value']:>14.6g} {unit:<6}{extra}")
    for name, value in (layers or {}).items():
        print(f"{name:<34} {value:>14.6g} {per_layer_unit(name)}")


def main(argv=None):
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a few small ops, for the benchmark's tests")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "lambdix", "__init__.py")):
        print(f"run.py: no interpreter sources under {ROOT}/src",
              file=sys.stderr)
        return 2

    context = run_context(args)
    try:
        raw_setups, setups, w = measure(args)
    except (RuntimeError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    e2e = end_to_end(setups, raw_setups, w)
    layers = w.get("layers")
    checks = w["checks"]
    correct = all(c["ok"] for c in checks.values())

    print_table(e2e, layers)
    for name, c in checks.items():
        print(f"check {name}: {'ok' if c['ok'] else 'FAILED'} - {c['detail']}")
    report = {
        "context": context,
        "end_to_end": {name: dict(e2e[name], unit=unit)
                       for name, unit in END_TO_END},
        "per_layer": layers,
        "trace_detail": w.get("trace_detail"),
        "prog_ms": w["prog_ms"],
        "counts_per_pass": w["counts_per_pass"],
        "speed": w["speed"],
        "passes": {"untraced": w["passes_untraced"],
                   "recorded": w["passes_recorded"],
                   "traced": w["passes_traced"],
                   "ops_per_pass": w["ops_per_pass"]},
        "setup_samples_s": setups,
        "raw_setup_samples_s": raw_setups,
        "checks": checks,
    }
    print(json.dumps({"report": report}))

    if args.trace:
        metrics = {name: {"value": v, "unit": per_layer_unit(name)}
                   for name, v in layers.items()}
    else:
        metrics = {name: {"value": e2e[name]["value"], "unit": unit}
                   for name, unit in END_TO_END if name not in REPORTED_ONLY}
    print(json.dumps({"correct": correct, "attempted": w["attempted"],
                      "failed": w["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
