"""Machine-speed reference for the workload process.

Other tenants of a shared machine slow a CPU down by up to 2x, in phases
that last from under a second to minutes, so raw times of the same work
differ by tens of percent from run to run. This process runs beside the
workload process, pinned to the same CPU: every PERIOD_S it times a fixed
pure-Python loop in CPU time (its own preemption does not count) and
records when it ran. The loop mixes arithmetic, a walk over about 10 MB
of objects and a small tree-walking evaluator, so that it slows down with
contention much as the interpreter does. The workload process divides each op's times by the
loop's mean time around that op and multiplies by REFERENCE_NS, giving
times at the loop's reference speed. The loop is the benchmark's own code,
so it does not get faster or slower when the interpreter does.

    python3 perfbench/speed.py CPU

prints "ready" when it starts sampling, runs until its standard input is
closed, then prints its samples as a JSON list of [start_ns, loop_ns] pairs
(time.monotonic_ns, CPU nanoseconds).
"""

import bisect
import json
import os
import random
import select
import subprocess
import sys
import time

REFERENCE_NS = 500_000  # about the loop's CPU time on an idle CPU
PERIOD_S = 0.015
# an interval's factor averages the samples from this long before it to
# this long after it
WINDOW_PAD_NS = 50_000_000
RING_SIZE = 200_000  # about 10 MB of objects, more than a CPU cache


class _Node:
    __slots__ = ("next",)


class _Op:
    __slots__ = ("op", "a", "b")

    def __init__(self, op, a, b):
        self.op, self.a, self.b = op, a, b


def _ring(size, seed=1):
    """A ring of objects linked in a shuffled order, so that walking it
    reads memory at random like an interpreter's heap does."""
    nodes = [_Node() for _ in range(size)]
    order = list(range(size))
    random.Random(seed).shuffle(order)
    for a, b in zip(order, order[1:] + order[:1]):
        nodes[a].next = nodes[b]
    return nodes[0]


def _tree(depth, k=1):
    """An arithmetic expression over constants and the variables x, y."""
    if depth == 0:
        return k if k % 3 else ("x" if k % 2 else "y")
    return _Op("+" if depth % 2 else "*", _tree(depth - 1, k),
               _tree(depth - 1, k + 1))


class _Evaluator:
    """A tree-walking evaluator of the same shape as the interpreter's:
    type dispatch, recursion, method calls, dictionary lookups."""

    def eval(self, x, env):
        t = type(x)
        if t is int:
            return x
        if t is str:
            return env[x]
        return self.apply(x.op, self.eval(x.a, env), self.eval(x.b, env))

    def apply(self, op, a, b):
        return (a + b) % 1000003 if op == "+" else (a * b) % 1000003


TREE = _tree(9)
ENV = {"x": 3, "y": 5}


def reference_loop(node):
    """Arithmetic in the bytecode loop, a walk of the ring and a small
    tree-walking evaluation: CPU contention slows the first, cache
    contention the second, and the third has the interpreter's mix of
    calls and dispatch."""
    s = 0
    for i in range(2000):
        s += i * i
    for _ in range(1000):
        node = node.next
    _Evaluator().eval(TREE, ENV)
    return node


def main():
    os.sched_setaffinity(0, {int(sys.argv[1])})
    node = _ring(RING_SIZE)
    print("ready", flush=True)
    samples = []
    while True:
        start = time.monotonic_ns()
        c0 = time.thread_time_ns()
        node = reference_loop(node)
        samples.append((start, time.thread_time_ns() - c0))
        if select.select([sys.stdin], [], [], PERIOD_S)[0]:
            break  # end of input: the workload is done
    json.dump(samples, sys.stdout)


class SpeedProbe:
    """Runs speed.py on one CPU while the workload runs; `stop` returns a
    Speed built from its samples."""

    def __init__(self, cpu):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("speed.py did not start")

    def stop(self):
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise
        if self.proc.returncode != 0:
            raise RuntimeError(f"speed.py exited with {self.proc.returncode}")
        return Speed(json.loads(out))


class Speed:
    """Factor that turns a time measured in an interval into a time at the
    reference speed."""

    def __init__(self, samples):
        if not samples:
            raise RuntimeError("speed.py recorded no samples")
        self.starts = [s for s, _ in samples]
        self.loop_ns = [ns for _, ns in samples]
        self.prefix = [0]
        for ns in self.loop_ns:
            self.prefix.append(self.prefix[-1] + ns)

    def factor(self, t0, t1):
        """REFERENCE_NS over the mean loop time of the samples taken from
        WINDOW_PAD_NS before t0 to WINDOW_PAD_NS after t1."""
        i = bisect.bisect_left(self.starts, t0 - WINDOW_PAD_NS)
        j = bisect.bisect_right(self.starts, t1 + WINDOW_PAD_NS)
        if i >= j:  # no sample that close: take the nearest one
            i = min(i, len(self.starts) - 1)
            j = i + 1
        return REFERENCE_NS * (j - i) / (self.prefix[j] - self.prefix[i])

    def summary(self):
        ordered = sorted(self.loop_ns)
        return {"samples": len(ordered), "min_ns": ordered[0],
                "median_ns": ordered[len(ordered) // 2],
                "max_ns": ordered[-1], "reference_ns": REFERENCE_NS}


if __name__ == "__main__":
    main()
