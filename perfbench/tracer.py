"""Layer tracing from outside the interpreter.

While installed, a Tracer replaces the public functions of each module of
``lambdix`` with wrappers that time every call. A wrapper is installed where
the name is looked up: ``lambdix.evaluator`` imports ``read_program``,
``render`` and ``call_with_deep_stack`` by name, so those are patched in
``lambdix.evaluator`` (and ``lambdix.builtins``), not only where they are
defined. Methods are patched on their class. ``uninstall`` puts every
original back, so untraced passes run the unmodified program.

Spans are not kept one by one (Sieve under call-by-need makes millions of
lookups); each function keeps a count, its total time and the part of it
covered by child spans. Self time is total minus child time. One stack is
shared by all threads: the deep-stack worker thread runs while the thread
that started it waits in ``join``, so spans never interleave.
"""

import time

import lambdix.analyzer
import lambdix.builtins
import lambdix.evaluator
import lambdix.reader
import lambdix.runtime
from lambdix.values import Primitive

LAYERS = ("reader", "analyzer", "evaluator", "runtime", "builtins", "values",
          "deep")

# (layer, function key, owner, attribute): one row per place a name is
# looked up; rows with the same key share one tally
_TARGETS = (
    ("reader", "tokenize", lambdix.reader, "tokenize"),
    ("reader", "read_program", lambdix.reader, "read_program"),
    ("reader", "read_program", lambdix.evaluator, "read_program"),
    ("analyzer", "analyze", lambdix.analyzer.Analyzer, "analyze"),
    ("analyzer", "make_lambda_struct", lambdix.analyzer.Analyzer,
     "make_lambda_struct"),
    ("analyzer", "analyze_let", lambdix.analyzer.Analyzer, "analyze_let"),
    ("evaluator", "eval_source", lambdix.evaluator.Interpreter, "eval_source"),
    ("evaluator", "eval_source_rendered", lambdix.evaluator.Interpreter,
     "eval_source_rendered"),
    ("evaluator", "eval_form_rendered", lambdix.evaluator.Interpreter,
     "eval_form_rendered"),
    ("evaluator", "force1", lambdix.evaluator.Interpreter, "force1"),
    ("evaluator", "force", lambdix.evaluator.Interpreter, "_force"),
    ("runtime", "install", lambdix.runtime.Runtime, "install"),
    ("runtime", "restore", lambdix.runtime.Runtime, "restore"),
    ("runtime", "lookup", lambdix.runtime.Runtime, "lookup"),
    ("runtime", "new_block", lambdix.runtime.Runtime, "new_block"),
    ("values", "render", lambdix.evaluator, "render"),
    ("values", "render", lambdix.builtins, "render"),
    ("values", "structural_eq", lambdix.builtins, "structural_eq"),
    ("values", "quote_datum", lambdix.evaluator, "quote_datum"),
    ("values", "datum_to_source", lambdix.evaluator, "datum_to_source"),
    ("deep", "call_with_deep_stack", lambdix.evaluator,
     "call_with_deep_stack"),
)


class Tally:
    """Aggregate of one function's spans."""

    __slots__ = ("layer", "calls", "entries", "total_ns", "child_ns", "arg_sum")

    def __init__(self, layer):
        self.layer = layer
        self.calls = 0
        self.entries = 0  # calls made from another layer
        self.total_ns = 0
        self.child_ns = 0
        self.arg_sum = 0  # lookup only: summed hops

    @property
    def self_ns(self):
        return self.total_ns - self.child_ns


class Tracer:
    def __init__(self):
        self.tallies = {}  # "layer.function" -> Tally
        # frames are [child_ns, layer]; the bottom frame collects root spans
        self.stack = [[0, None]]
        self._saved = []

    def tally(self, layer, key):
        name = f"{layer}.{key}"
        if name not in self.tallies:
            self.tallies[name] = Tally(layer)
        return self.tallies[name]

    def wrap(self, layer, key, fn):
        """Return fn wrapped in a span counted under layer.key."""
        tally = self.tally(layer, key)
        stack = self.stack
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            parent = stack[-1]
            frame = [0, layer]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[0] += dt
                tally.calls += 1
                tally.total_ns += dt
                tally.child_ns += frame[0]
                if parent[1] != layer:
                    tally.entries += 1
        return span

    def _wrap_lookup(self, fn):
        inner = self.wrap("runtime", "lookup", fn)
        tally = self.tallies["runtime.lookup"]

        def lookup(rt, hops, offset, struct):
            tally.arg_sum += hops
            return inner(rt, hops, offset, struct)
        return lookup

    def _wrap_deep(self, fn):
        # the callable handed to the deep-stack thread is evaluator work;
        # without its own span it would count as thread start-up
        inner = self.wrap("deep", "call_with_deep_stack", fn)
        body = self.wrap
        return lambda f, *a, **k: inner(body("evaluator", "top_level", f),
                                        *a, **k)

    def install(self):
        for layer, key, owner, attr in _TARGETS:
            original = getattr(owner, attr) if not isinstance(owner, type) \
                else owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            if key == "lookup":
                wrapped = self._wrap_lookup(original)
            elif key == "call_with_deep_stack":
                wrapped = self._wrap_deep(original)
            else:
                wrapped = self.wrap(layer, key, original)
            setattr(owner, attr, wrapped)

    def wrap_primitives(self, interp):
        """Wrap each Primitive.fn of a fresh interpreter's top-level table
        (make_primitives builds new ones for every Interpreter)."""
        for value in interp.rt.top_table.values():
            if type(value) is Primitive:
                value.fn = self.wrap("builtins", value.name, value.fn)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def root_ns(self):
        """Time covered by spans with no traced parent."""
        return self.stack[0][0]

    def layer_totals(self):
        """layer -> (entries, self_ns)."""
        out = {layer: [0, 0] for layer in LAYERS}
        for t in self.tallies.values():
            out[t.layer][0] += t.entries
            out[t.layer][1] += t.self_ns
        return out
