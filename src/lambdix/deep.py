"""Per-program runtime policy: the recursion limit, a reserved data-stack
chunk and the cyclic collector's schedule.

Recursion limit. Evaluation recurses through the nodes' `ev` methods: one
Python frame per application, `if` or `let` between two interpreted calls,
plus two (the variable read and `_force`) per thunk forced on the way;
FRAMES_PER_LEVEL is the most one interpreted level takes on the shapes
tests/test_evaluator.py measures. Since Python 3.11, Python-to-Python
calls use no C stack, so the calling thread can run the configured depth
limit (default 100,000) once the recursion limit is raised; no dedicated
thread is needed. The command line refuses a depth limit above
MAX_DEPTH_LIMIT, where the recursion limit would bind first on those
shapes. Should it still bind first (a deeper shape, such as a call nested
in five sums, or a primitive shape whose name was redefined, which runs
its call shape in a second frame: 5 frames a level; or a caller that
passes a larger limit), the RecursionError is reported as the depth limit.

Reserved chunk. CPython keeps Python frames in data-stack chunks of 16 KB.
A call that does not fit in the current chunk maps a new one, and the
return from that call unmaps it again, so a recursion that oscillates
across a chunk's end pays an mmap/munmap pair and fresh page faults on
every crossing. Whether a program does so depends on the Python depth it
is started from as much as on the program. `call_on_reserved_stack`
avoids it: its code object declares a value stack of RESERVED_SLOTS
slots, so entering it maps one chunk of 16 MB, of which its own frame
claims half and every frame called below it nests in the other half. The
chunk is unmapped once, when the call returns. Only pages that frames
touch become resident, so a shallow program costs no more memory than
before, and a recursion deeper than the free half continues in ordinary
chunks, so depth and limits are unchanged. Without the reservation Sieve
under value takes 295 ms instead of 221 (measured in-process). The pages
a deep recursion touched stay resident until the call returns, though,
where ordinary chunks are unmapped as it unwinds; a program whose heap
peaks after its deepest recursion can therefore peak up to 8 MB higher.

Collector schedule. Generational collection pays off when most young
objects die young. A strict run's deep recursion breaks that: each level
keeps a block and an install log alive, so CPython's
default young generation of 700 objects keeps promoting live data, and
every tenth collection of the middle generation becomes a full one that
rescans every live object. `call_on_reserved_stack` therefore raises
generation 0's threshold to GC_YOUNG_THRESHOLD for the call and puts the
saved thresholds back on every exit. It never lowers a threshold the host
raised and never turns on a collector the host turned off (threshold 0).
Measured in-process, Python 3.11 on a 2-core host, the median of three
passes over the benchmark's workloads at thresholds 700 / 2,000 / 5,000 /
10,000: suite-value spends 267 / 138 / 69 / 32 ms a pass in the
collector, suite-need 58 / 19 / 0.3 / 0 ms, and nested-scopes 29 / 24 /
23 / 22 ms. Nested-scopes frees cyclic garbage (let blocks whose slots
hold closures and thunks of that block), so it saves little, and its peak
memory grows with the young generation: +0.1 / +0.2 / +0.7 MB over 700.
5,000 takes most of the saving for a third of 10,000's extra memory.

One reservation costs about 15 µs (mapping and unmapping the chunk), a
third of a typical REPL form's evaluation. Reservations, and with them
the schedule, are therefore made per program (`Interpreter.eval_source`,
`eval_source_rendered`, the oracle's program runs) and per REPL session,
never per form (`Interpreter.eval_form_rendered`).

`call_with_deep_stack` keeps its name because callers outside the package
import it.
"""

import gc
import sys

from .errors import LambdixError, LimitExceeded

RECURSION_LIMIT = 700_000

# the most Python frames one interpreted level takes, and the largest depth
# limit whose levels then all fit under the recursion limit
FRAMES_PER_LEVEL = 4
MAX_DEPTH_LIMIT = (RECURSION_LIMIT - 1) // FRAMES_PER_LEVEL

# value-stack slots of the reserving frame (8 bytes each); CPython rounds
# the chunk up to the next power of two, 16 MB, leaving about 8 MB free
RESERVED_SLOTS = 1 << 20

# generation-0 threshold of the cyclic collector while a program runs
GC_YOUNG_THRESHOLD = 5_000


def call_with_deep_stack(fn, *args, **kwargs):
    """Run fn(*args, **kwargs) on the caller's thread with the recursion
    limit raised for the call and the caller's limit put back on every
    exit; a RecursionError surfaces as LimitExceeded("depth").

    A Lambdix error leaves without the frames it was raised through: at
    the depth limit they are some 300,000, and formatting such a traceback
    (as a test runner does for a failing test) takes minutes. The error's
    category and message are what reports it."""
    saved = sys.getrecursionlimit()
    try:
        # raised inside the try, as in call_on_reserved_stack
        if saved < RECURSION_LIMIT:
            sys.setrecursionlimit(RECURSION_LIMIT)
        return fn(*args, **kwargs)
    except RecursionError:
        raise LimitExceeded("depth") from None
    except LambdixError as e:
        raise e.with_traceback(None)
    finally:
        sys.setrecursionlimit(saved)


def call_on_reserved_stack(fn, *args, **kwargs):
    """Run fn(*args, **kwargs) with every frame it calls nested in one
    reserved data-stack chunk, and the collector's young generation sized
    for evaluation (see the module docstring)."""
    saved = gc.get_threshold()
    try:
        # raised inside the try, so that an interrupt cannot land between
        # the change and the finally that undoes it
        if 0 < saved[0] < GC_YOUNG_THRESHOLD:
            gc.set_threshold(GC_YOUNG_THRESHOLD, *saved[1:])
        return fn(*args, **kwargs)
    finally:
        gc.set_threshold(*saved)


call_on_reserved_stack.__code__ = call_on_reserved_stack.__code__.replace(
    co_stacksize=RESERVED_SLOTS)
