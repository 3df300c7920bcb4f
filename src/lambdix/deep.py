"""Python-stack policy for evaluation.

Evaluation recurses through the nodes' `ev` methods: one Python frame per
application, `if` or `let` between two interpreted calls, plus two (the
variable read and `_force`) per thunk forced on the way. Since Python 3.11,
Python-to-Python calls use no C stack, so the calling thread can run the
configured depth limit (default 100,000) once the recursion limit is
raised; no dedicated thread is needed. Should the recursion limit still
bind first (a depth limit raised far past the default), the RecursionError
is reported as the depth limit.

Where the frames live. CPython keeps Python frames in data-stack chunks of
16 KB. A call that does not fit in the current chunk maps a new one, and
the return from that call unmaps it again, so a recursion that oscillates
across a chunk's end pays an mmap/munmap pair and fresh page faults on
every crossing. Whether a program does so depends on the Python depth it
is started from as much as on the program. `call_on_reserved_stack`
avoids it: its code object declares a value stack of RESERVED_SLOTS
slots, so entering it maps one chunk of 16 MB, of which its own frame
claims half and every frame called below it nests in the other half. The
chunk is unmapped once, when the call returns. Only pages that frames
touch become resident, so a shallow program costs no more memory than
before, and a recursion deeper than the free half continues in ordinary
chunks, so depth and limits are unchanged. The pages a deep recursion
touched stay resident until the call returns, though, where ordinary
chunks are unmapped as it unwinds; a program whose heap peaks after its
deepest recursion can therefore peak up to 8 MB higher.

One reservation costs about 15 µs (mapping and unmapping the chunk), a
third of a typical REPL form's evaluation. Reservations are therefore
made per program (`Interpreter.eval_source`, `eval_source_rendered`, the
oracle's program runs) and per REPL session, never per form
(`Interpreter.eval_form_rendered`).

`call_with_deep_stack` keeps its name because callers outside the package
import it.
"""

import sys

from .errors import LambdixError, LimitExceeded

RECURSION_LIMIT = 700_000

# value-stack slots of the reserving frame (8 bytes each); CPython rounds
# the chunk up to the next power of two, 16 MB, leaving about 8 MB free
RESERVED_SLOTS = 1 << 20


def call_with_deep_stack(fn, *args, **kwargs):
    """Run fn(*args, **kwargs) on the caller's thread with the recursion
    limit raised; a RecursionError surfaces as LimitExceeded("depth").

    A Lambdix error leaves without the frames it was raised through: at
    the depth limit they are some 300,000, and formatting such a traceback
    (as a test runner does for a failing test) takes minutes. The error's
    category and message are what reports it."""
    if sys.getrecursionlimit() < RECURSION_LIMIT:
        sys.setrecursionlimit(RECURSION_LIMIT)
    try:
        return fn(*args, **kwargs)
    except RecursionError:
        raise LimitExceeded("depth") from None
    except LambdixError as e:
        raise e.with_traceback(None)


def call_on_reserved_stack(fn, *args, **kwargs):
    """Run fn(*args, **kwargs) with every frame it calls nested in one
    reserved data-stack chunk (see the module docstring)."""
    return fn(*args, **kwargs)


call_on_reserved_stack.__code__ = call_on_reserved_stack.__code__.replace(
    co_stacksize=RESERVED_SLOTS)
