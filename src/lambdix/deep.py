"""Python-stack policy for top-level evaluation.

Evaluation recurses through the nodes' `ev` methods: one Python frame per
application, `if` or `let` between two interpreted calls, plus two (the
variable read and `_force`) per thunk forced on the way. Since Python 3.11,
Python-to-Python calls use no C stack, so the calling thread can run the
configured depth limit (default 100,000) once the recursion limit is
raised; no dedicated thread is needed. Should the recursion limit still
bind first (a depth limit raised far past the default), the RecursionError
is reported as the depth limit.

`call_with_deep_stack` keeps its name because callers outside the package
import it.
"""

import sys

from .errors import LimitExceeded

RECURSION_LIMIT = 700_000


def call_with_deep_stack(fn, *args, **kwargs):
    """Run fn(*args, **kwargs) on the caller's thread with the recursion
    limit raised; a RecursionError surfaces as LimitExceeded("depth")."""
    if sys.getrecursionlimit() < RECURSION_LIMIT:
        sys.setrecursionlimit(RECURSION_LIMIT)
    try:
        return fn(*args, **kwargs)
    except RecursionError:
        raise LimitExceeded("depth") from None
