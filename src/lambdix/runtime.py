"""Blocks, dynamic links, and environment switching.

A block records one call's argument and local values plus a pointer to the
block of the defining environment, mirroring the owner's lexical parent
chain. It is one flat list, a frame vector in Dybvig's sense (Three
Implementation Models for Scheme, 1987): the owner struct in cell OWNER,
the defining block in cell PARENT, then from cell FIRST on one cell per
name of the owner (a function's parameters or a let's local definitions),
so slot `offset` is cell `FIRST + offset`. The caller builds the whole
vector in one allocation, a call with its arguments and a let with its
cells unset, and new_block checks its length and counts it.

Installing an environment walks structure and block chains upward in
lockstep, setting each structure's current-block slot and stopping as soon
as a link is already correct. The early stop assumes that once a pointer is
right, all its ancestors are too. That assumption is known to fail: a
recursive call can re-point an ancestor while a descendant level is still
active, and a closure or thunk born in that level then reads the ancestor's
slots from the wrong block (the strict xfails
test_closure_reentering_a_recursion and, for an ancestor link left
stale, test_let_bound_closure_maker_keeps_every_link_coherent).
Restoration replays the
recorded old pointers in reverse, so the cost of a switch is bounded by the
lexical depth of the callee, never by the dynamic call depth or the argument
count.

A switch takes one of two shapes. A block that is not current and whose
owner is one level deep (every function call of the benchmark suite) is
installed by straight-line code with the walk's counts: one test, one
assignment and two log entries, which restore undoes without a loop.
Every other block goes through the walk, which already costs the top
block nothing and a block that is current one test.

Variable access reads one slot of one structure's current block; the
analyzer resolves the owning structure ahead of time. Global access is a
hash-table fetch. Everything is counted.

A block's cells are written once, with one exception: under call-by-value
a closure call sets to UNSET the cells of its caller's block that its
application read last (analyzer.trim_dead), just before the callee's
block is installed, so a strict recursion does not keep every level's
dead arguments alive. Nothing is cleared under call-by-need, where a
thunk reads its creator's block whenever it is forced. A cell cleared
while something could still read it would read as "used before its
definition".

An install calls no hook. Every install goes through the `install`
attribute of one Runtime instance, so an observer wraps that method on the
instance and reads the switch counters around each call (observe_installs
in tests/conftest.py).
"""

from .errors import EvalError

# slot value for a local definition not yet evaluated (call-by-value lets),
# and for a cell a strict call cleared because nothing reads it again
UNSET = object()

# the cells of a block: its owner struct, the block of the defining
# environment, and the first slot
OWNER, PARENT, FIRST = 0, 1, 2


class Counters:
    """Always-on cost tallies; all monotonically nondecreasing."""

    FIELDS = ("switch_tests", "switch_assignments", "blocks_allocated",
              "lookups", "thunks_created", "thunks_forced", "thunks_elided")

    __slots__ = FIELDS

    def __init__(self):
        for f in self.FIELDS:
            setattr(self, f, 0)

    def snapshot(self):
        return {f: getattr(self, f) for f in self.FIELDS}

    def delta(self, before):
        return {f: getattr(self, f) - before[f] for f in self.FIELDS}


class Runtime:
    """Mutable environment state of one interpreter instance (single-threaded
    by contract)."""

    def __init__(self, top_struct, counters):
        self.top_struct = top_struct
        self.counters = counters
        # The top level is a pseudo-struct with one permanent block; its
        # named bindings live in a growable table because top-level names
        # are added at any time.
        self.top_block = [top_struct, None]
        counters.blocks_allocated += 1
        top_struct.current_block = self.top_block
        self.top_table = {}

    def new_block(self, block):
        """Make the fresh vector `block`, [owner struct, defining block,
        slot0, ...], the block of one entry into its owner: check that it
        has one slot per name of the owner, count it and return the same
        list."""
        struct = block[OWNER]
        n = len(block) - FIRST
        if n != len(struct.names):
            raise EvalError(
                f"{struct.name}: expected {len(struct.names)} argument(s), "
                f"got {n}", "arity")
        self.counters.blocks_allocated += 1
        return block

    def install(self, block):
        """Make `block` (and its ancestors) current for its owner struct (and
        the owner's ancestors); returns the log restore() needs: each
        switched struct followed by its previous block. Stops early at the
        first already-correct link, assuming every link above it is correct
        too (not always so: see the module docstring), or at the top
        pseudo-struct, which is never tested. The one case that needs no
        walk is spelled out: an owner one level deep whose current block is
        not `block`."""
        struct = block[OWNER]
        old = struct.current_block
        top = self.top_struct
        if struct.parent is top and old is not block:
            struct.current_block = block
            tests = assignments = 1
            log = [struct, old]
        else:
            log = []
            s = struct
            b = block
            tests = 0
            while s is not top:
                old = s.current_block
                if old is b:
                    tests = 1
                    break
                log.append(s)
                log.append(old)
                s.current_block = b
                s = s.parent
                b = b[PARENT]
            assignments = len(log) >> 1
            tests += assignments
        c = self.counters
        c.switch_tests += tests
        c.switch_assignments += assignments
        return log

    def restore(self, log):
        """Undo one install exactly (strict LIFO discipline): put back each
        logged struct's previous block, last switched first."""
        n = len(log)
        if n == 2:
            log[0].current_block = log[1]
        elif n:
            for i in range(n - 2, -1, -2):
                log[i].current_block = log[i + 1]

    def lookup(self, hops, offset, struct):
        """Constant-time variable access: `hops` parent links, one
        current-block read, one offset read."""
        s = struct
        for _ in range(hops):
            s = s.parent
        b = s.current_block
        if b is None:
            raise EvalError(f"internal: environment of {s.name} not installed",
                            "internal")
        assert 0 <= offset < len(b) - FIRST
        self.counters.lookups += 1
        return b[FIRST + offset]
