"""Blocks, dynamic links, and environment switching.

A block records one call's argument and local values plus a pointer to the
block of the defining environment, mirroring the owner's lexical parent
chain. It is one flat list, a frame vector in Dybvig's sense (Three
Implementation Models for Scheme, 1987): the owner struct in cell OWNER,
the defining block in cell PARENT, then from cell FIRST on one cell per
name of the owner (a function's parameters or a let's local definitions),
so slot `offset` is cell `FIRST + offset`. The caller builds the whole
vector, a call with its arguments and a let with its cells unset, and
new_block checks its length and counts it.

Installing an environment walks structure and block chains upward in
lockstep, up to the top pseudo-struct, testing each structure's
current-block slot and setting the ones that are wrong. A link that is
already right says nothing about the links above it: a recursive call can
re-point an ancestor while a descendant level is still active, so the walk
never stops early. After an install the owner's whole chain is current,
and restoration replays the recorded old pointers in reverse, undoing each
install exactly. The cost of a switch is therefore at most the lexical
depth of the callee (`struct.depth` tests), never the dynamic call depth
or the argument count.

A block that is not current is installed by straight-line code, one test,
one assignment and a one-pair log that restore undoes without a loop, in
three shapes where the rest of its chain is known to be current: its owner
is one level deep (every function call of the benchmark suite), it is a
let's block, whose parent is the running level's block, or it is a call of
a let's own local function, marked by the analyzer (App.parent_current),
whose closure's block is the let's current block. The running level's
chain is always current, since every install leaves its owner's whole
chain current and restores are LIFO, so both parent links are current
whenever such a switch runs.

Variable access reads one slot of one structure's current block; the
analyzer resolves the owning structure ahead of time. A local read runs
only under a chain that the running evaluation's installs set, so the
evaluator reads that block without testing for it. Global access is a
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

# slot value for a let's local definition not yet bound, and for a cell a
# strict call cleared because nothing reads it again
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
        # named bindings live in a growable table. After construction only
        # Interpreter._eval_top_de writes it, keeping `demanding` and each
        # primitive's `bound` flag; a direct write of a name bypasses both.
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

    def install(self, block, parent_current=False):
        """Make `block` and its ancestors current for its owner struct and
        the owner's ancestors; returns the log restore() needs: each
        switched struct followed by its previous block.

        A block that is not current is installed by straight-line code
        when its owner is one level deep or the caller knows the block's
        parent to be current already (`parent_current`: a let's entry, a
        call of a let's own function): one test, one assignment. Every
        other install walks to the top pseudo-struct, which is never
        tested: one test per level, `struct.depth` in all, and one
        assignment per link that is wrong."""
        struct = block[OWNER]
        old = struct.current_block
        c = self.counters
        # a one-level walk counts alike: suite-need +5 %, repl-session +2 %
        if old is not block and (parent_current
                                 or struct.parent is self.top_struct):
            struct.current_block = block
            c.switch_tests += 1
            c.switch_assignments += 1
            return [struct, old]
        log = []
        top = self.top_struct
        s = struct
        b = block
        while s is not top:
            old = s.current_block
            if old is not b:
                log.append(s)
                log.append(old)
                s.current_block = b
            s = s.parent
            b = b[PARENT]
        c.switch_tests += struct.depth
        c.switch_assignments += len(log) >> 1
        return log

    def restore(self, log):
        """Undo one install exactly (strict LIFO discipline): put back each
        logged struct's previous block, last switched first."""
        n = len(log)
        # one pair without the loop (the loop alone: suite-value +7 %)
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
