"""Blocks, dynamic links, and environment switching.

A block records one call's argument and local values plus a pointer to the
block of the defining environment, mirroring the owner's lexical parent
chain. Installing an environment walks structure and block chains upward in
lockstep, setting each structure's current-block slot and stopping as soon
as a link is already correct. The early stop assumes that once a pointer is
right, all its ancestors are too. That assumption is known to fail: a
recursive call can re-point an ancestor while a descendant level is still
active, and a closure or thunk born in that level then reads the ancestor's
slots from the wrong block (the strict xfail
test_closure_reentering_a_recursion). Restoration replays the
recorded old pointers in reverse, so the cost of a switch is bounded by the
lexical depth of the callee, never by the dynamic call depth or the argument
count.

Variable access reads one slot of one structure's current block; the
analyzer resolves the owning structure ahead of time. Global access is a
hash-table fetch. Everything is counted.
"""

from .errors import EvalError

# slot value for a local definition not yet evaluated (call-by-value lets)
UNSET = object()


class Block:
    __slots__ = ("owner", "slots", "parent")

    def __init__(self, owner, slots, parent):
        self.owner = owner
        self.slots = slots
        self.parent = parent  # block of the defining environment

    def __repr__(self):
        return f"<block of {self.owner.name}#{self.owner.uid}>"


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
        self.top_block = Block(top_struct, [], None)
        counters.blocks_allocated += 1
        top_struct.current_block = self.top_block
        self.top_table = {}
        # test hook: called with (struct, tests, assignments) after each install
        self.install_observer = None

    def new_block(self, struct, args, defining_block):
        """A block for one entry into `struct`; it takes over the fresh list
        `args` as its slots."""
        if len(args) != len(struct.params):
            raise EvalError(
                f"{struct.name}: expected {len(struct.params)} argument(s), "
                f"got {len(args)}", "arity")
        if struct.local_names:
            args.extend([UNSET] * len(struct.local_names))
        self.counters.blocks_allocated += 1
        return Block(struct, args, defining_block)

    def install(self, block):
        """Make `block` (and its ancestors) current for its owner struct (and
        the owner's ancestors); returns the log restore() needs: each
        switched struct followed by its previous block. Stops early at the
        first already-correct link, assuming every link above it is correct
        too (not always so: see the module docstring), or at the top
        pseudo-struct."""
        top = self.top_struct
        log = []
        struct = s = block.owner
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
            b = b.parent
        assignments = len(log) >> 1
        tests += assignments
        c = self.counters
        c.switch_tests += tests
        c.switch_assignments += assignments
        if self.install_observer is not None:
            self.install_observer(struct, tests, assignments)
        return log

    def restore(self, log):
        """Undo one install exactly (strict LIFO discipline); consumes the
        log."""
        while log:
            old = log.pop()
            log.pop().current_block = old

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
        assert 0 <= offset < len(b.slots)
        self.counters.lookups += 1
        return b.slots[offset]
