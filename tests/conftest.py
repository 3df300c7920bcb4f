import io

from lambdix import Interpreter
from lambdix.runtime import OWNER, PARENT


# Far above the closure calls of any test program (the largest suite run,
# LSum under value, makes 176,689): a defect that makes a program loop
# fails its test at this budget instead of leaving the run hanging.
STEP_LIMIT = 1_000_000


def make_interp(strategy="need", step_limit=STEP_LIMIT, **kwargs):
    out = io.StringIO()
    interp = Interpreter(strategy=strategy, step_limit=step_limit, out=out,
                         **kwargs)
    return interp, out


def run(text, strategy="need", **kwargs):
    """Evaluate a program; returns (rendered results, printed output, interp)."""
    interp, out = make_interp(strategy, **kwargs)
    rendered = interp.eval_source_rendered(text)
    return rendered, out.getvalue(), interp


def observe_installs(rt, fn):
    """Call fn(struct, tests, assignments) after every install on `rt`,
    with the install's struct and its switch counts, by wrapping that
    method on this one instance; the counts are the counters' deltas."""
    install = rt.install
    c = rt.counters

    def observed_install(block, parent_current=False):
        tests, assignments = c.switch_tests, c.switch_assignments
        log = install(block, parent_current)
        fn(block[OWNER], c.switch_tests - tests,
           c.switch_assignments - assignments)
        return log

    rt.install = observed_install
    return rt


def check_installs(rt):
    """Assert after every install on `rt`, by wrapping that method on this
    one instance, that the owner's whole chain is current and that the
    install tested each level of the owner, `struct.depth` tests, or one
    level in the three straight-line shapes: a block not yet current whose
    owner is one level deep, or whose caller passes `parent_current` (a
    let's entry, a call of a let's own function)."""
    install = rt.install
    c = rt.counters

    def checked_install(block, parent_current=False):
        struct = block[OWNER]
        straight = (struct.current_block is not block
                    and (parent_current or struct.depth == 1))
        tests = c.switch_tests
        log = install(block, parent_current)
        _assert_installed(rt, block)
        assert c.switch_tests - tests == (1 if straight else struct.depth), \
            f"{c.switch_tests - tests} tests to install {struct!r}"
        return log

    rt.install = checked_install
    return rt


def check_switches(rt, structs):
    """check_installs, and chain coherence after every install and every
    restore on `rt`, by wrapping those two methods on this one instance.
    `structs` is the live list of every structure the checks cover."""
    check_installs(rt)
    install, restore = rt.install, rt.restore

    def checked_install(block, parent_current=False):
        log = install(block, parent_current)
        _assert_coherent(rt, structs)
        return log

    def checked_restore(log):
        restore(log)
        _assert_coherent(rt, structs)

    rt.install = checked_install
    rt.restore = checked_restore
    return rt


def _assert_installed(rt, block):
    s, b = block[OWNER], block
    while s is not rt.top_struct:
        assert s.current_block is b, \
            f"install left {s!r} pointing away from {b!r}"
        s = s.parent
        b = b[PARENT]
    assert b is rt.top_block


def _assert_coherent(rt, structs):
    # whenever a structure's current block is set, it belongs to that
    # structure and its parent's current block is the matching ancestor
    top = rt.top_struct
    for s in structs:
        b = s.current_block
        if s is top or b is None:
            continue
        assert b[OWNER] is s
        if s.parent is not top:
            assert s.parent.current_block is b[PARENT], \
                f"stale ancestor link above {s!r}"
