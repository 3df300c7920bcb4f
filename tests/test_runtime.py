import pytest

from conftest import check_switches, make_interp, observe_installs
from lambdix.analyzer import LambdaStruct
from lambdix.errors import EvalError
from lambdix.oracle import generate_program
from lambdix.reader import read_program
from lambdix.runtime import FIRST, OWNER, PARENT, UNSET, Counters, Runtime


def chain(depth=3):
    """top <- s1 <- s2 <- ... and matching blocks, all one-parameter."""
    top = LambdaStruct(0, "top", (), None)
    registry = [top]
    counters = Counters()
    rt = check_switches(Runtime(top, counters), registry)
    structs, blocks = [], []
    parent_s, parent_b = top, rt.top_block
    for i in range(1, depth + 1):
        s = LambdaStruct(i, f"s{i}", ("a",), parent_s)
        registry.append(s)
        b = rt.new_block([s, parent_b, i * 10])
        structs.append(s)
        blocks.append(b)
        parent_s, parent_b = s, b
    return rt, counters, structs, blocks


def test_block_shape_and_arity():
    rt, counters, structs, blocks = chain(1)
    assert blocks[0][FIRST:] == [10]
    assert blocks[0][OWNER] is structs[0]
    assert blocks[0][PARENT] is rt.top_block
    with pytest.raises(EvalError) as exc:
        rt.new_block([structs[0], rt.top_block, 1, 2])
    assert exc.value.category == "arity"
    assert exc.value.message == "s1: expected 1 argument(s), got 2"


def test_zero_parameter_block_still_allocated():
    rt, counters, _, _ = chain(0)
    before = counters.blocks_allocated
    s = LambdaStruct(9, "z", (), rt.top_struct)
    b = rt.new_block([s, rt.top_block])
    assert b[FIRST:] == []
    assert counters.blocks_allocated == before + 1


def test_new_block_is_the_vector_itself():
    # the caller's vector is the block: a let passes its cells unset
    rt, counters, _, _ = chain(0)
    s = LambdaStruct(9, "let", ("x", "y"), rt.top_struct)
    vector = [s, rt.top_block, UNSET, UNSET]
    assert rt.new_block(vector) is vector
    assert vector[FIRST:] == [UNSET, UNSET]
    assert counters.blocks_allocated == 2


def test_install_all_stale_costs_chain_length():
    rt, counters, structs, blocks = chain(3)
    log = rt.install(blocks[2])
    assert (counters.switch_tests, counters.switch_assignments) == (3, 3)
    assert structs[2].current_block is blocks[2]
    assert structs[0].current_block is blocks[0]
    rt.restore(log)
    assert all(s.current_block is None for s in structs)


def test_reinstall_is_one_test_no_assignment():
    rt, counters, structs, blocks = chain(3)
    rt.install(blocks[2])
    before = counters.snapshot()
    log = rt.install(blocks[2])
    d = counters.delta(before)
    assert (d["switch_tests"], d["switch_assignments"]) == (1, 0)
    assert log == []


def test_install_stops_at_first_correct_ancestor():
    rt, counters, structs, blocks = chain(3)
    log_all = rt.install(blocks[2])
    rt.restore(log_all)
    rt.install(blocks[0])
    before = counters.snapshot()
    rt.install(blocks[2])
    d = counters.delta(before)
    # s3 and s2 stale, s1 already correct: three tests, two assignments
    assert (d["switch_tests"], d["switch_assignments"]) == (3, 2)


def test_self_recursion_is_one_test_one_assignment():
    rt, counters, structs, blocks = chain(1)
    s1 = structs[0]
    rt.install(blocks[0])
    b2 = rt.new_block([s1, rt.top_block, 99])
    before = counters.snapshot()
    rt.install(b2)
    d = counters.delta(before)
    assert (d["switch_tests"], d["switch_assignments"]) == (1, 1)


def test_restore_replays_in_reverse():
    rt, counters, structs, blocks = chain(2)
    outer = rt.install(blocks[1])
    alt = rt.new_block([structs[1], blocks[0], 77])
    inner = rt.install(alt)
    assert structs[1].current_block is alt
    rt.restore(inner)
    assert structs[1].current_block is blocks[1]
    rt.restore(outer)
    assert structs[1].current_block is None
    rt.restore([])  # empty log is a no-op


def test_installing_the_top_block_is_free():
    rt, counters, structs, blocks = chain(1)
    seen = []
    observe_installs(rt, lambda s, t, a: seen.append((s, t, a)))
    before = counters.snapshot()
    log = rt.install(rt.top_block)
    assert log == []
    d = counters.delta(before)
    assert (d["switch_tests"], d["switch_assignments"]) == (0, 0)
    assert seen == [(rt.top_struct, 0, 0)]
    rt.restore(log)
    assert rt.top_struct.current_block is rt.top_block


def test_three_level_round_trip_restores_every_block():
    # every install shape in turn: one level deep, a walk that stops early,
    # a re-install, a walk of one level at depth 3 and the top block; each
    # restore, in reverse, must bring back the blocks seen before its install
    rt, counters, structs, blocks = chain(3)
    alt = rt.new_block([structs[2], blocks[1], 99])
    shapes = []
    observe_installs(rt, lambda s, t, a: shapes.append((t, a)))
    states, logs = [], []
    for block in (blocks[0], blocks[2], blocks[2], alt, rt.top_block):
        states.append([s.current_block for s in structs])
        logs.append(rt.install(block))
    assert shapes == [(1, 1), (3, 2), (1, 0), (2, 1), (0, 0)]
    while logs:
        rt.restore(logs.pop())
        now = [s.current_block for s in structs]
        assert all(a is b for a, b in zip(now, states.pop()))
    assert all(s.current_block is None for s in structs)


def test_install_walks_the_block_owners_chain():
    # the struct is block.owner; owner and block chains climb in lockstep,
    # and the observer still receives the struct
    rt, counters, structs, blocks = chain(3)
    seen = []
    observe_installs(rt, lambda s, t, a: seen.append((s, t, a)))
    rt.install(blocks[1])
    assert seen == [(structs[1], 2, 2)]
    now = [s.current_block for s in structs]
    assert all(a is b for a, b in zip(now, [blocks[0], blocks[1], None]))


def test_lookup_constant_hops():
    rt, counters, structs, blocks = chain(3)
    rt.install(blocks[2])
    before = counters.snapshot()
    assert rt.lookup(0, 0, structs[2]) == 30
    assert rt.lookup(2, 0, structs[2]) == 10
    assert counters.delta(before)["lookups"] == 2


def test_lookup_without_environment_is_internal_error():
    rt, counters, structs, _ = chain(1)
    with pytest.raises(EvalError) as exc:
        rt.lookup(0, 0, structs[0])
    assert exc.value.category == "internal"


def test_counters_monotone():
    rt, counters, structs, blocks = chain(2)
    seen = counters.snapshot()
    for _ in range(3):
        log = rt.install(blocks[1])
        rt.lookup(0, 0, structs[1])
        rt.restore(log)
        now = counters.snapshot()
        assert all(now[k] >= seen[k] for k in now)
        seen = now


def test_unset_sentinel_distinct():
    assert UNSET is not None


# --- program-level checks --------------------------------------------------

FIB = "(de (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))"


def py_calls(n):
    return 1 if n < 2 else 1 + py_calls(n - 1) + py_calls(n - 2)


def test_fib_self_recursion_install_cost():
    # strict strategy: the only installs are the closure calls themselves,
    # each exactly one test and one assignment on a depth-1 struct
    interp, _ = make_interp("value")
    interp.eval_source(FIB)
    before = interp.counters.snapshot()
    interp.eval_source("(fib 15)")
    d = interp.counters.delta(before)
    expected = py_calls(15)
    assert d["switch_tests"] == expected
    assert d["switch_assignments"] == expected
    assert d["blocks_allocated"] == expected


def test_instrumented_installs_respect_depth_bound():
    for strategy in ("value", "need"):
        interp, _ = make_interp(strategy)
        records = []
        observe_installs(interp.rt,
                         lambda s, t, a: records.append((s, t, a)))
        interp.eval_source(
            "(de (make) (let ((de a 1)) (let ((de b 2)) (lambda (q) (+ a (+ b q))))))"
            " (de probe (make)) (probe 1) (probe 2)")
        assert records
        for struct, tests, assigns in records:
            assert tests <= struct.depth
            assert assigns <= tests


def test_global_lookup_cost_independent_of_recursion_depth():
    # lookups grow affinely with depth: the bottom global fetch costs the
    # same whether it happens 10 or 1000 frames down
    def lookups_at(depth):
        interp, _ = make_interp("value")
        interp.eval_source("(de GLOB 7) (de (g n) (if (< n 1) GLOB (g (- n 1))))")
        before = interp.counters.snapshot()
        interp.eval_source(f"(g {depth})")
        return interp.counters.delta(before)["lookups"]

    t10, t100 = lookups_at(10), lookups_at(100)
    slope = (t100 - t10) / 90
    assert slope == int(slope)
    intercept = t10 - slope * 10
    assert lookups_at(1000) == slope * 1000 + intercept


def test_restore_exactness_on_random_programs():
    for seed in range(25):
        text = generate_program(7000 + seed)
        for strategy in ("value", "need"):
            interp, _ = make_interp(strategy, step_limit=20_000)
            for sx in read_program(text):
                known = list(interp.structs)
                snap = [s.current_block for s in known]
                try:
                    interp.eval_form_rendered(sx)
                except Exception:
                    pass
                now = [s.current_block for s in known]
                assert all(a is b for a, b in zip(now, snap))
                for new in interp.structs[len(known):]:
                    assert new.current_block is None


def test_debug_coherence_checks_pass_under_fuzz():
    # chain coherence asserted after every install and restore; only
    # interpreter-level errors are acceptable, never AssertionError
    from lambdix.errors import LambdixError
    for seed in range(15):
        text = generate_program(8000 + seed)
        for strategy in ("value", "need"):
            interp, _ = make_interp(strategy, step_limit=20_000)
            check_switches(interp.rt, interp.structs)
            try:
                interp.eval_source(text)
            except LambdixError:
                pass
