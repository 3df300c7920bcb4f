import inspect
import json
import os
import resource
import signal
import subprocess
import sys

import pytest

from lambdix import cli as cli_module
from lambdix import deep
from lambdix.corpus import run_corpus
from lambdix.evaluator import Interpreter
from lambdix.values import Primitive

MAPFUN_FILE = """\
(de (mapfun f l)
  (if (nullist l) ()
      (cons (! (cons f (car l)))
            (mapfun f (cdr l)))))
(print (mapfun + '((1 2) (2 3) (3 4))))
"""

F_FILE = "(de (f x y) (if (< x 0) 1 (f (- x 1) (f x y)))) (print (f 1 2))\n"


def cli(*args, stdin=None, timeout=240):
    return subprocess.run([sys.executable, "-m", "lambdix", *args],
                          capture_output=True, text=True, input=stdin,
                          timeout=timeout)


def test_run_mapfun_file(tmp_path):
    path = tmp_path / "mapfun.lx"
    path.write_text(MAPFUN_FILE)
    proc = cli("run", str(path))
    assert proc.returncode == 0
    assert proc.stdout == "(3 5 7)\n"


def test_run_divergent_file_exits_limit(tmp_path):
    path = tmp_path / "f.lx"
    path.write_text(F_FILE)
    proc = cli("run", str(path), "--strategy", "value",
               "--step-limit", "1000000")
    assert proc.returncode == 4
    proc = cli("run", str(path), "--strategy", "need")
    assert proc.returncode == 0
    assert proc.stdout == "1\n"


def test_run_empty_file(tmp_path):
    path = tmp_path / "empty.lx"
    path.write_text("")
    proc = cli("run", str(path))
    assert proc.returncode == 0
    assert proc.stdout == ""


def test_run_missing_file():
    proc = cli("run", "/nonexistent/path.lx")
    assert proc.returncode == 1
    assert proc.stderr


def test_run_non_utf8_file_reports_without_traceback(tmp_path):
    path = tmp_path / "bad.lx"
    path.write_bytes(b"(print 1)\n\xff\n")
    proc = cli("run", str(path))
    assert proc.returncode == 1
    assert proc.stdout == ""  # nothing runs from a file that cannot be read
    assert proc.stderr == f"lambdix: {path}: not UTF-8 text (byte 10)\n"


def test_run_evaluation_error_exit_code(tmp_path):
    path = tmp_path / "bad.lx"
    path.write_text("(car 5)")
    proc = cli("run", str(path))
    assert proc.returncode == 1
    assert "car" in proc.stderr


def test_run_stats_flag(tmp_path):
    path = tmp_path / "p.lx"
    path.write_text("(print (+ 1 2))")
    proc = cli("run", str(path), "--stats")
    assert proc.returncode == 0
    assert proc.stdout == "3\n"
    assert "switch_tests" in proc.stderr
    assert "blocks_allocated" in proc.stderr
    assert "thunks_elided" in proc.stderr


def test_repl_session():
    proc = cli("repl", stdin="(de x 3)\nx\nundefinedvar\n(+ x 4)\n")
    assert proc.returncode == 0
    assert "= 3" in proc.stdout
    assert "** error - undefinedvar not defined **" in proc.stdout
    assert "= 7" in proc.stdout


def _cli_utf8(*args, stdin=None):
    env = dict(os.environ, PYTHONUTF8="1")
    return subprocess.run([sys.executable, "-m", "lambdix", *args],
                          capture_output=True, encoding="utf-8", input=stdin,
                          env=env, timeout=240)


def test_unicode_digit_is_an_undefined_name(tmp_path):
    path = tmp_path / "p.lx"
    path.write_text("(print ²)\n", encoding="utf-8")
    proc = _cli_utf8("run", str(path))
    assert proc.returncode == 1
    assert proc.stderr == "** error - ² not defined **\n"
    assert "Traceback" not in proc.stderr
    proc = _cli_utf8("repl", stdin="(de x 3)\n(print ²)\n١٢\n(+ x 4)\n")
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert "** error - ² not defined **" in proc.stdout
    assert "** error - ١٢ not defined **" in proc.stdout
    assert "= 7" in proc.stdout


def test_repl_multiline_continuation():
    proc = cli("repl", stdin="(+ 1\n2)\n")
    assert "= 3" in proc.stdout


def test_repl_reports_a_form_the_input_ends_inside():
    proc = cli("repl", stdin="(print 1")
    assert proc.returncode == 0
    assert proc.stdout == ("$ + \n** error - 1:1: unbalanced parenthesis: "
                           "'(' is never closed **\n")
    proc = cli("repl", stdin="(+ 1 2)\n  ; a comment\n  ")
    assert proc.returncode == 0
    assert proc.stdout == "$ = 3\n$ $ $ \n"


def test_repl_survives_errors():
    proc = cli("repl", stdin="(car ())\n(+ 1 1)\n")
    assert proc.returncode == 0
    assert "** error" in proc.stdout
    assert "= 2" in proc.stdout


def test_repl_lazy_stream_transcript():
    stdin = "(de (from x) (cons x (from (+ x 1))))\n(cadr (from 2))\n"
    proc = cli("repl", stdin=stdin)
    assert "= 3" in proc.stdout


def test_selftest_rejects_zero_count():
    proc = cli("selftest", "--count", "0")
    assert proc.returncode == 2


def test_selftest_small_run():
    proc = cli("selftest", "--count", "3", "--seed", "7")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "MISMATCH" not in proc.stdout
    assert "checks passed" in proc.stdout


def test_selftest_runs_the_corpus_once(monkeypatch, capsys):
    calls = []

    def counting_run_corpus(*args, **kwargs):
        calls.append(1)
        return run_corpus(*args, **kwargs)

    monkeypatch.setattr(cli_module, "run_corpus", counting_run_corpus)
    assert cli_module.main(["selftest", "--count", "1"]) == 0
    assert len(calls) == 1
    assert "70/70 checks passed" in capsys.readouterr().out


def test_run_closes_its_input_file(tmp_path):
    path = tmp_path / "one.lx"
    path.write_text("(print 1)\n")
    proc = subprocess.run([sys.executable, "-X", "dev", "-W",
                           "error::ResourceWarning", "-m", "lambdix", "run",
                           str(path)],
                          capture_output=True, text=True, timeout=240)
    assert proc.returncode == 0
    assert proc.stdout == "1\n"
    assert proc.stderr == ""


def test_bench_rejects_unknown_program():
    proc = cli("bench", "NoSuchBench", "--reps", "1")
    assert proc.returncode == 2


def test_bench_fib_tsv_and_json(tmp_path):
    json_path = tmp_path / "bench.json"
    proc = cli("bench", "Fib", "--reps", "1", "--json", str(json_path))
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0].startswith("program\tstrategy\tmedian_ms")
    assert len(lines) == 3  # header + value + need
    rows = json.loads(json_path.read_text())["rows"]
    assert [(r["program"], r["strategy"]) for r in rows] == \
        [("Fib", "value"), ("Fib", "need")]


def test_bench_json_path_checked_before_the_suite_runs(tmp_path):
    path = tmp_path / "missing" / "x.json"
    proc = cli("bench", "Fib", "--reps", "1", "--json", str(path))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"lambdix: {path}: No such file or directory\n"
    # a suite that stops early leaves an existing file as it was; one that
    # completes replaces it
    path = tmp_path / "x.json"
    path.write_text("earlier results\n")
    proc = cli("bench", "Fib", "--reps", "1", "--step-limit", "1",
               "--json", str(path))
    assert proc.returncode == 4
    assert path.read_text() == "earlier results\n"
    proc = cli("bench", "Fib", "--reps", "1", "--json", str(path))
    assert proc.returncode == 0
    assert [r["program"] for r in json.loads(path.read_text())["rows"]] == \
        ["Fib", "Fib"]


def test_run_interrupted_exits_130_without_traceback(tmp_path):
    path = tmp_path / "fib.lx"
    path.write_text("(de (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))\n"
                    "(print 0)\n(print (fib 30))\n")
    proc = subprocess.Popen([sys.executable, "-m", "lambdix", "run", str(path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env={**os.environ, "PYTHONUNBUFFERED": "1"})
    try:
        # the first line shows that evaluation has begun
        assert proc.stdout.readline() == "0\n"
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 130
    assert out == ""
    assert err == "** interrupted **\n"


def test_usage_error_exit_code():
    proc = cli("run")  # missing file argument
    assert proc.returncode == 2


def test_run_recursion_past_python_limit_reports_depth(tmp_path):
    path = tmp_path / "deep.lx"
    path.write_text("(de (down n) (if (< n 1) 0 (+ 1 (down (- n 1)))))\n"
                    "(print (down 400000))\n")
    proc = cli("run", str(path), "--strategy", "value",
               "--depth-limit", "1000000")
    assert proc.returncode == 4
    assert "** error - depth limit exceeded **" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("strategy", ["value", "need"])
def test_repl_interrupt_returns_to_prompt(strategy, monkeypatch, capsys):
    # Ctrl-C is simulated by a primitive that raises KeyboardInterrupt
    # from 51 nested calls of down
    depths = []

    def interrupt(interp, args):
        depths.append(interp.depth)
        raise KeyboardInterrupt

    made = []

    def make_interp(args, out=None):
        interp = Interpreter(strategy=args.strategy, out=out)
        interp.rt.top_table["interrupt"] = Primitive("interrupt", 1, interrupt)
        made.append(interp)
        return interp

    lines = iter(["(de (down n) (if (< n 1) (interrupt n)"
                  " (+ 1 (down (- n 1)))))", "(down 50)", "(+ 1 2)"])
    snapshots = []

    def fake_input(prompt):
        interp = made[0]
        snapshots.append([(s, s.current_block) for s in interp.structs])
        try:
            return next(lines)
        except StopIteration:
            raise EOFError from None

    monkeypatch.setattr(cli_module, "_make_interp", make_interp)
    monkeypatch.setattr("builtins.input", fake_input)
    assert cli_module.main(["repl", "--strategy", strategy]) == 0
    out = capsys.readouterr().out
    assert depths == [51]
    assert "** interrupted **" in out
    assert "= 3" in out
    # every current block as it was before the interrupted form
    before, after = snapshots[1], snapshots[2]
    assert len(after) == len(before)
    assert all(a is b for (_, a), (_, b) in zip(before, after))
    assert made[0].depth == 0


@pytest.mark.parametrize("strategy", ["value", "need"])
def test_repl_interrupt_between_an_install_and_its_try(strategy, monkeypatch,
                                                       capsys):
    # Ctrl-C is simulated right after the real install of a let's block
    # returns, before the try that would restore it: that install's log is
    # lost, and only the REPL can clear the link it set
    made = []

    def make_interp(args, out=None):
        interp = Interpreter(strategy=args.strategy, out=out)
        install = interp.rt.install
        fired = []

        def interrupted_install(block):
            log = install(block)
            if block.owner.depth == 2 and not fired:
                fired.append(block)
                raise KeyboardInterrupt
            return log

        interp.rt.install = interrupted_install
        made.append(interp)
        return interp

    lines = iter(["(de (f x) (let ((de y (+ x 1))) (* y 10)))",
                  "(f 1)", "(f 2)"])
    stale = []

    def fake_input(prompt):
        interp = made[0]
        stale.append([s for s in interp.structs
                      if s is not interp.top_struct
                      and s.current_block is not None])
        try:
            return next(lines)
        except StopIteration:
            raise EOFError from None

    monkeypatch.setattr(cli_module, "_make_interp", make_interp)
    monkeypatch.setattr("builtins.input", fake_input)
    assert cli_module.main(["repl", "--strategy", strategy]) == 0
    assert capsys.readouterr().out == "= f\n** interrupted **\n= 30\n\n"
    assert stale == [[], [], [], []]


def _force_session(monkeypatch, capsys, target):
    # a need session whose second form forces x, a chain of two thunks (car
    # returns (f 2) unforced); while that form runs, a trace hook records
    # each line of Interpreter._force that runs, and raises KeyboardInterrupt
    # the first time the line `target` does. Returns the lines seen, the
    # output and the interpreter's depth at the end.
    code = Interpreter._force.__code__
    seen = []
    made = []

    def make_interp(args, out=None):
        made.append(Interpreter(strategy=args.strategy, out=out))
        return made[0]

    def local(frame, event, arg):
        if event == "line":
            if frame.f_lineno == target and target not in seen:
                seen.append(target)
                raise KeyboardInterrupt
            seen.append(frame.f_lineno)
        return local

    def hook(frame, event, arg):
        return local if frame.f_code is code else None

    forms = iter(["(de (f n) (+ n 1))", "(de x (car (cons (f 2) ())))", "x"])
    previous = sys.gettrace()

    def fake_input(prompt):
        sys.settrace(previous)
        form = next(forms, None)
        if form is None:
            raise EOFError
        if form.startswith("(de x"):
            sys.settrace(hook)
        return form

    monkeypatch.setattr(cli_module, "_make_interp", make_interp)
    monkeypatch.setattr("builtins.input", fake_input)
    try:
        assert cli_module.main(["repl", "--strategy", "need"]) == 0
    finally:
        sys.settrace(previous)
    return seen, capsys.readouterr().out, made[0].depth


def test_repl_interrupt_on_any_line_of_force(monkeypatch, capsys):
    # Ctrl-C is simulated on each line of _force that forcing x runs, one
    # session per line: the thunks it left busy are new again and the depth
    # is back, so x is still 3. A real SIGINT is delivered only at function
    # entries and loop back-edges, so this is stricter. A bare `try:` line
    # is skipped: CPython gives it no handler, and no SIGINT lands there.
    seen, out, depth = _force_session(monkeypatch, capsys, None)
    assert (out, depth) == ("= f\n= 3\n= 3\n\n", 0)
    source, first = inspect.getsourcelines(Interpreter._force)
    lines = sorted(n for n in set(seen) if source[n - first].strip() != "try:")
    assert max(seen.count(n) for n in lines) > 1  # the chain is walked
    failures = []
    for line in lines:
        seen, out, depth = _force_session(monkeypatch, capsys, line)
        assert line in seen
        if (out, depth) != ("= f\n** interrupted **\n= 3\n\n", 0):
            failures.append((source[line - first].strip(), out, depth))
    assert failures == []


def test_repl_reads_a_deeply_nested_first_form():
    # the first form is read before any evaluation has raised the
    # recursion limit
    form = "'" + "(" * 3000 + ")" * 3000
    proc = cli("repl", stdin=form + "\n(+ 1 2)\n")
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert "$ = " + "(" * 20 + "..." + ")" * 20 + "\n$ = 3\n" in proc.stdout


def test_repl_reports_a_form_too_deep_to_read(monkeypatch, capsys):
    # a recursion policy of 2,000 frames stands in for one that a form
    # outgrows; the session goes on
    lines = iter(["'" + "(" * 3000 + ")" * 3000, "(+ 1 2)"])

    def fake_input(prompt):
        try:
            return next(lines)
        except StopIteration:
            raise EOFError from None

    monkeypatch.setattr("builtins.input", fake_input)
    monkeypatch.setattr(deep, "RECURSION_LIMIT", 2000)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(2000)
    try:
        status = cli_module.main(["repl"])
    finally:
        sys.setrecursionlimit(limit)
    assert status == 0
    assert capsys.readouterr().out == \
        "** error - depth limit exceeded **\n= 3\n\n"


def test_repl_interrupt_at_the_prompt_drops_the_partial_form(monkeypatch,
                                                           capsys):
    prompts = []
    lines = iter(["(+ 1", KeyboardInterrupt, "(+ 2 3)"])

    def fake_input(prompt):
        prompts.append(prompt)
        line = next(lines, EOFError)
        if line in (KeyboardInterrupt, EOFError):
            raise line
        return line

    monkeypatch.setattr("builtins.input", fake_input)
    try:
        status = cli_module.main(["repl"])
    except KeyboardInterrupt:
        pytest.fail("Ctrl-C at the prompt escaped the REPL")
    assert status == 0
    assert prompts == ["$ ", "+ ", "$ ", "$ "]
    assert capsys.readouterr().out == "\n** interrupted **\n= 5\n\n"


@pytest.mark.parametrize("strategy", ["value", "need"])
def test_repl_session_runs_on_one_reserved_stack_chunk(strategy, monkeypatch,
                                                        capsys):
    # the forms are evaluated one at a time, unreserved, but inside the
    # session's reserved chunk, so (down 30) maps no chunk per descent
    # (about 850 faults per (loop 100 0) without the reservation)
    lines = ["(de (down n) (if (< n 1) 0 (+ 1 (down (- n 1)))))",
             "(de (loop k acc) (if (< k 1) acc (loop (- k 1) (+ acc (down 30)))))",
             "(loop 100 0)", "(loop 100 0)"]
    faults = []

    def fake_input(prompt):
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        if not lines:
            raise EOFError
        return lines.pop(0)

    monkeypatch.setattr("builtins.input", fake_input)
    assert cli_module.main(["repl", "--strategy", strategy]) == 0
    assert capsys.readouterr().out.count("= 3000") == 2
    assert faults[4] - faults[2] < 300, faults
