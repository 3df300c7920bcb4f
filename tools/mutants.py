"""Mutation check of the arbiters: how many one-line defects `lambdix
selftest` and the test suite each notice.

Each mutant is one edit, (file under src/lambdix, old line, new line). For
each, src/ and tests/ (with README.md, which tests/test_docs.py reads) are
copied to a temporary directory and the edit is applied there; the edit
fails unless the old line occurs exactly once in the file. Then, one after
the other, each under a timeout:

    python -m lambdix selftest
    python -m pytest -x -q tests

and a kill table is printed. Standard library only. Run from anywhere:

    python tools/mutants.py

Selftest takes about a second; the tests run until their first failure,
or through the whole suite (about 40 s on a 2-core host) when nothing
fails. The first row runs the tree unedited, where both should pass.
"""

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SELFTEST_TIMEOUT = 300
TESTS_TIMEOUT = 900

# (name, what it breaks, file, old line, new line); lines keep their
# indentation
MUTANTS = [
    ("trim ignores pinned",
     "strict calls clear cells read inside lambdas",
     "analyzer.py",
     "            app.dead = tuple(sorted(dead - pinned))",
     "            app.dead = tuple(sorted(dead))"),
    ("trim under need",
     "trim_dead runs under need too, and need levels get no demand prefix",
     "analyzer.py",
     "        self.trim = trim",
     "        self.trim = True"),
    ("demand into then",
     "the demand prefix carries on into the then-branch",
     "analyzer.py",
     "        _walk_demand(node.test, struct, demand)",
     "        return (_walk_demand(node.test, struct, demand)"
     " and _walk_demand(node.then, struct, demand))"),
    ("delay passes unset",
     "_delay_local passes an unset slot on",
     "evaluator.py",
     "    if slot is not UNSET:",
     "    if True:"),
    ("restore one pair",
     "restore undoes only the last link",
     "runtime.py",
     "            for i in range(n - 2, -1, -2):",
     "            for i in range(n - 2, n - 3, -2):"),
    ("force keeps busy",
     "an error leaves thunks busy",
     "evaluator.py",
     "                if t.state == TH_BUSY:",
     "                if False:"),
    ("let closure env",
     "a let's function closes over the enclosing block",
     "evaluator.py",
     "                    block[i] = Closure(b.struct, block)",
     "                    block[i] = Closure(b.struct, block[PARENT])"),
    ("excla caches all",
     "computed excla text is analysed once",
     "evaluator.py",
     "        if type(self.arg) is QuoteForm:",
     "        if True:"),
    ("early stop",
     "the install walk stops at the first link already current",
     "runtime.py",
     "        while s is not top:",
     "        while s is not top and s.current_block is not b:"),
    ("every local head marked",
     "every call of a local name skips the walk",
     "analyzer.py",
     "                               and head.offset in head.target.funs)",
     "                               )"),
    ("value bindings marked",
     "calls of a let's value bindings skip the walk too",
     "analyzer.py",
     "        struct.funs = tuple(i for i, p in enumerate(parsed)"
     " if p[0] == \"func\")",
     "        struct.funs = tuple(range(len(parsed)))"),
    ("strict cons under need",
     "a need interpreter gets the strict primitive table, cons included",
     "evaluator.py",
     "        prims = make_primitives(self.lazy)",
     "        prims = make_primitives(False)"),
    ("value calls under need",
     "a need interpreter gets the value call shape",
     "analyzer.py",
     "        self.call = CallValue if trim else CallNeed",
     "        self.call = CallValue"),
    ("prefixes survive a rebinding",
     "demand prefixes stay on after a primitive's name is rebound",
     "evaluator.py",
     "    if interp.demanding and len(args) == len(callee.names):",
     "    if len(args) == len(callee.names):"),
    ("bound survives a rebinding",
     "primitive shapes keep applying a primitive whose name is rebound",
     "evaluator.py",
     "            prim.bound = slot is prim",
     "            prim.bound = True"),
    ("column kept after a newline",
     "read_program goes on counting columns across a line end",
     "reader.py",
     "            line, col = line + 1, 1",
     "            line += 1"),
    ("a newline inside a string keeps the line",
     "the reader counts no line for a newline inside a string literal",
     "reader.py",
     "        line += string.count(\"\\n\")",
     "        pass"),
    ("list position from its closing paren",
     "read_program gives a list the position of its closing paren",
     "reader.py",
     "                outer.append(SList(items, pos))",
     "                outer.append(SList(items, (line, col)))"),
]


def apply_edit(path, old, new):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    hits = [i for i, line in enumerate(lines) if line == old]
    if len(hits) != 1:
        raise SystemExit(f"{path}: the line {old!r} occurs {len(hits)} "
                         "times, not once")
    lines[hits[0]] = new
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def run(argv, cwd, timeout):
    """(exit status or None on a timeout, combined output)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(cwd, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, ""
    return proc.returncode, proc.stdout + proc.stderr


def selftest_verdict(status, output):
    if status is None:
        return "timeout"
    if status not in (0, 3):
        return "crash"
    # the last line is "passed/total checks passed"
    return output.strip().splitlines()[-1].split()[0]


def tests_verdict(status, output):
    if status is None:
        return "timeout"
    if status == 0:
        return "all passed"
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return "killed: " + line.split(" - ")[0].split("::", 1)[-1]
    return f"killed (exit {status})"


def check(mutant):
    _, _, filename, old, new = mutant
    with tempfile.TemporaryDirectory(prefix="lambdix-mutant-") as tmp:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(tmp, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(os.path.join(ROOT, "tests"),
                        os.path.join(tmp, "tests"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "README.md"), tmp)
        if filename is not None:
            apply_edit(os.path.join(tmp, "src", "lambdix", filename), old, new)
        selftest = selftest_verdict(
            *run(["-m", "lambdix", "selftest"], tmp, SELFTEST_TIMEOUT))
        tests = tests_verdict(
            *run(["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                  "tests"], tmp, TESTS_TIMEOUT))
    return selftest, tests


def main():
    print("| mutant | what it breaks | `selftest` | tests (`-x`) |")
    print("| --- | --- | --- | --- |")
    for mutant in [("none", "(the tree as it is)", None, None, None)] + MUTANTS:
        selftest, tests = check(mutant)
        print(f"| {mutant[0]} | {mutant[1]} | {selftest} | {tests} |",
              flush=True)


if __name__ == "__main__":
    main()
