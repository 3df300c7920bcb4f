"""Tests of the benchmark itself, on tiny workloads.

    python3 -m pytest perfbench
"""

import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import worker  # noqa: E402  (first: it puts src/ on sys.path)
import lambdix.evaluator  # noqa: E402
import stats  # noqa: E402
from tracer import _TARGETS, Tracer  # noqa: E402
from workloads import (WORKLOADS, make_workload, nested_programs,  # noqa: E402
                       repl_forms)


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench",
                                                        "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_runs_correct_with_listed_metrics(workload, trace):
    p = _run("--workload", workload, "--seed", "3", "--seconds", "1",
             "--trace", str(trace), "--size", "tiny")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    bench = _benchmark_json()
    names = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if trace else "end_to_end"]}
    assert all(v["unit"] == units[k] for k, v in result["metrics"].items())
    report = json.loads(p.stdout.strip().splitlines()[-2])["report"]
    assert all(c["ok"] for c in report["checks"].values())
    if not trace:
        assert set(report["end_to_end"]) == set(names) | {"fail_ratio"}


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _run("--workload", "suite-need", "--seed", "1", "--seconds", "1",
             "--trace", "0", cwd=str(tmp_path))
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout


def test_generators_are_deterministic_per_seed():
    assert repl_forms(7) == repl_forms(7)
    assert repl_forms(7) != repl_forms(8)
    assert nested_programs(7) == nested_programs(7)
    assert nested_programs(7) != nested_programs(8)
    # the seed changes constants and order, not the size of the inputs
    assert len(repl_forms(7)) == len(repl_forms(8))
    assert sorted(map(len, repl_forms(7))) == sorted(map(len, repl_forms(8)))


def _pass_counts(name, seed):
    wl = make_workload(name, seed, "tiny")
    runner = worker.Runner(wl, None)
    runner.run_pass()
    runner.run_pass()
    assert runner.count_mismatches == 0
    assert runner.failed_ops(worker.expected_outputs(wl)) == 0
    return runner.pass_counts()


@pytest.mark.parametrize("workload", ("nested-scopes", "repl-session"))
def test_counts_repeat_and_do_not_depend_on_the_seed(workload):
    assert _pass_counts(workload, 1) == _pass_counts(workload, 2)


def test_wrong_output_counts_as_failed():
    wl = make_workload("suite-need", 1, "tiny")
    runner = worker.Runner(wl, None)
    runner.run_pass()
    runner.run_pass()
    expected = list(wl.expected)
    assert runner.failed_ops(expected) == 0
    expected[0] = "something else\n"
    assert runner.failed_ops(expected) == 2


def test_tracer_uninstall_restores_every_original():
    before = [(o.__dict__[a] if isinstance(o, type) else getattr(o, a))
              for _, _, o, a in _TARGETS]
    tracer = Tracer()
    tracer.install()
    try:
        interp = lambdix.evaluator.Interpreter(out=io.StringIO())
        tracer.wrap_primitives(interp)
        interp.eval_source("(de (f x) (+ x 1)) (print (f 2))")
    finally:
        tracer.uninstall()
    after = [(o.__dict__[a] if isinstance(o, type) else getattr(o, a))
             for _, _, o, a in _TARGETS]
    assert after == before
    assert tracer.tallies["runtime.install"].calls > 0
    assert tracer.tallies["builtins.+"].calls == 1


def test_tail_takes_highest_percentile_with_ten_samples_beyond():
    assert stats.tail(list(range(1000)))["percentile"] == 99.0
    assert stats.tail(list(range(10000)))["percentile"] == 99.9
    assert stats.tail(list(range(12)))["percentile"] == 50.0
