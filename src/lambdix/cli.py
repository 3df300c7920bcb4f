"""Command-line front end: REPL, script runner, benchmark harness and the
differential self-test.

Exit codes: 0 ok, 1 evaluation error (or a file that cannot be read or
written), 2 usage error, 3 selftest mismatch, 4 limit exceeded, 130
interrupted by Ctrl-C (SIGINT) during run, bench or selftest.
"""

import argparse
import contextlib
import gc
import sys
import time

from . import bench
from .deep import MAX_DEPTH_LIMIT, call_on_reserved_stack, call_with_deep_stack
from .errors import LambdixError, LimitExceeded
from .evaluator import Interpreter
from .reader import PendingForm

EXIT_OK = 0
EXIT_EVAL_ERROR = 1
EXIT_USAGE = 2
EXIT_SELFTEST = 3
EXIT_LIMIT = 4
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _depth_limit(text):
    value = _positive_int(text)
    if value > MAX_DEPTH_LIMIT:
        # past it the recursion limit, not the depth limit, would stop the
        # deepest recursions (deep.FRAMES_PER_LEVEL)
        raise argparse.ArgumentTypeError(
            f"must be at most {MAX_DEPTH_LIMIT}")
    return value


def _add_eval_flags(p):
    p.add_argument("--strategy", choices=("value", "need"), default="need",
                   help="argument evaluation strategy (default: need)")
    p.add_argument("--step-limit", type=_positive_int, default=None,
                   metavar="N", help="abort after N closure applications")
    p.add_argument("--depth-limit", type=_depth_limit, default=100_000,
                   metavar="N", help="abort past N nested calls (default "
                   f"100000, at most {MAX_DEPTH_LIMIT})")
    p.add_argument("--print-depth", type=_positive_int, default=100,
                   metavar="N", help="max list elements printed per spine (default 100)")
    p.add_argument("--print-nesting", type=_positive_int, default=20,
                   metavar="N", help="max printed list nesting (default 20)")
    p.add_argument("--stats", action="store_true",
                   help="report cost counters on stderr when done")


def _make_interp(args, out=None):
    return Interpreter(strategy=args.strategy, step_limit=args.step_limit,
                       depth_limit=args.depth_limit,
                       print_items=args.print_depth,
                       print_nesting=args.print_nesting, out=out)


class _GcWatch:
    """A gc.callbacks hook: collections per generation, the objects they
    collected and the time they took."""

    def __init__(self):
        self.collections = [0, 0, 0]
        self.collected = 0
        self.ns = 0
        self._start = 0

    def __call__(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter_ns()
        else:
            self.ns += time.perf_counter_ns() - self._start
            self.collections[info["generation"]] += 1
            self.collected += info["collected"]


@contextlib.contextmanager
def _stats_report(args, interp):
    """Under --stats, watch the cyclic collector for the run and, when the
    run ends without an interrupt, print the counters, the process's peak
    resident memory and the collector's share on stderr. Without it,
    register nothing."""
    if not args.stats:
        yield
        return
    watch = _GcWatch()
    gc.callbacks.append(watch)
    try:
        yield
    finally:
        gc.callbacks.remove(watch)
    for name, value in interp.counters.snapshot().items():
        print(f"{name}\t{value}", file=sys.stderr)
    # imported here, not at the top: only --stats needs it, and every
    # start of the command line imports this module
    import resource
    # ru_maxrss is in KiB on Linux
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"peak_rss_mb\t{peak_kib / 1024:.2f}", file=sys.stderr)
    for generation, count in enumerate(watch.collections):
        print(f"gc_collections_gen{generation}\t{count}", file=sys.stderr)
    print(f"gc_collected\t{watch.collected}", file=sys.stderr)
    print(f"gc_ms\t{watch.ns / 1e6:.3f}", file=sys.stderr)


def _cmd_repl(args):
    interp = _make_interp(args)
    with _stats_report(args, interp):
        # one reserved stack chunk for the session; each form runs
        # unreserved inside it (see deep.py)
        call_on_reserved_stack(_read_eval_loop, interp)
    return EXIT_OK


def _read_eval_loop(interp):
    pending = PendingForm()
    while True:
        prompt = "+ " if pending else "$ "
        try:
            line = input(prompt)
        except EOFError:
            print()
            if pending:
                # the input ended inside a form: report it as `run` does
                try:
                    call_with_deep_stack(pending.read)
                except LambdixError as e:
                    print(f"** error - {e.message} **")
            break
        except KeyboardInterrupt:
            # Ctrl-C at the prompt drops the partial form
            print("\n** interrupted **")
            pending = PendingForm()
            continue
        try:
            if not pending.feed(line):
                continue
            # read under evaluation's recursion policy: a form too deep for
            # it is reported as the depth limit
            forms = call_with_deep_stack(pending.read)
        except LambdixError as e:
            print(f"** error - {e.message} **")
            forms = ()
        pending = PendingForm()
        for sx in forms:
            try:
                print("= " + interp.eval_form_rendered(sx))
            except LambdixError as e:
                print(f"** error - {e.message} **")
            except KeyboardInterrupt:
                # a finally undoes each install on the way out; a link an
                # interrupt leaves set between an install and its try is
                # never read, as every later install of that level sets it
                print("** interrupted **")
                break


def _cmd_run(args):
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print(f"lambdix: {e}", file=sys.stderr)
        return EXIT_EVAL_ERROR
    except UnicodeDecodeError as e:
        print(f"lambdix: {args.file}: not UTF-8 text (byte {e.start})",
              file=sys.stderr)
        return EXIT_EVAL_ERROR
    interp = _make_interp(args)
    with _stats_report(args, interp):
        try:
            interp.eval_source(text)
            status = EXIT_OK
        except LimitExceeded as e:
            print(f"** error - {e.message} **", file=sys.stderr)
            status = EXIT_LIMIT
        except LambdixError as e:
            print(f"** error - {e.message} **", file=sys.stderr)
            status = EXIT_EVAL_ERROR
    return status


def _cmd_bench(args):
    names = args.programs or list(bench.SUITE_NAMES)
    unknown = [n for n in names if n not in bench.SUITE_NAMES]
    if unknown:
        print(f"lambdix: unknown benchmark(s): {', '.join(unknown)}",
              file=sys.stderr)
        return EXIT_USAGE
    strategies = ("value", "need") if args.strategy == "both" else (args.strategy,)
    # opened before the suite runs, so a bad path costs no benchmark run,
    # and for appending, so a suite that stops early leaves the file as it was
    try:
        json_file = (open(args.json, "a", encoding="utf-8") if args.json
                     else contextlib.nullcontext())
    except OSError as e:
        print(f"lambdix: {args.json}: {e.strerror}", file=sys.stderr)
        return EXIT_EVAL_ERROR
    with json_file:
        try:
            results = bench.run_suite(names, strategies, args.reps,
                                      args.step_limit, args.depth_limit)
        except LimitExceeded as e:
            print(f"lambdix: benchmark configuration diverged ({e.message})",
                  file=sys.stderr)
            return EXIT_LIMIT
        sys.stdout.write(bench.to_tsv(results))
        if args.json:
            json_file.truncate(0)
            json_file.write(bench.to_json(results,
                                          bench.calibrate(args.reps)))
    return EXIT_OK


def _cmd_selftest(args):
    # the corpus and the oracle are imported here alone, so `run` and
    # `repl` start without them
    from .corpus import run_corpus
    from .oracle import differential_run, generate_program
    failures = 0
    report = run_corpus()
    for name, strategy, ok, detail in report:
        tag = "ok" if ok else "MISMATCH"
        print(f"{tag}\tcorpus/{name}\t{strategy}" + (f"\t{detail}" if detail else ""))
        failures += 0 if ok else 1
    for i in range(args.count):
        seed = args.seed * 100_003 + i
        text = generate_program(seed)
        for strategy in ("value", "need"):
            result = differential_run(text, strategy, step_limit=args.step_limit)
            if result.equal:
                print(f"ok\trandom/seed={seed}\t{strategy}")
            else:
                failures += 1
                print(f"MISMATCH\trandom/seed={seed}\t{strategy}")
                print(f"  program: {text!r}")
                print(f"  main:    {result.main!r}")
                print(f"  oracle:  {result.oracle!r}")
    total = len(report) + 2 * args.count
    print(f"{total - failures}/{total} checks passed")
    return EXIT_OK if failures == 0 else EXIT_SELFTEST


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lambdix",
        description="Lazy, lexically scoped Lisp-family interpreter")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("repl", help="interactive session")
    _add_eval_flags(p)
    p.set_defaults(fn=_cmd_repl)

    p = sub.add_parser("run", help="evaluate a program file")
    p.add_argument("file")
    _add_eval_flags(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("bench", help="run the benchmark suite")
    p.add_argument("programs", nargs="*",
                   help=f"subset of: {', '.join(bench.SUITE_NAMES)}")
    p.add_argument("--strategy", choices=("value", "need", "both"),
                   default="both")
    p.add_argument("--reps", type=_positive_int, default=5, metavar="N")
    p.add_argument("--json", metavar="PATH",
                   help="also write results as JSON to PATH")
    p.add_argument("--step-limit", type=_positive_int, default=None, metavar="N")
    p.add_argument("--depth-limit", type=_depth_limit, default=100_000,
                   metavar="N")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("selftest",
                       help="golden corpus plus randomized differential tests")
    p.add_argument("--count", type=_positive_int, default=200, metavar="N",
                   help="number of random programs (default 200)")
    p.add_argument("--seed", type=int, default=42, metavar="N")
    p.add_argument("--step-limit", type=_positive_int, default=10_000,
                   metavar="N")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except KeyboardInterrupt:
        print("** interrupted **", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
