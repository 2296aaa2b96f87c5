"""One fresh benchmark process: set-up, a closed loop of ops, then checks.

run.py starts this script in a new interpreter for every set-up probe and
for the measured run, with MAJMETER_CONFIG removed and PYTHONPATH set to the
checkout's `src`. The last line of its standard output is one JSON object.

Set-up spans process start (taken by the parent just before it spawns this
process) to the first timed op: the imports, the inputs and one warm-up call.
The closed loop has one caller: an op starts when the previous one ends,
until --seconds have passed. Reference values for the checks are computed
after the loop and after peak memory is read.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import checks
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


class CallFailed(Exception):
    """A CLI call ended with a nonzero exit code."""


def _import_program():
    import majmeter
    from majmeter import asymptotics, cli, exact_dist, families, partitions, tableaux

    source = ROOT / "src" / "majmeter"
    if Path(majmeter.__file__).resolve().parent != source.resolve():
        raise ImportError(f"majmeter was imported from {majmeter.__file__}, not {source}")
    return majmeter, [majmeter, cli, partitions, families, exact_dist, asymptotics, tableaux]


def run_call(majmeter, call, argv, partition):
    """Run one call; CLI output is captured in memory."""
    if call.float_rows:
        return majmeter.exact_dist.maj_polynomial_float(partition)
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = majmeter.cli.main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        code = exc.code
    if code != 0:
        raise CallFailed(f"{' '.join(argv)}: exit {code}: {err.getvalue().strip()[-300:]}")
    return out.getvalue()


def _same(a, b) -> bool:
    if isinstance(a, str):
        return a == b
    return a[0] == b[0] and a[1].shape == b[1].shape and bool((a[1] == b[1]).all())


class OpLog:
    """Outputs of one kind of op: those of the first op that completed, and
    every seeded output. Later unseeded outputs are compared with the first
    as they arrive and then dropped, so the log does not grow with the run."""

    def __init__(self, calls, partitions):
        self.calls = calls
        self.partitions = partitions
        self.first = None
        self.sampled = []  # (argv, output) of every seeded call
        self.completed = 0
        self.errors = []

    def record(self, where: str, argvs, outputs):
        self.completed += 1
        if self.first is None:
            self.first = outputs
        for j, (call, output) in enumerate(zip(self.calls, outputs)):
            if call.seeded:
                self.sampled.append((argvs[j], output))
            elif not _same(output, self.first[j]):
                self.errors.append(f"{where} call {j}: output differs from the first op's")

    def check(self) -> list[str]:
        """Check the first outputs and every seeded output against references
        computed here, apart from the program."""
        if self.first is None:
            return self.errors
        refs = checks.References()
        ys = [Fraction(c.argv[c.argv.index("--y") + 1]) for c in self.calls if c.argv[:1] == ("ld",)]
        smallest_y = min(ys) if ys else None
        errors = list(self.errors)
        for call, output in zip(self.calls, self.first):
            if call.float_rows:
                errors += _parsed(checks.check_float_law, call.float_rows, output)
            elif not call.seeded:
                errors += _parsed(checks.check_cli, list(call.argv), output, refs, smallest_y)
        for argv, output in self.sampled:
            errors += _parsed(checks.check_sample, argv, output, refs)
        return errors


def _parsed(check, what, *args) -> list[str]:
    """Run a check; output it cannot parse is a failed check, not a crash."""
    try:
        return check(what, *args)
    except (ValueError, KeyError, IndexError, TypeError, ArithmeticError) as exc:
        return [f"{check.__name__} {what}: output does not parse: {type(exc).__name__}: {exc}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("probe", "measure"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before the spawn")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    majmeter, modules = _import_program()
    from majmeter.partitions import Partition

    workload = WORKLOADS[args.workload]
    kinds = [workload.smoke_op, workload.smoke_side_op] if args.smoke else [workload.op, workload.side_op]
    logs = [OpLog(calls, [Partition(c.float_rows) if c.float_rows else None for c in calls])
            for calls in kinds if calls]
    rng = random.Random(args.seed)
    run_call(majmeter, workload.warmup, list(workload.warmup.argv), None)
    setup_s = time.monotonic() - args.spawned_at
    if args.role == "probe":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from tracing import Tracer

    tracer = Tracer(modules) if args.trace else None
    failures = []
    times = {False: [], True: []}  # seconds per completed op, untraced and traced
    attempted = rounds = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and rounds % 2 == 1
        seed = rng.randrange(2 ** 31)
        if traced:
            tracer.install()
        for k, log in enumerate(logs):
            argvs = [call.argv_for(seed) for call in log.calls]
            if traced:
                tracer.begin_op()
            t0 = time.perf_counter()
            try:
                outputs = [run_call(majmeter, c, a, p) for c, a, p in zip(log.calls, argvs, log.partitions)]
            except Exception as exc:  # a failed op is counted, and the loop goes on
                outputs = None
                failures.append(f"round {rounds} op {k}: {type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.end_op()
            attempted += 1
            if outputs is not None:
                log.record(f"round {rounds} op {k}", argvs, outputs)
                if k == 0:
                    times[traced].append(elapsed)
        if traced:
            tracer.uninstall()
        rounds += 1
        if time.perf_counter() - start >= args.seconds and (tracer is None or rounds >= 2):
            break
    loop_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = logs[0].check()
    # a side op whose output fails its check failed, like one that raised
    side_errors = [e for log in logs[1:] for e in log.check()]
    failed = attempted - sum(log.completed for log in logs)
    failed += sum(log.completed for log in logs[1:]) if side_errors else 0
    result = {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "side_op_errors": side_errors,
        "failures": failures[:5],
        "setup_s": setup_s,
        "op_times_s": times[False],
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer is None:
        result["metrics"] = {
            "ops_per_s": logs[0].completed / loop_s,
            "op_p50_ms": 1e3 * statistics.median(times[False]),
            "peak_rss_mb": peak_rss_mb,
        } if times[False] else {}
    else:
        result["traced_op_times_s"] = times[True]
        result["metrics"] = tracer.per_layer(rounds // 2, times[True], times[False]) \
            if times[True] and times[False] else {}
        result["trace"] = tracer.dump()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
