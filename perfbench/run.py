"""majmeter benchmark: three closed-loop workloads with independent checks.

    python3 perfbench/run.py --workload small-shapes --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke            # every workload at tiny sizes

Each run starts fresh processes (perfbench/worker.py): the measured one and,
before and after it, a few that only time set-up. With --trace 0 it reports
the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; a full record, with the environment, op times
and trace edges, goes to perfbench/results/. Uses only the standard library; the
workers add numpy and majmeter from the checkout's `src`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("small-shapes", "large-shapes", "ld-sweep")
SETUP_PROBES = 6  # set-up-only processes per run, besides the measured one
TIME_LIMIT_S = 170.0  # per workload, inside the 180 s a run may take


class BenchError(Exception):
    pass


def hermetic_env() -> dict:
    env = dict(os.environ)
    env.pop("MAJMETER_CONFIG", None)  # a config file silently changes quadrature settings
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(args, role: str, deadline: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--role", role]
    if args.smoke:
        cmd.append("--smoke")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=hermetic_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} process of {args.workload} passed the time limit") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{role} process of {args.workload} exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args, spec: dict) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    probes = 0 if args.smoke or args.trace else SETUP_PROBES
    # half the probes before the measured process and half after, so that the
    # median spans the run rather than one moment of the host's speed
    setups = [spawn(args, "probe", deadline)["setup_s"] for _ in range(probes // 2)]
    record = spawn(args, "measure", deadline)
    setups.append(record["setup_s"])
    setups += [spawn(args, "probe", deadline)["setup_s"] for _ in range(probes - probes // 2)]
    metrics = dict(record["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        raise BenchError(f"{args.workload}: no value for {', '.join(missing)}; "
                         f"failures: {record['failures']}")
    result = {
        "correct": not record["errors"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        smoke=args.smoke, setup_s_probes=setups, result=result, git_sha=git_sha(),
        python=platform.python_version(), nproc=len(os.sched_getaffinity(0)),
    )
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")
    return record


def report(record: dict):
    result = record["result"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"git {record['git_sha'][:12]}  python {record['python']}  numpy {record['numpy']}  "
          f"nproc {record['nproc']}")
    for name, m in result["metrics"].items():
        print(f"  {name:45s} {m['value']:.6g} {m['unit']}")
    print(f"  ops attempted {result['attempted']}, failed {result['failed']}, "
          f"outputs correct {str(result['correct']).lower()}")
    for line in record["errors"][:20] + record["failures"]:
        print(f"  ! {line}")
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed loop length (default: run_seconds of BENCHMARK.json, 0 in smoke mode)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one op per workload, every check")
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (ROOT / "src" / "majmeter" / "__init__.py").is_file():
            raise BenchError(f"no majmeter sources under {ROOT / 'src'}")
        if args.seconds is None:
            args.seconds = 0.0 if args.smoke else float(spec["run_seconds"])
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        for name in names:
            args.workload = name
            report(run_workload(args, spec))
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
