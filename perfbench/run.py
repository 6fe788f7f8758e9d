"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sparse-planted --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from src/.
With --trace 0 the run prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The exit code is
0 when every check passed, 1 when some check failed, and 2 when the run could
not be made at all (no package source, bad arguments, a crashed child).

The workload runs in a fresh child process, so that its peak memory and
set-up time are its own. Set-up time (interpreter start, import and formula
generation, up to the first timed instance) is sampled from several child
starts and reported as their median.
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

HERE = Path(__file__).resolve()
ROOT = HERE.parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5


class RunError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    return parser


def child_main(args: argparse.Namespace, workload) -> int:
    import harness

    formulas = workload.formulas(args.seed, workload.instance_count(args.seconds))
    print("ready", flush=True)
    if args.child == "setup":
        return 0
    run = harness.run_traced if args.trace else harness.run_untraced
    result = run(workload, formulas, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


def _spawn(args: argparse.Namespace, mode: str) -> tuple[float, str]:
    """Start a child; return the seconds until it reported ready, and its remaining output."""
    cmd = [
        sys.executable, str(HERE),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--child", mode,
    ]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    if ready.strip() != "ready" or code != 0:
        raise RunError(f"{mode} child exited with code {code}")
    return setup_s, rest


def end_to_end(result: dict, setups: list[float]) -> dict:
    attempted = result["attempted"]
    return {
        "instances_per_s": {"value": attempted / result["wall_s"], "unit": "1/s"},
        "instance_s.p50": {"value": result["instance_p50_s"], "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "decided_share": {"value": result["decided"] / attempted, "unit": "ratio"},
    }


def parent_main(args: argparse.Namespace, workload) -> int:
    setups = [_spawn(args, "setup")[0] for _ in range(SETUP_SAMPLES - 1)] if not args.trace else []
    setup_s, output = _spawn(args, "run")
    setups.append(setup_s)
    result = json.loads(output.strip().splitlines()[-1])
    attempted, failed = result["attempted"], result["failed"]
    planned = workload.instance_count(args.seconds)
    if args.trace:
        planned = (planned + 1) // 2

    print(
        f"workload {workload.name}: n={workload.n} m={workload.m} r={workload.r} "
        f"planted={workload.planted} "
        f"seed={args.seed} instances={planned} trace={args.trace}"
    )
    print(f"python {platform.python_version()} cpu_count {os.cpu_count()} one process, one thread, closed loop")
    if args.trace:
        metrics = result["metrics"]
        print(f"traced {attempted} instances, each also run untraced")
    else:
        metrics = end_to_end(result, setups)
        counts = {
            "instances_per_s": f"{attempted} instances in {result['wall_s']:.3f} s",
            "instance_s.p50": f"n={attempted}",
            "setup_s": f"median of {len(setups)} process starts",
            "decided_share": f"{result['decided']} of {attempted}",
        }
        for name, metric in metrics.items():
            print(f"  {name:<16} {metric['value']:.6g} {metric['unit']:<6} {counts.get(name, '')}")
        print(f"  {'failed_share':<16} {failed / attempted:.6g} ratio  {failed} of {attempted}")
    print(f"digest sha256:{result['digest']} over {attempted} of {planned} planned instances")
    for message in result["messages"][:10]:
        print(f"FAILED CHECK: {message}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not (SRC / "cspack" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}; run from a cspack checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.child:
        return child_main(args, workload)
    try:
        return parent_main(args, workload)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
