"""flowcert benchmark: one workload per run, measured in a fresh child process.

Usage, from the root of a checkout::

    python3 bench/run.py --workload certify-z2-n6 --seed 1 --seconds 55 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  A readable report comes first; the last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The program is imported from the checkout's
``src``; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# The keys of workloads.WORKLOADS; this process does not import flowcert.
WORKLOADS = ("certify-z2-n6", "witness-z2x2-n4", "path-z2-n7")
SETUP_SAMPLES = 12  # cold starts timed before the workload, and again after it
SETUP_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 150


def _commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without git."""
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


def _time_setup(env: dict) -> list[float]:
    """Times from spawning an interpreter until ``flowcert --help`` is done.

    The wait blocks until the child exits.  ``subprocess.run(timeout=...)``
    would poll instead, in sleeps of up to 50 ms, which rounds each sample
    up to the next poll; a timer kills a start that hangs.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        began = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "flowcert.cli", "--help"],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        )
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        samples.append(time.perf_counter() - began)
        if code != 0:
            raise subprocess.CalledProcessError(code, proc.args)
    return samples


def _run_child(args, env: dict) -> dict:
    argv = [
        sys.executable, str(BENCH / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    done = subprocess.run(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, check=True,
        timeout=CHILD_TIMEOUT_S, text=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "flowcert" / "__init__.py").is_file():
        print(f"no flowcert sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=str(SRC))
    # Cold starts before and after the workload, a minute apart, so that
    # the median does not rest on the machine's speed at one moment.
    setup = [] if args.trace else _time_setup(env)
    child = _run_child(args, env)
    setup_s = None if args.trace else statistics.median(setup + _time_setup(env))

    print(
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
        f"trace {args.trace}  cores {os.cpu_count()}  "
        f"python {platform.python_version()}  platform {platform.platform()}  "
        f"commit {_commit()}"
    )
    print(f"passes {child['passes']} untraced"
          + (f", {child['traced_passes']} traced" if args.trace else "")
          + f"  output sha256 {child['output_sha256']}")
    metrics = child["metrics"]
    if args.trace:
        print(f"spans written to {child['spans_file']}")
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **metrics}
        print(f"setup_s: median of {2 * SETUP_SAMPLES} cold starts of `flowcert --help`, "
              "half before and half after the workload")
    for name, metric in metrics.items():
        print(f"  {name:<28} {metric['value']:>14.6f} {metric['unit']}")
    print(f"  {'wall_s':<28} {child['wall_s']:>14.6f} s   (median over untraced passes; "
          "not in BENCHMARK.json)")
    print(f"  {'ref_s':<28} {child['ref_s']:>14.6f} s   (median reference kernel time; "
          "wall_rel is wall_s / ref_s per pass)")
    latency = child["latency"]
    for name in ("query_p50_ms", "query_p95_ms"):
        print(f"  {name:<28} {latency[name]:>14.6f} ms  (over {latency['samples']} "
              "distinct calls, each the median over passes; not in BENCHMARK.json)")
    attempted, failed = child["attempted"], child["failed"]
    print(f"  {'fail_ratio':<28} {failed / attempted:>14.6f} ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
