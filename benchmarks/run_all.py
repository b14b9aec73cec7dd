"""Run every workload untraced and traced and print all metrics.

    python3 benchmarks/run_all.py [--seed N] [--seconds S]

Run from the repository root.  Prints one line per workload and metric,
``<workload> <metric> <value> <unit>``, the end-to-end metrics (with
``fail_share``) from an untraced run and the per-layer metrics from a
traced one.  Exits nonzero if a run fails or a check finds a failure.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import workloads

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, RUN, "--workload", name,
                   "--seed", str(args.seed), "--trace", str(trace)]
            if args.seconds is not None:
                cmd += ["--seconds", str(args.seconds)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{name} run failed: {proc.stderr.strip()}")
                status = 1
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            for line in lines:
                if line.startswith("FAILED"):
                    print(f"{name} {line}")
            if not trace:
                print(f"{name} fail_share "
                      f"{result['failed'] / result['attempted']:.6g} ratio")
            for metric, m in result["metrics"].items():
                print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
            if not result["correct"]:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
