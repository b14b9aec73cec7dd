"""Run one benchmark workload of eigenspline and print its metrics.

    python3 benchmarks/run.py --workload NAME [--seed N] [--seconds S]
                              [--trace 0|1]

Run from the repository root; the package is imported from ``src/``
(pure Python, nothing to build).  Workloads, metric names and units are
listed in ``BENCHMARK.json``; ``workloads.py`` says how the seed builds
each workload's CLI studies.

One run:

1. Set-up: with ``--trace 0``, ``SETUP_PROBES`` fresh interpreters each
   import the package and run a tiny warm-up study; together with the
   measuring process they give the median ``setup_s`` (spawn to end of
   warm-up).
2. Measurement: one fresh interpreter repeats the workload's study list,
   one study after the other (a closed loop with a single client), for
   ``--seconds``.  ``wall_s`` is the time of one pass over the list, as
   the sum over studies of each study's median time across passes;
   ``peak_rss_mb`` is that process's ``ru_maxrss``.
3. Checks: every study's exit code and outputs are checked outside the
   timed region (``checks.py``); ``failed``/``attempted`` count studies
   and ``fail_share`` is their ratio.  ``correct`` is true only when no
   study failed.
4. With ``--trace 1`` untraced and traced passes alternate; the
   per-layer metrics come from the traced passes (``spans.py``) and the
   spans are written to ``.bench_work/spans-<workload>.json``.

The last line of standard output is the JSON result.  Outputs go to
``.bench_work/`` under the root; the run's CSV files are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKDIR = ".bench_work"
SETUP_PROBES = 4
SETUP_TIMEOUT = 60
# A pass can overrun the run length by up to one pass; the checks, the
# set-up probes and the interpreter start-up come on top.
WORKER_GRACE = 100


class BenchError(RuntimeError):
    pass


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def spawn(job_path, root, extra=(), timeout=SETUP_TIMEOUT):
    """Run the worker; returns (spawn time, parsed last stdout line)."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER, job_path, *extra],
                              cwd=root, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    try:
        return t0, json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker printed no result: {proc.stdout[-500:]}") \
            from exc


def measure(args, root):
    """Run set-up probes and the measuring worker; returns the raw result."""
    run_dir = os.path.join(root, WORKDIR,
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    outdir = os.path.join(run_dir, "out")
    os.makedirs(outdir, exist_ok=True)
    job = {"root": root, "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": bool(args.trace),
           "outdir": outdir,
           "spans_path": os.path.join(root, WORKDIR,
                                      f"spans-{args.workload}.json"),
           "studies": workloads.studies(args.workload, args.seed)}
    job_path = os.path.join(run_dir, "job.json")
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                t0, probe = spawn(job_path, root, ["--setup-only"])
                setups.append(probe["ready"] - t0)
        t0, result = spawn(job_path, root,
                           timeout=args.seconds + WORKER_GRACE)
        setups.append(result["ready"] - t0)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result["setup_samples"] = setups
    return result


def metric_values(args, result):
    if args.trace:
        return dict(result["layers"], **{
            "spectrum.outliers_constrained": result["outliers_constrained"][0]})
    return {"wall_s": result["wall_s"],
            "peak_rss_mb": result["maxrss_kib"] / 1024.0,
            "setup_s": statistics.median(result["setup_samples"])}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "eigenspline", "cli.py")):
        print("error: run from the repository root (src/eigenspline is "
              "missing)", file=sys.stderr)
        return 2
    spec = load_spec(root)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    try:
        result = measure(args, root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(result["outliers_constrained"]) != 1:
        print("error: outlier counts differ between passes: "
              f"{result['outliers_constrained']}", file=sys.stderr)
        return 1
    values = metric_values(args, result)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    print("run record: " + json.dumps(result["record"]))
    print(f"workload {args.workload}  seed {args.seed}  "
          f"studies {result['attempted']}  pass times "
          + " ".join(f"{p['wall_s']:.3f}{'T' if p['traced'] else ''}"
                     for p in result["passes"]))
    for fail in result["failures"]:
        print(f"FAILED pass {fail['pass_index']} study {fail['study']} "
              f"({' '.join(fail['argv'])}): {'; '.join(fail['causes'])}")
    print(f"fail_share {result['failed'] / result['attempted']:.4g} ratio  "
          f"({result['failed']} of {result['attempted']} studies)")
    for name, m in metrics.items():
        label = " (computed)" if name in spans.COMPUTED else ""
        print(f"{name} {m['value']:.6g} {m['unit']}{label}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
