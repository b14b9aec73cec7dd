"""Benchmark child process: runs one workload in a fresh interpreter.

    python3 benchmarks/worker.py JOB_JSON [--setup-only]

The job file (written by ``run.py``) holds the checkout root, the study
list, the output directory, the run length and the trace flag.  The
worker imports ``eigenspline`` from ``<root>/src``, runs a tiny warm-up
study and notes the time (the end of set-up).  With ``--setup-only`` it
stops there.  Otherwise it writes the run record, refuses to run with
more BLAS threads than usable cores, and then repeats the study list
(one pass = every study once, in order, each through
``eigenspline.cli.main``) until the run length is spent.  Each pass's
outputs are checked after its timer stops.  In a traced run, untraced
and traced passes alternate so the tracing overhead can be measured.

The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import sys
import time

import checks
import spans
import workloads

TRACE_METRICS = ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
                 "trace.self_share", "trace.spans")


def _openblas_libs():
    """Paths of the OpenBLAS builds loaded into this process."""
    found = []
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path) and path not in found:
                found.append(path)
    return found


def blas_info():
    """Vendor, version and thread count of each loaded OpenBLAS."""
    info = []
    for path in _openblas_libs():
        lib = ctypes.CDLL(path)
        entry = {"lib": os.path.basename(path), "config": None,
                 "threads": None}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}",
                                      None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                entry["threads"] = get_threads()
                entry["config"] = get_config().decode()
                break
            if entry["threads"] is not None:
                break
        info.append(entry)
    return info


def cache_sizes():
    """Unified L2 and L3 sizes of cpu0 as the kernel reports them."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = {}
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        if not index.startswith("index"):
            continue

        def read(name, index=index):
            with open(os.path.join(base, index, name)) as fh:
                return fh.read().strip()

        if read("type") == "Unified":
            out[f"L{read('level')}"] = read("size")
    return out


def run_record(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime": blas_info(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "caches": cache_sizes(),
        "seed": seed,
    }


def check_record(record):
    """Reasons the run must not start (empty when it may)."""
    problems = []
    for entry in record["blas_runtime"]:
        if entry["threads"] is not None and entry["threads"] > record["nproc"]:
            problems.append(f"{entry['lib']} runs {entry['threads']} threads "
                            f"on {record['nproc']} usable cores")
    return problems


def run_study(cli, study, out):
    """(exit code or None, exception text or None, stdout, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    code = error = None
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = cli.main(workloads.argv(study, out))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:   # a crashing study is a failure to report
        error = f"{type(exc).__name__}: {exc}"
    return code, error, stdout.getvalue(), stderr.getvalue()


def run_pass(cli, studies, outs, tracer=None):
    """Run every study once; returns (pass seconds, per-study seconds,
    per-study results)."""
    results, times = [], []
    clock = time.perf_counter
    begin = clock()
    for k, (study, out) in enumerate(zip(studies, outs)):
        if tracer is not None:
            tracer.study = k
        t0 = clock()
        results.append(run_study(cli, study, out))
        times.append(clock() - t0)
    return clock() - begin, times, results


def check_pass(studies, outs, results, reference):
    """(failure list, summed constrained outlier count) of one pass."""
    failures, outliers = [], 0
    for k, (study, out, (code, error, stdout, stderr)) in \
            enumerate(zip(studies, outs, results)):
        if error is not None:
            causes = [error]
        elif code != 0:
            causes = [f"exit code {code}: {stderr.strip()[:200]}"]
        else:
            causes = checks.check_study(study, out, reference)
            outliers += checks.outliers_constrained(study, stdout)
        if causes:
            failures.append({"study": k, "argv": workloads.argv(study),
                             "causes": causes})
    return failures, outliers


def main(argv):
    with open(argv[0]) as fh:
        job = json.load(fh)
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    import eigenspline.cli as cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"eigenspline was imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    outdir = job["outdir"]
    warm = run_study(cli, workloads.WARMUP,
                     os.path.join(outdir, "warmup.csv"))
    ready = time.monotonic()
    if warm[:2] != (0, None):
        print(f"warm-up study failed: {warm}", file=sys.stderr)
        return 3
    if "--setup-only" in argv:
        print(json.dumps({"ready": ready}))
        return 0

    record = run_record(job["seed"])
    refused = check_record(record)
    if refused:
        print("refusing to run: " + "; ".join(refused), file=sys.stderr)
        return 3
    reference = checks.load_reference()
    studies = job["studies"]
    outs = [os.path.join(outdir, f"s{k:03d}.csv") for k in range(len(studies))]

    passes, layer_runs, span_runs, failures, outliers = [], [], [], [], set()
    attempted = 0
    longest = 0.0
    begin = time.monotonic()
    min_passes = 2 if job["trace"] else 1
    while len(passes) < min_passes \
            or time.monotonic() - begin + longest <= job["seconds"]:
        started = time.monotonic()
        traced = job["trace"] and len(passes) % 2 == 1
        tracer = spans.Tracer() if traced else None
        if traced:
            tracer.install()
        try:
            wall, times, results = run_pass(cli, studies, outs, tracer)
        finally:
            if traced:
                tracer.restore()
        fails, count = check_pass(studies, outs, results, reference)
        attempted += len(studies)
        failures += [dict(f, pass_index=len(passes)) for f in fails]
        outliers.add(count)
        passes.append({"wall_s": wall, "study_s": times,
                       "traced": bool(traced)})
        if traced:
            layers = spans.layer_metrics(tracer.spans, tracer.counters)
            layers["trace.self_share"] = \
                sum(layers[k] for k in spans.TIME_METRICS) / wall
            layer_runs.append(layers)
            span_runs.append(tracer.spans)
        longest = max(longest, time.monotonic() - started)

    result = {
        "ready": ready,
        "record": record,
        "passes": passes,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "outliers_constrained": sorted(outliers),
        "wall_s": pass_time([p for p in passes if not p["traced"]]),
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if layer_runs:
        result["layers"] = trace_metrics(passes, layer_runs, span_runs)
        with open(job["spans_path"], "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "study"],
                       "passes": span_runs}, fh, separators=(",", ":"))
    print(json.dumps(result))
    return 0


def pass_time(passes):
    """Time of one pass: each study's median over the passes, summed.

    A slow spell of the machine then costs one sample of a few studies,
    not a whole pass.
    """
    return sum(statistics.median(t)
               for t in zip(*(p["study_s"] for p in passes)))


def trace_metrics(passes, layer_runs, span_runs):
    """Per-layer metrics plus the tracing overhead and coverage."""
    layers = summarize_layers(layer_runs)
    traced = pass_time([p for p in passes if p["traced"]])
    untraced = pass_time([p for p in passes if not p["traced"]])
    layers.update({
        "trace.wall_s": traced,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": traced - untraced,
        "trace.spans": len(span_runs[0]),
    })
    return layers


def summarize_layers(runs):
    """Median of each time or share over traced passes; counters must
    repeat."""
    out = {}
    for key in runs[0]:
        vals = [r[key] for r in runs]
        if key in spans.TIME_METRICS or key == "trace.self_share":
            out[key] = statistics.median(vals)
        elif len(set(vals)) != 1:
            raise RuntimeError(f"counter {key} differs between passes: {vals}")
        else:
            out[key] = vals[0]
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
