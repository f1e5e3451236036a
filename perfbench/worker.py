"""
Measure one workload in this process and print one JSON line.

run.py starts this script in a fresh interpreter per workload, with
PYTHONPATH pointing at the checkout's src/ and BLAS/OpenMP limited to one
thread; it is not meant to be run by hand.

A sample is one build of the problem (timed as set-up) followed by one
solve to the workload's tolerance (timed as solve), and every sample's
answer is checked.  The host probe runs between any two samples, and the
end-to-end times are scaled by it (see hostprobe.py).  One untimed warm-up
sample comes first.  With --trace 0 samples repeat until --seconds have
passed and at least MIN_SAMPLES were taken.  With --trace 1 traced and
untraced samples alternate in pairs, in an order drawn from --seed, and the
per-layer metrics are the medians over the traced ones (wall seconds, not
scaled).
"""

import argparse
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads as wl
from hostprobe import PROBE_REF_S, HostProbe
from tracer import DETERMINISTIC, Tracer, combine, run_metrics

# The tail order statistic needs at least 10 samples above it.  Runs are
# otherwise bounded by --seconds, so that a slow host cannot stretch them.
MIN_SAMPLES = 11
MIN_TRACE_PAIRS = 5
# stop sampling here whatever the minimum, to report within the 180 s limit
HARD_STOP_S = 120.0
SPAN_DIR = Path(__file__).resolve().parent / "out"


def environment(seed):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "seed": seed}


def sample(workload, expected, tracer=None):
    """One build and solve; failures are returned as reasons, never raised."""
    out = {"reasons": []}
    if tracer is not None:
        tracer.run += 1
        tracer.install()
    try:
        t0 = time.perf_counter()
        mesh, problem, u_star = wl.build(workload)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.problem = problem
        report = wl.solve(workload, problem)
        t2 = time.perf_counter()
    except Exception as exc:      # a failed solve is counted, not fatal
        out["reasons"].append(f"{type(exc).__name__}: {exc}")
        return out
    finally:
        if tracer is not None:
            tracer.uninstall()
    out.update(setup_s=t1 - t0, solve_s=t2 - t1,
               iterations=report.iterations, final_eta=report.final_eta,
               gmres_iters=sum(s.iterations for s in report.inner_stats),
               pmhss_apps=sum(s.preconditioner_applications
                              for s in report.inner_stats))
    try:
        out["control_error"], reasons = wl.check(
            workload, mesh, problem, u_star, report, expected)
    except Exception as exc:
        reasons = [f"check raised {type(exc).__name__}: {exc}"]
    out["reasons"] += reasons
    if tracer is not None:
        out["layers"] = run_metrics(tracer, tracer.run)
    return out


def _same_answer(ref, other):
    """Reasons why two samples' solves differ (bit-identical expected)."""
    keys = ("iterations", "final_eta", "gmres_iters", "pmhss_apps")
    return [f"{k} {other[k]!r} differs from {ref[k]!r}"
            for k in keys if k in ref and k in other and other[k] != ref[k]]


class Sampler:
    """Runs samples with the host probe before and after each one."""

    def __init__(self, workload, expected):
        self.workload = workload
        self.expected = expected
        self.probe = HostProbe()
        self.last_probe = self.probe()

    def __call__(self, tracer=None):
        s = sample(self.workload, self.expected, tracer)
        now = self.probe()
        s["probe_s"] = 0.5 * (self.last_probe + now)
        self.last_probe = now
        return s


def scaled(s, key):
    """A sample's wall time in seconds of the reference host."""
    return s[key] * PROBE_REF_S / s["probe_s"]


def tail(values):
    """Highest order statistic with at least 10 samples above it."""
    ordered = sorted(values)
    return ordered[len(ordered) - 11] if len(ordered) >= 11 else ordered[-1]


def measure(workload, expected, seconds):
    """Untraced samples -> end-to-end metrics and unbounded detail."""
    run = Sampler(workload, expected)
    samples = [run()]                               # warm-up, checked only
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S or (elapsed >= seconds
                                      and len(samples) > MIN_SAMPLES):
            break
        samples.append(run())
    for s in samples[1:]:
        s["reasons"] += _same_answer(samples[0], s)
    ok = [s for s in samples[1:] if not s["reasons"]]
    metrics, detail = {}, {}
    if ok:
        solve = [scaled(s, "solve_s") for s in ok]
        metrics = {
            "solve_s": (statistics.median(solve), "s"),
            "setup_s": (statistics.median(scaled(s, "setup_s") for s in ok),
                        "s"),
            "iterations": (ok[0]["iterations"], "count"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "control_error": (ok[0]["control_error"], "L2"),
        }
        # the tail's quantile level 1 - 10/N moves with the sample count N,
        # which a slow host lowers, so it is reported but carries no bound
        detail = {"samples": len(ok), "solve_s_tail": tail(solve)}
        detail.update({"wall_" + key: statistics.median(s[key] for s in ok)
                       for key in ("solve_s", "setup_s", "probe_s")})
    return samples, metrics, detail


def measure_traced(workload, expected, seconds, rng):
    """Alternating traced/untraced samples -> per-layer metrics."""
    tracer = Tracer()
    run = Sampler(workload, expected)
    reference = run()                               # warm-up, checked only
    samples, traced, plain = [reference], [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S or (elapsed >= seconds
                                      and len(traced) >= MIN_TRACE_PAIRS):
            break
        for with_trace in rng.sample((True, False), 2):
            s = run(tracer if with_trace else None)
            s["reasons"] += _same_answer(reference, s)
            (traced if with_trace else plain).append(s)
            samples.append(s)
    layered = [s for s in traced if "layers" in s]
    for s in layered[1:]:
        s["reasons"] += [f"{k} {s['layers'][k][0]} differs from "
                         f"{layered[0]['layers'][k][0]}"
                         for k in DETERMINISTIC
                         if s["layers"][k][0] != layered[0]["layers"][k][0]]
    metrics, detail = {}, {}
    timed = [s for s in plain if "solve_s" in s]
    if layered and timed:
        metrics = combine([s["layers"] for s in layered])
        overhead = statistics.median(scaled(s, "solve_s") for s in layered) \
            / statistics.median(scaled(s, "solve_s") for s in timed) - 1.0
        metrics["trace.overhead"] = (overhead, "ratio")
        detail = {"samples": len(layered),
                  "wall_probe_s": statistics.median(s["probe_s"]
                                                    for s in samples)}
    SPAN_DIR.mkdir(exist_ok=True)
    tracer.write(SPAN_DIR / f"spans-{workload.name}.jsonl")
    return samples, metrics, detail


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    expected = wl.load_expected()[workload.name]
    if args.trace:
        samples, metrics, detail = measure_traced(
            workload, expected, args.seconds, random.Random(args.seed))
    else:
        samples, metrics, detail = measure(workload, expected, args.seconds)
    reasons = sorted({r for s in samples for r in s["reasons"]})
    result = {
        "attempted": len(samples),
        "failed": sum(1 for s in samples if s["reasons"]),
        "reasons": reasons,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
        "env": environment(args.seed),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
