"""
The sparseoc benchmark: time to tolerance on four fixed solve workloads.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in a fresh Python
process (worker.py), one at a time, with BLAS/OpenMP limited to one thread
in that process only, so peak memory is per workload and nothing competes
for the cores.  The PDE data is fixed: the seed only shuffles the order in
which workloads (with "all") and traced/untraced samples run.

--trace 0 prints the end-to-end metrics (solve and set-up time, iterations,
peak memory, control error); the times are scaled to a reference host speed
by a probe run beside every sample (hostprobe.py).  A detail line adds the
sample count, the solve-time tail and the unscaled wall-clock medians.
--trace 1 prints the per-layer metrics of the traced run and writes its
spans to perfbench/out/.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Every
sample's answer is checked; a failed check is counted with its reason and
never stops the run.
"""

import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def run_workload(name, seed, seconds, trace):
    """Run one workload in a child process; its result dict, or None."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {name} did not finish in {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: {name} exited with code {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def report(name, result):
    """Human-readable lines for one workload."""
    for metric, m in sorted(result["metrics"].items()):
        print(f"{name:26s} {metric:28s} {m['value']:.6g} {m['unit']}")
    detail = ", ".join(f"{k} {v:.6g}" for k, v in result["detail"].items())
    print(f"{name:26s} detail (no bound): {detail}")
    verdict = "ok" if not result["failed"] else "; ".join(result["reasons"])
    print(f"{name:26s} checks: {verdict} ({result['attempted']} solves, "
          f"{result['failed']} failed, failure_rate "
          f"{result['failed'] / result['attempted']:.3g})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sparseoc" / "__init__.py").is_file():
        print(f"error: no sparseoc sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    random.Random(args.seed).shuffle(names)
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        results[name] = result
        report(name, result)
    print("# env " + json.dumps(next(iter(results.values()))["env"]))

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}/{k}": v for n, r in results.items()
                   for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
