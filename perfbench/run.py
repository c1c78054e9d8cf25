"""Run one measurement of the excpoly benchmark, from the repository root:

    python3 perfbench/run.py --workload zeta-sweep --seed 1 --seconds 30 --trace 0

Workloads are zeta-sweep, shape-sweep and cli-batch (workloads.py).  Each
pass runs in a fresh process, as a user's one-shot run would: the process
times import excpoly plus the workload's set-up, then one pass.  Passes
repeat until the next one would end after --seconds, with at least
MIN_PASSES.  With --trace 0 each pass is followed by SETUP_PER_PASS fresh
processes that only set up, and the run reports wall_s (median pass),
setup_s (median over all set-ups) and peak_rss_mb (median peak of the pass
processes).  With --trace 1 the passes run traced and one more process runs
the probes; the run reports the per-layer metrics, each a median over
passes.  The metric names and units are those of BENCHMARK.json.

Every output is checked against perfbench/expected; a wrong or raising
verdict counts as failed, and fail_share = failed / attempted.  The run
prints each metric with its unit, writes perfbench/out/result-*.json with
the environment and the known gaps, and ends with one JSON line holding
correct, attempted, failed and metrics.  Without src/excpoly in the
checkout it exits 2 and prints no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from layers import metric_spec
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_PASSES = 3
# Set-up alone is about 0.7 s, mostly importing sympy and numpy; twelve
# samples in a row on a shared 2-core machine ranged over 0.56-0.96 s, so
# each pass brings this many more samples.
SETUP_PER_PASS = 3
DEADLINE_S = 170


class WorkerFailed(Exception):
    pass


def worker(argv, deadline):
    """Run worker.py to completion and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + argv
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed("%s worker ran past the %d s deadline" % (argv[0], DEADLINE_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed("%s worker exited %d" % (argv[0], proc.returncode))
    return json.loads(lines[-1])


def run_passes(args, deadline):
    """Fresh-process passes, closed loop; returns each pass worker's result
    and the set-up samples: each pass's, and with --trace 0 those of
    SETUP_PER_PASS set-up-only processes after each pass."""
    mode = "trace" if args.trace else "pass"
    results, setups, took = [], [], []
    start = time.monotonic()
    while True:
        argv = [mode, args.workload, str(args.seed)]
        if args.trace:
            argv.append(os.path.join("perfbench", "out", "spans-%s-seed%d-pass%d.jsonl" % (
                args.workload, args.seed, len(results))))
        t0 = time.monotonic()
        results.append(worker(argv, deadline))
        results[-1]["spans_file"] = argv[3] if args.trace else None
        setups.append(results[-1]["setup_s"])
        if not args.trace:
            setups += [worker(["setup", args.workload, str(args.seed)], deadline)["setup_s"]
                       for _ in range(SETUP_PER_PASS)]
        took.append(time.monotonic() - t0)
        ahead = time.monotonic() - start + statistics.median(took)
        if len(results) >= MIN_PASSES and ahead > args.seconds:
            return results, setups


def git_revision():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != ROOT:
        return None
    return lines[1]


def environment(versions, loadavg):
    return {
        **versions,
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "loadavg_at_start": list(loadavg),
    }


def summarize(args, results, setups, deadline):
    """Metric values of the run: medians over its passes and set-ups."""
    def median(key):
        return statistics.median(r[key] for r in results)

    if not args.trace:
        return {"wall_s": median("pass_s"), "setup_s": statistics.median(setups),
                "peak_rss_mb": median("peak_rss_mb")}, metric_spec("end_to_end")
    values = {name: statistics.median(r["metrics"][name] for r in results)
              for name in results[0]["metrics"]}
    values.update(worker(["probes"], deadline)["metrics"])
    return values, metric_spec("per_layer")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "excpoly", "__init__.py")):
        print("no src/excpoly in %s: nothing to measure" % ROOT, file=sys.stderr)
        return 2
    loadavg = os.getloadavg()
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    try:
        results, setups = run_passes(args, deadline)
        values, spec = summarize(args, results, setups, deadline)
    except WorkerFailed as err:
        print("benchmark failed: %s" % err, file=sys.stderr)
        return 1

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in spec}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    errors = [e for r in results for e in r["errors"]][:20]
    fail_share = failed / attempted
    for name, m in metrics.items():
        print("%-44s %14.6g %s" % (name, m["value"], m["unit"]))
    print("%-44s %14.6g %s" % ("fail_share", fail_share, "ratio"))
    print("passes %d, verdicts %d attempted, %d failed" % (len(results), attempted, failed))
    for err in errors:
        print("FAILED " + err)

    with open(os.path.join(HERE, "known_gaps.json")) as fh:
        gaps = json.load(fh)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metrics": metrics, "fail_share": fail_share,
        "attempted": attempted, "failed": failed, "errors": errors,
        "passes_s": [r["pass_s"] for r in results],
        "setup_samples_s": setups,
        "peak_rss_mb_samples": [r["peak_rss_mb"] for r in results],
        "spans_files": [r["spans_file"] for r in results if r["spans_file"]],
        "environment": environment(results[0]["versions"], loadavg),
        "known_gaps": gaps,
    }
    out_path = os.path.join(HERE, "out", "result-%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print("wrote " + os.path.relpath(out_path, ROOT))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
