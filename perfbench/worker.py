"""One fresh process of the benchmark; run.py starts it, never a user.

    python3 perfbench/worker.py MODE WORKLOAD SEED [SPANS_FILE]

MODE "pass" times import excpoly plus the workload's set-up, then one pass,
as a user's one-shot run would see it.  MODE "setup" stops after the set-up.
MODE "trace" does the same as "pass" with the
tracer installed for the pass and writes the spans to SPANS_FILE.  MODE
"probes" runs only the fixed-input probes.  The last stdout line is one
JSON object.
"""

import contextlib
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def import_package():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import excpoly
    where = os.path.dirname(os.path.abspath(excpoly.__file__))
    if where != os.path.join(ROOT, "src", "excpoly"):
        raise SystemExit("excpoly imported from %s, not from this checkout" % where)
    return excpoly


def one_pass(mode, name, seed, spans_path):
    from workloads import WORKLOADS, Tally
    work = WORKLOADS[name](seed)
    t0 = time.perf_counter()
    excpoly = import_package()
    work.setup()
    out = {"setup_s": time.perf_counter() - t0}
    if mode == "setup":
        return out
    tracer = None
    if mode == "trace":
        from tracing import Tracer, calibrate
        span_cost = calibrate()
        tracer = Tracer()
    tally = Tally(tracer)
    with tracer or contextlib.nullcontext():
        t0 = time.perf_counter()
        work.run_pass(tally)
        out["pass_s"] = time.perf_counter() - t0
    if tracer is not None:
        import layers
        out["metrics"] = layers.pass_metrics(tracer.spans, out["pass_s"], span_cost)
        tracer.dump(spans_path, {"workload": name, "seed": seed, "span_cost_s": span_cost})
    import numpy
    import sympy
    out.update(
        attempted=tally.attempted, failed=tally.failed, errors=tally.errors,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        versions={"python": platform.python_version(), "numpy": numpy.__version__,
                  "sympy": sympy.__version__, "excpoly": excpoly.__version__})
    return out


def main(argv):
    mode = argv[0]
    if mode == "probes":
        import_package()
        import probes
        out = {"metrics": probes.run_probes()}
    else:
        out = one_pass(mode, argv[1], int(argv[2]), argv[3] if len(argv) > 3 else None)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
