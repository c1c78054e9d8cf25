"""Per-layer metrics of one traced pass, derived from its spans.

The metric names and units are those of BENCHMARK.json; metric_spec reads
them.  A layer that does not run in a workload reports 0 calls and 0
seconds.
"""

import json
import os

from tracing import roots_time, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CERTIFICATES = {
    "curves.verify_product_identity", "curves.verify_b_action",
    "curves.sl2_certificate", "curves.verify_sl2_certificate",
    "curves.quotient_relations_report", "curves.verify_quotient_relations",
}


def metric_spec(kind):
    """(name, unit) of each metric in BENCHMARK.json's `kind` list."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def _keys(name):
    """The span's own name and the groups it counts towards."""
    yield name
    if name.startswith("families."):
        yield "families"
    if name in CERTIFICATES:
        yield "curves.certificates"


def pass_metrics(spans, wall_s, span_cost_s):
    """Every per-layer metric but the probes, for the spans of one pass."""
    calls, selfs = {}, {}
    by_m = dict.fromkeys(range(1, 6), 0.0)
    attr = {"values": 0, "fibers": 0, "elems": 0, "hit": 0, "miss": 0, "corrupt": 0}
    for rec, st in zip(spans, self_times(spans)):
        name, attrs = rec[3], rec[6] or {}
        for key in _keys(name):
            calls[key] = calls.get(key, 0) + 1
            selfs[key] = selfs.get(key, 0.0) + st
        if name == "curves.count_points" and "m" in attrs:
            by_m[attrs["m"]] = by_m.get(attrs["m"], 0.0) + st
        for key in ("values", "fibers", "elems"):
            attr[key] += attrs.get(key, 0)
        if "cache" in attrs:
            attr[attrs["cache"]] += 1
    out = {}
    for name, _unit in metric_spec("per_layer"):
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = calls.get(layer, 0)
        elif stat == "self_s":
            out[name] = selfs.get(layer, 0.0)
    for m in range(1, 6):
        out["curves.count_points.m%d.self_s" % m] = by_m[m]
    out["curves.count_points.values"] = attr["values"]
    out["monodromy.chebotarev_sample.fibers"] = attr["fibers"]
    out["exceptional.is_permutation.elems"] = attr["elems"]
    gets = calls.get("cli.cache_get", 0)
    out["cli.cache.hits"] = attr["hit"]
    out["cli.cache.misses"] = attr["miss"]
    out["cli.cache.corrupt"] = attr["corrupt"]
    out["cli.cache.hit_ratio"] = attr["hit"] / gets if gets else 0.0
    out["trace.overhead_s"] = span_cost_s * len(spans)
    out["trace.unaccounted_s"] = wall_s - roots_time(spans)
    return out
