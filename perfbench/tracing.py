"""Span tracing of excpoly's layers from outside the package.

``Tracer.install()`` replaces every public function of every ``excpoly.*``
module with a wrapper that records a span, at every module namespace that
binds it (imports copy bindings, so ``excpoly.poly.factor`` and
``excpoly.monodromy.factor`` are the same function bound twice and both get
the same wrapper).  ``UniPoly.pow_mod`` and ``UniPoly.gcd`` are wrapped on
the class.  Inner loops such as ``FieldCtx.mul`` are left alone; the probes
time those.  Nothing under ``src/`` changes.

Spans stay in memory as [id, parent, job, name, t0, t1, attrs] and are
written out when the run ends.  A span's self time is its duration minus
the durations of its children.
"""

import contextlib
import functools
import inspect
import json
import os
import statistics
import sys
import time
import types

LAYERS = ("ff", "poly", "families", "exceptional", "monodromy", "curves", "cli")
# Public names that are per-element kernels rather than layer boundaries.
INNER_LOOPS = {"curves.vf_pow2_scalar"}
METHODS = (("poly", "UniPoly", "pow_mod"), ("poly", "UniPoly", "gcd"))


def _count_points_attrs(call):
    m = call.arguments["m"]
    return lambda _result: {"m": m, "values": call.arguments["model"].ambient.order ** m}


def _chebotarev_attrs(call):
    args = call.arguments
    if args.get("mode", "exhaustive") == "exhaustive":
        fibers = args["base"].order
    else:
        fibers = args["n"]
    return lambda _result: {"fibers": fibers}


def _is_permutation_attrs(call):
    return lambda _result: {"elems": call.arguments["field"].order}


def _cache_get_attrs(call):
    path = os.path.join(call.arguments["cdir"], call.arguments["key"] + ".json")
    existed = os.path.exists(path)

    def outcome(result):
        if result is not None:
            return {"cache": "hit"}
        return {"cache": "corrupt" if existed else "miss"}
    return outcome


ANNOTATE = {
    "curves.count_points": _count_points_attrs,
    "monodromy.chebotarev_sample": _chebotarev_attrs,
    "exceptional.is_permutation": _is_permutation_attrs,
    "cli.cache_get": _cache_get_attrs,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.jobs = []
        self._stack = []
        self._job = None
        self._patches = []

    # -- recording

    @contextlib.contextmanager
    def job(self, name):
        """Spans opened inside belong to a new job id."""
        self._job = len(self.jobs)
        self.jobs.append(name)
        try:
            yield
        finally:
            self._job = None

    def wrap(self, name, fn):
        tracer = self
        clock = time.perf_counter
        spans = self.spans
        stack = self._stack
        annotate = ANNOTATE.get(name)
        signature = inspect.signature(fn) if annotate else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            finish = None
            if annotate is not None:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                finish = annotate(call)
            rec = [len(spans), stack[-1] if stack else None, tracer._job, name, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()
            if finish is not None:
                rec[6] = finish(result)
            return result

        traced.__traced__ = fn
        return traced

    # -- installing

    def install(self):
        """Wrap every public excpoly function at every binding."""
        wrappers = {}
        for modname, module in sorted(sys.modules.items()):
            if modname != "excpoly" and not modname.startswith("excpoly."):
                continue
            for attr, value in sorted(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                fn = getattr(value, "__traced__", value)
                layer = fn.__module__.rpartition(".")[2]
                name = "%s.%s" % (layer, fn.__name__)
                if layer not in LAYERS or name in INNER_LOOPS:
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self.wrap(name, fn)
                self._patch(module, attr, wrappers[id(fn)])
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules["excpoly." + layer], cls_name)
            self._patch(cls, meth, self.wrap("%s.%s" % (layer, meth), vars(cls)[meth]))
        return self

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output

    def dump(self, path, header):
        """Write the spans as JSON lines, after one header line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"jobs": self.jobs, **header}) + "\n")
            for sid, parent, job, name, t0, t1, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "job": job,
                                     "name": name, "t0": t0, "t1": t1,
                                     "attrs": attrs}) + "\n")


def self_times(spans):
    """Self time of each span, indexed like spans; ids must be list positions
    relative to spans[0]."""
    base = spans[0][0] if spans else 0
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[1] is not None and rec[1] >= base:
            child[rec[1] - base] += rec[5] - rec[4]
    return [rec[5] - rec[4] - child[i] for i, rec in enumerate(spans)]


def roots_time(spans):
    """Time covered by spans with no parent inside the slice."""
    base = spans[0][0] if spans else 0
    return sum(r[5] - r[4] for r in spans if r[1] is None or r[1] < base)


def calibrate():
    """Seconds one span adds to a call, measured on a no-op function."""
    n = 20000
    def noop(x):
        return x

    tracer = Tracer()
    wrapped = tracer.wrap("calibrate", noop)
    samples = []
    for _ in range(5):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for i in range(n):
            noop(i)
        t1 = time.perf_counter()
        for i in range(n):
            wrapped(i)
        t2 = time.perf_counter()
        samples.append(((t2 - t1) - (t1 - t0)) / n)
    return max(0.0, statistics.median(samples))
