"""Batch front end: generate family members, run verification suites,
emit JSON/CSV reports, and cache expensive results.

This module parses arguments, enforces guards, times checks, caches
payloads and writes artifacts; the criteria themselves are the (ok, data)
functions of excpoly.checks, which the acceptance tests run too.  Every
subcommand builds a report {config, version, checks[]} where each
check carries a name, a status (pass, fail, or recorded), its data, and
its wall-clock seconds.  The report goes to stdout and, with --report,
to a file; two runs with the same config produce identical reports
except for the seconds fields.  Exit code 0 means every pass-type check
passed; 2 is a usage error; 3 is a named guard violation, among them an
--out, --csv or --report path that cannot be written.

Expensive payloads (zeta data, shape distributions) live in a
content-addressed cache keyed by a canonical serialization of the run's
mathematical parameters and the package version (not the output paths,
--cache-dir or --threads), each entry checksummed and replayed through
the library's validation on a hit; a corrupt entry is recomputed and
overwritten with a warning.  The cache only saves time, so a cache
directory that cannot be written is a warning too.  The cache
directory is --cache-dir, else $EXCPOLY_CACHE, else ~/.cache/excpoly.
"""

import argparse
import csv
import hashlib
import json
import os
import sys
import time

from . import __version__, checks
from .curves import plane_model, weil_contradiction_report, zeta
from .exceptional import exceptionality_verdict, tower_scan
from .families import FamilySpec, f_closed
from .ff import FieldElem, make_field
from .monodromy import CycleDist, chebotarev_sample


class Guard(Exception):
    """A named precondition violation; maps to exit code 3."""


def _parse_field(text):
    try:
        parts = dict(kv.split("=") for kv in text.replace(" ", "").split(","))
        p = int(parts["p"])
        e = int(parts["e"])
    except (KeyError, ValueError):
        raise Guard("field-descriptor: expected the form p=2,e=4, got %r" % (text,))
    try:
        return make_field(p, e)
    except ValueError as err:
        raise Guard("field-descriptor: %s" % (err,))


def _elem(ctx, idx, what):
    if not 0 <= idx < ctx.order:
        raise Guard(
            "index-range: %s index %d outside GF(%d^%d)" % (what, idx, ctx.p, ctx.e))
    return FieldElem(ctx, idx)


def _family(args):
    """The FamilySpec the arguments name and its polynomial, or a Guard."""
    kind = args.family.replace("-", "_")
    field = _parse_field(args.field)
    alpha = None
    if args.alpha_index is not None:
        alpha = _elem(field, args.alpha_index, "alpha")
    try:
        spec = FamilySpec(
            kind=kind,
            q=args.q,
            d=getattr(args, "d", None),
            n=getattr(args, "n", None),
            alpha=alpha,
            field=None if alpha is not None else field,
        )
    except ValueError as err:
        raise Guard("family-kind: %s" % (err,))
    try:
        return spec, spec.build()
    except ValueError as err:
        raise Guard("family-build: %s" % (err,))


# ---------------------------------------------------------------------------
# cache


def _cache_dir(args):
    if getattr(args, "cache_dir", None):
        return args.cache_dir
    env = os.environ.get("EXCPOLY_CACHE")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "excpoly")


def _config_dict(args):
    skip = {"func", "out", "report", "csv"}
    cfg = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    cfg["subcommand"] = args.func.__name__.lstrip("_")
    return cfg


def _cache_key(cfg):
    """Key for a run config: its math parameters plus the package version."""
    math_cfg = {k: v for k, v in cfg.items() if k not in ("cache_dir", "threads")}
    math_cfg["version"] = __version__
    blob = json.dumps(math_cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def cache_get(cdir, key, decode=None):
    """Stored payload string for key, or None on miss or corruption.  With
    decode, decode(payload) comes back, and a payload it rejects is corrupt."""
    path = os.path.join(cdir, key + ".json")
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            entry = json.load(fh)
        payload = entry["payload"]
        digest = hashlib.sha256(payload.encode()).hexdigest()
        if digest != entry["sha256"]:
            raise ValueError("checksum mismatch")
        return payload if decode is None else decode(payload)
    except (ValueError, KeyError, TypeError, AttributeError, ArithmeticError, OSError) as err:
        print("cache entry %s is corrupt (%s); recomputing" % (key[:12], err),
              file=sys.stderr)
        return None


def cache_put(cdir, key, payload):
    """Store payload under key; False, with a warning, when cdir cannot take it."""
    entry = {
        "key": key,
        "sha256": hashlib.sha256(payload.encode()).hexdigest(),
        "payload": payload,
    }
    path = os.path.join(cdir, key + ".json")
    tmp = path + ".tmp"
    try:
        os.makedirs(cdir, exist_ok=True)
        with open(tmp, "w") as fh:
            json.dump(entry, fh, sort_keys=True)
        os.replace(tmp, path)
    except OSError as err:
        print("cache entry %s not stored (%s); continuing" % (key[:12], err), file=sys.stderr)
        return False
    return True


# ---------------------------------------------------------------------------
# report plumbing


class Runner:
    def __init__(self, cfg):
        self.cfg = cfg
        self.checks = []

    def run(self, name, fn, kind="assert"):
        """Execute one check; kind 'assert' maps truth to pass/fail,
        kind 'record' always reports recorded data."""
        t0 = time.time()
        ok, data = fn()
        secs = round(time.time() - t0, 3)
        if kind == "record":
            status = "recorded"
        else:
            status = "pass" if ok else "fail"
        self.checks.append(
            {"name": name, "status": status, "data": data, "seconds": secs})
        return ok, data

    def guard(self, err):
        self.checks.append(
            {"name": "guard", "status": "fail", "data": {"guard": str(err)}, "seconds": 0.0})

    def text(self):
        report = {"config": self.cfg, "version": __version__, "checks": self.checks}
        return json.dumps(report, sort_keys=True, indent=2)

    def exit_code(self):
        if any(c["name"] == "guard" for c in self.checks):
            return 3
        return 0 if all(c["status"] != "fail" for c in self.checks) else 1


def _write_file(path, write, newline=None):
    """write(fh) into path opened for writing, or the output-path guard."""
    try:
        with open(path, "w", newline=newline) as fh:
            write(fh)
    except OSError as err:
        raise Guard("output-path: cannot write %s (%s)" % (path, err.strerror or err))


def _write_artifact(path, payload):
    text = payload if payload.endswith("\n") else payload + "\n"
    _write_file(path, lambda fh: fh.write(text))


def _write_csv(path, header, rows):
    def write(fh):
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    _write_file(path, write, newline="")


# ---------------------------------------------------------------------------
# shape distributions


def _decode_dist(payload, degree):
    dist = CycleDist.from_json(json.loads(payload))
    if dist.degree != degree:
        raise ValueError("degree %d, want %d" % (dist.degree, degree))
    return dist


def _chebotarev_checks(runner, f, q, j, mode, n, seed, threads, cdir, cfg):
    try:
        base = make_field(2, 2 * j)
    except ValueError as err:
        raise Guard("chebotarev-j-range: --j %d: %s" % (j, err))
    state = {}

    def inclusion():
        key = _cache_key(dict(cfg, j=j))
        dist = cache_get(cdir, key, decode=lambda text: _decode_dist(text, f.degree))
        hit = dist is not None
        if not hit:
            try:
                dist = chebotarev_sample(f, base, mode=mode, n=n, seed=seed,
                                         threads=threads)
            except ValueError as err:
                raise Guard("chebotarev-size: %s" % (err,))
        payload = json.dumps(dist.to_json(), sort_keys=True, indent=2)
        if not hit:
            cache_put(cdir, key, payload)
        state["dist"] = dist
        state["payload"] = payload
        try:
            return checks.shape_inclusion(dist, q, j)
        except ValueError as err:
            raise Guard("chebotarev-ramified: every fiber drawn is ramified (%s)" % (err,))

    runner.run("shape-inclusion-j%d" % j, inclusion)
    runner.run("tv-distance-j%d" % j, lambda: checks.tv_distance(state["dist"], q, j),
               kind="record")
    runner.run("branch-points-j%d" % j, lambda: checks.branch_point(f, j))
    return state["dist"], state["payload"]


# ---------------------------------------------------------------------------
# subcommands


def _gen(args, runner):
    spec, f = _family(args)
    payload = json.dumps(f.to_json(), sort_keys=True, indent=2)
    if args.out:
        _write_artifact(args.out, payload)
    runner.run(
        "gen",
        lambda: (True, {"kind": spec.kind, "degree": f.degree,
                        "monic": f.is_monic(), "out": bool(args.out)}),
        kind="record")


def _check_perm(args, runner):
    spec, _f = _family(args)
    base = spec.base_field()
    degrees = _parse_ints(args.extensions)
    box = {}

    def scan():
        try:
            verdict = exceptionality_verdict(spec, base)
        except ValueError as err:
            raise Guard("family-verdict: %s" % (err,))
        try:
            box["rep"] = tower_scan(spec, base, degrees, threads=args.threads)
        except ValueError as err:
            raise Guard("size-guard: %s" % (err,))
        data = box["rep"].to_json()
        data["exceptional_verdict"] = verdict
        box["data"] = data
        return True, data

    runner.run("perm-grid", scan, kind="record")
    if args.csv:
        _write_csv(args.csv, ["extension", "field_order", "bijective"],
                   ([j, base.order ** j, ok] for j, ok, _wit in box["rep"].rows))
    if args.out:
        _write_artifact(args.out, json.dumps(box["data"], sort_keys=True, indent=2))


def _identity_checks(runner, q, seed, samples):
    runner.run("form-equality", lambda: checks.form_equality(q))
    runner.run("structure-facts", lambda: checks.structure_facts(q))
    runner.run("product-identity", lambda: checks.product_identity(q))
    runner.run("dickson-identity", lambda: checks.dickson_identity(seed, samples))


def _check_identities(args, runner):
    if args.q not in (4, 8, 16):
        raise Guard("identities-q-range: q must be 4, 8, or 16, got %r" % (args.q,))
    if args.samples < 1:
        raise Guard("identities-samples: --samples must be at least 1, got %d" % (args.samples,))
    _identity_checks(runner, args.q, args.seed, args.samples)


def _decode_zeta(payload, model, c):
    """The payload, once its counts replay through zeta to the stored body."""
    body = json.loads(payload)
    replay = zeta(model, 6, counts=body["counts"]).to_json()
    replay["c"] = {"field_e": 4, "index": c.i}
    if replay != body:
        raise ValueError("entry disagrees with the zeta data its counts replay to")
    return payload


def _zeta(args, runner):
    if args.q != 4:
        raise Guard("zeta-q-range: zeta runs are supported for q = 4 only")
    c = _elem(make_field(2, 4), args.c_index, "c")
    cdir = _cache_dir(args)
    key = _cache_key(runner.cfg)

    def check():
        # the lookup and the compute run inside the timed check
        try:
            model = plane_model(4, c)
        except ValueError as err:
            raise Guard("smooth-model: %s" % (err,))
        payload = cache_get(cdir, key, decode=lambda text: _decode_zeta(text, model, c))
        if payload is None:
            body = zeta(model, 6, threads=args.threads).to_json()
            body["c"] = {"field_e": 4, "index": c.i}
            payload = json.dumps(body, sort_keys=True, indent=2)
            if cache_put(cdir, key, payload):
                print("zeta: computed and cached under %s" % key[:12], file=sys.stderr)
        else:
            print("zeta: served from cache %s" % key[:12], file=sys.stderr)
        if args.out:
            _write_artifact(args.out, payload)
        return checks.zeta_summary(json.loads(payload))

    runner.run("zeta", check)


def _chebotarev(args, runner):
    if args.q not in (4, 8, 16, 32):
        raise Guard("chebotarev-q-range: q must be one of 4, 8, 16, 32")
    field = _parse_field(args.field)
    alpha = _elem(field, args.alpha_index, "alpha")
    try:
        f = f_closed(args.q, alpha)
    except ValueError as err:
        raise Guard("family-build: %s" % (err,))
    if args.mode == "sampled" and args.seed is None:
        raise Guard("seed-required: sampled mode needs --seed")
    cdir = _cache_dir(args)
    dist, payload = _chebotarev_checks(
        runner, f, args.q, args.j, args.mode, args.n, args.seed,
        args.threads, cdir, runner.cfg)
    if args.out:
        _write_artifact(args.out, payload)
    if args.csv:
        _write_csv(args.csv, ["type", "weight"],
                   (["+".join(map(str, shape)), str(wt)]
                    for shape, wt in sorted(dist.entries.items())))


def _weil(args, runner):
    box = {}

    def headline():
        try:
            box["rep"] = weil_contradiction_report(args.q)
        except ValueError as err:
            raise Guard("weil-q-range: %s" % (err,))
        return checks.weil_headline(box["rep"])

    runner.run("weil-headline", headline)
    runner.run("weil-divisor-cases", lambda: checks.weil_cases(box["rep"]))


def _certify(args, runner):
    field = _parse_field(args.field)
    alpha = _elem(field, args.alpha_index, "alpha")
    try:
        runner.run("sl2-certificate", lambda: checks.certificate(args.q, alpha))
    except ValueError as err:
        raise Guard("certificate-domain: %s" % (err,))
    runner.run("b-action-grid", lambda: checks.action_grid(args.q, args.seed))


def _verify_all(args, runner):
    q = args.q
    if q not in (4, 8):
        raise Guard("verify-all-q-range: suites exist for q = 4 and q = 8")
    seed = args.seed
    threads = args.threads
    _identity_checks(runner, q, seed, 200)
    runner.run("perm-grid", lambda: checks.perm_grid(q, threads),
               kind="assert" if q == 8 else "record")
    alpha = FieldElem(checks.alpha_field(q), 2)
    runner.run("sl2-certificate", lambda: checks.certificate(q, alpha))
    runner.run("b-action-grid", lambda: checks.action_grid(q, seed))
    runner.run("smoothness", lambda: checks.smoothness(q))
    runner.run("canonicalization", lambda: checks.canonicalization(q, seed, 25))
    if q == 4:
        runner.run("zeta-representative", lambda: checks.zeta_representative(threads))
        return
    runner.run("weil-contradiction", lambda: checks.weil_contradiction(8))
    f = f_closed(8, alpha)
    for j in (2, 4, 7):
        _chebotarev_checks(runner, f, 8, j, "exhaustive", None, None,
                           threads, _cache_dir(args), dict(runner.cfg, chunk=j))


def _parse_ints(text):
    try:
        out = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise Guard("extension-list: expected comma-separated integers, got %r"
                    % (text,))
    if not out or any(j < 1 for j in out):
        raise Guard("extension-list: degrees must be positive")
    return out


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="excpoly",
        description="construct and verify exceptional polynomial families")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(p, cache=False):
        p.add_argument("--report", help="also write the JSON report here")
        p.add_argument("--threads", type=int, default=1)
        if cache:
            p.add_argument("--cache-dir", help="override the cache directory")

    def family(p):
        p.add_argument("--family", required=True,
                       help="power | dickson | char2-new | char2-additive-twist | char3-twist")
        for name in ("--q", "--d", "--n", "--alpha-index"):
            p.add_argument(name, type=int)
        p.add_argument("--field", required=True, help="field descriptor, e.g. p=2,e=2")

    p = sub.add_parser("gen", help="generate one family member as JSON")
    family(p)
    p.add_argument("--out", help="write the polynomial JSON here")
    common(p)
    p.set_defaults(func=_gen)

    p = sub.add_parser("check-perm", help="bijectivity scan over a field tower")
    family(p)
    p.add_argument("--extensions", required=True, help="e.g. 1,2,3,4,5")
    p.add_argument("--out", help="write the scan JSON here")
    p.add_argument("--csv", help="write the grid as CSV here")
    common(p)
    p.set_defaults(func=_check_perm)

    p = sub.add_parser("check-identities", help="polynomial identity suite")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--samples", type=int, default=200)
    common(p)
    p.set_defaults(func=_check_identities)

    p = sub.add_parser("zeta", help="L-polynomial of the smooth plane model")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--c-index", type=int, required=True)
    p.add_argument("--out", help="write the zeta JSON here")
    common(p, cache=True)
    p.set_defaults(func=_zeta)

    p = sub.add_parser("chebotarev", help="fiber shapes vs exact coset types")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--alpha-index", type=int, required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--j", type=int, required=True, help="base field GF(4^j)")
    p.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="write the distribution JSON here")
    p.add_argument("--csv", help="write the distribution as CSV here")
    common(p, cache=True)
    p.set_defaults(func=_chebotarev)

    p = sub.add_parser("weil", help="genus/point-count contradiction report")
    p.add_argument("--q", type=int, required=True)
    common(p)
    p.set_defaults(func=_weil)

    p = sub.add_parser("certify", help="group-theoretic curve certificates")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--alpha-index", type=int, required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--seed", type=int, required=True)
    common(p)
    p.set_defaults(func=_certify)

    p = sub.add_parser("verify-all", help="the full per-q verification suite")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    common(p, cache=True)
    p.set_defaults(func=_verify_all)

    return ap


def run(argv):
    """Parse argv, execute, emit the report; returns the exit code."""
    ap = _build_parser()
    args = ap.parse_args(argv)
    runner = Runner(_config_dict(args))
    try:
        args.func(args, runner)
    except Guard as err:
        runner.guard(err)
    text = runner.text()
    if args.report:
        try:
            _write_artifact(args.report, text)
        except Guard as err:
            runner.guard(err)
            text = runner.text()
    print(text)
    return runner.exit_code()


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
