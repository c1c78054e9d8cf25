"""The three benchmark workloads and the verdicts they check.

Every workload turns the seed into its inputs, builds what a pass needs in
``setup()`` and then runs closed-loop passes: each job starts when the
previous verdict is in, in one process, with ``threads=1``.  A verdict is
one output compared with the expected data in ``perfbench/expected``; a
mismatch or an exception counts as a failed verdict and the pass goes on.

The package is imported inside ``setup()`` so that a fresh process can time
``import excpoly`` as part of its set-up, and library functions are looked
up on their modules at call time so that the traced run sees its wrappers.
"""

import contextlib
import io
import json
import os
import random
import shutil
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")
# Relative to the checkout root, the worker's working directory; the CLI
# reports echo it in their config, so it must not depend on the checkout.
CLI_CACHE = "perfbench/out/cli-cache"


def load_expected(name):
    with open(os.path.join(EXPECTED_DIR, name + ".json")) as fh:
        return json.load(fh)


class Tally:
    """Attempted and failed verdicts, with the first few failure reasons."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def verdict(self, name, fn):
        """Run one job; fn returns (got, want) and the verdict holds iff equal."""
        self.attempted += 1
        job = self.tracer.job(name) if self.tracer else contextlib.nullcontext()
        try:
            with job:
                got, want = fn()
        except Exception as err:  # a raising job is a failed verdict
            self._fail(name, "%s: %s" % (type(err).__name__, err))
            return
        if got != want:
            self._fail(name, "got %s, want %s" % (_short(got), _short(want)))

    def _fail(self, name, why):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append("%s: %s" % (name, why))


def _short(value, limit=200):
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


# ---------------------------------------------------------------------------
# zeta-sweep


def zeta_c(seed, orbits):
    """The seed picks one Frobenius orbit; its least element is c."""
    return random.Random(seed).choice(orbits)[0]


class ZetaSweep:
    """count_points(plane_model(4, c), m) for m = 1..5, then zeta with g = 6."""

    name = "zeta-sweep"
    ms = (1, 2, 3, 4, 5)

    def __init__(self, seed, expected=None):
        self.expected = expected if expected is not None else load_expected("zeta")
        self.c = zeta_c(seed, self.expected["orbits"])

    def setup(self):
        import excpoly
        import excpoly.curves as curves
        ff = excpoly.ff
        for m in self.ms:
            ff.make_field(2, 4 * m)
        self.curves = curves
        self.model = curves.plane_model(4, ff.FieldElem(ff.make_field(2, 4), self.c))

    def run_pass(self, tally):
        want = self.expected["by_c"][str(self.c)]
        counts = want["counts"]
        for m in self.ms:
            tally.verdict("count-m%d" % m, lambda m=m: (
                self.curves.count_points(self.model, m), counts[m - 1]))

        def replay():
            zd = self.curves.zeta(self.model, 6, counts=counts)
            return [list(zd.L), zd.p_rank], [want["L"], want["p_rank"]]

        tally.verdict("zeta-g6", replay)


# ---------------------------------------------------------------------------
# shape-sweep


def shape_inputs(seed):
    """alpha index in GF(4) minus F_2 and the sampled-mode seed."""
    rng = random.Random(seed)
    return rng.choice((2, 3)), rng.randrange(1 << 31)


def dist_json(dist):
    """CycleDist as sorted [shape, "num/den"] pairs."""
    return [[list(s), str(w)] for s, w in sorted(dist.entries.items())]


def sampled_dist(types, index, ts):
    """The distribution chebotarev_sample must give on the fibers ts,
    from the expected per-fiber shape table."""
    counts = {}
    for t in ts:
        counts[index[t]] = counts.get(index[t], 0) + 1
    return sorted([list(types[k]), str(Fraction(c, len(ts)))]
                  for k, c in counts.items())


class ShapeSweep:
    """Exhaustive shapes of f_closed(8, alpha) over GF(4^6), sampled over GF(4^7)."""

    name = "shape-sweep"
    exhaustive_e = 12
    sampled_e = 14
    sampled_n = 2048

    def __init__(self, seed, expected=None):
        expected = expected if expected is not None else load_expected("shape")
        self.alpha, self.sample_seed = shape_inputs(seed)
        want = expected["by_alpha"][str(self.alpha)]
        # chebotarev_sample draws its fibers exactly like this
        ts = sorted(random.Random(self.sample_seed).sample(
            range(1 << self.sampled_e), self.sampled_n))
        self.want_exhaustive = want["exhaustive"]
        self.want_sampled = sampled_dist(want["sampled_types"], want["sampled_index"], ts)

    def setup(self):
        import excpoly
        import excpoly.monodromy as monodromy
        ff = excpoly.ff
        self.mono = monodromy
        g4 = ff.make_field(2, 2)
        self.base6 = ff.make_field(2, self.exhaustive_e)
        self.base7 = ff.make_field(2, self.sampled_e)
        self.f = excpoly.families.f_closed(8, ff.FieldElem(g4, self.alpha))
        for e in (self.exhaustive_e, self.sampled_e):
            monodromy.coset_cycle_types(8, e % 3)

    def _inclusion(self, dist, e):
        coset = self.mono.coset_cycle_types(8, e % 3)
        return sorted(dist.unramified().support() - coset.support()), []

    def run_pass(self, tally):
        mono = self.mono
        box = {}

        def exhaustive():
            box[6] = mono.chebotarev_sample(self.f, self.base6)
            return dist_json(box[6]), self.want_exhaustive

        def tv():
            coset = mono.coset_cycle_types(8, self.exhaustive_e % 3)
            d = mono.dist_compare(box[6].unramified(), coset)
            return d <= Fraction(1, 20), True

        def sampled():
            box[7] = mono.chebotarev_sample(self.f, self.base7, mode="sampled",
                                            n=self.sampled_n, seed=self.sample_seed)
            return dist_json(box[7]), self.want_sampled

        tally.verdict("exhaustive-4^6", exhaustive)
        tally.verdict("inclusion-4^6", lambda: self._inclusion(box[6], self.exhaustive_e))
        tally.verdict("tv-4^6", tv)
        tally.verdict("branch-4^6", lambda: (
            [b.i for b in mono.branch_points(self.f, self.base6)], [0]))
        tally.verdict("sampled-4^7", sampled)
        tally.verdict("inclusion-4^7", lambda: self._inclusion(box[7], self.sampled_e))
        tally.verdict("branch-4^7", lambda: (
            [b.i for b in mono.branch_points(self.f, self.base7)], [0]))


# ---------------------------------------------------------------------------
# cli-batch


CLI_VARIANTS = ((2, 11), (3, 11), (2, 29), (3, 29))   # (alpha index, --seed)


def cli_variant(seed):
    return random.Random(seed).randrange(len(CLI_VARIANTS))


def cli_commands(variant):
    """The fixed command list as (label, argv) pairs."""
    a, s = (str(x) for x in CLI_VARIANTS[variant])
    char2 = ["--q", "8", "--alpha-index", a, "--field", "p=2,e=2"]
    cheb = (["chebotarev"] + char2 + ["--j", "4", "--mode", "sampled", "--n", "16",
                                      "--seed", s, "--cache-dir", CLI_CACHE])
    return [
        ("perm-tower-4^1..8", ["check-perm", "--family", "char2-new"] + char2
         + ["--extensions", "1,2,3,4,5,6,7,8"]),
        ("perm-power-2^17", ["check-perm", "--family", "power", "--d", "5",
                             "--field", "p=2,e=17", "--extensions", "1"]),
        ("chebotarev-cold", cheb),
        ("chebotarev-warm", cheb),
        ("chebotarev-corrupt", cheb),
        ("identities", ["check-identities", "--q", "8", "--seed", s]),
        ("certify", ["certify"] + char2 + ["--seed", s]),
        ("weil-8", ["weil", "--q", "8"]),
        ("gen", ["gen", "--family", "char2-new"] + char2),
        ("weil-4-guard", ["weil", "--q", "4"]),
    ]


def strip_seconds(obj):
    """A report with every "seconds" field removed."""
    if isinstance(obj, dict):
        return {k: strip_seconds(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [strip_seconds(v) for v in obj]
    return obj


def run_cli(cli, argv):
    """cli.run in-process: (exit code, report without seconds, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as stop:
            code = stop.code
    return code, strip_seconds(json.loads(out.getvalue())), err.getvalue()


def flip_middle_byte(path):
    with open(path, "r+b") as fh:
        data = bytearray(fh.read())
        data[len(data) // 2] ^= 1
        fh.seek(0)
        fh.write(data)


class CliBatch:
    """excpoly.cli.run over a fixed command list, fresh cache each pass."""

    name = "cli-batch"

    def __init__(self, seed, expected=None):
        expected = expected if expected is not None else load_expected("cli")
        self.variant = cli_variant(seed)
        self.commands = cli_commands(self.variant)
        self.golden = expected["variants"][self.variant]

    def setup(self):
        # Only the import: every CLI command builds its own fields, actions
        # and coset tables, as a user's one-shot invocation does.
        import excpoly.cli as cli
        self.cli = cli

    def run_pass(self, tally):
        shutil.rmtree(CLI_CACHE, ignore_errors=True)
        box = {}
        try:
            for label, argv in self.commands:
                want = self.golden[label]
                tally.verdict(label, lambda argv=argv, label=label, want=want: (
                    self._run(argv, label, box), [want["exit"], want["report"]]))
                if label.startswith("chebotarev-"):
                    tally.verdict(label + "-cache", lambda label=label: (
                        self._cache_state(box, label), True))
        finally:
            shutil.rmtree(CLI_CACHE, ignore_errors=True)

    def _run(self, argv, label, box):
        if label == "chebotarev-corrupt":
            (entry,) = os.listdir(CLI_CACHE)
            flip_middle_byte(os.path.join(CLI_CACHE, entry))
        code, report, err = run_cli(self.cli, argv)
        box[label] = err
        return [code, report]

    def _cache_state(self, box, label):
        """Cold writes one entry, warm reads it silently, a corrupt entry is
        reported and rewritten byte for byte."""
        entries = os.listdir(CLI_CACHE)
        if len(entries) != 1:
            return False
        with open(os.path.join(CLI_CACHE, entries[0]), "rb") as fh:
            data = fh.read()
        corrupt = "is corrupt" in box[label]
        if label == "chebotarev-cold":
            box["entry"] = data
            return not corrupt
        return data == box["entry"] and corrupt == (label == "chebotarev-corrupt")


WORKLOADS = {w.name: w for w in (ZetaSweep, ShapeSweep, CliBatch)}
