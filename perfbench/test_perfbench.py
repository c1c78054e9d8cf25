"""Tests of the benchmark itself, from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import copy
import os
import shutil
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer, roots_time, self_times  # noqa: E402


def test_off_by_one_count_is_a_failure():
    expected = copy.deepcopy(wl.load_expected("zeta"))
    work = wl.ZetaSweep(1, expected)
    work.ms = (1, 2)
    work.setup()
    control = wl.Tally()
    work.run_pass(control)
    assert (control.attempted, control.failed) == (3, 0), control.errors

    expected["by_c"][str(work.c)]["counts"][1] += 1
    tally = wl.Tally()
    work.run_pass(tally)
    # the wrong m = 2 count fails, and so does the zeta replay fed with it
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.errors[0].startswith("count-m2: got ")


def test_wrong_cli_golden_is_a_failure(monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = copy.deepcopy(wl.load_expected("cli"))
    work = wl.CliBatch(1, expected)
    work.commands = [c for c in work.commands if c[0] in ("weil-8", "gen", "weil-4-guard")]
    work.setup()
    control = wl.Tally()
    work.run_pass(control)
    assert (control.attempted, control.failed) == (3, 0), control.errors

    work.golden["weil-4-guard"]["exit"] = 0
    tally = wl.Tally()
    work.run_pass(tally)
    assert (tally.attempted, tally.failed) == (3, 1)
    assert not os.path.exists(wl.CLI_CACHE)


def test_raising_verdict_is_a_failure():
    tally = wl.Tally()
    tally.verdict("boom", lambda: 1 // 0)
    tally.verdict("fine", lambda: (1, 1))
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "ZeroDivisionError" in tally.errors[0]


def test_sampled_expectation_is_a_distribution():
    work = wl.ShapeSweep(5)
    assert sum(Fraction(w) for _shape, w in work.want_sampled) == 1


def test_tracer_wraps_every_binding_and_restores():
    import excpoly
    import excpoly.monodromy
    import excpoly.poly
    orig_factor, orig_gcd = excpoly.poly.factor, excpoly.poly.UniPoly.gcd
    g16 = excpoly.make_field(2, 4)
    f = excpoly.UniPoly(g16, [3, 0, 1, 5, 1])
    with Tracer() as tracer:
        assert excpoly.poly.factor is excpoly.monodromy.factor is excpoly.factor
        assert excpoly.poly.factor is not orig_factor
        with tracer.job("one"):
            excpoly.monodromy.factor(f)
        excpoly.poly.factor(f)
    assert excpoly.poly.factor is orig_factor and excpoly.monodromy.factor is orig_factor
    assert excpoly.poly.UniPoly.gcd is orig_gcd
    roots = [s for s in tracer.spans if s[1] is None]
    assert [s[3] for s in roots] == ["poly.factor", "poly.factor"]
    assert [s[2] for s in roots] == [0, None] and tracer.jobs == ["one"]
    inner = [s for s in tracer.spans if s[3] == "poly.gcd"]
    assert inner and all(s[1] is not None for s in inner)


def test_self_time_and_roots():
    spans = [[0, None, 0, "a", 0.0, 10.0, None],
             [1, 0, 0, "b", 2.0, 5.0, None],
             [2, 1, 0, "c", 3.0, 4.0, None],
             [3, None, 1, "d", 11.0, 12.0, None]]
    assert self_times(spans) == [7.0, 2.0, 1.0, 1.0]
    assert roots_time(spans) == 11.0
    assert self_times(spans[3:]) == [1.0] and roots_time(spans[1:3]) == 3.0


def test_pass_metrics_from_spans():
    spans = [
        [0, None, 0, "curves.count_points", 0.0, 4.0, {"m": 5, "values": 1 << 20}],
        [1, 0, 0, "ff.make_field", 1.0, 1.5, None],
        [2, None, 1, "families.f_closed", 5.0, 6.0, None],
        [3, None, 1, "curves.verify_b_action", 6.0, 7.0, None],
        [4, None, 2, "cli.cache_get", 7.0, 7.5, {"cache": "hit"}],
        [5, None, 2, "cli.cache_get", 7.5, 8.0, {"cache": "corrupt"}],
    ]
    out = layers.pass_metrics(spans, 9.0, 0.001)
    assert out["curves.count_points.m5.self_s"] == 3.5
    assert out["curves.count_points.m4.self_s"] == 0.0
    assert out["curves.count_points.values"] == 1 << 20
    assert out["ff.make_field.calls"] == 1 and out["families.calls"] == 1
    assert out["curves.certificates.self_s"] == 1.0
    assert (out["cli.cache.hits"], out["cli.cache.corrupt"], out["cli.cache.misses"]) == (1, 1, 0)
    assert out["cli.cache.hit_ratio"] == 0.5
    assert out["trace.unaccounted_s"] == 2.0
    assert abs(out["trace.overhead_s"] - 0.006) < 1e-12
    # every per-layer metric of BENCHMARK.json but the timed probes
    spec = layers.metric_spec("per_layer")
    probes = {name for name, unit in spec if unit in ("ns", "us", "ms")}
    assert set(out) == {name for name, _ in spec} - probes


def test_run_refuses_a_tree_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
