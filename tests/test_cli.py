"""End-to-end exercises of the batch front end, run in process."""

import csv
import hashlib
import json

import pytest

from excpoly import FieldElem, dickson, f_closed, is_permutation, make_field
from excpoly import cli
from excpoly.cli import Runner, cache_get, cache_put, run


def run_json(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


def scrub_seconds(report):
    return {
        "config": report["config"],
        "version": report["version"],
        "checks": [
            {k: v for k, v in chk.items() if k != "seconds"}
            for chk in report["checks"]
        ],
    }


# ---------------------------------------------------------------------------
# report plumbing


def test_runner_exit_codes():
    r = Runner({"dummy": 1})
    r.run("good", lambda: (True, {}))
    assert r.exit_code() == 0
    r.run("noted", lambda: (False, {"why": "informational"}), kind="record")
    assert r.checks[-1]["status"] == "recorded"
    assert r.exit_code() == 0
    r.run("bad", lambda: (False, {}))
    assert r.checks[-1]["status"] == "fail"
    assert r.exit_code() == 1


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["weil"])  # missing required --q
    assert exc.value.code == 2


def test_cache_round_trip_and_corruption(tmp_path, capsys):
    cdir = str(tmp_path / "cache")
    assert cache_get(cdir, "k" * 64) is None
    cache_put(cdir, "k" * 64, '{"x": 1}')
    assert cache_get(cdir, "k" * 64) == '{"x": 1}'
    entry_path = tmp_path / "cache" / ("k" * 64 + ".json")
    entry = json.loads(entry_path.read_text())
    entry["payload"] = '{"x": 2}'  # stale checksum now
    entry_path.write_text(json.dumps(entry))
    assert cache_get(cdir, "k" * 64) is None
    assert "corrupt" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gen


def test_gen_writes_polynomial_json(tmp_path, capsys):
    out = tmp_path / "member.json"
    code, rep, _ = run_json(capsys, [
        "gen", "--family", "char2-new", "--q", "8",
        "--alpha-index", "2", "--field", "p=2,e=2", "--out", str(out),
    ])
    assert code == 0
    chk = rep["checks"][0]
    assert chk["name"] == "gen" and chk["status"] == "recorded"
    assert chk["data"]["degree"] == 28 and chk["data"]["monic"] is True
    obj = json.loads(out.read_text())
    assert obj == f_closed(8, FieldElem(make_field(2, 2), 2)).to_json()


def test_gen_guards(capsys):
    code, rep, _ = run_json(capsys, [
        "gen", "--family", "char2-new", "--q", "4",
        "--alpha-index", "6", "--field", "p=2,e=2",
    ])
    assert code == 3
    assert rep["checks"][-1]["name"] == "guard"
    assert rep["checks"][-1]["data"]["guard"].startswith("index-range")

    code, rep, _ = run_json(capsys, [
        "gen", "--family", "char2-new", "--q", "8",
        "--alpha-index", "1", "--field", "p=2,e=2",
    ])
    assert code == 3
    assert rep["checks"][-1]["data"]["guard"].startswith("family-build")

    code, rep, _ = run_json(capsys, [
        "gen", "--family", "wibble", "--field", "p=2,e=2",
    ])
    assert code == 3
    assert rep["checks"][-1]["data"]["guard"].startswith("family-kind")

    code, rep, _ = run_json(capsys, ["gen", "--family", "power", "--field", "bananas"])
    assert code == 3
    assert rep["checks"][-1]["data"]["guard"].startswith("field-descriptor")


@pytest.mark.parametrize("argv, missing", [
    (["gen", "--family", "power", "--field", "p=2,e=2"], "d"),
    (["gen", "--family", "dickson", "--d", "5", "--field", "p=2,e=2"], "alpha"),
    (["gen", "--family", "char2-additive-twist", "--q", "8",
      "--alpha-index", "1", "--field", "p=2,e=1"], "n"),
    (["check-perm", "--family", "power", "--field", "p=2,e=2", "--extensions", "1"], "d"),
])
def test_family_without_its_parameters_is_a_build_guard(capsys, argv, missing):
    code, rep, _ = run_json(capsys, argv)
    assert code == 3
    assert rep["checks"][-1]["data"]["guard"].startswith("family-build")
    assert rep["checks"][-1]["data"]["guard"].endswith("needs " + missing)


# ---------------------------------------------------------------------------
# check-perm


def test_check_perm_csv_and_out(tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    scan = tmp_path / "scan.json"
    code, rep, _ = run_json(capsys, [
        "check-perm", "--family", "char2-new", "--q", "8",
        "--alpha-index", "2", "--field", "p=2,e=2",
        "--extensions", "1,2,3", "--csv", str(grid), "--out", str(scan),
    ])
    assert code == 0
    with open(grid, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["extension", "field_order", "bijective"]
    assert rows[1:] == [
        ["1", "4", "True"], ["2", "16", "True"], ["3", "64", "False"],
    ]
    obj = json.loads(scan.read_text())
    assert obj["exceptional_verdict"] is True
    assert [r["bijective"] for r in obj["rows"]] == [True, True, False]
    assert obj["witnesses"][0]["j"] == 3


@pytest.mark.parametrize("d", [5, 7])
def test_dickson_verdict_above_the_enumeration_field(capsys, d):
    """Over GF(2^14) the enumeration field GF(2^28) is past the size guard,
    so the verdict is the closed form alone; it matches measurement."""
    code, rep, _ = run_json(capsys, [
        "check-perm", "--family", "dickson", "--d", str(d), "--alpha-index", "1",
        "--field", "p=2,e=14", "--extensions", "1",
    ])
    assert code == 0
    base = make_field(2, 14)
    bijective, _ = is_permutation(dickson(d, FieldElem(base, 1)), base)
    data = rep["checks"][-1]["data"]
    assert bijective is (d == 7)
    assert data["exceptional_verdict"] is bijective
    assert data["rows"] == [{"bijective": bijective, "j": 1}]


def test_check_perm_guards(capsys):
    code, rep, _ = run_json(capsys, [
        "check-perm", "--family", "power", "--d", "5", "--field", "p=3,e=1",
        "--extensions", "1000000000",
    ])
    assert code == 3
    assert rep["checks"][-1]["data"]["guard"].startswith("size-guard")

    code, rep, _ = run_json(capsys, [
        "check-perm", "--family", "char2-new", "--q", "8",
        "--alpha-index", "2", "--field", "p=2,e=2", "--extensions", "20",
    ])
    assert code == 3
    assert rep["checks"][-1]["data"]["guard"].startswith("size-guard")

    code, rep, _ = run_json(capsys, [
        "check-perm", "--family", "char2-new", "--q", "8",
        "--alpha-index", "2", "--field", "p=2,e=2", "--extensions", "a,b",
    ])
    assert code == 3
    assert rep["checks"][-1]["data"]["guard"].startswith("extension-list")

    # a bad family parameter is named as such, not as a size problem
    code, rep, _ = run_json(capsys, [
        "check-perm", "--family", "char2-additive-twist", "--q", "8", "--n", "4",
        "--alpha-index", "1", "--field", "p=2,e=1", "--extensions", "1",
    ])
    assert code == 3
    assert rep["checks"][-1]["data"]["guard"] == "family-build: n must divide q+1"


# ---------------------------------------------------------------------------
# check-identities


def test_check_identities_passes_and_reports(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    argv = [
        "check-identities", "--q", "4", "--seed", "7", "--samples", "25",
        "--report", str(report_path),
    ]
    code, rep, _ = run_json(capsys, argv)
    assert code == 0
    names = [c["name"] for c in rep["checks"]]
    assert names == [
        "form-equality", "structure-facts", "product-identity", "dickson-identity",
    ]
    assert all(c["status"] == "pass" for c in rep["checks"])
    assert rep["config"]["subcommand"] == "check_identities"
    on_disk = json.loads(report_path.read_text())
    assert on_disk == rep

    code2, rep2, _ = run_json(capsys, argv)
    assert code2 == 0
    assert scrub_seconds(rep2) == scrub_seconds(rep)


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_check_identities_refuses_no_samples(capsys, samples):
    code, rep, _ = run_json(capsys, [
        "check-identities", "--q", "4", "--seed", "1", "--samples", samples])
    assert code == 3
    assert rep["checks"][-1]["data"]["guard"].startswith("identities-samples")


# ---------------------------------------------------------------------------
# weil and certify


def test_weil_subcommand(capsys):
    code, rep, _ = run_json(capsys, ["weil", "--q", "8"])
    assert code == 0
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["weil-headline"]["status"] == "pass"
    assert by_name["weil-headline"]["data"]["weil_max"] == 117
    assert by_name["weil-divisor-cases"]["status"] == "pass"

    code, rep, _ = run_json(capsys, ["weil", "--q", "16"])
    assert code == 3
    assert rep["checks"][-1]["data"]["guard"].startswith("weil-q-range")


def test_certify_subcommand(capsys):
    code, rep, _ = run_json(capsys, [
        "certify", "--q", "8", "--alpha-index", "2",
        "--field", "p=2,e=2", "--seed", "5",
    ])
    assert code == 0
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["sl2-certificate"]["status"] == "pass"
    assert by_name["sl2-certificate"]["data"]["applicable"] is True
    grid = by_name["b-action-grid"]
    assert grid["status"] == "pass" and len(grid["data"]["points"]) == 10

    code, rep, _ = run_json(capsys, [
        "certify", "--q", "8", "--alpha-index", "1",
        "--field", "p=2,e=2", "--seed", "5",
    ])
    assert code == 3
    assert rep["checks"][-1]["data"]["guard"].startswith("certificate-domain")


# ---------------------------------------------------------------------------
# zeta


def test_zeta_guards(capsys, tmp_path):
    code, rep, _ = run_json(capsys, [
        "zeta", "--q", "8", "--c-index", "2", "--cache-dir", str(tmp_path),
    ])
    assert code == 3
    assert rep["checks"][-1]["data"]["guard"].startswith("zeta-q-range")

    code, rep, _ = run_json(capsys, [
        "zeta", "--q", "4", "--c-index", "1", "--cache-dir", str(tmp_path),
    ])
    assert code == 3
    assert rep["checks"][-1]["data"]["guard"].startswith("smooth-model")


def test_zeta_served_from_seeded_cache(capsys, tmp_path, zeta_c2):
    """Seed the cache with the session fixture's result, then check the
    subcommand replays it without recounting."""
    cdir = str(tmp_path / "zc")
    argv = [
        "zeta", "--q", "4", "--c-index", "2",
        "--cache-dir", cdir, "--out", str(tmp_path / "z.json"),
    ]
    args = cli._build_parser().parse_args(argv)
    cfg = cli._config_dict(args)
    body = zeta_c2.to_json()
    assert set(body) == {"g", "base", "counts", "L", "p_rank"}
    body["c"] = {"field_e": 4, "index": 2}
    cache_put(cdir, cli._cache_key(cfg), json.dumps(body, sort_keys=True, indent=2))

    code, rep, err = run_json(capsys, argv)
    assert code == 0
    assert "served from cache" in err
    chk = rep["checks"][0]
    assert chk["name"] == "zeta" and chk["status"] == "pass"
    assert chk["data"]["p_rank"] == 6
    assert chk["data"]["counts"] == list(zeta_c2.counts)
    saved = json.loads((tmp_path / "z.json").read_text())
    assert saved["L"] == list(zeta_c2.L)


def test_zeta_cache_replays_counts(capsys, tmp_path, monkeypatch, zeta_c2):
    """A checksum-valid entry with one count changed is corrupt: the replay
    through zeta refutes it, and the recompute writes the right entry."""
    cdir = tmp_path / "zc"
    argv = ["zeta", "--q", "4", "--c-index", "2", "--cache-dir", str(cdir)]
    cfg = cli._config_dict(cli._build_parser().parse_args(argv))
    body = zeta_c2.to_json()
    body["c"] = {"field_e": 4, "index": 2}
    good = json.dumps(body, sort_keys=True, indent=2)
    cache_put(str(cdir), cli._cache_key(cfg), good)
    code, rep, err = run_json(capsys, argv)
    assert code == 0 and "served from cache" in err and "corrupt" not in err

    (entry,) = cdir.glob("*.json")
    blob = json.loads(entry.read_text())
    bad = json.loads(blob["payload"])
    bad["counts"][5] += 6
    blob["payload"] = json.dumps(bad, sort_keys=True, indent=2)
    blob["sha256"] = hashlib.sha256(blob["payload"].encode()).hexdigest()
    entry.write_text(json.dumps(blob))

    real_zeta = cli.zeta

    def zeta_from_fixture(model, g, threads=1, counts=None):
        # the full count is the session fixture's; replays run for real
        return zeta_c2 if counts is None else real_zeta(model, g, counts=counts)

    monkeypatch.setattr(cli, "zeta", zeta_from_fixture)
    code2, rep2, err2 = run_json(capsys, argv)
    assert code2 == 0 and "is corrupt" in err2 and "computed and cached" in err2
    assert scrub_seconds(rep2) == scrub_seconds(rep)
    assert json.loads(entry.read_text())["payload"] == good


def test_cache_key_is_the_math_and_the_version(capsys, tmp_path, monkeypatch):
    """--cache-dir and --threads leave the key alone; the version moves it."""
    argv = ["chebotarev", "--q", "8", "--alpha-index", "2", "--field", "p=2,e=2", "--j", "2"]
    names = []
    for sub, threads in (("a", "1"), ("b", "2"), ("a", "2")):
        code, _rep, _ = run_json(capsys, argv + ["--cache-dir", str(tmp_path / sub),
                                                 "--threads", threads])
        assert code == 0
        names.append(sorted(p.name for p in (tmp_path / sub).iterdir()))
    assert names[0] == names[1] == names[2] and len(names[0]) == 1
    cfg = cli._config_dict(cli._build_parser().parse_args(argv))
    key = cli._cache_key(cfg)
    assert cli._cache_key(dict(cfg, cache_dir="elsewhere", threads=4)) == key
    monkeypatch.setattr(cli, "__version__", "0.0.0")
    assert cli._cache_key(cfg) != key


# ---------------------------------------------------------------------------
# chebotarev


def test_chebotarev_runs_and_caches(capsys, tmp_path):
    cdir = str(tmp_path / "cc")
    out = tmp_path / "dist.json"
    csv_path = tmp_path / "dist.csv"
    argv = [
        "chebotarev", "--q", "8", "--alpha-index", "2", "--field", "p=2,e=2",
        "--j", "2", "--cache-dir", cdir,
        "--out", str(out), "--csv", str(csv_path),
    ]
    code, rep, _ = run_json(capsys, argv)
    assert code == 0
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["shape-inclusion-j2"]["status"] == "pass"
    assert by_name["shape-inclusion-j2"]["data"]["foreign_shapes"] == []
    assert by_name["tv-distance-j2"]["status"] == "recorded"
    assert by_name["branch-points-j2"]["status"] == "pass"
    assert by_name["branch-points-j2"]["data"]["finite_branch_t"] == [0]
    first_payload = out.read_bytes()

    code2, rep2, _ = run_json(capsys, argv)
    assert code2 == 0
    assert out.read_bytes() == first_payload
    assert scrub_seconds(rep2) == scrub_seconds(rep)

    # corrupting the single cache entry forces a recompute with a warning
    entries = list((tmp_path / "cc").glob("*.json"))
    assert len(entries) == 1
    blob = json.loads(entries[0].read_text())
    blob["payload"] = blob["payload"].replace("1", "7", 1)
    entries[0].write_text(json.dumps(blob))
    code3, _rep3, err3 = run_json(capsys, argv)
    assert code3 == 0 and "corrupt" in err3
    assert out.read_bytes() == first_payload

    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["type", "weight"]
    assert sum(float(eval_fraction(w)) for _t, w in rows[1:]) == pytest.approx(1.0)


@pytest.mark.parametrize("tamper", ["weight", "degree", "json", "zero-weight", "not-a-string"])
def test_chebotarev_cache_rejects_checksum_valid_bad_payloads(capsys, tmp_path, tamper):
    """An entry whose checksum matches but whose payload is no valid
    distribution, or no string at all, is reported as corrupt, recomputed
    and overwritten."""
    cdir = tmp_path / "cc"
    argv = ["chebotarev", "--q", "8", "--alpha-index", "2", "--field", "p=2,e=2",
            "--j", "2", "--cache-dir", str(cdir)]
    code, rep, _ = run_json(capsys, argv)
    assert code == 0
    (entry,) = cdir.glob("*.json")
    good = entry.read_text()
    blob = json.loads(good)
    payload = json.loads(blob["payload"])
    if tamper == "weight":
        payload["entries"][0]["weight"] = "1/2"
    elif tamper == "zero-weight":
        payload["entries"][0]["weight"] = "1/0"
    elif tamper == "degree":
        payload["degree"] += 1
    text = "{not json" if tamper == "json" else json.dumps(payload, sort_keys=True, indent=2)
    blob["payload"] = payload if tamper == "not-a-string" else text
    blob["sha256"] = hashlib.sha256(text.encode()).hexdigest()
    entry.write_text(json.dumps(blob))
    code2, rep2, err = run_json(capsys, argv)
    assert code2 == 0 and "is corrupt" in err
    assert scrub_seconds(rep2) == scrub_seconds(rep)
    assert json.loads(entry.read_text()) == json.loads(good)


def eval_fraction(text):
    if "/" in text:
        num, den = text.split("/")
        return float(num) / float(den)
    return float(text)


def test_chebotarev_guards(capsys, tmp_path):
    base_argv = ["chebotarev", "--alpha-index", "2", "--field", "p=2,e=2",
                 "--cache-dir", str(tmp_path)]
    code, rep, _ = run_json(capsys, base_argv + ["--q", "5", "--j", "2"])
    assert code == 3
    assert rep["checks"][-1]["data"]["guard"].startswith("chebotarev-q-range")

    code, rep, _ = run_json(capsys, base_argv + ["--q", "8", "--j", "11"])
    assert code == 3
    assert rep["checks"][-1]["data"]["guard"].startswith("chebotarev-size")

    # GF(4^9) is above the log-table limit; one sampled fiber keeps it quick
    code, rep, _ = run_json(capsys, base_argv + [
        "--q", "8", "--j", "9", "--mode", "sampled", "--n", "1", "--seed", "1"])
    assert code == 0
    assert [c["status"] for c in rep["checks"]] == ["pass", "recorded", "pass"]

    # GF(4^0) and GF(4^14) = GF(2^28) are no fields the library builds
    for j in ("0", "14"):
        code, rep, _ = run_json(capsys, base_argv + ["--q", "8", "--j", j])
        assert code == 3
        assert rep["checks"][-1]["data"]["guard"].startswith("chebotarev-j-range")

    code, rep, _ = run_json(
        capsys, base_argv + ["--q", "8", "--j", "2", "--mode", "sampled", "--n", "10"])
    assert code == 3
    assert rep["checks"][-1]["data"]["guard"].startswith("seed-required")

    # the one fiber drawn is t = 0, the branch point: nothing unramified to
    # compare, on a cold cache and on the warm one the first run wrote
    for _ in ("cold", "warm"):
        code, rep, _ = run_json(capsys, base_argv + [
            "--q", "8", "--j", "1", "--mode", "sampled", "--n", "1", "--seed", "2"])
        assert code == 3
        assert rep["checks"][-1]["data"]["guard"].startswith("chebotarev-ramified")


# ---------------------------------------------------------------------------
# verify-all


def test_verify_all_q8(capsys, tmp_path):
    code, rep, _ = run_json(capsys, [
        "verify-all", "--q", "8", "--seed", "11", "--cache-dir", str(tmp_path),
    ])
    assert code == 0
    by_name = {c["name"]: c for c in rep["checks"]}
    for name in [
        "form-equality", "structure-facts", "product-identity",
        "dickson-identity", "perm-grid", "sl2-certificate", "b-action-grid",
        "smoothness", "canonicalization", "weil-contradiction",
    ]:
        assert by_name[name]["status"] == "pass", name
    for j in (2, 4, 7):
        assert by_name["shape-inclusion-j%d" % j]["status"] == "pass"
        assert by_name["tv-distance-j%d" % j]["status"] == "recorded"
        assert by_name["branch-points-j%d" % j]["status"] == "pass"
    tv7 = by_name["tv-distance-j7"]["data"]
    assert tv7["tv_float"] <= 0.05


def test_verify_all_q_guard(capsys):
    code, rep, _ = run_json(capsys, ["verify-all", "--q", "16", "--seed", "1"])
    assert code == 3
    assert rep["checks"][-1]["data"]["guard"].startswith("verify-all-q-range")


# ---------------------------------------------------------------------------
# paths that cannot be written (a regular file used as the parent directory;
# permission bits would not stop a root user)


CHAR2 = ["--q", "8", "--alpha-index", "2", "--field", "p=2,e=2"]


@pytest.fixture
def afile(tmp_path):
    path = tmp_path / "afile"
    path.write_text("not a directory\n")
    return path


def test_unwritable_cache_dir_warns_and_keeps_the_report(capsys, afile):
    argv = ["chebotarev"] + CHAR2 + ["--j", "2", "--cache-dir", str(afile)]
    code, rep, err = run_json(capsys, argv)
    assert code == 0 and "not stored" in err
    assert [c["name"] for c in rep["checks"]] == [
        "shape-inclusion-j2", "tv-distance-j2", "branch-points-j2"]
    assert afile.read_text() == "not a directory\n"


def test_unwritable_cache_dir_under_zeta(capsys, monkeypatch, afile, zeta_c2):
    monkeypatch.setattr(cli, "zeta", lambda model, g, threads=1, counts=None: zeta_c2)
    argv = ["zeta", "--q", "4", "--c-index", "2", "--cache-dir", str(afile)]
    code, rep, err = run_json(capsys, argv)
    assert code == 0 and "not stored" in err and "computed and cached" not in err
    assert rep["checks"][0]["name"] == "zeta" and rep["checks"][0]["status"] == "pass"


@pytest.mark.parametrize("argv, last", [
    (["gen", "--family", "char2-new"] + CHAR2 + ["--out"], None),
    (["check-perm", "--family", "char2-new"] + CHAR2 + ["--extensions", "1,2", "--out"],
     "perm-grid"),
    (["check-perm", "--family", "char2-new"] + CHAR2 + ["--extensions", "1,2", "--csv"],
     "perm-grid"),
    (["chebotarev"] + CHAR2 + ["--j", "2", "--csv"], "branch-points-j2"),
    (["weil", "--q", "8", "--report"], "weil-divisor-cases"),
], ids=["gen-out", "check-perm-out", "check-perm-csv", "chebotarev-csv", "weil-report"])
def test_unwritable_output_path_is_a_guard(capsys, monkeypatch, tmp_path, afile, argv, last):
    monkeypatch.setenv("EXCPOLY_CACHE", str(tmp_path / "cache"))
    code, rep, err = run_json(capsys, argv + [str(afile / "x")])
    assert code == 3 and "Traceback" not in err
    guard = rep["checks"][-1]
    assert guard["name"] == "guard" and guard["data"]["guard"].startswith("output-path")
    assert str(afile / "x") in guard["data"]["guard"]
    names = [c["name"] for c in rep["checks"][:-1]]
    assert (names[-1] if names else None) == last
