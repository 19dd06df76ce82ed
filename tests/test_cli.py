import json

import jsonschema
import pytest

from fcontact import geom
from fcontact.cli import CHECK_NAMES, ConfigError, RunConfig, _resolve_entry, main, run
from fcontact.report import REPORT_SCHEMA, emit_report, parse_report


@pytest.fixture(scope="module")
def deformed_report():
    config = RunConfig(manifold_key="flat-contact-r3", deform_a=2.0, points=6, samples=120)
    return run(config)


def test_run_deformed_flat(deformed_report):
    report = deformed_report
    nf = report.fits["nullity"]
    assert nf["kappa"] == pytest.approx(0.75, abs=1e-6)
    assert nf["mu"] == pytest.approx(1.0, abs=1e-6)
    gating = [c for c in report.checks if c.gating]
    assert gating and all(c.passed for c in gating)
    assert report.passed


def test_run_s_structure_verdicts():
    config = RunConfig(manifold_key="s-space-form:2,2", points=5, samples=100)
    report = run(config)
    assert report.verdicts["is_s_manifold"] is True
    assert report.fits["nullity"]["mu_determined"] is False
    assert report.fits["gssf"] is not None
    assert report.passed
    data = json.loads(emit_report(report, "json"))
    jsonschema.validate(data, REPORT_SCHEMA)
    for name in ("gssf", "trans_s"):
        assert "condition" in REPORT_SCHEMA["properties"]["fits"]["properties"][name]["properties"]
        assert 1.0 <= data["fits"][name]["condition"] < 1e3, name


def test_unknown_manifold_raises():
    from fcontact import UnknownManifoldError

    with pytest.raises(UnknownManifoldError):
        run(RunConfig(manifold_key="nope"))


def test_invalid_config_rejected():
    with pytest.raises(ConfigError):
        run(RunConfig(manifold_key="flat-contact-r3", points=0))
    with pytest.raises(ConfigError):
        run(RunConfig(manifold_key="flat-contact-r3", tolerance=-1.0))
    with pytest.raises(ConfigError):
        run(RunConfig(manifold_key="flat-contact-r3", checks=["bogus"]))
    for a in (float("inf"), float("nan")):
        with pytest.raises(ConfigError):
            run(RunConfig(manifold_key="flat-contact-r3", deform_a=a))
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"manifold_key": "flat-contact-r3", "what": 1})
    # wrong types, a negative seed and an empty check list never reach a run
    for bad in ({"seed": -1}, {"points": "3"}, {"points": 2.5}, {"points": True},
                {"samples": "200"}, {"seed": 1.0}, {"checks": []}, {"checks": "nullity"},
                {"tolerance": float("inf")}, {"tolerance": "1e-6"}):
        with pytest.raises(ConfigError):
            run(RunConfig.from_dict({"manifold_key": "flat-contact-r3", **bad}))


def test_json_round_trip(deformed_report):
    blob = emit_report(deformed_report, "json")
    parsed = parse_report(blob)
    assert parsed == deformed_report


def test_json_validates_against_schema(deformed_report):
    data = json.loads(emit_report(deformed_report, "json"))
    jsonschema.validate(data, REPORT_SCHEMA)


def test_text_format_has_pass_fail_lines(deformed_report):
    text = emit_report(deformed_report, "text").decode()
    for check in deformed_report.checks:
        line = next(l for l in text.splitlines() if l.strip().startswith(check.name))
        assert ("PASS" in line) or ("FAIL" in line)


def test_unknown_format_rejected(deformed_report):
    with pytest.raises(ValueError):
        emit_report(deformed_report, "yaml")


def test_pass_flags_recomputable(deformed_report):
    # checks whose pass flag is purely residual-vs-tolerance
    pure = {"contact", "h-properties", "spectrum", "r-xi", "rf", "ricci",
            "curvature-model", "splitting", "normality", "gssf", "trans-s"}
    data = json.loads(emit_report(deformed_report, "json"))
    for c in data["checks"]:
        if c["name"] in pure and not c["note"].startswith(("skipped", "error")):
            assert (c["residual"] <= c["tolerance"]) == c["passed"], c


def test_determinism_identical_seeds(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["check", "--manifold", "s-space-form:1,1", "--points", "4", "--samples", "80", "--seed", "42"]
    assert main(args + ["--json", str(out1)]) == 0
    assert main(args + ["--json", str(out2)]) == 0
    a, b = json.loads(out1.read_text()), json.loads(out2.read_text())
    a.pop("wall_time"), b.pop("wall_time")
    assert a == b


def test_different_seeds_still_pass(tmp_path):
    for seed in (1, 2):
        code = main(
            ["check", "--manifold", "flat-contact-r3", "--points", "4", "--samples", "80",
             "--seed", str(seed), "--json", str(tmp_path / f"s{seed}.json")]
        )
        assert code == 0


def test_exit_codes(tmp_path, capsys):
    assert main(["check", "--manifold", "nope"]) == 2
    capsys.readouterr()
    assert main(["check", "--manifold", "flat-contact-r3", "--a", "inf"]) == 2
    assert "finite" in capsys.readouterr().err
    assert main(["check", "--manifold", "flat-contact-r3", "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err
    path = tmp_path / "bad.json"
    for bad in ({"points": "3"}, {"points": 2.5}, {"checks": []}):
        path.write_text(json.dumps({"manifold_key": "flat-contact-r3", **bad}))
        assert main(["check", "--config", str(path)]) == 2
        assert "error" in capsys.readouterr().err
    for text in ('["flat-contact-r3"]', "{manifold_key"):
        path.write_text(text)
        assert main(["check", "--config", str(path)]) == 2
        assert "error" in capsys.readouterr().err
    # an unachievable tolerance turns residuals into failures -> exit 1
    code = main(
        ["check", "--manifold", "flat-contact-r3", "--points", "3", "--samples", "60",
         "--tol", "1e-18"]
    )
    assert code == 1
    capsys.readouterr()
    assert main(["catalog", "list"]) == 0


def test_cli_subcommands_run(capsys):
    assert main(["fit-nullity", "--manifold", "flat-contact-r3", "--a", "2",
                 "--points", "4", "--samples", "80"]) == 0
    out = capsys.readouterr().out
    assert "kappa=0.75" in out
    assert main(["fit-gssf", "--manifold", "s-space-form:2,2", "--points", "3",
                 "--samples", "90"]) == 0
    capsys.readouterr()
    assert main(["fit-trans-s", "--manifold", "s-space-form:1,1", "--points", "4",
                 "--samples", "80"]) == 0
    capsys.readouterr()
    assert main(["deform", "--manifold", "flat-contact-r3", "--a", "0.5",
                 "--points", "4", "--samples", "80"]) == 0
    out = capsys.readouterr().out
    assert "predicted=5" in out


def test_deform_requires_a(capsys):
    assert main(["deform", "--manifold", "flat-contact-r3"]) == 2
    capsys.readouterr()


def test_config_file_input(tmp_path, capsys):
    cfg = {
        "manifold_key": "flat-contact-r3",
        "deform_a": 2.0,
        "points": 4,
        "samples": 80,
        "seed": 7,
        "checks": ["axioms", "contact", "nullity"],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["check", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "nullity" in out and "rf" not in out


def test_convention_override_fails_wrong_convention():
    config = RunConfig(manifold_key="flat-contact-r3", points=3, samples=60,
                       convention="plain", checks=["contact"])
    report = run(config)
    assert not report.passed


def test_gssf_requested_on_wrong_s_is_config_error():
    with pytest.raises(ConfigError):
        run(RunConfig(manifold_key="flat-contact-r3", points=3, checks=["gssf"]))


def test_deformation_constant_passed_through_exactly():
    entry = _resolve_entry(RunConfig(manifold_key="flat-contact-r3", deform_a=0.1234567))
    assert entry.key == "flat-contact-r3:deformed:0.1234567"
    assert float(entry.key.rsplit(":", 1)[1]) == 0.1234567
    # constants that ":g" already writes exactly keep their short keys
    for a, suffix in ((2.0, "2"), (0.5, "0.5"), (1e-7, "1e-07")):
        assert _resolve_entry(RunConfig(manifold_key="flat-contact-r3", deform_a=a)).key.endswith(":" + suffix)


def test_run_builds_one_frame_per_point(monkeypatch):
    built = []
    init = geom.PointFrame.__init__

    def counting_init(frame, model, point):
        init(frame, model, point)
        built.append(frame)

    monkeypatch.setattr(geom.PointFrame, "__init__", counting_init)
    report = run(RunConfig("s-space-form:2,2", points=5, samples=50))
    assert report.passed
    assert len(built) == 5


@pytest.mark.parametrize("key", ["s-space-form:2,2", "flat-contact-r3:deformed:0.5"])
def test_check_subset_equals_filtered_full_run(key):
    def run_checks(checks):
        return run(RunConfig(key, points=3, samples=40, seed=3, checks=checks))

    full = run_checks("all")
    names = [n for n in CHECK_NAMES if n != "gssf" or full.manifold["s"] == 2]
    assert [c.name for c in full.checks] == names
    for name in names:
        single = run_checks([name])
        assert single.checks == [c for c in full.checks if c.name == name], name
        assert single.fits["nullity"] == full.fits["nullity"], name
        assert single.spectrum == full.spectrum, name
        assert single.h_sectional == full.h_sectional, name
        assert single.verdicts == full.verdicts, name
