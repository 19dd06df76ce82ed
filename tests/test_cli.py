import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from fcontact import UnknownManifoldError, cli, d_deform, geom, nullity
from fcontact.catalog import catalog_get
from fcontact.cli import CHECK_NAMES, CHECKS, ConfigError, RunConfig, _config_from_args, _parser, main, run
from fcontact.report import REPORT_SCHEMA, emit_report

from .conftest import section_defect


@pytest.fixture(scope="module")
def deformed_report():
    config = RunConfig(manifold_key="flat-contact-r3:deformed:2", points=6, samples=120)
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
    with pytest.raises(UnknownManifoldError):
        run(RunConfig(manifold_key="nope"))


def _no_sampling(*args, **kwargs):
    raise AssertionError("an invalid config reached point sampling")


def test_invalid_config_rejected(monkeypatch):
    # sizes beyond the bounds must be rejected before anything is allocated
    monkeypatch.setattr("fcontact.cli.sample_points", _no_sampling)
    with pytest.raises(ConfigError):
        run(RunConfig(manifold_key="flat-contact-r3", points=0))
    with pytest.raises(ConfigError):
        run(RunConfig(manifold_key="flat-contact-r3", tolerance=-1.0))
    with pytest.raises(ConfigError):
        run(RunConfig(manifold_key="flat-contact-r3", checks=["bogus"]))
    for a in ("inf", "nan", "1e300", "1e-300"):
        with pytest.raises(UnknownManifoldError):
            run(RunConfig(manifold_key=f"flat-contact-r3:deformed:{a}"))
    # a key above the largest dimension is rejected before its model is built
    monkeypatch.setattr("fcontact.catalog.build_s_space_form", _no_sampling)
    for key in ("s-space-form:10,10", "s-space-form:4,2", "s-space-form:1,8:deformed:2"):
        with pytest.raises(UnknownManifoldError, match="above the largest"):
            run(RunConfig(manifold_key=key))
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"manifold_key": "flat-contact-r3", "what": 1})
    # wrong types, a negative seed and an empty check list never reach a run
    for bad in ({"seed": -1}, {"points": "3"}, {"points": 2.5}, {"points": True},
                {"samples": "200"}, {"seed": 1.0}, {"checks": []}, {"checks": "nullity"},
                {"tolerance": float("inf")}, {"tolerance": "1e-6"},
                {"points": 1001}, {"points": 10**11}, {"samples": 1_000_001}, {"samples": 10**11},
                {"output_path": 5}, {"output_path": ""}):
        with pytest.raises(ConfigError):
            run(RunConfig.from_dict({"manifold_key": "flat-contact-r3", **bad}))


def test_json_round_trip(deformed_report):
    assert json.loads(emit_report(deformed_report, "json")) == deformed_report.to_dict()


def test_json_validates_against_schema(deformed_report):
    data = json.loads(emit_report(deformed_report, "json"))
    jsonschema.validate(data, REPORT_SCHEMA)


def test_every_check_reports_its_wall_time(deformed_report):
    data = json.loads(emit_report(deformed_report, "json"))
    jsonschema.validate(data, REPORT_SCHEMA)
    assert [c["name"] for c in data["checks"]] == CHECK_NAMES
    for c in data["checks"]:  # skipped checks too
        assert isinstance(c["wall_time"], float) and c["wall_time"] >= 0.0, c
    assert sum(c["wall_time"] for c in data["checks"]) <= data["wall_time"]
    # required on every check, and never negative
    del data["checks"][0]["wall_time"]
    with pytest.raises(jsonschema.ValidationError, match="wall_time"):
        jsonschema.validate(data, REPORT_SCHEMA)
    data["checks"][0]["wall_time"] = -1.0
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(data, REPORT_SCHEMA)


def test_per_check_wall_time_stays_out_of_the_text(deformed_report):
    text = emit_report(deformed_report, "text").decode()
    timed = dataclasses.replace(deformed_report, checks=[dataclasses.replace(c, wall_time=123.456)
                                                        for c in deformed_report.checks])
    assert emit_report(timed, "text").decode() == text
    assert "123.456" not in text


def test_schema_pins_the_manifold_keys(deformed_report):
    data = json.loads(emit_report(deformed_report, "json"))
    assert sorted(data["manifold"]) == ["dim", "key", "label", "n", "s"]
    data["manifold"]["convention"] = "half"
    with pytest.raises(jsonschema.ValidationError, match="convention"):
        jsonschema.validate(data, REPORT_SCHEMA)


def test_text_format_has_pass_fail_lines(deformed_report):
    text = emit_report(deformed_report, "text").decode()
    for check in deformed_report.checks:
        line = next(l for l in text.splitlines() if l.strip().startswith(check.name))
        assert ("SKIP" in line) if check.residual is None else ("PASS" in line) or ("FAIL" in line)


def test_unknown_format_rejected(deformed_report):
    with pytest.raises(ValueError):
        emit_report(deformed_report, "yaml")


def test_pass_flags_recomputable(deformed_report):
    # checks whose pass flag is purely residual-vs-tolerance; a skipped or
    # errored check has a null residual and has not passed
    pure = {"contact", "h-properties", "spectrum", "r-xi", "rf", "ricci",
            "curvature-model", "normality", "gssf", "trans-s"}
    data = json.loads(emit_report(deformed_report, "json"))
    assert any(c["note"].startswith("skipped") for c in data["checks"])
    for c in data["checks"]:
        if c["name"] in pure:
            assert (c["residual"] is not None and c["residual"] <= c["tolerance"]) == c["passed"], c


def test_determinism_identical_seeds(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["check", "--manifold", "s-space-form:1,1", "--points", "4", "--samples", "80", "--seed", "42"]
    assert main(args + ["--json", str(out1)]) == 0
    assert main(args + ["--json", str(out2)]) == 0
    a, b = json.loads(out1.read_text()), json.loads(out2.read_text())
    for report in (a, b):
        report.pop("wall_time")
        for check in report["checks"]:
            check.pop("wall_time")
    assert a == b


def test_report_file_is_replaced_whole(tmp_path, capsys):
    """A report written over a longer old file leaves no trailing bytes; devices are not cut."""
    path = tmp_path / "r.json"
    path.write_bytes(b"x" * 100_000)
    args = ["check", "--manifold", "flat-contact-r3", "--points", "3", "--samples", "60"]
    assert main(args + ["--json", str(path)]) == 0
    assert main(args + ["--json", "/dev/null"]) == 0
    capsys.readouterr()
    json.loads(path.read_bytes())  # any byte of the old file left over is extra data


def test_bad_deformation_key_reports_the_range(capsys):
    assert main(["check", "--manifold", "flat-contact-r3:deformed:1e300"]) == 2
    err = capsys.readouterr().err
    assert "flat-contact-r3:deformed:1e300" in err
    assert "[1e-10, 1e+10]" in err and "1e+300" in err


def test_different_seeds_still_pass(tmp_path):
    for seed in (1, 2):
        code = main(
            ["check", "--manifold", "flat-contact-r3", "--points", "4", "--samples", "80",
             "--seed", str(seed), "--json", str(tmp_path / f"s{seed}.json")]
        )
        assert code == 0


def test_exit_codes(tmp_path, capsys, monkeypatch):
    assert main(["check", "--manifold", "nope"]) == 2
    capsys.readouterr()
    for a in ("inf", "1e300"):
        assert main(["check", "--manifold", f"flat-contact-r3:deformed:{a}"]) == 2
        assert "finite" in capsys.readouterr().err
    assert main(["check", "--manifold", "s-space-form:10,10"]) == 2
    assert "above the largest" in capsys.readouterr().err
    with monkeypatch.context() as m:
        m.setattr("fcontact.cli.sample_points", _no_sampling)
        for sizes in (["--points", "100000000000"], ["--samples", "100000000000", "--checks", "axioms"]):
            assert main(["check", "--manifold", "flat-contact-r3", *sizes]) == 2
            assert sizes[0][2:] in capsys.readouterr().err
        assert main(["check", "--manifold", "flat-contact-r3", "--json", ""]) == 2
        assert "output_path" in capsys.readouterr().err
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"manifold_key": "flat-contact-r3", "output_path": 5}))
        assert main(["check", "--config", str(path)]) == 2
        assert "output_path" in capsys.readouterr().err
    assert main(["check", "--manifold", "flat-contact-r3", "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err
    path = tmp_path / "bad.json"
    for bad in ({"points": "3"}, {"points": 2.5}, {"checks": []}):
        path.write_text(json.dumps({"manifold_key": "flat-contact-r3", **bad}))
        assert main(["check", "--config", str(path)]) == 2
        assert "error" in capsys.readouterr().err
    path.write_text(json.dumps({"manifold_key": "flat-contact-r3", "points": 3}))
    assert main(["check", "--config", str(path), "--points", "7", "--json", str(tmp_path / "r.json")]) == 2
    assert "--config takes no other flags" in capsys.readouterr().err
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


@pytest.mark.parametrize("key", ["flat-contact-r3", "s-space-form:1,1"])
def test_nan_killing_residual_fails(monkeypatch, key):
    monkeypatch.setattr("fcontact.structure.killing_check", lambda *args: float("nan"))
    (record,) = run(RunConfig(key, points=3, samples=20, checks=["killing"])).checks
    assert math.isnan(record.residual)
    assert not record.passed and record.gating


def test_cli_subcommands_run(capsys):
    # what the removed subcommands ran, spelled as check on a key
    assert main(["check", "--checks", "nullity,spectrum,r-xi", "--manifold", "flat-contact-r3:deformed:2",
                 "--points", "4", "--samples", "80"]) == 0
    out = capsys.readouterr().out
    assert "kappa=0.75" in out
    assert main(["check", "--checks", "gssf", "--manifold", "s-space-form:2,2", "--points", "3",
                 "--samples", "90"]) == 0
    capsys.readouterr()
    assert main(["check", "--checks", "trans-s", "--manifold", "s-space-form:1,1", "--points", "4",
                 "--samples", "80"]) == 0
    capsys.readouterr()
    assert main(["check", "--manifold", "flat-contact-r3:deformed:0.5", "--points", "4", "--samples", "80"]) == 0
    out = capsys.readouterr().out
    assert "predicted=5" in out


def test_help_lists_check_and_catalog(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{check,catalog}" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["fit-nullity", "--manifold", "flat-contact-r3"],
    ["fit-gssf", "--manifold", "s-space-form:2,2"],
    ["fit-trans-s", "--manifold", "s-space-form:1,1"],
    ["deform", "--manifold", "flat-contact-r3"],
    ["check", "--manifold", "flat-contact-r3", "--a", "2"],
    ["check", "--manifold", "flat-contact-r3", "--convention", "plain"],
])
def test_removed_cli_names_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    capsys.readouterr()


def test_removed_config_keys_exit_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    for key, value in (("deform_a", 2.0), ("convention", "plain")):
        path.write_text(json.dumps({"manifold_key": "flat-contact-r3", key: value}))
        assert main(["check", "--config", str(path)]) == 2
        assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["flat-contact-r3", "s-space-form:2,2:deformed:0.5"])
def test_run_config_holds_the_only_defaults(key):
    assert _config_from_args(_parser().parse_args(["check", "--manifold", key])) == RunConfig(key)
    given = ["--points", "3", "--samples", "7", "--seed", "5", "--tol", "1e-4", "--checks", "H,rf", "--json", "r.json"]
    assert _config_from_args(_parser().parse_args(["check", "--manifold", key, *given])) == RunConfig(
        key, seed=5, points=3, samples=7, tolerance=1e-4, checks=["H", "rf"], output_path="r.json")


def test_config_file_input(tmp_path, capsys):
    cfg = {
        "manifold_key": "flat-contact-r3:deformed:2",
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


def test_gssf_on_wrong_s_is_skipped(capsys):
    assert main(["check", "--manifold", "flat-contact-r3", "--points", "3", "--samples", "30", "--checks", "gssf"]) == 0
    (line,) = [l for l in capsys.readouterr().out.splitlines() if l.strip().startswith("gssf")]
    assert "skipped: the seven-function ansatz is defined for s = 2" in line
    # a check that never ran prints SKIP and no residual
    assert line.split()[1:4] == ["tol", "1e-06", "SKIP"] and "PASS" not in line
    (record,) = run(RunConfig("flat-contact-r3", points=3, samples=30, checks=["gssf"])).checks
    # the record keeps its row's gating: gssf is a diagnostic
    assert record.note.startswith("skipped:") and not record.passed and not record.gating
    assert record.residual is None


def test_a_skipped_gating_row_keeps_its_gating_and_passes_the_run():
    # ricci gates wherever it runs, and does not run on a kappa = 1 key
    report = run(RunConfig("s-space-form:2,2", points=3, samples=30))
    ricci = {c.name: c for c in report.checks}["ricci"]
    assert ricci.note == "skipped: the Ricci model requires kappa < 1"
    assert ricci.residual is None and not ricci.passed and ricci.gating
    assert report.passed
    (line,) = [l for l in emit_report(report, "text").decode().splitlines() if l.split()[0] == "ricci"]
    assert line.split()[1:4] == ["tol", "1e-06", "SKIP"] and "[diagnostic]" not in line


def test_a_nan_residual_fails_the_run(monkeypatch, tmp_path, capsys):
    # JSON writes NaN as null, as it writes a skip, but only a skip leaves the run passing
    monkeypatch.setattr("fcontact.structure.killing_check", lambda *args: float("nan"))
    path = tmp_path / "r.json"
    assert main(["check", "--manifold", "s-space-form:1,1", "--points", "3", "--samples", "30",
                 "--json", str(path)]) == 1
    capsys.readouterr()
    killing = {c["name"]: c for c in json.loads(path.read_text())["checks"]}["killing"]
    assert killing["residual"] is None and not killing["passed"] and killing["gating"]


def test_deformation_constant_passed_through_exactly():
    key = "flat-contact-r3:deformed:0.1234567"
    report = run(RunConfig(key, points=2, samples=20, checks=["axioms"]))
    assert report.manifold["key"] == report.manifold["label"] == key
    # the label is written back from the float, exactly; constants that ":g"
    # already writes exactly keep their short form
    base = catalog_get("flat-contact-r3").model
    for a, suffix in ((0.1234567, "0.1234567"), (0.1 + 0.2, "0.30000000000000004"),
                      (2.0, "2"), (0.5, "0.5"), (1e-7, "1e-07")):
        label = d_deform(base, a).label
        assert label == f"flat-contact-r3:deformed:{suffix}" and float(label.rsplit(":", 1)[1]) == a


def test_run_builds_one_frame_over_all_points(monkeypatch):
    built, field_calls = [], []
    init = geom.PointFrame.__init__

    def counting_init(frame, model, point):
        init(frame, model, point)
        built.append(frame)

    def counting_get(key):
        entry = catalog_get(key)
        fields = entry.model.fields

        def counted(x):
            field_calls.append(x)
            return fields(x)

        return dataclasses.replace(entry, model=dataclasses.replace(entry.model, fields=counted))

    monkeypatch.setattr(geom.PointFrame, "__init__", counting_init)
    monkeypatch.setattr(cli, "catalog_get", counting_get)
    for key in ("s-space-form:2,2", "s-space-form:2,2:deformed:3"):
        built.clear()
        field_calls.clear()
        report = run(RunConfig(key, points=5, samples=50))
        assert report.passed, key
        assert [fr.point.shape for fr in built] == [(5, 6)], key
        assert len(field_calls) == 1, key


def test_the_spectrum_identities_are_written_once(monkeypatch):
    # the spectrum row reads them over the run's frame, h_spectrum at its one point
    frames = []
    residuals = nullity.spectrum_residuals

    def counting(fit, frame):
        frames.append(frame)
        return residuals(fit, frame)

    monkeypatch.setattr(nullity, "spectrum_residuals", counting)
    report = run(RunConfig("flat-contact-r3:deformed:0.5", points=5, samples=50))
    assert report.passed and "spectrum" in [c.name for c in report.checks]
    assert [fr.point.shape for fr in frames] == [(5, 3)]
    model = frames[0].model
    spec = nullity.h_spectrum(model, nullity.fit_nullity(model, frames[0]), frames[0][2])
    assert [fr.point.shape for fr in frames[1:]] == [(3,)]
    assert spec.eigenvalue_residual < 1e-12 and spec.h_equal_residual == 0.0


@pytest.mark.parametrize("key", ["s-space-form:2,2", "flat-contact-r3:deformed:0.5"])
def test_check_subset_equals_filtered_full_run(key):
    # every row is reported on every key: gssf on s != 2 as skipped
    def run_checks(checks):
        return run(RunConfig(key, points=3, samples=40, seed=3, checks=checks))

    full = run_checks("all")
    assert [c.name for c in full.checks] == CHECK_NAMES
    for name in CHECK_NAMES:
        single = run_checks([name])
        assert single.checks == [c for c in full.checks if c.name == name], name
        assert single.fits["nullity"] == full.fits["nullity"], name
        assert single.h_sectional == full.h_sectional, name
        assert single.verdicts == full.verdicts, name


@pytest.mark.parametrize("seed", range(4))
def test_run_streams_are_the_children_of_the_seed(seed):
    entry = catalog_get("flat-contact-r3:deformed:0.5")
    ctx = cli.RunContext(RunConfig(entry.key, seed=seed, points=2, samples=20), entry)
    children = np.random.SeedSequence(seed).spawn(len(CHECKS) + 1)
    assert len(children) == 15
    points = geom.sample_points(entry.model, 2, seed=np.random.default_rng(children[0]))
    assert np.array_equal(ctx.frame.point, np.stack(points))
    for i, name in enumerate(CHECK_NAMES):
        assert np.array_equal(ctx.rng(name).random(8), np.random.default_rng(children[1 + i]).random(8)), name


# -- one parser per process ------------------------------------------------------


def test_a_second_main_call_builds_no_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(parser, *args, **kwargs):
        built.append(parser)
        init(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    assert main(["catalog", "list"]) == 0
    first = len(built)
    assert main(["catalog", "list"]) == 0
    capsys.readouterr()
    assert first > 0 and len(built) == first


def test_main_calls_in_one_process_share_no_state(capsys):
    args = ["--manifold", "s-space-form:2,2", "--points", "3", "--samples", "30"]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    fresh = subprocess.run(
        [sys.executable, "-c", "import sys; from fcontact.cli import main; sys.exit(main(sys.argv[1:]))", "check", *args],
        capture_output=True, text=True, env=env, check=False,
    )
    assert main(["check", "--checks", "gssf", *args]) == 0
    assert main(["check", "--checks", "r-xi", *args]) == 0
    capsys.readouterr()
    assert main(["check", *args]) == fresh.returncode == 0
    out = capsys.readouterr().out
    assert out == fresh.stdout
    assert [line.split()[0] for line in out.splitlines()[1:len(CHECK_NAMES) + 1]] == CHECK_NAMES


def test_a_parse_error_leaves_the_next_call_working(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--manifold", "flat-contact-r3", "--points", "x"])
    assert exc.value.code == 2
    assert "--points" in capsys.readouterr().err
    assert main(["check", "--manifold", "flat-contact-r3", "--points", "3", "--samples", "30"]) == 0
    assert "overall: PASS" in capsys.readouterr().out


# key -> bound on the spectrum row's residual, over every point.  On the last key
# |h| = |xi| = 1e5, so h xi = 0 is judged against 1e10, and the fitted
# kappa = 1 - 1e10 carries a relative error of about 1.5e-12.
EXTREME_DEFORMATIONS = {
    "flat-contact-r3:deformed:1e3": 1e-12,
    "flat-contact-r3:deformed:1e4": 1e-12,
    "s-space-form:2,2:deformed:1e4": 1e-12,
    "flat-contact-r3:deformed:1e-5": 1e-11,
}


@pytest.mark.parametrize("key", list(EXTREME_DEFORMATIONS))
def test_extreme_deformations_pass_on_relative_residuals(key, tmp_path, capsys):
    # roundoff on a metric of size a^2 and |h| = sqrt(1 - kappa) are what the theory predicts
    path = tmp_path / "report.json"
    assert main(["check", "--manifold", key, "--json", str(path)]) == 0
    capsys.readouterr()
    spectrum = {c["name"]: c for c in json.loads(path.read_text())["checks"]}["spectrum"]
    assert spectrum["residual"] <= EXTREME_DEFORMATIONS[key] and spectrum["passed"]


def test_a_small_deformation_draws_its_sections(capsys):
    # its metric on L is 1e-5 times the base's, which no longer rejects the section draws
    code = main(["check", "--manifold", "s-space-form:1,1:deformed:1e-5"])
    out = capsys.readouterr().out
    assert code in (0, 1)
    assert "overall:" in out and "Traceback" not in out


def test_an_h_sample_error_is_an_error_record(monkeypatch):
    def fails(*args, **kwargs):
        raise nullity.InsufficientSampleError("planted")

    monkeypatch.setattr(nullity, "sample_H_constancy", fails)
    report = run(RunConfig("flat-contact-r3:deformed:0.5", points=3, samples=30))
    records = {c.name: c for c in report.checks}
    assert records["H"].note == "error: planted" and not records["H"].passed and records["H"].gating
    assert records["curvature-model"].note == "error: planted"
    assert report.h_sectional is None and not report.passed
    assert main(["check", "--manifold", "flat-contact-r3", "--points", "3", "--samples", "30"]) == 1


@pytest.mark.parametrize("key, kappa", [("flat-contact-r3", 1.0), ("s-space-form:2,2", 1.01)])
def test_a_fit_against_the_spectrum_fails_its_row(monkeypatch, key, kappa):
    # h^2 = (kappa - 1) f^2: kappa = 1 with h != 0, and kappa > 1, fail the spectrum row
    config = RunConfig(key, points=3, samples=30, checks=["nullity", "spectrum"])
    model = catalog_get(key).model
    fit = nullity.fit_nullity(model, geom.sample_points(model, 3, seed=0))
    bogus = dataclasses.replace(fit, kappa=kappa, lam=None)
    monkeypatch.setattr(nullity, "fit_nullity", lambda *args, **kwargs: bogus)
    nullity_row, spectrum_row = run(config).checks
    assert nullity_row.passed
    assert spectrum_row.residual > 1e-3 and not spectrum_row.passed and spectrum_row.gating


def test_the_splitting_row_is_gone(capsys):
    # the splitting formula is the H row's residual for kappa < 1
    assert "splitting" not in CHECK_NAMES
    assert main(["check", "--manifold", "flat-contact-r3:deformed:2", "--checks", "splitting"]) == 2
    assert "unknown checks" in capsys.readouterr().err


def test_a_section_dependent_defect_fails_the_H_row(monkeypatch):
    # the sampled H stays within --tol of constant, but not on the splitting formula
    stacked = cli.as_frames

    def planted(model, points):
        frame = stacked(model, points)
        frame.riemann31 = frame.riemann31 + section_defect(frame, 3e-5)
        return frame

    monkeypatch.setattr(cli, "as_frames", planted)
    report = run(RunConfig("flat-contact-r3:deformed:0.5", points=4, samples=200))
    records = {c.name: c for c in report.checks}
    assert report.verdicts["is_space_form_candidate"] is True
    assert records["H"].residual > 1e-6 and not records["H"].passed and records["H"].gating
    assert not report.passed


def test_a_defect_past_the_first_point_fails_the_spectrum_row(monkeypatch):
    # h scaled at one point keeps every h property but breaks h^2 = (kappa - 1) f^2 there
    key = "flat-contact-r3:deformed:2"
    model = catalog_get(key).model
    fit = nullity.fit_nullity(model, geom.sample_points(model, 3, seed=0))
    monkeypatch.setattr(nullity, "fit_nullity", lambda *args, **kwargs: fit)
    stacked = cli.as_frames

    def planted(model, points):
        frame = stacked(model, points)
        h = frame.h_all.copy()
        h[5] *= 1.01
        frame.h_all = h
        return frame

    monkeypatch.setattr(cli, "as_frames", planted)
    report = run(RunConfig(key, points=6, samples=60, checks=["h-properties", "spectrum"]))
    h_properties, spectrum = report.checks
    assert h_properties.passed and h_properties.residual < 1e-12
    assert spectrum.residual > 1e-3 and not spectrum.passed and spectrum.gating


def test_a_defect_past_the_first_ten_points_fails_the_H_row(monkeypatch):
    stacked = cli.as_frames

    def planted(model, points):
        frame = stacked(model, points)
        defect = section_defect(frame, 3e-5)
        defect[:10] = 0.0
        frame.riemann31 = frame.riemann31 + defect
        return frame

    monkeypatch.setattr(cli, "as_frames", planted)
    report = run(RunConfig("flat-contact-r3:deformed:0.5", points=20, samples=200))
    records = {c.name: c for c in report.checks}
    assert records["H"].residual > 1e-6 and not records["H"].passed and not report.passed


def test_a_run_builds_no_lowered_curvature_tensor(monkeypatch):
    # every row reads riemann31; riemann40 is kept for geom.riemann alone
    stacked, frames = cli.as_frames, []

    def captured(model, points):
        frames.append(stacked(model, points))
        return frames[-1]

    monkeypatch.setattr(cli, "as_frames", captured)
    assert run(RunConfig("flat-contact-r3:deformed:0.5", points=4, samples=200)).passed
    (frame,) = frames
    assert "riemann31" in vars(frame) and "riemann40" not in vars(frame)


def test_a_failed_fit_skips_the_rows_that_read_it(monkeypatch, tmp_path, capsys):
    def fails(*args, **kwargs):
        raise nullity.InsufficientSampleError("planted")

    monkeypatch.setattr(nullity, "fit_nullity", fails)
    monkeypatch.setattr("fcontact.structure.killing_check", lambda *args: float("nan"))
    path = tmp_path / "r.json"
    assert main(["check", "--manifold", "flat-contact-r3:deformed:0.5", "--points", "3", "--samples", "30",
                 "--json", str(path)]) == 1
    text = capsys.readouterr().out
    assert "inf" in text  # the text format keeps non-finite residuals

    def no_constant(name):
        raise ValueError(f"not strict JSON: {name}")

    report = json.loads(path.read_text(), parse_constant=no_constant)
    jsonschema.validate(report, REPORT_SCHEMA)
    records = {c["name"]: c for c in report["checks"]}
    assert list(records) == CHECK_NAMES
    assert records["nullity"]["note"] == "error: planted" and records["nullity"]["residual"] is None
    assert records["killing"]["residual"] is None and not records["killing"]["passed"]
    for name in ("spectrum", "r-xi", "rf", "ricci", "H", "curvature-model"):
        assert records[name]["note"] == "skipped: needs the nullity fit, which failed", name
        assert records[name]["gating"], name
        assert records[name]["residual"] is None and not records[name]["passed"], name
        (line,) = [l for l in text.splitlines() if l.split()[0] == name]
        assert line.split()[1:4] == ["tol", "1e-06", "SKIP"], line
    assert report["fits"]["nullity"] is None and report["h_sectional"] is None
