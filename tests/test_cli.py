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

from fcontact import cli, geom, nullity
from fcontact.catalog import catalog_get
from fcontact.cli import CHECK_NAMES, CHECKS, ConfigError, RunConfig, _resolve_entry, main, run
from fcontact.report import REPORT_SCHEMA, emit_report, parse_report

from .conftest import section_defect


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
    for a in (float("inf"), float("nan"), 1e300, 1e-300):
        with pytest.raises(ConfigError):
            run(RunConfig(manifold_key="flat-contact-r3", deform_a=a))
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"manifold_key": "flat-contact-r3", "what": 1})
    # wrong types, a negative seed and an empty check list never reach a run
    for bad in ({"seed": -1}, {"points": "3"}, {"points": 2.5}, {"points": True},
                {"samples": "200"}, {"seed": 1.0}, {"checks": []}, {"checks": "nullity"},
                {"tolerance": float("inf")}, {"tolerance": "1e-6"}, {"deform_a": "2"},
                {"points": 1001}, {"points": 10**11}, {"samples": 1_000_001}, {"samples": 10**11}):
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
            "curvature-model", "normality", "gssf", "trans-s"}
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


def test_report_file_is_replaced_whole(tmp_path, capsys):
    """A report written over a longer old file leaves no trailing bytes; devices are not cut."""
    path = tmp_path / "r.json"
    path.write_bytes(b"x" * 100_000)
    args = ["check", "--manifold", "flat-contact-r3", "--points", "3", "--samples", "60"]
    assert main(args + ["--json", str(path)]) == 0
    assert main(args + ["--json", "/dev/null"]) == 0
    capsys.readouterr()
    report = parse_report(path.read_bytes())
    assert path.read_bytes() == emit_report(report, "json")


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
        assert main(["check", "--manifold", "flat-contact-r3", "--a", a]) == 2
        assert "finite" in capsys.readouterr().err
    with monkeypatch.context() as m:
        m.setattr("fcontact.cli.sample_points", _no_sampling)
        for sizes in (["--points", "100000000000"], ["--samples", "100000000000", "--checks", "axioms"]):
            assert main(["check", "--manifold", "flat-contact-r3", *sizes]) == 2
            assert sizes[0][2:] in capsys.readouterr().err
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


@pytest.mark.parametrize("key", ["flat-contact-r3", "s-space-form:1,1"])
def test_nan_killing_residual_fails(monkeypatch, key):
    monkeypatch.setattr("fcontact.structure.killing_check", lambda *args: float("nan"))
    (record,) = run(RunConfig(key, points=3, samples=20, checks=["killing"])).checks
    assert math.isnan(record.residual)
    assert not record.passed and record.gating


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


def test_run_builds_one_frame_over_all_points(monkeypatch):
    built, metric_calls = [], []
    init = geom.PointFrame.__init__

    def counting_init(frame, model, point):
        init(frame, model, point)
        built.append(frame)

    def counting_get(key):
        entry = catalog_get(key)
        metric = entry.model.metric_field

        def counted(x):
            metric_calls.append(x)
            return metric(x)

        return dataclasses.replace(entry, model=dataclasses.replace(entry.model, metric_field=counted))

    monkeypatch.setattr(geom.PointFrame, "__init__", counting_init)
    monkeypatch.setattr(cli, "catalog_get", counting_get)
    report = run(RunConfig("s-space-form:2,2", points=5, samples=50))
    assert report.passed
    assert [fr.point.shape for fr in built] == [(5, 6)]
    assert len(metric_calls) == 1


def test_run_computes_the_h_spectrum_once(monkeypatch):
    calls = []
    spectrum = nullity.h_spectrum

    def counting(*args):
        calls.append(args)
        return spectrum(*args)

    monkeypatch.setattr(nullity, "h_spectrum", counting)
    report = run(RunConfig("flat-contact-r3:deformed:0.5"))
    assert report.passed
    assert {c.name for c in report.checks} >= {"spectrum", "H"}
    assert len(calls) == 1


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
    assert main(["fit-gssf", *args]) == 0
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


# key -> bound on the spectrum's eigenvalue residual.  On the last key
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
    report = json.loads(path.read_text())
    assert report["spectrum"]["eigenvalue_residual"] <= EXTREME_DEFORMATIONS[key]
    assert {c["name"]: c for c in report["checks"]}["spectrum"]["passed"]


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
    model = _resolve_entry(config).model
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
        frame.riemann40 = frame.riemann40 + section_defect(frame, 3e-5)
        return frame

    monkeypatch.setattr(cli, "as_frames", planted)
    report = run(RunConfig("flat-contact-r3:deformed:0.5", points=4, samples=200))
    records = {c.name: c for c in report.checks}
    assert report.verdicts["is_space_form_candidate"] is True
    assert records["H"].residual > 1e-6 and not records["H"].passed and records["H"].gating
    assert not report.passed
