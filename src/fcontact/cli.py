"""Batch runner: catalog models + check suites -> machine-readable reports.

Subcommands: ``check``, ``fit-nullity``, ``fit-gssf``, ``fit-trans-s``,
``deform``, ``catalog list``.  Exit codes: 0 all requested checks pass,
1 at least one gating check failed, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time

import numpy as np

from . import nullity as nl
from . import structure as stc
from .catalog import CatalogEntry, catalog_get, catalog_list
from .deform import format_constant
from .errors import FContactError, NotApplicableError, UnknownManifoldError
from .geom import Convention, PointFrame, sample_points
from .report import CheckRecord, CheckReport, emit_report
from .tolerances import FIT_TOL, IDENTITY_TOL

CHECK_NAMES = [
    "axioms",
    "contact",
    "h-properties",
    "killing",
    "nullity",
    "spectrum",
    "r-xi",
    "rf",
    "ricci",
    "H",
    "curvature-model",
    "splitting",
    "normality",
    "gssf",
    "trans-s",
]
class ConfigError(ValueError):
    """Invalid run configuration (exit code 2)."""


@dataclasses.dataclass
class RunConfig:
    manifold_key: str
    deform_a: float | None = None
    seed: int = 0
    points: int = 20
    samples: int = 200
    tolerance: float = FIT_TOL
    checks: list[str] | str = "all"
    output_path: str | None = None
    convention: str = "auto"

    def validate(self) -> None:
        if self.points < 1:
            raise ConfigError("points must be >= 1")
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")
        if not self.tolerance > 0:
            raise ConfigError("tolerance must be positive")
        if self.deform_a is not None and not (math.isfinite(self.deform_a) and self.deform_a > 0):
            raise ConfigError("deformation constant must be positive and finite")
        if self.convention not in ("auto", "half", "plain"):
            raise ConfigError(f"unknown convention {self.convention!r}")
        if self.checks != "all":
            unknown = [c for c in self.checks if c not in CHECK_NAMES]
            if unknown:
                raise ConfigError(f"unknown checks: {unknown}")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        bad = set(data) - known
        if bad:
            raise ConfigError(f"unknown config keys: {sorted(bad)}")
        if "manifold_key" not in data:
            raise ConfigError("config needs a manifold_key")
        return cls(**data)


def _resolve_entry(config: RunConfig) -> CatalogEntry:
    key = config.manifold_key
    if config.deform_a is not None:
        key = f"{key}:deformed:{format_constant(config.deform_a)}"
    entry = catalog_get(key)
    if config.convention != "auto":
        model = dataclasses.replace(entry.model, d_convention=Convention(config.convention))
        entry = dataclasses.replace(entry, model=model, d_convention=model.d_convention)
    return entry


def run(config: RunConfig) -> CheckReport:
    """Execute the requested checks in dependency order; deterministic per seed."""
    config.validate()
    t0 = time.perf_counter()
    entry = _resolve_entry(config)
    model = entry.model
    requested = CHECK_NAMES if config.checks == "all" else list(config.checks)
    if model.s != 2 and config.checks != "all" and "gssf" in requested:
        raise ConfigError("gssf check requires a model with s = 2")

    seeds = np.random.SeedSequence(config.seed).spawn(len(CHECK_NAMES) + 1)
    rng_for = {name: np.random.default_rng(seeds[i + 1]) for i, name in enumerate(CHECK_NAMES)}
    points = sample_points(model, config.points, seed=np.random.default_rng(seeds[0]))
    # every check reads these frames, so each point is evaluated once per run
    frames = [PointFrame(model, p) for p in points]

    fit_tol = config.tolerance
    checks: list[CheckRecord] = []
    fits: dict = {"nullity": None, "gssf": None, "trans_s": None}
    spectrum_out = None
    h_out = None

    def record(name, residual, tol, gating, note="", passed=None):
        residual = float(residual)
        passed = (residual <= tol) if passed is None else passed
        checks.append(CheckRecord(name, residual, tol, bool(passed), gating, note))

    def guarded(name, tol, gating, fn, note=""):
        if name not in requested:
            return None
        try:
            residual = fn()
        except NotApplicableError as exc:
            record(name, 0.0, tol, gating=False, note=f"skipped: {exc}", passed=True)
            return None
        except FContactError as exc:
            record(name, float("inf"), tol, gating, note=f"error: {exc}", passed=False)
            return None
        record(name, residual, tol, gating, note=note)
        return residual

    # axioms / contact / h-properties ------------------------------------
    axiom_report = stc.check_f_axioms(model, frames)
    if "axioms" in requested:
        base_res = max(
            axiom_report.r_eta_xi,
            axiom_report.r_f_xi,
            axiom_report.r_eta_f,
            axiom_report.r_f_squared,
            axiom_report.r_compat,
            axiom_report.r_rank,
        )
        rank_ok = axiom_report.rank_detected == axiom_report.expected_rank
        record(
            "axioms",
            base_res,
            IDENTITY_TOL,
            gating=True,
            note="" if rank_ok else f"rank(f) = {axiom_report.rank_detected} != {axiom_report.expected_rank}",
            passed=base_res <= IDENTITY_TOL and rank_ok,
        )
    if "contact" in requested:
        record("contact", float(np.max(axiom_report.r_contact)), IDENTITY_TOL, gating=True)
    if "h-properties" in requested:
        record(
            "h-properties",
            max(
                axiom_report.h_symmetry,
                axiom_report.h_trace,
                axiom_report.h_anticommute,
                axiom_report.h_xi,
                axiom_report.eta_h,
            ),
            IDENTITY_TOL,
            gating=True,
        )

    # killing <-> h = 0 agreement -----------------------------------------
    h_norms = [max(float(np.max(np.abs(fr.h_all[a]))) for fr in frames) for a in range(model.s)]
    if "killing" in requested:
        defect = 0.0
        notes = []
        for a in range(model.s):
            k_res = stc.killing_check(model, a, frames)
            agree = (k_res < IDENTITY_TOL) == (h_norms[a] < IDENTITY_TOL)
            if not agree:
                defect = max(defect, min(k_res, h_norms[a]))
            notes.append(f"alpha={a}: L_xi g={k_res:.2e}, |h|={h_norms[a]:.2e}")
        record("killing", defect, IDENTITY_TOL, gating=True, note="; ".join(notes))

    # nullity fit -----------------------------------------------------------
    fit = None
    try:
        fit = nl.fit_nullity(model, frames)
        fits["nullity"] = {
            "kappa": fit.kappa,
            "mu": fit.mu,
            "mu_determined": fit.mu_determined,
            "residual": fit.residual,
            "condition": fit.condition,
            "lambda": fit.lam,
        }
        if "nullity" in requested:
            kappa_ok = fit.kappa <= 1.0 + fit_tol
            record(
                "nullity",
                fit.residual,
                fit_tol,
                gating=True,
                note="" if kappa_ok else f"kappa = {fit.kappa} exceeds 1",
                passed=fit.residual <= fit_tol and kappa_ok,
            )
    except FContactError as exc:
        if "nullity" in requested:
            record("nullity", float("inf"), fit_tol, gating=True, note=f"error: {exc}", passed=False)

    # spectrum ---------------------------------------------------------------
    if fit is not None:
        try:
            spec = nl.h_spectrum(model, fit, frames[0])
            spectrum_out = {
                "lambda": spec.lam,
                "eigenvalue_residual": spec.eigenvalue_residual,
                "h_equal_residual": spec.h_equal_residual,
                "f_swap_residual": spec.f_swap_residual,
                "h_zero": spec.h_zero,
            }
            if "spectrum" in requested:
                worst = max(
                    spec.eigenvalue_residual,
                    spec.h_equal_residual,
                    spec.f_swap_residual or 0.0,
                )
                record("spectrum", worst, fit_tol, gating=True)
        except FContactError as exc:
            if "spectrum" in requested:
                record("spectrum", float("inf"), fit_tol, gating=True, note=f"error: {exc}", passed=False)

    # curvature identities ----------------------------------------------------
    if fit is not None:
        guarded("r-xi", fit_tol, True, lambda: nl.verify_r_xi(model, fit, frames))
        guarded("rf", fit_tol, True, lambda: nl.check_rf_identity(model, fit, frames))
        guarded("ricci", fit_tol, True, lambda: nl.check_ricci_model(model, fit, frames))

    # f-sectional curvature ----------------------------------------------------
    h_report = None
    if fit is not None:
        sections = max(10, config.samples // max(1, config.points))
        h_report = nl.sample_H_constancy(
            model, frames[:10], sections_per_point=sections, rng=rng_for["H"]
        )
        predicted = None
        if entry.expected is not None and entry.expected.h_sectional is not None:
            predicted = entry.expected.h_sectional
        elif fit.kappa < 1.0 - fit_tol:
            mu = fit.mu_effective
            if abs(mu - (fit.kappa + 1.0)) <= fit_tol or model.n == 1:
                predicted = -model.s * (fit.kappa + mu)
        h_out = {"mean": h_report.h_mean, "spread": h_report.h_spread, "predicted": predicted}
        if "H" in requested:
            note = f"mean = {h_report.h_mean:.9g}"
            if predicted is not None:
                note += f", predicted = {predicted:.9g}"
            ok = h_report.h_spread <= fit_tol and (
                predicted is None or abs(h_report.h_mean - predicted) <= fit_tol
            )
            record("H", h_report.h_spread, fit_tol, gating=True, note=note, passed=ok)
        if "curvature-model" in requested:
            if h_report.h_spread <= fit_tol:
                guarded(
                    "curvature-model",
                    fit_tol,
                    True,
                    lambda: nl.check_curvature_model(model, fit, h_report.h_mean, frames),
                )
            else:
                record(
                    "curvature-model",
                    0.0,
                    fit_tol,
                    gating=False,
                    note="skipped: f-sectional curvature is not constant",
                    passed=True,
                )
        guarded(
            "splitting",
            fit_tol,
            True,
            lambda: nl.check_splitting_lemma(model, fit, frames[0], section_samples=100, rng=rng_for["splitting"]),
        )

    # diagnostics ---------------------------------------------------------------
    normal_res = stc.check_normality(model, frames)
    if "normality" in requested:
        record("normality", normal_res, IDENTITY_TOL, gating=False, note="classification, not a failure mode")

    if "gssf" in requested and model.s == 2:
        try:
            gfit = nl.fit_gssf(model, frames)
            fits["gssf"] = {
                "F": [float(v) for v in gfit.f_constants],
                "residual": gfit.residual,
                "condition_residuals": [float(v) for v in gfit.condition_residuals],
                "f_spread": [float(v) for v in gfit.f_spread],
                "implied_kappa": gfit.implied_kappa,
                "condition": gfit.condition,
            }
            record("gssf", gfit.residual, fit_tol, gating=False, note="seven-function curvature ansatz fit")
        except FContactError as exc:
            record("gssf", float("inf"), fit_tol, gating=False, note=f"error: {exc}", passed=False)

    if "trans-s" in requested:
        try:
            tfit = nl.fit_trans_s(model, frames)
            fits["trans_s"] = {
                "alpha": [float(v) for v in tfit.alpha],
                "beta": [float(v) for v in tfit.beta],
                "residual": tfit.residual,
                "t421_residual": tfit.t421_residual,
                "condition": tfit.condition,
            }
            record("trans-s", tfit.residual, fit_tol, gating=False, note="characteristic-function fit of nabla f")
        except FContactError as exc:
            record("trans-s", float("inf"), fit_tol, gating=False, note=f"error: {exc}", passed=False)

    # verdicts -------------------------------------------------------------------
    is_mfc = axiom_report.max_residual <= IDENTITY_TOL
    is_normal = normal_res <= IDENTITY_TOL
    verdicts = {
        "is_metric_f_contact": bool(is_mfc),
        "is_normal": bool(is_normal),
        "is_s_manifold": bool(is_mfc and is_normal),
        "is_space_form_candidate": (
            bool(h_report.h_spread <= fit_tol) if h_report is not None else None
        ),
    }

    return CheckReport(
        manifold={
            "key": entry.key,
            "label": model.label,
            "n": model.n,
            "s": model.s,
            "dim": model.dim,
            "convention": model.d_convention.value,
        },
        checks=checks,
        fits=fits,
        spectrum=spectrum_out,
        h_sectional=h_out,
        verdicts=verdicts,
        seed=config.seed,
        wall_time=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# argparse front end
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, manifold_required=True):
    p.add_argument("--manifold", required=manifold_required, help="catalog key")
    p.add_argument("--a", type=float, default=None, help="D-homothetic deformation constant")
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=FIT_TOL)
    p.add_argument("--json", dest="json_path", default=None, help="write the JSON report here")
    p.add_argument(
        "--convention",
        choices=["half", "plain", "auto"],
        default="auto",
        help="override the contact-condition convention (auto = entry's declared)",
    )
    p.add_argument("--config", default=None, help="read the run config from a JSON file")


def _config_from_args(args, checks) -> RunConfig:
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
        return RunConfig.from_dict(data)
    if args.manifold is None:
        raise ConfigError("either --manifold or --config is required")
    return RunConfig(
        manifold_key=args.manifold,
        deform_a=args.a,
        seed=args.seed,
        points=args.points,
        samples=args.samples,
        tolerance=args.tol,
        checks=checks,
        output_path=args.json_path,
        convention=args.convention,
    )


def _emit(report: CheckReport, config: RunConfig) -> None:
    if config.output_path:
        with open(config.output_path, "wb") as fh:
            fh.write(emit_report(report, "json"))
        sys.stdout.write(emit_report(report, "text").decode())
    else:
        sys.stdout.write(emit_report(report, "text").decode())


def _run_and_exit(config: RunConfig) -> int:
    report = run(config)
    _emit(report, config)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fcontact",
        description="Verification lab for metric f-contact manifolds and their nullity structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the full check battery on a catalog model")
    _add_common(p_check, manifold_required=False)
    p_check.add_argument(
        "--checks",
        default="all",
        help="comma-separated subset of checks (default: all)",
    )

    for name, checkset in (
        ("fit-nullity", ["nullity", "spectrum", "r-xi"]),
        ("fit-gssf", ["gssf"]),
        ("fit-trans-s", ["trans-s"]),
    ):
        p = sub.add_parser(name, help=f"run the {name.replace('-', ' ')} subset")
        _add_common(p, manifold_required=False)
        p.set_defaults(checkset=checkset)

    p_deform = sub.add_parser("deform", help="check a deformed model against its closed-form prediction")
    _add_common(p_deform, manifold_required=False)

    p_catalog = sub.add_parser("catalog", help="catalog utilities")
    catalog_sub = p_catalog.add_subparsers(dest="catalog_command", required=True)
    catalog_sub.add_parser("list", help="list the built-in base entries")

    args = parser.parse_args(argv)

    try:
        if args.command == "catalog":
            for entry in catalog_list():
                exp = entry.expected
                known = (
                    f"kappa={exp.kappa:g}, mu={'free' if exp.mu is None else f'{exp.mu:g}'}"
                    f", H={'measured' if exp.h_sectional is None else f'{exp.h_sectional:g}'}"
                    if exp
                    else "no expected record"
                )
                print(f"{entry.key:<22} n={entry.n} s={entry.s} dim={2*entry.n+entry.s} "
                      f"convention={entry.d_convention.value}  [{known}]")
            return 0

        if args.command == "check":
            checks = "all" if args.checks == "all" else [c.strip() for c in args.checks.split(",")]
            config = _config_from_args(args, checks)
            return _run_and_exit(config)

        if args.command in ("fit-nullity", "fit-gssf", "fit-trans-s"):
            config = _config_from_args(args, args.checkset)
            return _run_and_exit(config)

        if args.command == "deform":
            if args.a is None and not args.config:
                raise ConfigError("deform requires --a")
            config = _config_from_args(args, "all")
            if config.deform_a is None:
                raise ConfigError("deform requires a deformation constant")
            return _run_and_exit(config)

        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, UnknownManifoldError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except OSError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
