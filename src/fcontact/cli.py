"""Batch runner: catalog models + check suites -> machine-readable reports.

Subcommands: ``check --manifold KEY``, which runs the checks on one catalog
key (a deformed model is the key ``BASE:deformed:A``), and ``catalog list``.
Exit codes: 0 all requested checks pass, 1 at least one gating check failed,
2 usage or configuration error.  ``RunConfig`` holds the one copy of the
run's defaults; a flag that is not given leaves its field at that default.

A run reads the table ``CHECKS`` in order.  Each row names a check, says
whether it gates the exit status and which tolerance judges it, and measures
it over every point of the run's ``RunContext``.  A row whose precondition
does not hold (kappa < 1, s = 2, a nullity fit) raises
``NotApplicableError`` and is reported ``skipped``.  A new check is one row
here plus its library function.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import stat
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from . import nullity as nl
from . import structure as stc
from .catalog import CatalogEntry, catalog_get, catalog_list
from .errors import FContactError, NotApplicableError, UnknownManifoldError
from .geom import as_frames, sample_points
from .report import CheckRecord, CheckReport, emit_report
from .tolerances import FIT_TOL, IDENTITY_TOL, relative_residual


class ConfigError(ValueError):
    """Invalid run configuration (exit code 2)."""


# Largest accepted sizes: a run holds every point's arrays and one H value
# per section, about ``samples`` in all, so larger values exhaust memory.
MAX_POINTS = 1000
MAX_SAMPLES = 1_000_000


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclasses.dataclass
class RunConfig:
    manifold_key: str
    seed: int = 0
    points: int = 20
    samples: int = 200
    tolerance: float = FIT_TOL
    checks: list[str] | str = "all"
    output_path: str | None = None

    def validate(self) -> None:
        if not isinstance(self.manifold_key, str):
            raise ConfigError("manifold_key must be a string")
        for name, most in (("points", MAX_POINTS), ("samples", MAX_SAMPLES)):
            if not (_is_int(getattr(self, name)) and 1 <= getattr(self, name) <= most):
                raise ConfigError(f"{name} must be an integer in [1, {most}]")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ConfigError("seed must be an integer >= 0")
        if not (_is_real(self.tolerance) and math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ConfigError("tolerance must be positive and finite")
        if not (self.output_path is None or (isinstance(self.output_path, str) and self.output_path)):
            raise ConfigError("output_path must be null or a non-empty string")
        if self.checks != "all":
            if not isinstance(self.checks, (list, tuple)) or not self.checks:
                raise ConfigError('checks must be "all" or a non-empty list of check names')
            unknown = [c for c in self.checks if c not in CHECK_NAMES]
            if unknown:
                raise ConfigError(f"unknown checks: {unknown}")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        bad = set(data) - known
        if bad:
            raise ConfigError(f"unknown config keys: {sorted(bad)}")
        if "manifold_key" not in data:
            raise ConfigError("config needs a manifold_key")
        return cls(**data)


def _attempt(fn, *args):
    """``fn(*args)``, or the library error it raised, kept for the check that reports it."""
    try:
        return fn(*args)
    except FContactError as exc:
        return exc


def _value(result):
    """``result``, or its error raised again as a failure: a shared value
    that could not be computed is never a skip."""
    if isinstance(result, FContactError):
        raise FContactError(str(result)) from result
    return result


class RunContext:
    """What every run computes once, whatever checks it reports.

    The report's ``fits.nullity``, ``h_sectional`` and verdicts read these
    values on every run.  ``fit`` and ``h`` hold the library error instead of
    a value when computing them raised one; ``h`` (the one H sample, judged
    with the fit: ``ceil(samples / points)`` sections at every point) and
    ``predicted`` (the catalog's H) are ``None`` without a fit.
    """

    def __init__(self, config: RunConfig, entry: CatalogEntry):
        self.model = model = entry.model
        self.fit_tol = config.tolerance
        self.seed = config.seed
        points = sample_points(model, config.points, seed=self._stream(0))
        # every check reads this one frame over all points: the fields are evaluated once per run
        self.frame = as_frames(model, points)
        self.axioms = stc.check_f_axioms(model, self.frame)
        self.fit = _attempt(nl.fit_nullity, model, self.frame)
        self.fits = {"nullity": None, "gssf": None, "trans_s": None}
        self.h = self.predicted = None
        if self.has_fit:
            fit = self.fit
            self.fits["nullity"] = {
                "kappa": fit.kappa,
                "mu": fit.mu,
                "mu_determined": fit.mu_determined,
                "residual": fit.residual,
                "condition": fit.condition,
                "lambda": fit.lam,
            }
            sections = -(-config.samples // config.points)
            self.h = _attempt(nl.sample_H_constancy, model, self.frame, sections, self.rng("H"), fit)
            self.predicted = entry.expected.h_sectional
        self.normality = stc.check_normality(model, self.frame)

    @property
    def has_fit(self) -> bool:
        return not isinstance(self.fit, FContactError)

    def fitted(self) -> nl.NullityFit:
        """The nullity fit; a row that reads it does not apply when it failed."""
        if not self.has_fit:
            raise NotApplicableError("needs the nullity fit, which failed")
        return self.fit

    def _stream(self, index: int) -> np.random.Generator:
        """Child ``index`` of the run's seed: the stream of
        ``SeedSequence(seed).spawn(k)[index]`` for any ``k > index``, made
        without spawning the other children."""
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(index,)))

    def rng(self, name: str) -> np.random.Generator:
        """The random stream of check ``name``: child ``1 + `` its row index (0 draws the points)."""
        return self._stream(1 + CHECK_NAMES.index(name))


# Each measure returns a residual, or (residual, ok, note): the check passes
# when the residual is within tolerance and ok holds.


def _axioms(ctx: RunContext):
    ax = ctx.axioms
    rank_ok = ax.rank_detected == ax.expected_rank
    return ax.r_axioms, rank_ok, "" if rank_ok else f"rank(f) = {ax.rank_detected} != {ax.expected_rank}"


def _killing(ctx: RunContext):
    """Disagreement between ``L_xi g = 0`` and ``h = 0``, which are equivalent."""
    defects, notes, tol = [0.0], [], IDENTITY_TOL
    for a in range(ctx.model.s):
        k_res = stc.killing_check(ctx.model, a, ctx.frame)
        h_norm = relative_residual([(ctx.frame.h_all[:, a], 0.0)])
        # every comparison with NaN is false, so NaN agrees with nothing and its defect is NaN
        if not ((k_res < tol and h_norm < tol) or (k_res >= tol and h_norm >= tol)):
            defects.append(np.minimum(k_res, h_norm))
        notes.append(f"alpha={a}: L_xi g={k_res:.2e}, |h|={h_norm:.2e}")
    return np.max(defects), True, "; ".join(notes)


def _spectrum(ctx: RunContext):
    eigen, equal = nl.spectrum_residuals(ctx.fitted(), ctx.frame)
    return np.max([eigen, equal]), True, f"h^2 = (kappa - 1) f^2: {eigen:.2e}, h_alpha = h_1: {equal:.2e}"


def _h_sectional(ctx: RunContext):
    """H against the theorem: for kappa < 1 the residual of the splitting
    formula, which holds for every n and (kappa, mu); for kappa = 1, where no
    formula is known, the spread of H relative to its size.  The mean is
    compared with the catalog's H."""
    fit, h = ctx.fitted(), _value(ctx.h)
    note = f"mean = {h.h_mean:.9g}, predicted = {ctx.predicted:.9g}"
    ok = relative_residual([(h.h_mean, ctx.predicted)]) <= ctx.fit_tol
    if fit.lam is None:
        return h.relative_spread, ok, note + "; residual: relative spread"
    return h.splitting_residual, ok, note + "; residual: splitting formula"


def _curvature_model(ctx: RunContext):
    fit, h = ctx.fitted(), _value(ctx.h)
    if not h.relative_spread <= ctx.fit_tol:
        raise NotApplicableError("f-sectional curvature is not constant")
    return nl.check_curvature_model(ctx.model, fit, h.h_mean, ctx.frame)


def _gssf(ctx: RunContext):
    fit = nl.fit_gssf(ctx.model, ctx.frame)
    ctx.fits["gssf"] = {
        "F": [float(v) for v in fit.f_constants],
        "residual": fit.residual,
        "condition_residuals": [float(v) for v in fit.condition_residuals],
        "f_spread": [float(v) for v in fit.f_spread],
        "implied_kappa": fit.implied_kappa,
        "condition": fit.condition,
    }
    return fit.residual, True, "seven-function curvature ansatz fit"


def _trans_s(ctx: RunContext):
    fit = nl.fit_trans_s(ctx.model, ctx.frame)
    ctx.fits["trans_s"] = {
        "alpha": [float(v) for v in fit.alpha],
        "beta": [float(v) for v in fit.beta],
        "residual": fit.residual,
        "t421_residual": fit.t421_residual,
        "condition": fit.condition,
    }
    return fit.residual, True, "characteristic-function fit of nabla f"


class Check(NamedTuple):
    name: str
    gating: bool                # decides the exit status; else a diagnostic
    fit_tol: bool               # judged by the run's tolerance, else by IDENTITY_TOL
    measure: Callable[[RunContext], float | tuple]


# Report order.  A row's index also picks its random stream (RunContext.rng).
CHECKS = (
    #     name               gating fit_tol measure
    Check("axioms",          True,  False,  _axioms),
    Check("contact",         True,  False,  lambda ctx: float(np.max(ctx.axioms.r_contact))),
    Check("h-properties",    True,  False,  lambda ctx: ctx.axioms.r_h_properties),
    Check("killing",         True,  False,  _killing),
    Check("nullity",         True,  True,   lambda ctx: _value(ctx.fit).residual),
    Check("spectrum",        True,  True,   _spectrum),
    Check("r-xi",            True,  True,   lambda ctx: nl.verify_r_xi(ctx.model, ctx.fitted(), ctx.frame)),
    Check("rf",              True,  True,   lambda ctx: nl.check_rf_identity(ctx.model, ctx.fitted(), ctx.frame)),
    Check("ricci",           True,  True,   lambda ctx: nl.check_ricci_model(ctx.model, ctx.fitted(), ctx.frame)),
    Check("H",               True,  True,   _h_sectional),
    Check("curvature-model", True,  True,   _curvature_model),
    Check("normality",       False, False,  lambda ctx: (ctx.normality, True, "classification, not a failure mode")),
    Check("gssf",            False, True,   _gssf),
    Check("trans-s",         False, True,   _trans_s),
)
CHECK_NAMES = [row.name for row in CHECKS]


def _record(row: Check, ctx: RunContext) -> CheckRecord:
    """The record of one row, with the wall time of its measurement (skipped or errored too)."""
    tol = ctx.fit_tol if row.fit_tol else IDENTITY_TOL
    t0 = time.perf_counter()
    try:
        out = row.measure(ctx)
    except NotApplicableError as exc:
        return CheckRecord(row.name, None, tol, False, row.gating, f"skipped: {exc}", time.perf_counter() - t0)
    except FContactError as exc:
        return CheckRecord(row.name, float("inf"), tol, False, row.gating, f"error: {exc}", time.perf_counter() - t0)
    wall_time = time.perf_counter() - t0
    residual, ok, note = out if isinstance(out, tuple) else (out, True, "")
    residual = float(residual)
    return CheckRecord(row.name, residual, tol, bool(residual <= tol and ok), row.gating, note, wall_time)


def run(config: RunConfig) -> CheckReport:
    """Run the requested rows of ``CHECKS`` in table order; deterministic per seed."""
    config.validate()
    t0 = time.perf_counter()
    entry = catalog_get(config.manifold_key)
    model = entry.model
    requested = CHECK_NAMES if config.checks == "all" else config.checks
    ctx = RunContext(config, entry)
    checks = [_record(row, ctx) for row in CHECKS if row.name in requested]
    h = None if isinstance(ctx.h, FContactError) else ctx.h
    is_mfc = ctx.axioms.max_residual <= IDENTITY_TOL
    is_normal = ctx.normality <= IDENTITY_TOL
    return CheckReport(
        manifold={
            "key": entry.key,
            "label": model.label,
            "n": model.n,
            "s": model.s,
            "dim": model.dim,
        },
        checks=checks,
        fits=ctx.fits,
        h_sectional=None if h is None else {
            "mean": h.h_mean, "spread": h.h_spread, "predicted": ctx.predicted,
        },
        verdicts={
            "is_metric_f_contact": bool(is_mfc),
            "is_normal": bool(is_normal),
            "is_s_manifold": bool(is_mfc and is_normal),
            "is_space_form_candidate": None if h is None else bool(h.relative_spread <= ctx.fit_tol),
        },
        seed=config.seed,
        wall_time=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# argparse front end
# ---------------------------------------------------------------------------


def _config_from_args(args) -> RunConfig:
    """The run config of ``check``: from ``--config`` alone, else from the
    flags given, each named after its ``RunConfig`` field."""
    given = {k: v for k, v in vars(args).items() if k != "command"}
    if "config" in given:
        path = given.pop("config")
        if given:
            raise ConfigError("--config takes no other flags")
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file is not JSON: {exc}") from exc
        return RunConfig.from_dict(data)
    if "manifold_key" not in given:
        raise ConfigError("either --manifold or --config is required")
    return RunConfig(**given)


def _write_report(path: str, data: bytes) -> None:
    """Make ``data`` the content of ``path``: written over any old report, then cut to length.

    Not truncated on open: ext4 starts the writeback of a file truncated to
    zero and rewritten when it is closed, which made each rewrite of a report
    take 1-2 ms with stalls of 10-25 ms.  Pipes and devices are not cut.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _emit(report: CheckReport, config: RunConfig) -> None:
    if config.output_path is not None:
        _write_report(config.output_path, emit_report(report, "json"))
    sys.stdout.write(emit_report(report, "text").decode())


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The ``fcontact`` argument parser, built on first use and then kept:
    parsing reads it and leaves it as it was, so every ``main`` call in a
    process shares it."""
    parser = argparse.ArgumentParser(
        prog="fcontact",
        description="Verification lab for metric f-contact manifolds and their nullity structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # a flag that is not given stays out of the namespace, so RunConfig supplies its default
    p = sub.add_parser("check", help="run the check battery on a catalog model",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--manifold", dest="manifold_key", metavar="KEY",
                   help="catalog key, e.g. flat-contact-r3:deformed:0.5")
    p.add_argument("--points", type=int, metavar="N", help=f"in [1, {MAX_POINTS}] (default: {RunConfig.points})")
    p.add_argument("--samples", type=int, metavar="N", help=f"in [1, {MAX_SAMPLES}] (default: {RunConfig.samples})")
    p.add_argument("--seed", type=int, metavar="N", help=f"random seed, >= 0 (default: {RunConfig.seed})")
    p.add_argument("--tol", dest="tolerance", type=float, metavar="X",
                   help=f"fit tolerance (default: {RunConfig.tolerance:g})")
    p.add_argument(
        "--checks",
        metavar="NAMES",
        type=lambda v: "all" if v == "all" else [c.strip() for c in v.split(",")],
        help=f"comma-separated subset of {', '.join(CHECK_NAMES)} (default: {RunConfig.checks})",
    )
    p.add_argument("--json", dest="output_path", metavar="PATH", help="write the JSON report here")
    p.add_argument("--config", metavar="FILE", help="read the run config from a JSON file")

    p_catalog = sub.add_parser("catalog", help="catalog utilities")
    catalog_sub = p_catalog.add_subparsers(dest="catalog_command", required=True)
    catalog_sub.add_parser("list", help="list the built-in base entries")

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        if args.command == "catalog":
            for entry in catalog_list():
                exp, m = entry.expected, entry.model
                mu = "free" if exp.mu is None else f"{exp.mu:g}"
                print(f"{entry.key:<22} n={m.n} s={m.s} dim={m.dim}  "
                      f"[kappa={exp.kappa:g}, mu={mu}, H={exp.h_sectional:g}]")
            return 0

        config = _config_from_args(args)
        report = run(config)
        _emit(report, config)
        return 0 if report.passed else 1
    except (ConfigError, UnknownManifoldError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
