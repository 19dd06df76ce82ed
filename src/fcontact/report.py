"""Machine-readable check reports: structure, JSON schema, serialization.

Reports always carry raw residuals next to the tolerance that judged them, so
pass/fail flags are recomputable from the report alone.  A skipped check has
no residual and has not passed.  JSON serialization is canonical (sorted
keys) and byte-identical across runs with the same config and seed, except
for ``wall_time``, the run's and each check's.  It is strict JSON (RFC
8259): a non-finite number, such as the ``inf`` residual of an errored
check, is written as ``null``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

__all__ = ["CheckRecord", "CheckReport", "REPORT_SCHEMA", "emit_report"]


@dataclass(frozen=True)
class CheckRecord:
    """One named check: residual vs tolerance.

    ``gating`` checks decide the run's exit status; non-gating ones are
    classification measurements (e.g. normality on a model that is simply not
    normal) feeding the verdicts.  A check whose precondition does not hold
    is skipped: it has no residual (``None``) and has not passed; it keeps
    its row's ``gating``, but only checks that ran decide the exit status.
    ``wall_time`` is the seconds its measurement took; like the report's own
    ``wall_time`` it is in the JSON report only, outside its byte identity,
    and records that differ only in it compare equal.
    """

    name: str
    residual: float | None
    tolerance: float
    passed: bool
    gating: bool
    note: str = ""
    wall_time: float = field(default=0.0, compare=False)


@dataclass
class CheckReport:
    """Full result bundle of a catalog run."""

    manifold: dict
    checks: list[CheckRecord]
    fits: dict
    h_sectional: dict | None
    verdicts: dict
    seed: int
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        """Every gating check that ran passed; a skipped check (residual ``None``)
        does not count, while a NaN or infinite residual fails."""
        return all(c.passed for c in self.checks if c.gating and c.residual is not None)

    def to_dict(self) -> dict:
        return {
            "manifold": self.manifold,
            "checks": [dict(vars(c)) for c in self.checks],
            "fits": self.fits,
            "h_sectional": self.h_sectional,
            "verdicts": self.verdicts,
            "seed": self.seed,
            "wall_time": self.wall_time,
        }


_NUMBER_OR_NULL = {"type": ["number", "null"]}

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["manifold", "checks", "fits", "h_sectional", "verdicts", "seed", "wall_time"],
    "properties": {
        "manifold": {
            "type": "object",
            "required": ["key", "label", "n", "s", "dim"],
            "additionalProperties": False,
            "properties": {
                "key": {"type": "string"},
                "label": {"type": "string"},
                "n": {"type": "integer"},
                "s": {"type": "integer"},
                "dim": {"type": "integer"},
            },
        },
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "residual", "tolerance", "passed", "gating", "wall_time"],
                "properties": {
                    "name": {"type": "string"},
                    "residual": _NUMBER_OR_NULL,
                    "tolerance": {"type": "number"},
                    "passed": {"type": "boolean"},
                    "gating": {"type": "boolean"},
                    "note": {"type": "string"},
                    "wall_time": {"type": "number", "minimum": 0},
                },
            },
        },
        "fits": {
            "type": "object",
            "required": ["nullity"],
            "properties": {
                "nullity": {
                    "type": ["object", "null"],
                    "properties": {
                        "kappa": {"type": "number"},
                        "mu": _NUMBER_OR_NULL,
                        "mu_determined": {"type": "boolean"},
                        "residual": _NUMBER_OR_NULL,
                        "condition": _NUMBER_OR_NULL,
                        "lambda": _NUMBER_OR_NULL,
                    },
                },
                "gssf": {"type": ["object", "null"], "properties": {"condition": _NUMBER_OR_NULL}},
                "trans_s": {"type": ["object", "null"], "properties": {"condition": _NUMBER_OR_NULL}},
            },
        },
        "h_sectional": {
            "type": ["object", "null"],
            "properties": {
                "mean": {"type": "number"},
                "spread": {"type": "number"},
                "predicted": _NUMBER_OR_NULL,
            },
        },
        "verdicts": {
            "type": "object",
            "required": [
                "is_metric_f_contact",
                "is_normal",
                "is_s_manifold",
                "is_space_form_candidate",
            ],
            "additionalProperties": {"type": ["boolean", "null"]},
        },
        "seed": {"type": "integer"},
        "wall_time": {"type": "number"},
    },
}


def _finite(value):
    """``value`` with every non-finite float, at any depth, replaced by ``None``."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite(v) for v in value]
    return value


def emit_report(report: CheckReport, format: str = "json") -> bytes:
    """Serialize a report as canonical, strict JSON or a human-readable table
    (which writes non-finite residuals as ``inf`` and ``nan``)."""
    if format == "json":
        return (json.dumps(_finite(report.to_dict()), indent=2, sort_keys=True, allow_nan=False) + "\n").encode()
    if format == "text":
        m = report.manifold
        lines = [f"manifold {m['key']}  (n={m['n']}, s={m['s']}, dim={m['dim']})"]
        for c in report.checks:
            if c.residual is None:
                residual, verdict = "", "SKIP"
            else:
                residual, verdict = f"{c.residual:.3e}", "PASS" if c.passed else "FAIL"
            tag = "" if c.gating else "  [diagnostic]"
            note = f"  ({c.note})" if c.note else ""
            lines.append(f"  {c.name:<18} {residual:>12}  tol {c.tolerance:.0e}  {verdict}{tag}{note}")
        nf = report.fits.get("nullity")
        if nf:
            mu = "free" if nf["mu"] is None else f"{nf['mu']:.9g}"
            lines.append(f"  fit: kappa={nf['kappa']:.9g}  mu={mu}  residual={nf['residual']:.3e}")
        if report.h_sectional:
            h = report.h_sectional
            pred = "n/a" if h["predicted"] is None else f"{h['predicted']:.9g}"
            lines.append(f"  H: mean={h['mean']:.9g}  spread={h['spread']:.3e}  predicted={pred}")
        lines.append("  verdicts: " + ", ".join(f"{k}={v}" for k, v in report.verdicts.items()))
        lines.append(f"  overall: {'PASS' if report.passed else 'FAIL'}")
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown report format {format!r}")
