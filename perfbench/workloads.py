"""The benchmark's workloads: generated inputs, one operation, and its correctness gate.

Every workload is a closed loop with one client: the next operation starts
only after the previous one has returned and been checked.  Inputs come from
``input_stream(name, seed)`` alone, so one seed gives the same inputs in every
process.  The program under test receives only those inputs: a ``--seed`` for
``fcontact check``, or a sampled point.

Workloads (why each exists is recorded in BENCHMARK.json and README.md):

* ``check-wide`` -- ``fcontact check`` with every check, 20 points and 200
  samples, on ``s-space-form:2,2`` and then ``s-space-form:3,3``.  Frame
  construction (jets -> geom -> structure) dominates.
* ``fit-dense`` -- the same call on ``flat-contact-r3:deformed:0.5`` with
  4 points and 2000 samples.  The per-sample loops in ``nullity`` dominate,
  and the ``kappa < 1``, ``mu = kappa + 1`` branches run.
* ``point-queries`` -- ``riemann``, ``structure_at`` and ``h_spectrum`` at one
  fresh point of ``flat-contact-r3:deformed:2``, as the README quick start
  calls them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fcontact import catalog, cli, geom, nullity, structure

FIT_TOL = 1e-6           # absolute, on fitted kappa, mu, H and lambda and the eigenvalue residual
SYMMETRY_TOL = 1e-9      # relative, pair symmetry of riemann40
CONTACT_TOL = 1e-8       # relative, F = d eta from structure_at

# Warm-up runs the same code paths at a tenth of the size.
WARMUP_ARGS = ["--points", "2", "--samples", "20"]


# ---------------------------------------------------------------------------
# Closed-form references
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Reference:
    """Closed-form (kappa, mu, H) of a catalog key; None where not fixed by theory."""

    kappa: float
    mu: float | None
    h_sectional: float | None


def reference(key: str) -> Reference:
    """Closed forms, written here independently of the program's catalog.

    ``flat-contact-r3:deformed:a`` (s = 1): ``kappa = (a^2 - 1)/a^2``,
    ``mu = 2(a - 1)/a``, ``H = -(3a^2 - 2a - 1)/a^2``.  ``s-space-form:n,s``:
    ``kappa = 1``, mu free, ``H = -3s``.
    """
    if key.startswith("flat-contact-r3:deformed:"):
        a = float(key.rsplit(":", 1)[1])
        return Reference((a * a - 1.0) / (a * a), 2.0 * (a - 1.0) / a, -(3.0 * a * a - 2.0 * a - 1.0) / (a * a))
    if key.startswith("s-space-form:"):
        s = int(key.split(":", 1)[1].split(",")[1])
        return Reference(1.0, None, -3.0 * s)
    raise ValueError(f"no closed-form reference for {key!r}")


def resolve(key: str):
    """Resolve ``key`` in the catalog and check its expected values against the closed forms."""
    entry = catalog.catalog_get(key)
    ref = reference(key)
    expected = getattr(entry, "expected", None)
    for name, want in (("kappa", ref.kappa), ("mu", ref.mu), ("h_sectional", ref.h_sectional)):
        got = getattr(expected, name, None)
        if want is not None and got is not None and abs(got - want) > 1e-12:
            raise RuntimeError(f"catalog expects {name} = {got} for {key}, closed form gives {want}")
    return entry, ref


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def input_stream(name: str, seed: int):
    """Deterministic generator for one workload's inputs (op index order).

    Check workloads yield ``--seed`` values; ``point-queries`` yields points
    drawn uniformly from the model's domain box.  The name enters through
    CRC-32, which, unlike ``hash``, does not change between processes.
    """
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    if name == "point-queries":
        while True:
            yield rng.uniform(-1.0, 1.0, size=3)
    else:
        while True:
            yield int(rng.integers(0, 2**31 - 1))


def inputs_digest(name: str, seed: int, count: int) -> str:
    """SHA-256 of the first ``count`` inputs; equal across processes for one seed."""
    digest = hashlib.sha256()
    stream = input_stream(name, seed)
    for _ in range(count):
        digest.update(np.asarray(next(stream), dtype=float).tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------


def gate_check(rc: int, report: dict, ref: Reference) -> list[str]:
    """Failures of one ``fcontact check`` result against its closed-form reference."""
    fails = []
    if rc != 0:
        fails.append(f"exit status {rc}")
    fit = report["fits"]["nullity"]
    if fit is None:
        fails.append("no nullity fit")
    else:
        if not abs(fit["kappa"] - ref.kappa) <= FIT_TOL:
            fails.append(f"kappa {fit['kappa']!r} != {ref.kappa!r}")
        if ref.mu is not None and fit["mu_determined"] and not abs(fit["mu"] - ref.mu) <= FIT_TOL:
            fails.append(f"mu {fit['mu']!r} != {ref.mu!r}")
    if ref.h_sectional is not None:
        h = report["h_sectional"]
        if h is None or not abs(h["mean"] - ref.h_sectional) <= FIT_TOL:
            fails.append(f"H mean {None if h is None else h['mean']!r} != {ref.h_sectional!r}")
    return fails


def gate_point(curv, st, spec, ref: Reference) -> list[str]:
    """Failures of one point query: the h-spectrum law, R's pair symmetry, F = d eta."""
    fails = []
    lam = math.sqrt(1.0 - ref.kappa)
    if spec.lam is None or not abs(spec.lam - lam) <= FIT_TOL:
        fails.append(f"lambda {spec.lam!r} != {lam!r}")
    if not spec.eigenvalue_residual <= FIT_TOL:
        fails.append(f"eigenvalue residual {spec.eigenvalue_residual!r}")
    r40 = curv.riemann40
    scale = max(1.0, float(np.max(np.abs(r40))))
    pair = float(np.max(np.abs(r40 - np.einsum("klij->ijkl", r40))))
    if not pair <= SYMMETRY_TOL * scale:
        fails.append(f"riemann40 pair symmetry {pair!r}")
    contact = float(np.max(np.abs(st.F_mat - st.d_eta[0])))
    if not contact <= CONTACT_TOL * max(1.0, float(np.max(np.abs(st.F_mat)))):
        fails.append(f"contact residual {contact!r}")
    return fails


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _strip_wall_time(raw: bytes) -> bytes:
    return b"\n".join(line for line in raw.split(b"\n") if not line.lstrip().startswith(b'"wall_time":'))


class CheckWorkload:
    """One operation: ``fcontact.cli.main(["check", ...])`` on each key in turn."""

    def __init__(self, name: str, keys: list[str], points: int, samples: int, out_dir: Path):
        self.name = name
        self.keys = keys
        self.size_args = ["--points", str(points), "--samples", str(samples)]
        self.out_dir = out_dir
        self.refs: dict[str, Reference] = {}

    def setup(self, seed: int) -> None:
        """Catalog resolution, input generation and one warm-up operation."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.refs = {key: resolve(key)[1] for key in self.keys}
        self.inputs = input_stream(self.name, seed)
        self._run(0, WARMUP_ARGS)

    def _run(self, check_seed: int, size_args: list[str]):
        out = []
        for key in self.keys:
            path = self.out_dir / f"{self.name}-{key.replace(':', '_').replace(',', '_')}.json"
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                rc = cli.main(["check", "--manifold", key, *size_args, "--seed", str(check_seed), "--json", str(path)])
            out.append((key, rc, path.read_bytes(), text.getvalue()))
        return out

    def next_input(self):
        return next(self.inputs)

    def op(self, check_seed: int):
        return self._run(check_seed, self.size_args)

    def gate(self, result) -> list[str]:
        return [f"{key}: {msg}" for key, rc, raw, _ in result for msg in gate_check(rc, json.loads(raw), self.refs[key])]

    def signature(self, result) -> str:
        """Digest of the outputs, ``wall_time`` excluded, for traced-vs-untraced identity."""
        digest = hashlib.sha256()
        for key, rc, raw, text in result:
            digest.update(f"{key}:{rc}\n".encode() + _strip_wall_time(raw) + text.encode())
        return digest.hexdigest()

    def check_counts(self, result) -> tuple[int, int]:
        """Number of checks that errored and that were skipped, over the operation."""
        errored = skipped = 0
        for _, _, raw, _ in result:
            for check in json.loads(raw)["checks"]:
                errored += check["note"].startswith("error:")
                skipped += check["note"].startswith("skipped:")
        return errored, skipped


class PointQueryWorkload:
    """One operation: ``riemann``, ``structure_at`` and ``h_spectrum`` at a fresh point."""

    FIT_POINTS = 20
    FIT_SAMPLES = 200

    def __init__(self, name: str, key: str):
        self.name = name
        self.keys = [key]

    def setup(self, seed: int) -> None:
        """Catalog resolution, input generation, the nullity fit and one warm-up operation."""
        entry, self.ref = resolve(self.keys[0])
        self.model = entry.model
        fit_rng = np.random.default_rng([seed, zlib.crc32(b"fit")])
        pts = geom.sample_points(self.model, self.FIT_POINTS, seed=fit_rng)
        self.fit = nullity.fit_nullity(self.model, pts, self.FIT_SAMPLES, rng=fit_rng)
        self.inputs = input_stream(self.name, seed)
        self.op(np.zeros(3))

    def next_input(self):
        return next(self.inputs)

    def op(self, p):
        # Looked up at call time, so the traced run's wrappers are seen.
        return geom.riemann(self.model, p), structure.structure_at(self.model, p), nullity.h_spectrum(self.model, self.fit, p)

    def gate(self, result) -> list[str]:
        return gate_point(*result, self.ref)

    def signature(self, result) -> str:
        curv, st, spec = result
        digest = hashlib.sha256()
        for arr in (curv.riemann31, curv.riemann40, curv.ricci_op, st.h_mat, st.normality, spec.eigenvalues):
            digest.update(np.ascontiguousarray(arr).tobytes())
        return digest.hexdigest()

    def check_counts(self, result) -> tuple[int, int]:
        return 0, 0


def make(name: str, out_dir: Path):
    if name == "check-wide":
        return CheckWorkload(name, ["s-space-form:2,2", "s-space-form:3,3"], 20, 200, out_dir)
    if name == "fit-dense":
        return CheckWorkload(name, ["flat-contact-r3:deformed:0.5"], 4, 2000, out_dir)
    if name == "point-queries":
        return PointQueryWorkload(name, "flat-contact-r3:deformed:2")
    raise ValueError(f"unknown workload {name!r}")
