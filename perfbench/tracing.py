"""Traced run: spans around calls into each layer, construction counters, stage replay.

All instrumentation is installed from outside at run time and removed again;
nothing under ``src/`` knows about it.  Function wrappers replace the names
where callers look them up (``cli`` binds ``emit_report``, ``catalog_get`` and
``sample_points`` by name; ``nullity`` binds ``structure_at``; ``cli`` reaches
``structure`` and ``nullity`` through module attributes, which also serve the
calls inside each module).  ``PointFrame`` and ``Jet`` constructions are
counted by wrapping the classes' ``__init__``, which every construction runs
whatever name the caller used.

Spans are kept in memory as ``[name, start, end, parent, op]`` rows and
written out when the run ends.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from fcontact import geom, jets, structure

NULLITY_FUNCTIONS = (
    "fit_nullity",
    "verify_r_xi",
    "check_rf_identity",
    "check_ricci_model",
    "h_spectrum",
    "sample_H_constancy",
    "check_curvature_model",
    "check_splitting_lemma",
    "fit_gssf",
    "fit_trans_s",
)

# Per-layer metrics reported by a traced run, with their units.
LAYER_UNITS = {
    "geom.frames_built": "count",
    "geom.frame_reuse_ratio": "ratio",
    "jets.jets_created": "count",
    "jets.metric_eval_us": "us",
    "jets.extract_us": "us",
    "geom.connection_us": "us",
    "geom.curvature_us": "us",
    "structure.tensors_us": "us",
    "structure.check_f_axioms_ms": "ms",
    "structure.killing_check_ms": "ms",
    "structure.check_normality_ms": "ms",
    "structure.structure_at_ms": "ms",
    "geom.riemann_ms": "ms",
    **{f"nullity.{fn}_ms": "ms" for fn in NULLITY_FUNCTIONS},
    "cli.self_ms": "ms",
    "report.emit_ms": "ms",
    "cli.checks_errored": "count",
    "cli.checks_skipped": "count",
    "catalog.get_ms": "ms",
    "deform.d_deform_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

# Spans whose inclusive time per operation is reported, by metric name.
SPAN_METRICS = {
    "structure.check_f_axioms_ms": "structure.check_f_axioms",
    "structure.killing_check_ms": "structure.killing_check",
    "structure.check_normality_ms": "structure.check_normality",
    "structure.structure_at_ms": "structure.structure_at",
    "geom.riemann_ms": "geom.riemann",
    **{f"nullity.{fn}_ms": f"nullity.{fn}" for fn in NULLITY_FUNCTIONS},
    "report.emit_ms": "report.emit_report",
}

# (module under fcontact, attribute, span name).  The span name's prefix is the layer.
PATCHES = (
    ("cli", "main", "cli.main"),
    ("cli", "run", "cli.run"),
    ("cli", "emit_report", "report.emit_report"),
    ("cli", "catalog_get", "catalog.catalog_get"),
    ("catalog", "catalog_get", "catalog.catalog_get"),
    ("catalog", "d_deform", "deform.d_deform"),
    ("cli", "sample_points", "geom.sample_points"),
    ("geom", "sample_points", "geom.sample_points"),
    ("geom", "riemann", "geom.riemann"),
    ("structure", "structure_at", "structure.structure_at"),
    ("nullity", "structure_at", "structure.structure_at"),
    ("structure", "check_f_axioms", "structure.check_f_axioms"),
    ("structure", "killing_check", "structure.killing_check"),
    ("structure", "check_normality", "structure.check_normality"),
    *(("nullity", fn, f"nullity.{fn}") for fn in NULLITY_FUNCTIONS),
)


class Tracer:
    """In-memory spans and per-operation construction counters."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1
        self.frames: list[int] = []
        self.jets: list[int] = []
        self.points: list[set] = []
        self._saved: list[tuple] = []

    def begin_op(self) -> None:
        self.op += 1
        self.frames.append(0)
        self.jets.append(0)
        self.points.append(set())

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op])
        self._stack.append(idx)
        return idx

    def leave(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    # -- installation ------------------------------------------------------

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave(idx)

        return traced

    def install(self) -> None:
        for modname, attr, name in PATCHES:
            mod = importlib.import_module(f"fcontact.{modname}")
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, name))

        frame_init, jet_init = geom.PointFrame.__init__, jets.Jet.__init__

        def counting_frame_init(frame, model, point):
            frame_init(frame, model, point)
            if self.op >= 0:
                self.frames[self.op] += 1
                self.points[self.op].add((model.dim, frame.point.tobytes()))

        def counting_jet_init(jet, val, grad, hess):
            jet_init(jet, val, grad, hess)
            if self.op >= 0:
                self.jets[self.op] += 1

        self._saved.append((geom.PointFrame, "__init__", frame_init))
        self._saved.append((jets.Jet, "__init__", jet_init))
        geom.PointFrame.__init__ = counting_frame_init
        jets.Jet.__init__ = counting_jet_init

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, orig = self._saved.pop()
            setattr(obj, attr, orig)

    # -- reduction ----------------------------------------------------------

    def totals(self, ops: set[int]) -> tuple[dict, dict]:
        """Inclusive seconds per span name and self seconds per layer, over ``ops``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive: dict[str, float] = defaultdict(float)
        self_by_layer: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, op) in enumerate(self.spans):
            if op not in ops:
                continue
            inclusive[name] += end - start
            self_by_layer[name.split(".", 1)[0]] += end - start - child[i]
        return inclusive, self_by_layer

    def op_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-operation counters and span times over operations ``0 .. n_ops - 1``.

        ``catalog.get_ms`` and ``deform.d_deform_ms`` come from the spans
        recorded before the first operation (op ``-1``): the set-up's catalog
        resolution, once per process.
        """
        inclusive, self_by_layer = self.totals(set(range(n_ops)))
        setup, _ = self.totals({-1})
        frames = sum(self.frames)
        return {
            "geom.frames_built": frames / n_ops,
            "geom.frame_reuse_ratio": sum(len(p) for p in self.points) / frames if frames else 0.0,
            "jets.jets_created": sum(self.jets) / n_ops,
            **{metric: inclusive.get(span, 0.0) / n_ops * 1e3 for metric, span in SPAN_METRICS.items()},
            "cli.self_ms": self_by_layer.get("cli", 0.0) / n_ops * 1e3,
            "catalog.get_ms": setup.get("catalog.catalog_get", 0.0) * 1e3,
            "deform.d_deform_ms": setup.get("deform.d_deform", 0.0) * 1e3,
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# Per-point stage replay
# ---------------------------------------------------------------------------


def replay_point(model, p) -> dict[str, float]:
    """Seconds spent in each pipeline stage at one point, in ROADMAP order.

    1. jet field evaluation of the metric and 2. extracting g, dg and d2g use
    the public jets functions on the model's public metric evaluator, exactly
    as ``PointFrame`` does.  The later stages are timed through public
    attributes of a fresh ``PointFrame`` whose g, dg and d2g were read first:
    3. gamma and dgamma, 4. riemann31 and ricci, 5. ``structure_at`` (which
    also evaluates the f, xi and eta fields).
    """
    dim = model.dim
    clock = time.perf_counter
    t0 = clock()
    raw = model.metric_field(jets.variables(p))
    t1 = clock()
    g = jets.tensor_value(raw)
    jets.tensor_jacobian(raw, dim)
    jets.tensor_hessian(raw, dim)
    t2 = clock()

    frame = geom.PointFrame(model, p)
    frame.g, frame.dg, frame.d2g  # computed and cached before the timed stages
    if not np.array_equal(frame.g, g):
        raise RuntimeError("replayed metric differs from PointFrame.g")
    t3 = clock()
    frame.gamma, frame.dgamma
    t4 = clock()
    frame.riemann31, frame.ricci
    t5 = clock()
    structure.structure_at(model, p, frame)
    t6 = clock()
    return {
        "jets.metric_eval_us": t1 - t0,
        "jets.extract_us": t2 - t1,
        "geom.connection_us": t4 - t3,
        "geom.curvature_us": t5 - t4,
        "structure.tensors_us": t6 - t5,
    }


def replay(models, points_per_model: int, seed: int) -> dict[str, float]:
    """Median per-point stage times in microseconds, summed over ``models``."""
    rng = np.random.default_rng([seed, 7])
    out: dict[str, float] = defaultdict(float)
    for model in models:
        box = np.asarray(model.domain_box, dtype=float)
        rows = [replay_point(model, rng.uniform(box[:, 0], box[:, 1])) for _ in range(points_per_model)]
        for name in rows[0]:
            out[name] += float(np.median([row[name] for row in rows])) * 1e6
    return dict(out)
