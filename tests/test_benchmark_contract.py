"""The names the benchmark under ``perfbench/`` reaches in the program still resolve.

``perfbench/tracing.py`` wraps every ``(module, attribute)`` of its
``PATCHES`` and fails at install when one is gone, and
``perfbench/workloads.py`` calls a few library functions by name and
signature.  The benchmark files are only read here: ``tracing.py`` is
compiled from its source, so no bytecode is written next to it.
"""

import importlib
import types
from pathlib import Path

import numpy as np

from fcontact import catalog, geom, jets, nullity, structure

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing()
    assert tracing.PATCHES
    for module, attr, _ in tracing.PATCHES:
        assert callable(getattr(importlib.import_module(f"fcontact.{module}"), attr)), (module, attr)
    assert "check_splitting_lemma" in tracing.NULLITY_FUNCTIONS


def test_the_calls_of_the_workloads_resolve():
    # as PointQueryWorkload.setup and .op, and the stage replay of tracing.py, call them
    model = catalog.catalog_get("flat-contact-r3:deformed:2").model
    fit_rng = np.random.default_rng([0, 1])
    fit = nullity.fit_nullity(model, geom.sample_points(model, 4, seed=fit_rng), 200, rng=fit_rng)
    p = np.array([0.1, -0.2, 0.3])
    curv, st, spec = geom.riemann(model, p), structure.structure_at(model, p), nullity.h_spectrum(model, fit, p)
    assert curv.riemann40.shape == (3, 3, 3, 3) and st.d_eta.shape == (1, 3, 3)
    assert spec.lam == np.sqrt(1.0 - fit.kappa)

    raw = model.metric_field(jets.variables(p))
    g = jets.tensor_value(raw)
    assert jets.tensor_jacobian(raw, 3).shape == (3, 3, 3)
    assert jets.tensor_hessian(raw, 3).shape == (3, 3, 3, 3)
    frame = geom.PointFrame(model, p)
    assert np.array_equal(frame.g, g)
    # the stages replay_point times, read on a fresh frame in its order
    assert frame.dg.shape == (3, 3, 3) and frame.d2g.shape == (3, 3, 3, 3)
    assert frame.gamma.shape == (3, 3, 3) and frame.dgamma.shape == (3, 3, 3, 3)
    assert frame.riemann31.shape == (3, 3, 3, 3) and frame.ricci.shape == (3, 3)
    assert structure.structure_at(model, p, frame).g_mat is frame.g
