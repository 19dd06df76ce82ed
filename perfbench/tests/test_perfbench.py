"""Self-tests of the benchmark's own code.

Run with ``python3 -m pytest -q perfbench/tests`` from the root of the checkout.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fcontact import geom, jets  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_inputs_identical_across_processes(name):
    code = (
        f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(BENCH)!r}]; import workloads; "
        f"print(workloads.inputs_digest({name!r}, 7, 50), workloads.inputs_digest({name!r}, 8, 50))"
    )
    outs = [
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONHASHSEED": str(hash_seed)},
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout.split()
        for hash_seed in (1, 2)
    ]
    assert outs[0] == outs[1]
    assert outs[0][0] != outs[0][1]


def test_metric_names_match_pattern_and_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert end_to_end == list(run.END_TO_END)
    assert per_layer == list(tracing.LAYER_UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [workloads.make(name, tmp_path).name for name in run.WORKLOADS] == list(run.WORKLOADS)
    for name in end_to_end + per_layer + list(run.WORKLOADS):
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert {m["unit"] for m in spec["end_to_end"]} == set(run.END_TO_END.values())
    assert [m["unit"] for m in spec["per_layer"]] == list(tracing.LAYER_UNITS.values())


def test_closed_forms_agree_with_catalog():
    for key in ("s-space-form:2,2", "s-space-form:3,3", "flat-contact-r3:deformed:0.5", "flat-contact-r3:deformed:2"):
        workloads.resolve(key)  # raises on disagreement
    assert workloads.reference("flat-contact-r3:deformed:0.5") == workloads.Reference(-3.0, -2.0, 5.0)
    assert workloads.reference("flat-contact-r3:deformed:2") == workloads.Reference(0.75, 1.0, -1.75)


def test_check_gate_rejects_wrong_reference(tmp_path):
    work = workloads.CheckWorkload("t", ["flat-contact-r3:deformed:0.5"], 2, 20, tmp_path)
    work.setup(0)
    [(key, rc, raw, _)] = work.op(3)
    report = json.loads(raw)
    ref = workloads.reference(key)
    assert workloads.gate_check(rc, report, ref) == []
    for wrong in (
        workloads.Reference(ref.kappa + 1e-3, ref.mu, ref.h_sectional),
        workloads.Reference(ref.kappa, ref.mu - 1e-3, ref.h_sectional),
        workloads.Reference(ref.kappa, ref.mu, ref.h_sectional + 1e-3),
    ):
        assert workloads.gate_check(rc, report, wrong)
    assert workloads.gate_check(1, report, ref) == ["exit status 1"]


def test_point_gate_rejects_wrong_reference():
    work = workloads.make("point-queries", None)
    work.setup(0)
    result = work.op(work.next_input())
    assert work.gate(result) == []
    wrong = workloads.Reference(work.ref.kappa + 1e-3, work.ref.mu, work.ref.h_sectional)
    assert workloads.gate_point(*result, wrong)


def test_tail_has_ten_samples_beyond():
    lat = list(range(1, 101))
    value, pct, window = run.tail(lat)
    assert (value, pct, window) == (90, 90.0, 100)
    assert sum(x > value for x in lat) == 10
    assert run.tail([5, 1, 3]) == (5, 100.0, 3)
    # Long runs: p99 of each window of TAIL_WINDOW operations, median over windows.
    w = run.TAIL_WINDOW
    lat = [1.0] * (3 * w + 5)
    lat[:11] = [50.0] * 11   # a stall in the first window only
    value, pct, window = run.tail(lat)
    assert (value, pct, window) == (1.0, 95.0, w)


def test_tracer_counts_and_restores():
    originals = [getattr(__import__(f"fcontact.{m}", fromlist=[a]), a) for m, a, _ in tracing.PATCHES]
    inits = (geom.PointFrame.__init__, jets.Jet.__init__)
    work = workloads.make("point-queries", None)
    work.setup(1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        work.op(np.array([0.1, 0.2, 0.3]))
    finally:
        tracer.uninstall()
    metrics = tracer.op_metrics(1)
    assert metrics["geom.frames_built"] == 3
    assert metrics["geom.frame_reuse_ratio"] == pytest.approx(1 / 3)
    assert metrics["jets.jets_created"] > 0
    names = [span[0] for span in tracer.spans]
    assert names.count("geom.riemann") == names.count("nullity.h_spectrum") == 1
    assert names.count("structure.structure_at") == 2
    assert all(end >= start for _, start, end, _, _ in tracer.spans)
    assert [getattr(__import__(f"fcontact.{m}", fromlist=[a]), a) for m, a, _ in tracing.PATCHES] == originals
    assert (geom.PointFrame.__init__, jets.Jet.__init__) == inits


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit-dense", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
