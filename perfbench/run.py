"""fcontact benchmark runner: one workload, one process, one client in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and nowhere else.  BLAS is pinned to one thread.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the same
inputs untraced and then traced, requires identical outputs from both, and
reports the per-layer metrics.  Every operation is checked against a
closed-form reference and failures are counted in ``failed``.  The last line
of standard output is the JSON result; the full record with the environment,
and the spans of a traced run, go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("check-wide", "fit-dense", "point-queries")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

SETUP_REPEATS = 5
TAIL_WINDOW = 200          # operations per window of the tail percentile
TRACE_SHARE = 0.4          # of --seconds, for the untraced phase of a traced run
REPLAY_POINTS = 40         # per model, in the stage replay

END_TO_END = {"setup_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it: (value, percentile, window).

    Nearest rank on the sorted samples; with 10 or fewer samples it is the
    maximum.  A run with at least two windows of ``TAIL_WINDOW`` consecutive
    operations takes the percentile in each whole window (p95) and reports the
    median over windows, so that one stall of the machine does not decide it.
    """
    window = TAIL_WINDOW if len(latencies) >= 2 * TAIL_WINDOW else len(latencies)
    rank = window - 10 if window > 10 else window
    values = [sorted(latencies[i:i + window])[rank - 1] for i in range(0, len(latencies) - window + 1, window)]
    return statistics.median(values), 100.0 * rank / window, window


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without starting git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "fcontact").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def import_seconds() -> float:
    """Median time to import the program in a fresh interpreter, over ``SETUP_REPEATS`` interpreters.

    A single in-process import varies up to twofold from run to run; the
    median of several fresh imports does not.
    """
    code = (f"import sys, time; t = time.perf_counter(); sys.path.insert(0, {str(SRC)!r}); "
            "import fcontact; print(time.perf_counter() - t)")
    samples = [
        float(subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True,
                             check=True, timeout=120).stdout)
        for _ in range(SETUP_REPEATS)
    ]
    return statistics.median(samples)


def run_ops(work, inputs: list, budget: float | None, tracer=None) -> dict:
    """Closed loop over ``inputs``, drawing more from the stream while within ``budget`` seconds.

    Latency covers the operation alone; the loop's wall time also covers
    drawing the input and the correctness gate.
    """
    latencies, signatures = [], []
    failed = errored = skipped = 0
    clock = time.perf_counter
    start = clock()
    i = 0
    while i < len(inputs) or (budget is not None and clock() - start < budget):
        if i == len(inputs):
            inputs.append(work.next_input())
        if tracer is not None:
            tracer.begin_op()
        t0 = clock()
        try:
            out = work.op(inputs[i])
            latencies.append(clock() - t0)
            fails = work.gate(out)
            signature = work.signature(out)
            counts = (0, 0) if fails else work.check_counts(out)
        except Exception as exc:  # raised by the program, or on output the gate cannot read
            if len(latencies) == i:
                latencies.append(clock() - t0)
            fails, counts = [f"raised {type(exc).__name__}: {exc}"], (0, 0)
            signature = fails[0]
        signatures.append(signature)
        errored += counts[0]
        skipped += counts[1]
        if fails:
            failed += 1
            print(f"op {i}: {fails}", file=sys.stderr)
        i += 1
    return {"latencies": latencies, "failed": failed, "wall": clock() - start, "signatures": signatures,
            "errored": errored, "skipped": skipped}


def measure(work, seed: int, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics of one untraced run."""
    import_s = import_seconds()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        work.setup(seed)
        setups.append(time.perf_counter() - t0)
    run = run_ops(work, [], seconds)
    lat = run["latencies"]
    tail_value, tail_pct, window = tail(lat)
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail_value * 1e3,
        "ops_per_s": len(lat) / run["wall"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    windows = f" per window of {window}, median over {len(lat) // window} windows" if window < len(lat) else ""
    print(f"op_tail_ms is p{tail_pct:.1f}{windows} of {len(lat)} samples")
    info = {"attempted": len(lat), "failed": run["failed"], "identical": True, "import_s": import_s,
            "setup_repeats_s": setups, "op_tail_percentile": tail_pct, "op_tail_window": window,
            "wall_s": run["wall"], "latencies_s": lat}
    return metrics, info


def measure_traced(work, seed: int, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics: the same inputs untraced, then traced, then the stage replay."""
    import tracing
    import workloads

    work.setup(seed)
    inputs: list = []
    untraced = run_ops(work, inputs, TRACE_SHARE * seconds)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        models = [workloads.resolve(key)[0].model for key in work.keys]
        traced = run_ops(work, inputs, None, tracer)
    finally:
        tracer.uninstall()
    tracer.write(OUT / f"spans-{work.name}-seed{seed}.json")

    n = len(inputs)
    identical = untraced["signatures"] == traced["signatures"]
    if not identical:
        print("traced and untraced outputs differ", file=sys.stderr)
    metrics = {
        **tracer.op_metrics(n),
        **tracing.replay(models, REPLAY_POINTS, seed),
        "cli.checks_errored": traced["errored"] / n,
        "cli.checks_skipped": traced["skipped"] / n,
        "trace.overhead_ratio": statistics.median(traced["latencies"]) / statistics.median(untraced["latencies"]),
    }
    info = {"attempted": 2 * n, "failed": untraced["failed"] + traced["failed"], "identical": identical,
            "ops_per_phase": n, "frames_built": sum(tracer.frames), "spans": len(tracer.spans)}
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "fcontact" / "__init__.py").is_file():
        print(f"no fcontact sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = True  # every run compiles the sources alike and leaves no caches

    import fcontact
    import tracing
    import workloads

    if Path(fcontact.__file__).resolve().parent != (SRC / "fcontact").resolve():
        print(f"fcontact imported from {fcontact.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    work = workloads.make(args.workload, OUT)
    if args.trace:
        metrics, info = measure_traced(work, args.seed, args.seconds)
        units = tracing.LAYER_UNITS
    else:
        metrics, info = measure(work, args.seed, args.seconds)
        units = END_TO_END

    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "env": env, "info": info, "metrics": metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": info["failed"] == 0 and info["identical"],
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
