"""End-to-end and per-layer benchmark of the BayesPerf estimation pipeline.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet-uniform --seed 1 --seconds 10 --trace 0

``--trace 0`` times untraced runs and prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced runs and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
(prefixed ``perfbench-details:``) records the seed, input and estimate
digests, sample counts and the environment.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 3
MIN_RUNS = 3
MIN_TRACED_PAIRS = 2
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _cap_threads(nproc: int) -> None:
    """Keep BLAS/OpenMP pools at or below the processors this run may use.

    Must run before numpy is imported; child processes inherit it.
    """
    for name in THREAD_VARIABLES:
        value = os.environ.get(name)
        if value is not None and (not value.isdigit() or int(value) > nproc):
            os.environ[name] = str(nproc)


def _blas_threads():
    """Threads the loaded OpenBLAS uses, or ``None`` if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def _environment(nproc: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _declared(section: str) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares *section*."""
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in contract[section]}


def _failures(runs, inputs, reference):
    """Why each failing run failed (an exception, or the correctness gate)."""
    return [
        run.error or "gate: count, finiteness or digest mismatch"
        for run in runs
        if not run.passes(inputs, reference)
    ]


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def _run_percentile(runs, percentile, *, scaled=True):
    """Median over runs of each run's latency *percentile*, in
    reference-host milliseconds unless *scaled* is false."""
    import numpy

    return _median(
        float(numpy.percentile(run.latencies_ms, percentile))
        * (run.host_factor if scaled else 1.0)
        for run in runs
    )


def _throughput(runs, *, scaled=True):
    """Median slices per (reference-host, unless not *scaled*) second."""
    return _median(
        run.n_slices / (run.wall_s * (run.host_factor if scaled else 1.0)) for run in runs
    )


def _end_to_end(inputs, seconds, workdir):
    """Accuracy pass in a fresh process, a warm-up run, then timed runs for
    *seconds*."""
    from measure import accuracy_in_subprocess, run_once, setup_seconds, tail_percentile

    setups = setup_seconds(ROOT, SETUP_SAMPLES)
    accuracy = accuracy_in_subprocess(ROOT, inputs, workdir / "accuracy")
    rss_before_runs = _peak_rss_mb()
    # The warm-up fills this process's caches; it is checked but not timed.
    warm_up = run_once(inputs)
    runs = []
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_RUNS or time.perf_counter() < deadline:
        runs.append(run_once(inputs))
    reference = accuracy.digest if accuracy.n_slices == inputs.expected_slices else None
    passed = [run for run in runs if run.passes(inputs, reference)]
    checked = [warm_up] + runs
    failed_runs = sum(not run.passes(inputs, reference) for run in checked)
    # Latency percentiles are taken per run (each run has >= 1000 slices, so
    # the 99th has at least ten samples beyond it) and reported as the
    # median over runs.
    samples = min((len(run.latencies_ms) for run in passed), default=0)
    tail = tail_percentile(samples)
    if passed and (tail is None or tail < 99.0):
        raise RuntimeError(f"{samples} latency samples per run cannot support a 99th percentile")
    attempted = inputs.expected_slices * len(checked)
    failed = inputs.expected_slices * failed_runs
    values = {
        "slices_per_s": _throughput(passed),
        "latency_p50_ms": _run_percentile(passed, 50.0),
        "latency_p99_ms": _run_percentile(passed, 99.0),
        "error_pct": accuracy.mean_percent("bayesperf"),
        "error_reduction_x": accuracy.reduction_x,
        "completed_frac": 1.0 - failed / attempted,
        "setup_s": _median(seconds * factor for seconds, factor in setups),
        # This process ran only the input generation, the warm-up and the
        # timed runs: the accuracy pass and the set-up probes ran in others.
        "peak_rss_mb": _peak_rss_mb(),
    }
    metrics = {name: (values[name], unit) for name, unit in _declared("end_to_end").items()}
    details = {
        "runs": len(runs),
        "failed_runs": _failures(checked, inputs, reference),
        "wall_s": [run.wall_s for run in runs],
        "host_factor": [run.host_factor for run in runs],
        "unscaled": {
            "slices_per_s": _throughput(passed, scaled=False),
            "latency_p50_ms": _run_percentile(passed, 50.0, scaled=False),
            "latency_p99_ms": _run_percentile(passed, 99.0, scaled=False),
            "setup_s": _median(seconds for seconds, _ in setups),
        },
        "latency_samples_per_run": samples,
        "latency_tail_percentile": tail,
        "latency_tail_ms": _run_percentile(passed, tail) if tail else None,
        "setup_s_samples": [seconds for seconds, _ in setups],
        "peak_rss_before_runs_mb": rss_before_runs,
        "accuracy_inputs_sha256": accuracy.instances_sha256,
        "error_pct_per_instance": accuracy.errors,
        "estimates_sha256": reference,
    }
    correct = accuracy.finite and reference is not None and failed_runs == 0
    return correct, attempted, failed, metrics, details


def _per_layer(inputs, seconds, workdir):
    """Cold traced accuracy pass, then alternating untraced/traced runs."""
    from measure import accuracy_pass, run_once, traced_metrics

    accuracy = accuracy_pass(inputs, traced=True)
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACED_PAIRS or time.perf_counter() < deadline:
        plain.append(run_once(inputs))
        traced.append(run_once(inputs, traced=True))
    reference = accuracy.digest if accuracy.n_slices == inputs.expected_slices else None
    runs = plain + traced
    passed_plain = [run for run in plain if run.passes(inputs, reference)]
    passed_traced = [run for run in traced if run.passes(inputs, reference)]
    failed_runs = len(runs) - len(passed_plain) - len(passed_traced)
    samples = [traced_metrics(run, accuracy.tracer) for run in passed_traced]
    values = {key: _median(sample[key] for sample in samples) for key in samples[0]} if samples else {}
    values["trace.overhead_frac"] = (
        _throughput(passed_plain) / _throughput(passed_traced) - 1.0
        if passed_plain and passed_traced
        else 0.0
    )
    metrics = {
        name: (float(values.get(name, 0.0)), unit)
        for name, unit in _declared("per_layer").items()
    }
    details = {
        "runs": len(plain),
        "traced_runs": len(traced),
        "failed_runs": _failures(runs, inputs, reference),
        "wall_s": [run.wall_s for run in plain],
        "traced_wall_s": [run.wall_s for run in traced],
        "host_factor": [run.host_factor for run in plain],
        "traced_host_factor": [run.host_factor for run in traced],
        "estimates_sha256": reference,
    }
    coverage = metrics["trace.coverage"][0]
    if coverage < 0.95:
        print(f"warning: trace coverage {coverage:.3f} is below 0.95", file=sys.stderr)
    attempted = inputs.expected_slices * len(runs)
    failed = inputs.expected_slices * failed_runs
    correct = accuracy.finite and reference is not None and failed_runs == 0
    return correct, attempted, failed, metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if os.environ.get("REPRO_KERNEL_THREADS"):
        print(
            "refusing to run: REPRO_KERNEL_THREADS is set, which changes the "
            "program being measured; unset it",
            file=sys.stderr,
        )
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    nproc = _nproc()
    _cap_threads(nproc)
    sys.path.insert(0, str(ROOT / "src"))

    from inputs import WORKLOADS, build_inputs

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {WORKLOADS}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        inputs = build_inputs(args.workload, args.seed, workdir)
        measure = _per_layer if args.trace else _end_to_end
        correct, attempted, failed, metrics, details = measure(inputs, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still holds its own directory there
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs_sha256": inputs.digest,
        "expected_slices": inputs.expected_slices,
        **details,
        "environment": _environment(nproc),
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:24s} {value:14.6g} {unit}")
    print("perfbench-details: " + json.dumps(details, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
