"""Timed and traced runs of one workload, with the correctness gate.

One *run* is ``Pipeline.from_spec(spec)`` followed by draining
``.stream()``: the timed window covers both, so capture parsing (eager, in
``from_spec``) and synthetic simulation (lazy, at the first pump) are
inside it.  Each run is checked — slice count, finite estimates, and a
digest of every estimate that must match the accuracy pass — and a run
that fails the check contributes no timing.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api import Pipeline
from repro.api.comparison import build_baseline
from repro.events.registry import catalog_for
from repro.metrics.error import trace_error
from repro.pmu.traces import EstimateTrace

from inputs import ARCH, Inputs
from tracing import Tracer, install_layers, per_layer_metrics

#: Candidate percentiles for the latency tail, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)
#: Samples a reported percentile must have beyond it.
TAIL_SAMPLES = 10
#: Reads per comparison point when scoring perf captures (the monitoring
#: session's default read interval).
PERF_READ_TICKS = 8
#: What :func:`calibration_seconds` takes on the reference host (a 2-vCPU
#: Intel Xeon VM in its faster phases).  Timing metrics are reported in
#: reference-host seconds: each run's wall time is scaled by this over the
#: calibration measured around it, which cancels the host's speed drift.
REFERENCE_CALIBRATION_S = 0.010


def tail_percentile(n_samples: int) -> Optional[float]:
    """The highest ladder percentile with >= 10 of *n_samples* beyond it."""
    best = None
    for percentile in PERCENTILE_LADDER:
        # The tolerance absorbs binary rounding of e.g. 100 - 99.9.
        if n_samples * (100.0 - percentile) / 100.0 >= TAIL_SAMPLES - 1e-9:
            best = percentile
    return best


def digest_slices(slices) -> Tuple[str, bool]:
    """SHA-256 over every slice's estimates in (host, tick) order, and
    whether every estimate is finite."""
    digest = hashlib.sha256()
    finite = True
    for result in sorted(slices, key=lambda s: (s.host, s.tick)):
        events = sorted(result.values)
        numbers = [result.values[e] for e in events] + [result.sigma[e] for e in events]
        finite = finite and all(math.isfinite(x) for x in numbers)
        digest.update(f"{result.host}\0{result.tick}\0{','.join(events)}\0".encode())
        digest.update(struct.pack(f"<{len(numbers)}d", *numbers))
    return digest.hexdigest(), finite


def round_latencies_ms(slices, asked: Sequence[float], got: Sequence[float], round_ticks: int):
    """Closed-loop delivery latency of every slice, in milliseconds.

    A drive round delivers ``round_ticks`` ticks of every host at once, so
    a slice waited from the moment the consumer asked for the first slice
    of its round until the slice itself was handed over.  With one tick per
    round (the online workload) that is exactly the wait for each slice.
    """
    first_ask: Dict[int, float] = {}
    latencies = []
    for result, ask, handed in zip(slices, asked, got):
        start = first_ask.setdefault(result.tick // round_ticks, ask)
        latencies.append(1e3 * (handed - start))
    return latencies


def calibration_seconds() -> float:
    """Best of three timings of a fixed CPU-bound loop.

    The loop (Python integer arithmetic plus small numpy operations, the
    pipeline's instruction mix) shares no code with the program, so it
    measures only how fast the host is running right now.
    """
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for value in range(100_000):
            total += value * value
        array = np.arange(64.0)
        for _ in range(1000):
            array = np.sqrt(array * array + 1.0) - 0.5
        best = min(best, time.perf_counter() - start)
    return best


def host_factor(before: float, after: float) -> float:
    """Scale from measured to reference-host seconds for a run bracketed
    by calibrations taking *before* and *after* seconds."""
    return REFERENCE_CALIBRATION_S / ((before + after) / 2.0)


@dataclass(eq=False)
class RunOutcome:
    """One run of a workload (the slices themselves are not kept)."""

    n_slices: int
    wall_s: float
    latencies_ms: List[float]
    digest: str
    finite: bool
    #: Reference-host seconds per measured second during this run.
    host_factor: float
    ep_iterations_mean: float = 0.0
    unconverged: int = 0
    engine_cache: Dict[str, int] = field(default_factory=dict)
    wal_bytes: int = 0
    error: Optional[str] = None
    tracer: Optional[Tracer] = None

    def passes(self, inputs: Inputs, reference: str) -> bool:
        return (
            self.error is None
            and self.n_slices == inputs.expected_slices
            and self.finite
            and self.digest == reference
        )


def run_once(inputs: Inputs, *, traced: bool = False) -> RunOutcome:
    """Build the pipeline, drain its stream, and check what came out.

    The run is bracketed by host-speed calibrations, outside its timed
    window.
    """
    if inputs.wal_path is not None and inputs.wal_path.exists():
        inputs.wal_path.unlink()
    tracer = Tracer() if traced else None
    slices: list = []
    asked: List[float] = []
    got: List[float] = []
    clock = time.perf_counter
    error = None
    pipeline = None
    before = calibration_seconds()
    try:
        if tracer is not None:
            install_layers(tracer)
        root = tracer.span("bench.run") if tracer is not None else nullcontext()
        with root:
            start = clock()
            pipeline = Pipeline.from_spec(inputs.spec)
            drive = tracer.span("api.run") if tracer is not None else nullcontext()
            with drive:
                stream = pipeline.stream()
                while True:
                    ask = clock()
                    result = next(stream, None)
                    handed = clock()
                    if result is None:
                        break
                    slices.append(result)
                    asked.append(ask)
                    got.append(handed)
            wall = clock() - start
    except Exception as exc:  # a failed run is counted, never fatal
        error = f"{type(exc).__name__}: {exc}"
        wall = 0.0
    finally:
        if tracer is not None:
            tracer.restore()
    after = calibration_seconds()
    digest, finite = digest_slices(slices)
    iterations, unconverged = summarize_slices(slices)
    cache = pipeline.fleet_result.engine_cache if error is None else {}
    wal_bytes = (
        inputs.wal_path.stat().st_size
        if inputs.wal_path is not None and inputs.wal_path.exists()
        else 0
    )
    return RunOutcome(
        n_slices=len(slices),
        wall_s=wall,
        # Every spec sets pump_records = batch_size, so a drive round
        # delivers batch_size ticks of each host.
        latencies_ms=round_latencies_ms(slices, asked, got, inputs.spec.batch_size),
        digest=digest,
        finite=finite,
        host_factor=host_factor(before, after),
        ep_iterations_mean=iterations,
        unconverged=unconverged,
        engine_cache=dict(cache),
        wal_bytes=wal_bytes,
        error=error,
        tracer=tracer,
    )


@dataclass
class Accuracy:
    """The untimed accuracy pass: reference digest and error metrics."""

    digest: str
    finite: bool
    n_slices: int
    #: Method -> fleet-mean error (percent) of each scored instance.
    errors: Dict[str, List[float]]
    tracer: Optional[Tracer] = None
    #: Input digests of the extra instances merged in.
    instances_sha256: List[str] = field(default_factory=list)

    def mean_percent(self, method: str) -> float:
        """Fleet-mean error of *method* (percent) over the scored instances.

        Every instance has the same host count, so this is the fleet mean
        over all their hosts.
        """
        return float(np.mean(self.errors[method]))

    def merge(self, other: "Accuracy") -> None:
        """Score *other*'s hosts too (an extra accuracy instance)."""
        for method, values in other.errors.items():
            self.errors[method].extend(values)

    @property
    def reduction_x(self) -> float:
        return self.mean_percent("linux") / self.mean_percent("bayesperf")


def _perf_errors(inputs: Inputs, slices) -> Dict[str, float]:
    """Fleet-mean BayesPerf and Linux-scaling error (percent) over the perf
    captures, each scored against the noise-free truth it was generated
    from and averaged like ``ComparisonReport.mean_error_percent``."""
    from repro.perfio import PerfTraceSource

    catalog = catalog_for(ARCH)
    traces: Dict[str, EstimateTrace] = {}
    for result in slices:
        trace = traces.setdefault(result.host, EstimateTrace(method="bayesperf"))
        trace.append(dict(result.values), uncertainty=dict(result.sigma))
    linux = build_baseline("linux", catalog)
    errors: Dict[str, List[float]] = {"bayesperf": [], "linux": []}
    for host_id, truth in sorted(inputs.truth.items()):
        source = PerfTraceSource(host_id, inputs.captures[host_id], format="stat-csv")
        for method, trace in (
            ("bayesperf", traces[host_id]),
            ("linux", linux.correct(source.sampled_trace())),
        ):
            report = trace_error(trace, truth, events=truth.events, aggregate_ticks=PERF_READ_TICKS)
            errors[method].append(report.mean_error_percent)
    return {method: float(np.mean(values)) for method, values in errors.items()}


def accuracy_pass(inputs: Inputs, *, traced: bool = False) -> Accuracy:
    """One untimed run scored against ground truth.

    Synthetic workloads read BayesPerf's and Linux scaling's fleet-mean
    error from the run's ``ComparisonReport.mean_error_percent``; perf
    captures carry no ground truth of their own, so they are scored against
    the truth the benchmark generated them from.
    """
    if inputs.wal_path is not None and inputs.wal_path.exists():
        inputs.wal_path.unlink()
    tracer = Tracer() if traced else None
    try:
        if tracer is not None:
            install_layers(tracer)
        if inputs.truth:
            result = Pipeline.from_spec(inputs.spec).run()
        else:
            result = Pipeline.from_spec(replace(inputs.spec, baselines=("linux",))).run()
    finally:
        if tracer is not None:
            tracer.restore()
    if inputs.truth:
        errors = _perf_errors(inputs, result.slices)
    else:
        errors = {
            method: result.comparison.mean_error_percent(method)
            for method in ("bayesperf", "linux")
        }
    digest, finite = digest_slices(result.slices)
    return Accuracy(
        digest=digest,
        finite=finite,
        n_slices=len(result.slices),
        errors={method: [value] for method, value in errors.items()},
        tracer=tracer,
    )


def _probe(root: Path, script: str, *args: str) -> dict:
    """Run ``perfbench/<script>`` in a fresh process with ``src`` on the
    path and return the JSON object it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parent / script), *args],
        cwd=str(root),
        env=env,
        capture_output=True,
        text=True,
        timeout=150,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def accuracy_in_subprocess(root: Path, inputs: Inputs, workdir: Path) -> Accuracy:
    """The accuracy pass (with its extra instances) in a process of its own.

    Scoring keeps every slice and rebuilds ground truth per host, so run in
    the benchmark's process it could set ``peak_rss_mb`` instead of the
    timed runs.  The probe regenerates the inputs from the seed, and they
    must hash the same as *inputs*.
    """
    workdir.mkdir(exist_ok=True)
    found = _probe(
        root,
        "accuracy_probe.py",
        "--workload", inputs.name,
        "--seed", str(inputs.seed),
        "--workdir", str(workdir),
    )
    if found["inputs_sha256"] != inputs.digest:
        raise RuntimeError(
            f"accuracy probe generated inputs {found['inputs_sha256']}, expected {inputs.digest}"
        )
    return Accuracy(
        digest=found["digest"],
        finite=found["finite"],
        n_slices=found["n_slices"],
        errors=found["errors"],
        instances_sha256=found["instances_sha256"],
    )


def setup_seconds(root: Path, count: int) -> List[Tuple[float, float]]:
    """Set-up time of *count* fresh processes (``setup_probe.py``), each
    with the host factor of calibrations bracketing it."""
    times = []
    for _ in range(count):
        before = calibration_seconds()
        seconds = _probe(root, "setup_probe.py")["setup_s"]
        times.append((seconds, host_factor(before, calibration_seconds())))
    return times


def summarize_slices(slices) -> Tuple[float, int]:
    """Mean EP iterations per slice and the number of unconverged slices."""
    if not slices:
        return 0.0, 0
    iterations = sum(result.ep_iterations for result in slices) / len(slices)
    return iterations, sum(1 for result in slices if not result.ep_converged)


def traced_metrics(run: RunOutcome, cold: Optional[Tracer]) -> Dict[str, float]:
    """Per-layer metrics of one traced run.

    The schedule cache is process-wide and already warm by the time the
    repeats run, so the scheduling layer is read from the cold first run
    (*cold*) of the process instead.
    """
    metrics = per_layer_metrics(run.tracer, run.wall_s)
    if cold is not None:
        metrics["scheduling.build_s"] = cold.self_time["scheduling.build"]
        metrics["scheduling.builds"] = cold.calls["scheduling.build"]
    metrics["fg.ep_iterations_mean"] = run.ep_iterations_mean
    metrics["fg.unconverged"] = run.unconverged
    metrics["workers.engines_built"] = run.engine_cache.get("engines_built", 0)
    metrics["workers.cache_hits"] = run.engine_cache.get("hits", 0)
    metrics["wal.bytes_per_slice"] = run.wal_bytes / run.n_slices if run.n_slices else 0.0
    return metrics
