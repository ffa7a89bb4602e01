"""Per-layer tracing from outside the program: wrap each layer's entry points.

:class:`Tracer` patches public entry points of the pipeline's layers
(``Machine.run``, ``MultiplexedSampler.sample``, ``process_batch``, ...)
with wrappers that open a span around the original call, and restores every
original on exit.  Spans nest on one stack, so each span's *self* time is
its duration minus the time its child spans covered; the per-layer metrics
are sums of self times, which add up to the traced wall time minus whatever
no named span covered (reported as ``api.unattributed_s``).

The stack is not thread-safe: the benchmark refuses to run with kernel
threads enabled, so every wrapped call happens on the main thread.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "install_layers", "per_layer_metrics"]


class Tracer:
    """Span stack plus per-name self time, inclusive time and counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Open spans: [name, start, time covered by finished children].
        self._stack: List[list] = []
        self.self_time: Dict[str, float] = defaultdict(float)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        frame = [name, self.clock(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            elapsed = self.clock() - frame[1]
            self.inclusive[name] += elapsed
            self.self_time[name] += elapsed - frame[2]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][2] += elapsed

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    # -- patching ------------------------------------------------------------

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        on_return: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        *on_return* ``(tracer, args, kwargs, result)`` runs after each call,
        outside the span, to record counts.  Plain functions, methods,
        classmethods and staticmethods are supported; :meth:`restore` puts the exact original
        object back.
        """
        raw = vars(owner)[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        function = raw.__func__ if kind is not None else raw
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = function(*args, **kwargs)
            if on_return is not None:
                on_return(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = function
        wrapper.__name__ = getattr(function, "__name__", attr)
        wrapper.__qualname__ = getattr(function, "__qualname__", attr)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)

    def restore(self) -> None:
        """Put every patched original back, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry point of every pipeline layer."""
    import repro.core.engine as engine_module
    import repro.fleet.ingest as ingest_module
    import repro.scheduling.cache as schedule_module
    from repro.api import Pipeline
    from repro.core.engine import BayesPerfEngine
    from repro.fg.compiled import CompiledEPKernel
    from repro.fleet.events import EventDispatcher
    from repro.fleet.ingest import FleetIngest
    from repro.fleet.tracefile import TraceWriter
    from repro.fleet.workers import InferenceWorker
    from repro.perfio.source import PerfTraceSource
    from repro.pmu.sampling import MultiplexedSampler
    from repro.uarch.machine import Machine

    def pumped(t, args, kwargs, result):
        t.count("api.rounds")
        t.count("ingest.records", sum(stats.accepted for stats in result.values()))
        t.count("ingest.dropped", sum(stats.dropped for stats in result.values()))

    def parsed(t, args, kwargs, result):
        stats = args[0].stats
        t.count("perfio.lines", stats.total_lines)
        t.count("perfio.skipped_lines", stats.skipped_lines)
        t.count("perfio.not_counted", stats.not_counted)

    def batched(t, args, kwargs, result):
        t.count("engine.batch_records", len(result))

    def solved(t, args, kwargs, result):
        shift = args[3] if len(args) > 3 else kwargs["prior_shift"]
        t.count("fg.solve_records", shift.shape[0])

    def sampled(t, args, kwargs, result):
        t.count("pmu.records", len(result.records))

    tracer.wrap(Pipeline, "from_spec", "api.from_spec")
    tracer.wrap(Machine, "run", "uarch.machine_run")
    tracer.wrap(MultiplexedSampler, "sample", "pmu.sample", sampled)
    # cached_schedule calls the module-level name; serial-mode sources call
    # the name ingest imported.
    tracer.wrap(schedule_module, "build_schedule", "scheduling.build")
    tracer.wrap(ingest_module, "build_schedule", "scheduling.build")
    tracer.wrap(FleetIngest, "pump_all", "ingest.pump", pumped)
    tracer.wrap(PerfTraceSource, "__init__", "perfio.source", parsed)
    tracer.wrap(InferenceWorker, "process_available", "workers.process")
    tracer.wrap(BayesPerfEngine, "__init__", "engine.build")
    tracer.wrap(BayesPerfEngine, "process_batch", "engine.batch", batched)
    tracer.wrap(CompiledEPKernel, "run_stacked", "fg.solve", solved)
    tracer.wrap(engine_module, "compile_factor_graph", "fg.compile")
    tracer.wrap(EventDispatcher, "emit", "events.emit")
    tracer.wrap(TraceWriter, "write_estimate", "wal.write")
    tracer.wrap(TraceWriter, "write_checkpoint", "wal.write")
    tracer.wrap(TraceWriter, "commit_checkpoint", "wal.commit")


#: Span names whose self time is *not* attributed to a layer: the
#: benchmark's own root span and the drive loop between layer calls.
ROOT_SPANS = ("bench.run", "api.run")


def per_layer_metrics(tracer: Tracer, wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced run (the ``*_s`` keys are self times,
    except the two ``api`` entry points, which are inclusive)."""
    own = tracer.self_time
    calls = tracer.calls
    counts = tracer.counts
    unattributed = sum(own[name] for name in ROOT_SPANS)
    lines = counts["perfio.lines"]
    solves = calls["fg.solve"]
    batches = calls["engine.batch"]
    return {
        "api.from_spec_s": tracer.inclusive["api.from_spec"],
        "api.run_s": tracer.inclusive["api.run"],
        "api.rounds": counts["api.rounds"],
        "api.unattributed_s": unattributed,
        "uarch.machine_run_s": own["uarch.machine_run"],
        "uarch.machine_runs": calls["uarch.machine_run"],
        "pmu.sample_s": own["pmu.sample"],
        "pmu.records": counts["pmu.records"],
        "scheduling.build_s": own["scheduling.build"],
        "scheduling.builds": calls["scheduling.build"],
        "ingest.pump_s": own["ingest.pump"],
        "ingest.records": counts["ingest.records"],
        "ingest.dropped": counts["ingest.dropped"],
        "perfio.source_s": own["perfio.source"],
        "perfio.lines": lines,
        "perfio.lines_per_s": (
            lines / own["perfio.source"] if own["perfio.source"] > 0 else 0.0
        ),
        "perfio.skipped_lines": counts["perfio.skipped_lines"],
        "perfio.not_counted": counts["perfio.not_counted"],
        "workers.process_s": own["workers.process"],
        "engine.batch_s": own["engine.batch"],
        "engine.batch_calls": batches,
        "engine.batch_records": counts["engine.batch_records"],
        "engine.batch_occupancy": (
            counts["engine.batch_records"] / batches if batches else 0.0
        ),
        "engine.build_s": own["engine.build"],
        "fg.solve_s": own["fg.solve"],
        "fg.solve_calls": solves,
        "fg.records_per_solve": counts["fg.solve_records"] / solves if solves else 0.0,
        "fg.compile_s": own["fg.compile"],
        "fg.compiles": calls["fg.compile"],
        "events.emit_s": own["events.emit"],
        "events.emitted": calls["events.emit"],
        "wal.write_s": own["wal.write"],
        "wal.commit_s": own["wal.commit"],
        "wal.commits": calls["wal.commit"],
        "trace.coverage": 1.0 - unattributed / wall_s if wall_s > 0 else 0.0,
    }
