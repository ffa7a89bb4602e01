"""The fleet telemetry service: many concurrent BayesPerf corrections.

:class:`FleetService` is the facade over the whole subsystem: it owns the
event dispatcher, the ingestion layer and the worker pool, and exposes the
two-call workflow the examples and benchmarks use::

    service = FleetService("x86", metrics=("ipc", "l1d_mpki"), n_workers=4)
    for i in range(64):
        service.add_host(seed=i, n_ticks=8)
    result = service.run()
    print(result.slices_per_second, result.estimates["host-000"])

Hosts can be synthetic (driven by the simulated machine, like
:class:`~repro.core.session.PerfSession`) or replayed from recorded trace
files (:mod:`repro.fleet.tracefile`).  ``mode="serial"`` runs the same fleet
with per-host engine and schedule construction and no sharding — the
baseline the worker pool is benchmarked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.events.catalog import EventCatalog
from repro.events.profiles import standard_profiling_events
from repro.events.registry import canonical_arch, catalog_for
from repro.fg.mcmc import ChainTrace
from repro.fleet.events import EventDispatcher, EventProcessor, MetricsProcessor
from repro.fleet.ingest import FleetIngest, ReplayHostSource, SyntheticHostSource
from repro.fleet.tracefile import TraceFile, TraceWorkload, read_trace
from repro.fleet.workers import WorkerPool
from repro.obs.observer import Observer
from repro.pmu.noise import NoiseModel
from repro.pmu.traces import EstimateTrace
from repro.uarch.machine import MachineConfig
from repro.uarch.profile import WorkloadSpec
from repro.workloads.registry import get_workload

_MODES = ("pool", "serial")


@dataclass
class FleetResult:
    """Everything one fleet run produces."""

    mode: str
    n_hosts: int
    total_slices: int
    elapsed_seconds: float
    estimates: Dict[str, EstimateTrace] = field(default_factory=dict)
    dropped_records: Dict[str, int] = field(default_factory=dict)
    engine_cache: Dict[str, int] = field(default_factory=dict)
    metrics: Dict[str, int] = field(default_factory=dict)
    #: Hosts excised mid-run by an ``on_exhausted="quarantine"`` policy.
    quarantined: Tuple[str, ...] = ()
    #: The service's shared chain recorder (populated when the fleet ran a
    #: per-site MCMC estimator with one attached), ``None`` otherwise.
    chain_trace: Optional[ChainTrace] = None

    @property
    def slices_per_second(self) -> float:
        """Inference throughput of the run."""
        return self.total_slices / self.elapsed_seconds if self.elapsed_seconds > 0 else 0.0

    @property
    def total_dropped(self) -> int:
        return sum(self.dropped_records.values())


class FleetService:
    """Multi-host BayesPerf correction service.

    Parameters
    ----------
    arch:
        Default microarchitecture for synthetic hosts.
    metrics, events:
        Default monitored event set, resolved exactly like
        :class:`~repro.core.session.PerfSession` (standard profiling set when
        neither is given).
    n_workers, batch_size:
        Worker-pool sharding and per-host batch size.
    buffer_capacity:
        Per-host ingest ring-buffer capacity (backpressure threshold).
    pump_records:
        Records moved from each host's source per ingestion round.  Defaults
        to ``batch_size`` so a keeping-up consumer never sees drops; raise it
        (or shrink the buffer) to exercise backpressure.
    samples_per_tick, noise, machine_config, engine_kwargs:
        Forwarded to the underlying PMU, machine and engine models.
    estimator:
        Optional :class:`~repro.api.EstimatorSpec` selecting a registered
        moment estimator and its sampling effort — the preferred front door
        for estimator configuration (explicit ``engine_kwargs`` entries
        still win).
    recorder:
        Chain-trace capture: a :class:`~repro.api.RecorderSpec` (optionally
        naming a tracefile ``sink`` that streaming runs flush to
        incrementally) or a ready-made :class:`~repro.fg.mcmc.ChainTrace`
        shared by every engine the pool builds.  With the ``"mcmc"``
        estimator it captures the whole fleet's per-site chain schedule,
        and the run's :class:`FleetResult.chain_trace` points back at it —
        the measured workload the :mod:`repro.accelerator` co-simulation
        consumes.
    observer:
        Optional observability bundle: a :class:`repro.obs.Observer` or a
        :class:`~repro.api.ObserverSpec` (built on the spot).  When present
        it is threaded through the worker pool and every engine — spans
        over rounds/slices/kernel stages, the metrics registry — and the
        drive loop runs the end-of-run chain-health analysis.  ``None``
        (the default) leaves the hot path untouched.
    processors:
        Extra :class:`~repro.fleet.events.EventProcessor`s attached to the
        event stream (a :class:`~repro.fleet.events.MetricsProcessor` is
        always attached and feeds :class:`FleetResult.metrics`).
    """

    def __init__(
        self,
        arch: str = "x86",
        *,
        metrics: Optional[Sequence[str]] = None,
        events: Optional[Sequence[str]] = None,
        n_workers: int = 4,
        batch_size: int = 8,
        buffer_capacity: int = 256,
        pump_records: Optional[int] = None,
        samples_per_tick: int = 4,
        noise: Optional[NoiseModel] = None,
        machine_config: Optional[MachineConfig] = None,
        engine_kwargs: Optional[Dict] = None,
        estimator=None,
        recorder=None,
        observer=None,
        fault_policy=None,
        chaos=None,
        processors: Sequence[EventProcessor] = (),
    ) -> None:
        self.arch = canonical_arch(arch)
        self.catalog: EventCatalog = catalog_for(self.arch)
        self._explicit_events: Optional[Tuple[str, ...]] = (
            tuple(events) if events is not None else None
        )
        self._metrics: Optional[Tuple[str, ...]] = (
            tuple(metrics) if metrics is not None else None
        )
        self.events: Tuple[str, ...] = self._resolve_events(self.catalog, None)
        self.n_workers = n_workers
        self.batch_size = batch_size
        # Each inference round drains up to batch_size records per host, so a
        # larger default pump rate would overflow any long stream's buffer
        # even when the consumer keeps up.
        self.pump_records = pump_records if pump_records is not None else batch_size
        self.samples_per_tick = samples_per_tick
        self.noise = noise
        self.machine_config = machine_config
        self.engine_kwargs = dict(engine_kwargs) if engine_kwargs else {}
        if estimator is not None:
            # An EstimatorSpec (anything exposing engine_kwargs()): resolved
            # through the fg registry; explicit engine_kwargs entries win.
            for key, value in estimator.engine_kwargs().items():
                self.engine_kwargs.setdefault(key, value)
        #: Streaming tracefile path chain records are flushed to (set by a
        #: RecorderSpec with a sink; consumed by Pipeline.stream()).
        self.chain_sink: Optional[str] = None
        if recorder is not None:
            if isinstance(recorder, ChainTrace):
                trace = recorder
            else:  # a RecorderSpec
                trace = recorder.build()
                self.chain_sink = recorder.sink
            self.engine_kwargs.setdefault("chain_recorder", trace)
        #: The recorder the engines will actually share (an explicit
        #: engine_kwargs entry wins over the recorder parameter).
        self.chain_recorder = self.engine_kwargs.get("chain_recorder")
        #: The run's observability bundle (``None`` = observers off).
        if observer is not None and not isinstance(observer, Observer):
            observer = observer.build()  # an ObserverSpec
        self.observer: Optional[Observer] = observer
        if observer is not None:
            if observer.estimates and self.chain_sink is None:
                raise ValueError(
                    "ObserverSpec(estimates=True) streams per-slice estimate "
                    "records into the trace sink; configure "
                    "recorder=RecorderSpec(sink=...) too"
                )
            # Engines share the same observer instance, so kernel-stage spans
            # and cache counters land in the run's tracer/registry.
            self.engine_kwargs.setdefault("observer", observer)
        #: Retry/timeout/quarantine policy enforced around every worker
        #: solve (a :class:`~repro.fleet.faults.FaultPolicySpec`); ``None``
        #: (the default) keeps the hot path byte-identical.
        self.fault_policy = fault_policy
        #: Fault injector (:class:`~repro.fleet.chaos.FaultInjector`) for
        #: tests and demos: wraps host sources at pool build time and is
        #: probed by the workers around every solve attempt.
        self.chaos = chaos

        self.metrics_processor = MetricsProcessor()
        self.dispatcher = EventDispatcher([self.metrics_processor, *processors])
        self.ingest = FleetIngest(
            buffer_capacity=buffer_capacity, dispatcher=self.dispatcher
        )
        self._hosts: Dict[str, Tuple[str, Tuple[str, ...]]] = {}
        self._ran = False

    # -- host registration --------------------------------------------------

    def _resolve_events(
        self, catalog: EventCatalog, events: Optional[Sequence[str]]
    ) -> Tuple[str, ...]:
        """Monitored events for one host, resolved against *its* catalog.

        Metric selections are re-derived per catalog so a host that overrides
        ``arch`` monitors that architecture's counterpart events; explicit
        event names are validated eagerly so a misconfigured host fails at
        registration, not mid-run.
        """
        if events is not None:
            resolved = tuple(events)
        elif self._explicit_events is not None:
            resolved = self._explicit_events
        elif self._metrics is not None:
            resolved = catalog.events_for_derived(self._metrics)
        else:
            resolved = standard_profiling_events(catalog)
        for name in resolved:
            catalog.get(name)  # raises KeyError naming the offending event
        return resolved

    def _next_host_id(self) -> str:
        return f"host-{len(self._hosts):03d}"

    def add_host(
        self,
        workload: Union[str, WorkloadSpec, TraceWorkload] = "steady",
        *,
        host_id: Optional[str] = None,
        seed: Optional[int] = None,
        n_ticks: Optional[int] = None,
        arch: Optional[str] = None,
        events: Optional[Sequence[str]] = None,
    ) -> str:
        """Register one host; returns its id.

        *workload* may be a registered workload name (including replayable
        trace workloads), a :class:`WorkloadSpec`, or a
        :class:`TraceWorkload`.  Synthetic hosts simulate ``n_ticks`` quanta
        with the given seed; replayed hosts stream their recorded records
        (and therefore reject ``seed``/``n_ticks``/``arch``/``events``
        overrides).
        """
        if self._ran:
            raise RuntimeError("cannot add hosts after run()")
        host_id = host_id if host_id is not None else self._next_host_id()
        spec = get_workload(workload) if isinstance(workload, str) else workload
        if isinstance(spec, TraceWorkload):
            overridden = [
                name
                for name, value in (
                    ("seed", seed), ("n_ticks", n_ticks), ("arch", arch), ("events", events)
                )
                if value is not None
            ]
            if overridden:
                raise ValueError(
                    f"replayed trace workload {spec.name!r} streams its recorded "
                    f"records; {', '.join(overridden)} cannot be overridden"
                )
            return self.add_trace(spec.trace, host_id=host_id, workload_name=spec.name)
        if not isinstance(spec, WorkloadSpec):
            raise TypeError(f"cannot build a fleet host from {type(spec).__name__}")
        host_arch = canonical_arch(arch) if arch is not None else self.arch
        host_events = self._resolve_events(catalog_for(host_arch), events)
        source = SyntheticHostSource(
            host_id,
            spec,
            arch=host_arch,
            events=host_events,
            n_ticks=n_ticks,
            seed=seed if seed is not None else 0,
            samples_per_tick=self.samples_per_tick,
            noise=self.noise,
            machine_config=self.machine_config,
        )
        self.ingest.add(source)
        self._hosts[host_id] = (host_arch, host_events)
        return host_id

    def add_trace(
        self,
        trace: Union[str, Path, TraceFile],
        *,
        host_id: Optional[str] = None,
        workload_name: str = "",
    ) -> str:
        """Register a host that replays a recorded trace (path or object)."""
        if self._ran:
            raise RuntimeError("cannot add hosts after run()")
        if not isinstance(trace, TraceFile):
            trace = read_trace(trace)
        host_id = host_id if host_id is not None else self._next_host_id()
        source = ReplayHostSource(host_id, trace, workload_name=workload_name)
        self.ingest.add(source)
        self._hosts[host_id] = (source.arch or self.arch, source.events)
        return host_id

    def add_perf(
        self,
        path: Union[str, Path],
        *,
        format: str = "auto",
        host_id: Optional[str] = None,
        arch: Optional[str] = None,
        events: Optional[Sequence[str]] = None,
        on_unknown: str = "raise",
    ) -> str:
        """Register a host that replays a real perf capture.

        *path* names a ``perf stat -I ... -x,`` CSV, ``perf script``
        output, or JSONL counter dump (*format* selects, ``"auto"``
        sniffs); the capture is parsed, schema-mapped onto *arch*'s event
        catalog and lowered to a deterministic record stream at
        registration time (:class:`~repro.perfio.PerfTraceSource`), so a
        bad capture fails here, not mid-run.  *events* optionally
        restricts monitoring to a canonical-event subset; *on_unknown*
        is the mapper's unknown-event policy (``"raise"``/``"skip"``).
        """
        from repro.perfio.source import PerfTraceSource

        if self._ran:
            raise RuntimeError("cannot add hosts after run()")
        host_id = host_id if host_id is not None else self._next_host_id()
        host_arch = canonical_arch(arch) if arch is not None else self.arch
        source = PerfTraceSource(
            host_id,
            path,
            format=format,
            arch=host_arch,
            events=tuple(events) if events is not None else None,
            on_unknown=on_unknown,
        )
        self.ingest.add(source)
        self._hosts[host_id] = (host_arch, source.events)
        return host_id

    @property
    def n_hosts(self) -> int:
        return len(self._hosts)

    # -- execution ----------------------------------------------------------

    def _build_pool(self, mode: str) -> WorkerPool:
        """Validate the run, mark the service consumed and shard the hosts.

        The drive loop itself lives in :class:`repro.api.Pipeline`; this is
        the service's half of the contract — everything that depends on the
        registration state.
        """
        if mode not in _MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {_MODES}")
        if not self._hosts:
            raise RuntimeError("add at least one host before run()")
        if self._ran:
            raise RuntimeError("a FleetService instance runs once; build a new one")
        self._ran = True

        share = mode == "pool"
        pool = WorkerPool(
            self.n_workers if share else 1,
            dispatcher=self.dispatcher,
            batch_size=self.batch_size,
            share_engines=share,
            engine_kwargs=self.engine_kwargs,
            observer=self.observer,
            fault_policy=self.fault_policy,
            chaos=self.chaos,
        )
        if self.chaos is not None:
            # Scheduled record corruption: proxy each host's source before
            # any iterator is opened.
            for channel in self.ingest.channels:
                channel.source = self.chaos.wrap_source(channel.source)
        if not share:
            # The serial baseline also pays the per-host schedule build.
            for channel in self.ingest.channels:
                source = channel.source
                if isinstance(source, SyntheticHostSource):
                    source.use_schedule_cache = False
        for channel in self.ingest.channels:
            host_arch, host_events = self._hosts[channel.host_id]
            pool.assign(channel, arch=host_arch, events=host_events)
        return pool

    def _build_result(
        self, mode: str, total: int, elapsed: float, pool: WorkerPool
    ) -> FleetResult:
        """Assemble the :class:`FleetResult` for one completed drive loop."""
        return FleetResult(
            mode=mode,
            n_hosts=self.n_hosts,
            total_slices=total,
            elapsed_seconds=elapsed,
            estimates=pool.estimates(),
            dropped_records=self.ingest.drop_report(),
            engine_cache=pool.cache_stats(),
            metrics=self.metrics_processor.summary(),
            quarantined=pool.quarantined_hosts(),
            # The recorder the engines actually used: an explicit
            # engine_kwargs entry wins over the service-level parameter.
            chain_trace=self.chain_recorder,
        )

    def run(self, mode: str = "pool") -> FleetResult:
        """Drive every host's stream through inference until drained.

        ``mode="pool"`` shards hosts across the configured workers and shares
        cached engines/schedules per (arch, event-set) key; ``mode="serial"``
        runs a single worker that constructs a dedicated engine and schedule
        per host (the pre-fleet baseline).  Estimates are identical in both
        modes; only throughput differs.

        This is a thin shim over :class:`repro.api.Pipeline` — the unified
        drive loop — collecting everything into a :class:`FleetResult`.
        Use ``Pipeline.from_spec(...).stream()`` (or ``Pipeline(service)``)
        for incremental per-slice results and bounded-memory chain capture.
        """
        from repro.api.pipeline import Pipeline  # local import: api sits above fleet

        return Pipeline(self, mode=mode).run_fleet()
