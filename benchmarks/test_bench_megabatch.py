"""Benchmark: cross-signature mega-batching on a heterogeneous 64-host fleet.

Every host monitors its own random subset of the 44-event profiling union,
and the schedule rotation is phase-shifted per host, so a fleet round
fragments into ~50 distinct measured-event signatures per tick (~150 over
three ticks, churning every tick).  Two measurements:

* ``solve`` — the solve stage cold, the path mega-batching rewrites: a
  fresh engine per timed round (signature churn means per-signature kernels
  are *not* amortisable across a realistic fleet round) driven through the
  public ``process_batch`` from fresh host states, so the vectorized
  prepare/finalize both modes share rides inside the timed region.
  ``fragmented`` compiles + solves one per-signature batch per group;
  ``megabatch`` compiles one canonical full-width structure and solves the
  whole round in one kernel call per tick.  Acceptance: >= 3x.
* ``fleet`` — the same fleet end-to-end through ``process_batch`` with warm
  engines, default EP settings and each host's temporal chain carried
  across ticks; the shared prepare/finalize work bounds this ratio below
  the solve-stage win (Amdahl), so the acceptance bar is an honest >= 1.2x.

Both modes must agree **exactly** (padded lanes are bit-exact no-ops) —
the differential suite in ``tests/test_megabatch.py`` pins that property
broadly; this bench re-asserts it on every measured round.

Results merge into ``BENCH_ep.json`` under a ``megabatch`` section with
its own nested workload blocks (the regression gate flattens every
``slices_per_second`` leaf, so these keys ride the same >30% gate as the
homogeneous ones without clobbering their metadata).
"""

import time

import numpy as np
import pytest

from bench_io import merge_bench_entries
from repro.core.engine import BayesPerfEngine
from repro.events.profiles import standard_profiling_events
from repro.events.registry import catalog_for
from repro.pmu.sampling import MultiplexedSampler
from repro.scheduling.cache import cached_schedule
from repro.uarch.machine import Machine, MachineConfig
from repro.workloads.registry import get_workload

N_HOSTS = 64
TICKS = 3
#: Damped EP converges geometrically (delta ~ (1-eta)^k), reaching the 1e-6
#: tolerance at 16 sweeps — a realistic robustness setting that also keeps
#: every record converging rather than stopping after one sweep.
EP_DAMPING = 0.6
EP_ITERATIONS = 16
ROUNDS = 2  # initial timed rounds per mode; best-of is compared
MAX_ROUNDS = 6  # escalation ceiling when a loaded machine makes timing noisy


def _hetero_fleet():
    """Sampled records for a fleet of heterogeneous event subsets.

    Host ``h`` monitors a seeded random subset (12-44 events) of the
    44-event union and starts ``h mod R`` positions into its schedule
    rotation, so signatures churn across hosts *and* ticks.
    """
    catalog = catalog_for("x86")
    union = standard_profiling_events(catalog, n_events=44)
    spec = get_workload("steady")
    hosts = []
    for host in range(N_HOSTS):
        rng = np.random.default_rng(1000 + host)
        size = int(rng.integers(12, 45))
        subset = tuple(
            union[i] for i in sorted(rng.choice(len(union), size=size, replace=False))
        )
        schedule = cached_schedule(catalog, subset)
        offset = host % len(schedule.configurations)
        trace = Machine(MachineConfig(), spec, seed=host).run(offset + TICKS)
        sampled = MultiplexedSampler(
            catalog, schedule, seed=host + 1, samples_per_tick=4
        )
        hosts.append((subset, sampled.sample(trace).records[offset : offset + TICKS]))
    return catalog, union, hosts


def _fresh_rounds(hosts):
    """Per tick, every host's record from a fresh state — both modes' input."""
    return [[(None, records[tick]) for _, records in hosts] for tick in range(TICKS)]


def _solve_cold(catalog, union, rounds, megabatch):
    """One cold engine solving every round through ``process_batch``.

    ``megabatch=False`` compiles + solves one per-signature batch per
    group (fragmented); ``megabatch=True`` compiles one canonical structure
    and solves each round in one kernel call.
    """
    engine = BayesPerfEngine(
        catalog,
        union,
        ep_damping=EP_DAMPING,
        ep_max_iterations=EP_ITERATIONS,
        megabatch=megabatch,
    )
    start = time.perf_counter()
    results = [
        [report.means() for report, _ in engine.process_batch(items)]
        for items in rounds
    ]
    return time.perf_counter() - start, results


def _run_fleet(engine, hosts):
    """End-to-end heterogeneous fleet round via ``process_batch``."""
    states = [None] * len(hosts)
    estimates = [[] for _ in hosts]
    start = time.perf_counter()
    for slot in range(TICKS):
        items = [(states[h], records[slot]) for h, (_, records) in enumerate(hosts)]
        for h, (report, state) in enumerate(engine.process_batch(items)):
            states[h] = state
            estimates[h].append(report.means())
    return time.perf_counter() - start, estimates


@pytest.mark.benchmark(group="megabatch")
def test_bench_megabatch_solve_stage(benchmark):
    catalog, union, hosts = _hetero_fleet()
    rounds = _fresh_rounds(hosts)
    signatures = {tuple(record.samples) for items in rounds for _, record in items}
    total_slices = sum(len(items) for items in rounds)
    timings = {"fragmented": [], "megabatch": []}
    results = {}

    def _best(mode):
        return min(timings[mode])

    def compare():
        for _ in range(ROUNDS):
            for mode in ("fragmented", "megabatch"):
                elapsed, results[mode] = _solve_cold(
                    catalog, union, rounds, megabatch=mode == "megabatch"
                )
                timings[mode].append(elapsed)
        while (
            _best("fragmented") / _best("megabatch") <= 3.0
            and len(timings["megabatch"]) < MAX_ROUNDS
        ):
            for mode in ("fragmented", "megabatch"):
                elapsed, results[mode] = _solve_cold(
                    catalog, union, rounds, megabatch=mode == "megabatch"
                )
                timings[mode].append(elapsed)
        return timings

    benchmark.pedantic(compare, iterations=1, rounds=1)

    # Bit-identity: the mega-batched posterior means equal the fragmented
    # per-signature ones exactly, record for record.
    assert len(results["fragmented"]) == len(results["megabatch"]) == TICKS
    assert results["fragmented"] == results["megabatch"], (
        "mega-batched solve drifted from per-signature solve"
    )

    throughput = {mode: total_slices / _best(mode) for mode in timings}
    speedup = throughput["megabatch"] / throughput["fragmented"]

    print(
        f"\nmega-batch solve — {N_HOSTS} hetero hosts x {TICKS} ticks "
        f"({total_slices} slices, {len(signatures)} signatures)"
    )
    for mode in timings:
        print(
            f"  {mode:10s}: {throughput[mode]:8.1f} slices/s "
            f"(best of {len(timings[mode])} rounds)"
        )
    print(f"  megabatch speedup vs fragmented: {speedup:.2f}x")

    merge_bench_entries(
        {
            "megabatch": {
                "benchmark": "megabatch-hetero",
                "workload": {
                    "arch": "x86",
                    "n_hosts": N_HOSTS,
                    "ticks_per_host": TICKS,
                    "total_slices": total_slices,
                    "union_events": len(union),
                    "distinct_signatures": len(signatures),
                },
                "solve": {
                    "workload": {
                        "ep_damping": EP_DAMPING,
                        "ep_iterations": EP_ITERATIONS,
                        "cold_engines": True,
                    },
                    "slices_per_second": {
                        mode: round(throughput[mode], 2) for mode in timings
                    },
                    "speedup_megabatch_vs_fragmented": round(speedup, 2),
                    "rounds": {mode: len(timings[mode]) for mode in timings},
                },
            }
        }
    )

    assert speedup >= 3.0, (
        f"mega-batched solve only {speedup:.2f}x the fragmented baseline (need >= 3x)"
    )


@pytest.mark.benchmark(group="megabatch")
def test_bench_megabatch_fleet_end_to_end(benchmark):
    catalog, union, hosts = _hetero_fleet()
    engines = {
        "fragmented": BayesPerfEngine(catalog, union),
        "megabatch": BayesPerfEngine(catalog, union, megabatch=True),
    }
    total_slices = N_HOSTS * TICKS
    timings = {mode: [] for mode in engines}
    estimates = {}

    def _best(mode):
        return min(timings[mode])

    def compare():
        for _ in range(ROUNDS):
            for mode, engine in engines.items():
                elapsed, estimates[mode] = _run_fleet(engine, hosts)
                timings[mode].append(elapsed)
        while (
            _best("fragmented") / _best("megabatch") <= 1.2
            and len(timings["megabatch"]) < MAX_ROUNDS
        ):
            for mode, engine in engines.items():
                elapsed, estimates[mode] = _run_fleet(engine, hosts)
                timings[mode].append(elapsed)
        return timings

    benchmark.pedantic(compare, iterations=1, rounds=1)

    # End-to-end bit-identity between the two engine modes.
    assert estimates["fragmented"] == estimates["megabatch"]

    throughput = {mode: total_slices / _best(mode) for mode in engines}
    speedup = throughput["megabatch"] / throughput["fragmented"]

    print(
        f"\nmega-batch fleet — {N_HOSTS} hetero hosts x {TICKS} ticks "
        f"({total_slices} slices end-to-end)"
    )
    for mode in engines:
        print(
            f"  {mode:10s}: {throughput[mode]:8.1f} slices/s "
            f"(best of {len(timings[mode])} rounds)"
        )
    print(f"  megabatch speedup vs fragmented: {speedup:.2f}x")

    merge_bench_entries(
        {
            "megabatch": {
                "fleet": {
                    "workload": {"engine_defaults": True, "warm_engines": True},
                    "slices_per_second": {
                        mode: round(throughput[mode], 2) for mode in engines
                    },
                    "speedup_megabatch_vs_fragmented": round(speedup, 2),
                    "rounds": {mode: len(timings[mode]) for mode in engines},
                }
            }
        }
    )

    # The end-to-end ratio is Amdahl-bounded by the shared per-record
    # prepare/finalize Python; the solve-stage bench carries the 3x bar.
    assert speedup >= 1.2, (
        f"end-to-end mega-batching only {speedup:.2f}x fragmented (need >= 1.2x)"
    )
