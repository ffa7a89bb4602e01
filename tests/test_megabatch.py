"""Cross-signature mega-batching, locked down.

The mega-batched solve (:mod:`repro.fg.megabatch`) replaces many
per-signature batched kernel calls with one canonical padded call whenever
an analytic batch holds two or more certified signature groups.  It sits on
the hottest numeric path, so its contract is **bit-identity**, not
closeness:

* mega-batched posteriors == per-signature batched posteriors (one
  ``process_batch`` call per measured-event signature), exactly, on
  hypothesis-randomized heterogeneous fleets and on a pipeline run over
  real perf captures — and both match the object-walking reference twin
  within 1e-6;
* the PD repair composes: merged batches re-probe at original group
  granularity, so a group that passes its own Cholesky probe is never
  spuriously repaired by a failing neighbour.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from per_signature import solve_per_signature
from repro.core.engine import BayesPerfEngine
from repro.obs import MetricsRegistry, Observer
from repro.events.profiles import standard_profiling_events
from repro.events.registry import catalog_for
from repro.fg import (
    CompiledEPKernel,
    FactorGraph,
    GaussianObservation,
    LinearConstraintFactor,
    compile_factor_graph,
    observation_certified,
    padding_slots,
)
from repro.api import EstimatorSpec, HostSpec, ObserverSpec, Pipeline, RunSpec
from repro.fg.ep import EPSite
from repro.perfio.source import PerfTraceSource
from repro.pmu.sampling import MultiplexedSampler
from repro.pmu.traces import EstimateTrace
from repro.scheduling.cache import cached_schedule
from repro.uarch.machine import Machine, MachineConfig
from repro.workloads.registry import get_workload

TOLERANCE = 1e-6
PERF_STAT_FIXTURE = Path(__file__).parent / "fixtures" / "perf_stat_interval.csv"

CATALOG = catalog_for("x86")
UNION = standard_profiling_events(CATALOG, n_events=12)


def _gap(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


def _record_for(subset, seed, rotation=0):
    """One sampled record for a host monitoring *subset* of the union."""
    schedule = cached_schedule(CATALOG, tuple(subset))
    offset = rotation % len(schedule.configurations)
    trace = Machine(MachineConfig(), get_workload("steady"), seed=seed).run(offset + 1)
    sampler = MultiplexedSampler(CATALOG, schedule, seed=seed + 1, samples_per_tick=4)
    return sampler.sample(trace).records[offset]


def _rows(results):
    """(means, stds, iterations, converged) per ``(report, state)`` result."""
    return [
        (report.means(), report.stds(), report.ep_iterations, report.ep_converged)
        for report, _ in results
    ]


def _solve_batch(engine, records):
    """Fresh-state solve of *records* in one ``process_batch`` call."""
    return _rows(engine.process_batch([(None, record) for record in records]))


def _solve_fragmented(engine, records):
    """Fresh-state solve, one ``process_batch`` call per signature."""
    return _rows(solve_per_signature(engine, [(None, record) for record in records]))


@st.composite
def _hetero_fleet(draw):
    """A small fleet of hosts with randomized measured-event subsets.

    Union indices 0-1 are the fixed counters (INST_RETIRED / CPU_CLK); the
    overlap scheduler requires at least one *programmable* event, so every
    subset draws from index 2 up and mixes the fixed pair in freely.
    """
    n_hosts = draw(st.integers(min_value=3, max_value=5))
    subsets = [
        sorted(
            draw(
                st.sets(st.integers(2, len(UNION) - 1), min_size=1)
            )
            | draw(st.sets(st.integers(0, 1)))
        )
        for _ in range(n_hosts)
    ]
    rotations = [draw(st.integers(0, 3)) for _ in range(n_hosts)]
    return [
        _record_for([UNION[i] for i in subset], seed=17 * host, rotation=rotation)
        for host, (subset, rotation) in enumerate(zip(subsets, rotations))
    ]


class TestMegabatchDifferential:
    """Mega-batch == per-signature batched, bit for bit; twin within 1e-6."""

    @given(records=_hetero_fleet())
    @settings(max_examples=8, deadline=None)
    def test_megabatch_is_bit_identical_and_tracks_the_twin(self, records):
        fragmented = _solve_fragmented(BayesPerfEngine(CATALOG, UNION), records)
        megabatched = _solve_batch(BayesPerfEngine(CATALOG, UNION), records)
        assert megabatched == fragmented

        twin = BayesPerfEngine(CATALOG, UNION, use_compiled_kernel=False)
        for record, (means, stds, _, _) in zip(records, megabatched):
            twin.reset()
            report = twin.process_record(record)
            want_means, want_stds = report.means(), report.stds()
            for event in want_means:
                assert _gap(means[event], want_means[event]) < TOLERANCE
                assert _gap(stds[event], want_stds[event]) < TOLERANCE

    @staticmethod
    def _megabatch_rounds(engine_kwargs, records):
        """Canonical solves one ``process_batch`` call over fresh hosts ran."""
        observer = Observer(metrics=MetricsRegistry())
        engine = BayesPerfEngine(CATALOG, UNION, observer=observer, **engine_kwargs)
        engine.process_batch([(None, record) for record in records])
        return observer.metrics.counter("kernel.megabatch.rounds").value

    def test_megabatch_path_actually_engages(self):
        """The equality above must not be vacuous: the canonical solve runs."""
        subsets = [UNION[:5], UNION[4:10], UNION[2:9], UNION[:5]]
        records = [
            _record_for(subset, seed=31 * host) for host, subset in enumerate(subsets)
        ]
        signatures = {tuple(record.samples) for record in records}
        assert len(signatures) >= 2, "fleet must be heterogeneous for this test"
        assert self._megabatch_rounds({}, records) == 1, (
            "mega-batch eligibility must engage here"
        )

    def test_never_merges_one_signature_or_non_merging_paths(self):
        records = [_record_for(UNION[:5], seed=3), _record_for(UNION[4:10], seed=5)]
        assert self._megabatch_rounds({}, records) == 1
        sampling = {
            "moment_estimator": "batched-mcmc",
            "mcmc_samples": 10,
            "mcmc_burn_in": 5,
        }
        for engine_kwargs in (sampling, {"use_compiled_kernel": False}):
            assert self._megabatch_rounds(engine_kwargs, records) == 0
        same_signature = [_record_for(UNION[:5], seed=seed) for seed in (3, 5, 7)]
        assert self._megabatch_rounds({}, same_signature) == 0


class TestRepairGroupComposition:
    """The PD repair probe is per *call*; merged calls must re-probe per group.

    A numerically rank-deficient site matrix can pass its own group's
    Cholesky probe while its smallest eigenvalue rounds to <= 0.  Merged
    into one batch with a genuinely failing group, a whole-batch repair
    would bump it by ~1e-9 — a real posterior drift the per-signature path
    never sees.  ``repair_groups`` pins the probe to original-group
    granularity.
    """

    def _kernel(self):
        variables = [f"v{i}" for i in range(6)]
        graph = FactorGraph(variables=variables)
        names = []
        for v in variables:
            graph.add_factor(GaussianObservation(f"obs_{v}", v, observed=1.0, sigma=1.0))
            names.append(f"obs_{v}")
        graph.add_factor(
            LinearConstraintFactor("rel_0", {v: 1.0 for v in variables}, sigma=0.5)
        )
        sites = [EPSite("obs", tuple(names)), EPSite("rel", ("rel_0",))]
        structure = compile_factor_graph(graph, sites, variables)
        assert structure is not None
        return CompiledEPKernel(structure, damping=1.0)

    def _trigger_matrix(self):
        """A 6x6 matrix that passes Cholesky with eigvalsh smallest <= 0."""
        rng = np.random.default_rng(0)
        n = int(rng.integers(3, 7))
        basis = rng.normal(size=(n, n - 1))
        matrix = basis @ basis.T  # rank-deficient in exact arithmetic
        assert matrix.shape == (6, 6)
        try:
            np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError:  # pragma: no cover - platform BLAS
            pytest.skip("platform LAPACK rejects the trigger matrix")
        smallest = float(np.linalg.eigvalsh(0.5 * (matrix + matrix.T))[0])
        if smallest > 0:  # pragma: no cover - platform BLAS
            pytest.skip("platform LAPACK rounds the trigger matrix PD")
        return matrix

    def _stacked(self, trigger):
        failing = np.zeros((6, 6))  # Cholesky always fails, bump 1e-9
        observation = np.stack([4.0 * np.eye(6)] * 2)
        constraint = np.stack([trigger, failing])
        return [
            (observation, np.zeros((2, 6))),
            (constraint, np.zeros((2, 6))),
        ]

    def test_grouped_probe_leaves_passing_group_untouched(self):
        kernel = self._kernel()
        trigger = self._trigger_matrix()
        stacked = self._stacked(trigger)
        groups = [np.array([0]), np.array([1])]
        repaired = kernel._repaired_targets(stacked, (), groups)
        # The passing group's rows ride through bitwise-untouched...
        assert np.array_equal(repaired[1][0][0], trigger)
        # ...and the failing group is repaired exactly as it would be alone.
        solo = kernel._repaired_targets(
            [(p[1:2], s[1:2]) for p, s in stacked], (), None
        )
        assert np.array_equal(repaired[1][0][1], solo[1][0][0])

    def test_whole_batch_probe_would_have_bumped_it(self):
        """The hazard is real: without groups the merged probe repairs row 0."""
        kernel = self._kernel()
        trigger = self._trigger_matrix()
        merged = kernel._repaired_targets(self._stacked(trigger), (), None)
        assert not np.array_equal(merged[1][0][0], trigger)

    def test_run_stacked_composes_bit_identically_with_groups(self):
        kernel = self._kernel()
        trigger = self._trigger_matrix()
        stacked = self._stacked(trigger)
        prior_precision = np.stack([np.eye(6)] * 2)
        prior_shift = np.zeros((2, 6))
        merged = kernel.run_stacked(
            stacked,
            prior_precision,
            prior_shift,
            (),
            None,
            [np.array([0]), np.array([1])],
        )
        for row in range(2):
            solo = kernel.run_stacked(
                [(p[row : row + 1], s[row : row + 1]) for p, s in stacked],
                prior_precision[row : row + 1],
                prior_shift[row : row + 1],
            )
            assert np.array_equal(merged.means[row], solo.means[0])
            assert np.array_equal(merged.variances[row], solo.variances[0])


class TestCanonicalShapeHelpers:
    def test_padding_slots_are_distinct_and_unmeasured(self):
        slots = np.array([1, 4, 7], dtype=np.intp)
        pads = padding_slots(6, slots, 10)
        assert len(pads) == 3
        assert len(set(pads.tolist())) == 3
        assert not set(pads.tolist()) & {1, 4, 7}
        # Deterministic: smallest free slot ids, in order.
        assert pads.tolist() == [0, 2, 3]

    def test_padding_slots_empty_when_width_matches(self):
        assert padding_slots(3, np.array([0, 1, 2], dtype=np.intp), 5).size == 0

    def test_padding_slots_rejects_overwide_buckets(self):
        with pytest.raises(ValueError, match="variable count"):
            padding_slots(6, np.array([0], dtype=np.intp), 4)

    def test_observation_certified(self):
        assert observation_certified(np.array([0.5, 2.0]))
        assert not observation_certified(np.array([]))
        assert not observation_certified(np.array([0.5, 0.0]))
        assert not observation_certified(np.array([0.5, -1.0]))
        assert not observation_certified(np.array([0.5, np.inf]))
        assert not observation_certified(np.array([0.5, np.nan]))


class TestMegabatchInPipeline:
    """A default ``RunSpec`` over real perf captures merges, bit-identically.

    The committed ``perf stat`` capture has ``<not counted>`` cells, so its
    records do not all share one measured-event signature.  Hosts on one
    worker advance in lock step, though, so two replays of the same file
    always agree on the signature; the second host replays a copy that
    starts one interval later, which lines each ``<not counted>`` interval
    up against a fully counted one.
    """

    def _captures(self, tmp_path):
        lines = PERF_STAT_FIXTURE.read_text().splitlines(keepends=True)
        first = next(line for line in lines if not line.startswith("#")).split(",")[0]
        shifted = tmp_path / "shifted.csv"
        shifted.write_text("".join(l for l in lines if not l.startswith(first + ",")))
        return PERF_STAT_FIXTURE, shifted

    def _run(self, tmp_path, captures, estimator):
        """Estimates per host and the run's ``kernel.megabatch.rounds``."""
        spec = RunSpec(
            hosts=tuple(HostSpec(perf=str(path)) for path in captures),
            estimator=estimator,
            observer=ObserverSpec(metrics=str(tmp_path / "metrics.json"), mixing=False),
            n_workers=1,
        )
        pipeline = Pipeline.from_spec(spec)
        result = pipeline.run()
        counter = pipeline.service.observer.metrics.counter("kernel.megabatch.rounds")
        return result.estimates, counter.value

    def _per_signature_reference(self, captures):
        """The same slot-by-slot rounds, one ``process_batch`` per signature."""
        sources = [PerfTraceSource(f"ref-{h}", path) for h, path in enumerate(captures)]
        assert all(source.events == sources[0].events for source in sources)
        engine = BayesPerfEngine(
            catalog_for("x86"), list(sources[0].events), **EstimatorSpec().engine_kwargs()
        )
        streams = [list(source.records()) for source in sources]
        states = [None] * len(streams)
        traces = [EstimateTrace(method="bayesperf") for _ in streams]
        for tick in range(max(len(records) for records in streams)):
            live = [h for h, records in enumerate(streams) if tick < len(records)]
            results = solve_per_signature(
                engine, [(states[h], streams[h][tick]) for h in live]
            )
            for h, (report, state) in zip(live, results):
                states[h] = state
                traces[h].append(report.means(), report.stds())
        return traces

    def test_default_run_merges_and_matches_the_per_signature_reference(self, tmp_path):
        captures = self._captures(tmp_path)
        estimates, rounds = self._run(tmp_path, captures, EstimatorSpec())
        assert rounds > 0, "mixed-signature perf rounds must take the merged path"
        reference = self._per_signature_reference(captures)
        assert len(estimates) == len(reference)
        for host, want in zip(sorted(estimates), reference):
            assert len(estimates[host]) == len(want) > 0
            assert estimates[host].values_equal(want)

    @pytest.mark.parametrize(
        "estimator",
        [
            EstimatorSpec("batched-mcmc", samples=10, burn_in=5),
            EstimatorSpec(use_compiled_kernel=False),
        ],
        ids=["batched-mcmc", "reference-twin"],
    )
    def test_non_merging_estimators_never_merge(self, tmp_path, estimator):
        _, rounds = self._run(tmp_path, self._captures(tmp_path), estimator)
        assert rounds == 0
