"""Equivalence suite: compiled EP kernel vs. the reference implementation.

The compiled kernel must be a drop-in replacement for analytic-estimator
EP: posteriors within 1e-8 of the reference on the seed benchmark graphs,
batched solves exactly equal to looped single-record solves, and graceful
fallback for everything it cannot compile.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import BayesPerfEngine
from repro.events.profiles import standard_profiling_events
from repro.events.registry import catalog_for
from repro.fg import (
    CompiledEPKernel,
    ConstraintSiteBinder,
    ExpectationPropagation,
    FactorGraph,
    GaussianDensity,
    GaussianObservation,
    GaussianPriorFactor,
    LinearConstraintFactor,
    compile_factor_graph,
    site_factor_lists,
)
from repro.fg.distributions import StudentT
from repro.fg.ep import EPSite
from repro.fg.factors import Factor, StudentTObservation
from repro.fg.linalg import cholesky_mean_and_variance
from repro.pmu.sampling import MultiplexedSampler
from repro.scheduling.cache import cached_schedule
from repro.uarch.machine import Machine, MachineConfig
from repro.workloads.registry import get_workload


def _relative_gap(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


def _run_both(graph, sites, prior, *, damping=0.5, max_iterations=25):
    """(reference EPResult, compiled CompiledEPResult) for one graph."""
    reference = ExpectationPropagation(
        graph, sites, prior, damping=damping, max_iterations=max_iterations
    ).run()
    structure = compile_factor_graph(graph, sites, prior.variables)
    assert structure is not None
    kernel = CompiledEPKernel(structure, damping=damping, max_iterations=max_iterations)
    binding = structure.bind(site_factor_lists(graph, sites))
    compiled = kernel.run([binding], [prior])
    return reference, compiled


def _assert_posteriors_match(reference, compiled, tolerance=1e-8):
    ref_mean = reference.posterior.mean()
    ref_var = reference.posterior.variance()
    com_mean = compiled.mean_dict(0)
    com_var = compiled.variance_dict(0)
    for name in ref_mean:
        assert com_mean[name] == pytest.approx(ref_mean[name], rel=tolerance, abs=tolerance)
        assert com_var[name] == pytest.approx(ref_var[name], rel=tolerance, abs=tolerance)
    assert int(compiled.iterations[0]) == reference.iterations
    assert bool(compiled.converged[0]) == reference.converged


def _bench_graph(observed=2.0):
    """The seed test graph: one observation, one constraint, one prior."""
    graph = FactorGraph(variables=["a", "b", "c"])
    graph.add_factor(GaussianObservation("obs_a", "a", observed=observed, sigma=0.1))
    graph.add_factor(LinearConstraintFactor("sum", {"a": 1.0, "b": 1.0, "c": -1.0}, sigma=0.05))
    graph.add_factor(GaussianPriorFactor("prior_b", {"b": 1.0}, {"b": 0.25}))
    sites = [
        EPSite("observations", ("obs_a", "prior_b")),
        EPSite("constraints", ("sum",)),
    ]
    prior = GaussianDensity.diagonal(
        {"a": 1.0, "b": 1.0, "c": 2.0}, {"a": 25.0, "b": 25.0, "c": 25.0}
    )
    return graph, sites, prior


class TestKernelMatchesReference:
    def test_seed_graph_damped(self):
        reference, compiled = _run_both(*_bench_graph(), damping=0.5)
        _assert_posteriors_match(reference, compiled)

    def test_seed_graph_undamped(self):
        reference, compiled = _run_both(*_bench_graph(), damping=1.0)
        _assert_posteriors_match(reference, compiled)

    def test_student_t_observations(self):
        graph = FactorGraph(variables=["x", "y"])
        graph.add_factor(
            StudentTObservation("obs_x", "x", StudentT(loc=4.0, scale=0.5, df=6.0))
        )
        graph.add_factor(
            StudentTObservation("obs_y", "y", StudentT(loc=1.0, scale=0.2, df=2.0))
        )
        graph.add_factor(LinearConstraintFactor("xy", {"x": 1.0, "y": -2.0}, sigma=0.3))
        sites = [
            EPSite("obs", ("obs_x", "obs_y")),
            EPSite("rel", ("xy",)),
        ]
        prior = GaussianDensity.diagonal({"x": 0.0, "y": 0.0}, {"x": 9.0, "y": 9.0})
        reference, compiled = _run_both(graph, sites, prior)
        _assert_posteriors_match(reference, compiled)

    def test_iteration_cap_respected(self):
        graph, sites, prior = _bench_graph()
        reference, compiled = _run_both(graph, sites, prior, damping=0.3, max_iterations=3)
        assert not reference.converged
        assert not bool(compiled.converged[0])
        assert int(compiled.iterations[0]) == reference.iterations == 3
        _assert_posteriors_match(reference, compiled)


class TestEngineEquivalence:
    @pytest.fixture(scope="class")
    def records(self):
        catalog = catalog_for("x86")
        events = standard_profiling_events(catalog, n_events=16)
        schedule = cached_schedule(catalog, events, kind="overlap")
        trace = Machine(MachineConfig(), get_workload("KMeans"), seed=1).run(12)
        return catalog, events, MultiplexedSampler(catalog, schedule, seed=2).sample(trace)

    def test_compiled_engine_matches_reference_per_slice(self, records):
        """Each slice solved from identical state agrees within 1e-8."""
        catalog, events, sampled = records
        reference = BayesPerfEngine(catalog, events, use_compiled_kernel=False)
        compiled = BayesPerfEngine(catalog, events, use_compiled_kernel=True)
        state = None
        for record in sampled.records:
            reference.restore(state) if state is not None else reference.reset()
            want = reference.process_record(record)
            next_state = reference.snapshot()
            compiled.restore(state) if state is not None else compiled.reset()
            got = compiled.process_record(record)
            assert got.ep_iterations == want.ep_iterations
            assert got.ep_converged == want.ep_converged
            for event, estimate in want.estimates.items():
                assert _relative_gap(got.estimates[event].mean, estimate.mean) < 1e-8
                assert _relative_gap(got.estimates[event].std, estimate.std) < 1e-8
            state = next_state

    def test_compiled_engine_matches_reference_end_to_end(self, records):
        """Full temporal chains stay within 1e-8 too (seed workload)."""
        catalog, events, sampled = records
        reference = BayesPerfEngine(catalog, events, use_compiled_kernel=False).correct(sampled)
        compiled = BayesPerfEngine(catalog, events, use_compiled_kernel=True).correct(sampled)
        for tick in range(len(reference)):
            want, got = reference.at(tick), compiled.at(tick)
            for event in want:
                assert _relative_gap(got[event], want[event]) < 1e-8

    def test_batched_equals_looped_exactly(self, records):
        """process_batch == restore/process_record/snapshot, bit for bit."""
        catalog, events, sampled = records
        engine = BayesPerfEngine(catalog, events)
        hosts, depth = 5, 4
        # Batched: one multi-record solve per slot across simulated hosts.
        states = [None] * hosts
        batched = [[] for _ in range(hosts)]
        for slot in range(depth):
            items = [(states[h], sampled.records[slot]) for h in range(hosts)]
            for h, (report, state) in enumerate(engine.process_batch(items)):
                states[h] = state
                batched[h].append(report)
        # Looped: per-host sequential single-record solves.
        for h in range(hosts):
            state = None
            for slot in range(depth):
                engine.restore(state) if state is not None else engine.reset()
                report = engine.process_record(sampled.records[slot])
                state = engine.snapshot()
                want = batched[h][slot]
                assert report.means() == want.means()
                assert report.stds() == want.stds()
                assert report.ep_iterations == want.ep_iterations
            assert states[h].prior_mean == state.prior_mean
            assert states[h].scale == state.scale
            assert states[h].tick == state.tick

    def test_kernel_cache_reused_across_slices(self, records):
        catalog, events, sampled = records
        engine = BayesPerfEngine(catalog, events)
        engine.correct(sampled)
        signatures = len(engine._kernel_cache)
        assert 0 < signatures < len(sampled.records)
        engine.correct(sampled)  # second run: every signature already compiled
        assert len(engine._kernel_cache) == signatures

    def test_mcmc_estimator_uses_compiled_structures(self, records):
        """Per-site tilted MCMC now batches on the kernel's buffers (PR 4)."""
        catalog, events, sampled = records
        engine = BayesPerfEngine(
            catalog, events, moment_estimator="mcmc", mcmc_samples=20, mcmc_burn_in=10
        )
        engine.process_record(sampled.records[0])
        assert engine._kernel_cache

    def test_mcmc_reference_twin_bypasses_kernel(self, records):
        catalog, events, sampled = records
        engine = BayesPerfEngine(
            catalog, events, moment_estimator="mcmc", mcmc_samples=20,
            mcmc_burn_in=10, use_compiled_kernel=False,
        )
        engine.process_record(sampled.records[0])
        assert not engine._kernel_cache

    def test_process_batch_mixed_fresh_and_resumed_states(self, records):
        catalog, events, sampled = records
        engine = BayesPerfEngine(catalog, events)
        _, resumed = engine.process_batch([(None, sampled.records[0])])[0]
        reports = engine.process_batch(
            [(None, sampled.records[1]), (resumed, sampled.records[1])]
        )
        fresh_report, resumed_report = reports[0][0], reports[1][0]
        # A resumed run carries a temporal prior, so the two differ.
        assert fresh_report.means() != resumed_report.means()


class TestCompilationFallback:
    def test_unknown_factor_type_refuses_compilation(self):
        class Mystery(Factor):
            def log_density(self, values):
                return 0.0

            def to_gaussian(self, anchor=None):
                return GaussianDensity.diagonal({"a": 0.0}, {"a": 1.0})

        graph = FactorGraph(variables=["a"])
        graph.add_factor(Mystery("m", ["a"]))
        assert compile_factor_graph(graph, [EPSite("s", ("m",))], ["a"]) is None

    def test_anchor_dependent_factor_keeps_cavity_anchored_reference_path(self):
        """Non-anchor-free factors refuse compilation AND still get the
        cavity-mean anchor through the reference analytic path."""
        seen_anchors = []

        class Anchored(Factor):
            def log_density(self, values):
                return 0.0

            def to_gaussian(self, anchor=None):
                seen_anchors.append(anchor)
                center = anchor["a"] if anchor is not None else 0.0
                return GaussianDensity.diagonal({"a": center}, {"a": 4.0})

        graph = FactorGraph(variables=["a"])
        graph.add_factor(GaussianObservation("obs", "a", observed=2.0, sigma=0.5))
        graph.add_factor(Anchored("anchored", ["a"]))
        sites = [EPSite("s", ("obs", "anchored"))]
        prior = GaussianDensity.diagonal({"a": 0.0}, {"a": 9.0})
        assert compile_factor_graph(graph, sites, prior.variables) is None
        result = ExpectationPropagation(graph, sites, prior).run()
        assert np.isfinite(result.mean()["a"])
        assert seen_anchors and all(anchor is not None for anchor in seen_anchors)

    def test_empty_sites_rejected(self):
        graph, _, prior = _bench_graph()
        with pytest.raises(ValueError, match="at least one site"):
            compile_factor_graph(graph, [], prior.variables)

    def test_kernel_validates_arguments(self):
        graph, sites, prior = _bench_graph()
        structure = compile_factor_graph(graph, sites, prior.variables)
        with pytest.raises(ValueError, match="damping"):
            CompiledEPKernel(structure, damping=0.0)
        kernel = CompiledEPKernel(structure)
        with pytest.raises(ValueError, match="prior"):
            kernel.run(
                [structure.bind(site_factor_lists(graph, sites))],
                [GaussianDensity.diagonal({"z": 0.0}, {"z": 1.0})],
            )
        with pytest.raises(ValueError, match="factor lists"):
            structure.bind([])


@st.composite
def _random_problem(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    variables = [f"v{i}" for i in range(n)]
    value = st.floats(min_value=-4.0, max_value=4.0)
    spread = st.floats(min_value=0.05, max_value=8.0)
    prior = GaussianDensity.diagonal(
        {v: draw(value) for v in variables}, {v: draw(spread) for v in variables}
    )
    graph = FactorGraph(variables=variables)
    n_observed = draw(st.integers(min_value=1, max_value=n))
    observation_names = []
    for v in variables[:n_observed]:
        name = f"obs_{v}"
        graph.add_factor(GaussianObservation(name, v, observed=draw(value), sigma=draw(spread)))
        observation_names.append(name)
    sites = [EPSite("observations", tuple(observation_names))]
    n_constraints = draw(st.integers(min_value=0, max_value=2))
    constraint_names = []
    for index in range(n_constraints):
        size = draw(st.integers(min_value=2, max_value=n))
        coefficient = st.floats(min_value=0.25, max_value=2.0)
        sign = st.sampled_from([-1.0, 1.0])
        coefficients = {v: draw(sign) * draw(coefficient) for v in variables[:size]}
        name = f"rel_{index}"
        graph.add_factor(LinearConstraintFactor(name, coefficients, sigma=draw(spread)))
        constraint_names.append(name)
    if constraint_names:
        sites.append(EPSite("constraints", tuple(constraint_names)))
    damping = draw(st.sampled_from([1.0, 0.7, 0.5]))
    return graph, sites, prior, damping


class TestPropertyEquivalence:
    @given(problem=_random_problem())
    @settings(max_examples=30, deadline=None)
    def test_random_graphs_match_reference(self, problem):
        graph, sites, prior, damping = problem
        reference, compiled = _run_both(graph, sites, prior, damping=damping)
        _assert_posteriors_match(reference, compiled)

    @given(
        observed=st.lists(
            st.floats(min_value=-5.0, max_value=5.0), min_size=2, max_size=6
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_batched_matches_looped(self, observed):
        """One batched solve == per-record solves, for any batch content."""
        problems = [_bench_graph(value) for value in observed]
        structure = compile_factor_graph(problems[0][0], problems[0][1], problems[0][2].variables)
        kernel = CompiledEPKernel(structure)
        bindings = [
            structure.bind(site_factor_lists(graph, sites)) for graph, sites, _ in problems
        ]
        priors = [prior for _, _, prior in problems]
        together = kernel.run(bindings, priors)
        for b, (binding, prior) in enumerate(zip(bindings, priors)):
            alone = kernel.run([binding], [prior])
            assert np.array_equal(alone.means[0], together.means[b])
            assert np.array_equal(alone.variances[0], together.variances[b])
            assert alone.iterations[0] == together.iterations[b]
            assert alone.converged[0] == together.converged[b]


class TestUndampedEarlyExit:
    """damping=1 stops after sweep 1 and reports what sweep 2 would."""

    @staticmethod
    def _observed_graph(sigma=1e4):
        """Two observations; at the default sigma every site target lies
        below the default 1e-6 tolerance."""
        graph = FactorGraph(variables=["a", "b"])
        graph.add_factor(GaussianObservation("obs_a", "a", observed=1.0, sigma=sigma))
        graph.add_factor(GaussianObservation("obs_b", "b", observed=-2.0, sigma=3 * sigma))
        sites = [EPSite("observations", ("obs_a", "obs_b"))]
        prior = GaussianDensity.diagonal({"a": 0.5, "b": 0.5}, {"a": 4.0, "b": 4.0})
        return graph, sites, prior

    def test_undamped_run_matches_reference_at_iteration_two(self):
        reference, compiled = _run_both(*_bench_graph(), damping=1.0)
        assert reference.iterations == 2 and reference.converged
        assert float(compiled.max_delta[0]) == reference.max_delta == 0.0
        _assert_posteriors_match(reference, compiled)

    def test_single_sweep_cap_stays_unconverged(self):
        reference, compiled = _run_both(*_bench_graph(), damping=1.0, max_iterations=1)
        assert int(compiled.iterations[0]) == reference.iterations == 1
        assert not reference.converged and not bool(compiled.converged[0])
        assert float(compiled.max_delta[0]) == pytest.approx(reference.max_delta, rel=1e-12)
        _assert_posteriors_match(reference, compiled)

    def test_targets_below_tolerance_converge_at_iteration_one(self):
        reference, compiled = _run_both(*self._observed_graph(), damping=1.0)
        assert reference.iterations == 1 and reference.converged
        assert 0.0 < float(compiled.max_delta[0]) == pytest.approx(reference.max_delta, rel=1e-12)
        _assert_posteriors_match(reference, compiled)

    def test_mixed_batch_reports_each_record_as_alone(self):
        """A record converged at sweep 1 keeps its delta beside one settled at 2."""
        problems = [self._observed_graph(sigma) for sigma in (1e4, 0.1)]
        graph, sites, prior = problems[0]
        structure = compile_factor_graph(graph, sites, prior.variables)
        kernel = CompiledEPKernel(structure, damping=1.0)
        bindings = [structure.bind(site_factor_lists(g, s)) for g, s, _ in problems]
        priors = [prior for _, _, prior in problems]
        together = kernel.run(bindings, priors)
        assert together.iterations.tolist() == [1, 2]
        assert together.converged.tolist() == [True, True]
        assert together.max_delta[0] > 0.0 and together.max_delta[1] == 0.0
        for b, (graph, sites, prior) in enumerate(problems):
            alone = kernel.run([bindings[b]], [prior])
            assert np.array_equal(alone.means[0], together.means[b])
            assert np.array_equal(alone.variances[0], together.variances[b])
            assert alone.iterations[0] == together.iterations[b]
            assert alone.max_delta[0] == together.max_delta[b]
            reference = ExpectationPropagation(graph, sites, prior, damping=1.0).run()
            _assert_posteriors_match(reference, alone)

    def test_nan_poisoned_record_keeps_the_loop_and_spares_its_batch_mates(self):
        observed = [2.0, -1.0, 0.5]
        problems = [_bench_graph(value) for value in observed]
        graph, sites, _ = problems[0]
        structure = compile_factor_graph(graph, sites, problems[0][2].variables)
        kernel = CompiledEPKernel(structure, damping=1.0, max_iterations=5)
        bindings = [structure.bind(site_factor_lists(g, s)) for g, s, _ in problems]
        priors = [prior for _, _, prior in problems]
        poisoned_shift = bindings[1][0][1].copy()
        poisoned_shift[0] = np.nan
        bindings[1] = ((bindings[1][0][0], poisoned_shift),) + bindings[1][1:]

        together = kernel.run(bindings, priors)
        assert int(together.iterations[1]) == 5 and not bool(together.converged[1])
        poisoned_alone = kernel.run([bindings[1]], [priors[1]])
        assert int(poisoned_alone.iterations[0]) == 5
        assert not bool(poisoned_alone.converged[0])
        for b in (0, 2):
            alone = kernel.run([bindings[b]], [priors[b]])
            assert np.array_equal(alone.means[0], together.means[b])
            assert np.array_equal(alone.variances[0], together.variances[b])
            assert alone.iterations[0] == together.iterations[b] == 2
            assert alone.converged[0] and together.converged[b]
            assert alone.max_delta[0] == together.max_delta[b] == 0.0
            graph, sites, prior = problems[b]
            reference = ExpectationPropagation(
                graph, sites, prior, damping=1.0, max_iterations=5
            ).run()
            _assert_posteriors_match(reference, alone)

    @pytest.mark.parametrize("tolerance", [0.0, -1e-6, float("nan")])
    def test_non_positive_tolerance_rejected(self, tolerance):
        graph, sites, prior = _bench_graph()
        structure = compile_factor_graph(graph, sites, prior.variables)
        with pytest.raises(ValueError, match="tolerance"):
            CompiledEPKernel(structure, tolerance=tolerance)


def _dense_constraint_bind(binder, scales):
    """Reference twin of ConstraintSiteBinder.bind: one dense outer product
    per relation, accumulated element-wise in relation order."""
    scaled = np.ascontiguousarray(binder.coefficients[None, :, :] * scales[:, None, :])
    magnitude = np.abs(scaled).sum(axis=-1)
    sigma = np.maximum(binder.tolerances[None, :] * magnitude, 1e-9)
    rows = scaled / sigma[..., None]
    precision = np.zeros((scaled.shape[0], binder.width, binder.width))
    for relation in range(rows.shape[1]):
        row = rows[:, relation, :]
        precision += row[:, :, None] * row[:, None, :]
    return precision, np.zeros((scaled.shape[0], binder.width))


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def _constraint_binder_case(draw):
    width = draw(st.integers(min_value=1, max_value=7))
    coefficient = st.one_of(
        st.just(0.0),
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False).filter(lambda v: v != 0.0),
    )
    rows = [
        [draw(coefficient) for _ in range(width)]
        for _ in range(draw(st.integers(min_value=0, max_value=5)))
    ]
    single = [0.0] * width
    single[draw(st.integers(min_value=0, max_value=width - 1))] = draw(
        st.sampled_from([-1.5, 1.0, 2.0])
    )
    for row in (single, [0.0] * width):
        rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), row)
    tolerances = [draw(st.floats(min_value=1e-3, max_value=0.5)) for _ in rows]
    batch = draw(st.integers(min_value=1, max_value=4))
    scale = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
    scales = np.array([[draw(scale) for _ in range(width)] for _ in range(batch)])
    return np.array(rows), np.array(tolerances), scales


class TestConstraintBinderScatterPlan:
    @given(case=_constraint_binder_case())
    @settings(max_examples=60, deadline=None)
    def test_support_scatter_equals_dense_accumulation_bit_for_bit(self, case):
        coefficients, tolerances, scales = case
        binder = ConstraintSiteBinder(
            site=0, coefficients=coefficients, tolerances=tolerances,
            width=coefficients.shape[1],
        )
        want_precision, want_shift = _dense_constraint_bind(binder, scales)
        precision, shift = binder.bind(scales)
        assert _same_bits(precision, want_precision)
        assert _same_bits(shift, want_shift)
        for b in range(scales.shape[0]):
            alone, _ = binder.bind(scales[b : b + 1])
            dense_alone, _ = _dense_constraint_bind(binder, scales[b : b + 1])
            assert _same_bits(alone[0], precision[b])
            assert _same_bits(dense_alone[0], want_precision[b])

    def test_engine_shares_constraint_binders_across_signatures(self):
        catalog = catalog_for("x86")
        engine = BayesPerfEngine(catalog, standard_profiling_events(catalog, n_events=16))
        events = engine.monitored_events
        _, first = engine._compiled_kernel(events[:3])
        _, second = engine._compiled_kernel(events[2:9])
        assert first.constraints
        assert all(a is b for a, b in zip(first.constraints, second.constraints))


class TestTriangularReadOut:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_read_out_matches_solve_and_is_batch_invariant(self, seed):
        rng = np.random.default_rng(seed)
        batch, n = 3, int(rng.integers(1, 9))
        factor = rng.normal(size=(batch, n, n))
        precision = factor @ np.swapaxes(factor, -1, -2) + n * np.eye(n)
        shift = rng.normal(size=(batch, n))
        means, variances = cholesky_mean_and_variance(precision, shift)
        for b in range(batch):
            np.testing.assert_allclose(
                means[b], np.linalg.solve(precision[b], shift[b]), rtol=1e-10, atol=1e-12
            )
            np.testing.assert_allclose(
                variances[b], np.diag(np.linalg.inv(precision[b])), rtol=1e-10
            )
            alone_mean, alone_var = cholesky_mean_and_variance(precision[b], shift[b])
            assert _same_bits(alone_mean, means[b]) and _same_bits(alone_var, variances[b])
