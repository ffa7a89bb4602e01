"""Array-native engine state: batch composition, the dict/WAL boundary, traps.

``BayesPerfEngine.process_batch`` prepares and finalizes each signature
group as ``(G, n)`` arrays and hands back array-backed successor states and
lazily built reports.  These tests pin that representation to the
one-record loop bit for bit, whatever the batch mixes, pin the dict form
the WAL codec serialises, and pin the two floating-point traps the array
arithmetic must avoid to stay bit-identical to scalar Python.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.api import CheckpointSpec, HostSpec, Pipeline, RunSpec
from repro.core.engine import BayesPerfEngine, EngineState, _pymax, _row_median
from repro.core.posterior import EventEstimate, PosteriorReport
from repro.events.profiles import standard_profiling_events
from repro.events.registry import catalog_for
from repro.fleet.tracefile import read_trace
from repro.fleet.wal import engine_state_from_json, engine_state_to_json
from repro.pmu.sampling import MultiplexedSampler, SamplingRecord
from repro.scheduling.cache import cached_schedule
from repro.uarch.machine import Machine, MachineConfig
from repro.workloads.registry import get_workload

CATALOG = catalog_for("x86")
UNION = standard_profiling_events(CATALOG, n_events=12)
GOLDEN_TRACE = Path(__file__).parent / "fixtures" / "golden_fleet_trace.jsonl"


def _bits(values):
    """The exact binary64 patterns of a sequence of floats."""
    return np.asarray(list(values), dtype=float).view(np.int64).tolist()


def _host_records(subset, seed, ticks):
    """Consecutive sampled records of one host monitoring *subset*."""
    schedule = cached_schedule(CATALOG, tuple(subset))
    trace = Machine(MachineConfig(), get_workload("steady"), seed=seed).run(ticks)
    sampler = MultiplexedSampler(CATALOG, schedule, seed=seed + 1, samples_per_tick=4)
    return sampler.sample(trace).records


def _perf_like(record, fraction):
    """The record as real-trace ingestion yields it: partially counted events."""
    first = next(iter(record.samples))
    return SamplingRecord(
        tick=record.tick,
        configuration=record.configuration,
        samples=record.samples,
        mux_fraction={first: fraction},
    )


def assert_states_identical(got: EngineState, want: EngineState):
    assert got.tick == want.tick
    assert got.rng_state == want.rng_state
    for mapping in ("prior_mean", "scale"):
        got_map, want_map = dict(getattr(got, mapping)), dict(getattr(want, mapping))
        assert list(got_map) == list(want_map)
        assert _bits(got_map.values()) == _bits(want_map.values()), mapping


def assert_reports_identical(got: PosteriorReport, want: PosteriorReport):
    assert got.tick == want.tick
    assert got.measured_events == want.measured_events
    assert (got.ep_iterations, got.ep_converged) == (want.ep_iterations, want.ep_converged)
    for got_map, want_map in ((got.means(), want.means()), (got.stds(), want.stds())):
        assert list(got_map) == list(want_map)
        assert _bits(got_map.values()) == _bits(want_map.values())


# -- the two bit-identity traps ----------------------------------------------


class TestBitIdentityTraps:
    def test_float_power_matches_python_pow_where_squaring_does_not(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0.0, 10.0, 200_000) * 10.0 ** rng.integers(-6, 6, 200_000)
        python = np.array([value**2 for value in x.tolist()])
        assert np.array_equal(np.float_power(x, 2.0), python)
        # The trap itself: squaring rounds differently on some inputs, so an
        # ``arr ** 2`` prior variance would drift off the scalar chain.
        assert not np.array_equal(x**2, python)

    @pytest.mark.parametrize("seed", range(5))
    def test_row_median_equals_np_median_of_valid_entries(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.lognormal(size=(300, 9))
        values[rng.random(values.shape) < 0.05] = np.inf
        values[rng.random(values.shape) < 0.01] = np.nan
        valid = rng.random(values.shape) < 0.6
        got = _row_median(values, valid, -1.0)
        for row in range(values.shape[0]):
            entries = values[row][valid[row]]
            want = np.median(entries) if entries.size else -1.0
            assert _bits([got[row]]) == _bits([want]), (row, entries)

    def test_row_median_of_no_columns_is_the_empty_value(self):
        assert _row_median(np.empty((3, 0)), np.empty((3, 0), bool), 1.0).tolist() == [1.0] * 3

    def test_pymax_keeps_python_max_semantics(self):
        a = np.array([-0.0, np.nan, -1.0, 2.0, 0.0])
        got = _pymax(a, 0.0)
        want = [max(value, 0.0) for value in a.tolist()]
        assert _bits(got) == _bits(want)
        # np.maximum would have turned max(-0.0, 0.0) into +0.0.
        assert _bits(np.maximum(a[:1], 0.0)) != _bits(want[:1])


# -- batch composition --------------------------------------------------------


ENGINES = {
    "analytic": {},
    "megabatch": {"megabatch": True},
    "batched-mcmc": {
        "moment_estimator": "batched-mcmc", "mcmc_samples": 20, "mcmc_burn_in": 10,
    },
    "mcmc": {"moment_estimator": "mcmc", "mcmc_samples": 20, "mcmc_burn_in": 10},
    "reference": {"use_compiled_kernel": False},
}


@pytest.fixture(scope="module")
def mixed_batch():
    """One batch mixing signatures, perf records and every state form.

    Each host has run two slices already; the batch carries its third
    slice with the host's state as a fresh ``None``, the array-backed
    successor, or that successor decoded back from its WAL JSON form.
    """
    subsets = [UNION[:5], UNION[3:10], UNION[:12], UNION[2:8], UNION[:5], UNION[5:]]
    hosts = [
        _host_records(subset, seed=11 * host, ticks=3)
        for host, subset in enumerate(subsets)
    ]
    hosts[1] = [_perf_like(record, 0.4) for record in hosts[1]]
    hosts[4] = [_perf_like(record, 0.75) for record in hosts[4]]
    return hosts


@pytest.mark.parametrize("name", list(ENGINES))
def test_batch_equals_the_one_record_loop_bit_for_bit(mixed_batch, name):
    kwargs = ENGINES[name]
    engine = BayesPerfEngine(CATALOG, UNION, **kwargs)
    states = [None] * len(mixed_batch)
    for tick in range(2):
        solved = engine.process_batch(
            [(state, records[tick]) for state, records in zip(states, mixed_batch)]
        )
        states = [state for _, state in solved]
    forms = []
    for host, state in enumerate(states):
        if host % 3 == 0:
            forms.append(None)
        elif host % 3 == 1:
            forms.append(state)
        else:
            forms.append(engine_state_from_json(json.loads(json.dumps(engine_state_to_json(state)))))
    items = [(state, records[2]) for state, records in zip(forms, mixed_batch)]
    assert len({engine._signature(record)[0] for _, record in items}) >= 4

    batched = BayesPerfEngine(CATALOG, UNION, **kwargs).process_batch(items)

    looped = BayesPerfEngine(CATALOG, UNION, **kwargs)
    for (state, record), (report, successor) in zip(items, batched):
        looped.restore(state) if state is not None else looped.reset()
        want_report = looped.process_record(record)
        assert_reports_identical(report, want_report)
        assert_states_identical(successor, looped.snapshot())
        assert successor == looped.snapshot()


def test_lazy_reports_agree_with_eager_construction(mixed_batch):
    engine = BayesPerfEngine(CATALOG, UNION)
    results = engine.process_batch([(None, records[0]) for records in mixed_batch])
    for report, _ in results:
        means, stds = report.means(), report.stds()
        eager = PosteriorReport(
            report.tick,
            {e: EventEstimate(e, means[e], stds[e]) for e in means},
            report.measured_events,
            report.ep_iterations,
            report.ep_converged,
        )
        assert report.most_uncertain(4) == eager.most_uncertain(4)
        assert report.estimates == eager.estimates
        assert list(report.estimates) == list(engine.monitored_events)
        assert report == eager
        # Reading the rows again after the estimates were built: same floats.
        assert _bits(report.means().values()) == _bits(means.values())
        assert _bits(report.stds().values()) == _bits(stds.values())


def test_array_backed_states_are_read_only(mixed_batch):
    engine = BayesPerfEngine(CATALOG, UNION)
    (_, state), = engine.process_batch([(None, mixed_batch[0][0])])
    with pytest.raises(TypeError):
        state.prior_mean["INST_RETIRED.ANY"] = 1.0
    snapshot_source = BayesPerfEngine(CATALOG, UNION)
    snapshot_source.restore(state)
    editable = snapshot_source.snapshot()
    editable.prior_mean["INST_RETIRED.ANY"] = 1.0  # a snapshot is the caller's


def test_successor_states_own_their_rng_state(mixed_batch):
    """No two states share an RNG dict, nor share one with a fresh run."""
    engine = BayesPerfEngine(CATALOG, UNION)
    record = mixed_batch[0][0]
    fresh = engine.snapshot().rng_state
    (_, first), (_, second) = engine.process_batch([(None, record)] * 2)
    (_, third), = engine.process_batch([(first, record)])
    states = [first.rng_state, second.rng_state, third.rng_state]
    assert all(state == fresh for state in states)
    assert len({id(state) for state in states}) == 3
    first.rng_state["state"]["state"] += 1
    assert second.rng_state == third.rng_state == engine.snapshot().rng_state == fresh


# -- the dict / WAL boundary ---------------------------------------------------


def test_wal_checkpoints_equal_the_snapshot_of_a_record_loop(tmp_path):
    """Every committed ``engine_state`` is the looped engine's snapshot."""
    golden = read_trace(GOLDEN_TRACE)
    path = tmp_path / "wal.jsonl"
    spec = RunSpec(
        arch=golden.arch,
        hosts=(HostSpec(trace=str(GOLDEN_TRACE)), HostSpec(trace=str(GOLDEN_TRACE))),
        checkpoint=CheckpointSpec(path=str(path), fsync=False),
        pump_records=2,
    )
    Pipeline.from_spec(spec).run()
    checkpoints = [
        payload
        for payload in map(json.loads, path.read_text().splitlines())
        if payload.get("type") == "checkpoint"
    ]
    assert len(checkpoints) >= 6

    records = golden.sampled.records
    engine = BayesPerfEngine(catalog_for(golden.arch), golden.events)
    for checkpoint in checkpoints:
        slices = checkpoint["progress"]["slices"]
        engine.reset()
        for record in records[:slices]:
            engine.process_record(record)
        want = engine_state_to_json(engine.snapshot()) if slices else None
        assert checkpoint["state"] == json.loads(json.dumps(want))


def test_dict_boundary_keeps_unknown_distinct_from_nan():
    engine = BayesPerfEngine(CATALOG, UNION)
    fresh = engine_state_to_json(engine.snapshot())
    assert set(fresh["prior_mean"].values()) == {None}
    assert json.dumps(fresh).count("null") >= len(engine.events)

    # A WAL-decoded partial state: nulls survive restore -> snapshot.
    partial = engine_state_from_json(fresh)
    partial.prior_mean[UNION[0]] = 5.0e6
    engine.restore(partial)
    restored = engine_state_to_json(engine.snapshot())
    assert restored["prior_mean"][UNION[0]] == 5.0e6
    assert restored["prior_mean"][UNION[1]] is None

    # A NaN posterior is an estimate, not a missing one.
    prior = np.full(len(engine.events), 2.0)
    prior[1] = np.nan
    state = EngineState._from_rows(engine.events, prior, np.ones_like(prior), 3, None)
    payload = engine_state_to_json(state)
    assert math.isnan(payload["prior_mean"][engine.events[1]])
    assert None not in payload["prior_mean"].values()


# -- scalar reference twin of the array prepare/finalize -----------------------


def _scalar_chain(engine, state, record):
    """One slice's temporal chain, event by event in Python scalars.

    The per-record arithmetic the array path replaced: intensity ratio,
    scale refresh, projected observations, temporal prior.  Returns the
    refreshed scales, prior moments and observation moments as lists.
    """
    prior = dict.fromkeys(engine.events)
    scale = dict.fromkeys(engine.events, 1.0)
    if state is not None:
        prior.update(state.prior_mean)
        scale.update(state.scale)
    events = [e for e in record.samples if e in engine.events]
    loc, sigma = {}, {}
    for event in events:
        samples = np.asarray(record.samples[event], dtype=float)
        n = samples.size
        total = float(np.sum(samples))
        std = float(np.std(samples, ddof=1)) * math.sqrt(n) if n >= 2 else abs(total) * 0.05
        sigma[event] = max(std / math.sqrt(n), abs(total) * engine.min_relative_sigma, 1e-9)
        fraction = record.mux_fraction.get(event)
        if fraction is not None and 0.0 < fraction < 1.0:
            sigma[event] /= math.sqrt(fraction)
        loc[event] = total
    ratios = [
        loc[e] / prior[e]
        for e in events
        if prior[e] is not None and prior[e] > 0 and loc[e] > 0
    ]
    ratio = float(min(max(float(np.median(ratios)), 0.2), 5.0)) if ratios else 1.0
    positive = [abs(loc[e]) for e in events if abs(loc[e]) > 0]
    fallback = float(np.median(positive)) if positive else 1.0
    for event in engine.events:
        magnitude = abs(loc.get(event, 0.0))
        if magnitude > 0:
            scale[event] = max(magnitude, 1e-9)
        elif prior[event] is not None and prior[event] > 0:
            scale[event] = prior[event]
        elif scale[event] <= 0 or scale[event] == 1.0:
            scale[event] = max(fallback, 1e-9)
    prior_mean, prior_var = [], []
    for event in engine.events:
        if prior[event] is not None and prior[event] > 0:
            mean = prior[event] * ratio / scale[event]
            prior_mean.append(mean)
            prior_var.append((engine.drift * mean + 1e-6) ** 2)
        else:
            prior_mean.append(1.0)
            prior_var.append(25.0)
    obs_mean = [loc[e] / scale[e] for e in events]
    obs_scale = [max(sigma[e] / scale[e], 1e-9) for e in events]
    return [scale[e] for e in engine.events], prior_mean, prior_var, obs_mean, obs_scale


def test_array_chain_matches_the_scalar_twin_bit_for_bit(mixed_batch):
    engine = BayesPerfEngine(CATALOG, UNION)
    monitored = set(engine.monitored_events)
    states = [None] * len(mixed_batch)
    for tick in range(3):
        for host, records in enumerate(mixed_batch):
            state, record = states[host], records[tick]
            (group,) = engine._prepare([(state, record)])
            want = _scalar_chain(engine, state, record)
            got = (group.scales, group.prior_mean, group.prior_var, group.obs_mean, group.obs_scale)
            for got_rows, want_row in zip(got, want):
                assert _bits(got_rows[0]) == _bits(want_row)

            # Finalize twin: denormalise and clamp the solved posterior.
            means, variances, _, _ = engine._solve_group_arrays(
                group, *engine._compiled_kernel(group.signature)
            )
            (report, states[host]), = engine.process_batch([(state, record)])
            for i, event in enumerate(engine.events):
                scale = float(group.scales[0, i])
                mean = max(float(means[0, i]) * scale, 0.0)
                std = math.sqrt(max(float(variances[0, i]), 0.0)) * scale
                if event in monitored:
                    assert _bits([report.means()[event], report.stds()[event]]) == _bits(
                        [mean, std]
                    )
                assert _bits([states[host].prior_mean[event]]) == _bits([max(mean, 1e-9)])
