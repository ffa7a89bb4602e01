"""The BayesPerf correction engine.

For every scheduler time slice the engine assembles a factor graph over the
monitored events:

* a **Student-t observation factor** per event measured in the slice, built
  from that slice's PMI sub-samples (§4.2);
* a **soft linear-constraint factor** per microarchitectural invariant
  relating the monitored events (§4, "Statistical Dependencies");
* a **temporal prior** carrying the previous slice's posterior forward — the
  ``Pr(e_b^t | e_b^{t-1}, e_a^t)`` chaining of §3.

Inference runs Expectation Propagation (Alg. 1) with the slice's observation
factors and each connected group of constraints as EP sites; tilted moments
are computed analytically by default or by MCMC (the accelerator's workload).
All inference happens in a per-event normalised space so that counts spanning
many orders of magnitude stay well conditioned.

The hot path is **array-native end to end**.  :meth:`~BayesPerfEngine.process_batch`
advances every record's temporal state in one pass over ``(B, n)`` arrays
(one row per record, ``n`` engine variables in
:attr:`~BayesPerfEngine.events` order): observation summaries,
intensity-ratio median, scale refresh, observation projection, temporal
prior.  Records then split by measured-event signature; each group binds
through the signature-cached :class:`~repro.fg.compiled.CompiledBinder`,
solves in one kernel or batched-sampler call and is finalized at once.
When the estimator's registry entry allows it (``"analytic"``), two or more
certified groups merge into one canonical kernel call instead
(:mod:`repro.fg.megabatch`), bit-identical to their per-signature calls.
Successor :class:`EngineState` objects hold rows of those arrays; each
:class:`~repro.core.posterior.PosteriorReport` builds its ``EventEstimate``
objects only when read.

The per-event dict form of :class:`EngineState` (``None`` = no estimate
yet) exists only at the boundary: :meth:`~BayesPerfEngine.snapshot`,
:meth:`~BayesPerfEngine.restore`, hand-built states and the WAL codec
(:func:`repro.fleet.wal.engine_state_to_json`).  In the arrays an unknown
prior is ``NaN``, which fails ``prior > 0`` exactly as ``None`` did; an
array-backed state only comes out of a solve, where every event has an
estimate, so ``None`` and a ``NaN`` posterior stay distinct.

Two traps guard bit-identity with the scalar arithmetic the golden traces
pin: ``arr ** 2`` squares while Python's ``x ** 2`` calls libm ``pow`` (they
differ in the last bit on some inputs), so the prior variance uses
``np.float_power(x, 2.0)``; and ``np.maximum(-0.0, 0.0)`` is ``+0.0``, so
clamps written as Python ``max`` use :func:`_pymax`.  Row-wise medians
return exactly what ``np.median`` does (:func:`_row_median`).

Every fast path keeps a reference twin — the object-walking
:class:`~repro.fg.ep.ExpectationPropagation` loop for the analytic kernel,
:class:`~repro.fg.mcmc.ReferenceMCMC` for the batched sampler — selectable
with ``use_compiled_kernel=False`` so differential tests can pin the pairs
together.
"""

from __future__ import annotations

import copy
import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.events.catalog import EventCatalog
from repro.fg.compiled import (
    CompiledBinder,
    CompiledEPKernel,
    ConstraintSiteBinder,
    ObservationSiteBinder,
    compile_factor_graph,
)
from repro.fg.distributions import StudentT, student_t_moment_variance
from repro.fg.megabatch import (
    bind_bucketed_observation,
    observation_certified,
    padding_slots,
)
from repro.fg.ep import EPSite, ExpectationPropagation
from repro.fg.factors import (
    Factor,
    GaussianObservation,
    LinearConstraintFactor,
    StudentTObservation,
)
from repro.fg.gaussian import GaussianDensity
from repro.fg.graph import FactorGraph
from repro.fg.mcmc import ChainTrace, StudentTTail
from repro.fg.registry import estimator_names, get_estimator
from repro.invariants.library import InvariantLibrary, standard_invariants
from repro.core.posterior import PosteriorReport
from repro.pmu.sampling import SampledTrace, SamplingRecord
from repro.pmu.traces import EstimateTrace

#: All registered moment estimators (the :mod:`repro.fg.registry` the
#: samplers and their reference twins self-register into; "mcmc" = per-site
#: tilted MCMC inside the EP loop, the paper's accelerator workload).
#: Kept as a module attribute for backward compatibility — the registry is
#: the source of truth.
KNOWN_ESTIMATORS = estimator_names()

#: One group's solved posterior: ``(G, n)`` means and variances in
#: normalised space, ``(G,)`` EP iterations and convergence flags.
_Solved = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _pymax(a, b):
    """Element-wise Python ``max(a, b)``: *b* only where ``b > a``.

    Unlike ``np.maximum`` this keeps a ``NaN`` or ``-0.0`` in *a*, as
    Python's ``max`` does; the golden traces pin that arithmetic.
    """
    return np.where(b > a, b, a)


def _row_median(values: np.ndarray, valid: np.ndarray, empty: float) -> np.ndarray:
    """``np.median`` of each row's *valid* entries; *empty* for rows with none.

    The middle element for an odd count, ``(a + b) / 2`` of the two middle
    elements for an even one, and ``NaN`` when a valid entry is ``NaN`` —
    exactly what ``np.median`` returns for the row's valid entries.
    """
    if values.shape[1] == 0:
        return np.full(values.shape[0], float(empty))
    count = valid.sum(axis=1)
    ordered = np.sort(np.where(valid, values, np.inf), axis=1)
    rows = np.arange(values.shape[0])
    upper = ordered[rows, np.minimum(count // 2, values.shape[1] - 1)]
    lower = ordered[rows, np.maximum((count - 1) // 2, 0)]
    median = np.where(count % 2 == 1, upper, (lower + upper) / 2)
    median = np.where(np.isnan(np.where(valid, values, 0.0)).any(axis=1), np.nan, median)
    return np.where(count > 0, median, empty)


class EngineState:
    """Snapshot of one monitoring run's temporal state.

    A :class:`BayesPerfEngine` carries state between consecutive slices (the
    previous posterior means, the per-event normalisation scales, the tick
    counter and — for MCMC moment estimation — the RNG stream).  Capturing
    that state lets one engine instance serve many interleaved monitoring
    runs — the fleet worker pool keeps each host's state between batches
    instead of constructing a fresh engine per host.

    The constructor builds the dict form (``None`` = no estimate yet).
    States from :meth:`BayesPerfEngine.process_batch` hold array rows in
    engine variable order; their ``prior_mean`` / ``scale`` are read-only
    mappings built on first access.  Both forms are accepted everywhere.
    """

    def __init__(self, prior_mean=None, scale=None, tick: int = 0, rng_state=None):
        self.prior_mean = {} if prior_mean is None else prior_mean
        self.scale = {} if scale is None else scale
        self.tick = tick
        self.rng_state: Optional[Dict] = rng_state
        #: ``(events, prior row, scale row)`` of an array-backed state.
        self._rows = None

    @classmethod
    def _from_rows(cls, events, prior, scale, tick, rng_state) -> "EngineState":
        state = cls.__new__(cls)
        state.tick, state.rng_state, state._rows = tick, rng_state, (events, prior, scale)
        return state

    @cached_property
    def prior_mean(self) -> Mapping[str, Optional[float]]:
        return MappingProxyType(dict(zip(self._rows[0], self._rows[1].tolist())))

    @cached_property
    def scale(self) -> Mapping[str, float]:
        return MappingProxyType(dict(zip(self._rows[0], self._rows[2].tolist())))

    def __eq__(self, other) -> bool:
        if not isinstance(other, EngineState):
            return NotImplemented
        return (self.tick, self.rng_state, dict(self.prior_mean), dict(self.scale)) == (
            other.tick, other.rng_state, dict(other.prior_mean), dict(other.scale)
        )

    __hash__ = None  # type: ignore[assignment]


@dataclass
class _PreparedGroup:
    """One signature group of a batch, prepared for (batched) inference.

    Arrays are ``(G, E)`` over the measured events or ``(G, n)`` over every
    engine variable, one row per record.
    """

    #: Measured events in record order (the graph structure) and their slots.
    signature: Tuple[str, ...]
    slots: np.ndarray
    #: Positions of the group's records in the batch.
    indices: List[int]
    records: List[SamplingRecord]
    #: Observation summaries (§4.2): quantum totals, Student-t scales, dfs.
    loc: np.ndarray
    sigma: np.ndarray
    df: np.ndarray
    #: Normalised projected observation moments.
    obs_mean: np.ndarray
    obs_scale: np.ndarray
    obs_variance: np.ndarray
    #: Refreshed normalisation scales and the normalised temporal prior.
    scales: np.ndarray
    prior_mean: np.ndarray
    prior_var: np.ndarray
    #: Per record: input tick, RNG state after its seed draw, MCMC seed.
    ticks: List[int]
    rng_states: List[Optional[Dict]]
    mcmc_seeds: List[int]

    def __len__(self) -> int:
        return len(self.indices)


def _prior_information(prior_mean: np.ndarray, prior_var: np.ndarray):
    """Diagonal ``(G, n, n)`` prior precision and ``(G, n)`` shift."""
    batch, n = prior_mean.shape
    precision = np.zeros((batch, n, n))
    diagonal = np.arange(n)
    precision[:, diagonal, diagonal] = 1.0 / prior_var
    return precision, prior_mean / prior_var


class BayesPerfEngine:
    """Turns multiplexed counter samples into posterior event estimates.

    Parameters
    ----------
    catalog:
        Event catalog of the monitored CPU.
    events:
        Events the monitoring application registered.  The catalog's fixed
        events are always added (they are measured for free).
    library:
        Invariant library; defaults to the standard one.
    observation_model:
        ``"student_t"`` (paper, §4.2) or ``"gaussian"`` (ablation).
    moment_estimator:
        Any name registered in :mod:`repro.fg.registry`: ``"analytic"``
        (exact Gaussian projections), ``"mcmc"`` (per-site tilted-moment
        sampling inside the EP loop — the accelerator's workload, batched
        over records on the compiled kernel's buffers) or
        ``"batched-mcmc"`` (full-posterior coupled-chain sampling through
        the compiled kernel's buffers, vectorized across a batch).  Names
        are validated against the registry (unknown names raise, listing
        the registered estimators) and each entry supplies the engine's
        implementation classes and adaptation default; the engine's solve
        wiring currently drives these three built-in estimator shapes.
    mcmc_adapt:
        Per-record proposal-scale adaptation during burn-in for the sampled
        estimators.  ``None`` keeps each estimator's default: *on* for the
        per-site ``"mcmc"`` sampler, *off* for ``"batched-mcmc"`` (whose
        golden-trace numerics predate adaptation).
    chain_recorder:
        Optional :class:`~repro.fg.mcmc.ChainTrace` capturing one record
        per (slice, EP iteration, site) chain the ``"mcmc"`` estimator
        runs; serialise it with :mod:`repro.fleet.tracefile` and feed it to
        the :mod:`repro.accelerator` co-simulation.
    observer:
        Optional :class:`~repro.obs.Observer`.  When present the engine
        emits ``kernel.compile``/``kernel.bind``/``kernel.solve`` spans and
        kernel-cache hit/miss counters; when ``None`` (the default) the hot
        path is untouched.
    drift:
        Relative standard deviation of the temporal prior: how much an event
        is expected to change between consecutive slices.
    min_relative_sigma:
        Floor on the relative uncertainty assigned to an observation.
    relation_tolerance_scale:
        Multiplier on every relation's tolerance (ablation knob).
    ep_max_iterations, ep_damping, mcmc_samples, mcmc_burn_in, seed:
        EP and MCMC controls.
    use_compiled_kernel:
        Route compiled-estimator slices through the vectorized array path
        (:class:`~repro.fg.compiled.CompiledEPKernel` /
        :class:`~repro.fg.mcmc.BatchedMCMC`; compiled structures and
        binders are cached per measured-event signature).  Disable to run
        each estimator's reference twin instead — the object-walking
        :class:`~repro.fg.ep.ExpectationPropagation` loop for
        ``"analytic"``, :class:`~repro.fg.mcmc.ReferenceMCMC` for
        ``"batched-mcmc"``, :class:`~repro.fg.ep.ReferenceSiteMCMC` for
        ``"mcmc"`` — for differential A/B comparison.
    """

    def __init__(
        self,
        catalog: EventCatalog,
        events: Sequence[str],
        *,
        library: Optional[InvariantLibrary] = None,
        observation_model: str = "student_t",
        moment_estimator: str = "analytic",
        drift: float = 0.25,
        min_relative_sigma: float = 0.02,
        relation_tolerance_scale: float = 1.0,
        ep_max_iterations: int = 8,
        ep_damping: float = 1.0,
        mcmc_samples: int = 300,
        mcmc_burn_in: int = 200,
        mcmc_adapt: Optional[bool] = None,
        chain_recorder: Optional[ChainTrace] = None,
        observer=None,
        use_intensity_chain: bool = True,
        use_compiled_kernel: bool = True,
        seed: int = 0,
    ) -> None:
        if observation_model not in ("student_t", "gaussian"):
            raise ValueError(f"unknown observation model {observation_model!r}")
        # Registry resolution: raises for unknown names, listing the
        # registered estimators.
        self._estimator = get_estimator(moment_estimator)
        if self._estimator.baseline:
            raise ValueError(
                f"{moment_estimator!r} is a baseline correction method, not a "
                f"moment estimator; run it through the scenario-grid comparison "
                f"(RunSpec.baselines) instead"
            )
        if drift <= 0:
            raise ValueError("drift must be positive")
        if min_relative_sigma <= 0:
            raise ValueError("min_relative_sigma must be positive")
        if relation_tolerance_scale <= 0:
            raise ValueError("relation_tolerance_scale must be positive")

        self.catalog = catalog
        monitored = list(dict.fromkeys(events))
        fixed = [spec.name for spec in catalog.fixed_events]
        #: Events reported to the user: the registered ones plus fixed counters.
        self.monitored_events: Tuple[str, ...] = tuple(
            monitored + [f for f in fixed if f not in monitored]
        )
        self.library = library if library is not None else standard_invariants()
        # The model reasons over every event any catalog invariant touches;
        # events that are never measured become latent variables whose values
        # are inferred jointly with the monitored ones.
        self.relations = self.library.for_catalog(catalog)
        latent: List[str] = []
        for relation in self.relations:
            for event in relation.events:
                if event not in self.monitored_events and event not in latent:
                    latent.append(event)
        #: Every engine variable: the monitored events first, then latents.
        #: The column order of all ``(G, n)`` state arrays.
        self.events: Tuple[str, ...] = tuple(self.monitored_events) + tuple(latent)
        self.observation_model = observation_model
        self.moment_estimator = moment_estimator
        self.drift = drift
        self.min_relative_sigma = min_relative_sigma
        self.relation_tolerance_scale = relation_tolerance_scale
        self.ep_max_iterations = ep_max_iterations
        self.ep_damping = ep_damping
        self.mcmc_samples = mcmc_samples
        self.mcmc_burn_in = mcmc_burn_in
        # Estimator-specific adaptation default (from the registry entry).
        self.mcmc_adapt = mcmc_adapt if mcmc_adapt is not None else self._estimator.default_adapt
        self.chain_recorder = chain_recorder
        self._observer = observer
        self.use_intensity_chain = use_intensity_chain
        self.use_compiled_kernel = use_compiled_kernel
        self._seed = seed
        #: Scratch generator for the per-record MCMC seed draws; the stream
        #: itself lives in each run's ``EngineState.rng_state``.
        self._rng = np.random.default_rng(seed)
        self._fresh_rng_state = self._rng.bit_generator.state
        self.name = "bayesperf"

        self._relation_groups = self._group_relations()
        self._event_slot: Dict[str, int] = {e: i for i, e in enumerate(self.events)}
        n = len(self.events)
        #: A fresh run's rows: no estimates yet, unit scales.
        self._fresh_rows = (np.full(n, np.nan), np.ones(n))
        #: Record event order -> (measured-event signature, its global slots).
        self._signatures: Dict[Tuple[str, ...], Tuple[Tuple[str, ...], np.ndarray]] = {}
        #: Compiled kernel + binder per measured-event signature (``None``
        #: marks a signature that failed to compile and uses reference EP).
        self._kernel_cache: Dict[
            Tuple[str, ...], Optional[Tuple[CompiledEPKernel, CompiledBinder]]
        ] = {}
        #: Constraint-site binder per ``(site position, relation group)``:
        #: a group's site variables and coefficients do not depend on the
        #: signature, so every compiled structure shares one binder (and
        #: its scatter plan).
        self._constraint_binders: Dict[Tuple[int, int], ConstraintSiteBinder] = {}
        #: Canonical full-width kernel + binder for the mega-batch path
        #: (compiled lazily; ``False`` = not built yet, ``None`` = the
        #: canonical structure does not compile).
        self._mega_cache = False
        self.reset()

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        """Forget all temporal state (start of a new monitoring run).

        The RNG stream restarts from the seed too, so two runs over the same
        records produce identical results even with an MCMC moment estimator.
        """
        #: The current run's state (``None`` = fresh), advanced by
        #: :meth:`process_record`.
        self._state: Optional[EngineState] = None

    def snapshot(self) -> EngineState:
        """Capture the temporal state of the current monitoring run (dict form)."""
        return self._dict_state(self._state)

    def restore(self, state: EngineState) -> None:
        """Resume a monitoring run from a previously captured snapshot.

        Unknown events in the snapshot are rejected: a snapshot can only be
        restored into an engine built for the same (catalog, event-set) key.
        """
        self._state_rows(state)
        # Dict states are copied: later edits to the caller's dicts must not
        # leak in.  Array-backed states are read-only and own their RNG dict.
        self._state = state if state._rows is not None else self._dict_state(state)

    def _dict_state(self, state: Optional[EngineState]) -> EngineState:
        """A dict-form copy of *state* over every engine event (``None`` = fresh)."""
        prior_mean, scale = dict.fromkeys(self.events), dict.fromkeys(self.events, 1.0)
        tick, rng_state = 0, None
        if state is not None:
            prior_mean.update(state.prior_mean)
            scale.update(state.scale)
            tick, rng_state = state.tick, state.rng_state
        if rng_state is None:
            rng_state = self._fresh_rng_state
        return EngineState(prior_mean, scale, tick, copy.deepcopy(rng_state))

    def _state_rows(self, state: Optional[EngineState]) -> Tuple[np.ndarray, np.ndarray]:
        """One run's ``(n,)`` prior-mean and scale rows (unknown prior = NaN)."""
        if state is None:
            return self._fresh_rows
        rows = state._rows
        if rows is not None and (rows[0] is self.events or rows[0] == self.events):
            return rows[1], rows[2]
        prior_mean = state.prior_mean
        unknown = [event for event in prior_mean if event not in self._event_slot]
        if unknown:
            raise ValueError(f"snapshot mentions events unknown to this engine: {unknown}")
        prior, scale = self._fresh_rows[0].copy(), self._fresh_rows[1].copy()
        for event, value in prior_mean.items():
            if value is not None:
                prior[self._event_slot[event]] = value
        for event, value in state.scale.items():
            slot = self._event_slot.get(event)
            if slot is not None:
                scale[slot] = value
        return prior, scale

    # -- construction helpers -------------------------------------------------

    def _group_relations(self) -> Tuple[Tuple[int, ...], ...]:
        """Indices of relations grouped into connected components (EP sites)."""
        if not self.relations:
            return ()
        parent = list(range(len(self.relations)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(i: int, j: int) -> None:
            parent[find(i)] = find(j)

        event_to_first: Dict[str, int] = {}
        for index, relation in enumerate(self.relations):
            for event in relation.events:
                if event in event_to_first:
                    union(index, event_to_first[event])
                else:
                    event_to_first[event] = index
        groups: Dict[int, List[int]] = {}
        for index in range(len(self.relations)):
            groups.setdefault(find(index), []).append(index)
        return tuple(tuple(members) for members in groups.values())

    def _signature(self, record: SamplingRecord) -> Tuple[Tuple[str, ...], np.ndarray]:
        """The record's measured engine events (record order) and their slots."""
        order = tuple(record.samples)
        try:
            return self._signatures[order]
        except KeyError:
            signature = tuple(event for event in order if event in self._event_slot)
            slots = np.array([self._event_slot[e] for e in signature], dtype=np.intp)
            self._signatures[order] = (signature, slots)
            return signature, slots

    def _sample_moments(self, matrix: np.ndarray):
        """Totals, Student-t scales and dfs over the last axis of *matrix*."""
        n = matrix.shape[-1]
        totals = matrix.sum(axis=-1)
        if n >= 2:
            # The quantum total is the sum of the sub-samples; its
            # uncertainty follows from the sub-sample scatter (§4.2).
            stds = matrix.std(axis=-1, ddof=1) * math.sqrt(n)
        else:
            stds = np.abs(totals) * 0.05
        scales = np.maximum(
            np.maximum(stds / math.sqrt(n), np.abs(totals) * self.min_relative_sigma),
            1e-9,
        )
        return totals, scales, np.full(totals.shape, float(max(n - 1, 1)))

    def _summaries(
        self,
        records: Sequence[SamplingRecord],
        signatures: Sequence[Tuple[Tuple[str, ...], np.ndarray]],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(B, n)`` totals, scales and dfs of every record's measured events (§4.2).

        Unmeasured entries are zero.  Each (record, event) pair's sub-samples
        are one row of a ``(K, m)`` matrix reduced in one pass.
        """
        samples = [
            record.samples[event]
            for record, (signature, _) in zip(records, signatures)
            for event in signature
        ]

        def pairs():
            """``(row, event)`` of each sample, for the slow paths below."""
            return [(row, event) for row, (sig, _) in enumerate(signatures) for event in sig]

        try:
            matrix = np.array(samples, dtype=float)
        except ValueError:  # ragged sub-sample counts
            matrix = None
        if matrix is not None and matrix.ndim == 2 and matrix.shape[1] > 0:
            # Uniform sub-sample counts (the schedule's normal shape).
            totals, scales, dfs = self._sample_moments(matrix)
        else:
            # Ragged (or scalar) samples: per-pair passes, same arithmetic.
            totals, scales, dfs = (np.empty(len(samples)) for _ in range(3))
            for k, ((row, event), values) in enumerate(zip(pairs(), samples)):
                values = np.asarray(values, dtype=float).reshape(1, -1)
                if values.size == 0:
                    # A measured event with zero sub-samples is malformed
                    # input (e.g. a truncated trace); fail loudly here
                    # rather than let NaNs poison the temporal chain.
                    raise ValueError(
                        f"record tick {records[row].tick} has no samples for "
                        f"measured event {event!r}"
                    )
                totals[k], scales[k], dfs[k] = (m[0] for m in self._sample_moments(values))
        if any(record.mux_fraction for record in records):
            # Real traces carry perf's t_running/t_enabled bookkeeping: an
            # event that counted only a fraction f of the quantum reports a
            # linearly-scaled total whose sampling noise grows like
            # 1/sqrt(f), so its observation scale widens accordingly.  The
            # simulator leaves mux_fraction empty — synthetic streams take
            # this branch never and keep bit-identical scales.
            for k, (row, event) in enumerate(pairs()):
                fraction = records[row].mux_fraction.get(event)
                if fraction is not None and 0.0 < fraction < 1.0:
                    scales[k] /= math.sqrt(fraction)
        rows = np.repeat(np.arange(len(records)), [len(sig) for sig, _ in signatures])
        columns = np.concatenate([slots for _, slots in signatures])
        out = []
        for values in (totals, scales, dfs):
            full = np.zeros((len(records), len(self.events)))
            full[rows, columns] = values
            out.append(full)
        return tuple(out)

    def _prepare(
        self, items: Sequence[Tuple[Optional[EngineState], SamplingRecord]]
    ) -> List[_PreparedGroup]:
        """Advance every item's temporal state at once, then split into groups.

        Row for row this is the per-slice chain of §3 over ``(B, n)``
        arrays: the intensity ratio (the median of measured-over-previous,
        clipped to ``[0.2, 5]``) advances every prior; observed events are
        rescaled to their measured magnitude, others keep their previous
        estimate or take the slice's median magnitude; observations and the
        prior are then projected into the refreshed normalised space.
        Records split into one group per measured-event signature (one per
        record for the reference twins, which solve in input order).
        """
        records = [record for _, record in items]
        signatures = [self._signature(record) for record in records]
        rows = [self._state_rows(state) for state, _ in items]
        prior = np.stack([row[0] for row in rows])
        scale = np.stack([row[1] for row in rows])
        loc, sigma, df = self._summaries(records, signatures)
        magnitude = np.abs(loc)
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.use_intensity_chain:
                # Events measured now that also have a previous estimate
                # vote on how much the overall activity level moved
                # (unmeasured entries are zero and never vote).
                ratio = _row_median(loc / prior, (prior > 0) & (loc > 0), 1.0)
                ratio = np.where(0.2 > ratio, 0.2, ratio)
                ratio = np.where(5.0 < ratio, 5.0, ratio)
            else:
                ratio = np.ones(len(records))
            # Observed events are always rescaled to their current measured
            # magnitude so that a previous bad estimate can never make a
            # fresh observation numerically irrelevant; unobserved ones keep
            # their estimate, or else take the slice's median magnitude.
            known = prior > 0
            if not known.all():
                fallback = _pymax(_row_median(magnitude, magnitude > 0, 1.0), 1e-9)
                unset = (scale <= 0) | (scale == 1.0)
                scale = np.where(known, prior, np.where(unset, fallback[:, None], scale))
            else:
                scale = prior
            scale = np.where(magnitude > 0, _pymax(magnitude, 1e-9), scale)
            obs_mean = loc / scale
            obs_scale = np.maximum(sigma / scale, 1e-9)
            if self.observation_model == "student_t":
                obs_variance = student_t_moment_variance(obs_scale, df)
            else:
                obs_variance = obs_scale**2
            # The previous posterior, advanced by the intensity ratio, is the
            # prior mean; its spread is the relative ``drift``.  Nothing
            # known yet: a broad prior centred on the event's scale.
            advanced = prior * ratio[:, None] / scale
            prior_mean = np.where(known, advanced, 1.0)
            prior_var = np.where(
                known, np.float_power(self.drift * advanced + 1e-6, 2.0), 25.0
            )

        ticks, rng_states, seeds = [], [], []
        draw = self.moment_estimator in ("batched-mcmc", "mcmc")
        for state, _ in items:
            rng_state = None if state is None else state.rng_state
            if rng_state is None:
                rng_state = self._fresh_rng_state
            seed = 0
            if draw:
                # Drawn per record under that record's own stream, so a
                # batch member samples the same chain its looped twin would.
                self._rng.bit_generator.state = rng_state
                seed = int(self._rng.integers(0, 2**63))
                rng_state = self._rng.bit_generator.state
            else:  # every successor owns its RNG dict, shared with no other state
                rng_state = copy.deepcopy(rng_state)
            ticks.append(0 if state is None else state.tick)
            rng_states.append(rng_state)
            seeds.append(seed)

        per_signature = self._compiled_path()
        members: Dict[object, List[int]] = {}
        for index, (signature, _) in enumerate(signatures):
            members.setdefault(signature if per_signature else index, []).append(index)
        observations = np.stack([loc, sigma, df, obs_mean, obs_scale, obs_variance])
        variables = np.stack([scale, prior_mean, prior_var])
        groups = []
        for indices in members.values():
            signature, slots = signatures[indices[0]]
            take = np.array(indices, dtype=np.intp)
            # One gather per block: (6, G, E) measured columns and (3, G, n)
            # rows, unpacked below in _PreparedGroup field order.
            observed = observations[:, take[:, None], slots]
            per_variable = variables[:, take]
            groups.append(
                _PreparedGroup(
                    signature,
                    slots,
                    indices,
                    [records[i] for i in indices],
                    *observed,
                    *per_variable,
                    [ticks[i] for i in indices],
                    [rng_states[i] for i in indices],
                    [seeds[i] for i in indices],
                )
            )
        return groups

    def _build_factors(
        self, signature, locs, sigmas, dfs, scales: np.ndarray
    ) -> Tuple[List[Factor], List[List[Factor]]]:
        """Observation factors and per-group constraint factors (normalised).

        The object-level slice model for one record's ``(E,)`` summaries
        and ``(n,)`` scales — needed only to compile a new signature and on
        the reference-twin paths; the compiled hot path binds the summary
        arrays directly.
        """
        slot = self._event_slot
        observation_factors: List[Factor] = []
        for event, loc, sigma, df in zip(signature, locs, sigmas, dfs):
            scale = scales[slot[event]]
            loc_norm = loc / scale
            sigma_norm = max(sigma / scale, 1e-9)
            if self.observation_model == "student_t":
                observation_factors.append(
                    StudentTObservation(
                        name=f"obs::{event}",
                        variable=event,
                        distribution=StudentT(loc=loc_norm, scale=sigma_norm, df=float(df)),
                    )
                )
            else:
                observation_factors.append(
                    GaussianObservation(
                        name=f"obs::{event}", variable=event, observed=loc_norm, sigma=sigma_norm
                    )
                )

        constraint_groups: List[List[Factor]] = []
        for group in self._relation_groups:
            factors: List[Factor] = []
            for index in group:
                relation = self.relations[index]
                coefficients = {
                    event: coef * float(scales[slot[event]])
                    for event, coef in relation.coefficients.items()
                }
                magnitude = sum(abs(value) for value in coefficients.values())
                sigma = max(
                    relation.tolerance * self.relation_tolerance_scale * magnitude, 1e-9
                )
                factors.append(
                    LinearConstraintFactor(
                        name=f"rel::{relation.name}",
                        coefficients=coefficients,
                        sigma=sigma,
                        description=relation.description,
                    )
                )
            constraint_groups.append(factors)
        return observation_factors, constraint_groups

    # -- inference -------------------------------------------------------------

    @property
    def _has_sites(self) -> bool:
        """Whether the engine's graphs ever contain constraint sites."""
        return bool(self._relation_groups)

    def _compiled_path(self) -> bool:
        return self.use_compiled_kernel and self._estimator.compiled_path

    def _site_factor_lists(
        self,
        observation_factors: List[Factor],
        constraint_groups: List[List[Factor]],
    ) -> List[Tuple[str, List[Factor]]]:
        """Named EP site partition of one slice's factors (in site order)."""
        site_lists: List[Tuple[str, List[Factor]]] = []
        if observation_factors:
            site_lists.append(("slice-observations", observation_factors))
        for group_index, factors in enumerate(constraint_groups):
            if factors:
                site_lists.append((f"constraints-{group_index}", factors))
        return site_lists

    def _assemble_graph(
        self, site_lists: List[Tuple[str, List[Factor]]]
    ) -> Tuple[FactorGraph, List[EPSite]]:
        """Materialise the FactorGraph + EPSite objects for one slice.

        Only needed on a kernel-cache miss (to compile the structure) and on
        the reference-twin paths; the compiled hot path binds summary
        arrays directly.
        """
        graph = FactorGraph(variables=self.events)
        sites: List[EPSite] = []
        for name, factors in site_lists:
            for factor in factors:
                graph.add_factor(factor)
            sites.append(EPSite(name=name, factor_names=tuple(f.name for f in factors)))
        return graph, sites

    def _build_binder(
        self, structure, site_names: Sequence[str], measured: Tuple[str, ...]
    ) -> CompiledBinder:
        """Array-native binder for one compiled structure.

        Lowered once per measured-event signature: the observation site's
        slot table, in the structure's site-local ordering, plus the
        engine's shared constraint-site binders.
        """
        observation: Optional[ObservationSiteBinder] = None
        constraints: List[ConstraintSiteBinder] = []
        for index, name in enumerate(site_names):
            site = structure.sites[index]
            local = {variable: i for i, variable in enumerate(site.variables)}
            if name == "slice-observations":
                slots = np.array([local[event] for event in measured], dtype=np.intp)
                observation = ObservationSiteBinder(site=index, slots=slots, width=site.width)
                continue
            group = int(name.rsplit("-", 1)[1])
            binder = self._constraint_binders.get((index, group))
            if binder is None:
                relations = [self.relations[i] for i in self._relation_groups[group]]
                coefficients = np.zeros((len(relations), site.width))
                tolerances = np.empty(len(relations))
                for row, relation in enumerate(relations):
                    for event, coefficient in relation.coefficients.items():
                        coefficients[row, local[event]] = coefficient
                    tolerances[row] = relation.tolerance * self.relation_tolerance_scale
                binder = ConstraintSiteBinder(
                    site=index,
                    coefficients=coefficients,
                    tolerances=tolerances,
                    width=site.width,
                )
                self._constraint_binders[index, group] = binder
            constraints.append(binder)
        return CompiledBinder(
            structure=structure, observation=observation, constraints=tuple(constraints)
        )

    def _compile(
        self, signature: Tuple[str, ...]
    ) -> Optional[Tuple[CompiledEPKernel, CompiledBinder]]:
        """Compile the slice structure of *signature* (``None`` if it cannot).

        Placeholder values stand in for the summaries and scales: only the
        factor *types* and variable sets matter for compilation.
        """
        ones = np.ones(len(signature))
        site_lists = self._site_factor_lists(
            *self._build_factors(signature, ones, ones, 3.0 * ones, self._fresh_rows[1])
        )
        graph, sites = self._assemble_graph(site_lists)
        structure = compile_factor_graph(graph, sites, variables=self.events)
        if structure is None:
            return None
        kernel = CompiledEPKernel(
            structure, damping=self.ep_damping, max_iterations=self.ep_max_iterations
        )
        binder = self._build_binder(structure, [name for name, _ in site_lists], signature)
        return kernel, binder

    def _compiled_kernel(
        self, signature: Tuple[str, ...]
    ) -> Optional[Tuple[CompiledEPKernel, CompiledBinder]]:
        """Cached compiled kernel + binder for one graph structure.

        The structure is fully determined by which monitored events the
        slice measured (the constraint topology is fixed per engine), so
        kernels and their array-native binders are cached per
        measured-event signature — one compilation per schedule rotation
        position.
        """
        if not self._compiled_path():
            return None
        observer = self._observer
        try:
            compiled = self._kernel_cache[signature]
            if observer is not None:
                observer.count("kernel.cache.hits")
        except KeyError:
            if observer is not None:
                observer.count("kernel.cache.misses")
            with (
                observer.span("kernel.compile", signature=len(signature))
                if observer is not None
                else nullcontext()
            ):
                compiled = self._compile(signature)
            self._kernel_cache[signature] = compiled
        return compiled

    # -- mega-batching (repro.fg.megabatch) ---------------------------------

    def _megabatch_structure(self) -> Optional[Tuple[CompiledEPKernel, CompiledBinder]]:
        """Canonical full-width kernel + binder for cross-signature solves.

        Within one engine the variable set and constraint topology are
        signature-invariant; only the observation site's width varies.  The
        canonical structure treats *every* engine variable as observed, so
        any signature embeds by scattering its measured lanes and padding
        the rest with exact zeros.  Compiled once per engine, through the
        same :meth:`_compile` path as per-signature structures, so
        constraint-site variable orderings match exactly.
        """
        if self._mega_cache is False:
            self._mega_cache = self._compile(self.events)
        return self._mega_cache

    def _megabatch_eligible(self, groups: List[_PreparedGroup]) -> List[_PreparedGroup]:
        """Signature groups of this batch that may merge into one canonical solve.

        A group qualifies when it measured at least one event and every
        record's projected observation precision is finite and strictly
        positive — the condition under which skipping the canonical
        observation site's PD probe is bit-identical to the per-signature
        probe (see :func:`repro.fg.megabatch.observation_certified`).
        Merging only ever pays off across *multiple* signatures, so a
        homogeneous batch keeps the plain per-signature path untouched.
        Whether an estimator's batched path supports merging at all is the
        registry's call (``EstimatorEntry.megabatch``).
        """
        if (
            not self._estimator.megabatch
            or not self._compiled_path()
            or len(groups) < 2
            or self._megabatch_structure() is None
        ):
            return []
        eligible = [
            group
            for group in groups
            if group.signature and observation_certified(group.obs_variance)
        ]
        return eligible if len(eligible) >= 2 else []

    def _solve_megabatch(self, groups: List[_PreparedGroup]) -> _Solved:
        """Solve several signature groups in one canonical kernel call.

        Records are laid out group-contiguously in one bucketed
        structure-of-arrays layout: the observation site is padded to the
        round's widest signature, populated lanes carry the exact floats
        the per-signature binder would produce, padded lanes carry exact
        zeros scattered onto unmeasured slots via the per-record slot
        table — so the merged solve reproduces every per-signature solve
        bit for bit.  The kernel's PD repair re-probes at the original
        group granularity (``repair_groups``): the Cholesky probe is
        all-or-nothing per call, so merging must not let one group's
        indefinite block change another group's repair.  Returns the
        groups' rows concatenated in order.
        """
        kernel, binder = self._megabatch_structure()
        batch, n = sum(len(group) for group in groups), len(self.events)
        obs_site = binder.observation.site
        observer = self._observer
        with (
            observer.span("kernel.megabind", batch=batch, signatures=len(groups))
            if observer is not None
            else nullcontext()
        ):
            width = max(len(group.signature) for group in groups)
            blocks = []
            row = 0
            for group in groups:
                blocks.append(
                    (
                        np.arange(row, row + len(group)),
                        group.slots,
                        padding_slots(width, group.slots, n),
                        group.obs_mean,
                        group.obs_variance,
                    )
                )
                row += len(group)
            obs_block = bind_bucketed_observation(width, batch, blocks)
            scales = np.concatenate([group.scales for group in groups])
            stacked: List[Tuple[np.ndarray, np.ndarray]] = [None] * len(  # type: ignore[list-item]
                binder.structure.sites
            )
            stacked[obs_site] = obs_block[:2]
            for constraint in binder.constraints:
                site = binder.structure.sites[constraint.site]
                stacked[constraint.site] = constraint.bind(scales[:, site.index])
            prior_precision, prior_shift = _prior_information(
                np.concatenate([group.prior_mean for group in groups]),
                np.concatenate([group.prior_var for group in groups]),
            )

        with (
            observer.span("kernel.solve", batch=batch, estimator="megabatch")
            if observer is not None
            else nullcontext()
        ):
            result = kernel.run_stacked(
                stacked,
                prior_precision,
                prior_shift,
                certified_sites=(obs_site,),
                site_index_overrides={obs_site: obs_block[2]},
                repair_groups=[block[0] for block in blocks],
            )
        return result.means, result.variances, result.iterations, result.converged

    def _solve_group_arrays(
        self,
        group: _PreparedGroup,
        kernel: CompiledEPKernel,
        binder: CompiledBinder,
    ) -> _Solved:
        """Solve one same-signature group through the array-native path.

        Every step — binding, priors, the EP kernel or the batched MCMC
        estimator — is element-wise or gufunc-batched, so a group of one is
        bit-identical to the same slice inside a larger group.
        """
        observer = self._observer
        with (
            observer.span("kernel.bind", batch=len(group))
            if observer is not None
            else nullcontext()
        ):
            stacked = binder.bind_batch(group.obs_mean, group.obs_variance, group.scales)
            prior_precision, prior_shift = _prior_information(
                group.prior_mean, group.prior_var
            )

        with (
            observer.span(
                "kernel.solve", batch=len(group), estimator=self.moment_estimator
            )
            if observer is not None
            else nullcontext()
        ):
            return self._dispatch_group_solve(
                group, kernel, binder, stacked, prior_precision, prior_shift
            )

    def _dispatch_group_solve(
        self,
        group: _PreparedGroup,
        kernel: CompiledEPKernel,
        binder: CompiledBinder,
        stacked,
        prior_precision: np.ndarray,
        prior_shift: np.ndarray,
    ) -> _Solved:
        """Route one bound group to its estimator's batched solve."""
        if self.moment_estimator == "analytic":
            # The mega-batch path's predicate: a certified observation block
            # passes the PD probe untouched, so skipping the probe is exact.
            certified = (
                (binder.observation.site,)
                if binder.observation is not None
                and observation_certified(group.obs_variance)
                else ()
            )
            result = kernel.run_stacked(
                stacked, prior_precision, prior_shift, certified_sites=certified
            )
            return result.means, result.variances, result.iterations, result.converged

        tail = None
        if self.observation_model == "student_t" and group.signature:
            # The observation's non-Gaussian correction: in site-local
            # coordinates (the binder's slot table) for the per-site
            # sampler, in global slots for the full-posterior one.
            tail = StudentTTail(
                slots=(
                    binder.observation.slots
                    if self.moment_estimator == "mcmc"
                    else group.slots
                ),
                loc=group.obs_mean,
                scale=group.obs_scale,
                df=group.df,
                variance=group.obs_variance,
            )
        if self.moment_estimator == "mcmc":
            # Per-site tilted MCMC inside the EP loop: the accelerator's
            # inner loop, batched over the group.
            sampler = self._estimator.batched(
                kernel,
                n_samples=self.mcmc_samples,
                burn_in=self.mcmc_burn_in,
                adapt=self.mcmc_adapt,
                recorder=self.chain_recorder,
            )
            solved = sampler.run(
                stacked,
                prior_precision,
                prior_shift,
                seeds=group.mcmc_seeds,
                site_tails={} if tail is None else {binder.observation.site: tail},
                ticks=[record.tick for record in group.records],
            )
            return solved.means, solved.variances, solved.iterations, solved.converged

        # Batched MCMC: the coupled-chain estimator over the same buffers.
        sampler = self._estimator.batched(
            kernel,
            n_samples=self.mcmc_samples,
            burn_in=self.mcmc_burn_in,
            adapt=self.mcmc_adapt,
        )
        sampled = sampler.run(
            stacked,
            prior_precision,
            prior_shift,
            seeds=group.mcmc_seeds,
            extra_log_density=tail,
        )
        batch = len(group)
        return (
            sampled.means,
            sampled.variances,
            np.zeros(batch, dtype=int),
            np.ones(batch, dtype=bool),
        )

    def _solve_reference_row(
        self, group: _PreparedGroup, row: int
    ) -> Tuple[Mapping[str, float], Mapping[str, float], int, bool]:
        """One record through its estimator's object-walking reference twin.

        Used with ``use_compiled_kernel=False``, for structures that do not
        compile, and for slices without any site (the posterior is the
        prior).  The sampled twins are seeded with the same per-record seed
        the batched path would use — the differential harness pins each
        pair within floating-point noise.
        """
        prior = GaussianDensity.diagonal(
            dict(zip(self.events, group.prior_mean[row].tolist())),
            dict(zip(self.events, group.prior_var[row].tolist())),
        )
        if not (group.signature or self._has_sites):
            return prior.mean(), prior.variance(), 0, True
        observation_factors, constraint_groups = self._build_factors(
            group.signature, group.loc[row], group.sigma[row], group.df[row], group.scales[row]
        )
        rng = np.random.default_rng(group.mcmc_seeds[row])
        site_lists = self._site_factor_lists(observation_factors, constraint_groups)
        if self.moment_estimator == "batched-mcmc":
            # The registry names the twin class, so swapping a registered
            # implementation swaps every entry point at once.
            twin = self._estimator.reference(
                site_lists,
                prior,
                n_samples=self.mcmc_samples,
                burn_in=self.mcmc_burn_in,
                adapt=self.mcmc_adapt,
            )
            moments = twin.run(rng=rng)
            return moments.mean(), moments.variance(), 0, True
        if self.moment_estimator == "mcmc":
            twin = self._estimator.reference(
                site_lists,
                prior,
                n_samples=self.mcmc_samples,
                burn_in=self.mcmc_burn_in,
                adapt=self.mcmc_adapt,
                damping=self.ep_damping,
                max_iterations=self.ep_max_iterations,
                recorder=self.chain_recorder,
            )
            moments = twin.run(rng=rng, tick=group.records[row].tick)
            return moments.mean(), moments.variance(), moments.iterations, moments.converged
        graph, sites = self._assemble_graph(site_lists)
        result = ExpectationPropagation(
            graph,
            sites,
            prior,
            moment_estimator=self.moment_estimator,
            damping=self.ep_damping,
            max_iterations=self.ep_max_iterations,
            mcmc_samples=self.mcmc_samples,
            rng=self._rng,
        ).run()
        posterior = result.posterior
        return posterior.mean(), posterior.variance(), result.iterations, result.converged

    def _solve_reference(self, group: _PreparedGroup) -> _Solved:
        """The group's records one by one through :meth:`_solve_reference_row`."""
        rows = [self._solve_reference_row(group, row) for row in range(len(group))]
        return (
            np.array([[means[e] for e in self.events] for means, _, _, _ in rows]),
            np.array([[variances[e] for e in self.events] for _, variances, _, _ in rows]),
            np.array([row[2] for row in rows], dtype=int),
            np.array([row[3] for row in rows], dtype=bool),
        )

    def _finalize(
        self,
        groups: List[_PreparedGroup],
        solved: _Solved,
        outputs: List[Optional[Tuple[PosteriorReport, EngineState]]],
    ) -> None:
        """Turn solved groups (rows concatenated) into reports + successor states.

        Denormalised means are clamped at zero; each event's next prior
        (latent events too) is its mean floored at ``1e-9``.
        """
        means, variances, iterations, converged = solved
        scales = np.concatenate([group.scales for group in groups])
        mean = _pymax(means * scales, 0.0)
        std = np.sqrt(_pymax(variances, 0.0)) * scales
        following = _pymax(mean, 1e-9)
        monitored = self.monitored_events
        width = len(monitored)
        iterations, converged = iterations.tolist(), converged.tolist()
        row = 0
        for group in groups:
            for index, record, tick, rng_state in zip(
                group.indices, group.records, group.ticks, group.rng_states
            ):
                report = PosteriorReport._from_rows(
                    record.tick, monitored, mean[row, :width], std[row, :width],
                    group.signature, int(iterations[row]), bool(converged[row]),
                )
                state = EngineState._from_rows(
                    self.events, following[row], scales[row], tick + 1, rng_state
                )
                outputs[index] = (report, state)
                row += 1

    def process_record(self, record: SamplingRecord) -> PosteriorReport:
        """Infer the posterior for one scheduler time slice.

        A one-item :meth:`process_batch` that advances the engine's own run.
        """
        report, self._state = self.process_batch([(self._state, record)])[0]
        return report

    def process_batch(
        self, items: Sequence[Tuple[Optional[EngineState], SamplingRecord]]
    ) -> List[Tuple[PosteriorReport, EngineState]]:
        """Solve many independent slices in vectorized batches.

        Each item pairs a monitoring run's temporal state (``None`` for a
        fresh run, or a state in either form) with its next record.
        Records are grouped by graph-structure signature; every group is
        prepared, solved and finalized in one array-native pass each —
        :meth:`CompiledEPKernel.run_stacked` for the analytic estimator,
        the batched samplers for ``"mcmc"``/``"batched-mcmc"``.  Groups the
        mega-batch path certifies (see :meth:`_megabatch_eligible`) share
        one canonical kernel call when there are at least two.  The engine's
        own run (:meth:`snapshot`) is left untouched.  Returns, in input
        order, each slice's report and array-backed successor state — the
        same numbers, bit for bit, whatever the batch's composition.
        """
        items = list(items)
        if not items:
            return []
        groups = self._prepare(items)
        outputs: List[Optional[Tuple[PosteriorReport, EngineState]]] = [None] * len(items)

        # Cross-signature mega-batching: merge every eligible signature
        # group into one canonical full-width solve (bit-identical to the
        # per-signature solves below — padded lanes are exact no-ops).
        merged = self._megabatch_eligible(groups)
        if merged:
            observer = self._observer
            if observer is not None:
                observer.count("kernel.megabatch.rounds")
                observer.count("kernel.megabatch.signatures", len(merged))
            self._finalize(merged, self._solve_megabatch(merged), outputs)
            groups = [group for group in groups if all(group is not m for m in merged)]

        for group in groups:
            compiled = None
            if group.signature or self._has_sites:
                compiled = self._compiled_kernel(group.signature)
            if compiled is None:
                solved = self._solve_reference(group)
            else:
                solved = self._solve_group_arrays(group, *compiled)
            self._finalize([group], solved, outputs)
        return outputs  # type: ignore[return-value]

    def correct(self, sampled: SampledTrace) -> EstimateTrace:
        """Correct a full sampled trace, returning per-tick estimates."""
        self.reset()
        estimates = EstimateTrace(method=self.name)
        for record in sampled.records:
            report = self.process_record(record)
            estimates.append(report.means(), report.stds())
        return estimates

    def reports(self, sampled: SampledTrace) -> List[PosteriorReport]:
        """Full posterior reports (including uncertainty) for a sampled trace."""
        self.reset()
        return [self.process_record(record) for record in sampled.records]
