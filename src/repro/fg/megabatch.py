"""Cross-signature mega-batching of the EP kernel.

Batched EP (:meth:`~repro.fg.compiled.CompiledEPKernel.run_stacked`) solves
``B`` records in one vectorized pass — but only records sharing one graph
*structure*, i.e. one measured-event signature.  A heterogeneous fleet
round fragments into many small per-signature batches (one per schedule
rotation position), and each fragment pays the kernel's fixed per-call
cost: Python dispatch over ~10² numpy ops per EP sweep dwarfs the
per-record arithmetic when ``B`` is 2–4.

This module removes the fragmentation with **shape canonicalization**.
Within one engine the variable set is fixed (every monitored + latent
event) and the constraint topology is signature-invariant — only the
observation site's width varies with the signature.  So every signature
embeds into one *canonical* structure-of-arrays layout whose observation
site spans the full variable width:

* measured lanes scatter each record's projected observation moments into
  their canonical slots — the same ``1/σ²`` / ``μ/σ²`` values the
  per-signature binder produces, landing on the same global matrix entries;
* padded lanes carry **exact zeros** (precision ``1/∞ = 0``, shift
  ``0/∞ = 0``), which makes them no-ops through the whole kernel: damping
  of zero is zero, the scatter-add contributes ``+0.0``, and the
  ``max(|·|)`` convergence reductions are insensitive to extra zero lanes.

The one step where a padded block is *not* automatically a no-op is the
kernel's positive-definiteness repair: a diagonal with zero entries fails
the Cholesky probe and the eigenvalue fallback would bump *every* lane.
Mega-batch eligibility therefore certifies the observation block up front
(:func:`observation_certified`: every measured lane's precision finite and
strictly positive — exactly the condition under which the per-signature
stack passes its Cholesky probe untouched) and the kernel skips the probe
for the certified site (``certified_sites``).  Together this makes the
mega-batched solve **bit-identical** to the per-signature batched solves
it replaces; ``tests/test_megabatch.py`` pins the equivalence on
hypothesis-randomized heterogeneous fleets.

Merging is automatic: :meth:`~repro.core.engine.BayesPerfEngine.process_batch`
merges a batch's certified signature groups whenever the estimator's
registry entry declares ``megabatch=True`` (today only ``"analytic"``), the
compiled path is on, and at least two such groups are present.  Every
other group — and every single-signature batch — takes the per-signature
batched path.

Nothing here imports an engine: the canonicalization is expressed against
the compiled binder/kernel layer so any caller with per-signature arrays
can mega-batch.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "bind_bucketed_observation",
    "observation_certified",
    "padding_slots",
]


def observation_certified(variance: np.ndarray) -> bool:
    """Whether an observation block may skip the kernel's PD probe.

    ``variance`` holds a signature group's projected observation variances
    (any shape; the measured lanes only).  When every entry is finite and
    strictly positive, the per-signature observation block is a diagonal
    with strictly positive entries — its Cholesky probe succeeds and the
    PD repair passes it through untouched.  Only then may the canonical
    (padded) block skip the probe and remain bit-identical.
    """
    values = np.asarray(variance)
    if values.size == 0:
        return False
    return bool(np.isfinite(values).all() and (values > 0).all())


def padding_slots(width: int, slots: np.ndarray, n_variables: int) -> np.ndarray:
    """Distinct global slots for a signature's padded lanes.

    A bucketed observation block of width ``width`` holding a signature
    with ``len(slots)`` measured events needs ``width - len(slots)``
    padding lanes, and each lane needs its *own* global slot (the kernel's
    fancy-indexed scatter must see distinct indices per record).  The
    padded contributions are exact zeros, so *which* unmeasured slots they
    land on is irrelevant — the smallest unmeasured slot ids are chosen
    for determinism.  Always enough exist: the bucket is never wider than
    the variable count.
    """
    pad = width - len(slots)
    if pad == 0:
        return np.empty(0, dtype=np.intp)
    measured = set(int(s) for s in slots)
    free = [slot for slot in range(n_variables) if slot not in measured]
    if pad > len(free):
        raise ValueError(
            f"bucket width {width} exceeds the variable count {n_variables}"
        )
    return np.array(free[:pad], dtype=np.intp)


def bind_bucketed_observation(
    width: int,
    batch: int,
    blocks: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical bucketed observation site for a mega-batch.

    ``blocks`` carries one ``(rows, slots, pad_slots, mean, variance)``
    tuple per signature group — ``rows`` are the group's record indices in
    the mega-batch, ``slots`` the global variable slots of its measured
    events (in record order), ``pad_slots`` the distinct unmeasured slots
    absorbing its padded lanes (:func:`padding_slots`), and ``mean`` /
    ``variance`` its ``(G, E)`` projected moments.  ``width`` is the
    bucket's canonical width — the widest merged signature.

    Returns ``(precision, shift, slot_table)``: a ``(B, width, width)``
    diagonal precision block and ``(B, width)`` shift whose populated lanes
    hold the very same ``1/σ²`` / ``μ/σ²`` floats the per-signature binder
    produces and whose padded lanes are exact zeros, plus the per-record
    ``(B, width)`` global-slot table to pass as the site's
    ``site_index_overrides`` entry.  Padded lanes scatter ``+0.0`` onto
    unmeasured slots — no-ops — so the mega-batched solve is bit-identical
    to the per-signature solves it merges.
    """
    precision = np.zeros((batch, width, width))
    shift = np.zeros((batch, width))
    slot_table = np.zeros((batch, width), dtype=np.intp)
    for rows, slots, pad_slots, mean, variance in blocks:
        lanes = np.arange(len(slots))
        precision[rows[:, None], lanes[None, :], lanes[None, :]] = 1.0 / variance
        shift[rows[:, None], lanes[None, :]] = mean / variance
        slot_table[rows[:, None], lanes[None, :]] = slots
        if len(slots) < width:
            pad_lanes = np.arange(len(slots), width)
            slot_table[rows[:, None], pad_lanes[None, :]] = pad_slots
    return precision, shift, slot_table
