"""The per-signature reference for mega-batched engine rounds.

A :meth:`~repro.core.engine.BayesPerfEngine.process_batch` call whose
records share one measured-event signature never merges, so calling it
once per signature solves every group on the per-signature batched path.
The differential tests compare merged rounds against this, bit for bit.
"""


def solve_per_signature(engine, items):
    """``engine.process_batch`` once per measured-event signature of *items*.

    Records are grouped by their measured events in record order (what the
    engine's signature is derived from); results come back in input order.
    """
    items = list(items)
    groups = {}
    for index, (_, record) in enumerate(items):
        groups.setdefault(tuple(record.samples), []).append(index)
    outputs = [None] * len(items)
    for indices in groups.values():
        for index, result in zip(indices, engine.process_batch([items[i] for i in indices])):
            outputs[index] = result
    return outputs
