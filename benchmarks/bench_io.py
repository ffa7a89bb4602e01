"""Shared I/O for the benchmark suite's perf-trajectory file.

``BENCH_ep.json`` is co-owned by several benchmarks (the EP-kernel bench
writes the top-level trajectory, the MCMC bench its ``mcmc`` entry); every
writer must merge its own keys into the existing payload rather than
overwrite the file, so the single merge protocol lives here.

Recording is opt-in: benches rewrite the committed file only when
``REPRO_BENCH_RECORD=1`` (the CI bench job sets it before gating with
``check_regression.py``).  A plain test run keeps every bench assertion
but leaves the committed baseline untouched.
"""

import json
import os
from pathlib import Path
from typing import Dict, Optional

#: The perf trajectory file in the repo root (uploaded as a CI artifact).
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_ep.json"
#: Set to ``1`` to let benches write their measurements into ``BENCH_PATH``.
RECORD_ENV_VAR = "REPRO_BENCH_RECORD"


def deep_merge(base: Dict, entries: Dict) -> Dict:
    """Recursively merge *entries* into *base* (in place) and return it.

    Nested dicts merge key-by-key; every other value type replaces.  The
    recursion is what lets benchmarks with *different* workload metadata
    co-own one file: a writer whose section carries its own ``workload``
    block no longer clobbers another section's block, because only the
    leaves it actually measured are replaced.
    """
    for key, value in entries.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            deep_merge(base[key], value)
        else:
            base[key] = value
    return base


def merge_bench_entries(entries: Dict, path: Optional[Path] = None) -> None:
    """Deep-merge *entries* into the JSON trajectory file at *path*.

    Existing keys owned by other benchmarks are preserved — including
    nested per-section ``workload`` blocks (see :func:`deep_merge`); an
    unreadable or corrupt file is replaced rather than crashing the
    benchmark.  Without an explicit *path* the committed ``BENCH_PATH`` is
    written only when ``REPRO_BENCH_RECORD=1``.
    """
    if path is None:
        if os.environ.get(RECORD_ENV_VAR) != "1":
            return
        path = BENCH_PATH
    payload = {}
    if path.exists():
        try:
            payload = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            payload = {}
    deep_merge(payload, entries)
    path.write_text(json.dumps(payload, indent=2) + "\n")
