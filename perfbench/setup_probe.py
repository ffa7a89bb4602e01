"""Set-up time of a fresh process: ``import repro.api`` plus a first small run.

The first run in a process fills the process-wide caches (event catalogs,
the schedule cache) and pays every lazy first-use cost, so work moved into
import or first use shows up here.  Prints one JSON line with ``setup_s``.
Run with ``src`` on ``PYTHONPATH``; ``run.py`` launches it once per sample.
"""

import json
import time


def main() -> None:
    start = time.perf_counter()
    from repro.api import HostSpec, Pipeline, RunSpec

    spec = RunSpec(
        arch="x86",
        hosts=tuple(
            HostSpec(workload="KMeans", seed=index, n_ticks=8, host_id=f"warm-{index}")
            for index in range(2)
        ),
        n_workers=1,
    )
    result = Pipeline.from_spec(spec).run()
    elapsed = time.perf_counter() - start
    if result.n_slices != 16:
        raise SystemExit(f"warm-up run delivered {result.n_slices} slices, expected 16")
    print(json.dumps({"setup_s": elapsed}))


if __name__ == "__main__":
    main()
