"""The untimed accuracy pass of one workload, in a fresh process.

Regenerates the workload's inputs from the seed, runs
:func:`measure.accuracy_pass` on them and on the extra instances the
workload scores, and prints one JSON line: the estimate digest, the slice
count, whether every estimate is finite, each method's fleet-mean error per
instance and the digests of the inputs of every instance.  Run with ``src`` on ``PYTHONPATH``;
``run.py`` launches it so that the scoring work stays out of the measured
process's peak memory.
"""

import argparse
import json
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    from inputs import build_inputs
    from measure import accuracy_pass

    workdir = Path(args.workdir)
    inputs = build_inputs(args.workload, args.seed, workdir)
    accuracy = accuracy_pass(inputs)
    instances = inputs.accuracy_instances(workdir)
    for instance in instances:
        accuracy.merge(accuracy_pass(instance))
    print(
        json.dumps(
            {
                "digest": accuracy.digest,
                "finite": accuracy.finite,
                "n_slices": accuracy.n_slices,
                "errors": accuracy.errors,
                "inputs_sha256": inputs.digest,
                "instances_sha256": [instance.digest for instance in instances],
            }
        )
    )


if __name__ == "__main__":
    main()
