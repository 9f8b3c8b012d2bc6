"""Result digests of every benchmark unit, for checking bit-identity.

For seeds 1 and 2 this builds each workload of the repository
benchmark (``benchmarks/suite/workloads.py``), calls every unit once,
untimed, and prints one line per unit::

    <seed> <unit> <digest>

The digest is the unit's own ``Outcome.digest`` (a hash of the
artifact rows, ensemble finals and steps, oracle verdicts or packet
rate histories).  A change that must not move any result prints the
same lines as its parent, so ``diff`` of the two outputs is the check.
Takes about a minute on two cores.

Run from the repository root::

    PYTHONPATH=src python benchmarks/digests.py > digests.txt
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "suite"))

import workloads  # noqa: E402

SEEDS = (1, 2)


def main() -> int:
    for seed in SEEDS:
        for name, workload_cls in workloads.WORKLOADS.items():
            workload = workload_cls(seed)
            for unit in workload.units:
                print(f"{seed} {unit.name} {unit.call().digest}",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
