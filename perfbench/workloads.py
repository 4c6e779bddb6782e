"""The benchmark's workloads: fixed lists of ptalgebra CLI commands.

Each pass runs one workload's commands in order, in a fresh interpreter,
so the ``yor.irrep`` and image caches start cold, as they do for a
researcher who runs the commands one by one.  Every command asks for JSON
so that its output can be checked.  ``README.md`` gives the reasons.
"""

from __future__ import annotations

# partitions_of(5) order
ALPHAS_OF_5 = ("5", "4,1", "3,2", "3,1,1", "2,2,1", "2,1,1,1", "1,1,1,1,1")

WORKLOADS: dict[str, list[list[str]]] = {
    "oracle_small": [
        ["verify", "--n", "5", "--d", "2", "--suite", "all", "--format", "json"],
    ],
    "oracle_large": [
        ["verify", "--n", "4", "--d", "8", "--suite", "mul", "--format", "json"],
        ["verify", "--n", "4", "--d", "8", "--suite", "dims", "--format", "json"],
        ["structure", "--n", "6", "--d", "4", "--oracle", "--format", "json"],
    ],
    "spectra_n7": [
        ["spectrum", "--n", "7", "--d", "3", "--alpha", alpha, "--format", "json"]
        for alpha in ALPHAS_OF_5
    ] + [
        ["verify", "--n", "7", "--d", "3", "--suite", "spectra", "--format", "json"],
    ],
    "generators_n6": [
        ["mul-table", "--n", "6", "--d", "2", "--format", "json"],
        ["mul-table", "--n", "5", "--symbolic", "--format", "json"],
        ["verify", "--n", "5", "--d", "3", "--suite", "irreps", "--format", "json"],
        ["irrep", "--n", "6", "--d", "3", "--kind", "m", "--alpha", "2,2",
         "--basis", "e", "--format", "json"],
    ],
}
