"""Backend advisor: the paper's motivating use case.

    python examples/choose_backend.py [machine]

"Given multiple existing implementations of the parallel algorithms, a
systematic, quantitative performance comparison is essential for choosing
the appropriate implementation" (paper abstract). This example sweeps all
five parallel backends over the headline algorithms on one machine and
prints a recommendation per algorithm plus an overall ranking.
"""

import sys

from repro.backends import PARALLEL_CPU_BACKENDS
from repro.errors import UnsupportedOperationError
from repro.scenarios.resolve import make_context
from repro.suite.cases import HEADLINE_CASES, get_case
from repro.suite.wrappers import measure_case
from repro.util.stats import geomean
from repro.util.tables import TextTable


def main(machine: str = "A", size_exp: int = 28) -> None:
    n = 1 << size_exp
    table = TextTable(
        headers=["Algorithm", *PARALLEL_CPU_BACKENDS, "Recommendation"],
        title=f"Speedup vs sequential on Mach {machine.upper()} (n=2^{size_exp})",
    )
    per_backend: dict[str, list[float]] = {b: [] for b in PARALLEL_CPU_BACKENDS}

    for case_name in HEADLINE_CASES:
        base = measure_case(get_case(case_name),
                            make_context(machine, "gcc-seq"), n)
        row: dict[str, float | None] = {}
        for backend in PARALLEL_CPU_BACKENDS:
            try:
                t = measure_case(get_case(case_name),
                                 make_context(machine, backend), n)
                row[backend] = base / t
                per_backend[backend].append(base / t)
            except UnsupportedOperationError:
                row[backend] = None
        best = max((b for b in row if row[b] is not None), key=lambda b: row[b])
        table.add_row(
            [
                case_name,
                *(f"{row[b]:.1f}x" if row[b] is not None else "N/A" for b in PARALLEL_CPU_BACKENDS),
                best,
            ]
        )

    print(table.render())
    overall = {
        b: geomean(v) for b, v in per_backend.items() if v
    }
    ranked = sorted(overall, key=overall.get, reverse=True)
    print("\nOverall ranking (geomean speedup):")
    for b in ranked:
        print(f"  {b:8s} {overall[b]:5.1f}x")
    print(
        "\nNote: the winner depends on the workload -- exactly the paper's "
        "point. GNU dominates sort, NVC-OMP dominates cheap maps, TBB is "
        "the best all-rounder, and nobody should use a scan on NVC-OMP."
    )


if __name__ == "__main__":
    main(*(sys.argv[1:2] or ["A"]))
