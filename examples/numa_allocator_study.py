"""NUMA allocator study: reproduce the paper's Fig. 1 logic on any machine.

    python examples/numa_allocator_study.py [machine] [threads]

Compares the default serial first-touch allocator against pSTL-Bench's
parallel first-touch allocator (and, as an extra ablation the paper does
not run, a page-interleaving policy) across the headline algorithms.
"""

import sys

from repro.errors import UnsupportedOperationError
from repro.machines import get_machine
from repro.memory.allocators import (
    DefaultAllocator,
    InterleavedAllocator,
    ParallelFirstTouchAllocator,
)
from repro.scenarios.resolve import make_context
from repro.suite.cases import HEADLINE_CASES, get_case
from repro.suite.wrappers import measure_case
from repro.util.tables import TextTable

ALLOCATORS = [
    ("default", DefaultAllocator()),
    ("first-touch", ParallelFirstTouchAllocator()),
    ("interleave", InterleavedAllocator()),
]


def main(machine_name: str = "A", threads: int | None = None) -> None:
    machine = get_machine(machine_name)
    threads = threads or machine.total_cores
    n = 1 << 30  # the paper's standard problem size
    table = TextTable(
        headers=["Algorithm", *(name for name, _ in ALLOCATORS), "best"],
        title=(
            f"GCC-TBB times on {machine.name}, {threads} threads, n=2^30 "
            "(lower is better)"
        ),
    )
    for case_name in HEADLINE_CASES:
        row = {}
        for alloc_name, allocator in ALLOCATORS:
            ctx = make_context(machine_name, "gcc-tbb", threads=threads,
                               allocator=allocator)
            try:
                row[alloc_name] = measure_case(get_case(case_name), ctx, n)
            except UnsupportedOperationError:
                row[alloc_name] = None
        best = min((k for k in row if row[k] is not None), key=lambda k: row[k])
        table.add_row(
            [
                case_name,
                *(
                    f"{row[k]:.3f}s" if row[k] is not None else "N/A"
                    for k, _ in ALLOCATORS
                ),
                best,
            ]
        )
    print(table.render())
    print(
        "\nPaper Section 5.1: the custom allocator pays off for the "
        "bandwidth-bound map/reduce kernels (up to +63 %), does nothing "
        "for compute-bound work, and is the wrong choice for latency-"
        "sensitive prefix algorithms (find / inclusive_scan)."
    )


if __name__ == "__main__":
    args = sys.argv[1:]
    main(args[0] if args else "A", int(args[1]) if len(args) > 1 else None)
