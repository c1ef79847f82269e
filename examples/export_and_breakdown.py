"""Exporting results and explaining costs.

    python examples/export_and_breakdown.py

Two downstream-facing features of the analysis layer:

1. **JSON export** -- regenerate a paper artifact (Fig. 1 here) and dump
   its cells as JSON for external plotting;
2. **phase breakdown** -- ask "where did the time go?" for individual
   calls, comparing a memory-bound and a compute-bound configuration and
   a GPU call whose time is mostly unified-memory migration.
"""

from repro import ExecutionContext, pstl
from repro.analysis.breakdown import render_breakdown
from repro.analysis.export import dump_json
from repro.backends import get_backend
from repro.machines import get_machine
from repro.scenarios import get_scenario, run_scenario
from repro.sim.gpu import GpuExecution
from repro.suite.kernels import listing1_kernel
from repro.types import FLOAT32, FLOAT64


def main() -> None:
    # 1. Fig. 1 as JSON (reduced size keeps the example snappy).
    fig1 = run_scenario(get_scenario("fig1").with_axes(size_exps=[26]))
    text = dump_json({"scenario": "fig1", "cells": dict(fig1.cells)})
    print("Fig. 1 as JSON (first lines):")
    print("\n".join(text.splitlines()[:8]), "\n  ...\n")

    # 2a. Memory-bound CPU call: the map phase is bandwidth-limited.
    ctx = ExecutionContext(get_machine("A"), get_backend("gcc-tbb"), threads=32)
    arr = ctx.allocate(1 << 28, FLOAT64)
    report = pstl.for_each(ctx, arr, listing1_kernel(1)).report
    print(render_breakdown(report, title="for_each k_it=1 (memory-bound)"))
    print()

    # 2b. Compute-bound CPU call: same algorithm, heavy kernel.
    report = pstl.for_each(ctx, arr, listing1_kernel(1000)).report
    print(render_breakdown(report, title="for_each k_it=1000 (compute-bound)"))
    print()

    # 2c. GPU call with a forced device-to-host transfer: migration rules.
    gpu_ctx = ExecutionContext(
        get_machine("D"),
        get_backend("nvc-cuda"),
        gpu_options=GpuExecution(transfer_back=True),
    )
    garr = gpu_ctx.allocate(1 << 26, FLOAT32)
    report = pstl.reduce(gpu_ctx, garr).report
    print(render_breakdown(report, title="GPU reduce with forced D2H (Fig. 9a)"))


if __name__ == "__main__":
    main()
