"""``pstl-bench`` command-line entry point.

Examples::

    pstl-bench --machine A --backend gcc-tbb --case reduce --threads 32
    pstl-bench --machine C --backend all --case sort --size 2^30
    pstl-bench --machine B --backend gcc-gnu --case for_each_k1 --sweep sizes
    pstl-bench --machine A --backend gcc-tbb --case for_each_k1 --trace out.json
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

from repro.backends import PARALLEL_CPU_BACKENDS, get_backend
from repro.bench.reporters import console_report, csv_report, json_report
from repro.bench.state import BenchResult
from repro.errors import ReproError, UnsupportedOperationError
from repro.execution.context import RUN_MODE_MAX_ELEMS, ExecutionContext
from repro.machines import get_machine
from repro.suite.cases import case_names, get_case
from repro.suite.sweeps import (
    MAX_SIZE_EXP,
    problem_scaling,
    problem_sizes,
    strong_scaling,
)
from repro.suite.wrappers import run_case
from repro.trace import Tracer, use_tracer, write_chrome_trace
from repro.types import elem_type
from repro.util.units import parse_size

__all__ = ["main", "build_parser", "sweep_bench_rows", "EXIT_ALL_NA"]

#: Exit code for "every requested backend was N/A" -- distinct from 0
#: (measured something) and 2 (bad invocation), so scripts driving
#: ``--backend all`` can tell an empty grid cell from success.
EXIT_ALL_NA = 3


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument schema."""
    parser = argparse.ArgumentParser(
        prog="pstl-bench",
        description="pSTL-Bench (Python reproduction): parallel STL scalability "
        "micro-benchmarks on a deterministic machine simulator.",
    )
    parser.add_argument("--machine", default="A", help="machine preset (A..E, skylake, zen3...)")
    parser.add_argument(
        "--backend",
        default="gcc-tbb",
        help="backend name, or 'all' for the study's five parallel backends",
    )
    parser.add_argument(
        "--case", default="reduce", help=f"benchmark case; one of {', '.join(case_names())}"
    )
    parser.add_argument("--threads", type=int, default=0, help="0 = all cores")
    parser.add_argument("--size", default="2^26", help="problem size (2^k or integer)")
    parser.add_argument("--dtype", default="double", help="element type (double/float/int)")
    parser.add_argument("--min-time", type=float, default=5.0, help="min simulated seconds")
    parser.add_argument(
        "--sweep",
        choices=["none", "sizes", "threads"],
        default="none",
        help="sweep problem sizes or thread counts instead of a single point",
    )
    parser.add_argument(
        "--mode", choices=["model", "run"], default="model",
        help="run materialises NumPy arrays, so its size sweep stops at 2^25",
    )
    parser.add_argument("--format", choices=["console", "csv", "json"], default="console")
    parser.add_argument(
        "--trace",
        metavar="OUT.json",
        default=None,
        help="capture an execution trace and write it as Chrome trace-event "
        "JSON (open in Perfetto or chrome://tracing; see docs/OBSERVABILITY.md)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI main; returns a process exit code."""
    args = build_parser().parse_args(argv)
    tracer = Tracer() if args.trace else None
    try:
        with use_tracer(tracer) if tracer is not None else nullcontext():
            code = _run(args)
        if tracer is not None and code == 0:
            try:
                n_spans = write_chrome_trace(tracer, args.trace)
            except OSError as exc:
                print(f"error: cannot write trace: {exc}", file=sys.stderr)
                return 2
            print(f"trace: {n_spans} spans -> {args.trace}", file=sys.stderr)
        return code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def sweep_bench_rows(sweep, variable: str) -> list[BenchResult]:
    """A sweep's supported points as reporter-ready rows.

    Each point becomes one single-iteration row named
    ``<sweep label>/<variable>=<x>`` so ``--sweep`` output flows through
    the same csv/json reporters as single-point runs.
    """
    return [
        BenchResult(
            name=f"{sweep.label}/{variable}={point.x}",
            iterations=1,
            total_time=point.seconds,
            mean_time=point.seconds,
        )
        for point in sweep.points
        if point.supported
    ]


def _run(args: argparse.Namespace) -> int:
    """Execute one parsed CLI invocation (tracing already installed)."""
    machine = get_machine(args.machine)
    backends = (
        list(PARALLEL_CPU_BACKENDS) if args.backend == "all" else [args.backend]
    )
    case = get_case(args.case)
    elem = elem_type(args.dtype)
    n = parse_size(args.size)

    # Run mode materialises its arrays, so its size sweep stops at the cap.
    max_exp = (RUN_MODE_MAX_ELEMS.bit_length() - 1 if args.mode == "run"
               else MAX_SIZE_EXP)
    results = []
    measured = 0  # backends that produced at least one value
    unavailable: list[str] = []  # backends whose every point was N/A
    for backend_name in backends:
        backend = get_backend(backend_name)
        threads = args.threads or machine.total_cores
        ctx = ExecutionContext(
            machine, backend, threads=threads, mode=args.mode
        )
        if args.sweep != "none":
            if args.sweep == "sizes":
                sweep = problem_scaling(
                    case, ctx, problem_sizes(max_exp=max_exp), elem
                )
                variable = "n"
            else:
                sweep = strong_scaling(case, ctx, n, elem=elem)
                variable = "t"
            if not any(point.supported for point in sweep.points):
                unavailable.append(backend.name)
                print(f"{backend.name}: N/A (no supported points in "
                      f"{args.sweep} sweep)", file=sys.stderr)
                continue
            measured += 1
            if args.format == "console":
                for point in sweep.points:
                    print(
                        f"{sweep.label} {variable}={point.x}: "
                        + (f"{point.seconds:.6g} s" if point.supported else "N/A")
                    )
            else:
                results.extend(sweep_bench_rows(sweep, variable))
            continue
        try:
            results.append(run_case(case, ctx, n, elem, min_time=args.min_time))
            measured += 1
        except UnsupportedOperationError as exc:
            unavailable.append(backend.name)
            print(f"{backend.name}: N/A ({exc})", file=sys.stderr)

    if results:
        if args.format == "csv":
            print(csv_report(results), end="")
        elif args.format == "json":
            print(json_report(results))
        else:
            print(console_report(results))
    if measured == 0 and unavailable:
        print(
            f"error: no data: all requested backends are N/A for "
            f"{case.name!r} on machine {machine.name!r} "
            f"({', '.join(unavailable)})",
            file=sys.stderr,
        )
        return EXIT_ALL_NA
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
