"""Benchmark case definitions: the suite's supported algorithms.

A :class:`BenchCase` knows how to generate its input (untimed, like
Listing 3's setup) and how to run one timed invocation. The headline five
cases of the paper (find, for_each, reduce, inclusive_scan, sort) plus an
extended set covering the other gray algorithms of Table 1 that this
reproduction supports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.algorithms import (
    PLUS,
    SQUARE,
    adjacent_difference,
    copy,
    count,
    equal,
    exclusive_scan,
    fill,
    find,
    for_each,
    inclusive_scan,
    inplace_merge,
    is_heap,
    is_partitioned,
    less_than,
    max_element,
    merge,
    min_element,
    minmax_element,
    nth_element,
    partial_sort,
    reduce,
    remove,
    replace,
    reverse,
    rotate,
    search,
    set_intersection,
    set_union,
    sort,
    stable_partition,
    stable_sort,
    transform,
    transform_reduce,
    unique,
)
from repro.algorithms._result import AlgoResult, uncosted
from repro.errors import ConfigurationError
from repro.execution.context import ExecutionContext
from repro.memory.array import SimArray
from repro.sim.wave import ArrayProfile
from repro.suite.generators import (
    generate_increment,
    random_target,
    reshuffle,
    shuffled_permutation,
)
from repro.suite.kernels import listing1_kernel
from repro.types import ElemType, FLOAT64

__all__ = ["BenchCase", "get_case", "case_names", "HEADLINE_CASES"]


@dataclass(frozen=True)
class BenchCase:
    """One benchmark case: input setup + one timed invocation.

    ``setup`` returns the input arrays; ``invoke`` runs one iteration (the
    WRAP_TIMING body) and returns the :class:`AlgoResult` whose report the
    harness records. ``per_iteration_setup`` mirrors untimed per-iteration
    work such as sort's re-shuffle.
    """

    name: str
    alg: str
    setup: Callable[[ExecutionContext, int, ElemType], tuple[SimArray, ...]]
    invoke: Callable[
        [ExecutionContext, tuple[SimArray, ...], int], AlgoResult
    ]
    per_iteration_setup: Callable[
        [ExecutionContext, tuple[SimArray, ...], int], None
    ] = field(default=lambda ctx, arrays, it: None)
    elem: ElemType = FLOAT64

    def profile(
        self, ctx: ExecutionContext, n: int, elem: ElemType = FLOAT64
    ) -> ArrayProfile:
        """The array profile of one timed invocation, left uncosted.

        Runs exactly what the harness's first iteration runs -- setup,
        per-iteration setup, invoke -- and returns the result's profile
        without reading its report, so a CPU invocation never touches
        the scalar engine (nor records its spans under a tracer). Fused
        waves and curves cost these profiles on the wave engine.
        """
        if n <= 0:
            raise ConfigurationError("n must be positive")
        with uncosted():
            arrays = self.setup(ctx, n, elem)
            self.per_iteration_setup(ctx, arrays, 0)
            return self.invoke(ctx, arrays, 0).profile


def _single_increment(ctx, n, elem):
    return (generate_increment(ctx, n, elem),)


def _case_for_each(k_it: int) -> BenchCase:
    def invoke(ctx, arrays, iteration):
        target = "gpu" if ctx.is_gpu else "cpu"
        kernel = listing1_kernel(k_it, arrays[0].elem, target=target)
        return for_each(ctx, arrays[0], kernel)

    return BenchCase(
        name=f"for_each_k{k_it}",
        alg="for_each",
        setup=_single_increment,
        invoke=invoke,
    )


def _case_find() -> BenchCase:
    def invoke(ctx, arrays, iteration):
        target = random_target(ctx, arrays[0], iteration)
        return find(ctx, arrays[0], target, expected_position=arrays[0].n // 2)

    return BenchCase(name="find", alg="find", setup=_single_increment, invoke=invoke)


def _case_reduce() -> BenchCase:
    return BenchCase(
        name="reduce",
        alg="reduce",
        setup=_single_increment,
        invoke=lambda ctx, arrays, it: reduce(ctx, arrays[0], PLUS),
    )


def _case_inclusive_scan() -> BenchCase:
    def setup(ctx, n, elem):
        return (generate_increment(ctx, n, elem), ctx.allocate(n, elem))

    return BenchCase(
        name="inclusive_scan",
        alg="inclusive_scan",
        setup=setup,
        invoke=lambda ctx, arrays, it: inclusive_scan(ctx, arrays[0], out=arrays[1]),
    )


def _case_sort(stable: bool = False) -> BenchCase:
    fn = stable_sort if stable else sort

    def setup(ctx, n, elem):
        return (shuffled_permutation(ctx, n, elem),)

    return BenchCase(
        name="stable_sort" if stable else "sort",
        alg="sort",
        setup=setup,
        invoke=lambda ctx, arrays, it: fn(ctx, arrays[0]),
        per_iteration_setup=lambda ctx, arrays, it: reshuffle(ctx, arrays[0], it),
    )


def _dual_setup(ctx, n, elem):
    return (generate_increment(ctx, n, elem), ctx.allocate(n, elem))


def _merge_setup(ctx, n, elem):
    half = max(1, n // 2)
    a = generate_increment(ctx, half, elem)
    b = generate_increment(ctx, half, elem)
    out = ctx.allocate(2 * half, elem)
    return (a, b, out)


_CASE_FACTORIES: dict[str, Callable[[], BenchCase]] = {
    "for_each_k1": lambda: _case_for_each(1),
    "for_each_k1000": lambda: _case_for_each(1000),
    "find": _case_find,
    "reduce": _case_reduce,
    "inclusive_scan": _case_inclusive_scan,
    "sort": _case_sort,
    "stable_sort": lambda: _case_sort(stable=True),
    "exclusive_scan": lambda: BenchCase(
        name="exclusive_scan",
        alg="exclusive_scan",
        setup=_dual_setup,
        invoke=lambda ctx, arrays, it: exclusive_scan(ctx, arrays[0], out=arrays[1]),
    ),
    "transform_reduce": lambda: BenchCase(
        name="transform_reduce",
        alg="transform_reduce",
        setup=_single_increment,
        invoke=lambda ctx, arrays, it: transform_reduce(ctx, arrays[0], SQUARE, PLUS),
    ),
    "transform": lambda: BenchCase(
        name="transform",
        alg="transform",
        setup=_dual_setup,
        invoke=lambda ctx, arrays, it: transform(ctx, arrays[0], arrays[1], SQUARE),
    ),
    "copy": lambda: BenchCase(
        name="copy",
        alg="copy",
        setup=_dual_setup,
        invoke=lambda ctx, arrays, it: copy(ctx, arrays[0], arrays[1]),
    ),
    "fill": lambda: BenchCase(
        name="fill",
        alg="fill",
        setup=_single_increment,
        invoke=lambda ctx, arrays, it: fill(ctx, arrays[0], 42.0),
    ),
    "count": lambda: BenchCase(
        name="count",
        alg="count",
        setup=_single_increment,
        invoke=lambda ctx, arrays, it: count(ctx, arrays[0], 1.0),
    ),
    "min_element": lambda: BenchCase(
        name="min_element",
        alg="reduce",
        setup=_single_increment,
        invoke=lambda ctx, arrays, it: min_element(ctx, arrays[0]),
    ),
    "max_element": lambda: BenchCase(
        name="max_element",
        alg="reduce",
        setup=_single_increment,
        invoke=lambda ctx, arrays, it: max_element(ctx, arrays[0]),
    ),
    "minmax_element": lambda: BenchCase(
        name="minmax_element",
        alg="reduce",
        setup=_single_increment,
        invoke=lambda ctx, arrays, it: minmax_element(ctx, arrays[0]),
    ),
    "adjacent_difference": lambda: BenchCase(
        name="adjacent_difference",
        alg="transform",
        setup=_dual_setup,
        invoke=lambda ctx, arrays, it: adjacent_difference(ctx, arrays[0], arrays[1]),
    ),
    "reverse": lambda: BenchCase(
        name="reverse",
        alg="transform",
        setup=_single_increment,
        invoke=lambda ctx, arrays, it: reverse(ctx, arrays[0]),
    ),
    "equal": lambda: BenchCase(
        name="equal",
        alg="find",
        setup=lambda ctx, n, elem: (
            generate_increment(ctx, n, elem),
            generate_increment(ctx, n, elem),
        ),
        invoke=lambda ctx, arrays, it: equal(ctx, arrays[0], arrays[1]),
    ),
    "merge": lambda: BenchCase(
        name="merge",
        alg="merge",
        setup=_merge_setup,
        invoke=lambda ctx, arrays, it: merge(ctx, arrays[0], arrays[1], arrays[2]),
    ),
    # --- extended coverage of Table 1's gray set --------------------------------
    "search": lambda: BenchCase(
        name="search",
        alg="find",
        setup=_single_increment,
        invoke=lambda ctx, arrays, it: search(
            ctx, arrays[0], [float(arrays[0].n), float(arrays[0].n) + 1]
        ),
    ),
    "set_union": lambda: BenchCase(
        name="set_union",
        alg="merge",
        setup=_merge_setup,
        invoke=lambda ctx, arrays, it: set_union(ctx, arrays[0], arrays[1], arrays[2]),
    ),
    "set_intersection": lambda: BenchCase(
        name="set_intersection",
        alg="merge",
        setup=_merge_setup,
        invoke=lambda ctx, arrays, it: set_intersection(
            ctx, arrays[0], arrays[1], arrays[2]
        ),
    ),
    "stable_partition": lambda: BenchCase(
        name="stable_partition",
        alg="inclusive_scan",
        setup=_single_increment,
        invoke=lambda ctx, arrays, it: stable_partition(
            ctx, arrays[0], less_than(arrays[0].n / 2)
        ),
    ),
    "is_partitioned": lambda: BenchCase(
        name="is_partitioned",
        alg="find",
        setup=_single_increment,
        invoke=lambda ctx, arrays, it: is_partitioned(
            ctx, arrays[0], less_than(arrays[0].n / 2)
        ),
    ),
    "nth_element": lambda: BenchCase(
        name="nth_element",
        alg="sort",
        setup=lambda ctx, n, elem: (shuffled_permutation(ctx, n, elem),),
        invoke=lambda ctx, arrays, it: nth_element(ctx, arrays[0], arrays[0].n // 2),
        per_iteration_setup=lambda ctx, arrays, it: reshuffle(ctx, arrays[0], it),
    ),
    "partial_sort": lambda: BenchCase(
        name="partial_sort",
        alg="sort",
        setup=lambda ctx, n, elem: (shuffled_permutation(ctx, n, elem),),
        invoke=lambda ctx, arrays, it: partial_sort(
            ctx, arrays[0], max(1, arrays[0].n // 16)
        ),
        per_iteration_setup=lambda ctx, arrays, it: reshuffle(ctx, arrays[0], it),
    ),
    "inplace_merge": lambda: BenchCase(
        name="inplace_merge",
        alg="merge",
        setup=_single_increment,
        invoke=lambda ctx, arrays, it: inplace_merge(
            ctx, arrays[0], max(1, arrays[0].n // 2)
        ),
    ),
    "unique": lambda: BenchCase(
        name="unique",
        alg="inclusive_scan",
        setup=_single_increment,
        invoke=lambda ctx, arrays, it: unique(ctx, arrays[0]),
    ),
    "remove": lambda: BenchCase(
        name="remove",
        alg="inclusive_scan",
        setup=_single_increment,
        invoke=lambda ctx, arrays, it: remove(ctx, arrays[0], 1.0),
    ),
    "replace": lambda: BenchCase(
        name="replace",
        alg="transform",
        setup=_single_increment,
        invoke=lambda ctx, arrays, it: replace(ctx, arrays[0], 1.0, 0.0),
    ),
    "rotate": lambda: BenchCase(
        name="rotate",
        alg="transform",
        setup=_single_increment,
        invoke=lambda ctx, arrays, it: rotate(ctx, arrays[0], arrays[0].n // 3),
    ),
    "is_heap": lambda: BenchCase(
        name="is_heap",
        alg="find",
        setup=lambda ctx, n, elem: (
            # decreasing values form a valid max-heap: full-scan check
            _reversed_increment(ctx, n, elem),
        ),
        invoke=lambda ctx, arrays, it: is_heap(ctx, arrays[0]),
    ),
}


def _reversed_increment(ctx, n, elem):
    arr = generate_increment(ctx, n, elem)
    if arr.materialized:
        arr.view()[:] = arr.view()[::-1].copy()
    return arr

#: The five algorithms the paper analyses in depth (Section 3.1), with
#: for_each at both arithmetic intensities.
HEADLINE_CASES = (
    "find",
    "for_each_k1",
    "for_each_k1000",
    "inclusive_scan",
    "reduce",
    "sort",
)


def get_case(name: str) -> BenchCase:
    """Look up a benchmark case by name."""
    try:
        return _CASE_FACTORIES[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown case {name!r}; known: {case_names()}"
        ) from None


def case_names() -> list[str]:
    """All case names, sorted."""
    return sorted(_CASE_FACTORIES)
