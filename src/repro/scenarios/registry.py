"""The built-in scenario registry: every paper figure/table as data.

Each entry below is a plain dict -- the exact JSON a user could put in a
``--scenario-file`` -- validated into a
:class:`~repro.scenarios.schema.ScenarioSpec` on first lookup. The axis
values are spelled out literally on purpose: the registry is the
declarative source of truth. ``tests/scenarios`` pins its inputs (axes
and campaign ids) and each artifact's ``output`` golden in ``refdata/``
pins its outputs bit for bit, so neither can drift silently.

``claims`` binds a scenario to its fidelity artifact id; the fidelity
builders (:mod:`repro.fidelity.artifacts`) regenerate those artifacts
through this registry.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import ScenarioError
from repro.scenarios.schema import ScenarioSpec, scenario_from_dict

__all__ = [
    "scenario_names",
    "get_scenario",
    "builtin_scenarios",
    "BUILTIN_SCENARIOS",
]

_PARALLEL_CPU = ["GCC-TBB", "GCC-GNU", "GCC-HPX", "ICC-TBB", "NVC-OMP"]
_HEADLINE = [
    "find", "for_each_k1", "for_each_k1000", "inclusive_scan", "reduce", "sort",
]
_GPU_SERIES = [
    {"key": "seq-host", "machine": "gpu-host", "backend": "GCC-SEQ"},
    {"key": "omp-host", "machine": "gpu-host", "backend": "NVC-OMP"},
    {"key": "t4", "machine": "D", "backend": "NVC-CUDA", "gpu": True},
    {"key": "a2", "machine": "E", "backend": "NVC-CUDA", "gpu": True},
]

#: One dict per registered scenario, in report order.
BUILTIN_SCENARIOS: tuple[Mapping, ...] = (
    {
        "name": "fig1",
        "analysis": "allocator-grid",
        "title": "Impact of the parallel first-touch allocator",
        "machines": ["A"],
        "backends": ["GCC-TBB", "GCC-GNU", "ICC-TBB", "NVC-OMP"],
        "cases": _HEADLINE,
        "threads": [32],
        "size_exps": [30],
        "claims": "fig1",
    },
    {
        "name": "fig2",
        "analysis": "problem-panels",
        "title": "for_each problem scaling",
        "machines": ["A", "B", "C"],
        "backends": ["GCC-SEQ", "GCC-TBB", "GCC-GNU", "GCC-HPX",
                     "ICC-TBB", "NVC-OMP"],
        "k_values": [1, 1000],
        "claims": "fig2",
    },
    {
        "name": "fig3",
        "analysis": "strong-scaling",
        "title": "for_each strong scaling",
        "machines": ["A", "B", "C"],
        "backends": _PARALLEL_CPU,
        "k_values": [1, 1000],
        "size_exps": [30],
        "exclude": [["B", "ICC-TBB"]],
        "claims": "fig3",
    },
    {
        "name": "fig4",
        "analysis": "algo-panels",
        "title": "find on Mach B",
        "machines": ["B"],
        "cases": ["find"],
        "backends": _PARALLEL_CPU,
        "size_exps": [30],
        "exclude": [["B", "ICC-TBB"]],
        "claims": "fig4",
    },
    {
        "name": "fig5",
        "analysis": "algo-panels",
        "title": "inclusive_scan on Mach C",
        "machines": ["C"],
        "cases": ["inclusive_scan"],
        "backends": _PARALLEL_CPU,
        "size_exps": [30],
        "claims": "fig5",
    },
    {
        "name": "fig6",
        "analysis": "algo-panels",
        "title": "reduce on Mach A",
        "machines": ["A"],
        "cases": ["reduce"],
        "backends": _PARALLEL_CPU,
        "size_exps": [30],
        "claims": "fig6",
    },
    {
        "name": "fig7",
        "analysis": "algo-panels",
        "title": "sort on Mach C",
        "machines": ["C"],
        "cases": ["sort"],
        "backends": _PARALLEL_CPU,
        "size_exps": [30],
        "claims": "fig7",
    },
    {
        "name": "fig8",
        "analysis": "gpu-problem",
        "title": "for_each on GPUs (float, forced transfer)",
        "machines": ["gpu-host", "D", "E"],
        "backends": ["GCC-SEQ", "NVC-OMP", "NVC-CUDA"],
        "k_values": [1, 1000, 10000],
        "options": {
            "series": _GPU_SERIES,
            "max_exp": 29,
            "size_step": 2,
            "elem": "float",
            "ratio_baseline": "omp-host",
            "ratio_series": ["t4", "a2"],
        },
        "claims": "fig8",
    },
    {
        "name": "fig9",
        "analysis": "gpu-chaining",
        "title": "reduce on GPUs: chained calls vs forced transfers",
        "machines": ["gpu-host", "D", "E"],
        "backends": ["GCC-SEQ", "NVC-OMP", "NVC-CUDA"],
        "cases": ["reduce"],
        "options": {
            "series": _GPU_SERIES,
            "panels": [
                {"key": "forced", "transfer_back": True},
                {"key": "chained", "transfer_back": False},
            ],
            "max_exp": 29,
            "size_step": 2,
            "elem": "float",
            "min_time": 5.0,
            "chain_ratio_series": "t4",
        },
        "claims": "fig9",
    },
    {
        "name": "table3",
        "analysis": "counter-table",
        "title": "Counters for 100 calls to for_each (k_it=1), Mach A",
        "machines": ["A"],
        "backends": _PARALLEL_CPU,
        "cases": ["for_each_k1"],
        "size_exps": [30],
        "options": {"calls": 100},
        "claims": "table3",
    },
    {
        "name": "table4",
        "analysis": "counter-table",
        "title": "Counters for 100 calls to reduce, Mach A",
        "machines": ["A"],
        "backends": _PARALLEL_CPU,
        "cases": ["reduce"],
        "size_exps": [30],
        "options": {"calls": 100},
        "claims": "table4",
    },
    {
        "name": "table5",
        "analysis": "campaign-speedup",
        "title": "Speedup vs sequential",
        "machines": ["A", "B", "C"],
        "backends": _PARALLEL_CPU,
        "cases": _HEADLINE,
        "size_exps": [30],
        "threads": [None],
        "exclude": [["B", "ICC-TBB"]],
        "claims": "table5",
    },
    {
        "name": "table6",
        "analysis": "campaign-efficiency",
        "title": "Max threads at >= 70 % parallel efficiency",
        "machines": ["A", "B", "C"],
        "backends": _PARALLEL_CPU,
        "cases": _HEADLINE,
        "size_exps": [30],
        "threads": [1, 2, 4, 8, 16, 32, 64, 128],
        "exclude": [["B", "ICC-TBB"]],
        "claims": "table6",
    },
    {
        "name": "table7",
        "analysis": "binary-sizes",
        "title": "Binary sizes",
        "backends": ["GCC-SEQ", "GCC-TBB", "GCC-GNU", "GCC-HPX",
                     "ICC-TBB", "NVC-OMP", "NVC-CUDA"],
        "claims": "table7",
    },
)

assert len({entry["name"] for entry in BUILTIN_SCENARIOS}) == len(
    BUILTIN_SCENARIOS
), "duplicate built-in scenario name"

_CACHE: dict[str, ScenarioSpec] = {}


def scenario_names() -> tuple[str, ...]:
    """Registered scenario names, in report order."""
    return tuple(entry["name"] for entry in BUILTIN_SCENARIOS)


def builtin_scenarios() -> dict[str, ScenarioSpec]:
    """All built-in scenarios as validated specs, keyed by name."""
    return {name: get_scenario(name) for name in scenario_names()}


def get_scenario(name: str) -> ScenarioSpec:
    """One built-in scenario by name, fully validated (cached)."""
    if name not in _CACHE:
        for entry in BUILTIN_SCENARIOS:
            if entry["name"] == name:
                _CACHE[name] = scenario_from_dict(entry)
                break
        else:
            raise ScenarioError(
                f"unknown scenario {name!r}; known: {list(scenario_names())} "
                "(or pass --scenario-file for a user-defined spec)"
            )
    return _CACHE[name]
