"""Declarative scenario registry: every paper artifact as data.

``repro.scenarios`` turns the paper's figures and tables -- and any
user-defined sweep -- into JSON/dict *specs* instead of bespoke driver
code. A spec names its axes (machines, backends, cases, sizes, threads,
k values, allocators), binds an *analysis kind* that knows how to turn
those axes into measured cells/curves, and optionally a fidelity
artifact its claims check against.

Layers:

* :mod:`repro.scenarios.schema` -- the typed :class:`ScenarioSpec` and
  its two-stage validation (structural + registry-backed).
* :mod:`repro.scenarios.resolve` -- the one resolver for
  machine/backend/case/allocator names and execution contexts.
* :mod:`repro.scenarios.analyses` -- the data-driven kind runners
  (allocator-grid, problem-panels, ..., campaign-grid).
* :mod:`repro.scenarios.registry` -- the built-in fig1-fig9 and
  table3-table7 specs.
* :mod:`repro.scenarios.runner` -- execution (:func:`run_scenario`) and
  the service bridge (:func:`campaign_payload`).
* :mod:`repro.scenarios.cli` -- the ``pstl-scenario`` entry point.

The registry is the one implementation of every figure and table. Each
registered scenario's cells and curves are frozen as float-hex goldens
(the ``output`` object of its ``refdata/`` artifact, checked by a
``golden`` fidelity claim), so any change to a scenario's output fails
``pstl-fidelity run`` and the failure names the cell.
"""

from repro.scenarios.analyses import AnalysisKind, RunOptions, analysis_kinds, get_analysis
from repro.scenarios.registry import builtin_scenarios, get_scenario, scenario_names
from repro.scenarios.runner import (
    ScenarioRun,
    campaign_payload,
    campaign_spec,
    describe_scenario,
    run_scenario,
)
from repro.scenarios.schema import (
    ScenarioSpec,
    load_scenario_file,
    scenario_from_dict,
    validate_scenario,
)

__all__ = [
    "AnalysisKind",
    "RunOptions",
    "ScenarioRun",
    "ScenarioSpec",
    "analysis_kinds",
    "builtin_scenarios",
    "campaign_payload",
    "campaign_spec",
    "describe_scenario",
    "get_analysis",
    "get_scenario",
    "load_scenario_file",
    "run_scenario",
    "scenario_from_dict",
    "scenario_names",
    "validate_scenario",
]
