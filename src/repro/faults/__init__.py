"""Deterministic fault injection for the campaign pipeline.

The scalability grids this repo reproduces are only as trustworthy as
the orchestration machinery that produces them -- the process pool,
content-addressed cache and resume journal of :mod:`repro.campaign`.
This package makes that machinery's failure paths *testable*: a
:class:`FaultPlan` names seeded injection rates for five failure sites
(worker exception / hang / kill, cache-object corruption, journal torn
tail), and a :class:`FaultInjector` applies them deterministically --
the same seed against the same campaign always injects the same faults.

Activate via ``run_campaign(faults=FaultPlan(...))`` or
``pstl-campaign run --faults plan.json --fault-seed N``. The headline
invariant, enforced by the chaos suite (``pytest -m chaos``): for any
schedule whose per-task fault count stays within the retry budget,
*run -> (faults) -> resume -> query* is bit-identical to a fault-free
run, and ``pstl-campaign verify`` finds zero integrity errors
afterwards. See docs/ROBUSTNESS.md.
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    FAULT_SITES,
    WORKER_SITES,
    FaultPlan,
    decision,
    load_fault_plan,
)
from repro.faults.workers import (
    apply_directive,
    faulty_point,
    faulty_wave,
)

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "FAULT_SITES",
    "WORKER_SITES",
    "decision",
    "load_fault_plan",
    "faulty_point",
    "faulty_wave",
    "apply_directive",
]
