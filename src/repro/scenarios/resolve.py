"""The one resolver for machine/backend/case/allocator names and contexts.

This module is the single home of the registry lookups of
``repro.machines``/``repro.backends``/``repro.suite.cases`` and of the
"all cores unless sequential" thread rule, used by the scenario engine
(:mod:`repro.scenarios.analyses`), the examples and the differential
tools; ``tests/scenarios/test_resolver.py`` pins the rules.

Resolution is intentionally *strict*: an unknown name raises the
registry's own error (:class:`~repro.errors.UnknownMachineError`,
:class:`~repro.errors.UnknownBackendError`,
:class:`~repro.errors.ConfigurationError` for cases) rather than a
scenario-flavoured wrapper, so callers can tell "mistyped spec" apart
from "engine bug".
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.backends import get_backend
from repro.errors import ScenarioError
from repro.machines import get_machine
from repro.memory.allocators import ALLOCATOR_FACTORIES, Allocator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.execution.context import ExecutionContext
    from repro.sim.gpu import GpuExecution
    from repro.suite.cases import BenchCase

__all__ = [
    "ALLOCATOR_FACTORIES",
    "resolve_machine",
    "resolve_backend",
    "resolve_case",
    "resolve_allocator",
    "resolve_threads",
    "make_context",
]


def resolve_machine(name: str):
    """The machine model for ``name`` (paper ids, "mach-a", nicknames)."""
    return get_machine(name)


def resolve_backend(name: str):
    """The backend model for ``name`` (case-insensitive, "-"/"_" agnostic)."""
    return get_backend(name)


def resolve_case(name: str) -> "BenchCase":
    """The benchmark case registered under ``name``."""
    from repro.suite.cases import get_case

    return get_case(name)


def resolve_allocator(name: str | None) -> Allocator | None:
    """A fresh allocator instance for ``name`` (``None`` = backend default)."""
    if name is None:
        return None
    try:
        return ALLOCATOR_FACTORIES[name]()
    except KeyError:
        raise ScenarioError(
            f"unknown allocator {name!r}; known: "
            f"{sorted(ALLOCATOR_FACTORIES)} (or null for the backend default)"
        ) from None


def resolve_threads(machine, backend, threads: int | None = None) -> int:
    """The paper's thread rule for one (machine, backend) pair.

    ``None`` means "all physical cores" (Section 4.1's maximum);
    sequential backends always run on one thread regardless of the
    requested count.
    """
    count = threads if threads is not None else getattr(machine, "total_cores", 1)
    if backend.is_sequential:
        count = 1
    return count


def make_context(
    machine: str,
    backend: str,
    threads: int | None = None,
    allocator: Allocator | str | None = None,
    mode: str = "model",
    gpu_options: "GpuExecution | None" = None,
) -> "ExecutionContext":
    """Build an :class:`~repro.execution.context.ExecutionContext` by name.

    The single construction path behind every scenario analysis kind.
    ``allocator`` accepts either a ready instance or a registered name
    (see :data:`ALLOCATOR_FACTORIES`).
    """
    from repro.execution.context import ExecutionContext

    m = resolve_machine(machine)
    b = resolve_backend(backend)
    alloc = resolve_allocator(allocator) if isinstance(allocator, str) else allocator
    extra = {} if gpu_options is None else {"gpu_options": gpu_options}
    return ExecutionContext(
        m,
        b,
        threads=resolve_threads(m, b, threads),
        allocator=alloc,
        mode=mode,
        **extra,
    )
