"""ExecutionContext: one (machine, backend, threads, allocator, mode) tuple.

Every algorithm call takes a context; the context decides sequential
fallback, builds partitions, allocates arrays with the right placement and
dispatches work profiles to the CPU or GPU cost engine. The ``mode``
field selects *run* (materialised NumPy data, real results) vs *model*
(analytic profiles only), per DESIGN.md section 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np

from repro.backends.base import Backend
from repro.errors import ConfigurationError
from repro.execution.affinity import ThreadPlacement
from repro.execution.policy import PAR, ExecutionPolicy
from repro.machines.cpu import CpuMachine
from repro.machines.gpu import GpuMachine
from repro.memory.allocators import (
    Allocator,
    DefaultAllocator,
    HpxNumaAllocator,
    ParallelFirstTouchAllocator,
)
from repro.memory.array import SimArray
from repro.memory.layout import PagePlacement
from repro.sim.gpu import GpuExecution, simulate_gpu
from repro.sim.report import SimReport
from repro.sim.wave import ArrayProfile, simulate_cpu_arrays
from repro.trace.core import get_tracer
from repro.types import ElemType

__all__ = ["ExecutionContext", "RUN_MODE_MAX_ELEMS"]

Machine = Union[CpuMachine, GpuMachine]

#: Hard cap on materialised array sizes; beyond this the paper's sweeps
#: must use model mode (a 2^30 double array is 8 GiB).
RUN_MODE_MAX_ELEMS = 1 << 25


def _default_allocator(backend: Backend) -> Allocator:
    """The allocator the paper uses with this backend (Section 5.1)."""
    if backend.runtime == "HPX":
        return HpxNumaAllocator()
    if backend.runtime == "CUDA":
        return DefaultAllocator()  # residency handled by unified memory
    if backend.is_sequential:
        return DefaultAllocator()
    return ParallelFirstTouchAllocator()


@dataclass(frozen=True)
class ExecutionContext:
    """Execution environment for parallel STL calls."""

    machine: Machine
    backend: Backend
    threads: int = 1
    policy: ExecutionPolicy = PAR
    allocator: Allocator | None = None
    mode: str = "model"
    gpu_options: GpuExecution = field(default_factory=GpuExecution)
    rng_seed: int = 0x5EED

    def __post_init__(self) -> None:
        if self.mode not in ("run", "model"):
            raise ConfigurationError(f"mode must be 'run' or 'model', got {self.mode!r}")
        if self.threads < 1:
            raise ConfigurationError("threads must be >= 1")
        if self.is_gpu:
            if self.backend.runtime != "CUDA":
                raise ConfigurationError(
                    f"machine {self.machine.name} is a GPU; use the NVC-CUDA backend"
                )
        else:
            if self.backend.runtime == "CUDA":
                raise ConfigurationError(
                    "NVC-CUDA backend requires a GPU machine (Mach D / Mach E)"
                )
            if self.threads > self.machine.total_cores:
                raise ConfigurationError(
                    f"threads={self.threads} exceeds {self.machine.name}'s "
                    f"{self.machine.total_cores} cores"
                )
        if self.allocator is None:
            object.__setattr__(self, "allocator", _default_allocator(self.backend))

    # --- basic properties --------------------------------------------------------
    @property
    def is_gpu(self) -> bool:
        """Whether this context targets a GPU machine."""
        return isinstance(self.machine, GpuMachine)

    @property
    def thread_placement(self) -> ThreadPlacement:
        """Thread->node placement (CPU contexts only)."""
        if self.is_gpu:
            raise ConfigurationError("GPU contexts have no NUMA thread placement")
        return ThreadPlacement(
            self.machine, self.threads, strategy=self.backend.affinity_strategy
        )

    @property
    def threads_per_node(self) -> tuple[int, ...]:
        """Threads per NUMA node (CPU), or a single pseudo-node (GPU)."""
        if self.is_gpu:
            return (self.threads,)
        return self.thread_placement.threads_per_node

    def with_(self, **changes) -> "ExecutionContext":
        """A modified copy (threads, mode, allocator...)."""
        return replace(self, **changes)

    # --- dispatch ----------------------------------------------------------------
    def runs_parallel(self, alg: str, n: int) -> bool:
        """Whether this invocation executes in parallel.

        Combines the execution policy, the backend's capability matrix and
        its sequential-fallback thresholds (GNU below 2^10 etc.).
        """
        if self.is_gpu:
            return True
        if not self.policy.is_parallel:
            return False
        return self.backend.runs_parallel(alg, n, self.threads)

    # --- memory ------------------------------------------------------------------
    def allocate(self, n: int, elem: ElemType) -> SimArray:
        """Allocate per this context's allocator; materialised in run mode."""
        materialize = self.mode == "run"
        if materialize and n > RUN_MODE_MAX_ELEMS:
            raise ConfigurationError(
                f"run mode caps arrays at 2^25 elements; {n} requested. "
                "Use mode='model' for the paper-scale sweeps."
            )
        if self.is_gpu:
            data = np.zeros(n, dtype=elem.dtype) if materialize else None
            return SimArray(
                n=n,
                elem=elem,
                placement=PagePlacement.single_node(0, 1, policy="default"),
                data=data,
            )
        return self.allocator.allocate(
            n,
            elem,
            self.machine,
            self.threads_per_node,
            materialize=materialize,
        )

    def array_from(self, data: np.ndarray, elem: ElemType) -> SimArray:
        """Wrap existing data (run-mode convenience for examples/tests)."""
        arr = self.allocate(len(data), elem)
        if arr.data is not None:
            arr.data[:] = np.asarray(data, dtype=elem.dtype)
        return arr

    # --- costing -----------------------------------------------------------------
    def simulate(
        self, profile: ArrayProfile, arrays: tuple[SimArray, ...] = ()
    ) -> SimReport:
        """Cost one invocation's profile.

        A CPU profile is a one-entry wave
        (:func:`~repro.sim.wave.simulate_cpu_arrays`), in model and run
        mode alike; a GPU profile goes to
        :func:`~repro.sim.gpu.simulate_gpu`.

        When the global tracer is enabled (``repro.trace``), the call is
        wrapped in a root span named after the algorithm, carrying this
        context's machine/backend/threads/mode/policy attributes; the
        engine's phase and lane spans nest inside it on the timeline.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            if self.is_gpu:
                return simulate_gpu(self.machine, profile, arrays, self.gpu_options)
            return simulate_cpu_arrays(self.machine, self.backend, profile)
        with tracer.span(
            profile.alg,
            category="call",
            machine=self.machine.name,
            backend=self.backend.name,
            threads=self.threads,
            mode=self.mode,
            policy=self.policy.value,
            n=profile.n,
        ) as span:
            if self.is_gpu:
                report = simulate_gpu(
                    self.machine, profile, arrays, self.gpu_options
                )
            else:
                report = simulate_cpu_arrays(self.machine, self.backend, profile)
            span.set_attribute("seconds", report.seconds)
        return report

    def rng(self) -> np.random.Generator:
        """Deterministic per-context RNG (data generation, shuffles)."""
        return np.random.default_rng(self.rng_seed)
