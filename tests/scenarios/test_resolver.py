"""Resolver rules: one construction path for every context.

``repro.scenarios.resolve.make_context`` is the single home of the
"all physical cores unless sequential" thread rule. It must build, for
every (machine, backend) the paper uses, exactly the context the former
per-figure helpers built by hand (``make_ctx`` for CPU contexts,
``gpu_ctx`` for CUDA ones) -- spelled out here as :func:`legacy_ctx` and
:func:`legacy_gpu_ctx`.
"""

from __future__ import annotations

import pytest

from repro.backends import get_backend
from repro.errors import (
    ScenarioError,
    UnknownBackendError,
    UnknownMachineError,
)
from repro.execution.context import ExecutionContext
from repro.machines import get_machine
from repro.memory.allocators import (
    DefaultAllocator,
    ParallelFirstTouchAllocator,
)
from repro.scenarios.resolve import (
    ALLOCATOR_FACTORIES,
    make_context,
    resolve_allocator,
    resolve_backend,
    resolve_machine,
    resolve_threads,
)

MACHINES = ("A", "B", "C", "gpu-host")
BACKENDS = ("GCC-SEQ", "GCC-TBB", "GCC-GNU", "GCC-HPX", "ICC-TBB", "NVC-OMP")


def legacy_ctx(machine, backend, threads=None):
    """The paper's context rule by hand: all cores unless sequential."""
    m, b = get_machine(machine), get_backend(backend)
    count = 1 if b.is_sequential else (threads or m.total_cores)
    return ExecutionContext(m, b, threads=count)


def legacy_gpu_ctx(machine, transfer_back=True):
    """A one-thread CUDA context with the given transfer policy, by hand."""
    from repro.sim.gpu import GpuExecution

    return ExecutionContext(
        get_machine(machine), get_backend("nvc-cuda"), threads=1,
        gpu_options=GpuExecution(transfer_back=transfer_back),
    )


def _same_ctx(a, b) -> None:
    assert a.machine.name == b.machine.name
    assert a.backend.name == b.backend.name
    assert a.threads == b.threads
    assert a.mode == b.mode
    assert type(a.allocator) is type(b.allocator)


@pytest.mark.parametrize("machine", MACHINES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_legacy_make_ctx_matches_the_shared_resolver(machine, backend):
    _same_ctx(legacy_ctx(machine, backend), make_context(machine, backend))


@pytest.mark.parametrize("threads", [None, 1, 2, 16])
def test_explicit_thread_counts_resolve_identically(threads):
    _same_ctx(legacy_ctx("A", "gcc-tbb", threads=threads),
              make_context("A", "gcc-tbb", threads=threads))


def test_default_threads_are_all_physical_cores():
    for machine in ("A", "B", "C"):
        ctx = make_context(machine, "gcc-tbb")
        assert ctx.threads == resolve_machine(machine).total_cores


def test_sequential_backends_always_run_single_threaded():
    assert make_context("A", "gcc-seq", threads=8).threads == 1
    assert resolve_threads(resolve_machine("A"),
                           resolve_backend("gcc-seq"), 8) == 1


@pytest.mark.parametrize("machine", ["D", "E"])
@pytest.mark.parametrize("transfer_back", [True, False])
def test_gpu_ctx_matches_the_shared_resolver(machine, transfer_back):
    from repro.sim.gpu import GpuExecution

    legacy = legacy_gpu_ctx(machine, transfer_back=transfer_back)
    shared = make_context(
        machine, "nvc-cuda", threads=1,
        gpu_options=GpuExecution(transfer_back=transfer_back),
    )
    _same_ctx(legacy, shared)
    assert legacy.gpu_options.transfer_back is transfer_back
    assert shared.gpu_options.transfer_back is transfer_back


def test_allocator_names_resolve_to_fresh_instances():
    first = resolve_allocator("first-touch")
    assert isinstance(first, ParallelFirstTouchAllocator)
    assert resolve_allocator("first-touch") is not first
    assert isinstance(resolve_allocator("default"), DefaultAllocator)
    assert resolve_allocator(None) is None


def test_allocator_name_accepted_by_make_context():
    by_name = make_context("A", "gcc-tbb", allocator="first-touch")
    by_instance = make_context(
        "A", "gcc-tbb", allocator=ParallelFirstTouchAllocator()
    )
    assert type(by_name.allocator) is type(by_instance.allocator)


def test_unknown_names_raise_the_registry_errors():
    with pytest.raises(UnknownMachineError):
        make_context("Z9", "gcc-tbb")
    with pytest.raises(UnknownBackendError):
        make_context("A", "msvc-ppl")
    with pytest.raises(ScenarioError, match="unknown allocator"):
        resolve_allocator("tcmalloc")


def test_allocator_factories_cover_the_campaign_executor_names():
    # the campaign layer accepts exactly these allocator spellings
    assert set(ALLOCATOR_FACTORIES) == {
        "default", "first-touch", "hpx", "interleaved",
    }
