"""Allocator models: default serial first-touch vs. pSTL-Bench's parallel
first-touch allocator (paper Section 3.3, Listing 5), plus the HPX NUMA
allocator and an explicit interleaving policy.

On Linux, memory is physically placed on the NUMA node of the *first CPU to
touch each page*. A serial ``std::vector`` constructor therefore lands the
whole array on the allocating thread's node; pSTL-Bench's custom allocator
instead first-touches pages with the same parallel policy the benchmark
will use, so each page lands next to the thread that will stream it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.errors import AllocationError
from repro.machines.cpu import CpuMachine
from repro.memory.array import SimArray
from repro.memory.layout import PagePlacement
from repro.types import ElemType

__all__ = [
    "ALLOCATOR_FACTORIES",
    "Allocator",
    "DefaultAllocator",
    "ParallelFirstTouchAllocator",
    "HpxNumaAllocator",
    "InterleavedAllocator",
    "get_allocator",
    "allocator_names",
]


class Allocator(ABC):
    """Strategy object deciding the NUMA placement of new arrays."""

    #: Placement policy stamped on the pages it places (what
    #: ``repro.sim.bandwidth.MATCHED_POLICIES`` reads); subclasses
    #: override. Specs name allocators by their ``ALLOCATOR_FACTORIES`` key.
    name: str = "abstract"

    @abstractmethod
    def placement(
        self, machine: CpuMachine, threads_per_node: Sequence[int]
    ) -> PagePlacement:
        """Compute where pages land given the touching threads' layout."""

    def allocate(
        self,
        n: int,
        elem: ElemType,
        machine: CpuMachine,
        threads_per_node: Sequence[int],
        materialize: bool = False,
    ) -> SimArray:
        """Allocate an ``n``-element array of ``elem``.

        ``materialize=True`` creates a real zero-initialised NumPy buffer
        (run mode); otherwise only the placement descriptor is built, which
        is how the 2^30-element model-mode sweeps stay cheap.
        """
        if n <= 0:
            raise AllocationError(f"array size must be positive, got {n}")
        nbytes = n * elem.size
        if nbytes > machine.topology.total_memory:
            raise AllocationError(
                f"{nbytes} B exceeds modeled DRAM capacity "
                f"({machine.topology.total_memory} B) of {machine.name}"
            )
        data = np.zeros(n, dtype=elem.dtype) if materialize else None
        return SimArray(
            n=n,
            elem=elem,
            placement=self.placement(machine, threads_per_node),
            data=data,
        )


class DefaultAllocator(Allocator):
    """Serial first touch: every page lands on the allocating thread's node.

    This models plain ``std::vector`` construction on the main thread --
    the baseline the paper's Fig. 1 compares against. The main thread is
    assumed to run on NUMA node 0.
    """

    name = "default"

    def placement(
        self, machine: CpuMachine, threads_per_node: Sequence[int]
    ) -> PagePlacement:
        return PagePlacement.single_node(
            node=0, num_nodes=machine.topology.num_nodes, policy=self.name
        )


class ParallelFirstTouchAllocator(Allocator):
    """pSTL-Bench's custom allocator (Listing 5): parallel first touch.

    Pages are touched with the same parallel policy as the benchmark body,
    so page ownership follows the thread distribution across nodes.
    """

    name = "first-touch"

    def placement(
        self, machine: CpuMachine, threads_per_node: Sequence[int]
    ) -> PagePlacement:
        if len(threads_per_node) != machine.topology.num_nodes:
            raise AllocationError(
                "threads_per_node must have one entry per NUMA node"
            )
        if sum(threads_per_node) <= 0:
            raise AllocationError("need at least one touching thread")
        return PagePlacement.proportional(
            weights=[float(t) for t in threads_per_node], policy=self.name
        )


class HpxNumaAllocator(ParallelFirstTouchAllocator):
    """HPX's own NUMA allocator.

    The paper keeps HPX on its bundled allocator ("the HPX backend ... has
    its own memory allocation strategy", Section 5.1); its placement is the
    same parallel first-touch idea -- pSTL-Bench's allocator is in fact an
    adaptation of it -- so it shares the placement computation.
    """

    name = "hpx-numa"


class InterleavedAllocator(Allocator):
    """Round-robin page interleaving across all nodes (``numactl -i all``).

    Not used by the paper's headline runs but a natural ablation: it fixes
    the bandwidth problem of the default allocator without matching pages
    to threads, so locality is ``1/num_nodes`` regardless of placement.
    """

    name = "interleave"

    def placement(
        self, machine: CpuMachine, threads_per_node: Sequence[int]
    ) -> PagePlacement:
        nodes = machine.topology.num_nodes
        return PagePlacement(
            node_fractions=tuple(1.0 / nodes for _ in range(nodes)),
            policy=self.name,
        )


#: The allocators a campaign point or scenario spec may name (None or
#: absent = the backend's default), by their spec names: the one table
#: behind point validation, the campaign executor and the scenario
#: resolver.
ALLOCATOR_FACTORIES: Mapping[str, Callable[[], Allocator]] = {
    "default": DefaultAllocator,
    "first-touch": ParallelFirstTouchAllocator,
    "hpx": HpxNumaAllocator,
    "interleaved": InterleavedAllocator,
}


def get_allocator(name: str) -> Allocator:
    """A fresh allocator for a spec name (a key of ``ALLOCATOR_FACTORIES``).

    These are the names campaigns and scenarios accept. Two of them
    differ from the placement policy the allocator stamps (its
    ``name``): ``"hpx"`` places as ``"hpx-numa"`` and ``"interleaved"``
    as ``"interleave"``.
    """
    factory = ALLOCATOR_FACTORIES.get(name.strip().lower())
    if factory is None:
        raise AllocationError(
            f"unknown allocator {name!r}; known: {allocator_names()}"
        )
    return factory()


def allocator_names() -> list[str]:
    """The spec names :func:`get_allocator` accepts, sorted."""
    return sorted(ALLOCATOR_FACTORIES)
