"""Tests for the allocator models (the Fig. 1 mechanism)."""

import pytest

from repro.errors import AllocationError
from repro.memory.allocators import (
    ALLOCATOR_FACTORIES,
    DefaultAllocator,
    HpxNumaAllocator,
    InterleavedAllocator,
    ParallelFirstTouchAllocator,
    allocator_names,
    get_allocator,
)
from repro.types import FLOAT64


class TestDefaultAllocator:
    def test_all_pages_on_node0(self, mach_a):
        arr = DefaultAllocator().allocate(1024, FLOAT64, mach_a, (16, 16))
        assert arr.placement.node_fractions == (1.0, 0.0)
        assert arr.placement.policy == "default"

    def test_not_materialized_by_default(self, mach_a):
        arr = DefaultAllocator().allocate(1024, FLOAT64, mach_a, (1, 0))
        assert arr.data is None

    def test_materialize(self, mach_a):
        arr = DefaultAllocator().allocate(64, FLOAT64, mach_a, (1, 0), materialize=True)
        assert arr.data is not None and len(arr.data) == 64


class TestParallelFirstTouch:
    def test_follows_thread_distribution(self, mach_a):
        arr = ParallelFirstTouchAllocator().allocate(1024, FLOAT64, mach_a, (8, 24))
        assert arr.placement.node_fractions == (0.25, 0.75)
        assert arr.placement.policy == "first-touch"

    def test_requires_threads(self, mach_a):
        with pytest.raises(AllocationError):
            ParallelFirstTouchAllocator().allocate(16, FLOAT64, mach_a, (0, 0))

    def test_node_count_checked(self, mach_a):
        with pytest.raises(AllocationError):
            ParallelFirstTouchAllocator().allocate(16, FLOAT64, mach_a, (1, 1, 1))


class TestHpxAllocator:
    def test_same_distribution_own_policy_name(self, mach_a):
        arr = HpxNumaAllocator().allocate(1024, FLOAT64, mach_a, (16, 16))
        assert arr.placement.node_fractions == (0.5, 0.5)
        assert arr.placement.policy == "hpx-numa"


class TestInterleaved:
    def test_uniform(self, mach_b):
        arr = InterleavedAllocator().allocate(1024, FLOAT64, mach_b, (8,) * 8)
        assert all(f == pytest.approx(1 / 8) for f in arr.placement.node_fractions)


class TestCommonBehaviour:
    def test_capacity_enforced(self, mach_a):
        huge = (mach_a.topology.total_memory // FLOAT64.size) + 1
        with pytest.raises(AllocationError):
            DefaultAllocator().allocate(huge, FLOAT64, mach_a, (1, 0))

    def test_zero_size_rejected(self, mach_a):
        with pytest.raises(AllocationError):
            DefaultAllocator().allocate(0, FLOAT64, mach_a, (1, 0))

    def test_registry(self):
        assert allocator_names() == sorted(ALLOCATOR_FACTORIES)
        assert allocator_names() == ["default", "first-touch", "hpx",
                                     "interleaved"]
        # Every spec name resolves to a fresh instance of its factory,
        # whose placement policy keeps its own spelling.
        policies = {"default": "default", "first-touch": "first-touch",
                    "hpx": "hpx-numa", "interleaved": "interleave"}
        for name, policy in policies.items():
            allocator = get_allocator(name)
            assert type(allocator) is ALLOCATOR_FACTORIES[name]
            assert allocator.name == policy
            assert get_allocator(name) is not allocator
        assert type(get_allocator(" HPX ")) is HpxNumaAllocator

    def test_registry_unknown(self):
        with pytest.raises(AllocationError):
            get_allocator("slab")
        with pytest.raises(AllocationError):  # a policy, not a spec name
            get_allocator("hpx-numa")
