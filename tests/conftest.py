"""Shared fixtures: machines, backends, execution contexts, scenario runs."""

from __future__ import annotations

import functools

import pytest

from repro.backends import get_backend
from repro.execution.context import ExecutionContext
from repro.machines import get_machine


@pytest.fixture
def mach_a():
    """The 32-core Skylake machine (Table 2)."""
    return get_machine("A")


@pytest.fixture
def mach_b():
    """The 64-core Zen 1 machine."""
    return get_machine("B")


@pytest.fixture
def mach_c():
    """The 128-core Zen 3 machine."""
    return get_machine("C")


@pytest.fixture
def mach_d():
    """The Tesla T4 GPU."""
    return get_machine("D")


@pytest.fixture
def tbb():
    """GCC-TBB backend model."""
    return get_backend("gcc-tbb")


@pytest.fixture
def gnu():
    """GCC-GNU backend model."""
    return get_backend("gcc-gnu")


@pytest.fixture
def hpx():
    """GCC-HPX backend model."""
    return get_backend("gcc-hpx")


@pytest.fixture
def seq_backend():
    """Sequential GCC baseline backend."""
    return get_backend("gcc-seq")


@pytest.fixture
def run_ctx(mach_a, tbb):
    """A materialising (run-mode) context: 8 threads on Mach A, TBB."""
    return ExecutionContext(mach_a, tbb, threads=8, mode="run")


@pytest.fixture
def model_ctx(mach_a, tbb):
    """A model-mode context: 32 threads on Mach A, TBB."""
    return ExecutionContext(mach_a, tbb, threads=32, mode="model")


@pytest.fixture
def seq_ctx(mach_a, seq_backend):
    """The sequential baseline context on Mach A."""
    return ExecutionContext(mach_a, seq_backend, threads=1, mode="model")


@pytest.fixture(scope="session")
def scenario_run():
    """``scenario_run(name)``: a registered scenario's run, once per session.

    The simulator is deterministic, so every test reading the same
    scenario's cells can share one run.
    """
    from repro.scenarios import run_scenario

    return functools.cache(run_scenario)
