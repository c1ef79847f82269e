"""Deterministic cost engine: array profiles -> simulated time and counters.

The wave engine (``repro.sim.wave``) costs every CPU profile and
``repro.sim.gpu`` every GPU one. The scalar reference engine and its IR
(``repro.sim.engine``, ``repro.sim.work``) are imported from their own
modules by the checks that compare against them.
"""

from repro.sim.bandwidth import MATCHED_POLICIES, MemoryTimes
from repro.sim.gpu import GpuExecution, simulate_gpu
from repro.sim.interfaces import BackendModel
from repro.sim.report import Counters, PhaseReport, SimReport
from repro.sim.wave import (
    WAVE_TRACK,
    WaveEntry,
    WaveProgram,
    fuse_wave,
    simulate_wave,
    simulate_wave_entries,
)
from repro.sim.work import PhaseKind

__all__ = [
    "MATCHED_POLICIES",
    "MemoryTimes",
    "GpuExecution",
    "simulate_gpu",
    "WAVE_TRACK",
    "WaveEntry",
    "WaveProgram",
    "fuse_wave",
    "simulate_wave",
    "simulate_wave_entries",
    "BackendModel",
    "Counters",
    "PhaseReport",
    "SimReport",
    "PhaseKind",
]
