"""Deterministic cost engine: work profiles -> simulated time and counters."""

from repro.sim.bandwidth import MATCHED_POLICIES, MemoryTimes, dram_memory_time
from repro.sim.engine import simulate_cpu
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
from repro.sim.work import ChunkWork, Phase, PhaseKind, WorkProfile

__all__ = [
    "MATCHED_POLICIES",
    "MemoryTimes",
    "dram_memory_time",
    "simulate_cpu",
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
    "ChunkWork",
    "Phase",
    "PhaseKind",
    "WorkProfile",
]
