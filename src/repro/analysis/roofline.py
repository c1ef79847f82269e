"""Roofline analysis: classify algorithm invocations as compute- or
memory-bound on a machine, and bound their best-case parallel speedup.

The paper's scalability arguments are roofline arguments in prose: find
and reduce saturate at the STREAM ratio because their arithmetic
intensity is tiny; for_each with k_it=1000 scales to the core count
because compute dominates (Sections 5.2-5.5). This module makes the
argument executable: given a work profile and a machine, it computes the
intensity, the machine's balance point, and the resulting speedup bound
-- which the integration tests then check the simulator respects.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.machines.cpu import CpuMachine
from repro.sim.wave import ArrayProfile, _fold

__all__ = ["Boundedness", "RooflinePoint", "analyze_profile", "machine_balance"]


class Boundedness(enum.Enum):
    """Which roof an invocation sits under."""

    COMPUTE_BOUND = "compute-bound"
    MEMORY_BOUND = "memory-bound"
    BALANCED = "balanced"


def machine_balance(machine: CpuMachine, parallel: bool = True) -> float:
    """The machine's balance point in instructions per byte.

    Work with intensity above this is compute-bound; below, memory-bound.
    ``parallel=False`` uses the single-core STREAM figure (the balance
    point a sequential run sees -- much lower, which is why sequential
    runs are often compute-bound where the parallel run is memory-bound).
    """
    bw = machine.stream_bw_allcores if parallel else machine.stream_bw_1core
    rate = machine.scalar_instr_rate * (machine.total_cores if parallel else 1)
    return rate / bw


@dataclass(frozen=True)
class RooflinePoint:
    """An invocation's position in roofline coordinates."""

    instructions: float
    bytes_moved: float
    intensity: float  # instructions per byte
    balance: float  # the machine's balance point (parallel)
    boundedness: Boundedness
    #: Best-case parallel speedup vs. one core of the same machine:
    #: min(cores, achievable-bandwidth ratio at this intensity).
    speedup_bound: float


def analyze_profile(
    machine: CpuMachine, profile: ArrayProfile, slack: float = 1.25,
) -> RooflinePoint:
    """Classify an array work profile on ``machine``.

    Instructions and bytes are one left fold over every chunk of every
    phase, in order. ``slack`` widens the BALANCED band around the
    balance point (an invocation within [balance/slack, balance*slack]
    is called balanced).
    """
    if slack < 1.0:
        raise ConfigurationError("slack must be >= 1")
    phases = profile.phases
    instructions = _fold(np.concatenate([
        p.elems * p.instr_per_elem + p.elems * p.fp_per_elem for p in phases
    ]))
    bytes_moved = _fold(np.concatenate([
        p.elems * p.read_per_elem + p.elems * p.write_per_elem for p in phases
    ]))
    if bytes_moved <= 0.0:
        # No memory traffic at all: trivially compute-bound.
        return RooflinePoint(
            instructions=instructions,
            bytes_moved=0.0,
            intensity=float("inf"),
            balance=machine_balance(machine),
            boundedness=Boundedness.COMPUTE_BOUND,
            speedup_bound=float(machine.total_cores),
        )

    intensity = instructions / bytes_moved
    balance = machine_balance(machine)
    if intensity > balance * slack:
        kind = Boundedness.COMPUTE_BOUND
    elif intensity < balance / slack:
        kind = Boundedness.MEMORY_BOUND
    else:
        kind = Boundedness.BALANCED

    # Sequential time ~ max of the two single-core roofs; parallel time ~
    # max of the machine roofs. Their ratio bounds any speedup.
    seq_compute = instructions / machine.scalar_instr_rate
    seq_memory = bytes_moved / machine.stream_bw_1core
    par_compute = instructions / (machine.scalar_instr_rate * machine.total_cores)
    par_memory = bytes_moved / machine.stream_bw_allcores
    bound = max(seq_compute, seq_memory) / max(par_compute, par_memory)

    return RooflinePoint(
        instructions=instructions,
        bytes_moved=bytes_moved,
        intensity=intensity,
        balance=balance,
        boundedness=kind,
        speedup_bound=bound,
    )
