"""Simulation outputs: counter sets and per-phase/total reports.

The counter fields mirror what the paper extracts with Likwid (Tables 3
and 4): total instructions, scalar FP ops, 128/256-bit packed FP ops,
memory bandwidth and memory data volume.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import SimulationError
from repro.util.units import GIB

__all__ = ["Counters", "PhaseReport", "SimReport"]


@dataclass(frozen=True, slots=True)
class Counters:
    """Hardware-counter style event totals.

    Attributes
    ----------
    instructions:
        Total retired instructions (count). Mirrors the Likwid
        ``INSTR_RETIRED_ANY`` column of Tables 3/4 -- per-backend
        differences here (1.55T vs 3.83T for ``for_each``) are the
        paper's main evidence for runtime bookkeeping overhead.
    fp_scalar:
        Scalar double-precision FP operations (count); Tables 3/4's
        "FP scalar" column.
    fp_packed_128 / fp_packed_256:
        Packed 128-bit / 256-bit FP *instructions* (count, lanes NOT
        multiplied in): one 256-bit op here is 4 double lanes. Tables
        3/4 use these to show which backends vectorise (ICC/HPX emit
        256-bit packed ops for ``reduce``; the rest stay scalar).
    bytes_read / bytes_written:
        DRAM traffic in bytes, after backend traffic factors; their sum
        is Tables 3/4's "memory data volume" column.
    """

    instructions: float = 0.0
    fp_scalar: float = 0.0
    fp_packed_128: float = 0.0
    fp_packed_256: float = 0.0
    bytes_read: float = 0.0
    bytes_written: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "instructions",
            "fp_scalar",
            "fp_packed_128",
            "fp_packed_256",
            "bytes_read",
            "bytes_written",
        ):
            if getattr(self, name) < 0:
                raise SimulationError(f"counter {name} must be non-negative")

    def __add__(self, other: "Counters") -> "Counters":
        return Counters(
            instructions=self.instructions + other.instructions,
            fp_scalar=self.fp_scalar + other.fp_scalar,
            fp_packed_128=self.fp_packed_128 + other.fp_packed_128,
            fp_packed_256=self.fp_packed_256 + other.fp_packed_256,
            bytes_read=self.bytes_read + other.bytes_read,
            bytes_written=self.bytes_written + other.bytes_written,
        )

    def scaled(self, factor: float) -> "Counters":
        """All events multiplied by ``factor`` (e.g., 100 calls for Table 3)."""
        if factor < 0:
            raise SimulationError("scale factor must be non-negative")
        return Counters(
            instructions=self.instructions * factor,
            fp_scalar=self.fp_scalar * factor,
            fp_packed_128=self.fp_packed_128 * factor,
            fp_packed_256=self.fp_packed_256 * factor,
            bytes_read=self.bytes_read * factor,
            bytes_written=self.bytes_written * factor,
        )

    @property
    def data_volume(self) -> float:
        """Total DRAM traffic in bytes (read + written)."""
        return self.bytes_read + self.bytes_written

    @property
    def flops(self) -> float:
        """Total floating-point operations (packed ops count their lanes).

        128-bit packed doubles carry 2 lanes, 256-bit carry 4; the lane
        width is folded in when the engine records the events, so here each
        packed *operation* is multiplied by its nominal double-lane count,
        matching how Likwid's FLOP groups weigh them.
        """
        return (
            self.fp_scalar
            + 2.0 * self.fp_packed_128
            + 4.0 * self.fp_packed_256
        )

    def gflops(self, seconds: float) -> float:
        """Achieved GFLOP/s over ``seconds``."""
        if seconds <= 0:
            raise SimulationError("seconds must be positive")
        return self.flops / seconds / 1e9

    def bandwidth_gib(self, seconds: float) -> float:
        """Achieved memory bandwidth in GiB/s over ``seconds``."""
        if seconds <= 0:
            raise SimulationError("seconds must be positive")
        return self.data_volume / seconds / GIB


@dataclass(frozen=True, slots=True)
class PhaseReport:
    """Timing/counter breakdown for one phase of a work profile.

    Attributes
    ----------
    name:
        Phase name from the work profile ("main-loop", "chunk-reduce",
        "combine"...).
    seconds:
        Total simulated cost of the phase, in seconds: the roofline
        maximum of compute vs memory time, plus scheduling and
        synchronisation overhead (and any NUMA spread penalty).
    compute_seconds:
        Slowest thread's instruction-execution time, in seconds --
        intrinsic work plus the backend's per-element overhead, which is
        how Table 3/4 instruction-count differences become time.
    memory_seconds:
        The phase's bandwidth-bound time, in seconds, under the NUMA
        bandwidth model (or the fitting cache level's bandwidth). When
        this exceeds ``compute_seconds`` the phase is memory-bound --
        the regime behind the paper's STREAM-ratio speedup ceilings
        (Figs 4-6).
    overhead_seconds:
        Scheduling (per-chunk dispatch) plus synchronisation cost, in
        seconds; the component the paper blames for HPX's flat k_it=1
        curves (Fig. 3).
    counters:
        Hardware-counter totals attributed to this phase (the per-phase
        slice of Tables 3/4).
    """

    name: str
    seconds: float
    compute_seconds: float
    memory_seconds: float
    overhead_seconds: float
    counters: Counters

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise SimulationError("phase time must be non-negative")


@dataclass(frozen=True, slots=True)
class SimReport:
    """Full result of simulating one algorithm invocation.

    Attributes
    ----------
    seconds:
        End-to-end simulated wall time of the call, in seconds: sum of
        phase times plus fork/join (and GPU launch/migration) costs.
        This is the quantity behind every figure's y-axis and the
        speedup ratios of Table 5.
    counters:
        Hardware-counter totals over all phases; scaled by the call
        count, these reproduce Tables 3 and 4.
    phases:
        Per-phase breakdown, in execution order (see
        :class:`PhaseReport`); ``repro.analysis.breakdown`` renders it,
        and the tracer mirrors it as timeline spans.
    fork_join_seconds:
        Total thread-team fork + join overhead, in seconds (kernel
        launch latency on GPUs). Dominates low-intensity small-n runs --
        the left side of Fig. 2 where sequential wins below 2^10.
    migration_seconds:
        GPU unified-memory page migration plus forced device-to-host
        transfer time, in seconds (0 for CPU runs); the term that
        separates Fig. 9a (forced transfers) from Fig. 9b (chained
        kernels).
    """

    seconds: float
    counters: Counters
    phases: tuple[PhaseReport, ...] = field(default_factory=tuple)
    fork_join_seconds: float = 0.0
    migration_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise SimulationError("total time must be non-negative")

    def with_extra_seconds(self, extra: float, migration: float = 0.0) -> "SimReport":
        """A copy with additional time folded in (e.g., GPU migrations)."""
        if extra < 0 or migration < 0:
            raise SimulationError("extra time must be non-negative")
        return replace(
            self,
            seconds=self.seconds + extra,
            migration_seconds=self.migration_seconds + migration,
        )
