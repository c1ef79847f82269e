"""GPU cost engine for the CUDA backend (paper Section 5.8, Figs 8-9).

A GPU invocation costs: kernel launch latency per parallel region, unified
memory migration for non-resident pages, and a roofline of device compute
vs. device DRAM bandwidth. Optionally a forced device-to-host transfer is
added after the kernel (the paper does this in Fig. 8 and Fig. 9a to expose
the communication bottleneck).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.machines.gpu import GpuMachine
from repro.memory.array import SimArray
from repro.memory.unified import UnifiedMemory
from repro.sim.report import Counters, PhaseReport, SimReport
from repro.sim.wave import ArrayProfile, _fold
from repro.sim.work import PhaseKind
from repro.trace.core import PHASE_TRACK, get_tracer

__all__ = ["GpuExecution", "simulate_gpu"]

#: Instruction throughput relative to FP throughput: integer/control
#: instructions issue on separate pipes; we charge them at the same rate.
_INSTR_RATE_FACTOR = 1.0


@dataclass(frozen=True)
class GpuExecution:
    """Options for one GPU invocation."""

    transfer_back: bool = False


def simulate_gpu(
    gpu: GpuMachine,
    profile: ArrayProfile,
    arrays: tuple[SimArray, ...],
    options: GpuExecution = GpuExecution(),
) -> SimReport:
    """Cost ``profile`` on ``gpu``; mutates array residency via UM.

    ``arrays`` are the buffers the kernel touches. Their
    ``device_resident_fraction`` determines migration cost -- chained calls
    on the same data pay nothing, which reproduces Fig. 9b. Each phase's
    totals are left folds of its per-chunk ``elems x cost`` products,
    in chunk order.
    """
    um = UnifiedMemory(gpu)
    migration = 0.0
    for array in arrays:
        migration += um.to_device(array).seconds

    total_counters = Counters()
    phase_reports: list[PhaseReport] = []
    kernel_time = 0.0
    launches = max(1, profile.regions)

    tracer = get_tracer()
    if tracer.enabled:
        if migration > 0.0:
            tracer.record(
                "um-migration", migration, category="overhead", track=PHASE_TRACK,
                arrays=len(arrays),
            )
            tracer.advance(migration)
        launch_seconds = launches * gpu.kernel_launch_latency
        if launch_seconds > 0.0:
            tracer.record(
                "kernel-launch", launch_seconds, category="overhead",
                track=PHASE_TRACK, launches=launches,
            )
            tracer.advance(launch_seconds)

    for phase in profile.phases:
        elems = phase.elems
        instr = _fold(elems * phase.instr_per_elem)
        fp = _fold(elems * phase.fp_per_elem)
        bytes_read = _fold(elems * phase.read_per_elem)
        bytes_written = _fold(elems * phase.write_per_elem)

        rate = gpu.compute_rate(profile.elem.size)
        compute = (fp + instr * _INSTR_RATE_FACTOR) / rate
        memory = (bytes_read + bytes_written) / gpu.mem_bandwidth
        if phase.kind is PhaseKind.SEQUENTIAL:
            # Serial fix-ups run on one SM at a tiny fraction of the rate.
            compute = (fp + instr) / (rate / max(1, gpu.cuda_cores // 64))
        seconds = max(compute, memory)
        kernel_time += seconds

        counters = Counters(
            instructions=instr + fp,
            fp_scalar=fp,
            bytes_read=bytes_read,
            bytes_written=bytes_written,
        )
        total_counters = total_counters + counters
        phase_reports.append(
            PhaseReport(
                name=phase.name,
                seconds=seconds,
                compute_seconds=compute,
                memory_seconds=memory,
                overhead_seconds=0.0,
                counters=counters,
            )
        )
        if tracer.enabled:
            tracer.record(
                phase.name,
                seconds,
                category="phase",
                track=PHASE_TRACK,
                kind=phase.kind.value,
                bound="compute" if compute >= memory else "memory",
                compute_seconds=compute,
                memory_seconds=memory,
                overhead_seconds=0.0,
                instructions=instr + fp,
                bytes_read=bytes_read,
                bytes_written=bytes_written,
            )
            tracer.advance(seconds)

    transfer_back = 0.0
    if options.transfer_back:
        for array in arrays:
            transfer_back += um.to_host(array).seconds
    if tracer.enabled and transfer_back > 0.0:
        tracer.record(
            "d2h-transfer", transfer_back, category="overhead",
            track=PHASE_TRACK, arrays=len(arrays),
        )
        tracer.advance(transfer_back)

    launch = launches * gpu.kernel_launch_latency
    total = migration + launch + kernel_time + transfer_back
    if total < 0:
        raise SimulationError("negative GPU time (model bug)")
    return SimReport(
        seconds=total,
        counters=total_counters,
        phases=tuple(phase_reports),
        fork_join_seconds=launch,
        migration_seconds=migration + transfer_back,
    )
